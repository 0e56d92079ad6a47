//! Functions, regions, modules and enumeration declarations.

use std::collections::BTreeMap;

use crate::{DirectiveSet, EnumId, FuncId, Inst, InstId, InstKind, RegionId, Type, ValueId};

/// Where an SSA value comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ValueDef {
    /// The `index`-th function parameter.
    Param(usize),
    /// The `index`-th argument of a region (loop-carried value or
    /// iteration variable — the paper's loop-entry φ).
    RegionArg {
        /// Owning region.
        region: RegionId,
        /// Argument position.
        index: usize,
    },
    /// The `index`-th result of an instruction.
    InstResult {
        /// Defining instruction.
        inst: InstId,
        /// Result position.
        index: usize,
    },
}

/// Metadata for one SSA value.
#[derive(Clone, Debug, PartialEq)]
pub struct ValueData {
    /// Static type.
    pub ty: Type,
    /// Definition site.
    pub def: ValueDef,
    /// Optional human-readable name used by the printer.
    pub name: Option<String>,
}

/// A structured block: region arguments plus an instruction list ending
/// in a terminator (`yield`, or `ret` for the function body).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Region {
    /// Block arguments (loop iteration variables and carried values).
    pub args: Vec<ValueId>,
    /// Instructions in execution order.
    pub insts: Vec<InstId>,
}

/// A function: SSA value/instruction/region arenas plus an entry region.
#[derive(Clone, Debug)]
pub struct Function {
    /// Symbol name.
    pub name: String,
    /// Parameter values (defined as [`ValueDef::Param`]).
    pub params: Vec<ValueId>,
    /// Return type.
    pub ret_ty: Type,
    /// The body region (terminated by `ret`).
    pub body: RegionId,
    /// SSA value arena.
    pub values: Vec<ValueData>,
    /// Instruction arena.
    pub insts: Vec<Inst>,
    /// Region arena.
    pub regions: Vec<Region>,
    /// Directives keyed by allocation instruction (sparse).
    pub directives: BTreeMap<InstId, DirectiveSet>,
    /// Whether the function is externally visible (paper §III-F: such
    /// functions are cloned rather than retyped in place).
    pub exported: bool,
}

impl Function {
    /// A function with no parameters and an empty body region.
    pub fn new(name: &str, ret_ty: Type) -> Self {
        Function {
            name: name.to_string(),
            params: Vec::new(),
            ret_ty,
            body: RegionId(0),
            values: Vec::new(),
            insts: Vec::new(),
            regions: vec![Region::default()],
            directives: BTreeMap::new(),
            exported: false,
        }
    }

    /// Adds a value, returning its id.
    pub fn add_value(&mut self, ty: Type, def: ValueDef, name: Option<String>) -> ValueId {
        let v = ValueId::from_index(self.values.len());
        self.values.push(ValueData { ty, def, name });
        v
    }

    /// The type of a value.
    pub fn value_ty(&self, v: ValueId) -> &Type {
        &self.values[v.index()].ty
    }

    /// The value metadata for `v`.
    pub fn value(&self, v: ValueId) -> &ValueData {
        &self.values[v.index()]
    }

    /// The instruction behind an id.
    pub fn inst(&self, i: InstId) -> &Inst {
        &self.insts[i.index()]
    }

    /// Mutable access to an instruction.
    pub fn inst_mut(&mut self, i: InstId) -> &mut Inst {
        &mut self.insts[i.index()]
    }

    /// The region behind an id.
    pub fn region(&self, r: RegionId) -> &Region {
        &self.regions[r.index()]
    }

    /// The `yield` closing region `r`, if `r` exists and closes with one.
    pub fn closing_yield(&self, r: RegionId) -> Option<InstId> {
        let &last = self.regions.get(r.index())?.insts.last()?;
        (self.inst(last).kind == InstKind::Yield).then_some(last)
    }

    /// Directives attached to an allocation, if any.
    pub fn directive(&self, i: InstId) -> Option<&DirectiveSet> {
        self.directives.get(&i)
    }

    /// Iterates over every instruction id in the function, in pre-order
    /// (outer instructions before the contents of their regions).
    pub fn all_insts(&self) -> Vec<InstId> {
        let mut out = Vec::with_capacity(self.insts.len());
        self.walk_region(self.body, &mut out);
        out
    }

    fn walk_region(&self, r: RegionId, out: &mut Vec<InstId>) {
        for &i in &self.regions[r.index()].insts {
            out.push(i);
            for &sub in &self.insts[i.index()].regions {
                self.walk_region(sub, out);
            }
        }
    }

    /// Allocation instructions (`new`) of associative collection type —
    /// the `A` input set of Algorithm 3.
    pub fn assoc_allocations(&self) -> Vec<InstId> {
        self.all_insts()
            .into_iter()
            .filter(|&i| match &self.inst(i).kind {
                InstKind::New(ty) => ty.is_assoc(),
                _ => false,
            })
            .collect()
    }
}

/// A module-level enumeration class (paper §III-F): one shared
/// `Enc = Map<K, idx>` / `Dec = Seq<K>` pair per equivalence class.
#[derive(Clone, Debug, PartialEq)]
pub struct EnumDecl {
    /// Diagnostic name.
    pub name: String,
    /// The key domain being enumerated.
    pub key_ty: Type,
}

/// A compilation unit: functions plus enumeration declarations.
#[derive(Clone, Debug, Default)]
pub struct Module {
    /// Function arena.
    pub funcs: Vec<Function>,
    /// Enumeration classes created by the ADE transformation.
    pub enums: Vec<EnumDecl>,
}

impl Module {
    /// Creates an empty module.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a function, returning its id.
    pub fn add_function(&mut self, f: Function) -> FuncId {
        let id = FuncId::from_index(self.funcs.len());
        self.funcs.push(f);
        id
    }

    /// Adds an enumeration class, returning its id.
    pub fn add_enum(&mut self, decl: EnumDecl) -> EnumId {
        let id = EnumId::from_index(self.enums.len());
        self.enums.push(decl);
        id
    }

    /// Looks up a function by name.
    pub fn function_by_name(&self, name: &str) -> Option<FuncId> {
        self.funcs
            .iter()
            .position(|f| f.name == name)
            .map(FuncId::from_index)
    }

    /// The function behind an id.
    pub fn func(&self, f: FuncId) -> &Function {
        &self.funcs[f.index()]
    }

    /// Mutable access to a function.
    pub fn func_mut(&mut self, f: FuncId) -> &mut Function {
        &mut self.funcs[f.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;

    fn sample() -> Function {
        let mut b = FunctionBuilder::new("f", &[("s", Type::seq(Type::U64))], Type::Void);
        let s = b.param(0);
        let set = b.new_collection(Type::set(Type::U64));
        let _r = b.for_each(s, &[set], |b, _i, v, carried| {
            let v = v.expect("seq elem");
            let s2 = b.insert(carried[0], v);
            vec![s2]
        });
        b.ret_void();
        b.finish()
    }

    #[test]
    fn all_insts_pre_order_covers_nested() {
        let f = sample();
        let all = f.all_insts();
        assert_eq!(all.len(), f.insts.len());
        // The for-each must appear before its body's insert.
        let fe = all
            .iter()
            .position(|&i| f.inst(i).kind == InstKind::ForEach)
            .expect("foreach");
        let ins = all
            .iter()
            .position(|&i| f.inst(i).kind == InstKind::Insert)
            .expect("insert");
        assert!(fe < ins);
    }

    #[test]
    fn assoc_allocations_finds_sets_not_seqs() {
        let f = sample();
        assert_eq!(f.assoc_allocations().len(), 1);
    }

    #[test]
    fn module_lookup() {
        let mut m = Module::new();
        let id = m.add_function(sample());
        assert_eq!(m.function_by_name("f"), Some(id));
        assert_eq!(m.function_by_name("missing"), None);
        let e = m.add_enum(EnumDecl {
            name: "e0".into(),
            key_ty: Type::U64,
        });
        assert_eq!(m.enums[e.index()].key_ty, Type::U64);
    }
}
