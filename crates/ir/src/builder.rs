//! Ergonomic construction of IR functions.
//!
//! [`FunctionBuilder`] appends instructions to a current region and uses
//! closures to populate the regions of structured control flow, so the
//! carried-value plumbing (the paper's φ convention) stays explicit but
//! terse. The evaluation benchmarks in `ade-workloads` are authored
//! entirely through this API, playing the role of the paper's MEMOIR C++
//! collection library.

use crate::typing::{self, Externs};
use crate::{
    BinOp, CmpOp, ConstVal, DirectiveSet, EnumId, FuncId, Function, Inst, InstId, InstKind,
    LiteralData, Operand, Region, RegionId, Scalar, Type, ValueDef, ValueId,
};

/// Builds one [`Function`] instruction by instruction. Result and loop
/// argument types come from [`typing::signature`]; a method panics
/// where the rule cannot type its operands.
///
/// See the [crate-level example](crate) for a complete function.
#[derive(Debug)]
pub struct FunctionBuilder {
    func: Function,
    region_stack: Vec<RegionId>,
}

impl FunctionBuilder {
    /// Starts a function with named parameters.
    pub fn new(name: &str, params: &[(&str, Type)], ret_ty: Type) -> Self {
        let mut func = Function::new(name, ret_ty);
        for (i, (pname, pty)) in params.iter().enumerate() {
            let v = func.add_value(pty.clone(), ValueDef::Param(i), Some((*pname).to_string()));
            func.params.push(v);
        }
        let body = func.body;
        Self {
            func,
            region_stack: vec![body],
        }
    }

    /// Marks the function as externally visible (paper §III-F).
    pub fn exported(&mut self) -> &mut Self {
        self.func.exported = true;
        self
    }

    /// The `i`-th parameter value.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn param(&self, i: usize) -> ValueId {
        self.func.params[i]
    }

    /// Finishes the function.
    ///
    /// # Panics
    ///
    /// Panics if a structured region is still open.
    pub fn finish(self) -> Function {
        assert_eq!(self.region_stack.len(), 1, "unclosed region");
        self.func
    }

    fn current_region(&self) -> RegionId {
        *self.region_stack.last().expect("builder has a region")
    }

    /// The static type of an operand, resolving nesting paths.
    ///
    /// # Panics
    ///
    /// Panics if the path does not match the base type.
    pub fn operand_type(&self, op: &Operand) -> Type {
        operand_type_in(&self.func, op).clone()
    }

    fn signature(&self, inst: &Inst) -> typing::Signature {
        typing::signature(&self.func, inst, Externs::default()).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Appends `inst` to the current region with results of `result_tys`.
    fn append(&mut self, mut inst: Inst, result_tys: Vec<Type>) -> Vec<ValueId> {
        let inst_id = InstId::from_index(self.func.insts.len());
        inst.results = result_tys
            .into_iter()
            .enumerate()
            .map(|(index, ty)| {
                self.func.add_value(
                    ty,
                    ValueDef::InstResult {
                        inst: inst_id,
                        index,
                    },
                    None,
                )
            })
            .collect();
        let results = inst.results.clone();
        self.func.insts.push(inst);
        let region = self.current_region();
        self.func.regions[region.index()].insts.push(inst_id);
        results
    }

    /// Appends `inst`, typed by the rule.
    fn emit_inst(&mut self, inst: Inst) -> Vec<ValueId> {
        let results = self.signature(&inst).results;
        self.append(inst, results)
    }

    fn emit(&mut self, kind: InstKind, operands: Vec<Operand>) -> Vec<ValueId> {
        self.emit_inst(Inst {
            kind,
            operands,
            regions: Vec::new(),
            results: Vec::new(),
        })
    }

    fn emit1(&mut self, kind: InstKind, operands: Vec<Operand>) -> ValueId {
        self.emit(kind, operands)[0]
    }

    // ---- constants ------------------------------------------------------

    /// Materializes a `u64` constant.
    pub fn const_u64(&mut self, v: u64) -> ValueId {
        self.emit1(InstKind::Const(ConstVal::U64(v)), vec![])
    }

    /// Materializes an `f64` constant.
    pub fn const_f64(&mut self, v: f64) -> ValueId {
        self.emit1(InstKind::Const(ConstVal::F64(v)), vec![])
    }

    /// Materializes a string constant.
    pub fn const_str(&mut self, v: &str) -> ValueId {
        self.emit1(InstKind::Const(ConstVal::Str(v.to_string())), vec![])
    }

    // ---- arithmetic ------------------------------------------------------

    /// Emits a binary operation; the result takes the left operand's type.
    pub fn bin(&mut self, op: BinOp, a: ValueId, b: ValueId) -> ValueId {
        self.emit1(InstKind::Bin(op), vec![a.into(), b.into()])
    }

    /// `a + b`.
    pub fn add(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.bin(BinOp::Add, a, b)
    }

    /// `a - b`.
    pub fn sub(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.bin(BinOp::Sub, a, b)
    }

    /// `a * b`.
    pub fn mul(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.bin(BinOp::Mul, a, b)
    }

    /// `a / b`.
    pub fn div(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.bin(BinOp::Div, a, b)
    }

    /// `min(a, b)`.
    pub fn min(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.bin(BinOp::Min, a, b)
    }

    /// `max(a, b)`.
    pub fn max(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.bin(BinOp::Max, a, b)
    }

    /// Emits a comparison producing `bool`.
    pub fn cmp(&mut self, op: CmpOp, a: ValueId, b: ValueId) -> ValueId {
        self.emit1(InstKind::Cmp(op), vec![a.into(), b.into()])
    }

    /// `a == b`.
    pub fn eq(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.cmp(CmpOp::Eq, a, b)
    }

    /// `a != b`.
    pub fn ne(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.cmp(CmpOp::Ne, a, b)
    }

    /// `a < b`.
    pub fn lt(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.cmp(CmpOp::Lt, a, b)
    }

    /// `!a`.
    pub fn not(&mut self, a: ValueId) -> ValueId {
        self.emit1(InstKind::Not, vec![a.into()])
    }

    /// Numeric conversion of `a` to `ty`.
    pub fn cast(&mut self, a: ValueId, ty: Type) -> ValueId {
        self.emit1(InstKind::Cast(ty), vec![a.into()])
    }

    // ---- collections -----------------------------------------------------

    /// Allocates a new collection of type `ty`.
    pub fn new_collection(&mut self, ty: Type) -> ValueId {
        self.emit1(InstKind::New(ty), vec![])
    }

    /// Materializes a literal collection: a `Seq` of `elems`, in order,
    /// built by one instruction.
    pub fn literal(&mut self, elems: impl Into<LiteralData>) -> ValueId {
        let kind = InstKind::Literal {
            elems: elems.into(),
            enumeration: None,
        };
        self.emit1(kind, vec![])
    }

    /// Allocates a new collection carrying optimization directives
    /// (paper §III-I).
    pub fn new_collection_with(&mut self, ty: Type, directives: DirectiveSet) -> ValueId {
        let v = self.new_collection(ty);
        let ValueDef::InstResult { inst, .. } = self.func.value(v).def else {
            unreachable!("new_collection defines an inst result");
        };
        self.func.directives.insert(inst, directives);
        v
    }

    /// `read(c, k) → v`.
    pub fn read(&mut self, c: impl Into<Operand>, k: impl Into<Operand>) -> ValueId {
        self.emit1(InstKind::Read, vec![c.into(), k.into()])
    }

    /// `write(c, k, v) → c'` (new state of the *base* collection).
    pub fn write(
        &mut self,
        c: impl Into<Operand>,
        k: impl Into<Operand>,
        v: impl Into<Operand>,
    ) -> ValueId {
        self.emit1(InstKind::Write, vec![c.into(), k.into(), v.into()])
    }

    /// `has(c, k) → bool`.
    pub fn has(&mut self, c: impl Into<Operand>, k: impl Into<Operand>) -> ValueId {
        self.emit1(InstKind::Has, vec![c.into(), k.into()])
    }

    /// Set/map insert: `insert(c, k) → c'`.
    pub fn insert(&mut self, c: impl Into<Operand>, k: impl Into<Operand>) -> ValueId {
        self.emit1(InstKind::Insert, vec![c.into(), k.into()])
    }

    /// Sequence insert at a position: `insert(s, i, v) → s'`.
    pub fn insert_at(
        &mut self,
        s: impl Into<Operand>,
        i: Scalar,
        v: impl Into<Operand>,
    ) -> ValueId {
        let s = s.into();
        let idx_op = match i {
            Scalar::Value(v) => Operand::value(v),
            Scalar::Const(n) => {
                let c = self.const_u64(n);
                Operand::value(c)
            }
            Scalar::End => {
                // `end` is encoded as a size query at execution time; the
                // dedicated opcode keeps appends O(1).
                let s_base = s.clone();
                let sz = self.size(s_base);
                Operand::value(sz)
            }
        };
        self.emit1(InstKind::Insert, vec![s, idx_op, v.into()])
    }

    /// Appends `v` to sequence `s`: `insert(s, end, v) → s'`.
    pub fn push(&mut self, s: impl Into<Operand>, v: impl Into<Operand>) -> ValueId {
        self.insert_at(s, Scalar::End, v)
    }

    /// `remove(c, k) → c'`.
    pub fn remove(&mut self, c: impl Into<Operand>, k: impl Into<Operand>) -> ValueId {
        self.emit1(InstKind::Remove, vec![c.into(), k.into()])
    }

    /// `clear(c) → c'`.
    pub fn clear(&mut self, c: impl Into<Operand>) -> ValueId {
        self.emit1(InstKind::Clear, vec![c.into()])
    }

    /// `size(c) → u64`.
    pub fn size(&mut self, c: impl Into<Operand>) -> ValueId {
        self.emit1(InstKind::Size, vec![c.into()])
    }

    /// Bulk set union: `union(dst, src) → dst'`.
    pub fn union_into(&mut self, dst: impl Into<Operand>, src: impl Into<Operand>) -> ValueId {
        self.emit1(InstKind::UnionInto, vec![dst.into(), src.into()])
    }

    // ---- enumeration translations (paper §III-B) --------------------------

    /// `enc(e, v) → idx`.
    pub fn enc(&mut self, e: EnumId, v: impl Into<Operand>) -> ValueId {
        self.emit1(InstKind::Enc(e), vec![v.into()])
    }

    /// `dec(e, i) → v` of `key_ty` (the enumeration's key domain).
    pub fn dec(&mut self, e: EnumId, i: impl Into<Operand>, key_ty: Type) -> ValueId {
        let inst = Inst {
            kind: InstKind::Dec(e),
            operands: vec![i.into()],
            regions: Vec::new(),
            results: Vec::new(),
        };
        self.append(inst, vec![key_ty])[0]
    }

    /// `add(e, v) → idx`.
    pub fn enum_add(&mut self, e: EnumId, v: impl Into<Operand>) -> ValueId {
        self.emit1(InstKind::EnumAdd(e), vec![v.into()])
    }

    // ---- miscellaneous ----------------------------------------------------

    /// Prints operands as one output record.
    pub fn print(&mut self, vals: &[ValueId]) {
        let ops = vals.iter().map(|&v| v.into()).collect();
        self.emit(InstKind::Print, ops);
    }

    /// Calls `callee` with `args`; `ret_ty` must match the callee.
    pub fn call(&mut self, callee: FuncId, args: &[ValueId], ret_ty: Type) -> Option<ValueId> {
        let inst = Inst {
            kind: InstKind::Call(callee),
            operands: args.iter().map(|&v| v.into()).collect(),
            regions: Vec::new(),
            results: Vec::new(),
        };
        let result_tys = if ret_ty == Type::Void {
            vec![]
        } else {
            vec![ret_ty]
        };
        self.append(inst, result_tys).first().copied()
    }

    /// Marks the start of the region of interest (paper Fig. 5b).
    pub fn roi_begin(&mut self) {
        self.emit(InstKind::Roi(true), vec![]);
    }

    /// Marks the end of the region of interest.
    pub fn roi_end(&mut self) {
        self.emit(InstKind::Roi(false), vec![]);
    }

    /// Returns `v` from the function.
    pub fn ret(&mut self, v: ValueId) {
        self.emit(InstKind::Ret, vec![v.into()]);
    }

    /// Returns from a `void` function.
    pub fn ret_void(&mut self) {
        self.emit(InstKind::Ret, vec![]);
    }

    // ---- structured control flow ------------------------------------------

    fn open_region(&mut self) -> RegionId {
        let region = RegionId::from_index(self.func.regions.len());
        self.func.regions.push(Region::default());
        self.region_stack.push(region);
        region
    }

    fn close_region(&mut self, region: RegionId, yields: Vec<ValueId>) {
        assert_eq!(self.current_region(), region, "mismatched region close");
        let ops = yields.into_iter().map(Operand::value).collect();
        self.emit(InstKind::Yield, ops);
        self.region_stack.pop();
    }

    /// Opens the body of a loop of `kind` over `operands`, binding the
    /// arguments the rule gives it. Returns the loop, to be emitted once
    /// the body is closed, and the body arguments.
    fn open_loop(&mut self, kind: InstKind, operands: Vec<Operand>) -> (Inst, Vec<ValueId>) {
        let region = self.open_region();
        let inst = Inst {
            kind,
            operands,
            regions: vec![region],
            results: Vec::new(),
        };
        let body_args = self.signature(&inst).body_args;
        let args: Vec<ValueId> = body_args
            .into_iter()
            .enumerate()
            .map(|(index, ty)| {
                self.func
                    .add_value(ty, ValueDef::RegionArg { region, index }, None)
            })
            .collect();
        self.func.regions[region.index()].args.clone_from(&args);
        (inst, args)
    }

    /// Structured if-else. Each closure returns its yield values; both
    /// must yield the same number and types of values, which become the
    /// instruction's results (the if-else-exit φ of paper §III-A).
    ///
    /// # Panics
    ///
    /// Panics if the branches yield differently-typed value lists.
    pub fn if_else(
        &mut self,
        cond: ValueId,
        then_fn: impl FnOnce(&mut Self) -> Vec<ValueId>,
        else_fn: impl FnOnce(&mut Self) -> Vec<ValueId>,
    ) -> Vec<ValueId> {
        let types_of = |b: &Self, vals: &[ValueId]| -> Vec<Type> {
            vals.iter().map(|&v| b.func.value_ty(v).clone()).collect()
        };
        let then_region = self.open_region();
        let then_vals = then_fn(self);
        let then_tys = types_of(self, &then_vals);
        self.close_region(then_region, then_vals);

        let else_region = self.open_region();
        let else_vals = else_fn(self);
        assert_eq!(
            then_tys,
            types_of(self, &else_vals),
            "if-else branches must yield same types"
        );
        self.close_region(else_region, else_vals);

        self.emit_inst(Inst {
            kind: InstKind::If,
            operands: vec![cond.into()],
            regions: vec![then_region, else_region],
            results: Vec::new(),
        })
    }

    /// For-each over a collection with carried values.
    ///
    /// The body receives the iteration key, an optional element value
    /// (`None` when iterating a set) and the carried values, and returns
    /// the next carried values. Results are the final carried values.
    pub fn for_each(
        &mut self,
        collection: impl Into<Operand>,
        inits: &[ValueId],
        body_fn: impl FnOnce(&mut Self, ValueId, Option<ValueId>, &[ValueId]) -> Vec<ValueId>,
    ) -> Vec<ValueId> {
        let mut operands = vec![collection.into()];
        operands.extend(inits.iter().map(|&v| Operand::value(v)));
        let (inst, args) = self.open_loop(InstKind::ForEach, operands);
        let (iter, carried) = args.split_at(args.len() - inits.len());
        let next = body_fn(self, iter[0], iter.get(1).copied(), carried);
        assert_eq!(next.len(), inits.len(), "carried value count mismatch");
        self.close_region(inst.regions[0], next);
        self.emit_inst(inst)
    }

    /// Counted loop over `[lo, hi)` with carried values.
    pub fn for_range(
        &mut self,
        lo: ValueId,
        hi: ValueId,
        inits: &[ValueId],
        body_fn: impl FnOnce(&mut Self, ValueId, &[ValueId]) -> Vec<ValueId>,
    ) -> Vec<ValueId> {
        let mut operands = vec![Operand::value(lo), Operand::value(hi)];
        operands.extend(inits.iter().map(|&v| Operand::value(v)));
        let (inst, args) = self.open_loop(InstKind::ForRange, operands);
        let next = body_fn(self, args[0], &args[1..]);
        assert_eq!(next.len(), inits.len(), "carried value count mismatch");
        self.close_region(inst.regions[0], next);
        self.emit_inst(inst)
    }

    /// Do-while loop with carried values. The body returns the loop
    /// condition followed by the next carried values; the loop repeats
    /// while the condition holds.
    pub fn do_while(
        &mut self,
        inits: &[ValueId],
        body_fn: impl FnOnce(&mut Self, &[ValueId]) -> (ValueId, Vec<ValueId>),
    ) -> Vec<ValueId> {
        let operands = inits.iter().map(|&v| Operand::value(v)).collect();
        let (inst, args) = self.open_loop(InstKind::DoWhile, operands);
        let (cond, next) = body_fn(self, &args);
        assert_eq!(next.len(), inits.len(), "carried value count mismatch");
        let mut yields = vec![cond];
        yields.extend(next);
        self.close_region(inst.regions[0], yields);
        self.emit_inst(inst)
    }
}

/// The static type of an operand within `func`, resolving nesting paths
/// ([`typing::operand_type`]).
///
/// # Panics
///
/// Panics if the path does not match the base type.
pub fn operand_type_in<'f>(func: &'f Function, op: &Operand) -> &'f Type {
    typing::operand_type(func, op).unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straight_line_types() {
        let mut b = FunctionBuilder::new("f", &[], Type::U64);
        let x = b.const_u64(2);
        let y = b.const_u64(3);
        let z = b.add(x, y);
        b.ret(z);
        let f = b.finish();
        assert_eq!(f.value_ty(z), &Type::U64);
        assert_eq!(f.regions[f.body.index()].insts.len(), 4);
    }

    #[test]
    fn if_else_results_are_phi() {
        let mut b = FunctionBuilder::new("f", &[("c", Type::Bool)], Type::U64);
        let c = b.param(0);
        let r = b.if_else(c, |b| vec![b.const_u64(1)], |b| vec![b.const_u64(2)]);
        b.ret(r[0]);
        let f = b.finish();
        assert_eq!(f.value_ty(r[0]), &Type::U64);
        // 3 regions: body + then + else.
        assert_eq!(f.regions.len(), 3);
    }

    #[test]
    #[should_panic(expected = "same types")]
    fn if_else_mismatched_yields_panic() {
        let mut b = FunctionBuilder::new("f", &[("c", Type::Bool)], Type::Void);
        let c = b.param(0);
        b.if_else(c, |b| vec![b.const_u64(1)], |b| vec![b.const_f64(1.0)]);
    }

    #[test]
    fn for_each_over_map_binds_key_value() {
        let mut b = FunctionBuilder::new("f", &[("m", Type::map(Type::Str, Type::U64))], Type::U64);
        let m = b.param(0);
        let zero = b.const_u64(0);
        let sum = b.for_each(m, &[zero], |b, _k, v, carried| {
            let v = v.expect("map iteration binds values");
            vec![b.add(carried[0], v)]
        })[0];
        b.ret(sum);
        let f = b.finish();
        assert_eq!(f.value_ty(sum), &Type::U64);
    }

    #[test]
    fn for_each_over_set_has_no_value() {
        let mut b = FunctionBuilder::new("f", &[("s", Type::set(Type::U64))], Type::Void);
        let s = b.param(0);
        b.for_each(s, &[], |_b, _k, v, _carried| {
            assert!(v.is_none());
            vec![]
        });
        b.ret_void();
        b.finish();
    }

    #[test]
    fn do_while_carries() {
        let mut b = FunctionBuilder::new("f", &[], Type::U64);
        let zero = b.const_u64(0);
        let r = b.do_while(&[zero], |b, carried| {
            let one = b.const_u64(1);
            let next = b.add(carried[0], one);
            let ten = b.const_u64(10);
            let cond = b.lt(next, ten);
            (cond, vec![next])
        });
        b.ret(r[0]);
        let f = b.finish();
        assert_eq!(f.value_ty(r[0]), &Type::U64);
    }

    #[test]
    fn nested_operand_type_resolution() {
        let mut b = FunctionBuilder::new(
            "f",
            &[("m", Type::map(Type::U64, Type::set(Type::U64)))],
            Type::Void,
        );
        let m = b.param(0);
        let k = b.const_u64(0);
        let inner = Operand::nested(m, Scalar::Value(k));
        assert_eq!(b.operand_type(&inner), Type::set(Type::U64));
        // Insert into the nested set: result is the new state of the base map.
        let v = b.const_u64(5);
        let m2 = b.insert(inner, v);
        assert_eq!(
            b.operand_type(&Operand::value(m2)),
            Type::map(Type::U64, Type::set(Type::U64))
        );
        b.ret_void();
        b.finish();
    }

    #[test]
    fn directives_attach_to_allocation() {
        let mut b = FunctionBuilder::new("f", &[], Type::Void);
        let d = DirectiveSet::new().with_noshare();
        let _c = b.new_collection_with(Type::set(Type::U64), d.clone());
        b.ret_void();
        let f = b.finish();
        let allocs = f.assoc_allocations();
        assert_eq!(allocs.len(), 1);
        assert_eq!(f.directive(allocs[0]), Some(&d));
    }

    #[test]
    fn push_appends_via_size() {
        let mut b = FunctionBuilder::new("f", &[], Type::Void);
        let s = b.new_collection(Type::seq(Type::U64));
        let v = b.const_u64(9);
        let s2 = b.push(s, v);
        b.ret_void();
        let f = b.finish();
        assert_eq!(f.value_ty(s2), &Type::seq(Type::U64));
    }
}
