//! Textual form of the IR, close to the paper's Fig. 1 syntax.
//!
//! The printed form round-trips through [`crate::parse`]; see that module
//! for the grammar. Example output for the paper's Listing 1:
//!
//! ```text
//! fn @count(%input: Seq<f64>) -> void {
//!   %1 = new Map<f64, u64>
//!   %9 = foreach %input carry(%1) as (%2: u64, %3: f64, %4: Map<f64, u64>) {
//!     %5 = has %4, %3
//!     ...
//!     yield %8
//!   }
//!   ret
//! }
//! ```

use std::fmt::Write as _;

use crate::typing::arity;
use crate::{
    Access, DirectiveSet, Function, Inst, InstKind, LiteralData, Module, Operand, RegionId, Scalar,
    ValueId,
};

/// Prints a whole module.
pub fn print_module(module: &Module) -> String {
    let mut out = String::new();
    for (i, e) in module.enums.iter().enumerate() {
        let _ = writeln!(out, "enum e{i}: {} // {}", e.key_ty, e.name);
    }
    if !module.enums.is_empty() {
        out.push('\n');
    }
    for f in &module.funcs {
        out.push_str(&print_function(f));
        out.push('\n');
    }
    out
}

/// Prints one function.
pub fn print_function(func: &Function) -> String {
    let mut p = Printer {
        func,
        out: String::new(),
        indent: 0,
    };
    p.function();
    p.out
}

struct Printer<'a> {
    func: &'a Function,
    out: String,
    indent: usize,
}

impl Printer<'_> {
    fn function(&mut self) {
        let _ = write!(self.out, "fn @{}(", self.func.name);
        for (i, &p) in self.func.params.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            let _ = write!(self.out, "{}: {}", self.value(p), self.func.value_ty(p));
        }
        let _ = write!(self.out, ") -> {}", self.func.ret_ty);
        if self.func.exported {
            self.out.push_str(" exported");
        }
        self.out.push_str(" {\n");
        self.indent += 1;
        self.region_body(self.func.body);
        self.indent -= 1;
        self.out.push_str("}\n");
    }

    fn value(&self, v: ValueId) -> String {
        match &self.func.values[v.index()].name {
            Some(name) => format!("%{name}"),
            None => format!("%{}", v.0),
        }
    }

    fn scalar(&self, s: &Scalar) -> String {
        match s {
            Scalar::Value(v) => self.value(*v),
            Scalar::Const(n) => n.to_string(),
            Scalar::End => "end".to_string(),
        }
    }

    fn operand(&self, op: &Operand) -> String {
        let mut s = self.value(op.base);
        for a in &op.path {
            match a {
                Access::Index(idx) => {
                    s.push('[');
                    s.push_str(&self.scalar(idx));
                    s.push(']');
                }
                Access::Field(n) => {
                    let _ = write!(s, ".{n}");
                }
            }
        }
        s
    }

    fn operands(&self, ops: &[Operand]) -> String {
        ops.iter()
            .map(|o| self.operand(o))
            .collect::<Vec<_>>()
            .join(", ")
    }

    fn results(&self, inst: &Inst) -> String {
        if inst.results.is_empty() {
            String::new()
        } else {
            let names: Vec<String> = inst.results.iter().map(|&v| self.value(v)).collect();
            format!("{} = ", names.join(", "))
        }
    }

    fn line_start(&mut self) {
        for _ in 0..self.indent {
            self.out.push_str("  ");
        }
    }

    fn region_body(&mut self, r: RegionId) {
        let insts: Vec<_> = self.func.regions[r.index()].insts.clone();
        for i in insts {
            self.inst(&self.func.insts[i.index()].clone(), i);
        }
    }

    fn region_header(&mut self, r: RegionId) {
        let args = &self.func.regions[r.index()].args;
        if !args.is_empty() {
            let parts: Vec<String> = args
                .iter()
                .map(|&a| format!("{}: {}", self.value(a), self.func.value_ty(a)))
                .collect();
            let _ = write!(self.out, " as ({})", parts.join(", "));
        }
    }

    fn open_block(&mut self) {
        self.out.push_str(" {\n");
        self.indent += 1;
    }

    fn close_block(&mut self) {
        self.indent -= 1;
        self.line_start();
        self.out.push('}');
    }

    fn inst(&mut self, inst: &Inst, id: crate::InstId) {
        self.line_start();
        let res = self.results(inst);
        let op = inst.kind.opcode();
        let ops = self.operands(&inst.operands);
        match &inst.kind {
            InstKind::Const(c) => {
                let _ = write!(self.out, "{res}const {c}");
            }
            InstKind::New(ty) => {
                let _ = write!(self.out, "{res}new {ty}");
                if let Some(d) = self.func.directives.get(&id) {
                    let _ = write!(self.out, " {}", directive_text(d));
                }
            }
            InstKind::Literal { elems, enumeration } => {
                let _ = write!(self.out, "{res}literal {} [", elems.elem_ty());
                match elems {
                    LiteralData::U64(v) => list(&mut self.out, v.iter(), |out, n| {
                        let _ = write!(out, "{n}");
                    }),
                    LiteralData::Str(v) => list(&mut self.out, v.iter(), |out, s| {
                        let _ = write!(out, "{s:?}");
                    }),
                }
                self.out.push(']');
                if let Some(e) = enumeration {
                    let _ = write!(self.out, " enumadd {e}");
                }
            }
            InstKind::Cast(ty) => {
                let _ = write!(self.out, "{res}cast {ops} to {ty}");
            }
            InstKind::Call(f) => {
                let _ = write!(self.out, "{res}call @{}({ops})", f.0);
            }
            InstKind::Enc(e) | InstKind::Dec(e) | InstKind::EnumAdd(e) => {
                let _ = write!(self.out, "{res}{op} {e}, {ops}");
            }
            InstKind::If => {
                let _ = write!(self.out, "{res}if {ops} then");
                self.open_block();
                self.region_body(inst.regions[0]);
                self.close_block();
                self.out.push_str(" else");
                self.open_block();
                self.region_body(inst.regions[1]);
                self.close_block();
            }
            InstKind::ForEach | InstKind::ForRange | InstKind::DoWhile => {
                // The loop's own operands, then its carried values.
                let (own, carried) = inst.operands.split_at(arity(&inst.kind).0);
                let _ = write!(self.out, "{res}{op}");
                if !own.is_empty() {
                    let _ = write!(self.out, " {}", self.operands(own));
                }
                if !carried.is_empty() {
                    let _ = write!(self.out, " carry({})", self.operands(carried));
                }
                self.region_header(inst.regions[0]);
                self.open_block();
                self.region_body(inst.regions[0]);
                self.close_block();
            }
            InstKind::Roi(begin) => {
                let _ = write!(self.out, "roi {}", if *begin { "begin" } else { "end" });
            }
            InstKind::Yield | InstKind::Ret if inst.operands.is_empty() => {
                self.out.push_str(op);
            }
            _ => {
                let _ = write!(self.out, "{res}{op} {ops}");
            }
        }
        self.out.push('\n');
    }
}

/// Writes `items` separated by `, `.
fn list<T>(out: &mut String, items: impl Iterator<Item = T>, mut item: impl FnMut(&mut String, T)) {
    for (i, x) in items.enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        item(out, x);
    }
}

fn directive_text(d: &DirectiveSet) -> String {
    format!("#[{}]", directive_items(d))
}

fn directive_items(d: &DirectiveSet) -> String {
    let mut parts = Vec::new();
    match d.enumerate {
        Some(true) => parts.push("enumerate".to_string()),
        Some(false) => parts.push("noenumerate".to_string()),
        None => {}
    }
    if d.noshare {
        parts.push("noshare".to_string());
    }
    if let Some(g) = &d.share_group {
        parts.push(format!("group({g:?})"));
    }
    if let Some(s) = d.select {
        parts.push(format!("select({})", s.name()));
    }
    if let Some(n) = &d.nested {
        parts.push(format!("nested({})", directive_items(n)));
    }
    parts.join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::Type;

    #[test]
    fn prints_listing1_shape() {
        let mut b = FunctionBuilder::new("count", &[("input", Type::seq(Type::F64))], Type::Void);
        let input = b.param(0);
        let hist = b.new_collection(Type::map(Type::F64, Type::U64));
        b.for_each(input, &[hist], |b, _i, val, carried| {
            let val = val.expect("seq elem");
            let h = carried[0];
            let cond = b.has(h, val);
            let zero = b.const_u64(0);
            let r = b.if_else(
                cond,
                |b| {
                    let f = b.read(h, val);
                    vec![h, f]
                },
                |b| {
                    let h2 = b.insert(h, val);
                    vec![h2, zero]
                },
            );
            let one = b.const_u64(1);
            let f1 = b.add(r[1], one);
            vec![b.write(r[0], val, f1)]
        });
        b.ret_void();
        let text = print_function(&b.finish());
        assert!(text.contains("fn @count(%input: Seq<f64>) -> void {"));
        assert!(text.contains("new Map<f64, u64>"));
        assert!(text.contains("foreach %input carry("));
        assert!(text.contains("if %"));
        assert!(text.contains("yield"));
        assert!(text.ends_with("}\n"));
    }

    #[test]
    fn prints_directives() {
        let mut b = FunctionBuilder::new("f", &[], Type::Void);
        let d = crate::DirectiveSet::new()
            .with_enumerate(true)
            .with_noshare()
            .with_share_group("pts")
            .with_select(crate::SelectionChoice::SparseBit);
        b.new_collection_with(Type::set(Type::U64), d);
        b.ret_void();
        let text = print_function(&b.finish());
        assert!(
            text.contains("#[enumerate, noshare, group(\"pts\"), select(SparseBit)]"),
            "{text}"
        );
    }

    #[test]
    fn prints_nested_operands() {
        use crate::{Operand, Scalar};
        let mut b = FunctionBuilder::new(
            "f",
            &[("m", Type::map(Type::U64, Type::set(Type::U64)))],
            Type::Void,
        );
        let m = b.param(0);
        let k = b.const_u64(3);
        let v = b.const_u64(7);
        b.insert(Operand::nested(m, Scalar::Value(k)), v);
        b.ret_void();
        let text = print_function(&b.finish());
        assert!(text.contains("insert %m["), "{text}");
    }
}
