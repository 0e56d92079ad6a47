//! Escape analysis for collections (paper §III-F).
//!
//! ADE must see every use of a collection to patch its translations, so
//! the paper excludes collections that "escape into unknown memory
//! locations" and those passed to indirect or external callees. In this
//! IR all calls are direct and intra-module, so the escape conditions
//! are:
//!
//! * the collection is *stored into another collection* as an element
//!   (its identity then flows through data, not SSA);
//! * the collection is returned from its function (its uses continue in
//!   an unknown caller — conservatively treated as escaping, matching
//!   the paper's conservative handling);
//! * the collection is passed to an `exported` function (externally
//!   visible callees may have callers outside the module).
//!
//! Passing a collection to a non-exported, intra-module callee does
//! *not* escape it: that case is handled by the interprocedural
//! unification of Algorithm 5.

use std::collections::HashSet;

use ade_ir::{Function, InstKind, Module, ValueId};

use crate::RedefChains;

/// Escaping collection roots for one function.
#[derive(Debug, Clone)]
pub struct EscapeAnalysis {
    escaped_roots: HashSet<ValueId>,
}

impl EscapeAnalysis {
    /// Computes escape information for `func` given its redef chains.
    pub fn compute(module: &Module, func: &Function, chains: &RedefChains) -> Self {
        let mut escaped_roots = HashSet::new();
        for inst_id in func.all_insts() {
            let inst = func.inst(inst_id);
            match &inst.kind {
                // Storing a collection as the *element* of another
                // collection (not via a nesting path) hides its identity.
                InstKind::Write => {
                    Self::escape_if_collection(func, chains, &inst.operands[2], &mut escaped_roots);
                }
                InstKind::Insert => {
                    // Set insert: operand 1 is the element; seq insert:
                    // operand 2 is the element.
                    if let Some(op) = inst.operands.get(1) {
                        Self::escape_if_collection(func, chains, op, &mut escaped_roots);
                    }
                    if let Some(op) = inst.operands.get(2) {
                        Self::escape_if_collection(func, chains, op, &mut escaped_roots);
                    }
                }
                InstKind::Ret => {
                    if let Some(op) = inst.operands.first() {
                        Self::escape_if_collection(func, chains, op, &mut escaped_roots);
                    }
                }
                InstKind::Call(callee) => {
                    let target = module.funcs.get(callee.index());
                    let exported = target.is_none_or(|t| t.exported);
                    if exported {
                        for op in &inst.operands {
                            Self::escape_if_collection(func, chains, op, &mut escaped_roots);
                        }
                    }
                }
                _ => {}
            }
        }
        Self { escaped_roots }
    }

    fn escape_if_collection(
        func: &Function,
        chains: &RedefChains,
        op: &ade_ir::Operand,
        escaped: &mut HashSet<ValueId>,
    ) {
        // Only the base matters: nesting paths address sub-collections in
        // place, which stay analyzable (§III-G).
        if op.path.is_empty() && func.value_ty(op.base).is_collection() {
            escaped.insert(chains.root_of(op.base));
        }
    }

    /// Whether the collection rooted at `root` escapes.
    pub fn escapes(&self, root: ValueId) -> bool {
        self.escaped_roots.contains(&root)
    }

    /// All escaping roots.
    pub fn escaped_roots(&self) -> impl Iterator<Item = ValueId> + '_ {
        self.escaped_roots.iter().copied()
    }

    /// Emits one `escape`-category verdict event per escaping root
    /// (sorted by value index so the event sequence is deterministic).
    /// Free when `tracer` is disabled.
    pub fn trace_verdicts(&self, tracer: &ade_obs::Tracer, func: &Function) {
        if !tracer.is_enabled() {
            return;
        }
        let mut roots: Vec<ValueId> = self.escaped_roots.iter().copied().collect();
        roots.sort();
        for root in roots {
            tracer
                .event("escape", "escaped")
                .field("func", func.name.as_str())
                .field("value", value_label(func, root))
                .emit();
        }
    }
}

/// `%name` when the value is named, `%<index>` otherwise.
pub fn value_label(func: &Function, v: ValueId) -> String {
    match &func.value(v).name {
        Some(name) => format!("%{name}"),
        None => format!("%{}", v.index()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ade_ir::parse::parse_module;

    fn analyze(text: &str) -> (Module, Vec<bool>) {
        let m = parse_module(text).expect("parses");
        let f = &m.funcs[0];
        let chains = RedefChains::compute(f);
        let esc = EscapeAnalysis::compute(&m, f, &chains);
        let flags = chains.roots().iter().map(|&r| esc.escapes(r)).collect();
        (m, flags)
    }

    #[test]
    fn returned_collection_escapes() {
        let (_, flags) = analyze("fn @f() -> Set<u64> {\n  %s = new Set<u64>\n  ret %s\n}\n");
        assert_eq!(flags, vec![true]);
    }

    #[test]
    fn local_collection_does_not_escape() {
        let (_, flags) = analyze(
            "fn @f() -> void {\n  %s = new Set<u64>\n  %x = const 1u64\n  %s1 = insert %s, %x\n  ret\n}\n",
        );
        assert_eq!(flags, vec![false]);
    }

    #[test]
    fn stored_into_sequence_escapes() {
        let (_, flags) = analyze(
            r#"
fn @f(%q: Seq<Set<u64>>) -> void {
  %s = new Set<u64>
  %n = size %q
  %q1 = insert %q, %n, %s
  ret
}
"#,
        );
        // Two roots: %q (param, not escaping) and %s (escapes as element).
        assert_eq!(flags.iter().filter(|&&e| e).count(), 1);
    }

    #[test]
    fn passing_to_internal_callee_does_not_escape() {
        let (_, flags) = analyze(
            r#"
fn @f() -> void {
  %s = new Set<u64>
  call @1(%s)
  ret
}
fn @g(%p: Set<u64>) -> void {
  ret
}
"#,
        );
        assert_eq!(flags, vec![false]);
    }

    #[test]
    fn passing_to_exported_callee_escapes() {
        let (_, flags) = analyze(
            r#"
fn @f() -> void {
  %s = new Set<u64>
  call @1(%s)
  ret
}
fn @g(%p: Set<u64>) -> void exported {
  ret
}
"#,
        );
        assert_eq!(flags, vec![true]);
    }

    #[test]
    fn nested_path_operand_does_not_escape_inner() {
        let (_, flags) = analyze(
            r#"
fn @f(%m: Map<u64, Set<u64>>) -> void {
  %k = const 1u64
  %v = const 2u64
  %m1 = insert %m[%k], %v
  ret
}
"#,
        );
        assert_eq!(flags, vec![false]);
    }
}
