//! Redefinition chains: the `Redefs(v)` sets of the paper's Algorithm 1.
//!
//! In SSA form every collection update produces a new value naming the
//! updated state, and structured control flow introduces further names
//! through region arguments and results (the φ functions). `Redefs(v)`
//! collects all names of one underlying collection so that Algorithm 1
//! can enumerate `Uses(r)` for every state `r` of the collection being
//! enumerated.

use std::collections::HashMap;

use ade_ir::typing::carry_layout;
use ade_ir::{Function, ValueId};

use crate::UnionFind;

/// The redefinition partition of a function's collection-typed values.
///
/// # Examples
///
/// ```
/// use ade_analysis::RedefChains;
/// use ade_ir::parse::parse_function;
///
/// let f = parse_function(
///     "fn @f() -> void {
///        %s = new Set<u64>
///        %x = const 1u64
///        %s1 = insert %s, %x
///        ret
///      }",
/// ).expect("parses");
/// let chains = RedefChains::compute(&f);
/// let roots = chains.roots();
/// assert_eq!(roots.len(), 1);
/// assert_eq!(chains.chain(roots[0]).len(), 2); // %s and %s1
/// ```
#[derive(Debug, Clone)]
pub struct RedefChains {
    /// Canonical root for each collection-typed value.
    root: HashMap<ValueId, ValueId>,
    /// Members of each chain, keyed by root, in value order.
    chains: HashMap<ValueId, Vec<ValueId>>,
}

impl RedefChains {
    /// Computes redef chains for `func`.
    pub fn compute(func: &Function) -> Self {
        let n = func.values.len();
        let mut uf = UnionFind::new(n);

        for inst_id in func.all_insts() {
            let inst = func.inst(inst_id);
            if inst.kind.is_collection_update() {
                // The result is the new state of the base collection.
                uf.union(inst.operands[0].base.index(), inst.results[0].index());
            }
            let Ok(Some(layout)) = carry_layout(func, inst) else {
                continue;
            };
            // A structured φ: each result joins its body argument, its
            // carried operand and what every region yields for it.
            let args = &func.region(inst.regions[0]).args;
            for (j, &r) in inst.results.iter().enumerate() {
                if let Some(arg) = args.get(layout.bound + j) {
                    uf.union(arg.index(), r.index());
                }
                let entry = inst.operands.get(layout.first + j);
                let yielded = inst.regions.iter().filter_map(|&region| {
                    let y = func.inst(func.closing_yield(region)?);
                    y.operands.get(layout.cond + j)
                });
                for op in entry.into_iter().chain(yielded) {
                    uf.union(op.base.index(), r.index());
                }
            }
        }

        let mut root = HashMap::new();
        let mut chains: HashMap<ValueId, Vec<ValueId>> = HashMap::new();
        // Canonical root = smallest value index in the class, which in a
        // well-formed function is the allocation or parameter.
        let mut canon: HashMap<usize, ValueId> = HashMap::new();
        for idx in 0..n {
            let v = ValueId::from_index(idx);
            if !func.value_ty(v).is_collection() {
                continue;
            }
            let r = uf.find(idx);
            let entry = canon.entry(r).or_insert(v);
            let canonical = *entry;
            root.insert(v, canonical);
            chains.entry(canonical).or_default().push(v);
        }
        Self { root, chains }
    }

    /// Canonical root of `v`'s chain (usually the allocation/parameter).
    ///
    /// # Panics
    ///
    /// Panics if `v` is not collection-typed.
    pub fn root_of(&self, v: ValueId) -> ValueId {
        self.root[&v]
    }

    /// All values in the chain rooted at `root`, in definition order.
    pub fn chain(&self, root: ValueId) -> &[ValueId] {
        self.chains.get(&root).map_or(&[], Vec::as_slice)
    }

    /// All chain roots, in value order.
    pub fn roots(&self) -> Vec<ValueId> {
        let mut r: Vec<ValueId> = self.chains.keys().copied().collect();
        r.sort_unstable();
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ade_ir::parse::parse_function;

    #[test]
    fn chain_through_loop_carries() {
        let f = parse_function(
            r#"
fn @count(%input: Seq<f64>) -> void {
  %hist = new Map<f64, u64>
  %out = foreach %input carry(%hist) as (%i: u64, %val: f64, %h: Map<f64, u64>) {
    %cond = has %h, %val
    %h2, %freq = if %cond then {
      %f = read %h, %val
      yield %h, %f
    } else {
      %h1 = insert %h, %val
      %zero = const 0u64
      yield %h1, %zero
    }
    %one = const 1u64
    %freq1 = add %freq, %one
    %h3 = write %h2, %val, %freq1
    yield %h3
  }
  ret
}
"#,
        )
        .expect("parses");
        let chains = RedefChains::compute(&f);
        let roots = chains.roots();
        // Two chains: the %input sequence parameter and the map.
        assert_eq!(roots.len(), 2);
        let map_root = roots
            .into_iter()
            .find(|&r| f.value_ty(r).is_assoc())
            .expect("map chain");
        // %hist, %h, %h1, %h2, %h3, %out: six names of the same map.
        assert_eq!(chains.chain(map_root).len(), 6);
    }

    #[test]
    fn distinct_collections_stay_apart() {
        let f = parse_function(
            "fn @f() -> void {\n  %a = new Set<u64>\n  %b = new Set<u64>\n  %x = const 1u64\n  %a1 = insert %a, %x\n  %b1 = insert %b, %x\n  ret\n}\n",
        )
        .expect("parses");
        let chains = RedefChains::compute(&f);
        assert_eq!(chains.roots().len(), 2);
    }

    #[test]
    fn dowhile_carries_link() {
        let f = parse_function(
            r#"
fn @f() -> void {
  %s = new Set<u64>
  %r = dowhile carry(%s) as (%c: Set<u64>) {
    %x = const 1u64
    %c1 = insert %c, %x
    %done = const false
    yield %done, %c1
  }
  ret
}
"#,
        )
        .expect("parses");
        let chains = RedefChains::compute(&f);
        assert_eq!(chains.roots().len(), 1);
        assert_eq!(chains.chain(chains.roots()[0]).len(), 4); // s, c, c1, r
    }

    #[test]
    fn param_collections_are_roots() {
        let f = parse_function(
            "fn @f(%m: Map<u64, u64>) -> void {\n  %k = const 1u64\n  %m1 = insert %m, %k\n  ret\n}\n",
        )
        .expect("parses");
        let chains = RedefChains::compute(&f);
        let roots = chains.roots();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0], f.params[0]);
    }
}
