//! The per-function index the ADE pass queries instead of rescanning the
//! function: every value's use sites, the region directly containing each
//! instruction, and the control instruction owning each region.
//!
//! It is built once per function by [`crate::share::analyze_function`]
//! and read by the φ-web closure ([`crate::web::compute_web`]), whose
//! yield and region-argument lookups would otherwise each walk the whole
//! instruction arena.

use ade_ir::{Access, Function, InstId, RegionId, Scalar, ValueId};

use crate::patch::{OperandPos, UseSite};

/// Use sites, parent regions and region owners of one function.
#[derive(Clone, Debug, Default)]
pub struct FuncIndex {
    /// Use sites per value index (plain operands and path indices), in
    /// pre-order of the using instructions.
    uses: Vec<Vec<UseSite>>,
    /// The region directly containing each instruction, by instruction
    /// index (`None` for instructions no region lists).
    parent: Vec<Option<RegionId>>,
    /// The control instruction owning each region, by region index
    /// (`None` for the body).
    owner: Vec<Option<InstId>>,
}

impl FuncIndex {
    /// Builds the index with one walk over the function.
    pub fn build(func: &Function) -> Self {
        let mut uses: Vec<Vec<UseSite>> = vec![Vec::new(); func.values.len()];
        for inst_id in func.all_insts() {
            for (n, op) in func.inst(inst_id).operands.iter().enumerate() {
                uses[op.base.index()].push(UseSite::plain(inst_id, n));
                for (step, a) in op.path.iter().enumerate() {
                    if let Access::Index(Scalar::Value(v)) = a {
                        uses[v.index()].push(UseSite {
                            inst: inst_id,
                            pos: OperandPos::PathIndex { operand: n, step },
                        });
                    }
                }
            }
        }
        let mut parent = vec![None; func.insts.len()];
        for (r, region) in func.regions.iter().enumerate() {
            for &i in &region.insts {
                parent[i.index()].get_or_insert(RegionId::from_index(r));
            }
        }
        let mut owner = vec![None; func.regions.len()];
        for (i, inst) in func.insts.iter().enumerate() {
            for &r in &inst.regions {
                owner[r.index()].get_or_insert(InstId::from_index(i));
            }
        }
        FuncIndex {
            uses,
            parent,
            owner,
        }
    }

    /// Every use site of `v`.
    pub fn uses_of(&self, v: ValueId) -> &[UseSite] {
        self.uses.get(v.index()).map_or(&[], Vec::as_slice)
    }

    /// The region directly containing `inst`.
    pub fn parent_region(&self, inst: InstId) -> Option<RegionId> {
        self.parent.get(inst.index()).copied().flatten()
    }

    /// The control instruction owning `region`.
    pub fn owner_of(&self, region: RegionId) -> Option<InstId> {
        self.owner.get(region.index()).copied().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ade_ir::parse::parse_function;
    use ade_ir::InstKind;

    #[test]
    fn index_answers_use_parent_and_owner_queries() {
        let f = parse_function(
            r#"
fn @f(%s: Set<u64>) -> void {
  %z = const 0u64
  %sum = foreach %s carry(%z) as (%v: u64, %acc: u64) {
    %n = add %acc, %v
    yield %n
  }
  print %sum
  ret
}
"#,
        )
        .expect("parses");
        let index = FuncIndex::build(&f);
        let all = f.all_insts();
        let find = |kind: InstKind| *all.iter().find(|&&i| f.inst(i).kind == kind).expect("inst");
        let foreach = find(InstKind::ForEach);
        let yield_inst = find(InstKind::Yield);
        let body = f.inst(foreach).regions[0];
        assert_eq!(index.parent_region(foreach), Some(f.body));
        assert_eq!(index.parent_region(yield_inst), Some(body));
        assert_eq!(index.owner_of(body), Some(foreach));
        assert_eq!(index.owner_of(f.body), None);
        // %acc is used once (by the add); %sum once (by the print).
        let acc = f.region(body).args[1];
        assert_eq!(index.uses_of(acc).len(), 1);
        let sum = f.inst(foreach).results[0];
        assert_eq!(index.uses_of(sum).len(), 1);
    }
}
