//! Bridges measured profiles into the selection pass.
//!
//! `ade-core` cannot depend on the interpreter, so it takes selection
//! feedback as injected data ([`ade_core::feedback`]). This module
//! builds that data here, where both sides are visible: the candidate
//! cost tables come from the interpreter's calibrated
//! [`CostModel`](ade_interp::cost::CostModel) (intel preset — the
//! figures' primary target), the per-function op mixes from a parsed
//! `ade-site-profile-v1` profile ([`ade_obs::read_profile`]).

use std::collections::BTreeMap;

use ade_core::feedback::{BackendCandidate, FuncMeasurement, OpCostTable, SelectionFeedback};
use ade_interp::cost::CostModel;
use ade_interp::{CollOp, ImplKind};
use ade_obs::profile::ProfileData;

fn cost_table(model: &CostModel, imp: ImplKind) -> OpCostTable {
    OpCostTable {
        read: model.cost_ns(imp, CollOp::Read),
        write: model.cost_ns(imp, CollOp::Write),
        insert: model.cost_ns(imp, CollOp::Insert),
        remove: model.cost_ns(imp, CollOp::Remove),
        has: model.cost_ns(imp, CollOp::Has),
        size: model.cost_ns(imp, CollOp::Size),
        clear: model.cost_ns(imp, CollOp::Clear),
        iter_elem: model.cost_ns(imp, CollOp::IterElem),
        iter_word: model.cost_ns(imp, CollOp::IterWord),
        union_elem: model.cost_ns(imp, CollOp::UnionElem),
        union_word: model.cost_ns(imp, CollOp::UnionWord),
    }
}

/// The candidate backends feedback-directed selection chooses among:
/// the dense bit array (pays per word scanned) and the sparse bit set
/// (pays an element premium on point ops but iterates/unions only the
/// populated containers), both priced from the intel cost model. The
/// dense default leads so it wins ties.
///
/// Both candidates charge the measured word-granular counts: a sparse
/// bit set still scans every *populated* word, and the words a profile
/// records under the dense static default are exactly the populated
/// ones (empty trailing capacity never produces an `IterWord` count).
/// Pricing sparse word ops at zero made the sparse candidate look free
/// on word-dominated mixes and mispicked it for word-heavy benchmarks
/// (the KT feedback miss noted in ROADMAP.md).
pub fn feedback_candidates() -> Vec<BackendCandidate> {
    let model = CostModel::intel_x64();
    vec![
        BackendCandidate {
            name: "Bit",
            set_impl: ade_ir::SetSel::Bit,
            map_impl: ade_ir::MapSel::Bit,
            charges_word_ops: true,
            costs: cost_table(&model, ImplKind::BitSet),
        },
        BackendCandidate {
            name: "SparseBit",
            set_impl: ade_ir::SetSel::SparseBit,
            map_impl: ade_ir::MapSel::Bit,
            charges_word_ops: true,
            costs: cost_table(&model, ImplKind::SparseBitSet),
        },
    ]
}

/// Feedback with candidates but no measurements: selection keeps its
/// static heuristics, the ledger still prices every candidate under the
/// static reference mix (`adec --explain` without `--profile-in`).
pub fn static_feedback() -> SelectionFeedback {
    SelectionFeedback {
        source: "static (no profile)".to_string(),
        funcs: BTreeMap::new(),
        candidates: feedback_candidates(),
    }
}

/// Feedback from a parsed `ade-site-profile-v1` profile: each
/// function's sites are aggregated into one mix and size high-water
/// mark (profile sites are keyed by post-selection instruction indices,
/// which do not map back to pre-selection allocation sites — see
/// DESIGN.md §14).
pub fn feedback_from_profile(source: &str, profile: &ProfileData) -> SelectionFeedback {
    let mut funcs = BTreeMap::new();
    for f in &profile.functions {
        funcs.insert(
            f.name.clone(),
            FuncMeasurement {
                mix: f.mix,
                size_hwm: f.size_hwm,
            },
        );
    }
    SelectionFeedback {
        source: source.to_string(),
        funcs,
        candidates: feedback_candidates(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidates_price_dense_cheaper_on_the_reference_mix() {
        let mix = ade_core::feedback::static_reference_mix();
        let cands = feedback_candidates();
        assert_eq!(cands.len(), 2);
        assert_eq!(cands[0].name, "Bit");
        assert_eq!(cands[1].name, "SparseBit");
        assert!(
            cands[0].cost_ns(&mix) < cands[1].cost_ns(&mix),
            "static reference mix must agree with the static heuristic: {} vs {}",
            cands[0].cost_ns(&mix),
            cands[1].cost_ns(&mix)
        );
    }

    #[test]
    fn word_ops_charge_both_candidates() {
        // A word-dominated mix must not make the sparse candidate look
        // free: both sides pay the measured word scans (same per-word
        // cost), so the dense side's cheaper point ops keep it ahead
        // and ties break toward the leading dense default.
        let mix = ade_core::feedback::OpMix {
            insert: 100,
            has: 100,
            iter_word: 1_000_000,
            ..Default::default()
        };
        let cands = feedback_candidates();
        assert!(
            cands[0].cost_ns(&mix) <= cands[1].cost_ns(&mix),
            "a word-heavy mix no longer flips to sparse: {} vs {}",
            cands[0].cost_ns(&mix),
            cands[1].cost_ns(&mix)
        );
        let charged: f64 = cands[1]
            .terms(&mix)
            .iter()
            .filter(|(op, _)| *op == "IterWord")
            .map(|(_, ns)| ns)
            .sum();
        assert!(charged > 0.0, "sparse must be charged the word scans");
    }

    #[test]
    fn element_iteration_heavy_mix_still_prices_sparse_cheaper() {
        // The sparse candidate stays reachable where it genuinely wins:
        // element-granular iteration (Table III's iterate column).
        let mix = ade_core::feedback::OpMix {
            insert: 100,
            has: 100,
            iter_elem: 1_000_000,
            ..Default::default()
        };
        let cands = feedback_candidates();
        assert!(cands[1].cost_ns(&mix) < cands[0].cost_ns(&mix));
    }

    #[test]
    fn profile_rolls_up_per_function() {
        let text = r#"{"schema":"ade-site-profile-v1","functions":[{"name":"main","sites":[{"inst":3,"ops":{"BitSet.Insert":7,"BitSet.IterWord":50},"total_ops":57,"size_hwm":9,"modeled_intel_ns":10.0,"modeled_aarch64_ns":11.0},{"inst":9,"ops":{"BitSet.Has":4},"total_ops":4,"size_hwm":2,"modeled_intel_ns":1.0,"modeled_aarch64_ns":1.0}]}],"totals":{"total_ops":61,"sparse_accesses":0,"dense_accesses":11,"modeled_intel_ns":11.0,"modeled_aarch64_ns":12.0}}"#;
        let data = ade_obs::read_profile(text).expect("valid profile");
        let fb = feedback_from_profile("test.json", &data);
        assert_eq!(fb.source, "test.json");
        let m = fb.funcs.get("main").expect("main measured");
        assert_eq!(m.mix.insert, 7);
        assert_eq!(m.mix.iter_word, 50);
        assert_eq!(m.mix.has, 4);
        assert_eq!(m.size_hwm, 9);
    }
}
