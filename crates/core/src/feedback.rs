//! Feedback-directed selection inputs (§III-H with measured data).
//!
//! `ade-core` deliberately does not depend on the interpreter, so it
//! cannot price candidates itself: the caller (driver or harness)
//! injects a [`SelectionFeedback`] — per-function measured op mixes
//! from an `ade-site-profile-v1` profile plus a candidate cost table
//! derived from the interpreter's calibrated cost model — and the
//! selection pass picks the modeled-cheapest candidate per enumeration
//! class. Without feedback the pass keeps its static heuristics,
//! bit-for-bit.
//!
//! Two approximations, both documented in DESIGN.md §14: measured
//! counts are aggregated *per function* (profile sites are keyed by
//! post-selection decoded instruction indices, which do not map back to
//! pre-selection allocation sites), and the mixes of every function
//! touching an enumeration class are merged before deciding (members of
//! one class must keep identical physical types across call
//! boundaries).

use std::collections::BTreeMap;

use ade_ir::{MapSel, SetSel};
pub use ade_obs::profile::OpMix;

/// Measured data for one function: its op mix and the largest
/// collection size observed anywhere in it.
#[derive(Clone, Copy, Debug, Default)]
pub struct FuncMeasurement {
    /// Operation counts bucketed by kind.
    pub mix: OpMix,
    /// Collection size high-water mark.
    pub size_hwm: u64,
}

/// Per-operation-kind costs in nanoseconds for one candidate backend.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpCostTable {
    /// Keyed read.
    pub read: f64,
    /// Keyed write.
    pub write: f64,
    /// Insertion.
    pub insert: f64,
    /// Removal.
    pub remove: f64,
    /// Membership probe.
    pub has: f64,
    /// Size query.
    pub size: f64,
    /// Clear.
    pub clear: f64,
    /// One element yielded by iteration.
    pub iter_elem: f64,
    /// One machine word scanned while iterating.
    pub iter_word: f64,
    /// One element moved by a union.
    pub union_elem: f64,
    /// One machine word OR-ed by a union.
    pub union_word: f64,
}

/// One backend the selection pass may choose for enumerated
/// collections.
#[derive(Clone, Debug)]
pub struct BackendCandidate {
    /// Display name (`Bit`, `SparseBit`).
    pub name: &'static str,
    /// The set selection applying this candidate means.
    pub set_impl: SetSel,
    /// The map selection applying this candidate means.
    pub map_impl: MapSel,
    /// Whether measured word-granular counts (`IterWord`/`UnionWord`,
    /// recorded under the dense-bit static default) carry over: a dense
    /// bit array scans every word, a sparse one skips empty words, so
    /// only dense candidates are charged the measured word scans.
    pub charges_word_ops: bool,
    /// Per-operation costs.
    pub costs: OpCostTable,
}

impl BackendCandidate {
    /// The candidate's per-operation cost contributions for `mix`, as
    /// `(op name, ns)` pairs in [`OpMix::OP_NAMES`] order.
    pub fn terms(&self, mix: &OpMix) -> [(&'static str, f64); 11] {
        let word = |n: u64, c: f64| {
            if self.charges_word_ops {
                n as f64 * c
            } else {
                0.0
            }
        };
        [
            ("Read", mix.read as f64 * self.costs.read),
            ("Write", mix.write as f64 * self.costs.write),
            ("Insert", mix.insert as f64 * self.costs.insert),
            ("Remove", mix.remove as f64 * self.costs.remove),
            ("Has", mix.has as f64 * self.costs.has),
            ("Size", mix.size as f64 * self.costs.size),
            ("Clear", mix.clear as f64 * self.costs.clear),
            ("IterElem", mix.iter_elem as f64 * self.costs.iter_elem),
            ("IterWord", word(mix.iter_word, self.costs.iter_word)),
            ("UnionElem", mix.union_elem as f64 * self.costs.union_elem),
            ("UnionWord", word(mix.union_word, self.costs.union_word)),
        ]
    }

    /// Total modeled cost of `mix` on this candidate, in nanoseconds.
    pub fn cost_ns(&self, mix: &OpMix) -> f64 {
        self.terms(mix).iter().map(|(_, ns)| ns).sum()
    }
}

/// Everything the selection pass needs to bias choices with measured
/// data and to fill the ledger's cost columns.
#[derive(Clone, Debug, Default)]
pub struct SelectionFeedback {
    /// Where the measurements came from (a profile path, or a note),
    /// for reports.
    pub source: String,
    /// Measured data keyed by function name. Empty means "no profile":
    /// the pass keeps its static heuristics but can still price
    /// candidates for the ledger.
    pub funcs: BTreeMap<String, FuncMeasurement>,
    /// Candidate backends in evaluation order (ties go to the earlier
    /// entry).
    pub candidates: Vec<BackendCandidate>,
}

/// The assumed mix static selection is scored under in the ledger: a
/// balanced access-heavy workload (the regime where the paper defaults
/// to dense bit arrays). Chosen so the dense default wins under every
/// bundled cost table, keeping the ledger's static scoring consistent
/// with the static heuristic it annotates.
pub fn static_reference_mix() -> OpMix {
    OpMix {
        read: 100,
        write: 100,
        insert: 100,
        remove: 10,
        has: 100,
        size: 10,
        clear: 0,
        iter_elem: 100,
        iter_word: 25,
        union_elem: 0,
        union_word: 10,
    }
}
