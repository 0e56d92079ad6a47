//! Execution statistics: dynamic operation counts by implementation and
//! operation kind, sparse/dense access classification (paper Table II),
//! and peak memory (paper Fig. 5c).

use std::fmt;

/// Which concrete implementation served an operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum ImplKind {
    Seq,
    HashSet,
    SwissSet,
    FlatSet,
    BitSet,
    SparseBitSet,
    HashMap,
    SwissMap,
    BitMap,
    /// The enumeration's key→identifier map (`Enc`, a sparse map).
    EnumEnc,
    /// The enumeration's identifier→key array (`Dec`, dense).
    EnumDec,
}

impl ImplKind {
    /// All implementation kinds (for iteration).
    pub const ALL: [ImplKind; 11] = [
        ImplKind::Seq,
        ImplKind::HashSet,
        ImplKind::SwissSet,
        ImplKind::FlatSet,
        ImplKind::BitSet,
        ImplKind::SparseBitSet,
        ImplKind::HashMap,
        ImplKind::SwissMap,
        ImplKind::BitMap,
        ImplKind::EnumEnc,
        ImplKind::EnumDec,
    ];

    /// Whether accesses to this implementation are *sparse* — requiring
    /// search (probing, chain walks, binary search) to map a key into
    /// memory — versus *dense* direct indexing (paper §III, Table II).
    pub fn is_sparse(self) -> bool {
        matches!(
            self,
            ImplKind::HashSet
                | ImplKind::SwissSet
                | ImplKind::FlatSet
                | ImplKind::HashMap
                | ImplKind::SwissMap
                | ImplKind::EnumEnc
        )
    }
}

impl fmt::Display for ImplKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A dynamic collection operation category.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum CollOp {
    Read,
    Write,
    Insert,
    Remove,
    Has,
    Size,
    Clear,
    /// One element yielded by iteration.
    IterElem,
    /// One machine word scanned while iterating a bit-array
    /// implementation (prices the low-density iteration penalty the
    /// paper's RQ4 case study hinges on).
    IterWord,
    /// One element moved by a union on an element-at-a-time
    /// implementation.
    UnionElem,
    /// One machine word OR-ed by a union on a bit-parallel
    /// implementation.
    UnionWord,
}

impl CollOp {
    /// All operation kinds (for iteration).
    pub const ALL: [CollOp; 11] = [
        CollOp::Read,
        CollOp::Write,
        CollOp::Insert,
        CollOp::Remove,
        CollOp::Has,
        CollOp::Size,
        CollOp::Clear,
        CollOp::IterElem,
        CollOp::IterWord,
        CollOp::UnionElem,
        CollOp::UnionWord,
    ];

    /// Whether this operation counts as a key *access* for the
    /// sparse/dense totals of Table II.
    pub fn is_access(self) -> bool {
        !matches!(
            self,
            CollOp::Size | CollOp::Clear | CollOp::IterWord | CollOp::UnionWord
        )
    }

    const fn index(self) -> usize {
        self as usize
    }
}

/// Execution phase: before/inside the region of interest.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Phase {
    /// Initialization (and teardown) outside the ROI markers.
    #[default]
    Init,
    /// Between `roi begin` and `roi end` (paper Fig. 5b).
    Roi,
}

/// A dense (impl × op) counter table.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OpCounts {
    counts: [[u64; CollOp::ALL.len()]; ImplKind::ALL.len()],
}

impl OpCounts {
    /// Adds `n` to the `(impl, op)` counter (saturating).
    #[inline]
    pub fn bump(&mut self, imp: ImplKind, op: CollOp, n: u64) {
        let c = &mut self.counts[imp as usize][op.index()];
        *c = c.saturating_add(n);
    }

    /// The `(impl, op)` counter.
    pub fn get(&self, imp: ImplKind, op: CollOp) -> u64 {
        self.counts[imp as usize][op.index()]
    }

    /// Sum of access-classified operations on sparse implementations.
    pub fn sparse_accesses(&self) -> u64 {
        self.accesses(true)
    }

    /// Sum of access-classified operations on dense implementations.
    pub fn dense_accesses(&self) -> u64 {
        self.accesses(false)
    }

    fn accesses(&self, sparse: bool) -> u64 {
        ImplKind::ALL
            .iter()
            .filter(|i| i.is_sparse() == sparse)
            .map(|&i| {
                CollOp::ALL
                    .iter()
                    .filter(|o| o.is_access())
                    .map(|&o| self.get(i, o))
                    .sum::<u64>()
            })
            .sum()
    }

    /// Total operations of `op` across all implementations.
    pub fn total_op(&self, op: CollOp) -> u64 {
        ImplKind::ALL.iter().map(|&i| self.get(i, op)).sum()
    }

    /// Total operations across all implementations and kinds.
    pub fn total(&self) -> u64 {
        self.counts
            .iter()
            .flatten()
            .fold(0u64, |acc, &n| acc.saturating_add(n))
    }

    /// Element-wise sum of two tables (saturating, so phase merges can
    /// never overflow silently).
    pub fn merged(&self, other: &OpCounts) -> OpCounts {
        let mut out = self.clone();
        for i in 0..ImplKind::ALL.len() {
            for o in 0..CollOp::ALL.len() {
                out.counts[i][o] = out.counts[i][o].saturating_add(other.counts[i][o]);
            }
        }
        out
    }
}

/// Full execution statistics.
#[derive(Clone, Debug, Default)]
pub struct Stats {
    /// Operation counts per phase: `[Init, Roi]`.
    pub per_phase: [OpCounts; 2],
    /// Peak tracked collection + enumeration bytes.
    pub peak_bytes: usize,
    /// Tracked bytes at program end.
    pub final_bytes: usize,
    /// Wall-clock nanoseconds per phase, `[Init, Roi]`. `u64` like every
    /// other time quantity in the workspace (the cost model, the
    /// observability events); 2^64 ns is ~585 years, and
    /// all arithmetic on it saturates.
    pub wall_ns: [u64; 2],
}

impl Stats {
    /// Counters for one phase.
    pub fn phase(&self, p: Phase) -> &OpCounts {
        &self.per_phase[p as usize]
    }

    /// Whole-program counters (both phases merged).
    pub fn totals(&self) -> OpCounts {
        self.per_phase[0].merged(&self.per_phase[1])
    }

    /// Whole-program wall time in nanoseconds (saturating).
    pub fn wall_total_ns(&self) -> u64 {
        self.wall_ns[0].saturating_add(self.wall_ns[1])
    }

    /// Clamps a [`std::time::Duration`] nanosecond count into the `u64`
    /// wall-time domain.
    pub fn clamp_ns(ns: u128) -> u64 {
        u64::try_from(ns).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_dense_classification() {
        assert!(ImplKind::HashMap.is_sparse());
        assert!(ImplKind::SwissSet.is_sparse());
        assert!(ImplKind::FlatSet.is_sparse());
        assert!(ImplKind::EnumEnc.is_sparse());
        assert!(!ImplKind::BitMap.is_sparse());
        assert!(!ImplKind::Seq.is_sparse());
        assert!(!ImplKind::EnumDec.is_sparse());
    }

    #[test]
    fn access_classification() {
        assert!(CollOp::Read.is_access());
        assert!(CollOp::IterElem.is_access());
        assert!(!CollOp::Size.is_access());
        assert!(!CollOp::IterWord.is_access());
    }

    #[test]
    fn bump_and_totals() {
        let mut c = OpCounts::default();
        c.bump(ImplKind::HashMap, CollOp::Read, 10);
        c.bump(ImplKind::BitMap, CollOp::Read, 4);
        c.bump(ImplKind::BitSet, CollOp::IterWord, 100);
        assert_eq!(c.sparse_accesses(), 10);
        assert_eq!(c.dense_accesses(), 4);
        assert_eq!(c.total_op(CollOp::Read), 14);
    }

    #[test]
    fn merges_saturate_instead_of_overflowing() {
        let mut a = OpCounts::default();
        a.bump(ImplKind::Seq, CollOp::Read, u64::MAX - 1);
        a.bump(ImplKind::Seq, CollOp::Read, 5);
        assert_eq!(a.get(ImplKind::Seq, CollOp::Read), u64::MAX);
        let merged = a.merged(&a);
        assert_eq!(merged.get(ImplKind::Seq, CollOp::Read), u64::MAX);
        assert_eq!(merged.total(), u64::MAX);

        let s = Stats {
            wall_ns: [u64::MAX, 1],
            ..Stats::default()
        };
        assert_eq!(s.wall_total_ns(), u64::MAX);
        assert_eq!(Stats::clamp_ns(u128::from(u64::MAX) + 7), u64::MAX);
        assert_eq!(Stats::clamp_ns(42), 42);
    }

    #[test]
    fn stats_merge_phases() {
        let mut s = Stats::default();
        s.per_phase[0].bump(ImplKind::HashSet, CollOp::Insert, 3);
        s.per_phase[1].bump(ImplKind::HashSet, CollOp::Insert, 5);
        assert_eq!(s.totals().get(ImplKind::HashSet, CollOp::Insert), 8);
        assert_eq!(
            s.phase(Phase::Roi).get(ImplKind::HashSet, CollOp::Insert),
            5
        );
    }
}
