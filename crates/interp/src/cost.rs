//! Per-architecture operation cost model.
//!
//! The paper evaluates on Intel-x64 and AArch64 servers and attributes
//! the cross-architecture result differences to per-operation cost shifts
//! (Table III, e.g. BitMap writes run 1.56× slower on AArch64). We cannot
//! run on two ISAs here, so we reproduce exactly that mechanism: the
//! interpreter counts every collection operation, and a [`CostModel`]
//! prices the counts with per-`(implementation, operation)` costs whose
//! *ratios* are transcribed from the paper's Table III.
//!
//! Costs are nanoseconds per operation. The baseline hash-table costs are
//! identical across presets; every other implementation's cost is the
//! hash cost divided by its Table III speedup on that architecture, which
//! makes the modeled AArch64/Intel differences match the published ones
//! by construction (documented as a substitution in `DESIGN.md`).

use crate::stats::{CollOp, ImplKind, OpCounts};

const NIMPL: usize = ImplKind::ALL.len();
const NOP: usize = CollOp::ALL.len();

/// Nanosecond costs per `(implementation, operation)`.
#[derive(Clone, Debug)]
pub struct CostModel {
    /// Preset name (`intel-x64` or `aarch64`).
    pub name: &'static str,
    table: [[f64; NOP]; NIMPL],
}

/// Baseline hash-table costs in nanoseconds (shared by both presets).
fn hash_base(op: CollOp) -> f64 {
    match op {
        CollOp::Read | CollOp::Has => 30.0,
        CollOp::Write => 30.0,
        CollOp::Insert => 35.0,
        CollOp::Remove => 30.0,
        CollOp::Size => 1.0,
        CollOp::Clear => 5.0,
        CollOp::IterElem => 6.0,
        CollOp::IterWord => 0.4,
        CollOp::UnionElem => 35.0,
        CollOp::UnionWord => 0.4,
    }
}

/// Table III speedups relative to `Hash{Set,Map}` per architecture.
/// `1.0` where the paper lists no number (operation not measured).
#[derive(Clone, Copy)]
struct Speedups {
    read: f64,
    write: f64,
    insert: f64,
    remove: f64,
    iterate: f64,
    /// Per-element union speedup (Table III's Union column for
    /// element-at-a-time implementations; the bit-parallel ones charge
    /// `UnionWord` instead and never hit this path on same-kind unions).
    union_elem: f64,
}

fn speedups(imp: ImplKind, aarch64: bool) -> Speedups {
    let s = |read, write, insert, remove, iterate, union_elem| Speedups {
        read,
        write,
        insert,
        remove,
        iterate,
        union_elem,
    };
    if aarch64 {
        match imp {
            ImplKind::BitSet => s(10.0, 10.0, 12.53, 2.63, 0.22, 12.53),
            ImplKind::SparseBitSet => s(5.0, 5.0, 2.81, 2.21, 0.29, 2.81),
            ImplKind::SwissSet => s(1.0, 1.0, 1.46, 0.52, 0.28, 3.28),
            ImplKind::FlatSet => s(1.0, 1.0, 0.28, 0.22, 3.15, 50.37),
            ImplKind::BitMap => s(18.65, 10.20, 8.91, 2.60, 6.41, 8.91),
            ImplKind::SwissMap => s(0.64, 0.65, 1.18, 0.51, 7.16, 1.18),
            ImplKind::Seq => s(15.0, 15.0, 12.0, 0.6, 4.0, 12.0),
            // The enumeration's Enc map is a swiss map; Dec is an array.
            ImplKind::EnumEnc => speedups(ImplKind::SwissMap, aarch64),
            ImplKind::EnumDec => speedups(ImplKind::Seq, aarch64),
            ImplKind::HashSet | ImplKind::HashMap => s(1.0, 1.0, 1.0, 1.0, 1.0, 1.0),
        }
    } else {
        match imp {
            ImplKind::BitSet => s(10.0, 10.0, 9.08, 1.24, 0.19, 9.08),
            ImplKind::SparseBitSet => s(5.0, 5.0, 1.54, 1.07, 0.27, 1.54),
            ImplKind::SwissSet => s(1.0, 1.0, 1.61, 0.40, 0.27, 1.71),
            ImplKind::FlatSet => s(1.0, 1.0, 0.19, 0.10, 5.59, 25.31),
            ImplKind::BitMap => s(10.63, 15.94, 13.10, 1.32, 2.65, 13.10),
            ImplKind::SwissMap => s(0.69, 1.46, 2.58, 0.41, 3.65, 2.58),
            // Array reads/writes are direct; the paper does not bench Seq
            // against hash but the asymptotics are those of BitMap reads.
            ImplKind::Seq => s(15.0, 15.0, 12.0, 0.6, 4.0, 12.0),
            // The enumeration's Enc map is a swiss map; Dec is an array.
            ImplKind::EnumEnc => speedups(ImplKind::SwissMap, aarch64),
            ImplKind::EnumDec => speedups(ImplKind::Seq, aarch64),
            ImplKind::HashSet | ImplKind::HashMap => s(1.0, 1.0, 1.0, 1.0, 1.0, 1.0),
        }
    }
}

fn build(name: &'static str, aarch64: bool) -> CostModel {
    let mut table = [[0.0; NOP]; NIMPL];
    for (i, &imp) in ImplKind::ALL.iter().enumerate() {
        let sp = speedups(imp, aarch64);
        for (o, &op) in CollOp::ALL.iter().enumerate() {
            let ratio = match op {
                CollOp::Read => sp.read,
                CollOp::Has => sp.read,
                CollOp::Write => sp.write,
                CollOp::Insert => sp.insert,
                CollOp::Remove => sp.remove,
                CollOp::IterElem => sp.iterate,
                CollOp::UnionElem => sp.union_elem,
                CollOp::Size | CollOp::Clear | CollOp::IterWord | CollOp::UnionWord => 1.0,
            };
            table[i][o] = hash_base(op) / ratio;
        }
    }
    CostModel { name, table }
}

impl CostModel {
    /// The Intel Xeon preset (paper's Intel-x64 machine).
    pub fn intel_x64() -> CostModel {
        build("intel-x64", false)
    }

    /// The ARM Neoverse N1 preset (paper's AArch64 machine).
    pub fn aarch64() -> CostModel {
        build("aarch64", true)
    }

    /// Cost of one `(impl, op)` in nanoseconds.
    pub fn cost_ns(&self, imp: ImplKind, op: CollOp) -> f64 {
        self.table[imp as usize][op as usize]
    }

    /// Total modeled nanoseconds for a counter table.
    pub fn time_ns(&self, counts: &OpCounts) -> f64 {
        let mut total = 0.0;
        for &imp in &ImplKind::ALL {
            for &op in &CollOp::ALL {
                let n = counts.get(imp, op);
                if n != 0 {
                    total += n as f64 * self.cost_ns(imp, op);
                }
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_beats_hash_on_reads() {
        let m = CostModel::intel_x64();
        assert!(
            m.cost_ns(ImplKind::BitMap, CollOp::Read)
                < m.cost_ns(ImplKind::HashMap, CollOp::Read) / 5.0
        );
    }

    #[test]
    fn bitset_iteration_is_slower_per_element() {
        let m = CostModel::intel_x64();
        assert!(
            m.cost_ns(ImplKind::BitSet, CollOp::IterElem)
                > m.cost_ns(ImplKind::HashSet, CollOp::IterElem)
        );
    }

    #[test]
    fn aarch64_bitmap_writes_are_slower_by_paper_ratio() {
        let intel = CostModel::intel_x64();
        let arm = CostModel::aarch64();
        let ratio = arm.cost_ns(ImplKind::BitMap, CollOp::Write)
            / intel.cost_ns(ImplKind::BitMap, CollOp::Write);
        // Paper: BitMap writes see 1.56× slowdown on AArch64.
        assert!((ratio - 1.56).abs() < 0.02, "ratio {ratio}");
        let ins_ratio = arm.cost_ns(ImplKind::BitMap, CollOp::Insert)
            / intel.cost_ns(ImplKind::BitMap, CollOp::Insert);
        // Paper: BitMap inserts see 1.47× slowdown on AArch64.
        assert!((ins_ratio - 1.47).abs() < 0.02, "ratio {ins_ratio}");
    }

    #[test]
    fn time_accumulates_counts() {
        let m = CostModel::intel_x64();
        let mut c = OpCounts::default();
        c.bump(ImplKind::HashMap, CollOp::Read, 100);
        let t = m.time_ns(&c);
        assert!((t - 3000.0).abs() < 1e-6);
    }

    #[test]
    fn union_words_much_cheaper_than_union_elems() {
        let m = CostModel::intel_x64();
        // 64 elements per word, word cost ~ 0.4ns vs 35ns/elem: the
        // Table III union gap (thousands of ×) emerges from the counts.
        assert!(
            m.cost_ns(ImplKind::BitSet, CollOp::UnionWord) * 10.0
                < m.cost_ns(ImplKind::HashSet, CollOp::UnionElem)
        );
    }
}
