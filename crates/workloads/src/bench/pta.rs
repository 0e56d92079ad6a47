//! PTA: Andersen-style inclusion-based points-to analysis (Lonestar
//! `pta`) — the paper's RQ4 performance-engineering case study.
//!
//! The points-to relation is the nested `pts: Map<ptr, Set<obj>>`.
//! Untuned ADE shares one enumeration between the pointer keys and the
//! inner object sets (both are the same scalar type), making the inner
//! bitsets range over the whole pointer universe — the paper measures
//! 0.009% bit occupancy on sqlite3. The `noshare`/`select` directives of
//! §III-I fix this, reproduced by [`Tuning`].

use ade_ir::builder::FunctionBuilder;
use ade_ir::{CmpOp, DirectiveSet, Module, Operand, Scalar, SelectionChoice, Type};

use crate::gen;

/// RQ4 tuning variants for the points-to set allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tuning {
    /// Heuristics only (the paper's untuned ADE).
    Untuned,
    /// `#pragma ade nested(noshare)`: inner sets get their own
    /// enumeration over objects (the paper's 78.1× fix).
    InnerNoShare,
    /// `#pragma ade nested(noenumerate)`: inner sets stay hash sets.
    InnerNoEnumerate,
    /// `#pragma ade nested(select(SparseBit))`: compressed inner bitsets.
    InnerSparse,
    /// `#pragma ade nested(noshare, select(Flat))`: sorted-array inner
    /// sets with linear union.
    InnerFlat,
}

impl Tuning {
    fn directives(self) -> Option<DirectiveSet> {
        let nested = match self {
            Tuning::Untuned => return None,
            Tuning::InnerNoShare => DirectiveSet::new().with_noshare(),
            Tuning::InnerNoEnumerate => DirectiveSet::new().with_enumerate(false),
            Tuning::InnerSparse => DirectiveSet::new().with_select(SelectionChoice::SparseBit),
            Tuning::InnerFlat => DirectiveSet::new()
                .with_noshare()
                .with_select(SelectionChoice::Flat),
        };
        Some(DirectiveSet::new().with_nested(nested))
    }
}

pub(super) fn build(scale: u32) -> Module {
    build_with(scale, Tuning::Untuned)
}

/// Builds the PTA benchmark with an RQ4 tuning variant.
pub fn build_with(scale: u32, tuning: Tuning) -> Module {
    let n_ptrs = 1usize << scale;
    // Paper's skew: ~10⁴× more pointers than objects. The ratio is what
    // makes shared-enumeration inner bitsets pathologically sparse.
    let n_objs = (n_ptrs / 512).max(4);
    let c = gen::pta_constraints(n_ptrs, n_objs, n_ptrs * 3, 0x97A);
    let mut b = FunctionBuilder::new("main", &[], Type::Void);

    let ptrs = b.literal(&c.pointers[..]);
    let objs = b.literal(&c.objects[..]);
    let addr_p: Vec<u64> = c.address_of.iter().map(|&(p, _)| p).collect();
    let addr_o: Vec<u64> = c.address_of.iter().map(|&(_, o)| o).collect();
    let copy_a: Vec<u64> = c.copies.iter().map(|&(a, _)| a).collect();
    let copy_b: Vec<u64> = c.copies.iter().map(|&(_, b)| b).collect();
    let load_d: Vec<u64> = c.loads.iter().map(|&(d, _)| d).collect();
    let load_p: Vec<u64> = c.loads.iter().map(|&(_, p)| p).collect();
    let store_p: Vec<u64> = c.stores.iter().map(|&(p, _)| p).collect();
    let store_s: Vec<u64> = c.stores.iter().map(|&(_, q)| q).collect();
    let addr_p = b.literal(&addr_p[..]);
    let addr_o = b.literal(&addr_o[..]);
    let copy_a = b.literal(&copy_a[..]);
    let copy_b = b.literal(&copy_b[..]);
    let load_d = b.literal(&load_d[..]);
    let load_p = b.literal(&load_p[..]);
    let store_p = b.literal(&store_p[..]);
    let store_s = b.literal(&store_s[..]);

    b.roi_begin();
    let pts_ty = Type::map(Type::U64, Type::set(Type::U64));
    let pts = match tuning.directives() {
        Some(d) => b.new_collection_with(pts_ty, d),
        None => b.new_collection(pts_ty),
    };
    let pts = b.for_each(ptrs, &[pts], |b, _i, p, c| {
        let p = p.expect("seq elem");
        vec![b.insert(c[0], p)]
    })[0];
    // Heap objects are themselves nodes of the points-to relation (loads
    // and stores dereference them), so they get slots too — this key/
    // element domain overlap is what makes ADE's heuristic share one
    // enumeration between pointers and objects (the RQ4 pathology).
    let pts = b.for_each(objs, &[pts], |b, _i, o, c| {
        let o = o.expect("seq elem");
        vec![b.insert(c[0], o)]
    })[0];
    // Base constraints: p ⊇ {o}.
    let pts = b.for_each(addr_p, &[pts], |b, i, p, c| {
        let p = p.expect("seq elem");
        let o = b.read(addr_o, i);
        vec![b.insert(Operand::nested(c[0], Scalar::Value(p)), o)]
    })[0];

    // Fixpoint over copy, load and store constraints.
    let result = b.do_while(&[pts], |b, carried| {
        let zero = b.const_u64(0);
        // Copies: pts[dst] ⊇ pts[src].
        let r = b.for_each(copy_a, &[carried[0], zero], |b, i, a, c| {
            let a = a.expect("seq elem");
            let dst = b.read(copy_b, i);
            let before = b.size(Operand::nested(c[0], Scalar::Value(dst)));
            let src_set = b.read(c[0], a);
            let p2 = b.union_into(Operand::nested(c[0], Scalar::Value(dst)), src_set);
            let after = b.size(Operand::nested(p2, Scalar::Value(dst)));
            let grew = b.cmp(CmpOp::Gt, after, before);
            let ch = b.if_else(
                grew,
                |b| {
                    let one = b.const_u64(1);
                    vec![b.add(c[1], one)]
                },
                |_b| vec![c[1]],
            );
            vec![p2, ch[0]]
        });
        // Loads: dst = *p, i.e. ∀o ∈ pts[p]: pts[dst] ⊇ pts[o]. The
        // pointed-to objects are used as *keys* of the relation here.
        let r = b.for_each(load_d, &[r[0], r[1]], |b, i, dst, c| {
            let dst = dst.expect("seq elem");
            let p = b.read(load_p, i);
            let base = b.read(c[0], p);

            b.for_each(base, &[c[0], c[1]], |b, o, _none, cc| {
                let before = b.size(Operand::nested(cc[0], Scalar::Value(dst)));
                let o_set = b.read(cc[0], o);
                let p2 = b.union_into(Operand::nested(cc[0], Scalar::Value(dst)), o_set);
                let after = b.size(Operand::nested(p2, Scalar::Value(dst)));
                let grew = b.cmp(CmpOp::Gt, after, before);
                let ch = b.if_else(
                    grew,
                    |b| {
                        let one = b.const_u64(1);
                        vec![b.add(cc[1], one)]
                    },
                    |_b| vec![cc[1]],
                );
                vec![p2, ch[0]]
            })
        });
        // Stores: *p = src, i.e. ∀o ∈ pts[p]: pts[o] ⊇ pts[src].
        let r = b.for_each(store_p, &[r[0], r[1]], |b, i, p, c| {
            let p = p.expect("seq elem");
            let src = b.read(store_s, i);
            let base = b.read(c[0], p);

            b.for_each(base, &[c[0], c[1]], |b, o, _none, cc| {
                let before = b.size(Operand::nested(cc[0], Scalar::Value(o)));
                let src_set = b.read(cc[0], src);
                let p2 = b.union_into(Operand::nested(cc[0], Scalar::Value(o)), src_set);
                let after = b.size(Operand::nested(p2, Scalar::Value(o)));
                let grew = b.cmp(CmpOp::Gt, after, before);
                let ch = b.if_else(
                    grew,
                    |b| {
                        let one = b.const_u64(1);
                        vec![b.add(cc[1], one)]
                    },
                    |_b| vec![cc[1]],
                );
                vec![p2, ch[0]]
            })
        });
        let zero = b.const_u64(0);
        let go = b.cmp(CmpOp::Gt, r[1], zero);
        (go, vec![r[0]])
    });
    b.roi_end();

    // Checksum: total points-to set size in pointer order.
    let pts = result[0];
    let zero = b.const_u64(0);
    let total = b.for_each(ptrs, &[zero], |b, _i, p, c| {
        let p = p.expect("seq elem");
        let s = b.read(pts, p);
        let n = b.size(s);
        vec![b.add(c[0], n)]
    })[0];
    b.print(&[total]);
    b.ret_void();

    let mut module = Module::new();
    module.add_function(b.finish());
    module
}

#[cfg(test)]
mod tests {
    use super::*;
    use ade_interp::{ExecConfig, Interpreter};

    #[test]
    fn pta_reaches_fixpoint_with_nonempty_sets() {
        let m = build(6);
        let out = Interpreter::new(&m, ExecConfig::default())
            .run("main")
            .expect("runs");
        let total: u64 = out.output.trim().parse().expect("number");
        assert!(total > 0, "{}", out.output);
    }

    #[test]
    fn all_tunings_agree_on_the_result() {
        let expected = {
            let m = build(5);
            Interpreter::new(&m, ExecConfig::default())
                .run("main")
                .expect("runs")
                .output
        };
        for tuning in [
            Tuning::InnerNoShare,
            Tuning::InnerNoEnumerate,
            Tuning::InnerSparse,
            Tuning::InnerFlat,
        ] {
            let mut m = build_with(5, tuning);
            ade_core::run_ade(&mut m, &ade_core::AdeOptions::default());
            ade_ir::verify::verify_module(&m)
                .unwrap_or_else(|e| panic!("[{tuning:?}] verify: {e}"));
            let out = Interpreter::new(&m, ExecConfig::default())
                .run("main")
                .unwrap_or_else(|e| panic!("[{tuning:?}] run: {e}"));
            assert_eq!(out.output, expected, "[{tuning:?}]");
        }
    }
}
