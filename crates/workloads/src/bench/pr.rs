//! PR: PageRank power iteration (Lonestar `pagerank`).
//!
//! Hot structures: `rank`/`next: Map<node, f64>` and
//! `degree: Map<node, u64>`, all keyed by sparse node identifiers — the
//! paper reports PR as 100% sparse under MEMOIR (Table II).
//!
//! Floating-point accumulation follows the edge sequence order, which no
//! configuration changes, so results are bit-identical across MEMOIR and
//! every ADE variant.

use ade_ir::builder::FunctionBuilder;
use ade_ir::{Module, Type};

use super::embed_edges;
use crate::gen;

const ROUNDS: u64 = 8;

pub(super) fn build(scale: u32) -> Module {
    let g = gen::rmat(scale, 8, 0x11);
    let mut b = FunctionBuilder::new("main", &[], Type::Void);

    let nodes = b.literal(&g.nodes[..]);
    let (srcs, dsts) = embed_edges(&mut b, &g);

    b.roi_begin();
    // Out-degrees.
    let degree = b.new_collection(Type::map(Type::U64, Type::U64));
    let degree = b.for_each(nodes, &[degree], |b, _i, v, c| {
        let v = v.expect("seq elem");
        let zero = b.const_u64(0);
        vec![b.write(c[0], v, zero)]
    })[0];
    let degree = b.for_each(srcs, &[degree], |b, _i, u, c| {
        let u = u.expect("seq elem");
        let d = b.read(c[0], u);
        let one = b.const_u64(1);
        let d1 = b.add(d, one);
        vec![b.write(c[0], u, d1)]
    })[0];

    // rank[v] = 1/n.
    let n_nodes = b.size(nodes);
    let n_f = b.cast(n_nodes, Type::F64);
    let one_f = b.const_f64(1.0);
    let init_rank = b.div(one_f, n_f);
    let rank = b.new_collection(Type::map(Type::U64, Type::F64));
    let rank = b.for_each(nodes, &[rank], |b, _i, v, c| {
        let v = v.expect("seq elem");
        vec![b.write(c[0], v, init_rank)]
    })[0];

    let damping = b.const_f64(0.85);
    let base_num = b.const_f64(0.15);
    let base = b.div(base_num, n_f);

    let lo = b.const_u64(0);
    let hi = b.const_u64(ROUNDS);
    let result = b.for_range(lo, hi, &[rank], |b, _round, carried| {
        let rank = carried[0];
        // next[v] = base.
        let next = b.new_collection(Type::map(Type::U64, Type::F64));
        let next = b.for_each(nodes, &[next], |b, _i, v, c| {
            let v = v.expect("seq elem");
            vec![b.write(c[0], v, base)]
        })[0];
        // Edge contributions in sequence order.
        let next = b.for_each(srcs, &[next], |b, i, u, c| {
            let u = u.expect("seq elem");
            let v = b.read(dsts, i);
            let ru = b.read(rank, u);
            let du = b.read(degree, u);
            let du_f = b.cast(du, Type::F64);
            let share = b.div(ru, du_f);
            let scaled = b.mul(share, damping);
            let cur = b.read(c[0], v);
            let upd = b.add(cur, scaled);
            vec![b.write(c[0], v, upd)]
        })[0];
        vec![next]
    });
    b.roi_end();

    // Checksum: total rank mass and the rank of the hub (first node),
    // both read in deterministic node order.
    let rank = result[0];
    let zero_f = b.const_f64(0.0);
    let total = b.for_each(nodes, &[zero_f], |b, _i, v, c| {
        let v = v.expect("seq elem");
        let r = b.read(rank, v);
        vec![b.add(c[0], r)]
    })[0];
    let hub = b.const_u64(g.nodes[0]);
    let hub_rank = b.read(rank, hub);
    b.print(&[total, hub_rank]);
    b.ret_void();

    let mut module = Module::new();
    module.add_function(b.finish());
    module
}

#[cfg(test)]
mod tests {
    use ade_interp::{ExecConfig, Interpreter};

    #[test]
    fn pr_mass_is_conserved_up_to_damping() {
        let m = super::build(6);
        let out = Interpreter::new(&m, ExecConfig::default())
            .run("main")
            .expect("runs");
        let total: f64 = out
            .output
            .split_whitespace()
            .next()
            .expect("total")
            .parse()
            .expect("float");
        // Dangling nodes leak mass; total stays within (0, 1].
        assert!(total > 0.05 && total <= 1.0 + 1e-9, "{}", out.output);
    }
}
