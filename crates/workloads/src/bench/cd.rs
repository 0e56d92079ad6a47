//! CD: community detection by synchronous label propagation (Lonestar
//! `clustering` stand-in).
//!
//! Each round every node adopts its neighbors' most frequent label
//! (ties broken toward the smaller label, making the result independent
//! of set-iteration order). The per-node histogram is a short-lived
//! `Map<label, u64>` — allocation-site churn the selection pass must
//! handle.

use ade_ir::builder::FunctionBuilder;
use ade_ir::{CmpOp, Module, Type};

use super::{build_adjacency_seq, embed_edges};
use crate::gen;

const ROUNDS: u64 = 4;

pub(super) fn build(scale: u32) -> Module {
    let g = gen::rmat(scale, 8, 0xCD);
    let mut b = FunctionBuilder::new("main", &[], Type::Void);

    let nodes = b.literal(&g.nodes[..]);
    let (srcs, dsts) = embed_edges(&mut b, &g);
    let adj = build_adjacency_seq(&mut b, nodes, srcs, dsts);

    b.roi_begin();
    let labels = b.new_collection(Type::map(Type::U64, Type::U64));
    let labels = b.for_each(nodes, &[labels], |b, _i, v, c| {
        let v = v.expect("seq elem");
        vec![b.write(c[0], v, v)]
    })[0];

    let lo = b.const_u64(0);
    let hi = b.const_u64(ROUNDS);
    let result = b.for_range(lo, hi, &[labels], |b, _round, carried| {
        let labels = carried[0];
        let next = b.new_collection(Type::map(Type::U64, Type::U64));
        let next = b.for_each(nodes, &[next], |b, _i, u, c| {
            let u = u.expect("seq elem");
            // Histogram of neighbor labels.
            let hist = b.new_collection(Type::map(Type::U64, Type::U64));
            let nbrs = b.read(adj, u);
            let hist = b.for_each(nbrs, &[hist], |b, _j, v, hc| {
                let v = v.expect("seq elem");
                let l = b.read(labels, v);
                let seen = b.has(hc[0], l);
                let cnt = b.if_else(seen, |b| vec![b.read(hc[0], l)], |b| vec![b.const_u64(0)]);
                let one = b.const_u64(1);
                let cnt1 = b.add(cnt[0], one);
                vec![b.write(hc[0], l, cnt1)]
            })[0];
            // argmax with (count desc, label asc) tie-break: order-free.
            let own = b.read(labels, u);
            let zero = b.const_u64(0);
            let best = b.for_each(hist, &[own, zero], |b, l, cnt, bc| {
                let cnt = cnt.expect("map value");
                let better = b.cmp(CmpOp::Gt, cnt, bc[1]);

                b.if_else(
                    better,
                    |_b| vec![l, cnt],
                    |b| {
                        let tie = b.eq(cnt, bc[1]);
                        let smaller = b.lt(l, bc[0]);
                        let both = b.bin(ade_ir::BinOp::And, tie, smaller);

                        b.if_else(both, |_b| vec![l, cnt], |_b| vec![bc[0], bc[1]])
                    },
                )
            });
            vec![b.write(c[0], u, best[0])]
        })[0];
        vec![next]
    });
    b.roi_end();

    // Checksum: community count (distinct labels) and wrapping label sum
    // in node order.
    let labels = result[0];
    let distinct = b.new_collection(Type::set(Type::U64));
    let zero = b.const_u64(0);
    let out = b.for_each(nodes, &[distinct, zero], |b, _i, v, c| {
        let v = v.expect("seq elem");
        let l = b.read(labels, v);
        let d = b.insert(c[0], l);
        let s = b.add(c[1], l);
        vec![d, s]
    });
    let communities = b.size(out[0]);
    b.print(&[communities, out[1]]);
    b.ret_void();

    let mut module = Module::new();
    module.add_function(b.finish());
    module
}

#[cfg(test)]
mod tests {
    use ade_interp::{ExecConfig, Interpreter};

    #[test]
    fn cd_converges_to_fewer_communities_than_nodes() {
        let m = super::build(6);
        let out = Interpreter::new(&m, ExecConfig::default())
            .run("main")
            .expect("runs");
        let communities: u64 = out
            .output
            .split_whitespace()
            .next()
            .expect("count")
            .parse()
            .expect("number");
        assert!((1..64).contains(&communities), "{}", out.output);
    }
}
