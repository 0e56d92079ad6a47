//! SSSP: Bellman-Ford with a round-based worklist (Lonestar `sssp`).
//!
//! Hot operations are `dist: Map<node, u64>` reads/writes and worklist
//! (`Seq<node>`) pushes — the benchmark where the paper sees its largest
//! whole-program speedup (8.72×) and where propagation matters most
//! (Fig. 7b: disabling propagation behaves like disabling RTE).

use ade_ir::builder::FunctionBuilder;
use ade_ir::{CmpOp, Module, Operand, Scalar, Type};

use crate::gen;

const INFINITY: u64 = u64::MAX / 4;

pub(super) fn build(scale: u32) -> Module {
    let g = gen::with_weights(gen::rmat(scale, 8, 0x55), 100, 0x66);
    let mut b = FunctionBuilder::new("main", &[], Type::Void);

    let nodes = b.literal(&g.nodes[..]);
    let srcs: Vec<u64> = g.edges.iter().map(|&(s, _)| s).collect();
    let dsts: Vec<u64> = g.edges.iter().map(|&(_, d)| d).collect();
    let wts = g.weights.clone().expect("weighted");
    let srcs = b.literal(&srcs[..]);
    let dsts = b.literal(&dsts[..]);
    let wts = b.literal(&wts[..]);

    // Adjacency as parallel sequences per node: Map<node, Seq<node>> and
    // Map<node, Seq<u64>> (neighbor weights).
    let adj = b.new_collection(Type::map(Type::U64, Type::seq(Type::U64)));
    let adj = b.for_each(nodes, &[adj], |b, _i, v, c| {
        let v = v.expect("seq elem");
        vec![b.insert(c[0], v)]
    })[0];
    let wadj = b.new_collection(Type::map(Type::U64, Type::seq(Type::U64)));
    let wadj = b.for_each(nodes, &[wadj], |b, _i, v, c| {
        let v = v.expect("seq elem");
        vec![b.insert(c[0], v)]
    })[0];
    let pair = b.for_each(srcs, &[adj, wadj], |b, i, u, c| {
        let u = u.expect("seq elem");
        let v = b.read(dsts, i);
        let w = b.read(wts, i);
        let nlen = b.size(Operand::nested(c[0], Scalar::Value(u)));
        let a1 = b.insert_at(
            Operand::nested(c[0], Scalar::Value(u)),
            Scalar::Value(nlen),
            v,
        );
        let wlen = b.size(Operand::nested(c[1], Scalar::Value(u)));
        let a2 = b.insert_at(
            Operand::nested(c[1], Scalar::Value(u)),
            Scalar::Value(wlen),
            w,
        );
        vec![a1, a2]
    });
    let (adj, wadj) = (pair[0], pair[1]);
    let src = b.const_u64(g.nodes[0]);

    b.roi_begin();
    let inf = b.const_u64(INFINITY);
    let dist = b.new_collection(Type::map(Type::U64, Type::U64));
    let dist = b.for_each(nodes, &[dist], |b, _i, v, c| {
        let v = v.expect("seq elem");
        vec![b.write(c[0], v, inf)]
    })[0];
    let zero = b.const_u64(0);
    let dist = b.write(dist, src, zero);
    let worklist = b.new_collection(Type::seq(Type::U64));
    let worklist = b.push(worklist, src);

    let result = b.do_while(&[dist, worklist], |b, carried| {
        let (dist, worklist) = (carried[0], carried[1]);
        let next = b.new_collection(Type::seq(Type::U64));
        let r = b.for_each(worklist, &[dist, next], |b, _i, u, c| {
            let u = u.expect("seq elem");
            let du = b.read(c[0], u);
            let nbrs = b.read(adj, u);
            let nwts = b.read(wadj, u);

            b.for_each(nbrs, &[c[0], c[1]], |b, j, v, cc| {
                let v = v.expect("seq elem");
                let w = b.read(nwts, j);
                let cand = b.add(du, w);
                let dv = b.read(cc[0], v);
                let better = b.lt(cand, dv);

                b.if_else(
                    better,
                    |b| {
                        let d2 = b.write(cc[0], v, cand);
                        let n2 = b.push(cc[1], v);
                        vec![d2, n2]
                    },
                    |_b| vec![cc[0], cc[1]],
                )
            })
        });
        let n = b.size(r[1]);
        let zero = b.const_u64(0);
        let go = b.cmp(CmpOp::Gt, n, zero);
        (go, vec![r[0], r[1]])
    });
    b.roi_end();

    // Checksum: reached count and the wrapping sum of finite distances,
    // in deterministic node order.
    let dist = result[0];
    let zero = b.const_u64(0);
    let sums = b.for_each(nodes, &[zero, zero], |b, _i, v, c| {
        let v = v.expect("seq elem");
        let d = b.read(dist, v);
        let finite = b.lt(d, inf);

        b.if_else(
            finite,
            |b| {
                let one = b.const_u64(1);
                let cnt = b.add(c[0], one);
                let sum = b.add(c[1], d);
                vec![cnt, sum]
            },
            |_b| vec![c[0], c[1]],
        )
    });
    b.print(&[sums[0], sums[1]]);
    b.ret_void();

    let mut module = Module::new();
    module.add_function(b.finish());
    module
}

#[cfg(test)]
mod tests {
    use ade_interp::{ExecConfig, Interpreter};

    #[test]
    fn sssp_reaches_nodes_with_finite_distances() {
        let m = super::build(6);
        let out = Interpreter::new(&m, ExecConfig::default())
            .run("main")
            .expect("runs");
        let reached: u64 = out
            .output
            .split_whitespace()
            .next()
            .expect("count")
            .parse()
            .expect("number");
        assert!(reached > 8, "{}", out.output);
    }
}
