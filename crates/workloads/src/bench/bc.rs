//! BC: Brandes betweenness centrality from sampled sources (Lonestar
//! `betweennesscentrality`).
//!
//! Per source: a BFS builds the discovery stack, shortest-path counts
//! (`sigma`) and distances; the backward sweep accumulates dependencies
//! (`delta`). Adjacency uses `Map<node, Seq<node>>` so floating-point
//! accumulation order is fixed across collection implementations.

use ade_ir::builder::FunctionBuilder;
use ade_ir::{Module, Operand, Scalar, Type};

use crate::gen;

const SOURCES: usize = 4;

pub(super) fn build(scale: u32) -> Module {
    let g = gen::rmat(scale, 8, 0xBC);
    let mut b = FunctionBuilder::new("main", &[], Type::Void);

    let nodes = b.literal(&g.nodes[..]);
    let srcs: Vec<u64> = g.edges.iter().map(|&(s, _)| s).collect();
    let dsts: Vec<u64> = g.edges.iter().map(|&(_, d)| d).collect();
    let srcs = b.literal(&srcs[..]);
    let dsts = b.literal(&dsts[..]);

    // Sequence adjacency: Map<node, Seq<node>>.
    let adj = b.new_collection(Type::map(Type::U64, Type::seq(Type::U64)));
    let adj = b.for_each(nodes, &[adj], |b, _i, v, c| {
        let v = v.expect("seq elem");
        vec![b.insert(c[0], v)]
    })[0];
    let adj = b.for_each(srcs, &[adj], |b, i, u, c| {
        let u = u.expect("seq elem");
        let v = b.read(dsts, i);
        let len = b.size(Operand::nested(c[0], Scalar::Value(u)));
        vec![b.insert_at(
            Operand::nested(c[0], Scalar::Value(u)),
            Scalar::Value(len),
            v,
        )]
    })[0];

    let sample: Vec<u64> = g.nodes.iter().copied().take(SOURCES).collect();
    let sources = b.literal(&sample[..]);

    b.roi_begin();
    let centrality = b.new_collection(Type::map(Type::U64, Type::F64));
    let centrality = b.for_each(nodes, &[centrality], |b, _i, v, c| {
        let v = v.expect("seq elem");
        let zero = b.const_f64(0.0);
        vec![b.write(c[0], v, zero)]
    })[0];

    let centrality = b.for_each(sources, &[centrality], |b, _si, s, outer| {
        let s = s.expect("seq elem");
        // Forward BFS with a discovery stack.
        let dist = b.new_collection(Type::map(Type::U64, Type::U64));
        let sigma = b.new_collection(Type::map(Type::U64, Type::F64));
        let stack = b.new_collection(Type::seq(Type::U64));
        let zero = b.const_u64(0);
        let one_f = b.const_f64(1.0);
        let dist = b.write(dist, s, zero);
        let sigma = b.write(sigma, s, one_f);
        let stack = b.push(stack, s);

        let bfs = b.do_while(&[zero, dist, sigma, stack], |b, c| {
            let (i, dist, sigma, stack) = (c[0], c[1], c[2], c[3]);
            let u = b.read(stack, i);
            let du = b.read(dist, u);
            let su = b.read(sigma, u);
            let one = b.const_u64(1);
            let dv = b.add(du, one);
            let nbrs = b.read(adj, u);
            let r = b.for_each(nbrs, &[dist, sigma, stack], |b, _j, v, cc| {
                let v = v.expect("seq elem");
                let seen = b.has(cc[0], v);

                b.if_else(
                    seen,
                    |b| {
                        // Another shortest path through u?
                        let dcur = b.read(cc[0], v);
                        let same = b.eq(dcur, dv);

                        b.if_else(
                            same,
                            |b| {
                                let sv = b.read(cc[1], v);
                                let sv2 = b.add(sv, su);
                                vec![cc[0], b.write(cc[1], v, sv2), cc[2]]
                            },
                            |_b| vec![cc[0], cc[1], cc[2]],
                        )
                    },
                    |b| {
                        let d2 = b.write(cc[0], v, dv);
                        let s2 = b.write(cc[1], v, su);
                        let st2 = b.push(cc[2], v);
                        vec![d2, s2, st2]
                    },
                )
            });
            let i1 = b.add(i, one);
            let len = b.size(r[2]);
            let go = b.lt(i1, len);
            (go, vec![i1, r[0], r[1], r[2]])
        });
        let (dist, sigma, stack) = (bfs[1], bfs[2], bfs[3]);

        // Backward sweep in reverse discovery order.
        let delta = b.new_collection(Type::map(Type::U64, Type::F64));
        let delta = b.for_each(stack, &[delta], |b, _i, v, c| {
            let v = v.expect("seq elem");
            let zero_f = b.const_f64(0.0);
            vec![b.write(c[0], v, zero_f)]
        })[0];
        let len = b.size(stack);
        let res = b.for_range(zero, len, &[delta, outer[0]], |b, i, c| {
            let one = b.const_u64(1);
            let last = b.sub(len, one);
            let ri = b.sub(last, i);
            let u = b.read(stack, ri);
            let du = b.read(dist, u);
            let su = b.read(sigma, u);
            let one_u = b.const_u64(1);
            let dnext = b.add(du, one_u);
            let nbrs = b.read(adj, u);
            let d2 = b.for_each(nbrs, &[c[0]], |b, _j, w, dc| {
                let w = w.expect("seq elem");
                let on_path = b.has(dist, w);

                b.if_else(
                    on_path,
                    |b| {
                        let dw = b.read(dist, w);
                        let succ = b.eq(dw, dnext);

                        b.if_else(
                            succ,
                            |b| {
                                let sw = b.read(sigma, w);
                                let ratio = b.div(su, sw);
                                let one_f = b.const_f64(1.0);
                                let deltaw = b.read(dc[0], w);
                                let t = b.add(one_f, deltaw);
                                let contrib = b.mul(ratio, t);
                                let deltau = b.read(dc[0], u);
                                let d3 = b.add(deltau, contrib);
                                vec![b.write(dc[0], u, d3)]
                            },
                            |_b| vec![dc[0]],
                        )
                    },
                    |_b| vec![dc[0]],
                )
            })[0];
            // Accumulate into centrality (skip the source itself).
            let is_src = b.eq(u, s);
            let cent = b.if_else(
                is_src,
                |_b| vec![c[1]],
                |b| {
                    let du2 = b.read(d2, u);
                    let cu = b.read(c[1], u);
                    let c2 = b.add(cu, du2);
                    vec![b.write(c[1], u, c2)]
                },
            );
            vec![d2, cent[0]]
        });
        vec![res[1]]
    })[0];
    b.roi_end();

    // Checksum: wrapping-scaled centrality sum in node order.
    let zero_f = b.const_f64(0.0);
    let total = b.for_each(nodes, &[zero_f], |b, _i, v, c| {
        let v = v.expect("seq elem");
        let cv = b.read(centrality, v);
        vec![b.add(c[0], cv)]
    })[0];
    b.print(&[total]);
    b.ret_void();

    let mut module = Module::new();
    module.add_function(b.finish());
    module
}

#[cfg(test)]
mod tests {
    use ade_interp::{ExecConfig, Interpreter};

    #[test]
    fn bc_accumulates_positive_centrality() {
        let m = super::build(6);
        let out = Interpreter::new(&m, ExecConfig::default())
            .run("main")
            .expect("runs");
        let total: f64 = out.output.trim().parse().expect("float");
        assert!(total >= 0.0, "{}", out.output);
    }
}
