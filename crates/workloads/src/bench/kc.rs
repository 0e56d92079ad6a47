//! KC: k-core decomposition by peeling (Lonestar `kcore`).
//!
//! The input is deliberately initialization-heavy relative to the kernel
//! — the paper's KC is the one whole-program regression (0.94×) because
//! >90% of its time is initialization, so enumeration construction is
//! > never amortized (Fig. 5a discussion).

use ade_ir::builder::FunctionBuilder;
use ade_ir::{CmpOp, Module, Type};

use super::{build_adjacency_seq, embed_edges};
use crate::gen;

const K: u64 = 3;

pub(super) fn build(scale: u32) -> Module {
    // Denser than the other benchmarks: heavy input construction.
    let g = gen::rmat(scale, 16, 0x6C);
    let mut b = FunctionBuilder::new("main", &[], Type::Void);

    let nodes = b.literal(&g.nodes[..]);
    let (srcs, dsts) = embed_edges(&mut b, &g);
    let adj = build_adjacency_seq(&mut b, nodes, srcs, dsts);

    b.roi_begin();
    // Initial degrees and the initial worklist of sub-k nodes.
    let degree = b.new_collection(Type::map(Type::U64, Type::U64));
    let worklist = b.new_collection(Type::seq(Type::U64));
    let k = b.const_u64(K);
    let init = b.for_each(nodes, &[degree, worklist], |b, _i, v, c| {
        let v = v.expect("seq elem");
        let nbrs = b.read(adj, v);
        let d = b.size(nbrs);
        let deg = b.write(c[0], v, d);
        let low = b.lt(d, k);
        let wl = b.if_else(low, |b| vec![b.push(c[1], v)], |_b| vec![c[1]]);
        vec![deg, wl[0]]
    });
    let (degree, worklist) = (init[0], init[1]);

    // FIFO peel: the worklist grows while being scanned, so iterate by
    // index against the live size. Guarded: do-while bodies run at least
    // once, so an empty initial worklist must skip the loop entirely.
    let removed = b.new_collection(Type::set(Type::U64));
    let zero = b.const_u64(0);
    let wl_len = b.size(worklist);
    let nonempty = b.cmp(CmpOp::Gt, wl_len, zero);
    let peel = b.if_else(
        nonempty,
        |b| {
            let peel = b.do_while(&[zero, degree, worklist, removed], |b, c| {
                let (i, degree, worklist, removed) = (c[0], c[1], c[2], c[3]);
                let u = b.read(worklist, i);
                let gone = b.has(removed, u);
                let fresh = b.not(gone);
                let out = b.if_else(
                    fresh,
                    |b| {
                        let removed = b.insert(removed, u);
                        let nbrs = b.read(adj, u);
                        let rr = b.for_each(nbrs, &[degree, worklist], |b, _j, v, cc| {
                            let v = v.expect("seq elem");
                            let vg = b.has(removed, v);
                            let alive = b.not(vg);

                            b.if_else(
                                alive,
                                |b| {
                                    let dv = b.read(cc[0], v);
                                    let one = b.const_u64(1);
                                    let dv1 = b.sub(dv, one);
                                    let d2 = b.write(cc[0], v, dv1);
                                    let now_low = b.lt(dv1, k);
                                    let was_ok = b.cmp(CmpOp::Ge, dv, k);
                                    let crossing = b.bin(ade_ir::BinOp::And, now_low, was_ok);
                                    let w2 = b.if_else(
                                        crossing,
                                        |b| vec![b.push(cc[1], v)],
                                        |_b| vec![cc[1]],
                                    );
                                    vec![d2, w2[0]]
                                },
                                |_b| vec![cc[0], cc[1]],
                            )
                        });
                        vec![rr[0], rr[1], removed]
                    },
                    |_b| vec![degree, worklist, removed],
                );
                let one = b.const_u64(1);
                let i1 = b.add(i, one);
                let len = b.size(out[1]);
                let go = b.lt(i1, len);
                (go, vec![i1, out[0], out[1], out[2]])
            });
            vec![peel[3]]
        },
        |_b| vec![removed],
    );
    b.roi_end();

    // Checksum: size of the k-core (surviving nodes) and the wrapping
    // id-sum, in node order.
    let removed = peel[0];
    let zero = b.const_u64(0);
    let sums = b.for_each(nodes, &[zero, zero], |b, _i, v, c| {
        let v = v.expect("seq elem");
        let gone = b.has(removed, v);

        b.if_else(
            gone,
            |_b| vec![c[0], c[1]],
            |b| {
                let one = b.const_u64(1);
                let cnt = b.add(c[0], one);
                let sum = b.add(c[1], v);
                vec![cnt, sum]
            },
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
    fn kc_keeps_a_core_on_dense_rmat() {
        let m = super::build(6);
        let out = Interpreter::new(&m, ExecConfig::default())
            .run("main")
            .expect("runs");
        let core: u64 = out
            .output
            .split_whitespace()
            .next()
            .expect("core size")
            .parse()
            .expect("number");
        assert!(core > 0, "{}", out.output);
    }
}
