//! BFS: level-synchronous breadth-first search (Lonestar `bfs`).
//!
//! Collections: `dist: Map<node, u64>` (hot membership + writes),
//! `frontier: Seq<node>` (propagator), `adj: Map<node, Seq<node>>`
//! (CSR-style). The paper reports BFS as 100% sparse under MEMOIR and
//! almost fully dense under ADE (Table II: −96.8 sparse).

use ade_ir::builder::FunctionBuilder;
use ade_ir::{Module, Type};

use super::{build_adjacency_seq, embed_edges};
use crate::gen;

pub(super) fn build(scale: u32) -> Module {
    let g = gen::rmat(scale, 8, 0xBF5);
    let mut b = FunctionBuilder::new("main", &[], Type::Void);

    let nodes = b.literal(&g.nodes[..]);
    let (srcs, dsts) = embed_edges(&mut b, &g);
    let adj = build_adjacency_seq(&mut b, nodes, srcs, dsts);
    let src = b.const_u64(g.nodes[0]);

    b.roi_begin();
    let dist = b.new_collection(Type::map(Type::U64, Type::U64));
    let zero = b.const_u64(0);
    let dist = b.write(dist, src, zero);
    let frontier = b.new_collection(Type::seq(Type::U64));
    let frontier = b.push(frontier, src);

    let result = b.do_while(&[dist, frontier], |b, carried| {
        let (dist, frontier) = (carried[0], carried[1]);
        let next = b.new_collection(Type::seq(Type::U64));
        let r = b.for_each(frontier, &[dist, next], |b, _i, u, c| {
            let u = u.expect("seq elem");
            let du = b.read(c[0], u);
            let one = b.const_u64(1);
            let dv = b.add(du, one);
            let nbrs = b.read(adj, u);

            b.for_each(nbrs, &[c[0], c[1]], |b, _j, v, cc| {
                let v = v.expect("seq elem");
                let seen = b.has(cc[0], v);
                let fresh = b.not(seen);

                b.if_else(
                    fresh,
                    |b| {
                        let d2 = b.write(cc[0], v, dv);
                        let n2 = b.push(cc[1], v);
                        vec![d2, n2]
                    },
                    |_b| vec![cc[0], cc[1]],
                )
            })
        });
        let n = b.size(r[1]);
        let zero = b.const_u64(0);
        let go = b.cmp(ade_ir::CmpOp::Gt, n, zero);
        (go, vec![r[0], r[1]])
    });
    b.roi_end();

    // Checksum: number reached and the wrapping sum of distances.
    let dist = result[0];
    let reached = b.size(dist);
    let zero = b.const_u64(0);
    let sum = b.for_each(dist, &[zero], |b, _k, v, c| {
        let v = v.expect("map value");
        vec![b.add(c[0], v)]
    })[0];
    b.print(&[reached, sum]);
    b.ret_void();

    let mut module = Module::new();
    module.add_function(b.finish());
    module
}

#[cfg(test)]
mod tests {
    use ade_interp::{ExecConfig, Interpreter};

    #[test]
    fn bfs_reaches_most_of_the_graph() {
        let m = super::build(6);
        let out = Interpreter::new(&m, ExecConfig::default())
            .run("main")
            .expect("runs");
        let reached: u64 = out
            .output
            .split_whitespace()
            .next()
            .expect("reached count")
            .parse()
            .expect("number");
        assert!(reached > 8, "{}", out.output);
    }
}
