//! TC: triangle counting by ordered set intersection (Lonestar
//! `triangles`).
//!
//! For every edge `u → v` with `u < v`, count `w > v` adjacent to both.
//! Under ADE the adjacency sets become bitsets: membership probes turn
//! into single bit reads, at the cost of *more* dynamic dense accesses —
//! the paper's Table II shows TC with +300 dense accesses yet a solid
//! speedup.

use ade_ir::builder::FunctionBuilder;
use ade_ir::{Module, Type};

use super::{build_adjacency, build_adjacency_seq, embed_edges};
use crate::gen;

pub(super) fn build(scale: u32) -> Module {
    let g = gen::rmat(scale, 8, 0x7C);
    let mut b = FunctionBuilder::new("main", &[], Type::Void);

    let nodes = b.literal(&g.nodes[..]);
    let (srcs, dsts) = embed_edges(&mut b, &g);
    // Membership structure (sets) plus CSR-style iteration lists: the
    // usual Lonestar split. Symmetrize both so orientation is free.
    let adj = build_adjacency(&mut b, nodes, srcs, dsts);
    let adj = b.for_each(srcs, &[adj], |b, i, u, c| {
        let u = u.expect("seq elem");
        let v = b.read(dsts, i);
        let a = b.insert(ade_ir::Operand::nested(c[0], ade_ir::Scalar::Value(v)), u);
        vec![a]
    })[0];
    let lists = build_adjacency_seq(&mut b, nodes, srcs, dsts);
    let lists = b.for_each(srcs, &[lists], |b, i, u, c| {
        let u = u.expect("seq elem");
        let v = b.read(dsts, i);
        let len = b.size(ade_ir::Operand::nested(c[0], ade_ir::Scalar::Value(v)));
        vec![b.insert_at(
            ade_ir::Operand::nested(c[0], ade_ir::Scalar::Value(v)),
            ade_ir::Scalar::Value(len),
            u,
        )]
    })[0];

    b.roi_begin();
    let zero = b.const_u64(0);
    let triangles = b.for_each(nodes, &[zero], |b, _i, u, c| {
        let u = u.expect("seq elem");
        let au = b.read(adj, u);
        let lu = b.read(lists, u);

        b.for_each(lu, &[c[0]], |b, _j, v, cu| {
            let v = v.expect("seq elem");
            let ordered = b.lt(u, v);

            b.if_else(
                ordered,
                |b| {
                    let lv = b.read(lists, v);

                    b.for_each(lv, &[cu[0]], |b, _k, w, cv| {
                        let w = w.expect("seq elem");
                        let ordered2 = b.lt(v, w);

                        b.if_else(
                            ordered2,
                            |b| {
                                let closes = b.has(au, w);

                                b.if_else(
                                    closes,
                                    |b| {
                                        let one = b.const_u64(1);
                                        vec![b.add(cv[0], one)]
                                    },
                                    |_b| vec![cv[0]],
                                )
                            },
                            |_b| vec![cv[0]],
                        )
                    })
                },
                |_b| vec![cu[0]],
            )
        })
    })[0];
    b.roi_end();

    b.print(&[triangles]);
    b.ret_void();

    let mut module = Module::new();
    module.add_function(b.finish());
    module
}

#[cfg(test)]
mod tests {
    use ade_interp::{ExecConfig, Interpreter};

    #[test]
    fn tc_counts_triangles_on_rmat() {
        let m = super::build(6);
        let out = Interpreter::new(&m, ExecConfig::default())
            .run("main")
            .expect("runs");
        let count: u64 = out.output.trim().parse().expect("number");
        // R-MAT graphs are triangle-rich around the hub.
        assert!(count > 0, "{}", out.output);
    }
}
