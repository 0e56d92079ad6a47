//! IS: greedy maximal independent set (Lonestar `independentset`).
//!
//! Scans nodes in sequence order; a node joins the MIS unless a neighbor
//! already did. Hot collections: `in_mis: Set<node>` and
//! `forbidden: Set<node>` — two sets over the same domain, the textbook
//! sharing case (§III-D).

use ade_ir::builder::FunctionBuilder;
use ade_ir::{Module, Type};

use super::{build_adjacency_seq, embed_edges};
use crate::gen;

pub(super) fn build(scale: u32) -> Module {
    let g = gen::rmat(scale, 8, 0x15);
    let mut b = FunctionBuilder::new("main", &[], Type::Void);

    let nodes = b.literal(&g.nodes[..]);
    let (srcs, dsts) = embed_edges(&mut b, &g);
    let adj = build_adjacency_seq(&mut b, nodes, srcs, dsts);

    b.roi_begin();
    let in_mis = b.new_collection(Type::set(Type::U64));
    let forbidden = b.new_collection(Type::set(Type::U64));
    let out = b.for_each(nodes, &[in_mis, forbidden], |b, _i, u, c| {
        let u = u.expect("seq elem");
        let blocked = b.has(c[1], u);
        let free = b.not(blocked);

        b.if_else(
            free,
            |b| {
                let mis = b.insert(c[0], u);
                let nbrs = b.read(adj, u);
                let fb = b.for_each(nbrs, &[c[1]], |b, _j, v, fc| {
                    let v = v.expect("seq elem");
                    vec![b.insert(fc[0], v)]
                })[0];
                vec![mis, fb]
            },
            |_b| vec![c[0], c[1]],
        )
    });
    b.roi_end();

    // Checksum: MIS size and the wrapping id-sum of members, in node
    // order.
    let in_mis = out[0];
    let mis_size = b.size(in_mis);
    let zero = b.const_u64(0);
    let sum = b.for_each(nodes, &[zero], |b, _i, v, c| {
        let v = v.expect("seq elem");
        let member = b.has(in_mis, v);

        b.if_else(member, |b| vec![b.add(c[0], v)], |_b| vec![c[0]])
    })[0];
    b.print(&[mis_size, sum]);
    b.ret_void();

    let mut module = Module::new();
    module.add_function(b.finish());
    module
}

#[cfg(test)]
mod tests {
    use ade_interp::{ExecConfig, Interpreter};

    #[test]
    fn is_finds_nonempty_independent_set() {
        let m = super::build(6);
        let out = Interpreter::new(&m, ExecConfig::default())
            .run("main")
            .expect("runs");
        let size: u64 = out
            .output
            .split_whitespace()
            .next()
            .expect("size")
            .parse()
            .expect("number");
        assert!(size > 4, "{}", out.output);
    }
}
