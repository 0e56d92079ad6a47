//! CC: connected components by min-label propagation (Lonestar
//! `connectedcomponents`).
//!
//! `labels: Map<node, node>` stores node identifiers as *values* — the
//! canonical propagation target (§III-E): with ADE both the keys and the
//! elements become identifiers (`Map<idx, idx>`), eliminating every
//! translation in the hot loop.

use ade_ir::builder::FunctionBuilder;
use ade_ir::{CmpOp, Module, Type};

use super::embed_edges;
use crate::gen;

pub(super) fn build(scale: u32) -> Module {
    let g = gen::rmat(scale, 8, 0xCC);
    let mut b = FunctionBuilder::new("main", &[], Type::Void);

    let nodes = b.literal(&g.nodes[..]);
    let (srcs, dsts) = embed_edges(&mut b, &g);

    b.roi_begin();
    // labels[v] = v initially.
    let labels = b.new_collection(Type::map(Type::U64, Type::U64));
    let labels = b.for_each(nodes, &[labels], |b, _i, v, c| {
        let v = v.expect("seq elem");
        vec![b.write(c[0], v, v)]
    })[0];

    // Propagate the minimum label across each edge until stable.
    let result = b.do_while(&[labels], |b, carried| {
        let zero = b.const_u64(0);
        let r = b.for_each(srcs, &[carried[0], zero], |b, i, u, c| {
            let u = u.expect("seq elem");
            let v = b.read(dsts, i);
            let lu = b.read(c[0], u);
            let lv = b.read(c[0], v);
            let one = b.const_u64(1);
            let u_smaller = b.lt(lu, lv);

            b.if_else(
                u_smaller,
                |b| {
                    let m = b.write(c[0], v, lu);
                    let ch = b.add(c[1], one);
                    vec![m, ch]
                },
                |b| {
                    let v_smaller = b.lt(lv, lu);

                    b.if_else(
                        v_smaller,
                        |b| {
                            let m = b.write(c[0], u, lv);
                            let ch = b.add(c[1], one);
                            vec![m, ch]
                        },
                        |_b| vec![c[0], c[1]],
                    )
                },
            )
        });
        let zero = b.const_u64(0);
        let go = b.cmp(CmpOp::Gt, r[1], zero);
        (go, vec![r[0]])
    });
    b.roi_end();

    // Checksum: component count (nodes that kept their own label) and a
    // wrapping sum of labels in node order.
    let labels = result[0];
    let zero = b.const_u64(0);
    let sums = b.for_each(nodes, &[zero, zero], |b, _i, v, c| {
        let v = v.expect("seq elem");
        let l = b.read(labels, v);
        let sum = b.add(c[0], l);
        let is_root = b.eq(l, v);
        let roots = b.if_else(
            is_root,
            |b| {
                let one = b.const_u64(1);
                vec![b.add(c[1], one)]
            },
            |_b| vec![c[1]],
        );
        vec![sum, roots[0]]
    });
    b.print(&[sums[1], sums[0]]);
    b.ret_void();

    let mut module = Module::new();
    module.add_function(b.finish());
    module
}

#[cfg(test)]
mod tests {
    use ade_interp::{ExecConfig, Interpreter};

    #[test]
    fn cc_finds_few_components_on_rmat() {
        let m = super::build(6);
        let out = Interpreter::new(&m, ExecConfig::default())
            .run("main")
            .expect("runs");
        let components: u64 = out
            .output
            .split_whitespace()
            .next()
            .expect("component count")
            .parse()
            .expect("number");
        // R-MAT graphs have one giant component plus isolated nodes.
        assert!((1..64).contains(&components), "{}", out.output);
    }
}
