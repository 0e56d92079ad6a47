//! MST: Borůvka's minimum spanning tree with a union-find map (Lonestar
//! `boruvka`).
//!
//! The union-find parent map `Map<node, node>` is searched through a
//! separate `@find` function — the paper's Listing 3/4 running example —
//! so this benchmark exercises identifier propagation *and* the
//! interprocedural unification of Algorithm 5 in one kernel.

use ade_ir::builder::FunctionBuilder;
use ade_ir::{CmpOp, Module, Type};

use crate::gen;

pub(super) fn build(scale: u32) -> Module {
    let n = 1usize << scale;
    let g = gen::with_weights(gen::erdos_renyi(n, n * 6, 0xA57), 1000, 0xA58);
    let mut module = Module::new();

    // fn @find(uf: Map<u64, u64>, v: u64) -> u64 — Listing 3.
    let mut fb = FunctionBuilder::new(
        "find",
        &[("uf", Type::map(Type::U64, Type::U64)), ("v", Type::U64)],
        Type::U64,
    );
    let uf = fb.param(0);
    let v = fb.param(1);
    let found = fb.do_while(&[v], |b, c| {
        let parent = b.read(uf, c[0]);
        let go = b.ne(parent, c[0]);
        (go, vec![parent])
    });
    fb.ret(found[0]);
    let find = module.add_function(fb.finish());

    let mut b = FunctionBuilder::new("main", &[], Type::Void);
    let nodes = b.literal(&g.nodes[..]);
    let srcs: Vec<u64> = g.edges.iter().map(|&(s, _)| s).collect();
    let dsts: Vec<u64> = g.edges.iter().map(|&(_, d)| d).collect();
    let wts = g.weights.clone().expect("weighted");
    let srcs = b.literal(&srcs[..]);
    let dsts = b.literal(&dsts[..]);
    let wts = b.literal(&wts[..]);

    b.roi_begin();
    // parent[v] = v.
    let parent = b.new_collection(Type::map(Type::U64, Type::U64));
    let parent = b.for_each(nodes, &[parent], |b, _i, v, c| {
        let v = v.expect("seq elem");
        vec![b.write(c[0], v, v)]
    })[0];

    let zero = b.const_u64(0);
    let big = b.const_u64(u64::MAX / 2);
    let result = b.do_while(&[parent, zero], |b, carried| {
        let parent = carried[0];
        let total = carried[1];
        // Cheapest outgoing edge per component: weight and edge index.
        let bestw = b.new_collection(Type::map(Type::U64, Type::U64));
        let beste = b.new_collection(Type::map(Type::U64, Type::U64));
        let scan = b.for_each(srcs, &[bestw, beste], |b, i, u, c| {
            let u = u.expect("seq elem");
            let v = b.read(dsts, i);
            let w = b.read(wts, i);
            let cu = b.call(find, &[parent, u], Type::U64).expect("value");
            let cv = b.call(find, &[parent, v], Type::U64).expect("value");
            let cross = b.ne(cu, cv);

            b.if_else(
                cross,
                |b| {
                    let known = b.has(c[0], cu);
                    let cur = b.if_else(known, |b| vec![b.read(c[0], cu)], |_b| vec![big]);
                    let better = b.lt(w, cur[0]);

                    b.if_else(
                        better,
                        |b| {
                            let bw = b.write(c[0], cu, w);
                            let be = b.write(c[1], cu, i);
                            vec![bw, be]
                        },
                        |_b| vec![c[0], c[1]],
                    )
                },
                |_b| vec![c[0], c[1]],
            )
        });
        let (_bestw, beste) = (scan[0], scan[1]);
        // Apply the selected edges. Iterate the node sequence (not the
        // map) so the merge order is identical under every collection
        // implementation — Borůvka two-cycles make the total
        // order-sensitive otherwise.
        let apply = b.for_each(nodes, &[parent, total, zero], |b, _i, comp, c| {
            let comp = comp.expect("seq elem");
            let selected = b.has(beste, comp);

            b.if_else(
                selected,
                |b| {
                    let ei = b.read(beste, comp);
                    let u = b.read(srcs, ei);
                    let v = b.read(dsts, ei);
                    let w = b.read(wts, ei);
                    let cu = b.call(find, &[c[0], u], Type::U64).expect("value");
                    let cv = b.call(find, &[c[0], v], Type::U64).expect("value");
                    let cross = b.ne(cu, cv);

                    b.if_else(
                        cross,
                        |b| {
                            let p2 = b.write(c[0], cu, cv);
                            let t2 = b.add(c[1], w);
                            let one = b.const_u64(1);
                            let m2 = b.add(c[2], one);
                            vec![p2, t2, m2]
                        },
                        |_b| vec![c[0], c[1], c[2]],
                    )
                },
                |_b| vec![c[0], c[1], c[2]],
            )
        });
        let merged = apply[2];
        let zero2 = b.const_u64(0);
        let go = b.cmp(CmpOp::Gt, merged, zero2);
        (go, vec![apply[0], apply[1]])
    });
    b.roi_end();

    // Checksum: total MST weight and the number of components left.
    let parent = result[0];
    let total = result[1];
    let zero = b.const_u64(0);
    let comps = b.for_each(nodes, &[zero], |b, _i, v, c| {
        let v = v.expect("seq elem");
        let root = b.call(find, &[parent, v], Type::U64).expect("value");
        let is_root = b.eq(root, v);

        b.if_else(
            is_root,
            |b| {
                let one = b.const_u64(1);
                vec![b.add(c[0], one)]
            },
            |_b| vec![c[0]],
        )
    })[0];
    b.print(&[total, comps]);
    b.ret_void();

    module.add_function(b.finish());
    module
}

#[cfg(test)]
mod tests {
    use ade_interp::{ExecConfig, Interpreter};

    #[test]
    fn mst_produces_positive_weight_and_few_components() {
        let m = super::build(6);
        let out = Interpreter::new(&m, ExecConfig::default())
            .run("main")
            .expect("runs");
        let mut parts = out.output.split_whitespace();
        let total: u64 = parts.next().expect("weight").parse().expect("number");
        let comps: u64 = parts.next().expect("components").parse().expect("number");
        assert!(total > 0, "{}", out.output);
        assert!((1..40).contains(&comps), "{}", out.output);
    }
}
