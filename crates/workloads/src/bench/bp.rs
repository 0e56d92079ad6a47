//! BP: loopy belief propagation on a grid Markov random field (the
//! Lonestar `bp` kernel).
//!
//! As in Lonestar, messages live in *edge-indexed arrays* (`Seq<f64>`
//! parallel to the directed edge list); only the per-node incoming-edge
//! lists are associative. BP is therefore the paper's most dense
//! benchmark already (Fig. 4: 93.7% dense) and a near-noop for ADE — a
//! useful negative control.

use ade_ir::builder::FunctionBuilder;
use ade_ir::{Module, Operand, Scalar, Type};

use crate::gen;

const ROUNDS: u64 = 4;

pub(super) fn build(scale: u32) -> Module {
    let side = 1usize << (scale / 2).max(1);
    let g = gen::grid2d(side, side);
    let mut b = FunctionBuilder::new("main", &[], Type::Void);

    let nodes = b.literal(&g.nodes[..]);
    let srcs: Vec<u64> = g.edges.iter().map(|&(s, _)| s).collect();
    let dsts: Vec<u64> = g.edges.iter().map(|&(_, d)| d).collect();
    let srcs = b.literal(&srcs[..]);
    let dsts = b.literal(&dsts[..]);

    // Incoming edge-id lists per node: in_edges[v] = [e | dst(e) = v].
    let in_edges = b.new_collection(Type::map(Type::U64, Type::seq(Type::U64)));
    let in_edges = b.for_each(nodes, &[in_edges], |b, _i, v, c| {
        let v = v.expect("seq elem");
        vec![b.insert(c[0], v)]
    })[0];
    let in_edges = b.for_each(dsts, &[in_edges], |b, e, v, c| {
        let v = v.expect("seq elem");
        let len = b.size(Operand::nested(c[0], Scalar::Value(v)));
        vec![b.insert_at(
            Operand::nested(c[0], Scalar::Value(v)),
            Scalar::Value(len),
            e,
        )]
    })[0];

    b.roi_begin();
    // Messages, edge-indexed.
    let half = b.const_f64(0.5);
    let msg = b.new_collection(Type::seq(Type::F64));
    let n_edges = b.size(srcs);
    let zero = b.const_u64(0);
    let msg = b.for_range(zero, n_edges, &[msg], |b, _e, c| {
        let n = b.size(c[0]);
        vec![b.insert_at(c[0], Scalar::Value(n), half)]
    })[0];

    let damp = b.const_f64(0.35);
    let rounds = b.const_u64(ROUNDS);
    let msg = b.for_range(zero, rounds, &[msg], |b, _round, carried| {
        let msg = carried[0];
        let next = b.new_collection(Type::seq(Type::F64));
        // msg'[e=(u,v)] from messages into u, excluding those from v.
        let next = b.for_range(zero, n_edges, &[next], |b, e, c| {
            let u = b.read(srcs, e);
            let v = b.read(dsts, e);
            let ins = b.read(in_edges, u);
            let zero_f = b.const_f64(0.0);
            let zero_u = b.const_u64(0);
            let agg = b.for_each(ins, &[zero_f, zero_u], |b, _j, ein, ac| {
                let ein = ein.expect("seq elem");
                let w = b.read(srcs, ein);
                let from_target = b.eq(w, v);

                b.if_else(
                    from_target,
                    |_b| vec![ac[0], ac[1]],
                    |b| {
                        let m = b.read(msg, ein);
                        let centered = b.sub(m, half);
                        let s = b.add(ac[0], centered);
                        let one = b.const_u64(1);
                        let n = b.add(ac[1], one);
                        vec![s, n]
                    },
                )
            });
            let n_f = b.cast(agg[1], Type::F64);
            let one_f = b.const_f64(1.0);
            let denom = b.max(n_f, one_f);
            let mean = b.div(agg[0], denom);
            let influence = b.mul(mean, damp);
            let m_new = b.add(half, influence);
            let n = b.size(c[0]);
            vec![b.insert_at(c[0], Scalar::Value(n), m_new)]
        })[0];
        vec![next]
    })[0];
    b.roi_end();

    // Beliefs: prior plus incoming message influence, in node order.
    let zero_f = b.const_f64(0.0);
    let total = b.for_each(nodes, &[zero_f], |b, _i, v, c| {
        let v = v.expect("seq elem");
        let ins = b.read(in_edges, v);
        let belief = b.for_each(ins, &[half], |b, _j, ein, bc| {
            let ein = ein.expect("seq elem");
            let m = b.read(msg, ein);
            let centered = b.sub(m, half);
            vec![b.add(bc[0], centered)]
        })[0];
        vec![b.add(c[0], belief)]
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
    fn bp_produces_finite_beliefs() {
        let m = super::build(6);
        let out = Interpreter::new(&m, ExecConfig::default())
            .run("main")
            .expect("runs");
        let total: f64 = out.output.trim().parse().expect("float");
        assert!(total.is_finite(), "{}", out.output);
    }
}
