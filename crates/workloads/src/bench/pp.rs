//! PP: preflow-push max-flow (Lonestar `preflowpush`).
//!
//! As in Lonestar, residual capacities live in an *edge-indexed* array
//! (every directed edge gets a reverse twin whose slot index is known),
//! while the per-node `excess`/`height` state is associative — the part
//! ADE converts to bitmaps. Rounds scan nodes in sequence order with a
//! fixed budget, so every configuration computes the identical flow.

use ade_ir::builder::FunctionBuilder;
use ade_ir::{CmpOp, Module, Operand, Scalar, Type};

use crate::gen;

pub(super) fn build(scale: u32) -> Module {
    let side = 1usize << (scale / 2).max(1);
    let g = gen::with_weights(gen::grid2d(side, side), 20, 0x99);

    // Host-side edge preprocessing (the paper's benchmarks load CSR the
    // same way): every edge gets a reverse twin; `rev[e]` is the twin's
    // index; forward edges carry the capacity, twins start at zero.
    let mut e_src = Vec::new();
    let mut e_dst = Vec::new();
    let mut e_cap = Vec::new();
    let mut e_rev = Vec::new();
    let caps = g.weights.as_ref().expect("weighted");
    for (i, &(u, v)) in g.edges.iter().enumerate() {
        let fwd = 2 * i;
        e_src.push(u);
        e_dst.push(v);
        e_cap.push(caps[i]);
        e_rev.push(fwd as u64 + 1);
        e_src.push(v);
        e_dst.push(u);
        e_cap.push(0);
        e_rev.push(fwd as u64);
    }

    let mut b = FunctionBuilder::new("main", &[], Type::Void);
    let nodes = b.literal(&g.nodes[..]);
    let srcs = b.literal(&e_src[..]);
    let dsts = b.literal(&e_dst[..]);
    let caps = b.literal(&e_cap[..]);
    let revs = b.literal(&e_rev[..]);

    let source = b.const_u64(g.nodes[0]);
    let sink = b.const_u64(*g.nodes.last().expect("nodes"));

    // Outgoing edge-id lists per node.
    let out_edges = b.new_collection(Type::map(Type::U64, Type::seq(Type::U64)));
    let out_edges = b.for_each(nodes, &[out_edges], |b, _i, v, c| {
        let v = v.expect("seq elem");
        vec![b.insert(c[0], v)]
    })[0];
    let out_edges = b.for_each(srcs, &[out_edges], |b, e, u, c| {
        let u = u.expect("seq elem");
        let len = b.size(Operand::nested(c[0], Scalar::Value(u)));
        vec![b.insert_at(
            Operand::nested(c[0], Scalar::Value(u)),
            Scalar::Value(len),
            e,
        )]
    })[0];

    b.roi_begin();
    // Residuals, edge-indexed (starts at capacity).
    let res = b.new_collection(Type::seq(Type::U64));
    let n_edges = b.size(srcs);
    let zero = b.const_u64(0);
    let res = b.for_range(zero, n_edges, &[res], |b, e, c| {
        let cap = b.read(caps, e);
        let n = b.size(c[0]);
        vec![b.insert_at(c[0], Scalar::Value(n), cap)]
    })[0];

    let n_nodes = b.size(nodes);
    let excess = b.new_collection(Type::map(Type::U64, Type::U64));
    let height = b.new_collection(Type::map(Type::U64, Type::U64));
    let init = b.for_each(nodes, &[excess, height], |b, _i, v, c| {
        let v = v.expect("seq elem");
        let zero = b.const_u64(0);
        let e = b.write(c[0], v, zero);
        let h = b.write(c[1], v, zero);
        vec![e, h]
    });
    let (excess, height) = (init[0], init[1]);
    let height = b.write(height, source, n_nodes);

    // Saturate source edges.
    let src_out = b.read(out_edges, source);
    let sat = b.for_each(src_out, &[excess, res], |b, _i, e, c| {
        let e = e.expect("seq elem");
        let rc = b.read(c[1], e);
        let v = b.read(dsts, e);
        let rev = b.read(revs, e);
        let zero = b.const_u64(0);
        let r1 = b.write(c[1], e, zero);
        let back = b.read(r1, rev);
        let back2 = b.add(back, rc);
        let r2 = b.write(r1, rev, back2);
        let ev = b.read(c[0], v);
        let ev2 = b.add(ev, rc);
        let e2 = b.write(c[0], v, ev2);
        vec![e2, r2]
    });
    let (excess, res) = (sat[0], sat[1]);

    // Bounded push/relabel rounds.
    let rounds = b.const_u64(6 * (side as u64) * (side as u64));
    let state = b.for_range(zero, rounds, &[excess, height, res], |b, _r, c| {
        let out = b.for_each(nodes, &[c[0], c[1], c[2]], |b, _i, u, cc| {
            let u = u.expect("seq elem");
            let is_src = b.eq(u, source);
            let is_sink = b.eq(u, sink);
            let skip = b.bin(ade_ir::BinOp::Or, is_src, is_sink);
            let eu = b.read(cc[0], u);
            let zero = b.const_u64(0);
            let idle = b.eq(eu, zero);
            let inactive = b.bin(ade_ir::BinOp::Or, skip, idle);

            b.if_else(
                inactive,
                |_b| vec![cc[0], cc[1], cc[2]],
                |b| {
                    let hu = b.read(cc[1], u);
                    let edges = b.read(out_edges, u);
                    let big = b.const_u64(u64::MAX / 2);
                    // One pass: push where downhill, track minimum open
                    // neighbor height for relabeling.
                    let inner = b.for_each(edges, &[cc[0], cc[2], big], |b, _j, e, ic| {
                        let e = e.expect("seq elem");
                        let rc = b.read(ic[1], e);
                        let zero = b.const_u64(0);
                        let open = b.cmp(CmpOp::Gt, rc, zero);

                        b.if_else(
                            open,
                            |b| {
                                let v = b.read(dsts, e);
                                let hv = b.read(cc[1], v);
                                let minh = b.min(ic[2], hv);
                                let one = b.const_u64(1);
                                let hv1 = b.add(hv, one);
                                let downhill = b.eq(hu, hv1);
                                let eu_now = b.read(ic[0], u);
                                let has_excess = b.cmp(CmpOp::Gt, eu_now, zero);
                                let can = b.bin(ade_ir::BinOp::And, downhill, has_excess);

                                b.if_else(
                                    can,
                                    |b| {
                                        let amt = b.min(eu_now, rc);
                                        let eu2 = b.sub(eu_now, amt);
                                        let ex1 = b.write(ic[0], u, eu2);
                                        let ev = b.read(ex1, v);
                                        let ev2 = b.add(ev, amt);
                                        let ex2 = b.write(ex1, v, ev2);
                                        let rc2 = b.sub(rc, amt);
                                        let r1 = b.write(ic[1], e, rc2);
                                        let rev = b.read(revs, e);
                                        let back = b.read(r1, rev);
                                        let back2 = b.add(back, amt);
                                        let r2 = b.write(r1, rev, back2);
                                        vec![ex2, r2, minh]
                                    },
                                    |_b| vec![ic[0], ic[1], minh],
                                )
                            },
                            |_b| vec![ic[0], ic[1], ic[2]],
                        )
                    });
                    // Relabel if still active.
                    let eu_after = b.read(inner[0], u);
                    let zero = b.const_u64(0);
                    let active = b.cmp(CmpOp::Gt, eu_after, zero);
                    let feasible = b.lt(inner[2], big);
                    let lift = b.bin(ade_ir::BinOp::And, active, feasible);
                    let h2 = b.if_else(
                        lift,
                        |b| {
                            let one = b.const_u64(1);
                            let nh = b.add(inner[2], one);
                            let higher = b.cmp(CmpOp::Gt, nh, hu);

                            b.if_else(higher, |b| vec![b.write(cc[1], u, nh)], |_b| vec![cc[1]])
                        },
                        |_b| vec![cc[1]],
                    );
                    vec![inner[0], h2[0], inner[1]]
                },
            )
        });
        vec![out[0], out[1], out[2]]
    });
    b.roi_end();

    // Checksum: flow arrived at the sink.
    let flow = b.read(state[0], sink);
    b.print(&[flow]);
    b.ret_void();

    let mut module = Module::new();
    module.add_function(b.finish());
    module
}

#[cfg(test)]
mod tests {
    use ade_interp::{ExecConfig, Interpreter};

    #[test]
    fn pp_moves_flow_to_the_sink() {
        let m = super::build(6);
        let out = Interpreter::new(&m, ExecConfig::default())
            .run("main")
            .expect("runs");
        let flow: u64 = out.output.trim().parse().expect("number");
        assert!(flow > 0, "{}", out.output);
    }
}
