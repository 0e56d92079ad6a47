//! MCBM: maximum-cardinality bipartite matching by Kuhn's augmenting
//! paths (Lonestar `matching`).
//!
//! The augmenting search is a *recursive* function taking the matching
//! map and visited set as parameters — exercising the paper's §III-F
//! handling of recursion (the enumeration is reused across invocations
//! rather than rebuilt).

use ade_ir::builder::FunctionBuilder;
use ade_ir::{Module, Operand, Scalar, Type};

use crate::gen;

pub(super) fn build(scale: u32) -> Module {
    let n = 1usize << scale;
    let g = gen::bipartite(n, n, 4, 0x3B);
    let mut module = Module::new();

    // fn @try(adj: Map<u64, Seq<u64>>, matchR: Map<u64, u64>,
    //         visited: Set<u64>, u: u64) -> u64   (1 = augmented)
    let mut fb = FunctionBuilder::new(
        "try_augment",
        &[
            ("adj", Type::map(Type::U64, Type::seq(Type::U64))),
            ("matchR", Type::map(Type::U64, Type::U64)),
            ("visited", Type::set(Type::U64)),
            ("u", Type::U64),
        ],
        Type::U64,
    );
    {
        let adj = fb.param(0);
        let match_r = fb.param(1);
        let visited = fb.param(2);
        let u = fb.param(3);
        let nbrs = fb.read(adj, u);
        let zero = fb.const_u64(0);
        let one = fb.const_u64(1);
        let result = fb.for_each(nbrs, &[zero, visited, match_r], |b, _j, r, c| {
            let r = r.expect("seq elem");
            let (found, vis, mr) = (c[0], c[1], c[2]);
            let done = b.eq(found, one);

            b.if_else(
                done,
                |_b| vec![found, vis, mr],
                |b| {
                    let seen = b.has(vis, r);

                    b.if_else(
                        seen,
                        |_b| vec![found, vis, mr],
                        |b| {
                            let vis2 = b.insert(vis, r);
                            let taken = b.has(mr, r);

                            b.if_else(
                                taken,
                                |b| {
                                    let owner = b.read(mr, r);
                                    // Recurse; the callee mutates mr/vis2
                                    // through the shared handles.
                                    let fid = ade_ir::FuncId(0);
                                    let sub = b
                                        .call(fid, &[adj, mr, vis2, owner], Type::U64)
                                        .expect("value");
                                    let ok = b.eq(sub, one);

                                    b.if_else(
                                        ok,
                                        |b| {
                                            let mr2 = b.write(mr, r, u);
                                            vec![one, vis2, mr2]
                                        },
                                        |_b| vec![found, vis2, mr],
                                    )
                                },
                                |b| {
                                    let mr2 = b.write(mr, r, u);
                                    vec![one, vis2, mr2]
                                },
                            )
                        },
                    )
                },
            )
        });
        fb.ret(result[0]);
    }
    let try_fn = module.add_function(fb.finish());
    assert_eq!(try_fn, ade_ir::FuncId(0), "recursion targets function 0");

    let mut b = FunctionBuilder::new("main", &[], Type::Void);
    let lefts: Vec<u64> = (0..n as u64).map(gen::scramble).collect();
    let left_seq = b.literal(&lefts[..]);
    let srcs: Vec<u64> = g.edges.iter().map(|&(s, _)| s).collect();
    let dsts: Vec<u64> = g.edges.iter().map(|&(_, d)| d).collect();
    let srcs = b.literal(&srcs[..]);
    let dsts = b.literal(&dsts[..]);

    // adj: Map<left, Seq<right>>.
    let adj = b.new_collection(Type::map(Type::U64, Type::seq(Type::U64)));
    let adj = b.for_each(left_seq, &[adj], |b, _i, v, c| {
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

    b.roi_begin();
    let match_r = b.new_collection(Type::map(Type::U64, Type::U64));
    let zero = b.const_u64(0);
    let one = b.const_u64(1);
    let result = b.for_each(left_seq, &[zero, match_r], |b, _i, u, c| {
        let u = u.expect("seq elem");
        let visited = b.new_collection(Type::set(Type::U64));
        let r = b
            .call(try_fn, &[adj, c[1], visited, u], Type::U64)
            .expect("value");
        let ok = b.eq(r, one);
        let cnt = b.if_else(ok, |b| vec![b.add(c[0], one)], |_b| vec![c[0]]);
        vec![cnt[0], c[1]]
    });
    b.roi_end();

    // Checksum: matching size and the number of matched right nodes.
    let matched = result[0];
    let right_count = b.size(result[1]);
    b.print(&[matched, right_count]);
    b.ret_void();

    module.add_function(b.finish());
    module
}

#[cfg(test)]
mod tests {
    use ade_interp::{ExecConfig, Interpreter};

    #[test]
    fn mcbm_matches_a_large_fraction() {
        let m = super::build(6);
        let out = Interpreter::new(&m, ExecConfig::default())
            .run("main")
            .expect("runs");
        let mut parts = out.output.split_whitespace();
        let matched: u64 = parts.next().expect("matched").parse().expect("number");
        let rights: u64 = parts.next().expect("rights").parse().expect("number");
        assert_eq!(matched, rights, "{}", out.output);
        assert!(matched > 32, "{}", out.output);
    }
}
