//! The 16 evaluation benchmarks (15 Lonestar 'Analytics' kernels plus
//! PARSEC freqmine, paper §IV-A, Fig. 4), authored against the IR
//! builder with abstract collection types — "representing code written
//! by developers before heavy manual optimization".
//!
//! Each benchmark's `main` embeds its (synthetic) input, builds its
//! collection structures, brackets the kernel with region-of-interest
//! markers, and prints a checksum so differential tests can compare
//! configurations bit-for-bit.

mod bc;
mod bfs;
mod bp;
mod cc;
mod cd;
mod fim;
mod is;
mod kc;
mod kt;
mod mcbm;
mod mst;
mod pp;
mod pr;
pub mod pta;
mod sssp;
mod tc;

use ade_ir::builder::FunctionBuilder;
use ade_ir::{Module, Type, ValueId};

use crate::gen::Graph;

/// One evaluation benchmark.
#[derive(Clone, Copy)]
pub struct Benchmark {
    /// Paper abbreviation (Fig. 4): `BC`, `BFS`, ….
    pub abbrev: &'static str,
    /// Full kernel name.
    pub name: &'static str,
    /// Builds the benchmark module at a size scale (≈ log2 of the input;
    /// use 6–7 for tests, 9–11 for measurements).
    pub build: fn(u32) -> Module,
}

/// Every benchmark, in the paper's alphabetical order.
pub fn all_benchmarks() -> Vec<Benchmark> {
    vec![
        Benchmark {
            abbrev: "BC",
            name: "betweenness centrality",
            build: bc::build,
        },
        Benchmark {
            abbrev: "BFS",
            name: "breadth-first search",
            build: bfs::build,
        },
        Benchmark {
            abbrev: "BP",
            name: "belief propagation",
            build: bp::build,
        },
        Benchmark {
            abbrev: "CC",
            name: "connected components",
            build: cc::build,
        },
        Benchmark {
            abbrev: "CD",
            name: "community detection",
            build: cd::build,
        },
        Benchmark {
            abbrev: "FIM",
            name: "frequent itemset mining",
            build: fim::build,
        },
        Benchmark {
            abbrev: "IS",
            name: "independent set",
            build: is::build,
        },
        Benchmark {
            abbrev: "KC",
            name: "k-core decomposition",
            build: kc::build,
        },
        Benchmark {
            abbrev: "KT",
            name: "k-truss",
            build: kt::build,
        },
        Benchmark {
            abbrev: "MCBM",
            name: "bipartite matching",
            build: mcbm::build,
        },
        Benchmark {
            abbrev: "MST",
            name: "minimum spanning tree",
            build: mst::build,
        },
        Benchmark {
            abbrev: "PP",
            name: "preflow-push max-flow",
            build: pp::build,
        },
        Benchmark {
            abbrev: "PR",
            name: "pagerank",
            build: pr::build,
        },
        Benchmark {
            abbrev: "PTA",
            name: "points-to analysis",
            build: pta::build,
        },
        Benchmark {
            abbrev: "SSSP",
            name: "single-source shortest paths",
            build: sssp::build,
        },
        Benchmark {
            abbrev: "TC",
            name: "triangle counting",
            build: tc::build,
        },
    ]
}

/// Looks a benchmark up by abbreviation (case-insensitive).
pub fn benchmark_by_abbrev(abbrev: &str) -> Option<Benchmark> {
    all_benchmarks()
        .into_iter()
        .find(|b| b.abbrev.eq_ignore_ascii_case(abbrev))
}

// ---- shared IR-embedding helpers -------------------------------------

/// Embeds a graph's edge list as two parallel `Seq<u64>` literals.
pub(crate) fn embed_edges(b: &mut FunctionBuilder, g: &Graph) -> (ValueId, ValueId) {
    let srcs: Vec<u64> = g.edges.iter().map(|&(s, _)| s).collect();
    let dsts: Vec<u64> = g.edges.iter().map(|&(_, d)| d).collect();
    (b.literal(&srcs[..]), b.literal(&dsts[..]))
}

/// Builds an adjacency map `Map<node, Set<node>>` inside the program
/// from two parallel edge sequences. Every endpoint gets an (initially
/// empty) adjacency set.
pub(crate) fn build_adjacency(
    b: &mut FunctionBuilder,
    nodes: ValueId,
    srcs: ValueId,
    dsts: ValueId,
) -> ValueId {
    let adj = b.new_collection(Type::map(Type::U64, Type::set(Type::U64)));
    // Ensure every node has a slot.
    let adj = b.for_each(nodes, &[adj], |b, _i, v, carried| {
        let v = v.expect("seq elem");
        let a = b.insert(carried[0], v);
        vec![a]
    })[0];
    // Insert edges: adj[src] += dst.
    b.for_each(srcs, &[adj], |b, i, s, carried| {
        let s = s.expect("seq elem");
        let d = b.read(dsts, i);
        let a = b.insert(
            ade_ir::Operand::nested(carried[0], ade_ir::Scalar::Value(s)),
            d,
        );
        vec![a]
    })[0]
}

/// Builds a CSR-style adjacency `Map<node, Seq<node>>` — the shape
/// Lonestar inputs arrive in. Iteration over neighbor *sequences* keeps
/// the per-edge scan cost identical across collection implementations;
/// associative structures are reserved for the state ADE targets.
pub(crate) fn build_adjacency_seq(
    b: &mut FunctionBuilder,
    nodes: ValueId,
    srcs: ValueId,
    dsts: ValueId,
) -> ValueId {
    let adj = b.new_collection(Type::map(Type::U64, Type::seq(Type::U64)));
    let adj = b.for_each(nodes, &[adj], |b, _i, v, carried| {
        let v = v.expect("seq elem");
        vec![b.insert(carried[0], v)]
    })[0];
    b.for_each(srcs, &[adj], |b, i, s, carried| {
        let s = s.expect("seq elem");
        let d = b.read(dsts, i);
        let len = b.size(ade_ir::Operand::nested(
            carried[0],
            ade_ir::Scalar::Value(s),
        ));
        vec![b.insert_at(
            ade_ir::Operand::nested(carried[0], ade_ir::Scalar::Value(s)),
            ade_ir::Scalar::Value(len),
            d,
        )]
    })[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ade_core::{run_ade, AdeOptions};
    use ade_interp::{ExecConfig, Interpreter};

    #[test]
    fn registry_is_complete_and_unique() {
        let benches = all_benchmarks();
        assert_eq!(benches.len(), 16);
        let mut abbrevs: Vec<&str> = benches.iter().map(|b| b.abbrev).collect();
        abbrevs.sort_unstable();
        abbrevs.dedup();
        assert_eq!(abbrevs.len(), 16);
        assert!(benchmark_by_abbrev("bfs").is_some());
        assert!(benchmark_by_abbrev("nope").is_none());
    }

    /// Every benchmark must verify, run, and produce identical output
    /// under MEMOIR and every ADE configuration — the workload-level
    /// differential test.
    #[test]
    fn all_benchmarks_differential_small() {
        for bench in all_benchmarks() {
            let baseline_module = (bench.build)(5);
            ade_ir::verify::verify_module(&baseline_module)
                .unwrap_or_else(|e| panic!("[{}] verify: {e}", bench.abbrev));
            let baseline = Interpreter::new(&baseline_module, ExecConfig::default())
                .run("main")
                .unwrap_or_else(|e| panic!("[{}] run: {e}", bench.abbrev));
            assert!(!baseline.output.is_empty(), "[{}] silent", bench.abbrev);

            for options in [
                AdeOptions::default(),
                AdeOptions::without_rte(),
                AdeOptions::without_propagation(),
                AdeOptions::without_sharing(),
            ] {
                let mut module = (bench.build)(5);
                run_ade(&mut module, &options);
                ade_ir::verify::verify_module(&module).unwrap_or_else(|e| {
                    panic!(
                        "[{} rte={} prop={} share={}] verify: {e}",
                        bench.abbrev, options.rte, options.propagation, options.sharing
                    )
                });
                let outcome = Interpreter::new(&module, ExecConfig::default())
                    .run("main")
                    .unwrap_or_else(|e| panic!("[{}] ade run: {e}", bench.abbrev));
                assert_eq!(
                    outcome.output, baseline.output,
                    "[{} rte={} prop={} share={}] output diverged",
                    bench.abbrev, options.rte, options.propagation, options.sharing
                );
            }
        }
    }

    /// ADE must actually enumerate something on the graph benchmarks
    /// (they are the paper's motivation), converting sparse accesses to
    /// dense ones.
    #[test]
    fn ade_densifies_graph_benchmarks() {
        for abbrev in ["BFS", "CC", "PR", "SSSP", "TC", "PTA"] {
            let bench = benchmark_by_abbrev(abbrev).expect("known");
            let baseline_module = (bench.build)(6);
            let baseline = Interpreter::new(&baseline_module, ExecConfig::default())
                .run("main")
                .expect("baseline runs");

            let mut module = (bench.build)(6);
            let report = run_ade(&mut module, &AdeOptions::default());
            assert!(report.enums_created > 0, "[{abbrev}] nothing enumerated");
            let ade = Interpreter::new(&module, ExecConfig::default())
                .run("main")
                .expect("ade runs");
            let base_sparse = baseline
                .stats
                .phase(ade_interp::Phase::Roi)
                .sparse_accesses();
            let ade_sparse = ade.stats.phase(ade_interp::Phase::Roi).sparse_accesses();
            assert!(
                ade_sparse < base_sparse,
                "[{abbrev}] ROI sparse accesses must fall: {base_sparse} -> {ade_sparse}"
            );
        }
    }
}
