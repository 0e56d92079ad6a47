//! Cross-architecture comparison (paper Fig. 6): run a benchmark once,
//! price its operation counts under both machine presets, and show how
//! per-operation cost shifts move the speedup — the paper's explanation
//! for SSSP falling from 8.72× to 4.60× on AArch64 (BitMap writes and
//! inserts are relatively slower there).
//!
//! ```sh
//! cargo run --release --example arch_compare
//! ```

use ade::interp::cost::CostModel;
use ade::interp::{CollOp, ImplKind, Interpreter, Phase};
use ade::workloads::bench::benchmark_by_abbrev;
use ade::workloads::{Config, ConfigKind};

fn main() {
    let scale = 7;
    let intel = CostModel::intel_x64();
    let arm = CostModel::aarch64();

    println!(
        "{:>6} {:>14} {:>14}   (whole-program ADE speedup)",
        "bench", "intel-x64", "aarch64"
    );
    for abbrev in ["SSSP", "BFS", "PR", "PTA"] {
        let bench = benchmark_by_abbrev(abbrev).expect("known");
        let mut runs = Vec::new();
        for kind in [ConfigKind::Memoir, ConfigKind::Ade] {
            let config = Config::new(kind);
            let mut module = (bench.build)(scale);
            config.compile(&mut module);
            let outcome = Interpreter::new(&module, config.exec.clone())
                .run("main")
                .expect("runs");
            runs.push(outcome.stats);
        }
        let speedup = |m: &CostModel| m.time_ns(&runs[0].totals()) / m.time_ns(&runs[1].totals());
        println!(
            "{:>6} {:>13.2}x {:>13.2}x",
            abbrev,
            speedup(&intel),
            speedup(&arm)
        );
        if abbrev == "SSSP" {
            // The mechanism, in the paper's own terms: the hot BitMap
            // writes are priced 1.56× slower on the ARM preset.
            let writes = runs[1]
                .phase(Phase::Roi)
                .get(ImplKind::BitMap, CollOp::Write);
            println!(
                "        (SSSP ROI does {writes} BitMap writes; {:.1}ns each on intel, {:.1}ns on aarch64)",
                intel.cost_ns(ImplKind::BitMap, CollOp::Write),
                arm.cost_ns(ImplKind::BitMap, CollOp::Write),
            );
        }
    }
}
