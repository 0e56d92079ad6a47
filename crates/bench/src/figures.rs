//! Regenerates each table and figure of the paper's evaluation as
//! formatted text (the artifact's `make plot` equivalent).
//!
//! Time is *modeled*: operation counts priced by the per-architecture
//! cost model (see `ade_interp::cost`). The modeled metric is
//! deterministic, so figure text is byte-identical across runs and
//! `--jobs` values, and it is what lets the AArch64 results (Fig. 6)
//! exist without ARM hardware. Wall-clock comparisons are the job of
//! the calibrated end-to-end benchmark (`e2e_bench`), not of figures.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use ade_interp::cost::CostModel;
use ade_interp::{CollOp, ImplKind};
use ade_workloads::bench::{all_benchmarks, benchmark_by_abbrev};
use ade_workloads::ConfigKind;

use crate::runner::{geomean, run_cell, CellSpec, RunResult};

/// Every figure target `reproduce all` renders, in output order.
pub const ALL_TARGETS: [&str; 9] = [
    "fig4", "fig5", "fig6", "table2", "table3", "fig7", "fig8", "fig9", "rq4",
];

/// Whether `target` names something [`Session::render`] can render:
/// `all`, one of [`ALL_TARGETS`], or `fig10` (an alias of `fig9`).
pub fn is_target(target: &str) -> bool {
    target == "all" || target == "fig10" || ALL_TARGETS.contains(&target)
}

/// The `(benchmark, configuration)` cells one figure target consumes.
///
/// This is the work-list planner behind `reproduce --jobs`: enumerating
/// a target's cells up front lets [`Session::prewarm`] execute them on
/// a worker pool before the (strictly ordered) rendering pass, which
/// then hits only the cache. `table3` needs no runs (pure cost-model
/// arithmetic) and `rq4` builds directive-tuned module variants that
/// are not ordinary cells (it parallelizes internally instead).
pub fn cells_for_target(target: &str) -> Vec<(&'static str, ConfigKind)> {
    let configs: &[ConfigKind] = match target {
        "fig4" => &[ConfigKind::Memoir],
        "fig5" | "fig6" | "table2" => &[ConfigKind::Memoir, ConfigKind::Ade],
        "fig7" => &[
            ConfigKind::Ade,
            ConfigKind::AdeNoRedundant,
            ConfigKind::AdeNoPropagation,
            ConfigKind::AdeNoSharing,
        ],
        "fig8" => &[ConfigKind::Ade, ConfigKind::AdeNoSharing],
        "fig9" | "fig10" => &[
            ConfigKind::Memoir,
            ConfigKind::MemoirAbseil,
            ConfigKind::Ade,
            ConfigKind::AdeAbseil,
        ],
        _ => &[],
    };
    let mut cells = Vec::new();
    for bench in all_benchmarks() {
        for &kind in configs {
            cells.push((bench.abbrev, kind));
        }
    }
    cells
}

/// A memo of run results so one `reproduce all` never repeats a run.
///
/// A cell that fails panics with `[BENCH config] <CellError>`, the same
/// contract as `rq4`'s variant sweep; the panic propagates through the
/// worker pool and fails the run.
#[derive(Default)]
pub struct Session {
    scale: u32,
    jobs: usize,
    reference: bool,
    cache: BTreeMap<(String, ConfigKind), RunResult>,
}

impl Session {
    /// Creates a session at an input scale (≈ log2 nodes); each cell
    /// runs once.
    pub fn new(scale: u32) -> Self {
        Session {
            scale,
            jobs: 1,
            reference: false,
            cache: BTreeMap::new(),
        }
    }

    /// Runs every cell of this session on the reference decode (no
    /// loop plans; see [`CellSpec::reference`]). Figures
    /// and statistics are identical either way — the differential tests
    /// flip this knob to prove it.
    #[must_use]
    pub fn reference(mut self, reference: bool) -> Self {
        self.reference = reference;
        self
    }

    /// Sets how many worker threads [`Session::prewarm`] (and `rq4`'s
    /// internal variant sweep) may use. `1` (the default) never spawns.
    #[must_use]
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Runs every not-yet-cached cell the given figure targets need, on
    /// `jobs` parallel workers, filling the cache. Rendering afterwards
    /// is pure cache lookup, so figure text is independent of `jobs`.
    pub fn prewarm(&mut self, targets: &[&str]) {
        let mut pending: Vec<(&'static str, ConfigKind)> = Vec::new();
        for target in targets {
            for cell in cells_for_target(target) {
                let key = (cell.0.to_string(), cell.1);
                if !self.cache.contains_key(&key) && !pending.contains(&cell) {
                    pending.push(cell);
                }
            }
        }
        self.execute_batch(pending);
    }

    /// Renders `targets` in order, exactly as `reproduce` prints them:
    /// every cell the targets need is prewarmed on the worker pool first,
    /// then each target's text is followed by a blank line (`all`
    /// separates its nine parts with one too).
    ///
    /// # Panics
    ///
    /// Panics on a target [`is_target`] rejects, or if a cell fails.
    pub fn render(&mut self, targets: &[&str]) -> String {
        let expanded: Vec<&str> = targets
            .iter()
            .flat_map(|&t| {
                if t == "all" {
                    ALL_TARGETS.to_vec()
                } else {
                    vec![t]
                }
            })
            .collect();
        self.prewarm(&expanded);
        let mut out = String::new();
        for &target in targets {
            if target == "all" {
                for part in ALL_TARGETS {
                    out.push_str(&self.render_one(part));
                    out.push('\n');
                }
            } else {
                out.push_str(&self.render_one(target));
            }
            out.push('\n');
        }
        out
    }

    fn render_one(&mut self, target: &str) -> String {
        match target {
            "fig4" => self.fig4(),
            "fig5" => self.fig5_or_6(false),
            "fig6" => self.fig5_or_6(true),
            "fig7" => self.fig7(),
            "fig8" => self.fig8(),
            "fig9" | "fig10" => self.fig9_10(),
            "table2" => self.table2(),
            "table3" => self.table3(),
            "rq4" => self.rq4(),
            other => panic!("unknown target `{other}`"),
        }
    }

    /// The run result for one cell (running it now if not cached).
    /// Public so differential tests can compare per-cell statistics
    /// across `jobs` settings.
    ///
    /// # Panics
    ///
    /// Panics if the cell fails, with `[BENCH config] <CellError>`.
    pub fn cell(&mut self, abbrev: &str, kind: ConfigKind) -> RunResult {
        let key = (abbrev.to_string(), kind);
        if !self.cache.contains_key(&key) {
            // A cache miss runs as a one-cell batch on the calling thread.
            let abbrev = benchmark_by_abbrev(abbrev).expect("known benchmark").abbrev;
            self.execute_batch(vec![(abbrev, kind)]);
        }
        self.cache[&key].clone()
    }

    /// Runs a batch of cells on the worker pool and folds every result
    /// into the cache. The first failing cell panics.
    fn execute_batch(&mut self, pending: Vec<(&'static str, ConfigKind)>) {
        let (scale, reference) = (self.scale, self.reference);
        let results = crate::pool::run_ordered(pending, self.jobs, |(abbrev, kind)| {
            let bench = benchmark_by_abbrev(abbrev).expect("known benchmark");
            run_cell(&CellSpec {
                reference,
                ..CellSpec::new(&bench, kind, scale)
            })
            .unwrap_or_else(|e| panic!("[{abbrev} {}] {e}", kind.name()))
        });
        for r in results {
            self.cache.insert((r.abbrev.to_string(), r.config), r);
        }
    }

    /// The row's runs under `kinds`, in order.
    fn row(&mut self, abbrev: &str, kinds: &[ConfigKind]) -> Vec<RunResult> {
        kinds.iter().map(|&kind| self.cell(abbrev, kind)).collect()
    }

    fn abbrevs(&self) -> Vec<&'static str> {
        all_benchmarks().iter().map(|b| b.abbrev).collect()
    }

    // ---- Fig. 4: benchmark list with operation breakdown + clustering --

    /// Figure 4: dynamic collection-operation mix per benchmark with a
    /// hierarchical clustering of the mixes.
    pub fn fig4(&mut self) -> String {
        let ops = [
            CollOp::Read,
            CollOp::Write,
            CollOp::Insert,
            CollOp::Remove,
            CollOp::Has,
            CollOp::IterElem,
        ];
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Figure 4: dynamic collection operation breakdown (% of ops, memoir)"
        );
        let _ = writeln!(
            out,
            "{:>5} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}",
            "bench", "read", "write", "insert", "remove", "has", "iter"
        );
        let mut mixes: Vec<(&str, Vec<f64>)> = Vec::new();
        for abbrev in self.abbrevs() {
            let r = self.cell(abbrev, ConfigKind::Memoir);
            let t = r.stats.totals();
            let counts: Vec<f64> = ops.iter().map(|&o| t.total_op(o) as f64).collect();
            let total: f64 = counts.iter().sum::<f64>().max(1.0);
            let mix: Vec<f64> = counts.iter().map(|c| 100.0 * c / total).collect();
            let _ = writeln!(
                out,
                "{:>5} {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}%",
                abbrev, mix[0], mix[1], mix[2], mix[3], mix[4], mix[5]
            );
            mixes.push((abbrev, mix));
        }
        let _ = writeln!(
            out,
            "\nhierarchical clustering (single linkage, 4 clusters):"
        );
        for (i, cluster) in cluster(&mixes, 4).iter().enumerate() {
            let _ = writeln!(out, "  cluster {}: {}", i + 1, cluster.join(" "));
        }
        out
    }

    // ---- Fig. 5 / Fig. 6: ADE vs MEMOIR ---------------------------------

    /// Figures 5 (Intel-x64) and 6 (AArch64): whole-program speedup, ROI
    /// speedup and relative memory of ADE over MEMOIR.
    pub fn fig5_or_6(&mut self, aarch64: bool) -> String {
        let model = if aarch64 {
            CostModel::aarch64()
        } else {
            CostModel::intel_x64()
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Figure {}: ADE vs MEMOIR on {} (modeled)",
            if aarch64 { 6 } else { 5 },
            model.name
        );
        let _ = writeln!(
            out,
            "{:>5} {:>13} {:>12} {:>10}",
            "bench", "whole-speedup", "roi-speedup", "memory"
        );
        let (mut wholes, mut rois, mut mems) = (Vec::new(), Vec::new(), Vec::new());
        for abbrev in self.abbrevs() {
            let row = self.row(abbrev, &[ConfigKind::Memoir, ConfigKind::Ade]);
            let (memoir, ade) = (&row[0], &row[1]);
            assert_eq!(memoir.output, ade.output, "[{abbrev}] outputs diverge");
            let whole = memoir.modeled_total_ns(&model) / ade.modeled_total_ns(&model);
            let roi = memoir.modeled_roi_ns(&model) / ade.modeled_roi_ns(&model).max(1.0);
            let mem = ade.peak_bytes() as f64 / memoir.peak_bytes().max(1) as f64;
            let _ = writeln!(
                out,
                "{:>5} {:>12.2}x {:>11.2}x {:>9.1}%",
                abbrev,
                whole,
                roi,
                mem * 100.0
            );
            wholes.push(whole);
            rois.push(roi);
            mems.push(mem);
        }
        let _ = writeln!(
            out,
            "{:>5} {:>12.2}x {:>11.2}x {:>9.1}%   (GEO)",
            "GEO",
            geomean(wholes),
            geomean(rois),
            geomean(mems) * 100.0
        );
        out
    }

    // ---- Table II: sparse/dense accesses --------------------------------

    /// Table II: sparse and dense access counts of MEMOIR and ADE,
    /// normalized so MEMOIR's total is 100 (as in the paper).
    pub fn table2(&mut self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Table II: sparse/dense accesses relative to MEMOIR total (=100)"
        );
        let _ = writeln!(
            out,
            "{:>5} | {:>8} {:>8} | {:>8} {:>8} | {:>8} {:>8} {:>8}",
            "bench", "m.sparse", "m.dense", "a.sparse", "a.dense", "d.sparse", "d.dense", "d.total"
        );
        for abbrev in self.abbrevs() {
            let row = self.row(abbrev, &[ConfigKind::Memoir, ConfigKind::Ade]);
            let (memoir, ade) = (&row[0], &row[1]);
            let mt = memoir.stats.totals();
            let at = ade.stats.totals();
            let norm = (mt.sparse_accesses() + mt.dense_accesses()).max(1) as f64 / 100.0;
            let ms = mt.sparse_accesses() as f64 / norm;
            let md = mt.dense_accesses() as f64 / norm;
            let asp = at.sparse_accesses() as f64 / norm;
            let ad = at.dense_accesses() as f64 / norm;
            let _ = writeln!(
                out,
                "{:>5} | {:>8.1} {:>8.1} | {:>8.1} {:>8.1} | {:>+8.1} {:>+8.1} {:>+8.1}",
                abbrev,
                ms,
                md,
                asp,
                ad,
                asp - ms,
                ad - md,
                (asp + ad) - (ms + md)
            );
        }
        out
    }

    // ---- Table III: per-operation costs ---------------------------------

    /// Table III: per-operation speedup of each implementation relative
    /// to the chained hash tables, from the calibrated cost model (the
    /// `collection_ops` criterion bench measures the native equivalents).
    pub fn table3(&mut self) -> String {
        let mut out = String::new();
        for model in [CostModel::intel_x64(), CostModel::aarch64()] {
            let _ = writeln!(
                out,
                "Table III ({}): speedup vs Hash{{Set,Map}}",
                model.name
            );
            let _ = writeln!(
                out,
                "{:>13} {:>7} {:>7} {:>7} {:>7} {:>8}",
                "impl", "read", "write", "insert", "remove", "iterate"
            );
            for (imp, base) in [
                (ImplKind::BitSet, ImplKind::HashSet),
                (ImplKind::SparseBitSet, ImplKind::HashSet),
                (ImplKind::SwissSet, ImplKind::HashSet),
                (ImplKind::FlatSet, ImplKind::HashSet),
                (ImplKind::BitMap, ImplKind::HashMap),
                (ImplKind::SwissMap, ImplKind::HashMap),
            ] {
                let sp = |op: CollOp| model.cost_ns(base, op) / model.cost_ns(imp, op);
                let _ = writeln!(
                    out,
                    "{:>13} {:>7.2} {:>7.2} {:>7.2} {:>7.2} {:>8.2}",
                    format!("{imp}"),
                    sp(CollOp::Read),
                    sp(CollOp::Write),
                    sp(CollOp::Insert),
                    sp(CollOp::Remove),
                    sp(CollOp::IterElem),
                );
            }
            out.push('\n');
        }
        out
    }

    // ---- Fig. 7 / Fig. 8: ablations --------------------------------------

    /// Figure 7: whole-program slowdown with each optimization disabled,
    /// relative to full ADE (Intel model).
    pub fn fig7(&mut self) -> String {
        let model = CostModel::intel_x64();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Figure 7: slowdown vs full ADE with one technique disabled (modeled {})",
            model.name
        );
        let _ = writeln!(
            out,
            "{:>5} {:>10} {:>14} {:>10}",
            "bench", "no-RTE", "no-propagation", "no-sharing"
        );
        let mut cols: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        let ablations = [
            ConfigKind::AdeNoRedundant,
            ConfigKind::AdeNoPropagation,
            ConfigKind::AdeNoSharing,
        ];
        for abbrev in self.abbrevs() {
            let cells = self.row(
                abbrev,
                &[ConfigKind::Ade, ablations[0], ablations[1], ablations[2]],
            );
            let ade = &cells[0];
            let base = ade.modeled_total_ns(&model);
            let mut row = [0.0f64; 3];
            for (i, kind) in ablations.into_iter().enumerate() {
                let r = &cells[i + 1];
                assert_eq!(r.output, ade.output, "[{abbrev} {}] diverged", kind.name());
                row[i] = r.modeled_total_ns(&model) / base;
                cols[i].push(row[i]);
            }
            let _ = writeln!(
                out,
                "{:>5} {:>9.2}x {:>13.2}x {:>9.2}x",
                abbrev, row[0], row[1], row[2]
            );
        }
        let _ = writeln!(
            out,
            "{:>5} {:>9.2}x {:>13.2}x {:>9.2}x   (GEO)",
            "GEO",
            geomean(cols[0].clone()),
            geomean(cols[1].clone()),
            geomean(cols[2].clone())
        );
        out
    }

    /// Figure 8: memory usage with sharing disabled, relative to full
    /// ADE.
    pub fn fig8(&mut self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Figure 8: peak memory with sharing disabled vs full ADE"
        );
        let mut ratios = Vec::new();
        for abbrev in self.abbrevs() {
            let row = self.row(abbrev, &[ConfigKind::Ade, ConfigKind::AdeNoSharing]);
            let (ade, nosh) = (&row[0], &row[1]);
            let ratio = nosh.peak_bytes() as f64 / ade.peak_bytes().max(1) as f64;
            ratios.push(ratio);
            let _ = writeln!(out, "{:>5} {:>8.1}%", abbrev, ratio * 100.0);
        }
        let _ = writeln!(
            out,
            "{:>5} {:>8.1}%   (GEO)",
            "GEO",
            geomean(ratios) * 100.0
        );
        out
    }

    // ---- Fig. 9 / Fig. 10: swiss-table comparison ------------------------

    /// Figures 9 and 10: speedup and memory against Abseil-style swiss
    /// tables (three comparisons each, as in the paper).
    pub fn fig9_10(&mut self) -> String {
        let model = CostModel::intel_x64();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Figures 9+10: swiss-table comparison (modeled {}; memory in %)",
            model.name
        );
        let _ = writeln!(
            out,
            "{:>5} | {:>11} {:>11} {:>11} | {:>9} {:>9} {:>9}",
            "bench", "swiss/hash", "ade/swiss", "ade+sw/sw", "mem(a)", "mem(b)", "mem(c)"
        );
        let mut cols: [Vec<f64>; 6] = Default::default();
        for abbrev in self.abbrevs() {
            let row = self.row(
                abbrev,
                &[
                    ConfigKind::Memoir,
                    ConfigKind::MemoirAbseil,
                    ConfigKind::Ade,
                    ConfigKind::AdeAbseil,
                ],
            );
            let (memoir, swiss, ade, ade_swiss) = (&row[0], &row[1], &row[2], &row[3]);
            assert_eq!(memoir.output, swiss.output, "[{abbrev}] swiss diverged");
            assert_eq!(
                memoir.output, ade_swiss.output,
                "[{abbrev}] ade-abseil diverged"
            );
            let a = memoir.modeled_total_ns(&model) / swiss.modeled_total_ns(&model);
            let b = swiss.modeled_total_ns(&model) / ade.modeled_total_ns(&model);
            let c = swiss.modeled_total_ns(&model) / ade_swiss.modeled_total_ns(&model);
            let ma = swiss.peak_bytes() as f64 / memoir.peak_bytes().max(1) as f64 * 100.0;
            let mb = ade.peak_bytes() as f64 / swiss.peak_bytes().max(1) as f64 * 100.0;
            let mc = ade_swiss.peak_bytes() as f64 / swiss.peak_bytes().max(1) as f64 * 100.0;
            for (col, v) in cols.iter_mut().zip([a, b, c, ma, mb, mc]) {
                col.push(v);
            }
            let _ = writeln!(
                out,
                "{:>5} | {:>10.2}x {:>10.2}x {:>10.2}x | {:>8.1}% {:>8.1}% {:>8.1}%",
                abbrev, a, b, c, ma, mb, mc
            );
        }
        let _ = writeln!(
            out,
            "{:>5} | {:>10.2}x {:>10.2}x {:>10.2}x | {:>8.1}% {:>8.1}% {:>8.1}%   (GEO)",
            "GEO",
            geomean(cols[0].clone()),
            geomean(cols[1].clone()),
            geomean(cols[2].clone()),
            geomean(cols[3].clone()),
            geomean(cols[4].clone()),
            geomean(cols[5].clone()),
        );
        out
    }

    // ---- RQ4: the PTA case study ----------------------------------------

    /// RQ4: the PTA performance-engineering case study — directive
    /// variants against MEMOIR and untuned ADE.
    ///
    /// Runs three scale notches above the rest of the suite: the shared-
    /// enumeration pathology scales with the pointer/object ratio (the
    /// paper's sqlite3 input has ~10⁴×; the artifact notes PTA "variance
    /// across machines" for the same reason).
    pub fn rq4(&mut self) -> String {
        use ade_workloads::bench::pta::{build_with, Tuning};
        let scale = self.scale + 3;
        let model = CostModel::intel_x64();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "RQ4: PTA directive case study at scale {scale} (modeled {}; vs MEMOIR)",
            model.name
        );
        let _ = writeln!(out, "{:>18} {:>10} {:>10}", "variant", "speedup", "memory");
        // The variants build directive-tuned module copies, so they are
        // not ordinary cache cells; sweep them on the session's worker
        // pool instead (results stay in declaration order).
        let variants = vec![
            ("memoir", ConfigKind::Memoir, Tuning::Untuned),
            ("ade (untuned)", ConfigKind::Ade, Tuning::Untuned),
            ("noshare (inner)", ConfigKind::Ade, Tuning::InnerNoShare),
            ("noenumerate", ConfigKind::Ade, Tuning::InnerNoEnumerate),
            ("select(Sparse)", ConfigKind::Ade, Tuning::InnerSparse),
            ("select(Flat)", ConfigKind::Ade, Tuning::InnerFlat),
        ];
        let runs: Vec<(String, RunResult)> =
            crate::pool::run_ordered(variants, self.jobs, move |(name, kind, tuning)| {
                let mut module = build_with(scale, tuning);
                let config = ade_workloads::Config::new(kind);
                config.compile(&mut module);
                ade_ir::verify::verify_module(&module)
                    .unwrap_or_else(|e| panic!("[{name}] verify: {e}"));
                let outcome = ade_interp::Interpreter::new(&module, config.exec.clone())
                    .run("main")
                    .unwrap_or_else(|e| panic!("[{name}] run: {e}"));
                (
                    name.to_string(),
                    RunResult {
                        abbrev: "PTA",
                        config: kind,
                        output: outcome.output,
                        stats: outcome.stats,
                    },
                )
            });
        let base_ns = runs[0].1.modeled_total_ns(&model);
        let base_mem = runs[0].1.peak_bytes().max(1) as f64;
        let reference = runs[0].1.output.clone();
        for (name, r) in runs.iter().skip(1) {
            assert_eq!(r.output, reference, "[{name}] diverged");
            let sp = base_ns / r.modeled_total_ns(&model);
            let mem = r.peak_bytes() as f64 / base_mem * 100.0;
            let _ = writeln!(out, "{name:>18} {sp:>9.2}x {mem:>9.1}%");
        }
        out
    }
}

/// Single-linkage agglomerative clustering of benchmark op-mix vectors.
fn cluster(mixes: &[(&str, Vec<f64>)], target: usize) -> Vec<Vec<String>> {
    let mut clusters: Vec<Vec<usize>> = (0..mixes.len()).map(|i| vec![i]).collect();
    let dist = |a: usize, b: usize| -> f64 {
        mixes[a]
            .1
            .iter()
            .zip(&mixes[b].1)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt()
    };
    while clusters.len() > target {
        let mut best = (0, 1, f64::INFINITY);
        for i in 0..clusters.len() {
            for j in i + 1..clusters.len() {
                let d = clusters[i]
                    .iter()
                    .flat_map(|&a| clusters[j].iter().map(move |&b| dist(a, b)))
                    .fold(f64::INFINITY, f64::min);
                if d < best.2 {
                    best = (i, j, d);
                }
            }
        }
        let merged = clusters.remove(best.1);
        clusters[best.0].extend(merged);
    }
    clusters
        .into_iter()
        .map(|c| c.into_iter().map(|i| mixes[i].0.to_string()).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_groups_similar_mixes() {
        let mixes = vec![
            ("A", vec![100.0, 0.0]),
            ("B", vec![99.0, 1.0]),
            ("C", vec![0.0, 100.0]),
            ("D", vec![1.0, 99.0]),
        ];
        let clusters = cluster(&mixes, 2);
        assert_eq!(clusters.len(), 2);
        let ab: Vec<&str> = clusters
            .iter()
            .find(|c| c.contains(&"A".to_string()))
            .expect("cluster with A")
            .iter()
            .map(String::as_str)
            .collect();
        assert!(ab.contains(&"B"));
        assert!(!ab.contains(&"C"));
    }

    #[test]
    fn fig5_reports_speedup_on_small_inputs() {
        let mut s = Session::new(5);
        let text = s.fig5_or_6(false);
        assert!(text.contains("GEO"), "{text}");
        assert!(text.contains("BFS"), "{text}");
    }
}
