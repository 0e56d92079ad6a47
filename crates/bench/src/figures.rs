//! Regenerates each table and figure of the paper's evaluation as
//! formatted text (the artifact's `make plot` equivalent).
//!
//! Two time metrics are reported: *wall* (real interpreter time on this
//! host) and *modeled* (operation counts priced by the per-architecture
//! cost model, see `ade_interp::cost`). Figures use the modeled metric —
//! it is deterministic and is what lets the AArch64 results (Fig. 6)
//! exist without ARM hardware; wall times are printed alongside for
//! reference.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ade_interp::cost::CostModel;
use ade_interp::{CollOp, ImplKind, SiteProfile};
use ade_obs::{FieldValue, FlightRecorder, MetricsRegistry, Timeline};
use ade_workloads::bench::{all_benchmarks, benchmark_by_abbrev};
use ade_workloads::ConfigKind;

use crate::checkpoint::Checkpoint;
use crate::runner::{geomean, CellError, CellSpec, RunResult};

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

/// The outcome of one evaluation-matrix cell.
#[derive(Clone, Debug)]
pub enum CellResult {
    /// The cell ran to completion.
    Ok(RunResult),
    /// The cell failed (after one retry, for panics); the figure row
    /// renders a deterministic `✗(code)` placeholder and the row is
    /// excluded from geomeans. The detail goes to stderr only, never
    /// into figure text.
    Failed {
        /// Deterministic reason code: `panic`, `trap`, `limit`,
        /// `timeout`, `verify` or `exec`.
        code: &'static str,
        /// Human-readable detail (panic payload or error rendering).
        detail: String,
    },
}

/// Which fault `--inject-fault` raises in the targeted cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic the worker while it runs the cell (exercises pool
    /// isolation; degrades to `✗(panic)`).
    Panic,
    /// Run the cell with a tiny instruction budget so the interpreter
    /// returns a typed limit error (degrades to `✗(limit)`).
    Fuel,
    /// Sleep in the worker until the cell's deadline, then fail with
    /// the same [`CellError::Timeout`] a real overrun returns — a
    /// deterministic, fuel-free hung cell that degrades to `✗(timeout)`.
    /// Without `--cell-timeout` there is no deadline and it sleeps
    /// forever (that is the point: the smoke proves the deadline, not
    /// the fault).
    Hang,
}

/// Deterministic fault injection (`--inject-fault cell=K,kind=...`):
/// the `cell`-th cell a session schedules (0-based, in planning order,
/// counted across prewarms and cache misses) raises `kind`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    /// 0-based index of the targeted cell in scheduling order.
    pub cell: usize,
    /// What to raise there.
    pub kind: FaultKind,
}

impl FaultSpec {
    /// Parses the `--inject-fault` argument form
    /// `cell=K,kind=panic|fuel|hang`.
    ///
    /// # Errors
    ///
    /// A usage message naming the offending part.
    pub fn parse(spec: &str) -> Result<FaultSpec, String> {
        let (mut cell, mut kind) = (None, None);
        for part in spec.split(',') {
            match part.split_once('=') {
                Some(("cell", v)) => {
                    cell = Some(
                        v.parse::<usize>()
                            .map_err(|_| format!("bad cell index: {v}"))?,
                    );
                }
                Some(("kind", "panic")) => kind = Some(FaultKind::Panic),
                Some(("kind", "fuel")) => kind = Some(FaultKind::Fuel),
                Some(("kind", "hang")) => kind = Some(FaultKind::Hang),
                _ => return Err(format!("bad fault spec part: {part}")),
            }
        }
        match (cell, kind) {
            (Some(cell), Some(kind)) => Ok(FaultSpec { cell, kind }),
            _ => Err("fault spec needs cell=K and kind=panic|fuel|hang".to_string()),
        }
    }
}

/// The instruction budget an injected `kind=fuel` fault runs under —
/// small enough that every benchmark at every scale trips it.
const INJECTED_FUEL: u64 = 100;

/// How many flight-recorder events each cell retains for its
/// post-mortem (oldest evicted first; eviction is visible as sequence
/// gaps in the dump).
const FLIGHT_CAPACITY: usize = 64;

/// A memo of run results so one `reproduce all` never repeats a run.
#[derive(Default)]
pub struct Session {
    scale: u32,
    trials: u32,
    jobs: usize,
    include_wall: bool,
    profile: bool,
    strict: bool,
    fault: Option<FaultSpec>,
    cell_timeout: Option<Duration>,
    /// Cells handed to workers so far (the `FaultSpec::cell` index).
    scheduled: usize,
    timeline: Option<Arc<Timeline>>,
    checkpoint: Option<Arc<Checkpoint>>,
    reference: bool,
    metrics: MetricsRegistry,
    /// Flight-recorder dumps for degraded cells, keyed `abbrev_config`.
    postmortems: Arc<Mutex<BTreeMap<String, String>>>,
    cache: BTreeMap<(String, ConfigKind), CellResult>,
}

impl Session {
    /// Creates a session at an input scale (≈ log2 nodes), one trial.
    pub fn new(scale: u32) -> Self {
        Session::with_trials(scale, 1)
    }

    /// Creates a session running each configuration `trials` times and
    /// keeping the fastest wall observation (the artifact's `TRIALS`).
    pub fn with_trials(scale: u32, trials: u32) -> Self {
        Session {
            scale,
            trials: trials.max(1),
            jobs: 1,
            include_wall: true,
            profile: false,
            strict: false,
            fault: None,
            cell_timeout: None,
            scheduled: 0,
            timeline: None,
            checkpoint: None,
            reference: false,
            metrics: MetricsRegistry::disabled(),
            postmortems: Arc::new(Mutex::new(BTreeMap::new())),
            cache: BTreeMap::new(),
        }
    }

    /// Runs every cell of this session on the reference decode (no
    /// peephole, no loop fusion; see [`CellSpec::reference`]). Figures
    /// and statistics are identical either way — the differential tests
    /// flip this knob to prove it.
    #[must_use]
    pub fn reference(mut self, reference: bool) -> Self {
        self.reference = reference;
        self
    }

    /// Strict mode (`--strict`): restores fail-fast semantics — the
    /// first failing cell panics out of the session (a worker panic is
    /// propagated by the pool, a typed cell error is promoted to one)
    /// instead of degrading to a `✗(code)` placeholder.
    #[must_use]
    pub fn strict(mut self, strict: bool) -> Self {
        self.strict = strict;
        self
    }

    /// Arms deterministic fault injection (`--inject-fault`); see
    /// [`FaultSpec`].
    #[must_use]
    pub fn inject_fault(mut self, fault: FaultSpec) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Arms per-cell wall-clock timeouts (`--cell-timeout`): each cell
    /// attempt gets a deadline of its start plus `timeout`
    /// ([`CellSpec::deadline`]), benchmark trials run through
    /// [`ade_interp::ExecSession::run_until`], and a cell whose deadline
    /// passes degrades to `✗(timeout)` — or fails fast under strict
    /// mode. Quantum slicing is observationally inert, so cells that
    /// finish in time produce byte-identical figure text.
    #[must_use]
    pub fn cell_timeout(mut self, timeout: Duration) -> Self {
        self.cell_timeout = Some(timeout);
        self
    }

    /// Attaches an incremental checkpoint (`--checkpoint`): completed
    /// cells append to `path` as they finish, and a compatible existing
    /// file (same format version, scale and trials) pre-fills the cache
    /// so a resumed run recomputes only the missing cells. Failed cells
    /// are never persisted — a resume retries them. Restored cells
    /// carry no per-site profile.
    ///
    /// An unusable checkpoint file (unreadable path, unwritable
    /// directory) prints a warning and the session continues as a fresh
    /// run without persistence. Corruption *inside* a readable file
    /// never errors in the first place — a bad header discards the file
    /// and bad lines are skipped. A damaged resume artifact must never
    /// cost the run.
    #[must_use]
    pub fn checkpoint(mut self, path: &std::path::Path) -> Self {
        match Checkpoint::open(path, self.scale, self.trials) {
            Ok((ck, restored)) => {
                for r in restored {
                    self.cache
                        .insert((r.abbrev.to_string(), r.config), CellResult::Ok(r));
                }
                self.checkpoint = Some(Arc::new(ck));
            }
            Err(e) => {
                eprintln!(
                    "warning: checkpoint {} unusable ({e}); continuing without persistence",
                    path.display()
                );
            }
        }
        self
    }

    /// Sets how many worker threads [`Session::prewarm`] (and `rq4`'s
    /// internal variant sweep) may use. `1` (the default) never spawns.
    #[must_use]
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Whether figures print reference wall-clock ratios. Disable for
    /// byte-identical output across runs and `--jobs` values — wall
    /// time is the one nondeterministic measurement.
    #[must_use]
    pub fn include_wall(mut self, include: bool) -> Self {
        self.include_wall = include;
        self
    }

    /// Whether cell runs collect per-site interpreter profiles
    /// (`--obs-dir`). Profiling never changes op counts, so figure text
    /// is byte-identical with or without it.
    #[must_use]
    pub fn profile(mut self, profile: bool) -> Self {
        self.profile = profile;
        self
    }

    /// Attaches a shared timeline (`--timeline`): every cell and rq4
    /// variant run records one complete event, with the worker index as
    /// the lane.
    #[must_use]
    pub fn timeline(mut self, timeline: Arc<Timeline>) -> Self {
        self.timeline = Some(timeline);
        self
    }

    /// Attaches a metrics registry (`--metrics`): the session publishes
    /// scheduling counters (`cells_scheduled/completed/degraded_total`,
    /// the last by reason code) and the worker pool publishes
    /// attempt/retry/panic accounting into it. Every counter is
    /// order-independent, so the non-wall snapshot is byte-identical
    /// across `--jobs` values;
    /// per-worker cell counts are wall-classed (scheduling noise) and
    /// excluded unless wall metrics are requested. Figure text is
    /// byte-identical with metrics on or off.
    #[must_use]
    pub fn metrics(mut self, metrics: MetricsRegistry) -> Self {
        metrics.mark_wall("pool_worker_cells_total");
        self.metrics = metrics;
        self
    }

    /// Every cached per-site profile, keyed by `(benchmark, config)` —
    /// what `reproduce --obs-dir` writes out, one file per cell.
    pub fn cached_profiles(&self) -> Vec<(&str, ConfigKind, &SiteProfile)> {
        self.cache
            .iter()
            .filter_map(|((abbrev, kind), cell)| match cell {
                CellResult::Ok(r) => r.profile.as_ref().map(|p| (abbrev.as_str(), *kind, p)),
                CellResult::Failed { .. } => None,
            })
            .collect()
    }

    /// Post-mortem flight-recorder dumps for every degraded cell, keyed
    /// `abbrev_config` — what `reproduce --obs-dir` writes out as
    /// `postmortem-<key>.json`, one file per failed cell. Sorted by key
    /// and free of timestamps, so the set is byte-identical across
    /// `--jobs` values and repeat runs.
    pub fn postmortems(&self) -> Vec<(String, String)> {
        self.postmortems
            .lock()
            .expect("postmortem map poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Runs every not-yet-cached cell the given figure targets need, on
    /// `jobs` parallel workers, filling the cache. Rendering afterwards
    /// is pure cache lookup, so figure text is independent of `jobs`.
    pub fn prewarm(&mut self, targets: &[&str]) {
        let mut pending: Vec<(usize, (&'static str, ConfigKind))> = Vec::new();
        for target in targets {
            for cell in cells_for_target(target) {
                let key = (cell.0.to_string(), cell.1);
                if !self.cache.contains_key(&key) && !pending.iter().any(|&(_, c)| c == cell) {
                    pending.push((self.scheduled + pending.len(), cell));
                }
            }
        }
        self.execute_batch(pending);
    }

    /// The run result for one cell (running it now if not cached).
    /// Public so differential tests can compare per-cell statistics
    /// across `jobs` settings.
    ///
    /// # Panics
    ///
    /// Panics if the cell failed (use [`Session::cell_result`] to
    /// observe degradation without a panic).
    pub fn cell(&mut self, abbrev: &str, kind: ConfigKind) -> RunResult {
        match self.run(abbrev, kind) {
            CellResult::Ok(r) => r,
            CellResult::Failed { code, detail } => {
                panic!("[{abbrev} {}] cell failed ({code}): {detail}", kind.name())
            }
        }
    }

    /// The [`CellResult`] for one cell (running it now if not cached) —
    /// [`Session::cell`] without the panic on failure.
    pub fn cell_result(&mut self, abbrev: &str, kind: ConfigKind) -> CellResult {
        self.run(abbrev, kind)
    }

    fn run(&mut self, abbrev: &str, kind: ConfigKind) -> CellResult {
        let key = (abbrev.to_string(), kind);
        if let Some(r) = self.cache.get(&key) {
            return r.clone();
        }
        // Cache misses run as a one-cell batch on the calling thread
        // (lane 0 on the timeline), under the same isolation, fault-
        // injection and checkpoint plumbing as prewarmed cells.
        let abbrev_static = benchmark_by_abbrev(abbrev).expect("known benchmark").abbrev;
        self.execute_batch(vec![(self.scheduled, (abbrev_static, kind))]);
        self.cache
            .get(&key)
            .expect("batch filled the cache")
            .clone()
    }

    /// Runs a batch of indexed cells on the worker pool and folds every
    /// outcome into the cache. Default mode isolates: a cell that
    /// panics (retried once) or returns a typed error — a timeout
    /// included — becomes [`CellResult::Failed`] and the rest of the
    /// batch completes. Strict mode fails fast instead.
    fn execute_batch(&mut self, pending: Vec<(usize, (&'static str, ConfigKind))>) {
        if pending.is_empty() {
            return;
        }
        self.scheduled += pending.len();
        self.metrics
            .add("cells_scheduled_total", &[], pending.len() as u64);
        let plan: Vec<(&'static str, ConfigKind)> = pending.iter().map(|&(_, c)| c).collect();
        let (scale, trials, profile) = (self.scale, self.trials, self.profile);
        let timeline = self.timeline.clone();
        let fault = self.fault;
        let checkpoint = self.checkpoint.clone();
        let reference = self.reference;
        let timeout = self.cell_timeout;
        let postmortems = Arc::clone(&self.postmortems);
        let work = move |worker: usize,
                         (idx, (abbrev, kind)): (usize, (&'static str, ConfigKind))| {
            // Every attempt gets its own deadline; a retried cell starts
            // afresh.
            let deadline = timeout.map(|t| Instant::now() + t);
            // One flight recorder per cell *attempt*: events are scoped
            // to a deterministic entity and carry no timestamps, so a
            // retried attempt produces a byte-identical dump.
            let key = format!("{abbrev}_{}", kind.name());
            let flight = FlightRecorder::new(FLIGHT_CAPACITY);
            flight.record(
                "pool",
                "start",
                &[
                    ("cell", FieldValue::from(key.as_str())),
                    ("index", FieldValue::from(idx as u64)),
                    ("scale", FieldValue::from(u64::from(scale))),
                    ("trials", FieldValue::from(u64::from(trials))),
                ],
            );
            let fault = fault.filter(|f| f.cell == idx).map(|f| f.kind);
            if fault == Some(FaultKind::Panic) {
                // Dump *before* panicking so the degraded cell has a
                // post-mortem; the retry overwrites it identically.
                flight.record("pool", "fault", &[("kind", FieldValue::from("panic"))]);
                let dump = flight.dump_json(&[
                    ("cell", FieldValue::from(key.as_str())),
                    ("code", FieldValue::from("panic")),
                ]);
                postmortems
                    .lock()
                    .expect("postmortem map poisoned")
                    .insert(key, dump);
                panic!(
                    "injected fault: panic at cell {idx} ({abbrev}/{})",
                    kind.name()
                );
            }
            let started = timeline.as_deref().map(Timeline::now_ns);
            let r = match fault {
                Some(FaultKind::Hang) => {
                    flight.record("pool", "fault", &[("kind", FieldValue::from("hang"))]);
                    let Some(deadline) = deadline else {
                        loop {
                            std::thread::park();
                        }
                    };
                    std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
                    Err(CellError::Timeout)
                }
                _ => {
                    let fuel = (fault == Some(FaultKind::Fuel)).then(|| {
                        flight.record("pool", "fault", &[("kind", FieldValue::from("fuel"))]);
                        INJECTED_FUEL
                    });
                    let bench = benchmark_by_abbrev(abbrev).expect("known benchmark");
                    crate::runner::run_cell(&CellSpec {
                        trials,
                        profile,
                        fuel,
                        reference,
                        deadline,
                        ..CellSpec::new(&bench, kind, scale)
                    })
                }
            };
            // One complete timeline event per finished cell (lane =
            // worker index); a failing cell's event carries an extra
            // `status: failed:<code>` arg. A cell that *panics* unwinds
            // past here and records no event.
            if let (Some(t), Some(started)) = (timeline.as_deref(), started) {
                let mut args = vec![
                    ("scale".to_string(), scale.to_string()),
                    ("trials".to_string(), trials.to_string()),
                ];
                if let Err(e) = &r {
                    args.push(("status".to_string(), format!("failed:{}", e.code())));
                }
                t.complete(format!("{abbrev}/{}", kind.name()), "cell", worker as u32, started, args);
            }
            match &r {
                Ok(result) => {
                    // A retried cell that now succeeds clears the dump
                    // its panicking first attempt left behind.
                    postmortems
                        .lock()
                        .expect("postmortem map poisoned")
                        .remove(&key);
                    if let Some(ck) = checkpoint.as_deref() {
                        ck.record(result);
                    }
                }
                Err(e) => {
                    flight.record("pool", "trip", &[("code", FieldValue::from(e.code()))]);
                    let dump = flight.dump_json(&[
                        ("cell", FieldValue::from(key.as_str())),
                        ("code", FieldValue::from(e.code())),
                    ]);
                    postmortems
                        .lock()
                        .expect("postmortem map poisoned")
                        .insert(key, dump);
                }
            }
            r
        };
        let outcomes: Vec<Result<Result<RunResult, CellError>, crate::pool::CellFailure>> =
            if self.strict {
                crate::pool::run_ordered_with(pending, self.jobs, work)
                    .into_iter()
                    .map(Ok)
                    .collect()
            } else {
                crate::pool::run_ordered_isolated_metered(pending, self.jobs, &self.metrics, work)
            };
        for ((abbrev, kind), outcome) in plan.into_iter().zip(outcomes) {
            let cell = match outcome {
                Ok(Ok(r)) => CellResult::Ok(r),
                Ok(Err(e)) => {
                    if self.strict {
                        panic!("[{abbrev} {}] {e}", kind.name());
                    }
                    eprintln!("[cell {abbrev}/{}] failed: {e}", kind.name());
                    CellResult::Failed {
                        code: e.code(),
                        detail: e.to_string(),
                    }
                }
                Err(f) => {
                    eprintln!(
                        "[cell {abbrev}/{}] failed after {} attempts: {}",
                        kind.name(),
                        f.attempts,
                        f.reason
                    );
                    // A panic that unwound past the worker's own dump
                    // still gets a post-mortem: an empty ring with the
                    // cell key and reason code as context.
                    let key = format!("{abbrev}_{}", kind.name());
                    self.postmortems
                        .lock()
                        .expect("postmortem map poisoned")
                        .entry(key.clone())
                        .or_insert_with(|| {
                            FlightRecorder::new(FLIGHT_CAPACITY).dump_json(&[
                                ("cell", FieldValue::from(key.as_str())),
                                ("code", FieldValue::from(f.code)),
                            ])
                        });
                    CellResult::Failed {
                        code: f.code,
                        detail: f.reason,
                    }
                }
            };
            match &cell {
                CellResult::Ok(_) => self.metrics.add("cells_completed_total", &[], 1),
                CellResult::Failed { code, .. } => {
                    self.metrics
                        .add("cells_degraded_total", &[("code", code)], 1);
                }
            }
            self.cache.insert((abbrev.to_string(), kind), cell);
        }
    }

    /// The row's runs under `kinds` in order, or the code of the first
    /// failed cell (the row then renders as a `✗(code)` placeholder and
    /// is excluded from geomeans).
    fn row(&mut self, abbrev: &str, kinds: &[ConfigKind]) -> Result<Vec<RunResult>, &'static str> {
        let mut out = Vec::with_capacity(kinds.len());
        for &kind in kinds {
            match self.run(abbrev, kind) {
                CellResult::Ok(r) => out.push(r),
                CellResult::Failed { code, .. } => return Err(code),
            }
        }
        Ok(out)
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
            let r = match self.row(abbrev, &[ConfigKind::Memoir]) {
                Ok(mut row) => row.remove(0),
                Err(code) => {
                    let _ = writeln!(out, "{abbrev:>5} ✗({code})");
                    continue;
                }
            };
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
            "Figure {}: ADE vs MEMOIR on {} (modeled; wall in parens)",
            if aarch64 { 6 } else { 5 },
            model.name
        );
        let _ = writeln!(
            out,
            "{:>5} {:>16} {:>16} {:>10}",
            "bench", "whole-speedup", "roi-speedup", "memory"
        );
        let (mut wholes, mut rois, mut mems) = (Vec::new(), Vec::new(), Vec::new());
        for abbrev in self.abbrevs() {
            let row = match self.row(abbrev, &[ConfigKind::Memoir, ConfigKind::Ade]) {
                Ok(row) => row,
                Err(code) => {
                    let _ = writeln!(out, "{abbrev:>5} ✗({code})");
                    continue;
                }
            };
            let (memoir, ade) = (&row[0], &row[1]);
            assert_eq!(memoir.output, ade.output, "[{abbrev}] outputs diverge");
            let whole = memoir.modeled_total_ns(&model) / ade.modeled_total_ns(&model);
            let roi = memoir.modeled_roi_ns(&model) / ade.modeled_roi_ns(&model).max(1.0);
            let mem = ade.peak_bytes() as f64 / memoir.peak_bytes().max(1) as f64;
            let wall_txt = if self.include_wall {
                let wall =
                    memoir.stats.wall_total_ns() as f64 / ade.stats.wall_total_ns().max(1) as f64;
                format!("({wall:>4.2}x)")
            } else {
                "(  --x)".to_string()
            };
            let _ = writeln!(
                out,
                "{:>5} {:>8.2}x {} {:>9.2}x {:>9.1}%",
                abbrev,
                whole,
                wall_txt,
                roi,
                mem * 100.0
            );
            wholes.push(whole);
            rois.push(roi);
            mems.push(mem);
        }
        let _ = writeln!(
            out,
            "{:>5} {:>8.2}x {:>17.2}x {:>9.1}%   (GEO)",
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
            let row = match self.row(abbrev, &[ConfigKind::Memoir, ConfigKind::Ade]) {
                Ok(row) => row,
                Err(code) => {
                    let _ = writeln!(out, "{abbrev:>5} ✗({code})");
                    continue;
                }
            };
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
            let cells = match self.row(
                abbrev,
                &[ConfigKind::Ade, ablations[0], ablations[1], ablations[2]],
            ) {
                Ok(cells) => cells,
                Err(code) => {
                    let _ = writeln!(out, "{abbrev:>5} ✗({code})");
                    continue;
                }
            };
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
            let row = match self.row(abbrev, &[ConfigKind::Ade, ConfigKind::AdeNoSharing]) {
                Ok(row) => row,
                Err(code) => {
                    let _ = writeln!(out, "{abbrev:>5} ✗({code})");
                    continue;
                }
            };
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
            let row = match self.row(
                abbrev,
                &[
                    ConfigKind::Memoir,
                    ConfigKind::MemoirAbseil,
                    ConfigKind::Ade,
                    ConfigKind::AdeAbseil,
                ],
            ) {
                Ok(row) => row,
                Err(code) => {
                    let _ = writeln!(out, "{abbrev:>5} ✗({code})");
                    continue;
                }
            };
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
    ///
    /// The variant sweep is not part of the cell matrix, so fault
    /// isolation does not apply here: a failing variant propagates
    /// regardless of strict mode (all six variants feed one comparison
    /// table — there is no meaningful partial rendering).
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
        let timeline = self.timeline.clone();
        let runs: Vec<(String, RunResult)> = crate::pool::run_ordered_with(
            variants,
            self.jobs,
            move |worker, (name, kind, tuning)| {
                let started = timeline.as_deref().map(Timeline::now_ns);
                let mut module = build_with(scale, tuning);
                let config = ade_workloads::Config::new(kind);
                config.compile(&mut module);
                ade_ir::verify::verify_module(&module)
                    .unwrap_or_else(|e| panic!("[{name}] verify: {e}"));
                let outcome = ade_interp::Interpreter::new(&module, config.exec.clone())
                    .run("main")
                    .unwrap_or_else(|e| panic!("[{name}] run: {e}"));
                if let (Some(t), Some(started)) = (timeline.as_deref(), started) {
                    t.complete(
                        format!("PTA/{name}"),
                        "rq4",
                        worker as u32,
                        started,
                        vec![("scale".to_string(), scale.to_string())],
                    );
                }
                (
                    name.to_string(),
                    RunResult {
                        abbrev: "PTA",
                        config: kind,
                        output: outcome.output,
                        stats: outcome.stats,
                        profile: outcome.profile,
                    },
                )
            },
        );
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
