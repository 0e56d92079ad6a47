//! End-to-end benchmark of the ADE reproduction on the 16 paper programs.
//!
//! ```text
//! e2e-bench --workload <suite|sliced> --seed N --seconds S --trace 0|1
//! e2e-bench --bless
//! ```
//!
//! One process and one client thread run a closed loop. Every program is
//! built at scale 9 under `memoir` and `ade` (32 cells) and driven only
//! through public entry points of the workspace crates:
//! `Benchmark::build`, `Config::compile`/`compile_traced`, `verify_module`,
//! `DecodedModule::decode_with`, `Interpreter::run_decoded` and
//! `ExecSession::spawn`/`step`.
//!
//! Both workloads set every cell up (build, compile, verify, decode) and
//! then time executions, pass after pass:
//!
//! * `suite` times batch executions (`Interpreter::run_decoded`);
//! * `sliced` times runs to completion through `ExecSession`, 4096
//!   instructions per grant.
//!
//! Set-up is what users wait for before the first instruction runs; it
//! runs twice per process and `setup_s` is the median.
//!
//! Every timed operation runs between two runs of a fixed reference
//! computation that resembles it (see [`reference`]), and its time is
//! calibrated: scaled by the reference's nominal time over the mean of
//! the two. This cancels most of the slowdown that other tenants of a
//! shared machine cause. Each cell's time is the median of its calibrated
//! times over the run's passes. The seed fixes the order of the cells
//! within each pass. Every execution's output is checked against
//! `expected_scale9.txt` and its statistics against the cell's first
//! execution; failures count toward `failed`.
//!
//! The last line of standard output is one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`); the lines before it are a per-program table. A traced
//! run alternates untraced and traced repetitions, writes its spans to
//! `out/`, and reports the difference as the tracing overhead. `--bless`
//! rewrites the expected file after checking that `memoir` and `ade`
//! print the same output.

mod reference;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ade_core::AdeReport;
use ade_interp::cost::CostModel;
use ade_interp::{
    CollOp, DecodeOptions, DecodedModule, ExecConfig, ExecError, ExecSession, ImplKind,
    Interpreter, OpCounts, Outcome, Phase, Step,
};
use ade_ir::Module;
use ade_obs::{EventKind, FieldValue, Tracer};
use ade_workloads::{all_benchmarks, Benchmark, Config, ConfigKind};

use reference::{Mix, Reference};
use trace::Trace;

/// Input scale of every program (≈ log2 of the input size).
const SCALE: u32 = 9;
/// Instructions per `ExecSession::step` grant on the `sliced` workload.
const QUANTUM: u64 = 4096;
/// Set-ups per run; `setup_s` is their median. A set-up takes ten to
/// fifteen seconds on a shared two-core machine, so two keep a run well
/// inside its time budget.
const SETUP_REPEATS: u32 = 2;
/// Batch runs per cell in the traced `sliced` run's comparison phase.
const BATCH_COMPARISON_RUNS: u32 = 3;
const KINDS: [ConfigKind; 2] = [ConfigKind::Memoir, ConfigKind::Ade];
const EXPECTED: &str = include_str!("../expected_scale9.txt");
const EXPECTED_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/expected_scale9.txt");
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
const USAGE: &str = "usage: e2e-bench --workload <suite|sliced> --seed N --seconds S --trace 0|1\n       e2e-bench --bless";

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    Suite,
    Sliced,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Suite => "suite",
            Workload::Sliced => "sliced",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
}

/// `Ok(None)` asks for `--bless`.
fn parse_args() -> Result<Option<Args>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--bless"] {
        return Ok(None);
    }
    let (mut workload, mut seed, mut seconds, mut traced) = (None, 0, 10, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "suite" => Workload::Suite,
                    "sliced" => Workload::Sliced,
                    other => return Err(format!("unknown workload {other}")),
                })
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => traced = number()? != 0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        traced,
    }))
}

/// FNV-1a over a program's printed output.
fn checksum(output: &str) -> u64 {
    output.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn parse_expected(benches: &[Benchmark]) -> Result<Vec<u64>, String> {
    let table: BTreeMap<&str, u64> = EXPECTED
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let (name, sum) = l.split_once(' ').ok_or(format!("bad expected line: {l}"))?;
            let sum = u64::from_str_radix(sum.trim(), 16).map_err(|e| format!("{l}: {e}"))?;
            Ok((name, sum))
        })
        .collect::<Result<_, String>>()?;
    benches
        .iter()
        .map(|b| {
            table
                .get(b.abbrev)
                .copied()
                .ok_or(format!("no expected checksum for {}", b.abbrev))
        })
        .collect()
}

/// Runs every program under both configurations, checks that they print
/// the same output, and rewrites the expected-checksum file.
fn bless(benches: &[Benchmark]) -> Result<(), String> {
    let mut text = format!(
        "# FNV-1a 64 checksums of the printed output of the 16 paper programs at\n\
         # scale {SCALE}. Written by `e2e-bench --bless`, which checks that memoir\n\
         # and ade print the same output.\n"
    );
    for bench in benches {
        let mut outputs = Vec::new();
        for kind in KINDS {
            let config = Config::new(kind);
            let mut module = (bench.build)(SCALE);
            config.compile(&mut module);
            ade_ir::verify::verify_module(&module).map_err(|e| format!("{}: {e}", bench.abbrev))?;
            let outcome = Interpreter::new(&module, config.exec.clone())
                .run("main")
                .map_err(|e| format!("{}: {e}", bench.abbrev))?;
            outputs.push(outcome.output);
        }
        if outputs[0] != outputs[1] {
            return Err(format!("{}: memoir and ade outputs differ", bench.abbrev));
        }
        let _ = writeln!(text, "{} {:016x}", bench.abbrev, checksum(&outputs[0]));
    }
    std::fs::write(EXPECTED_PATH, text).map_err(|e| format!("{EXPECTED_PATH}: {e}"))
}

/// The cell order of one pass: a Fisher–Yates shuffle driven by
/// splitmix64 over the seed and the pass number.
fn shuffled(n: usize, seed: u64, pass: u32) -> Vec<usize> {
    let mut state = seed ^ u64::from(pass).wrapping_mul(0xd1b5_4a32_d192_ed03);
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Median; zero for no samples.
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest of p99.9/p99/p95/p90/p75 with at least ten samples beyond
/// it, as `(label, value)`.
fn tail(values: &[f64]) -> Option<(&'static str, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    [
        ("p99.9", 0.999),
        ("p99", 0.99),
        ("p95", 0.95),
        ("p90", 0.90),
        ("p75", 0.75),
    ]
    .into_iter()
    .find(|&(_, q)| (n as f64) * (1.0 - q) >= 10.0)
    .map(|(label, q)| (label, v[((n as f64 * q).ceil() as usize).clamp(1, n) - 1]))
}

fn describe(values: &[f64]) -> String {
    let mut s = format!("median {:.4} n={}", median(values), values.len());
    if let Some((label, v)) = tail(values) {
        let _ = write!(s, " {label} {v:.4}");
    }
    s
}

/// Geometric mean; zero for no values.
fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0u32), |(s, n), v| (s + v.ln(), n + 1));
    if n == 0 {
        0.0
    } else {
        (sum / f64::from(n)).exp()
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One (program, configuration) cell after compile, verify and decode.
struct Cell {
    prog: usize,
    kind: ConfigKind,
    exec: ExecConfig,
    module: Module,
    decoded: Arc<DecodedModule>,
    report: Option<AdeReport>,
    /// `(translations inserted, RTE trims)` from the ADE pass trace, when
    /// the compile was traced.
    pass_counts: Option<(u64, u64)>,
}

/// What must repeat exactly between two executions of one cell.
#[derive(Clone, PartialEq)]
struct Fingerprint {
    per_phase: [OpCounts; 2],
    peak_bytes: usize,
}

impl Fingerprint {
    fn totals(&self) -> OpCounts {
        self.per_phase[0].merged(&self.per_phase[1])
    }
}

/// One cell's samples across passes.
#[derive(Default)]
struct CellSamples {
    /// Calibrated time of each correct execution.
    ms: Vec<f64>,
    /// Its wall time, for the per-program table.
    wall_ms: Vec<f64>,
    roi_ms: Vec<f64>,
    fingerprint: Option<Fingerprint>,
    /// Grants and instruction ticks of a session run.
    quanta: u64,
    insts: u64,
}

struct Ctx {
    started: Instant,
    args: Args,
    benches: Vec<Benchmark>,
    expected: Vec<u64>,
    trace: Trace,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    /// One per [`Mix`], indexed by it.
    calibrations: [Calibration; 2],
}

/// One reference mix and its runs.
struct Calibration {
    reference: Reference,
    /// Wall time of the latest run since the current repetition began, in
    /// milliseconds; zero before the first.
    last_ms: f64,
    /// Wall time of every run, in milliseconds.
    runs_ms: Vec<f64>,
}

impl Calibration {
    fn new(mix: Mix) -> Calibration {
        Calibration {
            reference: Reference::new(mix),
            last_ms: 0.0,
            runs_ms: Vec::new(),
        }
    }
}

impl Ctx {
    /// Runs a reference computation in a span of its own.
    fn reference(&mut self, mix: Mix) -> f64 {
        self.trace.begin(mix.layer(), "", "");
        let c = &mut self.calibrations[mix as usize];
        let took = c.reference.run();
        c.runs_ms.push(took);
        self.trace.end();
        took
    }

    /// Starts a repetition: its first timed operation runs a fresh
    /// reference before it.
    fn restart_calibration(&mut self) {
        for c in &mut self.calibrations {
            c.last_ms = 0.0;
        }
    }

    /// Runs `op` between two runs of the `mix` reference computation and
    /// returns its result, its wall time and its calibrated time: the wall
    /// time scaled by the reference's nominal time over the mean of the two
    /// reference times around it. Consecutive operations share the run
    /// between them.
    fn timed<T>(&mut self, mix: Mix, op: impl FnOnce(&mut Ctx) -> T) -> (T, f64, f64) {
        if self.calibrations[mix as usize].last_ms == 0.0 {
            self.calibrations[mix as usize].last_ms = self.reference(mix);
        }
        let t = Instant::now();
        let out = op(self);
        let wall = ms(t.elapsed());
        let after = self.reference(mix);
        let c = &mut self.calibrations[mix as usize];
        let speed = mix.nominal_ms() / ((c.last_ms + after) / 2.0);
        c.last_ms = after;
        (out, wall, wall * speed)
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.notes.len() < 20 {
            self.notes.push(what);
        }
    }

    fn names(&self, prog: usize, kind: ConfigKind) -> (&'static str, &'static str) {
        (self.benches[prog].abbrev, kind.name())
    }

    fn build(&mut self, prog: usize, kind: ConfigKind) -> Module {
        let (name, cfg) = self.names(prog, kind);
        self.trace.begin("workloads.build", name, cfg);
        let module = (self.benches[prog].build)(SCALE);
        self.trace.end();
        module
    }

    /// Compile, verify and decode: what a user waits for before the first
    /// instruction runs.
    fn lower(&mut self, prog: usize, kind: ConfigKind, mut module: Module) -> Option<Cell> {
        let (name, cfg) = self.names(prog, kind);
        let config = Config::new(kind);
        self.attempted += 1;
        let (mut report, mut pass_counts) = (None, None);
        if config.ade.is_some() {
            self.trace.begin("core.ade", name, cfg);
            if self.trace.is_on() {
                let base = self.trace.now_ns();
                let tracer = Tracer::enabled();
                report = config.compile_traced(&mut module, &tracer);
                let span = self.trace.end().expect("tracing is on");
                self.trace.import_passes(span, &tracer, base);
                pass_counts = Some(decision_counts(&tracer));
            } else {
                report = config.compile(&mut module);
                self.trace.end();
            }
        }
        self.trace.begin("ir.verify", name, cfg);
        let verified = ade_ir::verify::verify_module(&module);
        self.trace.end();
        if let Err(e) = verified {
            self.fail(format!("{name}/{cfg}: verify: {e}"));
            return None;
        }
        self.trace.begin("interp.decode", name, cfg);
        let decoded = DecodedModule::decode_with(&module, &DecodeOptions::default());
        self.trace.end();
        Some(Cell {
            prog,
            kind,
            exec: config.exec,
            module,
            decoded: Arc::new(decoded),
            report,
            pass_counts,
        })
    }

    /// Checks one execution; returns its outcome when correct.
    fn check(
        &mut self,
        cell: &Cell,
        samples: &mut CellSamples,
        result: Result<Outcome, ExecError>,
    ) -> Option<Outcome> {
        let (name, cfg) = self.names(cell.prog, cell.kind);
        self.attempted += 1;
        let outcome = match result {
            Ok(o) => o,
            Err(e) => {
                self.fail(format!("{name}/{cfg}: {e}"));
                return None;
            }
        };
        if checksum(&outcome.output) != self.expected[cell.prog] {
            self.fail(format!(
                "{name}/{cfg}: output differs from the expected checksum"
            ));
            return None;
        }
        let print = Fingerprint {
            per_phase: outcome.stats.per_phase.clone(),
            peak_bytes: outcome.stats.peak_bytes,
        };
        if *samples.fingerprint.get_or_insert_with(|| print.clone()) != print {
            self.fail(format!("{name}/{cfg}: statistics differ between runs"));
            return None;
        }
        Some(outcome)
    }

    fn run_batch(&mut self, cell: &Cell, samples: &mut CellSamples) -> f64 {
        let (name, cfg) = self.names(cell.prog, cell.kind);
        let (result, wall, took) = self.timed(Mix::Interpreter, |ctx| {
            ctx.trace.begin("interp.exec.run", name, cfg);
            let result = Interpreter::new(&cell.module, cell.exec.clone())
                .run_decoded(&cell.decoded, "main");
            ctx.trace.end();
            result
        });
        let Some(outcome) = self.check(cell, samples, result) else {
            return took;
        };
        samples.ms.push(took);
        samples.wall_ms.push(wall);
        samples
            .roi_ms
            .push(outcome.stats.wall_ns[Phase::Roi as usize] as f64 / 1e6);
        took
    }

    /// Runs one cell to completion through `ExecSession`, `quantum`
    /// instructions per grant (`None`: one unlimited grant).
    fn run_session(&mut self, cell: &Cell, samples: &mut CellSamples, quantum: Option<u64>) -> f64 {
        let (name, cfg) = self.names(cell.prog, cell.kind);
        let ((result, quanta), wall, took) = self.timed(Mix::Interpreter, |ctx| {
            ctx.trace.begin("interp.session.run", name, cfg);
            let mut quanta = 0;
            let session = ExecSession::spawn(Arc::clone(&cell.decoded), "main", cell.exec.clone());
            let result = match session {
                Err(e) => Err(e),
                Ok(mut session) => loop {
                    quanta += 1;
                    ctx.trace.begin("interp.session.step", name, cfg);
                    let step = session.step(quantum);
                    ctx.trace.end();
                    match step {
                        Ok(Step::Running) => {}
                        Ok(Step::Done(outcome)) => break Ok(*outcome),
                        Err(e) => break Err(e),
                    }
                },
            };
            ctx.trace.end();
            (result, quanta)
        });
        let Some(outcome) = self.check(cell, samples, result) else {
            return took;
        };
        if samples.insts != 0 && samples.insts != outcome.fuel_ticks {
            self.fail(format!(
                "{name}/{cfg}: instruction count differs between runs"
            ));
            return took;
        }
        samples.ms.push(took);
        samples.wall_ms.push(wall);
        samples.quanta = quanta;
        samples.insts = outcome.fuel_ticks;
        took
    }

    /// Records the first set of cells' [`Shape`] and fails on any later
    /// set that disagrees with it.
    fn check_shape(&mut self, first: &mut Option<Shape>, cells: &[Cell]) {
        let shape = Shape::of(cells);
        match first {
            None => *first = Some(shape),
            Some(f) if !f.agrees(&shape) => {
                self.attempted += 1;
                self.fail(format!(
                    "compiled modules differ between repetitions: {f:?} vs {shape:?}"
                ));
            }
            Some(_) => self.attempted += 1,
        }
    }

}

/// `(translations inserted, RTE trims)` summed over an ADE pass trace's
/// decision events.
fn decision_counts(tracer: &Tracer) -> (u64, u64) {
    let sum = |e: &ade_obs::Event, keys: &[&str]| -> u64 {
        e.fields
            .iter()
            .filter(|(k, _)| keys.contains(k))
            .map(|(_, v)| if let FieldValue::U64(n) = v { *n } else { 0 })
            .sum()
    };
    let mut counts = (0, 0);
    for e in tracer
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::Instant)
    {
        match (e.cat, e.name.as_str()) {
            ("transform", "translations") => {
                counts.0 += sum(e, &["enc-inserted", "dec-inserted", "add-inserted"])
            }
            ("rte", "trims") => counts.1 += sum(e, &["trim_enc", "trim_dec", "trim_add"]),
            _ => {}
        }
    }
    counts
}

/// Counts decoded instructions by the name of their variant: `(names
/// starting with "Fused", names ending with "Bulk")`. Matching on the
/// `Debug` name makes a variant that no longer exists count zero rather
/// than break the build.
fn decoded_variants(decoded: &DecodedModule) -> (u64, u64) {
    let mut counts = (0, 0);
    for inst in decoded.funcs.iter().flat_map(|f| f.code.iter()) {
        let text = format!("{inst:?}");
        let name = text
            .split(|c: char| !c.is_alphanumeric())
            .next()
            .unwrap_or("");
        counts.0 += u64::from(name.starts_with("Fused"));
        counts.1 += u64::from(name.ends_with("Bulk"));
    }
    counts
}

fn ir_lines(module: &Module) -> u64 {
    ade_ir::print::print_module(module).lines().count() as u64
}

/// The deterministic facts of one set of lowered cells, which must repeat
/// exactly between set-ups.
#[derive(Clone, Debug, PartialEq)]
struct Shape {
    /// Printed IR lines of the `ade` modules.
    ir_lines: u64,
    enums_created: u64,
    /// `(translations, RTE trims)`, when every `ade` compile was traced.
    decisions: Option<(u64, u64)>,
    /// `(fused, bulk)` decoded instructions per configuration.
    variants: [(u64, u64); 2],
}

impl Shape {
    fn of(cells: &[Cell]) -> Shape {
        let ade: Vec<&Cell> = cells.iter().filter(|c| c.kind == ConfigKind::Ade).collect();
        let decisions = ade.iter().try_fold((0, 0), |acc, c| {
            c.pass_counts.map(|(t, r)| (acc.0 + t, acc.1 + r))
        });
        Shape {
            ir_lines: ade.iter().map(|c| ir_lines(&c.module)).sum(),
            enums_created: ade
                .iter()
                .map(|c| c.report.as_ref().map_or(0, |r| r.enums_created as u64))
                .sum(),
            decisions,
            variants: KINDS.map(|kind| {
                cells
                    .iter()
                    .filter(|c| c.kind == kind)
                    .map(|c| decoded_variants(&c.decoded))
                    .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
            }),
        }
    }

    /// Equal, ignoring decision counts that one side did not record.
    fn agrees(&self, other: &Shape) -> bool {
        let decisions = match (self.decisions, other.decisions) {
            (Some(a), Some(b)) => a == b,
            _ => true,
        };
        decisions
            && (self.ir_lines, self.enums_created, self.variants)
                == (other.ir_lines, other.enums_created, other.variants)
    }
}

/// Metrics in output order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            return match bless(&all_benchmarks()) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("e2e-bench: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(e) => {
            eprintln!("e2e-bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let calibrations = [Mix::Interpreter, Mix::Compiler].map(Calibration::new);
    // Set-up time counts from here: the references are the benchmark's own.
    let started = Instant::now();
    let benches = all_benchmarks();
    let expected = match parse_expected(&benches) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("e2e-bench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ctx = Ctx {
        started,
        trace: Trace::new(),
        args,
        benches,
        expected,
        attempted: 0,
        failed: 0,
        notes: Vec::new(),
        calibrations,
    };
    let (metrics, table) = run(&mut ctx);
    print!("{table}");
    for note in &ctx.notes {
        println!("error: {note}");
    }
    println!(
        "# {} seed {} trace {}: error_rate {} ({} failed of {} attempted); available_parallelism {}",
        ctx.args.workload.name(),
        ctx.args.seed,
        u8::from(ctx.args.traced),
        ctx.failed as f64 / ctx.attempted.max(1) as f64,
        ctx.failed,
        ctx.attempted,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        ctx.failed == 0,
        ctx.attempted,
        ctx.failed,
        metrics.to_json()
    );
    ExitCode::SUCCESS
}

/// Wall times of untraced and traced repetitions.
#[derive(Default)]
struct Reps {
    untraced: Vec<f64>,
    traced: Vec<f64>,
}

impl Reps {
    fn push(&mut self, traced: bool, ms: f64) {
        if traced {
            &mut self.traced
        } else {
            &mut self.untraced
        }
        .push(ms);
    }

    /// Median traced minus median untraced; zero if either is missing.
    fn overhead(&self) -> f64 {
        if self.traced.is_empty() || self.untraced.is_empty() {
            0.0
        } else {
            median(&self.traced) - median(&self.untraced)
        }
    }
}

type Key = (usize, ConfigKind);

/// What one run measured, and the state its passes carry.
struct Measured {
    /// The last set-up's cells.
    cells: Vec<Cell>,
    samples: BTreeMap<Key, CellSamples>,
    /// Wall times of the set-ups and passes, for the tracing overhead.
    setup: Reps,
    passes: Reps,
    /// Calibrated time of each untraced set-up, in milliseconds.
    setup_ms: Vec<f64>,
    /// Summed calibrated times of each untraced pass's operations, in
    /// milliseconds.
    pass_ms: Vec<f64>,
    /// Passes run so far; traced runs trace the odd ones.
    pass: u32,
    /// Traced runs: the first set of lowered cells' [`Shape`].
    shape: Option<Shape>,
}

fn key(cell: &Cell) -> Key {
    (cell.prog, cell.kind)
}

/// Sets up `SETUP_REPEATS` times and runs timed passes after every
/// set-up, so that each cell's samples spread over the whole run.
fn measure(ctx: &mut Ctx) -> Measured {
    let all: Vec<Key> = (0..ctx.benches.len())
        .flat_map(|p| KINDS.map(|k| (p, k)))
        .collect();
    let seconds = Duration::from_secs(ctx.args.seconds);
    let mut m = Measured {
        cells: Vec::new(),
        samples: BTreeMap::new(),
        setup: Reps::default(),
        passes: Reps::default(),
        setup_ms: Vec::new(),
        pass_ms: Vec::new(),
        pass: 0,
        shape: None,
    };
    for rep in 0..SETUP_REPEATS {
        // The last repetition is traced, so the kept cells carry the ADE
        // pass decision counts.
        let on = ctx.args.traced && (SETUP_REPEATS - rep) % 2 == 1;
        ctx.trace.set_on(on);
        // The first set-up counts from the start of `main` (see there);
        // the reference runs are left out of its calibrated time.
        let before = if rep == 0 {
            ms(ctx.started.elapsed())
        } else {
            0.0
        };
        let t = Instant::now();
        ctx.restart_calibration();
        ctx.trace.begin_root("setup", rep);
        let (built, _, mut calibrated) = ctx.timed(Mix::Compiler, |ctx| {
            all.iter().map(|&(p, k)| ctx.build(p, k)).collect::<Vec<_>>()
        });
        let mut fresh = Vec::new();
        for (&(p, k), module) in all.iter().zip(built) {
            let (cell, _, took) = ctx.timed(Mix::Compiler, |ctx| ctx.lower(p, k, module));
            calibrated += took;
            fresh.extend(cell);
        }
        ctx.trace.end();
        m.setup.push(on, before + ms(t.elapsed()));
        if !on {
            m.setup_ms.push(before + calibrated);
        }
        if ctx.args.traced {
            ctx.check_shape(&mut m.shape, &fresh);
        }
        m.cells = fresh;
        // Two passes per set-up at least: a median needs samples, and a
        // traced run's traced passes are the odd ones.
        let until = Instant::now() + seconds / SETUP_REPEATS;
        run_passes(ctx, &mut m, 2 * (rep + 1), until);
    }
    m
}

/// Runs timed passes until `until`, and until `min_passes` have run in
/// all.
fn run_passes(ctx: &mut Ctx, m: &mut Measured, min_passes: u32, until: Instant) {
    while m.pass < min_passes || Instant::now() < until {
        let pass = m.pass;
        let on = ctx.args.traced && pass % 2 == 1;
        ctx.trace.set_on(on);
        ctx.restart_calibration();
        let t = Instant::now();
        ctx.trace.begin_root("pass", pass);
        let mut timed = 0.0;
        for i in shuffled(m.cells.len(), ctx.args.seed, pass) {
            let cell = &m.cells[i];
            let s = m.samples.entry(key(cell)).or_default();
            timed += match ctx.args.workload {
                Workload::Suite => ctx.run_batch(cell, s),
                Workload::Sliced => ctx.run_session(cell, s, Some(QUANTUM)),
            };
        }
        ctx.trace.end();
        m.passes.push(on, ms(t.elapsed()));
        if !on {
            m.pass_ms.push(timed);
        }
        m.pass += 1;
    }
}

/// The end-to-end times of one run.
struct Summary {
    ade_ms: f64,
    memoir_ms: f64,
    /// Geomean of the per-program memoir/ade ratios.
    speedup: f64,
    /// One pass over all cells: the sum of the cells' medians.
    pass_s: f64,
}

/// Summarizes the programs measured under both configurations by each
/// cell's median calibrated time.
fn summarize(samples: &BTreeMap<Key, CellSamples>) -> Summary {
    let per_cell: BTreeMap<Key, f64> = samples
        .iter()
        .filter(|(_, s)| !s.ms.is_empty())
        .map(|(&k, s)| (k, median(&s.ms)))
        .collect();
    let mut complete: Vec<usize> = per_cell.keys().map(|&(p, _)| p).collect();
    complete.dedup();
    complete.retain(|&p| KINDS.iter().all(|&k| per_cell.contains_key(&(p, k))));
    let config_ms = |kind| geomean(complete.iter().map(|&p| per_cell[&(p, kind)]));
    Summary {
        ade_ms: config_ms(ConfigKind::Ade),
        memoir_ms: config_ms(ConfigKind::Memoir),
        speedup: geomean(
            complete
                .iter()
                .map(|&p| per_cell[&(p, ConfigKind::Memoir)] / per_cell[&(p, ConfigKind::Ade)]),
        ),
        pass_s: per_cell.values().sum::<f64>() / 1e3,
    }
}

fn run(ctx: &mut Ctx) -> (Metrics, String) {
    let measured = measure(ctx);
    let mut table = String::new();
    for (&(prog, kind), s) in &measured.samples {
        if !s.ms.is_empty() {
            let _ = writeln!(
                table,
                "{:>5} {:<7} calibrated ms {} | wall ms {}",
                ctx.benches[prog].abbrev,
                kind.name(),
                describe(&s.ms),
                describe(&s.wall_ms)
            );
        }
    }
    let pass_s: Vec<f64> = measured.pass_ms.iter().map(|m| m / 1e3).collect();
    let setup_s: Vec<f64> = measured.setup_ms.iter().map(|m| m / 1e3).collect();
    let wall_setup_s: Vec<f64> = measured.setup.untraced.iter().map(|m| m / 1e3).collect();
    let _ = writeln!(table, "calibrated pass s {}", describe(&pass_s));
    let _ = writeln!(table, "calibrated setup s {}", describe(&setup_s));
    let _ = writeln!(table, "wall setup s {}", describe(&wall_setup_s));
    for mix in [Mix::Interpreter, Mix::Compiler] {
        let runs = &ctx.calibrations[mix as usize].runs_ms;
        let _ = writeln!(table, "{} ms {}", mix.layer(), describe(runs));
    }
    if ctx.args.traced {
        return (layer_metrics(ctx, measured), table);
    }
    let ir_klines: u64 = measured
        .cells
        .iter()
        .filter(|c| c.kind == ConfigKind::Ade)
        .map(|c| ir_lines(&c.module))
        .sum();
    let mut m = Metrics::default();
    let s = summarize(&measured.samples);
    m.add("ade_ms", s.ade_ms, "ms");
    m.add("memoir_ms", s.memoir_ms, "ms");
    m.add("wall_speedup", s.speedup, "x");
    m.add("pass_s", s.pass_s, "s");
    m.add("ir_klines", ir_klines as f64 / 1e3, "klines");
    m.add("setup_s", median(&setup_s), "s");
    (m, table)
}

/// The traced run's per-layer metrics. First runs the comparison
/// executions for what the workload itself does not isolate: batch times
/// on `sliced`, session instruction counts on `suite`.
fn layer_metrics(ctx: &mut Ctx, measured: Measured) -> Metrics {
    let workload = ctx.args.workload;
    let Measured {
        cells,
        samples,
        setup,
        passes,
        ..
    } = measured;
    ctx.trace.set_on(true);
    let mut compared: BTreeMap<Key, CellSamples> = BTreeMap::new();
    match workload {
        Workload::Sliced => {
            for rep in 0..BATCH_COMPARISON_RUNS {
                ctx.trace.begin_root("batch", rep);
                for cell in &cells {
                    ctx.run_batch(cell, compared.entry(key(cell)).or_default());
                }
                ctx.trace.end();
            }
        }
        Workload::Suite => {
            ctx.trace.begin_root("probe", 0);
            for cell in &cells {
                ctx.run_session(cell, compared.entry(key(cell)).or_default(), None);
            }
            ctx.trace.end();
        }
    }
    let (batch, session) = match workload {
        Workload::Suite => (&samples, &compared),
        Workload::Sliced => (&compared, &samples),
    };

    let times = ctx.trace.layer_times();
    let shape = Shape::of(&cells);
    let mut m = Metrics::default();
    m.add("workloads.build_ms", times.total("workloads.build"), "ms");
    let input_lines: u64 = ctx
        .benches
        .iter()
        .map(|b| ir_lines(&(b.build)(SCALE)))
        .sum();
    m.add("workloads.ir_klines_in", input_lines as f64 / 1e3, "klines");
    m.add("core.enums_created", shape.enums_created as f64, "count");
    let (translations, trims) = shape.decisions.unwrap_or_default();
    m.add("core.translations", translations as f64, "count");
    m.add("core.rte_trims", trims as f64, "count");
    for layer in ["ade", "plan", "transform", "select", "peephole", "cleanup"] {
        m.add(
            format!("core.{layer}_ms"),
            times.total(&format!("core.{layer}")),
            "ms",
        );
    }
    m.add("ir.verify_ms", times.total("ir.verify"), "ms");
    m.add("interp.decode_ms", times.total("interp.decode"), "ms");

    let model = CostModel::intel_x64();
    let mut modeled: BTreeMap<usize, f64> = BTreeMap::new();
    let mut peak = 0;
    for (kind, (fused, bulk)) in KINDS.into_iter().zip(shape.variants) {
        let cfg = kind.name();
        // Sum over this configuration's programs.
        let of = |set: &BTreeMap<Key, CellSamples>, f: &dyn Fn(&CellSamples) -> f64| -> f64 {
            set.iter()
                .filter(|((_, k), _)| *k == kind)
                .map(|(_, s)| f(s))
                .sum()
        };
        m.add(format!("interp.decode.fused.{cfg}"), fused as f64, "count");
        m.add(
            format!("interp.decode.bulk_loops.{cfg}"),
            bulk as f64,
            "count",
        );
        let run_ms = of(batch, &|s| median(&s.ms));
        let insts = of(session, &|s| s.insts as f64);
        m.add(format!("interp.exec.run_ms.{cfg}"), run_ms, "ms");
        let roi_ms = of(batch, &|s| median(&s.roi_ms));
        m.add(format!("interp.exec.roi_ms.{cfg}"), roi_ms, "ms");
        m.add(format!("interp.exec.insts.{cfg}"), insts, "count");
        let per_inst = if insts > 0.0 {
            run_ms * 1e6 / insts
        } else {
            0.0
        };
        m.add(format!("interp.exec.ns_per_inst.{cfg}"), per_inst, "ns");
        let (quanta, per_quantum) = if workload == Workload::Sliced {
            let quanta = of(session, &|s| s.quanta as f64);
            let sliced_ms = of(session, &|s| median(&s.ms));
            (quanta, (sliced_ms - run_ms) * 1e6 / quanta.max(1.0))
        } else {
            (0.0, 0.0)
        };
        m.add(format!("interp.session.quanta.{cfg}"), quanta, "count");
        m.add(
            format!("interp.session.ns_per_quantum.{cfg}"),
            per_quantum,
            "ns",
        );

        let mut totals = OpCounts::default();
        for (&(prog, _), s) in samples.iter().filter(|((_, k), _)| *k == kind) {
            let Some(f) = &s.fingerprint else { continue };
            totals = totals.merged(&f.totals());
            // memoir's modeled time over ade's, per program.
            let cost = model.time_ns(&f.totals());
            let ratio = modeled.entry(prog).or_insert(1.0);
            if kind == ConfigKind::Ade {
                *ratio /= cost;
                peak += f.peak_bytes;
            } else {
                *ratio *= cost;
            }
        }
        let row = |imp| {
            CollOp::ALL
                .iter()
                .map(|&op| totals.get(imp, op))
                .sum::<u64>() as f64
        };
        m.add(
            format!("collections.ops.{cfg}"),
            totals.total() as f64,
            "count",
        );
        let sparse = totals.sparse_accesses() as f64;
        m.add(
            format!("collections.sparse_accesses.{cfg}"),
            sparse,
            "count",
        );
        let dense = totals.dense_accesses() as f64;
        m.add(format!("collections.dense_accesses.{cfg}"), dense, "count");
        let words = totals.total_op(CollOp::IterWord) as f64;
        m.add(format!("collections.iter_words.{cfg}"), words, "count");
        for imp in ImplKind::ALL {
            m.add(format!("collections.ops.{imp}.{cfg}"), row(imp), "count");
        }
        m.add(
            format!("interp.enum.enc_ops.{cfg}"),
            row(ImplKind::EnumEnc),
            "count",
        );
        m.add(
            format!("interp.enum.dec_ops.{cfg}"),
            row(ImplKind::EnumDec),
            "count",
        );
    }
    m.add("modeled_speedup", geomean(modeled.into_values()), "x");
    m.add("ade_peak_mb", peak as f64 / 1e6, "MB");

    // A leaf span's self time is its total, so only the spans with
    // children get a self-time entry.
    m.add(
        "interp.session.run_ms",
        times.total("interp.session.run"),
        "ms",
    );
    let harness: f64 = ["setup", "pass", "batch", "probe"]
        .iter()
        .map(|l| times.self_of(l))
        .sum();
    m.add("self.harness_ms", harness, "ms");
    m.add("self.core.ade_ms", times.self_of("core.ade"), "ms");
    let session_self = times.self_of("interp.session.run");
    m.add("self.interp.session_ms", session_self, "ms");
    for mix in [Mix::Interpreter, Mix::Compiler] {
        let runs = &ctx.calibrations[mix as usize].runs_ms;
        m.add(format!("{}_ms", mix.layer()), median(runs), "ms");
    }
    m.add("trace.root_ms", times.root_ms, "ms");
    m.add("trace.self_sum_ms", times.self_sum(), "ms");
    let gap = ctx.trace.max_self_gap_ns() as f64;
    m.add("trace.max_self_gap_ns", gap, "ns");
    m.add("trace.overhead_setup_ms", setup.overhead(), "ms");
    m.add("trace.overhead_pass_ms", passes.overhead(), "ms");

    let path = format!(
        "{OUT_DIR}/trace-{}-seed{}.jsonl",
        workload.name(),
        ctx.args.seed
    );
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, ctx.trace.to_json_lines(workload.name())));
    if let Err(e) = written {
        eprintln!("e2e-bench: could not write {path}: {e}");
    }
    m
}
