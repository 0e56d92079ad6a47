//! The `adec` compiler driver, as a library (the `adec` binary is a thin
//! wrapper so everything is testable in-process).
//!
//! Pipeline: parse textual IR → verify → (optionally) run ADE under a
//! named artifact configuration → verify again → print the result
//! and/or execute it with statistics.
//!
//! ```
//! use ade_driver::{drive, Options};
//!
//! let opts = Options {
//!     config: "ade".to_string(),
//!     run: true,
//!     ..Options::default()
//! };
//! let out = drive(
//!     "fn @main() -> void {\n  %x = const 2u64\n  %y = add %x, %x\n  print %y\n  ret\n}\n",
//!     &opts,
//! ).expect("drives");
//! assert!(out.program_output.as_deref() == Some("4\n"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt;

use ade_interp::{DecodeOptions, DecodedModule, Interpreter};
use ade_obs::{MetricsRegistry, Tracer};
use ade_workloads::{Config, ConfigKind};

/// Where the human-readable pipeline trace goes (`--trace[=FILE]`).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// No tracing.
    #[default]
    Off,
    /// Render the trace to stderr after the run.
    Stderr,
    /// Write the rendered trace to a file.
    File(String),
}

/// Where the selection-ledger explain report goes (`--explain[=FILE]`).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub enum ExplainMode {
    /// No explain report.
    #[default]
    Off,
    /// Render the report to stderr after compilation.
    Stderr,
    /// Write the rendered report to a file.
    File(String),
}

/// Driver options (mirrors the `adec` CLI flags).
#[derive(Clone, Debug)]
pub struct Options {
    /// Artifact configuration name (`memoir`, `ade`, `ade-noredundant`,
    /// …). `memoir` skips the transformation.
    pub config: String,
    /// Execute the program after compilation.
    pub run: bool,
    /// Print the (transformed) IR.
    pub emit_ir: bool,
    /// Print execution statistics (implies `run`).
    pub stats: bool,
    /// Entry function name.
    pub entry: String,
    /// Human-readable pipeline trace destination.
    pub trace: TraceMode,
    /// Write machine-readable trace events (JSON) to this path.
    pub trace_json: Option<String>,
    /// Write the execution's metrics snapshot (JSON, schema
    /// `ade-metrics-v1`) to this path (implies `run`): stop-reason
    /// tallies, fuel ticks, quantum grants and the heap high-water
    /// mark.
    pub metrics: Option<String>,
    /// Selection-ledger explain report destination (`--explain[=FILE]`):
    /// per keyed site, the applied implementations and the rule that
    /// decided them.
    pub explain: ExplainMode,
    /// Abort execution after this many interpreted instructions
    /// (`--fuel`; default: unlimited).
    pub fuel: Option<u64>,
    /// Abort execution when the heap exceeds this many live cells
    /// (`--max-heap-cells`; default: unlimited).
    pub max_heap_cells: Option<usize>,
    /// Abort execution past this call depth (`--max-depth`; default:
    /// unlimited).
    pub max_depth: Option<u32>,
    /// Execute the reference decode: no loop plans and no direct
    /// yields (`--reference`; default: off). Counts, figures and
    /// traps are identical either way — the flag isolates the decode
    /// optimizations when debugging the interpreter.
    pub reference: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            config: "ade".to_string(),
            run: false,
            emit_ir: false,
            stats: false,
            entry: "main".to_string(),
            trace: TraceMode::Off,
            trace_json: None,
            metrics: None,
            explain: ExplainMode::Off,
            fuel: None,
            max_heap_cells: None,
            max_depth: None,
            reference: false,
        }
    }
}

impl Options {
    /// Whether any trace output was requested.
    pub fn wants_trace(&self) -> bool {
        self.trace != TraceMode::Off || self.trace_json.is_some()
    }

    /// Whether an explain report was requested.
    pub fn wants_explain(&self) -> bool {
        self.explain != ExplainMode::Off
    }
}

/// Driver output.
#[derive(Clone, Debug, Default)]
pub struct DriveOutput {
    /// The transformed IR text (when `emit_ir`).
    pub ir: Option<String>,
    /// What the program printed (when `run`).
    pub program_output: Option<String>,
    /// Statistics summary (when `stats`).
    pub stats: Option<String>,
    /// ADE pass report, if the configuration ran the pass.
    pub report: Option<ade_core::AdeReport>,
    /// Pipeline trace events (when [`Options::wants_trace`]).
    pub events: Vec<ade_obs::Event>,
    /// Rendered metrics snapshot JSON (when `Options::metrics` is set).
    pub metrics: Option<String>,
    /// Rendered selection-ledger explain report (when
    /// [`Options::wants_explain`]).
    pub explain: Option<String>,
}

/// A driver failure with a phase tag.
#[derive(Debug)]
pub struct DriveError {
    /// Which phase failed (`parse`, `verify`, `config`, `exec`).
    pub phase: &'static str,
    /// Human-readable message.
    pub message: String,
}

impl DriveError {
    /// The `adec` process exit code for this failure: 3 for a rejected
    /// input (`parse`/`verify`), 2 for a usage-class mistake (`config`),
    /// 1 for a guest failure at runtime (`exec`). 0 is success.
    #[must_use]
    pub fn exit_code(&self) -> i32 {
        match self.phase {
            "parse" | "verify" => 3,
            "config" => 2,
            _ => 1,
        }
    }
}

impl fmt::Display for DriveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.phase, self.message)
    }
}

impl std::error::Error for DriveError {}

fn err(phase: &'static str, message: impl fmt::Display) -> DriveError {
    DriveError {
        phase,
        message: message.to_string(),
    }
}

/// Runs the driver pipeline over IR text.
///
/// # Errors
///
/// Returns a [`DriveError`] naming the failing phase: `parse` for syntax
/// errors, `verify` for ill-formed IR (before or after the pass),
/// `config` for unknown configuration names, `exec` for runtime failures.
pub fn drive(source: &str, options: &Options) -> Result<DriveOutput, DriveError> {
    let kind = ConfigKind::from_name(&options.config).ok_or_else(|| {
        err(
            "config",
            format!("unknown configuration `{}`", options.config),
        )
    })?;
    let config = Config::new(kind);
    let tracer = if options.wants_trace() {
        Tracer::enabled()
    } else {
        Tracer::disabled()
    };

    let mut module = {
        let _span = tracer.span("driver", "parse");
        ade_ir::parse::parse_module(source).map_err(|e| err("parse", e))?
    };
    {
        let _span = tracer.span("driver", "verify");
        ade_ir::verify::verify_module(&module).map_err(|e| err("verify", e))?;
    }

    let report = {
        let _span = tracer.span("driver", "compile");
        config.compile_traced(&mut module, &tracer)
    };
    {
        let _span = tracer.span("driver", "verify-post");
        ade_ir::verify::verify_module(&module)
            .map_err(|e| err("verify", format!("after ADE: {e}")))?;
    }

    let mut out = DriveOutput {
        report,
        ..DriveOutput::default()
    };
    if options.emit_ir {
        out.ir = Some(ade_ir::print::print_module(&module));
    }
    if options.wants_explain() {
        let ledger = match &out.report {
            Some(report) => report.ledger.render_report(),
            None => format!(
                "no ADE pass ran (configuration `{}`); no selection decisions to explain\n",
                options.config
            ),
        };
        out.explain = Some(ledger + &explain_generic_loops(&module));
    }
    if options.run || options.stats {
        let mut exec = config.exec.clone();
        exec.fuel = options.fuel.or(exec.fuel);
        exec.max_heap_cells = options.max_heap_cells.or(exec.max_heap_cells);
        exec.max_depth = options.max_depth.or(exec.max_depth);
        let metrics = options.metrics.as_ref().map(|_| MetricsRegistry::enabled());
        if let Some(m) = &metrics {
            exec.metrics = m.clone();
        }
        let outcome = {
            let _span = tracer.span("driver", "exec");
            let decoded = DecodedModule::decode_with(
                &module,
                &DecodeOptions {
                    reference: options.reference,
                },
            );
            Interpreter::new(&module, exec)
                .run_decoded(&decoded, &options.entry)
                .map_err(|e| err("exec", e))?
        };
        if options.stats {
            out.stats = Some(format_stats(&outcome.stats));
        }
        out.program_output = Some(outcome.output);
        out.metrics = metrics.map(|m| m.snapshot().to_json());
    }
    out.events = tracer.events();
    Ok(out)
}

/// The decoder's part of `--explain`: how many loops the plan compiler
/// of the default decode turned into loop plans, then each loop it left
/// to generic dispatch as `@func#slot reason`
/// ([`ade_interp::DFunc::generic_loops`]). Decoded with the default
/// options whatever `--reference` says, so the report stays a pure
/// function of the compiled module.
fn explain_generic_loops(module: &ade_ir::Module) -> String {
    use ade_interp::decode::DInst;
    let decoded = DecodedModule::decode_with(module, &DecodeOptions::default());
    let plans = decoded
        .funcs
        .iter()
        .flat_map(|f| f.code.iter())
        .filter(|i| {
            matches!(
                i.own(),
                DInst::ForEachBulk { .. } | DInst::ForRangeBulk { .. }
            )
        })
        .count();
    let generic: Vec<String> = decoded
        .funcs
        .iter()
        .flat_map(|f| {
            f.generic_loops
                .iter()
                .map(|(slot, why)| format!("  @{}#{slot} {why}\n", f.name))
        })
        .collect();
    format!(
        "\ndecoder: {plans} loop(s) run as plans, {} left generic\n{}",
        generic.len(),
        generic.concat()
    )
}

fn format_stats(stats: &ade_interp::Stats) -> String {
    use ade_interp::cost::CostModel;
    let totals = stats.totals();
    let intel = CostModel::intel_x64();
    let arm = CostModel::aarch64();
    format!(
        "sparse accesses: {}\ndense accesses:  {}\npeak bytes:      {}\nwall:            {} ns\nmodeled intel:   {:.0} ns\nmodeled aarch64: {:.0} ns\n",
        totals.sparse_accesses(),
        totals.dense_accesses(),
        stats.peak_bytes,
        stats.wall_total_ns(),
        intel.time_ns(&totals),
        arm.time_ns(&totals),
    )
}

/// The `adec` usage text (`--help`, and the trailer of usage errors).
pub const USAGE: &str = "\
usage: adec [--config NAME] [--run] [--emit-ir] [--stats] [--entry F]
            [--fuel N] [--max-heap-cells N] [--max-depth N]
            [--reference] [--trace[=FILE]] [--trace-json FILE]
            [--metrics FILE] [--explain[=FILE]] INPUT.memoir

  --config NAME, -c    artifact configuration (memoir, ade, ade-sparse, ...)
  --run, -r            execute the program after compilation
  --emit-ir            print the transformed IR (the default action)
  --stats              print execution statistics (implies --run)
  --entry F            entry function name (default: main)
  --fuel N             abort execution after N interpreted instructions
  --max-heap-cells N   abort execution past N live heap cells
  --max-depth N        abort execution past call depth N
  --reference          run the reference interpreter: no loop plans, no
                       direct yields (counts, figures and traps are
                       identical; isolates the decode optimizations)
  --trace[=FILE]       human-readable pass/decision log to stderr (or FILE)
  --trace-json FILE    machine-readable trace events as JSON
  --metrics FILE       execution metrics snapshot as JSON (implies --run):
                       stop-reason tallies, fuel ticks, quantum grants and
                       the heap high-water mark (schema ade-metrics-v1)
  --explain[=FILE]     selection-ledger report to stderr (or FILE): per keyed
                       site, the applied set/map implementations and whether
                       a select(...) directive or the static default decided;
                       then each loop the decoder left generic, with why
  --help, -h           show this message

exit codes: 0 success, 1 guest trap or limit at runtime, 2 usage error
(including unknown --config, unreadable input and unwritable output
paths), 3 parse or verify error
";

/// A parsed `adec` command line.
#[derive(Clone, Debug)]
pub enum Cli {
    /// `--help`: print [`USAGE`] and exit successfully.
    Help,
    /// Compile the input file under the given options.
    Drive(Box<Options>, String),
}

fn parse_limit(value: Option<String>, flag: &str) -> Result<u64, String> {
    let v = value.ok_or_else(|| format!("missing value for {flag}"))?;
    v.parse()
        .map_err(|_| format!("invalid value for {flag}: `{v}`"))
}

/// Parses `adec` command-line arguments into options plus an input path.
///
/// # Errors
///
/// Returns a usage message on unknown flags, missing flag values, or a
/// missing input path.
pub fn parse_args<I: Iterator<Item = String>>(args: I) -> Result<Cli, String> {
    let mut options = Options::default();
    let mut input: Option<String> = None;
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => return Ok(Cli::Help),
            "--config" | "-c" => {
                options.config = args.next().ok_or("missing value for --config")?;
            }
            "--run" | "-r" => options.run = true,
            "--emit-ir" => options.emit_ir = true,
            "--stats" => options.stats = true,
            "--entry" => {
                options.entry = args.next().ok_or("missing value for --entry")?;
            }
            "--fuel" => {
                options.fuel = Some(parse_limit(args.next(), "--fuel")?);
            }
            "--max-heap-cells" => {
                let cells = parse_limit(args.next(), "--max-heap-cells")?;
                let cells = usize::try_from(cells)
                    .map_err(|_| "value for --max-heap-cells out of range".to_string())?;
                options.max_heap_cells = Some(cells);
            }
            "--max-depth" => {
                let depth = parse_limit(args.next(), "--max-depth")?;
                let depth = u32::try_from(depth)
                    .map_err(|_| "value for --max-depth out of range".to_string())?;
                options.max_depth = Some(depth);
            }
            "--reference" => options.reference = true,
            "--trace" => options.trace = TraceMode::Stderr,
            "--trace-json" => {
                options.trace_json = Some(args.next().ok_or("missing value for --trace-json")?);
            }
            "--metrics" => {
                options.metrics = Some(args.next().ok_or("missing value for --metrics")?);
                options.run = true;
            }
            "--explain" => options.explain = ExplainMode::Stderr,
            flag if flag.starts_with("--trace=") => {
                options.trace = TraceMode::File(flag["--trace=".len()..].to_string());
            }
            flag if flag.starts_with("--explain=") => {
                options.explain = ExplainMode::File(flag["--explain=".len()..].to_string());
            }
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag `{flag}`"));
            }
            path => {
                if input.replace(path.to_string()).is_some() {
                    return Err("multiple input files".to_string());
                }
            }
        }
    }
    let input = input.ok_or("missing input file")?;
    if !options.run && !options.emit_ir && !options.stats {
        options.emit_ir = true; // default action
    }
    Ok(Cli::Drive(Box::new(options), input))
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROGRAM: &str = r#"
fn @main() -> void {
  %work = new Seq<u64>
  %lo = const 0u64
  %hi = const 40u64
  %filled = forrange %lo, %hi carry(%work) as (%i: u64, %s: Seq<u64>) {
    %five = const 5u64
    %v = rem %i, %five
    %n = size %s
    %s1 = insert %s, %n, %v
    yield %s1
  }
  %seen = new Set<u64>
  %uniq, %sout = foreach %filled carry(%lo, %seen) as (%i: u64, %v: u64, %acc: u64, %ss: Set<u64>) {
    %h = has %ss, %v
    %acc2, %s2 = if %h then {
      yield %acc, %ss
    } else {
      %s1 = insert %ss, %v
      %one = const 1u64
      %a1 = add %acc, %one
      yield %a1, %s1
    }
    yield %acc2, %s2
  }
  print %uniq
  ret
}
"#;

    #[test]
    fn drives_memoir_and_ade_to_the_same_output() {
        let memoir = drive(
            PROGRAM,
            &Options {
                config: "memoir".to_string(),
                run: true,
                ..Options::default()
            },
        )
        .expect("memoir drives");
        let ade = drive(
            PROGRAM,
            &Options {
                config: "ade".to_string(),
                run: true,
                emit_ir: true,
                stats: true,
                ..Options::default()
            },
        )
        .expect("ade drives");
        assert_eq!(memoir.program_output, ade.program_output);
        assert_eq!(ade.program_output.as_deref(), Some("5\n"));
        let ir = ade.ir.expect("ir emitted");
        assert!(ir.contains("Set{Bit}<idx>"), "{ir}");
        assert!(ade.stats.expect("stats").contains("sparse accesses"));
        assert_eq!(ade.report.expect("report").enums_created, 1);
    }

    #[test]
    fn metrics_snapshot_is_valid_deterministic_json() {
        let run = || {
            drive(
                PROGRAM,
                &Options {
                    run: true,
                    metrics: Some("m.json".to_string()),
                    fuel: Some(1_000_000),
                    ..Options::default()
                },
            )
            .expect("drives")
            .metrics
            .expect("metrics snapshot rendered")
        };
        let snapshot = run();
        ade_obs::json::validate(&snapshot).expect("valid JSON");
        assert!(snapshot.contains("\"schema\":\"ade-metrics-v1\""), "{snapshot}");
        assert!(snapshot.contains(r#"exec_stops_total{reason=\"ok\"}"#), "{snapshot}");
        assert!(snapshot.contains("exec_fuel_ticks_total"), "{snapshot}");
        assert!(snapshot.contains("exec_heap_hwm_bytes"), "{snapshot}");
        assert_eq!(snapshot, run(), "snapshot is run-to-run deterministic");
    }

    #[test]
    fn every_configuration_name_is_accepted() {
        for kind in ConfigKind::ALL {
            let opts = Options {
                config: kind.name().to_string(),
                run: true,
                ..Options::default()
            };
            let out = drive(PROGRAM, &opts).unwrap_or_else(|e| panic!("[{}] {e}", kind.name()));
            assert_eq!(
                out.program_output.as_deref(),
                Some("5\n"),
                "{}",
                kind.name()
            );
        }
    }

    #[test]
    fn reports_phase_tagged_errors() {
        let bad_syntax = drive("fn @main() -> void { frob }", &Options::default());
        assert_eq!(bad_syntax.expect_err("fails").phase, "parse");

        let bad_types = drive(
            "fn @main() -> u64 {\n  %x = const 1f64\n  ret %x\n}\n",
            &Options::default(),
        );
        assert_eq!(bad_types.expect_err("fails").phase, "verify");

        let bad_config = drive(
            "fn @main() -> void {\n  ret\n}\n",
            &Options {
                config: "turbo".to_string(),
                ..Options::default()
            },
        );
        assert_eq!(bad_config.expect_err("fails").phase, "config");

        let bad_entry = drive(
            "fn @main() -> void {\n  ret\n}\n",
            &Options {
                run: true,
                entry: "missing".to_string(),
                ..Options::default()
            },
        );
        assert_eq!(bad_entry.expect_err("fails").phase, "exec");
    }

    #[test]
    fn exit_codes_follow_the_phase_contract() {
        for (phase, code) in [("parse", 3), ("verify", 3), ("config", 2), ("exec", 1)] {
            let e = DriveError {
                phase,
                message: String::new(),
            };
            assert_eq!(e.exit_code(), code, "{phase}");
        }
    }

    #[test]
    fn execution_limits_surface_as_exec_errors() {
        let opts = Options {
            run: true,
            fuel: Some(3),
            ..Options::default()
        };
        let e = drive(PROGRAM, &opts).expect_err("fuel budget of 3 must trip");
        assert_eq!(e.phase, "exec");
        assert!(e.message.contains("fuel exhausted"), "{e}");
        assert_eq!(e.exit_code(), 1);

        // The same program under an ample budget is unaffected.
        let ok = drive(
            PROGRAM,
            &Options {
                run: true,
                fuel: Some(1_000_000),
                max_depth: Some(64),
                max_heap_cells: Some(1 << 20),
                ..Options::default()
            },
        )
        .expect("ample limits do not trip");
        assert_eq!(ok.program_output.as_deref(), Some("5\n"));
    }

    fn parse_drive(args: &[&str]) -> Result<(Options, String), String> {
        match parse_args(args.iter().map(|s| s.to_string()))? {
            Cli::Drive(opts, input) => Ok((*opts, input)),
            Cli::Help => Err("unexpected --help".to_string()),
        }
    }

    #[test]
    fn cli_argument_parsing() {
        let (opts, input) =
            parse_drive(&["--config", "ade-sparse", "--run", "--stats", "prog.memoir"])
                .expect("parses");
        assert_eq!(opts.config, "ade-sparse");
        assert!(opts.run && opts.stats && !opts.emit_ir);
        assert_eq!(input, "prog.memoir");

        // Default action is --emit-ir.
        let (opts, _) = parse_drive(&["p.memoir"]).expect("parses");
        assert!(opts.emit_ir);

        assert!(parse_drive(&["--nope"]).is_err());
        assert!(parse_drive(&[]).is_err());
        assert!(parse_drive(&["a", "b"]).is_err());
        assert!(parse_drive(&["--trace-json"]).is_err());
    }

    #[test]
    fn cli_limit_flags() {
        let (opts, _) = parse_drive(&[
            "--fuel",
            "1000",
            "--max-heap-cells",
            "256",
            "--max-depth",
            "8",
            "p.memoir",
        ])
        .expect("parses");
        assert_eq!(opts.fuel, Some(1000));
        assert_eq!(opts.max_heap_cells, Some(256));
        assert_eq!(opts.max_depth, Some(8));

        assert!(
            parse_drive(&["--fuel", "p.memoir"]).is_err(),
            "non-numeric value"
        );
        assert!(parse_drive(&["--max-depth"]).is_err(), "missing value");
        assert!(
            parse_drive(&["--max-depth", "5000000000", "p.memoir"]).is_err(),
            "overflow"
        );
    }

    #[test]
    fn cli_reference_flag_parses_and_stays_inert() {
        let (opts, _) = parse_drive(&["--reference", "p.memoir"]).expect("parses");
        assert!(opts.reference);
        for flag in ["--no-fuse", "--no-unbox", "--no-loop-fuse", "--no-soa"] {
            assert!(parse_drive(&[flag, "p.memoir"]).is_err(), "{flag} is gone");
        }

        let run = |reference: bool| {
            let out = drive(
                PROGRAM,
                &Options {
                    stats: true,
                    reference,
                    ..Options::default()
                },
            )
            .expect("drives");
            // Everything but the wall-clock line is deterministic.
            let stats = out.stats.map(|s| {
                s.lines()
                    .filter(|l| !l.starts_with("wall"))
                    .collect::<Vec<_>>()
                    .join("\n")
            });
            (out.program_output, stats)
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn cli_help_and_observability_flags() {
        assert!(matches!(
            parse_args(["--help".to_string()].into_iter()),
            Ok(Cli::Help)
        ));
        assert!(matches!(
            parse_args(["p.memoir".to_string(), "-h".to_string()].into_iter()),
            Ok(Cli::Help)
        ));

        let (opts, _) = parse_drive(&["--trace", "p.memoir"]).expect("parses");
        assert_eq!(opts.trace, TraceMode::Stderr);
        assert!(opts.wants_trace());

        let (opts, _) = parse_drive(&["--trace=log.txt", "--trace-json", "t.json", "p.memoir"])
            .expect("parses");
        assert_eq!(opts.trace, TraceMode::File("log.txt".to_string()));
        assert_eq!(opts.trace_json.as_deref(), Some("t.json"));

        // --metrics implies --run.
        let (opts, _) = parse_drive(&["--metrics", "m.json", "p.memoir"]).expect("parses");
        assert_eq!(opts.metrics.as_deref(), Some("m.json"));
        assert!(opts.run && !opts.emit_ir);
        assert!(parse_drive(&["--metrics"]).is_err(), "missing value");
    }

    #[test]
    fn cli_explain_flags() {
        let (opts, _) = parse_drive(&["--explain", "p.memoir"]).expect("parses");
        assert_eq!(opts.explain, ExplainMode::Stderr);
        assert!(opts.wants_explain());

        let (opts, _) = parse_drive(&["--explain=ledger.txt", "p.memoir"]).expect("parses");
        assert_eq!(opts.explain, ExplainMode::File("ledger.txt".to_string()));

        let (opts, _) = parse_drive(&["p.memoir"]).expect("parses");
        assert!(!opts.wants_explain());
    }

    #[test]
    fn explain_reports_the_ledger() {
        let explained = drive(
            PROGRAM,
            &Options {
                explain: ExplainMode::Stderr,
                ..Options::default()
            },
        )
        .expect("drives");
        let text = explained.explain.expect("explain text");
        assert!(
            text.starts_with("selection ledger: 1 decision(s) (1 static, 0 directive)"),
            "{text}"
        );
        assert!(text.contains("set=Bit map=Bit [static]"), "{text}");
        assert!(text.contains("per-function summary:"), "{text}");

        // memoir runs no pass: the explain text says so instead of
        // rendering an empty ledger.
        let memoir = drive(
            PROGRAM,
            &Options {
                config: "memoir".to_string(),
                explain: ExplainMode::Stderr,
                ..Options::default()
            },
        )
        .expect("drives");
        assert!(
            memoir.explain.expect("stub").contains("no ADE pass ran"),
            "memoir stub"
        );
    }

    #[test]
    fn trace_is_deterministic() {
        let opts = Options {
            config: "ade".to_string(),
            run: true,
            trace: TraceMode::Stderr,
            ..Options::default()
        };
        let a = drive(PROGRAM, &opts).expect("drives");
        let b = drive(PROGRAM, &opts).expect("drives");

        // The event *sequence* is stable across runs once timestamps are
        // stripped; only the clock values may differ.
        let text_a = ade_obs::render_events(&a.events, false);
        let text_b = ade_obs::render_events(&b.events, false);
        assert_eq!(text_a, text_b);
        assert!(text_a.contains("> plan [pass]"), "{text_a}");
        assert!(text_a.contains("> transform [pass]"), "{text_a}");
        assert!(text_a.contains("- choice [select]"), "{text_a}");
        ade_obs::json::validate(&ade_obs::events_to_json(&a.events)).expect("trace json");

        let plain = drive(
            PROGRAM,
            &Options {
                config: "ade".to_string(),
                run: true,
                stats: true,
                ..Options::default()
            },
        )
        .expect("drives");
        assert_eq!(a.program_output, plain.program_output);

        // A disabled run collects nothing.
        assert!(plain.events.is_empty());
    }
}
