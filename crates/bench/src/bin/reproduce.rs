//! Regenerates the paper's tables and figures (the artifact's
//! `make all` equivalent).
//!
//! ```text
//! reproduce [--scale N] [--trials N] [--jobs N] [--no-wall]
//!           [--strict] [--checkpoint FILE] [--inject-fault SPEC]
//!           [--cell-timeout MS] [--timeline FILE] [--obs-dir DIR]
//!           [--metrics FILE]
//!           [fig4|fig5|fig6|fig7|fig8|fig9|table2|table3|rq4|all]
//! ```
//!
//! The default scale (9: ≈512-node graphs with thousands of edges) runs
//! the full suite in minutes; the paper-fidelity claims are about the
//! *shape* of the results (who wins, roughly by how much), which is
//! stable across scales.
//!
//! `--jobs N` runs the evaluation matrix's independent
//! `(benchmark, configuration)` cells on N worker threads (default: the
//! machine's available parallelism; `--jobs 1` is the serial harness).
//! Figure text is identical for every job count; only the reference
//! wall-clock ratios vary run to run, and `--no-wall` suppresses those
//! for byte-stable output.
//!
//! Fault handling: a matrix cell that panics (retried once) or returns
//! a typed interpreter error degrades to a deterministic `✗(code)`
//! placeholder in its figure rows — the rest of the matrix completes
//! and the exit code stays 0. `--strict` restores fail-fast: the first
//! failing cell aborts the run with exit code 1. `--checkpoint FILE`
//! appends each completed cell as it finishes and resumes from a
//! compatible file (same scale/trials), recomputing only missing
//! cells; a corrupt or unusable checkpoint degrades to a fresh run
//! with a warning, never an abort. `--cell-timeout MS` gives every cell
//! attempt a wall-clock deadline of its start plus MS: trials run as
//! quantum-sliced sessions that stop at the first quantum boundary past
//! it (slicing is observationally inert — the figure text of surviving
//! cells is unchanged), and a cell that overruns fails with the typed
//! `timeout` error, rendered `✗(timeout)` instead of hanging the run.
//! A timeout is never retried, and `--strict` fails on it like on any
//! other cell error. `--inject-fault cell=K,kind=panic|fuel|hang`
//! deterministically fails the K-th scheduled cell: a worker panic, a
//! 100-instruction fuel budget that trips the interpreter's typed
//! limit, or (`kind=hang`) a fuel-free sleep until the cell's deadline
//! that then returns the same `timeout` error, so the cell degrades
//! exactly like a real overrun (without `--cell-timeout` there is no
//! deadline and the cell sleeps forever) — the CI smoke hooks for the
//! isolation and deadline machinery.
//!
//! Observability (figure text stays byte-identical either way):
//! `--timeline FILE` writes a Chrome-trace JSON of the worker pool —
//! one complete event per matrix cell, one lane per worker — that
//! `chrome://tracing` or Perfetto loads directly. `--obs-dir DIR`
//! collects a per-site interpreter profile for every cell and writes
//! one `<bench>_<config>.profile.json` per cell into DIR — plus one
//! `postmortem-<bench>_<config>.json` flight-recorder dump for every
//! cell that degraded to `✗(code)`. `--metrics FILE` writes the run's
//! metrics snapshot (schema `ade-metrics-v1`): cell scheduling and
//! degradation counters (`cells_degraded_total{code}`, timeouts
//! included) plus the worker pool's attempt/retry/panic accounting. Every deterministic metric is order-independent, so the
//! snapshot is byte-identical across `--jobs` values; `--no-wall` also
//! excludes the wall-class series (per-worker cell counts) exactly as
//! it blanks wall ratios in figures.
//!
//! An unwritable `--timeline`/`--obs-dir`/`--metrics` output exits with
//! code 2 and `error: cannot write <path>` — the same usage-error
//! contract as `adec`'s output flags. `--checkpoint` is the deliberate
//! exception (see above): a damaged resume artifact degrades to a
//! fresh run, because it must never cost the evaluation.

use std::sync::Arc;

use ade_bench::figures::{FaultSpec, Session};
use ade_obs::{MetricsRegistry, Timeline};

fn main() {
    let mut scale = 9u32;
    let mut trials = 1u32;
    let mut jobs = ade_bench::pool::default_jobs();
    let mut include_wall = true;
    let mut strict = false;
    let mut checkpoint_path: Option<String> = None;
    let mut fault: Option<FaultSpec> = None;
    let mut cell_timeout: Option<u64> = None;
    let mut timeline_path: Option<String> = None;
    let mut obs_dir: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut targets: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                scale = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("missing value for --scale"));
            }
            "--trials" => {
                trials = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("missing value for --trials"));
            }
            "--jobs" => {
                jobs = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage("missing or invalid value for --jobs"));
            }
            "--no-wall" => include_wall = false,
            "--strict" => strict = true,
            "--checkpoint" => {
                checkpoint_path =
                    Some(args.next().unwrap_or_else(|| usage("missing value for --checkpoint")));
            }
            "--inject-fault" => {
                let spec =
                    args.next().unwrap_or_else(|| usage("missing value for --inject-fault"));
                fault = Some(
                    FaultSpec::parse(&spec)
                        .unwrap_or_else(|e| usage(&format!("--inject-fault: {e}"))),
                );
            }
            "--cell-timeout" => {
                cell_timeout = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&ms| ms >= 1)
                        .unwrap_or_else(|| usage("missing or invalid value for --cell-timeout")),
                );
            }
            "--timeline" => {
                timeline_path =
                    Some(args.next().unwrap_or_else(|| usage("missing value for --timeline")));
            }
            "--obs-dir" => {
                obs_dir = Some(args.next().unwrap_or_else(|| usage("missing value for --obs-dir")));
            }
            "--metrics" => {
                metrics_path =
                    Some(args.next().unwrap_or_else(|| usage("missing value for --metrics")));
            }
            other => targets.push(other.to_string()),
        }
    }
    if targets.is_empty() {
        targets.push("all".to_string());
    }
    const ALL: [&str; 9] = [
        "fig4", "fig5", "fig6", "table2", "table3", "fig7", "fig8", "fig9", "rq4",
    ];
    for target in &targets {
        if !(target == "all" || target == "fig10" || ALL.contains(&target.as_str())) {
            usage(&format!("unknown target `{target}`"));
        }
    }
    // Plan the full evaluation matrix up front and fill the cache in
    // parallel; the ordered rendering below then only reads it.
    let expanded: Vec<String> = targets
        .iter()
        .flat_map(|t| match t.as_str() {
            "all" => ALL.to_vec(),
            other => vec![other],
        })
        .map(str::to_string)
        .collect();
    let timeline = timeline_path.as_ref().map(|_| Arc::new(Timeline::new()));
    let metrics = metrics_path.as_ref().map(|_| MetricsRegistry::enabled());
    let mut session = Session::with_trials(scale, trials)
        .jobs(jobs)
        .include_wall(include_wall)
        .profile(obs_dir.is_some())
        .strict(strict);
    if let Some(m) = &metrics {
        session = session.metrics(m.clone());
    }
    if let Some(f) = fault {
        session = session.inject_fault(f);
    }
    if let Some(ms) = cell_timeout {
        session = session.cell_timeout(std::time::Duration::from_millis(ms));
    }
    if let Some(path) = &checkpoint_path {
        // A damaged or unopenable checkpoint must never cost the run:
        // degrade to a fresh, unpersisted session with a warning.
        session = session.checkpoint(std::path::Path::new(path));
    }
    if let Some(tl) = &timeline {
        session = session.timeline(Arc::clone(tl));
    }
    // Under --strict a failing cell panics out of the matrix; catch it
    // at the top for a clean nonzero exit (the default mode degrades
    // failed cells in place and never panics here).
    let rendered = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        let expanded: Vec<&str> = expanded.iter().map(String::as_str).collect();
        session.prewarm(&expanded);
        for target in &targets {
            match target.as_str() {
                "fig4" => print!("{}", session.fig4()),
                "fig5" => print!("{}", session.fig5_or_6(false)),
                "fig6" => print!("{}", session.fig5_or_6(true)),
                "fig7" => print!("{}", session.fig7()),
                "fig8" => print!("{}", session.fig8()),
                "fig9" | "fig10" => print!("{}", session.fig9_10()),
                "table2" => print!("{}", session.table2()),
                "table3" => print!("{}", session.table3()),
                "rq4" => print!("{}", session.rq4()),
                "all" => {
                    for part in [
                        session.fig4(),
                        session.fig5_or_6(false),
                        session.fig5_or_6(true),
                        session.table2(),
                        session.table3(),
                        session.fig7(),
                        session.fig8(),
                        session.fig9_10(),
                        session.rq4(),
                    ] {
                        println!("{part}");
                    }
                }
                _ => unreachable!("targets validated above"),
            }
            println!();
        }
        session
    }));
    let session = match rendered {
        Ok(session) => session,
        Err(_) => {
            // The panic hook already printed the payload.
            eprintln!("error: evaluation aborted{}", if strict { " (--strict)" } else { "" });
            std::process::exit(1);
        }
    };
    if let (Some(path), Some(tl)) = (&timeline_path, &timeline) {
        write_file(path, &tl.to_chrome_json());
        eprintln!("[obs] timeline: {path} ({} events)", tl.events().len());
    }
    if let Some(dir) = &obs_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot write {dir}: {e}");
            std::process::exit(2);
        }
        let profiles = session.cached_profiles();
        for (abbrev, kind, profile) in &profiles {
            let path = format!("{dir}/{abbrev}_{}.profile.json", kind.name());
            write_file(&path, &profile.to_json());
        }
        eprintln!("[obs] profiles: {} file(s) in {dir}", profiles.len());
        let postmortems = session.postmortems();
        if !postmortems.is_empty() {
            for (key, dump) in &postmortems {
                write_file(&format!("{dir}/postmortem-{key}.json"), dump);
            }
            eprintln!("[obs] post-mortems: {} file(s) in {dir}", postmortems.len());
        }
    }
    if let (Some(path), Some(m)) = (&metrics_path, &metrics) {
        let snapshot = m.snapshot();
        write_file(path, &snapshot.to_json(include_wall));
        eprintln!("[obs] metrics: {path} ({} series)", snapshot.len(include_wall));
    }
}

/// Writes an observability artifact, mirroring `adec`'s output-flag
/// contract: an unwritable path is a usage error (`exit 2`) with a
/// uniform `cannot write` message.
fn write_file(path: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("error: cannot write {path}: {e}");
        std::process::exit(2);
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: reproduce [--scale N] [--trials N] [--jobs N] [--no-wall] [--strict] [--checkpoint FILE] [--inject-fault cell=K,kind=panic|fuel|hang] [--cell-timeout MS] [--timeline FILE] [--obs-dir DIR] [--metrics FILE] [fig4|fig5|fig6|fig7|fig8|fig9|table2|table3|rq4|all]"
    );
    std::process::exit(2);
}
