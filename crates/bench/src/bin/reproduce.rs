//! Regenerates the paper's tables and figures (the artifact's
//! `make all` equivalent).
//!
//! ```text
//! reproduce [--scale N] [--jobs N] [--timeline FILE]
//!           [fig4|fig5|fig6|fig7|fig8|fig9|table2|table3|rq4|all]
//! ```
//!
//! The default scale (9: ≈512-node graphs with thousands of edges) runs
//! the full suite in about ten seconds on one core (about five on two);
//! the paper-fidelity claims are about the *shape* of the results (who
//! wins, roughly by how much), which is stable across scales.
//!
//! `--jobs N` runs the evaluation matrix's independent
//! `(benchmark, configuration)` cells on N worker threads (default: the
//! machine's available parallelism; `--jobs 1` is the serial harness).
//! Each cell runs once. Figure text is modeled from deterministic
//! operation counts, so it is byte-identical for every run and job
//! count; wall-clock comparisons are `e2e_bench`'s job.
//!
//! Failure: every cell is a fixed, deterministic program, so the run
//! fails fast. A cell that returns a typed error (a verify failure, a
//! guest trap, a tripped limit) panics with `[BENCH config] <error>`,
//! and the run exits nonzero.
//!
//! Observability (figure text stays byte-identical either way):
//! `--timeline FILE` writes a Chrome-trace JSON of the worker pool —
//! one complete event per matrix cell, one lane per worker — that
//! `chrome://tracing` or Perfetto loads directly.
//!
//! Usage errors (an unknown flag or target, a missing or invalid value)
//! exit with code 2, and so does an unwritable `--timeline` output, with `error: cannot write <path>` — the same contract as
//! `adec`'s output flags.

use std::sync::Arc;

use ade_bench::figures::{is_target, Session};
use ade_obs::Timeline;

fn main() {
    let mut scale = 9u32;
    let mut jobs = ade_bench::pool::default_jobs();
    let mut timeline_path: Option<String> = None;
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
            "--jobs" => {
                jobs = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage("missing or invalid value for --jobs"));
            }
            "--timeline" => {
                timeline_path = Some(
                    args.next()
                        .unwrap_or_else(|| usage("missing value for --timeline")),
                );
            }
            flag if flag.starts_with("--") => usage(&format!("unknown flag `{flag}`")),
            other => targets.push(other.to_string()),
        }
    }
    if targets.is_empty() {
        targets.push("all".to_string());
    }
    for target in &targets {
        if !is_target(target) {
            usage(&format!("unknown target `{target}`"));
        }
    }
    let timeline = timeline_path.as_ref().map(|_| Arc::new(Timeline::new()));
    let mut session = Session::new(scale).jobs(jobs);
    if let Some(tl) = &timeline {
        session = session.timeline(Arc::clone(tl));
    }
    let targets: Vec<&str> = targets.iter().map(String::as_str).collect();
    print!("{}", session.render(&targets));
    if let (Some(path), Some(tl)) = (&timeline_path, &timeline) {
        write_file(path, &tl.to_chrome_json());
        eprintln!("[obs] timeline: {path} ({} events)", tl.events().len());
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
        "usage: reproduce [--scale N] [--jobs N] [--timeline FILE] [fig4|fig5|fig6|fig7|fig8|fig9|table2|table3|rq4|all]"
    );
    std::process::exit(2);
}
