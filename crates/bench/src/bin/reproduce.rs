//! Regenerates the paper's tables and figures (the artifact's
//! `make all` equivalent).
//!
//! ```text
//! reproduce [--scale N] [--trials N] [--jobs N] [--no-wall]
//!           [--timeline FILE] [--obs-dir DIR]
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
//! Figure text is identical for every job count; only the reference
//! wall-clock ratios vary run to run, and `--no-wall` suppresses those
//! for byte-stable output.
//!
//! Failure: every cell is a fixed, deterministic program, so the run
//! fails fast. A cell that returns a typed error (a verify failure, a
//! guest trap, a tripped limit) panics with `[BENCH config] <error>`,
//! and the run exits nonzero.
//!
//! Observability (figure text stays byte-identical either way):
//! `--timeline FILE` writes a Chrome-trace JSON of the worker pool —
//! one complete event per matrix cell, one lane per worker — that
//! `chrome://tracing` or Perfetto loads directly. `--obs-dir DIR`
//! collects a per-site interpreter profile for every cell and writes
//! one `<bench>_<config>.profile.json` per cell into DIR.
//!
//! Usage errors (an unknown flag or target, a missing or invalid value)
//! exit with code 2, and so does an unwritable `--timeline`/`--obs-dir`
//! output, with `error: cannot write <path>` — the same contract as
//! `adec`'s output flags.

use std::sync::Arc;

use ade_bench::figures::{is_target, Session};
use ade_obs::Timeline;

fn main() {
    let mut scale = 9u32;
    let mut trials = 1u32;
    let mut jobs = ade_bench::pool::default_jobs();
    let mut include_wall = true;
    let mut timeline_path: Option<String> = None;
    let mut obs_dir: Option<String> = None;
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
            "--timeline" => {
                timeline_path = Some(
                    args.next()
                        .unwrap_or_else(|| usage("missing value for --timeline")),
                );
            }
            "--obs-dir" => {
                obs_dir = Some(
                    args.next()
                        .unwrap_or_else(|| usage("missing value for --obs-dir")),
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
    let mut session = Session::with_trials(scale, trials)
        .jobs(jobs)
        .include_wall(include_wall)
        .profile(obs_dir.is_some());
    if let Some(tl) = &timeline {
        session = session.timeline(Arc::clone(tl));
    }
    let targets: Vec<&str> = targets.iter().map(String::as_str).collect();
    print!("{}", session.render(&targets));
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
        "usage: reproduce [--scale N] [--trials N] [--jobs N] [--no-wall] [--timeline FILE] [--obs-dir DIR] [fig4|fig5|fig6|fig7|fig8|fig9|table2|table3|rq4|all]"
    );
    std::process::exit(2);
}
