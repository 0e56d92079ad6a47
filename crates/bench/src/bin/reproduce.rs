//! Regenerates the paper's tables and figures (the artifact's
//! `make all` equivalent).
//!
//! ```text
//! reproduce [--scale N] [--jobs N]
//!           [fig4|fig5|fig6|fig7|fig8|fig9|table2|table3|rq4|all]
//! ```
//!
//! The default scale (9: ≈512-node graphs with thousands of edges) runs
//! the full suite (`--scale 9 --jobs 2 all`) in 1.5–1.8 s measured on a
//! shared 2-core host; the paper-fidelity claims are about the *shape*
//! of the results (who wins, roughly by how much), which is stable
//! across scales.
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
//! Usage errors (an unknown flag or target, a missing or invalid value)
//! exit with code 2.

use ade_bench::figures::{is_target, Session};

fn main() {
    let mut scale = 9u32;
    let mut jobs = ade_bench::pool::default_jobs();
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
    let targets: Vec<&str> = targets.iter().map(String::as_str).collect();
    print!("{}", Session::new(scale).jobs(jobs).render(&targets));
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: reproduce [--scale N] [--jobs N] [fig4|fig5|fig6|fig7|fig8|fig9|table2|table3|rq4|all]"
    );
    std::process::exit(2);
}
