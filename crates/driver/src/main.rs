//! `adec`: the ADE compiler driver.
//!
//! ```text
//! adec [--config NAME] [--run] [--emit-ir] [--stats] [--entry F]
//!      [--fuel N] [--max-heap-cells N] [--max-depth N] [--reference]
//!      [--trace[=FILE]] [--trace-json FILE] [--metrics FILE]
//!      [--explain[=FILE]] INPUT.memoir
//! ```
//!
//! With no action flags the transformed IR is printed (`--emit-ir`).
//! `--trace` logs every pass and its structured decisions (escape
//! verdicts, sharing candidates, RTE trims, selection choices) to stderr
//! — `--trace=FILE` redirects it, `--trace-json FILE` dumps the raw
//! events as JSON. `--metrics FILE` executes the program and writes the
//! counts the finished run returned (fuel ticks, heap high-water mark,
//! loop tiers, plan ticks, collections by backend) as JSON.
//! `--explain[=FILE]` renders the selection decisions from the same
//! events as `--trace` (per keyed site, the applied implementations and
//! whether a directive or the static default decided them), then the
//! loops the decoder left generic. The `[ade]` lines on stderr come
//! from those events too.
//! `--fuel`/`--max-heap-cells`/`--max-depth` bound execution; a tripped
//! limit reports a typed error, like any guest trap. `--reference` runs
//! the reference interpreter (no loop plans; observationally inert, for
//! isolating them).
//!
//! Exit codes: 0 success; 1 guest trap or limit at runtime; 2 usage
//! error (bad flags, unknown `--config`, unreadable input, unwritable
//! output paths); 3 parse or verify error.

use ade_driver::{Cli, Destination, USAGE};

fn main() {
    let (options, input) = match ade_driver::parse_args(std::env::args().skip(1)) {
        Ok(Cli::Help) => {
            print!("{USAGE}");
            return;
        }
        Ok(Cli::Drive(options, input)) => (options, input),
        Err(msg) => {
            eprintln!("error: {msg}");
            eprint!("{USAGE}");
            std::process::exit(2);
        }
    };
    let source = match std::fs::read_to_string(&input) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read {input}: {e}");
            std::process::exit(2);
        }
    };
    match ade_driver::drive(&source, &options) {
        Ok(out) => {
            for line in &out.candidates {
                eprintln!("[ade] {line}");
            }
            if let Some(ir) = out.ir {
                print!("{ir}");
            }
            if let Some(program_output) = out.program_output {
                print!("{program_output}");
            }
            if let Some(stats) = out.stats {
                eprint!("{stats}");
            }
            report(&options.trace, || ade_obs::render_events(&out.events, true));
            if let Some(path) = &options.trace_json {
                write_file(path, &ade_obs::events_to_json(&out.events));
            }
            if let Some(path) = &options.metrics {
                write_file(path, out.metrics.as_deref().unwrap_or(""));
            }
            report(&options.explain, || out.explain.clone().unwrap_or_default());
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(e.exit_code());
        }
    }
}

/// Sends the text `render` makes to `dest` (rendered only when wanted).
fn report(dest: &Destination, render: impl FnOnce() -> String) {
    match dest {
        Destination::Off => {}
        Destination::Stderr => eprint!("{}", render()),
        Destination::File(path) => write_file(path, &render()),
    }
}

/// An unwritable output path is a usage-class mistake (the compile
/// itself succeeded), so it exits 2 like any other bad argument.
fn write_file(path: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("error: cannot write {path}: {e}");
        std::process::exit(2);
    }
}
