//! Benchmark harness: runs the evaluation workloads under the artifact
//! configurations and regenerates every table and figure of the paper's
//! evaluation (see `DESIGN.md` for the experiment index and
//! `EXPERIMENTS.md` for paper-vs-measured results).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod figures;
pub mod pool;
pub mod runner;

pub use runner::{run_cell, CellError, CellSpec, RunResult};
