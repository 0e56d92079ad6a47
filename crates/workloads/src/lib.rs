//! Evaluation workloads for the ADE reproduction.
//!
//! The paper evaluates 15 Lonestar 'Analytics' benchmarks plus PARSEC's
//! freqmine, written against abstract MEMOIR collection types and run on
//! SNAP/Lonestar/PARSEC inputs (§IV-A). This crate provides:
//!
//! * [`gen`] — deterministic synthetic input generators standing in for
//!   SNAP/PARSEC data (R-MAT power-law graphs, Erdős–Rényi, grids,
//!   bipartite graphs, transaction databases, points-to constraints).
//!   Node identifiers are *scrambled* 64-bit values: like SNAP's raw
//!   files, the key universe is sparse and non-contiguous, which is the
//!   property data enumeration manufactures away.
//! * [`mod@bench`] — the 16 benchmarks authored against the IR builder, each
//!   with an explicit region-of-interest marker separating input
//!   construction from the kernel (paper Fig. 5b).
//! * [`config`] — the artifact's evaluation configurations (`memoir`,
//!   `ade`, `memoir-abseil`, ablations, …) mapped onto pass options and
//!   interpreter defaults.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bench;
pub mod config;
pub mod gen;

pub use bench::{all_benchmarks, Benchmark};
pub use config::{Config, ConfigKind};
