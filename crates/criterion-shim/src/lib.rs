//! Offline stand-in for the `criterion` crate.
//!
//! The evaluation container has no registry access, so the workspace
//! vendors the benchmarking API surface its benches use — `Criterion`,
//! `benchmark_group` / `sample_size` / `bench_function` / `finish`,
//! `Bencher::iter`, `BenchmarkId::new`, and the `criterion_group!` /
//! `criterion_main!` macros — as a small local crate with the same
//! package name. Measurement is deliberately simple: a short warmup to
//! calibrate the per-iteration cost, then `sample_size` timed samples;
//! the median ns/iteration is printed per benchmark. No plotting, no
//! statistics beyond min/median, no CLI filtering (arguments from
//! `cargo bench` are accepted and ignored).

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Top-level harness handle passed to every benchmark function.
#[derive(Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _criterion: self,
            name: name.into(),
            sample_size: 20,
        }
    }
}

/// A benchmark identifier: a function name plus a displayed parameter.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id rendered as `name/parameter` (criterion's convention).
    pub fn new(name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", name.into(), parameter),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_owned() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { id: s }
    }
}

/// A group of benchmarks sharing a name prefix and sample settings.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Runs one benchmark and prints its timing.
    pub fn bench_function<I, F>(&mut self, id: I, mut f: F) -> &mut Self
    where
        I: Into<BenchmarkId>,
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut bencher = Bencher {
            sample_size: self.sample_size,
            samples_ns: Vec::new(),
        };
        f(&mut bencher);
        let mut samples = bencher.samples_ns;
        samples.sort_unstable_by(f64::total_cmp);
        let (min, median) = match samples.len() {
            0 => (0.0, 0.0),
            n => (samples[0], samples[n / 2]),
        };
        println!(
            "{}/{}: median {:>12.1} ns/iter, min {:>12.1} ns/iter ({} samples)",
            self.name,
            id.id,
            median,
            min,
            samples.len()
        );
        self
    }

    /// Ends the group (printing happens per-benchmark; this is a no-op
    /// kept for API compatibility).
    pub fn finish(self) {}
}

/// Drives the closure under measurement.
pub struct Bencher {
    sample_size: usize,
    samples_ns: Vec<f64>,
}

impl Bencher {
    /// Measures `f`, recording `sample_size` samples. Each sample runs
    /// enough iterations to amortize timer overhead (targeting ~5 ms
    /// per sample, calibrated by a short warmup).
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warmup + calibration: find an iteration count that takes
        // roughly 5 ms, capped so huge per-iter benches still finish.
        let mut iters: u64 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let elapsed = start.elapsed();
            if elapsed > Duration::from_millis(2) || iters >= 1 << 20 {
                let per_iter = elapsed.as_nanos().max(1) / u128::from(iters);
                iters = (5_000_000u128 / per_iter.max(1)).clamp(1, 1 << 22) as u64;
                break;
            }
            iters *= 4;
        }
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let total = start.elapsed().as_nanos() as f64;
            self.samples_ns.push(total / iters as f64);
        }
    }
}

/// Bundles benchmark functions into a single runner function.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Expands to `main`, running every group. `cargo bench` CLI arguments
/// are ignored.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trivial(c: &mut Criterion) {
        let mut g = c.benchmark_group("shim");
        g.sample_size(3);
        g.bench_function("add", |b| b.iter(|| 2u64 + 2));
        g.bench_function(BenchmarkId::new("param", 42), |b| {
            b.iter(|| (0..100u64).sum::<u64>())
        });
        g.finish();
    }

    criterion_group!(benches, trivial);

    #[test]
    fn harness_runs_and_records_samples() {
        benches();
        let mut b = Bencher {
            sample_size: 4,
            samples_ns: Vec::new(),
        };
        b.iter(|| 1u64.wrapping_add(2));
        assert_eq!(b.samples_ns.len(), 4);
        assert!(b.samples_ns.iter().all(|&ns| ns >= 0.0));
    }
}
