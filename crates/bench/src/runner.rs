//! Executes one (benchmark, configuration) pair and collects every
//! measurement the figures need.

use std::fmt;

use ade_interp::cost::CostModel;
use ade_interp::{DecodeOptions, DecodedModule, ExecError, Interpreter, Phase, Stats};
use ade_workloads::{Benchmark, Config, ConfigKind};

/// The measurements from one run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Benchmark abbreviation.
    pub abbrev: &'static str,
    /// Configuration that produced this run.
    pub config: ConfigKind,
    /// Program output (used to cross-check configurations agree).
    pub output: String,
    /// Full interpreter statistics.
    pub stats: Stats,
}

impl RunResult {
    /// Modeled whole-program time under a cost model, in nanoseconds.
    pub fn modeled_total_ns(&self, model: &CostModel) -> f64 {
        model.time_ns(&self.stats.totals())
    }

    /// Modeled region-of-interest time, in nanoseconds.
    pub fn modeled_roi_ns(&self, model: &CostModel) -> f64 {
        model.time_ns(self.stats.phase(Phase::Roi))
    }

    /// Peak tracked memory in bytes.
    pub fn peak_bytes(&self) -> usize {
        self.stats.peak_bytes
    }
}

/// Why one `(benchmark, configuration)` cell could not produce a
/// result.
#[derive(Clone, Debug)]
pub enum CellError {
    /// The compiled module failed IR verification.
    Verify(String),
    /// The interpreter returned a typed execution error (guest trap,
    /// limit, missing entry, host failure).
    Exec(ExecError),
}

impl fmt::Display for CellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellError::Verify(e) => write!(f, "verify: {e}"),
            CellError::Exec(e) => write!(f, "{e}"),
        }
    }
}

/// One `(benchmark, configuration)` cell and how to run it. Build one
/// with [`CellSpec::new`] and override the fields a caller needs.
#[derive(Clone, Copy)]
pub struct CellSpec<'a> {
    /// The benchmark to build.
    pub bench: &'a Benchmark,
    /// The configuration to compile and execute it under.
    pub kind: ConfigKind,
    /// Input scale (≈ log2 nodes).
    pub scale: u32,
    /// Caps the interpreter's instruction budget; `None` keeps the
    /// configuration's limits (off by default).
    pub fuel: Option<u64>,
    /// Execute the reference decode ([`DecodeOptions::reference`]):
    /// figures and statistics are identical either way, which the
    /// differential tests pin.
    pub reference: bool,
}

impl<'a> CellSpec<'a> {
    /// An unlimited batch run of `bench` under `kind` at `scale` on
    /// the default decode.
    pub fn new(bench: &'a Benchmark, kind: ConfigKind, scale: u32) -> Self {
        CellSpec {
            bench,
            kind,
            scale,
            fuel: None,
            reference: false,
        }
    }
}

/// Builds, compiles, verifies and runs one cell.
///
/// # Errors
///
/// [`CellError::Verify`] if the compiled module fails verification,
/// [`CellError::Exec`] if interpretation fails.
pub fn run_cell(spec: &CellSpec<'_>) -> Result<RunResult, CellError> {
    let config = Config::new(spec.kind);
    let mut module = (spec.bench.build)(spec.scale);
    config.compile(&mut module);
    ade_ir::verify::verify_module(&module).map_err(|e| CellError::Verify(e.to_string()))?;
    let mut exec = config.exec.clone();
    if let Some(fuel) = spec.fuel {
        exec.fuel = Some(fuel);
    }
    let options = DecodeOptions {
        reference: spec.reference,
    };
    let decoded = DecodedModule::decode_with(&module, &options);
    let outcome = Interpreter::new(&module, exec)
        .run_decoded(&decoded, "main")
        .map_err(CellError::Exec)?;
    Ok(RunResult {
        abbrev: spec.bench.abbrev,
        config: spec.kind,
        output: outcome.output,
        stats: outcome.stats,
    })
}

/// Geometric mean of a sequence of ratios.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        1.0
    } else {
        (log_sum / n as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ade_workloads::bench::benchmark_by_abbrev;

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty()), 1.0);
    }

    #[test]
    fn memoir_and_ade_agree_and_ade_is_modeled_faster_on_bfs() {
        let bench = benchmark_by_abbrev("BFS").expect("bfs");
        let run = |kind| run_cell(&CellSpec::new(&bench, kind, 6)).expect("runs");
        let memoir = run(ConfigKind::Memoir);
        let ade = run(ConfigKind::Ade);
        assert_eq!(memoir.output, ade.output);
        let model = CostModel::intel_x64();
        assert!(
            ade.modeled_roi_ns(&model) < memoir.modeled_roi_ns(&model),
            "ADE must win the BFS ROI: {} vs {}",
            ade.modeled_roi_ns(&model),
            memoir.modeled_roi_ns(&model)
        );
    }
}
