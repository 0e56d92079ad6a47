//! Quantum-size invariance: slicing an execution into fuel quanta must
//! not be observable. For every quantum size {1, 7, 1024, unlimited}
//! and on both the reference and the default decode, a session-run
//! program must produce byte-identical output, identical operation
//! statistics, memory peaks and tick counts, and — for failing
//! programs — the same typed error at the same trap site as the batch
//! interpreter on the reference decode. The default decode must run
//! the bulk-eligible program's loops through their plans, so the
//! invariance covers the fast path as well as generic dispatch.

use std::sync::Arc;

use ade_interp::{
    DecodeOptions, DecodedModule, ExecConfig, ExecError, ExecSession, Interpreter, Outcome, Step,
};
use ade_ir::parse::parse_module;
use ade_ir::Module;

/// Collection-heavy program whose loops are bulk-eligible: a `forrange`
/// filling a map and a set, and a `foreach` reduction over the set.
const BULK: &str = r#"
fn @main() -> void {
  %m = new Map<u64, u64>
  %s = new Set<u64>
  %zero = const 0u64
  %n = const 64u64
  %mf, %sf = forrange %zero, %n carry(%m, %s) as (%i: u64, %mm: Map<u64, u64>, %ss: Set<u64>) {
    %three = const 3u64
    %t = mul %i, %three
    %m1 = write %mm, %i, %t
    %s1 = insert %ss, %t
    yield %m1, %s1
  }
  roi begin
  %sum = foreach %sf carry(%zero) as (%v: u64, %acc: u64) {
    %a = add %acc, %v
    yield %a
  }
  roi end
  %count = size %mf
  print %sum
  print %count
  ret
}
"#;

/// Traps with `missing-key` inside a loop body, after some successful
/// iterations — checks that mid-loop trap sites survive slicing.
const TRAPPING: &str = r#"
fn @main() -> void {
  %m = new Map<u64, u64>
  %zero = const 0u64
  %n = const 8u64
  %mf = forrange %zero, %n carry(%m) as (%i: u64, %mm: Map<u64, u64>) {
    %m1 = write %mm, %i, %i
    yield %m1
  }
  %probe = const 99u64
  %v = read %mf, %probe
  print %v
  ret
}
"#;

/// Both decodes ([`DecodeOptions::reference`]).
const DECODES: [bool; 2] = [true, false];

const QUANTA: [Option<u64>; 4] = [Some(1), Some(7), Some(1024), None];

fn run_session(
    decoded: &Arc<DecodedModule>,
    config: &ExecConfig,
    quantum: Option<u64>,
) -> Result<Outcome, ExecError> {
    let mut session = ExecSession::spawn(Arc::clone(decoded), "main", config.clone())?;
    loop {
        match session.step(quantum)? {
            Step::Running => {}
            Step::Done(outcome) => return Ok(*outcome),
        }
    }
}

fn decode(module: &Module, reference: bool) -> Arc<DecodedModule> {
    Arc::new(DecodedModule::decode_with(
        module,
        &DecodeOptions { reference },
    ))
}

/// The batch run on the reference decode: the oracle every session run
/// (either decode, any quantum) must reproduce.
fn reference_batch(module: &Module, config: &ExecConfig) -> Result<Outcome, ExecError> {
    Interpreter::new(module, config.clone()).run_decoded(&decode(module, true), "main")
}

/// Everything observable about a successful run except wall time.
fn fingerprint(o: &Outcome) -> String {
    format!(
        "output={:?} result={:?} phases={:?} peak={} final={} ticks={}",
        o.output,
        o.result,
        o.stats.per_phase,
        o.stats.peak_bytes,
        o.stats.final_bytes,
        o.fuel_ticks,
    )
}

#[test]
fn successful_runs_are_quantum_invariant_on_both_decodes() {
    let module = parse_module(BULK).expect("parses");
    let batch = reference_batch(&module, &ExecConfig::default()).expect("reference batch run");
    let baseline = fingerprint(&batch);
    for reference in DECODES {
        let decoded = decode(&module, reference);
        for quantum in QUANTA {
            let outcome =
                run_session(&decoded, &ExecConfig::default(), quantum).unwrap_or_else(|e| {
                    panic!("session fails (reference={reference}, quantum {quantum:?}): {e}")
                });
            assert_eq!(
                fingerprint(&outcome),
                baseline,
                "observable divergence (reference={reference}, quantum {quantum:?})"
            );
            // A quantum that covers whole iterations lets the default
            // decode's plans run; otherwise this test would only ever
            // compare generic dispatch against itself.
            if !reference && quantum.is_none_or(|q| q >= 1024) {
                assert!(
                    outcome.counts.plan_ticks > 0,
                    "no loop plan ran (quantum {quantum:?})"
                );
            }
        }
    }
}

#[test]
fn trap_sites_are_quantum_invariant_on_both_decodes() {
    let module = parse_module(TRAPPING).expect("parses");
    let config = ExecConfig::default();
    let batch_err = reference_batch(&module, &config).expect_err("must trap");
    assert_eq!(batch_err.code(), "missing-key");
    for reference in DECODES {
        let decoded = decode(&module, reference);
        for quantum in QUANTA {
            let err = run_session(&decoded, &config, quantum).expect_err("must trap");
            assert_eq!(
                err, batch_err,
                "trap divergence (reference={reference}, quantum {quantum:?})"
            );
        }
    }
}

#[test]
fn fuel_trap_sites_are_quantum_invariant() {
    // A fuel limit that trips mid-loop: the exhaustion site (carried in
    // the error's Display rendering) must not depend on slicing, even
    // when the quantum and the fuel budget interleave awkwardly.
    let module = parse_module(BULK).expect("parses");
    for fuel in [10u64, 97, 333] {
        let config = ExecConfig {
            fuel: Some(fuel),
            ..ExecConfig::default()
        };
        let batch_err = reference_batch(&module, &config).expect_err("must exhaust fuel");
        assert_eq!(batch_err.code(), "fuel");
        for reference in DECODES {
            let decoded = decode(&module, reference);
            for quantum in QUANTA {
                let err = run_session(&decoded, &config, quantum).expect_err("must exhaust fuel");
                assert_eq!(
                    err, batch_err,
                    "fuel-trap divergence at fuel={fuel} (reference={reference}, quantum {quantum:?})"
                );
            }
        }
    }
}

#[test]
fn sessions_share_one_decoded_module_concurrently() {
    // `Arc<DecodedModule>` is the point of the refactor: many sessions
    // over one decode, in parallel, all byte-identical.
    let config = ExecConfig::default();
    let decoded = decode(&parse_module(BULK).expect("parses"), false);
    let baseline = run_session(&decoded, &config, None).expect("runs");
    let baseline = fingerprint(&baseline);
    std::thread::scope(|scope| {
        for i in 0..8u64 {
            let decoded = Arc::clone(&decoded);
            let config = config.clone();
            let baseline = baseline.clone();
            scope.spawn(move || {
                let quantum = Some(1 + i * 13);
                let outcome = run_session(&decoded, &config, quantum).expect("runs");
                assert_eq!(fingerprint(&outcome), baseline, "quantum {quantum:?}");
            });
        }
    });
}
