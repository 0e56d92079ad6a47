//! Fault-isolation contract of the evaluation pipeline: a failing
//! matrix cell degrades to a deterministic `✗(code)` placeholder while
//! the rest of the matrix completes; `--strict` restores fail-fast;
//! checkpoint/resume reproduces the uninterrupted figure text byte for
//! byte; and with no faults the isolation machinery is invisible
//! (default, strict and pre-existing behavior all render identically).

use ade_bench::figures::{cells_for_target, FaultKind, FaultSpec, Session};

const SCALE: u32 = 5;

fn fig5_with_fault(fault: FaultSpec, jobs: usize) -> String {
    let mut s = Session::new(SCALE).include_wall(false).jobs(jobs).inject_fault(fault);
    s.prewarm(&["fig5"]);
    s.fig5_or_6(false)
}

/// An injected worker panic degrades exactly one row to `✗(panic)`,
/// the matrix completes, and the text is byte-identical run to run
/// (and across job counts).
#[test]
fn injected_panic_degrades_one_row_deterministically() {
    let fault = FaultSpec { cell: 3, kind: FaultKind::Panic };
    let first = fig5_with_fault(fault, 2);
    assert_eq!(first.matches("✗(panic)").count(), 1, "{first}");
    assert!(first.contains("GEO"), "matrix must complete: {first}");

    let again = fig5_with_fault(fault, 2);
    assert_eq!(first, again, "degraded figure text must be deterministic");
    let serial = fig5_with_fault(fault, 1);
    assert_eq!(first, serial, "degraded figure text must not depend on --jobs");
}

/// An injected fuel fault surfaces the interpreter's typed limit error
/// as `✗(limit)` — no panic anywhere on the path.
#[test]
fn injected_fuel_fault_degrades_to_limit_marker() {
    let text = fig5_with_fault(FaultSpec { cell: 0, kind: FaultKind::Fuel }, 2);
    assert_eq!(text.matches("✗(limit)").count(), 1, "{text}");
    assert!(text.contains("GEO"), "{text}");
}

/// The degraded cell is observable through the typed API too.
#[test]
fn cell_result_reports_the_failure_code() {
    let cells = cells_for_target("fig5");
    let (abbrev, kind) = cells[0];
    let mut s = Session::new(SCALE)
        .include_wall(false)
        .inject_fault(FaultSpec { cell: 0, kind: FaultKind::Panic });
    match s.cell_result(abbrev, kind) {
        ade_bench::CellResult::Failed { code, detail } => {
            assert_eq!(code, "panic");
            assert!(detail.contains("injected fault"), "{detail}");
        }
        ade_bench::CellResult::Ok(_) => panic!("cell 0 must fail"),
    }
    // Other cells are unaffected.
    let (abbrev2, kind2) = cells[1];
    assert!(matches!(s.cell_result(abbrev2, kind2), ade_bench::CellResult::Ok(_)));
}

/// `--strict` restores the fail-fast contract: the first failing cell
/// panics out of the session instead of degrading.
#[test]
#[should_panic(expected = "injected fault")]
fn strict_mode_fails_fast_on_injected_fault() {
    let mut s = Session::new(SCALE)
        .include_wall(false)
        .jobs(2)
        .strict(true)
        .inject_fault(FaultSpec { cell: 0, kind: FaultKind::Panic });
    s.prewarm(&["fig5"]);
}

/// Strict mode also promotes a typed cell error (injected fuel limit)
/// to a panic.
#[test]
#[should_panic(expected = "fuel exhausted")]
fn strict_mode_fails_fast_on_typed_cell_error() {
    let mut s = Session::new(SCALE)
        .include_wall(false)
        .strict(true)
        .inject_fault(FaultSpec { cell: 0, kind: FaultKind::Fuel });
    s.prewarm(&["fig5"]);
}

/// A checkpointed run interrupted mid-matrix resumes to byte-identical
/// figure text (`--no-wall`; wall readings are the one nondeterministic
/// measurement and are excluded exactly as across ordinary runs).
#[test]
fn checkpoint_resume_reproduces_figure_text() {
    let dir = std::env::temp_dir().join(format!("ade-robustness-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("fig5.checkpoint");
    let _ = std::fs::remove_file(&path);

    let reference = {
        let mut s = Session::new(SCALE).include_wall(false);
        s.prewarm(&["fig5"]);
        s.fig5_or_6(false)
    };

    // "Kill" a checkpointed run after a prefix of the matrix: run only
    // the first three planned cells, then drop the session.
    {
        let mut partial = Session::new(SCALE).include_wall(false).checkpoint(&path);
        for &(abbrev, kind) in cells_for_target("fig5").iter().take(3) {
            let _ = partial.cell(abbrev, kind);
        }
    }

    // Resume: restored cells pre-fill the cache, the rest recompute.
    let resumed = {
        let mut s = Session::new(SCALE).include_wall(false).checkpoint(&path);
        s.prewarm(&["fig5"]);
        s.fig5_or_6(false)
    };
    assert_eq!(reference, resumed, "resumed run must reproduce the figure byte for byte");

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
}

/// An injected hang (a fuel-free sleep) would stall the run forever;
/// with `--cell-timeout` armed it degrades to a deterministic
/// `✗(timeout)` row while the rest of the matrix completes, identically
/// across runs and job counts.
#[test]
fn injected_hang_with_timeout_degrades_to_timeout_marker() {
    let fault = FaultSpec { cell: 2, kind: FaultKind::Hang };
    let timed = |jobs: usize| {
        let mut s = Session::new(SCALE)
            .include_wall(false)
            .jobs(jobs)
            .inject_fault(fault)
            // Generous budget: only the injected hang (which never
            // finishes on its own) can exceed it, even in debug builds.
            .cell_timeout(std::time::Duration::from_secs(2));
        s.prewarm(&["fig5"]);
        s.fig5_or_6(false)
    };
    let first = timed(2);
    assert_eq!(first.matches("✗(timeout)").count(), 1, "{first}");
    assert!(first.contains("GEO"), "matrix must complete: {first}");
    assert_eq!(first, timed(2), "degraded figure text must be deterministic");
    assert_eq!(first, timed(1), "degraded figure text must not depend on --jobs");
}

/// The timed-out cell is observable through the typed API with the
/// stable `timeout` code.
#[test]
fn cell_result_reports_the_timeout_code() {
    let cells = cells_for_target("fig5");
    let (abbrev, kind) = cells[0];
    let mut s = Session::new(SCALE)
        .include_wall(false)
        .inject_fault(FaultSpec { cell: 0, kind: FaultKind::Hang })
        .cell_timeout(std::time::Duration::from_secs(2));
    match s.cell_result(abbrev, kind) {
        ade_bench::CellResult::Failed { code, detail } => {
            assert_eq!(code, "timeout");
            assert!(detail.contains("timed out"), "{detail}");
        }
        ade_bench::CellResult::Ok(_) => panic!("hung cell 0 must time out"),
    }
    // Other cells are unaffected.
    let (abbrev2, kind2) = cells[1];
    assert!(matches!(s.cell_result(abbrev2, kind2), ade_bench::CellResult::Ok(_)));
}

/// `--strict --cell-timeout` fails fast on the timed-out cell instead
/// of degrading it.
#[test]
#[should_panic(expected = "timed out")]
fn strict_mode_fails_fast_on_timeout() {
    let mut s = Session::new(SCALE)
        .include_wall(false)
        .jobs(2)
        .strict(true)
        .inject_fault(FaultSpec { cell: 0, kind: FaultKind::Hang })
        .cell_timeout(std::time::Duration::from_secs(2));
    s.prewarm(&["fig5"]);
}

/// An armed timeout that never fires is observationally inert: the
/// quantum-sliced preemptible trial path renders the same bytes as the
/// plain path, for any job count.
#[test]
fn unfired_timeout_is_observationally_inert() {
    let reference = {
        let mut s = Session::new(SCALE).include_wall(false).jobs(2);
        s.prewarm(&["fig5"]);
        s.fig5_or_6(false)
    };
    for jobs in [1, 2] {
        let mut s = Session::new(SCALE)
            .include_wall(false)
            .jobs(jobs)
            .cell_timeout(std::time::Duration::from_secs(600));
        s.prewarm(&["fig5"]);
        assert_eq!(
            reference,
            s.fig5_or_6(false),
            "cell_timeout must not perturb figure text (jobs={jobs})"
        );
    }
}

/// With no faults injected and limits off (the defaults), the isolation
/// machinery is invisible: default and strict sessions render the same
/// bytes.
#[test]
fn fault_free_default_and_strict_render_identically() {
    let mut default_mode = Session::new(SCALE).include_wall(false).jobs(2);
    default_mode.prewarm(&["fig5"]);
    let mut strict_mode = Session::new(SCALE).include_wall(false).jobs(2).strict(true);
    strict_mode.prewarm(&["fig5"]);
    assert_eq!(default_mode.fig5_or_6(false), strict_mode.fig5_or_6(false));
}
