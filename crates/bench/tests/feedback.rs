//! The feedback RQ must be deterministic infrastructure, not a new
//! source of noise: its figure text is byte-identical for every
//! `--jobs` count and on the reference and default decodes, the
//! feedback-directed runs preserve program behavior exactly, and
//! running the RQ leaves every pre-existing figure untouched.

use ade_bench::figures::{cells_for_target, Session};
use ade_bench::runner::{run_cell, try_run_feedback_cell, CellSpec};
use ade_workloads::bench::benchmark_by_abbrev;
use ade_workloads::ConfigKind;

const SCALE: u32 = 5;

#[test]
fn feedback_figure_is_byte_identical_across_job_counts() {
    let mut serial = Session::new(SCALE).jobs(1).include_wall(false);
    serial.prewarm(&["feedback"]);
    let serial_text = serial.feedback_rq();

    let mut parallel = Session::new(SCALE).jobs(8).include_wall(false);
    parallel.prewarm(&["feedback"]);
    let parallel_text = parallel.feedback_rq();

    assert_eq!(
        serial_text, parallel_text,
        "feedback figure must not depend on the worker count"
    );
    assert!(serial_text.contains("GEO"), "{serial_text}");
    assert!(serial_text.contains("picked"), "{serial_text}");
}

#[test]
fn feedback_figure_is_byte_identical_reference_vs_default() {
    let text = |reference: bool| {
        Session::new(4)
            .include_wall(false)
            .reference(reference)
            .feedback_rq()
    };
    assert_eq!(text(true), text(false));
}

#[test]
fn feedback_runs_preserve_behavior_and_the_ledger_explains_them() {
    for abbrev in ["BFS", "KT", "PTA"] {
        let bench = benchmark_by_abbrev(abbrev).expect("known benchmark");
        let (run, ledger) =
            try_run_feedback_cell(&bench, SCALE, 1, false).expect("feedback runs");
        let baseline =
            run_cell(&CellSpec::new(&bench, ConfigKind::Memoir, SCALE)).expect("baseline runs");
        assert_eq!(run.output, baseline.output, "[{abbrev}] behavior changed");
        assert!(!ledger.is_empty(), "[{abbrev}] no decisions recorded");
        for d in &ledger.decisions {
            assert_eq!(d.candidates.len(), 2, "[{abbrev}] both candidates priced");
            assert!(
                d.candidates.iter().all(|c| c.measured_ns.is_some()),
                "[{abbrev}] measured column filled"
            );
        }
        let report = ledger.render_report();
        assert_eq!(report, ledger.render_report(), "[{abbrev}] deterministic");
        assert!(report.contains("per-function summary:"), "[{abbrev}]");
    }
}

#[test]
fn running_the_feedback_rq_leaves_fig5_untouched() {
    // A session that never sees the feedback RQ...
    let mut plain = Session::new(SCALE).jobs(2).include_wall(false);
    plain.prewarm(&["fig5"]);
    let fig5_plain = plain.fig5_or_6(false);

    // ...and one that renders it first, sharing cells with fig5.
    let mut with_feedback = Session::new(SCALE).jobs(2).include_wall(false);
    with_feedback.prewarm(&["feedback", "fig5"]);
    let _ = with_feedback.feedback_rq();
    let fig5_after = with_feedback.fig5_or_6(false);

    assert_eq!(
        fig5_plain, fig5_after,
        "the feedback RQ must not perturb existing figures"
    );
}

#[test]
fn feedback_target_plans_the_oracle_cells() {
    let cells = cells_for_target("feedback");
    assert!(!cells.is_empty());
    for kind in [
        ConfigKind::Memoir,
        ConfigKind::Ade,
        ConfigKind::AdeSparse,
        ConfigKind::AdeNestedSparse,
    ] {
        assert!(
            cells.iter().any(|&(_, k)| k == kind),
            "{} missing from the feedback plan",
            kind.name()
        );
    }
}
