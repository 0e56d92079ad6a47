//! The parallel evaluation matrix must be an implementation detail:
//! every figure and every statistic derived from it has to be identical
//! for every `--jobs` value. These tests pin that down at scale 6
//! (small enough for CI, large enough that every benchmark exercises
//! its collections).

use ade_bench::figures::{cells_for_target, Session};

const SCALE: u32 = 6;

/// Fig. 5 text is byte-identical whether the matrix is filled serially
/// or by eight workers.
#[test]
fn fig5_text_is_byte_identical_across_job_counts() {
    let mut serial = Session::new(SCALE).jobs(1);
    serial.prewarm(&["fig5"]);
    let serial_text = serial.fig5_or_6(false);

    let mut parallel = Session::new(SCALE).jobs(8);
    parallel.prewarm(&["fig5"]);
    let parallel_text = parallel.fig5_or_6(false);

    assert_eq!(
        serial_text, parallel_text,
        "fig5 text must not depend on the worker count"
    );
}

/// Every cell of the fig5 matrix carries exactly the same operation
/// counts (per phase), program output, and memory highwater regardless
/// of how many workers filled the cache.
#[test]
fn fig5_cell_stats_match_exactly_across_job_counts() {
    let cells = cells_for_target("fig5");
    assert!(!cells.is_empty(), "fig5 must plan a non-empty matrix");

    let mut serial = Session::new(SCALE).jobs(1);
    serial.prewarm(&["fig5"]);
    let mut parallel = Session::new(SCALE).jobs(8);
    parallel.prewarm(&["fig5"]);

    for (abbrev, kind) in cells {
        let s = serial.cell(abbrev, kind);
        let p = parallel.cell(abbrev, kind);
        assert_eq!(
            s.stats.per_phase,
            p.stats.per_phase,
            "[{abbrev} {}] op counts diverged between job counts",
            kind.name()
        );
        assert_eq!(
            s.stats.totals(),
            p.stats.totals(),
            "[{abbrev} {}] op totals diverged between job counts",
            kind.name()
        );
        assert_eq!(
            s.output,
            p.output,
            "[{abbrev} {}] program output diverged",
            kind.name()
        );
        assert_eq!(
            s.stats.peak_bytes,
            p.stats.peak_bytes,
            "[{abbrev} {}] peak memory diverged",
            kind.name()
        );
    }
}

/// The planner covers exactly the configurations each figure renders,
/// and never plans a benchmark twice for the same configuration.
#[test]
fn planner_emits_unique_cells_per_target() {
    for target in [
        "fig4", "fig5", "fig6", "table2", "table3", "fig7", "fig8", "fig9", "rq4",
    ] {
        let cells = cells_for_target(target);
        let mut seen = std::collections::HashSet::new();
        for (abbrev, kind) in &cells {
            assert!(
                seen.insert((*abbrev, *kind)),
                "{target} plans ({abbrev}, {}) twice",
                kind.name()
            );
        }
    }
}
