//! The decode optimization, loop plans, must be invisible everywhere
//! except wall time: every figure byte, operation
//! count, program output (checksums) and memory highwater is identical
//! between the reference decode and the default one. These tests are the safety net that lets the
//! interpreter's fast paths change (or be deleted) — never weaken them
//! to make a change pass.

use ade_bench::figures::{cells_for_target, Session};
use ade_bench::runner::{run_cell, CellSpec};
use ade_interp::decode::{BulkOp, DInst, PlanOp};
use ade_interp::{DecodeOptions, DecodedModule};
use ade_workloads::bench::benchmark_by_abbrev;
use ade_workloads::{Config, ConfigKind};

const SCALE: u32 = 5;

/// Whether any bulk loop plan of `abbrev` compiled under `kind` has an
/// op (at any depth) satisfying `pred`.
fn decode_has(abbrev: &str, kind: ConfigKind, pred: fn(&BulkOp) -> bool) -> bool {
    fn ops_have(ops: &[PlanOp], pred: fn(&BulkOp) -> bool) -> bool {
        ops.iter().any(|p| {
            pred(&p.op)
                || match &p.op {
                    BulkOp::If {
                        then_ops, else_ops, ..
                    } => ops_have(then_ops, pred) || ops_have(else_ops, pred),
                    BulkOp::Loop { plan } => ops_have(&plan.ops, pred),
                    _ => false,
                }
        })
    }
    let bench = benchmark_by_abbrev(abbrev).expect("known benchmark");
    let config = Config::new(kind);
    let mut module = (bench.build)(SCALE);
    config.compile(&mut module);
    let decoded = DecodedModule::decode_with(&module, &DecodeOptions::default());
    decoded
        .funcs
        .iter()
        .flat_map(|f| f.code.iter())
        .any(|inst| match inst {
            DInst::LoopBulk(_, plan) => ops_have(&plan.ops, pred),
            _ => false,
        })
}

/// The fig5 programs exercise every plan shape the tests below compare:
/// plans that run nested loops in place and plans that translate, so
/// byte-identity with the reference decode covers them.
#[test]
fn fig5_programs_nest_and_translate_inside_plans() {
    assert!(decode_has("TC", ConfigKind::Ade, |op| matches!(
        op,
        BulkOp::Loop { .. }
    )));
    assert!(decode_has("TC", ConfigKind::Ade, |op| matches!(
        op,
        BulkOp::Dec { .. }
    )));
    assert!(decode_has("CD", ConfigKind::Ade, |op| matches!(
        op,
        BulkOp::Enc { .. } | BulkOp::EnumAdd { .. }
    )));
    assert!(decode_has("CD", ConfigKind::Memoir, |op| matches!(
        op,
        BulkOp::New { .. }
    )));
}

/// Graph construction and points-to propagation run inside plans: a
/// writer through a nesting path (KT's adjacency-list append
/// `insert %g[%v], %len, %u`, whose `coll` is a lowered read's scratch
/// slot) and PTA's `union %pts[%p], %s`.
#[test]
fn fig5_programs_lower_paths_and_union_inside_plans() {
    for kind in [ConfigKind::Memoir, ConfigKind::Ade] {
        assert!(decode_has("KT", kind, |op| matches!(
            op,
            BulkOp::InsertSeq { coll, base, .. } if coll != base
        )));
        assert!(decode_has("PTA", kind, |op| matches!(
            op,
            BulkOp::Union { .. }
        )));
    }
}

/// Fig. 5 text is byte-identical on the reference and the default
/// decode.
#[test]
fn fig5_text_is_byte_identical_reference_vs_default() {
    let text = |reference: bool| {
        let mut session = Session::new(SCALE).reference(reference);
        session.prewarm(&["fig5"]);
        session.fig5_or_6(false)
    };
    assert_eq!(text(false), text(true), "fig5 text diverged");
}

/// Every fig5 cell carries identical per-phase operation counts,
/// program output (order-insensitive checksums) and memory highwater on
/// both decodes.
#[test]
fn cell_stats_match_exactly_reference_vs_default() {
    let cells = cells_for_target("fig5");
    assert!(!cells.is_empty(), "fig5 must plan a non-empty matrix");

    let mut reference = Session::new(SCALE).reference(true);
    reference.prewarm(&["fig5"]);
    let mut default = Session::new(SCALE).jobs(2);
    default.prewarm(&["fig5"]);
    for &(abbrev, kind) in &cells {
        let r = reference.cell(abbrev, kind);
        let d = default.cell(abbrev, kind);
        let tag = format!("[{abbrev} {}]", kind.name());
        assert_eq!(
            r.stats.per_phase, d.stats.per_phase,
            "{tag} op counts diverged"
        );
        assert_eq!(r.output, d.output, "{tag} program output diverged");
        assert_eq!(
            r.stats.peak_bytes, d.stats.peak_bytes,
            "{tag} peak memory diverged"
        );
    }
}

/// A fuel budget that trips mid-loop must trip at the identical point on
/// both decodes: bulk loops never change where a limit
/// (or any trap) lands. Sweeps budgets from "trips immediately" through
/// "completes" and requires bit-identical outcomes — same error text on
/// the trapping side, same output/stats on the completing side.
///
/// The sweep covers the first fig5 cell, TC under `ade`, whose plans
/// hold nested loops (under a fuel limit those plans stay off and their
/// loops run generically, which must not move the trap point either),
/// and PTA under `ade`, whose plans lower paths and hold `union`.
#[test]
fn fuel_trap_point_is_identical_reference_vs_default() {
    let cells = cells_for_target("fig5");
    let &first = cells.first().expect("fig5 plans at least one cell");
    for (abbrev, kind) in [first, ("TC", ConfigKind::Ade), ("PTA", ConfigKind::Ade)] {
        fuel_sweep(abbrev, kind);
    }
}

fn fuel_sweep(abbrev: &str, kind: ConfigKind) {
    let bench = benchmark_by_abbrev(abbrev).expect("known benchmark");

    for fuel in [1u64, 37, 1_000, 25_000, u64::MAX] {
        let run = |reference: bool| {
            run_cell(&CellSpec {
                fuel: Some(fuel),
                reference,
                ..CellSpec::new(&bench, kind, SCALE)
            })
        };
        let tag = format!("[{abbrev} fuel={fuel}]");
        match (run(true), run(false)) {
            (Ok(r), Ok(d)) => {
                assert_eq!(r.output, d.output, "{tag} output diverged");
                assert_eq!(
                    r.stats.per_phase, d.stats.per_phase,
                    "{tag} op counts diverged"
                );
            }
            (Err(r), Err(d)) => {
                assert_eq!(r.to_string(), d.to_string(), "{tag} trap point diverged")
            }
            (r, d) => {
                panic!("{tag} one side trapped, the other did not: reference={r:?} default={d:?}")
            }
        }
    }
}
