//! Guest traps raised inside bulk loop plans on the default path (no
//! fuel or session, so bulk plans run, nested ones included) must
//! match the reference
//! decode exactly: the same trap kind, code and `@fn:inst` site. A heap
//! limit tripped inside a plan must stop the run at the same tick.

mod common;

use ade::interp::decode::{BulkOp, Test, UScalar};
use ade::interp::{DecodeOptions, DecodedModule, ExecConfig, ExecError, Interpreter, Limit};
use ade::ir::parse::parse_module;
use ade::ir::BinOp;
use common::bulk_plan_has;

/// One trapping program and the plan op that raises its trap.
struct Case {
    name: &'static str,
    text: &'static str,
    /// The expected [`ExecError::code`].
    code: &'static str,
    /// The op, at any depth of some bulk loop plan of the default
    /// decode, that carries the trap.
    shape: fn(&BulkOp) -> bool,
}

fn div(op: &BulkOp) -> bool {
    matches!(op, BulkOp::Scalar(UScalar::Bin { op: BinOp::Div, .. }))
}

/// A `div` in an arm of a branch that tests its compare directly.
fn div_in_arm(op: &BulkOp) -> bool {
    let BulkOp::If {
        test,
        then_ops,
        else_ops,
        ..
    } = op
    else {
        return false;
    };
    !matches!(test, Test::Bool(_)) && then_ops.iter().chain(else_ops.iter()).any(|p| div(&p.op))
}

const CASES: &[Case] = &[
    Case {
        name: "missing key at a read-modify-write of a forrange",
        text: r#"
fn @main() -> void {
  %m = new Map<u64, u64>
  %k0 = const 0u64
  %m0 = insert %m, %k0
  %lo = const 0u64
  %hi = const 5u64
  %r = forrange %lo, %hi carry(%m0) as (%i: u64, %c: Map<u64, u64>) {
    %one = const 1u64
    %v = read %c, %i
    %v1 = add %v, %one
    %c1 = write %c, %i, %v1
    yield %c1
  }
  %n = size %r
  print %n
  ret
}
"#,
        code: "missing-key",
        shape: |op| matches!(op, BulkOp::Read { .. }),
    },
    Case {
        name: "missing key in the arm of a has-guarded if of a foreach",
        text: r#"
fn @main() -> void {
  %s = new Set<u64>
  %a = const 1u64
  %b = const 2u64
  %s1 = insert %s, %a
  %s2 = insert %s1, %b
  %m = new Map<u64, u64>
  %m1 = insert %m, %a
  %zero = const 0u64
  %t = foreach %s2 carry(%zero) as (%v: u64, %acc: u64) {
    %h = has %s2, %v
    %x = if %h then {
      %y = read %m1, %v
      yield %y
    } else {
      yield %zero
    }
    %acc1 = add %acc, %x
    yield %acc1
  }
  print %t
  ret
}
"#,
        code: "missing-key",
        shape: |op| matches!(op, BulkOp::Read { .. }),
    },
    Case {
        name: "out-of-range seq insert in a foreach",
        text: r#"
fn @main() -> void {
  %in = new Seq<u64>
  %z = const 0u64
  %five = const 5u64
  %in1 = insert %in, %z, %five
  %out = new Seq<u64>
  %r = foreach %in1 carry(%out) as (%i: u64, %v: u64, %c: Seq<u64>) {
    %c1 = insert %c, %v, %v
    yield %c1
  }
  %n = size %r
  print %n
  ret
}
"#,
        code: "out-of-bounds",
        shape: |op| matches!(op, BulkOp::InsertSeq { .. }),
    },
    Case {
        name: "out-of-range seq insert after scalar ops of a forrange",
        text: r#"
fn @main() -> void {
  %out = new Seq<u64>
  %lo = const 0u64
  %hi = const 4u64
  %r = forrange %lo, %hi carry(%out) as (%i: u64, %c: Seq<u64>) {
    %two = const 2u64
    %j = mul %i, %two
    %c1 = insert %c, %j, %i
    yield %c1
  }
  %n = size %r
  print %n
  ret
}
"#,
        code: "out-of-bounds",
        shape: |op| matches!(op, BulkOp::InsertSeq { .. }),
    },
    Case {
        name: "enc sentinel inserted into a bit set in a forrange, after an enc-keyed has",
        text: r#"
enum e0: u64

fn @main() -> void {
  %x = const 42u64
  %s = new Set{Bit}<idx>
  %id = enc e0, %x
  %h = has %s, %id
  %lo = const 0u64
  %hi = const 3u64
  %r = forrange %lo, %hi carry(%s) as (%i: u64, %c: Set{Bit}<idx>) {
    %c1 = insert %c, %id
    yield %c1
  }
  print %h
  ret
}
"#,
        code: "sentinel-insert",
        shape: |op| matches!(op, BulkOp::InsertSet { .. }),
    },
    Case {
        name: "division by zero in the scalar ops of a forrange",
        text: r#"
fn @main() -> void {
  %lo = const 0u64
  %hi = const 4u64
  %zero = const 0u64
  %r = forrange %lo, %hi carry(%zero) as (%i: u64, %acc: u64) {
    %ten = const 10u64
    %q = div %ten, %i
    %acc1 = add %acc, %q
    yield %acc1
  }
  print %r
  ret
}
"#,
        code: "div-by-zero",
        shape: div,
    },
    Case {
        name: "division by zero in the arm of a compare's branch in a forrange",
        text: r#"
fn @main() -> void {
  %lo = const 0u64
  %hi = const 6u64
  %zero = const 0u64
  %r = forrange %lo, %hi carry(%zero) as (%i: u64, %acc: u64) {
    %three = const 3u64
    %c = lt %i, %three
    %q = if %c then {
      %one = const 1u64
      yield %one
    } else {
      %z = const 0u64
      %d = div %i, %z
      yield %d
    }
    %acc1 = add %acc, %q
    yield %acc1
  }
  print %r
  ret
}
"#,
        code: "div-by-zero",
        shape: div_in_arm,
    },
    Case {
        name: "division by zero of a read value in a foreach",
        text: r#"
fn @main() -> void {
  %in = new Seq<u64>
  %z = const 0u64
  %five = const 5u64
  %in1 = insert %in, %z, %five
  %zero = const 0u64
  %r = foreach %in1 carry(%zero) as (%i: u64, %v: u64, %acc: u64) {
    %w = read %in1, %i
    %q = div %w, %i
    %acc1 = add %acc, %q
    yield %acc1
  }
  print %r
  ret
}
"#,
        code: "div-by-zero",
        shape: div,
    },
    Case {
        name: "missing key in an inner loop of a nested plan",
        text: r#"
fn @main() -> void {
  %m = new Map<u64, u64>
  %zero = const 0u64
  %ten = const 10u64
  %mf = forrange %zero, %ten carry(%m) as (%i: u64, %mm: Map<u64, u64>) {
    %m1 = write %mm, %i, %i
    yield %m1
  }
  %four = const 4u64
  %three = const 3u64
  %tot = forrange %zero, %three carry(%zero) as (%j: u64, %acc: u64) {
    %base = mul %j, %four
    %in = forrange %zero, %four carry(%acc) as (%k: u64, %a: u64) {
      %key = add %base, %k
      %v = read %mf, %key
      %a1 = add %a, %v
      yield %a1
    }
    yield %in
  }
  print %tot
  ret
}
"#,
        code: "missing-key",
        shape: |op| matches!(op, BulkOp::Loop { .. }),
    },
    Case {
        name: "dec of an identifier past the enumeration inside a plan",
        text: r#"
enum e0: u64

fn @main() -> void {
  %s = new Set<u64>
  %zero = const 0u64
  %three = const 3u64
  %five = const 5u64
  %ids = forrange %zero, %three carry(%s) as (%i: u64, %ss: Set<u64>) {
    %id = enumadd e0, %i
    %s1 = insert %ss, %i
    yield %s1
  }
  %tot = forrange %zero, %five carry(%zero) as (%i: u64, %acc: u64) {
    %id = cast %i to idx
    %v = dec e0, %id
    %acc1 = add %acc, %v
    yield %acc1
  }
  %n = size %ids
  print %tot, %n
  ret
}
"#,
        code: "out-of-bounds",
        shape: |op| matches!(op, BulkOp::Dec { .. }),
    },
    Case {
        name: "missing inner key at a read through a nesting path",
        text: r#"
fn @main() -> void {
  %zero = const 0u64
  %six = const 6u64
  %m = new Map<u64, Map<u64, u64>>
  %m1 = forrange %zero, %six carry(%m) as (%k: u64, %mm: Map<u64, Map<u64, u64>>) {
    %mm1 = insert %mm, %k
    %mm2 = insert %mm1[%k], %k
    yield %mm2
  }
  %four = const 4u64
  %tot = forrange %zero, %six carry(%zero) as (%k: u64, %acc: u64) {
    %x = rem %k, %four
    %v = read %m1[%k], %x
    %a = add %acc, %v
    yield %a
  }
  print %tot
  ret
}
"#,
        code: "missing-key",
        shape: |op| matches!(op, BulkOp::Read { .. }),
    },
    Case {
        name: "missing outer key at a union through a nesting path",
        text: r#"
fn @main() -> void {
  %zero = const 0u64
  %three = const 3u64
  %p = new Map<u64, Set<u64>>
  %p1 = forrange %zero, %three carry(%p) as (%u: u64, %pp: Map<u64, Set<u64>>) {
    %pp1 = insert %pp, %u
    yield %pp1
  }
  %six = const 6u64
  %p2 = forrange %zero, %six carry(%p1) as (%i: u64, %pc: Map<u64, Set<u64>>) {
    %s = new Set<u64>
    %s1 = insert %s, %i
    %pc1 = union %pc[%i], %s1
    yield %pc1
  }
  %n = size %p2
  print %n
  ret
}
"#,
        code: "missing-key",
        shape: |op| matches!(op, BulkOp::Union { .. }),
    },
    Case {
        name: "missing key at a clear through a nesting path",
        text: r#"
fn @main() -> void {
  %zero = const 0u64
  %three = const 3u64
  %five = const 5u64
  %m = new Map<u64, Set<u64>>
  %m1 = forrange %zero, %three carry(%m) as (%k: u64, %mm: Map<u64, Set<u64>>) {
    %mm1 = insert %mm, %k
    yield %mm1
  }
  %m2 = forrange %zero, %five carry(%m1) as (%k: u64, %mm: Map<u64, Set<u64>>) {
    %mm1 = clear %mm[%k]
    yield %mm1
  }
  %n = size %m2
  print %n
  ret
}
"#,
        code: "missing-key",
        shape: |op| matches!(op, BulkOp::Clear { .. }),
    },
    Case {
        name: "missing key in a tuple field read through a nesting path",
        text: r#"
fn @main() -> void {
  %zero = const 0u64
  %three = const 3u64
  %five = const 5u64
  %lens = new Map<u64, u64>
  %l1 = forrange %zero, %three carry(%lens) as (%k: u64, %ll: Map<u64, u64>) {
    %ll1 = write %ll, %k, %k
    yield %ll1
  }
  %tot = forrange %zero, %five carry(%zero) as (%k: u64, %acc: u64) {
    %t = tuple %k, %l1[%k]
    %a = add %acc, %t.1
    yield %a
  }
  print %tot
  ret
}
"#,
        code: "missing-key",
        shape: |op| matches!(op, BulkOp::Tuple { .. }),
    },
    Case {
        name: "map length at an `end` step stops being a key",
        text: r#"
fn @main() -> void {
  %zero = const 0u64
  %two = const 2u64
  %three = const 3u64
  %seven = const 7u64
  %m = new Map<u64, Seq<u64>>
  %m1 = insert %m, %zero
  %m2 = insert %m1, %two
  %m3 = insert %m2[%two], %zero, %seven
  %mf, %tot = forrange %zero, %three carry(%m3, %zero) as (%i: u64, %mm: Map<u64, Seq<u64>>, %acc: u64) {
    %v = read %mm[end], %zero
    %ten = const 10u64
    %k = add %i, %ten
    %mm1 = insert %mm, %k
    %a = add %acc, %v
    yield %mm1, %a
  }
  print %tot
  ret
}
"#,
        code: "missing-key",
        shape: |op| matches!(op, BulkOp::Len { .. }),
    },
    Case {
        name: "constant path index past a shrinking sequence",
        text: r#"
fn @main() -> void {
  %zero = const 0u64
  %one = const 1u64
  %two = const 2u64
  %three = const 3u64
  %r = new Seq<u64>
  %r1 = insert %r, %zero, %two
  %s = new Seq<u64>
  %s1 = insert %s, %zero, %three
  %q = new Seq<Seq<u64>>
  %q1 = insert %q, %zero, %r1
  %q2 = insert %q1, %one, %s1
  %qf, %tot = forrange %zero, %three carry(%q2, %zero) as (%i: u64, %qc: Seq<Seq<u64>>, %acc: u64) {
    %n = size %qc[1]
    %qc1 = remove %qc, %zero
    %a = add %acc, %n
    yield %qc1, %a
  }
  print %tot
  ret
}
"#,
        code: "out-of-bounds",
        shape: |op| matches!(op, BulkOp::Read { .. }),
    },
];

fn run(module: &ade::ir::Module, reference: bool) -> (DecodedModule, ExecError) {
    let decoded = DecodedModule::decode_with(module, &DecodeOptions { reference });
    let err = Interpreter::new(module, ExecConfig::default())
        .run_decoded(&decoded, "main")
        .expect_err("the program traps");
    (decoded, err)
}

/// Each trapping program traps identically on both decodes, and the
/// default decode really ran the trap through a bulk loop plan: the op
/// that raises it is part of one.
#[test]
fn plan_traps_match_the_reference_decode() {
    for case in CASES {
        let module = parse_module(case.text).unwrap_or_else(|e| panic!("{}: {e}", case.name));
        ade::ir::verify::verify_module(&module).unwrap_or_else(|e| panic!("{}: {e}", case.name));
        let (decoded, default) = run(&module, false);
        assert!(
            decoded
                .funcs
                .iter()
                .flat_map(|f| f.code.iter())
                .any(|i| bulk_plan_has(i, case.shape)),
            "{}: the trapping op must compile into a bulk plan",
            case.name
        );
        let (_, reference) = run(&module, true);
        assert_eq!(default, reference, "{}", case.name);
        assert_eq!(default.code(), case.code, "{}: {default}", case.name);
        assert!(
            matches!(default, ExecError::GuestTrap { site: Some(_), .. }),
            "{}: the trap is sited: {default}",
            case.name
        );
    }
}

/// A dense map over `u64` keys (the case a `select(...)` directive
/// forces) reports an absent key as the program wrote it, `4`, not as
/// the identifier `#4`, and at the same site on both decodes.
#[test]
fn dense_u64_missing_key_shows_the_programs_key() {
    let module = parse_module(
        r#"
fn @main() -> void {
  %m = new Map{Bit}<u64, u64>
  %lo = const 0u64
  %four = const 4u64
  %five = const 5u64
  %m1 = forrange %lo, %four carry(%m) as (%i: u64, %c: Map{Bit}<u64, u64>) {
    %c1 = write %c, %i, %i
    yield %c1
  }
  %t = forrange %lo, %five carry(%lo) as (%j: u64, %acc: u64) {
    %v = read %m1, %j
    %acc1 = add %acc, %v
    yield %acc1
  }
  print %t
  ret
}
"#,
    )
    .expect("parses");
    let (decoded, default) = run(&module, false);
    let read = |op: &BulkOp| matches!(op, BulkOp::Read { .. });
    assert!(
        decoded
            .funcs
            .iter()
            .flat_map(|f| f.code.iter())
            .any(|i| bulk_plan_has(i, read)),
        "the trapping read must compile into a bulk plan"
    );
    let (_, reference) = run(&module, true);
    assert_eq!(default, reference);
    assert_eq!(default.code(), "missing-key", "{default}");
    let ExecError::GuestTrap {
        site: Some(_),
        kind,
    } = &default
    else {
        panic!("a sited guest trap: {default}");
    };
    assert_eq!(kind.to_string(), "read of absent key 4");
}

/// Runs `module` under a heap limit of `cells` collections on one
/// decode: the decoded stream, the error that stops the run, and the
/// ticks it executed.
fn heap_limited(
    module: &ade::ir::Module,
    reference: bool,
    cells: usize,
) -> (DecodedModule, ExecError, u64) {
    let decoded = DecodedModule::decode_with(module, &DecodeOptions { reference });
    let config = ExecConfig {
        max_heap_cells: Some(cells),
        ..ExecConfig::default()
    };
    let mut interp = Interpreter::new(module, config);
    let err = interp
        .run_decoded(&decoded, "main")
        .expect_err("the heap limit trips");
    (decoded, err, interp.fuel_ticks())
}

/// A `max_heap_cells` limit that trips at a `new` inside a bulk loop
/// plan stops the run with the same error, after the same number of
/// ticks, as on the reference decode.
#[test]
fn heap_cell_limit_trips_at_a_planned_new() {
    let module = parse_module(
        r#"
fn @main() -> void {
  %zero = const 0u64
  %ten = const 10u64
  %tot = forrange %zero, %ten carry(%zero) as (%i: u64, %acc: u64) {
    %s = new Set<u64>
    %s1 = insert %s, %i
    %n = size %s1
    %acc1 = add %acc, %n
    yield %acc1
  }
  print %tot
  ret
}
"#,
    )
    .expect("parses");
    ade::ir::verify::verify_module(&module).expect("verifies");
    let (decoded, default, ticks) = heap_limited(&module, false, 6);
    assert!(
        decoded.funcs[0]
            .code
            .iter()
            .any(|i| bulk_plan_has(i, |op| matches!(op, BulkOp::New { .. }))),
        "the loop's `new` must compile into its plan"
    );
    assert_eq!(
        default,
        ExecError::LimitExceeded {
            limit: Limit::HeapCells,
            budget: 6,
        }
    );
    let (_, reference, reference_ticks) = heap_limited(&module, true, 6);
    assert_eq!((default, ticks), (reference, reference_ticks));
}

/// A `max_heap_cells` limit that trips at the allocation of a literal
/// collection, once at top level and once inside a bulk loop plan, stops
/// the run with the same error after the same number of ticks on both
/// decodes, and after the literals that fit.
#[test]
fn heap_cell_limit_trips_at_a_literal() {
    let module = parse_module(
        r#"
fn @main() -> void {
  %a = literal u64 [8]
  %zero = const 0u64
  %ten = const 10u64
  %tot = forrange %zero, %ten carry(%zero) as (%i: u64, %acc: u64) {
    %s = literal u64 [4, 2]
    %n = size %s
    %acc1 = add %acc, %n
    yield %acc1
  }
  print %tot
  ret
}
"#,
    )
    .expect("parses");
    ade::ir::verify::verify_module(&module).expect("verifies");
    let (decoded, _, _) = heap_limited(&module, false, 1);
    assert!(
        decoded.funcs[0]
            .code
            .iter()
            .any(|i| bulk_plan_has(i, |op| matches!(op, BulkOp::Literal { .. }))),
        "the loop's literal must compile into its plan"
    );
    let mut stops = Vec::new();
    for cells in [0, 1, 4] {
        let (_, default, ticks) = heap_limited(&module, false, cells);
        assert_eq!(
            default,
            ExecError::LimitExceeded {
                limit: Limit::HeapCells,
                budget: cells as u64,
            }
        );
        let (_, reference, reference_ticks) = heap_limited(&module, true, cells);
        assert_eq!(
            (&default, ticks),
            (&reference, reference_ticks),
            "{cells} cells"
        );
        stops.push(ticks);
    }
    // No cell: the first literal trips before it runs; one cell: the
    // first iteration's literal; four: the fourth iteration's.
    assert!(stops[0] < stops[1] && stops[1] < stops[2], "{stops:?}");
}
