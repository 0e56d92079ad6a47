//! Budget parity: the fast path (bulk loop plans) runs under every
//! budget, and a budget never changes what a run observes, on plans or
//! on generic dispatch.
//! Each program runs unprofiled on both decodes, as a batch run and as a
//! session at quanta {1, 2, 3, 7, 4096, unlimited}, with no fuel limit
//! and under every fuel limit within the last 40 ticks of its run (every
//! fuel limit for the literal and permuted-yield cases). Every
//! run must match the batch run on the reference decode under the same
//! budget: output, return value, per-phase statistics, peak and final
//! bytes, executed ticks, and the error (code and `@fn:inst` site).
//! A plan that holds a nested loop has no static worst case, so it runs
//! only in the unlimited batch runs; under fuel and in sessions its loop
//! runs generically, and the sweep checks that it still matches.

mod common;

use std::sync::Arc;

use ade::interp::decode::{BulkOp, DInst, LoopOver, PlanOp, Test, UScalar};
use ade::interp::{
    DecodeOptions, DecodedModule, ExecConfig, ExecError, ExecSession, Interpreter, Limit, Outcome,
    Step,
};
use ade::ir::parse::parse_module;
use ade::ir::Module;
use common::bulk_plan_has;

/// One program, the decode shapes it must exercise, and the depth
/// limits to run it under.
struct Case {
    name: &'static str,
    text: &'static str,
    /// Predicates the default decode must each satisfy on some
    /// instruction.
    shapes: &'static [fn(&DInst) -> bool],
    depths: &'static [Option<u32>],
    /// How many fuel limits below the full tick count the sweep covers.
    fuel_sweep: u64,
}

/// A bulk `forrange` whose body branches and writes, so its plan has
/// `If` arms of different lengths, followed by a bulk `foreach`.
const BULK: &str = r#"
fn @main() -> void {
  %m = new Map<u64, u64>
  %s = new Set<u64>
  %zero = const 0u64
  %n = const 40u64
  %mf, %sf = forrange %zero, %n carry(%m, %s) as (%i: u64, %mm: Map<u64, u64>, %ss: Set<u64>) {
    %three = const 3u64
    %r = rem %i, %three
    %c = eq %r, %zero
    %m2, %s2 = if %c then {
      %t = mul %i, %three
      %m1 = write %mm, %i, %t
      yield %m1, %ss
    } else {
      %s1 = insert %ss, %i
      yield %mm, %s1
    }
    yield %m2, %s2
  }
  %sum = foreach %sf carry(%zero) as (%v: u64, %acc: u64) {
    %a = add %acc, %v
    yield %a
  }
  %cnt = size %mf
  print %sum, %cnt
  ret
}
"#;

/// Generic straight-line dispatch in a `dowhile` body (never a bulk
/// loop): map read/modify/write, `has`- and `cmp`-guarded branches,
/// `enc`-keyed probes and scalar runs, so grant and fuel boundaries fall
/// at every offset of the body.
const STRAIGHT: &str = r#"
enum e0: u64

fn @main() -> void {
  %m = new Map<u64, u64>
  %ids = new Set{Bit}<idx>
  %zero = const 0u64
  %one = const 1u64
  %two = const 2u64
  %ten = const 10u64
  %n = const 24u64
  %last, %mf, %idf, %tot = dowhile carry(%zero, %m, %ids, %zero) as (%i: u64, %mm: Map<u64, u64>, %ss: Set{Bit}<idx>, %acc: u64) {
    %seven = const 7u64
    %k = rem %i, %seven
    %h = has %mm, %k
    %m2 = if %h then {
      %old = read %mm, %k
      %new = add %old, %i
      %m1 = write %mm, %k, %new
      yield %m1
    } else {
      %m1 = insert %mm, %k
      yield %m1
    }
    %v = read %m2, %k
    %w = add %v, %one
    %d = mul %w, %two
    %m3 = write %m2, %k, %d
    %small = lt %i, %ten
    %bonus = if %small then {
      yield %one
    } else {
      yield %zero
    }
    %id = enumadd e0, %k
    %s1 = insert %ss, %id
    %e = enc e0, %i
    %seen = has %s1, %e
    %e2 = enc e0, %n
    %s2 = remove %s1, %e2
    %acc1 = add %acc, %bonus
    %i2 = add %i, %one
    %more = lt %i2, %n
    yield %more, %i2, %m3, %s2, %acc1
  }
  %c = size %mf
  %c2 = size %idf
  print %tot, %c, %c2
  ret
}
"#;

/// A call inside a loop (which keeps that loop generic), and a bulk
/// `foreach` nested in a `forrange` whose plan runs it in place.
const CALLS_AND_NESTING: &str = r#"
fn @main() -> void {
  %s = new Set<u64>
  %zero = const 0u64
  %n = const 12u64
  %sf = forrange %zero, %n carry(%s) as (%i: u64, %ss: Set<u64>) {
    %sq = call @1(%i)
    %s1 = insert %ss, %sq
    yield %s1
  }
  %tot = forrange %zero, %n carry(%zero) as (%j: u64, %acc: u64) {
    %inner = foreach %sf carry(%acc) as (%v: u64, %a: u64) {
      %b = add %a, %v
      %c = add %b, %j
      yield %c
    }
    yield %inner
  }
  print %tot
  ret
}

fn @square(%x: u64) -> u64 {
  %y = mul %x, %x
  ret %y
}
"#;

/// A `missing-key` trap in the eleventh iteration of a bulk `forrange`.
const TRAP_IN_PLAN: &str = r#"
fn @main() -> void {
  %m = new Map<u64, u64>
  %zero = const 0u64
  %ten = const 10u64
  %mf = forrange %zero, %ten carry(%m) as (%i: u64, %mm: Map<u64, u64>) {
    %m1 = write %mm, %i, %i
    yield %m1
  }
  %n = const 20u64
  %tot = forrange %zero, %n carry(%zero) as (%i: u64, %acc: u64) {
    %one = const 1u64
    %v = read %mf, %i
    %w = add %acc, %v
    %x = add %w, %one
    yield %x
  }
  print %tot
  ret
}
"#;

/// Recursion to depth 4 ending in a bulk `forrange` whose body branches:
/// under a depth limit the plan's regions either fit (plans run) or do
/// not (the generic loop trips the limit where the reference does).
const DEPTH: &str = r#"
fn @main() -> void {
  %n = const 4u64
  %r = call @1(%n)
  print %r
  ret
}

fn @rec(%n: u64) -> u64 {
  %zero = const 0u64
  %done = eq %n, %zero
  %r = if %done then {
    %m = new Map<u64, u64>
    %hi = const 8u64
    %mf = forrange %zero, %hi carry(%m) as (%i: u64, %mm: Map<u64, u64>) {
      %two = const 2u64
      %par = rem %i, %two
      %even = eq %par, %zero
      %m2 = if %even then {
        %m1 = write %mm, %i, %i
        yield %m1
      } else {
        yield %mm
      }
      yield %m2
    }
    %sz = size %mf
    yield %sz
  } else {
    %one = const 1u64
    %p = sub %n, %one
    %q = call @1(%p)
    %q1 = add %q, %one
    yield %q1
  }
  ret %r
}
"#;

/// Nested loops, branches nested in branches and every enumeration op
/// inside one plan, ending in a `dec` trap in an inner loop: outer
/// `forrange`s whose plans hold inner loops, an `if` inside an `if` arm,
/// `enc`/`dec`/`enumadd` and `new` components.
const NESTED: &str = r#"
enum e0: u64

fn @main() -> void {
  %zero = const 0u64
  %two = const 2u64
  %six = const 6u64
  %s = new Set<u64>
  %seed = forrange %zero, %six carry(%s) as (%i: u64, %ss: Set<u64>) {
    %s1 = insert %ss, %i
    yield %s1
  }
  %ids = new Set{Bit}<idx>
  %idf, %tot = forrange %zero, %six carry(%ids, %zero) as (%j: u64, %is: Set{Bit}<idx>, %acc: u64) {
    %id = enumadd e0, %j
    %is1 = insert %is, %id
    %seen = new Set<u64>
    %inner, %sf = foreach %seed carry(%acc, %seen) as (%v: u64, %a: u64, %m: Set<u64>) {
      %e = enc e0, %v
      %h = has %is1, %e
      %a2, %m2 = if %h then {
        %back = dec e0, %e
        %small = lt %back, %two
        %a1, %m1 = if %small then {
          %w = add %a, %back
          %mi = insert %m, %back
          yield %w, %mi
        } else {
          yield %a, %m
        }
        yield %a1, %m1
      } else {
        yield %a, %m
      }
      yield %a2, %m2
    }
    %n = size %sf
    %acc1 = add %inner, %n
    yield %is1, %acc1
  }
  %cnt = size %idf
  %bad = forrange %zero, %two carry(%zero) as (%p: u64, %b: u64) {
    %q = forrange %zero, %cnt carry(%b) as (%k: u64, %c: u64) {
      %off = mul %p, %six
      %kk = add %off, %k
      %kid = cast %kk to idx
      %d = dec e0, %kid
      %c1 = add %c, %d
      yield %c1
    }
    yield %q
  }
  print %tot, %bad
  ret
}
"#;

/// Loops whose operands are nesting paths: a `size` and a sequence
/// insert through `%gc[%u]` of a carried outer map (the insert's result
/// is the outer map, so the next iteration's `size` sees the element),
/// a `union` into `%pc[%u]`, and `size`/`read` through paths of the
/// final maps.
const PATHS: &str = r#"
fn @main() -> void {
  %zero = const 0u64
  %four = const 4u64
  %g = new Map<u64, Seq<u64>>
  %p = new Map<u64, Set<u64>>
  %g1, %p1 = forrange %zero, %four carry(%g, %p) as (%u: u64, %gg: Map<u64, Seq<u64>>, %pp: Map<u64, Set<u64>>) {
    %gg1 = insert %gg, %u
    %pp1 = insert %pp, %u
    yield %gg1, %pp1
  }
  %n = const 14u64
  %g2 = forrange %zero, %n carry(%g1) as (%i: u64, %gc: Map<u64, Seq<u64>>) {
    %u = rem %i, %four
    %len = size %gc[%u]
    %gc1 = insert %gc[%u], %len, %i
    yield %gc1
  }
  %p2 = forrange %zero, %n carry(%p1) as (%i: u64, %pc: Map<u64, Set<u64>>) {
    %u = rem %i, %four
    %s = new Set<u64>
    %s1 = insert %s, %i
    %pc1 = union %pc[%u], %s1
    yield %pc1
  }
  %tot = forrange %zero, %four carry(%zero) as (%u: u64, %acc: u64) {
    %c = size %p2[%u]
    %len = size %g2[%u]
    %one = const 1u64
    %at = sub %len, %one
    %last = read %g2[%u], %at
    %a1 = add %acc, %c
    %a2 = mul %a1, %last
    yield %a2
  }
  print %tot
  ret
}
"#;

/// A `missing-key` trap in the fifth iteration of a bulk `forrange`
/// that reads through a nesting path: the outer key is present, the
/// inner map lacks the key.
const PATH_TRAP: &str = r#"
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
    %a1 = add %a, %k
    yield %a1
  }
  print %tot
  ret
}
"#;

/// Ops that only plans reached through the shared op set: a `clear`
/// under an `if`, tuple construction, and path operands with a constant
/// index (`%q1[0]`) and an `end` step (`%m3[end]`, the length 2 of a
/// map keyed {0, 2}).
const CLEAR_TUPLE_CONST_END: &str = r#"
fn @main() -> void {
  %zero = const 0u64
  %one = const 1u64
  %two = const 2u64
  %n = const 12u64
  %row = new Seq<u64>
  %row1 = insert %row, %zero, %two
  %q = new Seq<Seq<u64>>
  %q1 = insert %q, %zero, %row1
  %m = new Map<u64, Seq<u64>>
  %m1 = insert %m, %zero
  %m2 = insert %m1, %two
  %m3 = insert %m2[%two], %zero, %n
  %s = new Set<u64>
  %sf, %acc = forrange %zero, %n carry(%s, %zero) as (%i: u64, %ss: Set<u64>, %a: u64) {
    %ss1 = insert %ss, %i
    %three = const 3u64
    %k = rem %i, %three
    %z = eq %k, %zero
    %ss2 = if %z then {
      %c = clear %ss1
      yield %c
    } else {
      yield %ss1
    }
    %x = read %q1[0], %zero
    %y = read %m3[end], %zero
    %t = tuple %x, %y
    %sz = size %ss2
    %a1 = add %a, %t.1
    %a2 = add %a1, %sz
    %a3 = add %a2, %t.0
    yield %ss2, %a3
  }
  %c = size %sf
  print %acc, %c
  ret
}
"#;

/// Literal collections: a `Seq<u64>`, a `Seq<idx>` whose elements are
/// added to an enumeration (the form ADE gives a literal it propagates
/// identifiers through), a `Seq<str>`, and a `Seq<u64>` materialized in
/// every iteration of a bulk `forrange`. The sweep covers every fuel
/// limit, so a budget boundary lands right before each literal and
/// right after it.
const LITERALS: &str = r#"
enum e0: u64

fn @main() -> void {
  %zero = const 0u64
  %three = const 3u64
  %a = literal u64 [5, 3, 5]
  %b = literal u64 [3, 9, 3] enumadd e0
  %c = literal str ["x", "y\n"]
  %tot = forrange %zero, %three carry(%zero) as (%i: u64, %acc: u64) {
    %d = literal u64 [1, 2]
    %n = size %d
    %acc1 = add %acc, %n
    yield %acc1
  }
  %sa = foreach %a carry(%tot) as (%j: u64, %v: u64, %s: u64) {
    %s1 = add %s, %v
    yield %s1
  }
  %sb = foreach %b carry(%sa) as (%j: u64, %id: idx, %s: u64) {
    %k = dec e0, %id
    %s1 = add %s, %k
    yield %s1
  }
  %nc = size %c
  print %sb, %nc
  ret
}
"#;

/// Yields whose in-order copies would overwrite one of their own
/// sources: carried `u64`s rotated through an `if`, two carried strings
/// swapped, and a `dowhile` condition that is a carried argument the
/// same yield overwrites.
const PERMUTED_YIELDS: &str =
    include_str!("../crates/interp/tests/programs/permuted_yields.memoir");

/// Branches on compares of every kind, nested two deep, each arm with a
/// `const`, plus a compare that is also carried out of the loop (true
/// at the end, so a branch that left its slot unwritten would show).
const COMPARE_BRANCH: &str = r#"
fn @main() -> void {
  %m = new Map<u64, u64>
  %lo = const 0u64
  %hi = const 12u64
  %zero = const 0u64
  %f = const false
  %neg = const -3i64
  %nan = const NaNf64
  %s = const "k"
  %mf, %acc, %kept = forrange %lo, %hi carry(%m, %zero, %f) as (%i: u64, %mm: Map<u64, u64>, %a: u64, %k: bool) {
    %four = const 4u64
    %c = lt %i, %four
    %m2 = if %c then {
      %one = const 1u64
      %m1 = write %mm, %i, %one
      yield %m1
    } else {
      %ii = cast %i to i64
      %d = gt %ii, %neg
      %m3 = if %d then {
        %x = cast %i to f64
        %e = le %x, %nan
        %v = if %e then {
          %seven = const 7u64
          yield %seven
        } else {
          yield %i
        }
        %m1 = write %mm, %i, %v
        yield %m1
      } else {
        yield %mm
      }
      yield %m3
    }
    %t = const "j"
    %sc = ge %t, %s
    %a2 = if %sc then {
      %nine = const 9u64
      %y = add %a, %nine
      yield %y
    } else {
      %y = add %a, %i
      yield %y
    }
    %keep = ge %i, %four
    %a3 = if %keep then {
      %two = const 2u64
      %z = mul %a2, %two
      yield %z
    } else {
      yield %a2
    }
    yield %m2, %a3, %keep
  }
  %n = size %mf
  print %n, %acc, %kept
  ret
}
"#;

/// A `div` by zero in the else-arm of a compare's branch, after a `const`
/// of the same arm, in the ninth iteration.
const COMPARE_BRANCH_TRAP: &str = r#"
fn @main() -> void {
  %lo = const 0u64
  %hi = const 12u64
  %zero = const 0u64
  %sum = forrange %lo, %hi carry(%zero) as (%i: u64, %acc: u64) {
    %eight = const 8u64
    %c = lt %i, %eight
    %r = if %c then {
      %one = const 1u64
      %w = add %i, %one
      yield %w
    } else {
      %z = const 0u64
      %q = div %i, %z
      yield %q
    }
    %acc1 = add %acc, %r
    yield %acc1
  }
  print %sum
  ret
}
"#;

/// A plan whose hoisted prelude `const` keys one of its reads: the
/// lowering of a constant path index.
fn const_index_step(i: &DInst) -> bool {
    let Some(plan) = bulk_range(i) else {
        return false;
    };
    plan.prelude.iter().any(|p| match p.op {
        BulkOp::Scalar(UScalar::Const { dst, .. }) => plan
            .ops
            .iter()
            .any(|q| matches!(q.op, BulkOp::Read { key, .. } if key == dst)),
        _ => false,
    })
}

/// A writer whose collection operand is a nesting path (its `coll` is a
/// lowered read's scratch slot, not its `base`).
fn writer_through_path(op: &BulkOp) -> bool {
    matches!(op, BulkOp::InsertSeq { coll, base, .. } if coll != base)
}

fn bulk_range_with_if(i: &DInst) -> bool {
    bulk_range(i).is_some() && bulk_plan_has(i, |op| matches!(op, BulkOp::If { .. }))
}

/// A bulk loop with a branch that tests its compare directly.
fn fused_branch(i: &DInst) -> bool {
    bulk_plan_has(
        i,
        |op| matches!(op, BulkOp::If { test, .. } if !matches!(test, Test::Bool(_))),
    )
}

/// A bulk loop with a branch on a `bool` slot.
fn slot_branch(i: &DInst) -> bool {
    bulk_plan_has(i, |op| {
        matches!(
            op,
            BulkOp::If {
                test: Test::Bool(_),
                ..
            }
        )
    })
}

fn bulk_foreach(i: &DInst) -> bool {
    matches!(i, DInst::LoopBulk(head, _) if matches!(head.over, LoopOver::Coll(_)))
}

/// The plan of a bulk `forrange` header.
fn bulk_range(i: &DInst) -> Option<&ade::interp::decode::BulkPlan> {
    match i {
        DInst::LoopBulk(head, plan) if matches!(head.over, LoopOver::Range { .. }) => Some(plan),
        _ => None,
    }
}

const NO_DEPTH_LIMIT: &[Option<u32>] = &[None];

const CASES: &[Case] = &[
    Case {
        name: "bulk forrange with if arms, bulk foreach",
        text: BULK,
        shapes: &[bulk_range_with_if, bulk_foreach],
        depths: NO_DEPTH_LIMIT,
        fuel_sweep: FUEL_SWEEP,
    },
    Case {
        name: "generic straight-line dispatch",
        text: STRAIGHT,
        // The program has no `foreach`/`forrange`, so dispatch enters
        // its `if` arms.
        shapes: &[|i| matches!(i, DInst::If { .. })],
        depths: NO_DEPTH_LIMIT,
        fuel_sweep: FUEL_SWEEP,
    },
    Case {
        name: "call in a loop, bulk loop nested in a bulk one",
        text: CALLS_AND_NESTING,
        shapes: &[
            bulk_foreach,
            |i| matches!(i, DInst::Loop(head) if matches!(head.over, LoopOver::Range { .. })),
            |i| bulk_plan_has(i, |op| matches!(op, BulkOp::Loop { .. })),
        ],
        depths: NO_DEPTH_LIMIT,
        fuel_sweep: FUEL_SWEEP,
    },
    Case {
        name: "trap inside a bulk iteration",
        text: TRAP_IN_PLAN,
        shapes: &[|i| bulk_range(i).is_some()],
        depths: NO_DEPTH_LIMIT,
        fuel_sweep: FUEL_SWEEP,
    },
    Case {
        name: "nested loops, nested branches and enumeration ops in one plan",
        text: NESTED,
        shapes: &[
            |i| bulk_plan_has(i, |op| matches!(op, BulkOp::Loop { .. })),
            |i| {
                bulk_plan_has(i, |op| {
                    let BulkOp::If {
                        then_ops, else_ops, ..
                    } = op
                    else {
                        return false;
                    };
                    then_ops
                        .iter()
                        .chain(else_ops.iter())
                        .any(|p| matches!(p.op, BulkOp::If { .. }))
                })
            },
            |i| bulk_plan_has(i, |op| matches!(op, BulkOp::Enc { .. })),
            |i| bulk_plan_has(i, |op| matches!(op, BulkOp::Dec { .. })),
            |i| bulk_plan_has(i, |op| matches!(op, BulkOp::EnumAdd { .. })),
            |i| bulk_plan_has(i, |op| matches!(op, BulkOp::New { .. })),
        ],
        depths: &[None, Some(4), Some(5), Some(6)],
        fuel_sweep: FUEL_SWEEP,
    },
    Case {
        name: "depth limit around a bulk loop's regions",
        text: DEPTH,
        shapes: &[bulk_range_with_if],
        depths: &[None, Some(9), Some(10), Some(11), Some(12), Some(13)],
        fuel_sweep: FUEL_SWEEP,
    },
    Case {
        name: "writers, union and reads through nesting paths",
        text: PATHS,
        shapes: &[
            |i| bulk_plan_has(i, writer_through_path),
            |i| bulk_plan_has(i, |op| matches!(op, BulkOp::Union { .. })),
            |i| {
                bulk_plan_has(i, |op| matches!(op, BulkOp::Read { .. }))
                    && bulk_plan_has(i, |op| matches!(op, BulkOp::Size { .. }))
            },
        ],
        depths: NO_DEPTH_LIMIT,
        fuel_sweep: FUEL_SWEEP,
    },
    Case {
        name: "missing inner key read through a nesting path",
        text: PATH_TRAP,
        shapes: &[|i| bulk_plan_has(i, |op| matches!(op, BulkOp::Read { .. }))],
        depths: NO_DEPTH_LIMIT,
        fuel_sweep: FUEL_SWEEP,
    },
    Case {
        name: "clear, tuples and constant and end path steps in a plan",
        text: CLEAR_TUPLE_CONST_END,
        shapes: &[
            |i| bulk_plan_has(i, |op| matches!(op, BulkOp::Clear { .. })),
            |i| bulk_plan_has(i, |op| matches!(op, BulkOp::Tuple { .. })),
            |i| bulk_plan_has(i, |op| matches!(op, BulkOp::Len { .. })),
            const_index_step,
        ],
        depths: NO_DEPTH_LIMIT,
        fuel_sweep: FUEL_SWEEP,
    },
    Case {
        name: "literal collections, plain, enumerated, strings and in a plan",
        text: LITERALS,
        shapes: &[
            |i| {
                matches!(
                    i,
                    DInst::Op(PlanOp {
                        op: BulkOp::Literal { e: Some(_), .. },
                        ..
                    })
                )
            },
            |i| bulk_plan_has(i, |op| matches!(op, BulkOp::Literal { .. })),
        ],
        depths: NO_DEPTH_LIMIT,
        fuel_sweep: u64::MAX,
    },
    Case {
        name: "permuted carries and a dowhile condition its yield overwrites",
        text: PERMUTED_YIELDS,
        shapes: &[|i| matches!(i, DInst::DoWhile { .. }), bulk_range_with_if],
        depths: NO_DEPTH_LIMIT,
        fuel_sweep: u64::MAX,
    },
    Case {
        name: "branches on compares of every kind, with consts in their arms",
        text: COMPARE_BRANCH,
        shapes: &[fused_branch, slot_branch],
        depths: NO_DEPTH_LIMIT,
        fuel_sweep: u64::MAX,
    },
    Case {
        name: "div by zero in the arm of a compare's branch",
        text: COMPARE_BRANCH_TRAP,
        shapes: &[fused_branch],
        depths: NO_DEPTH_LIMIT,
        fuel_sweep: u64::MAX,
    },
];

const QUANTA: [Option<u64>; 6] = [Some(1), Some(2), Some(3), Some(7), Some(4096), None];

/// Fuel limits below the full tick count that the sweep covers.
const FUEL_SWEEP: u64 = 40;

/// Everything a run observes except wall time.
#[derive(Debug, PartialEq)]
struct Observed {
    /// `Ok`: output, return value, per-phase stats, peak and final bytes.
    outcome: Result<String, ExecError>,
    /// Executed ticks, as the interpreter or session reports them after
    /// the run, however it ended.
    ticks: u64,
}

fn observe(result: Result<Outcome, ExecError>, ticks: u64) -> Observed {
    let outcome = result.map(|o| {
        assert_eq!(
            o.fuel_ticks, ticks,
            "Outcome::fuel_ticks vs the reported ticks"
        );
        format!(
            "output={:?} result={:?} phases={:?} peak={} final={}",
            o.output, o.result, o.stats.per_phase, o.stats.peak_bytes, o.stats.final_bytes
        )
    });
    Observed { outcome, ticks }
}

fn config(fuel: Option<u64>, max_depth: Option<u32>) -> ExecConfig {
    ExecConfig {
        fuel,
        max_depth,
        ..ExecConfig::default()
    }
}

fn decode(module: &Module, reference: bool) -> Arc<DecodedModule> {
    Arc::new(DecodedModule::decode_with(
        module,
        &DecodeOptions { reference },
    ))
}

fn batch(module: &Module, decoded: &DecodedModule, config: ExecConfig) -> Observed {
    let mut interp = Interpreter::new(module, config);
    let result = interp.run_decoded(decoded, "main");
    observe(result, interp.fuel_ticks())
}

/// Steps `session` to the end of its run.
fn finish(session: &mut ExecSession, quantum: Option<u64>) -> Result<Outcome, ExecError> {
    loop {
        if let Step::Done(outcome) = session.step(quantum)? {
            return Ok(*outcome);
        }
    }
}

fn session_run(
    decoded: &Arc<DecodedModule>,
    config: ExecConfig,
    quantum: Option<u64>,
) -> Result<Outcome, ExecError> {
    finish(
        &mut ExecSession::spawn(Arc::clone(decoded), "main", config)?,
        quantum,
    )
}

fn session(decoded: &Arc<DecodedModule>, config: ExecConfig, quantum: Option<u64>) -> Observed {
    let mut session = ExecSession::spawn(Arc::clone(decoded), "main", config).expect("spawns");
    let result = finish(&mut session, quantum);
    observe(result, session.fuel_ticks())
}

fn check(case: &Case) {
    let module = parse_module(case.text).unwrap_or_else(|e| panic!("{}: {e}", case.name));
    ade::ir::verify::verify_module(&module).unwrap_or_else(|e| panic!("{}: {e}", case.name));
    let decodes = [decode(&module, true), decode(&module, false)];
    for (k, shape) in case.shapes.iter().enumerate() {
        assert!(
            decodes[1]
                .funcs
                .iter()
                .flat_map(|f| f.code.iter())
                .any(shape),
            "{}: the default decode lacks shape #{k}",
            case.name
        );
    }
    for &depth in case.depths {
        let full = batch(&module, &decodes[0], config(None, depth));
        let fuels = std::iter::once(None)
            .chain((full.ticks.saturating_sub(case.fuel_sweep)..=full.ticks).map(Some));
        for fuel in fuels {
            let want = batch(&module, &decodes[0], config(fuel, depth));
            for (decoded, reference) in decodes.iter().zip([true, false]) {
                let tag = format!(
                    "{}: reference={reference} fuel={fuel:?} depth={depth:?}",
                    case.name
                );
                assert_eq!(
                    batch(&module, decoded, config(fuel, depth)),
                    want,
                    "{tag} batch"
                );
                for quantum in QUANTA {
                    assert_eq!(
                        session(decoded, config(fuel, depth), quantum),
                        want,
                        "{tag} quantum={quantum:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn bulk_loops_with_branches_match_the_reference_under_every_budget() {
    check(&CASES[0]);
}

#[test]
fn straight_line_dispatch_matches_the_reference_under_every_budget() {
    check(&CASES[1]);
}

#[test]
fn calls_and_nested_loops_match_the_reference_under_every_budget() {
    check(&CASES[2]);
}

#[test]
fn traps_in_plans_match_the_reference_under_every_budget() {
    check(&CASES[3]);
}

#[test]
fn nested_plans_match_the_reference_under_every_budget() {
    check(&CASES[4]);
}

#[test]
fn path_plans_match_the_reference_under_every_budget() {
    check(&CASES[6]);
}

#[test]
fn path_traps_in_plans_match_the_reference_under_every_budget() {
    check(&CASES[7]);
}

#[test]
fn clear_tuple_and_constant_paths_match_the_reference_under_every_budget() {
    check(&CASES[8]);
}

#[test]
fn literals_match_the_reference_under_every_budget() {
    check(&CASES[9]);
}

#[test]
fn permuted_yields_match_the_reference_under_every_budget() {
    check(&CASES[10]);
}

#[test]
fn compare_branches_match_the_reference_under_every_budget() {
    check(&CASES[11]);
}

#[test]
fn compare_branch_traps_match_the_reference_under_every_budget() {
    check(&CASES[12]);
}

#[test]
fn depth_limits_match_the_reference_under_every_budget() {
    let case = &CASES[5];
    check(case);
    // The sweep covers both sides of the limit: runs that finish, and
    // runs the limit stops.
    let module = parse_module(case.text).expect("parses");
    let decoded = decode(&module, true);
    let outcomes: Vec<bool> = case
        .depths
        .iter()
        .map(|&d| batch(&module, &decoded, config(None, d)).outcome.is_ok())
        .collect();
    assert!(
        outcomes.contains(&true) && outcomes.contains(&false),
        "{outcomes:?}"
    );
    for &d in case.depths {
        if let Err(e) = batch(&module, &decoded, config(None, d)).outcome {
            assert_eq!(
                e,
                ExecError::LimitExceeded {
                    limit: Limit::Depth,
                    budget: u64::from(d.expect("only a limit stops the run")),
                }
            );
        }
    }
}

/// The loop-tier counter shows the plans running under a session: the
/// default decode enters its bulk loops as `bulk`, the reference decode
/// every loop as `generic`. The plan ticks count every body
/// slot the plans ran: 40 `forrange` iterations of 5 slots plus the
/// taken arm (3 slots for the 14 multiples of three, else 2), then 26
/// `foreach` iterations of 2 slots, so 346 on the default decode and
/// none on the reference decode.
#[test]
fn bulk_plans_run_under_a_session() {
    let module = parse_module(BULK).expect("parses");
    for (reference, bulk_entries) in [(false, 2), (true, 0)] {
        let counts = session_run(&decode(&module, reference), config(None, None), Some(4096))
            .expect("runs")
            .counts;
        assert_eq!(counts.bulk_loops, bulk_entries, "reference={reference}");
        assert_eq!(
            counts.generic_loops,
            2 - bulk_entries,
            "reference={reference}"
        );
        assert_eq!(
            counts.plan_ticks,
            if reference { 0 } else { 346 },
            "reference={reference}"
        );
    }
}

/// The loop-tier counter shows where a plan holding a nested loop runs:
/// in an unlimited batch run the outer loop enters as `bulk` and runs
/// each inner loop in place (also counted `bulk`); under a fuel limit or
/// in a session the outer loop runs generically and each inner loop
/// enters through its own plan.
#[test]
fn nested_plans_run_only_without_fuel_or_session() {
    let module = parse_module(CALLS_AND_NESTING).expect("parses");
    let decoded = decode(&module, false);
    let tiers = |fuel: Option<u64>, quantum: Option<Option<u64>>| {
        let config = config(fuel, None);
        let counts = match quantum {
            Some(quantum) => session_run(&decoded, config, quantum),
            None => Interpreter::new(&module, config).run_decoded(&decoded, "main"),
        }
        .expect("runs")
        .counts;
        (counts.bulk_loops, counts.generic_loops)
    };
    // The call loop stays generic; `%tot` and its 12 inner loops.
    assert_eq!(tiers(None, None), (13, 1), "unlimited batch run");
    assert_eq!(tiers(Some(u64::MAX), None), (12, 2), "fuel limit");
    assert_eq!(tiers(None, Some(None)), (12, 2), "session");
}

/// Guest recursion 100,000 calls deep.
const DEEP: &str = r#"
fn @main() -> void {
  %n = const 100000u64
  %r = call @1(%n)
  print %r
  ret
}

fn @down(%n: u64) -> u64 {
  %zero = const 0u64
  %done = eq %n, %zero
  %r = if %done then {
    yield %zero
  } else {
    %one = const 1u64
    %p = sub %n, %one
    %q = call @1(%p)
    %q1 = add %q, %one
    yield %q1
  }
  ret %r
}
"#;

/// Ticks executed when a depth limit of 1000 stops [`DEEP`]: a limit
/// trips at the same instruction as before calls stopped recursing on
/// the host stack.
const DEEP_DEPTH_LIMIT_TICKS: u64 = 2999;

/// Guest calls grow the interpreter's own stacks, not the host's: a run
/// 100,000 calls deep completes on a thread with a 1 MiB stack, batch
/// and in quanta of 7.
#[test]
fn deep_guest_recursion_runs_on_a_small_host_stack() {
    let module = parse_module(DEEP).expect("parses");
    let decoded = decode(&module, false);
    let worker = std::thread::Builder::new()
        .stack_size(1 << 20)
        .spawn(move || {
            let whole = Interpreter::new(&module, ExecConfig::default())
                .run_decoded(&decoded, "main")
                .expect("batch run completes");
            assert_eq!(whole.output, "100000\n");
            let sliced = session_run(&decoded, ExecConfig::default(), Some(7))
                .expect("sliced run completes");
            assert_eq!(sliced.output, whole.output);
            assert_eq!(sliced.fuel_ticks, whole.fuel_ticks);
            let limited = batch(&module, &decoded, config(None, Some(1000)));
            assert_eq!(
                limited,
                Observed {
                    outcome: Err(ExecError::LimitExceeded {
                        limit: Limit::Depth,
                        budget: 1000,
                    }),
                    ticks: DEEP_DEPTH_LIMIT_TICKS,
                }
            );
        })
        .expect("spawns a 1 MiB thread");
    worker.join().expect("no host stack overflow");
}
