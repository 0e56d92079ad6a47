//! Regression tests for the interprocedural edge cases found during
//! review: escaping parameters, directive-blocked union partners, and
//! class-consistency across call boundaries.

use ade_core::{run_ade, AdeOptions};
use ade_interp::{ExecConfig, Interpreter};
use ade_ir::parse::parse_module;

fn differential(text: &str) -> ade_core::AdeReport {
    let baseline_module = parse_module(text).expect("parses");
    ade_ir::verify::verify_module(&baseline_module).expect("baseline verifies");
    let baseline = Interpreter::new(&baseline_module, ExecConfig::default())
        .run("main")
        .expect("baseline runs");
    let mut module = parse_module(text).expect("parses");
    let report = run_ade(&mut module, &AdeOptions::default());
    ade_ir::verify::verify_module(&module)
        .unwrap_or_else(|e| panic!("verify: {e}\n{}", ade_ir::print::print_module(&module)));
    let transformed = Interpreter::new(&module, ExecConfig::default())
        .run("main")
        .expect("transformed runs");
    assert_eq!(baseline.output, transformed.output);
    report
}

/// A parameter that escapes inside its callee (returned) must poison the
/// whole enumeration class: the caller's collection stays untouched.
#[test]
fn escaping_callee_parameter_blocks_the_class() {
    let report = differential(
        r#"
fn @main() -> void {
  %s = new Set<u64>
  %zero = const 0u64
  %n = const 30u64
  %sf = forrange %zero, %n carry(%s) as (%i: u64, %c: Set<u64>) {
    %c1 = insert %c, %i
    yield %c1
  }
  %hits = foreach %sf carry(%zero) as (%v: u64, %acc: u64) {
    %h = has %sf, %v
    %a = if %h then {
      %one = const 1u64
      %a1 = add %acc, %one
      yield %a1
    } else {
      yield %acc
    }
    yield %a
  }
  %esc = call @1(%sf)
  %m = size %esc
  print %hits, %m
  ret
}

fn @leak(%p: Set<u64>) -> Set<u64> {
  ret %p
}
"#,
    );
    assert_eq!(report.enums_created, 0, "{report:?}");
}

/// A union partner carrying `noenumerate` must not be absorbed; the
/// enumerated side is dropped instead of overriding the directive.
#[test]
fn noenumerate_union_partner_is_respected() {
    let report = differential(
        r#"
fn @main() -> void {
  %a = new Set<u64>
  %b = new Set<u64>
  %c = new Set<u64> #[noenumerate]
  %zero = const 0u64
  %n = const 20u64
  %bf = forrange %zero, %n carry(%b) as (%i: u64, %s: Set<u64>) {
    %s1 = insert %s, %i
    yield %s1
  }
  %hits, %aout = foreach %bf carry(%zero, %a) as (%v: u64, %acc: u64, %aa: Set<u64>) {
    %h = has %aa, %v
    %a1 = insert %aa, %v
    %one = const 1u64
    %acc1 = add %acc, %one
    yield %acc1, %a1
  }
  %a2 = union %aout, %c
  %sz = size %a2
  print %hits, %sz
  ret
}
"#,
    );
    // Either nothing is enumerated, or whatever is enumerated excludes
    // the union pair — the differential run above already proves
    // behavior is preserved; here we pin the directive effect.
    let enumerated_c = report.candidates.iter().any(|c| c.contains("3 member"));
    assert!(!enumerated_c, "{report:?}");
}

/// A recursive callee whose collection arguments come from an enumerated
/// caller keeps one enumeration across all invocations.
#[test]
fn recursive_callee_shares_one_enumeration() {
    let report = differential(
        r#"
fn @walk(%m: Map<u64, u64>, %fuel: u64) -> u64 {
  %zero = const 0u64
  %stop = eq %fuel, %zero
  %r = if %stop then {
    yield %zero
  } else {
    %hits = foreach %m carry(%zero) as (%k: u64, %v: u64, %acc: u64) {
      %loops = has %m, %v
      %a = if %loops then {
        %one = const 1u64
        %a1 = add %acc, %one
        yield %a1
      } else {
        yield %acc
      }
      yield %a
    }
    %one = const 1u64
    %less = sub %fuel, %one
    %deep = call @0(%m, %less)
    %total = add %hits, %deep
    yield %total
  }
  ret %r
}

fn @main() -> void {
  %m = new Map<u64, u64>
  %zero = const 0u64
  %n = const 40u64
  %mf = forrange %zero, %n carry(%m) as (%i: u64, %mm: Map<u64, u64>) {
    %one = const 1u64
    %j = add %i, %one
    %forty = const 40u64
    %next = rem %j, %forty
    %m1 = write %mm, %i, %next
    yield %m1
  }
  %five = const 5u64
  %r = call @0(%mf, %five)
  print %r
  ret
}
"#,
    );
    assert_eq!(report.enums_created, 1, "{report:?}");
    assert!(report.cloned_functions.is_empty(), "{report:?}");
}

/// A `select(...)` directive on one member governs the whole class, so
/// call-boundary types stay equal.
#[test]
fn class_wide_selection_keeps_call_types_equal() {
    let report = differential(
        r#"
fn @probe(%s: Set<u64>, %k: u64) -> u64 {
  %h = has %s, %k
  %r = if %h then {
    %one = const 1u64
    yield %one
  } else {
    %zero = const 0u64
    yield %zero
  }
  ret %r
}

fn @main() -> void {
  %s = new Set<u64> #[enumerate, select(SparseBit)]
  %zero = const 0u64
  %n = const 25u64
  %sf = forrange %zero, %n carry(%s) as (%i: u64, %c: Set<u64>) {
    %three = const 3u64
    %x = mul %i, %three
    %c1 = insert %c, %x
    yield %c1
  }
  %nine = const 9u64
  %hit = call @0(%sf, %nine)
  %ten = const 10u64
  %miss = call @0(%sf, %ten)
  print %hit, %miss
  ret
}
"#,
    );
    assert_eq!(report.enums_created, 1, "{report:?}");
}
