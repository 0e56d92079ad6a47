//! Regression tests for the interprocedural edge cases: escaping
//! parameters, directive-blocked union partners, class-consistency
//! across call boundaries, and the planner paths no paper benchmark
//! enters (exported callees, clones of recursive callees, poisoned
//! classes, dropped enumerations).

use ade_core::{run_ade_traced, AdeOptions};
use ade_interp::{ExecConfig, Interpreter};
use ade_ir::parse::parse_module;
use ade_ir::print::print_module;

/// Compiles `text` under `ade` and checks it against the baseline;
/// returns the pass report and its events rendered without timestamps.
fn differential(text: &str) -> (ade_core::AdeReport, String) {
    let baseline_module = parse_module(text).expect("parses");
    ade_ir::verify::verify_module(&baseline_module).expect("baseline verifies");
    let baseline = Interpreter::new(&baseline_module, ExecConfig::default())
        .run("main")
        .expect("baseline runs");
    let mut module = parse_module(text).expect("parses");
    let tracer = ade_obs::Tracer::enabled();
    let report = run_ade_traced(&mut module, &AdeOptions::default(), &tracer);
    ade_ir::verify::verify_module(&module)
        .unwrap_or_else(|e| panic!("verify: {e}\n{}", ade_ir::print::print_module(&module)));
    let transformed = Interpreter::new(&module, ExecConfig::default())
        .run("main")
        .expect("transformed runs");
    assert_eq!(baseline.output, transformed.output);
    (report, ade_obs::render_events(&tracer.events(), false))
}

/// A parameter that escapes inside its callee (returned) must poison the
/// whole enumeration class: the caller's collection stays untouched.
#[test]
fn escaping_callee_parameter_blocks_the_class() {
    let (report, _) = differential(
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
    let (report, events) = differential(
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
    let enumerated_c = events
        .lines()
        .any(|l| l.contains("- translations [transform]") && l.contains(" members=3 "));
    assert!(!enumerated_c, "{report:?}\n{events}");
}

/// A recursive callee whose collection arguments come from an enumerated
/// caller keeps one enumeration across all invocations.
#[test]
fn recursive_callee_shares_one_enumeration() {
    let (report, events) = differential(
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
    assert!(!events.contains("- clone [interproc]"), "{events}");
}

/// A `select(...)` directive on one member governs the whole class, so
/// call-boundary types stay equal.
#[test]
fn class_wide_selection_keeps_call_types_equal() {
    let (report, _) = differential(
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

/// What the pass made of one program under `ade`.
struct Planned {
    /// The compiled module, printed.
    ir: String,
    /// The `interproc` and `rte` events (clones among them), rendered
    /// without timestamps.
    events: Vec<String>,
    /// The compiled program's output, equal to the baseline's.
    output: String,
}

fn planned(text: &str) -> Planned {
    let baseline_module = parse_module(text).expect("parses");
    let baseline = Interpreter::new(&baseline_module, ExecConfig::default())
        .run("main")
        .expect("baseline runs");
    let mut module = parse_module(text).expect("parses");
    let tracer = ade_obs::Tracer::enabled();
    run_ade_traced(&mut module, &AdeOptions::default(), &tracer);
    let ir = print_module(&module);
    ade_ir::verify::verify_module(&module).unwrap_or_else(|e| panic!("verify: {e}\n{ir}"));
    let output = Interpreter::new(&module, ExecConfig::default())
        .run("main")
        .expect("compiled runs")
        .output;
    assert_eq!(output, baseline.output, "{ir}");
    let events = ade_obs::render_events(&tracer.events(), false)
        .lines()
        .map(str::trim)
        .filter(|l| l.contains(" [interproc]") || l.contains(" [rte]"))
        .map(String::from)
        .collect();
    Planned { ir, events, output }
}

/// `text` parsed and printed: the IR a compile that changes nothing
/// prints.
fn unchanged(text: &str) -> String {
    print_module(&parse_module(text).expect("parses"))
}

/// An `exported` callee whose parameter its own body would enumerate is
/// not cloned: passing a collection to an exported function makes it
/// escape in the caller, so no call site agrees, no retarget reaches a
/// clone, and the class keeps no member. The module compiles to itself,
/// with no enumeration, clone or trims.
#[test]
fn exported_callee_without_agreeing_calls_is_not_cloned() {
    let text = include_str!("../../../examples/ir/exported_callee.memoir");
    let p = planned(text);
    assert_eq!(p.ir, unchanged(text));
    assert_eq!(p.events, ["- retargeted-call-sites [interproc] value=0"]);
    assert_eq!(p.output, "40\n");
}

/// A recursive callee shared by an enumerated and a `noenumerate`
/// caller is cloned. Its recursive call site agrees, so the retarget
/// lands in the clone's own copy of that site, while the original keeps
/// calling itself for the dissenting caller.
#[test]
fn recursive_callee_clone_calls_itself() {
    let text = r#"
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
  %q = call @2()
  print %r, %q
  ret
}

fn @other() -> u64 {
  %p = new Map<u64, u64> #[noenumerate]
  %k = const 3u64
  %v = const 3u64
  %p1 = write %p, %k, %v
  %two = const 2u64
  %r = call @0(%p1, %two)
  ret %r
}
"#;
    let p = planned(text);
    let expected = r#"enum e0: u64 // ade0

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
  %m = new Map{Bit}<idx, idx>
  %zero = const 0u64
  %n = const 40u64
  %mf = forrange %zero, %n carry(%m) as (%i: u64, %mm: Map{Bit}<idx, idx>) {
    %one = const 1u64
    %j = add %i, %one
    %forty = const 40u64
    %next = rem %j, %forty
    %14 = enumadd e0, %i
    %15 = enumadd e0, %next
    %m1 = write %mm, %14, %15
    yield %m1
  }
  %five = const 5u64
  %r = call @3(%mf, %five)
  %q = call @2()
  print %r, %q
  ret
}

fn @other() -> u64 {
  %p = new Map<u64, u64> #[noenumerate]
  %k = const 3u64
  %v = const 3u64
  %p1 = write %p, %k, %v
  %two = const 2u64
  %r = call @0(%p1, %two)
  ret %r
}

fn @walk$ade(%m: Map{Bit}<idx, idx>, %fuel: u64) -> u64 {
  %zero = const 0u64
  %stop = eq %fuel, %zero
  %r = if %stop then {
    yield %zero
  } else {
    %hits = foreach %m carry(%zero) as (%k: idx, %v: idx, %acc: u64) {
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
    %deep = call @3(%m, %less)
    %total = add %hits, %deep
    yield %total
  }
  ret %r
}

"#;
    assert_eq!(p.ir, expected);
    assert_eq!(
        p.events,
        [
            "- trims [rte] func=main class=0 trim_enc=0 trim_dec=0 trim_add=0 benefit=0",
            "- trims [rte] func=walk class=0 trim_enc=1 trim_dec=1 trim_add=0 benefit=2",
            "- clone [interproc] source=walk clone=walk$ade",
            "- retargeted-call-sites [interproc] value=2",
        ]
    );
    assert_eq!(p.output, "200 2\n");
}

/// A class whose callee parameter escapes is poisoned as a whole: the
/// event names its size and key type, and the module is left as it was.
#[test]
fn escaping_parameter_poisons_its_class() {
    let text = r#"
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
"#;
    let p = planned(text);
    assert_eq!(p.ir, unchanged(text));
    assert_eq!(
        p.events,
        [
            "- class-poisoned [interproc] members=1 params=1 key_ty=u64",
            "- retargeted-call-sites [interproc] value=0",
        ]
    );
    assert_eq!(p.output, "30 30\n");
}

/// A callee that unions its enumerated parameter with a `noenumerate`
/// set would translate a whole collection at the `union`: the
/// enumeration is dropped as an "unpatchable site" there and, because
/// a half-transformed class would break the call's types, in the
/// caller too. The class gets no enumeration: the module compiles to
/// itself.
///
/// The other `enum-dropped` reason, "patch-set conflict", cannot be
/// reached: every propagator role that reaches the final patch sets
/// was checked against the same function's Algorithm 4 before.
#[test]
fn unpatchable_union_drops_the_class_and_its_enumeration() {
    let text = include_str!("../../../examples/ir/dropped_class.memoir");
    let p = planned(text);
    assert_eq!(p.ir, unchanged(text));
    assert_eq!(
        p.events,
        [
            "- trims [rte] func=main class=0 trim_enc=1 trim_dec=2 trim_add=1 benefit=4",
            "- trims [rte] func=widen class=0 trim_enc=0 trim_dec=0 trim_add=0 benefit=0",
            "- enum-dropped [interproc] func=widen class=0 reason=unpatchable site",
            "- retargeted-call-sites [interproc] value=0",
        ]
    );
    assert_eq!(p.output, "7 8\n");
}
