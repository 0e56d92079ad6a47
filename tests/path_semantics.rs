//! Nesting-path semantics (paper §III-G), pinned by absolute values.
//!
//! Every program runs on both decodes (the reference decode and the
//! default one, whose loop plans run the lowered paths), which must
//! agree, and each result is checked against hand-derived values: the
//! printed output, the `Read` and `Size` counts of every implementation
//! kind (each `Index` step of a path is one counted read of the
//! collection at its level; a `Field` step and the length an `end` step
//! reads count nothing), and for trapping programs the trap kind and its
//! `@fn:inst` site. The programs cover every step kind (a slot index into a `Seq`
//! and into a `Map`, a constant index, `end`, a `Field` step), every
//! context (top level, a `dowhile` body, loop plans, nested loops) and
//! path operands in control positions (an `if` condition, a call
//! argument, `yield`, `ret`, `print`, a `foreach` collection and a
//! `forrange` bound).

use ade::interp::{
    CollOp, DecodeOptions, DecodedModule, ExecConfig, ExecError, ImplKind, Interpreter,
};
use ade::ir::parse::parse_module;

/// What one run observes: output and per-kind reads and sizes, or the
/// trap.
fn observe(text: &str, reference: bool) -> Result<[String; 3], String> {
    let module = parse_module(text).expect("parses");
    ade::ir::verify::verify_module(&module).expect("verifies");
    let decoded = DecodedModule::decode_with(&module, &DecodeOptions { reference });
    let outcome = Interpreter::new(&module, ExecConfig::default())
        .run_decoded(&decoded, "main")
        .map_err(|e: ExecError| e.to_string())?;
    let totals = outcome.stats.totals();
    let counts = |op: CollOp| -> String {
        let nonzero: Vec<String> = ImplKind::ALL
            .into_iter()
            .filter_map(|k| {
                let n = totals.get(k, op);
                (n > 0).then(|| format!("{k:?}={n}"))
            })
            .collect();
        nonzero.join(" ")
    };
    Ok([outcome.output, counts(CollOp::Read), counts(CollOp::Size)])
}

/// Runs `text` on both decodes, checks they agree, and returns the
/// shared observation.
fn both(text: &str) -> Result<[String; 3], String> {
    let reference = observe(text, true);
    assert_eq!(
        observe(text, false),
        reference,
        "default vs reference decode"
    );
    reference
}

fn ok(output: &str, reads: &str, sizes: &str) -> Result<[String; 3], String> {
    Ok([output, reads, sizes].map(str::to_string))
}

/// Every step kind at top level: `%m3[%zero]` (slot index into a map),
/// `%q1[%zero]` (slot index into a sequence), `%q1[0]` (constant index),
/// `%m3[end]` (the map's length, 2, is a present key) and `%t.0`/`%t.1`
/// (field steps, no reads).
#[test]
fn every_step_kind_at_top_level() {
    let text = r#"
fn @main() -> void {
  %zero = const 0u64
  %one = const 1u64
  %two = const 2u64
  %five = const 5u64
  %m = new Map<u64, Seq<u64>>
  %m1 = insert %m, %zero
  %m2 = insert %m1, %two
  %m3 = insert %m2[%two], %zero, %five
  %row = new Seq<u64>
  %row1 = insert %row, %zero, %five
  %row2 = insert %row1, %one, %two
  %q = new Seq<Seq<u64>>
  %q1 = insert %q, %zero, %row2
  %a = size %m3[%zero]
  %b = read %q1[%zero], %one
  %c = size %q1[0]
  %d = read %m3[end], %zero
  %t = tuple %five, %two
  %e = add %t.0, %t.1
  print %a, %b, %c, %d, %e
  ret
}
"#;
    // Map reads: the insert's `%m2[%two]`, `%m3[%zero]`, `%m3[end]`.
    // Sequence reads: `%q1[%zero]` and its element read, `%q1[0]`, the
    // element read behind `%m3[end]`. Both `size`s are of sequences.
    assert_eq!(both(text), ok("0 2 2 5 7\n", "Seq=4 HashMap=3", "Seq=2"));
}

/// A `dowhile` body (always generic dispatch) reading through every
/// step kind, and a `yield` of a field step.
#[test]
fn every_step_kind_in_a_dowhile_body() {
    let text = r#"
fn @main() -> void {
  %zero = const 0u64
  %one = const 1u64
  %two = const 2u64
  %three = const 3u64
  %seven = const 7u64
  %m = new Map<u64, Seq<u64>>
  %m1 = insert %m, %zero
  %m2 = insert %m1, %two
  %m3 = insert %m2[%two], %zero, %seven
  %last, %mf, %acc = dowhile carry(%zero, %m3, %zero) as (%i: u64, %mm: Map<u64, Seq<u64>>, %a: u64) {
    %p = rem %i, %two
    %k = mul %p, %two
    %n = size %mm[%k]
    %mm1 = insert %mm[%k], %n, %i
    %hd = read %mm1[end], %zero
    %c = read %mm1[0], %zero
    %a1 = add %a, %hd
    %a2 = add %a1, %c
    %t = tuple %i, %a2
    %a3 = add %a2, %t.0
    %i1 = add %i, %one
    %go = lt %i1, %three
    %r = tuple %a3, %i1
    yield %go, %r.1, %mm1, %r.0
  }
  %z = size %mf[%two]
  print %acc, %z
  ret
}
"#;
    // Three iterations append 0, 1, 2 to m[0], m[2], m[0]; each reads
    // the map four times (`%mm[%k]` twice, `end`, `0`) and a sequence
    // twice; the accumulator gains m[2][0] = 7 plus the index. One
    // `size` per iteration and one after the loop.
    assert_eq!(both(text), ok("24 2\n", "Seq=6 HashMap=14", "Seq=4"));
}

/// The same body as a `forrange` (a loop plan on the default decode),
/// then a `foreach` over `%mf[%u]` nested in a `forrange`.
#[test]
fn every_step_kind_in_plans_and_nested_loops() {
    let text = r#"
fn @main() -> void {
  %zero = const 0u64
  %one = const 1u64
  %two = const 2u64
  %three = const 3u64
  %seven = const 7u64
  %m = new Map<u64, Seq<u64>>
  %m1 = insert %m, %zero
  %m2 = insert %m1, %two
  %m3 = insert %m2[%two], %zero, %seven
  %mf, %acc = forrange %zero, %three carry(%m3, %zero) as (%i: u64, %mm: Map<u64, Seq<u64>>, %a: u64) {
    %p = rem %i, %two
    %k = mul %p, %two
    %n = size %mm[%k]
    %mm1 = insert %mm[%k], %n, %i
    %hd = read %mm1[end], %zero
    %c = read %mm1[0], %zero
    %a1 = add %a, %hd
    %a2 = add %a1, %c
    %t = tuple %i, %a2
    %a3 = add %a2, %t.0
    yield %mm1, %a3
  }
  %tot = forrange %zero, %two carry(%zero) as (%j: u64, %b: u64) {
    %u = mul %j, %two
    %in = foreach %mf[%u] carry(%b) as (%x: u64, %v: u64, %c: u64) {
      %c1 = add %c, %v
      yield %c1
    }
    yield %in
  }
  print %acc, %tot
  ret
}
"#;
    // m[0] = [0, 2] and m[2] = [7, 1] sum to 10; each `foreach` header
    // reads the map once.
    assert_eq!(both(text), ok("24 10\n", "Seq=6 HashMap=15", "Seq=3"));
}

/// Path operands in control positions: a `forrange` bound, an `if`
/// condition, a `foreach` collection inside an `if` arm, a `yield` of a
/// field step, a call argument, a `ret` operand and a `print` operand.
#[test]
fn paths_in_control_positions() {
    let text = r#"
fn @main() -> void {
  %zero = const 0u64
  %one = const 1u64
  %two = const 2u64
  %three = const 3u64
  %tr = const true
  %fa = const false
  %flags = new Seq<bool>
  %fl1 = insert %flags, %zero, %tr
  %fl2 = insert %fl1, %one, %fa
  %fl3 = insert %fl2, %two, %tr
  %lens = new Map<u64, u64>
  %le1 = insert %lens, %zero
  %le2 = write %le1, %zero, %three
  %g = new Map<u64, Set<u64>>
  %g1 = insert %g, %one
  %g2 = insert %g1[%one], %three
  %g3 = insert %g2[%one], %zero
  %pr = tuple %one, %three
  %acc = forrange %zero, %le2[%zero] carry(%zero) as (%i: u64, %a: u64) {
    %x = if %fl3[%i] then {
      %s = foreach %g3[%one] carry(%a) as (%e: u64, %c: u64) {
        %c1 = add %c, %e
        yield %c1
      }
      yield %s
    } else {
      yield %pr.1
    }
    %y = add %x, %i
    yield %y
  }
  %d = call @1(%le2[%zero])
  %r = call @2(%le2, %zero)
  print %acc, %d, %r, %fl3[%one]
  ret
}

fn @twice(%x: u64) -> u64 {
  %y = add %x, %x
  ret %y
}

fn @at(%m: Map<u64, u64>, %k: u64) -> u64 {
  ret %m[%k]
}
"#;
    // Map reads: two path inserts, the bound, two `foreach` headers
    // (flags 0 and 2), the call argument and the `ret`. Sequence reads:
    // three conditions and the printed flag.
    assert_eq!(both(text), ok("9 6 3 false\n", "Seq=4 HashMap=7", ""));
}

/// Traps raised by a path step carry the kind of the failing step and
/// the site of the instruction whose operand holds the path, in every
/// context.
#[test]
fn path_traps_are_sited_at_the_consuming_instruction() {
    let cases: [(&str, &str); 6] = [
        (
            // Slot index into a map, top level: instruction 4.
            r#"
fn @main() -> void {
  %zero = const 0u64
  %five = const 5u64
  %m = new Map<u64, Seq<u64>>
  %m1 = insert %m, %zero
  %n = size %m1[%five]
  print %n
  ret
}
"#,
            "guest trap at @main:4: read of absent key 5",
        ),
        (
            // `end` of an empty sequence, top level.
            r#"
fn @main() -> void {
  %q = new Seq<Seq<u64>>
  %n = size %q[end]
  print %n
  ret
}
"#,
            "guest trap at @main:1: sequence access out of bounds: index 0, length 0",
        ),
        (
            // Constant index in a loop plan, second iteration: the body
            // region's first instruction follows the 10 of the function
            // body.
            r#"
fn @main() -> void {
  %zero = const 0u64
  %three = const 3u64
  %five = const 5u64
  %row = new Seq<u64>
  %row1 = insert %row, %zero, %five
  %q = new Seq<Seq<u64>>
  %q1 = insert %q, %zero, %row1
  %tot = forrange %zero, %three carry(%zero) as (%i: u64, %a: u64) {
    %r = read %q1[0], %i
    %a1 = add %a, %r
    yield %a1
  }
  print %tot
  ret
}
"#,
            "guest trap at @main:10: sequence access out of bounds: index 1, length 1",
        ),
        (
            // `end` of a map in a `dowhile` body, once the map's length
            // (2) is no longer a key: body instruction 2 after the
            // function body's 8.
            r#"
fn @main() -> void {
  %zero = const 0u64
  %one = const 1u64
  %m = new Map<u64, Seq<u64>>
  %m1 = insert %m, %zero
  %m2 = insert %m1, %one
  %r, %mf = dowhile carry(%zero, %m2) as (%i: u64, %mm: Map<u64, Seq<u64>>) {
    %i1 = add %i, %one
    %n = size %mm[%i]
    %e = size %mm[end]
    %go = const true
    yield %go, %i1, %mm
  }
  print %r
  ret
}
"#,
            "guest trap at @main:10: read of absent key 2",
        ),
        (
            // A `foreach` over `%g[%u]` nested in a `forrange`: the
            // header traps when `%u` reaches 2.
            r#"
fn @main() -> void {
  %zero = const 0u64
  %one = const 1u64
  %three = const 3u64
  %g = new Map<u64, Set<u64>>
  %g1 = insert %g, %zero
  %g2 = insert %g1, %one
  %tot = forrange %zero, %three carry(%zero) as (%u: u64, %b: u64) {
    %in = foreach %g2[%u] carry(%b) as (%e: u64, %c: u64) {
      %c1 = add %c, %e
      yield %c1
    }
    yield %in
  }
  print %tot
  ret
}
"#,
            "guest trap at @main:9: read of absent key 2",
        ),
        (
            // An `if` condition through a path in a loop plan, past the
            // sequence's end at the third iteration.
            r#"
fn @main() -> void {
  %zero = const 0u64
  %one = const 1u64
  %three = const 3u64
  %tr = const true
  %flags = new Seq<bool>
  %fl1 = insert %flags, %zero, %tr
  %fl2 = insert %fl1, %one, %tr
  %tot = forrange %zero, %three carry(%zero) as (%i: u64, %a: u64) {
    %x = if %fl2[%i] then {
      yield %one
    } else {
      yield %zero
    }
    %a1 = add %a, %x
    yield %a1
  }
  print %tot
  ret
}
"#,
            "guest trap at @main:10: sequence access out of bounds: index 2, length 2",
        ),
    ];
    for (text, want) in cases {
        assert_eq!(both(text), Err(want.to_string()), "{text}");
    }
}
