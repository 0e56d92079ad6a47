//! Interpreter semantics tests beyond the unit suites: scalar edge
//! cases, nested-collection defaults, removal paths, and phase/memory
//! behavior that the benchmarks do not isolate.

use ade_interp::{CollOp, ExecConfig, ImplKind, Interpreter, Outcome};
use ade_ir::parse::parse_module;

fn run(text: &str) -> Outcome {
    let m = parse_module(text).expect("parses");
    ade_ir::verify::verify_module(&m).expect("verifies");
    Interpreter::new(&m, ExecConfig::default())
        .run("main")
        .expect("runs")
}

#[test]
fn integer_arithmetic_wraps_and_divides() {
    let out = run(
        r#"
fn @main() -> void {
  %max = const 18446744073709551615u64
  %one = const 1u64
  %wrapped = add %max, %one
  %seven = const 7u64
  %three = const 3u64
  %q = div %seven, %three
  %r = rem %seven, %three
  %sh = shl %one, %three
  print %wrapped, %q, %r, %sh
  ret
}
"#,
    );
    assert_eq!(out.output, "0 2 1 8\n");
}

#[test]
fn signed_and_float_casts() {
    let out = run(
        r#"
fn @main() -> void {
  %n = const -5i64
  %f = cast %n to f64
  %neg = const -9i64
  %m = min %n, %neg
  %b = const true
  %bi = cast %b to u64
  print %f, %m, %bi
  ret
}
"#,
    );
    assert_eq!(out.output, "-5 -9 1\n");
}

#[test]
fn string_keys_in_maps_and_comparisons() {
    let out = run(
        r#"
fn @main() -> void {
  %m = new Map<str, u64>
  %a = const "alpha"
  %b = const "beta"
  %one = const 1u64
  %two = const 2u64
  %m1 = write %m, %a, %one
  %m2 = write %m1, %b, %two
  %va = read %m2, %a
  %same = eq %a, %b
  print %va, %same
  ret
}
"#,
    );
    assert_eq!(out.output, "1 false\n");
}

#[test]
fn map_insert_default_initializes_nested_collections() {
    let out = run(
        r#"
fn @main() -> void {
  %m = new Map<u64, Set<u64>>
  %k = const 9u64
  %m1 = insert %m, %k
  %inner = read %m1, %k
  %n = size %inner
  print %n
  ret
}
"#,
    );
    assert_eq!(out.output, "0\n");
}

#[test]
fn remove_and_clear_across_kinds() {
    let out = run(
        r#"
fn @main() -> void {
  %s = new Set<u64>
  %a = const 1u64
  %b = const 2u64
  %s1 = insert %s, %a
  %s2 = insert %s1, %b
  %s3 = remove %s2, %a
  %n1 = size %s3
  %s4 = clear %s3
  %n2 = size %s4
  %q = new Seq<u64>
  %zero = const 0u64
  %q1 = insert %q, %zero, %a
  %q2 = insert %q1, %zero, %b
  %q3 = remove %q2, %zero
  %front = read %q3, %zero
  print %n1, %n2, %front
  ret
}
"#,
    );
    assert_eq!(out.output, "1 0 1\n");
}

#[test]
fn seq_insert_in_middle_shifts() {
    let out = run(
        r#"
fn @main() -> void {
  %q = new Seq<u64>
  %zero = const 0u64
  %one = const 1u64
  %ten = const 10u64
  %thirty = const 30u64
  %twenty = const 20u64
  %q1 = insert %q, %zero, %ten
  %q2 = insert %q1, %one, %thirty
  %q3 = insert %q2, %one, %twenty
  %v0 = read %q3, %zero
  %v1 = read %q3, %one
  %two = const 2u64
  %v2 = read %q3, %two
  print %v0, %v1, %v2
  ret
}
"#,
    );
    assert_eq!(out.output, "10 20 30\n");
}

#[test]
fn foreach_over_empty_collection_runs_zero_times() {
    let out = run(
        r#"
fn @main() -> void {
  %s = new Set<u64>
  %zero = const 0u64
  %n = foreach %s carry(%zero) as (%v: u64, %acc: u64) {
    %one = const 1u64
    %a = add %acc, %one
    yield %a
  }
  print %n
  ret
}
"#,
    );
    assert_eq!(out.output, "0\n");
}

#[test]
fn foreach_snapshot_isolates_carried_growth() {
    // Appending to a *different* sequence while iterating must not
    // extend the iteration; the iterated collection is snapshotted.
    let out = run(
        r#"
fn @main() -> void {
  %q = new Seq<u64>
  %zero = const 0u64
  %one = const 1u64
  %q1 = insert %q, %zero, %one
  %sink = new Seq<u64>
  %n, %s2 = foreach %q1 carry(%zero, %sink) as (%i: u64, %v: u64, %acc: u64, %out: Seq<u64>) {
    %sz = size %out
    %o1 = insert %out, %sz, %v
    %a = add %acc, %one
    yield %a, %o1
  }
  print %n
  ret
}
"#,
    );
    assert_eq!(out.output, "1\n");
}

#[test]
fn union_between_hash_and_bit_sets_coerces_keys() {
    let out = run(
        r#"
fn @main() -> void {
  %dense = new Set{Bit}<idx>
  %sparse = new Set<idx>
  %five = const 5u64
  %fi = cast %five to idx
  %sp1 = insert %sparse, %fi
  %d1 = union %dense, %sp1
  %n = size %d1
  print %n
  ret
}
"#,
    );
    assert_eq!(out.output, "1\n");
}

#[test]
fn nested_path_reads_count_against_the_outer_map() {
    let out = run(
        r#"
fn @main() -> void {
  %m = new Map<u64, Set<u64>>
  %k = const 1u64
  %v = const 2u64
  %m1 = insert %m, %k
  %m2 = insert %m1[%k], %v
  %h = has %m2[%k], %v
  print %h
  ret
}
"#,
    );
    assert_eq!(out.output, "true\n");
    let t = run(
        "fn @main() -> void {\n  %m = new Map<u64, Set<u64>>\n  %k = const 1u64\n  %m1 = insert %m, %k\n  %h = has %m1[%k], %k\n  print %h\n  ret\n}\n",
    )
    .stats
    .totals();
    // One nested-path read on the map plus the set membership probe.
    assert_eq!(t.get(ImplKind::HashMap, CollOp::Read), 1);
    assert_eq!(t.get(ImplKind::HashSet, CollOp::Has), 1);
}

#[test]
fn memory_peak_survives_clear() {
    let grow_then_clear = run(
        r#"
fn @main() -> void {
  %s = new Set<u64>
  %lo = const 0u64
  %hi = const 2000u64
  %full = forrange %lo, %hi carry(%s) as (%i: u64, %c: Set<u64>) {
    %c1 = insert %c, %i
    yield %c1
  }
  %empty = clear %full
  %n = size %empty
  print %n
  ret
}
"#,
    );
    assert_eq!(grow_then_clear.output, "0\n");
    // The peak reflects the full set even though the program ends empty.
    assert!(grow_then_clear.stats.peak_bytes >= 2000 * 16);
}

#[test]
fn tuple_defaults_and_field_paths() {
    let out = run(
        r#"
fn @main() -> void {
  %t = new (u64, bool)
  print %t.0, %t.1
  ret
}
"#,
    );
    assert_eq!(out.output, "0 false\n");
}

#[test]
fn swiss_defaults_change_only_the_implementation() {
    use ade_interp::SelectionDefaults;
    let text = r#"
fn @main() -> void {
  %m = new Map<u64, u64>
  %k = const 3u64
  %v = const 4u64
  %m1 = write %m, %k, %v
  %r = read %m1, %k
  print %r
  ret
}
"#;
    let m = parse_module(text).expect("parses");
    let cfg = ExecConfig {
        defaults: SelectionDefaults {
            set: ade_ir::SetSel::Swiss,
            map: ade_ir::MapSel::Swiss,
        },
        ..ExecConfig::default()
    };
    let swiss = Interpreter::new(&m, cfg).run("main").expect("runs");
    let hash = run(text);
    assert_eq!(swiss.output, hash.output);
    assert_eq!(swiss.stats.totals().get(ImplKind::SwissMap, CollOp::Read), 1);
    assert_eq!(hash.stats.totals().get(ImplKind::HashMap, CollOp::Read), 1);
}

#[test]
fn directive_forced_dense_sets_iterate_as_their_static_domain() {
    // A bitset forced onto a u64 domain must yield u64 keys when
    // iterated — otherwise comparisons against ordinary integers would
    // silently fail after a `select(Bit)` directive.
    let out = run(
        r#"
fn @main() -> void {
  %s = new Set{Bit}<u64>
  %five = const 5u64
  %s1 = insert %s, %five
  %zero = const 0u64
  %hits = foreach %s1 carry(%zero) as (%v: u64, %acc: u64) {
    %is_five = eq %v, %five
    %out = if %is_five then {
      %one = const 1u64
      yield %one
    } else {
      yield %acc
    }
    yield %out
  }
  print %hits
  ret
}
"#,
    );
    assert_eq!(out.output, "1\n");
}

#[test]
fn union_from_dense_into_sparse_keeps_the_static_domain() {
    let out = run(
        r#"
fn @main() -> void {
  %dense = new Set{Bit}<u64>
  %seven = const 7u64
  %d1 = insert %dense, %seven
  %sparse = new Set<u64>
  %s1 = union %sparse, %d1
  %h = has %s1, %seven
  print %h
  ret
}
"#,
    );
    assert_eq!(out.output, "true\n");
}

#[test]
fn deep_interpreted_recursion_fits_the_test_thread_stack() {
    // Recursive guest programs must not exhaust the host stack at
    // plausible depths (test threads only get 2 MiB); the interpreter
    // keeps its per-call frames small on purpose.
    let out = run(
        r#"
fn @down(%n: u64) -> u64 {
  %zero = const 0u64
  %stop = eq %n, %zero
  %r = if %stop then {
    yield %zero
  } else {
    %one = const 1u64
    %m = sub %n, %one
    %deep = call @0(%m)
    %s = add %deep, %n
    yield %s
  }
  ret %r
}

fn @main() -> void {
  %n = const 400u64
  %sum = call @0(%n)
  print %sum
  ret
}
"#,
    );
    assert_eq!(out.output, "80200\n");
}

/// A program that materializes `elems` (IR element tokens of type `ty`)
/// as one `literal`, or as the element-wise `new` plus one end `insert`
/// per element (after an `enumadd` when `enumerated`), then prints every
/// element with its position (and, enumerated, its key).
fn literal_program(ty: &str, elems: &[String], enumerated: bool, one_instruction: bool) -> String {
    let mut text = String::new();
    if enumerated {
        text.push_str(&format!("enum e0: {ty}\n\n"));
    }
    text.push_str("fn @main() -> void {\n");
    let seq_ty = if enumerated { "idx" } else { ty };
    let seq = if one_instruction {
        let suffix = if enumerated { " enumadd e0" } else { "" };
        text.push_str(&format!("  %s = literal {ty} [{}]{suffix}\n", elems.join(", ")));
        "%s".to_string()
    } else {
        text.push_str(&format!("  %s0 = new Seq<{seq_ty}>\n"));
        for (i, x) in elems.iter().enumerate() {
            let x = if ty == "u64" { format!("{x}u64") } else { x.clone() };
            text.push_str(&format!("  %i{i} = const {i}u64\n  %x{i} = const {x}\n"));
            let v = if enumerated {
                text.push_str(&format!("  %e{i} = enumadd e0, %x{i}\n"));
                format!("%e{i}")
            } else {
                format!("%x{i}")
            };
            text.push_str(&format!("  %s{} = insert %s{i}, %i{i}, {v}\n", i + 1));
        }
        format!("%s{}", elems.len())
    };
    text.push_str("  %z = const 0u64\n");
    text.push_str(&format!(
        "  %out = foreach {seq} carry(%z) as (%i: u64, %v: {seq_ty}, %acc: u64) {{\n"
    ));
    if enumerated {
        text.push_str("    %k = dec e0, %v\n    print %i, %v, %k\n");
    } else {
        text.push_str("    print %i, %v\n");
    }
    text.push_str("    yield %acc\n  }\n  ret\n}\n");
    text
}

/// A `literal` observes exactly what its element-wise construction
/// does: output, identifiers, every per-phase operation count, and peak
/// and final bytes (sequence capacity grows as by one end `insert` per
/// element), for empty, short and growing tables, repeated elements and
/// strings, with and without an enumeration.
#[test]
fn literals_match_their_element_wise_construction() {
    let nums: Vec<String> = (0..17u64).map(|i| ((i * 7) % 5).to_string()).collect();
    let strs: Vec<String> = ["b", "a\n", "b", "\u{e9}"]
        .iter()
        .map(|s| format!("{s:?}"))
        .collect();
    for (ty, table) in [("u64", &nums), ("str", &strs)] {
        for len in [0, 1, 3, table.len()] {
            for enumerated in [false, true] {
                let elems = &table[..len];
                let literal = run(&literal_program(ty, elems, enumerated, true));
                let element_wise = run(&literal_program(ty, elems, enumerated, false));
                let tag = format!("{ty} len={len} enumerated={enumerated}");
                assert_eq!(literal.output, element_wise.output, "{tag}");
                assert_eq!(
                    literal.stats.per_phase, element_wise.stats.per_phase,
                    "{tag}"
                );
                assert_eq!(literal.stats.peak_bytes, element_wise.stats.peak_bytes, "{tag}");
                assert_eq!(literal.stats.final_bytes, element_wise.stats.final_bytes, "{tag}");
            }
        }
    }
}
