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
    let out = run(r#"
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
"#);
    assert_eq!(out.output, "0 2 1 8\n");
}

#[test]
fn signed_and_float_casts() {
    let out = run(r#"
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
"#);
    assert_eq!(out.output, "-5 -9 1\n");
}

#[test]
fn string_keys_in_maps_and_comparisons() {
    let out = run(r#"
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
"#);
    assert_eq!(out.output, "1 false\n");
}

#[test]
fn map_insert_default_initializes_nested_collections() {
    let out = run(r#"
fn @main() -> void {
  %m = new Map<u64, Set<u64>>
  %k = const 9u64
  %m1 = insert %m, %k
  %inner = read %m1, %k
  %n = size %inner
  print %n
  ret
}
"#);
    assert_eq!(out.output, "0\n");
}

#[test]
fn remove_and_clear_across_kinds() {
    let out = run(r#"
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
"#);
    assert_eq!(out.output, "1 0 1\n");
}

#[test]
fn seq_insert_in_middle_shifts() {
    let out = run(r#"
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
"#);
    assert_eq!(out.output, "10 20 30\n");
}

#[test]
fn foreach_over_empty_collection_runs_zero_times() {
    let out = run(r#"
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
"#);
    assert_eq!(out.output, "0\n");
}

#[test]
fn foreach_snapshot_isolates_carried_growth() {
    // Appending to a *different* sequence while iterating must not
    // extend the iteration; the iterated collection is snapshotted.
    let out = run(r#"
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
"#);
    assert_eq!(out.output, "1\n");
}

#[test]
fn union_between_hash_and_bit_sets_coerces_keys() {
    let out = run(r#"
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
"#);
    assert_eq!(out.output, "1\n");
}

#[test]
fn nested_path_reads_count_against_the_outer_map() {
    let out = run(r#"
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
"#);
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
    let grow_then_clear = run(r#"
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
"#);
    assert_eq!(grow_then_clear.output, "0\n");
    // The peak reflects the full set even though the program ends empty.
    assert!(grow_then_clear.stats.peak_bytes >= 2000 * 16);
}

#[test]
fn tuple_defaults_and_field_paths() {
    let out = run(r#"
fn @main() -> void {
  %t = new (u64, bool)
  print %t.0, %t.1
  ret
}
"#);
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
    assert_eq!(
        swiss.stats.totals().get(ImplKind::SwissMap, CollOp::Read),
        1
    );
    assert_eq!(hash.stats.totals().get(ImplKind::HashMap, CollOp::Read), 1);
}

#[test]
fn directive_forced_dense_sets_iterate_as_their_static_domain() {
    // A bitset forced onto a u64 domain must yield u64 keys when
    // iterated — otherwise comparisons against ordinary integers would
    // silently fail after a `select(Bit)` directive.
    let out = run(r#"
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
"#);
    assert_eq!(out.output, "1\n");
}

#[test]
fn union_from_dense_into_sparse_keeps_the_static_domain() {
    let out = run(r#"
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
"#);
    assert_eq!(out.output, "true\n");
}

#[test]
fn deep_interpreted_recursion_fits_the_test_thread_stack() {
    // Recursive guest programs must not exhaust the host stack at
    // plausible depths (test threads only get 2 MiB); the interpreter
    // keeps its per-call frames small on purpose.
    let out = run(r#"
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
"#);
    assert_eq!(out.output, "80200\n");
}

/// Yields whose in-order copies would overwrite one of their own
/// sources: a `forrange` rotating three carried `u64`s (`yield %b, %n,
/// %a`, `%n` from an `if`), one swapping two carried strings, and a
/// `dowhile` whose condition is the carried argument its own yield
/// overwrites. Every yield reads all its sources, the condition
/// included, before it writes any: read after the copies, the condition
/// would end the `dowhile` one iteration early (`false 4`).
#[test]
fn permuted_yields_read_every_source_before_writing() {
    use ade_interp::{DecodeOptions, DecodedModule};
    let m = parse_module(include_str!("programs/permuted_yields.memoir")).expect("parses");
    for reference in [true, false] {
        let decoded = DecodedModule::decode_with(&m, &DecodeOptions { reference });
        let out = Interpreter::new(&m, ExecConfig::default())
            .run_decoded(&decoded, "main")
            .expect("runs");
        assert_eq!(
            (out.output.as_str(), out.fuel_ticks),
            ("6 4 1\ny x\nfalse 5\n", 55),
            "reference={reference}"
        );
    }
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
        text.push_str(&format!(
            "  %s = literal {ty} [{}]{suffix}\n",
            elems.join(", ")
        ));
        "%s".to_string()
    } else {
        text.push_str(&format!("  %s0 = new Seq<{seq_ty}>\n"));
        for (i, x) in elems.iter().enumerate() {
            let x = if ty == "u64" {
                format!("{x}u64")
            } else {
                x.clone()
            };
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
                assert_eq!(
                    literal.stats.peak_bytes, element_wise.stats.peak_bytes,
                    "{tag}"
                );
                assert_eq!(
                    literal.stats.final_bytes, element_wise.stats.final_bytes,
                    "{tag}"
                );
            }
        }
    }
}

// ── Typed-scalar matrix ─────────────────────────────────────────────
//
// Every binary operator, comparison, cast and `not` on each scalar kind
// it is defined on, over edge values: 0, 1, the extremes, -1 and
// `i64::MIN`'s bits, signed zeros, NaN and the infinities, and shift
// counts of 64 and more. Each program runs straight-line and inside a
// one-iteration `forrange` (which the default decode compiles to a loop
// plan), under both decodes; all four runs must print the same text,
// pinned below, which also pins how each kind prints. Operand pairs
// that trap (`div`/`rem` by zero, `i64::MIN / -1`) print `trap` in
// their cell and run again alone, pinned by trap code and site.

const MATRIX_U64: &[&str] = &[
    "0u64",
    "1u64",
    "18446744073709551615u64",
    "9223372036854775808u64",
    "64u64",
    "65u64",
];
const MATRIX_I64: &[&str] = &[
    "0i64",
    "1i64",
    "-1i64",
    "-9223372036854775808i64",
    "9223372036854775807i64",
    "64i64",
];
const MATRIX_F64: &[&str] = &[
    "0f64", "-0f64", "1.5f64", "-1f64", "NaNf64", "inff64", "-inff64",
];
/// `idx` values are casts of these `u64` constants.
const MATRIX_IDX: &[&str] = &["0u64", "1u64", "18446744073709551615u64", "64u64"];
const MATRIX_BOOL: &[&str] = &["false", "true"];
const MATRIX_STR: &[&str] = &["\"\"", "\"a\"", "\"b\""];
/// `(f64, str)` tuples, built by `tuple` from these field constants.
const MATRIX_TUPLE: &[(&str, &str)] = &[
    ("NaNf64", "\"a\""),
    ("-0f64", "\"a\""),
    ("0f64", "\"b\""),
    ("0f64", "\"a\""),
];

const BIN_OPS: &[&str] = &[
    "add", "sub", "mul", "div", "rem", "min", "max", "and", "or", "xor", "shl", "shr",
];
const CMP_OPS: &[&str] = &["eq", "ne", "lt", "le", "gt", "ge"];

/// The matrix kinds: name and edge-value count.
fn matrix_kinds() -> [(&'static str, usize); 7] {
    [
        ("bool", MATRIX_BOOL.len()),
        ("u64", MATRIX_U64.len()),
        ("i64", MATRIX_I64.len()),
        ("f64", MATRIX_F64.len()),
        ("idx", MATRIX_IDX.len()),
        ("str", MATRIX_STR.len()),
        ("(f64, str)", MATRIX_TUPLE.len()),
    ]
}

/// IR defining `%v0..` as the edge values of kind `ty`, and their
/// printable names.
fn matrix_operands(ty: &str) -> (String, Vec<String>) {
    let mut defs = String::new();
    let mut names = Vec::new();
    let consts = |defs: &mut String, names: &mut Vec<String>, toks: &[&str]| {
        for (i, tok) in toks.iter().enumerate() {
            defs.push_str(&format!("  %v{i} = const {tok}\n"));
            names.push(tok.to_string());
        }
    };
    match ty {
        "bool" => consts(&mut defs, &mut names, MATRIX_BOOL),
        "u64" => consts(&mut defs, &mut names, MATRIX_U64),
        "i64" => consts(&mut defs, &mut names, MATRIX_I64),
        "f64" => consts(&mut defs, &mut names, MATRIX_F64),
        "str" => consts(&mut defs, &mut names, MATRIX_STR),
        "idx" => {
            for (i, tok) in MATRIX_IDX.iter().enumerate() {
                defs.push_str(&format!(
                    "  %u{i} = const {tok}\n  %v{i} = cast %u{i} to idx\n"
                ));
                names.push(format!("idx({tok})"));
            }
        }
        _ => {
            for (i, (f, s)) in MATRIX_TUPLE.iter().enumerate() {
                defs.push_str(&format!(
                    "  %f{i} = const {f}\n  %s{i} = const {s}\n  %v{i} = tuple %f{i}, %s{i}\n"
                ));
                names.push(format!("({f}, {s})"));
            }
        }
    }
    (defs, names)
}

/// Whether `op` on the operand constants `x`, `y` of kind `ty` traps.
fn matrix_traps(ty: &str, op: &str, x: &str, y: &str) -> bool {
    let zero = matches!(y, "0u64" | "0i64" | "idx(0u64)");
    let overflow = ty == "i64" && x == "-9223372036854775808i64" && y == "-1i64";
    matches!(op, "div" | "rem") && (zero || overflow)
}

/// One printed row: a label, then one cell per result, `None` for a
/// pair that traps. A cell is an instruction's right-hand side and its
/// result type.
type MatrixRow = (String, Vec<Option<(String, &'static str)>>);

/// The program printing `rows` over the operands `defs`: straight-line,
/// or with every cell computed inside a one-iteration `forrange` and
/// carried out of it.
fn matrix_program(defs: &str, rows: &[MatrixRow], in_loop: bool) -> String {
    let cells: Vec<&(String, &str)> = rows.iter().flat_map(|(_, c)| c.iter().flatten()).collect();
    let mut text = format!("fn @main() -> void {{\n{defs}  %trap = const \"trap\"\n");
    let body: String = cells
        .iter()
        .enumerate()
        .map(|(k, (rhs, _))| format!("  %r{k} = {rhs}\n"))
        .collect();
    let out = if in_loop { "o" } else { "r" };
    if in_loop {
        text.push_str("  %lo = const 0u64\n  %hi = const 1u64\n");
        text.push_str("  %ib = const false\n  %iu = const 0u64\n  %ii = const 0i64\n");
        text.push_str("  %if = const 0f64\n  %ix = cast %iu to idx\n");
        let init = |ty: &str| match ty {
            "bool" => "%ib",
            "u64" => "%iu",
            "i64" => "%ii",
            "f64" => "%if",
            _ => "%ix",
        };
        let results: Vec<String> = (0..cells.len()).map(|k| format!("%o{k}")).collect();
        let inits: Vec<&str> = cells.iter().map(|(_, ty)| init(ty)).collect();
        let args: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(k, (_, ty))| format!("%c{k}: {ty}"))
            .collect();
        let yields: Vec<String> = (0..cells.len()).map(|k| format!("%r{k}")).collect();
        text.push_str(&format!(
            "  {} = forrange %lo, %hi carry({}) as (%i: u64, {}) {{\n",
            results.join(", "),
            inits.join(", "),
            args.join(", ")
        ));
        for line in body.lines() {
            text.push_str(&format!("  {line}\n"));
        }
        text.push_str(&format!("    yield {}\n  }}\n", yields.join(", ")));
    } else {
        text.push_str(&body);
    }
    let mut k = 0;
    for (i, (label, row)) in rows.iter().enumerate() {
        let mut printed = vec![format!("%l{i}")];
        for cell in row {
            printed.push(match cell {
                Some(_) => {
                    k += 1;
                    format!("%{out}{}", k - 1)
                }
                None => "%trap".to_string(),
            });
        }
        text.push_str(&format!(
            "  %l{i} = const \"{label}:\"\n  print {}\n",
            printed.join(", ")
        ));
    }
    text.push_str("  ret\n}\n");
    text
}

/// Whether `inst` is a `forrange` header with a plan.
fn bulk_forrange(inst: &ade_interp::decode::DInst) -> bool {
    use ade_interp::decode::{DInst, LoopOver};
    matches!(inst, DInst::LoopBulk(head, _) if matches!(head.over, LoopOver::Range { .. }))
}

/// Runs `text` on the reference or the default decode.
fn run_decode(text: &str, reference: bool) -> Result<Outcome, ade_interp::ExecError> {
    use ade_interp::{DecodeOptions, DecodedModule};
    let m = parse_module(text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    ade_ir::verify::verify_module(&m).unwrap_or_else(|e| panic!("{e}\n{text}"));
    let decoded = DecodedModule::decode_with(&m, &DecodeOptions { reference });
    if !reference && text.contains("forrange") {
        assert!(
            decoded.funcs[0].code.iter().any(bulk_forrange),
            "the default decode runs the loop through a plan:\n{text}"
        );
    }
    Interpreter::new(&m, ExecConfig::default()).run_decoded(&decoded, "main")
}

/// The output of `rows` over `defs`, checked equal across the four runs.
fn matrix_output(defs: &str, rows: &[MatrixRow]) -> String {
    let mut outputs = Vec::new();
    for in_loop in [false, true] {
        let text = matrix_program(defs, rows, in_loop);
        for reference in [true, false] {
            let out = run_decode(&text, reference).unwrap_or_else(|e| panic!("{e}\n{text}"));
            outputs.push(out.output);
        }
    }
    assert!(outputs.windows(2).all(|w| w[0] == w[1]), "{outputs:#?}");
    outputs.swap_remove(0)
}

/// The `code at site` of the one trapping `op` on `x`, `y` of kind `ty`,
/// straight-line and in a loop plan, checked equal across both decodes.
fn matrix_trap(ty: &str, op: &str, r_ty: &'static str, defs: &str, i: usize, j: usize) -> String {
    let rhs = format!("{op} %v{i}, %v{j}");
    let rows = [(format!("{ty} {op}"), vec![Some((rhs, r_ty))])];
    let mut sites = Vec::new();
    for in_loop in [false, true] {
        let text = matrix_program(defs, &rows, in_loop);
        let errs: Vec<String> = [true, false]
            .iter()
            .map(|&reference| {
                let err = run_decode(&text, reference).expect_err("traps");
                let ade_interp::ExecError::GuestTrap {
                    site: Some(site), ..
                } = &err
                else {
                    panic!("expected a sited trap, got {err:?}");
                };
                format!("{} at {site}", err.code())
            })
            .collect();
        assert_eq!(errs[0], errs[1], "both decodes:\n{text}");
        sites.push(errs[0].clone());
    }
    sites.join(", ")
}

fn typed_scalar_matrix_text() -> String {
    let mut text = String::new();
    let mut traps = String::new();
    // Binary operators, one row per left operand.
    for (ty, n) in matrix_kinds() {
        let ops: &[&str] = match ty {
            "bool" => &["and", "or", "xor"],
            "f64" => &BIN_OPS[..7],
            "u64" | "i64" | "idx" => BIN_OPS,
            _ => &[],
        };
        let (defs, names) = matrix_operands(ty);
        let r_ty: &'static str = match ty {
            "bool" => "bool",
            "u64" => "u64",
            "i64" => "i64",
            "f64" => "f64",
            _ => "idx",
        };
        for op in ops {
            let rows: Vec<MatrixRow> = (0..n)
                .map(|i| {
                    let cells = (0..n)
                        .map(|j| {
                            if matrix_traps(ty, op, &names[i], &names[j]) {
                                let at = matrix_trap(ty, op, r_ty, &defs, i, j);
                                traps.push_str(&format!(
                                    "{ty} {op} {} {}: {at}\n",
                                    names[i], names[j]
                                ));
                                None
                            } else {
                                Some((format!("{op} %v{i}, %v{j}"), r_ty))
                            }
                        })
                        .collect();
                    (format!("{ty} {op} {}", names[i]), cells)
                })
                .collect();
            text.push_str(&matrix_output(&defs, &rows));
        }
    }
    // Comparisons, one row per operator over every pair.
    for (ty, n) in matrix_kinds() {
        let (defs, _) = matrix_operands(ty);
        let rows: Vec<MatrixRow> = CMP_OPS
            .iter()
            .map(|op| {
                let cells = (0..n)
                    .flat_map(|i| (0..n).map(move |j| Some((format!("{op} %v{i}, %v{j}"), "bool"))))
                    .collect();
                (format!("{ty} {op}"), cells)
            })
            .collect();
        text.push_str(&matrix_output(&defs, &rows));
    }
    // Casts, one row per source and target kind.
    for (from, n) in &matrix_kinds()[..5] {
        let (defs, _) = matrix_operands(from);
        let rows: Vec<MatrixRow> = ["u64", "i64", "f64", "idx"]
            .iter()
            .map(|&to| {
                let cells = (0..*n)
                    .map(|i| Some((format!("cast %v{i} to {to}"), to)))
                    .collect();
                (format!("cast {from} to {to}"), cells)
            })
            .collect();
        text.push_str(&matrix_output(&defs, &rows));
    }
    let (defs, _) = matrix_operands("bool");
    let not = vec![(
        "not".to_string(),
        vec![
            Some(("not %v0".to_string(), "bool")),
            Some(("not %v1".to_string(), "bool")),
        ],
    )];
    text.push_str(&matrix_output(&defs, &not));
    text + "-- traps --\n" + &traps
}

#[test]
fn typed_scalar_matrix() {
    let text = typed_scalar_matrix_text();
    if text != TYPED_SCALAR_MATRIX {
        panic!("typed scalar matrix changed; now:\n{text}");
    }
}

const TYPED_SCALAR_MATRIX: &str = r#"bool and false: false false
bool and true: false true
bool or false: false true
bool or true: true true
bool xor false: false true
bool xor true: true false
u64 add 0u64: 0 1 18446744073709551615 9223372036854775808 64 65
u64 add 1u64: 1 2 0 9223372036854775809 65 66
u64 add 18446744073709551615u64: 18446744073709551615 0 18446744073709551614 9223372036854775807 63 64
u64 add 9223372036854775808u64: 9223372036854775808 9223372036854775809 9223372036854775807 0 9223372036854775872 9223372036854775873
u64 add 64u64: 64 65 63 9223372036854775872 128 129
u64 add 65u64: 65 66 64 9223372036854775873 129 130
u64 sub 0u64: 0 18446744073709551615 1 9223372036854775808 18446744073709551552 18446744073709551551
u64 sub 1u64: 1 0 2 9223372036854775809 18446744073709551553 18446744073709551552
u64 sub 18446744073709551615u64: 18446744073709551615 18446744073709551614 0 9223372036854775807 18446744073709551551 18446744073709551550
u64 sub 9223372036854775808u64: 9223372036854775808 9223372036854775807 9223372036854775809 0 9223372036854775744 9223372036854775743
u64 sub 64u64: 64 63 65 9223372036854775872 0 18446744073709551615
u64 sub 65u64: 65 64 66 9223372036854775873 1 0
u64 mul 0u64: 0 0 0 0 0 0
u64 mul 1u64: 0 1 18446744073709551615 9223372036854775808 64 65
u64 mul 18446744073709551615u64: 0 18446744073709551615 1 9223372036854775808 18446744073709551552 18446744073709551551
u64 mul 9223372036854775808u64: 0 9223372036854775808 9223372036854775808 0 0 9223372036854775808
u64 mul 64u64: 0 64 18446744073709551552 0 4096 4160
u64 mul 65u64: 0 65 18446744073709551551 9223372036854775808 4160 4225
u64 div 0u64: trap 0 0 0 0 0
u64 div 1u64: trap 1 0 0 0 0
u64 div 18446744073709551615u64: trap 18446744073709551615 1 1 288230376151711743 283796062672454640
u64 div 9223372036854775808u64: trap 9223372036854775808 0 1 144115188075855872 141898031336227320
u64 div 64u64: trap 64 0 0 1 0
u64 div 65u64: trap 65 0 0 1 1
u64 rem 0u64: trap 0 0 0 0 0
u64 rem 1u64: trap 0 1 1 1 1
u64 rem 18446744073709551615u64: trap 0 0 9223372036854775807 63 15
u64 rem 9223372036854775808u64: trap 0 9223372036854775808 0 0 8
u64 rem 64u64: trap 0 64 64 0 64
u64 rem 65u64: trap 0 65 65 1 0
u64 min 0u64: 0 0 0 0 0 0
u64 min 1u64: 0 1 1 1 1 1
u64 min 18446744073709551615u64: 0 1 18446744073709551615 9223372036854775808 64 65
u64 min 9223372036854775808u64: 0 1 9223372036854775808 9223372036854775808 64 65
u64 min 64u64: 0 1 64 64 64 64
u64 min 65u64: 0 1 65 65 64 65
u64 max 0u64: 0 1 18446744073709551615 9223372036854775808 64 65
u64 max 1u64: 1 1 18446744073709551615 9223372036854775808 64 65
u64 max 18446744073709551615u64: 18446744073709551615 18446744073709551615 18446744073709551615 18446744073709551615 18446744073709551615 18446744073709551615
u64 max 9223372036854775808u64: 9223372036854775808 9223372036854775808 18446744073709551615 9223372036854775808 9223372036854775808 9223372036854775808
u64 max 64u64: 64 64 18446744073709551615 9223372036854775808 64 65
u64 max 65u64: 65 65 18446744073709551615 9223372036854775808 65 65
u64 and 0u64: 0 0 0 0 0 0
u64 and 1u64: 0 1 1 0 0 1
u64 and 18446744073709551615u64: 0 1 18446744073709551615 9223372036854775808 64 65
u64 and 9223372036854775808u64: 0 0 9223372036854775808 9223372036854775808 0 0
u64 and 64u64: 0 0 64 0 64 64
u64 and 65u64: 0 1 65 0 64 65
u64 or 0u64: 0 1 18446744073709551615 9223372036854775808 64 65
u64 or 1u64: 1 1 18446744073709551615 9223372036854775809 65 65
u64 or 18446744073709551615u64: 18446744073709551615 18446744073709551615 18446744073709551615 18446744073709551615 18446744073709551615 18446744073709551615
u64 or 9223372036854775808u64: 9223372036854775808 9223372036854775809 18446744073709551615 9223372036854775808 9223372036854775872 9223372036854775873
u64 or 64u64: 64 65 18446744073709551615 9223372036854775872 64 65
u64 or 65u64: 65 65 18446744073709551615 9223372036854775873 65 65
u64 xor 0u64: 0 1 18446744073709551615 9223372036854775808 64 65
u64 xor 1u64: 1 0 18446744073709551614 9223372036854775809 65 64
u64 xor 18446744073709551615u64: 18446744073709551615 18446744073709551614 0 9223372036854775807 18446744073709551551 18446744073709551550
u64 xor 9223372036854775808u64: 9223372036854775808 9223372036854775809 9223372036854775807 0 9223372036854775872 9223372036854775873
u64 xor 64u64: 64 65 18446744073709551551 9223372036854775872 0 1
u64 xor 65u64: 65 64 18446744073709551550 9223372036854775873 1 0
u64 shl 0u64: 0 0 0 0 0 0
u64 shl 1u64: 1 2 9223372036854775808 1 1 2
u64 shl 18446744073709551615u64: 18446744073709551615 18446744073709551614 9223372036854775808 18446744073709551615 18446744073709551615 18446744073709551614
u64 shl 9223372036854775808u64: 9223372036854775808 0 0 9223372036854775808 9223372036854775808 0
u64 shl 64u64: 64 128 0 64 64 128
u64 shl 65u64: 65 130 9223372036854775808 65 65 130
u64 shr 0u64: 0 0 0 0 0 0
u64 shr 1u64: 1 0 0 1 1 0
u64 shr 18446744073709551615u64: 18446744073709551615 9223372036854775807 1 18446744073709551615 18446744073709551615 9223372036854775807
u64 shr 9223372036854775808u64: 9223372036854775808 4611686018427387904 1 9223372036854775808 9223372036854775808 4611686018427387904
u64 shr 64u64: 64 32 0 64 64 32
u64 shr 65u64: 65 32 0 65 65 32
i64 add 0i64: 0 1 -1 -9223372036854775808 9223372036854775807 64
i64 add 1i64: 1 2 0 -9223372036854775807 -9223372036854775808 65
i64 add -1i64: -1 0 -2 9223372036854775807 9223372036854775806 63
i64 add -9223372036854775808i64: -9223372036854775808 -9223372036854775807 9223372036854775807 0 -1 -9223372036854775744
i64 add 9223372036854775807i64: 9223372036854775807 -9223372036854775808 9223372036854775806 -1 -2 -9223372036854775745
i64 add 64i64: 64 65 63 -9223372036854775744 -9223372036854775745 128
i64 sub 0i64: 0 -1 1 -9223372036854775808 -9223372036854775807 -64
i64 sub 1i64: 1 0 2 -9223372036854775807 -9223372036854775806 -63
i64 sub -1i64: -1 -2 0 9223372036854775807 -9223372036854775808 -65
i64 sub -9223372036854775808i64: -9223372036854775808 9223372036854775807 -9223372036854775807 0 1 9223372036854775744
i64 sub 9223372036854775807i64: 9223372036854775807 9223372036854775806 -9223372036854775808 -1 0 9223372036854775743
i64 sub 64i64: 64 63 65 -9223372036854775744 -9223372036854775743 0
i64 mul 0i64: 0 0 0 0 0 0
i64 mul 1i64: 0 1 -1 -9223372036854775808 9223372036854775807 64
i64 mul -1i64: 0 -1 1 -9223372036854775808 -9223372036854775807 -64
i64 mul -9223372036854775808i64: 0 -9223372036854775808 -9223372036854775808 0 -9223372036854775808 0
i64 mul 9223372036854775807i64: 0 9223372036854775807 -9223372036854775807 -9223372036854775808 1 -64
i64 mul 64i64: 0 64 -64 0 -64 4096
i64 div 0i64: trap 0 0 0 0 0
i64 div 1i64: trap 1 -1 0 0 0
i64 div -1i64: trap -1 1 0 0 0
i64 div -9223372036854775808i64: trap -9223372036854775808 trap 1 -1 -144115188075855872
i64 div 9223372036854775807i64: trap 9223372036854775807 -9223372036854775807 0 1 144115188075855871
i64 div 64i64: trap 64 -64 0 0 1
i64 rem 0i64: trap 0 0 0 0 0
i64 rem 1i64: trap 0 0 1 1 1
i64 rem -1i64: trap 0 0 -1 -1 -1
i64 rem -9223372036854775808i64: trap 0 trap 0 -1 0
i64 rem 9223372036854775807i64: trap 0 0 9223372036854775807 0 63
i64 rem 64i64: trap 0 0 64 64 0
i64 min 0i64: 0 0 -1 -9223372036854775808 0 0
i64 min 1i64: 0 1 -1 -9223372036854775808 1 1
i64 min -1i64: -1 -1 -1 -9223372036854775808 -1 -1
i64 min -9223372036854775808i64: -9223372036854775808 -9223372036854775808 -9223372036854775808 -9223372036854775808 -9223372036854775808 -9223372036854775808
i64 min 9223372036854775807i64: 0 1 -1 -9223372036854775808 9223372036854775807 64
i64 min 64i64: 0 1 -1 -9223372036854775808 64 64
i64 max 0i64: 0 1 0 0 9223372036854775807 64
i64 max 1i64: 1 1 1 1 9223372036854775807 64
i64 max -1i64: 0 1 -1 -1 9223372036854775807 64
i64 max -9223372036854775808i64: 0 1 -1 -9223372036854775808 9223372036854775807 64
i64 max 9223372036854775807i64: 9223372036854775807 9223372036854775807 9223372036854775807 9223372036854775807 9223372036854775807 9223372036854775807
i64 max 64i64: 64 64 64 64 9223372036854775807 64
i64 and 0i64: 0 0 0 0 0 0
i64 and 1i64: 0 1 1 0 1 0
i64 and -1i64: 0 1 -1 -9223372036854775808 9223372036854775807 64
i64 and -9223372036854775808i64: 0 0 -9223372036854775808 -9223372036854775808 0 0
i64 and 9223372036854775807i64: 0 1 9223372036854775807 0 9223372036854775807 64
i64 and 64i64: 0 0 64 0 64 64
i64 or 0i64: 0 1 -1 -9223372036854775808 9223372036854775807 64
i64 or 1i64: 1 1 -1 -9223372036854775807 9223372036854775807 65
i64 or -1i64: -1 -1 -1 -1 -1 -1
i64 or -9223372036854775808i64: -9223372036854775808 -9223372036854775807 -1 -9223372036854775808 -1 -9223372036854775744
i64 or 9223372036854775807i64: 9223372036854775807 9223372036854775807 -1 -1 9223372036854775807 9223372036854775807
i64 or 64i64: 64 65 -1 -9223372036854775744 9223372036854775807 64
i64 xor 0i64: 0 1 -1 -9223372036854775808 9223372036854775807 64
i64 xor 1i64: 1 0 -2 -9223372036854775807 9223372036854775806 65
i64 xor -1i64: -1 -2 0 9223372036854775807 -9223372036854775808 -65
i64 xor -9223372036854775808i64: -9223372036854775808 -9223372036854775807 9223372036854775807 0 -1 -9223372036854775744
i64 xor 9223372036854775807i64: 9223372036854775807 9223372036854775806 -9223372036854775808 -1 0 9223372036854775743
i64 xor 64i64: 64 65 -65 -9223372036854775744 9223372036854775743 0
i64 shl 0i64: 0 0 0 0 0 0
i64 shl 1i64: 1 2 -9223372036854775808 1 -9223372036854775808 1
i64 shl -1i64: -1 -2 -9223372036854775808 -1 -9223372036854775808 -1
i64 shl -9223372036854775808i64: -9223372036854775808 0 0 -9223372036854775808 0 -9223372036854775808
i64 shl 9223372036854775807i64: 9223372036854775807 -2 -9223372036854775808 9223372036854775807 -9223372036854775808 9223372036854775807
i64 shl 64i64: 64 128 0 64 0 64
i64 shr 0i64: 0 0 0 0 0 0
i64 shr 1i64: 1 0 0 1 0 1
i64 shr -1i64: -1 -1 -1 -1 -1 -1
i64 shr -9223372036854775808i64: -9223372036854775808 -4611686018427387904 -1 -9223372036854775808 -1 -9223372036854775808
i64 shr 9223372036854775807i64: 9223372036854775807 4611686018427387903 0 9223372036854775807 0 9223372036854775807
i64 shr 64i64: 64 32 0 64 0 64
f64 add 0f64: 0 0 1.5 -1 NaN inf -inf
f64 add -0f64: 0 -0 1.5 -1 NaN inf -inf
f64 add 1.5f64: 1.5 1.5 3 0.5 NaN inf -inf
f64 add -1f64: -1 -1 0.5 -2 NaN inf -inf
f64 add NaNf64: NaN NaN NaN NaN NaN NaN NaN
f64 add inff64: inf inf inf inf NaN inf NaN
f64 add -inff64: -inf -inf -inf -inf NaN NaN -inf
f64 sub 0f64: 0 0 -1.5 1 NaN -inf inf
f64 sub -0f64: -0 0 -1.5 1 NaN -inf inf
f64 sub 1.5f64: 1.5 1.5 0 2.5 NaN -inf inf
f64 sub -1f64: -1 -1 -2.5 0 NaN -inf inf
f64 sub NaNf64: NaN NaN NaN NaN NaN NaN NaN
f64 sub inff64: inf inf inf inf NaN NaN inf
f64 sub -inff64: -inf -inf -inf -inf NaN -inf NaN
f64 mul 0f64: 0 -0 0 -0 NaN NaN NaN
f64 mul -0f64: -0 0 -0 0 NaN NaN NaN
f64 mul 1.5f64: 0 -0 2.25 -1.5 NaN inf -inf
f64 mul -1f64: -0 0 -1.5 1 NaN -inf inf
f64 mul NaNf64: NaN NaN NaN NaN NaN NaN NaN
f64 mul inff64: NaN NaN inf -inf NaN inf -inf
f64 mul -inff64: NaN NaN -inf inf NaN -inf inf
f64 div 0f64: NaN NaN 0 -0 NaN 0 -0
f64 div -0f64: NaN NaN -0 0 NaN -0 0
f64 div 1.5f64: inf -inf 1 -1.5 NaN 0 -0
f64 div -1f64: -inf inf -0.6666666666666666 1 NaN -0 0
f64 div NaNf64: NaN NaN NaN NaN NaN NaN NaN
f64 div inff64: inf -inf inf -inf NaN NaN NaN
f64 div -inff64: -inf inf -inf inf NaN NaN NaN
f64 rem 0f64: NaN NaN 0 0 NaN 0 0
f64 rem -0f64: NaN NaN -0 -0 NaN -0 -0
f64 rem 1.5f64: NaN NaN 0 0.5 NaN 1.5 1.5
f64 rem -1f64: NaN NaN -1 -0 NaN -1 -1
f64 rem NaNf64: NaN NaN NaN NaN NaN NaN NaN
f64 rem inff64: NaN NaN NaN NaN NaN NaN NaN
f64 rem -inff64: NaN NaN NaN NaN NaN NaN NaN
f64 min 0f64: 0 0 0 -1 0 0 -inf
f64 min -0f64: -0 -0 -0 -1 -0 -0 -inf
f64 min 1.5f64: 0 -0 1.5 -1 1.5 1.5 -inf
f64 min -1f64: -1 -1 -1 -1 -1 -1 -inf
f64 min NaNf64: 0 -0 1.5 -1 NaN inf -inf
f64 min inff64: 0 -0 1.5 -1 inf inf -inf
f64 min -inff64: -inf -inf -inf -inf -inf -inf -inf
f64 max 0f64: 0 0 1.5 0 0 inf 0
f64 max -0f64: -0 -0 1.5 -0 -0 inf -0
f64 max 1.5f64: 1.5 1.5 1.5 1.5 1.5 inf 1.5
f64 max -1f64: 0 -0 1.5 -1 -1 inf -1
f64 max NaNf64: 0 -0 1.5 -1 NaN inf -inf
f64 max inff64: inf inf inf inf inf inf inf
f64 max -inff64: 0 -0 1.5 -1 -inf inf -inf
idx add idx(0u64): #0 #1 #18446744073709551615 #64
idx add idx(1u64): #1 #2 #0 #65
idx add idx(18446744073709551615u64): #18446744073709551615 #0 #18446744073709551614 #63
idx add idx(64u64): #64 #65 #63 #128
idx sub idx(0u64): #0 #18446744073709551615 #1 #18446744073709551552
idx sub idx(1u64): #1 #0 #2 #18446744073709551553
idx sub idx(18446744073709551615u64): #18446744073709551615 #18446744073709551614 #0 #18446744073709551551
idx sub idx(64u64): #64 #63 #65 #0
idx mul idx(0u64): #0 #0 #0 #0
idx mul idx(1u64): #0 #1 #18446744073709551615 #64
idx mul idx(18446744073709551615u64): #0 #18446744073709551615 #1 #18446744073709551552
idx mul idx(64u64): #0 #64 #18446744073709551552 #4096
idx div idx(0u64): trap #0 #0 #0
idx div idx(1u64): trap #1 #0 #0
idx div idx(18446744073709551615u64): trap #18446744073709551615 #1 #288230376151711743
idx div idx(64u64): trap #64 #0 #1
idx rem idx(0u64): trap #0 #0 #0
idx rem idx(1u64): trap #0 #1 #1
idx rem idx(18446744073709551615u64): trap #0 #0 #63
idx rem idx(64u64): trap #0 #64 #0
idx min idx(0u64): #0 #0 #0 #0
idx min idx(1u64): #0 #1 #1 #1
idx min idx(18446744073709551615u64): #0 #1 #18446744073709551615 #64
idx min idx(64u64): #0 #1 #64 #64
idx max idx(0u64): #0 #1 #18446744073709551615 #64
idx max idx(1u64): #1 #1 #18446744073709551615 #64
idx max idx(18446744073709551615u64): #18446744073709551615 #18446744073709551615 #18446744073709551615 #18446744073709551615
idx max idx(64u64): #64 #64 #18446744073709551615 #64
idx and idx(0u64): #0 #0 #0 #0
idx and idx(1u64): #0 #1 #1 #0
idx and idx(18446744073709551615u64): #0 #1 #18446744073709551615 #64
idx and idx(64u64): #0 #0 #64 #64
idx or idx(0u64): #0 #1 #18446744073709551615 #64
idx or idx(1u64): #1 #1 #18446744073709551615 #65
idx or idx(18446744073709551615u64): #18446744073709551615 #18446744073709551615 #18446744073709551615 #18446744073709551615
idx or idx(64u64): #64 #65 #18446744073709551615 #64
idx xor idx(0u64): #0 #1 #18446744073709551615 #64
idx xor idx(1u64): #1 #0 #18446744073709551614 #65
idx xor idx(18446744073709551615u64): #18446744073709551615 #18446744073709551614 #0 #18446744073709551551
idx xor idx(64u64): #64 #65 #18446744073709551551 #0
idx shl idx(0u64): #0 #0 #0 #0
idx shl idx(1u64): #1 #2 #9223372036854775808 #1
idx shl idx(18446744073709551615u64): #18446744073709551615 #18446744073709551614 #9223372036854775808 #18446744073709551615
idx shl idx(64u64): #64 #128 #0 #64
idx shr idx(0u64): #0 #0 #0 #0
idx shr idx(1u64): #1 #0 #0 #1
idx shr idx(18446744073709551615u64): #18446744073709551615 #9223372036854775807 #1 #18446744073709551615
idx shr idx(64u64): #64 #32 #0 #64
bool eq: true false false true
bool ne: false true true false
bool lt: false true false false
bool le: true true false true
bool gt: false false true false
bool ge: true false true true
u64 eq: true false false false false false false true false false false false false false true false false false false false false true false false false false false false true false false false false false false true
u64 ne: false true true true true true true false true true true true true true false true true true true true true false true true true true true true false true true true true true true false
u64 lt: false true true true true true false false true true true true false false false false false false false false true false false false false false true true false true false false true true false false
u64 le: true true true true true true false true true true true true false false true false false false false false true true false false false false true true true true false false true true false true
u64 gt: false false false false false false true false false false false false true true false true true true true true false false true true true true false false false false true true false false true false
u64 ge: true false false false false false true true false false false false true true true true true true true true false true true true true true false false true false true true false false true true
i64 eq: true false false false false false false true false false false false false false true false false false false false false true false false false false false false true false false false false false false true
i64 ne: false true true true true true true false true true true true true true false true true true true true true false true true true true true true false true true true true true true false
i64 lt: false true false false true true false false false false true true true true false false true true true true true false true true false false false false false false false false false false true false
i64 le: true true false false true true false true false false true true true true true false true true true true true true true true false false false false true false false false false false true true
i64 gt: false false true true false false true false true true false false false false false true false false false false false false false false true true true true false true true true true true false false
i64 ge: true false true true false false true true true true false false false false true true false false false false false true false false true true true true true true true true true true false true
f64 eq: true false false false false false false false true false false false false false false false true false false false false false false false true false false false false false false false true false false false false false false false true false false false false false false false true
f64 ne: false true true true true true true true false true true true true true true true false true true true true true true true false true true true true true true true false true true true true true true true false true true true true true true true false
f64 lt: false false true false true true false true false true false true true false false false false false true true false true true true false true true false false false false false false false false false false false false true false false true true true true true true false
f64 le: true false true false true true false true true true false true true false false false true false true true false true true true true true true false false false false false true false false false false false false true true false true true true true true true true
f64 gt: false true false true false false true false false false true false false true true true false true false false true false false false false false false true true true true true false true true true true true true false false true false false false false false false false
f64 ge: true true false true false false true false true false true false false true true true true true false false true false false false true false false true true true true true true true true true true true true false true true false false false false false false true
idx eq: true false false false false true false false false false true false false false false true
idx ne: false true true true true false true true true true false true true true true false
idx lt: false true true true false false true true false false false false false false true false
idx le: true true true true false true true true false false true false false false true true
idx gt: false false false false true false false false true true false true true true false false
idx ge: true false false false true true false false true true true true true true false true
str eq: true false false false true false false false true
str ne: false true true true false true true true false
str lt: false true true false false true false false false
str le: true true true false true true false false true
str gt: false false false true false false true true false
str ge: true false false true true false true true true
(f64, str) eq: true false false false false true false false false false true false false false false true
(f64, str) ne: false true true true true false true true true true false true true true true false
(f64, str) lt: false false false false true false true true true false false false true false true false
(f64, str) le: true false false false true true true true true false true false true false true true
(f64, str) gt: false true true true false false false false false true false true false true false false
(f64, str) ge: true true true true false true false false false true true true false true false true
cast bool to u64: 0 1
cast bool to i64: 0 1
cast bool to f64: 0 1
cast bool to idx: #0 #1
cast u64 to u64: 0 1 18446744073709551615 9223372036854775808 64 65
cast u64 to i64: 0 1 -1 -9223372036854775808 64 65
cast u64 to f64: 0 1 18446744073709552000 9223372036854776000 64 65
cast u64 to idx: #0 #1 #18446744073709551615 #9223372036854775808 #64 #65
cast i64 to u64: 0 1 18446744073709551615 9223372036854775808 9223372036854775807 64
cast i64 to i64: 0 1 -1 -9223372036854775808 9223372036854775807 64
cast i64 to f64: 0 1 -1 -9223372036854776000 9223372036854776000 64
cast i64 to idx: #0 #1 #18446744073709551615 #9223372036854775808 #9223372036854775807 #64
cast f64 to u64: 0 0 1 0 0 18446744073709551615 0
cast f64 to i64: 0 0 1 0 0 -1 0
cast f64 to f64: 0 -0 1.5 -1 NaN inf -inf
cast f64 to idx: #0 #0 #1 #0 #0 #18446744073709551615 #0
cast idx to u64: 0 1 18446744073709551615 64
cast idx to i64: 0 1 -1 64
cast idx to f64: 0 1 18446744073709552000 64
cast idx to idx: #0 #1 #18446744073709551615 #64
not: true false
-- traps --
u64 div 0u64 0u64: div-by-zero at @main:7, div-by-zero at @main:18
u64 div 1u64 0u64: div-by-zero at @main:7, div-by-zero at @main:18
u64 div 18446744073709551615u64 0u64: div-by-zero at @main:7, div-by-zero at @main:18
u64 div 9223372036854775808u64 0u64: div-by-zero at @main:7, div-by-zero at @main:18
u64 div 64u64 0u64: div-by-zero at @main:7, div-by-zero at @main:18
u64 div 65u64 0u64: div-by-zero at @main:7, div-by-zero at @main:18
u64 rem 0u64 0u64: div-by-zero at @main:7, div-by-zero at @main:18
u64 rem 1u64 0u64: div-by-zero at @main:7, div-by-zero at @main:18
u64 rem 18446744073709551615u64 0u64: div-by-zero at @main:7, div-by-zero at @main:18
u64 rem 9223372036854775808u64 0u64: div-by-zero at @main:7, div-by-zero at @main:18
u64 rem 64u64 0u64: div-by-zero at @main:7, div-by-zero at @main:18
u64 rem 65u64 0u64: div-by-zero at @main:7, div-by-zero at @main:18
i64 div 0i64 0i64: div-by-zero at @main:7, div-by-zero at @main:18
i64 div 1i64 0i64: div-by-zero at @main:7, div-by-zero at @main:18
i64 div -1i64 0i64: div-by-zero at @main:7, div-by-zero at @main:18
i64 div -9223372036854775808i64 0i64: div-by-zero at @main:7, div-by-zero at @main:18
i64 div -9223372036854775808i64 -1i64: div-by-zero at @main:7, div-by-zero at @main:18
i64 div 9223372036854775807i64 0i64: div-by-zero at @main:7, div-by-zero at @main:18
i64 div 64i64 0i64: div-by-zero at @main:7, div-by-zero at @main:18
i64 rem 0i64 0i64: div-by-zero at @main:7, div-by-zero at @main:18
i64 rem 1i64 0i64: div-by-zero at @main:7, div-by-zero at @main:18
i64 rem -1i64 0i64: div-by-zero at @main:7, div-by-zero at @main:18
i64 rem -9223372036854775808i64 0i64: div-by-zero at @main:7, div-by-zero at @main:18
i64 rem -9223372036854775808i64 -1i64: div-by-zero at @main:7, div-by-zero at @main:18
i64 rem 9223372036854775807i64 0i64: div-by-zero at @main:7, div-by-zero at @main:18
i64 rem 64i64 0i64: div-by-zero at @main:7, div-by-zero at @main:18
idx div idx(0u64) idx(0u64): div-by-zero at @main:9, div-by-zero at @main:20
idx div idx(1u64) idx(0u64): div-by-zero at @main:9, div-by-zero at @main:20
idx div idx(18446744073709551615u64) idx(0u64): div-by-zero at @main:9, div-by-zero at @main:20
idx div idx(64u64) idx(0u64): div-by-zero at @main:9, div-by-zero at @main:20
idx rem idx(0u64) idx(0u64): div-by-zero at @main:9, div-by-zero at @main:20
idx rem idx(1u64) idx(0u64): div-by-zero at @main:9, div-by-zero at @main:20
idx rem idx(18446744073709551615u64) idx(0u64): div-by-zero at @main:9, div-by-zero at @main:20
idx rem idx(64u64) idx(0u64): div-by-zero at @main:9, div-by-zero at @main:20
"#;

// ── Typed-heap matrix ───────────────────────────────────────────────
//
// Every keyed collection op (`has`, `read`, `write`, the set, map and
// sequence `insert`, `remove`, `size`, `foreach` binding keys and
// values, `union`) on every set and map selection and on sequences,
// and the enumeration ops `enumadd`, `enc` and `dec`, over every key
// kind the verifier accepts. Edge keys: signed zeros and NaN,
// `i64::MIN` and -1, `u64::MAX`, and the `enc` sentinel a value no
// enumeration holds encodes to. Maps and sequences hold register,
// boxed and collection values. Each program runs straight-line and
// inside a one-iteration `forrange` (a loop plan under the default
// decode), under both decodes; the four runs must agree on output,
// every operation count and the peak and final bytes. Both
// `SelectionDefaults` run every program. The text below pins all of
// it, each `foreach` order (hash, swiss and flat iteration order)
// included. Trapping ops run alone, pinned by code, site and message.

/// Edge constants of IR type `ty` (a tuple's as `f64|str`; `idx` ones
/// are `u64` constants cast, `sentinel` is `enc` of a value no
/// enumeration holds) and a constant equal to none of them (`None` for
/// `bool`). Dense keys leave out the sentinel and take it as the
/// absent key.
fn heap_edges(ty: &str, dense: bool) -> (Vec<&'static str>, Option<&'static str>) {
    let (keys, absent): (&[&'static str], _) = match ty {
        "bool" => (&["true", "false"], None),
        "u64" if dense => (
            &["0u64", "1u64", "64u64", "65u64"],
            Some("18446744073709551615u64"),
        ),
        "u64" => (
            &[
                "0u64",
                "18446744073709551615u64",
                "1u64",
                "9223372036854775808u64",
                "64u64",
            ],
            Some("7u64"),
        ),
        "i64" => (
            &[
                "0i64",
                "-1i64",
                "-9223372036854775808i64",
                "9223372036854775807i64",
                "64i64",
            ],
            Some("7i64"),
        ),
        "f64" => (
            &["0f64", "-0f64", "NaNf64", "1.5f64", "-inff64"],
            Some("2.5f64"),
        ),
        "idx" if dense => (&["0u64", "4u64", "64u64", "5u64"], Some("sentinel")),
        "idx" => (&["0u64", "4u64", "64u64", "5u64", "sentinel"], Some("7u64")),
        "str" => (&["\"\"", "\"a\"", "\"b\""], Some("\"z\"")),
        _ => (
            &["NaNf64|\"a\"", "-0f64|\"a\"", "0f64|\"b\"", "0f64|\"a\""],
            Some("1.5f64|\"a\""),
        ),
    };
    (keys.to_vec(), absent)
}

/// IR defining `%{name}` as the constant `tok` of type `ty`.
fn heap_def(ty: &str, name: &str, tok: &str) -> String {
    match (ty, tok) {
        ("idx", "sentinel") => format!("  %{name}_u = const 3u64\n  %{name} = enc e0, %{name}_u\n"),
        ("idx", _) => format!("  %{name}_u = const {tok}\n  %{name} = cast %{name}_u to idx\n"),
        ("(f64, str)", _) => {
            let (f, s) = tok.split_once('|').expect("a tuple constant");
            format!(
                "  %{name}_f = const {f}\n  %{name}_s = const {s}\n  %{name} = tuple %{name}_f, %{name}_s\n"
            )
        }
        _ => format!("  %{name} = const {tok}\n"),
    }
}

/// The zero constant of a scalar or boxed type: a carried result's
/// initial value.
fn heap_zero(ty: &str) -> &'static str {
    match ty {
        "bool" => "false",
        "u64" | "idx" => "0u64",
        "i64" => "0i64",
        "f64" => "0f64",
        "(f64, str)" => "0f64|\"\"",
        _ => "\"\"",
    }
}

/// One matrix program: definitions, a body of heap ops, the body values
/// it prints (name, type, and for a `foreach` order the index of the
/// pre-allocated sequence it starts from), and what it prints.
#[derive(Default)]
struct HeapProg {
    enums: String,
    defs: String,
    body: String,
    outs: Vec<(String, String, Option<usize>)>,
    seqs: Vec<String>,
    prints: String,
    labels: usize,
}

impl HeapProg {
    /// Prints a record: `label:` then each body value.
    fn print(&mut self, label: &str, vals: &[(String, &str)]) {
        let l = self.labels;
        self.labels += 1;
        let mut names = vec![format!("%l{l}")];
        for (v, ty) in vals {
            self.outs.push((v.clone(), ty.to_string(), None));
            names.push(format!("%O{}", self.outs.len() - 1));
        }
        self.prints.push_str(&format!(
            "  %l{l} = const \"{label}:\"\n  print {}\n",
            names.join(", ")
        ));
    }

    /// Appends, in `foreach` order over `coll` (iteration arguments
    /// `binds`), `record` (the value to keep, of type `ty`, computed by
    /// `pre` in the loop body) to a fresh sequence, and prints it one
    /// element a line.
    fn order(&mut self, label: &str, coll: &str, binds: &str, pre: &str, record: &str, ty: &str) {
        let j = self.seqs.len();
        self.seqs.push(ty.to_string());
        let name = format!("ord{j}");
        self.body.push_str(&format!(
            "  %{name} = foreach {coll} carry(%Q{j}) as ({binds}, %{name}_a: Seq<{ty}>) {{\n{pre}    %{name}_n = size %{name}_a\n    %{name}_b = insert %{name}_a, %{name}_n, {record}\n    yield %{name}_b\n  }}\n"
        ));
        self.outs
            .push((format!("%{name}"), format!("Seq<{ty}>"), Some(j)));
        let o = self.outs.len() - 1;
        let l = self.labels;
        self.labels += 1;
        self.prints.push_str(&format!(
            "  %l{l} = const \"{label}:\"\n  %l{l}_z = const 0u64\n  %l{l}_r = foreach %O{o} carry(%l{l}_z) as (%l{l}_i: u64, %l{l}_v: {ty}, %l{l}_a: u64) {{\n    print %l{l}, %l{l}_i, %l{l}_v\n    yield %l{l}_a\n  }}\n"
        ));
    }

    /// The program text: straight-line, or with the body inside a
    /// one-iteration `forrange` that carries every printed value out.
    fn render(&self, in_loop: bool) -> String {
        let mut t = format!(
            "enum e0: u64\n{}\nfn @main() -> void {{\n{}",
            self.enums, self.defs
        );
        for (j, ty) in self.seqs.iter().enumerate() {
            t.push_str(&format!("  %q{j} = new Seq<{ty}>\n"));
        }
        let mut body = self.body.clone();
        let mut prints = self.prints.clone();
        if in_loop {
            let mut inits = Vec::new();
            let mut args = Vec::new();
            for (o, (_, ty, seq)) in self.outs.iter().enumerate() {
                inits.push(match seq {
                    Some(j) => format!("%q{j}"),
                    None => {
                        t.push_str(&heap_def(ty, &format!("init{o}"), heap_zero(ty)));
                        format!("%init{o}")
                    }
                });
                args.push(format!("%C{o}: {ty}"));
            }
            for (o, (_, _, seq)) in self.outs.iter().enumerate() {
                if let Some(j) = seq {
                    body = body.replace(&format!("%Q{j}("), &format!("%C{o}("));
                    body = body.replace(&format!("(%Q{j})"), &format!("(%C{o})"));
                }
            }
            let results: Vec<String> = (0..self.outs.len()).map(|o| format!("%o{o}")).collect();
            let yields: Vec<&str> = self.outs.iter().map(|(v, _, _)| v.as_str()).collect();
            t.push_str(&format!(
                "  %lo = const 0u64\n  %hi = const 1u64\n  {} = forrange %lo, %hi carry({}) as (%i: u64, {}) {{\n{body}    yield {}\n  }}\n",
                results.join(", "),
                inits.join(", "),
                args.join(", "),
                yields.join(", ")
            ));
            for o in (0..self.outs.len()).rev() {
                prints = prints.replace(&format!("%O{o}"), &format!("%o{o}"));
            }
        } else {
            for (j, _) in self.seqs.iter().enumerate() {
                body = body.replace(&format!("(%Q{j})"), &format!("(%q{j})"));
            }
            t.push_str(&body);
            for (o, (v, _, _)) in self.outs.iter().enumerate().rev() {
                prints = prints.replace(&format!("%O{o}"), v);
            }
        }
        t + &prints + "  ret\n}\n"
    }
}

/// The default decode's run of `text`, or the reference decode's, under
/// `defaults`; the default decode must compile the `forrange` to a plan.
fn heap_run(
    text: &str,
    reference: bool,
    defaults: ade_interp::SelectionDefaults,
) -> Result<Outcome, ade_interp::ExecError> {
    use ade_interp::{DecodeOptions, DecodedModule};
    let m = parse_module(text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    ade_ir::verify::verify_module(&m).unwrap_or_else(|e| panic!("{e}\n{text}"));
    let decoded = DecodedModule::decode_with(&m, &DecodeOptions { reference });
    if !reference && text.contains("forrange") {
        assert!(
            decoded.funcs[0].code.iter().any(bulk_forrange),
            "the default decode runs the loop through a plan:\n{text}"
        );
    }
    let config = ExecConfig {
        defaults,
        ..ExecConfig::default()
    };
    Interpreter::new(&m, config).run_decoded(&decoded, "main")
}

/// The two `SelectionDefaults`: hash (`memoir`) and swiss.
fn heap_defaults() -> [(&'static str, ade_interp::SelectionDefaults); 2] {
    use ade_ir::{MapSel, SetSel};
    let swiss = ade_interp::SelectionDefaults {
        set: SetSel::Swiss,
        map: MapSel::Swiss,
    };
    [
        ("hash", ade_interp::SelectionDefaults::default()),
        ("swiss", swiss),
    ]
}

/// A run's output, every nonzero operation count, and its peak and
/// final bytes.
fn heap_summary(out: &Outcome) -> String {
    let totals = out.stats.totals();
    let mut counts = Vec::new();
    for imp in ImplKind::ALL {
        for op in CollOp::ALL {
            let n = totals.get(imp, op);
            if n > 0 {
                counts.push(format!("{imp:?}.{op:?}={n}"));
            }
        }
    }
    format!(
        "{}  counts {}\n  bytes peak={} final={}\n",
        out.output,
        counts.join(" "),
        out.stats.peak_bytes,
        out.stats.final_bytes
    )
}

/// `prog`'s summary under each `SelectionDefaults` (one block when they
/// agree), checked equal across both decodes and both placements.
fn heap_output(title: &str, prog: &HeapProg) -> String {
    let mut blocks: Vec<(String, String)> = Vec::new();
    for (name, defaults) in heap_defaults() {
        let mut runs = Vec::new();
        for in_loop in [false, true] {
            let text = prog.render(in_loop);
            for reference in [true, false] {
                let out =
                    heap_run(&text, reference, defaults).unwrap_or_else(|e| panic!("{e}\n{text}"));
                runs.push(heap_summary(&out));
            }
        }
        assert!(
            runs.windows(2).all(|w| w[0] == w[1]),
            "{title} [{name}]: {runs:#?}\n{}",
            prog.render(true)
        );
        match blocks.last_mut() {
            Some((names, summary)) if *summary == runs[0] => names.push_str(&format!("={name}")),
            _ => blocks.push((name.to_string(), runs.swap_remove(0))),
        }
    }
    blocks
        .iter()
        .map(|(names, summary)| format!("== {title} [{names}]\n{summary}"))
        .collect()
}

/// Defines `%{p}0..` as the edge keys of `ty` and `%{p}a` as the absent
/// one; returns the key count and whether there is an absent key.
fn heap_key_defs(prog: &mut HeapProg, ty: &str, p: &str, dense: bool) -> (usize, bool) {
    let (keys, absent) = heap_edges(ty, dense);
    for (i, tok) in keys.iter().enumerate() {
        prog.defs.push_str(&heap_def(ty, &format!("{p}{i}"), tok));
    }
    if let Some(tok) = absent {
        prog.defs.push_str(&heap_def(ty, &format!("{p}a"), tok));
    }
    (keys.len(), absent.is_some())
}

/// Sets of `ty` under `sel`: inserts (one a duplicate), `size`, `has`
/// of every key and the absent one, `remove`, the `foreach` order, and
/// `union` into an empty set of the same selection and of the default.
fn heap_set(ty: &str, sel: &str) -> HeapProg {
    let mut p = HeapProg::default();
    let dense = sel.contains("Bit");
    let (n, absent) = heap_key_defs(&mut p, ty, "k", dense);
    let set = format!("Set{sel}<{ty}>");
    let mut b = format!("  %s0 = new {set}\n");
    for i in 0..n {
        b.push_str(&format!("  %s{} = insert %s{i}, %k{i}\n", i + 1));
    }
    b.push_str(&format!("  %sd = insert %s{n}, %k0\n  %n0 = size %sd\n"));
    let mut has = vec![("%n0".to_string(), "u64")];
    for i in 0..n {
        b.push_str(&format!("  %h{i} = has %sd, %k{i}\n"));
        has.push((format!("%h{i}"), "bool"));
    }
    let mut last = "%r1".to_string();
    if absent {
        b.push_str("  %ha = has %sd, %ka\n");
    }
    b.push_str("  %r1 = remove %sd, %k1\n");
    if absent {
        b.push_str("  %r2 = remove %r1, %ka\n");
        has.push(("%ha".to_string(), "bool"));
        last = "%r2".to_string();
    }
    b.push_str(&format!("  %n1 = size {last}\n  %g = has {last}, %k1\n"));
    has.push(("%n1".to_string(), "u64"));
    has.push(("%g".to_string(), "bool"));
    b.push_str(&format!(
        "  %u0 = new {set}\n  %u1 = union %u0, {last}\n  %u2 = union %u1, {last}\n  %v0 = new Set<{ty}>\n  %v1 = union %v0, {last}\n  %nu = size %u2\n  %nv = size %v1\n"
    ));
    has.push(("%nu".to_string(), "u64"));
    has.push(("%nv".to_string(), "u64"));
    p.body = b;
    p.print("size has* has-absent size' has-removed union-sizes", &has);
    p.order("order", &last, &format!("%e: {ty}"), "", "%e", ty);
    p.order("union-same", "%u2", &format!("%e: {ty}"), "", "%e", ty);
    p.order("union-default", "%v1", &format!("%e: {ty}"), "", "%e", ty);
    p
}

/// Maps from `ty` to `val` under `sel`: `insert` of an absent key (the
/// default) and of a present one (kept), `write`, `read` of every key,
/// `has`, `remove`, `size` and the `foreach` order of keys and values.
/// A collection value is filled through a path and kept as its size.
fn heap_map(ty: &str, val: &str, sel: &str) -> HeapProg {
    let mut p = HeapProg::default();
    let dense = sel.contains("Bit");
    let (n, absent) = heap_key_defs(&mut p, ty, "k", dense);
    let coll = val.contains('<');
    let map = format!("Map{sel}<{ty}, {val}>");
    let mut b = format!("  %m0 = new {map}\n  %m1 = insert %m0, %k0\n");
    let mut outs = Vec::new();
    if !coll {
        let (vals, _) = heap_edges(val, false);
        for (i, tok) in vals.iter().enumerate() {
            p.defs.push_str(&heap_def(val, &format!("w{i}"), tok));
        }
        b.push_str("  %d0 = read %m1, %k0\n");
        outs.push(("%d0".to_string(), val));
        for i in 0..n {
            b.push_str(&format!(
                "  %m{} = write %m{}, %k{i}, %w{}\n",
                i + 2,
                i + 1,
                (i + 1) % vals.len()
            ));
        }
    } else {
        for i in 0..n {
            let fill = if val.starts_with("Seq") {
                format!("%z, %c{i}")
            } else {
                format!("%c{i}")
            };
            b.push_str(&format!(
                "  %c{i} = const {i}u64\n  %z{i} = const 0u64\n  %mi{i} = insert %m{}, %k{i}\n  %m{} = insert %mi{i}[%k{i}], {}\n",
                i + 1,
                i + 2,
                fill.replace("%z", &format!("%z{i}"))
            ));
        }
    }
    b.push_str(&format!(
        "  %mk = insert %m{}, %k1\n  %n0 = size %mk\n",
        n + 1
    ));
    outs.push(("%n0".to_string(), "u64"));
    for i in 0..n {
        if coll {
            b.push_str(&format!("  %r{i} = size %mk[%k{i}]\n"));
            outs.push((format!("%r{i}"), "u64"));
        } else {
            b.push_str(&format!("  %r{i} = read %mk, %k{i}\n"));
            outs.push((format!("%r{i}"), val));
        }
        b.push_str(&format!("  %h{i} = has %mk, %k{i}\n"));
        outs.push((format!("%h{i}"), "bool"));
    }
    let mut last = "%x1".to_string();
    if absent {
        b.push_str("  %ha = has %mk, %ka\n");
    }
    b.push_str("  %x1 = remove %mk, %k1\n");
    if absent {
        b.push_str("  %x2 = remove %x1, %ka\n");
        outs.push(("%ha".to_string(), "bool"));
        last = "%x2".to_string();
    }
    b.push_str(&format!("  %n1 = size {last}\n  %g = has {last}, %k1\n"));
    outs.push(("%n1".to_string(), "u64"));
    outs.push(("%g".to_string(), "bool"));
    p.body = b;
    let outs: Vec<(String, &str)> = outs;
    p.print(
        "default size (read has)* has-absent size' has-removed",
        &outs,
    );
    let binds = format!("%e: {ty}, %f: {val}");
    p.order("keys", &last, &binds, "", "%e", ty);
    if coll {
        p.order(
            "value-sizes",
            &last,
            &binds,
            "    %fs = size %f\n",
            "%fs",
            "u64",
        );
    } else {
        p.order("values", &last, &binds, "", "%f", val);
    }
    p
}

/// Sequences of `ty`: `insert` at the end and at the front, `read` of
/// every index, `write`, `remove`, `size` and the `foreach` order of
/// indices and elements. Collection elements are fresh sets filled
/// through a path, kept as their sizes.
fn heap_seq(ty: &str) -> HeapProg {
    let mut p = HeapProg::default();
    let coll = ty.contains('<');
    let n = if coll {
        3
    } else {
        heap_key_defs(&mut p, ty, "w", false).0
    };
    for i in 0..=n {
        p.defs.push_str(&format!("  %c{i} = const {i}u64\n"));
    }
    let mut b = format!("  %q0x = new Seq<{ty}>\n");
    for i in 0..n {
        if coll {
            b.push_str(&format!("  %w{i} = new {ty}\n"));
        }
        b.push_str(&format!("  %q{}x = insert %q{i}x, %c{i}, %w{i}\n", i + 1));
    }
    let mut outs = Vec::new();
    if coll {
        b.push_str(&format!(
            "  %wf = new {ty}\n  %qa = insert %q{n}x, %c0, %wf\n  %qb = insert %qa[%c1], %c2\n  %qw = insert %qb[%c2], %c3\n"
        ));
    } else {
        b.push_str(&format!(
            "  %qa = insert %q{n}x, %c0, %w1\n  %qw = write %qa, %c1, %w0\n"
        ));
    }
    b.push_str("  %n0 = size %qw\n");
    outs.push(("%n0".to_string(), "u64"));
    for i in 0..=n {
        if coll {
            b.push_str(&format!(
                "  %r{i} = size %qw[%c{i}]\n  %h{i} = has %qw[%c{i}], %c2\n"
            ));
            outs.push((format!("%r{i}"), "u64"));
            outs.push((format!("%h{i}"), "bool"));
        } else {
            b.push_str(&format!("  %r{i} = read %qw, %c{i}\n"));
            outs.push((format!("%r{i}"), ty));
        }
    }
    b.push_str("  %qr = remove %qw, %c0\n  %n1 = size %qr\n");
    outs.push(("%n1".to_string(), "u64"));
    p.body = b;
    p.print("size read* size'", &outs);
    let binds = format!("%e: u64, %f: {ty}");
    if coll {
        p.order(
            "element-sizes",
            "%qr",
            &binds,
            "    %fs = size %f\n",
            "%fs",
            "u64",
        );
    } else {
        p.order("elements", "%qr", &binds, "", "%f", ty);
    }
    p
}

/// An enumeration of `ty`: `enumadd` of every key (one twice), `enc`
/// of every key and of the absent one (the sentinel), `dec` of every
/// identifier, and the sentinel probed in dense sets and maps.
fn heap_enum(ty: &str) -> HeapProg {
    let mut p = HeapProg {
        enums: format!("enum e1: {ty}\n"),
        ..HeapProg::default()
    };
    let (n, absent) = heap_key_defs(&mut p, ty, "k", false);
    let mut b = String::new();
    let mut outs = Vec::new();
    for i in 0..n {
        b.push_str(&format!("  %a{i} = enumadd e1, %k{i}\n"));
        outs.push((format!("%a{i}"), "idx"));
    }
    b.push_str("  %ad = enumadd e1, %k0\n");
    outs.push(("%ad".to_string(), "idx"));
    for i in 0..n {
        b.push_str(&format!(
            "  %c{i} = enc e1, %k{i}\n  %d{i} = dec e1, %a{i}\n"
        ));
        outs.push((format!("%c{i}"), "idx"));
        outs.push((format!("%d{i}"), ty));
    }
    let probe = if absent { "%ca" } else { "%cs" };
    if absent {
        b.push_str("  %ca = enc e1, %ka\n");
    } else {
        b.push_str("  %cs_u = const 3u64\n  %cs = enc e0, %cs_u\n");
    }
    outs.push((probe.to_string(), "idx"));
    b.push_str(&format!(
        "  %b0 = new Set{{Bit}}<idx>\n  %b1 = insert %b0, %a0\n  %hb = has %b1, {probe}\n  %b2 = remove %b1, {probe}\n  %nb = size %b2\n  %p0 = new Set{{SparseBit}}<idx>\n  %p1 = insert %p0, %a1\n  %hp = has %p1, {probe}\n  %mb0 = new Map{{Bit}}<idx, {ty}>\n  %mb1 = write %mb0, %a1, %k0\n  %rb = read %mb1, %a1\n  %hm = has %mb1, {probe}\n  %mb2 = remove %mb1, {probe}\n  %nm = size %mb2\n"
    ));
    for (v, t) in [
        ("%hb", "bool"),
        ("%nb", "u64"),
        ("%hp", "bool"),
        ("%rb", ty),
        ("%hm", "bool"),
        ("%nm", "u64"),
    ] {
        outs.push((v.to_string(), t));
    }
    p.body = b;
    let outs: Vec<(String, &str)> = outs;
    p.print("add* add-again (enc dec)* enc-absent dense-probes", &outs);
    p
}

/// The `code at site: message` of `prog`'s trap, straight-line and in a
/// loop plan, checked equal across both decodes.
fn heap_trap(title: &str, prog: &HeapProg) -> String {
    let mut sites = Vec::new();
    for in_loop in [false, true] {
        let text = prog.render(in_loop);
        let errs: Vec<String> = [true, false]
            .iter()
            .map(|&reference| {
                let err = heap_run(&text, reference, ade_interp::SelectionDefaults::default())
                    .expect_err("traps");
                let ade_interp::ExecError::GuestTrap {
                    site: Some(site),
                    kind,
                } = &err
                else {
                    panic!("expected a sited trap, got {err:?}");
                };
                format!("{} at {site}: {kind}", err.code())
            })
            .collect();
        assert_eq!(errs[0], errs[1], "both decodes:\n{text}");
        sites.push(errs[0].clone());
    }
    format!("{title}: {}\n", sites.join(" | "))
}

/// A trapping program: keys of `ty` defined (dense ones take the
/// sentinel as the absent key), then `body`, whose result
/// `%t` of type `t_ty` is carried out of the loop.
fn heap_trap_prog(ty: &str, dense: bool, body: &str, t_ty: &str) -> HeapProg {
    let mut p = HeapProg::default();
    heap_key_defs(&mut p, ty, "k", dense);
    p.body = body.to_string();
    p.print("unreachable", &[("%t".to_string(), t_ty)]);
    p
}

const HEAP_KINDS: [&str; 7] = ["bool", "u64", "i64", "f64", "idx", "str", "(f64, str)"];

fn typed_heap_matrix_text() -> String {
    let mut text = String::new();
    for ty in HEAP_KINDS {
        let dense = matches!(ty, "u64" | "idx");
        let sels: &[&str] = if dense {
            &["", "{Hash}", "{Swiss}", "{Flat}", "{Bit}", "{SparseBit}"]
        } else {
            &["", "{Hash}", "{Swiss}", "{Flat}"]
        };
        for sel in sels {
            text.push_str(&heap_output(&format!("Set{sel}<{ty}>"), &heap_set(ty, sel)));
        }
        let sels: &[&str] = if dense {
            &["", "{Hash}", "{Swiss}", "{Bit}"]
        } else {
            &["", "{Hash}", "{Swiss}"]
        };
        for sel in sels {
            for val in ["i64", "str", "Seq<u64>"] {
                let title = format!("Map{sel}<{ty}, {val}>");
                text.push_str(&heap_output(&title, &heap_map(ty, val, sel)));
            }
        }
        if ty == "u64" {
            for val in [
                "bool",
                "f64",
                "idx",
                "(f64, str)",
                "Set<u64>",
                "Map<u64, u64>",
            ] {
                let title = format!("Map<u64, {val}>");
                text.push_str(&heap_output(&title, &heap_map(ty, val, "")));
            }
        }
        text.push_str(&heap_output(&format!("Seq<{ty}>"), &heap_seq(ty)));
        text.push_str(&heap_output(&format!("enum {ty}"), &heap_enum(ty)));
    }
    text.push_str(&heap_output("Seq<Set<u64>>", &heap_seq("Set<u64>")));
    text.push_str("-- traps --\n");
    for ty in HEAP_KINDS {
        let sels: &[&str] = match ty {
            "u64" | "idx" => &["", "{Swiss}", "{Bit}"],
            "bool" => &[],
            _ => &["", "{Swiss}"],
        };
        for sel in sels {
            let body = format!(
                "  %m0 = new Map{sel}<{ty}, u64>\n  %w = const 9u64\n  %m1 = write %m0, %k0, %w\n  %t = read %m1, %k1\n"
            );
            let title = format!("read Map{sel}<{ty}, u64> at key 1");
            let prog = heap_trap_prog(ty, *sel == "{Bit}", &body, "u64");
            text.push_str(&heap_trap(&title, &prog));
        }
    }
    let seq = "  %q0 = new Seq<i64>\n  %c0 = const 0u64\n  %c1 = const 1u64\n  %c2 = const 2u64\n  %w = const -1i64\n  %q1 = insert %q0, %c0, %w\n";
    for (op, tail, t_ty) in [
        ("read", "  %t = read %q1, %c1\n", "i64"),
        (
            "write",
            "  %q2 = write %q1, %c1, %w\n  %t = size %q2\n",
            "u64",
        ),
        (
            "insert",
            "  %q2 = insert %q1, %c2, %w\n  %t = size %q2\n",
            "u64",
        ),
        (
            "remove",
            "  %q2 = remove %q1, %c1\n  %t = size %q2\n",
            "u64",
        ),
    ] {
        let prog = heap_trap_prog("i64", false, &format!("{seq}{tail}"), t_ty);
        text.push_str(&heap_trap(&format!("{op} Seq<i64> past the end"), &prog));
    }
    for (title, body) in [
        ("insert Set{Bit}<idx> of the sentinel", "  %s0 = new Set{Bit}<idx>\n  %s1 = insert %s0, %ka\n  %t = size %s1\n"),
        ("insert Set{SparseBit}<idx> of the sentinel", "  %s0 = new Set{SparseBit}<idx>\n  %s1 = insert %s0, %ka\n  %t = size %s1\n"),
        ("write Map{Bit}<idx, u64> at the sentinel", "  %m0 = new Map{Bit}<idx, u64>\n  %w = const 1u64\n  %m1 = write %m0, %ka, %w\n  %t = size %m1\n"),
        ("insert Map{Bit}<idx, Seq<u64>> at the sentinel", "  %m0 = new Map{Bit}<idx, Seq<u64>>\n  %m1 = insert %m0, %ka\n  %t = size %m1\n"),
        ("union into Set{Bit}<idx> of the sentinel", "  %s0 = new Set<idx>\n  %s1 = insert %s0, %ka\n  %d0 = new Set{Bit}<idx>\n  %d1 = union %d0, %s1\n  %t = size %d1\n"),
    ] {
        let prog = heap_trap_prog("idx", true, body, "u64");
        text.push_str(&heap_trap(title, &prog));
    }
    let prog = heap_trap_prog("idx", true, "  %t = dec e0, %ka\n", "u64");
    text.push_str(&heap_trap("dec of the sentinel", &prog));
    text
}

#[test]
fn typed_heap_matrix() {
    let text = typed_heap_matrix_text();
    if text != TYPED_HEAP_MATRIX {
        panic!("typed heap matrix changed; now:\n{text}");
    }
}

const TYPED_HEAP_MATRIX: &str = r#"== Set<bool> [hash]
size has* has-absent size' has-removed union-sizes: 2 true true 1 false 1 1
order: 0 true
union-same: 0 true
union-default: 0 true
  counts Seq.Insert=3 Seq.Size=3 Seq.IterElem=3 HashSet.Insert=3 HashSet.Remove=1 HashSet.Has=3 HashSet.Size=4 HashSet.IterElem=6 HashSet.IterWord=18 HashSet.UnionElem=3
  bytes peak=1008 final=1008
== Set<bool> [swiss]
size has* has-absent size' has-removed union-sizes: 2 true true 1 false 1 1
order: 0 true
union-same: 0 true
union-default: 0 true
  counts Seq.Insert=3 Seq.Size=3 Seq.IterElem=3 SwissSet.Insert=3 SwissSet.Remove=1 SwissSet.Has=3 SwissSet.Size=4 SwissSet.IterElem=6 SwissSet.IterWord=36 SwissSet.UnionElem=3
  bytes peak=1488 final=1488
== Set{Hash}<bool> [hash]
size has* has-absent size' has-removed union-sizes: 2 true true 1 false 1 1
order: 0 true
union-same: 0 true
union-default: 0 true
  counts Seq.Insert=3 Seq.Size=3 Seq.IterElem=3 HashSet.Insert=3 HashSet.Remove=1 HashSet.Has=3 HashSet.Size=4 HashSet.IterElem=6 HashSet.IterWord=18 HashSet.UnionElem=3
  bytes peak=1008 final=1008
== Set{Hash}<bool> [swiss]
size has* has-absent size' has-removed union-sizes: 2 true true 1 false 1 1
order: 0 true
union-same: 0 true
union-default: 0 true
  counts Seq.Insert=3 Seq.Size=3 Seq.IterElem=3 HashSet.Insert=3 HashSet.Remove=1 HashSet.Has=3 HashSet.Size=3 HashSet.IterElem=5 HashSet.IterWord=15 HashSet.UnionElem=2 SwissSet.Size=1 SwissSet.IterElem=1 SwissSet.IterWord=6 SwissSet.UnionElem=1
  bytes peak=1168 final=1168
== Set{Swiss}<bool> [hash]
size has* has-absent size' has-removed union-sizes: 2 true true 1 false 1 1
order: 0 true
union-same: 0 true
union-default: 0 true
  counts Seq.Insert=3 Seq.Size=3 Seq.IterElem=3 HashSet.Size=1 HashSet.IterElem=1 HashSet.IterWord=3 HashSet.UnionElem=1 SwissSet.Insert=3 SwissSet.Remove=1 SwissSet.Has=3 SwissSet.Size=3 SwissSet.IterElem=5 SwissSet.IterWord=30 SwissSet.UnionElem=2
  bytes peak=1328 final=1328
== Set{Swiss}<bool> [swiss]
size has* has-absent size' has-removed union-sizes: 2 true true 1 false 1 1
order: 0 true
union-same: 0 true
union-default: 0 true
  counts Seq.Insert=3 Seq.Size=3 Seq.IterElem=3 SwissSet.Insert=3 SwissSet.Remove=1 SwissSet.Has=3 SwissSet.Size=4 SwissSet.IterElem=6 SwissSet.IterWord=36 SwissSet.UnionElem=3
  bytes peak=1488 final=1488
== Set{Flat}<bool> [hash]
size has* has-absent size' has-removed union-sizes: 2 true true 1 false 1 1
order: 0 true
union-same: 0 true
union-default: 0 true
  counts Seq.Insert=3 Seq.Size=3 Seq.IterElem=3 HashSet.Size=1 HashSet.IterElem=1 HashSet.IterWord=3 HashSet.UnionElem=1 FlatSet.Insert=3 FlatSet.Remove=1 FlatSet.Has=3 FlatSet.Size=3 FlatSet.IterElem=3 FlatSet.UnionElem=3
  bytes peak=672 final=672
== Set{Flat}<bool> [swiss]
size has* has-absent size' has-removed union-sizes: 2 true true 1 false 1 1
order: 0 true
union-same: 0 true
union-default: 0 true
  counts Seq.Insert=3 Seq.Size=3 Seq.IterElem=3 SwissSet.Size=1 SwissSet.IterElem=1 SwissSet.IterWord=6 SwissSet.UnionElem=1 FlatSet.Insert=3 FlatSet.Remove=1 FlatSet.Has=3 FlatSet.Size=3 FlatSet.IterElem=3 FlatSet.UnionElem=3
  bytes peak=832 final=832
== Map<bool, i64> [hash]
default size (read has)* has-absent size' has-removed: 0 2 -1 true -9223372036854775808 true 1 false
keys: 0 true
values: 0 -1
  counts Seq.Insert=2 Seq.Size=2 Seq.IterElem=2 HashMap.Read=3 HashMap.Write=2 HashMap.Insert=2 HashMap.Remove=1 HashMap.Has=3 HashMap.Size=2 HashMap.IterElem=2 HashMap.IterWord=8
  bytes peak=480 final=480
== Map<bool, i64> [swiss]
default size (read has)* has-absent size' has-removed: 0 2 -1 true -9223372036854775808 true 1 false
keys: 0 true
values: 0 -1
  counts Seq.Insert=2 Seq.Size=2 Seq.IterElem=2 SwissMap.Read=3 SwissMap.Write=2 SwissMap.Insert=2 SwissMap.Remove=1 SwissMap.Has=3 SwissMap.Size=2 SwissMap.IterElem=2 SwissMap.IterWord=24
  bytes peak=976 final=976
== Map<bool, str> [hash]
default size (read has)* has-absent size' has-removed:  2 a true b true 1 false
keys: 0 true
values: 0 a
  counts Seq.Insert=2 Seq.Size=2 Seq.IterElem=2 HashMap.Read=3 HashMap.Write=2 HashMap.Insert=2 HashMap.Remove=1 HashMap.Has=3 HashMap.Size=2 HashMap.IterElem=2 HashMap.IterWord=8
  bytes peak=480 final=480
== Map<bool, str> [swiss]
default size (read has)* has-absent size' has-removed:  2 a true b true 1 false
keys: 0 true
values: 0 a
  counts Seq.Insert=2 Seq.Size=2 Seq.IterElem=2 SwissMap.Read=3 SwissMap.Write=2 SwissMap.Insert=2 SwissMap.Remove=1 SwissMap.Has=3 SwissMap.Size=2 SwissMap.IterElem=2 SwissMap.IterWord=24
  bytes peak=976 final=976
== Map<bool, Seq<u64>> [hash]
default size (read has)* has-absent size' has-removed: 2 1 true 1 true 1 false
keys: 0 true
value-sizes: 0 1
  counts Seq.Insert=4 Seq.Size=5 Seq.IterElem=2 HashMap.Read=4 HashMap.Insert=4 HashMap.Remove=1 HashMap.Has=3 HashMap.Size=2 HashMap.IterElem=2 HashMap.IterWord=8
  bytes peak=672 final=672
== Map<bool, Seq<u64>> [swiss]
default size (read has)* has-absent size' has-removed: 2 1 true 1 true 1 false
keys: 0 true
value-sizes: 0 1
  counts Seq.Insert=4 Seq.Size=5 Seq.IterElem=2 SwissMap.Read=4 SwissMap.Insert=4 SwissMap.Remove=1 SwissMap.Has=3 SwissMap.Size=2 SwissMap.IterElem=2 SwissMap.IterWord=24
  bytes peak=1168 final=1168
== Map{Hash}<bool, i64> [hash=swiss]
default size (read has)* has-absent size' has-removed: 0 2 -1 true -9223372036854775808 true 1 false
keys: 0 true
values: 0 -1
  counts Seq.Insert=2 Seq.Size=2 Seq.IterElem=2 HashMap.Read=3 HashMap.Write=2 HashMap.Insert=2 HashMap.Remove=1 HashMap.Has=3 HashMap.Size=2 HashMap.IterElem=2 HashMap.IterWord=8
  bytes peak=480 final=480
== Map{Hash}<bool, str> [hash=swiss]
default size (read has)* has-absent size' has-removed:  2 a true b true 1 false
keys: 0 true
values: 0 a
  counts Seq.Insert=2 Seq.Size=2 Seq.IterElem=2 HashMap.Read=3 HashMap.Write=2 HashMap.Insert=2 HashMap.Remove=1 HashMap.Has=3 HashMap.Size=2 HashMap.IterElem=2 HashMap.IterWord=8
  bytes peak=480 final=480
== Map{Hash}<bool, Seq<u64>> [hash=swiss]
default size (read has)* has-absent size' has-removed: 2 1 true 1 true 1 false
keys: 0 true
value-sizes: 0 1
  counts Seq.Insert=4 Seq.Size=5 Seq.IterElem=2 HashMap.Read=4 HashMap.Insert=4 HashMap.Remove=1 HashMap.Has=3 HashMap.Size=2 HashMap.IterElem=2 HashMap.IterWord=8
  bytes peak=672 final=672
== Map{Swiss}<bool, i64> [hash=swiss]
default size (read has)* has-absent size' has-removed: 0 2 -1 true -9223372036854775808 true 1 false
keys: 0 true
values: 0 -1
  counts Seq.Insert=2 Seq.Size=2 Seq.IterElem=2 SwissMap.Read=3 SwissMap.Write=2 SwissMap.Insert=2 SwissMap.Remove=1 SwissMap.Has=3 SwissMap.Size=2 SwissMap.IterElem=2 SwissMap.IterWord=24
  bytes peak=976 final=976
== Map{Swiss}<bool, str> [hash=swiss]
default size (read has)* has-absent size' has-removed:  2 a true b true 1 false
keys: 0 true
values: 0 a
  counts Seq.Insert=2 Seq.Size=2 Seq.IterElem=2 SwissMap.Read=3 SwissMap.Write=2 SwissMap.Insert=2 SwissMap.Remove=1 SwissMap.Has=3 SwissMap.Size=2 SwissMap.IterElem=2 SwissMap.IterWord=24
  bytes peak=976 final=976
== Map{Swiss}<bool, Seq<u64>> [hash=swiss]
default size (read has)* has-absent size' has-removed: 2 1 true 1 true 1 false
keys: 0 true
value-sizes: 0 1
  counts Seq.Insert=4 Seq.Size=5 Seq.IterElem=2 SwissMap.Read=4 SwissMap.Insert=4 SwissMap.Remove=1 SwissMap.Has=3 SwissMap.Size=2 SwissMap.IterElem=2 SwissMap.IterWord=24
  bytes peak=1168 final=1168
== Seq<bool> [hash=swiss]
size read* size': 3 false true false 2
elements: 0 true
elements: 1 false
  counts Seq.Read=3 Seq.Write=1 Seq.Insert=5 Seq.Remove=1 Seq.Size=4 Seq.IterElem=4
  bytes peak=192 final=192
== enum bool [hash=swiss]
add* add-again (enc dec)* enc-absent dense-probes: #0 #1 #0 #0 true #1 false #18446744073709551615 false 1 false true false 1
  counts BitSet.Insert=1 BitSet.Remove=1 BitSet.Has=1 BitSet.Size=1 SparseBitSet.Insert=1 SparseBitSet.Has=1 BitMap.Read=1 BitMap.Write=1 BitMap.Remove=1 BitMap.Has=1 BitMap.Size=1 EnumEnc.Read=6 EnumEnc.Insert=2 EnumDec.Read=2 EnumDec.Insert=2
  bytes peak=952 final=952
== Set<u64> [hash]
size has* has-absent size' has-removed union-sizes: 5 true true true true true false 4 false 4 4
order: 0 0
order: 1 9223372036854775808
order: 2 64
order: 3 1
union-same: 0 0
union-same: 1 9223372036854775808
union-same: 2 64
union-same: 3 1
union-default: 0 0
union-default: 1 9223372036854775808
union-default: 2 64
union-default: 3 1
  counts Seq.Insert=12 Seq.Size=12 Seq.IterElem=12 HashSet.Insert=6 HashSet.Remove=2 HashSet.Has=7 HashSet.Size=4 HashSet.IterElem=24 HashSet.IterWord=36 HashSet.UnionElem=12
  bytes peak=1440 final=1440
== Set<u64> [swiss]
size has* has-absent size' has-removed union-sizes: 5 true true true true true false 4 false 4 4
order: 0 0
order: 1 9223372036854775808
order: 2 64
order: 3 1
union-same: 0 0
union-same: 1 9223372036854775808
union-same: 2 64
union-same: 3 1
union-default: 0 0
union-default: 1 9223372036854775808
union-default: 2 64
union-default: 3 1
  counts Seq.Insert=12 Seq.Size=12 Seq.IterElem=12 SwissSet.Insert=6 SwissSet.Remove=2 SwissSet.Has=7 SwissSet.Size=4 SwissSet.IterElem=24 SwissSet.IterWord=36 SwissSet.UnionElem=12
  bytes peak=1488 final=1488
== Set{Hash}<u64> [hash]
size has* has-absent size' has-removed union-sizes: 5 true true true true true false 4 false 4 4
order: 0 0
order: 1 9223372036854775808
order: 2 64
order: 3 1
union-same: 0 0
union-same: 1 9223372036854775808
union-same: 2 64
union-same: 3 1
union-default: 0 0
union-default: 1 9223372036854775808
union-default: 2 64
union-default: 3 1
  counts Seq.Insert=12 Seq.Size=12 Seq.IterElem=12 HashSet.Insert=6 HashSet.Remove=2 HashSet.Has=7 HashSet.Size=4 HashSet.IterElem=24 HashSet.IterWord=36 HashSet.UnionElem=12
  bytes peak=1440 final=1440
== Set{Hash}<u64> [swiss]
size has* has-absent size' has-removed union-sizes: 5 true true true true true false 4 false 4 4
order: 0 0
order: 1 9223372036854775808
order: 2 64
order: 3 1
union-same: 0 0
union-same: 1 9223372036854775808
union-same: 2 64
union-same: 3 1
union-default: 0 0
union-default: 1 9223372036854775808
union-default: 2 64
union-default: 3 1
  counts Seq.Insert=12 Seq.Size=12 Seq.IterElem=12 HashSet.Insert=6 HashSet.Remove=2 HashSet.Has=7 HashSet.Size=3 HashSet.IterElem=20 HashSet.IterWord=30 HashSet.UnionElem=8 SwissSet.Size=1 SwissSet.IterElem=4 SwissSet.IterWord=6 SwissSet.UnionElem=4
  bytes peak=1456 final=1456
== Set{Swiss}<u64> [hash]
size has* has-absent size' has-removed union-sizes: 5 true true true true true false 4 false 4 4
order: 0 0
order: 1 9223372036854775808
order: 2 64
order: 3 1
union-same: 0 0
union-same: 1 9223372036854775808
union-same: 2 64
union-same: 3 1
union-default: 0 0
union-default: 1 9223372036854775808
union-default: 2 64
union-default: 3 1
  counts Seq.Insert=12 Seq.Size=12 Seq.IterElem=12 HashSet.Size=1 HashSet.IterElem=4 HashSet.IterWord=6 HashSet.UnionElem=4 SwissSet.Insert=6 SwissSet.Remove=2 SwissSet.Has=7 SwissSet.Size=3 SwissSet.IterElem=20 SwissSet.IterWord=30 SwissSet.UnionElem=8
  bytes peak=1472 final=1472
== Set{Swiss}<u64> [swiss]
size has* has-absent size' has-removed union-sizes: 5 true true true true true false 4 false 4 4
order: 0 0
order: 1 9223372036854775808
order: 2 64
order: 3 1
union-same: 0 0
union-same: 1 9223372036854775808
union-same: 2 64
union-same: 3 1
union-default: 0 0
union-default: 1 9223372036854775808
union-default: 2 64
union-default: 3 1
  counts Seq.Insert=12 Seq.Size=12 Seq.IterElem=12 SwissSet.Insert=6 SwissSet.Remove=2 SwissSet.Has=7 SwissSet.Size=4 SwissSet.IterElem=24 SwissSet.IterWord=36 SwissSet.UnionElem=12
  bytes peak=1488 final=1488
== Set{Flat}<u64> [hash]
size has* has-absent size' has-removed union-sizes: 5 true true true true true false 4 false 4 4
order: 0 0
order: 1 1
order: 2 64
order: 3 9223372036854775808
union-same: 0 0
union-same: 1 1
union-same: 2 64
union-same: 3 9223372036854775808
union-default: 0 0
union-default: 1 64
union-default: 2 9223372036854775808
union-default: 3 1
  counts Seq.Insert=12 Seq.Size=12 Seq.IterElem=12 HashSet.Size=1 HashSet.IterElem=4 HashSet.IterWord=6 HashSet.UnionElem=4 FlatSet.Insert=6 FlatSet.Remove=2 FlatSet.Has=7 FlatSet.Size=3 FlatSet.IterElem=12 FlatSet.UnionElem=12
  bytes peak=1056 final=1056
== Set{Flat}<u64> [swiss]
size has* has-absent size' has-removed union-sizes: 5 true true true true true false 4 false 4 4
order: 0 0
order: 1 1
order: 2 64
order: 3 9223372036854775808
union-same: 0 0
union-same: 1 1
union-same: 2 64
union-same: 3 9223372036854775808
union-default: 0 0
union-default: 1 64
union-default: 2 9223372036854775808
union-default: 3 1
  counts Seq.Insert=12 Seq.Size=12 Seq.IterElem=12 SwissSet.Size=1 SwissSet.IterElem=4 SwissSet.IterWord=6 SwissSet.UnionElem=4 FlatSet.Insert=6 FlatSet.Remove=2 FlatSet.Has=7 FlatSet.Size=3 FlatSet.IterElem=12 FlatSet.UnionElem=12
  bytes peak=1072 final=1072
== Set{Bit}<u64> [hash]
size has* has-absent size' has-removed union-sizes: 4 true true true true false 3 false 3 3
order: 0 0
order: 1 64
order: 2 65
union-same: 0 0
union-same: 1 64
union-same: 2 65
union-default: 0 0
union-default: 1 64
union-default: 2 65
  counts Seq.Insert=9 Seq.Size=9 Seq.IterElem=9 HashSet.Size=1 HashSet.IterElem=3 HashSet.IterWord=5 HashSet.UnionElem=3 BitSet.Insert=5 BitSet.Remove=2 BitSet.Has=6 BitSet.Size=3 BitSet.IterElem=9 BitSet.IterWord=6 BitSet.UnionWord=4
  bytes peak=688 final=688
== Set{Bit}<u64> [swiss]
size has* has-absent size' has-removed union-sizes: 4 true true true true false 3 false 3 3
order: 0 0
order: 1 64
order: 2 65
union-same: 0 0
union-same: 1 64
union-same: 2 65
union-default: 0 0
union-default: 1 64
union-default: 2 65
  counts Seq.Insert=9 Seq.Size=9 Seq.IterElem=9 SwissSet.Size=1 SwissSet.IterElem=3 SwissSet.IterWord=6 SwissSet.UnionElem=3 BitSet.Insert=5 BitSet.Remove=2 BitSet.Has=6 BitSet.Size=3 BitSet.IterElem=9 BitSet.IterWord=6 BitSet.UnionWord=4
  bytes peak=752 final=752
== Set{SparseBit}<u64> [hash]
size has* has-absent size' has-removed union-sizes: 4 true true true true false 3 false 3 3
order: 0 0
order: 1 64
order: 2 65
union-same: 0 0
union-same: 1 64
union-same: 2 65
union-default: 0 0
union-default: 1 64
union-default: 2 65
  counts Seq.Insert=9 Seq.Size=9 Seq.IterElem=9 HashSet.Size=1 HashSet.IterElem=3 HashSet.IterWord=5 HashSet.UnionElem=3 SparseBitSet.Insert=5 SparseBitSet.Remove=2 SparseBitSet.Has=6 SparseBitSet.Size=3 SparseBitSet.IterElem=9 SparseBitSet.IterWord=62 SparseBitSet.UnionWord=42
  bytes peak=958 final=958
== Set{SparseBit}<u64> [swiss]
size has* has-absent size' has-removed union-sizes: 4 true true true true false 3 false 3 3
order: 0 0
order: 1 64
order: 2 65
union-same: 0 0
union-same: 1 64
union-same: 2 65
union-default: 0 0
union-default: 1 64
union-default: 2 65
  counts Seq.Insert=9 Seq.Size=9 Seq.IterElem=9 SwissSet.Size=1 SwissSet.IterElem=3 SwissSet.IterWord=6 SwissSet.UnionElem=3 SparseBitSet.Insert=5 SparseBitSet.Remove=2 SparseBitSet.Has=6 SparseBitSet.Size=3 SparseBitSet.IterElem=9 SparseBitSet.IterWord=62 SparseBitSet.UnionWord=42
  bytes peak=1022 final=1022
== Map<u64, i64> [hash]
default size (read has)* has-absent size' has-removed: 0 5 -1 true -9223372036854775808 true 9223372036854775807 true 64 true 0 true false 4 false
keys: 0 0
keys: 1 9223372036854775808
keys: 2 64
keys: 3 1
values: 0 -1
values: 1 64
values: 2 0
values: 3 9223372036854775807
  counts Seq.Insert=8 Seq.Size=8 Seq.IterElem=8 HashMap.Read=6 HashMap.Write=5 HashMap.Insert=2 HashMap.Remove=2 HashMap.Has=7 HashMap.Size=2 HashMap.IterElem=8 HashMap.IterWord=18
  bytes peak=768 final=768
== Map<u64, i64> [swiss]
default size (read has)* has-absent size' has-removed: 0 5 -1 true -9223372036854775808 true 9223372036854775807 true 64 true 0 true false 4 false
keys: 0 0
keys: 1 9223372036854775808
keys: 2 64
keys: 3 1
values: 0 -1
values: 1 64
values: 2 0
values: 3 9223372036854775807
  counts Seq.Insert=8 Seq.Size=8 Seq.IterElem=8 SwissMap.Read=6 SwissMap.Write=5 SwissMap.Insert=2 SwissMap.Remove=2 SwissMap.Has=7 SwissMap.Size=2 SwissMap.IterElem=8 SwissMap.IterWord=24
  bytes peak=976 final=976
== Map<u64, str> [hash]
default size (read has)* has-absent size' has-removed:  5 a true b true  true a true b true false 4 false
keys: 0 0
keys: 1 9223372036854775808
keys: 2 64
keys: 3 1
values: 0 a
values: 1 a
values: 2 b
values: 3 
  counts Seq.Insert=8 Seq.Size=8 Seq.IterElem=8 HashMap.Read=6 HashMap.Write=5 HashMap.Insert=2 HashMap.Remove=2 HashMap.Has=7 HashMap.Size=2 HashMap.IterElem=8 HashMap.IterWord=18
  bytes peak=768 final=768
== Map<u64, str> [swiss]
default size (read has)* has-absent size' has-removed:  5 a true b true  true a true b true false 4 false
keys: 0 0
keys: 1 9223372036854775808
keys: 2 64
keys: 3 1
values: 0 a
values: 1 a
values: 2 b
values: 3 
  counts Seq.Insert=8 Seq.Size=8 Seq.IterElem=8 SwissMap.Read=6 SwissMap.Write=5 SwissMap.Insert=2 SwissMap.Remove=2 SwissMap.Has=7 SwissMap.Size=2 SwissMap.IterElem=8 SwissMap.IterWord=24
  bytes peak=976 final=976
== Map<u64, Seq<u64>> [hash]
default size (read has)* has-absent size' has-removed: 5 1 true 1 true 1 true 1 true 1 true false 4 false
keys: 0 0
keys: 1 9223372036854775808
keys: 2 64
keys: 3 1
value-sizes: 0 1
value-sizes: 1 1
value-sizes: 2 1
value-sizes: 3 1
  counts Seq.Insert=13 Seq.Size=17 Seq.IterElem=8 HashMap.Read=10 HashMap.Insert=7 HashMap.Remove=2 HashMap.Has=7 HashMap.Size=2 HashMap.IterElem=8 HashMap.IterWord=18
  bytes peak=1248 final=1248
== Map<u64, Seq<u64>> [swiss]
default size (read has)* has-absent size' has-removed: 5 1 true 1 true 1 true 1 true 1 true false 4 false
keys: 0 0
keys: 1 9223372036854775808
keys: 2 64
keys: 3 1
value-sizes: 0 1
value-sizes: 1 1
value-sizes: 2 1
value-sizes: 3 1
  counts Seq.Insert=13 Seq.Size=17 Seq.IterElem=8 SwissMap.Read=10 SwissMap.Insert=7 SwissMap.Remove=2 SwissMap.Has=7 SwissMap.Size=2 SwissMap.IterElem=8 SwissMap.IterWord=24
  bytes peak=1456 final=1456
== Map{Hash}<u64, i64> [hash=swiss]
default size (read has)* has-absent size' has-removed: 0 5 -1 true -9223372036854775808 true 9223372036854775807 true 64 true 0 true false 4 false
keys: 0 0
keys: 1 9223372036854775808
keys: 2 64
keys: 3 1
values: 0 -1
values: 1 64
values: 2 0
values: 3 9223372036854775807
  counts Seq.Insert=8 Seq.Size=8 Seq.IterElem=8 HashMap.Read=6 HashMap.Write=5 HashMap.Insert=2 HashMap.Remove=2 HashMap.Has=7 HashMap.Size=2 HashMap.IterElem=8 HashMap.IterWord=18
  bytes peak=768 final=768
== Map{Hash}<u64, str> [hash=swiss]
default size (read has)* has-absent size' has-removed:  5 a true b true  true a true b true false 4 false
keys: 0 0
keys: 1 9223372036854775808
keys: 2 64
keys: 3 1
values: 0 a
values: 1 a
values: 2 b
values: 3 
  counts Seq.Insert=8 Seq.Size=8 Seq.IterElem=8 HashMap.Read=6 HashMap.Write=5 HashMap.Insert=2 HashMap.Remove=2 HashMap.Has=7 HashMap.Size=2 HashMap.IterElem=8 HashMap.IterWord=18
  bytes peak=768 final=768
== Map{Hash}<u64, Seq<u64>> [hash=swiss]
default size (read has)* has-absent size' has-removed: 5 1 true 1 true 1 true 1 true 1 true false 4 false
keys: 0 0
keys: 1 9223372036854775808
keys: 2 64
keys: 3 1
value-sizes: 0 1
value-sizes: 1 1
value-sizes: 2 1
value-sizes: 3 1
  counts Seq.Insert=13 Seq.Size=17 Seq.IterElem=8 HashMap.Read=10 HashMap.Insert=7 HashMap.Remove=2 HashMap.Has=7 HashMap.Size=2 HashMap.IterElem=8 HashMap.IterWord=18
  bytes peak=1248 final=1248
== Map{Swiss}<u64, i64> [hash=swiss]
default size (read has)* has-absent size' has-removed: 0 5 -1 true -9223372036854775808 true 9223372036854775807 true 64 true 0 true false 4 false
keys: 0 0
keys: 1 9223372036854775808
keys: 2 64
keys: 3 1
values: 0 -1
values: 1 64
values: 2 0
values: 3 9223372036854775807
  counts Seq.Insert=8 Seq.Size=8 Seq.IterElem=8 SwissMap.Read=6 SwissMap.Write=5 SwissMap.Insert=2 SwissMap.Remove=2 SwissMap.Has=7 SwissMap.Size=2 SwissMap.IterElem=8 SwissMap.IterWord=24
  bytes peak=976 final=976
== Map{Swiss}<u64, str> [hash=swiss]
default size (read has)* has-absent size' has-removed:  5 a true b true  true a true b true false 4 false
keys: 0 0
keys: 1 9223372036854775808
keys: 2 64
keys: 3 1
values: 0 a
values: 1 a
values: 2 b
values: 3 
  counts Seq.Insert=8 Seq.Size=8 Seq.IterElem=8 SwissMap.Read=6 SwissMap.Write=5 SwissMap.Insert=2 SwissMap.Remove=2 SwissMap.Has=7 SwissMap.Size=2 SwissMap.IterElem=8 SwissMap.IterWord=24
  bytes peak=976 final=976
== Map{Swiss}<u64, Seq<u64>> [hash=swiss]
default size (read has)* has-absent size' has-removed: 5 1 true 1 true 1 true 1 true 1 true false 4 false
keys: 0 0
keys: 1 9223372036854775808
keys: 2 64
keys: 3 1
value-sizes: 0 1
value-sizes: 1 1
value-sizes: 2 1
value-sizes: 3 1
  counts Seq.Insert=13 Seq.Size=17 Seq.IterElem=8 SwissMap.Read=10 SwissMap.Insert=7 SwissMap.Remove=2 SwissMap.Has=7 SwissMap.Size=2 SwissMap.IterElem=8 SwissMap.IterWord=24
  bytes peak=1456 final=1456
== Map{Bit}<u64, i64> [hash=swiss]
default size (read has)* has-absent size' has-removed: 0 4 -1 true -9223372036854775808 true 9223372036854775807 true 64 true false 3 false
keys: 0 0
keys: 1 64
keys: 2 65
values: 0 -1
values: 1 9223372036854775807
values: 2 64
  counts Seq.Insert=6 Seq.Size=6 Seq.IterElem=6 BitMap.Read=5 BitMap.Write=4 BitMap.Insert=2 BitMap.Remove=2 BitMap.Has=6 BitMap.Size=2 BitMap.IterElem=6 BitMap.IterWord=788
  bytes peak=3344 final=3344
== Map{Bit}<u64, str> [hash=swiss]
default size (read has)* has-absent size' has-removed:  4 a true b true  true a true false 3 false
keys: 0 0
keys: 1 64
keys: 2 65
values: 0 a
values: 1 
values: 2 a
  counts Seq.Insert=6 Seq.Size=6 Seq.IterElem=6 BitMap.Read=5 BitMap.Write=4 BitMap.Insert=2 BitMap.Remove=2 BitMap.Has=6 BitMap.Size=2 BitMap.IterElem=6 BitMap.IterWord=788
  bytes peak=3344 final=3344
== Map{Bit}<u64, Seq<u64>> [hash=swiss]
default size (read has)* has-absent size' has-removed: 4 1 true 1 true 1 true 1 true false 3 false
keys: 0 0
keys: 1 64
keys: 2 65
value-sizes: 0 1
value-sizes: 1 1
value-sizes: 2 1
  counts Seq.Insert=10 Seq.Size=13 Seq.IterElem=6 BitMap.Read=8 BitMap.Insert=6 BitMap.Remove=2 BitMap.Has=6 BitMap.Size=2 BitMap.IterElem=6 BitMap.IterWord=788
  bytes peak=3728 final=3728
== Map<u64, bool> [hash]
default size (read has)* has-absent size' has-removed: false 5 false true true true false true true true false true false 4 false
keys: 0 0
keys: 1 9223372036854775808
keys: 2 64
keys: 3 1
values: 0 false
values: 1 true
values: 2 false
values: 3 false
  counts Seq.Insert=8 Seq.Size=8 Seq.IterElem=8 HashMap.Read=6 HashMap.Write=5 HashMap.Insert=2 HashMap.Remove=2 HashMap.Has=7 HashMap.Size=2 HashMap.IterElem=8 HashMap.IterWord=18
  bytes peak=768 final=768
== Map<u64, bool> [swiss]
default size (read has)* has-absent size' has-removed: false 5 false true true true false true true true false true false 4 false
keys: 0 0
keys: 1 9223372036854775808
keys: 2 64
keys: 3 1
values: 0 false
values: 1 true
values: 2 false
values: 3 false
  counts Seq.Insert=8 Seq.Size=8 Seq.IterElem=8 SwissMap.Read=6 SwissMap.Write=5 SwissMap.Insert=2 SwissMap.Remove=2 SwissMap.Has=7 SwissMap.Size=2 SwissMap.IterElem=8 SwissMap.IterWord=24
  bytes peak=976 final=976
== Map<u64, f64> [hash]
default size (read has)* has-absent size' has-removed: 0 5 -0 true NaN true 1.5 true -inf true 0 true false 4 false
keys: 0 0
keys: 1 9223372036854775808
keys: 2 64
keys: 3 1
values: 0 -0
values: 1 -inf
values: 2 0
values: 3 1.5
  counts Seq.Insert=8 Seq.Size=8 Seq.IterElem=8 HashMap.Read=6 HashMap.Write=5 HashMap.Insert=2 HashMap.Remove=2 HashMap.Has=7 HashMap.Size=2 HashMap.IterElem=8 HashMap.IterWord=18
  bytes peak=768 final=768
== Map<u64, f64> [swiss]
default size (read has)* has-absent size' has-removed: 0 5 -0 true NaN true 1.5 true -inf true 0 true false 4 false
keys: 0 0
keys: 1 9223372036854775808
keys: 2 64
keys: 3 1
values: 0 -0
values: 1 -inf
values: 2 0
values: 3 1.5
  counts Seq.Insert=8 Seq.Size=8 Seq.IterElem=8 SwissMap.Read=6 SwissMap.Write=5 SwissMap.Insert=2 SwissMap.Remove=2 SwissMap.Has=7 SwissMap.Size=2 SwissMap.IterElem=8 SwissMap.IterWord=24
  bytes peak=976 final=976
== Map<u64, idx> [hash]
default size (read has)* has-absent size' has-removed: #0 5 #4 true #64 true #5 true #18446744073709551615 true #0 true false 4 false
keys: 0 0
keys: 1 9223372036854775808
keys: 2 64
keys: 3 1
values: 0 #4
values: 1 #18446744073709551615
values: 2 #0
values: 3 #5
  counts Seq.Insert=8 Seq.Size=8 Seq.IterElem=8 HashMap.Read=6 HashMap.Write=5 HashMap.Insert=2 HashMap.Remove=2 HashMap.Has=7 HashMap.Size=2 HashMap.IterElem=8 HashMap.IterWord=18 EnumEnc.Read=1
  bytes peak=768 final=768
== Map<u64, idx> [swiss]
default size (read has)* has-absent size' has-removed: #0 5 #4 true #64 true #5 true #18446744073709551615 true #0 true false 4 false
keys: 0 0
keys: 1 9223372036854775808
keys: 2 64
keys: 3 1
values: 0 #4
values: 1 #18446744073709551615
values: 2 #0
values: 3 #5
  counts Seq.Insert=8 Seq.Size=8 Seq.IterElem=8 SwissMap.Read=6 SwissMap.Write=5 SwissMap.Insert=2 SwissMap.Remove=2 SwissMap.Has=7 SwissMap.Size=2 SwissMap.IterElem=8 SwissMap.IterWord=24 EnumEnc.Read=1
  bytes peak=976 final=976
== Map<u64, (f64, str)> [hash]
default size (read has)* has-absent size' has-removed: (0, ) 5 (-0, a) true (0, b) true (0, a) true (NaN, a) true (-0, a) true false 4 false
keys: 0 0
keys: 1 9223372036854775808
keys: 2 64
keys: 3 1
values: 0 (-0, a)
values: 1 (NaN, a)
values: 2 (-0, a)
values: 3 (0, a)
  counts Seq.Insert=8 Seq.Size=8 Seq.IterElem=8 HashMap.Read=6 HashMap.Write=5 HashMap.Insert=2 HashMap.Remove=2 HashMap.Has=7 HashMap.Size=2 HashMap.IterElem=8 HashMap.IterWord=18
  bytes peak=768 final=768
== Map<u64, (f64, str)> [swiss]
default size (read has)* has-absent size' has-removed: (0, ) 5 (-0, a) true (0, b) true (0, a) true (NaN, a) true (-0, a) true false 4 false
keys: 0 0
keys: 1 9223372036854775808
keys: 2 64
keys: 3 1
values: 0 (-0, a)
values: 1 (NaN, a)
values: 2 (-0, a)
values: 3 (0, a)
  counts Seq.Insert=8 Seq.Size=8 Seq.IterElem=8 SwissMap.Read=6 SwissMap.Write=5 SwissMap.Insert=2 SwissMap.Remove=2 SwissMap.Has=7 SwissMap.Size=2 SwissMap.IterElem=8 SwissMap.IterWord=24
  bytes peak=976 final=976
== Map<u64, Set<u64>> [hash]
default size (read has)* has-absent size' has-removed: 5 1 true 1 true 1 true 1 true 1 true false 4 false
keys: 0 0
keys: 1 9223372036854775808
keys: 2 64
keys: 3 1
value-sizes: 0 1
value-sizes: 1 1
value-sizes: 2 1
value-sizes: 3 1
  counts Seq.Insert=8 Seq.Size=8 Seq.IterElem=8 HashSet.Insert=5 HashSet.Size=9 HashMap.Read=10 HashMap.Insert=7 HashMap.Remove=2 HashMap.Has=7 HashMap.Size=2 HashMap.IterElem=8 HashMap.IterWord=18
  bytes peak=1968 final=1968
== Map<u64, Set<u64>> [swiss]
default size (read has)* has-absent size' has-removed: 5 1 true 1 true 1 true 1 true 1 true false 4 false
keys: 0 0
keys: 1 9223372036854775808
keys: 2 64
keys: 3 1
value-sizes: 0 1
value-sizes: 1 1
value-sizes: 2 1
value-sizes: 3 1
  counts Seq.Insert=8 Seq.Size=8 Seq.IterElem=8 SwissSet.Insert=5 SwissSet.Size=9 SwissMap.Read=10 SwissMap.Insert=7 SwissMap.Remove=2 SwissMap.Has=7 SwissMap.Size=2 SwissMap.IterElem=8 SwissMap.IterWord=24
  bytes peak=2976 final=2976
== Map<u64, Map<u64, u64>> [hash]
default size (read has)* has-absent size' has-removed: 5 1 true 1 true 1 true 1 true 1 true false 4 false
keys: 0 0
keys: 1 9223372036854775808
keys: 2 64
keys: 3 1
value-sizes: 0 1
value-sizes: 1 1
value-sizes: 2 1
value-sizes: 3 1
  counts Seq.Insert=8 Seq.Size=8 Seq.IterElem=8 HashMap.Read=10 HashMap.Insert=12 HashMap.Remove=2 HashMap.Has=7 HashMap.Size=11 HashMap.IterElem=8 HashMap.IterWord=18
  bytes peak=2208 final=2208
== Map<u64, Map<u64, u64>> [swiss]
default size (read has)* has-absent size' has-removed: 5 1 true 1 true 1 true 1 true 1 true false 4 false
keys: 0 0
keys: 1 9223372036854775808
keys: 2 64
keys: 3 1
value-sizes: 0 1
value-sizes: 1 1
value-sizes: 2 1
value-sizes: 3 1
  counts Seq.Insert=8 Seq.Size=8 Seq.IterElem=8 SwissMap.Read=10 SwissMap.Insert=12 SwissMap.Remove=2 SwissMap.Has=7 SwissMap.Size=11 SwissMap.IterElem=8 SwissMap.IterWord=24
  bytes peak=4896 final=4896
== Seq<u64> [hash=swiss]
size read* size': 6 18446744073709551615 0 18446744073709551615 1 9223372036854775808 64 5
elements: 0 0
elements: 1 18446744073709551615
elements: 2 1
elements: 3 9223372036854775808
elements: 4 64
  counts Seq.Read=6 Seq.Write=1 Seq.Insert=11 Seq.Remove=1 Seq.Size=7 Seq.IterElem=10
  bytes peak=384 final=384
== enum u64 [hash=swiss]
add* add-again (enc dec)* enc-absent dense-probes: #0 #1 #2 #3 #4 #0 #0 0 #1 18446744073709551615 #2 1 #3 9223372036854775808 #4 64 #18446744073709551615 false 1 false 0 false 1
  counts BitSet.Insert=1 BitSet.Remove=1 BitSet.Has=1 BitSet.Size=1 SparseBitSet.Insert=1 SparseBitSet.Has=1 BitMap.Read=1 BitMap.Write=1 BitMap.Remove=1 BitMap.Has=1 BitMap.Size=1 EnumEnc.Read=12 EnumEnc.Insert=5 EnumDec.Read=5 EnumDec.Insert=5
  bytes peak=1048 final=1048
== Set<i64> [hash]
size has* has-absent size' has-removed union-sizes: 5 true true true true true false 4 false 4 4
order: 0 9223372036854775807
order: 1 0
order: 2 -9223372036854775808
order: 3 64
union-same: 0 9223372036854775807
union-same: 1 0
union-same: 2 -9223372036854775808
union-same: 3 64
union-default: 0 9223372036854775807
union-default: 1 0
union-default: 2 -9223372036854775808
union-default: 3 64
  counts Seq.Insert=12 Seq.Size=12 Seq.IterElem=12 HashSet.Insert=6 HashSet.Remove=2 HashSet.Has=7 HashSet.Size=4 HashSet.IterElem=24 HashSet.IterWord=36 HashSet.UnionElem=12
  bytes peak=1440 final=1440
== Set<i64> [swiss]
size has* has-absent size' has-removed union-sizes: 5 true true true true true false 4 false 4 4
order: 0 0
order: 1 -9223372036854775808
order: 2 9223372036854775807
order: 3 64
union-same: 0 0
union-same: 1 -9223372036854775808
union-same: 2 9223372036854775807
union-same: 3 64
union-default: 0 0
union-default: 1 -9223372036854775808
union-default: 2 9223372036854775807
union-default: 3 64
  counts Seq.Insert=12 Seq.Size=12 Seq.IterElem=12 SwissSet.Insert=6 SwissSet.Remove=2 SwissSet.Has=7 SwissSet.Size=4 SwissSet.IterElem=24 SwissSet.IterWord=36 SwissSet.UnionElem=12
  bytes peak=1488 final=1488
== Set{Hash}<i64> [hash]
size has* has-absent size' has-removed union-sizes: 5 true true true true true false 4 false 4 4
order: 0 9223372036854775807
order: 1 0
order: 2 -9223372036854775808
order: 3 64
union-same: 0 9223372036854775807
union-same: 1 0
union-same: 2 -9223372036854775808
union-same: 3 64
union-default: 0 9223372036854775807
union-default: 1 0
union-default: 2 -9223372036854775808
union-default: 3 64
  counts Seq.Insert=12 Seq.Size=12 Seq.IterElem=12 HashSet.Insert=6 HashSet.Remove=2 HashSet.Has=7 HashSet.Size=4 HashSet.IterElem=24 HashSet.IterWord=36 HashSet.UnionElem=12
  bytes peak=1440 final=1440
== Set{Hash}<i64> [swiss]
size has* has-absent size' has-removed union-sizes: 5 true true true true true false 4 false 4 4
order: 0 9223372036854775807
order: 1 0
order: 2 -9223372036854775808
order: 3 64
union-same: 0 9223372036854775807
union-same: 1 0
union-same: 2 -9223372036854775808
union-same: 3 64
union-default: 0 9223372036854775807
union-default: 1 0
union-default: 2 -9223372036854775808
union-default: 3 64
  counts Seq.Insert=12 Seq.Size=12 Seq.IterElem=12 HashSet.Insert=6 HashSet.Remove=2 HashSet.Has=7 HashSet.Size=3 HashSet.IterElem=20 HashSet.IterWord=30 HashSet.UnionElem=8 SwissSet.Size=1 SwissSet.IterElem=4 SwissSet.IterWord=6 SwissSet.UnionElem=4
  bytes peak=1456 final=1456
== Set{Swiss}<i64> [hash]
size has* has-absent size' has-removed union-sizes: 5 true true true true true false 4 false 4 4
order: 0 0
order: 1 -9223372036854775808
order: 2 9223372036854775807
order: 3 64
union-same: 0 0
union-same: 1 -9223372036854775808
union-same: 2 9223372036854775807
union-same: 3 64
union-default: 0 9223372036854775807
union-default: 1 0
union-default: 2 -9223372036854775808
union-default: 3 64
  counts Seq.Insert=12 Seq.Size=12 Seq.IterElem=12 HashSet.Size=1 HashSet.IterElem=4 HashSet.IterWord=6 HashSet.UnionElem=4 SwissSet.Insert=6 SwissSet.Remove=2 SwissSet.Has=7 SwissSet.Size=3 SwissSet.IterElem=20 SwissSet.IterWord=30 SwissSet.UnionElem=8
  bytes peak=1472 final=1472
== Set{Swiss}<i64> [swiss]
size has* has-absent size' has-removed union-sizes: 5 true true true true true false 4 false 4 4
order: 0 0
order: 1 -9223372036854775808
order: 2 9223372036854775807
order: 3 64
union-same: 0 0
union-same: 1 -9223372036854775808
union-same: 2 9223372036854775807
union-same: 3 64
union-default: 0 0
union-default: 1 -9223372036854775808
union-default: 2 9223372036854775807
union-default: 3 64
  counts Seq.Insert=12 Seq.Size=12 Seq.IterElem=12 SwissSet.Insert=6 SwissSet.Remove=2 SwissSet.Has=7 SwissSet.Size=4 SwissSet.IterElem=24 SwissSet.IterWord=36 SwissSet.UnionElem=12
  bytes peak=1488 final=1488
== Set{Flat}<i64> [hash]
size has* has-absent size' has-removed union-sizes: 5 true true true true true false 4 false 4 4
order: 0 -9223372036854775808
order: 1 0
order: 2 64
order: 3 9223372036854775807
union-same: 0 -9223372036854775808
union-same: 1 0
union-same: 2 64
union-same: 3 9223372036854775807
union-default: 0 9223372036854775807
union-default: 1 -9223372036854775808
union-default: 2 0
union-default: 3 64
  counts Seq.Insert=12 Seq.Size=12 Seq.IterElem=12 HashSet.Size=1 HashSet.IterElem=4 HashSet.IterWord=6 HashSet.UnionElem=4 FlatSet.Insert=6 FlatSet.Remove=2 FlatSet.Has=7 FlatSet.Size=3 FlatSet.IterElem=12 FlatSet.UnionElem=12
  bytes peak=1056 final=1056
== Set{Flat}<i64> [swiss]
size has* has-absent size' has-removed union-sizes: 5 true true true true true false 4 false 4 4
order: 0 -9223372036854775808
order: 1 0
order: 2 64
order: 3 9223372036854775807
union-same: 0 -9223372036854775808
union-same: 1 0
union-same: 2 64
union-same: 3 9223372036854775807
union-default: 0 -9223372036854775808
union-default: 1 0
union-default: 2 64
union-default: 3 9223372036854775807
  counts Seq.Insert=12 Seq.Size=12 Seq.IterElem=12 SwissSet.Size=1 SwissSet.IterElem=4 SwissSet.IterWord=6 SwissSet.UnionElem=4 FlatSet.Insert=6 FlatSet.Remove=2 FlatSet.Has=7 FlatSet.Size=3 FlatSet.IterElem=12 FlatSet.UnionElem=12
  bytes peak=1072 final=1072
== Map<i64, i64> [hash]
default size (read has)* has-absent size' has-removed: 0 5 -1 true -9223372036854775808 true 9223372036854775807 true 64 true 0 true false 4 false
keys: 0 9223372036854775807
keys: 1 0
keys: 2 -9223372036854775808
keys: 3 64
values: 0 64
values: 1 -1
values: 2 9223372036854775807
values: 3 0
  counts Seq.Insert=8 Seq.Size=8 Seq.IterElem=8 HashMap.Read=6 HashMap.Write=5 HashMap.Insert=2 HashMap.Remove=2 HashMap.Has=7 HashMap.Size=2 HashMap.IterElem=8 HashMap.IterWord=18
  bytes peak=768 final=768
== Map<i64, i64> [swiss]
default size (read has)* has-absent size' has-removed: 0 5 -1 true -9223372036854775808 true 9223372036854775807 true 64 true 0 true false 4 false
keys: 0 0
keys: 1 -9223372036854775808
keys: 2 9223372036854775807
keys: 3 64
values: 0 -1
values: 1 9223372036854775807
values: 2 64
values: 3 0
  counts Seq.Insert=8 Seq.Size=8 Seq.IterElem=8 SwissMap.Read=6 SwissMap.Write=5 SwissMap.Insert=2 SwissMap.Remove=2 SwissMap.Has=7 SwissMap.Size=2 SwissMap.IterElem=8 SwissMap.IterWord=24
  bytes peak=976 final=976
== Map<i64, str> [hash]
default size (read has)* has-absent size' has-removed:  5 a true b true  true a true b true false 4 false
keys: 0 9223372036854775807
keys: 1 0
keys: 2 -9223372036854775808
keys: 3 64
values: 0 a
values: 1 a
values: 2 
values: 3 b
  counts Seq.Insert=8 Seq.Size=8 Seq.IterElem=8 HashMap.Read=6 HashMap.Write=5 HashMap.Insert=2 HashMap.Remove=2 HashMap.Has=7 HashMap.Size=2 HashMap.IterElem=8 HashMap.IterWord=18
  bytes peak=768 final=768
== Map<i64, str> [swiss]
default size (read has)* has-absent size' has-removed:  5 a true b true  true a true b true false 4 false
keys: 0 0
keys: 1 -9223372036854775808
keys: 2 9223372036854775807
keys: 3 64
values: 0 a
values: 1 
values: 2 a
values: 3 b
  counts Seq.Insert=8 Seq.Size=8 Seq.IterElem=8 SwissMap.Read=6 SwissMap.Write=5 SwissMap.Insert=2 SwissMap.Remove=2 SwissMap.Has=7 SwissMap.Size=2 SwissMap.IterElem=8 SwissMap.IterWord=24
  bytes peak=976 final=976
== Map<i64, Seq<u64>> [hash]
default size (read has)* has-absent size' has-removed: 5 1 true 1 true 1 true 1 true 1 true false 4 false
keys: 0 9223372036854775807
keys: 1 0
keys: 2 -9223372036854775808
keys: 3 64
value-sizes: 0 1
value-sizes: 1 1
value-sizes: 2 1
value-sizes: 3 1
  counts Seq.Insert=13 Seq.Size=17 Seq.IterElem=8 HashMap.Read=10 HashMap.Insert=7 HashMap.Remove=2 HashMap.Has=7 HashMap.Size=2 HashMap.IterElem=8 HashMap.IterWord=18
  bytes peak=1248 final=1248
== Map<i64, Seq<u64>> [swiss]
default size (read has)* has-absent size' has-removed: 5 1 true 1 true 1 true 1 true 1 true false 4 false
keys: 0 0
keys: 1 -9223372036854775808
keys: 2 9223372036854775807
keys: 3 64
value-sizes: 0 1
value-sizes: 1 1
value-sizes: 2 1
value-sizes: 3 1
  counts Seq.Insert=13 Seq.Size=17 Seq.IterElem=8 SwissMap.Read=10 SwissMap.Insert=7 SwissMap.Remove=2 SwissMap.Has=7 SwissMap.Size=2 SwissMap.IterElem=8 SwissMap.IterWord=24
  bytes peak=1456 final=1456
== Map{Hash}<i64, i64> [hash=swiss]
default size (read has)* has-absent size' has-removed: 0 5 -1 true -9223372036854775808 true 9223372036854775807 true 64 true 0 true false 4 false
keys: 0 9223372036854775807
keys: 1 0
keys: 2 -9223372036854775808
keys: 3 64
values: 0 64
values: 1 -1
values: 2 9223372036854775807
values: 3 0
  counts Seq.Insert=8 Seq.Size=8 Seq.IterElem=8 HashMap.Read=6 HashMap.Write=5 HashMap.Insert=2 HashMap.Remove=2 HashMap.Has=7 HashMap.Size=2 HashMap.IterElem=8 HashMap.IterWord=18
  bytes peak=768 final=768
== Map{Hash}<i64, str> [hash=swiss]
default size (read has)* has-absent size' has-removed:  5 a true b true  true a true b true false 4 false
keys: 0 9223372036854775807
keys: 1 0
keys: 2 -9223372036854775808
keys: 3 64
values: 0 a
values: 1 a
values: 2 
values: 3 b
  counts Seq.Insert=8 Seq.Size=8 Seq.IterElem=8 HashMap.Read=6 HashMap.Write=5 HashMap.Insert=2 HashMap.Remove=2 HashMap.Has=7 HashMap.Size=2 HashMap.IterElem=8 HashMap.IterWord=18
  bytes peak=768 final=768
== Map{Hash}<i64, Seq<u64>> [hash=swiss]
default size (read has)* has-absent size' has-removed: 5 1 true 1 true 1 true 1 true 1 true false 4 false
keys: 0 9223372036854775807
keys: 1 0
keys: 2 -9223372036854775808
keys: 3 64
value-sizes: 0 1
value-sizes: 1 1
value-sizes: 2 1
value-sizes: 3 1
  counts Seq.Insert=13 Seq.Size=17 Seq.IterElem=8 HashMap.Read=10 HashMap.Insert=7 HashMap.Remove=2 HashMap.Has=7 HashMap.Size=2 HashMap.IterElem=8 HashMap.IterWord=18
  bytes peak=1248 final=1248
== Map{Swiss}<i64, i64> [hash=swiss]
default size (read has)* has-absent size' has-removed: 0 5 -1 true -9223372036854775808 true 9223372036854775807 true 64 true 0 true false 4 false
keys: 0 0
keys: 1 -9223372036854775808
keys: 2 9223372036854775807
keys: 3 64
values: 0 -1
values: 1 9223372036854775807
values: 2 64
values: 3 0
  counts Seq.Insert=8 Seq.Size=8 Seq.IterElem=8 SwissMap.Read=6 SwissMap.Write=5 SwissMap.Insert=2 SwissMap.Remove=2 SwissMap.Has=7 SwissMap.Size=2 SwissMap.IterElem=8 SwissMap.IterWord=24
  bytes peak=976 final=976
== Map{Swiss}<i64, str> [hash=swiss]
default size (read has)* has-absent size' has-removed:  5 a true b true  true a true b true false 4 false
keys: 0 0
keys: 1 -9223372036854775808
keys: 2 9223372036854775807
keys: 3 64
values: 0 a
values: 1 
values: 2 a
values: 3 b
  counts Seq.Insert=8 Seq.Size=8 Seq.IterElem=8 SwissMap.Read=6 SwissMap.Write=5 SwissMap.Insert=2 SwissMap.Remove=2 SwissMap.Has=7 SwissMap.Size=2 SwissMap.IterElem=8 SwissMap.IterWord=24
  bytes peak=976 final=976
== Map{Swiss}<i64, Seq<u64>> [hash=swiss]
default size (read has)* has-absent size' has-removed: 5 1 true 1 true 1 true 1 true 1 true false 4 false
keys: 0 0
keys: 1 -9223372036854775808
keys: 2 9223372036854775807
keys: 3 64
value-sizes: 0 1
value-sizes: 1 1
value-sizes: 2 1
value-sizes: 3 1
  counts Seq.Insert=13 Seq.Size=17 Seq.IterElem=8 SwissMap.Read=10 SwissMap.Insert=7 SwissMap.Remove=2 SwissMap.Has=7 SwissMap.Size=2 SwissMap.IterElem=8 SwissMap.IterWord=24
  bytes peak=1456 final=1456
== Seq<i64> [hash=swiss]
size read* size': 6 -1 0 -1 -9223372036854775808 9223372036854775807 64 5
elements: 0 0
elements: 1 -1
elements: 2 -9223372036854775808
elements: 3 9223372036854775807
elements: 4 64
  counts Seq.Read=6 Seq.Write=1 Seq.Insert=11 Seq.Remove=1 Seq.Size=7 Seq.IterElem=10
  bytes peak=384 final=384
== enum i64 [hash=swiss]
add* add-again (enc dec)* enc-absent dense-probes: #0 #1 #2 #3 #4 #0 #0 0 #1 -1 #2 -9223372036854775808 #3 9223372036854775807 #4 64 #18446744073709551615 false 1 false 0 false 1
  counts BitSet.Insert=1 BitSet.Remove=1 BitSet.Has=1 BitSet.Size=1 SparseBitSet.Insert=1 SparseBitSet.Has=1 BitMap.Read=1 BitMap.Write=1 BitMap.Remove=1 BitMap.Has=1 BitMap.Size=1 EnumEnc.Read=12 EnumEnc.Insert=5 EnumDec.Read=5 EnumDec.Insert=5
  bytes peak=1048 final=1048
== Set<f64> [hash]
size has* has-absent size' has-removed union-sizes: 5 true true true true true false 4 false 4 4
order: 0 0
order: 1 -inf
order: 2 NaN
order: 3 1.5
union-same: 0 0
union-same: 1 -inf
union-same: 2 NaN
union-same: 3 1.5
union-default: 0 0
union-default: 1 -inf
union-default: 2 NaN
union-default: 3 1.5
  counts Seq.Insert=12 Seq.Size=12 Seq.IterElem=12 HashSet.Insert=6 HashSet.Remove=2 HashSet.Has=7 HashSet.Size=4 HashSet.IterElem=24 HashSet.IterWord=36 HashSet.UnionElem=12
  bytes peak=1440 final=1440
== Set<f64> [swiss]
size has* has-absent size' has-removed union-sizes: 5 true true true true true false 4 false 4 4
order: 0 0
order: 1 NaN
order: 2 1.5
order: 3 -inf
union-same: 0 0
union-same: 1 NaN
union-same: 2 1.5
union-same: 3 -inf
union-default: 0 0
union-default: 1 NaN
union-default: 2 1.5
union-default: 3 -inf
  counts Seq.Insert=12 Seq.Size=12 Seq.IterElem=12 SwissSet.Insert=6 SwissSet.Remove=2 SwissSet.Has=7 SwissSet.Size=4 SwissSet.IterElem=24 SwissSet.IterWord=36 SwissSet.UnionElem=12
  bytes peak=1488 final=1488
== Set{Hash}<f64> [hash]
size has* has-absent size' has-removed union-sizes: 5 true true true true true false 4 false 4 4
order: 0 0
order: 1 -inf
order: 2 NaN
order: 3 1.5
union-same: 0 0
union-same: 1 -inf
union-same: 2 NaN
union-same: 3 1.5
union-default: 0 0
union-default: 1 -inf
union-default: 2 NaN
union-default: 3 1.5
  counts Seq.Insert=12 Seq.Size=12 Seq.IterElem=12 HashSet.Insert=6 HashSet.Remove=2 HashSet.Has=7 HashSet.Size=4 HashSet.IterElem=24 HashSet.IterWord=36 HashSet.UnionElem=12
  bytes peak=1440 final=1440
== Set{Hash}<f64> [swiss]
size has* has-absent size' has-removed union-sizes: 5 true true true true true false 4 false 4 4
order: 0 0
order: 1 -inf
order: 2 NaN
order: 3 1.5
union-same: 0 0
union-same: 1 -inf
union-same: 2 NaN
union-same: 3 1.5
union-default: 0 0
union-default: 1 -inf
union-default: 2 NaN
union-default: 3 1.5
  counts Seq.Insert=12 Seq.Size=12 Seq.IterElem=12 HashSet.Insert=6 HashSet.Remove=2 HashSet.Has=7 HashSet.Size=3 HashSet.IterElem=20 HashSet.IterWord=30 HashSet.UnionElem=8 SwissSet.Size=1 SwissSet.IterElem=4 SwissSet.IterWord=6 SwissSet.UnionElem=4
  bytes peak=1456 final=1456
== Set{Swiss}<f64> [hash]
size has* has-absent size' has-removed union-sizes: 5 true true true true true false 4 false 4 4
order: 0 0
order: 1 NaN
order: 2 1.5
order: 3 -inf
union-same: 0 0
union-same: 1 NaN
union-same: 2 1.5
union-same: 3 -inf
union-default: 0 0
union-default: 1 NaN
union-default: 2 1.5
union-default: 3 -inf
  counts Seq.Insert=12 Seq.Size=12 Seq.IterElem=12 HashSet.Size=1 HashSet.IterElem=4 HashSet.IterWord=6 HashSet.UnionElem=4 SwissSet.Insert=6 SwissSet.Remove=2 SwissSet.Has=7 SwissSet.Size=3 SwissSet.IterElem=20 SwissSet.IterWord=30 SwissSet.UnionElem=8
  bytes peak=1472 final=1472
== Set{Swiss}<f64> [swiss]
size has* has-absent size' has-removed union-sizes: 5 true true true true true false 4 false 4 4
order: 0 0
order: 1 NaN
order: 2 1.5
order: 3 -inf
union-same: 0 0
union-same: 1 NaN
union-same: 2 1.5
union-same: 3 -inf
union-default: 0 0
union-default: 1 NaN
union-default: 2 1.5
union-default: 3 -inf
  counts Seq.Insert=12 Seq.Size=12 Seq.IterElem=12 SwissSet.Insert=6 SwissSet.Remove=2 SwissSet.Has=7 SwissSet.Size=4 SwissSet.IterElem=24 SwissSet.IterWord=36 SwissSet.UnionElem=12
  bytes peak=1488 final=1488
== Set{Flat}<f64> [hash]
size has* has-absent size' has-removed union-sizes: 5 true true true true true false 4 false 4 4
order: 0 -inf
order: 1 0
order: 2 1.5
order: 3 NaN
union-same: 0 -inf
union-same: 1 0
union-same: 2 1.5
union-same: 3 NaN
union-default: 0 -inf
union-default: 1 0
union-default: 2 1.5
union-default: 3 NaN
  counts Seq.Insert=12 Seq.Size=12 Seq.IterElem=12 HashSet.Size=1 HashSet.IterElem=4 HashSet.IterWord=6 HashSet.UnionElem=4 FlatSet.Insert=6 FlatSet.Remove=2 FlatSet.Has=7 FlatSet.Size=3 FlatSet.IterElem=12 FlatSet.UnionElem=12
  bytes peak=1056 final=1056
== Set{Flat}<f64> [swiss]
size has* has-absent size' has-removed union-sizes: 5 true true true true true false 4 false 4 4
order: 0 -inf
order: 1 0
order: 2 1.5
order: 3 NaN
union-same: 0 -inf
union-same: 1 0
union-same: 2 1.5
union-same: 3 NaN
union-default: 0 -inf
union-default: 1 0
union-default: 2 1.5
union-default: 3 NaN
  counts Seq.Insert=12 Seq.Size=12 Seq.IterElem=12 SwissSet.Size=1 SwissSet.IterElem=4 SwissSet.IterWord=6 SwissSet.UnionElem=4 FlatSet.Insert=6 FlatSet.Remove=2 FlatSet.Has=7 FlatSet.Size=3 FlatSet.IterElem=12 FlatSet.UnionElem=12
  bytes peak=1072 final=1072
== Map<f64, i64> [hash]
default size (read has)* has-absent size' has-removed: 0 5 -1 true -9223372036854775808 true 9223372036854775807 true 64 true 0 true false 4 false
keys: 0 0
keys: 1 -inf
keys: 2 NaN
keys: 3 1.5
values: 0 -1
values: 1 0
values: 2 9223372036854775807
values: 3 64
  counts Seq.Insert=8 Seq.Size=8 Seq.IterElem=8 HashMap.Read=6 HashMap.Write=5 HashMap.Insert=2 HashMap.Remove=2 HashMap.Has=7 HashMap.Size=2 HashMap.IterElem=8 HashMap.IterWord=18
  bytes peak=768 final=768
== Map<f64, i64> [swiss]
default size (read has)* has-absent size' has-removed: 0 5 -1 true -9223372036854775808 true 9223372036854775807 true 64 true 0 true false 4 false
keys: 0 0
keys: 1 NaN
keys: 2 1.5
keys: 3 -inf
values: 0 -1
values: 1 9223372036854775807
values: 2 64
values: 3 0
  counts Seq.Insert=8 Seq.Size=8 Seq.IterElem=8 SwissMap.Read=6 SwissMap.Write=5 SwissMap.Insert=2 SwissMap.Remove=2 SwissMap.Has=7 SwissMap.Size=2 SwissMap.IterElem=8 SwissMap.IterWord=24
  bytes peak=976 final=976
== Map<f64, str> [hash]
default size (read has)* has-absent size' has-removed:  5 a true b true  true a true b true false 4 false
keys: 0 0
keys: 1 -inf
keys: 2 NaN
keys: 3 1.5
values: 0 a
values: 1 b
values: 2 
values: 3 a
  counts Seq.Insert=8 Seq.Size=8 Seq.IterElem=8 HashMap.Read=6 HashMap.Write=5 HashMap.Insert=2 HashMap.Remove=2 HashMap.Has=7 HashMap.Size=2 HashMap.IterElem=8 HashMap.IterWord=18
  bytes peak=768 final=768
== Map<f64, str> [swiss]
default size (read has)* has-absent size' has-removed:  5 a true b true  true a true b true false 4 false
keys: 0 0
keys: 1 NaN
keys: 2 1.5
keys: 3 -inf
values: 0 a
values: 1 
values: 2 a
values: 3 b
  counts Seq.Insert=8 Seq.Size=8 Seq.IterElem=8 SwissMap.Read=6 SwissMap.Write=5 SwissMap.Insert=2 SwissMap.Remove=2 SwissMap.Has=7 SwissMap.Size=2 SwissMap.IterElem=8 SwissMap.IterWord=24
  bytes peak=976 final=976
== Map<f64, Seq<u64>> [hash]
default size (read has)* has-absent size' has-removed: 5 1 true 1 true 1 true 1 true 1 true false 4 false
keys: 0 0
keys: 1 -inf
keys: 2 NaN
keys: 3 1.5
value-sizes: 0 1
value-sizes: 1 1
value-sizes: 2 1
value-sizes: 3 1
  counts Seq.Insert=13 Seq.Size=17 Seq.IterElem=8 HashMap.Read=10 HashMap.Insert=7 HashMap.Remove=2 HashMap.Has=7 HashMap.Size=2 HashMap.IterElem=8 HashMap.IterWord=18
  bytes peak=1248 final=1248
== Map<f64, Seq<u64>> [swiss]
default size (read has)* has-absent size' has-removed: 5 1 true 1 true 1 true 1 true 1 true false 4 false
keys: 0 0
keys: 1 NaN
keys: 2 1.5
keys: 3 -inf
value-sizes: 0 1
value-sizes: 1 1
value-sizes: 2 1
value-sizes: 3 1
  counts Seq.Insert=13 Seq.Size=17 Seq.IterElem=8 SwissMap.Read=10 SwissMap.Insert=7 SwissMap.Remove=2 SwissMap.Has=7 SwissMap.Size=2 SwissMap.IterElem=8 SwissMap.IterWord=24
  bytes peak=1456 final=1456
== Map{Hash}<f64, i64> [hash=swiss]
default size (read has)* has-absent size' has-removed: 0 5 -1 true -9223372036854775808 true 9223372036854775807 true 64 true 0 true false 4 false
keys: 0 0
keys: 1 -inf
keys: 2 NaN
keys: 3 1.5
values: 0 -1
values: 1 0
values: 2 9223372036854775807
values: 3 64
  counts Seq.Insert=8 Seq.Size=8 Seq.IterElem=8 HashMap.Read=6 HashMap.Write=5 HashMap.Insert=2 HashMap.Remove=2 HashMap.Has=7 HashMap.Size=2 HashMap.IterElem=8 HashMap.IterWord=18
  bytes peak=768 final=768
== Map{Hash}<f64, str> [hash=swiss]
default size (read has)* has-absent size' has-removed:  5 a true b true  true a true b true false 4 false
keys: 0 0
keys: 1 -inf
keys: 2 NaN
keys: 3 1.5
values: 0 a
values: 1 b
values: 2 
values: 3 a
  counts Seq.Insert=8 Seq.Size=8 Seq.IterElem=8 HashMap.Read=6 HashMap.Write=5 HashMap.Insert=2 HashMap.Remove=2 HashMap.Has=7 HashMap.Size=2 HashMap.IterElem=8 HashMap.IterWord=18
  bytes peak=768 final=768
== Map{Hash}<f64, Seq<u64>> [hash=swiss]
default size (read has)* has-absent size' has-removed: 5 1 true 1 true 1 true 1 true 1 true false 4 false
keys: 0 0
keys: 1 -inf
keys: 2 NaN
keys: 3 1.5
value-sizes: 0 1
value-sizes: 1 1
value-sizes: 2 1
value-sizes: 3 1
  counts Seq.Insert=13 Seq.Size=17 Seq.IterElem=8 HashMap.Read=10 HashMap.Insert=7 HashMap.Remove=2 HashMap.Has=7 HashMap.Size=2 HashMap.IterElem=8 HashMap.IterWord=18
  bytes peak=1248 final=1248
== Map{Swiss}<f64, i64> [hash=swiss]
default size (read has)* has-absent size' has-removed: 0 5 -1 true -9223372036854775808 true 9223372036854775807 true 64 true 0 true false 4 false
keys: 0 0
keys: 1 NaN
keys: 2 1.5
keys: 3 -inf
values: 0 -1
values: 1 9223372036854775807
values: 2 64
values: 3 0
  counts Seq.Insert=8 Seq.Size=8 Seq.IterElem=8 SwissMap.Read=6 SwissMap.Write=5 SwissMap.Insert=2 SwissMap.Remove=2 SwissMap.Has=7 SwissMap.Size=2 SwissMap.IterElem=8 SwissMap.IterWord=24
  bytes peak=976 final=976
== Map{Swiss}<f64, str> [hash=swiss]
default size (read has)* has-absent size' has-removed:  5 a true b true  true a true b true false 4 false
keys: 0 0
keys: 1 NaN
keys: 2 1.5
keys: 3 -inf
values: 0 a
values: 1 
values: 2 a
values: 3 b
  counts Seq.Insert=8 Seq.Size=8 Seq.IterElem=8 SwissMap.Read=6 SwissMap.Write=5 SwissMap.Insert=2 SwissMap.Remove=2 SwissMap.Has=7 SwissMap.Size=2 SwissMap.IterElem=8 SwissMap.IterWord=24
  bytes peak=976 final=976
== Map{Swiss}<f64, Seq<u64>> [hash=swiss]
default size (read has)* has-absent size' has-removed: 5 1 true 1 true 1 true 1 true 1 true false 4 false
keys: 0 0
keys: 1 NaN
keys: 2 1.5
keys: 3 -inf
value-sizes: 0 1
value-sizes: 1 1
value-sizes: 2 1
value-sizes: 3 1
  counts Seq.Insert=13 Seq.Size=17 Seq.IterElem=8 SwissMap.Read=10 SwissMap.Insert=7 SwissMap.Remove=2 SwissMap.Has=7 SwissMap.Size=2 SwissMap.IterElem=8 SwissMap.IterWord=24
  bytes peak=1456 final=1456
== Seq<f64> [hash=swiss]
size read* size': 6 -0 0 -0 NaN 1.5 -inf 5
elements: 0 0
elements: 1 -0
elements: 2 NaN
elements: 3 1.5
elements: 4 -inf
  counts Seq.Read=6 Seq.Write=1 Seq.Insert=11 Seq.Remove=1 Seq.Size=7 Seq.IterElem=10
  bytes peak=384 final=384
== enum f64 [hash=swiss]
add* add-again (enc dec)* enc-absent dense-probes: #0 #1 #2 #3 #4 #0 #0 0 #1 -0 #2 NaN #3 1.5 #4 -inf #18446744073709551615 false 1 false 0 false 1
  counts BitSet.Insert=1 BitSet.Remove=1 BitSet.Has=1 BitSet.Size=1 SparseBitSet.Insert=1 SparseBitSet.Has=1 BitMap.Read=1 BitMap.Write=1 BitMap.Remove=1 BitMap.Has=1 BitMap.Size=1 EnumEnc.Read=12 EnumEnc.Insert=5 EnumDec.Read=5 EnumDec.Insert=5
  bytes peak=1048 final=1048
== Set<idx> [hash]
size has* has-absent size' has-removed union-sizes: 5 true true true true true false 4 false 4 4
order: 0 #18446744073709551615
order: 1 #0
order: 2 #64
order: 3 #5
union-same: 0 #18446744073709551615
union-same: 1 #0
union-same: 2 #64
union-same: 3 #5
union-default: 0 #18446744073709551615
union-default: 1 #0
union-default: 2 #64
union-default: 3 #5
  counts Seq.Insert=12 Seq.Size=12 Seq.IterElem=12 HashSet.Insert=6 HashSet.Remove=2 HashSet.Has=7 HashSet.Size=4 HashSet.IterElem=24 HashSet.IterWord=36 HashSet.UnionElem=12 EnumEnc.Read=1
  bytes peak=1440 final=1440
== Set<idx> [swiss]
size has* has-absent size' has-removed union-sizes: 5 true true true true true false 4 false 4 4
order: 0 #0
order: 1 #64
order: 2 #5
order: 3 #18446744073709551615
union-same: 0 #0
union-same: 1 #64
union-same: 2 #5
union-same: 3 #18446744073709551615
union-default: 0 #0
union-default: 1 #64
union-default: 2 #5
union-default: 3 #18446744073709551615
  counts Seq.Insert=12 Seq.Size=12 Seq.IterElem=12 SwissSet.Insert=6 SwissSet.Remove=2 SwissSet.Has=7 SwissSet.Size=4 SwissSet.IterElem=24 SwissSet.IterWord=36 SwissSet.UnionElem=12 EnumEnc.Read=1
  bytes peak=1488 final=1488
== Set{Hash}<idx> [hash]
size has* has-absent size' has-removed union-sizes: 5 true true true true true false 4 false 4 4
order: 0 #18446744073709551615
order: 1 #0
order: 2 #64
order: 3 #5
union-same: 0 #18446744073709551615
union-same: 1 #0
union-same: 2 #64
union-same: 3 #5
union-default: 0 #18446744073709551615
union-default: 1 #0
union-default: 2 #64
union-default: 3 #5
  counts Seq.Insert=12 Seq.Size=12 Seq.IterElem=12 HashSet.Insert=6 HashSet.Remove=2 HashSet.Has=7 HashSet.Size=4 HashSet.IterElem=24 HashSet.IterWord=36 HashSet.UnionElem=12 EnumEnc.Read=1
  bytes peak=1440 final=1440
== Set{Hash}<idx> [swiss]
size has* has-absent size' has-removed union-sizes: 5 true true true true true false 4 false 4 4
order: 0 #18446744073709551615
order: 1 #0
order: 2 #64
order: 3 #5
union-same: 0 #18446744073709551615
union-same: 1 #0
union-same: 2 #64
union-same: 3 #5
union-default: 0 #18446744073709551615
union-default: 1 #0
union-default: 2 #64
union-default: 3 #5
  counts Seq.Insert=12 Seq.Size=12 Seq.IterElem=12 HashSet.Insert=6 HashSet.Remove=2 HashSet.Has=7 HashSet.Size=3 HashSet.IterElem=20 HashSet.IterWord=30 HashSet.UnionElem=8 SwissSet.Size=1 SwissSet.IterElem=4 SwissSet.IterWord=6 SwissSet.UnionElem=4 EnumEnc.Read=1
  bytes peak=1456 final=1456
== Set{Swiss}<idx> [hash]
size has* has-absent size' has-removed union-sizes: 5 true true true true true false 4 false 4 4
order: 0 #0
order: 1 #64
order: 2 #5
order: 3 #18446744073709551615
union-same: 0 #0
union-same: 1 #64
union-same: 2 #5
union-same: 3 #18446744073709551615
union-default: 0 #18446744073709551615
union-default: 1 #0
union-default: 2 #64
union-default: 3 #5
  counts Seq.Insert=12 Seq.Size=12 Seq.IterElem=12 HashSet.Size=1 HashSet.IterElem=4 HashSet.IterWord=6 HashSet.UnionElem=4 SwissSet.Insert=6 SwissSet.Remove=2 SwissSet.Has=7 SwissSet.Size=3 SwissSet.IterElem=20 SwissSet.IterWord=30 SwissSet.UnionElem=8 EnumEnc.Read=1
  bytes peak=1472 final=1472
== Set{Swiss}<idx> [swiss]
size has* has-absent size' has-removed union-sizes: 5 true true true true true false 4 false 4 4
order: 0 #0
order: 1 #64
order: 2 #5
order: 3 #18446744073709551615
union-same: 0 #0
union-same: 1 #64
union-same: 2 #5
union-same: 3 #18446744073709551615
union-default: 0 #0
union-default: 1 #64
union-default: 2 #5
union-default: 3 #18446744073709551615
  counts Seq.Insert=12 Seq.Size=12 Seq.IterElem=12 SwissSet.Insert=6 SwissSet.Remove=2 SwissSet.Has=7 SwissSet.Size=4 SwissSet.IterElem=24 SwissSet.IterWord=36 SwissSet.UnionElem=12 EnumEnc.Read=1
  bytes peak=1488 final=1488
== Set{Flat}<idx> [hash]
size has* has-absent size' has-removed union-sizes: 5 true true true true true false 4 false 4 4
order: 0 #0
order: 1 #5
order: 2 #64
order: 3 #18446744073709551615
union-same: 0 #0
union-same: 1 #5
union-same: 2 #64
union-same: 3 #18446744073709551615
union-default: 0 #18446744073709551615
union-default: 1 #0
union-default: 2 #64
union-default: 3 #5
  counts Seq.Insert=12 Seq.Size=12 Seq.IterElem=12 HashSet.Size=1 HashSet.IterElem=4 HashSet.IterWord=6 HashSet.UnionElem=4 FlatSet.Insert=6 FlatSet.Remove=2 FlatSet.Has=7 FlatSet.Size=3 FlatSet.IterElem=12 FlatSet.UnionElem=12 EnumEnc.Read=1
  bytes peak=1056 final=1056
== Set{Flat}<idx> [swiss]
size has* has-absent size' has-removed union-sizes: 5 true true true true true false 4 false 4 4
order: 0 #0
order: 1 #5
order: 2 #64
order: 3 #18446744073709551615
union-same: 0 #0
union-same: 1 #5
union-same: 2 #64
union-same: 3 #18446744073709551615
union-default: 0 #0
union-default: 1 #5
union-default: 2 #64
union-default: 3 #18446744073709551615
  counts Seq.Insert=12 Seq.Size=12 Seq.IterElem=12 SwissSet.Size=1 SwissSet.IterElem=4 SwissSet.IterWord=6 SwissSet.UnionElem=4 FlatSet.Insert=6 FlatSet.Remove=2 FlatSet.Has=7 FlatSet.Size=3 FlatSet.IterElem=12 FlatSet.UnionElem=12 EnumEnc.Read=1
  bytes peak=1072 final=1072
== Set{Bit}<idx> [hash]
size has* has-absent size' has-removed union-sizes: 4 true true true true false 3 false 3 3
order: 0 #0
order: 1 #5
order: 2 #64
union-same: 0 #0
union-same: 1 #5
union-same: 2 #64
union-default: 0 #0
union-default: 1 #64
union-default: 2 #5
  counts Seq.Insert=9 Seq.Size=9 Seq.IterElem=9 HashSet.Size=1 HashSet.IterElem=3 HashSet.IterWord=5 HashSet.UnionElem=3 BitSet.Insert=5 BitSet.Remove=2 BitSet.Has=6 BitSet.Size=3 BitSet.IterElem=9 BitSet.IterWord=6 BitSet.UnionWord=4 EnumEnc.Read=1
  bytes peak=688 final=688
== Set{Bit}<idx> [swiss]
size has* has-absent size' has-removed union-sizes: 4 true true true true false 3 false 3 3
order: 0 #0
order: 1 #5
order: 2 #64
union-same: 0 #0
union-same: 1 #5
union-same: 2 #64
union-default: 0 #0
union-default: 1 #5
union-default: 2 #64
  counts Seq.Insert=9 Seq.Size=9 Seq.IterElem=9 SwissSet.Size=1 SwissSet.IterElem=3 SwissSet.IterWord=6 SwissSet.UnionElem=3 BitSet.Insert=5 BitSet.Remove=2 BitSet.Has=6 BitSet.Size=3 BitSet.IterElem=9 BitSet.IterWord=6 BitSet.UnionWord=4 EnumEnc.Read=1
  bytes peak=752 final=752
== Set{SparseBit}<idx> [hash]
size has* has-absent size' has-removed union-sizes: 4 true true true true false 3 false 3 3
order: 0 #0
order: 1 #5
order: 2 #64
union-same: 0 #0
union-same: 1 #5
union-same: 2 #64
union-default: 0 #0
union-default: 1 #64
union-default: 2 #5
  counts Seq.Insert=9 Seq.Size=9 Seq.IterElem=9 HashSet.Size=1 HashSet.IterElem=3 HashSet.IterWord=5 HashSet.UnionElem=3 SparseBitSet.Insert=5 SparseBitSet.Remove=2 SparseBitSet.Has=6 SparseBitSet.Size=3 SparseBitSet.IterElem=9 SparseBitSet.IterWord=62 SparseBitSet.UnionWord=42 EnumEnc.Read=1
  bytes peak=958 final=958
== Set{SparseBit}<idx> [swiss]
size has* has-absent size' has-removed union-sizes: 4 true true true true false 3 false 3 3
order: 0 #0
order: 1 #5
order: 2 #64
union-same: 0 #0
union-same: 1 #5
union-same: 2 #64
union-default: 0 #0
union-default: 1 #5
union-default: 2 #64
  counts Seq.Insert=9 Seq.Size=9 Seq.IterElem=9 SwissSet.Size=1 SwissSet.IterElem=3 SwissSet.IterWord=6 SwissSet.UnionElem=3 SparseBitSet.Insert=5 SparseBitSet.Remove=2 SparseBitSet.Has=6 SparseBitSet.Size=3 SparseBitSet.IterElem=9 SparseBitSet.IterWord=62 SparseBitSet.UnionWord=42 EnumEnc.Read=1
  bytes peak=1022 final=1022
== Map<idx, i64> [hash]
default size (read has)* has-absent size' has-removed: 0 5 -1 true -9223372036854775808 true 9223372036854775807 true 64 true 0 true false 4 false
keys: 0 #18446744073709551615
keys: 1 #0
keys: 2 #64
keys: 3 #5
values: 0 0
values: 1 -1
values: 2 9223372036854775807
values: 3 64
  counts Seq.Insert=8 Seq.Size=8 Seq.IterElem=8 HashMap.Read=6 HashMap.Write=5 HashMap.Insert=2 HashMap.Remove=2 HashMap.Has=7 HashMap.Size=2 HashMap.IterElem=8 HashMap.IterWord=18 EnumEnc.Read=1
  bytes peak=768 final=768
== Map<idx, i64> [swiss]
default size (read has)* has-absent size' has-removed: 0 5 -1 true -9223372036854775808 true 9223372036854775807 true 64 true 0 true false 4 false
keys: 0 #0
keys: 1 #64
keys: 2 #5
keys: 3 #18446744073709551615
values: 0 -1
values: 1 9223372036854775807
values: 2 64
values: 3 0
  counts Seq.Insert=8 Seq.Size=8 Seq.IterElem=8 SwissMap.Read=6 SwissMap.Write=5 SwissMap.Insert=2 SwissMap.Remove=2 SwissMap.Has=7 SwissMap.Size=2 SwissMap.IterElem=8 SwissMap.IterWord=24 EnumEnc.Read=1
  bytes peak=976 final=976
== Map<idx, str> [hash]
default size (read has)* has-absent size' has-removed:  5 a true b true  true a true b true false 4 false
keys: 0 #18446744073709551615
keys: 1 #0
keys: 2 #64
keys: 3 #5
values: 0 b
values: 1 a
values: 2 
values: 3 a
  counts Seq.Insert=8 Seq.Size=8 Seq.IterElem=8 HashMap.Read=6 HashMap.Write=5 HashMap.Insert=2 HashMap.Remove=2 HashMap.Has=7 HashMap.Size=2 HashMap.IterElem=8 HashMap.IterWord=18 EnumEnc.Read=1
  bytes peak=768 final=768
== Map<idx, str> [swiss]
default size (read has)* has-absent size' has-removed:  5 a true b true  true a true b true false 4 false
keys: 0 #0
keys: 1 #64
keys: 2 #5
keys: 3 #18446744073709551615
values: 0 a
values: 1 
values: 2 a
values: 3 b
  counts Seq.Insert=8 Seq.Size=8 Seq.IterElem=8 SwissMap.Read=6 SwissMap.Write=5 SwissMap.Insert=2 SwissMap.Remove=2 SwissMap.Has=7 SwissMap.Size=2 SwissMap.IterElem=8 SwissMap.IterWord=24 EnumEnc.Read=1
  bytes peak=976 final=976
== Map<idx, Seq<u64>> [hash]
default size (read has)* has-absent size' has-removed: 5 1 true 1 true 1 true 1 true 1 true false 4 false
keys: 0 #18446744073709551615
keys: 1 #0
keys: 2 #64
keys: 3 #5
value-sizes: 0 1
value-sizes: 1 1
value-sizes: 2 1
value-sizes: 3 1
  counts Seq.Insert=13 Seq.Size=17 Seq.IterElem=8 HashMap.Read=10 HashMap.Insert=7 HashMap.Remove=2 HashMap.Has=7 HashMap.Size=2 HashMap.IterElem=8 HashMap.IterWord=18 EnumEnc.Read=1
  bytes peak=1248 final=1248
== Map<idx, Seq<u64>> [swiss]
default size (read has)* has-absent size' has-removed: 5 1 true 1 true 1 true 1 true 1 true false 4 false
keys: 0 #0
keys: 1 #64
keys: 2 #5
keys: 3 #18446744073709551615
value-sizes: 0 1
value-sizes: 1 1
value-sizes: 2 1
value-sizes: 3 1
  counts Seq.Insert=13 Seq.Size=17 Seq.IterElem=8 SwissMap.Read=10 SwissMap.Insert=7 SwissMap.Remove=2 SwissMap.Has=7 SwissMap.Size=2 SwissMap.IterElem=8 SwissMap.IterWord=24 EnumEnc.Read=1
  bytes peak=1456 final=1456
== Map{Hash}<idx, i64> [hash=swiss]
default size (read has)* has-absent size' has-removed: 0 5 -1 true -9223372036854775808 true 9223372036854775807 true 64 true 0 true false 4 false
keys: 0 #18446744073709551615
keys: 1 #0
keys: 2 #64
keys: 3 #5
values: 0 0
values: 1 -1
values: 2 9223372036854775807
values: 3 64
  counts Seq.Insert=8 Seq.Size=8 Seq.IterElem=8 HashMap.Read=6 HashMap.Write=5 HashMap.Insert=2 HashMap.Remove=2 HashMap.Has=7 HashMap.Size=2 HashMap.IterElem=8 HashMap.IterWord=18 EnumEnc.Read=1
  bytes peak=768 final=768
== Map{Hash}<idx, str> [hash=swiss]
default size (read has)* has-absent size' has-removed:  5 a true b true  true a true b true false 4 false
keys: 0 #18446744073709551615
keys: 1 #0
keys: 2 #64
keys: 3 #5
values: 0 b
values: 1 a
values: 2 
values: 3 a
  counts Seq.Insert=8 Seq.Size=8 Seq.IterElem=8 HashMap.Read=6 HashMap.Write=5 HashMap.Insert=2 HashMap.Remove=2 HashMap.Has=7 HashMap.Size=2 HashMap.IterElem=8 HashMap.IterWord=18 EnumEnc.Read=1
  bytes peak=768 final=768
== Map{Hash}<idx, Seq<u64>> [hash=swiss]
default size (read has)* has-absent size' has-removed: 5 1 true 1 true 1 true 1 true 1 true false 4 false
keys: 0 #18446744073709551615
keys: 1 #0
keys: 2 #64
keys: 3 #5
value-sizes: 0 1
value-sizes: 1 1
value-sizes: 2 1
value-sizes: 3 1
  counts Seq.Insert=13 Seq.Size=17 Seq.IterElem=8 HashMap.Read=10 HashMap.Insert=7 HashMap.Remove=2 HashMap.Has=7 HashMap.Size=2 HashMap.IterElem=8 HashMap.IterWord=18 EnumEnc.Read=1
  bytes peak=1248 final=1248
== Map{Swiss}<idx, i64> [hash=swiss]
default size (read has)* has-absent size' has-removed: 0 5 -1 true -9223372036854775808 true 9223372036854775807 true 64 true 0 true false 4 false
keys: 0 #0
keys: 1 #64
keys: 2 #5
keys: 3 #18446744073709551615
values: 0 -1
values: 1 9223372036854775807
values: 2 64
values: 3 0
  counts Seq.Insert=8 Seq.Size=8 Seq.IterElem=8 SwissMap.Read=6 SwissMap.Write=5 SwissMap.Insert=2 SwissMap.Remove=2 SwissMap.Has=7 SwissMap.Size=2 SwissMap.IterElem=8 SwissMap.IterWord=24 EnumEnc.Read=1
  bytes peak=976 final=976
== Map{Swiss}<idx, str> [hash=swiss]
default size (read has)* has-absent size' has-removed:  5 a true b true  true a true b true false 4 false
keys: 0 #0
keys: 1 #64
keys: 2 #5
keys: 3 #18446744073709551615
values: 0 a
values: 1 
values: 2 a
values: 3 b
  counts Seq.Insert=8 Seq.Size=8 Seq.IterElem=8 SwissMap.Read=6 SwissMap.Write=5 SwissMap.Insert=2 SwissMap.Remove=2 SwissMap.Has=7 SwissMap.Size=2 SwissMap.IterElem=8 SwissMap.IterWord=24 EnumEnc.Read=1
  bytes peak=976 final=976
== Map{Swiss}<idx, Seq<u64>> [hash=swiss]
default size (read has)* has-absent size' has-removed: 5 1 true 1 true 1 true 1 true 1 true false 4 false
keys: 0 #0
keys: 1 #64
keys: 2 #5
keys: 3 #18446744073709551615
value-sizes: 0 1
value-sizes: 1 1
value-sizes: 2 1
value-sizes: 3 1
  counts Seq.Insert=13 Seq.Size=17 Seq.IterElem=8 SwissMap.Read=10 SwissMap.Insert=7 SwissMap.Remove=2 SwissMap.Has=7 SwissMap.Size=2 SwissMap.IterElem=8 SwissMap.IterWord=24 EnumEnc.Read=1
  bytes peak=1456 final=1456
== Map{Bit}<idx, i64> [hash=swiss]
default size (read has)* has-absent size' has-removed: 0 4 -1 true -9223372036854775808 true 9223372036854775807 true 64 true false 3 false
keys: 0 #0
keys: 1 #5
keys: 2 #64
values: 0 -1
values: 1 64
values: 2 9223372036854775807
  counts Seq.Insert=6 Seq.Size=6 Seq.IterElem=6 BitMap.Read=5 BitMap.Write=4 BitMap.Insert=2 BitMap.Remove=2 BitMap.Has=6 BitMap.Size=2 BitMap.IterElem=6 BitMap.IterWord=398 EnumEnc.Read=1
  bytes peak=1784 final=1784
== Map{Bit}<idx, str> [hash=swiss]
default size (read has)* has-absent size' has-removed:  4 a true b true  true a true false 3 false
keys: 0 #0
keys: 1 #5
keys: 2 #64
values: 0 a
values: 1 a
values: 2 
  counts Seq.Insert=6 Seq.Size=6 Seq.IterElem=6 BitMap.Read=5 BitMap.Write=4 BitMap.Insert=2 BitMap.Remove=2 BitMap.Has=6 BitMap.Size=2 BitMap.IterElem=6 BitMap.IterWord=398 EnumEnc.Read=1
  bytes peak=1784 final=1784
== Map{Bit}<idx, Seq<u64>> [hash=swiss]
default size (read has)* has-absent size' has-removed: 4 1 true 1 true 1 true 1 true false 3 false
keys: 0 #0
keys: 1 #5
keys: 2 #64
value-sizes: 0 1
value-sizes: 1 1
value-sizes: 2 1
  counts Seq.Insert=10 Seq.Size=13 Seq.IterElem=6 BitMap.Read=8 BitMap.Insert=6 BitMap.Remove=2 BitMap.Has=6 BitMap.Size=2 BitMap.IterElem=6 BitMap.IterWord=398 EnumEnc.Read=1
  bytes peak=2168 final=2168
== Seq<idx> [hash=swiss]
size read* size': 6 #4 #0 #4 #64 #5 #18446744073709551615 5
elements: 0 #0
elements: 1 #4
elements: 2 #64
elements: 3 #5
elements: 4 #18446744073709551615
  counts Seq.Read=6 Seq.Write=1 Seq.Insert=11 Seq.Remove=1 Seq.Size=7 Seq.IterElem=10 EnumEnc.Read=1
  bytes peak=384 final=384
== enum idx [hash=swiss]
add* add-again (enc dec)* enc-absent dense-probes: #0 #1 #2 #3 #4 #0 #0 #0 #1 #4 #2 #64 #3 #5 #4 #18446744073709551615 #18446744073709551615 false 1 false #0 false 1
  counts BitSet.Insert=1 BitSet.Remove=1 BitSet.Has=1 BitSet.Size=1 SparseBitSet.Insert=1 SparseBitSet.Has=1 BitMap.Read=1 BitMap.Write=1 BitMap.Remove=1 BitMap.Has=1 BitMap.Size=1 EnumEnc.Read=13 EnumEnc.Insert=5 EnumDec.Read=5 EnumDec.Insert=5
  bytes peak=1048 final=1048
== Set<str> [hash]
size has* has-absent size' has-removed union-sizes: 3 true true true false 2 false 2 2
order: 0 
order: 1 b
union-same: 0 
union-same: 1 b
union-default: 0 
union-default: 1 b
  counts Seq.Insert=6 Seq.Size=6 Seq.IterElem=6 HashSet.Insert=4 HashSet.Remove=2 HashSet.Has=5 HashSet.Size=4 HashSet.IterElem=12 HashSet.IterWord=24 HashSet.UnionElem=6
  bytes peak=1152 final=1152
== Set<str> [swiss]
size has* has-absent size' has-removed union-sizes: 3 true true true false 2 false 2 2
order: 0 
order: 1 b
union-same: 0 
union-same: 1 b
union-default: 0 
union-default: 1 b
  counts Seq.Insert=6 Seq.Size=6 Seq.IterElem=6 SwissSet.Insert=4 SwissSet.Remove=2 SwissSet.Has=5 SwissSet.Size=4 SwissSet.IterElem=12 SwissSet.IterWord=36 SwissSet.UnionElem=6
  bytes peak=1488 final=1488
== Set{Hash}<str> [hash]
size has* has-absent size' has-removed union-sizes: 3 true true true false 2 false 2 2
order: 0 
order: 1 b
union-same: 0 
union-same: 1 b
union-default: 0 
union-default: 1 b
  counts Seq.Insert=6 Seq.Size=6 Seq.IterElem=6 HashSet.Insert=4 HashSet.Remove=2 HashSet.Has=5 HashSet.Size=4 HashSet.IterElem=12 HashSet.IterWord=24 HashSet.UnionElem=6
  bytes peak=1152 final=1152
== Set{Hash}<str> [swiss]
size has* has-absent size' has-removed union-sizes: 3 true true true false 2 false 2 2
order: 0 
order: 1 b
union-same: 0 
union-same: 1 b
union-default: 0 
union-default: 1 b
  counts Seq.Insert=6 Seq.Size=6 Seq.IterElem=6 HashSet.Insert=4 HashSet.Remove=2 HashSet.Has=5 HashSet.Size=3 HashSet.IterElem=10 HashSet.IterWord=20 HashSet.UnionElem=4 SwissSet.Size=1 SwissSet.IterElem=2 SwissSet.IterWord=6 SwissSet.UnionElem=2
  bytes peak=1264 final=1264
== Set{Swiss}<str> [hash]
size has* has-absent size' has-removed union-sizes: 3 true true true false 2 false 2 2
order: 0 
order: 1 b
union-same: 0 
union-same: 1 b
union-default: 0 
union-default: 1 b
  counts Seq.Insert=6 Seq.Size=6 Seq.IterElem=6 HashSet.Size=1 HashSet.IterElem=2 HashSet.IterWord=4 HashSet.UnionElem=2 SwissSet.Insert=4 SwissSet.Remove=2 SwissSet.Has=5 SwissSet.Size=3 SwissSet.IterElem=10 SwissSet.IterWord=30 SwissSet.UnionElem=4
  bytes peak=1376 final=1376
== Set{Swiss}<str> [swiss]
size has* has-absent size' has-removed union-sizes: 3 true true true false 2 false 2 2
order: 0 
order: 1 b
union-same: 0 
union-same: 1 b
union-default: 0 
union-default: 1 b
  counts Seq.Insert=6 Seq.Size=6 Seq.IterElem=6 SwissSet.Insert=4 SwissSet.Remove=2 SwissSet.Has=5 SwissSet.Size=4 SwissSet.IterElem=12 SwissSet.IterWord=36 SwissSet.UnionElem=6
  bytes peak=1488 final=1488
== Set{Flat}<str> [hash]
size has* has-absent size' has-removed union-sizes: 3 true true true false 2 false 2 2
order: 0 
order: 1 b
union-same: 0 
union-same: 1 b
union-default: 0 
union-default: 1 b
  counts Seq.Insert=6 Seq.Size=6 Seq.IterElem=6 HashSet.Size=1 HashSet.IterElem=2 HashSet.IterWord=4 HashSet.UnionElem=2 FlatSet.Insert=4 FlatSet.Remove=2 FlatSet.Has=5 FlatSet.Size=3 FlatSet.IterElem=6 FlatSet.UnionElem=6
  bytes peak=768 final=768
== Set{Flat}<str> [swiss]
size has* has-absent size' has-removed union-sizes: 3 true true true false 2 false 2 2
order: 0 
order: 1 b
union-same: 0 
union-same: 1 b
union-default: 0 
union-default: 1 b
  counts Seq.Insert=6 Seq.Size=6 Seq.IterElem=6 SwissSet.Size=1 SwissSet.IterElem=2 SwissSet.IterWord=6 SwissSet.UnionElem=2 FlatSet.Insert=4 FlatSet.Remove=2 FlatSet.Has=5 FlatSet.Size=3 FlatSet.IterElem=6 FlatSet.UnionElem=6
  bytes peak=880 final=880
== Map<str, i64> [hash]
default size (read has)* has-absent size' has-removed: 0 3 -1 true -9223372036854775808 true 9223372036854775807 true false 2 false
keys: 0 
keys: 1 b
values: 0 -1
values: 1 9223372036854775807
  counts Seq.Insert=4 Seq.Size=4 Seq.IterElem=4 HashMap.Read=4 HashMap.Write=3 HashMap.Insert=2 HashMap.Remove=2 HashMap.Has=5 HashMap.Size=2 HashMap.IterElem=4 HashMap.IterWord=12
  bytes peak=576 final=576
== Map<str, i64> [swiss]
default size (read has)* has-absent size' has-removed: 0 3 -1 true -9223372036854775808 true 9223372036854775807 true false 2 false
keys: 0 
keys: 1 b
values: 0 -1
values: 1 9223372036854775807
  counts Seq.Insert=4 Seq.Size=4 Seq.IterElem=4 SwissMap.Read=4 SwissMap.Write=3 SwissMap.Insert=2 SwissMap.Remove=2 SwissMap.Has=5 SwissMap.Size=2 SwissMap.IterElem=4 SwissMap.IterWord=24
  bytes peak=976 final=976
== Map<str, str> [hash]
default size (read has)* has-absent size' has-removed:  3 a true b true  true false 2 false
keys: 0 
keys: 1 b
values: 0 a
values: 1 
  counts Seq.Insert=4 Seq.Size=4 Seq.IterElem=4 HashMap.Read=4 HashMap.Write=3 HashMap.Insert=2 HashMap.Remove=2 HashMap.Has=5 HashMap.Size=2 HashMap.IterElem=4 HashMap.IterWord=12
  bytes peak=576 final=576
== Map<str, str> [swiss]
default size (read has)* has-absent size' has-removed:  3 a true b true  true false 2 false
keys: 0 
keys: 1 b
values: 0 a
values: 1 
  counts Seq.Insert=4 Seq.Size=4 Seq.IterElem=4 SwissMap.Read=4 SwissMap.Write=3 SwissMap.Insert=2 SwissMap.Remove=2 SwissMap.Has=5 SwissMap.Size=2 SwissMap.IterElem=4 SwissMap.IterWord=24
  bytes peak=976 final=976
== Map<str, Seq<u64>> [hash]
default size (read has)* has-absent size' has-removed: 3 1 true 1 true 1 true false 2 false
keys: 0 
keys: 1 b
value-sizes: 0 1
value-sizes: 1 1
  counts Seq.Insert=7 Seq.Size=9 Seq.IterElem=4 HashMap.Read=6 HashMap.Insert=5 HashMap.Remove=2 HashMap.Has=5 HashMap.Size=2 HashMap.IterElem=4 HashMap.IterWord=12
  bytes peak=864 final=864
== Map<str, Seq<u64>> [swiss]
default size (read has)* has-absent size' has-removed: 3 1 true 1 true 1 true false 2 false
keys: 0 
keys: 1 b
value-sizes: 0 1
value-sizes: 1 1
  counts Seq.Insert=7 Seq.Size=9 Seq.IterElem=4 SwissMap.Read=6 SwissMap.Insert=5 SwissMap.Remove=2 SwissMap.Has=5 SwissMap.Size=2 SwissMap.IterElem=4 SwissMap.IterWord=24
  bytes peak=1264 final=1264
== Map{Hash}<str, i64> [hash=swiss]
default size (read has)* has-absent size' has-removed: 0 3 -1 true -9223372036854775808 true 9223372036854775807 true false 2 false
keys: 0 
keys: 1 b
values: 0 -1
values: 1 9223372036854775807
  counts Seq.Insert=4 Seq.Size=4 Seq.IterElem=4 HashMap.Read=4 HashMap.Write=3 HashMap.Insert=2 HashMap.Remove=2 HashMap.Has=5 HashMap.Size=2 HashMap.IterElem=4 HashMap.IterWord=12
  bytes peak=576 final=576
== Map{Hash}<str, str> [hash=swiss]
default size (read has)* has-absent size' has-removed:  3 a true b true  true false 2 false
keys: 0 
keys: 1 b
values: 0 a
values: 1 
  counts Seq.Insert=4 Seq.Size=4 Seq.IterElem=4 HashMap.Read=4 HashMap.Write=3 HashMap.Insert=2 HashMap.Remove=2 HashMap.Has=5 HashMap.Size=2 HashMap.IterElem=4 HashMap.IterWord=12
  bytes peak=576 final=576
== Map{Hash}<str, Seq<u64>> [hash=swiss]
default size (read has)* has-absent size' has-removed: 3 1 true 1 true 1 true false 2 false
keys: 0 
keys: 1 b
value-sizes: 0 1
value-sizes: 1 1
  counts Seq.Insert=7 Seq.Size=9 Seq.IterElem=4 HashMap.Read=6 HashMap.Insert=5 HashMap.Remove=2 HashMap.Has=5 HashMap.Size=2 HashMap.IterElem=4 HashMap.IterWord=12
  bytes peak=864 final=864
== Map{Swiss}<str, i64> [hash=swiss]
default size (read has)* has-absent size' has-removed: 0 3 -1 true -9223372036854775808 true 9223372036854775807 true false 2 false
keys: 0 
keys: 1 b
values: 0 -1
values: 1 9223372036854775807
  counts Seq.Insert=4 Seq.Size=4 Seq.IterElem=4 SwissMap.Read=4 SwissMap.Write=3 SwissMap.Insert=2 SwissMap.Remove=2 SwissMap.Has=5 SwissMap.Size=2 SwissMap.IterElem=4 SwissMap.IterWord=24
  bytes peak=976 final=976
== Map{Swiss}<str, str> [hash=swiss]
default size (read has)* has-absent size' has-removed:  3 a true b true  true false 2 false
keys: 0 
keys: 1 b
values: 0 a
values: 1 
  counts Seq.Insert=4 Seq.Size=4 Seq.IterElem=4 SwissMap.Read=4 SwissMap.Write=3 SwissMap.Insert=2 SwissMap.Remove=2 SwissMap.Has=5 SwissMap.Size=2 SwissMap.IterElem=4 SwissMap.IterWord=24
  bytes peak=976 final=976
== Map{Swiss}<str, Seq<u64>> [hash=swiss]
default size (read has)* has-absent size' has-removed: 3 1 true 1 true 1 true false 2 false
keys: 0 
keys: 1 b
value-sizes: 0 1
value-sizes: 1 1
  counts Seq.Insert=7 Seq.Size=9 Seq.IterElem=4 SwissMap.Read=6 SwissMap.Insert=5 SwissMap.Remove=2 SwissMap.Has=5 SwissMap.Size=2 SwissMap.IterElem=4 SwissMap.IterWord=24
  bytes peak=1264 final=1264
== Seq<str> [hash=swiss]
size read* size': 4 a  a b 3
elements: 0 
elements: 1 a
elements: 2 b
  counts Seq.Read=4 Seq.Write=1 Seq.Insert=7 Seq.Remove=1 Seq.Size=5 Seq.IterElem=6
  bytes peak=192 final=192
== enum str [hash=swiss]
add* add-again (enc dec)* enc-absent dense-probes: #0 #1 #2 #0 #0  #1 a #2 b #18446744073709551615 false 1 false  false 1
  counts BitSet.Insert=1 BitSet.Remove=1 BitSet.Has=1 BitSet.Size=1 SparseBitSet.Insert=1 SparseBitSet.Has=1 BitMap.Read=1 BitMap.Write=1 BitMap.Remove=1 BitMap.Has=1 BitMap.Size=1 EnumEnc.Read=8 EnumEnc.Insert=3 EnumDec.Read=3 EnumDec.Insert=3
  bytes peak=952 final=952
== Set<(f64, str)> [hash]
size has* has-absent size' has-removed union-sizes: 4 true true true true false 3 false 3 3
order: 0 (0, b)
order: 1 (NaN, a)
order: 2 (0, a)
union-same: 0 (0, b)
union-same: 1 (NaN, a)
union-same: 2 (0, a)
union-default: 0 (0, b)
union-default: 1 (NaN, a)
union-default: 2 (0, a)
  counts Seq.Insert=9 Seq.Size=9 Seq.IterElem=9 HashSet.Insert=5 HashSet.Remove=2 HashSet.Has=6 HashSet.Size=4 HashSet.IterElem=18 HashSet.IterWord=30 HashSet.UnionElem=9
  bytes peak=1296 final=1296
== Set<(f64, str)> [swiss]
size has* has-absent size' has-removed union-sizes: 4 true true true true false 3 false 3 3
order: 0 (0, a)
order: 1 (NaN, a)
order: 2 (0, b)
union-same: 0 (0, a)
union-same: 1 (NaN, a)
union-same: 2 (0, b)
union-default: 0 (0, a)
union-default: 1 (NaN, a)
union-default: 2 (0, b)
  counts Seq.Insert=9 Seq.Size=9 Seq.IterElem=9 SwissSet.Insert=5 SwissSet.Remove=2 SwissSet.Has=6 SwissSet.Size=4 SwissSet.IterElem=18 SwissSet.IterWord=36 SwissSet.UnionElem=9
  bytes peak=1488 final=1488
== Set{Hash}<(f64, str)> [hash]
size has* has-absent size' has-removed union-sizes: 4 true true true true false 3 false 3 3
order: 0 (0, b)
order: 1 (NaN, a)
order: 2 (0, a)
union-same: 0 (0, b)
union-same: 1 (NaN, a)
union-same: 2 (0, a)
union-default: 0 (0, b)
union-default: 1 (NaN, a)
union-default: 2 (0, a)
  counts Seq.Insert=9 Seq.Size=9 Seq.IterElem=9 HashSet.Insert=5 HashSet.Remove=2 HashSet.Has=6 HashSet.Size=4 HashSet.IterElem=18 HashSet.IterWord=30 HashSet.UnionElem=9
  bytes peak=1296 final=1296
== Set{Hash}<(f64, str)> [swiss]
size has* has-absent size' has-removed union-sizes: 4 true true true true false 3 false 3 3
order: 0 (0, b)
order: 1 (NaN, a)
order: 2 (0, a)
union-same: 0 (0, b)
union-same: 1 (NaN, a)
union-same: 2 (0, a)
union-default: 0 (0, a)
union-default: 1 (0, b)
union-default: 2 (NaN, a)
  counts Seq.Insert=9 Seq.Size=9 Seq.IterElem=9 HashSet.Insert=5 HashSet.Remove=2 HashSet.Has=6 HashSet.Size=3 HashSet.IterElem=15 HashSet.IterWord=25 HashSet.UnionElem=6 SwissSet.Size=1 SwissSet.IterElem=3 SwissSet.IterWord=6 SwissSet.UnionElem=3
  bytes peak=1360 final=1360
== Set{Swiss}<(f64, str)> [hash]
size has* has-absent size' has-removed union-sizes: 4 true true true true false 3 false 3 3
order: 0 (0, a)
order: 1 (NaN, a)
order: 2 (0, b)
union-same: 0 (0, a)
union-same: 1 (NaN, a)
union-same: 2 (0, b)
union-default: 0 (0, b)
union-default: 1 (NaN, a)
union-default: 2 (0, a)
  counts Seq.Insert=9 Seq.Size=9 Seq.IterElem=9 HashSet.Size=1 HashSet.IterElem=3 HashSet.IterWord=5 HashSet.UnionElem=3 SwissSet.Insert=5 SwissSet.Remove=2 SwissSet.Has=6 SwissSet.Size=3 SwissSet.IterElem=15 SwissSet.IterWord=30 SwissSet.UnionElem=6
  bytes peak=1424 final=1424
== Set{Swiss}<(f64, str)> [swiss]
size has* has-absent size' has-removed union-sizes: 4 true true true true false 3 false 3 3
order: 0 (0, a)
order: 1 (NaN, a)
order: 2 (0, b)
union-same: 0 (0, a)
union-same: 1 (NaN, a)
union-same: 2 (0, b)
union-default: 0 (0, a)
union-default: 1 (NaN, a)
union-default: 2 (0, b)
  counts Seq.Insert=9 Seq.Size=9 Seq.IterElem=9 SwissSet.Insert=5 SwissSet.Remove=2 SwissSet.Has=6 SwissSet.Size=4 SwissSet.IterElem=18 SwissSet.IterWord=36 SwissSet.UnionElem=9
  bytes peak=1488 final=1488
== Set{Flat}<(f64, str)> [hash]
size has* has-absent size' has-removed union-sizes: 4 true true true true false 3 false 3 3
order: 0 (0, a)
order: 1 (0, b)
order: 2 (NaN, a)
union-same: 0 (0, a)
union-same: 1 (0, b)
union-same: 2 (NaN, a)
union-default: 0 (0, b)
union-default: 1 (NaN, a)
union-default: 2 (0, a)
  counts Seq.Insert=9 Seq.Size=9 Seq.IterElem=9 HashSet.Size=1 HashSet.IterElem=3 HashSet.IterWord=5 HashSet.UnionElem=3 FlatSet.Insert=5 FlatSet.Remove=2 FlatSet.Has=6 FlatSet.Size=3 FlatSet.IterElem=9 FlatSet.UnionElem=9
  bytes peak=864 final=864
== Set{Flat}<(f64, str)> [swiss]
size has* has-absent size' has-removed union-sizes: 4 true true true true false 3 false 3 3
order: 0 (0, a)
order: 1 (0, b)
order: 2 (NaN, a)
union-same: 0 (0, a)
union-same: 1 (0, b)
union-same: 2 (NaN, a)
union-default: 0 (0, a)
union-default: 1 (0, b)
union-default: 2 (NaN, a)
  counts Seq.Insert=9 Seq.Size=9 Seq.IterElem=9 SwissSet.Size=1 SwissSet.IterElem=3 SwissSet.IterWord=6 SwissSet.UnionElem=3 FlatSet.Insert=5 FlatSet.Remove=2 FlatSet.Has=6 FlatSet.Size=3 FlatSet.IterElem=9 FlatSet.UnionElem=9
  bytes peak=928 final=928
== Map<(f64, str), i64> [hash]
default size (read has)* has-absent size' has-removed: 0 4 -1 true -9223372036854775808 true 9223372036854775807 true 64 true false 3 false
keys: 0 (0, b)
keys: 1 (NaN, a)
keys: 2 (0, a)
values: 0 9223372036854775807
values: 1 -1
values: 2 64
  counts Seq.Insert=6 Seq.Size=6 Seq.IterElem=6 HashMap.Read=5 HashMap.Write=4 HashMap.Insert=2 HashMap.Remove=2 HashMap.Has=6 HashMap.Size=2 HashMap.IterElem=6 HashMap.IterWord=14
  bytes peak=672 final=672
== Map<(f64, str), i64> [swiss]
default size (read has)* has-absent size' has-removed: 0 4 -1 true -9223372036854775808 true 9223372036854775807 true 64 true false 3 false
keys: 0 (0, a)
keys: 1 (NaN, a)
keys: 2 (0, b)
values: 0 64
values: 1 -1
values: 2 9223372036854775807
  counts Seq.Insert=6 Seq.Size=6 Seq.IterElem=6 SwissMap.Read=5 SwissMap.Write=4 SwissMap.Insert=2 SwissMap.Remove=2 SwissMap.Has=6 SwissMap.Size=2 SwissMap.IterElem=6 SwissMap.IterWord=24
  bytes peak=976 final=976
== Map<(f64, str), str> [hash]
default size (read has)* has-absent size' has-removed:  4 a true b true  true a true false 3 false
keys: 0 (0, b)
keys: 1 (NaN, a)
keys: 2 (0, a)
values: 0 
values: 1 a
values: 2 a
  counts Seq.Insert=6 Seq.Size=6 Seq.IterElem=6 HashMap.Read=5 HashMap.Write=4 HashMap.Insert=2 HashMap.Remove=2 HashMap.Has=6 HashMap.Size=2 HashMap.IterElem=6 HashMap.IterWord=14
  bytes peak=672 final=672
== Map<(f64, str), str> [swiss]
default size (read has)* has-absent size' has-removed:  4 a true b true  true a true false 3 false
keys: 0 (0, a)
keys: 1 (NaN, a)
keys: 2 (0, b)
values: 0 a
values: 1 a
values: 2 
  counts Seq.Insert=6 Seq.Size=6 Seq.IterElem=6 SwissMap.Read=5 SwissMap.Write=4 SwissMap.Insert=2 SwissMap.Remove=2 SwissMap.Has=6 SwissMap.Size=2 SwissMap.IterElem=6 SwissMap.IterWord=24
  bytes peak=976 final=976
== Map<(f64, str), Seq<u64>> [hash]
default size (read has)* has-absent size' has-removed: 4 1 true 1 true 1 true 1 true false 3 false
keys: 0 (0, b)
keys: 1 (NaN, a)
keys: 2 (0, a)
value-sizes: 0 1
value-sizes: 1 1
value-sizes: 2 1
  counts Seq.Insert=10 Seq.Size=13 Seq.IterElem=6 HashMap.Read=8 HashMap.Insert=6 HashMap.Remove=2 HashMap.Has=6 HashMap.Size=2 HashMap.IterElem=6 HashMap.IterWord=14
  bytes peak=1056 final=1056
== Map<(f64, str), Seq<u64>> [swiss]
default size (read has)* has-absent size' has-removed: 4 1 true 1 true 1 true 1 true false 3 false
keys: 0 (0, a)
keys: 1 (NaN, a)
keys: 2 (0, b)
value-sizes: 0 1
value-sizes: 1 1
value-sizes: 2 1
  counts Seq.Insert=10 Seq.Size=13 Seq.IterElem=6 SwissMap.Read=8 SwissMap.Insert=6 SwissMap.Remove=2 SwissMap.Has=6 SwissMap.Size=2 SwissMap.IterElem=6 SwissMap.IterWord=24
  bytes peak=1360 final=1360
== Map{Hash}<(f64, str), i64> [hash=swiss]
default size (read has)* has-absent size' has-removed: 0 4 -1 true -9223372036854775808 true 9223372036854775807 true 64 true false 3 false
keys: 0 (0, b)
keys: 1 (NaN, a)
keys: 2 (0, a)
values: 0 9223372036854775807
values: 1 -1
values: 2 64
  counts Seq.Insert=6 Seq.Size=6 Seq.IterElem=6 HashMap.Read=5 HashMap.Write=4 HashMap.Insert=2 HashMap.Remove=2 HashMap.Has=6 HashMap.Size=2 HashMap.IterElem=6 HashMap.IterWord=14
  bytes peak=672 final=672
== Map{Hash}<(f64, str), str> [hash=swiss]
default size (read has)* has-absent size' has-removed:  4 a true b true  true a true false 3 false
keys: 0 (0, b)
keys: 1 (NaN, a)
keys: 2 (0, a)
values: 0 
values: 1 a
values: 2 a
  counts Seq.Insert=6 Seq.Size=6 Seq.IterElem=6 HashMap.Read=5 HashMap.Write=4 HashMap.Insert=2 HashMap.Remove=2 HashMap.Has=6 HashMap.Size=2 HashMap.IterElem=6 HashMap.IterWord=14
  bytes peak=672 final=672
== Map{Hash}<(f64, str), Seq<u64>> [hash=swiss]
default size (read has)* has-absent size' has-removed: 4 1 true 1 true 1 true 1 true false 3 false
keys: 0 (0, b)
keys: 1 (NaN, a)
keys: 2 (0, a)
value-sizes: 0 1
value-sizes: 1 1
value-sizes: 2 1
  counts Seq.Insert=10 Seq.Size=13 Seq.IterElem=6 HashMap.Read=8 HashMap.Insert=6 HashMap.Remove=2 HashMap.Has=6 HashMap.Size=2 HashMap.IterElem=6 HashMap.IterWord=14
  bytes peak=1056 final=1056
== Map{Swiss}<(f64, str), i64> [hash=swiss]
default size (read has)* has-absent size' has-removed: 0 4 -1 true -9223372036854775808 true 9223372036854775807 true 64 true false 3 false
keys: 0 (0, a)
keys: 1 (NaN, a)
keys: 2 (0, b)
values: 0 64
values: 1 -1
values: 2 9223372036854775807
  counts Seq.Insert=6 Seq.Size=6 Seq.IterElem=6 SwissMap.Read=5 SwissMap.Write=4 SwissMap.Insert=2 SwissMap.Remove=2 SwissMap.Has=6 SwissMap.Size=2 SwissMap.IterElem=6 SwissMap.IterWord=24
  bytes peak=976 final=976
== Map{Swiss}<(f64, str), str> [hash=swiss]
default size (read has)* has-absent size' has-removed:  4 a true b true  true a true false 3 false
keys: 0 (0, a)
keys: 1 (NaN, a)
keys: 2 (0, b)
values: 0 a
values: 1 a
values: 2 
  counts Seq.Insert=6 Seq.Size=6 Seq.IterElem=6 SwissMap.Read=5 SwissMap.Write=4 SwissMap.Insert=2 SwissMap.Remove=2 SwissMap.Has=6 SwissMap.Size=2 SwissMap.IterElem=6 SwissMap.IterWord=24
  bytes peak=976 final=976
== Map{Swiss}<(f64, str), Seq<u64>> [hash=swiss]
default size (read has)* has-absent size' has-removed: 4 1 true 1 true 1 true 1 true false 3 false
keys: 0 (0, a)
keys: 1 (NaN, a)
keys: 2 (0, b)
value-sizes: 0 1
value-sizes: 1 1
value-sizes: 2 1
  counts Seq.Insert=10 Seq.Size=13 Seq.IterElem=6 SwissMap.Read=8 SwissMap.Insert=6 SwissMap.Remove=2 SwissMap.Has=6 SwissMap.Size=2 SwissMap.IterElem=6 SwissMap.IterWord=24
  bytes peak=1360 final=1360
== Seq<(f64, str)> [hash=swiss]
size read* size': 5 (-0, a) (NaN, a) (-0, a) (0, b) (0, a) 4
elements: 0 (NaN, a)
elements: 1 (-0, a)
elements: 2 (0, b)
elements: 3 (0, a)
  counts Seq.Read=5 Seq.Write=1 Seq.Insert=9 Seq.Remove=1 Seq.Size=6 Seq.IterElem=8
  bytes peak=288 final=288
== enum (f64, str) [hash=swiss]
add* add-again (enc dec)* enc-absent dense-probes: #0 #1 #2 #3 #0 #0 (NaN, a) #1 (-0, a) #2 (0, b) #3 (0, a) #18446744073709551615 false 1 false (NaN, a) false 1
  counts BitSet.Insert=1 BitSet.Remove=1 BitSet.Has=1 BitSet.Size=1 SparseBitSet.Insert=1 SparseBitSet.Has=1 BitMap.Read=1 BitMap.Write=1 BitMap.Remove=1 BitMap.Has=1 BitMap.Size=1 EnumEnc.Read=10 EnumEnc.Insert=4 EnumDec.Read=4 EnumDec.Insert=4
  bytes peak=952 final=952
== Seq<Set<u64>> [hash]
size read* size': 4 0 false 1 true 1 false 0 false 3
element-sizes: 0 1
element-sizes: 1 1
element-sizes: 2 0
  counts Seq.Read=10 Seq.Insert=7 Seq.Remove=1 Seq.Size=5 Seq.IterElem=6 HashSet.Insert=2 HashSet.Has=4 HashSet.Size=7
  bytes peak=672 final=672
== Seq<Set<u64>> [swiss]
size read* size': 4 0 false 1 true 1 false 0 false 3
element-sizes: 0 1
element-sizes: 1 1
element-sizes: 2 0
  counts Seq.Read=10 Seq.Insert=7 Seq.Remove=1 Seq.Size=5 Seq.IterElem=6 SwissSet.Insert=2 SwissSet.Has=4 SwissSet.Size=7
  bytes peak=992 final=992
-- traps --
read Map<u64, u64> at key 1: missing-key at @main:9: read of absent key 18446744073709551615 | missing-key at @main:16: read of absent key 18446744073709551615
read Map{Swiss}<u64, u64> at key 1: missing-key at @main:9: read of absent key 18446744073709551615 | missing-key at @main:16: read of absent key 18446744073709551615
read Map{Bit}<u64, u64> at key 1: missing-key at @main:8: read of absent key 1 | missing-key at @main:15: read of absent key 1
read Map<i64, u64> at key 1: missing-key at @main:9: read of absent key -1 | missing-key at @main:16: read of absent key -1
read Map{Swiss}<i64, u64> at key 1: missing-key at @main:9: read of absent key -1 | missing-key at @main:16: read of absent key -1
read Map<f64, u64> at key 1: missing-key at @main:9: read of absent key -0 | missing-key at @main:16: read of absent key -0
read Map{Swiss}<f64, u64> at key 1: missing-key at @main:9: read of absent key -0 | missing-key at @main:16: read of absent key -0
read Map<idx, u64> at key 1: missing-key at @main:15: read of absent key #4 | missing-key at @main:22: read of absent key #4
read Map{Swiss}<idx, u64> at key 1: missing-key at @main:15: read of absent key #4 | missing-key at @main:22: read of absent key #4
read Map{Bit}<idx, u64> at key 1: missing-key at @main:13: read of absent key #4 | missing-key at @main:20: read of absent key #4
read Map<str, u64> at key 1: missing-key at @main:7: read of absent key a | missing-key at @main:14: read of absent key a
read Map{Swiss}<str, u64> at key 1: missing-key at @main:7: read of absent key a | missing-key at @main:14: read of absent key a
read Map<(f64, str), u64> at key 1: missing-key at @main:18: read of absent key (-0, a) | missing-key at @main:25: read of absent key (-0, a)
read Map{Swiss}<(f64, str), u64> at key 1: missing-key at @main:18: read of absent key (-0, a) | missing-key at @main:25: read of absent key (-0, a)
read Seq<i64> past the end: out-of-bounds at @main:12: sequence access out of bounds: index 1, length 1 | out-of-bounds at @main:19: sequence access out of bounds: index 1, length 1
write Seq<i64> past the end: out-of-bounds at @main:12: sequence access out of bounds: index 1, length 1 | out-of-bounds at @main:19: sequence access out of bounds: index 1, length 1
insert Seq<i64> past the end: out-of-bounds at @main:12: sequence access out of bounds: index 2, length 1 | out-of-bounds at @main:19: sequence access out of bounds: index 2, length 1
remove Seq<i64> past the end: out-of-bounds at @main:12: sequence access out of bounds: index 1, length 1 | out-of-bounds at @main:19: sequence access out of bounds: index 1, length 1
insert Set{Bit}<idx> of the sentinel: sentinel-insert at @main:11: enc sentinel (usize::MAX) reached a dense-collection insert | sentinel-insert at @main:18: enc sentinel (usize::MAX) reached a dense-collection insert
insert Set{SparseBit}<idx> of the sentinel: sentinel-insert at @main:11: enc sentinel (usize::MAX) reached a dense-collection insert | sentinel-insert at @main:18: enc sentinel (usize::MAX) reached a dense-collection insert
write Map{Bit}<idx, u64> at the sentinel: sentinel-insert at @main:12: enc sentinel (usize::MAX) reached a dense-collection insert | sentinel-insert at @main:19: enc sentinel (usize::MAX) reached a dense-collection insert
insert Map{Bit}<idx, Seq<u64>> at the sentinel: sentinel-insert at @main:11: enc sentinel (usize::MAX) reached a dense-collection insert | sentinel-insert at @main:18: enc sentinel (usize::MAX) reached a dense-collection insert
union into Set{Bit}<idx> of the sentinel: sentinel-insert at @main:13: enc sentinel (usize::MAX) reached a dense-collection insert | sentinel-insert at @main:20: enc sentinel (usize::MAX) reached a dense-collection insert
dec of the sentinel: out-of-bounds at @main:10: sequence access out of bounds: index 18446744073709551615, length 0 | out-of-bounds at @main:17: sequence access out of bounds: index 18446744073709551615, length 0
"#;

// Compare-and-branch: every comparison on the scalar matrix's edge
// operands as the condition of an `if` in a loop plan. Each cell is
// `%t = <op> %vi, %vj` followed by an `if %t` whose arms each pool a
// `const`, inside a one-iteration `forrange` that carries every cell's
// `T`/`F` out; the program runs under both decodes, which must agree on
// the output and the executed ticks (pinned below). Three more programs
// pin a compare that other code also reads (it is yielded out of the
// loop, read by a later op, or read by an arm), and a `div` by zero in
// the arm of a compare's branch, by trap code, site and ticks.

/// The comparison kinds: the scalar matrix's register kinds and `str`.
const BRANCH_KINDS: [(&str, usize); 6] = [
    ("u64", MATRIX_U64.len()),
    ("i64", MATRIX_I64.len()),
    ("idx", MATRIX_IDX.len()),
    ("f64", MATRIX_F64.len()),
    ("bool", MATRIX_BOOL.len()),
    ("str", MATRIX_STR.len()),
];

/// The program branching on `op` over every operand pair of `defs`
/// (`n` operands), one printed row per operator.
fn branch_program(ty: &str, defs: &str, n: usize) -> String {
    let mut text = format!("fn @main() -> void {{\n{defs}");
    text.push_str("  %lo = const 0u64\n  %hi = const 1u64\n  %dash = const \"-\"\n");
    let cells: Vec<(&str, usize, usize)> = CMP_OPS
        .iter()
        .flat_map(|&op| (0..n).flat_map(move |i| (0..n).map(move |j| (op, i, j))))
        .collect();
    let outs: Vec<String> = (0..cells.len()).map(|k| format!("%o{k}")).collect();
    let inits = vec!["%dash"; cells.len()];
    let args: Vec<String> = (0..cells.len()).map(|k| format!("%c{k}: str")).collect();
    text.push_str(&format!(
        "  {} = forrange %lo, %hi carry({}) as (%i: u64, {}) {{\n",
        outs.join(", "),
        inits.join(", "),
        args.join(", ")
    ));
    for (k, (op, i, j)) in cells.iter().enumerate() {
        text.push_str(&format!(
            "    %t{k} = {op} %v{i}, %v{j}\n    %r{k} = if %t{k} then {{\n      \
             %y{k} = const \"T\"\n      yield %y{k}\n    }} else {{\n      \
             %n{k} = const \"F\"\n      yield %n{k}\n    }}\n"
        ));
    }
    let rs: Vec<String> = (0..cells.len()).map(|k| format!("%r{k}")).collect();
    text.push_str(&format!("    yield {}\n  }}\n", rs.join(", ")));
    for (row, op) in CMP_OPS.iter().enumerate() {
        let printed = &outs[row * n * n..(row + 1) * n * n];
        text.push_str(&format!(
            "  %l{row} = const \"{ty} {op}:\"\n  print %l{row}, {}\n",
            printed.join(", ")
        ));
    }
    text.push_str("  ret\n}\n");
    text
}

/// Runs `text` under both decodes, which must agree on the whole
/// outcome and the executed ticks, and returns the output (or the trap's
/// `code at site`) with the ticks.
fn branch_run(text: &str) -> String {
    use ade_interp::{DecodeOptions, DecodedModule};
    let m = parse_module(text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    ade_ir::verify::verify_module(&m).unwrap_or_else(|e| panic!("{e}\n{text}"));
    let runs: Vec<String> = [true, false]
        .iter()
        .map(|&reference| {
            let decoded = DecodedModule::decode_with(&m, &DecodeOptions { reference });
            if !reference {
                assert!(
                    decoded.funcs[0].code.iter().any(bulk_forrange),
                    "the default decode runs the loop through a plan:\n{text}"
                );
            }
            let mut interp = Interpreter::new(&m, ExecConfig::default());
            let result = interp.run_decoded(&decoded, "main");
            let ticks = interp.fuel_ticks();
            match result {
                Ok(out) => format!("{}ticks={ticks}\n", out.output),
                Err(e) => {
                    let ade_interp::ExecError::GuestTrap {
                        site: Some(site), ..
                    } = &e
                    else {
                        panic!("expected a sited trap, got {e:?}");
                    };
                    format!("{} at {site} ticks={ticks}\n", e.code())
                }
            }
        })
        .collect();
    assert_eq!(runs[0], runs[1], "both decodes:\n{text}");
    runs[0].clone()
}

/// A compare that is yielded out of the loop and printed, one read by a
/// later op, and one read by an arm's yield, each also a branch's
/// condition. Each is true in the last iteration, where a branch that
/// took the compare's place and left its slot unwritten would print
/// `false`.
const BRANCH_SHARED: &str = r#"
fn @main() -> void {
  %lo = const 0u64
  %hi = const 4u64
  %zero = const 0u64
  %f = const false
  %kept, %sum, %both = forrange %lo, %hi carry(%f, %zero, %f) as (%i: u64, %k: bool, %acc: u64, %b: bool) {
    %two = const 2u64
    %three = const 3u64
    %c = lt %i, %hi
    %r = if %c then {
      %ten = const 10u64
      yield %ten
    } else {
      yield %i
    }
    %d = ge %i, %two
    %e = and %d, %c
    %r2 = if %d then {
      %hundred = const 100u64
      yield %hundred
    } else {
      yield %r
    }
    %g = eq %i, %three
    %h = if %g then {
      yield %g
    } else {
      yield %e
    }
    %acc1 = add %acc, %r2
    yield %c, %acc1, %h
  }
  print %kept, %sum, %both
  ret
}
"#;

/// A `div` by zero in the else-arm of a compare's branch, taken first in
/// the fourth iteration, after a `const` of the same arm.
const BRANCH_TRAP: &str = r#"
fn @main() -> void {
  %lo = const 0u64
  %hi = const 6u64
  %zero = const 0u64
  %sum = forrange %lo, %hi carry(%zero) as (%i: u64, %acc: u64) {
    %three = const 3u64
    %c = lt %i, %three
    %r = if %c then {
      %one = const 1u64
      yield %one
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

fn compare_and_branch_matrix_text() -> String {
    let mut text = String::new();
    for (ty, n) in BRANCH_KINDS {
        let (defs, _) = matrix_operands(ty);
        text.push_str(&branch_run(&branch_program(ty, &defs, n)));
    }
    text.push_str("-- shared compares --\n");
    text.push_str(&branch_run(BRANCH_SHARED));
    text.push_str("-- trap in an arm --\n");
    text.push_str(&branch_run(BRANCH_TRAP));
    text
}

#[test]
fn compare_and_branch_matrix() {
    let text = compare_and_branch_matrix_text();
    if text != COMPARE_AND_BRANCH_MATRIX {
        panic!("compare-and-branch matrix changed; now:\n{text}");
    }
}

const COMPARE_AND_BRANCH_MATRIX: &str = r#"u64 eq: T F F F F F F T F F F F F F T F F F F F F T F F F F F F T F F F F F F T
u64 ne: F T T T T T T F T T T T T T F T T T T T T F T T T T T T F T T T T T T F
u64 lt: F T T T T T F F T T T T F F F F F F F F T F F F F F T T F T F F T T F F
u64 le: T T T T T T F T T T T T F F T F F F F F T T F F F F T T T T F F T T F T
u64 gt: F F F F F F T F F F F F T T F T T T T T F F T T T T F F F F T T F F T F
u64 ge: T F F F F F T T F F F F T T T T T T T T F T T T T T F F T F T T F F T T
ticks=888
i64 eq: T F F F F F F T F F F F F F T F F F F F F T F F F F F F T F F F F F F T
i64 ne: F T T T T T T F T T T T T T F T T T T T T F T T T T T T F T T T T T T F
i64 lt: F T F F T T F F F F T T T T F F T T T T T F T T F F F F F F F F F F T F
i64 le: T T F F T T F T F F T T T T T F T T T T T T T T F F F F T F F F F F T T
i64 gt: F F T T F F T F T T F F F F F T F F F F F F F F T T T T F T T T T T F F
i64 ge: T F T T F F T T T T F F F F T T F F F F F T F F T T T T T T T T T T F T
ticks=888
idx eq: T F F F F T F F F F T F F F F T
idx ne: F T T T T F T T T T F T T T T F
idx lt: F T T T F F T T F F F F F F T F
idx le: T T T T F T T T F F T F F F T T
idx gt: F F F F T F F F T T F T T T F F
idx ge: T F F F T T F F T T T T T T F T
ticks=410
f64 eq: T F F F F F F F T F F F F F F F T F F F F F F F T F F F F F F F T F F F F F F F T F F F F F F F T
f64 ne: F T T T T T T T F T T T T T T T F T T T T T T T F T T T T T T T F T T T T T T T F T T T T T T T F
f64 lt: F F T F T T F T F T F T T F F F F F T T F T T T F T T F F F F F F F F F F F F T F F T T T T T T F
f64 le: T F T F T T F T T T F T T F F F T F T T F T T T T T T F F F F F T F F F F F F T T F T T T T T T T
f64 gt: F T F T F F T F F F T F F T T T F T F F T F F F F F F T T T T T F T T T T T T F F T F F F F F F F
f64 ge: T T F T F F T F T F T F F T T T T T F F T F F F T F F T T T T T T T T T T T T F T T F F F F F F T
ticks=1201
bool eq: T F F T
bool ne: F T T F
bool lt: F T F F
bool le: T T F T
bool gt: F F T F
bool ge: T F T T
ticks=116
str eq: T F F F T F F F T
str ne: F T T T F T T T F
str lt: F T T F F T F F F
str le: T T T F T T F F T
str gt: F F F T F F T T F
str ge: T F F T T F T T T
ticks=237
-- shared compares --
true 220 true
ticks=69
-- trap in an arm --
div-by-zero at @main:14 ticks=30
"#;
