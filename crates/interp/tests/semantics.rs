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
                defs.push_str(&format!("  %u{i} = const {tok}\n  %v{i} = cast %u{i} to idx\n"));
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
        text.push_str(&format!("  %l{i} = const \"{label}:\"\n  print {}\n", printed.join(", ")));
    }
    text.push_str("  ret\n}\n");
    text
}

/// Runs `text` on the reference or the default decode.
fn run_decode(text: &str, reference: bool) -> Result<Outcome, ade_interp::ExecError> {
    use ade_interp::{DecodeOptions, DecodedModule};
    let m = parse_module(text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    ade_ir::verify::verify_module(&m).unwrap_or_else(|e| panic!("{e}\n{text}"));
    let decoded = DecodedModule::decode_with(&m, &DecodeOptions { reference });
    if !reference && text.contains("forrange") {
        assert!(
            decoded.funcs[0]
                .code
                .iter()
                .any(|i| matches!(i, ade_interp::decode::DInst::ForRangeBulk { .. })),
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
                let ade_interp::ExecError::GuestTrap { site: Some(site), .. } = &err else {
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
        vec![Some(("not %v0".to_string(), "bool")), Some(("not %v1".to_string(), "bool"))],
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
