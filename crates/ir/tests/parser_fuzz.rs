//! Parser robustness: arbitrary input must produce `Ok` or `ParseError`,
//! never a panic, and valid programs must round-trip.

use proptest::prelude::*;

use ade_ir::parse::parse_module;
use ade_ir::print::print_module;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]
    #[test]
    fn arbitrary_input_never_panics(input in ".{0,400}") {
        let _ = parse_module(&input);
    }

    #[test]
    fn ir_like_token_soup_never_panics(
        tokens in prop::collection::vec(
            prop_oneof![
                Just("fn".to_string()), Just("@main".to_string()),
                Just("(".to_string()), Just(")".to_string()),
                Just("{".to_string()), Just("}".to_string()),
                Just("->".to_string()), Just("void".to_string()),
                Just("%x".to_string()), Just("=".to_string()),
                Just("const".to_string()), Just("1u64".to_string()),
                Just("insert".to_string()), Just("foreach".to_string()),
                Just("carry".to_string()), Just("yield".to_string()),
                Just("ret".to_string()), Just("Map<u64,".to_string()),
                Just("Set{Bit}<idx>".to_string()), Just("[".to_string()),
                Just("]".to_string()), Just("#[".to_string()),
                Just("\"str".to_string()), Just("e0,".to_string()),
                Just("enum".to_string()), Just(":".to_string()),
                Just("literal".to_string()), Just("u64".to_string()),
                Just("str".to_string()), Just("enumadd".to_string()),
            ],
            0..60,
        )
    ) {
        let _ = parse_module(&tokens.join(" "));
    }

    #[test]
    fn mutated_valid_program_never_panics(cut in 0usize..300, insert in ".{0,10}") {
        let base = "fn @main() -> void {\n  %s = new Set<u64>\n  %x = const 1u64\n  %s1 = insert %s, %x\n  %h = has %s1, %x\n  print %h\n  ret\n}\n";
        let mut mutated = String::new();
        let cut = cut.min(base.len());
        // Cut at a char boundary.
        let boundary = (0..=cut).rev().find(|&i| base.is_char_boundary(i)).unwrap_or(0);
        mutated.push_str(&base[..boundary]);
        mutated.push_str(&insert);
        mutated.push_str(&base[boundary..]);
        let _ = parse_module(&mutated);
    }
}

#[test]
fn unterminated_constructs_error_cleanly() {
    for text in [
        "fn @f( ",
        "fn @f() -> void {",
        "fn @f() -> void {\n  %x = const \"abc",
        "fn @f() -> void {\n  %s = new Set<u64> #[group(\"g\"",
        "enum e0",
        "fn @f() -> Map<",
        "fn @f() -> void {\n  %m = new Map<u64, u64>\n  %x = const 1u64\n  %r = read %m[%x, %x\n  ret\n}",
        "fn @f() -> void {\n  %s = literal u64 [1, 2",
        "fn @f() -> void {\n  %s = literal str [\"a\", ]\n  ret\n}",
    ] {
        let err = parse_module(text).expect_err("must not accept");
        assert!(!err.message.is_empty());
    }
}

#[test]
fn round_trip_is_stable_for_all_instruction_forms() {
    let text = r#"
enum e0: u64

fn @kitchen(%p: Map{Swiss}<u64, Seq<idx>>, %q: Set{SparseBit}<idx>, %b: bool) -> u64 {
  %c = const 3u64
  %s = const "hi\n"
  %f = const 1.5f64
  %i = const -2i64
  %t = new (u64, bool)
  %x = cast %c to idx
  %n = not %b
  %m = min %c, %c
  %enc = enc e0, %c
  %addv = enumadd e0, %c
  %dec = dec e0, %enc
  %r0 = if %b then {
    yield %c
  } else {
    %d = add %c, %c
    yield %d
  }
  %sum = foreach %q carry(%r0) as (%v: idx, %acc: u64) {
    %vc = cast %v to u64
    %a = add %acc, %vc
    yield %a
  }
  %w = dowhile carry(%sum) as (%cur: u64) {
    %one = const 1u64
    %nxt = sub %cur, %one
    %zero = const 0u64
    %go = gt %nxt, %zero
    yield %go, %nxt
  }
  roi begin
  print %w, %s, %f, %i, %t.0
  roi end
  ret %w
}
"#;
    let m = parse_module(text).expect("parses");
    let printed = print_module(&m);
    let m2 = parse_module(&printed).expect("reparses");
    assert_eq!(printed, print_module(&m2));
}

/// Every variant of every textual enum (operators, selections, the
/// `select(...)` directive) prints by its name and parses back.
#[test]
fn round_trip_covers_every_named_variant() {
    use ade_ir::{BinOp, CmpOp, MapSel, SelectionChoice, SetSel, Type};
    let mut body = String::from("  %c = const 3u64\n");
    for op in BinOp::ALL {
        body += &format!("  %{0} = {0} %c, %c\n", op.name());
    }
    for op in CmpOp::ALL {
        body += &format!("  %{0} = {0} %c, %c\n", op.name());
    }
    let mut lines = Vec::new();
    for &sel in SetSel::ALL {
        lines.push(format!("new {}", Type::set_with(Type::U64, sel)));
    }
    for &sel in MapSel::ALL {
        lines.push(format!("new {}", Type::map_with(Type::U64, Type::U64, sel)));
    }
    for choice in SelectionChoice::ALL {
        lines.push(format!("new Set<u64> #[select({})]", choice.name()));
    }
    for (i, line) in lines.iter().enumerate() {
        body += &format!("  %s{i} = {line}\n");
    }
    let text = format!("fn @main() -> void {{\n{body}  ret\n}}\n");
    assert_round_trips(&text);
    let printed = print_module(&parse_module(&text).expect("parses"));
    assert_eq!(printed, format!("{text}\n"));
    let with_braces = SetSel::ALL.len() + MapSel::ALL.len() - 2;
    assert_eq!(printed.matches('{').count(), 1 + with_braces, "{printed}");
    for bad in ["Set{Auto}<u64>", "Map{Flat}<u64, u64>", "Set{hash}<u64>"] {
        let text = format!("fn @main() -> void {{\n  %s = new {bad}\n  ret\n}}\n");
        assert!(parse_module(&text).is_err(), "{bad}");
    }
}

proptest! {
    /// String constants round-trip exactly through print → parse,
    /// including every escape the printer's Debug formatting can emit.
    #[test]
    fn string_constants_round_trip(s in "\\PC{0,30}") {
        let module_text = format!(
            "fn @main() -> void {{\n  %x = const {:?}\n  print %x\n  ret\n}}\n",
            s
        );
        if let Ok(m) = parse_module(&module_text) {
            let printed = print_module(&m);
            let m2 = parse_module(&printed).expect("printed form parses");
            assert_eq!(printed, print_module(&m2));
            // The constant survives intact.
            let ade_ir::InstKind::Const(ade_ir::ConstVal::Str(got)) =
                &m.funcs[0].insts[0].kind
            else {
                panic!("expected a string const");
            };
            assert_eq!(got, &s);
        }
    }
}

/// Print, parse and print again gives identical text.
fn assert_round_trips(text: &str) {
    let m = parse_module(text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    let printed = print_module(&m);
    let m2 = parse_module(&printed).expect("printed form parses");
    assert_eq!(printed, print_module(&m2));
}

#[test]
fn literal_tables_round_trip() {
    let text = r#"
enum e0: u64
enum e1: str

fn @main() -> void {
  %empty = literal u64 []
  %empty_s = literal str []
  %one = literal u64 [18446744073709551615]
  %nums = literal u64 [0, 7, 7, 3]
  %strs = literal str ["a\"b", "tab\there", "\u{1F600}", "", "\\"]
  %ids = literal u64 [9, 4, 9] enumadd e0
  %sids = literal str ["x", "y\n"] enumadd e1
  %none = literal u64 [] enumadd e0
  ret
}
"#;
    assert_round_trips(text);
    let m = parse_module(text).expect("parses");
    ade_ir::verify::verify_module(&m).expect("verifies");
    let printed = print_module(&m);
    assert!(
        printed.contains("%ids = literal u64 [9, 4, 9] enumadd e0\n"),
        "{printed}"
    );
    assert!(printed.contains("%empty_s = literal str []\n"), "{printed}");
}

proptest! {
    /// `f64` constants of any bit pattern round-trip through print →
    /// parse: NaN, the infinities, signed zero and subnormals included.
    #[test]
    fn f64_constants_round_trip(
        x in prop_oneof![
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(-0.0),
            any::<u64>().prop_map(f64::from_bits),
        ]
    ) {
        let mut b = ade_ir::builder::FunctionBuilder::new("main", &[], ade_ir::Type::Void);
        let v = b.const_f64(x);
        b.print(&[v]);
        b.ret_void();
        let mut m = ade_ir::Module::new();
        m.add_function(b.finish());
        let printed = print_module(&m);
        let m2 = parse_module(&printed).expect("printed form parses");
        prop_assert_eq!(&printed, &print_module(&m2));
        let ade_ir::InstKind::Const(ade_ir::ConstVal::F64(got)) = m2.funcs[0].insts[0].kind else {
            panic!("an f64 const");
        };
        // Every NaN prints as `NaN`; any other value keeps its bits.
        prop_assert!(got.to_bits() == x.to_bits() || got.is_nan() && x.is_nan(), "{x} -> {got}");
    }
}

proptest! {
    /// Literal tables of arbitrary elements round-trip exactly, with and
    /// without an enumeration, and keep their elements.
    #[test]
    fn literal_tables_of_any_elements_round_trip(
        nums in prop::collection::vec(any::<u64>(), 0..6),
        strs in prop::collection::vec("\\PC{0,8}", 0..4),
        enumerated in any::<bool>(),
    ) {
        let mut b = ade_ir::builder::FunctionBuilder::new("main", &[], ade_ir::Type::Void);
        b.literal(&nums[..]);
        let refs: Vec<&str> = strs.iter().map(String::as_str).collect();
        b.literal(&refs[..]);
        b.ret_void();
        let mut m = ade_ir::Module::new();
        m.add_function(b.finish());
        if enumerated {
            let e = m.add_enum(ade_ir::EnumDecl { name: "e0".into(), key_ty: ade_ir::Type::U64 });
            let f = &mut m.funcs[0];
            let ade_ir::InstKind::Literal { enumeration, .. } = &mut f.insts[0].kind else {
                panic!("a literal");
            };
            *enumeration = Some(e);
            let v = f.insts[0].results[0];
            f.values[v.index()].ty = ade_ir::Type::seq(ade_ir::Type::Idx);
        }
        ade_ir::verify::verify_module(&m).expect("verifies");
        let printed = print_module(&m);
        let m2 = parse_module(&printed).expect("printed form parses");
        prop_assert_eq!(&printed, &print_module(&m2));
        prop_assert_eq!(&m2.funcs[0].insts[0].kind, &m.funcs[0].insts[0].kind);
        prop_assert_eq!(&m2.funcs[0].insts[1].kind, &m.funcs[0].insts[1].kind);
    }
}

#[test]
fn fn_at_inside_strings_does_not_shift_signatures() {
    let text = r#"
fn @main() -> u64 {
  %s = const "fn @fake() -> f64 {"
  %r = call @1(%s)
  ret %r
}

fn @second(%x: str) -> u64 {
  %n = const 7u64
  ret %n
}
"#;
    let m = parse_module(text).expect("parses");
    ade_ir::verify::verify_module(&m).expect("call result types line up");
}

/// The checked-in IR corpus, as `(file name, contents)` pairs.
fn corpus() -> Vec<(String, String)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/ir");
    let mut files: Vec<(String, String)> = std::fs::read_dir(&dir)
        .expect("examples/ir exists")
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            if path.extension()? != "memoir" {
                return None;
            }
            let name = path.file_name()?.to_string_lossy().into_owned();
            Some((name, std::fs::read_to_string(&path).ok()?))
        })
        .collect();
    files.sort();
    assert!(
        !files.is_empty(),
        "no .memoir files under {}",
        dir.display()
    );
    files
}

/// Parse (and, when the parse succeeds, verify) must return a typed
/// error on malformed input — never panic or overflow.
fn assert_no_panic(name: &str, what: &str, text: &str) {
    let outcome = std::panic::catch_unwind(|| {
        if let Ok(m) = parse_module(text) {
            let _ = ade_ir::verify::verify_module(&m);
        }
    });
    assert!(outcome.is_ok(), "parse/verify panicked on {name}, {what}");
}

/// Every byte-truncation of every corpus program parses to `Ok` or a
/// `ParseError` (and verifies without panicking) — truncation models a
/// file cut short by a crashed writer.
#[test]
fn corpus_truncations_never_panic() {
    for (name, text) in corpus() {
        for i in 0..text.len() {
            if text.is_char_boundary(i) {
                assert_no_panic(&name, &format!("truncated to {i} bytes"), &text[..i]);
            }
        }
    }
}

/// Every single-byte mutation of every corpus program (over a set of
/// structurally disruptive replacement bytes) parses and verifies
/// without panicking.
#[test]
fn corpus_single_byte_mutations_never_panic() {
    const REPLACEMENTS: [u8; 8] = [b'}', b'{', b'%', b'0', b'"', b'#', b'.', b' '];
    for (name, text) in corpus() {
        let bytes = text.as_bytes();
        for i in 0..bytes.len() {
            for &replacement in &REPLACEMENTS {
                if bytes[i] == replacement {
                    continue;
                }
                let mut mutated = bytes.to_vec();
                mutated[i] = replacement;
                // Mutations that break UTF-8 can't even be a &str; the
                // parser only accepts strings, so skip those.
                let Ok(mutated) = String::from_utf8(mutated) else {
                    continue;
                };
                let what = format!("byte {i} replaced with {:?}", replacement as char);
                assert_no_panic(&name, &what, &mutated);
            }
        }
    }
}

#[test]
fn control_escapes_decode() {
    let m = parse_module(
        "fn @main() -> void {\n  %x = const \"a\\r\\n\\t\\u{1F600}b\"\n  print %x\n  ret\n}\n",
    )
    .expect("parses");
    let ade_ir::InstKind::Const(ade_ir::ConstVal::Str(s)) = &m.funcs[0].insts[0].kind else {
        panic!("string const");
    };
    assert_eq!(s, "a\r\n\t\u{1F600}b");
}
