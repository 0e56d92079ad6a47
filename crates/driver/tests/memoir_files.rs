//! Drive every `.memoir` sample under `examples/ir/` through the driver
//! under both the baseline and full-ADE configurations.

use ade_driver::{drive, Destination, Options};

fn samples() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/ir");
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).expect("examples/ir exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "memoir") {
            let text = std::fs::read_to_string(&path).expect("readable");
            out.push((path.display().to_string(), text));
        }
    }
    assert!(out.len() >= 3, "expected the sample programs");
    out
}

#[test]
fn all_samples_agree_across_configurations() {
    for (name, text) in samples() {
        let memoir = drive(
            &text,
            &Options {
                config: "memoir".into(),
                run: true,
                ..Options::default()
            },
        )
        .unwrap_or_else(|e| panic!("[{name}] memoir: {e}"));
        let ade = drive(
            &text,
            &Options {
                config: "ade".into(),
                run: true,
                emit_ir: true,
                ..Options::default()
            },
        )
        .unwrap_or_else(|e| panic!("[{name}] ade: {e}"));
        assert_eq!(memoir.program_output, ade.program_output, "[{name}]");
    }
}

/// Every `[ade] @f: enum eN … benefit B` line reports its class's
/// benefit: the summed benefit of the class's `candidate [share]`
/// events, counted once, however many members and functions the class
/// spans. A candidate belongs to the class of its function (a clone's
/// source) and key type.
#[test]
fn reported_benefits_are_their_class_candidates_benefit() {
    for (name, text) in samples() {
        let out = drive(
            &text,
            &Options {
                config: "ade".into(),
                emit_ir: true,
                trace: Destination::Stderr,
                ..Options::default()
            },
        )
        .unwrap_or_else(|e| panic!("[{name}] {e}"));
        let ir = out.ir.expect("ir");
        let field = |e: &ade_obs::Event, key: &str| -> String {
            match e.fields.iter().find(|(k, _)| *k == key) {
                Some((_, ade_obs::FieldValue::Str(s))) => s.clone(),
                Some((_, ade_obs::FieldValue::U64(v))) => v.to_string(),
                other => panic!("[{name}] {key}: {other:?}"),
            }
        };
        // (func, key type, benefit) of every Algorithm 3 candidate.
        let candidates: Vec<(String, String, u64)> = out
            .events
            .iter()
            .filter(|e| e.cat == "share" && e.name == "candidate")
            .map(|e| {
                let benefit = field(e, "benefit").parse().expect("benefit");
                (field(e, "func"), field(e, "key_ty"), benefit)
            })
            .collect();
        let lines = &out.candidates;
        for line in lines {
            // "@f: enum eN over M member(s), benefit B"
            let (func, rest) = line.split_once(": enum ").expect("[ade] line");
            let (e, rest) = rest.split_once(' ').expect("enum name");
            let reported: u64 = rest
                .rsplit_once("benefit ")
                .and_then(|(_, b)| b.parse().ok())
                .expect("benefit");
            let decl = format!("enum {e}: ");
            let key_ty = ir
                .lines()
                .find_map(|l| l.strip_prefix(&decl))
                .and_then(|l| l.split(" //").next())
                .unwrap_or_else(|| panic!("[{name}] {e} is not declared"));
            let funcs: Vec<&str> = lines
                .iter()
                .filter(|l| l.contains(&format!(": enum {e} ")))
                .map(|l| l.split(':').next().expect("func"))
                .map(|f| f.trim_start_matches('@').trim_end_matches("$ade"))
                .collect();
            let class: u64 = candidates
                .iter()
                .filter(|(f, ty, _)| funcs.contains(&f.as_str()) && ty == key_ty)
                .map(|c| c.2)
                .sum();
            assert_eq!(reported, class, "[{name}] {func}: enum {e}");
        }
    }
}

#[test]
fn union_find_sample_reaches_listing4_shape() {
    let (_, text) = samples()
        .into_iter()
        .find(|(name, _)| name.ends_with("union_find.memoir"))
        .expect("union_find sample");
    let out = drive(
        &text,
        &Options {
            config: "ade".into(),
            emit_ir: true,
            ..Options::default()
        },
    )
    .expect("drives");
    let ir = out.ir.expect("ir");
    assert!(ir.contains("Map{Bit}<idx, idx>"), "{ir}");
    // The search loop body must be translation-free.
    let find_fn = ir.split("fn @main").next().expect("find comes first");
    let body = find_fn.split("dowhile").nth(1).expect("loop body");
    let loop_body = body.split('}').next().expect("body");
    assert!(!loop_body.contains("enc"), "{ir}");
    assert!(!loop_body.contains("dec"), "{ir}");
}

#[test]
fn directives_sample_selects_the_requested_impls() {
    let (_, text) = samples()
        .into_iter()
        .find(|(name, _)| name.ends_with("directives.memoir"))
        .expect("directives sample");
    let out = drive(
        &text,
        &Options {
            config: "ade".into(),
            emit_ir: true,
            run: true,
            ..Options::default()
        },
    )
    .expect("drives");
    assert_eq!(out.program_output.as_deref(), Some("50 50 50 50\n"));
    let ir = out.ir.expect("ir");
    assert!(ir.contains("Set{SparseBit}<idx>"), "{ir}");
    assert!(ir.contains("Map{Swiss}<u64, u64>"), "{ir}");
}

/// An `if` yielding a tuple field and a loop carrying one are typed by
/// what the path reaches, not by the tuple itself.
#[test]
fn yields_and_carries_through_operand_paths_parse_verify_and_run() {
    let head = "fn @main() -> void {\n  %one = const 1u64\n  %ten = const 10u64\n  %t = tuple %one, %ten\n";
    let programs = [
        (
            "  %b = const true\n  %x = if %b then {\n    yield %t.0\n  } else {\n    yield %t.1\n  }\n  print %x\n  ret\n}\n",
            "1\n",
        ),
        (
            "  %lo = const 0u64\n  %y = forrange %lo, %one carry(%t.0) as (%i: u64, %acc: u64) {\n    %s = add %acc, %ten\n    yield %s\n  }\n  print %y\n  ret\n}\n",
            "11\n",
        ),
    ];
    for (tail, want) in programs {
        let text = format!("{head}{tail}");
        let module = ade_ir::parse::parse_module(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        ade_ir::verify::verify_module(&module).unwrap_or_else(|e| panic!("{e}\n{text}"));
        for config in ["memoir", "ade"] {
            let out = drive(
                &text,
                &Options {
                    config: config.into(),
                    run: true,
                    ..Options::default()
                },
            )
            .unwrap_or_else(|e| panic!("[{config}] {e}\n{text}"));
            assert_eq!(
                out.program_output.as_deref(),
                Some(want),
                "[{config}] {text}"
            );
        }
    }
}
