//! The selection decisions and the decoder's loop decisions, end to end
//! through the `adec` binary: `--explain` renders them (the selection
//! part from the same `choice [select]` events `--trace-json` dumps),
//! and the rendered report is byte-identical across repeated runs and
//! the `--reference` switch (it holds compile-time decisions only).

use std::path::PathBuf;
use std::process::Command;

fn adec(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_adec"))
        .args(args)
        .output()
        .expect("adec runs");
    (
        out.status.code().expect("exit code, not a signal"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn sample() -> String {
    concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/ir/histogram.memoir"
    )
    .to_string()
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("adec-explain-{}-{name}", std::process::id()))
}

#[test]
fn explain_report_is_byte_identical_across_runs_and_reference_switch() {
    let combos: [&[&str]; 2] = [&[], &["--reference"]];
    let mut reference: Option<String> = None;
    for (i, combo) in combos.iter().enumerate() {
        let explain = temp_path(&format!("combo-{i}.txt"));
        let mut args: Vec<String> = vec![
            "--config".to_string(),
            "ade".to_string(),
            "--run".to_string(),
            format!("--explain={}", explain.to_str().unwrap()),
        ];
        args.extend(combo.iter().map(|s| s.to_string()));
        args.push(sample());
        let arg_refs: Vec<&str> = args.iter().map(String::as_str).collect();
        let (code, _, err) = adec(&arg_refs);
        assert_eq!(code, 0, "{combo:?}: {err}");
        let text = std::fs::read_to_string(&explain).expect("explain written");
        let _ = std::fs::remove_file(&explain);
        match &reference {
            None => reference = Some(text),
            Some(reference) => assert_eq!(&text, reference, "{combo:?}"),
        }
    }

    // And across repeated identical invocations.
    let explain = temp_path("repeat.txt");
    let args = [
        "--config",
        "ade",
        "--run",
        &format!("--explain={}", explain.to_str().unwrap()),
        &sample(),
    ];
    let mut texts = Vec::new();
    for _ in 0..2 {
        let (code, _, err) = adec(&args.iter().map(|s| &**s).collect::<Vec<_>>());
        assert_eq!(code, 0, "{err}");
        texts.push(std::fs::read_to_string(&explain).expect("explain written"));
    }
    assert_eq!(texts[0], texts[1]);
    let _ = std::fs::remove_file(explain);
}

#[test]
fn explain_to_stderr_renders_without_a_file() {
    let (code, _, err) = adec(&["--config", "ade", "--explain", &sample()]);
    assert_eq!(code, 0, "{err}");
    assert!(err.contains("selection ledger:"), "{err}");
    assert!(err.contains("[static]"), "{err}");
    assert!(err.contains("per-function summary:"), "{err}");
}

/// A loop that prints (generic: `print` is a side channel a plan never
/// runs) and a loop that only inserts (a plan).
const LOOPS: &str = "\
fn @main() -> void {
  %s = new Set<u64>
  %zero = const 0u64
  %n = const 3u64
  %t = forrange %zero, %n carry(%s) as (%i: u64, %c: Set<u64>) {
    print %i
    %c1 = insert %c, %i
    yield %c1
  }
  %u = forrange %zero, %n carry(%t) as (%i: u64, %c: Set<u64>) {
    %c1 = insert %c, %i
    yield %c1
  }
  ret
}
";

#[test]
fn explain_lists_the_loops_the_decoder_left_generic() {
    let input = temp_path("loops.memoir");
    std::fs::write(&input, LOOPS).expect("input written");
    let input = input.to_str().expect("utf-8 path").to_string();
    for config in ["memoir", "ade"] {
        let (code, _, err) = adec(&["--config", config, "--explain", &input]);
        assert_eq!(code, 0, "{config}: {err}");
        let section = err
            .split_once("\ndecoder: ")
            .map(|(_, s)| s)
            .unwrap_or_else(|| panic!("{config}: no decoder section after the ledger: {err}"));
        assert_eq!(
            section, "1 loop(s) run as plans, 1 left generic\n  @main#3 print\n",
            "{config}"
        );
        let (_, _, reference) = adec(&["--config", config, "--explain", "--reference", &input]);
        assert_eq!(reference, err, "{config}: --reference changes no decision");
    }
    let _ = std::fs::remove_file(input);
}

/// `--explain` and `--trace-json` render one event list: the report
/// holds exactly one decision block per `choice [select]` event of the
/// trace, naming the same function, member, enumeration, set, map and
/// source, in the same order.
#[test]
fn explain_has_one_decision_block_per_choice_event() {
    for sample in ["directives", "cloned_callee"] {
        let input = format!(
            "{}/../../examples/ir/{sample}.memoir",
            env!("CARGO_MANIFEST_DIR")
        );
        let explain = temp_path(&format!("{sample}-explain.txt"));
        let trace = temp_path(&format!("{sample}-trace.json"));
        let explain_arg = format!("--explain={}", explain.to_str().expect("utf-8 path"));
        let trace_arg = trace.to_str().expect("utf-8 path");
        let (code, _, err) = adec(&[
            "--config",
            "ade",
            &explain_arg,
            "--trace-json",
            trace_arg,
            &input,
        ]);
        assert_eq!(code, 0, "{sample}: {err}");
        let report = std::fs::read_to_string(&explain).expect("explain written");
        let json = std::fs::read_to_string(&trace).expect("trace written");
        let _ = std::fs::remove_file(&explain);
        let _ = std::fs::remove_file(&trace);

        let blocks: Vec<&str> = report
            .lines()
            .filter(|l| l.starts_with('@') && l.contains(" -> set="))
            .collect();
        let events = ade_obs::json::Value::parse(&json).expect("trace is JSON");
        let choices: Vec<String> = events
            .as_array()
            .expect("an event array")
            .iter()
            .filter(|e| {
                let s = |key| e.get(key).and_then(|v| v.as_str());
                s("kind") == Some("event")
                    && s("cat") == Some("select")
                    && s("name") == Some("choice")
            })
            .map(|e| {
                let args = e.get("args").expect("args");
                // A string field's text, or a number as JSON writes it.
                let arg = |key| match args.get(key) {
                    Some(v) => v.as_str().map_or_else(|| v.to_string(), String::from),
                    None => panic!("{sample}: choice without {key}"),
                };
                format!(
                    "@{} {} (depth {}, class {}) -> set={} map={} [{}]",
                    arg("func"),
                    arg("root"),
                    arg("depth"),
                    arg("enum"),
                    arg("set"),
                    arg("map"),
                    arg("source")
                )
            })
            .collect();
        assert!(!choices.is_empty(), "{sample}: no choice events\n{json}");
        assert_eq!(blocks, choices, "{sample}\n{report}");
        if sample == "directives" {
            // Both sources, counted in the header and the summary.
            assert!(
                report.starts_with("selection ledger: 3 decision(s) (2 static, 1 directive)\n"),
                "{report}"
            );
            assert!(
                report.contains(
                    "\n  @main: 3 keyed site(s); set Bit x2, SparseBit x1; directive x1, static x2\n"
                ),
                "{report}"
            );
        }
    }
}
