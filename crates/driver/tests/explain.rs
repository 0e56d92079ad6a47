//! The selection ledger and the decoder's loop decisions, end to end
//! through the `adec` binary: `--explain` renders them, and the rendered
//! report is byte-identical across repeated runs and the `--reference`
//! switch (it holds compile-time decisions only).

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
