//! The `adec` process exit-code contract, end to end: 0 success,
//! 1 guest trap or limit at runtime, 2 usage error (bad flags, unknown
//! `--config`, unreadable input, unwritable output paths), 3 parse or
//! verify error.

use std::process::Command;

fn adec(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_adec"))
        .args(args)
        .output()
        .expect("adec runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status.code().expect("exit code, not a signal"), stderr)
}

fn sample() -> String {
    concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/ir/histogram.memoir"
    )
    .to_string()
}

fn temp_file(name: &str, contents: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("adec-exit-{}-{name}", std::process::id()));
    std::fs::write(&path, contents).expect("write temp input");
    path
}

#[test]
fn success_is_zero() {
    let (code, _) = adec(&["--config", "ade", "--run", &sample()]);
    assert_eq!(code, 0);
}

#[test]
fn reference_switch_is_accepted_and_listed_in_help() {
    let (code, err) = adec(&["--config", "ade", "--run", "--reference", &sample()]);
    assert_eq!(code, 0, "{err}");

    let out = Command::new(env!("CARGO_BIN_EXE_adec"))
        .arg("--help")
        .output()
        .expect("adec runs");
    assert_eq!(out.status.code(), Some(0));
    let help = String::from_utf8_lossy(&out.stdout);
    assert!(help.contains("--reference"), "--help must list --reference");

    // The retired per-tier toggles are unknown flags now.
    for flag in ["--no-fuse", "--no-unbox", "--no-loop-fuse", "--no-soa"] {
        assert!(!help.contains(flag), "--help must not list {flag}");
        let (code, err) = adec(&["--config", "ade", "--run", flag, &sample()]);
        assert_eq!(code, 2, "{flag}: {err}");
        assert!(err.contains("unknown flag"), "{flag}: {err}");
    }
}

#[test]
fn usage_errors_are_two() {
    let (code, err) = adec(&["--nope"]);
    assert_eq!(code, 2, "{err}");

    let (code, err) = adec(&["--config", "turbo", "--run", &sample()]);
    assert_eq!(
        code, 2,
        "unknown configuration is a usage-class error: {err}"
    );

    let (code, err) = adec(&["--run", "/nonexistent/input.memoir"]);
    assert_eq!(code, 2, "unreadable input is a usage-class error: {err}");
}

#[test]
fn parse_and_verify_errors_are_three() {
    let bad_syntax = temp_file("syntax.memoir", "fn @main() -> void { frob }\n");
    let (code, err) = adec(&[bad_syntax.to_str().unwrap()]);
    assert_eq!(code, 3, "{err}");
    assert!(err.contains("parse"), "{err}");

    let bad_types = temp_file(
        "types.memoir",
        "fn @main() -> u64 {\n  %x = const 1f64\n  ret %x\n}\n",
    );
    let (code, err) = adec(&[bad_types.to_str().unwrap()]);
    assert_eq!(code, 3, "{err}");
    assert!(err.contains("verify"), "{err}");

    let _ = std::fs::remove_file(bad_syntax);
    let _ = std::fs::remove_file(bad_types);
}

#[test]
fn unwritable_output_paths_are_two() {
    // The compile itself succeeds; failing to persist the requested
    // artifact is a usage-class mistake, not a guest failure.
    for flag in [
        "--trace-json",
        "--metrics",
        "--trace=/nonexistent/dir/out.txt",
        "--explain=/nonexistent/dir/out.txt",
    ] {
        let args: Vec<&str> = if flag.contains('=') {
            vec!["--run", flag]
        } else {
            vec!["--run", flag, "/nonexistent/dir/out.json"]
        };
        let mut args = args;
        let input = sample();
        args.push(&input);
        let (code, err) = adec(&args);
        assert_eq!(code, 2, "{flag}: {err}");
        assert!(err.contains("cannot write"), "{flag}: {err}");
    }
}

/// Flags of deleted features are rejected like any unknown flag:
/// `--profile-in` fed feedback-directed selection, `--profile` wrote
/// per-site profiles and `--deadline-ms` preempted on the wall clock.
#[test]
fn removed_flags_are_two() {
    for flag in ["--profile-in", "--profile", "--deadline-ms"] {
        let (code, err) = adec(&["--run", flag, "100", &sample()]);
        assert_eq!(code, 2, "{flag}: {err}");
        assert!(err.contains(&format!("unknown flag `{flag}`")), "{err}");
    }
}

#[test]
fn runtime_failures_are_one() {
    let (code, err) = adec(&["--run", "--entry", "missing", &sample()]);
    assert_eq!(code, 1, "{err}");

    let (code, err) = adec(&["--run", "--fuel", "3", &sample()]);
    assert_eq!(code, 1, "a tripped limit is a runtime failure: {err}");
    assert!(err.contains("fuel exhausted"), "{err}");
}

/// `main` running `body`, then `ret`.
fn program(body: &str) -> String {
    format!("fn @main() -> void {{\n{body}  ret\n}}\n")
}

/// Ill-typed programs the verifier rejects: each is a parse-clean
/// program whose type error would otherwise surface only when the
/// interpreter reached the offending instruction.
#[test]
fn ill_typed_programs_are_verify_errors() {
    let dense = |ty: &str, key: &str| {
        format!(
            "  %c = new {ty}\n  %k = const {key}\n  %c1 = insert %c, %k\n  \
             %n = size %c1\n  print %n\n"
        )
    };
    let nested = "  %m = new Map<u64, Set{Bit}<str>>\n  %k = const 1u64\n  %m1 = insert %m, %k\n  \
                  %e = const \"a\"\n  %m2 = insert %m1[%k], %e\n  %n = size %m2[%k]\n  print %n\n";
    let cases = [
        (
            "bool-add",
            "  %a = const true\n  %b = add %a, %a\n  print %b\n".to_string(),
        ),
        (
            "f64-shl",
            "  %a = const 1.5f64\n  %b = shl %a, %a\n  print %b\n".to_string(),
        ),
        (
            "f64-xor",
            "  %a = const 1.5f64\n  %b = xor %a, %a\n  print %b\n".to_string(),
        ),
        (
            "set-read",
            "  %s = new Set<u64>\n  %k = const 1u64\n  %s1 = insert %s, %k\n  \
             %x = read %s1, %k\n  print %x\n"
                .to_string(),
        ),
        ("bit-str", dense("Set{Bit}<str>", "\"a\"")),
        ("sparse-bit-i64", dense("Set{SparseBit}<i64>", "1i64")),
        ("bit-map-f64", dense("Map{Bit}<f64, u64>", "1.5f64")),
        ("nested-bit-str", nested.to_string()),
    ];
    for (name, body) in cases {
        let path = temp_file(&format!("{name}.memoir"), &program(&body));
        let (code, err) = adec(&["--config", "memoir", "--run", path.to_str().unwrap()]);
        assert_eq!(code, 3, "{name}: {err}");
        assert!(err.starts_with("error: verify:"), "{name}: {err}");
        let _ = std::fs::remove_file(path);
    }
}

/// The dense case a `select(...)` directive forces over `u64` keys
/// stays legal, directly typed or chosen by directive.
#[test]
fn dense_selections_over_u64_keys_run() {
    let body = "  %m = new Map{Bit}<u64, u64>\n  %k = const 4u64\n  %v = const 7u64\n  \
                %m1 = write %m, %k, %v\n  %x = read %m1, %k\n  print %x\n";
    let path = temp_file("bit-map-u64.memoir", &program(body));
    let directives = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/ir/directives.memoir"
    )
    .to_string();
    for config in ["memoir", "ade"] {
        let (code, err) = adec(&["--config", config, "--run", path.to_str().unwrap()]);
        assert_eq!(code, 0, "{config}: {err}");
        let (code, err) = adec(&["--config", config, "--run", &directives]);
        assert_eq!(code, 0, "{config}: {err}");
    }
    let _ = std::fs::remove_file(path);
}

/// A run passes its entry no arguments, so an entry that takes
/// parameters is no entry at all.
#[test]
fn an_entry_with_parameters_is_one() {
    let path = temp_file(
        "entry-params.memoir",
        "fn @main(%x: u64) -> void {\n  print %x\n  ret\n}\n",
    );
    let (code, err) = adec(&["--run", path.to_str().unwrap()]);
    assert_eq!(code, 1, "{err}");
    assert!(
        err.contains("no parameterless function named @main"),
        "{err}"
    );
    let _ = std::fs::remove_file(path);
}
