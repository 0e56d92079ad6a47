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
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/ir/histogram.memoir").to_string()
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
    assert_eq!(code, 2, "unknown configuration is a usage-class error: {err}");

    let (code, err) = adec(&["--run", "/nonexistent/input.memoir"]);
    assert_eq!(code, 2, "unreadable input is a usage-class error: {err}");
}

#[test]
fn parse_and_verify_errors_are_three() {
    let bad_syntax = temp_file("syntax.memoir", "fn @main() -> void { frob }\n");
    let (code, err) = adec(&[bad_syntax.to_str().unwrap()]);
    assert_eq!(code, 3, "{err}");
    assert!(err.contains("parse"), "{err}");

    let bad_types =
        temp_file("types.memoir", "fn @main() -> u64 {\n  %x = const 1f64\n  ret %x\n}\n");
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
