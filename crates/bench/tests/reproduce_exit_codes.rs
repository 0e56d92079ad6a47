//! The `reproduce` binary's usage contract, end to end: an unknown flag
//! is a usage error (exit 2).
//!
//! These run the cheapest real target (`fig4` needs only the memoir
//! configuration) at a tiny scale.

use std::process::Command;

fn reproduce(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["--scale", "3", "fig4"])
        .args(args)
        .output()
        .expect("reproduce runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status.code().expect("exit code, not a signal"), stderr)
}

/// Flags of the removed resume, fault-isolation, fault-injection,
/// timeout, metrics, per-site profile, wall-column and worker-timeline
/// machinery are unknown flags now.
#[test]
fn removed_flags_exit_two_as_unknown() {
    for flag in [
        &["--checkpoint", "f"][..],
        &["--strict"],
        &["--inject-fault", "cell=0,kind=panic"],
        &["--cell-timeout", "5"],
        &["--metrics", "m.json"],
        &["--no-wall"],
        &["--trials", "3"],
        &["--obs-dir", "d"],
        &["--timeline", "t.json"],
    ] {
        let (code, err) = reproduce(flag);
        assert_eq!(code, 2, "{flag:?}: {err}");
        assert!(
            err.contains(&format!("unknown flag `{}`", flag[0])),
            "{err}"
        );
    }
}
