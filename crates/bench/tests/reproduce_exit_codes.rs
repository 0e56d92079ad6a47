//! The `reproduce` binary's usage contract, end to end: an unknown flag
//! and an unwritable `--timeline` artifact are usage errors
//! (exit 2; an unwritable path reports a uniform `cannot write` message
//! — the same contract as `adec`'s output flags).
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

/// A path whose parent is a regular file: unwritable for everyone,
/// including the root user CI runs as (plain `/nonexistent/...` paths
/// are creatable by root).
fn enotdir_path(name: &str) -> (std::path::PathBuf, String) {
    let file = std::env::temp_dir().join(format!("reproduce-exit-{}-{name}", std::process::id()));
    std::fs::write(&file, "not a directory").expect("write blocker file");
    let inner = format!("{}/sub", file.display());
    (file, inner)
}

#[test]
fn unwritable_timeline_is_two() {
    let (blocker, path) = enotdir_path("timeline");
    let (code, err) = reproduce(&["--timeline", &path]);
    assert_eq!(code, 2, "{err}");
    assert!(err.contains("cannot write"), "{err}");
    let _ = std::fs::remove_file(blocker);
}

/// Flags of the removed resume, fault-isolation, fault-injection,
/// timeout, metrics, per-site profile and wall-column machinery are
/// unknown flags now.
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
    ] {
        let (code, err) = reproduce(flag);
        assert_eq!(code, 2, "{flag:?}: {err}");
        assert!(
            err.contains(&format!("unknown flag `{}`", flag[0])),
            "{err}"
        );
    }
}

/// The happy path: the timeline lands and the exit code is 0.
#[test]
fn writable_observability_outputs_succeed() {
    let dir = std::env::temp_dir().join(format!("reproduce-exit-ok-{}", std::process::id()));
    let timeline = dir.join("timeline.json");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let (code, err) = reproduce(&["--timeline", timeline.to_str().unwrap()]);
    assert_eq!(code, 0, "{err}");
    assert!(err.contains("[obs] timeline:"), "{err}");
    let trace = std::fs::read_to_string(&timeline).expect("timeline written");
    ade_obs::json::validate(&trace).expect("timeline is valid JSON");
    let _ = std::fs::remove_dir_all(&dir);
}
