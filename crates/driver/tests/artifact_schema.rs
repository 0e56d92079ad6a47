//! The JSON artifacts `adec` writes keep their schema: the metrics
//! snapshot (`--metrics`) and the raw trace events (`--trace-json`) of
//! one real run are parsed back and their exact key sequences checked,
//! so a change to how the files are written cannot silently rename,
//! drop or reorder a field.

use std::process::Command;

use ade_obs::json::Value;

/// Runs `adec --config ade --run` on the histogram sample with the
/// artifact `flag` pointed at a temp file, and returns the parsed file.
fn artifact(flag: &str) -> Value {
    let path = std::env::temp_dir().join(format!(
        "adec-schema-{}-{}.json",
        std::process::id(),
        flag.trim_start_matches('-')
    ));
    let sample = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/ir/histogram.memoir"
    );
    let out = Command::new(env!("CARGO_BIN_EXE_adec"))
        .args([
            "--config",
            "ade",
            "--run",
            flag,
            path.to_str().expect("utf-8 path"),
            sample,
        ])
        .output()
        .expect("adec runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).expect("artifact written");
    let _ = std::fs::remove_file(&path);
    Value::parse(&text).unwrap_or_else(|e| panic!("{flag} output is not JSON: {e}"))
}

fn keys(v: &Value) -> Vec<&str> {
    match v {
        Value::Object(entries) => entries.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

#[test]
fn metrics_snapshot_keys_are_pinned() {
    let snapshot = artifact("--metrics");
    assert_eq!(keys(&snapshot), ["schema", "metrics"]);
    assert_eq!(
        snapshot.get("schema").and_then(Value::as_str),
        Some("ade-metrics-v1")
    );
    let rows = snapshot
        .get("metrics")
        .and_then(Value::as_array)
        .expect("metrics array");
    assert!(!rows.is_empty(), "a run publishes metrics");
    for row in rows {
        assert_eq!(
            keys(row),
            ["id", "name", "labels", "type", "value"],
            "{row:?}"
        );
    }
}

#[test]
fn trace_event_keys_are_pinned() {
    let trace = artifact("--trace-json");
    let events = trace.as_array().expect("trace is an array of events");
    assert!(!events.is_empty(), "a traced compile records events");
    let mut span_ends = 0;
    for event in events {
        let expected: &[&str] = if event.get("kind").and_then(Value::as_str) == Some("end") {
            span_ends += 1;
            &["ts_ns", "kind", "cat", "name", "dur_ns", "args"]
        } else {
            &["ts_ns", "kind", "cat", "name", "args"]
        };
        assert_eq!(keys(event), expected, "{event:?}");
    }
    assert!(span_ends > 0, "the trace closes spans");
}
