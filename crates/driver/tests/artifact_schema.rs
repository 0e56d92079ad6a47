//! The JSON artifacts `adec` writes keep their schema: the metrics
//! snapshot (`--metrics`) and the raw trace events (`--trace-json`) of
//! one real run are parsed back and their exact key sequences checked,
//! so a change to how the files are written cannot silently rename,
//! drop or reorder a field. The full metrics snapshot of every sample
//! program under `memoir` and `ade` is pinned byte for byte.

use std::process::Command;

use ade_obs::json::Value;

/// The sample programs under `examples/ir`.
const SAMPLES: [&str; 4] = ["directives", "histogram", "literal_graph", "union_find"];

/// Runs `adec --config CONFIG --run EXTRA…` on the sample `name` with
/// the artifact `flag` pointed at a temp file, and returns the file's
/// text.
fn artifact_text(name: &str, config: &str, flag: &str, extra: &[&str]) -> String {
    let path = std::env::temp_dir().join(format!(
        "adec-schema-{}-{name}-{config}-{}.json",
        std::process::id(),
        flag.trim_start_matches('-')
    ));
    let sample = format!(
        "{}/../../examples/ir/{name}.memoir",
        env!("CARGO_MANIFEST_DIR")
    );
    let out = Command::new(env!("CARGO_BIN_EXE_adec"))
        .args(["--config", config, "--run"])
        .args(extra)
        .args([flag, path.to_str().expect("utf-8 path"), &sample])
        .output()
        .expect("adec runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).expect("artifact written");
    let _ = std::fs::remove_file(&path);
    text
}

/// The artifact `flag` of `adec --config ade --run` on the histogram
/// sample, parsed.
fn artifact(flag: &str) -> Value {
    let text = artifact_text("histogram", "ade", flag, &[]);
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

/// `adec --run --fuel 1000000 --metrics` of every sample under `memoir`
/// and `ade`, byte for byte: `tests/golden/adec_metrics.txt` holds one
/// `== NAME CONFIG` line and the snapshot per run.
#[test]
fn metrics_snapshots_are_pinned() {
    let mut actual = String::new();
    for name in SAMPLES {
        for config in ["memoir", "ade"] {
            actual.push_str(&format!("== {name} {config}\n"));
            actual.push_str(&artifact_text(
                name,
                config,
                "--metrics",
                &["--fuel", "1000000"],
            ));
        }
    }
    assert_eq!(
        actual,
        include_str!("golden/adec_metrics.txt"),
        "adec --metrics differs from tests/golden/adec_metrics.txt"
    );
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
