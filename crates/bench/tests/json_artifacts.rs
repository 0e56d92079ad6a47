//! One round trip over every JSON artifact the toolchain emits —
//! pipeline trace events and metrics snapshots — parsed back with the
//! shared `ade-obs` JSON reader, so a malformed emitter fails here
//! before any external consumer sees it.

use ade_obs::{json, FieldValue, MetricsRegistry, Tracer};

#[test]
fn pipeline_trace_events_validate() {
    let tracer = Tracer::enabled();
    {
        let _span = tracer.span("driver", "compile");
        tracer
            .event("ade", "selection")
            .field("backend", FieldValue::from("bitset"))
            .emit();
    }
    json::Value::parse(&ade_obs::events_to_json(&tracer.events()))
        .expect("trace events are valid JSON");
}

/// Metrics snapshots validate, empty ones included.
#[test]
fn metrics_snapshot_validates() {
    let m = MetricsRegistry::enabled();
    m.add("requests_total", &[("cell", "1")], 3);
    m.gauge_max("queue_depth_hwm", &[], 7);
    json::Value::parse(&m.snapshot().to_json()).expect("metrics snapshot is valid JSON");
    json::Value::parse(&MetricsRegistry::disabled().snapshot().to_json())
        .expect("empty snapshot is valid JSON");
}

/// The interpreter's metrics snapshot counts one backend instantiation
/// per collection by kind (`exec_backend_selected_total{kind=…}`),
/// distinguishing unboxed scalar storage from boxed fallbacks, and the
/// snapshot is byte-deterministic: two identical runs render identical
/// JSON.
#[test]
fn backend_selection_metrics_are_deterministic_by_kind() {
    use ade_interp::{ExecConfig, Interpreter};
    use ade_ir::builder::FunctionBuilder;
    use ade_ir::{BinOp, Module, Type};

    let build = || {
        let mut b = FunctionBuilder::new("main", &[], Type::Void);
        let seq = b.new_collection(Type::seq(Type::U64));
        let names = b.new_collection(Type::seq(Type::Str));
        let lo = b.const_u64(0);
        let hi = b.const_u64(64);
        let seq = b.for_range(lo, hi, &[seq], |b, i, c| vec![b.push(c[0], i)])[0];
        let zero = b.const_u64(0);
        let sum = b.for_each(seq, &[zero], |b, _i, v, c| {
            vec![b.bin(BinOp::Add, c[0], v.expect("bound"))]
        })[0];
        let n = b.size(names);
        b.print(&[sum, n]);
        b.ret_void();
        let mut module = Module::new();
        module.add_function(b.finish());
        module
    };

    let snapshot = || {
        let m = MetricsRegistry::enabled();
        let config = ExecConfig {
            metrics: m.clone(),
            ..ExecConfig::default()
        };
        Interpreter::new(&build(), config)
            .run("main")
            .expect("kernel runs");
        m.snapshot().to_json()
    };

    let text = snapshot();
    let parsed = json::Value::parse(&text).expect("metrics snapshot is valid JSON");
    let rows = parsed
        .get("metrics")
        .and_then(json::Value::as_array)
        .expect("metrics array");
    let count = |id: &str| {
        rows.iter()
            .find(|row| row.get("id").and_then(json::Value::as_str) == Some(id))
            .and_then(|row| row.get("value"))
            .and_then(json::Value::as_u64)
    };
    // Two collections: the unboxed `seq<u64>` and the boxed `seq<str>`.
    assert_eq!(
        count(r#"exec_backend_selected_total{kind="unboxed_seq"}"#),
        Some(1),
        "unboxed kind counted: {text}"
    );
    assert_eq!(
        count(r#"exec_backend_selected_total{kind="seq"}"#),
        Some(1),
        "boxed kind counted: {text}"
    );
    assert_eq!(text, snapshot(), "snapshot must be deterministic");
}
