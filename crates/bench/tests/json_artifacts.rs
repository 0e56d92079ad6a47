//! One round trip over every JSON artifact the toolchain emits — the
//! Chrome-trace timeline, pipeline trace events, the selection ledger
//! and metrics snapshots — validated with the shared `ade-obs` JSON
//! validator, so a malformed emitter fails here before any
//! external consumer sees it.

use ade_obs::{json, FieldValue, MetricsRegistry, Timeline, Tracer};

const SCALE: u32 = 4;

#[test]
fn timeline_chrome_trace_validates() {
    let tl = Timeline::new();
    let started = tl.now_ns();
    tl.complete(
        "BFS/ade",
        "cell",
        0,
        started,
        vec![("scale".to_string(), SCALE.to_string())],
    );
    json::validate(&tl.to_chrome_json()).expect("chrome trace is valid JSON");
}

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
    json::validate(&ade_obs::events_to_json(&tracer.events()))
        .expect("trace events are valid JSON");
}

/// The selection ledger a real ADE compile produces exports valid JSON
/// (schema v2) with one decision per keyed site.
#[test]
fn selection_ledger_validates() {
    let bench = ade_workloads::bench::benchmark_by_abbrev("BFS").expect("known benchmark");
    let mut module = (bench.build)(SCALE);
    let ledger = ade_workloads::Config::new(ade_workloads::ConfigKind::Ade)
        .compile(&mut module)
        .expect("ade runs the pass")
        .ledger;
    assert!(
        !ledger.decisions.is_empty(),
        "BFS has keyed selection sites"
    );
    let v = json::Value::parse(&ledger.to_json()).expect("selection ledger is valid JSON");
    assert_eq!(
        v.get("schema").and_then(json::Value::as_str),
        Some("ade-selection-ledger-v2")
    );
    let decisions = v
        .get("decisions")
        .and_then(json::Value::as_array)
        .expect("decisions");
    assert_eq!(decisions.len(), ledger.decisions.len());
}

/// Metrics snapshots validate, empty ones included.
#[test]
fn metrics_snapshot_validates() {
    let m = MetricsRegistry::enabled();
    m.add("requests_total", &[("cell", "1")], 3);
    m.gauge_max("queue_depth_hwm", &[], 7);
    json::validate(&m.snapshot().to_json()).expect("metrics snapshot is valid JSON");
    json::validate(&MetricsRegistry::disabled().snapshot().to_json())
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
    json::validate(&text).expect("metrics snapshot is valid JSON");
    assert!(
        text.contains("exec_backend_selected_total"),
        "backend instantiations counted: {text}"
    );
    assert!(text.contains("unboxed_seq"), "unboxed kind counted: {text}");
    assert!(text.contains("\\\"seq\\\""), "boxed kind counted: {text}");
    assert_eq!(text, snapshot(), "snapshot must be deterministic");
}
