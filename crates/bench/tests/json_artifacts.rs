//! Pipeline trace events, parsed back with the shared `ade-obs` JSON
//! reader so a malformed emitter fails here before any external consumer
//! sees it, and the run-time counts behind `adec --metrics` (whose JSON
//! the driver's tests pin).

use ade_obs::{json, FieldValue, Tracer};

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

/// A run counts one backend instantiation per collection by kind
/// ([`ade_interp::RunCounts::backends`], the
/// `exec_backend_selected_total{kind=…}` rows of `adec --metrics`),
/// distinguishing unboxed scalar storage from boxed fallbacks, and two
/// identical runs count the same.
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

    let counts = || {
        Interpreter::new(&build(), ExecConfig::default())
            .run("main")
            .expect("kernel runs")
            .counts
    };

    let first = counts();
    // Two collections: the unboxed `seq<u64>` and the boxed `seq<str>`.
    assert_eq!(
        first.backends.get("unboxed_seq"),
        Some(&1),
        "unboxed kind counted: {first:?}"
    );
    assert_eq!(
        first.backends.get("seq"),
        Some(&1),
        "boxed kind counted: {first:?}"
    );
    assert_eq!(first, counts(), "counts must be deterministic");
}
