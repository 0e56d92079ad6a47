//! Quickstart: the paper's Listing 1 → Listing 2 transformation.
//!
//! Builds the histogram program from the paper's §III-B, runs it as-is
//! (the MEMOIR baseline), applies Automatic Data Enumeration, prints its
//! candidate and selection decisions (trace events) and the transformed
//! IR, and shows the sparse→dense access shift.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use ade::ade::{run_ade_traced, AdeOptions};
use ade::interp::{ExecConfig, Interpreter};
use ade::ir::builder::FunctionBuilder;
use ade::ir::{Module, Type};

fn histogram_module() -> Module {
    let mut b = FunctionBuilder::new("main", &[], Type::Void);

    // %input := [0.5, 1.5, 0.5, 2.5, 1.5, 0.5, ...]
    let input = b.new_collection(Type::seq(Type::F64));
    let input = {
        let mut seq = input;
        for i in 0..600u64 {
            let v = b.const_f64((i % 7) as f64 + 0.5);
            let n = b.size(seq);
            seq = b.insert_at(seq, ade::ir::Scalar::Value(n), v);
        }
        seq
    };

    // Listing 1: %hist := new Map<f64, u64>; count every element.
    let hist = b.new_collection(Type::map(Type::F64, Type::U64));
    let hist = b.for_each(input, &[hist], |b, _i, val, carried| {
        let val = val.expect("sequence iteration binds elements");
        let h = carried[0];
        let cond = b.has(h, val);
        let zero = b.const_u64(0);
        let r = b.if_else(
            cond,
            |b| {
                let f = b.read(h, val);
                vec![h, f]
            },
            |b| {
                let h1 = b.insert(h, val);
                vec![h1, zero]
            },
        );
        let one = b.const_u64(1);
        let f1 = b.add(r[1], one);
        vec![b.write(r[0], val, f1)]
    })[0];

    // Print one count so configurations can be compared.
    let probe = b.const_f64(3.5);
    let count = b.read(hist, probe);
    b.print(&[count]);
    b.ret_void();

    let mut module = Module::new();
    module.add_function(b.finish());
    module
}

fn main() {
    // 1. The baseline: hash map keyed by floating-point values.
    let baseline_module = histogram_module();
    let baseline = Interpreter::new(&baseline_module, ExecConfig::default())
        .run("main")
        .expect("baseline runs");
    println!("baseline output:  {}", baseline.output.trim());

    // 2. Automatic data enumeration. The tracer's events are the pass's
    //    record of what it decided: one `translations` event per
    //    candidate, one `choice` event per selected collection.
    let mut module = histogram_module();
    let tracer = ade_obs::Tracer::enabled();
    let report = run_ade_traced(&mut module, &AdeOptions::default(), &tracer);
    let decisions: Vec<_> = tracer
        .events()
        .into_iter()
        .filter(|e| matches!(e.name.as_str(), "translations" | "choice"))
        .collect();
    println!(
        "ADE created {} enumeration(s); decisions:\n{}",
        report.enums_created,
        ade_obs::render_events(&decisions, false).trim_end()
    );
    println!(
        "\ntransformed IR:\n{}",
        ade::ir::print::print_module(&module)
    );

    let ade_run = Interpreter::new(&module, ExecConfig::default())
        .run("main")
        .expect("transformed program runs");
    println!("ADE output:       {}", ade_run.output.trim());
    assert_eq!(
        baseline.output, ade_run.output,
        "behavior must be preserved"
    );

    // 3. The point of it all: sparse accesses become dense.
    let before = baseline.stats.totals();
    let after = ade_run.stats.totals();
    println!(
        "\nsparse accesses: {} -> {}\ndense accesses:  {} -> {}",
        before.sparse_accesses(),
        after.sparse_accesses(),
        before.dense_accesses(),
        after.dense_accesses(),
    );
}
