//! The paper's §I motivating example: find and print all unique items in
//! an array of strings.
//!
//! ADE creates the enumeration `{0→"foo", 1→"bar", ...}`, replaces the
//! strings in the array with identifiers, turns the `Set<str>` into a
//! bitset, and decodes only at the `print` — exactly the manual
//! transformation the paper's introduction walks through, performed
//! automatically.
//!
//! ```sh
//! cargo run --example string_dedup
//! ```

use ade::ade::{run_ade, AdeOptions};
use ade::interp::{ExecConfig, Interpreter};
use ade::ir::builder::FunctionBuilder;
use ade::ir::{Module, Type};

fn dedup_module(items: &[&str]) -> Module {
    let mut b = FunctionBuilder::new("main", &[], Type::Void);

    // array := ["foo", "bar", "foo", ...]
    let array = {
        let mut seq = b.new_collection(Type::seq(Type::Str));
        for s in items {
            let v = b.const_str(s);
            let n = b.size(seq);
            seq = b.insert_at(seq, ade::ir::Scalar::Value(n), v);
        }
        seq
    };

    // for v in array: if not set.has(v): set.insert(v); print(v)
    let set = b.new_collection(Type::set(Type::Str));
    b.for_each(array, &[set], |b, _i, v, carried| {
        let v = v.expect("sequence iteration binds elements");
        let seen = b.has(carried[0], v);
        let fresh = b.not(seen);

        b.if_else(
            fresh,
            |b| {
                let s = b.insert(carried[0], v);
                b.print(&[v]);
                vec![s]
            },
            |_b| vec![carried[0]],
        )
    });
    b.ret_void();

    let mut module = Module::new();
    module.add_function(b.finish());
    module
}

fn main() {
    let items = ["foo", "bar", "foo", "baz", "bar", "foo", "qux"];

    let baseline_module = dedup_module(&items);
    let baseline = Interpreter::new(&baseline_module, ExecConfig::default())
        .run("main")
        .expect("baseline runs");

    let mut module = dedup_module(&items);
    run_ade(&mut module, &AdeOptions::default());
    println!("transformed IR:\n{}", ade::ir::print::print_module(&module));

    let transformed = Interpreter::new(&module, ExecConfig::default())
        .run("main")
        .expect("transformed runs");
    assert_eq!(baseline.output, transformed.output);
    println!(
        "unique items (in first-seen order):\n{}",
        transformed.output
    );
    println!(
        "sparse accesses {} -> {} (set probes now hit a bitset)",
        baseline.stats.totals().sparse_accesses(),
        transformed.stats.totals().sparse_accesses(),
    );
}
