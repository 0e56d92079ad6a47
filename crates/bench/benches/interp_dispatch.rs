//! Interpreter dispatch microbenchmarks: wall time of the pre-decoded
//! execution loop on small kernels that isolate one dispatch shape each
//! (scalar arithmetic, set churn, map read/write, seq push + sum, dense
//! read-modify-write, data-dependent branching, sequence filter-sum,
//! set copy and probe loops).
//!
//! Unlike `collection_ops` (which times the collection library
//! natively), this times the *interpreter* end to end, so it is a
//! diagnostic for the decoded instruction stream, the borrow-based
//! operand path and loop plans. It is
//! not the headline: `e2e_bench` measures the paper programs. Every
//! kernel runs on the reference decode and the default one, once each
//! per rep, in turns; results go to `BENCH_interp.json` at the
//! workspace root: per-kernel median wall seconds and logical ops/sec
//! per decode, the default-over-reference speedup as the median over
//! reps of each rep's paired ratio with its quartiles, and the speedups'
//! geometric mean across kernels. A paired ratio cancels the host's
//! drift between reps, which moved a best-of-reps ratio by up to 2×
//! between back-to-back runs on a shared two-core host.
//!
//! Self-timed (`harness = false`): run via `cargo bench --bench
//! interp_dispatch`.

use std::time::Instant;

use ade_interp::{DecodeOptions, DecodedModule, ExecConfig, Interpreter};
use ade_ir::builder::FunctionBuilder;
use ade_ir::{MapSel, Module, Type};
use ade_obs::json::Value;

/// Iteration count per kernel — large enough that dispatch dominates
/// the fixed per-run setup (decode + frame allocation).
const N: u64 = 200_000;
/// Timed reps per kernel: one run of each decode per rep.
const REPS: usize = 15;

/// The two decodes ([`DecodeOptions::reference`]): the plain stream and
/// the production default (loop plans).
const CONFIGS: [(&str, bool); 2] = [("reference", true), ("default", false)];

struct Kernel {
    name: &'static str,
    /// Logical operations one execution performs (for ops/sec).
    ops: u64,
    module: Module,
}

/// An eleven-operation wrapping-arithmetic chain per iteration — pure
/// scalar dispatch, no collections: the floor of per-instruction
/// interpreter cost, and a plan of scalar ops only.
fn arith_forrange() -> Kernel {
    let mut b = FunctionBuilder::new("main", &[], Type::Void);
    let lo = b.const_u64(0);
    let hi = b.const_u64(N);
    let zero = b.const_u64(0);
    let acc = b.for_range(lo, hi, &[zero], |b, i, c| {
        let three = b.const_u64(3);
        let five = b.const_u64(5);
        let v = b.add(c[0], i);
        let v = b.mul(v, three);
        let v = b.sub(v, i);
        let v = b.mul(v, five);
        let v = b.add(v, three);
        let v = b.sub(v, c[0]);
        let v = b.mul(v, three);
        let v = b.add(v, i);
        let v = b.sub(v, five);
        let v = b.mul(v, three);
        vec![b.add(v, i)]
    })[0];
    b.print(&[acc]);
    b.ret_void();
    let mut module = Module::new();
    module.add_function(b.finish());
    Kernel {
        name: "arith_forrange",
        ops: N * 11, // arithmetic ops per iteration
        module,
    }
}

/// Insert, probe, and conditionally remove against one hash set — the
/// operand-resolution path for collection ops plus branching (a plan
/// with `has`-guarded `if` arms over unboxed hash storage).
fn set_churn() -> Kernel {
    let mut b = FunctionBuilder::new("main", &[], Type::Void);
    let set = b.new_collection(Type::set(Type::U64));
    let lo = b.const_u64(0);
    let hi = b.const_u64(N);
    let set = b.for_range(lo, hi, &[set], |b, i, c| {
        let seven = b.const_u64(7);
        let three = b.const_u64(3);
        let k = b.mul(i, seven);
        let s = b.insert(c[0], k);
        let probe = b.add(k, seven);
        let hit = b.has(s, probe);
        let s = b.if_else(hit, |b| vec![b.remove(s, probe)], |_b| vec![s])[0];
        let k2 = b.add(k, three);
        let s = b.insert(s, k2);
        let probe2 = b.add(k2, seven);
        let hit2 = b.has(s, probe2);
        b.if_else(hit2, |b| vec![b.remove(s, probe2)], |_b| vec![s])
    })[0];
    let size = b.size(set);
    b.print(&[size]);
    b.ret_void();
    let mut module = Module::new();
    module.add_function(b.finish());
    Kernel {
        name: "set_churn",
        ops: N * 4, // 2 inserts + 2 probes (removes are data-dependent)
        module,
    }
}

/// Write then read back every key of a map — the `Read`/`Write`
/// instruction pair that dominates the paper's map-heavy benchmarks
/// (plans of `read`/`write` ops over unboxed hash storage).
fn map_read_write() -> Kernel {
    let mut b = FunctionBuilder::new("main", &[], Type::Void);
    let map = b.new_collection(Type::map(Type::U64, Type::U64));
    let lo = b.const_u64(0);
    let hi = b.const_u64(N);
    let shift = b.const_u64(N);
    let map = b.for_range(lo, hi, &[map], |b, i, c| {
        let one = b.const_u64(1);
        let v = b.add(i, one);
        let m = b.write(c[0], i, v);
        let k2 = b.add(i, shift);
        let v2 = b.add(k2, one);
        vec![b.write(m, k2, v2)]
    })[0];
    let zero = b.const_u64(0);
    let sum = b.for_range(lo, hi, &[zero], |b, i, c| {
        let v = b.read(map, i);
        let acc = b.add(c[0], v);
        let k2 = b.add(i, shift);
        let v2 = b.read(map, k2);
        vec![b.add(acc, v2)]
    })[0];
    b.print(&[sum]);
    b.ret_void();
    let mut module = Module::new();
    module.add_function(b.finish());
    Kernel {
        name: "map_read_write",
        ops: N * 4, // two writes + two reads per index
        module,
    }
}

/// Push 2N elements into a sequence, then sum it with per-element
/// indexed reads. The sum loop reads by index (a `read`/`add` plan)
/// instead of `for_each`, whose snapshot loop iterates natively and
/// would hide the per-element read.
fn seq_push_sum() -> Kernel {
    let mut b = FunctionBuilder::new("main", &[], Type::Void);
    let seq = b.new_collection(Type::seq(Type::U64));
    let lo = b.const_u64(0);
    let hi = b.const_u64(N);
    let shift = b.const_u64(N);
    let seq = b.for_range(lo, hi, &[seq], |b, i, c| {
        let s = b.push(c[0], i);
        let v2 = b.add(i, shift);
        vec![b.push(s, v2)]
    })[0];
    let hi2 = b.const_u64(2 * N);
    let zero = b.const_u64(0);
    let sum = b.for_range(lo, hi2, &[zero], |b, i, c| {
        let v = b.read(seq, i);
        vec![b.add(c[0], v)]
    })[0];
    b.print(&[sum]);
    b.ret_void();
    let mut module = Module::new();
    module.add_function(b.finish());
    Kernel {
        name: "seq_push_sum",
        ops: N * 4, // two pushes per build step + 2N summed reads
        module,
    }
}

/// Increment every slot of a dense map in place — the read-modify-write
/// triple ADE produces for post-enumeration histograms. The loop body
/// is exactly `read`/`add`/`write` (the increment constant is hoisted
/// out), so it exercises a `read`/`add`/`write` plan over the unboxed
/// `BitMap`.
fn bitmap_rmw() -> Kernel {
    let mut b = FunctionBuilder::new("main", &[], Type::Void);
    let map = b.new_collection(Type::map_with(Type::Idx, Type::U64, MapSel::Bit));
    let lo = b.const_u64(0);
    let hi = b.const_u64(N);
    let zero = b.const_u64(0);
    let shift = b.const_u64(N);
    let map = b.for_range(lo, hi, &[map], |b, i, c| {
        let k = b.cast(i, Type::Idx);
        let m = b.write(c[0], k, zero);
        let j = b.add(i, shift);
        let k2 = b.cast(j, Type::Idx);
        vec![b.write(m, k2, zero)]
    })[0];
    let one = b.const_u64(1);
    let map = b.for_range(lo, hi, &[map], |b, i, c| {
        let k = b.cast(i, Type::Idx);
        let v = b.read(c[0], k);
        let v1 = b.add(v, one);
        let m = b.write(c[0], k, v1);
        let j = b.add(i, shift);
        let k2 = b.cast(j, Type::Idx);
        let w = b.read(m, k2);
        let w1 = b.add(w, one);
        vec![b.write(m, k2, w1)]
    })[0];
    let size = b.size(map);
    b.print(&[size]);
    b.ret_void();
    let mut module = Module::new();
    module.add_function(b.finish());
    Kernel {
        name: "bitmap_rmw",
        ops: N * 6, // per index pair: 2 populate writes + 2 rmw triples
        module,
    }
}

/// Classify every index against a threshold and accumulate through one
/// of two arithmetic arms — the data-dependent-branch shape ADE leaves
/// behind after enumeration splits a keyed lookup into range classes.
/// The loop body is exactly `cmp`/`if`, and each arm is a scalar run
/// that yields straight into the branch destinations.
fn branchy_classify() -> Kernel {
    let mut b = FunctionBuilder::new("main", &[], Type::Void);
    let lo = b.const_u64(0);
    let hi = b.const_u64(N);
    let zero = b.const_u64(0);
    let half = b.const_u64(N / 2);
    let three = b.const_u64(3);
    let five = b.const_u64(5);
    let acc = b.for_range(lo, hi, &[zero], |b, i, c| {
        let small = b.lt(i, half);
        b.if_else(
            small,
            |b| {
                let t = b.mul(i, three);
                vec![b.add(c[0], t)]
            },
            |b| {
                let t = b.mul(i, five);
                vec![b.sub(c[0], t)]
            },
        )
    })[0];
    b.print(&[acc]);
    b.ret_void();
    let mut module = Module::new();
    module.add_function(b.finish());
    Kernel {
        name: "branchy_classify",
        ops: N * 3, // compare + two arithmetic ops in the taken arm
        module,
    }
}

/// Build a sequence with `for_range` pushes, then filter-sum it with a
/// `foreach` whose body is exactly `cmp`/`if`(add | pass) — a bulk plan
/// with one branch. Half the elements pass the threshold, so the branch
/// is unpredictable.
fn seq_filter_sum() -> Kernel {
    let mut b = FunctionBuilder::new("main", &[], Type::Void);
    let seq = b.new_collection(Type::seq(Type::U64));
    let lo = b.const_u64(0);
    let hi = b.const_u64(2 * N);
    let seq = b.for_range(lo, hi, &[seq], |b, i, c| {
        let three = b.const_u64(3);
        let v = b.mul(i, three);
        vec![b.push(c[0], v)]
    })[0];
    let zero = b.const_u64(0);
    let threshold = b.const_u64(3 * N); // half the values exceed it
    let sum = b.for_each(seq, &[zero], |b, _i, v, c| {
        let v = v.expect("sequence iteration binds values");
        let big = b.lt(threshold, v);
        b.if_else(big, |b| vec![b.add(c[0], v)], |_b| vec![c[0]])
    })[0];
    b.print(&[sum]);
    b.ret_void();
    let mut module = Module::new();
    module.add_function(b.finish());
    Kernel {
        name: "seq_filter_sum",
        ops: N * 6, // 2N build pushes + 2N compares + ~N taken-arm adds
        module,
    }
}

/// Copy a sequence into a hash set with one `foreach`, then count how
/// many elements of a second sequence are members with another — bulk
/// plans that insert and probe the hash backend without per-element
/// dispatch of `has`/`cast`/`add` (~50% hit rate).
fn set_bulk_probe() -> Kernel {
    let mut b = FunctionBuilder::new("main", &[], Type::Void);
    let evens = b.new_collection(Type::seq(Type::U64));
    let trips = b.new_collection(Type::seq(Type::U64));
    let lo = b.const_u64(0);
    let hi = b.const_u64(N);
    let built = b.for_range(lo, hi, &[evens, trips], |b, i, c| {
        let two = b.const_u64(2);
        let three = b.const_u64(3);
        let va = b.mul(i, two);
        let s0 = b.push(c[0], va);
        let vb = b.mul(i, three);
        let s1 = b.push(c[1], vb);
        vec![s0, s1]
    });
    let (evens, trips) = (built[0], built[1]);
    let set = b.new_collection(Type::set(Type::U64));
    let set = b.for_each(evens, &[set], |b, _i, v, c| {
        let v = v.expect("sequence iteration binds values");
        vec![b.insert(c[0], v)]
    })[0];
    let zero = b.const_u64(0);
    let hits = b.for_each(trips, &[zero], |b, _i, v, c| {
        let v = v.expect("sequence iteration binds values");
        let h = b.has(set, v);
        let hu = b.cast(h, Type::U64);
        vec![b.add(c[0], hu)]
    })[0];
    b.print(&[hits]);
    b.ret_void();
    let mut module = Module::new();
    module.add_function(b.finish());
    Kernel {
        name: "set_bulk_probe",
        ops: N * 4, // 2 build pushes + 1 set insert + 1 probe per index
        module,
    }
}

fn run_once(k: &Kernel, reference: bool) -> usize {
    let decoded = DecodedModule::decode_with(&k.module, &DecodeOptions { reference });
    Interpreter::new(&k.module, ExecConfig::default())
        .run_decoded(&decoded, "main")
        .unwrap_or_else(|e| panic!("[{}] run: {e}", k.name))
        .output
        .len()
}

/// Each rep's wall seconds for every config: one timed run per config
/// per rep, the first config alternating between reps, so that slow
/// drift (frequency scaling, co-tenant noise) hits both runs of a rep
/// alike.
fn time_kernel(k: &Kernel) -> [Vec<f64>; 2] {
    for (_, reference) in CONFIGS {
        run_once(k, reference); // warm-up (decode, allocator, caches)
    }
    let mut walls = [Vec::with_capacity(REPS), Vec::with_capacity(REPS)];
    for rep in 0..REPS {
        for turn in 0..CONFIGS.len() {
            let slot = (turn + rep) % CONFIGS.len();
            let t = Instant::now();
            std::hint::black_box(run_once(k, CONFIGS[slot].1));
            walls[slot].push(t.elapsed().as_secs_f64());
        }
    }
    walls
}

/// The lower quartile, median and upper quartile of `v` (nearest rank).
fn quartiles(mut v: Vec<f64>) -> [f64; 3] {
    v.sort_by(f64::total_cmp);
    [1, 2, 3].map(|q| v[(v.len() - 1) * q / 4])
}

/// `v` rounded to `decimals` places, as a JSON number.
fn rounded(v: f64, decimals: i32) -> Value {
    let scale = 10f64.powi(decimals);
    Value::from((v * scale).round() / scale)
}

fn main() {
    // `cargo bench` passes harness flags (e.g. `--bench`); ignore them.
    let kernels = [
        arith_forrange(),
        set_churn(),
        map_read_write(),
        seq_push_sum(),
        bitmap_rmw(),
        branchy_classify(),
        seq_filter_sum(),
        set_bulk_probe(),
    ];
    let mut rows = Vec::new();
    let mut log_speedup_sum = 0.0;
    for k in &kernels {
        ade_ir::verify::verify_module(&k.module)
            .unwrap_or_else(|e| panic!("[{}] verify: {e}", k.name));
        let reps = time_kernel(k);
        let mut walls = Vec::new();
        for (slot, (cname, _)) in CONFIGS.into_iter().enumerate() {
            let wall = quartiles(reps[slot].clone())[1];
            println!(
                "{:>16} {:>14}  {:>12.1} ops/s  {:.4} s",
                k.name,
                cname,
                k.ops as f64 / wall,
                wall
            );
            walls.push((cname, wall));
        }
        let ratios = reps[0].iter().zip(&reps[1]).map(|(r, d)| r / d).collect();
        let [q1, speedup, q3] = quartiles(ratios);
        log_speedup_sum += speedup.ln();
        println!(
            "{:>16} {:>14}  {speedup:>11.2}x  [{q1:.2}-{q3:.2}]",
            k.name, "speedup"
        );
        let per_config =
            |f: &dyn Fn(f64) -> Value| Value::object(walls.iter().map(|&(c, w)| (c, f(w))));
        rows.push(Value::object([
            ("kernel", k.name.into()),
            ("ops", k.ops.into()),
            ("wall_seconds", per_config(&|w| rounded(w, 6))),
            ("ops_per_sec", per_config(&|w| rounded(k.ops as f64 / w, 1))),
            ("speedup", rounded(speedup, 3)),
            (
                "speedup_quartiles",
                Value::Array(vec![rounded(q1, 3), rounded(q3, 3)]),
            ),
        ]));
    }
    let geomean = (log_speedup_sum / kernels.len() as f64).exp();
    println!("{:>16} {:>14}  {geomean:>11.2}x", "GEOMEAN", "default");
    let configs = CONFIGS.iter().map(|&(c, _)| c.into()).collect();
    let json = Value::object([
        ("iterations", N.into()),
        ("reps", (REPS as u64).into()),
        ("configs", configs),
        ("kernels", Value::Array(rows)),
        ("geomean_speedup", rounded(geomean, 3)),
    ]);
    // Anchor to the workspace root (cargo runs benches from the package
    // dir) so the committed snapshot and the CI gate agree on the path.
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_interp.json");
    std::fs::write(&out, format!("{json}\n")).expect("write BENCH_interp.json");
    println!("wrote {}", out.display());
}
