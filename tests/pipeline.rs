//! Cross-crate integration tests: the full pipeline from IR text through
//! the ADE pass to execution, spanning every workspace crate.

use ade::ade::{run_ade, AdeOptions};
use ade::interp::{DecodeOptions, DecodedModule, ExecConfig, Interpreter};
use ade::ir::parse::parse_module;
use ade::ir::print::print_module;
use ade::workloads::{Config, ConfigKind};

/// The paper's Listing 1, textual, through the whole pipeline.
#[test]
fn listing1_round_trip_transform_execute() {
    let text = r#"
fn @main() -> void {
  %input = new Seq<f64>
  %lo = const 0u64
  %hi = const 100u64
  %filled = forrange %lo, %hi carry(%input) as (%i: u64, %s: Seq<f64>) {
    %five = const 5u64
    %m = rem %i, %five
    %v = cast %m to f64
    %n = size %s
    %s1 = insert %s, %n, %v
    yield %s1
  }
  %hist = new Map<f64, u64>
  %out = foreach %filled carry(%hist) as (%i: u64, %val: f64, %h: Map<f64, u64>) {
    %cond = has %h, %val
    %h2, %freq = if %cond then {
      %f = read %h, %val
      yield %h, %f
    } else {
      %h1 = insert %h, %val
      %zero = const 0u64
      yield %h1, %zero
    }
    %one = const 1u64
    %freq1 = add %freq, %one
    %h3 = write %h2, %val, %freq1
    yield %h3
  }
  %probe = const 3f64
  %count = read %out, %probe
  print %count
  ret
}
"#;
    // Parse → print → parse: stable.
    let module = parse_module(text).expect("parses");
    let printed = print_module(&module);
    let reparsed = parse_module(&printed).expect("reparses");
    assert_eq!(printed, print_module(&reparsed));

    // Execute baseline.
    let baseline = Interpreter::new(&module, ExecConfig::default())
        .run("main")
        .expect("runs");
    assert_eq!(baseline.output, "20\n");

    // Transform, verify, execute: same output, denser accesses.
    let mut transformed = parse_module(text).expect("parses");
    let report = run_ade(&mut transformed, &AdeOptions::default());
    assert_eq!(report.enums_created, 1);
    ade::ir::verify::verify_module(&transformed).expect("verifies");
    let ade_run = Interpreter::new(&transformed, ExecConfig::default())
        .run("main")
        .expect("runs");
    assert_eq!(ade_run.output, "20\n");
    assert!(ade_run.stats.totals().sparse_accesses() < baseline.stats.totals().sparse_accesses());

    // The transformed program must mention the enumeration ops.
    let out = print_module(&transformed);
    assert!(out.contains("enumadd e0"), "{out}");
    assert!(out.contains("Map{Bit}<idx, u64>"), "{out}");
}

/// A literal input whose elements key an enumerated map is retyped in
/// place: `literal u64 [...] enumadd e0`, a `Seq<idx>`, with no `enumadd`
/// instruction left, and the program prints what the baseline prints.
#[test]
fn literal_inputs_add_their_elements_to_the_enumeration() {
    let text = include_str!("../examples/ir/literal_graph.memoir");
    let baseline = Interpreter::new(&parse_module(text).expect("parses"), ExecConfig::default())
        .run("main")
        .expect("runs");
    let mut module = parse_module(text).expect("parses");
    let report = run_ade(&mut module, &AdeOptions::default());
    assert_eq!(report.enums_created, 1);
    ade::ir::verify::verify_module(&module).expect("verifies");
    let printed = print_module(&module);
    assert!(
        printed.contains("%nodes = literal u64 [10, 20, 30, 40, 50] enumadd e0\n"),
        "{printed}"
    );
    assert!(!printed.contains("= enumadd"), "{printed}");
    let ade_run = Interpreter::new(&module, ExecConfig::default())
        .run("main")
        .expect("runs");
    assert_eq!(ade_run.output, baseline.output);
    assert_eq!(ade_run.output, "ten 2\n");
}

/// Printed-IR fingerprints of every benchmark × configuration at scale 4:
/// one `ABBREV config lines fnv1a64` row per compiled module.
const GOLDEN_IR: &str = include_str!("golden/compiled_ir_scale4.txt");

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `text` with each function's numbered values (`%12`) renamed in order
/// of first appearance, so two printings of one program compare equal
/// whatever their value ids.
fn renumbered(text: &str) -> String {
    let mut ids: std::collections::HashMap<String, usize> = Default::default();
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        if line.starts_with("fn @") {
            ids.clear();
        }
        let mut rest = line;
        while let Some(at) = rest.find('%') {
            out.push_str(&rest[..=at]);
            rest = &rest[at + 1..];
            let digits = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            if digits > 0 {
                let next = ids.len();
                let n = *ids.entry(rest[..digits].to_string()).or_insert(next);
                out.push_str(&format!("v{n}"));
                rest = &rest[digits..];
            }
        }
        out.push_str(rest);
        out.push('\n');
    }
    out
}

/// Panics unless `module` uses what it declares: every `enum eN` is
/// named by a live instruction, and every `$ade` clone is reached by
/// calls from a function that is not a clone.
fn assert_no_dead_enums_or_clones(module: &ade::ir::Module, tag: &str) {
    use ade::ir::InstKind;
    let mut named = vec![false; module.enums.len()];
    let mut reached: Vec<bool> = module
        .funcs
        .iter()
        .map(|f| !f.name.ends_with("$ade"))
        .collect();
    let mut work: Vec<usize> = (0..module.funcs.len()).filter(|&f| reached[f]).collect();
    while let Some(f) = work.pop() {
        let func = &module.funcs[f];
        for inst in func.all_insts() {
            match func.inst(inst).kind {
                InstKind::Enc(e)
                | InstKind::Dec(e)
                | InstKind::EnumAdd(e)
                | InstKind::Literal {
                    enumeration: Some(e),
                    ..
                } => named[e.index()] = true,
                InstKind::Call(callee) if !reached[callee.index()] => {
                    reached[callee.index()] = true;
                    work.push(callee.index());
                }
                _ => {}
            }
        }
    }
    for (e, decl) in module.enums.iter().enumerate() {
        assert!(
            named[e],
            "{tag} declares enum e{e} ({}) but never names it",
            decl.name
        );
    }
    for (func, reached) in module.funcs.iter().zip(reached) {
        assert!(reached, "{tag} keeps the uncalled clone @{}", func.name);
    }
}

/// Every artifact configuration agrees on every benchmark's output, and
/// every cell's default decode (loop plans) matches the
/// reference decode on output, per-phase statistics and peak memory.
/// Each compiled module's printed IR must also match its row in
/// `tests/golden/compiled_ir_scale4.txt`, so a compile-time rewrite of
/// the ADE pass cannot change the code it produces unnoticed, and must
/// declare no enumeration and keep no clone that it does not use.
#[test]
fn all_configurations_agree_on_all_benchmarks() {
    let mut fingerprints = String::new();
    for bench in ade::workloads::all_benchmarks() {
        let mut reference: Option<String> = None;
        for kind in ConfigKind::ALL {
            // Nested-sparse is PTA-specific in the artifact; skip the
            // general sweep for other benchmarks like the artifact does.
            if kind == ConfigKind::AdeNestedSparse && bench.abbrev != "PTA" {
                continue;
            }
            let config = Config::new(kind);
            let mut module = (bench.build)(4);
            config.compile(&mut module);
            ade::ir::verify::verify_module(&module)
                .unwrap_or_else(|e| panic!("[{} {}] {e}", bench.abbrev, kind.name()));
            let text = print_module(&module);
            // The parser types the compiled IR by the rule ADE's type
            // repair applied: the text reparses, prints the same up to
            // value numbering and verifies.
            let tag = format!("[{} {}]", bench.abbrev, kind.name());
            assert_no_dead_enums_or_clones(&module, &tag);
            let reparsed = parse_module(&text).unwrap_or_else(|e| panic!("{tag} reparse: {e}"));
            assert_eq!(
                renumbered(&print_module(&reparsed)),
                renumbered(&text),
                "{tag}"
            );
            ade::ir::verify::verify_module(&reparsed)
                .unwrap_or_else(|e| panic!("{tag} reparsed: {e}"));
            fingerprints.push_str(&format!(
                "{} {} {} {:016x}\n",
                bench.abbrev,
                kind.name(),
                text.lines().count(),
                fnv1a64(text.as_bytes())
            ));
            let run = |reference: bool| {
                let decoded = DecodedModule::decode_with(&module, &DecodeOptions { reference });
                Interpreter::new(&module, config.exec.clone())
                    .run_decoded(&decoded, "main")
                    .unwrap_or_else(|e| panic!("{tag} reference={reference}: {e}"))
            };
            let outcome = run(false);
            let plain = run(true);
            assert_eq!(
                plain.output, outcome.output,
                "{tag} reference output diverged"
            );
            assert_eq!(
                plain.stats.per_phase, outcome.stats.per_phase,
                "{tag} reference op counts diverged"
            );
            assert_eq!(
                plain.stats.peak_bytes, outcome.stats.peak_bytes,
                "{tag} reference peak memory diverged"
            );
            match &reference {
                None => reference = Some(outcome.output),
                Some(r) => assert_eq!(
                    &outcome.output,
                    r,
                    "[{} {}] diverged",
                    bench.abbrev,
                    kind.name()
                ),
            }
        }
    }
    let golden: Vec<&str> = GOLDEN_IR
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let actual: Vec<&str> = fingerprints.lines().collect();
    let changed: Vec<String> = actual
        .iter()
        .zip(&golden)
        .filter(|(a, g)| a != g)
        .map(|(a, g)| format!("  want {g}\n  got  {a}"))
        .collect();
    assert!(
        changed.is_empty() && actual.len() == golden.len(),
        "compiled IR differs from tests/golden/compiled_ir_scale4.txt \
         ({} rows, {} expected):\n{}\nfull table:\n{fingerprints}",
        actual.len(),
        golden.len(),
        changed.join("\n")
    );
}

/// Interprocedural cloning end to end: a callee shared between an
/// enumerated and a non-enumerated caller is cloned, and both paths
/// still agree with the baseline. The compiled module, clone name
/// included, prints, reparses and runs to the same output.
#[test]
fn cloning_preserves_both_call_paths() {
    let text = include_str!("../examples/ir/cloned_callee.memoir");
    let baseline_module = parse_module(text).expect("parses");
    let baseline = Interpreter::new(&baseline_module, ExecConfig::default())
        .run("main")
        .expect("runs");
    assert_eq!(baseline.output, "7 21 3\n");

    let mut module = parse_module(text).expect("parses");
    run_ade(&mut module, &AdeOptions::default());
    ade::ir::verify::verify_module(&module).expect("verifies");
    let clones: Vec<&str> = module
        .funcs
        .iter()
        .map(|f| f.name.as_str())
        .filter(|name| name.ends_with("$ade"))
        .collect();
    assert_eq!(clones, ["summarize$ade"]);
    let transformed = Interpreter::new(&module, ExecConfig::default())
        .run("main")
        .expect("runs");
    assert_eq!(transformed.output, baseline.output);

    let printed = print_module(&module);
    let reparsed = parse_module(&printed).unwrap_or_else(|e| panic!("reparse: {e}\n{printed}"));
    ade::ir::verify::verify_module(&reparsed).expect("reparsed verifies");
    assert_eq!(renumbered(&print_module(&reparsed)), renumbered(&printed));
    let rerun = Interpreter::new(&reparsed, ExecConfig::default())
        .run("main")
        .expect("reparsed runs");
    assert_eq!(rerun.output, baseline.output);
}

/// The cost model's cross-architecture story: SSSP's advantage shrinks
/// on AArch64 (paper: 8.72× → 4.60×, driven by slower BitMap writes).
#[test]
fn sssp_speedup_shrinks_on_aarch64() {
    use ade::interp::cost::CostModel;
    let bench = ade::workloads::bench::benchmark_by_abbrev("SSSP").expect("sssp");
    let memoir = ade_bench_run(&bench, ConfigKind::Memoir);
    let ade_run = ade_bench_run(&bench, ConfigKind::Ade);
    let intel = CostModel::intel_x64();
    let arm = CostModel::aarch64();
    let intel_speedup =
        intel.time_ns(&memoir.stats.totals()) / intel.time_ns(&ade_run.stats.totals());
    let arm_speedup = arm.time_ns(&memoir.stats.totals()) / arm.time_ns(&ade_run.stats.totals());
    assert!(intel_speedup > 1.0, "{intel_speedup}");
    assert!(
        arm_speedup < intel_speedup,
        "AArch64 must shrink SSSP's win: {arm_speedup} vs {intel_speedup}"
    );
}

fn ade_bench_run(bench: &ade::workloads::Benchmark, kind: ConfigKind) -> ade::interp::Outcome {
    let config = Config::new(kind);
    let mut module = (bench.build)(6);
    config.compile(&mut module);
    Interpreter::new(&module, config.exec.clone())
        .run("main")
        .expect("runs")
}

/// The interpreter's one tick countdown serves both fuel and session
/// grants. With N = a paper program's exact tick count (taken from a
/// session run), fuel N must suffice and fuel N−1 must fail with the
/// same limit error under batch execution and under sessions at every
/// quantum size, whichever of the two budgets runs out first.
#[test]
fn fuel_boundary_is_exact_under_batch_and_every_quantum() {
    use ade::interp::{ExecError, ExecSession, Limit, Outcome, Step};
    use std::sync::Arc;

    let bench = ade::workloads::bench::benchmark_by_abbrev("BFS").expect("bfs");
    let config = Config::new(ConfigKind::Ade);
    let mut module = (bench.build)(4);
    config.compile(&mut module);
    let decoded = Arc::new(DecodedModule::decode_with(
        &module,
        &DecodeOptions::default(),
    ));
    let with_fuel = |fuel| ExecConfig {
        fuel,
        ..config.exec.clone()
    };
    let session = |exec: ExecConfig, quantum: Option<u64>| -> Result<Outcome, ExecError> {
        let mut session = ExecSession::spawn(Arc::clone(&decoded), "main", exec)?;
        loop {
            if let Step::Done(outcome) = session.step(quantum)? {
                return Ok(*outcome);
            }
        }
    };
    let batch =
        |fuel| Interpreter::new(&module, with_fuel(Some(fuel))).run_decoded(&decoded, "main");

    let n = session(with_fuel(None), None).expect("runs").fuel_ticks;
    assert!(n > 0, "a session counts every tick");
    let full = batch(n).expect("fuel N suffices");
    assert_eq!(full.fuel_ticks, n);
    let tripped = ExecError::LimitExceeded {
        limit: Limit::Fuel,
        budget: n - 1,
    };
    assert_eq!(batch(n - 1).expect_err("fuel N-1 trips"), tripped);
    for quantum in [Some(1), Some(7), Some(4096), None] {
        let sliced = session(with_fuel(Some(n)), quantum)
            .unwrap_or_else(|e| panic!("quantum {quantum:?}: fuel N must suffice: {e}"));
        assert_eq!(sliced.output, full.output, "quantum {quantum:?}");
        assert_eq!(sliced.fuel_ticks, n, "quantum {quantum:?}");
        let err = session(with_fuel(Some(n - 1)), quantum).expect_err("fuel N-1 trips");
        assert_eq!(err, tripped, "quantum {quantum:?}");
    }
}

/// Per-module decode shape at scale 4: `ABBREV config bulk components
/// generic` rows for every benchmark under `memoir` and `ade`.
const GOLDEN_SHAPE: &str = include_str!("golden/decoded_shape_scale4.txt");

/// Counts the default decode's bulk loop headers (`LoopBulk`, not
/// through a lowered slot's path steps) and bulk plan components
/// (prelude plus per-iteration ops, each `If` arm's and nested loop
/// plan's ops included), and tallies the reasons the other loop headers
/// stayed generic as `reason=count` pairs (`-` when none did).
fn decoded_shape(decoded: &DecodedModule) -> (usize, usize, String) {
    use ade::interp::decode::{BulkOp, BulkPlan, DInst, PlanOp};
    fn components(ops: &[PlanOp]) -> usize {
        ops.iter()
            .map(|p| match &p.op {
                BulkOp::If {
                    then_ops, else_ops, ..
                } => 1 + components(then_ops) + components(else_ops),
                BulkOp::Loop { plan } => 1 + plan_components(plan),
                _ => 1,
            })
            .sum()
    }
    fn plan_components(plan: &BulkPlan) -> usize {
        components(&plan.prelude) + components(&plan.ops)
    }
    let (mut bulk, mut plan_ops) = (0, 0);
    for inst in decoded.funcs.iter().flat_map(|f| f.code.iter()) {
        if let DInst::LoopBulk(_, plan) = inst {
            bulk += 1;
            plan_ops += plan_components(plan);
        }
    }
    let mut generic = std::collections::BTreeMap::<&str, usize>::new();
    for (_, why) in decoded.funcs.iter().flat_map(|f| f.generic_loops.iter()) {
        *generic.entry(why).or_default() += 1;
    }
    let generic: Vec<String> = generic
        .iter()
        .map(|(why, n)| format!("{why}={n}"))
        .collect();
    let generic = if generic.is_empty() {
        "-".to_string()
    } else {
        generic.join(",")
    };
    (bulk, plan_ops, generic)
}

/// The default decode builds the same bulk loops and plan components
/// for every paper program as recorded in
/// `tests/golden/decoded_shape_scale4.txt`, and leaves the same loops
/// generic, so a change to the plan compiler cannot silently drop a
/// loop from the fast path.
#[test]
fn decode_keeps_every_plan() {
    let mut table = String::new();
    for bench in ade::workloads::all_benchmarks() {
        for kind in [ConfigKind::Memoir, ConfigKind::Ade] {
            let config = Config::new(kind);
            let mut module = (bench.build)(4);
            config.compile(&mut module);
            let decoded = DecodedModule::decode_with(&module, &DecodeOptions::default());
            let (bulk, plan_ops, generic) = decoded_shape(&decoded);
            table.push_str(&format!(
                "{} {} {bulk} {plan_ops} {generic}\n",
                bench.abbrev,
                kind.name()
            ));
        }
    }
    let golden: String = GOLDEN_SHAPE
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(
        table, golden,
        "decode shape differs from tests/golden/decoded_shape_scale4.txt; full table:\n{table}"
    );
}

/// Per-program executed work at scale 4: `ABBREV config ticks quanta
/// enc dec plan` rows for every benchmark under `memoir` and `ade`.
const GOLDEN_EXEC: &str = include_str!("golden/exec_counts_scale4.txt");

/// FNV-1a over a run's statistics: every `(impl, op)` counter of each
/// phase in `ImplKind::ALL` × `CollOp::ALL` order, then peak and final
/// bytes, each as a little-endian `u64`.
fn stats_fingerprint(stats: &ade::interp::Stats) -> u64 {
    use ade::interp::{CollOp, ImplKind};
    let mut bytes = Vec::new();
    for phase in &stats.per_phase {
        for imp in ImplKind::ALL {
            for op in CollOp::ALL {
                bytes.extend_from_slice(&phase.get(imp, op).to_le_bytes());
            }
        }
    }
    for n in [stats.peak_bytes, stats.final_bytes] {
        bytes.extend_from_slice(&(n as u64).to_le_bytes());
    }
    fnv1a64(&bytes)
}

/// Every paper program executes exactly the work recorded in
/// `tests/golden/exec_counts_scale4.txt`: the ticks of a session run in
/// 4096-instruction quanta, the number of those quanta, and the
/// `EnumEnc`/`EnumDec` read counts, the ticks a batch run spends
/// inside loop plans (`RunCounts::plan_ticks`), and a fingerprint of
/// every per-phase operation count plus peak and final bytes. The batch
/// run must tick exactly as many instructions as the session and match
/// its statistics. A rewrite that changes how much work a program
/// does — or how the interpreter counts it — shows up as a diff here.
#[test]
fn executed_work_matches_the_golden_counts() {
    use ade::interp::{CollOp, ExecSession, ImplKind, Step};
    use std::sync::Arc;

    let mut table = String::new();
    for bench in ade::workloads::all_benchmarks() {
        for kind in [ConfigKind::Memoir, ConfigKind::Ade] {
            let config = Config::new(kind);
            let mut module = (bench.build)(4);
            config.compile(&mut module);
            let decoded = Arc::new(DecodedModule::decode_with(
                &module,
                &DecodeOptions::default(),
            ));
            let tag = format!("[{} {}]", bench.abbrev, kind.name());
            assert_no_dead_enums_or_clones(&module, &tag);
            let mut session = ExecSession::spawn(Arc::clone(&decoded), "main", config.exec.clone())
                .unwrap_or_else(|e| panic!("{tag} {e}"));
            let mut quanta = 0u64;
            let outcome = loop {
                quanta += 1;
                match session.step(Some(4096)) {
                    Ok(Step::Running) => {}
                    Ok(Step::Done(outcome)) => break outcome,
                    Err(e) => panic!("{tag} {e}"),
                }
            };
            let batch = Interpreter::new(&module, config.exec.clone())
                .run_decoded(&decoded, "main")
                .unwrap_or_else(|e| panic!("{tag} {e}"));
            assert_eq!(batch.fuel_ticks, outcome.fuel_ticks, "{tag} batch ticks");
            let plan_ticks = batch.counts.plan_ticks;
            assert_eq!(
                stats_fingerprint(&batch.stats),
                stats_fingerprint(&outcome.stats),
                "{tag} batch stats"
            );
            let totals = outcome.stats.totals();
            table.push_str(&format!(
                "{} {} {} {quanta} {} {} {plan_ticks} {:016x}\n",
                bench.abbrev,
                kind.name(),
                outcome.fuel_ticks,
                totals.get(ImplKind::EnumEnc, CollOp::Read),
                totals.get(ImplKind::EnumDec, CollOp::Read),
                stats_fingerprint(&outcome.stats),
            ));
        }
    }
    let golden: String = GOLDEN_EXEC
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(
        table, golden,
        "executed work differs from tests/golden/exec_counts_scale4.txt; full table:\n{table}"
    );
}

/// Static selection at scale 4: `ABBREV func member depth class set map
/// source` rows, one per `choice [select]` event of every benchmark
/// under `ade`.
const GOLDEN_SELECTION: &str = include_str!("golden/selection_scale4.txt");

/// Every paper program's selection decisions under `ade` match
/// `tests/golden/selection_scale4.txt`: which keyed member of which
/// enumeration received which set and map implementation, and whether
/// a directive or the static default decided it, read from the
/// `choice [select]` events. A change to the selection pass shows up
/// here as a diff of decisions.
#[test]
fn static_selection_matches_the_golden_ledger() {
    let mut table = String::new();
    for bench in ade::workloads::all_benchmarks() {
        let mut module = (bench.build)(4);
        let tracer = ade_obs::Tracer::enabled();
        Config::new(ConfigKind::Ade)
            .compile_traced(&mut module, &tracer)
            .expect("ade runs the pass");
        for e in tracer
            .events()
            .iter()
            .filter(|e| e.cat == "select" && e.name == "choice")
        {
            let arg = |key| e.field(key).expect("choice field").to_string();
            table.push_str(&format!(
                "{} {} {} {} {} {} {} {}\n",
                bench.abbrev,
                arg("func"),
                arg("root"),
                arg("depth"),
                arg("enum"),
                arg("set"),
                arg("map"),
                arg("source")
            ));
        }
    }
    let golden: String = GOLDEN_SELECTION
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(
        table, golden,
        "selection differs from tests/golden/selection_scale4.txt; full table:\n{table}"
    );
}

/// ADE decision events at scale 4: `ABBREV config events fnv1a64` rows,
/// one per benchmark under every configuration that runs the pass.
const GOLDEN_EVENTS: &str = include_str!("golden/ade_events_scale4.txt");

/// Every paper program's ADE decision events, rendered without
/// timestamps, match `tests/golden/ade_events_scale4.txt` under every
/// configuration that runs the pass. The events carry what printed IR
/// does not show: escape verdicts, candidate benefits, RTE trims,
/// poisoned classes, clones and the selection choices, and the end-to-end
/// benchmark reads its translation and trim counts from them. A
/// rewrite of the planner that changes any decision shows up here.
#[test]
fn ade_decision_events_match_the_golden_table() {
    let mut table = String::new();
    for bench in ade::workloads::all_benchmarks() {
        for kind in ConfigKind::ALL {
            let config = Config::new(kind);
            if config.ade.is_none() {
                continue;
            }
            let mut module = (bench.build)(4);
            let tracer = ade_obs::Tracer::enabled();
            config.compile_traced(&mut module, &tracer);
            let events = tracer.events();
            let text = ade_obs::render_events(&events, false);
            table.push_str(&format!(
                "{} {} {} {:016x}\n",
                bench.abbrev,
                kind.name(),
                events.len(),
                fnv1a64(text.as_bytes())
            ));
        }
    }
    let golden: String = GOLDEN_EVENTS
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(
        table, golden,
        "ADE events differ from tests/golden/ade_events_scale4.txt; full table:\n{table}"
    );
}
