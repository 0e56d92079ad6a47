//! Differential tests: every ADE configuration must preserve program
//! behavior bit-for-bit, while actually changing the implementation mix
//! (sparse → dense accesses, paper Table II).

use ade_core::{run_ade, AdeOptions};
use ade_interp::{ExecConfig, Interpreter};
use ade_ir::parse::parse_module;
use ade_ir::print::print_module;

fn run_program(module: &ade_ir::Module) -> ade_interp::Outcome {
    Interpreter::new(module, ExecConfig::default())
        .run("main")
        .expect("program runs")
}

/// Runs `text` as-is and under each ADE configuration; asserts identical
/// output everywhere. Returns (baseline outcome, full-ADE outcome,
/// full-ADE report).
fn differential(
    text: &str,
) -> (
    ade_interp::Outcome,
    ade_interp::Outcome,
    ade_core::AdeReport,
) {
    let baseline_module = parse_module(text).expect("parses");
    ade_ir::verify::verify_module(&baseline_module).expect("baseline verifies");
    let baseline = run_program(&baseline_module);

    let mut full = None;
    let mut full_report = None;
    for (name, options) in [
        ("ade", AdeOptions::default()),
        ("ade-noredundant", AdeOptions::without_rte()),
        ("ade-nopropagation", AdeOptions::without_propagation()),
        ("ade-nosharing", AdeOptions::without_sharing()),
        (
            "ade-sparse",
            AdeOptions {
                enumerated_set_impl: ade_ir::SetSel::SparseBit,
                ..AdeOptions::default()
            },
        ),
    ] {
        let mut module = parse_module(text).expect("parses");
        let report = run_ade(&mut module, &options);
        ade_ir::verify::verify_module(&module)
            .unwrap_or_else(|e| panic!("[{name}] verify failed: {e}\n{}", print_module(&module)));
        let outcome = Interpreter::new(&module, ExecConfig::default())
            .run("main")
            .unwrap_or_else(|e| panic!("[{name}] run failed: {e}\n{}", print_module(&module)));
        assert_eq!(
            outcome.output,
            baseline.output,
            "[{name}] output diverged\n{}",
            print_module(&module)
        );
        if name == "ade" {
            full = Some(outcome);
            full_report = Some(report);
        }
    }
    (baseline, full.expect("ran"), full_report.expect("ran"))
}

const HISTOGRAM: &str = r#"
fn @main() -> void {
  %input = new Seq<f64>
  %lo = const 0u64
  %hi = const 200u64
  %filled = forrange %lo, %hi carry(%input) as (%i: u64, %s: Seq<f64>) {
    %seven = const 7u64
    %m = rem %i, %seven
    %v = cast %m to f64
    %n = size %s
    %s1 = insert %s, %n, %v
    yield %s1
  }
  %hist = new Map<f64, u64>
  %out = foreach %filled carry(%hist) as (%i: u64, %v: f64, %h: Map<f64, u64>) {
    %c = has %h, %v
    %h2, %f = if %c then {
      %f0 = read %h, %v
      yield %h, %f0
    } else {
      %h1 = insert %h, %v
      %z = const 0u64
      yield %h1, %z
    }
    %one = const 1u64
    %f1 = add %f, %one
    %h3 = write %h2, %v, %f1
    yield %h3
  }
  %sum = foreach %out carry(%lo) as (%k: f64, %cnt: u64, %acc: u64) {
    %a1 = add %acc, %cnt
    yield %a1
  }
  print %sum
  %probe = const 3f64
  %c3 = read %out, %probe
  print %c3
  ret
}
"#;

#[test]
fn histogram_is_preserved_and_densified() {
    let (baseline, ade, report) = differential(HISTOGRAM);
    assert_eq!(report.enums_created, 1);
    let base_sparse = baseline.stats.totals().sparse_accesses();
    let ade_sparse = ade.stats.totals().sparse_accesses();
    let ade_dense = ade.stats.totals().dense_accesses();
    assert!(
        ade_sparse < base_sparse,
        "sparse accesses must fall: {base_sparse} -> {ade_sparse}"
    );
    assert!(ade_dense > baseline.stats.totals().dense_accesses());
}

const UNION_FIND: &str = r#"
fn @main() -> void {
  %uf = new Map<u64, u64>
  %zero = const 0u64
  %n = const 64u64
  %init = forrange %zero, %n carry(%uf) as (%i: u64, %m: Map<u64, u64>) {
    %two = const 2u64
    %p = div %i, %two
    %m1 = write %m, %i, %p
    yield %m1
  }
  %probe = const 37u64
  %root = dowhile carry(%probe) as (%curr: u64) {
    %parent = read %init, %curr
    %go = ne %parent, %curr
    yield %go, %parent
  }
  print %root
  ret
}
"#;

#[test]
fn union_find_propagation_preserved() {
    let (_, ade, report) = differential(UNION_FIND);
    assert_eq!(report.enums_created, 1, "{report:?}");
    // With propagation the hot loop runs on identifiers: the map becomes
    // a dense BitMap and reads are dense.
    use ade_interp::{CollOp, ImplKind};
    let t = ade.stats.totals();
    assert!(t.get(ImplKind::BitMap, CollOp::Read) > 0, "{t:?}");
    assert_eq!(t.get(ImplKind::HashMap, CollOp::Read), 0);
}

const TWO_SETS: &str = r#"
fn @main() -> void {
  %a = new Set<u64>
  %b = new Set<u64>
  %zero = const 0u64
  %n = const 100u64
  %af = forrange %zero, %n carry(%a) as (%i: u64, %s: Set<u64>) {
    %three = const 3u64
    %x = mul %i, %three
    %s1 = insert %s, %x
    yield %s1
  }
  %count, %bf = foreach %af carry(%zero, %b) as (%v: u64, %acc: u64, %bb: Set<u64>) {
    %two = const 2u64
    %r = rem %v, %two
    %is_even = eq %r, %zero
    %acc2, %b2 = if %is_even then {
      %b1 = insert %bb, %v
      %one = const 1u64
      %acc1 = add %acc, %one
      yield %acc1, %b1
    } else {
      yield %acc, %bb
    }
    yield %acc2, %b2
  }
  %hits = foreach %bf carry(%zero) as (%v: u64, %acc: u64) {
    %h = has %af, %v
    %acc2 = if %h then {
      %one = const 1u64
      %a1 = add %acc, %one
      yield %a1
    } else {
      yield %acc
    }
    yield %acc2
  }
  print %count, %hits
  ret
}
"#;

#[test]
fn shared_sets_preserved() {
    let (_, ade, report) = differential(TWO_SETS);
    assert_eq!(report.enums_created, 1, "{report:?}");
    use ade_interp::{CollOp, ImplKind};
    let t = ade.stats.totals();
    assert!(t.get(ImplKind::BitSet, CollOp::Insert) > 0, "{t:?}");
}

const NESTED_PTS: &str = r#"
fn @main() -> void {
  %pts = new Map<u64, Set<u64>>
  %zero = const 0u64
  %n = const 40u64
  %filled = forrange %zero, %n carry(%pts) as (%i: u64, %m: Map<u64, Set<u64>>) {
    %m1 = insert %m, %i
    %ten = const 10u64
    %obj = rem %i, %ten
    %m2 = insert %m1[%i], %obj
    yield %m2
  }
  %final = forrange %zero, %n carry(%filled) as (%i: u64, %m: Map<u64, Set<u64>>) {
    %two = const 2u64
    %half = div %i, %two
    %src = read %m, %half
    %m1 = union %m[%i], %src
    yield %m1
  }
  %total = foreach %final carry(%zero) as (%k: u64, %s: Set<u64>, %acc: u64) {
    %sz = size %s
    %a1 = add %acc, %sz
    yield %a1
  }
  print %total
  ret
}
"#;

#[test]
fn nested_points_to_sets_preserved() {
    let (_, ade, report) = differential(NESTED_PTS);
    assert!(report.enums_created >= 1, "{report:?}");
    use ade_interp::{CollOp, ImplKind};
    let t = ade.stats.totals();
    // The inner sets become bitsets whose unions are word-parallel.
    assert!(
        t.get(ImplKind::BitSet, CollOp::UnionWord) > 0
            || t.get(ImplKind::BitSet, CollOp::UnionElem) > 0,
        "{t:?}"
    );
}

const INTERPROCEDURAL: &str = r#"
fn @main() -> void {
  %input = new Seq<u64>
  %zero = const 0u64
  %n = const 50u64
  %filled = forrange %zero, %n carry(%input) as (%i: u64, %s: Seq<u64>) {
    %seven = const 7u64
    %x = rem %i, %seven
    %sz = size %s
    %s1 = insert %s, %sz, %x
    yield %s1
  }
  %seen = new Set<u64>
  %count, %seen2 = foreach %filled carry(%zero, %seen) as (%i: u64, %v: u64, %acc: u64, %ss: Set<u64>) {
    %h = has %ss, %v
    %acc2, %s2 = if %h then {
      yield %acc, %ss
    } else {
      %s1 = insert %ss, %v
      %one = const 1u64
      %a1 = add %acc, %one
      yield %a1, %s1
    }
    yield %acc2, %s2
  }
  print %count
  %r = call @1(%seen2)
  print %r
  ret
}

fn @summarize(%s: Set<u64>) -> u64 {
  %zero = const 0u64
  %sum = foreach %s carry(%zero) as (%v: u64, %acc: u64) {
    %a1 = add %acc, %v
    yield %a1
  }
  ret %sum
}
"#;

#[test]
fn interprocedural_enumeration_preserved() {
    let (_, _, report) = differential(INTERPROCEDURAL);
    assert_eq!(report.enums_created, 1, "{report:?}");
    // No clone: the compiled module has the input's functions only.
    let mut module = parse_module(INTERPROCEDURAL).expect("parses");
    let funcs = module.funcs.len();
    run_ade(&mut module, &AdeOptions::default());
    assert_eq!(module.funcs.len(), funcs, "{}", print_module(&module));
}

const DIRECTIVES: &str = r#"
fn @main() -> void {
  %a = new Set<u64> #[enumerate, select(SparseBit)]
  %zero = const 0u64
  %n = const 30u64
  %af = forrange %zero, %n carry(%a) as (%i: u64, %s: Set<u64>) {
    %s1 = insert %s, %i
    yield %s1
  }
  %sz = size %af
  print %sz
  ret
}
"#;

#[test]
fn directives_force_enumeration_and_selection() {
    let (_, ade, report) = differential(DIRECTIVES);
    assert_eq!(report.enums_created, 1, "{report:?}");
    use ade_interp::{CollOp, ImplKind};
    let t = ade.stats.totals();
    assert!(t.get(ImplKind::SparseBitSet, CollOp::Insert) > 0, "{t:?}");
    assert_eq!(t.get(ImplKind::HashSet, CollOp::Insert), 0);
}

#[test]
fn noredundant_ablation_translates_more() {
    // The ablation must be slower in translation counts: more EnumEnc /
    // EnumDec operations than full ADE.
    let mut full_m = parse_module(TWO_SETS).expect("parses");
    run_ade(&mut full_m, &AdeOptions::default());
    let full = run_program(&full_m);

    let mut ab_m = parse_module(TWO_SETS).expect("parses");
    run_ade(&mut ab_m, &AdeOptions::without_rte());
    let ablated = run_program(&ab_m);

    use ade_interp::{CollOp, ImplKind};
    let f = full.stats.totals();
    let a = ablated.stats.totals();
    let full_translations =
        f.get(ImplKind::EnumEnc, CollOp::Read) + f.get(ImplKind::EnumDec, CollOp::Read);
    let ablated_translations =
        a.get(ImplKind::EnumEnc, CollOp::Read) + a.get(ImplKind::EnumDec, CollOp::Read);
    assert!(
        ablated_translations > full_translations,
        "RTE must remove translations: {full_translations} vs {ablated_translations}"
    );
}
