//! Property-based tests spanning the workspace:
//!
//! * every set/map implementation behaves like the `std` model under a
//!   random operation sequence;
//! * the IR printer/parser round-trips arbitrary modules built from a
//!   random program generator;
//! * **differential testing of ADE itself**: random collection programs
//!   run identically under the baseline and every ADE configuration.

use proptest::prelude::*;

use ade::ade::{run_ade, AdeOptions};
use ade::collections::{
    BitMap, ChainedHashMap, ChainedHashSet, DynamicBitSet, FlatSet, SparseBitSet, SwissMap,
    SwissSet,
};
use ade::interp::{ExecConfig, Interpreter};
use ade::ir::parse::parse_module;
use ade::ir::print::print_module;

// ---- collection models -------------------------------------------------

#[derive(Clone, Debug)]
enum SetOp {
    Insert(u16),
    Remove(u16),
    Contains(u16),
    Clear,
}

fn set_ops() -> impl Strategy<Value = Vec<SetOp>> {
    prop::collection::vec(
        prop_oneof![
            4 => any::<u16>().prop_map(SetOp::Insert),
            2 => any::<u16>().prop_map(SetOp::Remove),
            2 => any::<u16>().prop_map(SetOp::Contains),
            1 => Just(SetOp::Clear),
        ],
        0..200,
    )
}

macro_rules! set_model_test {
    ($name:ident, $mk:expr, $ins:ident, $rm:ident, $has:ident, $key:expr) => {
        proptest! {
            #[test]
            fn $name(ops in set_ops()) {
                let mut model = std::collections::BTreeSet::<u16>::new();
                let mut subject = $mk;
                for op in ops {
                    match op {
                        SetOp::Insert(k) => {
                            prop_assert_eq!(model.insert(k), subject.$ins($key(k)));
                        }
                        SetOp::Remove(k) => {
                            let expected = model.remove(&k);
                            let got = subject.$rm($key(k));
                            prop_assert_eq!(expected, got);
                        }
                        SetOp::Contains(k) => {
                            prop_assert_eq!(model.contains(&k), subject.$has($key(k)));
                        }
                        SetOp::Clear => {
                            model.clear();
                            subject.clear();
                        }
                    }
                    prop_assert_eq!(model.len(), subject.len());
                }
                let mut got: Vec<u16> = subject_elems(&subject);
                got.sort_unstable();
                let want: Vec<u16> = model.into_iter().collect();
                prop_assert_eq!(want, got);
            }
        }
    };
}

trait Elems {
    fn elems(&self) -> Vec<u16>;
}
impl Elems for ChainedHashSet<u16> {
    fn elems(&self) -> Vec<u16> {
        self.iter().copied().collect()
    }
}
impl Elems for SwissSet<u16> {
    fn elems(&self) -> Vec<u16> {
        self.iter().copied().collect()
    }
}
impl Elems for FlatSet<u16> {
    fn elems(&self) -> Vec<u16> {
        self.iter().copied().collect()
    }
}
impl Elems for DynamicBitSet {
    fn elems(&self) -> Vec<u16> {
        self.iter().map(|v| v as u16).collect()
    }
}
impl Elems for SparseBitSet {
    fn elems(&self) -> Vec<u16> {
        self.iter().map(|v| v as u16).collect()
    }
}

fn subject_elems<T: Elems>(s: &T) -> Vec<u16> {
    s.elems()
}

fn ident(k: u16) -> u16 {
    k
}
fn widen(k: u16) -> usize {
    k as usize
}

set_model_test!(
    hash_set_matches_model,
    ChainedHashSet::<u16>::new(),
    insert,
    remove_ref,
    contains_ref,
    ident
);
set_model_test!(
    swiss_set_matches_model,
    SwissSet::<u16>::new(),
    insert,
    remove_ref,
    contains_ref,
    ident
);
set_model_test!(
    flat_set_matches_model,
    FlatSet::<u16>::new(),
    insert,
    remove_ref,
    contains_ref,
    ident
);
set_model_test!(
    bit_set_matches_model,
    DynamicBitSet::new(),
    insert,
    remove,
    contains,
    widen
);
set_model_test!(
    sparse_bit_set_matches_model,
    SparseBitSet::new(),
    insert,
    remove,
    contains,
    widen
);

// `remove`/`contains` take references on the generic sets; tiny adapters
// keep the macro uniform.
trait RefOps {
    fn remove_ref(&mut self, k: u16) -> bool;
    fn contains_ref(&self, k: u16) -> bool;
}
impl RefOps for ChainedHashSet<u16> {
    fn remove_ref(&mut self, k: u16) -> bool {
        self.remove(&k)
    }
    fn contains_ref(&self, k: u16) -> bool {
        self.contains(&k)
    }
}
impl RefOps for SwissSet<u16> {
    fn remove_ref(&mut self, k: u16) -> bool {
        self.remove(&k)
    }
    fn contains_ref(&self, k: u16) -> bool {
        self.contains(&k)
    }
}
impl RefOps for FlatSet<u16> {
    fn remove_ref(&mut self, k: u16) -> bool {
        self.remove(&k)
    }
    fn contains_ref(&self, k: u16) -> bool {
        self.contains(&k)
    }
}

proptest! {
    #[test]
    fn maps_match_model(ops in prop::collection::vec(
        (any::<u16>(), any::<u16>(), 0u8..4), 0..200)) {
        let mut model = std::collections::BTreeMap::<u16, u16>::new();
        let mut hash = ChainedHashMap::<u16, u16>::new();
        let mut swiss = SwissMap::<u16, u16>::new();
        let mut bit = BitMap::<u16>::new();
        for (k, v, kind) in ops {
            match kind {
                0 | 1 => {
                    let expected = model.insert(k, v);
                    prop_assert_eq!(hash.insert(k, v), expected);
                    prop_assert_eq!(swiss.insert(k, v), expected);
                    prop_assert_eq!(bit.insert(k as usize, v), expected);
                }
                2 => {
                    let expected = model.remove(&k);
                    prop_assert_eq!(hash.remove(&k), expected);
                    prop_assert_eq!(swiss.remove(&k), expected);
                    prop_assert_eq!(bit.remove(k as usize), expected);
                }
                _ => {
                    let expected = model.get(&k).copied();
                    prop_assert_eq!(hash.get(&k).copied(), expected);
                    prop_assert_eq!(swiss.get(&k).copied(), expected);
                    prop_assert_eq!(bit.get(k as usize).copied(), expected);
                }
            }
            prop_assert_eq!(hash.len(), model.len());
            prop_assert_eq!(swiss.len(), model.len());
            prop_assert_eq!(bit.len(), model.len());
        }
    }

    #[test]
    fn bitset_union_matches_model(
        a in prop::collection::btree_set(0usize..2000, 0..150),
        b in prop::collection::btree_set(0usize..2000, 0..150),
    ) {
        let mut dense: DynamicBitSet = a.iter().copied().collect();
        let other: DynamicBitSet = b.iter().copied().collect();
        dense.union_with(&other);
        let mut sparse: SparseBitSet = a.iter().copied().collect();
        let sother: SparseBitSet = b.iter().copied().collect();
        sparse.union_with(&sother);
        let want: Vec<usize> = a.union(&b).copied().collect();
        prop_assert_eq!(dense.iter().collect::<Vec<_>>(), want.clone());
        prop_assert_eq!(sparse.iter().collect::<Vec<_>>(), want);
    }
}

// ---- random-program differential testing -------------------------------

/// A tiny random program generator: straight-line + loop programs over
/// two sets and a map with interacting keys, designed so ADE's analyses
/// (sharing, propagation, RTE) all get exercised.
fn random_program(seed: u64, n_items: u8, flavor: u8) -> String {
    // flavors 0-2: flat set/map interactions; 3: nested map-of-sets with
    // unions; 4: a helper call sharing the enumeration interprocedurally.
    // Deterministic pseudo-random fill data from the seed.
    let vals: Vec<u64> = (0..n_items as u64)
        .map(|i| {
            let mut z = seed.wrapping_add(i).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            z ^= z >> 29;
            z % 40
        })
        .collect();
    let mut fill = String::new();
    for v in &vals {
        fill.push_str(&format!(
            "  %c{v}_{} = const {v}u64\n  %q{} = size %work\n  %work = insert %work, %q{}, %c{v}_{}\n",
            fill.len(),
            fill.len(),
            fill.len(),
            fill.len()
        ));
    }
    // Program shapes exercising different ADE paths.
    let kernel = match flavor % 5 {
        0 => {
            r#"
  %zero = const 0u64
  %n, %bout = foreach %work carry(%zero, %b) as (%i: u64, %v: u64, %acc: u64, %bb: Set<u64>) {
    %h = has %bb, %v
    %acc2, %b2 = if %h then {
      %one = const 1u64
      %a2 = add %acc, %one
      yield %a2, %bb
    } else {
      %b1 = insert %bb, %v
      yield %acc, %b1
    }
    yield %acc2, %b2
  }
  %sz = size %bout
  print %n, %sz
"#
        }
        1 => {
            r#"
  %zero = const 0u64
  %m2 = foreach %work carry(%m) as (%i: u64, %v: u64, %mm: Map<u64, u64>) {
    %h = has %mm, %v
    %cur = if %h then {
      %r = read %mm, %v
      yield %r
    } else {
      yield %zero
    }
    %one = const 1u64
    %nxt = add %cur, %one
    %m1 = write %mm, %v, %nxt
    yield %m1
  }
  %total = foreach %m2 carry(%zero) as (%k: u64, %cnt: u64, %acc: u64) {
    %a = add %acc, %cnt
    yield %a
  }
  print %total
"#
        }
        2 => {
            r#"
  %zero = const 0u64
  %bout = foreach %work carry(%b) as (%i: u64, %v: u64, %bb: Set<u64>) {
    %b1 = insert %bb, %v
    yield %b1
  }
  %hits = foreach %work carry(%zero) as (%i: u64, %v: u64, %acc: u64) {
    %h = has %bout, %v
    %acc2 = if %h then {
      %one = const 1u64
      %a = add %acc, %one
      yield %a
    } else {
      yield %acc
    }
    yield %acc2
  }
  print %hits
"#
        }
        3 => {
            r#"
  %zero = const 0u64
  %nest = new Map<u64, Set<u64>>
  %nf = foreach %work carry(%nest) as (%i: u64, %v: u64, %nn: Map<u64, Set<u64>>) {
    %five = const 5u64
    %g = rem %v, %five
    %n1 = insert %nn, %g
    %n2 = insert %n1[%g], %v
    yield %n2
  }
  %merged = new Set<u64>
  %total, %mout = foreach %nf carry(%zero, %merged) as (%g: u64, %inner: Set<u64>, %acc: u64, %mm: Set<u64>) {
    %sz = size %inner
    %a1 = add %acc, %sz
    %m1 = union %mm, %inner
    yield %a1, %m1
  }
  %msz = size %mout
  print %total, %msz
"#
        }
        _ => {
            r#"
  %zero = const 0u64
  %bout = foreach %work carry(%b) as (%i: u64, %v: u64, %bb: Set<u64>) {
    %b1 = insert %bb, %v
    yield %b1
  }
  %n = call @1(%bout, %work)
  print %n
"#
        }
    };
    let helper = if flavor % 5 == 4 {
        "\nfn @count_hits(%s: Set<u64>, %q: Seq<u64>) -> u64 {\n  %zero = const 0u64\n  %n = foreach %q carry(%zero) as (%i: u64, %v: u64, %acc: u64) {\n    %h = has %s, %v\n    %a = if %h then {\n      %one = const 1u64\n      %a1 = add %acc, %one\n      yield %a1\n    } else {\n      yield %acc\n    }\n    yield %a\n  }\n  ret %n\n}\n"
    } else {
        ""
    };
    format!(
        "fn @main() -> void {{\n  %work = new Seq<u64>\n  %b = new Set<u64>\n  %m = new Map<u64, u64>\n{fill}{kernel}  ret\n}}\n{helper}"
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn random_programs_survive_every_configuration(
        seed in any::<u64>(),
        n_items in 1u8..24,
        flavor in 0u8..5,
    ) {
        let text = random_program(seed, n_items, flavor);
        let baseline_module = parse_module(&text).expect("generated program parses");
        ade::ir::verify::verify_module(&baseline_module).expect("generated program verifies");
        let baseline = Interpreter::new(&baseline_module, ExecConfig::default())
            .run("main")
            .expect("baseline runs");

        for options in [
            AdeOptions::default(),
            AdeOptions::without_rte(),
            AdeOptions::without_propagation(),
            AdeOptions::without_sharing(),
        ] {
            let mut module = parse_module(&text).expect("parses");
            run_ade(&mut module, &options);
            ade::ir::verify::verify_module(&module).map_err(|e| {
                TestCaseError::fail(format!("verify failed: {e}\n{}", print_module(&module)))
            })?;
            let outcome = Interpreter::new(&module, ExecConfig::default())
                .run("main")
                .expect("transformed program runs");
            prop_assert_eq!(
                &outcome.output,
                &baseline.output,
                "diverged (rte={} prop={} share={}) on\n{}",
                options.rte,
                options.propagation,
                options.sharing,
                text
            );
        }
    }

    #[test]
    fn printer_parser_round_trip_on_random_programs(
        seed in any::<u64>(),
        n_items in 1u8..16,
        flavor in 0u8..3,
    ) {
        let text = random_program(seed, n_items, flavor);
        let module = parse_module(&text).expect("parses");
        let printed = print_module(&module);
        let reparsed = parse_module(&printed).expect("printed form parses");
        prop_assert_eq!(printed, print_module(&reparsed));
    }
}
