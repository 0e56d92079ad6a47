//! Redundant translation elimination (paper §III-C, Algorithm 2) and the
//! static benefit heuristic.
//!
//! The rewrites rest on three properties of the translation functions:
//! `@dec` is the inverse of `@enc`; a decoded value is already in the
//! enumeration (so `@add` after `@dec` is the identity); and `@dec` is
//! injective (so comparisons commute with decoding). Rather than
//! inserting translations and deleting them again, the analysis computes
//! *Trim* sets subtracted from `ToEnc`/`ToDec`/`ToAdd` before patching —
//! exactly as the paper describes.

use std::collections::BTreeSet;

use ade_ir::{CmpOp, Function, InstKind};

use crate::patch::{OperandPos, PatchSets, UseSite};

/// The `TrimEnc` / `TrimDec` / `TrimAdd` sets of Algorithm 2.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trims {
    /// Sites whose encode is redundant.
    pub enc: BTreeSet<UseSite>,
    /// Sites whose decode is redundant.
    pub dec: BTreeSet<UseSite>,
    /// Sites whose add is redundant.
    pub add: BTreeSet<UseSite>,
}

impl Trims {
    /// `|TrimEnc| + |TrimDec| + |TrimAdd|`: the benefit heuristic of
    /// §III-C ("enumeration is beneficial iff we can find redundant
    /// translations").
    pub fn benefit(&self) -> usize {
        self.enc.len() + self.dec.len() + self.add.len()
    }
}

/// Algorithm 2: identify redundant translations within one (possibly
/// merged) patch set.
pub fn find_redundant(func: &Function, sets: &PatchSets) -> Trims {
    let mut trims = Trims::default();
    for &u in &sets.to_dec {
        if sets.to_enc.contains(&u) {
            // Encoding a decoded value: both cancel.
            trims.dec.insert(u);
            trims.enc.insert(u);
        } else if sets.to_add.contains(&u) {
            // A decoded value is already enumerated: both cancel.
            trims.dec.insert(u);
            trims.add.insert(u);
        } else if let Some(w) = comparison_partner(func, u) {
            // Comparing two decoded values: decoding commutes with
            // equality because @dec is injective.
            if sets.to_dec.contains(&w) {
                trims.dec.insert(u);
                trims.dec.insert(w);
            }
        }
    }
    trims
}

/// If `u` is one side of an `eq`/`ne` comparison, the other side's use
/// site. (`ne` is covered because `@dec` injectivity makes disequality
/// commute as well — the paper's Listing 4 relies on this for `neq`.)
fn comparison_partner(func: &Function, u: UseSite) -> Option<UseSite> {
    let inst = func.inst(u.inst);
    if !matches!(
        inst.kind,
        InstKind::Cmp(CmpOp::Eq) | InstKind::Cmp(CmpOp::Ne)
    ) {
        return None;
    }
    match u.pos {
        OperandPos::Plain(0) => Some(UseSite::plain(u.inst, 1)),
        OperandPos::Plain(1) => Some(UseSite::plain(u.inst, 0)),
        _ => None,
    }
}

/// Subtracts trims from patch sets, producing the final sites to patch.
pub fn apply_trims(sets: &PatchSets, trims: &Trims) -> PatchSets {
    PatchSets {
        to_enc: sets.to_enc.difference(&trims.enc).copied().collect(),
        to_dec: sets.to_dec.difference(&trims.dec).copied().collect(),
        to_add: sets.to_add.difference(&trims.add).copied().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ade_ir::parse::parse_module;
    use ade_ir::ValueId;

    use crate::patch::CollectionEntity;
    use crate::share::{analyze_function, members_patch_sets, Member, MemberRole};

    fn entity(
        func: &ade_ir::Function,
        fa: &crate::share::FuncAnalysis<'_>,
        name: &str,
    ) -> CollectionEntity {
        let root = func
            .values
            .iter()
            .enumerate()
            .find(|(_, v)| v.name.as_deref() == Some(name))
            .map(|(i, _)| ValueId::from_index(i))
            .expect("named value");
        CollectionEntity {
            root: fa.chains.root_of(root),
            depth: 0,
        }
    }

    const KEYS: MemberRole = MemberRole {
        keys: true,
        propagator: false,
    };

    #[test]
    fn trims_dec_enc_between_shared_collections() {
        // Keys iterated from %a are looked up in %b: sharing an
        // enumeration makes the dec+enc pair redundant.
        let m = parse_module(
            r#"
fn @f(%a: Set<u64>, %b: Set<u64>) -> void {
  %z = const 0u64
  %n = foreach %a carry(%z) as (%v: u64, %acc: u64) {
    %h = has %b, %v
    %acc1 = if %h then {
      %one = const 1u64
      %y = add %acc, %one
      yield %y
    } else {
      yield %acc
    }
    yield %acc1
  }
  print %n
  ret
}
"#,
        )
        .expect("parses");
        let f = &m.funcs[0];
        let fa = analyze_function(&m, f);
        let ea = entity(f, &fa, "a");
        let eb = entity(f, &fa, "b");
        let empty = Default::default();
        let member = [Member {
            entity: ea,
            role: KEYS,
        }];
        let (sa, _, _) = members_patch_sets(&fa, &member, &empty).expect("sets");
        let member = [Member {
            entity: eb,
            role: KEYS,
        }];
        let (sb, _, _) = members_patch_sets(&fa, &member, &empty).expect("sets");
        // Individually: no redundancy.
        assert_eq!(find_redundant(f, &sa).benefit(), 0, "{sa:?}");
        assert_eq!(find_redundant(f, &sb).benefit(), 0);
        // Merged (one shared enumeration): the has-key site is both ToDec
        // (from %a's iteration web) and ToEnc (into %b) → trimmed.
        let members = [
            Member {
                entity: ea,
                role: KEYS,
            },
            Member {
                entity: eb,
                role: KEYS,
            },
        ];
        let (merged, _, _) = members_patch_sets(&fa, &members, &empty).expect("sets");
        let trims = find_redundant(f, &merged);
        assert!(!trims.dec.is_empty(), "{trims:?}");
        assert!(!trims.enc.is_empty(), "{trims:?}");
        let remaining = apply_trims(&merged, &trims);
        assert!(!remaining.to_dec.iter().any(|u| trims.dec.contains(u)));
    }

    #[test]
    fn trims_dec_add_when_copying_between_collections() {
        let m = parse_module(
            r#"
fn @f(%a: Set<u64>, %b: Set<u64>) -> void {
  %r = foreach %a carry(%b) as (%v: u64, %c: Set<u64>) {
    %c1 = insert %c, %v
    yield %c1
  }
  ret
}
"#,
        )
        .expect("parses");
        let f = &m.funcs[0];
        let fa = analyze_function(&m, f);
        let members = [
            Member {
                entity: entity(f, &fa, "a"),
                role: KEYS,
            },
            Member {
                entity: entity(f, &fa, "b"),
                role: KEYS,
            },
        ];
        let empty = Default::default();
        let (merged, _, _) = members_patch_sets(&fa, &members, &empty).expect("sets");
        let trims = find_redundant(f, &merged);
        assert_eq!(trims.dec.len(), 1, "{trims:?}");
        assert_eq!(trims.add.len(), 1, "{trims:?}");
    }

    #[test]
    fn union_find_trims_leave_single_exit_decode() {
        // Listings 3 → 4: with keys + propagation on %uf, every
        // translation inside the loop is trimmed; only the final decode
        // at `ret` remains.
        let m = parse_module(
            r#"
fn @find(%uf: Map<u64, u64>, %v: u64) -> u64 {
  %found = dowhile carry(%v) as (%curr: u64) {
    %parent = read %uf, %curr
    %not_done = ne %parent, %curr
    yield %not_done, %parent
  }
  ret %found
}
"#,
        )
        .expect("parses");
        let f = &m.funcs[0];
        let fa = analyze_function(&m, f);
        let e = entity(f, &fa, "uf");
        let both = MemberRole {
            keys: true,
            propagator: true,
        };
        let empty = Default::default();
        let member = [Member {
            entity: e,
            role: both,
        }];
        let (sets, _, _) = members_patch_sets(&fa, &member, &empty).expect("propagatable");
        let trims = find_redundant(f, &sets);
        // read key (dec∩enc) and both `ne` operands → at least 4 trims.
        assert!(trims.benefit() >= 4, "{trims:?} from {sets:?}");
        let remaining = apply_trims(&sets, &trims);
        // Remaining: the boundary add of %v at loop entry and the decode
        // of %found at ret — exactly Listing 4's two translations.
        assert_eq!(remaining.to_add.len(), 1, "{remaining:?}");
        assert_eq!(remaining.to_dec.len(), 1, "{remaining:?}");
        assert!(remaining.to_enc.is_empty(), "{remaining:?}");
    }

    #[test]
    fn no_redundancy_without_interaction() {
        let m = parse_module(
            "fn @f(%s: Set<u64>) -> void {\n  %x = const 1u64\n  %s1 = insert %s, %x\n  ret\n}\n",
        )
        .expect("parses");
        let f = &m.funcs[0];
        let fa = analyze_function(&m, f);
        let e = entity(f, &fa, "s");
        let empty = Default::default();
        let member = [Member {
            entity: e,
            role: KEYS,
        }];
        let (sets, _, _) = members_patch_sets(&fa, &member, &empty).expect("sets");
        assert_eq!(find_redundant(f, &sets).benefit(), 0);
    }
}
