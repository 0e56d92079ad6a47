//! φ-webs: transitive identifier flow through structured φs.
//!
//! When a loop key or a propagator read produces an identifier, the paper
//! keeps the identifier flowing through the loop-carried φs (Listing 4:
//! `%id_curr := φ(%id_v, %id_parent)`) instead of translating at every
//! boundary. This module computes, for a set of identifier *roots*, the
//! forward closure of values plumbed through yields, loop carries and
//! if-results:
//!
//! * **members** — region arguments and results that will be retyped to
//!   `idx`;
//! * **boundary adds** — φ sources outside the web whose values must be
//!   added to the enumeration on entry (Listing 4's `@enc(%p, %v)`);
//! * **sinks** — ordinary uses of web values, which become `ToDec`
//!   candidates for Algorithm 2 to trim.

use std::collections::BTreeSet;

use ade_ir::typing::CarryLayout;
use ade_ir::{Function, InstId, InstKind, ValueId};

use crate::index::FuncIndex;
use crate::patch::{OperandPos, UseSite};

/// The result of the φ-web closure.
#[derive(Clone, Debug, Default)]
pub struct PhiWeb {
    /// Values (beyond the roots) to retype to `idx`.
    pub members: BTreeSet<ValueId>,
    /// φ-source sites feeding the web from outside: patch with `add`.
    pub boundary_adds: BTreeSet<UseSite>,
    /// Non-φ uses of roots or members: `ToDec` candidates.
    pub sinks: BTreeSet<UseSite>,
}

/// Both φ targets of a value used at `site`, if the site is φ plumbing:
/// the region argument receiving it on the next iteration/entry and the
/// control instruction's result receiving it on exit.
fn phi_targets(func: &Function, index: &FuncIndex, site: UseSite) -> Option<Vec<ValueId>> {
    let OperandPos::Plain(pos) = site.pos else {
        return None;
    };
    // A yield feeds its region's owner past the owner's condition; a
    // control instruction's own operands carry from its first carried one.
    let is_yield = func.inst(site.inst).kind == InstKind::Yield;
    let owner = if is_yield {
        index.owner_of(index.parent_region(site.inst)?)?
    } else {
        site.inst
    };
    let layout = carry_layout(func, owner)?;
    let carried = pos.checked_sub(if is_yield { layout.cond } else { layout.first })?;
    let owner = func.inst(owner);
    let arg = func
        .region(owner.regions[0])
        .args
        .get(layout.bound + carried);
    let targets: Vec<ValueId> = arg
        .into_iter()
        .chain(owner.results.get(carried))
        .copied()
        .collect();
    (!targets.is_empty()).then_some(targets)
}

fn carry_layout(func: &Function, inst: InstId) -> Option<CarryLayout> {
    ade_ir::typing::carry_layout(func, func.inst(inst))
        .ok()
        .flatten()
}

/// φ-source sites of a web member (the uses that feed it): the carried
/// operand on entry and each region's closing yield.
fn phi_sources(func: &Function, func_index: &FuncIndex, member: ValueId) -> Vec<UseSite> {
    let (owner, index, is_arg) = match func.value(member).def {
        ade_ir::ValueDef::RegionArg { region, index } => match func_index.owner_of(region) {
            Some(owner) => (owner, index, true),
            None => return Vec::new(),
        },
        ade_ir::ValueDef::InstResult { inst, index } => (inst, index, false),
        ade_ir::ValueDef::Param(_) => return Vec::new(),
    };
    let Some(layout) = carry_layout(func, owner) else {
        return Vec::new();
    };
    // Body arguments past the bound ones are carried; an iteration
    // variable has no φ sources.
    let Some(carried) = index.checked_sub(if is_arg { layout.bound } else { 0 }) else {
        return Vec::new();
    };
    let inst = func.inst(owner);
    let entry = (layout.first + carried < inst.operands.len())
        .then(|| UseSite::plain(owner, layout.first + carried));
    let yielded = inst
        .regions
        .iter()
        .filter_map(|&r| func.closing_yield(r))
        .map(|y| UseSite::plain(y, layout.cond + carried));
    entry.into_iter().chain(yielded).collect()
}

/// Computes the φ-web of `roots` within `func` (whose index is `index`),
/// never claiming values in `claimed` (values already owned by another
/// enumeration's web — those uses fall back to boundary translation).
pub fn compute_web(
    func: &Function,
    index: &FuncIndex,
    roots: &BTreeSet<ValueId>,
    claimed: &BTreeSet<ValueId>,
) -> PhiWeb {
    let mut members: BTreeSet<ValueId> = BTreeSet::new();
    // Forward closure.
    let mut work: Vec<ValueId> = roots.iter().copied().collect();
    while let Some(v) = work.pop() {
        for &site in index.uses_of(v) {
            if let Some(targets) = phi_targets(func, index, site) {
                // All-or-nothing: a φ whose targets cannot all carry
                // identifiers (claimed by another enumeration's web, or
                // non-scalar) stays outside the web, and the use becomes
                // a sink translated at the boundary.
                let claimable = targets.iter().all(|t| {
                    members.contains(t)
                        || roots.contains(t)
                        || (!claimed.contains(t) && func.value_ty(*t).is_scalar())
                });
                if !claimable {
                    continue;
                }
                for t in targets {
                    if !members.contains(&t) && !roots.contains(&t) {
                        members.insert(t);
                        work.push(t);
                    }
                }
            }
        }
    }

    // Boundary sources and sinks.
    let mut web = PhiWeb {
        members,
        ..PhiWeb::default()
    };
    for &m in &web.members {
        for source in phi_sources(func, index, m) {
            if let Some(v) = source.value(func) {
                if !web.members.contains(&v) && !roots.contains(&v) {
                    web.boundary_adds.insert(source);
                }
            }
        }
    }
    for v in roots.iter().chain(web.members.iter()) {
        for &site in index.uses_of(*v) {
            match phi_targets(func, index, site) {
                Some(targets)
                    if targets
                        .iter()
                        .all(|t| web.members.contains(t) || roots.contains(t)) => {}
                _ => {
                    web.sinks.insert(site);
                }
            }
        }
    }
    web
}

#[cfg(test)]
mod tests {
    use super::*;
    use ade_ir::parse::parse_function;

    fn named(func: &Function, name: &str) -> ValueId {
        func.values
            .iter()
            .enumerate()
            .find(|(_, v)| v.name.as_deref() == Some(name))
            .map(|(i, _)| ValueId::from_index(i))
            .expect("named value")
    }

    #[test]
    fn union_find_web_matches_listing4() {
        let f = parse_function(
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
        // Root: %parent (the propagator read result).
        let roots: BTreeSet<ValueId> = [named(&f, "parent")].into_iter().collect();
        let web = compute_web(&f, &FuncIndex::build(&f), &roots, &BTreeSet::new());
        // %curr and %found join the web.
        assert!(web.members.contains(&named(&f, "curr")), "{web:?}");
        assert!(web.members.contains(&named(&f, "found")), "{web:?}");
        // %v feeds the web from outside → one boundary add (Listing 4's
        // entry translation).
        assert_eq!(web.boundary_adds.len(), 1, "{web:?}");
        // Sinks: read key (%curr), both `ne` operands, and ret %found.
        assert_eq!(web.sinks.len(), 4, "{web:?}");
    }

    #[test]
    fn web_stops_at_claimed_values() {
        let f = parse_function(
            r#"
fn @f(%s: Set<u64>) -> void {
  %z = const 0u64
  %last = foreach %s carry(%z) as (%v: u64, %acc: u64) {
    yield %v
  }
  print %last
  ret
}
"#,
        )
        .expect("parses");
        let roots: BTreeSet<ValueId> = [named(&f, "v")].into_iter().collect();
        let claimed: BTreeSet<ValueId> = [named(&f, "acc")].into_iter().collect();
        let web = compute_web(&f, &FuncIndex::build(&f), &roots, &claimed);
        assert!(!web.members.contains(&named(&f, "acc")));
        // The yield feeding a claimed φ becomes a sink (decoded there).
        assert!(!web.sinks.is_empty());
    }

    #[test]
    fn if_results_join_and_other_branch_is_boundary() {
        let f = parse_function(
            r#"
fn @f(%s: Set<u64>, %c: bool) -> void {
  %z = const 0u64
  %r = foreach %s carry(%z) as (%v: u64, %acc: u64) {
    %x = if %c then {
      yield %v
    } else {
      %k = const 7u64
      yield %k
    }
    yield %x
  }
  print %r
  ret
}
"#,
        )
        .expect("parses");
        let roots: BTreeSet<ValueId> = [named(&f, "v")].into_iter().collect();
        let web = compute_web(&f, &FuncIndex::build(&f), &roots, &BTreeSet::new());
        assert!(web.members.contains(&named(&f, "x")));
        // Two boundary adds: %k (the other if branch) and %z (the loop
        // carry-in feeding %acc, which joined the web through %x).
        assert_eq!(web.boundary_adds.len(), 2, "{web:?}");
        // %r (printed) is a member whose print use is a sink.
        assert!(web.members.contains(&named(&f, "r")));
    }

    #[test]
    fn identifier_carried_through_a_forrange() {
        let f = parse_function(
            r#"
fn @f(%m: Map<u64, u64>, %n: u64) -> void {
  %lo = const 0u64
  %z = const 0u64
  %last = forrange %lo, %n carry(%z) as (%i: u64, %cur: u64) {
    %p = read %m, %cur
    yield %p
  }
  print %last
  ret
}
"#,
        )
        .expect("parses");
        let roots: BTreeSet<ValueId> = [named(&f, "p")].into_iter().collect();
        let web = compute_web(&f, &FuncIndex::build(&f), &roots, &BTreeSet::new());
        let want: BTreeSet<ValueId> = ["cur", "last"].map(|n| named(&f, n)).into();
        assert_eq!(web.members, want, "{web:?}");
        // %z enters the carry: the forrange's operand past both bounds.
        let ade_ir::ValueDef::InstResult { inst, .. } = f.value(named(&f, "last")).def else {
            panic!("%last is a result");
        };
        let entry: BTreeSet<UseSite> = [UseSite::plain(inst, 2)].into();
        assert_eq!(web.boundary_adds, entry, "{web:?}");
        // Sinks: the read key (%cur) and the print of %last.
        assert_eq!(web.sinks.len(), 2, "{web:?}");
    }

    #[test]
    fn identifier_carried_through_a_map_foreach_with_two_carries() {
        let f = parse_function(
            r#"
fn @f(%m: Map<u64, u64>) -> void {
  %z = const 0u64
  %y = const 1u64
  %a, %b = foreach %m carry(%z, %y) as (%k: u64, %v: u64, %x: u64, %w: u64) {
    yield %w, %k
  }
  print %a, %b
  ret
}
"#,
        )
        .expect("parses");
        // %k flows into the second carry (%w, %b), which the next
        // iteration yields into the first (%x, %a); %v stays out.
        let roots: BTreeSet<ValueId> = [named(&f, "k")].into_iter().collect();
        let web = compute_web(&f, &FuncIndex::build(&f), &roots, &BTreeSet::new());
        let want: BTreeSet<ValueId> = ["x", "w", "a", "b"].map(|n| named(&f, n)).into();
        assert_eq!(web.members, want, "{web:?}");
        // Both carry-ins (%z, %y: operands 1 and 2) are boundary adds.
        let ade_ir::ValueDef::InstResult { inst, .. } = f.value(named(&f, "a")).def else {
            panic!("%a is a result");
        };
        let entry: BTreeSet<UseSite> = [UseSite::plain(inst, 1), UseSite::plain(inst, 2)].into();
        assert_eq!(web.boundary_adds, entry, "{web:?}");
        // Sinks: both print operands.
        assert_eq!(web.sinks.len(), 2, "{web:?}");
    }
}
