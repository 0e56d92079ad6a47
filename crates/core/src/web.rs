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
    let inst = func.inst(site.inst);
    match inst.kind {
        InstKind::Yield => {
            let owner = index.owner_of(index.parent_region(site.inst)?)?;
            let owner_inst = func.inst(owner);
            let args = &func.region(owner_inst.regions[0]).args;
            match owner_inst.kind {
                InstKind::If => owner_inst.results.get(pos).map(|&r| vec![r]),
                InstKind::ForEach => {
                    let iter = iter_arg_count(func, owner);
                    let carried = pos;
                    let mut t = vec![args[iter + carried]];
                    if let Some(&r) = owner_inst.results.get(carried) {
                        t.push(r);
                    }
                    Some(t)
                }
                InstKind::ForRange => {
                    let mut t = vec![args[1 + pos]];
                    if let Some(&r) = owner_inst.results.get(pos) {
                        t.push(r);
                    }
                    Some(t)
                }
                InstKind::DoWhile => {
                    if pos == 0 {
                        return None; // the loop condition
                    }
                    let carried = pos - 1;
                    let mut t = vec![args[carried]];
                    if let Some(&r) = owner_inst.results.get(carried) {
                        t.push(r);
                    }
                    Some(t)
                }
                _ => None,
            }
        }
        InstKind::ForEach if pos >= 1 => {
            let args = &func.region(inst.regions[0]).args;
            let iter = iter_arg_count(func, site.inst);
            let carried = pos - 1;
            Some(vec![args[iter + carried], inst.results[carried]])
        }
        InstKind::ForRange if pos >= 2 => {
            let args = &func.region(inst.regions[0]).args;
            let carried = pos - 2;
            Some(vec![args[1 + carried], inst.results[carried]])
        }
        InstKind::DoWhile => {
            let args = &func.region(inst.regions[0]).args;
            Some(vec![args[pos], inst.results[pos]])
        }
        _ => None,
    }
}

/// Number of iteration-variable arguments of a `ForEach` (1 for sets,
/// 2 for sequences and maps).
fn iter_arg_count(func: &Function, foreach: InstId) -> usize {
    let inst = func.inst(foreach);
    let coll = ade_ir::builder::operand_type_in(func, &inst.operands[0]);
    ade_ir::typing::iteration_types(coll).map_or(1, |vars| vars.len())
}

/// φ-source sites of a web member (the uses that feed it).
fn phi_sources(func: &Function, func_index: &FuncIndex, member: ValueId) -> Vec<UseSite> {
    let mut out = Vec::new();
    match func.value(member).def {
        ade_ir::ValueDef::RegionArg { region, index } => {
            let Some(owner_id) = func_index.owner_of(region) else {
                return out;
            };
            let owner = func.inst(owner_id);
            let (carry_base, iter) = match owner.kind {
                InstKind::ForEach => (1, iter_arg_count(func, owner_id)),
                InstKind::ForRange => (2, 1),
                InstKind::DoWhile => (0, 0),
                _ => return out,
            };
            if index < iter {
                return out; // iteration variable, no φ sources
            }
            let carried = index - iter;
            // Loop-entry source: the carry operand.
            out.push(UseSite::plain(owner_id, carry_base + carried));
            // Backedge source: the body yield operand.
            if let Some(site) = yield_site(func, owner, carried, matches!(owner.kind, InstKind::DoWhile)) {
                out.push(site);
            }
        }
        ade_ir::ValueDef::InstResult { inst, index } => {
            let owner = func.inst(inst);
            match owner.kind {
                InstKind::If => {
                    for &r in &owner.regions {
                        if let Some(&last) = func.region(r).insts.last() {
                            out.push(UseSite::plain(last, index));
                        }
                    }
                }
                InstKind::ForEach => {
                    out.push(UseSite::plain(inst, 1 + index));
                    if let Some(site) = yield_site(func, owner, index, false) {
                        out.push(site);
                    }
                }
                InstKind::ForRange => {
                    out.push(UseSite::plain(inst, 2 + index));
                    if let Some(site) = yield_site(func, owner, index, false) {
                        out.push(site);
                    }
                }
                InstKind::DoWhile => {
                    out.push(UseSite::plain(inst, index));
                    if let Some(site) = yield_site(func, owner, index, true) {
                        out.push(site);
                    }
                }
                _ => {}
            }
        }
        ade_ir::ValueDef::Param(_) => {}
    }
    out
}

fn yield_site(
    func: &Function,
    owner: &ade_ir::Inst,
    carried: usize,
    skip_cond: bool,
) -> Option<UseSite> {
    let body = owner.regions[0];
    let &last = func.region(body).insts.last()?;
    if func.inst(last).kind != InstKind::Yield {
        return None;
    }
    Some(UseSite::plain(last, carried + usize::from(skip_cond)))
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
}
