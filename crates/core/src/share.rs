//! Candidate formation for enumeration sharing and propagation
//! (paper §III-D–E, Algorithm 3).
//!
//! A *candidate* is a maximal group of collection entities sharing one
//! enumeration. Entities join in one of two roles: their **keys** are
//! enumerated (`CanShare`: an associative collection whose key type
//! matches), or they become a **propagator** whose *elements* store
//! identifiers (`CanPropagate`: element type matches). Inclusion is
//! greedy and must beat the sum of its parts on the benefit heuristic;
//! §III-I directives override the heuristic.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::rc::Rc;

use ade_analysis::{EscapeAnalysis, RedefChains};
use ade_ir::{Function, InstId, InstKind, Module, Type, ValueId};

use crate::index::FuncIndex;
use crate::patch::{
    key_roots, nesting, propagator_roots, uses_to_patch_keys, uses_to_patch_propagator,
    CollectionEntity, PatchSets,
};
use crate::rte::find_redundant;
use crate::web::{compute_web, PhiWeb};
use crate::AdeOptions;

/// How an entity participates in a candidate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemberRole {
    /// The entity's keys are translated to identifiers.
    pub keys: bool,
    /// The entity's elements store identifiers (§III-E).
    pub propagator: bool,
}

/// One entity inside a candidate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Member {
    /// The collection entity.
    pub entity: CollectionEntity,
    /// Its role(s).
    pub role: MemberRole,
}

/// A group of entities sharing one enumeration.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// Members with their roles.
    pub members: Vec<Member>,
    /// The benefit heuristic value that justified the candidate.
    pub benefit: usize,
    /// The enumerated key domain.
    pub key_ty: Type,
    /// Whether a directive forced this candidate regardless of benefit.
    pub forced: bool,
}

/// One entity's contribution to a candidate in one role: its patch sets
/// (Algorithm 1 for keys, Algorithm 4 for a propagator) and the
/// identifier roots its φ-web grows from.
#[derive(Debug)]
pub(crate) struct RolePiece {
    /// Sites to patch before the φ-web closure.
    pub(crate) sets: PatchSets,
    /// Identifier roots (for-each key bindings, or propagator reads and
    /// value bindings).
    pub(crate) roots: BTreeSet<ValueId>,
}

/// Cached per-function analysis state shared by candidate formation and
/// interprocedural planning.
pub struct FuncAnalysis<'f> {
    /// The function under analysis.
    pub func: &'f Function,
    /// Its redef chains.
    pub chains: RedefChains,
    /// Its escape analysis.
    pub escape: EscapeAnalysis,
    /// Entities eligible as candidate seeds (associative, enumerable,
    /// non-escaping), each with its allocation instruction if any.
    pub seed_entities: Vec<(CollectionEntity, Option<InstId>)>,
    /// All entities that may join candidates (seeds plus sequences and
    /// nested collections).
    pub all_entities: Vec<(CollectionEntity, Option<InstId>)>,
    /// Use sites, parent regions and region owners.
    pub index: FuncIndex,
    /// Memoized [`FuncAnalysis::piece`] answers.
    pieces: RefCell<PieceMemo>,
}

/// [`FuncAnalysis::piece`] answers keyed by entity and whether the role
/// is the propagator one.
type PieceMemo = HashMap<(CollectionEntity, bool), Option<Rc<RolePiece>>>;

impl FuncAnalysis<'_> {
    /// `entity`'s patch sets and identifier roots as a keys member
    /// (`propagator == false`) or as a propagator (`None` when Algorithm 4
    /// rejects it). Each answer is computed once and shared by every
    /// benefit query of Algorithm 3.
    pub(crate) fn piece(
        &self,
        entity: CollectionEntity,
        propagator: bool,
    ) -> Option<Rc<RolePiece>> {
        if let Some(piece) = self.pieces.borrow().get(&(entity, propagator)) {
            return piece.clone();
        }
        let piece = if propagator {
            uses_to_patch_propagator(self.func, &self.chains, entity).map(|sets| RolePiece {
                sets,
                roots: propagator_roots(self.func, &self.chains, entity),
            })
        } else {
            Some(RolePiece {
                sets: uses_to_patch_keys(self.func, &self.chains, entity),
                roots: key_roots(self.func, &self.chains, entity),
            })
        }
        .map(Rc::new);
        self.pieces
            .borrow_mut()
            .insert((entity, propagator), piece.clone());
        piece
    }
}

/// Builds the per-function analysis state.
pub fn analyze_function<'f>(module: &Module, func: &'f Function) -> FuncAnalysis<'f> {
    let chains = RedefChains::compute(func);
    let escape = EscapeAnalysis::compute(module, func, &chains);
    let mut seed_entities: Vec<(CollectionEntity, Option<InstId>)> = Vec::new();
    let mut all_entities: Vec<(CollectionEntity, Option<InstId>)> = Vec::new();
    // Registers a non-escaping chain root at every nesting level; the
    // associative levels with enumerable keys also seed candidates. A
    // chain registers once: distinct allocations on one φ-connected
    // chain (e.g. a double-buffered map swapped through loop carries)
    // are ONE collection entity, or a chain could join two enumerations
    // at once, and the first allocation's directives apply.
    let mut register = |root: ValueId, alloc: Option<InstId>| {
        let top = CollectionEntity { root, depth: 0 };
        if escape.escapes(root) || all_entities.iter().any(|(e, _)| *e == top) {
            return;
        }
        for (depth, ty) in nesting(func.value_ty(root)) {
            let entity = CollectionEntity { root, depth };
            if ty.is_assoc() && ty.key_type().is_some_and(Type::is_enumerable_key) {
                seed_entities.push((entity, alloc));
            }
            all_entities.push((entity, alloc));
        }
    };
    for alloc in allocations(func) {
        register(chains.root_of(func.inst(alloc).results[0]), Some(alloc));
    }
    // Collection parameters seed candidates too: the redundancy that
    // justifies enumerating a caller's allocation often lives in the
    // callee that does the hot work (the paper's @find helper). The
    // interprocedural unification (Algorithm 5) reconciles the caller
    // side afterwards.
    for &param in &func.params {
        if func.value_ty(param).is_collection() {
            register(chains.root_of(param), None);
        }
    }
    FuncAnalysis {
        func,
        chains,
        escape,
        seed_entities,
        all_entities,
        index: FuncIndex::build(func),
        pieces: RefCell::default(),
    }
}

/// The instructions that create a collection: collection `new`s and
/// literals.
fn allocations(func: &Function) -> Vec<InstId> {
    func.all_insts()
        .into_iter()
        .filter(|&i| match &func.inst(i).kind {
            InstKind::New(ty) => ty.is_collection(),
            InstKind::Literal { .. } => true,
            _ => false,
        })
        .collect()
}

/// Merged patch sets of a whole member list (one shared enumeration):
/// the members' memoized pieces plus one φ-web over all their roots
/// (`claimed` values belong to other enumerations' webs). `None` when a
/// propagator member cannot propagate.
pub fn members_patch_sets(
    fa: &FuncAnalysis<'_>,
    members: &[Member],
    claimed: &BTreeSet<ValueId>,
) -> Option<(PatchSets, PhiWeb, BTreeSet<ValueId>)> {
    let mut sets = PatchSets::default();
    let mut roots = BTreeSet::new();
    for m in members {
        for (wanted, propagator) in [(m.role.keys, false), (m.role.propagator, true)] {
            if wanted {
                let piece = fa.piece(m.entity, propagator)?;
                sets.extend(&piece.sets);
                roots.extend(&piece.roots);
            }
        }
    }
    let web = compute_web(fa.func, &fa.index, &roots, claimed);
    sets.to_dec.extend(&web.sinks);
    sets.to_add.extend(&web.boundary_adds);
    Some((sets, web, roots))
}

/// The `BENEFIT` function of Algorithm 3: trims found on the merged
/// patch sets.
pub fn members_benefit(fa: &FuncAnalysis<'_>, members: &[Member]) -> usize {
    let empty = BTreeSet::new();
    match members_patch_sets(fa, members, &empty) {
        Some((sets, _, _)) => find_redundant(fa.func, &sets).benefit(),
        None => 0,
    }
}

/// The directives on `alloc`'s collection at nesting `depth`.
pub(crate) fn directive_of<'f>(
    fa: &FuncAnalysis<'f>,
    alloc: Option<InstId>,
    depth: usize,
) -> Option<&'f ade_ir::DirectiveSet> {
    alloc
        .and_then(|a| fa.func.directive(a))
        .and_then(|d| d.at_depth(depth))
}

/// `CanShare` (§III-D): a collection of type `ty` can have its keys
/// enumerated over `key_ty` when it is associative with that key type.
pub(crate) fn can_share(ty: &Type, key_ty: &Type) -> bool {
    ty.is_assoc() && ty.key_type() == Some(key_ty)
}

/// `CanPropagate` (§III-E): a collection of type `ty` can store
/// identifiers of `key_ty` when its element type is `key_ty`.
pub(crate) fn can_propagate(ty: &Type, key_ty: &Type) -> bool {
    match ty {
        Type::Map { val, .. } => **val == *key_ty,
        Type::Seq(elem) => **elem == *key_ty,
        _ => false,
    }
}

/// Algorithm 3: find candidates for enumeration sharing within one
/// function, honoring directives and the pass options.
pub fn find_candidates(fa: &FuncAnalysis<'_>, options: &AdeOptions) -> Vec<Candidate> {
    let mut used: BTreeSet<CollectionEntity> = BTreeSet::new();
    let mut candidates: Vec<Candidate> = Vec::new();

    // Directive pre-pass: explicit share groups form forced candidates.
    let mut groups: BTreeMap<String, Vec<(CollectionEntity, Option<InstId>)>> = BTreeMap::new();
    for &(entity, alloc) in &fa.seed_entities {
        if let Some(d) = directive_of(fa, alloc, entity.depth) {
            if let Some(g) = &d.share_group {
                groups.entry(g.clone()).or_default().push((entity, alloc));
            }
        }
    }
    for (_, group) in groups {
        let Some(key_ty) = group[0].0.key_ty(fa.func) else {
            continue;
        };
        let members: Vec<Member> = group
            .iter()
            .map(|&(entity, _)| Member {
                entity,
                role: MemberRole {
                    keys: true,
                    propagator: false,
                },
            })
            .collect();
        used.extend(members.iter().map(|m| m.entity));
        let benefit = members_benefit(fa, &members);
        candidates.push(Candidate {
            members,
            benefit,
            key_ty,
            forced: true,
        });
    }

    for &(entity, alloc) in &fa.seed_entities {
        if used.contains(&entity) {
            continue;
        }
        let directive = directive_of(fa, alloc, entity.depth);
        if directive.is_some_and(|d| d.enumerate == Some(false)) {
            used.insert(entity);
            continue;
        }
        let Some(key_ty) = entity.key_ty(fa.func) else {
            continue;
        };
        let noshare = directive.is_some_and(|d| d.noshare) || !options.sharing;

        let mut members = vec![Member {
            entity,
            role: MemberRole {
                keys: true,
                propagator: false,
            },
        }];
        used.insert(entity);

        if !noshare {
            // Greedy extension to a fixpoint: an entity joins if the
            // candidate's benefit exceeds the sum of its parts. Later
            // members can unlock earlier ones (e.g. propagating the
            // adjacency lists only pays once the distance map shares the
            // enumeration), so sweep until nothing more joins —
            // Algorithm 3's "maximal set".
            loop {
                let mut grew = false;
                // The candidate's own benefit is invariant across this pass;
                // recompute it only when a member is accepted.
                let mut base_benefit = members_benefit(fa, &members);
                for &(other, other_alloc) in &fa.all_entities {
                    if used.contains(&other) || other == entity {
                        continue;
                    }
                    let other_directive = directive_of(fa, other_alloc, other.depth);
                    if other_directive.is_some_and(|d| d.noshare || d.enumerate == Some(false)) {
                        continue;
                    }
                    // Try each applicable role combination and keep the best
                    // strictly-improving one, preferring fewer roles (a
                    // needless propagator role would mix unrelated values —
                    // e.g. distances — into the enumeration).
                    let other_ty = other.ty(fa.func);
                    let shareable = can_share(&other_ty, &key_ty);
                    let propagatable = options.propagation && can_propagate(&other_ty, &key_ty);
                    let mut role_options: Vec<MemberRole> = Vec::new();
                    if shareable {
                        role_options.push(MemberRole {
                            keys: true,
                            propagator: false,
                        });
                    }
                    if propagatable {
                        role_options.push(MemberRole {
                            keys: false,
                            propagator: true,
                        });
                    }
                    if shareable && propagatable {
                        role_options.push(MemberRole {
                            keys: true,
                            propagator: true,
                        });
                    }
                    let mut best: Option<(usize, MemberRole)> = None;
                    for role in role_options {
                        let member = Member {
                            entity: other,
                            role,
                        };
                        let b_solo = members_benefit(fa, std::slice::from_ref(&member));
                        let b_sum = base_benefit + b_solo;
                        let mut extended = members.clone();
                        extended.push(member);
                        let b_union = members_benefit(fa, &extended);
                        if b_union > b_sum && best.is_none_or(|(b, _)| b_union > b) {
                            best = Some((b_union, role));
                        }
                    }
                    if let Some((new_benefit, role)) = best {
                        members.push(Member {
                            entity: other,
                            role,
                        });
                        used.insert(other);
                        base_benefit = new_benefit;
                        grew = true;
                    }
                }
                if !grew {
                    break;
                }
            }
            // The seed itself may additionally propagate (Listing 4's
            // Map<idx, idx> union-find).
            if options.propagation && can_propagate(&entity.ty(fa.func), &key_ty) {
                let mut extended = members.clone();
                extended[0].role.propagator = true;
                let before = members_benefit(fa, &members);
                if members_benefit(fa, &extended) > before {
                    members = extended;
                }
            }
        }

        let benefit = members_benefit(fa, &members);
        let forced = directive.is_some_and(|d| d.enumerate == Some(true));
        if benefit > 0 || forced {
            candidates.push(Candidate {
                members,
                benefit,
                key_ty,
                forced,
            });
        } else {
            // Release the members for other seeds to claim.
            for m in &members {
                if m.entity != entity {
                    used.remove(&m.entity);
                }
            }
        }
    }

    enforce_union_constraints(fa, &mut candidates);
    candidates
}

/// A `union(dst, src)` requires both sides to share an enumeration (or
/// neither to be enumerated): absorb the missing side when possible,
/// otherwise drop the enumerated side's membership.
fn enforce_union_constraints(fa: &FuncAnalysis<'_>, candidates: &mut Vec<Candidate>) {
    let pairs = union_pairs(fa);
    loop {
        let mut changed = false;
        for (a, b) in &pairs {
            let ca = candidate_index_of(fa, candidates, *a);
            let cb = candidate_index_of(fa, candidates, *b);
            match (ca, cb) {
                (Some(i), None) => {
                    changed |= absorb_or_drop(fa, candidates, i, *b, *a);
                }
                (None, Some(i)) => {
                    changed |= absorb_or_drop(fa, candidates, i, *a, *b);
                }
                (Some(i), Some(j)) if i != j => {
                    // Merge the two candidates into one enumeration.
                    let other = candidates.remove(j.max(i));
                    let keep = i.min(j);
                    candidates[keep].members.extend(other.members);
                    candidates[keep].benefit += other.benefit;
                    changed = true;
                }
                _ => {}
            }
            if changed {
                break;
            }
        }
        if !changed {
            return;
        }
    }
}

fn union_pairs(fa: &FuncAnalysis<'_>) -> Vec<(ValueId, ValueId)> {
    let mut out = Vec::new();
    for inst_id in fa.func.all_insts() {
        let inst = fa.func.inst(inst_id);
        if inst.kind == InstKind::UnionInto
            && inst.operands[0].path.is_empty()
            && inst.operands[1].path.is_empty()
        {
            out.push((
                fa.chains.root_of(inst.operands[0].base),
                fa.chains.root_of(inst.operands[1].base),
            ));
        }
    }
    out
}

fn candidate_index_of(
    fa: &FuncAnalysis<'_>,
    candidates: &[Candidate],
    root: ValueId,
) -> Option<usize> {
    candidates.iter().position(|c| {
        c.members
            .iter()
            .any(|m| m.role.keys && entity_covers_root(fa, m.entity, root))
    })
}

/// Whether `root`'s chain is one of the alias levels of `entity` at the
/// entity's own depth.
fn entity_covers_root(fa: &FuncAnalysis<'_>, entity: CollectionEntity, root: ValueId) -> bool {
    let levels = crate::patch::entity_levels(fa.func, &fa.chains, entity);
    levels.last().is_some_and(|level| level.contains(&root))
}

fn absorb_or_drop(
    fa: &FuncAnalysis<'_>,
    candidates: &mut [Candidate],
    idx: usize,
    missing_root: ValueId,
    present_root: ValueId,
) -> bool {
    let key_ty = candidates[idx].key_ty.clone();
    let missing = CollectionEntity {
        root: fa.chains.root_of(missing_root),
        depth: 0,
    };
    let blocked = fa
        .all_entities
        .iter()
        .find(|(e, _)| *e == missing)
        .and_then(|&(e, alloc)| directive_of(fa, alloc, e.depth))
        .is_some_and(|d| d.enumerate == Some(false));
    if blocked || fa.escape.escapes(missing.root) || !can_share(&missing.ty(fa.func), &key_ty) {
        // Cannot absorb: drop every keys-member unified with the present
        // root (conservative: drop the whole candidate's keys roles that
        // touch this union).
        candidates[idx]
            .members
            .retain(|m| !(m.role.keys && entity_covers_root(fa, m.entity, present_root)));
        return true;
    }
    candidates[idx].members.push(Member {
        entity: missing,
        role: MemberRole {
            keys: true,
            propagator: false,
        },
    });
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use ade_ir::parse::parse_module;

    fn first_func(m: &Module) -> &Function {
        &m.funcs[0]
    }

    #[test]
    fn histogram_with_input_seq_forms_shared_candidate() {
        let m = parse_module(
            r#"
fn @main() -> void {
  %input = new Seq<f64>
  %x = const 2.5f64
  %n = size %input
  %i0 = insert %input, %n, %x
  %hist = new Map<f64, u64>
  %out = foreach %i0 carry(%hist) as (%i: u64, %v: f64, %h: Map<f64, u64>) {
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
  ret
}
"#,
        )
        .expect("parses");
        let f = first_func(&m);
        let fa = analyze_function(&m, f);
        let candidates = find_candidates(&fa, &AdeOptions::default());
        assert_eq!(candidates.len(), 1, "{candidates:?}");
        let c = &candidates[0];
        assert!(c.benefit > 0);
        // Two members: the map (keys) and the input sequence (propagator).
        assert_eq!(c.members.len(), 2, "{c:?}");
        assert!(c.members.iter().any(|m| m.role.propagator));
        assert_eq!(c.key_ty, Type::F64);
    }

    #[test]
    fn lone_collection_without_redundancy_is_rejected() {
        let m = parse_module(
            "fn @main() -> void {\n  %s = new Set<u64>\n  %x = const 1u64\n  %s1 = insert %s, %x\n  ret\n}\n",
        )
        .expect("parses");
        let f = first_func(&m);
        let fa = analyze_function(&m, f);
        let candidates = find_candidates(&fa, &AdeOptions::default());
        assert!(candidates.is_empty(), "{candidates:?}");
    }

    #[test]
    fn sharing_disabled_blocks_merging() {
        let m = parse_module(
            r#"
fn @main() -> void {
  %a = new Set<u64>
  %b = new Set<u64>
  %x = const 1u64
  %a1 = insert %a, %x
  %z = const 0u64
  %n, %bout = foreach %a1 carry(%z, %b) as (%v: u64, %acc: u64, %bb: Set<u64>) {
    %h = has %bb, %v
    %b1 = insert %bb, %v
    %one = const 1u64
    %acc1 = add %acc, %one
    yield %acc1, %b1
  }
  print %n
  ret
}
"#,
        )
        .expect("parses");
        let f = first_func(&m);
        let fa = analyze_function(&m, f);
        let full = find_candidates(&fa, &AdeOptions::default());
        assert_eq!(full.len(), 1);
        assert_eq!(full[0].members.len(), 2, "{full:?}");
        let nosharing = find_candidates(&fa, &AdeOptions::without_sharing());
        // Without sharing no trims surface for either set alone.
        assert!(nosharing.is_empty(), "{nosharing:?}");
    }

    #[test]
    fn noenumerate_directive_blocks_candidacy() {
        let m = parse_module(
            r#"
fn @main() -> void {
  %a = new Set<u64> #[noenumerate]
  %b = new Set<u64>
  %x = const 1u64
  %a1 = insert %a, %x
  %z = const 0u64
  %n, %bout = foreach %a1 carry(%z, %b) as (%v: u64, %acc: u64, %bb: Set<u64>) {
    %h = has %bb, %v
    %b1 = insert %bb, %v
    %one = const 1u64
    %acc1 = add %acc, %one
    yield %acc1, %b1
  }
  print %n
  ret
}
"#,
        )
        .expect("parses");
        let f = first_func(&m);
        let fa = analyze_function(&m, f);
        let candidates = find_candidates(&fa, &AdeOptions::default());
        // %a refuses enumeration; %b alone has no redundancy.
        assert!(candidates.is_empty(), "{candidates:?}");
    }

    #[test]
    fn enumerate_directive_forces_candidate() {
        let m = parse_module(
            "fn @main() -> void {\n  %s = new Set<u64> #[enumerate]\n  %x = const 1u64\n  %s1 = insert %s, %x\n  ret\n}\n",
        )
        .expect("parses");
        let f = first_func(&m);
        let fa = analyze_function(&m, f);
        let candidates = find_candidates(&fa, &AdeOptions::default());
        assert_eq!(candidates.len(), 1);
        assert!(candidates[0].forced);
    }

    #[test]
    fn share_group_directive_merges_unconditionally() {
        let m = parse_module(
            r#"
fn @main() -> void {
  %a = new Set<u64> #[group("g")]
  %b = new Set<u64> #[group("g")]
  %x = const 1u64
  %a1 = insert %a, %x
  %b1 = insert %b, %x
  ret
}
"#,
        )
        .expect("parses");
        let f = first_func(&m);
        let fa = analyze_function(&m, f);
        let candidates = find_candidates(&fa, &AdeOptions::default());
        assert_eq!(candidates.len(), 1);
        assert!(candidates[0].forced);
        assert_eq!(candidates[0].members.len(), 2);
    }

    #[test]
    fn union_constraint_absorbs_partner() {
        let m = parse_module(
            r#"
fn @main() -> void {
  %a = new Set<u64>
  %b = new Set<u64>
  %c = new Set<u64>
  %x = const 1u64
  %b1 = insert %b, %x
  %z = const 0u64
  %n, %aout = foreach %b1 carry(%z, %a) as (%v: u64, %acc: u64, %aa: Set<u64>) {
    %h = has %aa, %v
    %a1 = insert %aa, %v
    %one = const 1u64
    %acc1 = add %acc, %one
    yield %acc1, %a1
  }
  %a2 = union %aout, %c
  print %z
  ret
}
"#,
        )
        .expect("parses");
        // %a and %b share via the loop; %c is unioned into %a's chain and
        // must join the same enumeration.
        let f = first_func(&m);
        let fa = analyze_function(&m, f);
        let candidates = find_candidates(&fa, &AdeOptions::default());
        assert_eq!(candidates.len(), 1, "{candidates:?}");
        assert!(
            candidates[0].members.len() >= 3,
            "union partner must be absorbed: {candidates:?}"
        );
    }
}
