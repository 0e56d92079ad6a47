//! Interprocedural planning (paper §III-F, Algorithm 5).
//!
//! Collections crossing call boundaries are unified with a union-find
//! over `(function, chain root, depth)` nodes: a call argument joins the
//! callee's parameter at every nesting depth of the passed collection,
//! and the members of each local candidate join each other. Each
//! equivalence class that keeps a planned member receives one
//! module-level enumeration — exactly the paper's "each class is given a
//! global variable to store the enumeration". Recursion needs no special
//! case: the recursive call edge unifies the parameter with itself, so
//! every invocation reuses the same enumeration (avoiding the
//! construction overhead the paper reports caused timeouts).
//!
//! When a callee's parameter is enumerated for only *some* callers (or
//! the callee is externally visible), the callee is cloned: the clone is
//! transformed and agreeing call sites are retargeted, while dissenting
//! callers keep the original (§III-F). A clone is created only when a
//! retargeted call reaches it, so an exported callee whose callers all
//! dissent (passing a collection to it makes it escape) is left alone.
//!
//! [`plan_module_traced`] runs Algorithm 5 in three stages after the
//! per-function candidates of Algorithm 3: `classify` builds the classes
//! and drops the poisoned ones, `materialize` routes each class's
//! members to functions or clone slots and finds its retargets, and
//! `finalize` turns each function's members into patch sets, then keeps
//! and numbers only the enumerations, clones and retargets that the
//! surviving classes use. The `CanShare`/`CanPropagate` rules live in
//! [`crate::share`] only.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};

use ade_analysis::{CallGraph, UnionFind};
use ade_ir::{FuncId, InstId, InstKind, Module, Type, ValueId};

use crate::patch::{nesting, CollectionEntity, OperandPos, PatchSets};
use crate::rte::{apply_trims, find_redundant};
use crate::share::{
    analyze_function, can_propagate, can_share, directive_of, find_candidates, members_patch_sets,
    Candidate, FuncAnalysis, Member, MemberRole,
};
use crate::AdeOptions;

/// One candidate, fully planned: final patch sets (trims applied when RTE
/// is on) and the φ-web values to retype.
#[derive(Clone, Debug)]
pub struct PlannedCandidate {
    /// Index into [`ModulePlan::enum_key_tys`].
    pub enum_idx: usize,
    /// Member entities and roles.
    pub members: Vec<Member>,
    /// Sites to patch, after trimming.
    pub sets: PatchSets,
    /// Scalar values to retype to `idx` (φ-web members).
    pub web_members: BTreeSet<ValueId>,
    /// Its class's benefit: the summed benefit of the class's
    /// Algorithm 3 candidates.
    pub benefit: usize,
}

/// A function to clone for partially-enumerated parameters.
#[derive(Clone, Debug)]
pub struct CloneSpec {
    /// The function to copy.
    pub source: FuncId,
    /// Name for the clone.
    pub new_name: String,
}

/// The whole-module ADE plan.
#[derive(Clone, Debug, Default)]
pub struct ModulePlan {
    /// Key type of each enumeration to create: one per class that kept
    /// a planned member, in class order.
    pub enum_key_tys: Vec<Type>,
    /// The candidates to materialize, keyed by final function id
    /// (clones occupy ids past the current function count).
    pub func_plans: BTreeMap<u32, Vec<PlannedCandidate>>,
    /// Clones to create, in source order (clone `k` gets id
    /// `n_funcs + k`): only those a retarget reaches from original code.
    pub clones: Vec<CloneSpec>,
    /// Call sites to retarget: `(function, inst, new callee)`. Function
    /// ids refer to post-clone numbering.
    pub retargets: Vec<(FuncId, InstId, FuncId)>,
}

/// Node key for the interprocedural union-find: (function index,
/// chain-root value index, nesting depth).
type Node = (u32, u32, usize);

/// The interprocedural union-find, its nodes numbered on first sight.
#[derive(Default)]
struct Nodes {
    uf: UnionFind,
    ids: BTreeMap<Node, usize>,
}

impl Nodes {
    fn id(&mut self, node: Node) -> usize {
        *self.ids.entry(node).or_insert_with(|| self.uf.push())
    }

    fn union(&mut self, a: Node, b: Node) {
        let (a, b) = (self.id(a), self.id(b));
        self.uf.union(a, b);
    }

    /// The class of a node seen before.
    fn class(&self, node: Node) -> Option<usize> {
        self.ids.get(&node).map(|&i| self.uf.find_const(i))
    }
}

/// One interprocedural equivalence class: one module-level enumeration.
struct Class {
    /// The enumerated key domain (the first joining candidate's).
    key_ty: Type,
    /// The summed benefit of the candidates in the class.
    benefit: usize,
    /// (func, member) pairs chosen by Algorithm 3.
    chosen: Vec<(u32, Member)>,
    /// Collection parameters in the class: (func, param, depth).
    params: Vec<(u32, ValueId, usize)>,
    /// Non-chosen, non-blocked entities in the class, (func, root,
    /// depth): enumeration flows back to them as derived members.
    derived: Vec<(u32, ValueId, usize)>,
    /// Whether a directive-blocked entity is in the class: its call
    /// paths must keep the original code, which forces cloning.
    dissent: bool,
}

/// A function the plan may patch: `(is a clone, source function)`, so
/// that original functions order before clones.
type Slot = (bool, u32);

/// Members routed per slot: (class index, member).
type SlotMembers = BTreeMap<Slot, Vec<(usize, Member)>>;

/// A call site to retarget to a clone: (caller, inst, callee's source).
type Retarget = (Slot, InstId, u32);

/// Plans ADE for the whole module, with decision events on `tracer`:
/// escape verdicts, candidate formation, RTE trims, poisoned classes,
/// clone and retarget choices.
pub fn plan_module_traced(
    module: &Module,
    options: &AdeOptions,
    tracer: &ade_obs::Tracer,
) -> ModulePlan {
    // Per-function candidate discovery (Algorithm 3).
    let analyses: Vec<_> = module
        .funcs
        .iter()
        .map(|f| analyze_function(module, f))
        .collect();
    let candidates: Vec<Vec<Candidate>> = analyses
        .iter()
        .map(|fa| find_candidates(fa, options))
        .collect();
    if tracer.is_enabled() {
        {
            let _span = tracer.span("analysis", "escape");
            for fa in &analyses {
                fa.escape.trace_verdicts(tracer, fa.func);
            }
        }
        for (fa, cands) in analyses.iter().zip(&candidates) {
            for cand in cands {
                tracer
                    .event("share", "candidate")
                    .field("func", fa.func.name.as_str())
                    .field("key_ty", cand.key_ty.to_string())
                    .field("members", cand.members.len())
                    .field("benefit", cand.benefit)
                    .field("forced", cand.forced)
                    .emit();
            }
        }
    }

    let callgraph = CallGraph::compute(module);
    let classes = classify(module, &callgraph, &analyses, &candidates, tracer);
    let (members, retargets) = materialize(module, &callgraph, &analyses, &classes);
    let plan = finalize(&classes, members, &retargets, &analyses, options, tracer);

    if tracer.is_enabled() {
        for spec in &plan.clones {
            tracer
                .event("interproc", "clone")
                .field("source", module.funcs[spec.source.index()].name.as_str())
                .field("clone", spec.new_name.as_str())
                .emit();
        }
        let retargeted = plan.retargets.len() as u64;
        tracer.counter("interproc", "retargeted-call-sites", retargeted);
    }
    plan
}

/// Unifies collections across calls and groups the chosen members into
/// classes, each with the parameters, derived entities and dissent it
/// reaches. A class whose parameter escapes inside its callee (returned,
/// stored into another collection) can never be retyped, so it is
/// dropped as poisoned (paper §III-F's conservative escape handling).
fn classify(
    module: &Module,
    callgraph: &CallGraph,
    analyses: &[FuncAnalysis<'_>],
    candidates: &[Vec<Candidate>],
    tracer: &ade_obs::Tracer,
) -> Vec<Class> {
    let mut nodes = Nodes::default();
    for site in callgraph.sites() {
        let caller = &module.funcs[site.caller.index()];
        let Some(callee) = module.funcs.get(site.callee.index()) else {
            continue;
        };
        for (op, param) in caller.inst(site.inst).operands.iter().zip(&callee.params) {
            if !op.path.is_empty() || !caller.value_ty(op.base).is_collection() {
                continue;
            }
            let arg_root = analyses[site.caller.index()].chains.root_of(op.base);
            // A Map<K, Set<V>> argument carries its inner sets along.
            for (depth, _) in nesting(caller.value_ty(op.base)) {
                nodes.union(
                    (site.caller.0, arg_root.0, depth),
                    (site.callee.0, param.0, depth),
                );
            }
        }
    }
    // Members of one local candidate share an enumeration (Algorithm 5's
    // "unify redefinitions" generalized to Algorithm 3's grouping).
    let member_node = |fidx: usize, m: &Member| (fidx as u32, m.entity.root.0, m.entity.depth);
    for (fidx, cands) in candidates.iter().enumerate() {
        for cand in cands {
            let Some(first) = cand.members.first() else {
                continue;
            };
            for m in &cand.members {
                nodes.union(member_node(fidx, first), member_node(fidx, m));
            }
        }
    }

    let mut classes: BTreeMap<usize, Class> = BTreeMap::new();
    for (fidx, cands) in candidates.iter().enumerate() {
        for cand in cands {
            for (i, m) in cand.members.iter().enumerate() {
                let cls = nodes
                    .class(member_node(fidx, m))
                    .expect("member nodes were registered");
                let class = classes.entry(cls).or_insert_with(|| Class {
                    key_ty: cand.key_ty.clone(),
                    benefit: 0,
                    chosen: Vec::new(),
                    params: Vec::new(),
                    derived: Vec::new(),
                    dissent: false,
                });
                class.chosen.push((fidx as u32, m.clone()));
                if i == 0 {
                    // The members share a class: count the benefit once.
                    class.benefit += cand.benefit;
                }
            }
        }
    }
    for (fidx, fa) in analyses.iter().enumerate() {
        let f = fidx as u32;
        for &param in &fa.func.params {
            for (depth, _) in nesting(fa.func.value_ty(param)) {
                if let Some(class) = nodes
                    .class((f, param.0, depth))
                    .and_then(|c| classes.get_mut(&c))
                {
                    class.params.push((f, param, depth));
                }
            }
        }
        // Every entity (seeds *and* sequence/nested levels) can receive
        // enumeration from its class; only directive-blocked ones dissent.
        for &(entity, alloc) in &fa.all_entities {
            if candidates[fidx]
                .iter()
                .flat_map(|c| &c.members)
                .any(|m| m.entity == entity)
            {
                continue;
            }
            let node = (f, entity.root.0, entity.depth);
            let Some(class) = nodes.class(node).and_then(|c| classes.get_mut(&c)) else {
                continue;
            };
            if directive_of(fa, alloc, entity.depth).is_some_and(|d| d.enumerate == Some(false)) {
                class.dissent = true;
            } else {
                class.derived.push((f, entity.root, entity.depth));
            }
        }
    }

    classes.retain(|_, class| {
        let poisoned = class.params.iter().any(|&(f, param, _)| {
            let fa = &analyses[f as usize];
            fa.escape.escapes(fa.chains.root_of(param))
        });
        if poisoned && tracer.is_enabled() {
            tracer
                .event("interproc", "class-poisoned")
                .field("members", class.chosen.len())
                .field("params", class.params.len())
                .field("key_ty", class.key_ty.to_string())
                .emit();
        }
        !poisoned
    });
    classes.into_values().collect()
}

/// Routes each class's members: chosen members to their own
/// functions, derived entities and parameters with the roles their types
/// support. A class with dissent, or with a parameter of an exported
/// function, routes its parameters to clones of their functions and
/// finds its retargets: one list per class.
fn materialize(
    module: &Module,
    callgraph: &CallGraph,
    analyses: &[FuncAnalysis<'_>],
    classes: &[Class],
) -> (SlotMembers, Vec<Vec<Retarget>>) {
    let mut members = SlotMembers::new();
    let mut retargets = Vec::new();
    let mut cloned: BTreeSet<u32> = BTreeSet::new();
    for (c, class) in classes.iter().enumerate() {
        let exported = |&(f, _, _): &(u32, ValueId, usize)| module.funcs[f as usize].exported;
        let needs_clone = class.dissent || class.params.iter().any(exported);
        if needs_clone {
            cloned.extend(class.params.iter().map(|&(f, _, _)| f));
        }
        let mut add = |slot: Slot, member: Member| {
            members.entry(slot).or_default().push((c, member));
        };

        // Chosen members go to their own functions — or to the clone
        // when the member is rooted at a parameter of a function that is
        // being cloned (the original must stay untransformed for the
        // dissenting callers).
        for (f, m) in &class.chosen {
            let is_param_rooted = module.funcs[*f as usize].params.contains(&m.entity.root);
            add((needs_clone && is_param_rooted, *f), m.clone());
        }
        // Enumeration flows back to non-chosen entities in the class
        // (e.g. the caller's allocation when the redundancy lives in the
        // callee). Parameter entities go through `class.params`, which
        // routes them to the clone when one exists.
        for &(f, root, depth) in &class.derived {
            if module.funcs[f as usize].params.contains(&root) {
                continue;
            }
            let entity = CollectionEntity { root, depth };
            if let Some(role) = derived_role(module, &analyses[f as usize], class, entity) {
                add((false, f), Member { entity, role });
            }
        }
        for &(f, param, depth) in &class.params {
            let entity = CollectionEntity { root: param, depth };
            if let Some(role) = derived_role(module, &analyses[f as usize], class, entity) {
                add((needs_clone, f), Member { entity, role });
            }
        }
        let found = needs_clone.then(|| retarget(module, callgraph, analyses, class, &cloned));
        retargets.push(found.unwrap_or_default());
    }
    (members, retargets)
}

/// The roles `entity` (in `fa`'s function) derives from `class`: the
/// union of the roles of the chosen members of the same type — a role
/// from a differently-typed member (a propagated sequence sharing the
/// enumeration with a keyed map) would make its type diverge from the
/// class's — kept where `CanShare` and `CanPropagate` allow. `None`
/// when no role survives.
fn derived_role(
    module: &Module,
    fa: &FuncAnalysis<'_>,
    class: &Class,
    entity: CollectionEntity,
) -> Option<MemberRole> {
    let ty = entity.try_ty(fa.func)?;
    let mut role = MemberRole::default();
    for (f, m) in &class.chosen {
        if m.entity.try_ty(&module.funcs[*f as usize]).as_ref() == Some(&ty) {
            role.keys |= m.role.keys;
            role.propagator |= m.role.propagator;
        }
    }
    role.keys = role.keys && can_share(&ty, &class.key_ty);
    role.propagator =
        role.propagator && can_propagate(&ty, &class.key_ty) && fa.piece(entity, true).is_some();
    (role.keys || role.propagator).then_some(role)
}

/// Retargets each call site that agrees with `class` to the callee's
/// clone. A site agrees when its argument at one of the class's
/// parameters is a depth-0 chosen or derived member in the caller. When
/// the caller is itself cloned (recursion, or another parameter of the
/// class), the enumerated call path lives in the caller's clone, so the
/// retarget lands there.
fn retarget(
    module: &Module,
    callgraph: &CallGraph,
    analyses: &[FuncAnalysis<'_>],
    class: &Class,
    cloned: &BTreeSet<u32>,
) -> Vec<Retarget> {
    let mut retargets = Vec::new();
    for site in callgraph.sites() {
        if !cloned.contains(&site.callee.0) {
            continue;
        }
        let callee = &module.funcs[site.callee.index()];
        let caller = &module.funcs[site.caller.index()];
        let chains = &analyses[site.caller.index()].chains;
        let c = site.caller.0;
        let operands = caller.inst(site.inst).operands.iter();
        let agrees = operands.zip(&callee.params).any(|(op, &param)| {
            if !class.params.contains(&(site.callee.0, param, 0))
                || !op.path.is_empty()
                || !caller.value_ty(op.base).is_collection()
            {
                return false;
            }
            let root = chains.root_of(op.base);
            class
                .chosen
                .iter()
                .any(|(f, m)| *f == c && m.entity == CollectionEntity { root, depth: 0 })
                || class.derived.contains(&(c, root, 0))
        });
        if agrees {
            retargets.push(((cloned.contains(&c), c), site.inst, site.callee.0));
        }
    }
    retargets
}

/// Builds the module plan: each slot's members grouped by class, and per
/// group, in claim order, the patch sets with φ-web claiming, RTE trims
/// and the union-pair cancel; members routed into a clone no retarget
/// reaches are never planned. A group that fails in any function fails
/// its whole class, whose claims stay: a half-transformed class would
/// break call-boundary types. The plan keeps only what the program uses.
fn finalize(
    classes: &[Class],
    members: SlotMembers,
    retargets: &[Vec<Retarget>],
    analyses: &[FuncAnalysis<'_>],
    options: &AdeOptions,
    tracer: &ade_obs::Tracer,
) -> ModulePlan {
    // The clones that the retargets of `live` classes reach from
    // original code, directly or through clones that are reached.
    let reached = |live: &BTreeSet<usize>| {
        let mut reached = BTreeSet::new();
        let retargets = || live.iter().flat_map(|&c| &retargets[c]);
        while let Some(&(_, _, callee)) = retargets().find(|&&((clone, caller), _, callee)| {
            (!clone || reached.contains(&caller)) && !reached.contains(&callee)
        }) {
            reached.insert(callee);
        }
        reached
    };
    let mut live: BTreeSet<usize> = (0..classes.len()).collect();
    let mut clones = reached(&live);
    let mut failed: BTreeSet<usize> = BTreeSet::new();
    let mut planned: BTreeMap<Slot, Vec<PlannedCandidate>> = BTreeMap::new();
    for ((clone, f), members) in members {
        if clone && !clones.contains(&f) {
            continue;
        }
        let fa = &analyses[f as usize];
        let mut claimed: BTreeSet<ValueId> = BTreeSet::new();
        let slot_plan = planned.entry((clone, f)).or_default();
        for (class, members) in groups(members, classes) {
            let benefit = classes[class].benefit;
            match plan_group(fa, class, members, benefit, &mut claimed, options, tracer) {
                Some(candidate) => slot_plan.push(candidate),
                None => {
                    failed.insert(class);
                }
            }
        }
    }
    // Drop the failed classes, then the clones only their retargets
    // reached, then the classes left without members, until none goes.
    loop {
        planned.retain(|&(clone, f), candidates| {
            candidates.retain(|c| !failed.contains(&c.enum_idx));
            !candidates.is_empty() && (!clone || clones.contains(&f))
        });
        let kept: BTreeSet<usize> = planned.values().flatten().map(|c| c.enum_idx).collect();
        if kept == live {
            break;
        }
        live = kept;
        clones = reached(&live);
    }

    // Dense ids: enumerations in class order, clones in source order.
    let clone_id = |f: u32| (analyses.len() + clones.range(..f).count()) as u32;
    let id = |(clone, f): Slot| FuncId(if clone { clone_id(f) } else { f });
    let mut retargets: Vec<_> = live
        .iter()
        .flat_map(|&c| &retargets[c])
        .filter(|&&((clone, caller), _, _)| !clone || clones.contains(&caller))
        .map(|&(caller, inst, callee)| (id(caller), inst, id((true, callee))))
        .collect();
    retargets.sort_unstable();
    retargets.dedup();
    let func_plans = planned.into_iter().map(|(slot, mut candidates)| {
        for c in &mut candidates {
            c.enum_idx = live.range(..c.enum_idx).count();
        }
        (id(slot).0, candidates)
    });
    ModulePlan {
        enum_key_tys: live.iter().map(|&c| classes[c].key_ty.clone()).collect(),
        func_plans: func_plans.collect(),
        clones: clones
            .iter()
            .map(|&f| CloneSpec {
                source: FuncId(f),
                new_name: format!("{}$ade", analyses[f as usize].func.name),
            })
            .collect(),
        retargets,
    }
}

/// One function's members grouped by class, with the roles of one
/// entity merged, in claim order: class benefit descending, ties broken
/// by class index.
fn groups(members: Vec<(usize, Member)>, classes: &[Class]) -> Vec<(usize, Vec<Member>)> {
    let mut by_class: BTreeMap<usize, Vec<Member>> = BTreeMap::new();
    for (class, member) in members {
        let group = by_class.entry(class).or_default();
        match group.iter_mut().find(|m| m.entity == member.entity) {
            Some(m) => {
                m.role.keys |= member.role.keys;
                m.role.propagator |= member.role.propagator;
            }
            None => group.push(member),
        }
    }
    let mut groups: Vec<_> = by_class.into_iter().collect();
    groups.sort_by_key(|&(class, _)| Reverse(classes[class].benefit));
    groups
}

/// One group's final patch sets in `fa`'s function, its φ-web claimed
/// against the groups planned before it; `None`, after an
/// `enum-dropped` event, when the group cannot be patched. Its events
/// are emitted before enumerations are numbered, so they name the class
/// index as `class`.
fn plan_group(
    fa: &FuncAnalysis<'_>,
    class: usize,
    members: Vec<Member>,
    benefit: usize,
    claimed: &mut BTreeSet<ValueId>,
    options: &AdeOptions,
    tracer: &ade_obs::Tracer,
) -> Option<PlannedCandidate> {
    let dropped = |reason: &str| {
        tracer
            .event("interproc", "enum-dropped")
            .field("func", fa.func.name.as_str())
            .field("class", class)
            .field("reason", reason)
            .emit();
    };
    let Some((sets, web, roots)) = members_patch_sets(fa, &members, claimed) else {
        dropped("patch-set conflict");
        return None;
    };
    claimed.extend(web.members.iter().copied());
    claimed.extend(roots);
    let mut sets = if options.rte {
        let trims = find_redundant(fa.func, &sets);
        tracer
            .event("rte", "trims")
            .field("func", fa.func.name.as_str())
            .field("class", class)
            .field("trim_enc", trims.enc.len())
            .field("trim_dec", trims.dec.len())
            .field("trim_add", trims.add.len())
            .field("benefit", trims.benefit())
            .emit();
        apply_trims(&sets, &trims)
    } else {
        sets
    };
    // Union sites are a constraint encoding, not real translations (the
    // operand is a collection): the dec/add pair must cancel even with
    // RTE disabled, and a candidate whose union site survives unpaired
    // would mix identifier spaces — drop it.
    trim_union_pairs(fa.func, &mut sets);
    if has_unpatchable_site(fa.func, &sets) {
        dropped("unpatchable site");
        return None;
    }
    Some(PlannedCandidate {
        enum_idx: class,
        members,
        sets,
        web_members: web.members,
        benefit,
    })
}

/// Cancels matched dec/add pairs sitting on `union` instructions (the
/// source elements flow to the destination without translation when both
/// sides share an enumeration).
fn trim_union_pairs(func: &ade_ir::Function, sets: &mut PatchSets) {
    let paired: Vec<crate::patch::UseSite> = sets
        .to_dec
        .iter()
        .filter(|site| {
            sets.to_add.contains(site) && func.inst(site.inst).kind == InstKind::UnionInto
        })
        .copied()
        .collect();
    for site in paired {
        sets.to_dec.remove(&site);
        sets.to_add.remove(&site);
    }
}

/// `true` if a remaining patch site would translate a whole operand that
/// cannot take it: a `union` operand (a collection value), or an operand
/// with a nesting path, whose *base* — the collection, not the addressed
/// key — would be wrapped.
fn has_unpatchable_site(func: &ade_ir::Function, sets: &PatchSets) -> bool {
    let mut sites = sets.to_dec.iter().chain(&sets.to_add).chain(&sets.to_enc);
    sites.any(|site| {
        let OperandPos::Plain(n) = site.pos else {
            return false;
        };
        let inst = func.inst(site.inst);
        inst.kind == InstKind::UnionInto || !inst.operands[n].path.is_empty()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ade_ir::parse::parse_module;

    #[test]
    fn intraprocedural_plan_has_one_enum() {
        let m = parse_module(
            r#"
fn @main() -> void {
  %input = new Seq<u64>
  %x = const 7u64
  %n = size %input
  %i0 = insert %input, %n, %x
  %hist = new Map<u64, u64>
  %out = foreach %i0 carry(%hist) as (%i: u64, %v: u64, %h: Map<u64, u64>) {
    %c = has %h, %v
    %one = const 1u64
    %h3 = write %h, %v, %one
    yield %h3
  }
  ret
}
"#,
        )
        .expect("parses");
        let plan = plan_module_traced(&m, &AdeOptions::default(), &ade_obs::Tracer::disabled());
        assert_eq!(plan.enum_key_tys, vec![Type::U64]);
        assert!(plan.clones.is_empty());
        let fp = plan.func_plans.get(&0).expect("plan for main");
        assert_eq!(fp.len(), 1);
        assert_eq!(fp[0].members.len(), 2); // map + seq propagator
    }

    #[test]
    fn callee_param_joins_callers_enumeration() {
        let m = parse_module(
            r#"
fn @main() -> void {
  %input = new Seq<u64>
  %x = const 7u64
  %n = size %input
  %i0 = insert %input, %n, %x
  %hist = new Map<u64, u64>
  %out = foreach %i0 carry(%hist) as (%i: u64, %v: u64, %h: Map<u64, u64>) {
    %c = has %h, %v
    %one = const 1u64
    %h3 = write %h, %v, %one
    yield %h3
  }
  call @1(%out)
  ret
}

fn @report(%m: Map<u64, u64>) -> void {
  %k = const 7u64
  %h = has %m, %k
  print %h
  ret
}
"#,
        )
        .expect("parses");
        let plan = plan_module_traced(&m, &AdeOptions::default(), &ade_obs::Tracer::disabled());
        assert_eq!(plan.enum_key_tys.len(), 1);
        assert!(plan.clones.is_empty(), "{:?}", plan.clones);
        let callee_plan = plan.func_plans.get(&1).expect("callee plan");
        assert_eq!(callee_plan.len(), 1);
        assert_eq!(callee_plan[0].enum_idx, 0, "shared enumeration");
    }

    #[test]
    fn dissenting_caller_forces_clone() {
        let m = parse_module(
            r#"
fn @main() -> void {
  %input = new Seq<u64>
  %x = const 7u64
  %n = size %input
  %i0 = insert %input, %n, %x
  %hist = new Map<u64, u64>
  %out = foreach %i0 carry(%hist) as (%i: u64, %v: u64, %h: Map<u64, u64>) {
    %c = has %h, %v
    %one = const 1u64
    %h3 = write %h, %v, %one
    yield %h3
  }
  call @2(%out)
  ret
}

fn @other() -> void {
  %plain = new Map<u64, u64> #[noenumerate]
  %k = const 1u64
  %p1 = insert %plain, %k
  call @2(%p1)
  ret
}

fn @report(%m: Map<u64, u64>) -> void {
  %k = const 7u64
  %h = has %m, %k
  print %h
  ret
}
"#,
        )
        .expect("parses");
        let plan = plan_module_traced(&m, &AdeOptions::default(), &ade_obs::Tracer::disabled());
        assert_eq!(plan.clones.len(), 1, "{plan:?}");
        assert_eq!(plan.clones[0].source, FuncId(2));
        assert_eq!(plan.clones[0].new_name, "report$ade");
        // main's call retargets to the clone (function id 3).
        assert_eq!(plan.retargets.len(), 1);
        assert_eq!(plan.retargets[0].0, FuncId(0));
        assert_eq!(plan.retargets[0].2, FuncId(3));
        // The clone gets the derived candidate; the original none.
        assert!(plan.func_plans.contains_key(&3));
        assert!(!plan.func_plans.contains_key(&2));
    }
}
