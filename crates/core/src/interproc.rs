//! Interprocedural planning (paper §III-F, Algorithm 5).
//!
//! Collections crossing call boundaries are unified with a union-find
//! over `(function, chain-root)` nodes linked by call arguments. Each
//! resulting equivalence class receives one module-level enumeration —
//! exactly the paper's "each class is given a global variable to store
//! the enumeration". Recursion needs no special case: the recursive call
//! edge unifies the parameter with itself, so every invocation reuses the
//! same enumeration (avoiding the construction overhead the paper reports
//! caused timeouts).
//!
//! When a callee's parameter is enumerated for only *some* callers (or
//! the callee is externally visible), the callee is cloned: the clone is
//! transformed and agreeing call sites are retargeted, while dissenting
//! callers keep the original (§III-F).

use std::collections::{BTreeMap, BTreeSet};

use ade_analysis::{CallGraph, UnionFind};
use ade_ir::{FuncId, InstId, Module, Type, ValueId};

use crate::patch::{CollectionEntity, PatchSets};
use crate::rte::{apply_trims, find_redundant};
use crate::share::{analyze_function, find_candidates, members_patch_sets, Member, MemberRole};
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
    /// The benefit that justified this candidate.
    pub benefit: usize,
}

/// Per-function plan.
#[derive(Clone, Debug, Default)]
pub struct FuncPlan {
    /// Candidates to materialize in this function.
    pub candidates: Vec<PlannedCandidate>,
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
    /// Key type of each enumeration class to create.
    pub enum_key_tys: Vec<Type>,
    /// Plans keyed by final function id (clones occupy ids past the
    /// current function count).
    pub func_plans: BTreeMap<u32, FuncPlan>,
    /// Clones to create, in order (clone `k` gets id `n_funcs + k`).
    pub clones: Vec<CloneSpec>,
    /// Call sites to retarget: `(function, inst, new callee)`. Function
    /// ids refer to post-clone numbering.
    pub retargets: Vec<(FuncId, InstId, FuncId)>,
}

/// Node key for the interprocedural union-find.
type Node = (u32, u32, u32); // (func index, chain-root value index, depth)

struct NodeIds {
    ids: BTreeMap<Node, usize>,
}

impl NodeIds {
    fn new() -> Self {
        Self {
            ids: BTreeMap::new(),
        }
    }

    fn get(&mut self, uf: &mut UnionFind, node: Node) -> usize {
        *self.ids.entry(node).or_insert_with(|| uf.push())
    }
}

/// Plans ADE for the whole module, with decision events on `tracer`:
/// escape verdicts, candidate formation, RTE trims, poisoned classes,
/// clone and retarget choices.
pub fn plan_module_traced(
    module: &Module,
    options: &AdeOptions,
    tracer: &ade_obs::Tracer,
) -> ModulePlan {
    let n_funcs = module.funcs.len();
    let callgraph = CallGraph::compute(module);

    // Per-function candidate discovery (Algorithm 3).
    let analyses: Vec<_> = module
        .funcs
        .iter()
        .map(|f| analyze_function(module, f))
        .collect();
    if tracer.is_enabled() {
        let _span = tracer.span("analysis", "escape");
        for fa in &analyses {
            fa.escape.trace_verdicts(tracer, fa.func);
        }
    }
    let mut local_candidates: Vec<Vec<crate::share::Candidate>> = analyses
        .iter()
        .map(|fa| find_candidates(fa, options))
        .collect();
    if tracer.is_enabled() {
        for (fidx, cands) in local_candidates.iter().enumerate() {
            for cand in cands {
                tracer
                    .event("share", "candidate")
                    .field("func", module.funcs[fidx].name.as_str())
                    .field("key_ty", cand.key_ty.to_string())
                    .field("members", cand.members.len())
                    .field("benefit", cand.benefit)
                    .field("forced", cand.forced)
                    .emit();
            }
        }
    }

    // Algorithm 5: unify collections across calls.
    let mut uf = UnionFind::new(0);
    let mut nodes = NodeIds::new();
    for site in callgraph.sites() {
        let caller = &module.funcs[site.caller.index()];
        let callee_id = site.callee;
        let Some(callee) = module.funcs.get(callee_id.index()) else {
            continue;
        };
        let caller_chains = &analyses[site.caller.index()].chains;
        let inst = caller.inst(site.inst);
        for (p, op) in inst.operands.iter().enumerate() {
            if !op.path.is_empty() || !caller.value_ty(op.base).is_collection() {
                continue;
            }
            let Some(&param) = callee.params.get(p) else {
                continue;
            };
            let arg_root = caller_chains.root_of(op.base);
            // Unify at every nesting depth of the passed collection: a
            // Map<K, Set<V>> argument carries its inner sets along.
            let mut ty = caller.value_ty(op.base).clone();
            let mut depth = 0u32;
            loop {
                let a = nodes.get(&mut uf, (site.caller.0, arg_root.0, depth));
                let b = nodes.get(&mut uf, (callee_id.0, param.0, depth));
                uf.union(a, b);
                match ty.value_type() {
                    Some(inner) if inner.is_collection() => {
                        ty = inner.clone();
                        depth += 1;
                    }
                    _ => break,
                }
            }
        }
    }

    // Members of one local candidate share an enumeration: unify their
    // roots (Algorithm 5's "unify redefinitions" generalized to the
    // candidate grouping of Algorithm 3).
    for (fidx, cands) in local_candidates.iter().enumerate() {
        for cand in cands {
            let mut first: Option<usize> = None;
            for m in &cand.members {
                let node = nodes.get(
                    &mut uf,
                    (fidx as u32, m.entity.root.0, m.entity.depth as u32),
                );
                match first {
                    Some(f) => {
                        uf.union(f, node);
                    }
                    None => first = Some(node),
                }
            }
        }
    }

    // Group candidate members into interprocedural classes; each class
    // becomes one module-level enumeration.
    #[derive(Clone, Debug, Default)]
    struct ClassInfo {
        /// (func, member) pairs chosen by Algorithm 3.
        chosen: Vec<(u32, Member)>,
        /// Functions whose *parameter* is in the class, with the param
        /// and the nesting depth at which it joined.
        params: Vec<(u32, ValueId, usize)>,
        /// Entities in the class that may NOT be enumerated (directive-
        /// blocked): these force cloning so their call paths keep the
        /// original code.
        dissenters: Vec<(u32, ValueId)>,
        /// Non-chosen, non-blocked entities in the class: enumeration
        /// flows back to them as derived members.
        derived: Vec<(u32, ValueId, usize)>,
        key_ty: Option<Type>,
        benefit: usize,
        forced: bool,
    }

    let node_class = |nodes: &NodeIds, uf: &UnionFind, node: Node| -> Option<usize> {
        nodes.ids.get(&node).map(|&i| uf.find_const(i))
    };

    let mut classes: BTreeMap<usize, ClassInfo> = BTreeMap::new();
    for (fidx, cands) in local_candidates.iter().enumerate() {
        for cand in cands {
            let mut counted = false;
            for m in &cand.members {
                let cls = node_class(
                    &nodes,
                    &uf,
                    (fidx as u32, m.entity.root.0, m.entity.depth as u32),
                )
                .expect("member roots were registered");
                let info = classes.entry(cls).or_default();
                info.chosen.push((fidx as u32, m.clone()));
                info.key_ty.get_or_insert(cand.key_ty.clone());
                if !counted {
                    // Members of one candidate share a class; count the
                    // candidate's benefit once.
                    info.benefit += cand.benefit;
                    counted = true;
                }
                info.forced |= cand.forced;
            }
        }
    }
    // Attach params and dissenting allocations to classes.
    for (fidx, func) in module.funcs.iter().enumerate() {
        for &param in &func.params {
            if !func.value_ty(param).is_collection() {
                continue;
            }
            let mut ty = func.value_ty(param).clone();
            let mut depth = 0u32;
            loop {
                if let Some(cls) = node_class(&nodes, &uf, (fidx as u32, param.0, depth)) {
                    if let Some(info) = classes.get_mut(&cls) {
                        info.params.push((fidx as u32, param, depth as usize));
                    }
                }
                match ty.value_type() {
                    Some(inner) if inner.is_collection() => {
                        ty = inner.clone();
                        depth += 1;
                    }
                    _ => break,
                }
            }
        }
        let fa = &analyses[fidx];
        // Every entity (seeds *and* sequence/nested levels) can receive
        // enumeration from its class; only directive-blocked ones dissent.
        for &(entity, alloc) in &fa.all_entities {
            let chosen_here = local_candidates[fidx].iter().any(|c| {
                c.members
                    .iter()
                    .any(|m| m.entity.root == entity.root && m.entity.depth == entity.depth)
            });
            if chosen_here {
                continue;
            }
            let Some(cls) = node_class(
                &nodes,
                &uf,
                (fidx as u32, entity.root.0, entity.depth as u32),
            ) else {
                continue;
            };
            let Some(info) = classes.get_mut(&cls) else {
                continue;
            };
            let blocked = alloc
                .and_then(|a| fa.func.directive(a))
                .and_then(|d| d.at_depth(entity.depth))
                .is_some_and(|d| d.enumerate == Some(false));
            if blocked {
                info.dissenters.push((fidx as u32, entity.root));
            } else {
                info.derived.push((fidx as u32, entity.root, entity.depth));
            }
        }
    }

    // A parameter that escapes inside its callee (returned, stored into
    // another collection) can never be retyped: the whole class must stay
    // untransformed (paper §III-F's conservative escape handling).
    let poisoned: Vec<usize> = classes
        .iter()
        .filter(|(_, info)| {
            info.params.iter().any(|&(fidx, param, _)| {
                let fa = &analyses[fidx as usize];
                fa.escape.escapes(fa.chains.root_of(param))
            })
        })
        .map(|(&cls, _)| cls)
        .collect();
    for cls in poisoned {
        if tracer.is_enabled() {
            let info = &classes[&cls];
            tracer
                .event("interproc", "class-poisoned")
                .field("members", info.chosen.len())
                .field("params", info.params.len())
                .field(
                    "key_ty",
                    info.key_ty
                        .as_ref()
                        .map_or_else(String::new, Type::to_string),
                )
                .emit();
        }
        classes.remove(&cls);
    }

    // Materialize: assign enum ids, derive members in callee functions,
    // plan clones for dissent / exported callees.
    let mut plan = ModulePlan::default();
    let mut clone_of: BTreeMap<u32, u32> = BTreeMap::new(); // source -> clone id
    let mut func_members: BTreeMap<u32, Vec<(usize, Member, usize, bool)>> = BTreeMap::new();
    // (enum_idx, member, benefit, forced) per function.

    for info in classes.values() {
        let Some(key_ty) = info.key_ty.clone() else {
            continue;
        };
        if info.chosen.is_empty() {
            continue;
        }
        let enum_idx = plan.enum_key_tys.len();
        plan.enum_key_tys.push(key_ty.clone());

        let needs_clone = !info.dissenters.is_empty()
            || info
                .params
                .iter()
                .any(|&(fidx, _, _)| module.funcs[fidx as usize].exported);

        // Chosen members go to their own functions — or to the clone
        // when the member is rooted at a parameter of a function that is
        // being cloned (the original must stay untransformed for the
        // dissenting callers).
        for (fidx, m) in &info.chosen {
            let is_param_rooted = module.funcs[*fidx as usize].params.contains(&m.entity.root);
            let target = if needs_clone && is_param_rooted {
                *clone_of.entry(*fidx).or_insert_with(|| {
                    let id = (n_funcs + plan.clones.len()) as u32;
                    plan.clones.push(CloneSpec {
                        source: FuncId(*fidx),
                        new_name: format!("{}$ade", module.funcs[*fidx as usize].name),
                    });
                    id
                })
            } else {
                *fidx
            };
            func_members.entry(target).or_default().push((
                enum_idx,
                m.clone(),
                info.benefit,
                info.forced,
            ));
        }
        // Enumeration flows back to non-chosen entities in the class
        // (e.g. the caller's allocation when the redundancy lives in the
        // callee), with the class's roles where the types allow.
        for &(fidx, root, depth) in &info.derived {
            let func = &module.funcs[fidx as usize];
            if func.params.contains(&root) {
                // Parameter entities are handled through `info.params`,
                // which routes them to the clone when one exists.
                continue;
            }
            let entity = CollectionEntity { root, depth };
            let Some(ety) = entity_type_or_skip(func, entity) else {
                continue;
            };
            // Same type-filtered role union as for parameters: roles only
            // flow between entities of identical shape, or types would
            // diverge across the class.
            let mut role = MemberRole {
                keys: false,
                propagator: false,
            };
            for (mf, m) in &info.chosen {
                let m_ty = entity_type_or_skip(&module.funcs[*mf as usize], m.entity);
                if m_ty.as_ref() == Some(&ety) {
                    role.keys |= m.role.keys;
                    role.propagator |= m.role.propagator;
                }
            }
            if role.keys && !(ety.is_assoc() && ety.key_type() == Some(&key_ty)) {
                role.keys = false;
            }
            if role.propagator {
                let elem_matches = match &ety {
                    Type::Map { val, .. } => **val == key_ty,
                    Type::Seq(elem) => **elem == key_ty,
                    _ => false,
                };
                let fa = &analyses[fidx as usize];
                if !elem_matches || fa.piece(entity, true).is_none() {
                    role.propagator = false;
                }
            }
            if !role.keys && !role.propagator {
                continue;
            }
            func_members.entry(fidx).or_default().push((
                enum_idx,
                Member { entity, role },
                info.benefit,
                info.forced,
            ));
        }
        // Parameter-derived members go to the callee (or its clone), with
        // the depths/roles of the chosen members that the parameter's
        // type actually supports.
        for &(fidx, param, depth) in &info.params {
            let func = &module.funcs[fidx as usize];
            let target = if needs_clone {
                *clone_of.entry(fidx).or_insert_with(|| {
                    let id = (n_funcs + plan.clones.len()) as u32;
                    plan.clones.push(CloneSpec {
                        source: FuncId(fidx),
                        new_name: format!("{}$ade", func.name),
                    });
                    id
                })
            } else {
                fidx
            };
            // The class's roles for entities of this parameter's shape:
            // roles from differently-typed members (e.g. a propagated
            // sequence sharing the enum with a keyed map) must not leak
            // onto the parameter or its type would diverge from the
            // arguments'.
            let entity = CollectionEntity { root: param, depth };
            let param_ty = entity_type_or_skip(func, entity);
            let mut role_acc = MemberRole {
                keys: false,
                propagator: false,
            };
            for (mf, m) in &info.chosen {
                let m_ty = entity_type_or_skip(&module.funcs[*mf as usize], m.entity);
                if m_ty == param_ty {
                    role_acc.keys |= m.role.keys;
                    role_acc.propagator |= m.role.propagator;
                }
            }
            {
                let role = role_acc;
                let mut role = role;
                // Type compatibility of the derived roles.
                let ety = entity_type_or_skip(func, entity);
                let Some(ety) = ety else { continue };
                if role.keys && !(ety.is_assoc() && ety.key_type() == Some(&key_ty)) {
                    role.keys = false;
                }
                if role.propagator {
                    let elem_matches = match &ety {
                        Type::Map { val, .. } => **val == key_ty,
                        Type::Seq(elem) => **elem == key_ty,
                        _ => false,
                    };
                    let fa = &analyses[fidx as usize];
                    if !elem_matches || fa.piece(entity, true).is_none() {
                        role.propagator = false;
                    }
                }
                if !role.keys && !role.propagator {
                    continue;
                }
                func_members.entry(target).or_default().push((
                    enum_idx,
                    Member { entity, role },
                    info.benefit,
                    info.forced,
                ));
            }
        }

        // Retarget agreeing call sites to clones: a site agrees when the
        // argument *at an enumerated parameter's position* is a chosen
        // or derived member of this class.
        if needs_clone {
            let class_params: Vec<(u32, ValueId)> = info
                .params
                .iter()
                .map(|&(fidx, param, _)| (fidx, param))
                .collect();
            for site in callgraph.sites() {
                let Some(&clone_id) = clone_of.get(&site.callee.0) else {
                    continue;
                };
                let callee = &module.funcs[site.callee.index()];
                let caller = &module.funcs[site.caller.index()];
                let caller_chains = &analyses[site.caller.index()].chains;
                let inst = caller.inst(site.inst);
                let agrees = inst.operands.iter().enumerate().any(|(p, op)| {
                    let Some(&param) = callee.params.get(p) else {
                        return false;
                    };
                    if !class_params.contains(&(site.callee.0, param)) {
                        return false;
                    }
                    if !op.path.is_empty() || !caller.value_ty(op.base).is_collection() {
                        return false;
                    }
                    let root = caller_chains.root_of(op.base);
                    let enumerated = info.chosen.iter().any(|(cf, m)| {
                        *cf == site.caller.0 && m.entity.depth == 0 && m.entity.root == root
                    }) || info.derived.iter().any(|&(df, droot, ddepth)| {
                        df == site.caller.0 && ddepth == 0 && droot == root
                    });
                    enumerated
                });
                if agrees {
                    // If the caller is itself being cloned (recursion or
                    // another param of this class), the enumerated call
                    // path lives in the caller's clone, not the original.
                    let caller_slot = clone_of
                        .get(&site.caller.0)
                        .copied()
                        .map_or(site.caller, FuncId);
                    plan.retargets
                        .push((caller_slot, site.inst, FuncId(clone_id)));
                }
            }
        }
    }

    // Avoid retargeting duplicates.
    plan.retargets
        .sort_unstable_by_key(|r| (r.0 .0, r.1 .0, r.2 .0));
    plan.retargets.dedup();

    // Build final per-function plans: group members by enum, compute
    // final patch sets with φ-web claiming in benefit order. A group
    // that fails finalization in ANY function invalidates its entire
    // enum class — a half-transformed class would break call-boundary
    // types.
    let mut failed_enums: BTreeSet<usize> = BTreeSet::new();
    let mut staged: Vec<(u32, FuncPlan)> = Vec::new();
    for (fidx, members) in func_members {
        // Group by enum index, merging duplicate entities' roles.
        let mut by_enum: BTreeMap<usize, (Vec<Member>, usize)> = BTreeMap::new();
        for (enum_idx, member, benefit, _forced) in members {
            let slot = by_enum.entry(enum_idx).or_insert((Vec::new(), 0));
            if let Some(existing) = slot.0.iter_mut().find(|m| m.entity == member.entity) {
                existing.role.keys |= member.role.keys;
                existing.role.propagator |= member.role.propagator;
            } else {
                slot.0.push(member);
            }
            slot.1 += benefit;
        }
        let source_fidx = if (fidx as usize) < n_funcs {
            fidx
        } else {
            plan.clones[fidx as usize - n_funcs].source.0
        };
        let fa = &analyses[source_fidx as usize];

        let mut groups: Vec<(usize, Vec<Member>, usize)> =
            by_enum.into_iter().map(|(e, (m, b))| (e, m, b)).collect();
        groups.sort_by_key(|g| std::cmp::Reverse(g.2)); // benefit-descending

        let mut claimed: BTreeSet<ValueId> = BTreeSet::new();
        let mut func_plan = FuncPlan::default();
        for (enum_idx, members, benefit) in groups {
            let Some((sets, web, roots)) = members_patch_sets(fa, &members, &claimed) else {
                tracer
                    .event("interproc", "enum-dropped")
                    .field("func", fa.func.name.as_str())
                    .field("enum", enum_idx)
                    .field("reason", "patch-set conflict")
                    .emit();
                failed_enums.insert(enum_idx);
                continue;
            };
            claimed.extend(web.members.iter().copied());
            claimed.extend(roots.iter().copied());
            let mut final_sets = if options.rte {
                let trims = find_redundant(fa.func, &sets);
                tracer
                    .event("rte", "trims")
                    .field("func", fa.func.name.as_str())
                    .field("enum", enum_idx)
                    .field("trim_enc", trims.enc.len())
                    .field("trim_dec", trims.dec.len())
                    .field("trim_add", trims.add.len())
                    .field("benefit", trims.benefit())
                    .emit();
                apply_trims(&sets, &trims)
            } else {
                sets
            };
            // Union sites are a constraint encoding, not real
            // translations (the operand is a collection): the dec/add
            // pair must cancel even with RTE disabled, and a candidate
            // whose union site survives unpaired would mix identifier
            // spaces — drop it.
            trim_union_pairs(fa.func, &mut final_sets);
            if has_dangling_union_site(fa.func, &final_sets)
                || has_pathed_patch_site(fa.func, &final_sets)
            {
                tracer
                    .event("interproc", "enum-dropped")
                    .field("func", fa.func.name.as_str())
                    .field("enum", enum_idx)
                    .field("reason", "unpatchable site")
                    .emit();
                failed_enums.insert(enum_idx);
                continue;
            }
            func_plan.candidates.push(PlannedCandidate {
                enum_idx,
                members,
                sets: final_sets,
                web_members: web.members,
                benefit,
            });
        }
        staged.push((fidx, func_plan));
    }
    for (fidx, mut func_plan) in staged {
        func_plan
            .candidates
            .retain(|c| !failed_enums.contains(&c.enum_idx));
        if !func_plan.candidates.is_empty() {
            plan.func_plans.insert(fidx, func_plan);
        }
    }
    // Retargets belonging to fully-failed classes are harmless (the
    // clone is a verbatim copy when untransformed) but wasteful; keep
    // them only when some candidate survived anywhere.
    if plan.func_plans.is_empty() {
        plan.retargets.clear();
    }

    if tracer.is_enabled() {
        for spec in &plan.clones {
            tracer
                .event("interproc", "clone")
                .field("source", module.funcs[spec.source.index()].name.as_str())
                .field("clone", spec.new_name.as_str())
                .emit();
        }
        tracer.counter(
            "interproc",
            "retargeted-call-sites",
            plan.retargets.len() as u64,
        );
    }

    // Drop local candidates bookkeeping.
    local_candidates.clear();
    plan
}

/// Cancels matched dec/add pairs sitting on `union` instructions (the
/// source elements flow to the destination without translation when both
/// sides share an enumeration).
fn trim_union_pairs(func: &ade_ir::Function, sets: &mut PatchSets) {
    let paired: Vec<crate::patch::UseSite> = sets
        .to_dec
        .iter()
        .filter(|site| {
            sets.to_add.contains(site) && func.inst(site.inst).kind == ade_ir::InstKind::UnionInto
        })
        .copied()
        .collect();
    for site in paired {
        sets.to_dec.remove(&site);
        sets.to_add.remove(&site);
    }
}

/// `true` if any remaining patch site targets an operand with a nesting
/// path whose *base* would be wrapped: the translation would apply to
/// the wrong value (the collection, not the addressed key).
fn has_pathed_patch_site(func: &ade_ir::Function, sets: &PatchSets) -> bool {
    sets.to_dec
        .iter()
        .chain(sets.to_add.iter())
        .chain(sets.to_enc.iter())
        .any(|site| match site.pos {
            crate::patch::OperandPos::Plain(n) => !func.inst(site.inst).operands[n].path.is_empty(),
            crate::patch::OperandPos::PathIndex { .. } | crate::patch::OperandPos::Elements => {
                false
            }
        })
}

/// `true` if any remaining patch site would translate a `union` operand
/// (a collection value) — an invalid plan.
fn has_dangling_union_site(func: &ade_ir::Function, sets: &PatchSets) -> bool {
    sets.to_dec
        .iter()
        .chain(sets.to_add.iter())
        .chain(sets.to_enc.iter())
        .any(|site| {
            func.inst(site.inst).kind == ade_ir::InstKind::UnionInto
                && matches!(site.pos, crate::patch::OperandPos::Plain(_))
        })
}

/// The entity's type, or `None` when the parameter's type has no
/// collection at that depth.
fn entity_type_or_skip(func: &ade_ir::Function, entity: CollectionEntity) -> Option<Type> {
    entity.try_ty(func)
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
        assert_eq!(fp.candidates.len(), 1);
        assert_eq!(fp.candidates[0].members.len(), 2); // map + seq propagator
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
        assert_eq!(callee_plan.candidates.len(), 1);
        assert_eq!(callee_plan.candidates[0].enum_idx, 0, "shared enumeration");
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
