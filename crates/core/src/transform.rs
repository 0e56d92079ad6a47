//! The ADE program rewriter (paper §III-B): create enumerations, insert
//! `enc`/`dec`/`add` translations at the planned sites, and retype the
//! enumerated collections to `idx` keys.
//!
//! Retyping works in two stages: allocation and parameter types are
//! rewritten directly, then a *type repair* fixpoint re-derives every
//! other type (loop arguments, read results, φ values) with the IR's
//! typing rule (`ade_ir::typing`). Because every φ-web boundary was
//! patched with a translation, identifiers propagate through carried
//! values exactly as in the paper's Listing 4 without any explicit φ
//! surgery.

use std::collections::HashMap;

use ade_analysis::RedefChains;
use ade_ir::typing::{signature, Externs};
use ade_ir::{
    Access, ConstVal, EnumDecl, EnumId, Function, Inst, InstId, InstKind, Module, Operand, Scalar,
    Type, ValueDef, ValueId,
};

use crate::interproc::{ModulePlan, PlannedCandidate};
use crate::patch::{OperandPos, UseSite};
use crate::share::MemberRole;

/// Applies a module plan in place, with decision events on `tracer`:
/// one event per enumeration created and one `translations` event per
/// candidate with its enumeration, member count, benefit and
/// translation-insertion counts.
pub fn apply_traced(module: &mut Module, plan: &ModulePlan, tracer: &ade_obs::Tracer) {
    // 1. Enumeration classes.
    let enum_base = module.enums.len();
    for (i, key_ty) in plan.enum_key_tys.iter().enumerate() {
        module.add_enum(EnumDecl {
            name: format!("ade{i}"),
            key_ty: key_ty.clone(),
        });
        if tracer.is_enabled() {
            tracer
                .event("transform", "enum-created")
                .field("name", format!("ade{i}"))
                .field("key_ty", key_ty.to_string())
                .emit();
        }
    }

    // 2. Clones for partially-enumerated callees (§III-F).
    for spec in &plan.clones {
        let mut clone = module.func(spec.source).clone();
        clone.name = spec.new_name.clone();
        clone.exported = false;
        module.funcs.push(clone);
    }

    // 3. Retarget agreeing call sites.
    for &(func, inst, new_callee) in &plan.retargets {
        let f = module.func_mut(func);
        f.inst_mut(inst).kind = InstKind::Call(new_callee);
    }

    // Collect callee return types for the repair pass (returns are never
    // retyped: returned collections escape and are not enumerated).
    let ret_tys: Vec<Type> = module.funcs.iter().map(|f| f.ret_ty.clone()).collect();

    // 4. Per-function rewrites.
    let enum_tys: Vec<Type> = module.enums.iter().map(|e| e.key_ty.clone()).collect();
    for (&fidx, candidates) in &plan.func_plans {
        let func = &mut module.funcs[fidx as usize];
        for cand in candidates {
            retype_roots(func, cand);
            tracer
                .event("transform", "translations")
                .field("func", func.name.as_str())
                .field("enum", enum_base + cand.enum_idx)
                .field("members", cand.members.len())
                .field("benefit", cand.benefit)
                .field("enc-inserted", cand.sets.to_enc.len())
                .field("dec-inserted", cand.sets.to_dec.len())
                .field("add-inserted", cand.sets.to_add.len())
                .emit();
        }
        // All decodes first, then all encodes/adds, so that a site owned
        // by two enumerations composes as `enc(e1, dec(e2, x))`.
        let mut placed = Vec::new();
        for cand in candidates {
            let enum_id = EnumId::from_index(enum_base + cand.enum_idx);
            for &site in &cand.sets.to_dec {
                wrap_site(func, site, InstKind::Dec(enum_id), &mut placed);
            }
        }
        for cand in candidates {
            let enum_id = EnumId::from_index(enum_base + cand.enum_idx);
            for &site in &cand.sets.to_enc {
                wrap_site(func, site, InstKind::Enc(enum_id), &mut placed);
            }
            for &site in &cand.sets.to_add {
                wrap_site(func, site, InstKind::EnumAdd(enum_id), &mut placed);
            }
        }
        splice_before(func, &placed);
        repair_types_with_enums(func, &ret_tys, &enum_tys);
    }
}

/// Rewrites the nested type at `depth` below `ty` according to `role`.
fn rewrite_entity_type(ty: &Type, depth: usize, role: MemberRole) -> Type {
    if depth > 0 {
        return match ty {
            Type::Seq(elem) => Type::Seq(Box::new(rewrite_entity_type(elem, depth - 1, role))),
            Type::Map { key, val, sel } => Type::Map {
                key: key.clone(),
                val: Box::new(rewrite_entity_type(val, depth - 1, role)),
                sel: *sel,
            },
            other => panic!("entity depth below non-nested type {other}"),
        };
    }
    let mut out = ty.clone();
    if role.keys {
        out = match out {
            Type::Set { sel, .. } => Type::Set {
                elem: Box::new(Type::Idx),
                sel,
            },
            Type::Map { val, sel, .. } => Type::Map {
                key: Box::new(Type::Idx),
                val,
                sel,
            },
            other => panic!("keys role on non-associative type {other}"),
        };
    }
    if role.propagator {
        out = match out {
            Type::Seq(_) => Type::seq(Type::Idx),
            Type::Map { key, sel, .. } => Type::Map {
                key,
                val: Box::new(Type::Idx),
                sel,
            },
            other => panic!("propagator role on type {other}"),
        };
    }
    out
}

/// Rewrites the root-level types (allocation results, `new` payloads,
/// parameters) of every member's chain.
fn retype_roots(func: &mut Function, cand: &PlannedCandidate) {
    let chains = RedefChains::compute(func);
    for m in &cand.members {
        let root_ty = func.value_ty(m.entity.root).clone();
        let new_ty = rewrite_entity_type(&root_ty, m.entity.depth, m.role);
        if new_ty == root_ty {
            continue;
        }
        let level0: Vec<ValueId> = chains.chain(chains.root_of(m.entity.root)).to_vec();
        for v in level0 {
            func.values[v.index()].ty = new_ty.clone();
            if let ValueDef::InstResult { inst, .. } = func.values[v.index()].def {
                if let InstKind::New(ty) = &mut func.insts[inst.index()].kind {
                    *ty = new_ty.clone();
                }
            }
        }
    }
}

/// Wraps the value at `site` in a translation instruction, recorded in
/// `placed` to be spliced just before the using instruction (see
/// [`splice_before`]), or, for a literal's elements, names the
/// enumeration on the literal itself.
fn wrap_site(
    func: &mut Function,
    site: UseSite,
    kind: InstKind,
    placed: &mut Vec<(InstId, InstId)>,
) {
    // The value currently used at the site (it may already have been
    // rewritten by an earlier patch at the same position).
    let current: Operand = match site.pos {
        OperandPos::Plain(n) => Operand::value(func.inst(site.inst).operands[n].base),
        OperandPos::PathIndex { operand, step } => {
            match func.inst(site.inst).operands[operand].path[step] {
                Access::Index(Scalar::Value(v)) => Operand::value(v),
                Access::Index(Scalar::Const(c)) => {
                    // Materialize the constant so it can be translated.
                    let cv = new_inst_before(
                        func,
                        placed,
                        site.inst,
                        InstKind::Const(ConstVal::U64(c)),
                        vec![],
                    );
                    Operand::value(cv)
                }
                Access::Index(Scalar::End) | Access::Field(_) => {
                    panic!("cannot translate non-key path step")
                }
            }
        }
        OperandPos::Elements => {
            // A literal adds its own elements: it names the enumeration,
            // and its retyped result (`Seq<idx>`) holds their identifiers.
            let (InstKind::EnumAdd(e), InstKind::Literal { enumeration, .. }) =
                (kind, &mut func.inst_mut(site.inst).kind)
            else {
                panic!("only an add can patch a literal's elements")
            };
            *enumeration = Some(e);
            return;
        }
    };
    let new_val = new_inst_before(func, placed, site.inst, kind, vec![current]);
    match site.pos {
        OperandPos::Plain(n) => {
            func.inst_mut(site.inst).operands[n] = Operand::value(new_val);
        }
        OperandPos::PathIndex { operand, step } => {
            func.inst_mut(site.inst).operands[operand].path[step] =
                Access::Index(Scalar::Value(new_val));
        }
        OperandPos::Elements => unreachable!("patched above"),
    }
}

/// Creates an instruction with one result and records it in `placed`
/// to be spliced immediately before `before`. The result is typed
/// `void` until [`repair_types_with_enums`] applies the typing rule.
fn new_inst_before(
    func: &mut Function,
    placed: &mut Vec<(InstId, InstId)>,
    before: InstId,
    kind: InstKind,
    operands: Vec<Operand>,
) -> ValueId {
    let inst_id = InstId::from_index(func.insts.len());
    let def = ValueDef::InstResult {
        inst: inst_id,
        index: 0,
    };
    let value = func.add_value(Type::Void, def, None);
    func.insts.push(Inst {
        kind,
        operands,
        regions: vec![],
        results: vec![value],
    });
    placed.push((before, inst_id));
    value
}

/// Inserts each `(before, new)` pair's new instruction immediately
/// before `before` in the region containing it, keeping the pairs'
/// order among instructions placed before the same one — one pass over
/// the function's regions.
fn splice_before(func: &mut Function, placed: &[(InstId, InstId)]) {
    let mut pending: HashMap<InstId, Vec<InstId>> = HashMap::new();
    for &(before, new) in placed {
        pending.entry(before).or_default().push(new);
    }
    for region in &mut func.regions {
        if pending.is_empty() {
            break;
        }
        if !region.insts.iter().any(|i| pending.contains_key(i)) {
            continue;
        }
        let mut insts = Vec::with_capacity(region.insts.len());
        for i in std::mem::take(&mut region.insts) {
            insts.extend(pending.remove(&i).unwrap_or_default());
            insts.push(i);
        }
        region.insts = insts;
    }
    assert!(pending.is_empty(), "translation site outside every region");
}

/// Re-derives every result and loop-argument type with the typing rule
/// ([`ade_ir::typing::signature`]) until a fixed point. This propagates
/// `idx` through φ-webs, loop arguments, read results and nested
/// aliases after the roots were retyped and the boundaries patched.
/// `enums[i]` is the key type of enumeration `i`, `ret_tys[f]` the
/// return type of function `f`; an instruction the rule cannot type
/// keeps its types (the verifier reports it).
pub fn repair_types_with_enums(func: &mut Function, ret_tys: &[Type], enums: &[Type]) {
    let ext = Externs {
        enum_keys: enums,
        returns: ret_tys,
    };
    for _ in 0..16 {
        let mut changed = false;
        for inst_id in func.all_insts() {
            let inst = func.inst(inst_id);
            let Ok(sig) = signature(func, inst, ext) else {
                continue;
            };
            let body = inst.regions.first().copied();
            for (i, ty) in sig.results.into_iter().enumerate() {
                if let Some(&v) = func.inst(inst_id).results.get(i) {
                    changed |= set_ty(func, v, ty);
                }
            }
            if let Some(body) = body {
                for (i, ty) in sig.body_args.into_iter().enumerate() {
                    if let Some(&v) = func.region(body).args.get(i) {
                        changed |= set_ty(func, v, ty);
                    }
                }
            }
        }
        if !changed {
            return;
        }
    }
    panic!("type repair did not converge in @{}", func.name);
}

fn set_ty(func: &mut Function, v: ValueId, ty: Type) -> bool {
    if func.values[v.index()].ty == ty {
        false
    } else {
        func.values[v.index()].ty = ty;
        true
    }
}

/// Lightweight helpers shared with tests.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::FuncIndex;
    use crate::patch::PatchSets;
    use ade_ir::parse::parse_module;

    /// Applies hand-written patch sets (one candidate per entry, each
    /// with its own `u64` enumeration and no retyped members) to `@f`.
    fn apply_sets(text: &str, sets: impl Fn(&Function) -> Vec<PatchSets>) -> Module {
        let mut module = parse_module(text).expect("parses");
        let candidates: Vec<PlannedCandidate> = sets(&module.funcs[0])
            .into_iter()
            .enumerate()
            .map(|(enum_idx, sets)| PlannedCandidate {
                enum_idx,
                members: Vec::new(),
                sets,
                web_members: Default::default(),
                benefit: 0,
            })
            .collect();
        let plan = ModulePlan {
            enum_key_tys: vec![Type::U64; candidates.len()],
            func_plans: [(0, candidates)].into_iter().collect(),
            ..ModulePlan::default()
        };
        apply_traced(&mut module, &plan, &ade_obs::Tracer::disabled());
        module
    }

    /// The instruction defining the value named `name`.
    fn def_of(func: &Function, name: &str) -> InstId {
        let v = func
            .values
            .iter()
            .position(|v| v.name.as_deref() == Some(name))
            .expect("named value");
        match func.values[v].def {
            ValueDef::InstResult { inst, .. } => inst,
            other => panic!("%{name} is not an instruction result: {other:?}"),
        }
    }

    /// The instructions directly before `inst` in its region, nearest
    /// last.
    fn preceding(func: &Function, inst: InstId, n: usize) -> Vec<InstId> {
        let region = FuncIndex::build(func).parent_region(inst).expect("placed");
        let insts = &func.region(region).insts;
        let pos = insts.iter().position(|&i| i == inst).expect("in region");
        insts[pos - n..pos].to_vec()
    }

    #[test]
    fn site_owned_by_two_enumerations_decodes_first() {
        let module = apply_sets(
            "fn @f(%x: u64, %s: Set<u64>) -> void {\n  %h = has %s, %x\n  print %h\n  ret\n}\n",
            |f| {
                let site = UseSite::plain(def_of(f, "h"), 1);
                let mut enc = PatchSets::default();
                enc.to_enc.insert(site);
                let mut dec = PatchSets::default();
                dec.to_dec.insert(site);
                vec![enc, dec]
            },
        );
        let f = &module.funcs[0];
        let has = def_of(f, "h");
        let before = preceding(f, has, 2);
        let (dec, enc) = (before[0], before[1]);
        assert_eq!(f.inst(dec).kind, InstKind::Dec(EnumId::from_index(1)));
        assert_eq!(f.inst(enc).kind, InstKind::Enc(EnumId::from_index(0)));
        // enc(e0, dec(e1, %x)) feeds the has.
        assert_eq!(f.inst(dec).operands[0].base, f.params[0]);
        assert_eq!(f.inst(enc).operands[0].base, f.inst(dec).results[0]);
        assert_eq!(f.inst(has).operands[1].base, f.inst(enc).results[0]);
    }

    #[test]
    fn constant_path_index_is_materialized_before_its_translation() {
        let module = apply_sets(
            "fn @f(%m: Map<u64, Set<u64>>, %v: u64) -> void {\n  %h = has %m[3], %v\n  print %h\n  ret\n}\n",
            |f| {
                let mut sets = PatchSets::default();
                sets.to_enc.insert(UseSite {
                    inst: def_of(f, "h"),
                    pos: OperandPos::PathIndex { operand: 0, step: 0 },
                });
                vec![sets]
            },
        );
        let f = &module.funcs[0];
        let has = def_of(f, "h");
        let before = preceding(f, has, 2);
        let (cst, enc) = (before[0], before[1]);
        assert_eq!(f.inst(cst).kind, InstKind::Const(ConstVal::U64(3)));
        assert_eq!(f.inst(enc).operands[0].base, f.inst(cst).results[0]);
        assert_eq!(
            f.inst(has).operands[0].path[0],
            Access::Index(Scalar::Value(f.inst(enc).results[0]))
        );
    }

    #[test]
    fn translations_in_nested_bodies_land_before_their_users() {
        let module = apply_sets(
            r#"
fn @f(%s: Set<u64>, %t: Set<u64>, %c: bool) -> void {
  %z = const 0u64
  %r = foreach %s carry(%z) as (%v: u64, %acc: u64) {
    %x = if %c then {
      %h = has %t, %v
      yield %acc
    } else {
      yield %acc
    }
    %g = has %t, %v
    yield %x
  }
  %p = add %r, %z
  print %p
  ret
}
"#,
            |f| {
                let mut sets = PatchSets::default();
                sets.to_enc.insert(UseSite::plain(def_of(f, "h"), 1));
                sets.to_enc.insert(UseSite::plain(def_of(f, "g"), 1));
                sets.to_dec.insert(UseSite::plain(def_of(f, "p"), 0));
                vec![sets]
            },
        );
        let f = &module.funcs[0];
        for (user, operand, kind) in [
            ("h", 1, InstKind::Enc(EnumId::from_index(0))),
            ("g", 1, InstKind::Enc(EnumId::from_index(0))),
            ("p", 0, InstKind::Dec(EnumId::from_index(0))),
        ] {
            let user = def_of(f, user);
            let t = preceding(f, user, 1)[0];
            assert_eq!(f.inst(t).kind, kind);
            assert_eq!(f.inst(user).operands[operand].base, f.inst(t).results[0]);
        }
        // Every new instruction sits in exactly one region.
        let placed: usize = f.regions.iter().map(|r| r.insts.len()).sum();
        assert_eq!(placed, f.insts.len());
    }

    #[test]
    fn tuple_of_a_translated_value_gets_the_idx_field_type() {
        let module = apply_sets(
            "fn @f(%x: u64) -> void {\n  %t = tuple %x, %x\n  print %t\n  ret\n}\n",
            |f| {
                let mut sets = PatchSets::default();
                sets.to_enc.insert(UseSite::plain(def_of(f, "t"), 0));
                vec![sets]
            },
        );
        let f = &module.funcs[0];
        let t = f.inst(def_of(f, "t")).results[0];
        assert_eq!(f.value_ty(t), &Type::Tuple(vec![Type::Idx, Type::U64]));
        ade_ir::verify::verify_module(&module).expect("verifies");
    }

    #[test]
    fn rewrite_entity_type_depths_and_roles() {
        let keys = MemberRole {
            keys: true,
            propagator: false,
        };
        let both = MemberRole {
            keys: true,
            propagator: true,
        };
        let prop = MemberRole {
            keys: false,
            propagator: true,
        };
        assert_eq!(
            rewrite_entity_type(&Type::set(Type::F64), 0, keys),
            Type::set(Type::Idx)
        );
        assert_eq!(
            rewrite_entity_type(&Type::map(Type::U64, Type::U64), 0, both),
            Type::map(Type::Idx, Type::Idx)
        );
        assert_eq!(
            rewrite_entity_type(&Type::seq(Type::U64), 0, prop),
            Type::seq(Type::Idx)
        );
        // Depth 1: Map<ptr, Set<ptr>> with inner keys enumerated.
        let pts = Type::map(Type::U64, Type::set(Type::U64));
        assert_eq!(
            rewrite_entity_type(&pts, 1, keys),
            Type::map(Type::U64, Type::set(Type::Idx))
        );
    }
}
