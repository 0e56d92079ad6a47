//! Collection selection (paper §III-H): enumerated collections receive
//! specialized implementations — `BitSet`/`BitMap` by default,
//! `SparseBitSet` under the `ade-sparse` knobs — and `select(...)`
//! directives override any choice (§III-I).
//!
//! The pass records every keyed-site decision — the applied
//! implementations and the rule that decided them — in a
//! [`ade_obs::SelectionLedger`] (the `adec --explain` report) and as
//! decision events on the tracer.

use std::collections::BTreeMap;

use ade_analysis::RedefChains;
use ade_ir::{
    Function, InstKind, MapSel, Module, SelectionChoice, SetSel, Type, ValueDef, ValueId,
};
use ade_obs::ledger::{DecisionSource, SelectionDecision, SelectionLedger};

use crate::interproc::ModulePlan;
use crate::AdeOptions;

/// How one keyed member was decided (the class's directive, if any,
/// governs every member so members unified across call boundaries keep
/// identical physical types).
struct ClassDecision {
    set_sel: SetSel,
    map_sel: MapSel,
    source: DecisionSource,
    deciding: String,
}

/// Applies implementation selection: `select(...)` directives on any
/// allocation (enumerated or not — paper Listing 5 pins a swiss map on a
/// `noenumerate` collection), then the dense defaults for enumerated
/// entities. The returned ledger holds a decision record per keyed
/// member (the applied implementations and the deciding rule); the
/// tracer gets a `choice` event per member.
pub fn apply_selection_traced(
    module: &mut Module,
    plan: &ModulePlan,
    options: &AdeOptions,
    tracer: &ade_obs::Tracer,
) -> SelectionLedger {
    apply_directive_selections(module);
    // A `select(...)` directive on any member of an enumeration class
    // governs the whole class: collections unified across call
    // boundaries must end up with identical physical types.
    let mut class_selection: BTreeMap<usize, SelectionChoice> = BTreeMap::new();
    for (&fidx, candidates) in &plan.func_plans {
        let func = &module.funcs[fidx as usize];
        for cand in candidates {
            for m in &cand.members {
                if let Some(choice) = directive_selection(func, m.entity.root, m.entity.depth) {
                    class_selection.entry(cand.enum_idx).or_insert(choice);
                }
            }
        }
    }
    let mut ledger = SelectionLedger::default();
    for (&fidx, candidates) in &plan.func_plans {
        let func = &mut module.funcs[fidx as usize];
        for cand in candidates {
            for m in &cand.members {
                if !m.role.keys {
                    continue; // propagator-only members keep their impl
                }
                let directive_sel = class_selection.get(&cand.enum_idx).copied();
                let static_set = if m.entity.depth > 0 {
                    options
                        .nested_set_impl
                        .unwrap_or(options.enumerated_set_impl)
                } else {
                    options.enumerated_set_impl
                };
                let decision = decide_class(directive_sel, static_set);
                let root_label = ade_analysis::value_label(func, m.entity.root);
                tracer
                    .event("select", "choice")
                    .field("func", func.name.as_str())
                    .field("root", root_label.clone())
                    .field("depth", m.entity.depth)
                    .field("set", format!("{:?}", decision.set_sel))
                    .field("map", format!("{:?}", decision.map_sel))
                    .field("directive", directive_sel.is_some())
                    .field("source", decision.source.to_string())
                    .emit();
                ledger.decisions.push(SelectionDecision {
                    func: func.name.clone(),
                    member: root_label,
                    depth: m.entity.depth,
                    enum_class: cand.enum_idx,
                    set_impl: format!("{:?}", decision.set_sel),
                    map_impl: format!("{:?}", decision.map_sel),
                    source: decision.source,
                    deciding: decision.deciding,
                });
                retype_selection(
                    func,
                    m.entity.root,
                    m.entity.depth,
                    decision.set_sel,
                    decision.map_sel,
                );
            }
        }
    }
    ledger
}

/// Picks the implementations for one keyed member: the class's
/// `select(...)` directive when it has one, else the static dense
/// default for its depth.
fn decide_class(directive_sel: Option<SelectionChoice>, static_set: SetSel) -> ClassDecision {
    match directive_sel {
        Some(choice) => ClassDecision {
            set_sel: selection_to_set(choice),
            map_sel: selection_to_map(choice),
            source: DecisionSource::Directive,
            deciding: "select(...) directive governs the class".to_string(),
        },
        None => ClassDecision {
            set_sel: static_set,
            map_sel: MapSel::Bit,
            source: DecisionSource::Static,
            deciding: format!("static heuristic ({static_set:?})"),
        },
    }
}

/// Honors every `select(...)` directive in the module, at every nesting
/// depth it names, independent of enumeration decisions.
fn apply_directive_selections(module: &mut Module) {
    for func in &mut module.funcs {
        let targets: Vec<(ValueId, usize, SelectionChoice)> = func
            .assoc_allocations()
            .into_iter()
            .filter_map(|alloc| {
                let root = func.inst(alloc).results[0];
                func.directive(alloc).map(|d| (root, d.clone()))
            })
            .flat_map(|(root, d)| {
                let mut out = Vec::new();
                let mut depth = 0usize;
                let mut cur = Some(&d);
                while let Some(dd) = cur {
                    if let Some(sel) = dd.select {
                        out.push((root, depth, sel));
                    }
                    cur = dd.nested.as_deref();
                    depth += 1;
                }
                out.into_iter().collect::<Vec<_>>()
            })
            .collect();
        for (root, depth, choice) in targets {
            let set = selection_to_set(choice);
            let map = selection_to_map(choice);
            retype_selection(func, root, depth, set, map);
        }
    }
}

fn selection_to_set(c: SelectionChoice) -> SetSel {
    match c {
        SelectionChoice::Hash => SetSel::Hash,
        SelectionChoice::Flat => SetSel::Flat,
        SelectionChoice::Swiss => SetSel::Swiss,
        SelectionChoice::Bit => SetSel::Bit,
        SelectionChoice::SparseBit => SetSel::SparseBit,
    }
}

fn selection_to_map(c: SelectionChoice) -> MapSel {
    match c {
        SelectionChoice::Hash => MapSel::Hash,
        SelectionChoice::Swiss => MapSel::Swiss,
        SelectionChoice::Bit => MapSel::Bit,
        // Flat/SparseBit maps do not exist; fall back to the dense map.
        SelectionChoice::Flat | SelectionChoice::SparseBit => MapSel::Bit,
    }
}

/// The `select(...)` directive covering `root` at `depth`, following
/// `nested(...)` directive levels.
fn directive_selection(func: &Function, root: ValueId, depth: usize) -> Option<SelectionChoice> {
    let ValueDef::InstResult { inst, .. } = func.value(root).def else {
        return None;
    };
    func.directive(inst)?.at_depth(depth)?.select
}

/// Rewrites the selection annotation of the collection type at `depth`
/// below `root`'s type, across the whole redef chain (and the `new`
/// payloads).
fn retype_selection(func: &mut Function, root: ValueId, depth: usize, set: SetSel, map: MapSel) {
    let chains = RedefChains::compute(func);
    let chain: Vec<ValueId> = chains.chain(chains.root_of(root)).to_vec();
    for v in chain {
        let new_ty = set_selection_at(&func.values[v.index()].ty, depth, set, map);
        func.values[v.index()].ty = new_ty.clone();
        if let ValueDef::InstResult { inst, .. } = func.values[v.index()].def {
            if let InstKind::New(ty) = &mut func.insts[inst.index()].kind {
                *ty = new_ty;
            }
        }
    }
    // Propagate the annotated types through derived values.
    let ret_tys: Vec<Type> = Vec::new();
    crate::transform::repair_types_with_enums(func, &ret_tys, &[]);
}

fn set_selection_at(ty: &Type, depth: usize, set: SetSel, map: MapSel) -> Type {
    if depth > 0 {
        return match ty {
            Type::Seq(elem) => Type::Seq(Box::new(set_selection_at(elem, depth - 1, set, map))),
            Type::Map { key, val, sel } => Type::Map {
                key: key.clone(),
                val: Box::new(set_selection_at(val, depth - 1, set, map)),
                sel: *sel,
            },
            other => other.clone(),
        };
    }
    match ty {
        Type::Set { elem, .. } => Type::Set {
            elem: elem.clone(),
            sel: set,
        },
        Type::Map { key, val, .. } => Type::Map {
            key: key.clone(),
            val: val.clone(),
            sel: map,
        },
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_selection_at_depths() {
        let ty = Type::map(Type::U64, Type::set(Type::Idx));
        let at0 = set_selection_at(&ty, 0, SetSel::Bit, MapSel::Bit);
        assert!(matches!(
            at0,
            Type::Map {
                sel: MapSel::Bit,
                ..
            }
        ));
        let at1 = set_selection_at(&ty, 1, SetSel::SparseBit, MapSel::Bit);
        match at1 {
            Type::Map { val, sel, .. } => {
                assert_eq!(sel, MapSel::Auto);
                assert_eq!(*val, Type::set_with(Type::Idx, SetSel::SparseBit));
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn selection_choice_mappings() {
        assert_eq!(
            selection_to_set(SelectionChoice::SparseBit),
            SetSel::SparseBit
        );
        assert_eq!(selection_to_map(SelectionChoice::Swiss), MapSel::Swiss);
        assert_eq!(selection_to_map(SelectionChoice::Flat), MapSel::Bit);
    }

    const DEDUP: &str = r#"
fn @main() -> void {
  %work = new Seq<u64>
  %lo = const 0u64
  %hi = const 40u64
  %filled = forrange %lo, %hi carry(%work) as (%i: u64, %s: Seq<u64>) {
    %five = const 5u64
    %v = rem %i, %five
    %n = size %s
    %s1 = insert %s, %n, %v
    yield %s1
  }
  %seen = new Set<u64>
  %uniq, %sout = foreach %filled carry(%lo, %seen) as (%i: u64, %v: u64, %acc: u64, %ss: Set<u64>) {
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
  print %uniq
  ret
}
"#;

    fn run_dedup(text: &str) -> (String, crate::AdeReport) {
        let mut module = ade_ir::parse::parse_module(text).expect("parses");
        let report = crate::run_ade(&mut module, &crate::AdeOptions::default());
        ade_ir::verify::verify_module(&module).expect("verifies post-ADE");
        (ade_ir::print::print_module(&module), report)
    }

    #[test]
    fn static_choice_is_recorded_in_the_ledger() {
        let (ir, report) = run_dedup(DEDUP);
        assert!(ir.contains("Set{Bit}<idx>"), "{ir}");
        assert_eq!(report.ledger.decisions.len(), 1);
        let d = &report.ledger.decisions[0];
        assert_eq!(d.source, ade_obs::DecisionSource::Static);
        assert_eq!((d.set_impl.as_str(), d.map_impl.as_str()), ("Bit", "Bit"));
        assert_eq!(d.deciding, "static heuristic (Bit)");
    }

    #[test]
    fn directive_governs_the_class_and_is_recorded() {
        let text = DEDUP.replace(
            "%seen = new Set<u64>",
            "%seen = new Set<u64> #[enumerate, select(SparseBit)]",
        );
        let (ir, report) = run_dedup(&text);
        assert!(ir.contains("Set{SparseBit}<idx>"), "{ir}");
        let d = &report.ledger.decisions[0];
        assert_eq!(d.source, ade_obs::DecisionSource::Directive);
        assert_eq!(d.set_impl, "SparseBit");
        assert!(d.deciding.contains("directive"), "{}", d.deciding);
    }
}
