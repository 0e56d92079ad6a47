//! Collection selection (paper §III-H): enumerated collections receive
//! specialized implementations — `BitSet`/`BitMap` by default,
//! `SparseBitSet` under the `ade-sparse` knobs — and `select(...)`
//! directives override any choice (§III-I).
//!
//! The pass records every keyed-site decision as one `choice` event on
//! the tracer: the member, its enumeration, the applied set and map
//! implementations, and whether a `select(...)` directive or the static
//! default decided them. Those events are the decision's only record;
//! `adec --explain` renders its selection report from them.

use std::collections::BTreeMap;

use ade_analysis::RedefChains;
use ade_ir::{
    Function, InstKind, MapSel, Module, SelectionChoice, SetSel, Type, ValueDef, ValueId,
};

use crate::interproc::ModulePlan;
use crate::AdeOptions;

/// Applies implementation selection: `select(...)` directives on any
/// allocation (enumerated or not — paper Listing 5 pins a swiss map on a
/// `noenumerate` collection), then the dense defaults for enumerated
/// entities. The tracer gets a `choice` event per keyed member, naming
/// its enumeration as `enum` (the declared id, as `translations` does).
pub fn apply_selection_traced(
    module: &mut Module,
    plan: &ModulePlan,
    options: &AdeOptions,
    tracer: &ade_obs::Tracer,
) {
    apply_directive_selections(module);
    let enum_base = module.enums.len() - plan.enum_key_tys.len();
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
    for (&fidx, candidates) in &plan.func_plans {
        let func = &mut module.funcs[fidx as usize];
        for cand in candidates {
            let directive_sel = class_selection.get(&cand.enum_idx).copied();
            for m in &cand.members {
                if !m.role.keys {
                    continue; // propagator-only members keep their impl
                }
                // The class's directive when it has one, else the static
                // dense default for the member's depth.
                let (set_sel, map_sel) = match directive_sel {
                    Some(choice) => (selection_to_set(choice), selection_to_map(choice)),
                    None if m.entity.depth > 0 => (
                        options
                            .nested_set_impl
                            .unwrap_or(options.enumerated_set_impl),
                        MapSel::Bit,
                    ),
                    None => (options.enumerated_set_impl, MapSel::Bit),
                };
                if tracer.is_enabled() {
                    let source = if directive_sel.is_some() {
                        "directive"
                    } else {
                        "static"
                    };
                    tracer
                        .event("select", "choice")
                        .field("func", func.name.as_str())
                        .field("root", ade_analysis::value_label(func, m.entity.root))
                        .field("depth", m.entity.depth)
                        .field("enum", enum_base + cand.enum_idx)
                        .field("set", format!("{set_sel:?}"))
                        .field("map", format!("{map_sel:?}"))
                        .field("source", source)
                        .emit();
                }
                retype_selection(func, m.entity.root, m.entity.depth, set_sel, map_sel);
            }
        }
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

    /// `text` compiled under `ade`, printed, and its `choice [select]`
    /// events rendered without timestamps.
    fn run_dedup(text: &str) -> (String, Vec<String>) {
        let mut module = ade_ir::parse::parse_module(text).expect("parses");
        let tracer = ade_obs::Tracer::enabled();
        crate::run_ade_traced(&mut module, &crate::AdeOptions::default(), &tracer);
        ade_ir::verify::verify_module(&module).expect("verifies post-ADE");
        let choices = ade_obs::render_events(&tracer.events(), false)
            .lines()
            .map(str::trim)
            .filter(|l| l.starts_with("- choice [select]"))
            .map(String::from)
            .collect();
        (ade_ir::print::print_module(&module), choices)
    }

    /// The ledger is the `choice` events: `adec --explain` renders its
    /// "selection ledger" section from them.
    #[test]
    fn static_choice_is_recorded_in_the_ledger() {
        let (ir, choices) = run_dedup(DEDUP);
        assert!(ir.contains("Set{Bit}<idx>"), "{ir}");
        assert_eq!(
            choices,
            ["- choice [select] func=main root=%seen depth=0 enum=0 set=Bit map=Bit source=static"]
        );
    }

    #[test]
    fn directive_governs_the_class_and_is_recorded() {
        let text = DEDUP.replace(
            "%seen = new Set<u64>",
            "%seen = new Set<u64> #[enumerate, select(SparseBit)]",
        );
        let (ir, choices) = run_dedup(&text);
        assert!(ir.contains("Set{SparseBit}<idx>"), "{ir}");
        assert_eq!(
            choices,
            ["- choice [select] func=main root=%seen depth=0 enum=0 set=SparseBit map=Bit source=directive"]
        );
    }
}
