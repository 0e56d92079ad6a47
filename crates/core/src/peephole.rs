//! IR-level redundant-translation rewrites (paper §III-C) and local
//! translation CSE.
//!
//! The planning-level Algorithm 2 avoids inserting most redundant
//! translations in the first place; this pass mops up whatever remains
//! after composition across enumerations:
//!
//! * `enc(e, dec(e, x)) → x` (dec is the inverse of enc);
//! * `add(e, dec(e, x)) → x` (decoded values are already enumerated, so
//!   the `add` is deleted);
//! * `dec(e, enc(e, x)) → x` and `dec(e, add(e, x)) → x`;
//! * `eq(dec(e, x), dec(e, y)) → eq(x, y)` (dec is injective);
//! * duplicate `enc`/`add`/`dec` of the same value and enumeration
//!   reuse the first result (identifiers are stable because values are
//!   never removed from an enumeration). `dec` and `add` results are
//!   reused wherever they dominate, nested regions included; an `enc`
//!   result only later in its own region, before any `add`, call or
//!   control flow that could grow the enumeration.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};

use ade_ir::{CmpOp, EnumId, Function, InstKind, Module, Operand, RegionId, ValueId};

/// Runs the peephole rewrites over the whole module. Returns the number
/// of translations removed.
pub fn run(module: &mut Module) -> usize {
    let mut removed = 0;
    for func in &mut module.funcs {
        removed += run_function(func);
    }
    removed
}

/// Runs the peephole rewrites over one function.
pub fn run_function(func: &mut Function) -> usize {
    let mut removed = 0;
    // Map: translation result value → (kind, enum, operand value).
    let mut defs: HashMap<ValueId, (TransKind, EnumId, ValueId)> = HashMap::new();
    for inst_id in func.all_insts() {
        if let Some((kind, e)) = translation_of(&func.inst(inst_id).kind) {
            let arg = func.inst(inst_id).operands[0].base;
            defs.insert(func.inst(inst_id).results[0], (kind, e, arg));
        }
    }

    // Inverse rewrites: a translation whose argument is the opposite
    // translation over the same enumeration forwards the original value.
    let mut replace: BTreeMap<ValueId, ValueId> = BTreeMap::new();
    for inst_id in func.all_insts() {
        let inst = func.inst(inst_id);
        let Some((kind, e)) = translation_of(&inst.kind) else {
            continue;
        };
        let arg = inst.operands[0].base;
        if let Some(&(arg_kind, arg_e, original)) = defs.get(&arg) {
            if arg_e != e {
                continue;
            }
            let cancels = matches!(
                (arg_kind, kind),
                (TransKind::Dec, TransKind::Enc | TransKind::Add)
                    | (TransKind::Enc | TransKind::Add, TransKind::Dec)
            );
            if cancels {
                replace.insert(inst.results[0], original);
                removed += 1;
            }
        }
    }

    // eq(dec(e,x), dec(e,y)) → eq(x, y).
    for inst_id in func.all_insts() {
        let inst = func.inst(inst_id);
        if !matches!(
            inst.kind,
            InstKind::Cmp(CmpOp::Eq) | InstKind::Cmp(CmpOp::Ne)
        ) {
            continue;
        }
        if inst.operands.len() != 2
            || !inst.operands[0].path.is_empty()
            || !inst.operands[1].path.is_empty()
        {
            continue;
        }
        let a = resolve(&replace, inst.operands[0].base);
        let b = resolve(&replace, inst.operands[1].base);
        if let (Some(&(TransKind::Dec, ea, xa)), Some(&(TransKind::Dec, eb, xb))) =
            (defs.get(&a), defs.get(&b))
        {
            if ea == eb {
                func.inst_mut(inst_id).operands = vec![Operand::value(xa), Operand::value(xb)];
                removed += 2;
            }
        }
    }

    // Translation CSE, scoped by dominance: one walk from the body, one
    // map of the translations available at each point.
    removed += cse_region(func, func.body, &mut CseMap::new(), &mut replace);

    apply_replacements(func, &replace);
    // A forwarded `add` re-adds a value that is already enumerated, so it
    // has no effect left and goes here. Forwarded `enc`/`dec`s become
    // dead pure instructions, which the shared DCE removes (it keeps
    // every other add for its side effect).
    let insts = &func.insts;
    for region in &mut func.regions {
        region.insts.retain(|&i| {
            let inst = &insts[i.index()];
            !(matches!(inst.kind, InstKind::EnumAdd(_)) && replace.contains_key(&inst.results[0]))
        });
    }
    crate::opt::eliminate_dead(func);
    removed
}

/// Available translations: (0 for `enc`/`add`, 1 for `dec`;
/// enumeration; argument) → (first result, its translation kind).
type CseMap = HashMap<(u8, EnumId, ValueId), (ValueId, TransKind)>;

/// Duplicate-translation CSE over region `r`, entered with the
/// translations in `seen` available: those of the enclosing regions that
/// dominate `r`. Each instruction that owns regions hands them the map as
/// it stands, one after another, and every entry a region adds is
/// removed again when it is left (its undo log), so sibling arms share
/// nothing and the enclosing region never sees an entry that does not
/// dominate it. `enc` entries stay region-local: they are dropped before
/// any call or nested region, because either may add to the
/// enumeration (an absent key encodes to a sentinel until it is added).
/// Returns the number of translations removed.
fn cse_region(
    func: &Function,
    r: RegionId,
    seen: &mut CseMap,
    replace: &mut BTreeMap<ValueId, ValueId>,
) -> usize {
    let mut removed = 0;
    let mut added = Vec::new();
    // The arguments of each enumeration's live plain-`enc` entries (an
    // entry since strengthened to `add` may linger), so that
    // invalidation visits only the entries it removes.
    let mut live_encs: HashMap<EnumId, Vec<ValueId>> = HashMap::new();
    for &inst_id in &func.region(r).insts {
        let inst = func.inst(inst_id);
        let Some((kind, e)) = translation_of(&inst.kind) else {
            if let InstKind::Literal {
                enumeration: Some(e),
                ..
            } = inst.kind
            {
                // The literal adds its elements to `e`, as an `add` of
                // each would: every earlier `enc` of `e` may have changed.
                for v in live_encs.remove(&e).unwrap_or_default() {
                    forget_enc(seen, e, v);
                }
            }
            if matches!(inst.kind, InstKind::Call(_)) || inst.kind.is_control() {
                for (e, args) in live_encs.drain() {
                    for v in args {
                        forget_enc(seen, e, v);
                    }
                }
            }
            for &sub in &inst.regions {
                removed += cse_region(func, sub, seen, replace);
            }
            continue;
        };
        let arg = resolve(replace, inst.operands[0].base);
        let class = match kind {
            TransKind::Enc | TransKind::Add => 0u8,
            TransKind::Dec => 1,
        };
        if kind == TransKind::Add {
            // Invalidate every enc of this enumeration except a
            // same-value one, which the add strengthens below.
            if let Some(args) = live_encs.get_mut(&e) {
                args.retain(|&v| {
                    if v == arg {
                        return true;
                    }
                    forget_enc(seen, e, v);
                    false
                });
            }
        }
        let key = (class, e, arg);
        match seen.get(&key).copied() {
            Some((prev, prev_kind)) => {
                if kind == TransKind::Add && prev_kind == TransKind::Enc {
                    // enc-then-add must keep the add (the enc may have
                    // produced a sentinel); later lookups use the add's
                    // result. The enc entry is this region's own, so the
                    // undo log already holds its key.
                    seen.insert(key, (inst.results[0], TransKind::Add));
                    continue;
                }
                replace.insert(inst.results[0], prev);
                removed += 1;
            }
            None => {
                seen.insert(key, (inst.results[0], kind));
                added.push(key);
                if kind == TransKind::Enc {
                    live_encs.entry(e).or_default().push(arg);
                }
            }
        }
    }
    for key in added {
        seen.remove(&key);
    }
    removed
}

/// Removes the CSE entry of `enc(e, v)` unless an `add` has since
/// strengthened it.
fn forget_enc(seen: &mut CseMap, e: EnumId, v: ValueId) {
    if let Entry::Occupied(entry) = seen.entry((0, e, v)) {
        if entry.get().1 == TransKind::Enc {
            entry.remove();
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TransKind {
    Enc,
    Dec,
    Add,
}

fn translation_of(kind: &InstKind) -> Option<(TransKind, EnumId)> {
    match kind {
        InstKind::Enc(e) => Some((TransKind::Enc, *e)),
        InstKind::Dec(e) => Some((TransKind::Dec, *e)),
        InstKind::EnumAdd(e) => Some((TransKind::Add, *e)),
        _ => None,
    }
}

fn resolve(replace: &BTreeMap<ValueId, ValueId>, mut v: ValueId) -> ValueId {
    while let Some(&next) = replace.get(&v) {
        v = next;
    }
    v
}

fn apply_replacements(func: &mut Function, replace: &BTreeMap<ValueId, ValueId>) {
    if replace.is_empty() {
        return;
    }
    for inst in &mut func.insts {
        for op in &mut inst.operands {
            let r = resolve(replace, op.base);
            if r != op.base {
                op.base = r;
            }
            for access in &mut op.path {
                if let ade_ir::Access::Index(ade_ir::Scalar::Value(v)) = access {
                    let r = resolve(replace, *v);
                    if r != *v {
                        *access = ade_ir::Access::Index(ade_ir::Scalar::Value(r));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ade_ir::parse::parse_module;
    use ade_ir::print::print_module;

    fn run_on(text: &str) -> (Module, usize) {
        let mut m = parse_module(text).expect("parses");
        let removed = run(&mut m);
        ade_ir::verify::verify_module(&m).expect("verifies after peephole");
        (m, removed)
    }

    #[test]
    fn enc_of_dec_forwards() {
        let (m, removed) = run_on(
            r#"
enum e0: u64

fn @f(%i: idx, %s: Set{Bit}<idx>) -> void {
  %x = dec e0, %i
  %j = enc e0, %x
  %h = has %s, %j
  print %h
  ret
}
"#,
        );
        assert!(removed >= 1);
        let text = print_module(&m);
        assert!(text.contains("has %s, %i"), "{text}");
        assert!(!text.contains("enc"), "{text}");
    }

    #[test]
    fn add_of_dec_forwards() {
        let (m, removed) = run_on(
            r#"
enum e0: u64

fn @f(%i: idx, %s: Set{Bit}<idx>) -> void {
  %x = dec e0, %i
  %j = enumadd e0, %x
  %s1 = insert %s, %j
  ret
}
"#,
        );
        assert!(removed >= 1);
        let text = print_module(&m);
        assert!(text.contains("insert %s, %i"), "{text}");
        assert!(!text.contains("enumadd"), "{text}");
    }

    #[test]
    fn eq_of_two_decs_compares_ids() {
        let (m, removed) = run_on(
            r#"
enum e0: u64

fn @f(%i: idx, %j: idx) -> bool {
  %x = dec e0, %i
  %y = dec e0, %j
  %same = eq %x, %y
  ret %same
}
"#,
        );
        assert!(removed >= 2);
        let text = print_module(&m);
        assert!(text.contains("eq %i, %j"), "{text}");
        assert!(!text.contains("dec"), "dead decs removed: {text}");
    }

    #[test]
    fn duplicate_translations_cse() {
        let (m, removed) = run_on(
            r#"
enum e0: u64

fn @f(%v: u64, %s: Set{Bit}<idx>) -> void {
  %a = enumadd e0, %v
  %b = enumadd e0, %v
  %s1 = insert %s, %a
  %s2 = insert %s1, %b
  ret
}
"#,
        );
        assert_eq!(removed, 1);
        let text = print_module(&m);
        assert!(text.contains("insert %s1, %a"), "{text}");
        assert_eq!(text.matches("enumadd").count(), 1, "{text}");
    }

    #[test]
    fn different_enums_do_not_cancel() {
        let (m, removed) = run_on(
            r#"
enum e0: u64
enum e1: u64

fn @f(%i: idx, %s: Set{Bit}<idx>) -> void {
  %x = dec e0, %i
  %j = enc e1, %x
  %h = has %s, %j
  print %h
  ret
}
"#,
        );
        assert_eq!(removed, 0);
        let text = print_module(&m);
        assert!(text.contains("enc e1"), "{text}");
    }

    /// Runs the peephole on `@f`'s body (with a callee `@g` available)
    /// and returns the printed module and the number of rewrites.
    fn run_body(body: &str) -> (String, usize) {
        let (m, removed) = run_on(&format!(
            "enum e0: u64\nenum e1: u64\n\n\
             fn @f(%v: u64, %w: u64, %i: idx, %t: bool, %n: u64, %s: Set{{Bit}}<idx>) -> void {{\n\
             {body}\n  ret\n}}\n\n\
             fn @g() -> void {{\n  ret\n}}\n"
        ));
        (print_module(&m), removed)
    }

    #[test]
    fn enumadd_of_another_value_invalidates_enc() {
        // The add may grow e0, so the second enc of %v (which could have
        // encoded to the sentinel before) must be recomputed.
        let (text, removed) = run_body(
            r#"
  %a = enc e0, %v
  %b = enumadd e0, %w
  %c = enc e0, %v
  %h1 = has %s, %a
  %h2 = has %s, %c
  print %h1, %h2, %b"#,
        );
        assert_eq!(removed, 0, "{text}");
        assert_eq!(text.matches("enc e0, %v").count(), 2, "{text}");
        assert!(text.contains("enumadd e0, %w"), "{text}");
    }

    #[test]
    fn enumadd_in_another_enumeration_keeps_enc() {
        let (text, removed) = run_body(
            r#"
  %a = enc e0, %v
  %b = enumadd e1, %w
  %c = enc e0, %v
  %h1 = has %s, %a
  %h2 = has %s, %c
  print %h1, %h2, %b"#,
        );
        assert_eq!(removed, 1, "{text}");
        assert_eq!(text.matches("enc e0, %v").count(), 1, "{text}");
        assert!(text.contains("%h2 = has %s, %a"), "{text}");
    }

    #[test]
    fn calls_and_control_flow_invalidate_enc() {
        let between = [
            "call @1()",
            "if %t then {\n    yield\n  } else {\n    yield\n  }",
            "%z = const 0u64\n  forrange %z, %n as (%k: u64) {\n    yield\n  }",
        ];
        for mid in between {
            let (text, removed) = run_body(&format!(
                r#"
  %a = enc e0, %v
  {mid}
  %c = enc e0, %v
  %h1 = has %s, %a
  %h2 = has %s, %c
  print %h1, %h2"#
            ));
            assert_eq!(removed, 0, "{mid}: {text}");
            assert_eq!(text.matches("enc e0, %v").count(), 2, "{mid}: {text}");
        }
    }

    #[test]
    fn enc_then_add_of_same_value_keeps_add_and_later_enc_reuses_it() {
        let (text, removed) = run_body(
            r#"
  %a = enc e0, %v
  %b = enumadd e0, %v
  %c = enc e0, %v
  %h1 = has %s, %a
  %h2 = has %s, %c
  print %h1, %h2, %b"#,
        );
        assert_eq!(removed, 1, "{text}");
        assert!(text.contains("%b = enumadd e0, %v"), "{text}");
        assert!(text.contains("%h1 = has %s, %a"), "{text}");
        assert!(text.contains("%h2 = has %s, %b"), "{text}");
        assert_eq!(text.matches("enc e0, %v").count(), 1, "{text}");
    }

    #[test]
    fn dec_and_add_entries_survive_control_flow() {
        let (text, removed) = run_body(
            r#"
  %a = enumadd e0, %v
  %x = dec e0, %i
  call @1()
  if %t then {
    yield
  } else {
    yield
  }
  %b = enumadd e0, %v
  %y = dec e0, %i
  print %a, %x, %b, %y"#,
        );
        assert_eq!(removed, 2, "{text}");
        assert!(text.contains("print %a, %x, %a, %x"), "{text}");
        assert_eq!(text.matches("dec e0").count(), 1, "{text}");
    }

    #[test]
    fn nested_loop_reuses_the_dominating_dec_and_add() {
        let (text, removed) = run_body(
            r#"
  %x = dec e0, %i
  %a = enumadd e0, %v
  %z = const 0u64
  forrange %z, %n as (%k: u64) {
    %y = dec e0, %i
    %b = enumadd e0, %v
    %c = enc e0, %v
    print %y, %b, %c
    yield
  }
  print %x, %a"#,
        );
        assert_eq!(removed, 3, "{text}");
        assert!(text.contains("print %x, %a, %a"), "{text}");
        assert_eq!(text.matches("dec e0").count(), 1, "{text}");
        assert_eq!(text.matches("enumadd e0").count(), 1, "{text}");
    }

    #[test]
    fn sibling_arms_share_nothing() {
        let (text, removed) = run_body(
            r#"
  if %t then {
    %x = dec e0, %i
    %a = enumadd e0, %v
    print %x, %a
    yield
  } else {
    %y = dec e0, %i
    %b = enumadd e0, %v
    print %y, %b
    yield
  }
  %w2 = dec e0, %i
  print %w2"#,
        );
        assert_eq!(removed, 0, "{text}");
        assert_eq!(text.matches("dec e0, %i").count(), 3, "{text}");
        assert_eq!(text.matches("enumadd e0, %v").count(), 2, "{text}");
    }

    #[test]
    fn enc_is_never_reused_across_regions() {
        // The outer enc may have produced the sentinel; an add anywhere
        // between it and a nested use could change the answer.
        let (text, removed) = run_body(
            r#"
  %a = enc e0, %v
  %z = const 0u64
  forrange %z, %n as (%k: u64) {
    %b = enc e0, %v
    %h = has %s, %b
    print %h
    if %t then {
      %c = enc e0, %v
      %h2 = has %s, %c
      print %h2
      yield
    } else {
      yield
    }
    yield
  }
  %h3 = has %s, %a
  print %h3"#,
        );
        assert_eq!(removed, 0, "{text}");
        assert_eq!(text.matches("enc e0, %v").count(), 3, "{text}");
    }

    #[test]
    fn unused_add_is_kept_for_side_effect() {
        let (m, _) =
            run_on("enum e0: u64\n\nfn @f(%v: u64) -> void {\n  %a = enumadd e0, %v\n  ret\n}\n");
        let text = print_module(&m);
        assert!(text.contains("enumadd"), "{text}");
    }
}
