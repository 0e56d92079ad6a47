//! The typing rule of every instruction (paper §III-A, Fig. 1–2): its
//! minimum operand and region counts, its result types, the argument
//! types of a loop body and the types its regions yield.
//!
//! This is the one place result types are derived. The parser types
//! what it reads with it, the builder what it emits, ADE's type repair
//! re-derives a retyped function with it until a fixed point, and the
//! verifier checks every instruction against it. Operand types are
//! read through their paths. Input the rule cannot type is an error,
//! never a panic, so the verifier can apply it to parsed text.

use crate::{Function, Inst, InstKind, Operand, RegionId, Type};

/// What the rule needs from outside the function, indexed by id. The
/// builder has no module and passes the default (empty) tables, naming
/// a `dec`'s key type and a `call`'s return type itself.
#[derive(Clone, Copy, Debug, Default)]
pub struct Externs<'a> {
    /// `enum_keys[e]` is the key type of enumeration `e`.
    pub enum_keys: &'a [Type],
    /// `returns[f]` is the return type of function `f`.
    pub returns: &'a [Type],
}

/// An instruction's types under the rule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Signature {
    /// One type per result.
    pub results: Vec<Type>,
    /// The loop body's arguments: `foreach` binds the iteration
    /// variables ([`iteration_types`]) then the carried values,
    /// `forrange` a `u64` index then the carried values, `dowhile` the
    /// carried values. Empty for every other opcode.
    pub body_args: Vec<Type>,
    /// What each owned region yields: an `if`'s results, a loop's
    /// carried values (after a `bool` condition for `dowhile`).
    pub yields: Vec<Type>,
}

/// The minimum operand count and the region count of `kind`.
pub fn arity(kind: &InstKind) -> (usize, usize) {
    match kind {
        InstKind::Write => (3, 0),
        InstKind::Read
        | InstKind::Has
        | InstKind::Insert
        | InstKind::Remove
        | InstKind::UnionInto
        | InstKind::Bin(_)
        | InstKind::Cmp(_) => (2, 0),
        InstKind::Clear
        | InstKind::Size
        | InstKind::Not
        | InstKind::Cast(_)
        | InstKind::Tuple
        | InstKind::Enc(_)
        | InstKind::Dec(_)
        | InstKind::EnumAdd(_) => (1, 0),
        InstKind::If => (1, 2),
        InstKind::ForEach => (1, 1),
        InstKind::ForRange => (2, 1),
        InstKind::DoWhile => (0, 1),
        _ => (0, 0),
    }
}

/// The type `op` addresses in `func`: its base value's type resolved
/// through its path.
///
/// # Errors
///
/// Fails when the base is not a value of `func` or the path does not
/// apply to its type.
pub fn operand_type<'f>(func: &'f Function, op: &Operand) -> Result<&'f Type, String> {
    let base = &func
        .values
        .get(op.base.index())
        .ok_or_else(|| format!("undefined value {}", op.base))?
        .ty;
    base.at_path(&op.path)
        .ok_or_else(|| format!("operand path does not apply to the value's type {base}"))
}

/// The iteration variables a `foreach` over `coll` binds: index and
/// element of a sequence, element of a set, key and value of a map.
///
/// # Errors
///
/// Fails when `coll` is not a collection.
pub fn iteration_types(coll: &Type) -> Result<Vec<Type>, String> {
    match coll {
        Type::Seq(elem) => Ok(vec![Type::U64, (**elem).clone()]),
        Type::Set { elem, .. } => Ok(vec![(**elem).clone()]),
        Type::Map { key, val, .. } => Ok(vec![(**key).clone(), (**val).clone()]),
        other => Err(format!("foreach over {other}")),
    }
}

/// How a control instruction's structured φs line up (§III-A): carried
/// value `j` enters as operand `first + j`, is bound to body argument
/// `bound + j` of every iteration, comes back as operand `cond + j` of
/// each region's closing yield and leaves as result `j`. An `if` carries
/// nothing in (`first` is past its condition) and its arms bind no
/// arguments: its results merge what the arms yield.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CarryLayout {
    /// The index of the first carried operand.
    pub first: usize,
    /// The leading body arguments each iteration binds: a `foreach`'s
    /// iteration variables ([`iteration_types`]), a `forrange`'s index.
    pub bound: usize,
    /// The leading yield operands that are not carried: a `dowhile`'s
    /// condition.
    pub cond: usize,
}

/// The carry layout of `inst` in `func`, or `None` when `inst` is not
/// control flow.
///
/// # Errors
///
/// Fails when a `foreach` has no operand, or its operand's path does not
/// apply or addresses a non-collection.
pub fn carry_layout(func: &Function, inst: &Inst) -> Result<Option<CarryLayout>, String> {
    Ok(carries(func, inst)?.map(|(layout, _)| layout))
}

/// The carry layout of `inst` and the types of the body arguments it
/// binds ahead of its carried values, or `None` when it is not control
/// flow.
fn carries(func: &Function, inst: &Inst) -> Result<Option<(CarryLayout, Vec<Type>)>, String> {
    let bound = match inst.kind {
        InstKind::ForEach => {
            let coll = inst
                .operands
                .first()
                .ok_or("foreach needs a collection operand")?;
            iteration_types(operand_type(func, coll)?)?
        }
        InstKind::ForRange => vec![Type::U64],
        InstKind::If | InstKind::DoWhile => Vec::new(),
        _ => return Ok(None),
    };
    let layout = CarryLayout {
        first: arity(&inst.kind).0,
        bound: bound.len(),
        cond: usize::from(inst.kind == InstKind::DoWhile),
    };
    Ok(Some((layout, bound)))
}

/// The signature of `inst` in `func`. Only `inst`'s kind, operands and
/// regions are read, so it may be typed before it is added to `func`;
/// its regions must already be there, since an `if`'s results are the
/// types its then-region yields.
///
/// # Errors
///
/// Fails on too few operands or regions, an operand path that does not
/// apply, a `read` or `foreach` of a non-collection, or an enumeration
/// or callee missing from `ext`.
pub fn signature(func: &Function, inst: &Inst, ext: Externs<'_>) -> Result<Signature, String> {
    let (min_operands, regions) = arity(&inst.kind);
    let op = inst.kind.opcode();
    if inst.operands.len() < min_operands {
        let got = inst.operands.len();
        return Err(format!(
            "{op} needs at least {min_operands} operand(s), got {got}"
        ));
    }
    if inst.regions.len() < regions {
        return Err(format!("{op} needs {regions} region(s)"));
    }
    let ops = &inst.operands;
    if let Some((layout, bound)) = carries(func, inst)? {
        // A loop's results are its carried operands' types, an `if`'s
        // what its then-region yields; a loop body binds its bound
        // arguments then the carried values, and every region yields its
        // condition, if any, then the carried values.
        let (results, body_args) = if inst.kind == InstKind::If {
            (yield_types(func, inst.regions[0])?, Vec::new())
        } else {
            let results = operand_types(func, &ops[layout.first..])?;
            let body_args = [bound, results.clone()].concat();
            (results, body_args)
        };
        let mut yields = vec![Type::Bool; layout.cond];
        yields.extend(results.iter().cloned());
        return Ok(Signature {
            results,
            body_args,
            yields,
        });
    }
    let results = match &inst.kind {
        InstKind::Const(c) => vec![c.ty()],
        InstKind::New(ty) | InstKind::Cast(ty) => vec![ty.clone()],
        InstKind::Literal { elems, enumeration } => {
            vec![InstKind::literal_ty(elems, *enumeration)]
        }
        InstKind::Read => {
            let coll = operand_type(func, &ops[0])?;
            let val = coll
                .value_type()
                .ok_or_else(|| format!("read target {coll} is not a collection"))?;
            vec![val.clone()]
        }
        // The new state of the whole base collection, whatever the path.
        InstKind::Write
        | InstKind::Insert
        | InstKind::Remove
        | InstKind::Clear
        | InstKind::UnionInto => vec![operand_type(func, &Operand::value(ops[0].base))?.clone()],
        InstKind::Has | InstKind::Cmp(_) | InstKind::Not => vec![Type::Bool],
        InstKind::Size => vec![Type::U64],
        InstKind::Bin(_) => vec![operand_type(func, &ops[0])?.clone()],
        InstKind::Tuple => vec![Type::Tuple(operand_types(func, ops)?)],
        InstKind::Call(f) => match ext.returns.get(f.index()) {
            None => return Err(format!("call to unknown {f}")),
            Some(Type::Void) => vec![],
            Some(ret) => vec![ret.clone()],
        },
        InstKind::Enc(_) | InstKind::EnumAdd(_) => vec![Type::Idx],
        InstKind::Dec(e) => {
            let key = ext.enum_keys.get(e.index());
            vec![key.ok_or_else(|| format!("unknown enum {e}"))?.clone()]
        }
        // Control flow is typed above.
        InstKind::Print
        | InstKind::Yield
        | InstKind::Ret
        | InstKind::Roi(_)
        | InstKind::If
        | InstKind::ForEach
        | InstKind::ForRange
        | InstKind::DoWhile => vec![],
    };
    Ok(Signature {
        results,
        body_args: Vec::new(),
        yields: Vec::new(),
    })
}

/// The types `region` yields: its closing `yield`'s operand types, or
/// none when it does not close with one (the verifier reports that).
///
/// # Errors
///
/// Fails when a yielded operand's path does not apply.
pub fn yield_types(func: &Function, region: RegionId) -> Result<Vec<Type>, String> {
    match func.closing_yield(region) {
        Some(y) => operand_types(func, &func.inst(y).operands),
        None => Ok(Vec::new()),
    }
}

fn operand_types(func: &Function, ops: &[Operand]) -> Result<Vec<Type>, String> {
    ops.iter().map(|o| operand_type(func, o).cloned()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_module;

    /// The signature of the instruction defining `%name` in `text`'s
    /// first function.
    fn signature_of(text: &str, name: &str) -> Signature {
        let m = parse_module(text).expect("parses");
        let f = &m.funcs[0];
        let v = f
            .values
            .iter()
            .position(|v| v.name.as_deref() == Some(name))
            .expect("named value");
        let crate::ValueDef::InstResult { inst, .. } = f.values[v].def else {
            panic!("%{name} is not a result");
        };
        let rets: Vec<Type> = m.funcs.iter().map(|f| f.ret_ty.clone()).collect();
        let keys: Vec<Type> = m.enums.iter().map(|e| e.key_ty.clone()).collect();
        let ext = Externs {
            enum_keys: &keys,
            returns: &rets,
        };
        signature(f, f.inst(inst), ext).expect("types")
    }

    #[test]
    fn loops_bind_iteration_variables_then_carried_values_through_paths() {
        let text = r#"
fn @f(%m: Map<str, u64>, %t: (u64, bool)) -> void {
  %r = foreach %m carry(%t.0) as (%k: str, %v: u64, %acc: u64) {
    yield %acc
  }
  %z = const 0u64
  %w = dowhile carry(%t.1) as (%b: bool) {
    yield %b, %b
  }
  ret
}
"#;
        let each = signature_of(text, "r");
        assert_eq!(each.results, [Type::U64]);
        assert_eq!(each.body_args, [Type::Str, Type::U64, Type::U64]);
        assert_eq!(each.yields, [Type::U64]);
        let dowhile = signature_of(text, "w");
        assert_eq!(dowhile.body_args, [Type::Bool]);
        assert_eq!(dowhile.yields, [Type::Bool, Type::Bool]);
    }

    #[test]
    fn updates_type_the_whole_base_and_reads_the_path_target() {
        let text = r#"
fn @f(%m: Map<u64, Seq<f64>>, %k: u64, %i: u64) -> void {
  %x = read %m[%k], %i
  %m1 = write %m[%k], %i, %x
  ret
}
"#;
        assert_eq!(signature_of(text, "x").results, [Type::F64]);
        assert_eq!(
            signature_of(text, "m1").results,
            [Type::map(Type::U64, Type::seq(Type::F64))]
        );
    }

    #[test]
    fn untypable_instructions_are_errors() {
        let m = parse_module("fn @f(%x: u64) -> void {\n  ret\n}\n").expect("parses");
        let f = &m.funcs[0];
        let x = Operand::value(f.params[0]);
        let inst = |kind, operands| Inst {
            kind,
            operands,
            regions: vec![],
            results: vec![],
        };
        let ext = Externs::default();
        for (kind, operands, want) in [
            (
                InstKind::Read,
                vec![x.clone(), x.clone()],
                "not a collection",
            ),
            (InstKind::Write, vec![x.clone()], "needs at least 3"),
            (
                InstKind::ForRange,
                vec![x.clone(), x.clone()],
                "needs 1 region",
            ),
            (
                InstKind::Bin(crate::BinOp::Add),
                vec![Operand::field(f.params[0], 0), x.clone()],
                "path does not apply",
            ),
            (
                InstKind::Dec(crate::EnumId::from_index(0)),
                vec![x.clone()],
                "unknown enum e0",
            ),
            (
                InstKind::Call(crate::FuncId::from_index(4)),
                vec![],
                "call to unknown",
            ),
        ] {
            let err = signature(f, &inst(kind, operands), ext).expect_err(want);
            assert!(err.contains(want), "{err}");
        }
    }

    #[test]
    fn carry_layout_agrees_with_the_signature_of_every_control_kind() {
        let text = r#"
fn @f(%s: Set<u64>, %q: Seq<str>, %m: Map<str, f64>, %c: bool) -> void {
  %z = const 0u64
  %e = const "x"
  %a, %b = foreach %s carry(%z, %e) as (%v: u64, %x: u64, %y: str) {
    yield %x, %y
  }
  %d = foreach %q carry(%c) as (%i: u64, %w: str, %t: bool) {
    yield %t
  }
  %g, %h = foreach %m carry(%e, %c) as (%k: str, %u: f64, %p: str, %r: bool) {
    yield %p, %r
  }
  %lo = const 0u64
  %n = forrange %lo, %z carry(%e) as (%j: u64, %o: str) {
    yield %o
  }
  %dw1, %dw2 = dowhile carry(%z, %e) as (%cz: u64, %ce: str) {
    yield %c, %cz, %ce
  }
  %if1, %if2 = if %c then {
    yield %z, %e
  } else {
    yield %z, %e
  }
  ret
}
"#;
        let m = parse_module(text).expect("parses");
        let f = &m.funcs[0];
        let mut bounds = Vec::new();
        for i in f.all_insts() {
            let inst = f.inst(i);
            let Some(layout) = carry_layout(f, inst).expect("lays out") else {
                continue;
            };
            let sig = signature(f, inst, Externs::default()).expect("types");
            let is_loop = inst.kind != InstKind::If;
            bounds.push((inst.kind.opcode(), layout.bound, layout.cond));
            assert_eq!(sig.yields.len(), layout.cond + inst.results.len());
            if is_loop {
                assert_eq!(sig.body_args.len(), layout.bound + inst.results.len());
                assert_eq!(inst.operands.len(), layout.first + inst.results.len());
            }
            let args = &f.region(inst.regions[0]).args;
            for (j, &r) in inst.results.iter().enumerate() {
                let ty = f.value_ty(r);
                assert_eq!(&sig.results[j], ty);
                let operand = inst.operands.get(layout.first + j);
                assert_eq!(operand.is_some(), is_loop, "{}", inst.kind.opcode());
                if let Some(op) = operand {
                    assert_eq!(operand_type(f, op), Ok(ty));
                }
                let arg = args.get(layout.bound + j);
                assert_eq!(arg.is_some(), is_loop, "{}", inst.kind.opcode());
                if let Some(&arg) = arg {
                    assert_eq!(f.value_ty(arg), ty);
                    assert_eq!(&sig.body_args[layout.bound + j], ty);
                }
                assert_eq!(&sig.yields[layout.cond + j], ty);
                for &region in &inst.regions {
                    let y = f.closing_yield(region).expect("closes with a yield");
                    let yielded = &f.inst(y).operands[layout.cond + j];
                    assert_eq!(operand_type(f, yielded), Ok(ty));
                }
            }
        }
        assert_eq!(
            bounds,
            [
                ("foreach", 1, 0),
                ("foreach", 2, 0),
                ("foreach", 2, 0),
                ("forrange", 1, 0),
                ("dowhile", 0, 1),
                ("if", 0, 0),
            ]
        );
        // An ill-typed `foreach` is an error, never a panic.
        for (operands, want) in [
            (vec![Operand::value(f.params[3])], "foreach over bool"),
            (vec![Operand::field(f.params[0], 0)], "path does not apply"),
            (vec![], "needs a collection operand"),
        ] {
            let foreach = Inst {
                kind: InstKind::ForEach,
                operands,
                regions: vec![],
                results: vec![],
            };
            let err = carry_layout(f, &foreach).expect_err(want);
            assert!(err.contains(want), "{err}");
        }
    }
}
