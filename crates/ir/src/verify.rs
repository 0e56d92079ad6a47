//! IR verifier: type checking, SSA scoping, structured-region
//! well-formedness, and the linear-update discipline for collections.
//!
//! The linearity check is what lets the execution substrate implement the
//! SSA collection updates of paper §III-A by in-place mutation (exactly
//! how MEMOIR lowers them): every collection value must be *consumed* at
//! most once per execution path — by an update, a yield, a return or a
//! loop-carry — and no read of the old name may follow the consumption.

use std::collections::HashMap;
use std::fmt;

use crate::builder::operand_type_in;
use crate::{
    Access, Function, InstId, InstKind, Module, Operand, RegionId, Scalar, Type, ValueDef,
    ValueId,
};

/// A verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Function name.
    pub function: String,
    /// Offending instruction, if known.
    pub inst: Option<InstId>,
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "in @{}", self.function)?;
        if let Some(i) = self.inst {
            write!(f, " at {i}")?;
        }
        write!(f, ": {}", self.message)
    }
}

impl std::error::Error for VerifyError {}

/// Verifies a whole module, including call signatures.
///
/// # Errors
///
/// Returns the first [`VerifyError`] found.
pub fn verify_module(module: &Module) -> Result<(), VerifyError> {
    for func in &module.funcs {
        verify_function_in(func, Some(module))?;
    }
    Ok(())
}

/// Verifies one function without cross-function checks.
///
/// # Errors
///
/// Returns the first [`VerifyError`] found.
pub fn verify_function(func: &Function) -> Result<(), VerifyError> {
    verify_function_in(func, None)
}

fn verify_function_in(func: &Function, module: Option<&Module>) -> Result<(), VerifyError> {
    let v = Verifier::new(func, module);
    v.run()
}

/// Position of one instruction: the index path from the body region down
/// to the instruction (`[i0, i1, ...]` = instruction `i0` of the body,
/// then instruction `i1` of that instruction's region, ...). The regions
/// entered alongside each step identify which sub-region was taken.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Position {
    steps: Vec<(usize, RegionId)>,
}

/// How two positions relate dynamically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Order {
    Before,
    After,
    /// Mutually exclusive `if` branches.
    Exclusive,
    /// One is an ancestor control instruction of the other.
    Enclosing,
}

/// The values in scope during [`Verifier::check_scoping`]: a stack of
/// definitions (popped on region exit) plus a per-value count of its
/// entries on the stack, so membership is one lookup instead of a scan —
/// the scan made verification quadratic in function size.
struct Scope {
    defined: Vec<ValueId>,
    live: Vec<u32>,
}

impl Scope {
    fn define(&mut self, values: &[ValueId]) {
        for &v in values {
            if let Some(n) = self.live.get_mut(v.index()) {
                *n += 1;
                self.defined.push(v);
            }
        }
    }

    fn contains(&self, v: ValueId) -> bool {
        self.live.get(v.index()).is_some_and(|&n| n > 0)
    }

    fn truncate(&mut self, mark: usize) {
        for v in self.defined.drain(mark..) {
            self.live[v.index()] -= 1;
        }
    }
}

struct Verifier<'a> {
    func: &'a Function,
    module: Option<&'a Module>,
    /// For each region: (owning instruction, its position). Body has none.
    region_owner: HashMap<RegionId, InstId>,
    /// For each instruction: its position path.
    positions: HashMap<InstId, Position>,
    /// For each region: the control inst path region ids it is under.
    region_of_inst: HashMap<InstId, RegionId>,
}

impl<'a> Verifier<'a> {
    fn new(func: &'a Function, module: Option<&'a Module>) -> Self {
        let mut v = Verifier {
            func,
            module,
            region_owner: HashMap::new(),
            positions: HashMap::new(),
            region_of_inst: HashMap::new(),
        };
        v.index_region(func.body, &Position { steps: Vec::new() });
        v
    }

    fn index_region(&mut self, region: RegionId, prefix: &Position) {
        for (idx, &inst) in self.func.region(region).insts.iter().enumerate() {
            let mut pos = prefix.clone();
            pos.steps.push((idx, region));
            self.region_of_inst.insert(inst, region);
            for &sub in &self.func.inst(inst).regions {
                self.region_owner.insert(sub, inst);
                self.index_region(sub, &pos);
            }
            self.positions.insert(inst, pos);
        }
    }

    fn err(&self, inst: Option<InstId>, message: impl Into<String>) -> VerifyError {
        VerifyError {
            function: self.func.name.clone(),
            inst,
            message: message.into(),
        }
    }

    fn run(&self) -> Result<(), VerifyError> {
        self.check_structure()?;
        self.check_scoping()?;
        self.check_types()?;
        self.check_linearity()?;
        Ok(())
    }

    // -- structure ---------------------------------------------------------

    fn check_structure(&self) -> Result<(), VerifyError> {
        for (ridx, region) in self.func.regions.iter().enumerate() {
            let rid = RegionId::from_index(ridx);
            // Skip orphan regions (allowed in arenas after transforms).
            if rid != self.func.body && !self.region_owner.contains_key(&rid) {
                continue;
            }
            let is_body = rid == self.func.body;
            let Some(&last) = region.insts.last() else {
                return Err(self.err(None, format!("region {rid} is empty")));
            };
            let last_kind = &self.func.inst(last).kind;
            if is_body {
                if *last_kind != InstKind::Ret {
                    return Err(self.err(Some(last), "function body must end in ret"));
                }
            } else if *last_kind != InstKind::Yield {
                return Err(self.err(Some(last), "region must end in yield"));
            }
            for &inst in &region.insts[..region.insts.len() - 1] {
                if self.func.inst(inst).kind.is_terminator() {
                    return Err(self.err(Some(inst), "terminator before end of region"));
                }
            }
        }
        Ok(())
    }

    // -- scoping -----------------------------------------------------------

    fn check_scoping(&self) -> Result<(), VerifyError> {
        let mut scope = Scope {
            defined: Vec::new(),
            live: vec![0; self.func.values.len()],
        };
        scope.define(&self.func.params);
        self.scope_region(self.func.body, &mut scope)
    }

    fn scope_region(&self, region: RegionId, scope: &mut Scope) -> Result<(), VerifyError> {
        let mark = scope.defined.len();
        scope.define(&self.func.region(region).args);
        for &inst_id in &self.func.region(region).insts {
            let inst = self.func.inst(inst_id);
            for used in inst.used_values() {
                if !scope.contains(used) {
                    return Err(self.err(
                        Some(inst_id),
                        format!("use of {used} before its definition"),
                    ));
                }
            }
            for &sub in &inst.regions {
                self.scope_region(sub, scope)?;
            }
            scope.define(&inst.results);
        }
        scope.truncate(mark);
        Ok(())
    }

    // -- types -------------------------------------------------------------

    fn op_ty(&self, op: &Operand) -> Type {
        operand_type_in(self.func, op)
    }

    fn check_key(&self, inst: InstId, coll: &Type, key: &Operand) -> Result<(), VerifyError> {
        let want = match coll {
            Type::Seq(_) => Type::U64,
            other => other
                .key_type()
                .cloned()
                .ok_or_else(|| self.err(Some(inst), format!("{other} has no key domain")))?,
        };
        let got = self.op_ty(key);
        if got != want {
            return Err(self.err(
                Some(inst),
                format!("key type mismatch: collection wants {want}, got {got}"),
            ));
        }
        Ok(())
    }

    fn check_path(&self, inst: InstId, op: &Operand) -> Result<(), VerifyError> {
        // Validate that each dynamic path index is typed like the key of
        // the collection at that level.
        let mut ty = self.func.value_ty(op.base).clone();
        for access in &op.path {
            match (access, &ty) {
                (Access::Index(s), Type::Seq(elem)) => {
                    if let Scalar::Value(v) = s {
                        if !matches!(self.func.value_ty(*v), Type::U64 | Type::Idx) {
                            return Err(self.err(Some(inst), "sequence index must be u64/idx"));
                        }
                    }
                    ty = (**elem).clone();
                }
                (Access::Index(s), Type::Map { key, val, .. }) => {
                    if let Scalar::Value(v) = s {
                        if self.func.value_ty(*v) != &**key {
                            return Err(self.err(
                                Some(inst),
                                format!(
                                    "nested map index type {} does not match key {key}",
                                    self.func.value_ty(*v)
                                ),
                            ));
                        }
                    }
                    ty = (**val).clone();
                }
                (Access::Field(n), Type::Tuple(elems)) => {
                    let Some(t) = elems.get(*n as usize) else {
                        return Err(self.err(Some(inst), format!("tuple has no field {n}")));
                    };
                    ty = t.clone();
                }
                (a, t) => {
                    return Err(self.err(
                        Some(inst),
                        format!("path step {a:?} does not apply to {t}"),
                    ));
                }
            }
        }
        Ok(())
    }

    #[allow(clippy::too_many_lines)]
    fn check_types(&self) -> Result<(), VerifyError> {
        for inst_id in self.func.all_insts() {
            let inst = self.func.inst(inst_id);
            self.check_arity(inst_id, inst)?;
            for op in &inst.operands {
                self.check_path(inst_id, op)?;
            }
            match &inst.kind {
                InstKind::Const(c) => {
                    if self.func.value_ty(inst.result()) != &c.ty() {
                        return Err(self.err(Some(inst_id), "const result type mismatch"));
                    }
                }
                InstKind::New(ty) => {
                    if self.func.value_ty(inst.result()) != ty {
                        return Err(self.err(Some(inst_id), "new result type mismatch"));
                    }
                }
                InstKind::Literal { elems, enumeration } => {
                    let want = InstKind::literal_ty(elems, *enumeration);
                    let got = self.func.value_ty(inst.result());
                    if got != &want {
                        return Err(self.err(
                            Some(inst_id),
                            format!("literal result typed {got}, its elements make {want}"),
                        ));
                    }
                    if let (Some(e), Some(module)) = (enumeration, self.module) {
                        let Some(decl) = module.enums.get(e.index()) else {
                            return Err(self.err(Some(inst_id), format!("unknown enum {e}")));
                        };
                        if decl.key_ty != elems.elem_ty() {
                            return Err(self.err(
                                Some(inst_id),
                                format!(
                                    "literal of {} elements added to {e}, whose keys are {}",
                                    elems.elem_ty(),
                                    decl.key_ty
                                ),
                            ));
                        }
                    }
                }
                InstKind::Read => {
                    let coll = self.op_ty(&inst.operands[0]);
                    if !coll.is_collection() {
                        return Err(self.err(Some(inst_id), "read target is not a collection"));
                    }
                    self.check_key(inst_id, &coll, &inst.operands[1])?;
                    let want = coll.value_type().expect("collection").clone();
                    if self.func.value_ty(inst.result()) != &want {
                        return Err(self.err(Some(inst_id), "read result type mismatch"));
                    }
                }
                InstKind::Write => {
                    let coll = self.op_ty(&inst.operands[0]);
                    self.check_key(inst_id, &coll, &inst.operands[1])?;
                    let want = coll.value_type().expect("collection").clone();
                    let got = self.op_ty(&inst.operands[2]);
                    if got != want {
                        return Err(self.err(
                            Some(inst_id),
                            format!("write value type {got} does not match element {want}"),
                        ));
                    }
                }
                InstKind::Has => {
                    let coll = self.op_ty(&inst.operands[0]);
                    if !coll.is_assoc() {
                        return Err(self.err(Some(inst_id), "has target must be set/map"));
                    }
                    self.check_key(inst_id, &coll, &inst.operands[1])?;
                }
                InstKind::Insert => {
                    let coll = self.op_ty(&inst.operands[0]);
                    match &coll {
                        Type::Set { elem, .. } => {
                            let got = self.op_ty(&inst.operands[1]);
                            if got != **elem {
                                return Err(self.err(
                                    Some(inst_id),
                                    format!("set insert of {got} into Set<{elem}>"),
                                ));
                            }
                        }
                        Type::Map { .. } => {
                            self.check_key(inst_id, &coll, &inst.operands[1])?;
                        }
                        Type::Seq(elem) => {
                            if inst.operands.len() != 3 {
                                return Err(
                                    self.err(Some(inst_id), "seq insert needs (s, i, v)")
                                );
                            }
                            let idx_ty = self.op_ty(&inst.operands[1]);
                            if !matches!(idx_ty, Type::U64 | Type::Idx) {
                                return Err(self.err(
                                    Some(inst_id),
                                    format!("seq insert index must be u64/idx, got {idx_ty}"),
                                ));
                            }
                            let got = self.op_ty(&inst.operands[2]);
                            if got != **elem {
                                return Err(self.err(
                                    Some(inst_id),
                                    format!("seq insert of {got} into Seq<{elem}>"),
                                ));
                            }
                        }
                        other => {
                            return Err(
                                self.err(Some(inst_id), format!("insert into non-collection {other}"))
                            );
                        }
                    }
                }
                InstKind::Remove => {
                    let coll = self.op_ty(&inst.operands[0]);
                    self.check_key(inst_id, &coll, &inst.operands[1])?;
                }
                InstKind::Clear | InstKind::Size => {
                    if !self.op_ty(&inst.operands[0]).is_collection() {
                        return Err(self.err(Some(inst_id), "operand must be a collection"));
                    }
                }
                InstKind::UnionInto => {
                    let dst = self.op_ty(&inst.operands[0]);
                    let src = self.op_ty(&inst.operands[1]);
                    match (&dst, &src) {
                        (Type::Set { elem: a, .. }, Type::Set { elem: b, .. }) if a == b => {}
                        _ => {
                            return Err(self.err(
                                Some(inst_id),
                                format!("union of incompatible sets {dst} and {src}"),
                            ));
                        }
                    }
                }
                InstKind::Bin(_) => {
                    let a = self.op_ty(&inst.operands[0]);
                    let b = self.op_ty(&inst.operands[1]);
                    if a != b || !a.is_numeric() && a != Type::Bool {
                        return Err(self.err(
                            Some(inst_id),
                            format!("binary op on mismatched/non-numeric types {a}, {b}"),
                        ));
                    }
                }
                InstKind::Cmp(_) => {
                    let a = self.op_ty(&inst.operands[0]);
                    let b = self.op_ty(&inst.operands[1]);
                    if a != b {
                        return Err(
                            self.err(Some(inst_id), format!("comparison of {a} with {b}"))
                        );
                    }
                }
                InstKind::Not => {
                    if self.op_ty(&inst.operands[0]) != Type::Bool {
                        return Err(self.err(Some(inst_id), "not of non-bool"));
                    }
                }
                InstKind::Cast(ty) => {
                    let from = self.op_ty(&inst.operands[0]);
                    if !from.is_numeric() && from != Type::Bool {
                        return Err(self.err(Some(inst_id), "cast of non-numeric"));
                    }
                    if !ty.is_numeric() {
                        return Err(self.err(Some(inst_id), "cast to non-numeric"));
                    }
                }
                InstKind::Tuple => {
                    let field_tys: Vec<Type> =
                        inst.operands.iter().map(|o| self.op_ty(o)).collect();
                    for ty in &field_tys {
                        if ty.is_collection() || matches!(ty, Type::Tuple(_)) {
                            return Err(self.err(
                                Some(inst_id),
                                format!("tuple field of non-scalar type {ty}"),
                            ));
                        }
                    }
                    let got = self.func.value_ty(inst.result());
                    if got != &Type::Tuple(field_tys.clone()) {
                        return Err(self.err(
                            Some(inst_id),
                            format!(
                                "tuple result typed {got}, operands make {}",
                                Type::Tuple(field_tys)
                            ),
                        ));
                    }
                }
                InstKind::Call(callee) => {
                    if let Some(module) = self.module {
                        let Some(target) = module.funcs.get(callee.index()) else {
                            return Err(
                                self.err(Some(inst_id), format!("call to unknown {callee}"))
                            );
                        };
                        if target.params.len() != inst.operands.len() {
                            return Err(self.err(
                                Some(inst_id),
                                format!(
                                    "call to @{} with {} args, expected {}",
                                    target.name,
                                    inst.operands.len(),
                                    target.params.len()
                                ),
                            ));
                        }
                        for (op, &p) in inst.operands.iter().zip(&target.params) {
                            let got = self.op_ty(op);
                            let want = target.value_ty(p);
                            if &got != want {
                                return Err(self.err(
                                    Some(inst_id),
                                    format!(
                                        "call to @{}: argument type {got}, parameter wants {want}",
                                        target.name
                                    ),
                                ));
                            }
                        }
                        if let Some(&r) = inst.results.first() {
                            if self.func.value_ty(r) != &target.ret_ty {
                                return Err(self.err(
                                    Some(inst_id),
                                    format!(
                                        "call result typed {}, @{} returns {}",
                                        self.func.value_ty(r),
                                        target.name,
                                        target.ret_ty
                                    ),
                                ));
                            }
                        } else if target.ret_ty != Type::Void {
                            // A discarded non-void result is fine; nothing
                            // to check.
                        }
                    }
                }
                InstKind::Print | InstKind::Roi(_) => {}
                InstKind::Enc(e) | InstKind::EnumAdd(e) => {
                    if let Some(module) = self.module {
                        let Some(decl) = module.enums.get(e.index()) else {
                            return Err(self.err(Some(inst_id), format!("unknown enum {e}")));
                        };
                        let got = self.op_ty(&inst.operands[0]);
                        if got != decl.key_ty {
                            return Err(self.err(
                                Some(inst_id),
                                format!("enum op on {got}, enum keys are {}", decl.key_ty),
                            ));
                        }
                    }
                    if self.func.value_ty(inst.result()) != &Type::Idx {
                        return Err(self.err(Some(inst_id), "enc/add must produce idx"));
                    }
                }
                InstKind::Dec(e) => {
                    if self.op_ty(&inst.operands[0]) != Type::Idx {
                        return Err(self.err(Some(inst_id), "dec takes an idx"));
                    }
                    if let Some(module) = self.module {
                        let Some(decl) = module.enums.get(e.index()) else {
                            return Err(self.err(Some(inst_id), format!("unknown enum {e}")));
                        };
                        if self.func.value_ty(inst.result()) != &decl.key_ty {
                            return Err(self.err(Some(inst_id), "dec result type mismatch"));
                        }
                    }
                }
                InstKind::If => {
                    if self.op_ty(&inst.operands[0]) != Type::Bool {
                        return Err(self.err(Some(inst_id), "if condition must be bool"));
                    }
                    let then_tys = self.yield_types(inst.regions[0]);
                    let else_tys = self.yield_types(inst.regions[1]);
                    let result_tys: Vec<Type> = inst
                        .results
                        .iter()
                        .map(|&r| self.func.value_ty(r).clone())
                        .collect();
                    if then_tys != result_tys || else_tys != result_tys {
                        return Err(self.err(
                            Some(inst_id),
                            "if branches must yield the instruction's result types",
                        ));
                    }
                }
                InstKind::ForEach => {
                    let coll = self.op_ty(&inst.operands[0]);
                    let iter_args: Vec<Type> = match &coll {
                        Type::Seq(elem) => vec![Type::U64, (**elem).clone()],
                        Type::Set { elem, .. } => vec![(**elem).clone()],
                        Type::Map { key, val, .. } => vec![(**key).clone(), (**val).clone()],
                        other => {
                            return Err(
                                self.err(Some(inst_id), format!("foreach over {other}"))
                            );
                        }
                    };
                    self.check_loop_shape(inst_id, inst.regions[0], &iter_args, &inst.operands[1..], false)?;
                }
                InstKind::ForRange => {
                    for op in &inst.operands[..2] {
                        if self.op_ty(op) != Type::U64 {
                            return Err(self.err(Some(inst_id), "forrange bounds must be u64"));
                        }
                    }
                    self.check_loop_shape(
                        inst_id,
                        inst.regions[0],
                        &[Type::U64],
                        &inst.operands[2..],
                        false,
                    )?;
                }
                InstKind::DoWhile => {
                    self.check_loop_shape(inst_id, inst.regions[0], &[], &inst.operands, true)?;
                }
                InstKind::Yield => {}
                InstKind::Ret => {
                    let got = inst
                        .operands
                        .first()
                        .map_or(Type::Void, |op| self.op_ty(op));
                    if got != self.func.ret_ty {
                        return Err(self.err(
                            Some(inst_id),
                            format!("return of {got} from fn returning {}", self.func.ret_ty),
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Minimum operand counts per opcode, checked before any indexing so
    /// malformed IR produces an error instead of a panic.
    fn check_arity(&self, inst_id: InstId, inst: &crate::Inst) -> Result<(), VerifyError> {
        let min = match &inst.kind {
            InstKind::Read | InstKind::Has | InstKind::Remove | InstKind::UnionInto => 2,
            InstKind::Write => 3,
            InstKind::Insert => 2,
            InstKind::Clear
            | InstKind::Size
            | InstKind::Not
            | InstKind::Cast(_)
            | InstKind::Enc(_)
            | InstKind::Dec(_)
            | InstKind::EnumAdd(_)
            | InstKind::Tuple => 1,
            InstKind::Bin(_) | InstKind::Cmp(_) => 2,
            InstKind::If => 1,
            InstKind::ForEach => 1,
            InstKind::ForRange => 2,
            _ => 0,
        };
        if inst.operands.len() < min {
            return Err(self.err(
                Some(inst_id),
                format!(
                    "{:?} needs at least {min} operand(s), got {}",
                    inst.kind,
                    inst.operands.len()
                ),
            ));
        }
        let regions = match &inst.kind {
            InstKind::If => 2,
            InstKind::ForEach | InstKind::ForRange | InstKind::DoWhile => 1,
            _ => 0,
        };
        if inst.regions.len() < regions {
            return Err(self.err(
                Some(inst_id),
                format!("{:?} needs {regions} region(s)", inst.kind),
            ));
        }
        Ok(())
    }

    fn yield_types(&self, region: RegionId) -> Vec<Type> {
        let insts = &self.func.region(region).insts;
        let Some(&last) = insts.last() else {
            return Vec::new();
        };
        self.func
            .inst(last)
            .operands
            .iter()
            .map(|op| self.op_ty(op))
            .collect()
    }

    fn check_loop_shape(
        &self,
        inst_id: InstId,
        body: RegionId,
        iter_args: &[Type],
        carries: &[Operand],
        yields_cond: bool,
    ) -> Result<(), VerifyError> {
        let carried_tys: Vec<Type> = carries.iter().map(|op| self.op_ty(op)).collect();
        let want_args: Vec<Type> = iter_args.iter().cloned().chain(carried_tys.clone()).collect();
        let got_args: Vec<Type> = self
            .func
            .region(body)
            .args
            .iter()
            .map(|&a| self.func.value_ty(a).clone())
            .collect();
        if got_args != want_args {
            return Err(self.err(
                Some(inst_id),
                format!("loop body args {got_args:?} do not match expected {want_args:?}"),
            ));
        }
        let mut want_yields = Vec::new();
        if yields_cond {
            want_yields.push(Type::Bool);
        }
        want_yields.extend(carried_tys.clone());
        let got_yields = self.yield_types(body);
        if got_yields != want_yields {
            return Err(self.err(
                Some(inst_id),
                format!("loop yields {got_yields:?} do not match expected {want_yields:?}"),
            ));
        }
        let result_tys: Vec<Type> = self
            .func
            .inst(inst_id)
            .results
            .iter()
            .map(|&r| self.func.value_ty(r).clone())
            .collect();
        if result_tys != carried_tys {
            return Err(self.err(Some(inst_id), "loop results must match carried types"));
        }
        Ok(())
    }

    // -- linearity ---------------------------------------------------------

    fn def_region(&self, v: ValueId) -> RegionId {
        match self.func.value(v).def {
            ValueDef::Param(_) => self.func.body,
            ValueDef::RegionArg { region, .. } => region,
            ValueDef::InstResult { inst, .. } => self.region_of_inst[&inst],
        }
    }

    /// Whether `inst`'s use of `v` as operand `op_idx` consumes it.
    fn is_consuming(&self, inst: InstId, op_idx: usize, v: ValueId) -> bool {
        let i = self.func.inst(inst);
        let op = &i.operands[op_idx];
        if op.base != v {
            return false; // path-index use, never consuming
        }
        match &i.kind {
            k if k.is_collection_update() => op_idx == 0,
            InstKind::Yield | InstKind::Ret => true,
            // Loop-carried inputs are consumed at loop entry.
            InstKind::ForEach => op_idx >= 1,
            InstKind::ForRange => op_idx >= 2,
            InstKind::DoWhile => true,
            _ => false,
        }
    }

    fn order(&self, a: InstId, b: InstId) -> Order {
        let pa = &self.positions[&a].steps;
        let pb = &self.positions[&b].steps;
        for (sa, sb) in pa.iter().zip(pb.iter()) {
            if sa.1 != sb.1 {
                // Same parent inst, different sub-regions: only `if`
                // branches can differ.
                return Order::Exclusive;
            }
            if sa.0 != sb.0 {
                return if sa.0 < sb.0 { Order::Before } else { Order::After };
            }
        }
        // One path is a prefix of the other: the shorter one is the
        // enclosing control instruction.
        Order::Enclosing
    }

    /// `true` if any control instruction between `outer` (exclusive) and
    /// `inst` (inclusive) is a loop.
    fn crosses_loop(&self, outer: RegionId, inst: InstId) -> bool {
        let mut region = self.region_of_inst[&inst];
        while region != outer {
            let Some(&owner) = self.region_owner.get(&region) else {
                return false;
            };
            if matches!(
                self.func.inst(owner).kind,
                InstKind::ForEach | InstKind::ForRange | InstKind::DoWhile
            ) {
                return true;
            }
            region = self.region_of_inst[&owner];
        }
        false
    }

    fn check_linearity(&self) -> Result<(), VerifyError> {
        // Gather uses of every collection-typed value.
        let mut uses: HashMap<ValueId, Vec<(InstId, usize)>> = HashMap::new();
        for inst_id in self.func.all_insts() {
            for (op_idx, op) in self.func.inst(inst_id).operands.iter().enumerate() {
                if self.func.value_ty(op.base).is_collection() {
                    uses.entry(op.base).or_default().push((inst_id, op_idx));
                }
            }
        }
        for (&v, v_uses) in &uses {
            let def_region = self.def_region(v);
            let consuming: Vec<InstId> = v_uses
                .iter()
                .filter(|&&(i, op_idx)| self.is_consuming(i, op_idx, v))
                .map(|&(i, _)| i)
                .collect();
            // (a) A consumption must not sit inside a loop nested below
            // the definition (it would execute more than once).
            for &c in &consuming {
                if self.region_of_inst[&c] != def_region && self.crosses_loop(def_region, c) {
                    return Err(self.err(
                        Some(c),
                        format!("collection {v} consumed inside a loop below its definition"),
                    ));
                }
            }
            // (b) Two consumptions must be mutually exclusive.
            for (i, &c1) in consuming.iter().enumerate() {
                for &c2 in &consuming[i + 1..] {
                    if self.order(c1, c2) != Order::Exclusive {
                        return Err(self.err(
                            Some(c2),
                            format!("collection {v} consumed more than once ({c1} and {c2})"),
                        ));
                    }
                }
            }
            // (c) No use may execute after a consumption on the same path;
            // a use nested *inside* the loop that consumes the value (via
            // its carry) executes after the consumption every iteration.
            for &(u, u_idx) in v_uses {
                if self.is_consuming(u, u_idx, v) {
                    continue;
                }
                for &c in &consuming {
                    match self.order(c, u) {
                        Order::Before => {
                            return Err(self.err(
                                Some(u),
                                format!("collection {v} used after being consumed by {c}"),
                            ));
                        }
                        Order::Enclosing
                            if self.positions[&c].steps.len()
                                < self.positions[&u].steps.len()
                                && self.func.inst(c).kind.is_control() =>
                        {
                            return Err(self.err(
                                Some(u),
                                format!(
                                    "collection {v} used inside the loop that consumes it at {c}; use the carried value instead"
                                ),
                            ));
                        }
                        _ => {}
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_module;

    fn verify_text(text: &str) -> Result<(), VerifyError> {
        let m = parse_module(text).expect("parses");
        verify_module(&m)
    }

    #[test]
    fn accepts_well_formed_histogram() {
        verify_text(
            r#"
fn @count(%input: Seq<f64>) -> void {
  %hist = new Map<f64, u64>
  %out = foreach %input carry(%hist) as (%i: u64, %val: f64, %h: Map<f64, u64>) {
    %cond = has %h, %val
    %h2, %freq = if %cond then {
      %f = read %h, %val
      yield %h, %f
    } else {
      %h1 = insert %h, %val
      %zero = const 0u64
      yield %h1, %zero
    }
    %one = const 1u64
    %freq1 = add %freq, %one
    %h3 = write %h2, %val, %freq1
    yield %h3
  }
  ret
}
"#,
        )
        .expect("verifies");
    }

    #[test]
    fn rejects_key_type_mismatch() {
        let err = verify_text(
            "fn @f(%m: Map<u64, u64>) -> void {\n  %x = const 1f64\n  %y = read %m, %x\n  ret\n}\n",
        )
        .expect_err("should fail");
        assert!(err.message.contains("key type mismatch"), "{err}");
    }

    #[test]
    fn rejects_literal_element_type_mismatch() {
        let mut m = parse_module("fn @f() -> void {\n  %s = literal u64 [1, 2]\n  ret\n}\n")
            .expect("parses");
        verify_module(&m).expect("a well-typed literal verifies");
        let s = m.funcs[0].insts[0].results[0];
        m.funcs[0].values[s.index()].ty = Type::seq(Type::Str);
        let err = verify_module(&m).expect_err("should fail");
        assert!(err.message.contains("literal result typed Seq<str>"), "{err}");
    }

    #[test]
    fn rejects_enumerated_literal_of_other_key_type() {
        verify_text(
            "enum e0: u64\n\nfn @f() -> void {\n  %s = literal u64 [4] enumadd e0\n  ret\n}\n",
        )
        .expect("keys and elements agree");
        let err = verify_text(
            "enum e0: str\n\nfn @f() -> void {\n  %s = literal u64 [4] enumadd e0\n  ret\n}\n",
        )
        .expect_err("should fail");
        assert!(err.message.contains("whose keys are str"), "{err}");
    }

    #[test]
    fn rejects_return_type_mismatch() {
        let err = verify_text("fn @f() -> u64 {\n  %x = const 1f64\n  ret %x\n}\n")
            .expect_err("should fail");
        assert!(err.message.contains("return of f64"), "{err}");
    }

    #[test]
    fn rejects_double_consumption() {
        let err = verify_text(
            "fn @f() -> void {\n  %s = new Set<u64>\n  %x = const 1u64\n  %a = insert %s, %x\n  %b = insert %s, %x\n  ret\n}\n",
        )
        .expect_err("should fail");
        assert!(err.message.contains("consumed more than once"), "{err}");
    }

    #[test]
    fn accepts_exclusive_branch_consumption() {
        verify_text(
            r#"
fn @f(%c: bool) -> void {
  %s = new Set<u64>
  %x = const 1u64
  %r = if %c then {
    %a = insert %s, %x
    yield %a
  } else {
    yield %s
  }
  ret
}
"#,
        )
        .expect("verifies");
    }

    #[test]
    fn rejects_use_after_consumption() {
        let err = verify_text(
            "fn @f() -> void {\n  %s = new Set<u64>\n  %x = const 1u64\n  %a = insert %s, %x\n  %h = has %s, %x\n  ret\n}\n",
        )
        .expect_err("should fail");
        assert!(err.message.contains("used after being consumed"), "{err}");
    }

    #[test]
    fn rejects_consumption_inside_loop_of_outer_value() {
        let err = verify_text(
            r#"
fn @f(%q: Seq<u64>) -> void {
  %s = new Set<u64>
  foreach %q as (%i: u64, %v: u64) {
    %a = insert %s, %v
    yield
  }
  ret
}
"#,
        )
        .expect_err("should fail");
        assert!(err.message.contains("inside a loop"), "{err}");
    }

    #[test]
    fn accepts_carried_consumption() {
        verify_text(
            r#"
fn @f(%q: Seq<u64>) -> void {
  %s = new Set<u64>
  %r = foreach %q carry(%s) as (%i: u64, %v: u64, %c: Set<u64>) {
    %a = insert %c, %v
    yield %a
  }
  ret
}
"#,
        )
        .expect("verifies");
    }

    #[test]
    fn rejects_unbalanced_if_yields() {
        let err = verify_text(
            r#"
fn @f(%c: bool) -> void {
  %x, %y = if %c then {
    %a = const 1u64
    yield %a, %a
  } else {
    %b = const 2u64
    %f = const 0f64
    yield %b, %f
  }
  ret
}
"#,
        )
        .expect_err("should fail");
        assert!(err.message.contains("branches must yield"), "{err}");
    }

    #[test]
    fn rejects_call_arity_mismatch() {
        let err = verify_text(
            r#"
fn @main() -> void {
  %x = const 1u64
  call @1(%x, %x)
  ret
}

fn @g(%a: u64) -> void {
  ret
}
"#,
        )
        .expect_err("should fail");
        assert!(err.message.contains("2 args, expected 1"), "{err}");
    }

    #[test]
    fn rejects_missing_terminator() {
        // Built by hand: parser cannot produce this shape.
        use crate::builder::FunctionBuilder;
        let mut b = FunctionBuilder::new("f", &[], Type::Void);
        let _ = b.const_u64(1);
        // no ret
        let f = b.finish();
        let err = verify_function(&f).expect_err("should fail");
        assert!(err.message.contains("must end in ret"), "{err}");
    }

    #[test]
    fn rejects_use_outside_the_defining_region() {
        // `%x` is defined in the then-arm; after the `if` it is out of
        // scope again, while `%r` and the parameter stay visible.
        let err = verify_text(
            r#"
fn @f(%c: bool) -> u64 {
  %r = if %c then {
    %x = const 1u64
    yield %x
  } else {
    %y = const 2u64
    yield %y
  }
  %z = add %x, %r
  ret %z
}
"#,
        )
        .expect_err("should fail");
        assert!(err.message.contains("before its definition"), "{err}");
    }

    #[test]
    fn rejects_enum_key_mismatch() {
        let err = verify_text(
            "enum e0: f64\n\nfn @f() -> void {\n  %x = const 1u64\n  %i = enumadd e0, %x\n  ret\n}\n",
        )
        .expect_err("should fail");
        assert!(err.message.contains("enum keys are f64"), "{err}");
    }
}
