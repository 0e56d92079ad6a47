//! IR verifier: type checking, SSA scoping, structured-region
//! well-formedness, and the linear-update discipline for collections.
//!
//! The linearity check is what lets the execution substrate implement the
//! SSA collection updates of paper §III-A by in-place mutation (exactly
//! how MEMOIR lowers them): every collection value must be *consumed* at
//! most once per execution path — by an update, a yield, a return or a
//! loop-carry — and no read of the old name may follow the consumption.

use std::fmt;

use crate::builder::operand_type_in;
use crate::typing::{self, Externs};
use crate::{
    Access, BinOp, Function, Inst, InstId, InstKind, Module, Operand, RegionId, Scalar, Type,
    ValueDef, ValueId,
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
    let enum_keys: Vec<Type> = module.enums.iter().map(|e| e.key_ty.clone()).collect();
    let returns: Vec<Type> = module.funcs.iter().map(|f| f.ret_ty.clone()).collect();
    let ext = Externs {
        enum_keys: &enum_keys,
        returns: &returns,
    };
    for func in &module.funcs {
        Verifier::new(func, module, ext).run()?;
    }
    Ok(())
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
    module: &'a Module,
    ext: Externs<'a>,
    /// For each region, by index: the instruction owning it (`None` for
    /// the body and orphan regions).
    region_owner: Vec<Option<InstId>>,
    /// For each instruction reached from the body, by index: its
    /// position path.
    positions: Vec<Position>,
    /// For each instruction reached from the body, by index: the region
    /// holding it.
    region_of_inst: Vec<RegionId>,
}

impl<'a> Verifier<'a> {
    fn new(func: &'a Function, module: &'a Module, ext: Externs<'a>) -> Self {
        let mut v = Verifier {
            func,
            module,
            ext,
            region_owner: vec![None; func.regions.len()],
            positions: vec![Position { steps: Vec::new() }; func.insts.len()],
            region_of_inst: vec![func.body; func.insts.len()],
        };
        v.index_region(func.body, &Position { steps: Vec::new() });
        v
    }

    fn index_region(&mut self, region: RegionId, prefix: &Position) {
        for (idx, &inst) in self.func.region(region).insts.iter().enumerate() {
            let mut pos = prefix.clone();
            pos.steps.push((idx, region));
            self.region_of_inst[inst.index()] = region;
            for &sub in &self.func.inst(inst).regions {
                self.region_owner[sub.index()] = Some(inst);
                self.index_region(sub, &pos);
            }
            self.positions[inst.index()] = pos;
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
            if rid != self.func.body && self.region_owner[ridx].is_none() {
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

    fn op_ty(&self, op: &Operand) -> &Type {
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
        if *got != want {
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
        let mut ty = self.func.value_ty(op.base);
        for access in &op.path {
            match (access, ty) {
                (Access::Index(s), Type::Seq(elem)) => {
                    if let Scalar::Value(v) = s {
                        if !matches!(self.func.value_ty(*v), Type::U64 | Type::Idx) {
                            return Err(self.err(Some(inst), "sequence index must be u64/idx"));
                        }
                    }
                    ty = elem;
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
                    ty = val;
                }
                (Access::Field(n), Type::Tuple(elems)) => {
                    let Some(t) = elems.get(*n as usize) else {
                        return Err(self.err(Some(inst), format!("tuple has no field {n}")));
                    };
                    ty = t;
                }
                (a, t) => {
                    return Err(
                        self.err(Some(inst), format!("path step {a:?} does not apply to {t}"))
                    );
                }
            }
        }
        Ok(())
    }

    fn check_types(&self) -> Result<(), VerifyError> {
        self.check_dense_keys(None, &self.func.params)?;
        for inst_id in self.func.all_insts() {
            let inst = self.func.inst(inst_id);
            self.check_dense_keys(Some(inst_id), &inst.results)?;
            for &r in &inst.regions {
                self.check_dense_keys(Some(inst_id), &self.func.region(r).args)?;
            }
            for op in &inst.operands {
                self.check_path(inst_id, op)?;
            }
            self.check_signature(inst_id, inst)?;
            self.check_operands(inst_id, inst)?;
        }
        Ok(())
    }

    /// Checks that every dense selection within `values`' types has keys
    /// a dense implementation can index by.
    fn check_dense_keys(
        &self,
        inst: Option<InstId>,
        values: &[ValueId],
    ) -> Result<(), VerifyError> {
        for &v in values {
            let ty = self.func.value_ty(v);
            if let Some(coll) = undense_keyed(ty) {
                let what = if coll == ty {
                    format!("{v}: {ty}")
                } else {
                    format!("{v}: {ty} holds {coll}, which")
                };
                return Err(self.err(inst, format!("{what} needs idx or u64 keys")));
            }
        }
        Ok(())
    }

    /// `values`' types, as `T` or `(T1, T2, ...)`.
    fn value_types(&self, values: &[ValueId]) -> String {
        let tys: Vec<Type> = values
            .iter()
            .map(|&v| self.func.value_ty(v).clone())
            .collect();
        type_list(&tys)
    }

    /// Whether `values` are typed `want`, one for one.
    fn typed_as(&self, values: &[ValueId], want: &[Type]) -> bool {
        values.len() == want.len()
            && values
                .iter()
                .zip(want)
                .all(|(&v, t)| self.func.value_ty(v) == t)
    }

    /// Checks `inst`'s results, body arguments and region yields against
    /// the typing rule.
    fn check_signature(&self, inst_id: InstId, inst: &Inst) -> Result<(), VerifyError> {
        let err = |message: String| self.err(Some(inst_id), message);
        let sig = typing::signature(self.func, inst, self.ext).map_err(err)?;
        let op = inst.kind.opcode();
        if !self.typed_as(&inst.results, &sig.results) {
            let (got, want) = (self.value_types(&inst.results), type_list(&sig.results));
            return Err(err(format!("{op} result typed {got}, expected {want}")));
        }
        for &r in &inst.regions {
            let args = &self.func.region(r).args;
            if !self.typed_as(args, &sig.body_args) {
                let (got, want) = (self.value_types(args), type_list(&sig.body_args));
                return Err(err(format!(
                    "{op} region {r} arguments typed {got}, expected {want}"
                )));
            }
            let yields = typing::yield_types(self.func, r).map_err(err)?;
            if yields != sig.yields {
                let what = if inst.kind == InstKind::If {
                    "if branches"
                } else {
                    "loop body"
                };
                let (got, want) = (type_list(&yields), type_list(&sig.yields));
                return Err(err(format!(
                    "{what} must yield {want}, region {r} yields {got}"
                )));
            }
        }
        Ok(())
    }

    /// Checks what the typing rule leaves open: keys, `read`/`write`
    /// targets, written values, set elements, call arguments, operand
    /// agreement, the operators each scalar kind takes and the
    /// enumerations' key types.
    fn check_operands(&self, inst_id: InstId, inst: &Inst) -> Result<(), VerifyError> {
        let err = |message: String| Err(self.err(Some(inst_id), message));
        let enum_key = |e: crate::EnumId| match self.module.enums.get(e.index()) {
            Some(decl) => Ok(&decl.key_ty),
            None => Err(self.err(Some(inst_id), format!("unknown enum {e}"))),
        };
        match &inst.kind {
            InstKind::Literal {
                elems,
                enumeration: Some(e),
            } => {
                let key = enum_key(*e)?;
                if *key != elems.elem_ty() {
                    let elem = elems.elem_ty();
                    return err(format!(
                        "literal of {elem} elements added to {e}, whose keys are {key}"
                    ));
                }
            }
            InstKind::Read | InstKind::Write
                if !matches!(
                    self.op_ty(&inst.operands[0]),
                    Type::Seq(_) | Type::Map { .. }
                ) =>
            {
                let (op, coll) = (inst.kind.opcode(), self.op_ty(&inst.operands[0]));
                return err(format!("{op} target {coll} is not a map or sequence"));
            }
            InstKind::Read | InstKind::Remove => {
                self.check_key(inst_id, self.op_ty(&inst.operands[0]), &inst.operands[1])?;
            }
            InstKind::Write => {
                let coll = self.op_ty(&inst.operands[0]);
                self.check_key(inst_id, coll, &inst.operands[1])?;
                let want = coll.value_type().expect("collection");
                let got = self.op_ty(&inst.operands[2]);
                if got != want {
                    return err(format!(
                        "write value type {got} does not match element {want}"
                    ));
                }
            }
            InstKind::Has => {
                let coll = self.op_ty(&inst.operands[0]);
                if !coll.is_assoc() {
                    return err("has target must be set/map".into());
                }
                self.check_key(inst_id, coll, &inst.operands[1])?;
            }
            InstKind::Insert => {
                let coll = self.op_ty(&inst.operands[0]);
                match coll {
                    Type::Set { elem, .. } => {
                        let got = self.op_ty(&inst.operands[1]);
                        if got != &**elem {
                            return err(format!("set insert of {got} into Set<{elem}>"));
                        }
                    }
                    Type::Map { .. } => {
                        self.check_key(inst_id, coll, &inst.operands[1])?;
                    }
                    Type::Seq(elem) => {
                        if inst.operands.len() != 3 {
                            return err("seq insert needs (s, i, v)".into());
                        }
                        let idx_ty = self.op_ty(&inst.operands[1]);
                        if !matches!(idx_ty, Type::U64 | Type::Idx) {
                            return err(format!("seq insert index must be u64/idx, got {idx_ty}"));
                        }
                        let got = self.op_ty(&inst.operands[2]);
                        if got != &**elem {
                            return err(format!("seq insert of {got} into Seq<{elem}>"));
                        }
                    }
                    other => return err(format!("insert into non-collection {other}")),
                }
            }
            InstKind::Clear | InstKind::Size if !self.op_ty(&inst.operands[0]).is_collection() => {
                return err("operand must be a collection".into());
            }
            InstKind::UnionInto => {
                let dst = self.op_ty(&inst.operands[0]);
                let src = self.op_ty(&inst.operands[1]);
                match (dst, src) {
                    (Type::Set { elem: a, .. }, Type::Set { elem: b, .. }) if a == b => {}
                    _ => return err(format!("union of incompatible sets {dst} and {src}")),
                }
            }
            InstKind::Bin(op) => {
                let a = self.op_ty(&inst.operands[0]);
                let b = self.op_ty(&inst.operands[1]);
                if a != b || !a.is_numeric() && *a != Type::Bool {
                    return err(format!(
                        "binary op on mismatched/non-numeric types {a}, {b}"
                    ));
                }
                let logical = matches!(op, BinOp::And | BinOp::Or | BinOp::Xor);
                let bitwise = logical || matches!(op, BinOp::Shl | BinOp::Shr);
                if *a == Type::Bool && !logical || *a == Type::F64 && bitwise {
                    return err(format!("{} is not defined on {a}", op.name()));
                }
            }
            InstKind::Cmp(_) => {
                let a = self.op_ty(&inst.operands[0]);
                let b = self.op_ty(&inst.operands[1]);
                if a != b {
                    return err(format!("comparison of {a} with {b}"));
                }
            }
            InstKind::Not if *self.op_ty(&inst.operands[0]) != Type::Bool => {
                return err("not of non-bool".into());
            }
            InstKind::Cast(ty) => {
                let from = self.op_ty(&inst.operands[0]);
                if !from.is_numeric() && *from != Type::Bool {
                    return err("cast of non-numeric".into());
                }
                if !ty.is_numeric() {
                    return err("cast to non-numeric".into());
                }
            }
            InstKind::Tuple => {
                for op in &inst.operands {
                    let ty = self.op_ty(op);
                    if !ty.is_scalar() {
                        return err(format!("tuple field of non-scalar type {ty}"));
                    }
                }
            }
            InstKind::Call(callee) => {
                // The typing rule has already found the callee.
                let target = self.module.func(*callee);
                if target.params.len() != inst.operands.len() {
                    let (name, got, want) =
                        (&target.name, inst.operands.len(), target.params.len());
                    return err(format!("call to @{name} with {got} args, expected {want}"));
                }
                for (op, &p) in inst.operands.iter().zip(&target.params) {
                    let got = self.op_ty(op);
                    let want = target.value_ty(p);
                    if got != want {
                        return err(format!(
                            "call to @{}: argument type {got}, parameter wants {want}",
                            target.name
                        ));
                    }
                }
            }
            InstKind::Enc(e) | InstKind::EnumAdd(e) => {
                let key = enum_key(*e)?;
                let got = self.op_ty(&inst.operands[0]);
                if got != key {
                    return err(format!("enum op on {got}, enum keys are {key}"));
                }
            }
            InstKind::Dec(_) if *self.op_ty(&inst.operands[0]) != Type::Idx => {
                return err("dec takes an idx".into());
            }
            InstKind::If if *self.op_ty(&inst.operands[0]) != Type::Bool => {
                return err("if condition must be bool".into());
            }
            InstKind::ForRange => {
                for op in &inst.operands[..2] {
                    if *self.op_ty(op) != Type::U64 {
                        return err("forrange bounds must be u64".into());
                    }
                }
            }
            InstKind::Ret => {
                let got = inst
                    .operands
                    .first()
                    .map_or(&Type::Void, |op| self.op_ty(op));
                if *got != self.func.ret_ty {
                    return err(format!(
                        "return of {got} from fn returning {}",
                        self.func.ret_ty
                    ));
                }
            }
            _ => {}
        }
        Ok(())
    }

    // -- linearity ---------------------------------------------------------

    fn def_region(&self, v: ValueId) -> RegionId {
        match self.func.value(v).def {
            ValueDef::Param(_) => self.func.body,
            ValueDef::RegionArg { region, .. } => region,
            ValueDef::InstResult { inst, .. } => self.region_of_inst[inst.index()],
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
            _ => typing::carry_layout(self.func, i)
                .ok()
                .flatten()
                .is_some_and(|layout| op_idx >= layout.first),
        }
    }

    fn order(&self, a: InstId, b: InstId) -> Order {
        let pa = &self.positions[a.index()].steps;
        let pb = &self.positions[b.index()].steps;
        for (sa, sb) in pa.iter().zip(pb.iter()) {
            if sa.1 != sb.1 {
                // Same parent inst, different sub-regions: only `if`
                // branches can differ.
                return Order::Exclusive;
            }
            if sa.0 != sb.0 {
                return if sa.0 < sb.0 {
                    Order::Before
                } else {
                    Order::After
                };
            }
        }
        // One path is a prefix of the other: the shorter one is the
        // enclosing control instruction.
        Order::Enclosing
    }

    /// `true` if any control instruction between `outer` (exclusive) and
    /// `inst` (inclusive) is a loop.
    fn crosses_loop(&self, outer: RegionId, inst: InstId) -> bool {
        let mut region = self.region_of_inst[inst.index()];
        while region != outer {
            let Some(owner) = self.region_owner[region.index()] else {
                return false;
            };
            if matches!(
                self.func.inst(owner).kind,
                InstKind::ForEach | InstKind::ForRange | InstKind::DoWhile
            ) {
                return true;
            }
            region = self.region_of_inst[owner.index()];
        }
        false
    }

    fn check_linearity(&self) -> Result<(), VerifyError> {
        // Gather uses of every collection-typed value, by value index.
        let mut uses: Vec<Vec<(InstId, usize)>> = vec![Vec::new(); self.func.values.len()];
        for inst_id in self.func.all_insts() {
            for (op_idx, op) in self.func.inst(inst_id).operands.iter().enumerate() {
                if self.func.value_ty(op.base).is_collection() {
                    uses[op.base.index()].push((inst_id, op_idx));
                }
            }
        }
        for (v, v_uses) in uses.iter().enumerate().filter(|(_, u)| !u.is_empty()) {
            let v = ValueId::from_index(v);
            let def_region = self.def_region(v);
            let consuming: Vec<InstId> = v_uses
                .iter()
                .filter(|&&(i, op_idx)| self.is_consuming(i, op_idx, v))
                .map(|&(i, _)| i)
                .collect();
            // (a) A consumption must not sit inside a loop nested below
            // the definition (it would execute more than once).
            for &c in &consuming {
                if self.region_of_inst[c.index()] != def_region && self.crosses_loop(def_region, c)
                {
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
                            if self.positions[c.index()].steps.len()
                                < self.positions[u.index()].steps.len()
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

/// The first `Bit` or `SparseBit` collection type within `ty`, at any
/// nesting depth, keyed by anything but `idx` (enumerated identifiers)
/// or `u64` (the dense case a `select(...)` directive forces).
fn undense_keyed(ty: &Type) -> Option<&Type> {
    let indexable = |key: &Type| matches!(key, Type::Idx | Type::U64);
    match ty {
        Type::Set { elem, sel } if sel.requires_enumeration() && !indexable(elem) => Some(ty),
        Type::Map { key, sel, .. } if sel.requires_enumeration() && !indexable(key) => Some(ty),
        Type::Seq(elem) | Type::Set { elem, .. } => undense_keyed(elem),
        Type::Map { key, val, .. } => undense_keyed(key).or_else(|| undense_keyed(val)),
        Type::Tuple(elems) => elems.iter().find_map(undense_keyed),
        _ => None,
    }
}

/// `T` for one type, `(T1, T2, ...)` for any other number.
fn type_list(tys: &[Type]) -> String {
    match tys {
        [one] => one.to_string(),
        _ => Type::Tuple(tys.to_vec()).to_string(),
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
        assert!(
            err.message.contains("literal result typed Seq<str>"),
            "{err}"
        );
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
    fn rejects_a_wrong_result_type_on_every_kind_with_results() {
        let text = r#"
enum e0: u64

fn @main(%p: u64, %m: Map<u64, u64>, %s: Set<u64>, %u: Set<u64>, %c: bool) -> void {
  %bin = add %p, %p
  %has = has %s, %p
  %size = size %s
  %cmp = eq %p, %p
  %not = not %c
  %cast = cast %p to f64
  %read = read %m, %p
  %tuple = tuple %p, %c
  %enc = enc e0, %p
  %dec = dec e0, %enc
  %add = enumadd e0, %p
  %lit = literal u64 [1, 2]
  %write = write %m, %p, %p
  %insert = insert %s, %p
  %remove = remove %insert, %p
  %union = union %remove, %u
  %clear = clear %union
  %if = if %c then {
    yield %p
  } else {
    yield %p
  }
  %foreach = foreach %lit carry(%p) as (%i: u64, %e: u64, %acc: u64) {
    yield %acc
  }
  %forrange = forrange %p, %p carry(%p) as (%j: u64, %r: u64) {
    yield %r
  }
  %dowhile = dowhile carry(%p) as (%d: u64) {
    %f = const false
    yield %f, %d
  }
  ret
}
"#;
        let module = parse_module(text).expect("parses");
        verify_module(&module).expect("the well-typed program verifies");
        for (name, wrong) in [
            ("bin", Type::F64),
            ("has", Type::U64),
            ("size", Type::Bool),
            ("cmp", Type::U64),
            ("not", Type::U64),
            ("cast", Type::U64),
            ("read", Type::F64),
            ("tuple", Type::Tuple(vec![Type::U64, Type::U64])),
            ("enc", Type::U64),
            ("dec", Type::F64),
            ("add", Type::U64),
            ("lit", Type::seq(Type::Str)),
            ("write", Type::U64),
            ("insert", Type::U64),
            ("remove", Type::set(Type::F64)),
            ("union", Type::set(Type::Idx)),
            ("clear", Type::seq(Type::U64)),
            ("if", Type::F64),
            ("foreach", Type::F64),
            ("forrange", Type::Bool),
            ("dowhile", Type::Str),
        ] {
            let mut m = module.clone();
            let f = &mut m.funcs[0];
            let v = f
                .values
                .iter()
                .position(|v| v.name.as_deref() == Some(name))
                .expect("named result");
            let ValueDef::InstResult { inst, .. } = f.values[v].def else {
                panic!("%{name} is a result");
            };
            f.values[v].ty = wrong.clone();
            let err = verify_module(&m).expect_err(name);
            assert_eq!(err.inst, Some(inst), "%{name}: {err}");
            assert!(
                err.message.contains(&format!("result typed {wrong}")),
                "%{name}: {err}"
            );
        }
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
        let mut m = Module::new();
        m.add_function(b.finish());
        let err = verify_module(&m).expect_err("should fail");
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

    /// `main` computing `op %a, %a` for a constant `%a` of `lit`.
    fn binary_on(op: &str, lit: &str) -> Result<(), VerifyError> {
        verify_text(&format!(
            "fn @main() -> void {{\n  %a = const {lit}\n  %b = {op} %a, %a\n  print %b\n  ret\n}}\n"
        ))
    }

    #[test]
    fn rejects_arithmetic_on_bools() {
        for op in ["and", "or", "xor"] {
            binary_on(op, "true").expect("logical ops take bools");
        }
        let err = binary_on("add", "true").expect_err("should fail");
        assert!(err.message.contains("add is not defined on bool"), "{err}");
    }

    #[test]
    fn rejects_bitwise_and_shift_ops_on_f64() {
        binary_on("add", "1.5f64").expect("arithmetic takes f64");
        for op in ["shl", "shr", "and", "or", "xor"] {
            let err = binary_on(op, "1.5f64").expect_err(op);
            assert!(
                err.message.contains(&format!("{op} is not defined on f64")),
                "{err}"
            );
        }
    }

    #[test]
    fn rejects_read_and_write_on_a_set() {
        let err = verify_text(
            "fn @main(%s: Set<u64>, %k: u64) -> void {\n  %x = read %s, %k\n  ret\n}\n",
        )
        .expect_err("should fail");
        assert!(
            err.message
                .contains("read target Set<u64> is not a map or sequence"),
            "{err}"
        );
        let err = verify_text(
            "fn @main(%s: Set<u64>, %k: u64, %v: void) -> void {\n  \
             %t = write %s, %k, %v\n  ret\n}\n",
        )
        .expect_err("should fail");
        assert!(
            err.message
                .contains("write target Set<u64> is not a map or sequence"),
            "{err}"
        );
    }

    #[test]
    fn rejects_dense_selections_without_index_keys() {
        for dense in ["Set{Bit}<str>", "Set{SparseBit}<i64>", "Map{Bit}<f64, u64>"] {
            for ty in [dense.to_string(), format!("Map<u64, {dense}>")] {
                let text = format!("fn @main() -> void {{\n  %c = new {ty}\n  ret\n}}\n");
                let err = verify_text(&text).expect_err(&ty);
                let msg = &err.message;
                assert!(
                    msg.contains(dense) && msg.ends_with("needs idx or u64 keys"),
                    "{err}"
                );
            }
        }
        for ty in [
            "Set{Bit}<idx>",
            "Set{SparseBit}<u64>",
            "Map<u64, Map{Bit}<u64, u64>>",
        ] {
            verify_text(&format!(
                "fn @main() -> void {{\n  %c = new {ty}\n  ret\n}}\n"
            ))
            .unwrap_or_else(|e| panic!("{ty}: {e}"));
        }
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
