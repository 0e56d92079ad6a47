//! Pre-decoded instruction stream.
//!
//! Decoding flattens each [`Function`] once per run into a dense
//! [`DInst`] stream, one slot per source instruction:
//!
//! - every opcode that is not control flow or a side channel decodes to
//!   the [`BulkOp`] a loop plan runs ([`DInst::Op`]), so dispatch and
//!   loop plans execute one operation set through one executor,
//! - every operand is a frame slot: a nesting path (`%g[%u]`, `%t.1`)
//!   is lowered once, in operand order, into steps that run in the
//!   instruction's own slot before it and leave the addressed value in a
//!   scratch slot past the SSA frame ([`DInst::Lowered`]),
//! - constants are pooled as prebuilt [`Value`]s (executing a string
//!   const bumps an `Arc` instead of reallocating),
//! - region targets become contiguous index ranges into the decoded
//!   stream,
//! - statically derivable facts (insert flavor, union element type,
//!   foreach binding shape and key uncoercion) are computed once here
//!   instead of per execution.
//!
//! Decoding is purely structural: it must not change program behavior,
//! instrumentation counts, or fuel accounting. In debug builds it also
//! runs [`ade_ir::verify::verify_module`] so a linearity violation can
//! never hide behind the faster execution path.

use ade_ir::{
    Access, BinOp, CmpOp, ConstVal, FuncId, Function, Inst, InstKind, Module, Operand, RegionId,
    Scalar, Type,
};

use crate::value::Value;

/// A decoded instruction. Frame slots are `u32` indices into the
/// per-call frame: SSA value ids are already dense, so an SSA value's
/// slot is its id, and the scratch slots of lowered nesting paths follow
/// them.
#[derive(Clone, Debug)]
pub enum DInst {
    /// A straight-line operation (every opcode but control flow, calls,
    /// `print` and `roi`), sited at its own slot with no ticks of its own:
    /// dispatch ticks the slot, and a loop plan clones the op.
    Op(PlanOp),
    /// An instruction with nesting-path operands: `steps`, run first in
    /// the same slot (no ticks, traps sited here), leave each path's
    /// value in a scratch slot that `inst` names as its operand. A
    /// `Field` step is a [`BulkOp::Proj`]; an `Index` step a counted
    /// [`BulkOp::Read`] of the collection reached so far, keyed by the
    /// index slot, a pooled const, or the collection's [`BulkOp::Len`]
    /// (`end`). Every scratch slot has one writer, like an SSA value.
    Lowered {
        /// The lowered path steps, in operand order.
        steps: Box<[PlanOp]>,
        /// The instruction itself (any variant but this one).
        inst: Box<DInst>,
    },
    /// Direct call.
    Call {
        /// Callee.
        callee: FuncId,
        /// Argument slots.
        args: Box<[u32]>,
        /// Destination slot for the return value, if bound.
        dst: Option<u32>,
    },
    /// Print a record of slots.
    Print {
        /// Printed slots, in order.
        srcs: Box<[u32]>,
    },
    /// Structured if-else.
    If {
        /// Condition slot.
        cond: u32,
        /// Decoded region index of the then-block.
        then_r: u32,
        /// Decoded region index of the else-block.
        else_r: u32,
        /// Destination slots for the region's yields.
        dsts: Box<[u32]>,
    },
    /// For-each over a collection.
    ForEach {
        /// Collection slot.
        coll: u32,
        /// Initial carried value slots.
        carried: Box<[u32]>,
        /// Decoded body region index.
        body: u32,
        /// Whether the body binds `(key, value)` (sequences and maps)
        /// rather than just the element.
        binds_value: bool,
        /// Whether iterated dense keys must be presented as `u64`
        /// (directive-forced dense collection over a `u64` domain).
        uncoerce_u64: bool,
        /// Destination slots for the final carried values.
        dsts: Box<[u32]>,
    },
    /// Counted loop over `[lo, hi)`.
    ForRange {
        /// Lower bound slot.
        lo: u32,
        /// Upper bound slot.
        hi: u32,
        /// Initial carried value slots.
        carried: Box<[u32]>,
        /// Decoded body region index.
        body: u32,
        /// Destination slots for the final carried values.
        dsts: Box<[u32]>,
    },
    /// Do-while loop.
    DoWhile {
        /// Initial carried value slots.
        carried: Box<[u32]>,
        /// Decoded body region index.
        body: u32,
        /// Destination slots for the final carried values.
        dsts: Box<[u32]>,
    },
    /// Region terminator carrying results to the parent.
    Yield {
        /// Yielded slots.
        srcs: Box<[u32]>,
    },
    /// [`DInst::Yield`] rewritten at decode time to move its
    /// values straight into the consumer's destination slots — the next
    /// iteration's carried args for a loop body, the branch's dsts for
    /// an if arm — skipping the heap-allocated yield buffer.
    /// Only built where no copy overwrites a later copy's source.
    YieldDirect {
        /// Source slots, copied in order.
        srcs: Box<[u32]>,
        /// Destination slots, `dsts[j] = srcs[j]`.
        dsts: Box<[u32]>,
    },
    /// Function return.
    Ret {
        /// Returned slot, if any.
        src: Option<u32>,
    },
    /// Region-of-interest marker.
    Roi {
        /// `true` at `roi begin`.
        begin: bool,
    },

    // ── Bulk loop headers ───────────────────────────────────────────
    //
    // Built by loop fusion (off under [`DecodeOptions::reference`]): a
    // [`DInst::ForEach`] / [`DInst::ForRange`] whose whole body compiled
    // into a [`BulkPlan`] is replaced in place by its bulk twin. The body
    // region's instructions stay in `code` untouched, so code length and
    // trap-site numbering are unchanged, and the interpreter can still
    // run the loop generically: it does so for a loop whose regions
    // would not fit under the depth limit and, under a fuel limit or in
    // a session, a loop whose plan holds a nested loop; any run does so
    // for an iteration the tick countdown cannot cover
    // ([`BulkPlan::worst`]).
    /// [`DInst::ForEach`] with a compiled bulk body plan.
    ForEachBulk {
        /// Collection slot.
        coll: u32,
        /// Initial carried value slots.
        carried: Box<[u32]>,
        /// Decoded body region index.
        body: u32,
        /// Whether the body binds `(key, value)` (sequences and maps)
        /// rather than just the element.
        binds_value: bool,
        /// Whether iterated dense keys must be presented as `u64`
        /// (directive-forced dense collection over a `u64` domain).
        uncoerce_u64: bool,
        /// Destination slots for the final carried values.
        dsts: Box<[u32]>,
        /// The compiled body plan.
        plan: Box<BulkPlan>,
    },
    /// [`DInst::ForRange`] with a compiled bulk body plan.
    ForRangeBulk {
        /// Lower bound slot.
        lo: u32,
        /// Upper bound slot.
        hi: u32,
        /// Initial carried value slots.
        carried: Box<[u32]>,
        /// Decoded body region index.
        body: u32,
        /// Destination slots for the final carried values.
        dsts: Box<[u32]>,
        /// The compiled body plan.
        plan: Box<BulkPlan>,
    },
}

impl DInst {
    /// The instruction itself, past the steps of a [`DInst::Lowered`].
    pub fn own(&self) -> &DInst {
        split(self).1
    }

    fn own_mut(&mut self) -> &mut DInst {
        match self {
            DInst::Lowered { inst, .. } => inst,
            inst => inst,
        }
    }
}

/// A scalar micro-op over plain slots: a [`BulkOp::Scalar`] step,
/// executed through the interpreter's one scalar step.
#[derive(Clone, Copy, Debug)]
pub enum UScalar {
    /// Copy a pooled constant into `dst`.
    Const {
        /// Index into [`DFunc::consts`].
        pool: u32,
        /// Destination slot.
        dst: u32,
    },
    /// Binary arithmetic/logic over two slots.
    Bin {
        /// Operator.
        op: BinOp,
        /// Left operand slot.
        a: u32,
        /// Right operand slot.
        b: u32,
        /// Destination slot.
        dst: u32,
    },
    /// Comparison over two slots.
    Cmp {
        /// Operator.
        op: CmpOp,
        /// Left operand slot.
        a: u32,
        /// Right operand slot.
        b: u32,
        /// Destination slot.
        dst: u32,
    },
    /// Logical negation of a slot.
    Not {
        /// Operand slot.
        a: u32,
        /// Destination slot.
        dst: u32,
    },
}

/// A compiled loop body: the ops of every slot of a `foreach` or
/// `forrange` body, in order. Branches and loops nested in the body
/// compile into [`BulkOp::If`] and [`BulkOp::Loop`] components, to any
/// depth.
///
/// Every [`PlanOp::site`] names the exact code slot the generic loop
/// would trap at.
#[derive(Clone, Debug)]
pub struct BulkPlan {
    /// Loop-invariant `const` components hoisted out of the body. SSA
    /// single-assignment plus dominance make the hoist sound: the slot
    /// has exactly one writer, every read follows it in program order,
    /// and the written value does not depend on the iteration.
    pub prelude: Box<[PlanOp]>,
    /// The per-iteration component sequence, in original order (hoisted
    /// consts excluded).
    pub ops: Box<[PlanOp]>,
    /// Source slots of the body's terminal yield, copied into the
    /// carried argument slots after each iteration (already checked for
    /// write-before-read hazards, like [`DInst::YieldDirect`]).
    pub yield_srcs: Box<[u32]>,
    /// Body slots after the last op, terminator included: the ticks an
    /// iteration takes beyond its ops' [`PlanOp::ticks`].
    pub tail: u32,
    /// The most ticks one iteration can take (the longer arm of every
    /// `if`): an iteration runs through the plan only when the tick
    /// countdown covers this, so no budget boundary falls inside it.
    /// `None` when the plan holds a loop, whose trip count only the run
    /// knows: such a plan runs only when no fuel limit or session grant
    /// can end a tick window.
    pub worst: Option<u32>,
    /// The most regions the unfused loop has open at once per
    /// iteration: the body, plus every `if` arm and nested loop body on
    /// the deepest path. The plan runs only when these fit under the
    /// depth limit.
    pub depth: u32,
}

/// One component of a [`BulkPlan`] with its trap site.
#[derive(Clone, Debug)]
pub struct PlanOp {
    /// Absolute index into [`DFunc::code`] of the component this op
    /// replays — the site a trap raised here must be attributed to.
    pub site: u32,
    /// Code slots the unfused loop ticks for this op: its own slot and
    /// those since the previous op's (hoisted `const`s), or `0` for an
    /// op sharing the previous op's slot (a projection's consumer).
    /// Prelude ops tick nothing: their slots count in every iteration.
    pub ticks: u32,
    /// The operation.
    pub op: BulkOp,
}

/// The interpreter's one operation set over plain frame slots: what a
/// straight-line instruction ([`DInst::Op`]) or a lowered path step
/// decodes to, and what a [`BulkPlan`] runs. Dispatch and plans execute
/// an op through the same executor; only [`BulkOp::If`] and
/// [`BulkOp::Loop`] exist in plans alone, compiled from the control
/// instructions of a loop body.
#[derive(Clone, Debug)]
pub enum BulkOp {
    /// A `const`, arithmetic, comparison or negation step.
    Scalar(UScalar),
    /// Numeric conversion to a pooled type.
    Cast {
        /// Pooled target type.
        ty: u32,
        /// Operand slot.
        a: u32,
        /// Destination slot.
        dst: u32,
    },
    /// Project one tuple field: the lowering of a `Field` step of a
    /// nesting path (see [`DInst::Lowered`]).
    Proj {
        /// Slot holding the tuple.
        base: u32,
        /// Field index.
        field: u32,
        /// Destination (scratch) slot.
        dst: u32,
    },
    /// `read(c, k)`; also the lowering of an `Index` step of a nesting
    /// path (see [`DInst::Lowered`]).
    Read {
        /// Collection slot.
        coll: u32,
        /// Key slot.
        key: u32,
        /// Destination slot.
        dst: u32,
    },
    /// `write(c, k, v) → c'`.
    Write {
        /// Collection slot.
        coll: u32,
        /// Key slot.
        key: u32,
        /// Value slot.
        val: u32,
        /// Base slot of the collection operand (see [`BulkOp::InsertSet`]).
        base: u32,
        /// Destination slot (receives the base collection's handle).
        dst: u32,
    },
    /// `has(c, k)`.
    Has {
        /// Collection slot.
        coll: u32,
        /// Key slot.
        key: u32,
        /// Destination slot.
        dst: u32,
    },
    /// Set-flavored insert.
    InsertSet {
        /// Collection slot.
        coll: u32,
        /// Element slot.
        elem: u32,
        /// Base slot of the collection operand: `coll` itself, or the
        /// outermost collection when `coll` holds a nested collection a
        /// lowered path reached. Its handle is the writer's result, as in
        /// dispatch.
        base: u32,
        /// Destination slot (receives the base collection's handle).
        dst: u32,
    },
    /// Map-flavored insert.
    InsertMap {
        /// Collection slot.
        coll: u32,
        /// Key slot.
        key: u32,
        /// Pooled value type used for default initialization.
        val_ty: u32,
        /// Base slot of the collection operand (see [`BulkOp::InsertSet`]).
        base: u32,
        /// Destination slot (receives the base collection's handle).
        dst: u32,
    },
    /// Sequence-flavored insert.
    InsertSeq {
        /// Collection slot.
        coll: u32,
        /// Index slot.
        index: u32,
        /// Value slot.
        val: u32,
        /// Base slot of the collection operand (see [`BulkOp::InsertSet`]).
        base: u32,
        /// Destination slot (receives the base collection's handle).
        dst: u32,
    },
    /// `remove(c, k) → c'`.
    Remove {
        /// Collection slot.
        coll: u32,
        /// Key slot.
        key: u32,
        /// Base slot of the collection operand (see [`BulkOp::InsertSet`]).
        base: u32,
        /// Destination slot (receives the base collection's handle).
        dst: u32,
    },
    /// `size(c)`.
    Size {
        /// Collection slot.
        coll: u32,
        /// Destination slot.
        dst: u32,
    },
    /// The length of a collection, with no `Size` count: the key an
    /// `end` step of a nesting path reads at.
    Len {
        /// Collection slot.
        coll: u32,
        /// Destination (scratch) slot.
        dst: u32,
    },
    /// `clear(c) → c'`.
    Clear {
        /// Collection slot.
        coll: u32,
        /// Base slot of the collection operand (see [`BulkOp::InsertSet`]).
        base: u32,
        /// Destination slot (receives the base collection's handle).
        dst: u32,
    },
    /// `union(dst, src) → dst'`.
    Union {
        /// Destination-collection slot.
        coll: u32,
        /// Source-collection slot.
        src: u32,
        /// Pooled element type of the destination.
        elem_ty: u32,
        /// Base slot of the destination operand (see [`BulkOp::InsertSet`]).
        base: u32,
        /// Destination slot (receives the base collection's handle).
        dst: u32,
    },
    /// `enc(e, v)`.
    Enc {
        /// Enumeration index.
        e: u32,
        /// Key slot.
        v: u32,
        /// Destination slot.
        dst: u32,
    },
    /// `dec(e, i)`.
    Dec {
        /// Enumeration index.
        e: u32,
        /// Identifier slot.
        v: u32,
        /// Destination slot.
        dst: u32,
    },
    /// `add(e, v)`.
    EnumAdd {
        /// Enumeration index.
        e: u32,
        /// Key slot.
        v: u32,
        /// Destination slot.
        dst: u32,
    },
    /// Allocate a collection (or default scalar/tuple) of a pooled type.
    New {
        /// Index into [`DFunc::types`].
        ty: u32,
        /// Destination slot.
        dst: u32,
    },
    /// Pack slots into a tuple value.
    Tuple {
        /// Field slots, in order.
        srcs: Box<[u32]>,
        /// Destination slot.
        dst: u32,
    },
    /// A nested `foreach`/`forrange`, run to completion in place through
    /// its own plan. The loop header at this op's site supplies the
    /// iterated collection or bounds, the carried operands and the
    /// destinations (the header's path steps, if any, are the ops before
    /// this one), and the loop is opened exactly as dispatch opens it.
    Loop {
        /// The nested loop's body plan.
        plan: Box<BulkPlan>,
    },
    /// Structured if-else; its arms may hold any plan op, nested
    /// branches and loops included.
    If {
        /// Condition slot.
        cond: u32,
        /// Then-arm components.
        then_ops: Box<[PlanOp]>,
        /// Then-arm yield source slots.
        then_srcs: Box<[u32]>,
        /// Else-arm components.
        else_ops: Box<[PlanOp]>,
        /// Else-arm yield source slots.
        else_srcs: Box<[u32]>,
        /// Then-arm slots after its last op, terminator included.
        then_tail: u32,
        /// Else-arm slots after its last op, terminator included.
        else_tail: u32,
        /// Destination slots receiving the taken arm's yields.
        dsts: Box<[u32]>,
    },
}

/// A decoded region: argument slots plus a contiguous range of the
/// owning function's instruction stream.
#[derive(Clone, Debug)]
pub struct DRegion {
    /// Frame slots of the region arguments.
    pub args: Box<[u32]>,
    /// First instruction in [`DFunc::code`].
    pub start: u32,
    /// One past the last instruction in [`DFunc::code`].
    pub end: u32,
}

/// A decoded function.
#[derive(Clone, Debug)]
pub struct DFunc {
    /// Function name (without the `@`), copied out of the source IR so
    /// trap sites can be attributed without keeping the
    /// [`Module`] alive alongside the decoded stream.
    pub name: String,
    /// Number of frame slots: one per SSA value, then one scratch slot
    /// per lowered path step ([`DInst::Lowered`]).
    pub frame_size: u32,
    /// Frame slots of the parameters, in order.
    pub params: Box<[u32]>,
    /// Decoded index of the body region.
    pub body: u32,
    /// Regions, indexed identically to the source function's arena.
    pub regions: Box<[DRegion]>,
    /// The flat instruction stream (regions occupy disjoint ranges).
    pub code: Box<[DInst]>,
    /// Prebuilt constant pool.
    pub consts: Box<[Value]>,
    /// Pooled static types (allocation, cast, defaults, union elems).
    pub types: Box<[Type]>,
    /// Every `foreach`/`forrange` header loop fusion left generic, with
    /// the stable reason its body did not compile to a [`BulkPlan`]
    /// (sorted by header slot): the opcode that rejected it (`call`,
    /// `print`, `roi`, `dowhile`, `ret`), `inner-loop` (a loop nested in
    /// the body stayed generic), `yield-hazard` (a yield whose in-order
    /// copies would overwrite one of their own sources) or `malformed`
    /// (code the verifier rejects). Empty under
    /// [`DecodeOptions::reference`], which tries no loop.
    pub generic_loops: Box<[(u32, &'static str)]>,
}

/// A fully decoded module.
///
/// Owns everything execution needs (instruction streams, constant
/// pools, pooled types, function names), so it is `'static`, `Send`
/// and `Sync`: decode a module once, wrap it in an `Arc`, and share it
/// across concurrent [`crate::ExecSession`]s.
#[derive(Debug)]
pub struct DecodedModule {
    /// Decoded functions, indexed by [`FuncId`].
    pub funcs: Box<[DFunc]>,
    /// Number of enumeration classes declared by the source module
    /// (the interpreter allocates one runtime `Enum` pair per class).
    pub enum_count: usize,
}

/// Options for [`DecodedModule::decode_with`].
#[derive(Clone, Copy, Debug, Default)]
pub struct DecodeOptions {
    /// Decode the reference stream: one [`DInst`] per source instruction,
    /// with no loop plans ([`DInst::ForEachBulk`] /
    /// [`DInst::ForRangeBulk`]) and no [`DInst::YieldDirect`]. The
    /// default (`false`) builds both; they are observationally inert, so
    /// the reference interpreter is the differential oracle for them.
    pub reference: bool,
}

impl DecodedModule {
    /// Decodes every function of `module`; the default [`DecodeOptions`]
    /// build loop plans and direct yields.
    ///
    /// In debug builds this first runs the IR verifier: the decoded
    /// stream bakes in static facts (insert flavors, binding shapes)
    /// that are only sound on well-formed, linear IR, so decoding must
    /// never outrun verification.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the module fails verification.
    pub fn decode_with(module: &Module, options: &DecodeOptions) -> Self {
        #[cfg(debug_assertions)]
        if let Err(e) = ade_ir::verify::verify_module(module) {
            panic!("refusing to decode an unverifiable module: {e}");
        }
        let funcs = module
            .funcs
            .iter()
            .map(|f| {
                let mut d = decode_function(f);
                if !options.reference {
                    loop_fuse_function(&mut d);
                    direct_yields(&mut d);
                }
                d
            })
            .collect();
        DecodedModule {
            funcs,
            enum_count: module.enums.len(),
        }
    }

    /// The decoded function behind an id.
    #[inline]
    pub fn func(&self, f: FuncId) -> &DFunc {
        &self.funcs[f.index()]
    }

    /// Looks up a decoded function by name (the entry-point lookup,
    /// mirroring `Module::function_by_name`).
    pub fn function_by_name(&self, name: &str) -> Option<FuncId> {
        self.funcs
            .iter()
            .position(|f| f.name == name)
            .map(FuncId::from_index)
    }
}

struct FuncDecoder<'f> {
    func: &'f Function,
    code: Vec<DInst>,
    regions: Vec<DRegion>,
    consts: Vec<Value>,
    types: Vec<Type>,
    /// Frame slots so far: the SSA slots, then one scratch slot per
    /// lowered path step.
    frame_size: u32,
    /// The code slot of the instruction being decoded.
    site: u32,
    /// The path steps its operands lowered to so far.
    steps: Vec<PlanOp>,
}

fn decode_function(func: &Function) -> DFunc {
    let mut d = FuncDecoder {
        func,
        code: Vec::with_capacity(func.insts.len()),
        regions: vec![
            DRegion {
                args: Box::new([]),
                start: 0,
                end: 0
            };
            func.regions.len()
        ],
        consts: Vec::new(),
        types: Vec::new(),
        frame_size: u32::try_from(func.values.len()).expect("frame fits u32"),
        site: 0,
        steps: Vec::new(),
    };
    // Decode every region (the body transitively reaches them all, but
    // walking the arena keeps region indices identical to the source).
    for r in 0..func.regions.len() {
        d.decode_region(RegionId::from_index(r));
    }
    DFunc {
        name: func.name.clone(),
        frame_size: d.frame_size,
        params: func.params.iter().map(|p| slot(p.index())).collect(),
        body: u32::try_from(func.body.index()).expect("region fits u32"),
        regions: d.regions.into_boxed_slice(),
        code: d.code.into_boxed_slice(),
        consts: d.consts.into_boxed_slice(),
        types: d.types.into_boxed_slice(),
        generic_loops: Box::new([]),
    }
}

fn slot(index: usize) -> u32 {
    u32::try_from(index).expect("frame slot fits u32")
}

impl FuncDecoder<'_> {
    fn decode_region(&mut self, r: RegionId) {
        let region = self.func.region(r);
        let start = slot(self.code.len());
        // Nested regions decode via the arena walk in `decode_function`,
        // not recursively here, so this region's instructions stay
        // contiguous.
        for &i in &region.insts {
            self.site = slot(self.code.len());
            let inst = self.decode_inst(self.func.inst(i));
            let inst = if self.steps.is_empty() {
                inst
            } else {
                DInst::Lowered {
                    steps: std::mem::take(&mut self.steps).into_boxed_slice(),
                    inst: Box::new(inst),
                }
            };
            self.code.push(inst);
        }
        let end = slot(self.code.len());
        self.regions[r.index()] = DRegion {
            args: region.args.iter().map(|a| slot(a.index())).collect(),
            start,
            end,
        };
    }

    fn pool_const(&mut self, c: &ConstVal) -> u32 {
        let v = match c {
            ConstVal::Bool(b) => Value::Bool(*b),
            ConstVal::U64(n) => Value::U64(*n),
            ConstVal::I64(n) => Value::I64(*n),
            ConstVal::F64(n) => Value::F64(*n),
            ConstVal::Str(s) => Value::Str(s.as_str().into()),
        };
        self.consts.push(v);
        slot(self.consts.len() - 1)
    }

    fn pool_type(&mut self, ty: &Type) -> u32 {
        if let Some(i) = self.types.iter().position(|t| t == ty) {
            return slot(i);
        }
        self.types.push(ty.clone());
        slot(self.types.len() - 1)
    }

    /// Appends a path step of the current instruction, writing a fresh
    /// scratch slot, and returns that slot.
    fn step(&mut self, op: impl FnOnce(u32) -> BulkOp) -> u32 {
        let dst = self.frame_size;
        self.frame_size = dst.checked_add(1).expect("frame fits u32");
        self.steps.push(PlanOp {
            site: self.site,
            ticks: 0,
            op: op(dst),
        });
        dst
    }

    /// The slot holding an operand's value: its base slot, or the scratch
    /// slot its path steps leave the addressed value in (see
    /// [`DInst::Lowered`]).
    fn op(&mut self, operand: &Operand) -> u32 {
        let mut cur = slot(operand.base.index());
        for step in &operand.path {
            cur = match *step {
                Access::Field(field) => self.step(|dst| BulkOp::Proj {
                    base: cur,
                    field,
                    dst,
                }),
                Access::Index(index) => {
                    let key = match index {
                        Scalar::Value(v) => slot(v.index()),
                        Scalar::Const(n) => {
                            let pool = self.pool_const(&ConstVal::U64(n));
                            self.step(|dst| BulkOp::Scalar(UScalar::Const { pool, dst }))
                        }
                        Scalar::End => self.step(|dst| BulkOp::Len { coll: cur, dst }),
                    };
                    self.step(|dst| BulkOp::Read {
                        coll: cur,
                        key,
                        dst,
                    })
                }
            };
        }
        cur
    }

    fn ops(&mut self, operands: &[Operand]) -> Box<[u32]> {
        operands.iter().map(|o| self.op(o)).collect()
    }

    fn dsts(&self, inst: &Inst) -> Box<[u32]> {
        inst.results.iter().map(|r| slot(r.index())).collect()
    }

    /// Static type of the collection an operand addresses.
    fn target_type(&self, operand: &Operand) -> Type {
        ade_ir::builder::operand_type_in(self.func, operand)
    }

    /// Decodes one instruction, lowering its path operands into
    /// `self.steps`.
    fn decode_inst(&mut self, inst: &Inst) -> DInst {
        let ops = &inst.operands;
        let op = match &inst.kind {
            InstKind::Call(callee) => {
                return DInst::Call {
                    callee: *callee,
                    args: self.ops(ops),
                    dst: inst.results.first().map(|r| slot(r.index())),
                }
            }
            InstKind::Print => {
                return DInst::Print {
                    srcs: self.ops(ops),
                }
            }
            InstKind::If => {
                return DInst::If {
                    cond: self.op(&ops[0]),
                    then_r: slot(inst.regions[0].index()),
                    else_r: slot(inst.regions[1].index()),
                    dsts: self.dsts(inst),
                }
            }
            InstKind::ForEach => {
                let coll_ty = self.target_type(&ops[0]);
                return DInst::ForEach {
                    coll: self.op(&ops[0]),
                    carried: self.ops(&ops[1..]),
                    body: slot(inst.regions[0].index()),
                    binds_value: matches!(coll_ty, Type::Seq(_) | Type::Map { .. }),
                    uncoerce_u64: coll_ty.key_type() == Some(&Type::U64),
                    dsts: self.dsts(inst),
                };
            }
            InstKind::ForRange => {
                return DInst::ForRange {
                    lo: self.op(&ops[0]),
                    hi: self.op(&ops[1]),
                    carried: self.ops(&ops[2..]),
                    body: slot(inst.regions[0].index()),
                    dsts: self.dsts(inst),
                }
            }
            InstKind::DoWhile => {
                return DInst::DoWhile {
                    carried: self.ops(ops),
                    body: slot(inst.regions[0].index()),
                    dsts: self.dsts(inst),
                }
            }
            InstKind::Yield => {
                return DInst::Yield {
                    srcs: self.ops(ops),
                }
            }
            InstKind::Ret => {
                return DInst::Ret {
                    src: ops.first().map(|o| self.op(o)),
                }
            }
            InstKind::Roi(begin) => return DInst::Roi { begin: *begin },
            kind => self.decode_op(kind, ops, slot(inst.results[0].index())),
        };
        DInst::Op(PlanOp {
            site: self.site,
            ticks: 0,
            op,
        })
    }

    /// The [`BulkOp`] of a straight-line instruction writing `dst`. A
    /// writer's result is its collection operand's base handle.
    fn decode_op(&mut self, kind: &InstKind, ops: &[Operand], dst: u32) -> BulkOp {
        let base = |o: &Operand| slot(o.base.index());
        match kind {
            InstKind::Const(c) => BulkOp::Scalar(UScalar::Const {
                pool: self.pool_const(c),
                dst,
            }),
            InstKind::New(ty) => BulkOp::New {
                ty: self.pool_type(ty),
                dst,
            },
            InstKind::Read => BulkOp::Read {
                coll: self.op(&ops[0]),
                key: self.op(&ops[1]),
                dst,
            },
            InstKind::Write => BulkOp::Write {
                coll: self.op(&ops[0]),
                key: self.op(&ops[1]),
                val: self.op(&ops[2]),
                base: base(&ops[0]),
                dst,
            },
            InstKind::Has => BulkOp::Has {
                coll: self.op(&ops[0]),
                key: self.op(&ops[1]),
                dst,
            },
            InstKind::Insert => {
                let coll = self.op(&ops[0]);
                match self.target_type(&ops[0]) {
                    Type::Set { .. } => BulkOp::InsertSet {
                        coll,
                        elem: self.op(&ops[1]),
                        base: base(&ops[0]),
                        dst,
                    },
                    Type::Map { val, .. } => BulkOp::InsertMap {
                        coll,
                        key: self.op(&ops[1]),
                        val_ty: self.pool_type(&val),
                        base: base(&ops[0]),
                        dst,
                    },
                    Type::Seq(_) => BulkOp::InsertSeq {
                        coll,
                        index: self.op(&ops[1]),
                        val: self.op(&ops[2]),
                        base: base(&ops[0]),
                        dst,
                    },
                    other => panic!("insert into {other}"),
                }
            }
            InstKind::Remove => BulkOp::Remove {
                coll: self.op(&ops[0]),
                key: self.op(&ops[1]),
                base: base(&ops[0]),
                dst,
            },
            InstKind::Clear => BulkOp::Clear {
                coll: self.op(&ops[0]),
                base: base(&ops[0]),
                dst,
            },
            InstKind::Size => BulkOp::Size {
                coll: self.op(&ops[0]),
                dst,
            },
            InstKind::UnionInto => {
                let elem = self
                    .target_type(&ops[0])
                    .key_type()
                    .cloned()
                    .unwrap_or(Type::Idx);
                BulkOp::Union {
                    coll: self.op(&ops[0]),
                    src: self.op(&ops[1]),
                    elem_ty: self.pool_type(&elem),
                    base: base(&ops[0]),
                    dst,
                }
            }
            InstKind::Bin(op) => BulkOp::Scalar(UScalar::Bin {
                op: *op,
                a: self.op(&ops[0]),
                b: self.op(&ops[1]),
                dst,
            }),
            InstKind::Cmp(op) => BulkOp::Scalar(UScalar::Cmp {
                op: *op,
                a: self.op(&ops[0]),
                b: self.op(&ops[1]),
                dst,
            }),
            InstKind::Not => BulkOp::Scalar(UScalar::Not {
                a: self.op(&ops[0]),
                dst,
            }),
            InstKind::Cast(ty) => BulkOp::Cast {
                ty: self.pool_type(ty),
                a: self.op(&ops[0]),
                dst,
            },
            InstKind::Tuple => BulkOp::Tuple {
                srcs: self.ops(ops),
                dst,
            },
            InstKind::Enc(e) => BulkOp::Enc {
                e: slot(e.index()),
                v: self.op(&ops[0]),
                dst,
            },
            InstKind::Dec(e) => BulkOp::Dec {
                e: slot(e.index()),
                v: self.op(&ops[0]),
                dst,
            },
            InstKind::EnumAdd(e) => BulkOp::EnumAdd {
                e: slot(e.index()),
                v: self.op(&ops[0]),
                dst,
            },
            other => unreachable!("{other:?} is a control instruction"),
        }
    }
}

/// Rewrites the terminal [`DInst::Yield`] of loop bodies and branch
/// arms into [`DInst::YieldDirect`] targeting the consumer's slots.
/// Runs after loop fusion, so bulk loop bodies are covered for the
/// iterations that run them per instruction.
///
/// Observables are unchanged: the terminator keeps its code slot (same
/// fuel tick, same trap site) and its path steps, a slot copy cannot
/// trap, and the copies land exactly where the buffered values would
/// have. A yield with a write-before-read hazard between the copies
/// keeps the buffered path.
fn direct_yields(d: &mut DFunc) {
    let mut plans: Vec<(u32, Box<[u32]>)> = Vec::new();
    for inst in d.code.iter() {
        match inst.own() {
            DInst::ForRange { body, .. } | DInst::ForRangeBulk { body, .. } => {
                let args = &d.regions[*body as usize].args;
                plans.push((*body, args[1..].into()));
            }
            DInst::ForEach {
                body, binds_value, ..
            }
            | DInst::ForEachBulk {
                body, binds_value, ..
            } => {
                let skip = 1 + usize::from(*binds_value);
                let args = &d.regions[*body as usize].args;
                plans.push((*body, args[skip..].into()));
            }
            DInst::If {
                then_r,
                else_r,
                dsts,
                ..
            } => {
                plans.push((*then_r, dsts.clone()));
                plans.push((*else_r, dsts.clone()));
            }
            _ => {}
        }
    }
    for (r, dsts) in plans {
        let region = &d.regions[r as usize];
        if region.end == region.start {
            continue;
        }
        let term = d.code[region.end as usize - 1].own_mut();
        if let Some(srcs) = direct_srcs(term, &dsts) {
            *term = DInst::YieldDirect {
                srcs: srcs.into(),
                dsts,
            };
        }
    }
}

/// The source slots of a region terminator that can be copied straight
/// into the consumer's `dsts`: a [`DInst::Yield`] of matching length
/// with no write-before-read hazard between the in-order copies. `None`
/// for anything else.
fn direct_srcs(term: &DInst, dsts: &[u32]) -> Option<Vec<u32>> {
    let DInst::Yield { srcs } = term else {
        return None;
    };
    if srcs.len() != dsts.len() || srcs.iter().enumerate().any(|(j, s)| dsts[..j].contains(s)) {
        return None;
    }
    Some(srcs.to_vec())
}

/// Runs the loop-granular fusion tier over every loop of `d`:
/// `foreach`/`forrange` headers whose whole body compiles to a
/// [`BulkPlan`] are replaced in place by [`DInst::ForEachBulk`] /
/// [`DInst::ForRangeBulk`]; every other header is recorded in
/// [`DFunc::generic_loops`] with the reason it stayed generic. The body
/// region's instructions are left untouched (the header occupies one
/// code slot either way), so code length and trap-site numbering are
/// unchanged and the generic loop path can still execute
/// the region whenever the plan may not run.
///
/// Loops compile innermost first, so an enclosing body finds each
/// nested loop already compiled and embeds its plan as a
/// [`BulkOp::Loop`]. Runs before [`direct_yields`], so plans compile
/// from the buffered yields.
fn loop_fuse_function(d: &mut DFunc) {
    let mut generic = Vec::new();
    for idx in loops_inner_first(d) {
        match try_bulk_loop(d, idx) {
            Ok(bulk) => *d.code[idx].own_mut() = bulk,
            Err(why) => generic.push((slot(idx), why)),
        }
    }
    generic.sort_unstable();
    d.generic_loops = generic.into_boxed_slice();
}

/// The `foreach`/`forrange` headers of `d`, each after every loop
/// nested inside it. A header is found when the region holding it is
/// scanned, which happens before its own body is; reversing that order
/// puts nested loops first.
fn loops_inner_first(d: &DFunc) -> Vec<usize> {
    let mut headers = Vec::new();
    let mut regions = vec![d.body];
    while let Some(r) = regions.pop() {
        let r = &d.regions[r as usize];
        for idx in r.start as usize..r.end as usize {
            match d.code[idx].own() {
                DInst::If { then_r, else_r, .. } => regions.extend([*then_r, *else_r]),
                DInst::DoWhile { body, .. } => regions.push(*body),
                DInst::ForEach { body, .. } | DInst::ForRange { body, .. } => {
                    headers.push(idx);
                    regions.push(*body);
                }
                _ => {}
            }
        }
    }
    headers.reverse();
    headers
}

/// Why a loop stayed generic (see [`DFunc::generic_loops`]).
type Reject = &'static str;

/// Compiles the loop header at `idx` into its bulk twin, if its body is
/// a region the plan language can express.
fn try_bulk_loop(d: &DFunc, idx: usize) -> Result<DInst, Reject> {
    Ok(match d.code[idx].own() {
        DInst::ForEach {
            coll,
            carried,
            body,
            binds_value,
            uncoerce_u64,
            dsts,
        } => {
            let region = &d.regions[*body as usize];
            let skip = 1 + usize::from(*binds_value);
            let plan = compile_plan(d, region, &region.args[skip..])?;
            DInst::ForEachBulk {
                coll: *coll,
                carried: carried.clone(),
                body: *body,
                binds_value: *binds_value,
                uncoerce_u64: *uncoerce_u64,
                dsts: dsts.clone(),
                plan: Box::new(plan),
            }
        }
        DInst::ForRange {
            lo,
            hi,
            carried,
            body,
            dsts,
        } => {
            let region = &d.regions[*body as usize];
            let plan = compile_plan(d, region, &region.args[1..])?;
            DInst::ForRangeBulk {
                lo: *lo,
                hi: *hi,
                carried: carried.clone(),
                body: *body,
                dsts: dsts.clone(),
                plan: Box::new(plan),
            }
        }
        other => unreachable!("{other:?} is not a foreach/forrange header"),
    })
}

/// Compiles a loop body region into a [`BulkPlan`]: every slot must be
/// expressible as plan ops, and the terminator must be a yield of the
/// carried values that [`direct_srcs`] accepts (the same rule
/// [`direct_yields`] applies). Top-level `const` ops are hoisted into the
/// prelude: each writes a slot no other op writes (an SSA value, or the
/// scratch slot of one constant path index).
fn compile_plan(d: &DFunc, region: &DRegion, carried_args: &[u32]) -> Result<BulkPlan, Reject> {
    let (ops, yield_srcs) = compile_body(d, region, carried_args)?;
    let (prelude, mut ops): (Vec<PlanOp>, Vec<PlanOp>) = ops
        .into_iter()
        .partition(|p| matches!(p.op, BulkOp::Scalar(UScalar::Const { .. })));
    let tail = assign_ticks(&mut ops, region);
    Ok(BulkPlan {
        worst: worst_ticks(&ops, tail),
        depth: 1 + nest_depth(&ops),
        prelude: prelude.into_boxed_slice(),
        ops: ops.into_boxed_slice(),
        yield_srcs: yield_srcs.into_boxed_slice(),
        tail,
    })
}

/// Gives each op of a region's compiled sequence its
/// [`PlanOp::ticks`] and returns the region's slots after the last op,
/// terminator included.
fn assign_ticks(ops: &mut [PlanOp], region: &DRegion) -> u32 {
    let mut next = region.start;
    for p in ops.iter_mut() {
        p.ticks = if p.site >= next {
            let ticks = p.site - next + 1;
            next = p.site + 1;
            ticks
        } else {
            0
        };
    }
    region.end - next
}

/// The most ticks a compiled sequence plus `tail` can take: every op's
/// slots and the longer arm of each `if`. `None` when the sequence holds
/// a loop.
fn worst_ticks(ops: &[PlanOp], tail: u32) -> Option<u32> {
    ops.iter().try_fold(tail, |sum, p| {
        let arm = match &p.op {
            BulkOp::If {
                then_ops,
                then_tail,
                else_ops,
                else_tail,
                ..
            } => worst_ticks(then_ops, *then_tail)?.max(worst_ticks(else_ops, *else_tail)?),
            BulkOp::Loop { .. } => return None,
            _ => 0,
        };
        Some(sum + p.ticks + arm)
    })
}

/// The most regions the unfused code of `ops` opens below its own: an
/// `if` arm and whatever that arm opens, or a nested loop's
/// [`BulkPlan::depth`].
fn nest_depth(ops: &[PlanOp]) -> u32 {
    ops.iter()
        .map(|p| match &p.op {
            BulkOp::If {
                then_ops, else_ops, ..
            } => 1 + nest_depth(then_ops).max(nest_depth(else_ops)),
            BulkOp::Loop { plan } => plan.depth,
            _ => 0,
        })
        .max()
        .unwrap_or(0)
}

/// Compiles a loop body or branch arm: the ops of its slots, the
/// terminator's path steps included, plus the source slots of its
/// terminal yield into `dsts`.
fn compile_body(
    d: &DFunc,
    region: &DRegion,
    dsts: &[u32],
) -> Result<(Vec<PlanOp>, Vec<u32>), Reject> {
    let (start, end) = (region.start as usize, region.end as usize);
    if end == start {
        return Err("malformed");
    }
    let mut ops = Vec::new();
    for idx in start..end - 1 {
        compile_inst(d, idx, &mut ops)?;
    }
    let (steps, term) = split(&d.code[end - 1]);
    let srcs = direct_srcs(term, dsts).ok_or("yield-hazard")?;
    ops.extend_from_slice(steps);
    Ok((ops, srcs))
}

/// A slot's path steps and the instruction they feed.
fn split(inst: &DInst) -> (&[PlanOp], &DInst) {
    match inst {
        DInst::Lowered { steps, inst } => (steps, inst),
        inst => (&[], inst),
    }
}

/// Appends the plan ops of the slot at `idx`: its path steps, then the
/// slot's own op, or the op a branch or a compiled nested loop compiles
/// to, sited at `idx` so bulk execution traps at exactly the site the
/// unfused loop would. An observable side channel (print, ROI, calls),
/// a `dowhile` or `ret`, or a nested loop that stayed generic rejects
/// the whole loop.
fn compile_inst(d: &DFunc, idx: usize, out: &mut Vec<PlanOp>) -> Result<(), Reject> {
    let (steps, inst) = split(&d.code[idx]);
    out.extend_from_slice(steps);
    let op = match inst {
        DInst::Op(p) => p.op.clone(),
        DInst::If {
            cond,
            then_r,
            else_r,
            dsts,
        } => {
            let arm = |r: u32| {
                let region = &d.regions[r as usize];
                let (mut ops, srcs) = compile_body(d, region, dsts)?;
                let tail = assign_ticks(&mut ops, region);
                Ok::<_, Reject>((ops, srcs, tail))
            };
            let (then_ops, then_srcs, then_tail) = arm(*then_r)?;
            let (else_ops, else_srcs, else_tail) = arm(*else_r)?;
            BulkOp::If {
                cond: *cond,
                then_ops: then_ops.into_boxed_slice(),
                then_srcs: then_srcs.into_boxed_slice(),
                else_ops: else_ops.into_boxed_slice(),
                else_srcs: else_srcs.into_boxed_slice(),
                then_tail,
                else_tail,
                dsts: dsts.clone(),
            }
        }
        DInst::ForEachBulk { plan, .. } | DInst::ForRangeBulk { plan, .. } => {
            BulkOp::Loop { plan: plan.clone() }
        }
        DInst::ForEach { .. } | DInst::ForRange { .. } => return Err("inner-loop"),
        DInst::DoWhile { .. } => return Err("dowhile"),
        DInst::Call { .. } => return Err("call"),
        DInst::Print { .. } => return Err("print"),
        DInst::Roi { .. } => return Err("roi"),
        DInst::Ret { .. } => return Err("ret"),
        // A yield before the region's end: verified code has none (and
        // direct yields do not exist yet).
        DInst::Yield { .. } | DInst::YieldDirect { .. } | DInst::Lowered { .. } => {
            return Err("malformed")
        }
    };
    out.push(PlanOp {
        site: slot(idx),
        ticks: 0,
        op,
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ade_ir::parse::parse_module;

    fn reference(m: &Module) -> DecodedModule {
        DecodedModule::decode_with(m, &DecodeOptions { reference: true })
    }

    #[test]
    fn decode_keeps_region_indices_and_frame_slots() {
        let m = parse_module(
            "fn @main() -> void {\n  %s = new Set<u64>\n  %x = const 1u64\n  %s1 = insert %s, %x\n  %h = has %s1, %x\n  print %h\n  ret\n}\n",
        )
        .expect("parses");
        let d = reference(&m);
        let f = &d.funcs[0];
        assert_eq!(f.regions.len(), m.funcs[0].regions.len());
        assert_eq!(f.code.len(), m.funcs[0].insts.len());
        assert_eq!(f.frame_size as usize, m.funcs[0].values.len());
        // The insert against a set type decodes to the set flavor.
        assert!(f.code.iter().any(|i| matches!(
            i,
            DInst::Op(PlanOp {
                op: BulkOp::InsertSet { .. },
                ..
            })
        )));
    }

    #[test]
    fn decode_precomputes_foreach_shape() {
        let m = parse_module(
            r#"
fn @main() -> void {
  %m = new Map<u64, u64>
  %zero = const 0u64
  %t = foreach %m carry(%zero) as (%k: u64, %v: u64, %acc: u64) {
    %a = add %acc, %v
    yield %a
  }
  print %t
  ret
}
"#,
        )
        .expect("parses");
        let d = reference(&m);
        let fe = d.funcs[0]
            .code
            .iter()
            .find_map(|i| match i {
                DInst::ForEach {
                    binds_value,
                    uncoerce_u64,
                    ..
                } => Some((*binds_value, *uncoerce_u64)),
                _ => None,
            })
            .expect("foreach decoded");
        assert_eq!(fe, (true, true));
    }

    #[test]
    fn loop_fuse_decomposes_field_operands_into_projections() {
        let m = parse_module(
            r#"
fn @main() -> void {
  %s = new Seq<(u64, u64)>
  %zero = const 0u64
  %sum = foreach %s carry(%zero) as (%i: u64, %t: (u64, u64), %acc: u64) {
    %a = add %acc, %t.1
    yield %a
  }
  print %sum
  ret
}
"#,
        )
        .expect("parses");
        ade_ir::verify::verify_module(&m).expect("verifies");
        let ssa_slots = m.funcs[0].values.len() as u32;
        let d = DecodedModule::decode_with(&m, &DecodeOptions::default());
        let f = &d.funcs[0];
        let plan = f
            .code
            .iter()
            .find_map(|i| match i {
                DInst::ForEachBulk { plan, .. } => Some(plan),
                _ => None,
            })
            .expect("projected loop still bulk-compiles");
        assert!(matches!(
            plan.ops[0].op,
            BulkOp::Proj {
                field: 1,
                dst,
                ..
            } if dst >= ssa_slots
        ));
        // The projection's scratch slot lives past the SSA frame.
        assert!(
            f.frame_size > ssa_slots,
            "scratch slots grow the frame ({} vs {ssa_slots})",
            f.frame_size
        );
    }

    #[test]
    fn loop_fuse_lowers_nesting_paths_into_counted_reads() {
        let m = parse_module(
            r#"
fn @main() -> void {
  %g = new Map<u64, Seq<u64>>
  %s = new Set<u64>
  %g1 = foreach %s carry(%g) as (%u: u64, %gc: Map<u64, Seq<u64>>) {
    %n = size %gc[%u]
    %g2 = insert %gc[%u], %n, %u
    yield %g2
  }
  %c = size %g1
  print %c
  ret
}
"#,
        )
        .expect("parses");
        ade_ir::verify::verify_module(&m).expect("verifies");
        let ssa_slots = m.funcs[0].values.len() as u32;
        let d = DecodedModule::decode_with(&m, &DecodeOptions::default());
        let f = &d.funcs[0];
        let (body, plan) = f
            .code
            .iter()
            .find_map(|i| match i {
                DInst::ForEachBulk { body, plan, .. } => Some((*body, plan)),
                _ => None,
            })
            .expect("a loop with path operands compiles to a bulk header");
        let region = &f.regions[body as usize];
        let (u, gc) = (region.args[0], region.args[1]);
        let DInst::Op(PlanOp {
            op: BulkOp::InsertSeq { dst: g2, .. },
            ..
        }) = *f.code[region.start as usize + 1].own()
        else {
            panic!("the body's second instruction is the sequence insert")
        };
        // Each `%gc[%u]` is a counted read into its own scratch slot,
        // sited at (and ticked with) its consumer; the insert's result
        // is the outer map's handle.
        let (s0, s1) = (ssa_slots, ssa_slots + 1);
        let shape: Vec<(u32, u32)> = plan
            .ops
            .iter()
            .map(|p| (p.site - region.start, p.ticks))
            .collect();
        assert_eq!(shape, [(0, 1), (0, 0), (1, 1), (1, 0)]);
        assert!(matches!(
            plan.ops[0].op,
            BulkOp::Read { coll, key, dst } if (coll, key, dst) == (gc, u, s0)
        ));
        assert!(matches!(plan.ops[1].op, BulkOp::Size { coll, .. } if coll == s0));
        assert!(matches!(
            plan.ops[2].op,
            BulkOp::Read { coll, key, dst } if (coll, key, dst) == (gc, u, s1)
        ));
        assert!(matches!(
            plan.ops[3].op,
            BulkOp::InsertSeq { coll, val, base, dst, .. }
                if (coll, val, base, dst) == (s1, u, gc, g2)
        ));
        assert_eq!((plan.tail, plan.worst), (1, Some(3)));
        assert_eq!(f.frame_size, ssa_slots + 2);
        assert!(f.generic_loops.is_empty());
    }

    #[test]
    fn constant_end_and_yielded_paths_compile_into_plans() {
        let m = parse_module(
            r#"
fn @main() -> void {
  %q = new Seq<Seq<u64>>
  %zero = const 0u64
  %a = foreach %q carry(%zero) as (%i: u64, %row: Seq<u64>, %acc: u64) {
    %n = size %q[0]
    %a1 = add %acc, %n
    yield %a1
  }
  %b = foreach %q carry(%zero) as (%i: u64, %row: Seq<u64>, %acc: u64) {
    %n = size %q[end]
    %a1 = add %acc, %n
    yield %a1
  }
  %t = tuple %zero, %zero
  %c = foreach %q carry(%zero) as (%i: u64, %row: Seq<u64>, %acc: u64) {
    yield %t.1
  }
  print %a, %b, %c
  ret
}
"#,
        )
        .expect("parses");
        ade_ir::verify::verify_module(&m).expect("verifies");
        let ssa_slots = m.funcs[0].values.len() as u32;
        let d = DecodedModule::decode_with(&m, &DecodeOptions::default());
        let f = &d.funcs[0];
        assert!(f.generic_loops.is_empty(), "{:?}", f.generic_loops);
        let plans: Vec<&BulkPlan> = f
            .code
            .iter()
            .filter_map(|i| match i {
                DInst::ForEachBulk { plan, .. } => Some(&**plan),
                _ => None,
            })
            .collect();
        let ops = |plan: &BulkPlan| -> Vec<BulkOp> {
            plan.prelude
                .iter()
                .chain(plan.ops.iter())
                .map(|p| p.op.clone())
                .collect()
        };
        // `%q[0]`: a pooled const in a scratch slot, hoisted (no other op
        // writes the slot), keys the counted read.
        let (k, r) = (ssa_slots, ssa_slots + 1);
        assert!(matches!(
            ops(plans[0]).as_slice(),
            [
                BulkOp::Scalar(UScalar::Const { dst, .. }),
                BulkOp::Read { key, dst: read, .. },
                BulkOp::Size { coll, .. },
                BulkOp::Scalar(UScalar::Bin { .. }),
            ] if (*dst, *key, *read, *coll) == (k, k, r, r)
        ));
        assert_eq!(plans[0].prelude.len(), 1);
        // `%q[end]`: the length, uncounted, keys the read.
        assert!(matches!(
            ops(plans[1]).as_slice(),
            [
                BulkOp::Len { .. },
                BulkOp::Read { .. },
                BulkOp::Size { .. },
                BulkOp::Scalar(UScalar::Bin { .. }),
            ]
        ));
        // `yield %t.1`: the projection runs last, and the yield copies
        // its scratch slot.
        assert!(matches!(
            ops(plans[2]).as_slice(),
            [BulkOp::Proj { field: 1, .. }]
        ));
        assert_eq!((plans[2].ops[0].ticks, plans[2].tail), (1, 0));
        assert_eq!(plans[2].yield_srcs.as_ref(), &[f.frame_size - 1]);
    }

    #[test]
    fn string_consts_are_pooled_once() {
        let m =
            parse_module("fn @main() -> void {\n  %a = const \"hello\"\n  print %a\n  ret\n}\n")
                .expect("parses");
        let d = reference(&m);
        assert_eq!(d.funcs[0].consts.len(), 1);
        assert_eq!(d.funcs[0].consts[0], Value::Str("hello".into()));
    }

    #[test]
    fn slot_only_loop_yields_become_direct() {
        let m = parse_module(
            r#"
fn @main() -> void {
  %lo = const 0u64
  %hi = const 4u64
  %zero = const 0u64
  %acc = forrange %lo, %hi carry(%zero) as (%i: u64, %a: u64) {
    %n = add %a, %i
    yield %n
  }
  print %acc
  ret
}
"#,
        )
        .expect("parses");
        // Plain decode keeps the buffered yield; the default decode
        // rewrites it to copy straight into the body's carried slot.
        let plain = reference(&m);
        assert!(plain.funcs[0]
            .code
            .iter()
            .all(|i| !matches!(i, DInst::YieldDirect { .. })));
        let default = DecodedModule::decode_with(&m, &DecodeOptions::default());
        let f = &default.funcs[0];
        let body = f
            .code
            .iter()
            .find_map(|i| match i {
                DInst::ForRange { body, .. } | DInst::ForRangeBulk { body, .. } => Some(*body),
                _ => None,
            })
            .expect("forrange decoded");
        let region = &f.regions[body as usize];
        let term = region.end as usize - 1;
        let DInst::YieldDirect { srcs, dsts } = &f.code[term] else {
            panic!("loop yield rewritten to YieldDirect");
        };
        assert_eq!(srcs.len(), 1);
        assert_eq!(dsts.as_ref(), &region.args[1..]);
    }

    const CHURN_LOOP: &str = r#"
fn @main() -> void {
  %s = new Set<u64>
  %lo = const 0u64
  %hi = const 100u64
  %sf = forrange %lo, %hi carry(%s) as (%i: u64, %c: Set<u64>) {
    %seven = const 7u64
    %k = mul %i, %seven
    %c1 = insert %c, %k
    yield %c1
  }
  %n = size %sf
  print %n
  ret
}
"#;

    #[test]
    fn loop_fuse_compiles_forrange_bulk_and_hoists_consts() {
        let m = parse_module(CHURN_LOOP).expect("parses");
        let d = DecodedModule::decode_with(&m, &DecodeOptions::default());
        let plan = d.funcs[0]
            .code
            .iter()
            .find_map(|i| match i {
                DInst::ForRangeBulk { plan, .. } => Some(plan),
                _ => None,
            })
            .expect("scalar forrange body compiles to a bulk header");
        assert!(matches!(
            plan.prelude.as_ref(),
            [PlanOp {
                op: BulkOp::Scalar(UScalar::Const { .. }),
                ..
            }]
        ));
        assert!(matches!(
            plan.ops.as_ref(),
            [
                PlanOp {
                    op: BulkOp::Scalar(UScalar::Bin { op: BinOp::Mul, .. }),
                    ..
                },
                PlanOp {
                    op: BulkOp::InsertSet { .. },
                    ..
                }
            ]
        ));
        // Each of the body's four slots ticks once per iteration: the
        // hoisted const's slot goes to the first op, the yield's to the
        // tail.
        let ticks: Vec<u32> = plan.ops.iter().map(|p| p.ticks).collect();
        assert_eq!(
            (plan.prelude[0].ticks, ticks, plan.tail, plan.worst, plan.depth),
            (0, vec![2, 1], 1, Some(4), 1)
        );
    }

    #[test]
    fn nested_loops_compile_inner_first_and_generic_loops_keep_a_reason() {
        let m = parse_module(
            r#"
fn @main() -> void {
  %s = new Set<u64>
  %zero = const 0u64
  %n = const 4u64
  %tot = forrange %zero, %n carry(%zero) as (%i: u64, %acc: u64) {
    %in = foreach %s carry(%acc) as (%v: u64, %a: u64) {
      %c = lt %v, %i
      %a2 = if %c then {
        %a1 = add %a, %v
        yield %a1
      } else {
        yield %a
      }
      yield %a2
    }
    yield %in
  }
  %out = forrange %zero, %n carry(%zero) as (%i: u64, %acc: u64) {
    %in = forrange %zero, %i carry(%acc) as (%j: u64, %a: u64) {
      print %j
      yield %a
    }
    yield %in
  }
  print %tot, %out
  ret
}
"#,
        )
        .expect("parses");
        let d = DecodedModule::decode_with(&m, &DecodeOptions::default());
        let f = &d.funcs[0];
        let outer = f
            .code
            .iter()
            .find_map(|i| match i {
                DInst::ForRangeBulk { plan, .. } => Some(plan),
                _ => None,
            })
            .expect("the first forrange compiles");
        let [PlanOp {
            op: BulkOp::Loop { plan: inner },
            ..
        }] = outer.ops.as_ref()
        else {
            panic!("the outer plan runs the foreach in place: {outer:?}")
        };
        // Body, foreach body, `if` arm; a loop has no static worst case.
        assert_eq!((outer.depth, outer.worst), (3, None));
        assert_eq!((inner.depth, inner.worst.is_some()), (2, true));
        assert!(f
            .code
            .iter()
            .any(|i| matches!(i, DInst::ForEachBulk { .. })));
        let reasons: Vec<&str> = f.generic_loops.iter().map(|&(_, why)| why).collect();
        assert_eq!(reasons, ["inner-loop", "print"]);
    }

    #[test]
    fn plain_decode_has_no_bulk_headers() {
        let m = parse_module(CHURN_LOOP).expect("parses");
        let d = reference(&m);
        assert!(
            d.funcs[0]
                .code
                .iter()
                .all(|i| !matches!(i, DInst::ForRangeBulk { .. } | DInst::ForEachBulk { .. })),
            "the reference decode must not run loop fusion"
        );
    }
}
