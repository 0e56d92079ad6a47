//! Pre-decoded instruction stream.
//!
//! The tree-walking interpreter used to re-derive everything about an
//! instruction on every execution: operand structs were pattern-matched
//! for nesting paths, `const` strings re-allocated, insert flavors and
//! foreach binding shapes recomputed from static types inside hot loops.
//! Decoding flattens each [`Function`] once per run into a dense
//! [`DInst`] stream:
//!
//! - operand slots are resolved to frame indices up front ([`DOp::Slot`]
//!   is the overwhelmingly common case; nested paths keep a boxed
//!   side-structure),
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

/// A decoded operand path scalar (`s ::= v | n | end`).
#[derive(Clone, Copy, Debug)]
pub enum DScalar {
    /// Dynamic index living in a frame slot.
    Slot(u32),
    /// Constant index.
    Const(u64),
    /// One past the end of the addressed sequence.
    End,
}

/// One decoded nesting-path step.
#[derive(Clone, Copy, Debug)]
pub enum DAccess {
    /// Index into the collection at this nesting level.
    Index(DScalar),
    /// Project a tuple field.
    Field(u32),
}

/// A nested operand: base frame slot plus its access path. Boxed inside
/// [`DOp`] so the common slot-only case stays two words.
#[derive(Clone, Debug)]
pub struct DPath {
    /// Frame slot of the root SSA value.
    pub base: u32,
    /// Accesses applied outermost-first.
    pub path: Box<[DAccess]>,
}

/// A decoded operand.
#[derive(Clone, Debug)]
pub enum DOp {
    /// The value in a frame slot (no nesting path).
    Slot(u32),
    /// A nested access resolved at execution time.
    Path(Box<DPath>),
}

impl DOp {
    /// The frame slot of the operand's root value.
    pub fn base_slot(&self) -> u32 {
        match self {
            DOp::Slot(s) => *s,
            DOp::Path(p) => p.base,
        }
    }
}

/// A decoded instruction. Frame slots are `u32` indices into the
/// per-call frame (SSA value ids are already dense, so the mapping is
/// the identity — the decode's job is removing every other lookup).
#[derive(Clone, Debug)]
pub enum DInst {
    /// Copy a pooled constant into `dst`.
    Const {
        /// Index into [`DFunc::consts`].
        pool: u32,
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
    /// `read(c, k)`.
    Read {
        /// Collection operand.
        coll: DOp,
        /// Key operand.
        key: DOp,
        /// Destination slot.
        dst: u32,
    },
    /// `write(c, k, v) → c'`.
    Write {
        /// Collection operand.
        coll: DOp,
        /// Key operand.
        key: DOp,
        /// Value operand.
        val: DOp,
        /// Destination slot (receives the collection handle).
        dst: u32,
    },
    /// `has(c, k)`.
    Has {
        /// Collection operand.
        coll: DOp,
        /// Key operand.
        key: DOp,
        /// Destination slot.
        dst: u32,
    },
    /// Set-flavored insert (element operand).
    InsertSet {
        /// Collection operand.
        coll: DOp,
        /// Element operand.
        elem: DOp,
        /// Destination slot (receives the collection handle).
        dst: u32,
    },
    /// Map-flavored insert (key operand; slot default-initialized from
    /// the statically known value type).
    InsertMap {
        /// Collection operand.
        coll: DOp,
        /// Key operand.
        key: DOp,
        /// Pooled value type used for default initialization.
        val_ty: u32,
        /// Destination slot (receives the collection handle).
        dst: u32,
    },
    /// Sequence-flavored insert (index + value operands).
    InsertSeq {
        /// Collection operand.
        coll: DOp,
        /// Index operand.
        index: DOp,
        /// Value operand.
        val: DOp,
        /// Destination slot (receives the collection handle).
        dst: u32,
    },
    /// `remove(c, k) → c'`.
    Remove {
        /// Collection operand.
        coll: DOp,
        /// Key operand.
        key: DOp,
        /// Destination slot (receives the collection handle).
        dst: u32,
    },
    /// `clear(c) → c'`.
    Clear {
        /// Collection operand.
        coll: DOp,
        /// Destination slot (receives the collection handle).
        dst: u32,
    },
    /// `size(c)`.
    Size {
        /// Collection operand.
        coll: DOp,
        /// Destination slot.
        dst: u32,
    },
    /// `union(dst, src) → dst'`.
    UnionInto {
        /// Destination-collection operand.
        dst_coll: DOp,
        /// Source-collection operand.
        src_coll: DOp,
        /// Pooled element type of the destination (drives key
        /// uncoercion on the generic path).
        elem_ty: u32,
        /// Destination slot (receives the collection handle).
        dst: u32,
    },
    /// Binary arithmetic/logic.
    Bin {
        /// Operator.
        op: BinOp,
        /// Left operand.
        a: DOp,
        /// Right operand.
        b: DOp,
        /// Destination slot.
        dst: u32,
    },
    /// Comparison.
    Cmp {
        /// Operator.
        op: CmpOp,
        /// Left operand.
        a: DOp,
        /// Right operand.
        b: DOp,
        /// Destination slot.
        dst: u32,
    },
    /// Logical negation.
    Not {
        /// Operand.
        a: DOp,
        /// Destination slot.
        dst: u32,
    },
    /// Numeric conversion to a pooled type.
    Cast {
        /// Pooled target type.
        ty: u32,
        /// Operand.
        a: DOp,
        /// Destination slot.
        dst: u32,
    },
    /// Pack operands into a tuple value.
    MkTuple {
        /// Field operands, in order.
        srcs: Box<[DOp]>,
        /// Destination slot.
        dst: u32,
    },
    /// Direct call.
    Call {
        /// Callee.
        callee: FuncId,
        /// Argument operands.
        args: Box<[DOp]>,
        /// Destination slot for the return value, if bound.
        dst: Option<u32>,
    },
    /// Print a record of operands.
    Print {
        /// Printed operands, in order.
        ops: Box<[DOp]>,
    },
    /// `enc(e, v)`.
    Enc {
        /// Enumeration index.
        e: u32,
        /// Key operand.
        v: DOp,
        /// Destination slot.
        dst: u32,
    },
    /// `dec(e, i)`.
    Dec {
        /// Enumeration index.
        e: u32,
        /// Identifier operand.
        v: DOp,
        /// Destination slot.
        dst: u32,
    },
    /// `add(e, v)`.
    EnumAdd {
        /// Enumeration index.
        e: u32,
        /// Key operand.
        v: DOp,
        /// Destination slot.
        dst: u32,
    },
    /// Structured if-else.
    If {
        /// Condition operand.
        cond: DOp,
        /// Decoded region index of the then-block.
        then_r: u32,
        /// Decoded region index of the else-block.
        else_r: u32,
        /// Destination slots for the region's yields.
        dsts: Box<[u32]>,
    },
    /// For-each over a collection.
    ForEach {
        /// Collection operand.
        coll: DOp,
        /// Initial carried values.
        carried: Box<[DOp]>,
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
        /// Lower bound operand.
        lo: DOp,
        /// Upper bound operand.
        hi: DOp,
        /// Initial carried values.
        carried: Box<[DOp]>,
        /// Decoded body region index.
        body: u32,
        /// Destination slots for the final carried values.
        dsts: Box<[u32]>,
    },
    /// Do-while loop.
    DoWhile {
        /// Initial carried values.
        carried: Box<[DOp]>,
        /// Decoded body region index.
        body: u32,
        /// Destination slots for the final carried values.
        dsts: Box<[u32]>,
    },
    /// Region terminator carrying results to the parent.
    Yield {
        /// Yielded operands.
        ops: Box<[DOp]>,
    },
    /// [`DInst::Yield`] rewritten at decode time to move its
    /// values straight into the consumer's destination slots — the next
    /// iteration's carried args for a loop body, the branch's dsts for
    /// an if arm — skipping the heap-allocated `Flow::Yield` buffer.
    /// Only built for all-slot yields (no stat bumps to preserve) with
    /// no write-before-read hazard between the copies.
    YieldDirect {
        /// Source slots, copied in order.
        srcs: Box<[u32]>,
        /// Destination slots, `dsts[j] = srcs[j]`.
        dsts: Box<[u32]>,
    },
    /// Function return.
    Ret {
        /// Returned operand, if any.
        op: Option<DOp>,
    },
    /// Region-of-interest marker.
    Roi {
        /// `true` at `roi begin`.
        begin: bool,
    },

    // ── Bulk loop superinstructions ─────────────────────────────────
    //
    // Built by the loop-granular fusion tier (off under
    // [`DecodeOptions::reference`]): a [`DInst::ForEach`] /
    // [`DInst::ForRange`] whose whole body compiled into a [`BulkPlan`]
    // is replaced in place by its bulk twin. The body region's
    // instructions stay in `code` untouched, so code length and
    // trap-site numbering are unchanged, and the interpreter can still
    // run the loop generically: it does so for a loop whose regions
    // would not fit under the depth limit and, under a fuel limit or in
    // a session, a loop whose plan holds a nested loop; any run does so
    // for an iteration the tick countdown cannot cover
    // ([`BulkPlan::worst`]).
    /// [`DInst::ForEach`] with a compiled bulk body plan.
    ForEachBulk {
        /// Collection operand.
        coll: DOp,
        /// Initial carried values.
        carried: Box<[DOp]>,
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
        /// Lower bound operand.
        lo: DOp,
        /// Upper bound operand.
        hi: DOp,
        /// Initial carried values.
        carried: Box<[DOp]>,
        /// Decoded body region index.
        body: u32,
        /// Destination slots for the final carried values.
        dsts: Box<[u32]>,
        /// The compiled body plan.
        plan: Box<BulkPlan>,
    },
}

/// A scalar micro-op over plain slots: a [`BulkOp::Scalar`] plan step,
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

/// A compiled loop body: the component sequence of a `foreach` or
/// `forrange` body, with every operand resolved to a plain frame slot at
/// decode time. Branches and loops nested in the body compile into
/// [`BulkOp::If`] and [`BulkOp::Loop`] components, to any depth.
///
/// The plan holds one component per body instruction, and every
/// [`PlanOp::site`] names the exact code slot the generic loop would
/// trap at.
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

/// A [`BulkPlan`] operation: one unfused [`DInst`] with every operand
/// already a plain frame slot. The interpreter executes each through
/// the same kernel as the instruction it replaces (scalar micro-ops
/// through the one [`UScalar`] step), so a plan op only differs from
/// dispatch in how it sites its traps.
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
    /// nesting path (see [`lower_operand`]).
    Proj {
        /// Slot holding the tuple.
        base: u32,
        /// Field index.
        field: u32,
        /// Destination (scratch) slot.
        dst: u32,
    },
    /// `read(c, k)`; also the lowering of an `Index` step of a nesting
    /// path (see [`lower_operand`]).
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
    /// A nested `foreach`/`forrange`, run to completion in place through
    /// its own plan. The loop header at this op's site supplies the
    /// iterated collection or bounds, the carried operands and the
    /// destinations, and the loop is opened exactly as dispatch opens it.
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
    /// Number of frame slots (one per SSA value).
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
    /// `print`, `roi`, `dowhile`, `clear`, `tuple`, `ret`), `inner-loop`
    /// (a loop nested in the body stayed generic), `path` (a nesting path
    /// with a constant or `end` index step, or one in a yield), `yield-hazard` (a
    /// yield whose in-order copies would overwrite one of their own
    /// sources) or `malformed` (code the verifier rejects). Empty under
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
    };
    // Decode every region (the body transitively reaches them all, but
    // walking the arena keeps region indices identical to the source).
    for r in 0..func.regions.len() {
        d.decode_region(RegionId::from_index(r));
    }
    DFunc {
        name: func.name.clone(),
        frame_size: u32::try_from(func.values.len()).expect("frame fits u32"),
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
        // Reserve the range before decoding: nested regions decode via
        // the arena walk in `decode_function`, not recursively here, so
        // this region's instructions stay contiguous.
        let insts: Vec<DInst> = region
            .insts
            .iter()
            .map(|&i| self.decode_inst(self.func.inst(i)))
            .collect();
        self.code.extend(insts);
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

    fn op(&self, operand: &Operand) -> DOp {
        if operand.path.is_empty() {
            return DOp::Slot(slot(operand.base.index()));
        }
        let path = operand
            .path
            .iter()
            .map(|a| match a {
                Access::Index(s) => DAccess::Index(match s {
                    Scalar::Value(v) => DScalar::Slot(slot(v.index())),
                    Scalar::Const(n) => DScalar::Const(*n),
                    Scalar::End => DScalar::End,
                }),
                Access::Field(n) => DAccess::Field(*n),
            })
            .collect();
        DOp::Path(Box::new(DPath {
            base: slot(operand.base.index()),
            path,
        }))
    }

    fn dst(&self, inst: &Inst) -> u32 {
        slot(inst.results[0].index())
    }

    fn dsts(&self, inst: &Inst) -> Box<[u32]> {
        inst.results.iter().map(|r| slot(r.index())).collect()
    }

    /// Static type of the collection an operand addresses.
    fn target_type(&self, operand: &Operand) -> Type {
        ade_ir::builder::operand_type_in(self.func, operand)
    }

    fn decode_inst(&mut self, inst: &Inst) -> DInst {
        match &inst.kind {
            InstKind::Const(c) => DInst::Const {
                pool: self.pool_const(c),
                dst: self.dst(inst),
            },
            InstKind::New(ty) => DInst::New {
                ty: self.pool_type(ty),
                dst: self.dst(inst),
            },
            InstKind::Read => DInst::Read {
                coll: self.op(&inst.operands[0]),
                key: self.op(&inst.operands[1]),
                dst: self.dst(inst),
            },
            InstKind::Write => DInst::Write {
                coll: self.op(&inst.operands[0]),
                key: self.op(&inst.operands[1]),
                val: self.op(&inst.operands[2]),
                dst: self.dst(inst),
            },
            InstKind::Has => DInst::Has {
                coll: self.op(&inst.operands[0]),
                key: self.op(&inst.operands[1]),
                dst: self.dst(inst),
            },
            InstKind::Insert => {
                let coll = self.op(&inst.operands[0]);
                let dst = self.dst(inst);
                match self.target_type(&inst.operands[0]) {
                    Type::Set { .. } => DInst::InsertSet {
                        coll,
                        elem: self.op(&inst.operands[1]),
                        dst,
                    },
                    Type::Map { val, .. } => DInst::InsertMap {
                        coll,
                        key: self.op(&inst.operands[1]),
                        val_ty: self.pool_type(&val),
                        dst,
                    },
                    Type::Seq(_) => DInst::InsertSeq {
                        coll,
                        index: self.op(&inst.operands[1]),
                        val: self.op(&inst.operands[2]),
                        dst,
                    },
                    other => panic!("insert into {other}"),
                }
            }
            InstKind::Remove => DInst::Remove {
                coll: self.op(&inst.operands[0]),
                key: self.op(&inst.operands[1]),
                dst: self.dst(inst),
            },
            InstKind::Clear => DInst::Clear {
                coll: self.op(&inst.operands[0]),
                dst: self.dst(inst),
            },
            InstKind::Size => DInst::Size {
                coll: self.op(&inst.operands[0]),
                dst: self.dst(inst),
            },
            InstKind::UnionInto => {
                let elem = self
                    .target_type(&inst.operands[0])
                    .key_type()
                    .cloned()
                    .unwrap_or(Type::Idx);
                DInst::UnionInto {
                    dst_coll: self.op(&inst.operands[0]),
                    src_coll: self.op(&inst.operands[1]),
                    elem_ty: self.pool_type(&elem),
                    dst: self.dst(inst),
                }
            }
            InstKind::Bin(op) => DInst::Bin {
                op: *op,
                a: self.op(&inst.operands[0]),
                b: self.op(&inst.operands[1]),
                dst: self.dst(inst),
            },
            InstKind::Cmp(op) => DInst::Cmp {
                op: *op,
                a: self.op(&inst.operands[0]),
                b: self.op(&inst.operands[1]),
                dst: self.dst(inst),
            },
            InstKind::Not => DInst::Not {
                a: self.op(&inst.operands[0]),
                dst: self.dst(inst),
            },
            InstKind::Cast(ty) => DInst::Cast {
                ty: self.pool_type(ty),
                a: self.op(&inst.operands[0]),
                dst: self.dst(inst),
            },
            InstKind::Tuple => DInst::MkTuple {
                srcs: inst.operands.iter().map(|o| self.op(o)).collect(),
                dst: self.dst(inst),
            },
            InstKind::Call(callee) => DInst::Call {
                callee: *callee,
                args: inst.operands.iter().map(|o| self.op(o)).collect(),
                dst: inst.results.first().map(|r| slot(r.index())),
            },
            InstKind::Print => DInst::Print {
                ops: inst.operands.iter().map(|o| self.op(o)).collect(),
            },
            InstKind::Enc(e) => DInst::Enc {
                e: slot(e.index()),
                v: self.op(&inst.operands[0]),
                dst: self.dst(inst),
            },
            InstKind::Dec(e) => DInst::Dec {
                e: slot(e.index()),
                v: self.op(&inst.operands[0]),
                dst: self.dst(inst),
            },
            InstKind::EnumAdd(e) => DInst::EnumAdd {
                e: slot(e.index()),
                v: self.op(&inst.operands[0]),
                dst: self.dst(inst),
            },
            InstKind::If => DInst::If {
                cond: self.op(&inst.operands[0]),
                then_r: slot(inst.regions[0].index()),
                else_r: slot(inst.regions[1].index()),
                dsts: self.dsts(inst),
            },
            InstKind::ForEach => {
                let coll_ty = self.target_type(&inst.operands[0]);
                DInst::ForEach {
                    coll: self.op(&inst.operands[0]),
                    carried: inst.operands[1..].iter().map(|o| self.op(o)).collect(),
                    body: slot(inst.regions[0].index()),
                    binds_value: matches!(coll_ty, Type::Seq(_) | Type::Map { .. }),
                    uncoerce_u64: coll_ty.key_type() == Some(&Type::U64),
                    dsts: self.dsts(inst),
                }
            }
            InstKind::ForRange => DInst::ForRange {
                lo: self.op(&inst.operands[0]),
                hi: self.op(&inst.operands[1]),
                carried: inst.operands[2..].iter().map(|o| self.op(o)).collect(),
                body: slot(inst.regions[0].index()),
                dsts: self.dsts(inst),
            },
            InstKind::DoWhile => DInst::DoWhile {
                carried: inst.operands.iter().map(|o| self.op(o)).collect(),
                body: slot(inst.regions[0].index()),
                dsts: self.dsts(inst),
            },
            InstKind::Yield => DInst::Yield {
                ops: inst.operands.iter().map(|o| self.op(o)).collect(),
            },
            InstKind::Ret => DInst::Ret {
                op: inst.operands.first().map(|o| self.op(o)),
            },
            InstKind::Roi(begin) => DInst::Roi { begin: *begin },
        }
    }
}

/// The frame slot behind a plain-slot operand; `None` for a nesting
/// path, whose resolution bumps per-level read counts: a plan lowers it
/// into ops of its own ([`lower_operand`]), and a yield that holds one
/// keeps the buffered path.
fn sl(op: &DOp) -> Option<u32> {
    match op {
        DOp::Slot(s) => Some(*s),
        DOp::Path(_) => None,
    }
}

/// Rewrites the terminal [`DInst::Yield`] of loop bodies and branch
/// arms into [`DInst::YieldDirect`] targeting the consumer's slots.
/// Runs after loop fusion, so bulk loop bodies are covered for the
/// iterations that run them per instruction.
///
/// Observables are unchanged: the terminator keeps its code slot (same
/// fuel tick, same trap site), slot-only yields bump no statistics
/// and cannot trap, and the copies land exactly where the buffered
/// values would have. Yields with a nesting-path operand (whose
/// resolution bumps read counts) or a write-before-read hazard between
/// the copies keep the buffered path.
fn direct_yields(d: &mut DFunc) {
    let mut plans: Vec<(u32, Box<[u32]>)> = Vec::new();
    for inst in d.code.iter() {
        match inst {
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
        let term = region.end as usize - 1;
        if let Some(srcs) = direct_srcs(&d.code[term], &dsts) {
            d.code[term] = DInst::YieldDirect {
                srcs: srcs.into(),
                dsts,
            };
        }
    }
}

/// The source slots of a region terminator that can be copied straight
/// into the consumer's `dsts`: an all-slot [`DInst::Yield`] of matching
/// length with no write-before-read hazard between the in-order copies.
/// `None` for anything else (path operands bump read counts and must
/// stay per-instruction).
fn direct_srcs(term: &DInst, dsts: &[u32]) -> Option<Vec<u32>> {
    let DInst::Yield { ops } = term else {
        return None;
    };
    if ops.len() != dsts.len() {
        return None;
    }
    let srcs = ops.iter().map(sl).collect::<Option<Vec<u32>>>()?;
    if srcs.iter().enumerate().any(|(j, s)| dsts[..j].contains(s)) {
        return None;
    }
    Some(srcs)
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
    // Path operands lower into ops that write scratch slots past the
    // function's SSA slots. A scratch slot is dead once the component
    // whose operand it holds has run, so each loop allocates its own
    // run starting at the original frame size, nested loops included;
    // the frame grows to the widest run.
    let ssa_slots = d.frame_size;
    let mut frame_size = d.frame_size;
    let mut generic = Vec::new();
    for idx in loops_inner_first(d) {
        let mut scratch = ssa_slots;
        match try_bulk_loop(d, idx, &mut scratch) {
            Ok(bulk) => {
                d.code[idx] = bulk;
                frame_size = frame_size.max(scratch);
            }
            Err(why) => generic.push((slot(idx), why)),
        }
    }
    generic.sort_unstable();
    d.generic_loops = generic.into_boxed_slice();
    d.frame_size = frame_size;
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
            match &d.code[idx] {
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
/// a region the plan language can express. `scratch` is the loop's
/// scratch-slot allocator for lowered paths, seeded at the function's
/// SSA slot count.
fn try_bulk_loop(d: &DFunc, idx: usize, scratch: &mut u32) -> Result<DInst, Reject> {
    Ok(match &d.code[idx] {
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
            let plan = compile_plan(d, region, &region.args[skip..], scratch)?;
            DInst::ForEachBulk {
                coll: coll.clone(),
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
            let plan = compile_plan(d, region, &region.args[1..], scratch)?;
            DInst::ForRangeBulk {
                lo: lo.clone(),
                hi: hi.clone(),
                carried: carried.clone(),
                body: *body,
                dsts: dsts.clone(),
                plan: Box::new(plan),
            }
        }
        other => unreachable!("{other:?} is not a foreach/forrange header"),
    })
}

/// Compiles a loop body region into a [`BulkPlan`]: every component
/// must be expressible as a [`BulkOp`], and the terminator must be a
/// yield of the carried values that [`direct_srcs`] accepts (the same
/// rule [`direct_yields`] applies). Top-level `const` components are
/// hoisted into the prelude.
fn compile_plan(
    d: &DFunc,
    region: &DRegion,
    carried_args: &[u32],
    scratch: &mut u32,
) -> Result<BulkPlan, Reject> {
    let (ops, yield_srcs) = compile_body(d, region, carried_args, scratch)?;
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

/// Compiles a loop body or branch arm: its components plus the source
/// slots of its terminal yield into `dsts`.
fn compile_body(
    d: &DFunc,
    region: &DRegion,
    dsts: &[u32],
    scratch: &mut u32,
) -> Result<(Vec<PlanOp>, Vec<u32>), Reject> {
    let (start, end) = (region.start as usize, region.end as usize);
    if end == start {
        return Err("malformed");
    }
    let term = end - 1;
    let mut ops = Vec::new();
    for idx in start..term {
        compile_inst(d, idx, scratch, &mut ops)?;
    }
    let Some(srcs) = direct_srcs(&d.code[term], dsts) else {
        let path = matches!(
            &d.code[term],
            DInst::Yield { ops } if ops.iter().any(|op| sl(op).is_none())
        );
        return Err(if path { "path" } else { "yield-hazard" });
    };
    Ok((ops, srcs))
}

/// Lowers an operand to a plan slot. A plain slot passes through; a
/// nesting path becomes one op per step, in path order, each writing a
/// fresh scratch slot: a `Field` step a [`BulkOp::Proj`], an `Index`
/// step by a slot a counted [`BulkOp::Read`] of the collection reached
/// so far. The ops share the consuming component's site and run before
/// it in operand order, so they bump the same per-level reads and trap
/// exactly where the unfused instruction's operand resolution would. A
/// constant or `end` index step rejects the loop.
fn lower_operand(
    op: &DOp,
    site: u32,
    scratch: &mut u32,
    out: &mut Vec<PlanOp>,
) -> Result<u32, Reject> {
    let DOp::Path(p) = op else {
        return Ok(op.base_slot());
    };
    let mut cur = p.base;
    for step in p.path.iter() {
        let dst = *scratch;
        *scratch = scratch.checked_add(1).ok_or("path")?;
        let op = match *step {
            DAccess::Field(field) => BulkOp::Proj {
                base: cur,
                field,
                dst,
            },
            DAccess::Index(DScalar::Slot(key)) => BulkOp::Read {
                coll: cur,
                key,
                dst,
            },
            DAccess::Index(DScalar::Const(_) | DScalar::End) => return Err("path"),
        };
        out.push(PlanOp { site, ticks: 0, op });
        cur = dst;
    }
    Ok(cur)
}

/// Appends the plan component of the instruction at `idx`, sited at
/// `idx` so bulk execution traps at exactly the site the unfused loop
/// would, after the ops its path operands lower to (see
/// [`lower_operand`]). A writer's result is its collection operand's
/// base handle, as in dispatch. An observable side channel (print, ROI,
/// calls), an opcode without a plan op, a path step no plan op
/// expresses, or a nested loop that stayed generic rejects the whole
/// loop.
fn compile_inst(
    d: &DFunc,
    idx: usize,
    scratch: &mut u32,
    out: &mut Vec<PlanOp>,
) -> Result<(), Reject> {
    let site = slot(idx);
    let inst = &d.code[idx];
    let mut lower = |op: &DOp| lower_operand(op, site, scratch, out);
    let op = match inst {
        DInst::Const { pool, dst } => BulkOp::Scalar(UScalar::Const {
            pool: *pool,
            dst: *dst,
        }),
        DInst::Bin { op, a, b, dst } => BulkOp::Scalar(UScalar::Bin {
            op: *op,
            a: lower(a)?,
            b: lower(b)?,
            dst: *dst,
        }),
        DInst::Cmp { op, a, b, dst } => BulkOp::Scalar(UScalar::Cmp {
            op: *op,
            a: lower(a)?,
            b: lower(b)?,
            dst: *dst,
        }),
        DInst::Not { a, dst } => BulkOp::Scalar(UScalar::Not {
            a: lower(a)?,
            dst: *dst,
        }),
        DInst::Cast { ty, a, dst } => BulkOp::Cast {
            ty: *ty,
            a: lower(a)?,
            dst: *dst,
        },
        DInst::New { ty, dst } => BulkOp::New { ty: *ty, dst: *dst },
        DInst::Read { coll, key, dst } => BulkOp::Read {
            coll: lower(coll)?,
            key: lower(key)?,
            dst: *dst,
        },
        DInst::Write {
            coll,
            key,
            val,
            dst,
        } => BulkOp::Write {
            coll: lower(coll)?,
            key: lower(key)?,
            val: lower(val)?,
            base: coll.base_slot(),
            dst: *dst,
        },
        DInst::Has { coll, key, dst } => BulkOp::Has {
            coll: lower(coll)?,
            key: lower(key)?,
            dst: *dst,
        },
        DInst::InsertSet { coll, elem, dst } => BulkOp::InsertSet {
            coll: lower(coll)?,
            elem: lower(elem)?,
            base: coll.base_slot(),
            dst: *dst,
        },
        DInst::InsertMap {
            coll,
            key,
            val_ty,
            dst,
        } => BulkOp::InsertMap {
            coll: lower(coll)?,
            key: lower(key)?,
            val_ty: *val_ty,
            base: coll.base_slot(),
            dst: *dst,
        },
        DInst::InsertSeq {
            coll,
            index,
            val,
            dst,
        } => BulkOp::InsertSeq {
            coll: lower(coll)?,
            index: lower(index)?,
            val: lower(val)?,
            base: coll.base_slot(),
            dst: *dst,
        },
        DInst::Remove { coll, key, dst } => BulkOp::Remove {
            coll: lower(coll)?,
            key: lower(key)?,
            base: coll.base_slot(),
            dst: *dst,
        },
        DInst::Size { coll, dst } => BulkOp::Size {
            coll: lower(coll)?,
            dst: *dst,
        },
        DInst::UnionInto {
            dst_coll,
            src_coll,
            elem_ty,
            dst,
        } => BulkOp::Union {
            coll: lower(dst_coll)?,
            src: lower(src_coll)?,
            elem_ty: *elem_ty,
            base: dst_coll.base_slot(),
            dst: *dst,
        },
        DInst::Enc { e, v, dst } => BulkOp::Enc {
            e: *e,
            v: lower(v)?,
            dst: *dst,
        },
        DInst::Dec { e, v, dst } => BulkOp::Dec {
            e: *e,
            v: lower(v)?,
            dst: *dst,
        },
        DInst::EnumAdd { e, v, dst } => BulkOp::EnumAdd {
            e: *e,
            v: lower(v)?,
            dst: *dst,
        },
        DInst::If {
            cond,
            then_r,
            else_r,
            dsts,
        } => {
            let cond = lower(cond)?;
            let mut arm = |r: u32| {
                let region = &d.regions[r as usize];
                let (mut ops, srcs) = compile_body(d, region, dsts, scratch)?;
                let tail = assign_ticks(&mut ops, region);
                Ok::<_, Reject>((ops, srcs, tail))
            };
            let (then_ops, then_srcs, then_tail) = arm(*then_r)?;
            let (else_ops, else_srcs, else_tail) = arm(*else_r)?;
            BulkOp::If {
                cond,
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
        DInst::Clear { .. } => return Err("clear"),
        DInst::MkTuple { .. } => return Err("tuple"),
        DInst::Ret { .. } => return Err("ret"),
        // A yield before the region's end: verified code has none (and
        // direct yields do not exist yet).
        _ => return Err("malformed"),
    };
    out.push(PlanOp { site, ticks: 0, op });
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
        assert!(f.code.iter().any(|i| matches!(i, DInst::InsertSet { .. })));
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
        let DInst::InsertSeq { dst: g2, .. } = f.code[region.start as usize + 1] else {
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
    fn constant_end_and_yielded_paths_keep_loops_generic() {
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
        let d = DecodedModule::decode_with(&m, &DecodeOptions::default());
        let f = &d.funcs[0];
        let reasons: Vec<&str> = f.generic_loops.iter().map(|&(_, why)| why).collect();
        assert_eq!(reasons, ["path", "path", "path"]);
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
