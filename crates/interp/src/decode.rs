//! Pre-decoded instruction stream.
//!
//! Decoding flattens each [`Function`] once per run into a dense
//! [`DInst`] stream, one slot per source instruction:
//!
//! - every opcode that is not control flow or a side channel decodes to
//!   the [`BulkOp`] a loop plan runs ([`DInst::Op`]), so dispatch and
//!   loop plans execute one operation set through one executor,
//! - every operand is a frame [`Slot`] typed by its verified static
//!   type: a register kind lives as raw bits in the activation's `u64`
//!   register file, `str` and tuples as [`Value`]s in its side file
//!   ([`Kind`]), so scalar ops specialise to their operands' kind at
//!   decode ([`UScalar`]) and moves are plain copies,
//! - a nesting path (`%g[%u]`, `%t.1`) is lowered once, in operand
//!   order, into steps that run in the instruction's own slot before it
//!   and leave the addressed value in a scratch slot past the SSA frame
//!   ([`DInst::Lowered`]),
//! - constants are pooled once per distinct value, as register bits or
//!   prebuilt strings (executing a string const bumps an `Arc` instead
//!   of reallocating), and each literal collection's elements as one
//!   prebuilt table of register bits or strings,
//! - region targets become contiguous index ranges into the decoded
//!   stream,
//! - every `yield` becomes the copies of its values into the slots its
//!   consumer reads them from ([`DInst::Yield`]),
//! - `foreach` and `forrange` decode to one [`LoopHeader`]: what the
//!   loop iterates, its carried slots, body and destinations, and how
//!   many body arguments an iteration binds, read off the IR's
//!   [`ade_ir::typing::CarryLayout`]. A header is generic
//!   ([`DInst::Loop`]) until loop fusion compiles its body and attaches
//!   the [`BulkPlan`] ([`DInst::LoopBulk`]),
//! - statically derivable facts (insert flavor, bound arguments) are
//!   computed once here instead of per execution.
//!
//! Decoding is purely structural: it must not change program behavior,
//! instrumentation counts, or fuel accounting. It first runs
//! [`ade_ir::verify::verify_module`], in every build: the slot kinds it
//! reads off the static types are only sound on verified IR.

use std::collections::HashMap;

use ade_ir::typing::carry_layout;
use ade_ir::{
    Access, BinOp, CmpOp, ConstVal, FuncId, Function, Inst, InstKind, LiteralData, Module, Operand,
    RegionId, Scalar, Type, ValueId,
};

use crate::value::{Kind, Value};
use crate::ExecError;

/// A frame slot: an index into the per-call frame and the slot's
/// [`Kind`]. SSA value ids are already dense, so an SSA value's slot
/// index is its id, and the scratch slots of lowered nesting paths and
/// saved yield sources follow them. A register kind's slot indexes the activation's `u64`
/// register file, a [`Kind::Boxed`] slot its side file of [`Value`]s.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Slot {
    index: u32,
    kind: Kind,
}

impl Slot {
    /// The slot at `index` holding values of `kind`.
    pub fn new(index: usize, kind: Kind) -> Slot {
        let index = u32::try_from(index).expect("frame slot fits u32");
        Slot { index, kind }
    }

    /// The slot's index in its file.
    #[inline]
    pub fn index(self) -> usize {
        self.index as usize
    }

    /// What the slot holds.
    #[inline]
    pub fn kind(self) -> Kind {
        self.kind
    }

    /// Whether the slot is in the side file.
    #[inline]
    pub fn is_boxed(self) -> bool {
        self.kind == Kind::Boxed
    }
}

/// A decoded instruction over frame [`Slot`]s.
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
        args: Box<[Slot]>,
        /// Destination slot for the return value, if bound.
        dst: Option<Slot>,
    },
    /// Print a record of slots.
    Print {
        /// Printed slots, in order.
        srcs: Box<[Slot]>,
    },
    /// Structured if-else.
    If {
        /// Condition slot.
        cond: Slot,
        /// Decoded region index of the then-block.
        then_r: u32,
        /// Decoded region index of the else-block.
        else_r: u32,
    },
    /// A `foreach` or `forrange` whose iterations run generically.
    Loop(LoopHeader),
    /// Do-while loop.
    DoWhile {
        /// Initial carried value slots.
        carried: Box<[Slot]>,
        /// Decoded body region index.
        body: u32,
        /// Destination slots for the final carried values.
        dsts: Box<[Slot]>,
    },
    /// Region terminator: the copies of its values into an `if`'s
    /// results, or into a loop body's carried arguments.
    Yield {
        /// A `dowhile` body's condition, read before the moves run (they
        /// may overwrite it); the body runs again while it holds.
        cond: Option<Slot>,
        /// The copies, past the condition.
        moves: Moves,
    },
    /// Function return.
    Ret {
        /// Returned slot, if any.
        src: Option<Slot>,
    },
    /// Region-of-interest marker.
    Roi {
        /// `true` at `roi begin`.
        begin: bool,
    },

    /// A [`DInst::Loop`] whose whole body loop fusion (off under
    /// [`DecodeOptions::reference`]) compiled into a [`BulkPlan`]: the
    /// same header with the plan attached. The body region's instructions
    /// stay in `code` untouched, so code length and trap-site numbering
    /// are unchanged, and the interpreter can still run the loop
    /// generically: it does so for a loop whose regions would not fit
    /// under the depth limit and, under a fuel limit or in a session, a
    /// loop whose plan holds a nested loop; any run does so for an
    /// iteration the tick countdown cannot cover ([`BulkPlan::worst`]).
    LoopBulk(LoopHeader, Box<BulkPlan>),
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

    /// The `foreach`/`forrange` header of this slot, past its path steps,
    /// and its plan if loop fusion attached one.
    pub fn as_loop(&self) -> Option<(&LoopHeader, Option<&BulkPlan>)> {
        match self.own() {
            DInst::Loop(head) => Some((head, None)),
            DInst::LoopBulk(head, plan) => Some((head, Some(plan))),
            _ => None,
        }
    }
}

/// A `foreach` or `forrange` header, generic ([`DInst::Loop`]) or with a
/// plan ([`DInst::LoopBulk`]). Each iteration binds the body's first
/// `bound` arguments and carries the rest, as the IR's
/// [`ade_ir::typing::CarryLayout`] lays them out.
#[derive(Clone, Debug)]
pub struct LoopHeader {
    /// What the loop iterates.
    pub over: LoopOver,
    /// Initial carried value slots.
    pub carried: Box<[Slot]>,
    /// Decoded body region index.
    pub body: u32,
    /// The leading body arguments an iteration binds: a `foreach`'s
    /// element, or key and value; a `forrange`'s index.
    pub bound: u32,
    /// Destination slots for the final carried values.
    pub dsts: Box<[Slot]>,
}

impl LoopHeader {
    /// The body's argument slots in `func`: the bound ones, then the
    /// carried ones.
    pub fn args<'f>(&self, func: &'f DFunc) -> &'f [Slot] {
        &func.regions[self.body as usize].args
    }

    /// The body's carried argument slots in `func`.
    pub fn carried_args<'f>(&self, func: &'f DFunc) -> &'f [Slot] {
        &self.args(func)[self.bound as usize..]
    }
}

/// What a [`LoopHeader`] iterates.
#[derive(Clone, Copy, Debug)]
pub enum LoopOver {
    /// A `foreach`'s collection slot.
    Coll(Slot),
    /// A `forrange`'s `[lo, hi)` bound slots.
    Range {
        /// Lower bound slot.
        lo: Slot,
        /// Upper bound slot.
        hi: Slot,
    },
}

/// A scalar op over register slots, specialised at decode by its
/// operands' static kind, which picks the variant, and its operator: a
/// [`BulkOp::Scalar`] step, which the executor runs under one match.
/// Nothing here matches a runtime tag.
///
/// `u64`, `idx` and `bool` compute unsigned (the `and`, `or` and `xor`
/// of `bool` are the bitwise ones on 0 and 1), `i64` signed and `f64`
/// in IEEE arithmetic.
#[derive(Clone, Copy, Debug)]
pub enum UScalar {
    /// Copy a pooled constant into `dst`: register bits from
    /// [`DFunc::consts`], or for a boxed `dst` a string from
    /// [`DFunc::strs`].
    Const {
        /// Index into the pool of `dst`'s file.
        pool: u32,
        /// Destination slot.
        dst: Slot,
    },
    /// Wrapping integer or `bool` arithmetic whose bits do not depend
    /// on sign: every operator on `u64`, `idx` and `bool`, and `add`,
    /// `sub`, `mul`, `and`, `or`, `xor` and `shl` on `i64`.
    Bin {
        /// Operator.
        op: BinOp,
        /// Left operand slot.
        a: Slot,
        /// Right operand slot.
        b: Slot,
        /// Destination slot.
        dst: Slot,
    },
    /// Signed `div`, `rem`, `min`, `max` and `shr` on `i64`.
    BinI {
        /// Operator.
        op: BinOp,
        /// Left operand slot.
        a: Slot,
        /// Right operand slot.
        b: Slot,
        /// Destination slot.
        dst: Slot,
    },
    /// IEEE arithmetic on `f64`.
    BinF {
        /// Operator.
        op: BinOp,
        /// Left operand slot.
        a: Slot,
        /// Right operand slot.
        b: Slot,
        /// Destination slot.
        dst: Slot,
    },
    /// A comparison, written to a `bool` register as 0 or 1.
    Cmp {
        /// The specialised comparison.
        test: Test,
        /// Destination slot.
        dst: Slot,
    },
    /// Logical negation of a `bool` register.
    Not {
        /// Operand slot.
        a: Slot,
        /// Destination slot.
        dst: Slot,
    },
    /// Numeric conversion from `a`'s kind to `dst`'s: the bits stay
    /// between integer kinds and `bool`; `f64` to an integer kind is
    /// Rust's saturating `as u64`.
    Cast {
        /// Operand slot.
        a: Slot,
        /// Destination slot.
        dst: Slot,
    },
}

/// A comparison specialised at decode by operator and operand kind, or a
/// `bool` register's truth: what a [`UScalar::Cmp`] writes and what a
/// plan's [`BulkOp::If`] branches on. Operands are indices into the
/// register file, or into the side file for [`Test::Boxed`]. `gt` and
/// `ge` swap their operands into `lt` and `le`. `f64` orders by
/// `total_cmp`, so its `eq` is bit-pattern equality; collection handles
/// order unsigned, `str` and tuple slots by [`Value`]'s order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Test {
    /// A `bool` register is true.
    Bool(u32),
    /// Equal register bits, of any register kind.
    Eq(u32, u32),
    /// Different register bits, of any register kind.
    Ne(u32, u32),
    /// Unsigned `<`: `u64`, `idx`, `bool` and collection handles.
    LtU(u32, u32),
    /// Unsigned `<=`.
    LeU(u32, u32),
    /// Signed `<` on `i64`.
    LtI(u32, u32),
    /// Signed `<=` on `i64`.
    LeI(u32, u32),
    /// `<` on `f64` by `total_cmp`.
    LtF(u32, u32),
    /// `<=` on `f64` by `total_cmp`.
    LeF(u32, u32),
    /// Two `str` or tuple slots, by [`Value`]'s order.
    Boxed {
        /// Left operand's side-file index.
        a: u32,
        /// Right operand's side-file index.
        b: u32,
        /// Whether the comparison holds when `a` is less than, equal
        /// to and greater than `b`.
        holds: [bool; 3],
    },
}

impl Test {
    /// `op` on slots `a` and `b` of one kind.
    fn compare(op: CmpOp, a: Slot, b: Slot) -> Test {
        let (x, y) = (a.index, b.index);
        if a.is_boxed() {
            use CmpOp::*;
            let holds = [
                matches!(op, Ne | Lt | Le),
                matches!(op, Eq | Le | Ge),
                matches!(op, Ne | Gt | Ge),
            ];
            return Test::Boxed { a: x, b: y, holds };
        }
        type Order = fn(u32, u32) -> Test;
        let (lt, le): (Order, Order) = match a.kind() {
            Kind::I64 => (Test::LtI, Test::LeI),
            Kind::F64 => (Test::LtF, Test::LeF),
            _ => (Test::LtU, Test::LeU),
        };
        match op {
            CmpOp::Eq => Test::Eq(x, y),
            CmpOp::Ne => Test::Ne(x, y),
            CmpOp::Lt => lt(x, y),
            CmpOp::Le => le(x, y),
            CmpOp::Gt => lt(y, x),
            CmpOp::Ge => le(y, x),
        }
    }
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
    /// Every `const` component of the body, `if` arms included, hoisted
    /// out of it (a nested loop's stay in its own plan). SSA
    /// single-assignment plus dominance make the hoist sound: the slot
    /// has exactly one writer, every read follows it in program order,
    /// and the written value does not depend on the iteration or on
    /// the arm taken.
    pub prelude: Box<[PlanOp]>,
    /// The per-iteration component sequence, in original order (hoisted
    /// consts and compares fused into a branch excluded).
    pub ops: Box<[PlanOp]>,
    /// The body's terminal yield into the carried argument slots, run
    /// after each iteration: the [`DInst::Yield`]'s own moves.
    pub yields: Moves,
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
    /// those since the previous op's (hoisted `const`s, a compare fused
    /// into a branch), or `0` for an op sharing the previous op's slot
    /// (a projection's consumer).
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
    /// A `const`, arithmetic, comparison, negation or cast step.
    Scalar(UScalar),
    /// Project one tuple field: the lowering of a `Field` step of a
    /// nesting path (see [`DInst::Lowered`]).
    Proj {
        /// Slot holding the tuple.
        base: Slot,
        /// Field index.
        field: u32,
        /// Destination (scratch) slot.
        dst: Slot,
    },
    /// `read(c, k)`; also the lowering of an `Index` step of a nesting
    /// path (see [`DInst::Lowered`]).
    Read {
        /// Collection slot.
        coll: Slot,
        /// Key slot.
        key: Slot,
        /// Destination slot.
        dst: Slot,
    },
    /// `write(c, k, v) → c'`.
    Write {
        /// Collection slot.
        coll: Slot,
        /// Key slot.
        key: Slot,
        /// Value slot.
        val: Slot,
        /// Base slot of the collection operand (see [`BulkOp::InsertSet`]).
        base: Slot,
        /// Destination slot (receives the base collection's handle).
        dst: Slot,
    },
    /// `has(c, k)`.
    Has {
        /// Collection slot.
        coll: Slot,
        /// Key slot.
        key: Slot,
        /// Destination slot.
        dst: Slot,
    },
    /// Set-flavored insert.
    InsertSet {
        /// Collection slot.
        coll: Slot,
        /// Element slot.
        elem: Slot,
        /// Base slot of the collection operand: `coll` itself, or the
        /// outermost collection when `coll` holds a nested collection a
        /// lowered path reached. Its handle is the writer's result, as in
        /// dispatch.
        base: Slot,
        /// Destination slot (receives the base collection's handle).
        dst: Slot,
    },
    /// Map-flavored insert.
    InsertMap {
        /// Collection slot.
        coll: Slot,
        /// Key slot.
        key: Slot,
        /// Pooled value type used for default initialization.
        val_ty: u32,
        /// Base slot of the collection operand (see [`BulkOp::InsertSet`]).
        base: Slot,
        /// Destination slot (receives the base collection's handle).
        dst: Slot,
    },
    /// Sequence-flavored insert.
    InsertSeq {
        /// Collection slot.
        coll: Slot,
        /// Index slot.
        index: Slot,
        /// Value slot.
        val: Slot,
        /// Base slot of the collection operand (see [`BulkOp::InsertSet`]).
        base: Slot,
        /// Destination slot (receives the base collection's handle).
        dst: Slot,
    },
    /// `remove(c, k) → c'`.
    Remove {
        /// Collection slot.
        coll: Slot,
        /// Key slot.
        key: Slot,
        /// Base slot of the collection operand (see [`BulkOp::InsertSet`]).
        base: Slot,
        /// Destination slot (receives the base collection's handle).
        dst: Slot,
    },
    /// `size(c)`.
    Size {
        /// Collection slot.
        coll: Slot,
        /// Destination slot.
        dst: Slot,
    },
    /// The length of a collection, with no `Size` count: the key an
    /// `end` step of a nesting path reads at.
    Len {
        /// Collection slot.
        coll: Slot,
        /// Destination (scratch) slot.
        dst: Slot,
    },
    /// `clear(c) → c'`.
    Clear {
        /// Collection slot.
        coll: Slot,
        /// Base slot of the collection operand (see [`BulkOp::InsertSet`]).
        base: Slot,
        /// Destination slot (receives the base collection's handle).
        dst: Slot,
    },
    /// `union(dst, src) → dst'`.
    Union {
        /// Destination-collection slot.
        coll: Slot,
        /// Source-collection slot.
        src: Slot,
        /// Base slot of the destination operand (see [`BulkOp::InsertSet`]).
        base: Slot,
        /// Destination slot (receives the base collection's handle).
        dst: Slot,
    },
    /// `enc(e, v)`.
    Enc {
        /// Enumeration index.
        e: u32,
        /// Key slot.
        v: Slot,
        /// Destination slot.
        dst: Slot,
    },
    /// `dec(e, i)`.
    Dec {
        /// Enumeration index.
        e: u32,
        /// Identifier slot.
        v: Slot,
        /// Destination slot.
        dst: Slot,
    },
    /// `add(e, v)`.
    EnumAdd {
        /// Enumeration index.
        e: u32,
        /// Key slot.
        v: Slot,
        /// Destination slot.
        dst: Slot,
    },
    /// Materialize a literal collection: allocate a sequence of a pooled
    /// type and append a pooled table's elements, each first added to
    /// enumeration `e` when set — one tick for the whole table, with the
    /// counts and capacity growth of one end `insert` (and `add`) per
    /// element.
    Literal {
        /// Index into [`DFunc::types`] of the sequence type.
        ty: u32,
        /// Index into [`DFunc::literals`].
        elems: u32,
        /// Enumeration the elements are added to, if any.
        e: Option<u32>,
        /// Destination slot.
        dst: Slot,
    },
    /// Allocate a collection (or default scalar/tuple) of a pooled type.
    New {
        /// Index into [`DFunc::types`].
        ty: u32,
        /// Destination slot.
        dst: Slot,
    },
    /// Pack slots into a tuple value.
    Tuple {
        /// Field slots, in order.
        srcs: Box<[Slot]>,
        /// Destination slot.
        dst: Slot,
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
    /// branches and loops included. A condition that a compare of the
    /// same region computes and nothing else reads is that compare's
    /// [`Test`] (compare-and-branch): the compare's op is gone, and its
    /// slot's tick goes to the op after it.
    If {
        /// What the branch tests.
        test: Test,
        /// Then-arm components.
        then_ops: Box<[PlanOp]>,
        /// Else-arm components.
        else_ops: Box<[PlanOp]>,
        /// The then- and the else-arm's yield into the branch's
        /// destinations, and its slots after its last op, terminator
        /// included (boxed: every plan op is as wide as this one).
        ends: Box<[(Moves, u32); 2]>,
    },
}

/// A yield's slot copies, run in order and split by file with the
/// self-copies dropped: most yields are a short run of `u64` moves.
/// Files do not alias, so splitting keeps each copy's order where it
/// matters. No copy overwrites a later copy's source: decode saves such
/// a source to a scratch slot first.
#[derive(Clone, Debug, Default)]
pub struct Moves {
    /// `(src, dst)` register indices.
    pub regs: Box<[(u32, u32)]>,
    /// `(src, dst)` side-file indices.
    pub side: Box<[(u32, u32)]>,
}

impl Moves {
    fn new(copies: &[(Slot, Slot)]) -> Moves {
        let file = |boxed: bool| {
            copies
                .iter()
                .filter(|(s, t)| s != t && t.is_boxed() == boxed)
                .map(|(s, t)| (s.index, t.index))
                .collect()
        };
        Moves {
            regs: file(false),
            side: file(true),
        }
    }
}

/// A decoded region: argument slots plus a contiguous range of the
/// owning function's instruction stream.
#[derive(Clone, Debug)]
pub struct DRegion {
    /// Frame slots of the region arguments.
    pub args: Box<[Slot]>,
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
    /// per lowered path step ([`DInst::Lowered`]) or saved yield source
    /// ([`Moves`]). An activation's register file has this many entries.
    pub frame_size: u32,
    /// Entries of an activation's side file: `frame_size` when any slot
    /// is [`Kind::Boxed`], else none.
    pub side_size: u32,
    /// Frame slots of the parameters, in order.
    pub params: Box<[Slot]>,
    /// Decoded index of the body region.
    pub body: u32,
    /// Regions, indexed identically to the source function's arena.
    pub regions: Box<[DRegion]>,
    /// The flat instruction stream (regions occupy disjoint ranges).
    pub code: Box<[DInst]>,
    /// Register bits of the pooled scalar constants, one entry per
    /// distinct constant.
    pub consts: Box<[u64]>,
    /// The pooled string constants, one entry per distinct string.
    pub strs: Box<[Value]>,
    /// Prebuilt element tables of the function's literal collections.
    pub literals: Box<[Table]>,
    /// Pooled static types (allocation and map-insert defaults).
    pub types: Box<[Type]>,
    /// Every `foreach`/`forrange` header loop fusion left generic, with
    /// the stable reason its body did not compile to a [`BulkPlan`]
    /// (sorted by header slot): the opcode that rejected it (`call`,
    /// `print`, `roi`, `dowhile`, `ret`) or `inner-loop` (a loop nested
    /// in the body stayed generic). Empty under
    /// [`DecodeOptions::reference`], which tries no loop.
    pub generic_loops: Box<[(u32, &'static str)]>,
}

/// The elements of a literal collection, as its slots would hold them.
#[derive(Clone, Debug, PartialEq)]
pub enum Table {
    /// `u64` elements as register bits.
    Bits(Box<[u64]>),
    /// String elements.
    Boxed(Box<[Value]>),
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
    /// The key kind of each enumeration class the source module
    /// declares (the interpreter allocates one runtime `Enum` pair per
    /// class, storing keys as collections of that kind do).
    pub enum_keys: Box<[Kind]>,
}

/// Options for [`DecodedModule::decode_with`].
#[derive(Clone, Copy, Debug, Default)]
pub struct DecodeOptions {
    /// Decode the reference stream: no loop plans ([`DInst::LoopBulk`]).
    /// The default (`false`) builds them; they are observationally
    /// inert, so the reference interpreter is the differential oracle
    /// for them.
    pub reference: bool,
}

impl DecodedModule {
    /// Decodes every function of `module`; the default [`DecodeOptions`]
    /// build loop plans.
    ///
    /// This first runs the IR verifier, in every build: the decoded
    /// stream bakes in static facts (insert flavors, binding shapes)
    /// that are only sound on well-formed, linear IR, and execution
    /// trusts every operand's verified type instead of checking it, so
    /// decoding must never outrun verification.
    ///
    /// # Panics
    ///
    /// Panics if the module fails verification.
    pub fn decode_with(module: &Module, options: &DecodeOptions) -> Self {
        if let Err(e) = ade_ir::verify::verify_module(module) {
            panic!("refusing to decode an unverifiable module: {e}");
        }
        let funcs = module
            .funcs
            .iter()
            .map(|f| {
                let mut d = decode_function(f);
                if !options.reference {
                    loop_fuse_function(&mut d, f);
                }
                d
            })
            .collect();
        DecodedModule {
            funcs,
            enum_keys: module.enums.iter().map(|e| Kind::of(&e.key_ty)).collect(),
        }
    }

    /// The decoded function behind an id.
    #[inline]
    pub fn func(&self, f: FuncId) -> &DFunc {
        &self.funcs[f.index()]
    }

    /// The function a run starts at: the one named `name`, which must
    /// take no parameters, since a run passes none.
    ///
    /// # Errors
    ///
    /// [`ExecError::NoEntry`] when no parameterless function has that
    /// name.
    pub fn entry(&self, name: &str) -> Result<FuncId, ExecError> {
        self.funcs
            .iter()
            .position(|f| f.name == name && f.params.is_empty())
            .map(FuncId::from_index)
            .ok_or_else(|| ExecError::NoEntry {
                entry: name.to_string(),
            })
    }
}

struct FuncDecoder<'f> {
    func: &'f Function,
    code: Vec<DInst>,
    regions: Vec<DRegion>,
    consts: Vec<u64>,
    strs: Vec<Value>,
    /// Each pooled constant's index in `consts` or `strs`.
    const_index: HashMap<ConstVal, u32>,
    literals: Vec<Table>,
    types: Vec<Type>,
    /// Frame slots so far: the SSA slots, then the scratch slots.
    frame_size: u32,
    /// Whether any slot so far is [`Kind::Boxed`].
    boxed: bool,
    /// The code slot of the instruction being decoded.
    site: u32,
    /// The path steps its operands lowered to so far.
    steps: Vec<PlanOp>,
    /// Where each region's closing `yield` lands, by region index, until
    /// the yield is decoded.
    targets: Vec<YieldTarget>,
    /// The region being decoded.
    region: usize,
}

/// The consumer of a region's closing `yield`.
#[derive(Clone, Debug, Default)]
struct YieldTarget {
    /// Whether the yield leads with a `dowhile` condition.
    cond: bool,
    /// The slots its values (past the condition) land in: an `if`'s
    /// results, or the body's carried arguments for a loop. None for
    /// the function body and orphan regions.
    dsts: Box<[Slot]>,
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
        strs: Vec::new(),
        const_index: HashMap::new(),
        literals: Vec::new(),
        types: Vec::new(),
        frame_size: u32::try_from(func.values.len()).expect("frame fits u32"),
        boxed: func.values.iter().any(|v| Kind::of(&v.ty) == Kind::Boxed),
        site: 0,
        steps: Vec::new(),
        targets: Vec::new(),
        region: 0,
    };
    d.targets = d.yield_targets();
    // Decode every region (the body transitively reaches them all, but
    // walking the arena keeps region indices identical to the source).
    for r in 0..func.regions.len() {
        d.decode_region(RegionId::from_index(r));
    }
    DFunc {
        name: func.name.clone(),
        frame_size: d.frame_size,
        side_size: if d.boxed { d.frame_size } else { 0 },
        params: func.params.iter().map(|&p| d.value_slot(p)).collect(),
        body: u32::try_from(func.body.index()).expect("region fits u32"),
        regions: d.regions.into_boxed_slice(),
        code: d.code.into_boxed_slice(),
        consts: d.consts.into_boxed_slice(),
        strs: d.strs.into_boxed_slice(),
        literals: d.literals.into_boxed_slice(),
        types: d.types.into_boxed_slice(),
        generic_loops: Box::new([]),
    }
}

fn slot(index: usize) -> u32 {
    u32::try_from(index).expect("code slot fits u32")
}

impl<'f> FuncDecoder<'f> {
    /// Where the closing `yield` of every region reached from the body
    /// lands: an `if`'s results, or a loop body's carried arguments,
    /// which are its last arguments, one per loop result.
    fn yield_targets(&self) -> Vec<YieldTarget> {
        let func = self.func;
        let mut targets = vec![YieldTarget::default(); func.regions.len()];
        let mut regions = vec![func.body];
        while let Some(r) = regions.pop() {
            for inst in func.region(r).insts.iter().map(|&i| func.inst(i)) {
                for &sub in &inst.regions {
                    let args = &func.region(sub).args;
                    let dsts = match inst.kind {
                        InstKind::If => &inst.results[..],
                        _ => &args[args.len() - inst.results.len()..],
                    };
                    targets[sub.index()] = YieldTarget {
                        cond: inst.kind == InstKind::DoWhile,
                        dsts: dsts.iter().map(|&v| self.value_slot(v)).collect(),
                    };
                    regions.push(sub);
                }
            }
        }
        targets
    }

    fn decode_region(&mut self, r: RegionId) {
        let region = self.func.region(r);
        self.region = r.index();
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
            args: region.args.iter().map(|&a| self.value_slot(a)).collect(),
            start,
            end,
        };
    }

    /// The slot of SSA value `v`, of its static type's kind.
    fn value_slot(&self, v: ValueId) -> Slot {
        Slot::new(v.index(), Kind::of(self.func.value_ty(v)))
    }

    /// The pool index of constant `c`, shared by every equal constant of
    /// the function (floats compare by bit pattern): in `strs` for a
    /// string, else in `consts`.
    fn pool_const(&mut self, c: &ConstVal) -> u32 {
        if let Some(&i) = self.const_index.get(c) {
            return i;
        }
        let i = match c {
            ConstVal::Str(s) => {
                self.strs.push(Value::Str(s.as_str().into()));
                self.strs.len() - 1
            }
            ConstVal::Bool(b) => self.pool_bits(u64::from(*b)),
            ConstVal::U64(n) => self.pool_bits(*n),
            ConstVal::I64(n) => self.pool_bits(*n as u64),
            ConstVal::F64(n) => self.pool_bits(n.to_bits()),
        };
        let i = slot(i);
        self.const_index.insert(c.clone(), i);
        i
    }

    fn pool_bits(&mut self, bits: u64) -> usize {
        self.consts.push(bits);
        self.consts.len() - 1
    }

    fn pool_literal(&mut self, elems: &LiteralData) -> u32 {
        let table = match elems {
            LiteralData::U64(v) => Table::Bits(v.iter().copied().collect()),
            LiteralData::Str(v) => {
                Table::Boxed(v.iter().map(|s| Value::Str(s.as_str().into())).collect())
            }
        };
        self.literals.push(table);
        slot(self.literals.len() - 1)
    }

    fn pool_type(&mut self, ty: &Type) -> u32 {
        if let Some(i) = self.types.iter().position(|t| t == ty) {
            return slot(i);
        }
        self.types.push(ty.clone());
        slot(self.types.len() - 1)
    }

    /// A fresh scratch slot of `kind` past the frame so far.
    fn scratch(&mut self, kind: Kind) -> Slot {
        let s = Slot::new(self.frame_size as usize, kind);
        self.frame_size = self.frame_size.checked_add(1).expect("frame fits u32");
        self.boxed |= kind == Kind::Boxed;
        s
    }

    /// Appends a path step of the current instruction, writing a fresh
    /// scratch slot of static type `ty`, and returns that slot.
    fn step(&mut self, ty: &Type, op: impl FnOnce(Slot) -> BulkOp) -> Slot {
        let dst = self.scratch(Kind::of(ty));
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
    fn op(&mut self, operand: &Operand) -> Slot {
        let func: &'f Function = self.func;
        let mut cur = self.value_slot(operand.base);
        let mut ty = func.value_ty(operand.base);
        for step in &operand.path {
            let base = cur;
            (cur, ty) = match (*step, ty) {
                (Access::Field(field), Type::Tuple(elems)) => {
                    let field_ty = &elems[field as usize];
                    let dst = self.step(field_ty, |dst| BulkOp::Proj { base, field, dst });
                    (dst, field_ty)
                }
                (Access::Index(index), Type::Seq(val) | Type::Map { val, .. }) => {
                    let key = match index {
                        Scalar::Value(v) => self.value_slot(v),
                        Scalar::Const(n) => {
                            let pool = self.pool_const(&ConstVal::U64(n));
                            self.step(&Type::U64, |dst| {
                                BulkOp::Scalar(UScalar::Const { pool, dst })
                            })
                        }
                        Scalar::End => self.step(&Type::U64, |dst| BulkOp::Len { coll: base, dst }),
                    };
                    let dst = self.step(val, |dst| BulkOp::Read {
                        coll: base,
                        key,
                        dst,
                    });
                    (dst, &**val)
                }
                (step, ty) => unreachable!("{step:?} on {ty}: the verifier checks every path"),
            };
        }
        cur
    }

    fn ops(&mut self, operands: &[Operand]) -> Box<[Slot]> {
        operands.iter().map(|o| self.op(o)).collect()
    }

    fn dsts(&self, inst: &Inst) -> Box<[Slot]> {
        inst.results.iter().map(|&r| self.value_slot(r)).collect()
    }

    /// The copies of a yield's `srcs` into `dsts`, in order. A source
    /// that an earlier copy overwrites (carried values permuted) is saved
    /// to a fresh scratch slot before any copy, and copied from there.
    fn moves(&mut self, srcs: &[Slot], dsts: &[Slot]) -> Moves {
        let mut copies = Vec::new();
        let mut saved = Vec::new();
        for (j, (&s, &t)) in srcs.iter().zip(dsts).enumerate() {
            let s = if dsts[..j].contains(&s) {
                let save = self.scratch(s.kind());
                saved.push((s, save));
                save
            } else {
                s
            };
            copies.push((s, t));
        }
        saved.extend(copies);
        Moves::new(&saved)
    }

    /// Static type of the value an operand addresses.
    fn target_type(&self, operand: &Operand) -> &'f Type {
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
                    dst: inst.results.first().map(|&r| self.value_slot(r)),
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
                }
            }
            InstKind::ForEach | InstKind::ForRange => {
                let layout = carry_layout(self.func, inst)
                    .ok()
                    .flatten()
                    .expect("the verifier types every loop");
                let over = match inst.kind {
                    InstKind::ForEach => LoopOver::Coll(self.op(&ops[0])),
                    _ => LoopOver::Range {
                        lo: self.op(&ops[0]),
                        hi: self.op(&ops[1]),
                    },
                };
                return DInst::Loop(LoopHeader {
                    over,
                    carried: self.ops(&ops[layout.first..]),
                    body: slot(inst.regions[0].index()),
                    bound: slot(layout.bound),
                    dsts: self.dsts(inst),
                });
            }
            InstKind::DoWhile => {
                return DInst::DoWhile {
                    carried: self.ops(ops),
                    body: slot(inst.regions[0].index()),
                    dsts: self.dsts(inst),
                }
            }
            InstKind::Yield => {
                let srcs = self.ops(ops);
                let target = std::mem::take(&mut self.targets[self.region]);
                let (cond, srcs) = match srcs.split_first() {
                    Some((&cond, rest)) if target.cond => (Some(cond), rest),
                    _ => (None, &srcs[..]),
                };
                return DInst::Yield {
                    cond,
                    moves: self.moves(srcs, &target.dsts),
                };
            }
            InstKind::Ret => {
                return DInst::Ret {
                    src: ops.first().map(|o| self.op(o)),
                }
            }
            InstKind::Roi(begin) => return DInst::Roi { begin: *begin },
            kind => self.decode_op(kind, ops, self.value_slot(inst.results[0])),
        };
        DInst::Op(PlanOp {
            site: self.site,
            ticks: 0,
            op,
        })
    }

    /// The [`BulkOp`] of a straight-line instruction writing `dst`. A
    /// writer's result is its collection operand's base handle.
    fn decode_op(&mut self, kind: &InstKind, ops: &[Operand], dst: Slot) -> BulkOp {
        let base = |d: &Self, o: &Operand| d.value_slot(o.base);
        match kind {
            InstKind::Const(c) => BulkOp::Scalar(UScalar::Const {
                pool: self.pool_const(c),
                dst,
            }),
            InstKind::New(ty) => BulkOp::New {
                ty: self.pool_type(ty),
                dst,
            },
            InstKind::Literal { elems, enumeration } => BulkOp::Literal {
                ty: self.pool_type(&InstKind::literal_ty(elems, *enumeration)),
                elems: self.pool_literal(elems),
                e: enumeration.map(|e| slot(e.index())),
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
                base: base(self, &ops[0]),
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
                        base: base(self, &ops[0]),
                        dst,
                    },
                    Type::Map { val, .. } => BulkOp::InsertMap {
                        coll,
                        key: self.op(&ops[1]),
                        val_ty: self.pool_type(val),
                        base: base(self, &ops[0]),
                        dst,
                    },
                    Type::Seq(_) => BulkOp::InsertSeq {
                        coll,
                        index: self.op(&ops[1]),
                        val: self.op(&ops[2]),
                        base: base(self, &ops[0]),
                        dst,
                    },
                    other => panic!("insert into {other}"),
                }
            }
            InstKind::Remove => BulkOp::Remove {
                coll: self.op(&ops[0]),
                key: self.op(&ops[1]),
                base: base(self, &ops[0]),
                dst,
            },
            InstKind::Clear => BulkOp::Clear {
                coll: self.op(&ops[0]),
                base: base(self, &ops[0]),
                dst,
            },
            InstKind::Size => BulkOp::Size {
                coll: self.op(&ops[0]),
                dst,
            },
            InstKind::UnionInto => BulkOp::Union {
                coll: self.op(&ops[0]),
                src: self.op(&ops[1]),
                base: base(self, &ops[0]),
                dst,
            },
            InstKind::Bin(op) => {
                let (op, a, b) = (*op, self.op(&ops[0]), self.op(&ops[1]));
                let signed = matches!(
                    op,
                    BinOp::Div | BinOp::Rem | BinOp::Min | BinOp::Max | BinOp::Shr
                );
                BulkOp::Scalar(match a.kind() {
                    Kind::F64 => UScalar::BinF { op, a, b, dst },
                    Kind::I64 if signed => UScalar::BinI { op, a, b, dst },
                    _ => UScalar::Bin { op, a, b, dst },
                })
            }
            InstKind::Cmp(op) => {
                let (a, b) = (self.op(&ops[0]), self.op(&ops[1]));
                BulkOp::Scalar(UScalar::Cmp {
                    test: Test::compare(*op, a, b),
                    dst,
                })
            }
            InstKind::Not => BulkOp::Scalar(UScalar::Not {
                a: self.op(&ops[0]),
                dst,
            }),
            InstKind::Cast(_) => BulkOp::Scalar(UScalar::Cast {
                a: self.op(&ops[0]),
                dst,
            }),
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

/// Runs the loop-granular fusion tier over every loop of `d`: a
/// `foreach`/`forrange` header whose whole body compiles to a
/// [`BulkPlan`] gets the plan attached ([`DInst::LoopBulk`]); every
/// other header is recorded in [`DFunc::generic_loops`] with the reason
/// it stayed generic. The body region's instructions are left untouched
/// (the header occupies one code slot either way), so code length and
/// trap-site numbering are unchanged and the generic loop path can still
/// execute the region whenever the plan may not run.
///
/// Loops compile innermost first, so an enclosing body finds each
/// nested loop already compiled and embeds its plan as a
/// [`BulkOp::Loop`]. `func` is the source of `d`, whose reads decide
/// which compares fuse into a branch.
fn loop_fuse_function(d: &mut DFunc, func: &Function) {
    let mut reads = vec![0; func.values.len()];
    for v in func.insts.iter().flat_map(Inst::used_values) {
        reads[v.index()] += 1;
    }
    let mut generic = Vec::new();
    for idx in loops_inner_first(d) {
        match try_bulk_loop(d, &reads, idx) {
            Ok(plan) => {
                let inst = d.code[idx].own_mut();
                let DInst::Loop(head) = std::mem::replace(inst, DInst::Ret { src: None }) else {
                    unreachable!("loops_inner_first finds generic headers only")
                };
                *inst = DInst::LoopBulk(head, plan);
            }
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
                DInst::Loop(head) => {
                    headers.push(idx);
                    regions.push(head.body);
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

/// Compiles the body of the loop header at `idx` into a plan, if it is
/// a region the plan language can express. `reads` counts the operands
/// reading each SSA value.
fn try_bulk_loop(d: &DFunc, reads: &[u32], idx: usize) -> Result<Box<BulkPlan>, Reject> {
    let (head, _) = d.code[idx].as_loop().expect("a foreach/forrange header");
    let mut prelude = Vec::new();
    let (ops, yields, tail) = compile_body(d, reads, head.body, &mut prelude)?;
    Ok(Box::new(BulkPlan {
        worst: worst_ticks(&ops, tail),
        depth: 1 + nest_depth(&ops),
        prelude: prelude.into_boxed_slice(),
        ops: ops.into_boxed_slice(),
        yields,
        tail,
    }))
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
                else_ops,
                ends,
                ..
            } => worst_ticks(then_ops, ends[0].1)?.max(worst_ticks(else_ops, ends[1].1)?),
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

/// Compiles the loop body or branch arm `r`: the ops of its slots, the
/// terminator's path steps included, with their ticks and every `const`
/// moved to `prelude` (each writes a slot no other op writes: an SSA
/// value, or the scratch slot of one constant path index); its terminal
/// yield's moves; and its slots after the last op.
fn compile_body(
    d: &DFunc,
    reads: &[u32],
    r: u32,
    prelude: &mut Vec<PlanOp>,
) -> Result<(Vec<PlanOp>, Moves, u32), Reject> {
    let region = &d.regions[r as usize];
    let (start, end) = (region.start as usize, region.end as usize);
    let mut ops = Vec::new();
    for idx in start..end - 1 {
        compile_inst(d, reads, idx, &mut ops, prelude)?;
    }
    let (steps, DInst::Yield { moves, .. }) = split(&d.code[end - 1]) else {
        unreachable!("the verifier ends every loop body and arm with yield")
    };
    ops.extend_from_slice(steps);
    let (consts, mut ops): (Vec<PlanOp>, Vec<PlanOp>) = ops
        .into_iter()
        .partition(|p| matches!(p.op, BulkOp::Scalar(UScalar::Const { .. })));
    prelude.extend(consts);
    let tail = assign_ticks(&mut ops, region);
    Ok((ops, moves.clone(), tail))
}

/// What a branch on `cond` tests: the [`Test`] of the compare in `ops`
/// that writes `cond`, taken out of `ops`, when the branch is the only
/// operand reading it (no other op, yield or arm does); else `cond`'s
/// truth.
fn branch_test(ops: &mut Vec<PlanOp>, reads: &[u32], cond: Slot) -> Test {
    let writer = ops
        .iter()
        .rposition(|p| matches!(p.op, BulkOp::Scalar(UScalar::Cmp { dst, .. }) if dst == cond));
    match writer {
        Some(k) if reads.get(cond.index()) == Some(&1) => {
            let BulkOp::Scalar(UScalar::Cmp { test, .. }) = ops.remove(k).op else {
                unreachable!("the writer is a compare")
            };
            test
        }
        _ => Test::Bool(cond.index),
    }
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
/// unfused loop would. A branch's arms move their `const`s to
/// `prelude`. An observable side channel (print, ROI, calls), a
/// `dowhile` or `ret`, or a nested loop that stayed generic rejects
/// the whole loop.
fn compile_inst(
    d: &DFunc,
    reads: &[u32],
    idx: usize,
    out: &mut Vec<PlanOp>,
    prelude: &mut Vec<PlanOp>,
) -> Result<(), Reject> {
    let (steps, inst) = split(&d.code[idx]);
    out.extend_from_slice(steps);
    let op = match inst {
        DInst::Op(p) => p.op.clone(),
        DInst::If {
            cond,
            then_r,
            else_r,
        } => {
            let test = branch_test(out, reads, *cond);
            let (then_ops, then_yields, then_tail) = compile_body(d, reads, *then_r, prelude)?;
            let (else_ops, else_yields, else_tail) = compile_body(d, reads, *else_r, prelude)?;
            BulkOp::If {
                test,
                then_ops: then_ops.into_boxed_slice(),
                else_ops: else_ops.into_boxed_slice(),
                ends: Box::new([(then_yields, then_tail), (else_yields, else_tail)]),
            }
        }
        DInst::LoopBulk(_, plan) => BulkOp::Loop { plan: plan.clone() },
        DInst::Loop(_) => return Err("inner-loop"),
        DInst::DoWhile { .. } => return Err("dowhile"),
        DInst::Call { .. } => return Err("call"),
        DInst::Print { .. } => return Err("print"),
        DInst::Roi { .. } => return Err("roi"),
        DInst::Ret { .. } => return Err("ret"),
        DInst::Yield { .. } | DInst::Lowered { .. } => {
            unreachable!("{inst:?} mid-region: a verified region yields only last")
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

    /// Decode verifies in every build, release included: execution
    /// trusts every verified type, so an ill-typed module (here `add`
    /// on bools, which the parser accepts) never decodes.
    #[test]
    #[should_panic(expected = "refusing to decode an unverifiable module")]
    fn decode_refuses_an_unverifiable_module() {
        let m = parse_module(
            "fn @main() -> void {\n  %a = const true\n  %b = add %a, %a\n  print %b\n  ret\n}\n",
        )
        .expect("parses");
        DecodedModule::decode_with(&m, &DecodeOptions::default());
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

    /// A loop header takes no more room than a plan op: the dispatch
    /// stream stays as dense as it is with one variant per loop kind.
    #[test]
    fn a_decoded_slot_is_no_wider_than_an_op_and_its_tag() {
        let (slot, op) = (std::mem::size_of::<DInst>(), std::mem::size_of::<PlanOp>());
        assert!(
            slot <= 72 && slot <= op + 8,
            "DInst {slot} bytes, PlanOp {op}"
        );
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
                DInst::Loop(head) => Some(head),
                _ => None,
            })
            .expect("foreach decoded");
        assert_eq!(fe.bound, 2, "a map binds key and value");
        // The body binds `u64` key, value and carried sum as registers.
        let args = fe.args(&d.funcs[0]);
        assert!(args.iter().all(|a| a.kind() == Kind::U64), "{args:?}");
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
                DInst::LoopBulk(_, plan) => Some(plan),
                _ => None,
            })
            .expect("projected loop still bulk-compiles");
        assert!(matches!(
            plan.ops[0].op,
            BulkOp::Proj {
                field: 1,
                dst,
                ..
            } if dst.index() >= ssa_slots as usize && dst.kind() == Kind::U64
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
                DInst::LoopBulk(head, plan) => Some((head.body, plan)),
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
        let (s0, s1) = (
            Slot::new(ssa_slots as usize, Kind::Coll),
            Slot::new(ssa_slots as usize + 1, Kind::Coll),
        );
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
                DInst::LoopBulk(_, plan) => Some(&**plan),
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
        let (k, r) = (
            Slot::new(ssa_slots as usize, Kind::U64),
            Slot::new(ssa_slots as usize + 1, Kind::Coll),
        );
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
        let third_body = f
            .code
            .iter()
            .filter_map(|i| match i {
                DInst::LoopBulk(head, _) => Some(head.body as usize),
                _ => None,
            })
            .nth(2)
            .expect("three loops");
        let acc = f.regions[third_body].args[2];
        assert_eq!(
            plans[2].yields.regs.as_ref(),
            &[(f.frame_size - 1, acc.index)]
        );
    }

    #[test]
    fn string_consts_are_pooled_once() {
        let m =
            parse_module("fn @main() -> void {\n  %a = const \"hello\"\n  print %a\n  ret\n}\n")
                .expect("parses");
        let d = reference(&m);
        assert_eq!(d.funcs[0].strs.len(), 1);
        assert_eq!(d.funcs[0].strs[0], Value::Str("hello".into()));
        assert!(d.funcs[0].consts.is_empty());
    }

    #[test]
    fn equal_consts_and_constant_path_indices_share_a_pool_entry() {
        let m = parse_module(
            r#"
fn @main() -> void {
  %a = const 0u64
  %b = const 0u64
  %q = new Seq<Seq<u64>>
  %n = size %q[0]
  %h = const 1.5f64
  %h2 = const 1.5f64
  %z = const 0f64
  %nz = const -0f64
  print %a, %b, %n, %h, %h2, %z, %nz
  ret
}
"#,
        )
        .expect("parses");
        let d = reference(&m);
        let f = &d.funcs[0];
        let pools: Vec<u32> = f
            .code
            .iter()
            .flat_map(|i| match i {
                DInst::Lowered { steps, inst } => steps
                    .iter()
                    .chain(std::iter::once(match &**inst {
                        DInst::Op(p) => p,
                        other => panic!("{other:?}"),
                    }))
                    .map(|p| &p.op)
                    .collect::<Vec<_>>(),
                DInst::Op(p) => vec![&p.op],
                _ => vec![],
            })
            .filter_map(|op| match op {
                BulkOp::Scalar(UScalar::Const { pool, .. }) => Some(*pool),
                _ => None,
            })
            .collect();
        // `%a`, `%b` and the index of `%q[0]` share one entry, and the
        // two 1.5s one; 0.0 and -0.0 differ by bit pattern.
        assert_eq!(pools, [0, 0, 0, 1, 1, 2, 3]);
        assert_eq!(f.consts.len(), 4);
    }

    #[test]
    fn literals_decode_to_one_op_over_a_pooled_table() {
        let m = parse_module(
            r#"
enum e0: str

fn @main() -> void {
  %a = literal u64 [4, 4, 1]
  %b = literal str ["x", "y"] enumadd e0
  %n = size %a
  %m = size %b
  print %n, %m
  ret
}
"#,
        )
        .expect("parses");
        let d = reference(&m);
        let f = &d.funcs[0];
        let ops: Vec<&BulkOp> = f
            .code
            .iter()
            .filter_map(|i| match i {
                DInst::Op(p) => Some(&p.op),
                _ => None,
            })
            .collect();
        let (ta, tb) = match ops[..2] {
            [BulkOp::Literal {
                ty: ta,
                elems: 0,
                e: None,
                ..
            }, BulkOp::Literal {
                ty: tb,
                elems: 1,
                e: Some(0),
                ..
            }] => (*ta, *tb),
            ref other => panic!("{other:?}"),
        };
        assert_eq!(f.types[ta as usize], Type::seq(Type::U64));
        assert_eq!(f.types[tb as usize], Type::seq(Type::Idx));
        assert_eq!(f.literals[0], Table::Bits([4, 4, 1].into()));
        assert_eq!(
            f.literals[1],
            Table::Boxed([Value::Str("x".into()), Value::Str("y".into())].into())
        );
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
        // Both decodes copy the yielded sum straight into the body's
        // carried slot: one register move.
        for d in [
            reference(&m),
            DecodedModule::decode_with(&m, &DecodeOptions::default()),
        ] {
            let f = &d.funcs[0];
            let body = f
                .code
                .iter()
                .find_map(|i| i.as_loop().map(|(head, _)| head.body))
                .expect("forrange decoded");
            let region = &f.regions[body as usize];
            let DInst::Yield { cond: None, moves } = &f.code[region.end as usize - 1] else {
                panic!("a loop body ends in a yield");
            };
            let DInst::Op(PlanOp {
                op: BulkOp::Scalar(UScalar::Bin { dst: sum, .. }),
                ..
            }) = f.code[region.start as usize]
            else {
                panic!("the body adds first");
            };
            assert_eq!(moves.regs.as_ref(), &[(sum.index, region.args[1].index)]);
            assert!(moves.side.is_empty());
        }
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
                DInst::LoopBulk(_, plan) => Some(plan),
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
            (
                plan.prelude[0].ticks,
                ticks,
                plan.tail,
                plan.worst,
                plan.depth
            ),
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
                DInst::LoopBulk(
                    LoopHeader {
                        over: LoopOver::Range { .. },
                        ..
                    },
                    plan,
                ) => Some(plan),
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
        let foreach = |i: &DInst| matches!(i.as_loop(), Some((head, Some(_))) if matches!(head.over, LoopOver::Coll(_)));
        assert!(f.code.iter().any(foreach));
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
                .all(|i| !matches!(i, DInst::LoopBulk(..))),
            "the reference decode must not run loop fusion"
        );
    }

    /// The only plan of `m`'s default decode, with its body region.
    fn only_plan(d: &DecodedModule) -> (&BulkPlan, &DRegion) {
        let f = &d.funcs[0];
        let (head, plan) = f
            .code
            .iter()
            .find_map(DInst::as_loop)
            .expect("a loop header");
        let plan = plan.expect("the body compiles to a plan");
        (plan, &f.regions[head.body as usize])
    }

    /// A branch on a compare that nothing else reads, each arm with a
    /// `const`.
    const COMPARE_BRANCH: &str = r#"
fn @main() -> void {
  %lo = const 0u64
  %hi = const 8u64
  %zero = const 0u64
  %r = forrange %lo, %hi carry(%zero) as (%i: u64, %acc: u64) {
    %four = const 4u64
    %c = gt %i, %four
    %v = if %c then {
      %one = const 1u64
      %w = add %acc, %one
      yield %w
    } else {
      %two = const 2u64
      %w2 = mul %acc, %two
      yield %w2
    }
    yield %v
  }
  print %r
  ret
}
"#;

    #[test]
    fn a_single_use_compare_fuses_into_its_branch() {
        let m = parse_module(COMPARE_BRANCH).expect("parses");
        let d = DecodedModule::decode_with(&m, &DecodeOptions::default());
        let (plan, body) = only_plan(&d);
        let four = plan
            .prelude
            .iter()
            .find_map(|p| match p.op {
                BulkOp::Scalar(UScalar::Const { dst, .. }) if p.site == body.start => Some(dst),
                _ => None,
            })
            .expect("the body's const is in the prelude");
        let i = body.args[0];
        // `gt %i, %four` tests `%four < %i`; the compare's slot and the
        // const's before it tick with the branch, at the branch's site.
        let [PlanOp { site, ticks, op }] = plan.ops.as_ref() else {
            panic!("one op: {:?}", plan.ops)
        };
        let BulkOp::If {
            test,
            then_ops,
            else_ops,
            ends,
        } = op
        else {
            panic!("a branch: {op:?}")
        };
        assert_eq!(*test, Test::LtU(four.index, i.index));
        assert_eq!((*site, *ticks), (body.start + 2, 3));
        for (arm, (_, tail)) in [then_ops, else_ops].into_iter().zip(ends.iter()) {
            let ticks: Vec<u32> = arm.iter().map(|p| p.ticks).collect();
            assert_eq!(
                (ticks, *tail),
                (vec![2], 1),
                "the arm's const ticks with its op"
            );
        }
        // Every const is in the prelude; the longest iteration and the
        // regions open at once are what they are unfused: 3 + 2 + 1 + 1
        // ticks, the body and one arm.
        assert_eq!(plan.prelude.len(), 3);
        assert!(plan
            .prelude
            .iter()
            .all(|p| p.ticks == 0 && matches!(p.op, BulkOp::Scalar(UScalar::Const { .. }))));
        assert_eq!((plan.tail, plan.worst, plan.depth), (1, Some(7), 2));
        // The reference decode keeps the compare and the branch apart.
        let r = reference(&m);
        let body = &r.funcs[0].regions[body_index(&r)];
        assert!(matches!(
            r.funcs[0].code[body.start as usize + 1],
            DInst::Op(PlanOp {
                op: BulkOp::Scalar(UScalar::Cmp { .. }),
                ..
            })
        ));
    }

    fn body_index(d: &DecodedModule) -> usize {
        let (head, _) = d.funcs[0]
            .code
            .iter()
            .find_map(DInst::as_loop)
            .expect("a loop");
        head.body as usize
    }

    #[test]
    fn a_compare_read_elsewhere_stays_an_op() {
        // `%c` is yielded out of the loop, `%d` read by a later op and
        // `%g` by an arm's yield: each branch tests its slot.
        let m = parse_module(
            r#"
fn @main() -> void {
  %lo = const 0u64
  %hi = const 8u64
  %zero = const 0u64
  %f = const false
  %r, %k = forrange %lo, %hi carry(%zero, %f) as (%i: u64, %acc: u64, %kk: bool) {
    %four = const 4u64
    %c = lt %i, %four
    %v = if %c then {
      yield %i
    } else {
      yield %acc
    }
    %d = eq %i, %four
    %e = not %d
    %v2 = if %d then {
      yield %v
    } else {
      yield %i
    }
    %g = ge %i, %four
    %h = if %g then {
      yield %g
    } else {
      yield %e
    }
    %x = and %h, %e
    yield %v2, %c
  }
  print %r, %k
  ret
}
"#,
        )
        .expect("parses");
        let d = DecodedModule::decode_with(&m, &DecodeOptions::default());
        let (plan, _) = only_plan(&d);
        let tests: Vec<Test> = plan
            .ops
            .iter()
            .filter_map(|p| match &p.op {
                BulkOp::If { test, .. } => Some(*test),
                _ => None,
            })
            .collect();
        let compares = plan
            .ops
            .iter()
            .filter(|p| matches!(p.op, BulkOp::Scalar(UScalar::Cmp { .. })))
            .count();
        assert_eq!(tests.len(), 3);
        assert!(
            tests.iter().all(|t| matches!(t, Test::Bool(_))),
            "{tests:?}"
        );
        assert_eq!(compares, 3);
    }
}
