//! The IR interpreter.
//!
//! Execution runs over the pre-decoded instruction stream built by
//! [`crate::decode`]: each function is flattened once per run, then the
//! hot loop dispatches on compact [`DInst`]s whose operands are frame
//! slots. Every straight-line instruction, and every step a nesting path
//! lowered to, is a [`BulkOp`], run by the one executor loop plans use
//! too (`exec_plan_op`); dispatch itself only handles control flow,
//! calls, `print` and `roi`. Instrumentation is bit-identical to the
//! original tree-walking core: the same [`CollOp`] bumps in the same
//! phases, one tick per executed instruction.
//!
//! Each activation's frame is a register file: every slot whose verified
//! static type is `bool`, `u64`, `i64`, `f64`, `idx` or a collection
//! holds raw bits in a `u64` register, and only `str` and tuple slots
//! hold [`Value`]s, in a side file ([`Frame`]). Scalar ops are typed at
//! decode, loop binding, yields, call arguments and returns are plain
//! register moves, and heap ops take and return register bits
//! ([`Arg`]). Values are boxed only for `print` and the entry's result,
//! by the static type decode recorded, and where a register meets a
//! collection of `str` or tuples.
//!
//! A `foreach` and a `forrange` run through one [`LoopHeader`] path:
//! opening the loop reads its bounds or snapshots its collection, each
//! iteration binds the header's `bound` leading body arguments, and the
//! carried arguments follow. A header with a plan ([`DInst::LoopBulk`])
//! runs iterations through it wherever the plan may run, and through the
//! body region otherwise.
//!
//! Control flow does not recurse on the host stack. A run's continuation
//! is an explicit [`Machine`]: one activation (frame) per live call and
//! one region cursor per entered region — function body, `if` arm, or
//! loop body with its loop state (the `foreach` snapshot and position,
//! the `forrange` counter). Calls, returns and region entry and exit
//! push and pop them, so a run can stop between any two instructions
//! and resume later, and guest recursion depth is bounded by the heap.
//!
//! Every instruction budget — [`ExecConfig::fuel`] and a session's
//! quantum grants — shares one countdown, `ticks_left`, holding the
//! smaller of the two remainders (`u64::MAX` when neither is armed).
//! The dispatch loop's only budget check is that countdown reaching
//! zero; what happens there (fuel exhausted, or the grant used up, which
//! suspends the run) is decided out of line in `tick_boundary`. The
//! fast path counts ticks exactly under every budget: a bulk loop
//! iteration runs through its plan only when the countdown covers the
//! iteration's worst case, so no budget boundary ever falls inside it.
//! A plan that holds a nested loop has no static worst case: it
//! runs only when neither a fuel limit nor a session grant can end the
//! countdown's window.

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::time::Instant;

use ade_ir::{BinOp, FuncId, Module, Type};

use crate::decode::{
    BulkOp, BulkPlan, DFunc, DInst, DecodeOptions, DecodedModule, LoopHeader, LoopOver, Moves,
    PlanOp, Slot, Table, Test, UScalar,
};
use crate::heap::{Arg, CollId, Collection, Elem, Enumeration, SelectionDefaults};
use crate::stats::{CollOp, ImplKind, Phase, Stats};
use crate::trap::{Limit, TrapKind, TrapSite};
use crate::value::{Kind, Value};

/// Interpreter configuration: implementation defaults and execution
/// budgets. What a run counts comes back with it ([`Outcome`]).
#[derive(Clone, Debug, Default)]
pub struct ExecConfig {
    /// Implementations for empty (`Auto`) selections.
    pub defaults: SelectionDefaults,
    /// Instruction budget; `None` (the default) means unlimited. Guards
    /// differential tests against accidental non-termination.
    pub fuel: Option<u64>,
    /// Collection-allocation budget; `None` (the default) means
    /// unlimited. Bounds the heap a runaway or miscompiled configuration
    /// can claim.
    pub max_heap_cells: Option<usize>,
    /// Nested region/call depth budget; `None` (the default) means
    /// unlimited. Every call enters at least one region, so this bounds
    /// guest recursion transitively.
    pub max_depth: Option<u32>,
}

/// A runtime failure: a missing entry point, guest undefined behavior
/// ([`ExecError::GuestTrap`]) or a configured budget running out
/// ([`ExecError::LimitExceeded`]). A panic inside the interpreter is a
/// host bug and propagates as a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// No parameterless function has the requested entry name.
    NoEntry {
        /// The entry name that was looked up.
        entry: String,
    },
    /// Guest undefined behavior, trapped with its classification and
    /// (when known) the instruction site that raised it.
    GuestTrap {
        /// Function and decoded-instruction index, when attributable.
        site: Option<TrapSite>,
        /// What went wrong.
        kind: TrapKind,
    },
    /// A configured execution budget ([`ExecConfig::fuel`],
    /// [`ExecConfig::max_heap_cells`], [`ExecConfig::max_depth`]) ran
    /// out.
    LimitExceeded {
        /// Which budget.
        limit: Limit,
        /// The configured budget value.
        budget: u64,
    },
}

impl ExecError {
    /// Short machine-readable failure code, stable across releases:
    /// `no-entry`, a [`TrapKind`] code or a [`Limit`] code.
    pub fn code(&self) -> &'static str {
        match self {
            ExecError::NoEntry { .. } => "no-entry",
            ExecError::GuestTrap { kind, .. } => kind.code(),
            ExecError::LimitExceeded { limit, .. } => limit.code(),
        }
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::NoEntry { entry } => {
                write!(
                    f,
                    "execution error: no parameterless function named @{entry}"
                )
            }
            ExecError::GuestTrap {
                site: Some(site),
                kind,
            } => write!(f, "guest trap at {site}: {kind}"),
            ExecError::GuestTrap { site: None, kind } => write!(f, "guest trap: {kind}"),
            ExecError::LimitExceeded {
                limit: Limit::Fuel,
                budget,
            } => write!(
                f,
                "execution error: fuel exhausted after {budget} instructions"
            ),
            ExecError::LimitExceeded {
                limit: Limit::HeapCells,
                budget,
            } => write!(
                f,
                "execution error: heap-cell budget exceeded ({budget} collections)"
            ),
            ExecError::LimitExceeded {
                limit: Limit::Depth,
                budget,
            } => write!(
                f,
                "execution error: region/call depth limit exceeded ({budget})"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

/// Shorthand for a site-less guest trap; [`Interpreter::run_activation`]
/// fills in the site as the error unwinds past the raising instruction.
fn trap(kind: TrapKind) -> ExecError {
    ExecError::GuestTrap { site: None, kind }
}

/// A guest trap attributed to instruction `inst` of `func`. Bulk plan
/// ops, which do not dispatch on their own, site their traps at the
/// code slot of the original instruction, matching generic execution.
#[cold]
#[inline(never)]
fn trap_at(func: &DFunc, inst: usize, kind: TrapKind) -> ExecError {
    ExecError::GuestTrap {
        site: Some(TrapSite {
            func: func.name.clone(),
            inst: inst as u32,
        }),
        kind,
    }
}

/// Attributes a site-less guest trap to instruction `inst` of `func`;
/// sited traps and every other error pass through unchanged.
fn site_at(func: &DFunc, inst: usize, e: ExecError) -> ExecError {
    match e {
        ExecError::GuestTrap { site: None, kind } => trap_at(func, inst, kind),
        other => other,
    }
}

/// The result of a program run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Everything the program printed.
    pub output: String,
    /// Operation counts, memory peaks and wall times.
    pub stats: Stats,
    /// The entry function's return value.
    pub result: Option<Value>,
    /// Instructions executed, one tick per decoded slot (the slots of
    /// bulk plan iterations included). Always exact, and identical for
    /// every decode, budget and quantum size.
    pub fuel_ticks: u64,
    /// How the interpreter ran the program.
    pub counts: RunCounts,
}

/// How the interpreter ran a program, as against what the program did
/// ([`Stats`]): loop tiers and plan ticks differ between decodes,
/// budgets and sessions by design.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunCounts {
    /// `foreach`/`forrange` entries whose iterations may run through a
    /// loop plan, inner loops a plan runs in place included.
    pub bulk_loops: u64,
    /// Loop entries whose every iteration runs through the body region.
    pub generic_loops: u64,
    /// Ticks that plan iterations of bulk loops took, out of
    /// [`Outcome::fuel_ticks`].
    pub plan_ticks: u64,
    /// Collections allocated, by backend label
    /// ([`Collection::kind_label`]).
    pub backends: BTreeMap<&'static str, u64>,
}

/// A run's continuation between two instructions: one [`Activation`] per
/// live call and one [`Cursor`] per entered region, innermost last. An
/// [`crate::ExecSession`] keeps it between quanta; a batch run drops it
/// when the entry function returns.
#[derive(Debug)]
pub(crate) struct Machine {
    /// The entry function, until the first resume calls it.
    entry: Option<FuncId>,
    acts: Vec<Activation>,
    /// The region cursors of every activation. Its length is the region
    /// depth [`ExecConfig::max_depth`] bounds.
    cursors: Vec<Cursor>,
}

impl Machine {
    /// A machine that calls `entry` (with no arguments) when first
    /// resumed.
    pub(crate) fn new(entry: FuncId) -> Machine {
        Machine {
            entry: Some(entry),
            acts: Vec::new(),
            cursors: Vec::new(),
        }
    }

    /// Pops the top activation and every region cursor it still holds
    /// (a `ret` may leave from inside arms and loop bodies).
    fn pop_call(&mut self) -> Activation {
        let done = self.acts.pop().expect("a returning activation");
        self.cursors.truncate(done.base);
        done
    }
}

/// One live call.
#[derive(Debug)]
struct Activation {
    fid: FuncId,
    frame: Frame,
    /// The caller's `call` slot: where the return value lands, and where
    /// an error the callee cannot site is attributed. Unused for the
    /// entry activation.
    call_site: u32,
    /// Index of this activation's body cursor in [`Machine::cursors`].
    base: usize,
}

/// One activation's slots (see [`Slot`]): the `u64` register file,
/// indexed by register slots, and the side file of boxed values, indexed
/// by [`Kind::Boxed`] slots.
#[derive(Debug)]
struct Frame {
    regs: Box<[u64]>,
    side: Box<[Value]>,
}

impl Frame {
    /// A frame for a call of `func`, every slot zero.
    fn new(func: &DFunc) -> Frame {
        Frame {
            regs: vec![0; func.frame_size as usize].into_boxed_slice(),
            side: vec![Value::Void; func.side_size as usize].into_boxed_slice(),
        }
    }

    /// The bits in register slot `s`.
    #[inline(always)]
    fn reg(&self, s: Slot) -> u64 {
        self.regs[s.index()]
    }

    #[inline(always)]
    fn set_reg(&mut self, s: Slot, bits: u64) {
        self.regs[s.index()] = bits;
    }

    /// The collection handle in register slot `s`.
    #[inline(always)]
    fn coll(&self, s: Slot) -> CollId {
        CollId(self.reg(s) as u32)
    }

    /// The value in `s`, boxed by its kind.
    #[inline(always)]
    fn boxed(&self, s: Slot) -> Value {
        match s.kind() {
            Kind::Boxed => self.side[s.index()].clone(),
            kind => Value::from_bits(kind, self.reg(s)),
        }
    }

    /// The value in `s` as a heap operand: its register bits, or its
    /// boxed value.
    #[inline(always)]
    fn arg(&self, s: Slot) -> Arg<'_> {
        if s.is_boxed() {
            Arg::Boxed(&self.side[s.index()])
        } else {
            Arg::Bits(self.reg(s))
        }
    }

    /// Stores a heap result into `s`.
    #[inline(always)]
    fn put(&mut self, s: Slot, a: Arg<'_>) {
        match a {
            Arg::Bits(bits) => self.set_reg(s, bits),
            Arg::Boxed(v) => self.side[s.index()] = v.clone(),
        }
    }

    /// Stores `v`, a value of `s`'s static type, into `s`.
    #[inline(always)]
    fn store(&mut self, s: Slot, v: Value) {
        if s.is_boxed() {
            self.side[s.index()] = v;
        } else {
            self.set_reg(s, v.bits());
        }
    }

    /// Copies slot `s` into slot `t`, of the same kind.
    #[inline(always)]
    fn copy(&mut self, s: Slot, t: Slot) {
        if t.is_boxed() {
            self.side[t.index()] = self.side[s.index()].clone();
        } else {
            self.regs[t.index()] = self.regs[s.index()];
        }
    }

    /// Runs a yield's copies.
    #[inline(always)]
    fn run(&mut self, moves: &Moves) {
        for &(s, t) in moves.regs.iter() {
            self.regs[t as usize] = self.regs[s as usize];
        }
        for &(s, t) in moves.side.iter() {
            self.side[t as usize] = self.side[s as usize].clone();
        }
    }

    /// Copies slot `s` of `from` into slot `t` of this frame, of the
    /// same kind: a call argument or a return value.
    #[inline(always)]
    fn copy_from(&mut self, from: &Frame, s: Slot, t: Slot) {
        if t.is_boxed() {
            self.side[t.index()] = from.side[s.index()].clone();
        } else {
            self.regs[t.index()] = from.regs[s.index()];
        }
    }
}

/// One entered region: the next code slot to run, the region's first
/// slot, and what its terminator resumes. Code slots are `u32`, like
/// trap sites (decoding checks that every function's code fits). No
/// region runs past its end: the verifier closes every region with a
/// terminator.
#[derive(Debug)]
struct Cursor {
    pc: u32,
    start: u32,
    kind: RegionKind,
}

#[derive(Debug)]
enum RegionKind {
    /// A function body, left only by `ret`.
    Body,
    /// An `if` arm.
    Arm,
    /// A `foreach`/`forrange` body. `bulk` (fixed at loop entry) lets
    /// iterations run through the header's plan.
    Loop {
        header: u32,
        iter: LoopIter,
        bulk: bool,
    },
    /// A `dowhile` body.
    DoWhile { header: u32 },
}

/// What a `foreach`/`forrange` binds next.
#[derive(Debug)]
enum LoopIter {
    /// A `forrange`: the next index to bind, and the bound.
    Range { next: u64, hi: u64 },
    /// A `foreach` whose bound arguments are registers: the snapshot's
    /// `(key, value)` register bits, and the next entry to bind.
    Each {
        entries: Vec<(u64, u64)>,
        next: usize,
    },
    /// A `foreach` binding a `str` or tuple: the snapshot entries not
    /// yet bound.
    EachBoxed(std::vec::IntoIter<(Value, Value)>),
}

impl LoopIter {
    /// Whether no iteration is left.
    fn is_done(&self) -> bool {
        match self {
            LoopIter::Range { next, hi } => next >= hi,
            LoopIter::Each { entries, next } => *next == entries.len(),
            LoopIter::EachBoxed(rest) => rest.len() == 0,
        }
    }

    /// Binds the next iteration's leading body arguments (the first
    /// `bound` of `args`); `false` once no iteration is left.
    #[inline(always)]
    fn bind(&mut self, frame: &mut Frame, args: &[Slot], bound: usize) -> bool {
        match self {
            LoopIter::Range { next, hi } => {
                if *next >= *hi {
                    return false;
                }
                frame.set_reg(args[0], *next);
                *next += 1;
            }
            LoopIter::Each { entries, next } => {
                let Some(&(key, value)) = entries.get(*next) else {
                    return false;
                };
                frame.set_reg(args[0], key);
                if bound == 2 {
                    frame.set_reg(args[1], value);
                }
                *next += 1;
            }
            LoopIter::EachBoxed(rest) => {
                let Some((key, value)) = rest.next() else {
                    return false;
                };
                frame.store(args[0], key);
                if bound == 2 {
                    frame.store(args[1], value);
                }
            }
        }
        true
    }
}

/// Where [`Interpreter::resume`] stopped.
pub(crate) enum Poll {
    /// A session's grant ran out before the next instruction; the
    /// machine holds the rest of the run.
    Suspended,
    /// The entry function returned this value.
    Done(Option<Value>),
}

/// Where the dispatch loop goes after one instruction.
enum Next {
    /// The given slot: the next one, or one in a region that was
    /// entered, left or restarted.
    At(usize),
    /// Out of the current activation.
    Leave(Transfer),
}

/// Why [`Interpreter::run_activation`] left its activation.
enum Transfer {
    /// The grant ran out; the top cursor holds the next slot.
    Suspend,
    /// A call from code slot `site`; the top cursor already holds the
    /// slot after it.
    Call { callee: FuncId, site: usize },
    /// A return of the value in this slot of the returning frame, if
    /// any.
    Ret(Option<Slot>),
}

/// The `foreach`/`forrange` header at code slot `pc` of `func`, and its
/// plan if it has one.
fn loop_at(func: &DFunc, pc: usize) -> (&LoopHeader, Option<&BulkPlan>) {
    func.code[pc].as_loop().expect("a foreach/forrange header")
}

/// Executes IR modules against instrumented runtime collections.
#[derive(Debug)]
pub struct Interpreter<'m> {
    /// The source module — only needed to decode on the fly
    /// ([`Interpreter::run`]). Session
    /// execution over a shared [`DecodedModule`] runs detached
    /// (`None`): everything the hot paths read lives in the decoded
    /// stream.
    module: Option<&'m Module>,
    config: ExecConfig,
    heap: Vec<Collection>,
    /// Implementation kind per heap slot. A collection's implementation
    /// is fixed at allocation, so this side table answers the
    /// per-operation `impl_kind` classification with one narrow load
    /// instead of touching the (much wider) [`Collection`] enum.
    coll_impls: Vec<ImplKind>,
    coll_bytes: Vec<usize>,
    enums: Vec<Enumeration>,
    stats: Stats,
    counts: RunCounts,
    output: String,
    phase: Phase,
    /// When the current phase's wall-time interval started.
    phase_start: Instant,
    tracked_bytes: usize,
    /// The one instruction countdown: ticks left before the next
    /// budget decision (fuel spent, or the next session grant). Loaded
    /// with `window` = min(fuel left, grant) by `tick_boundary`.
    ticks_left: u64,
    /// The value `ticks_left` was last loaded with.
    window: u64,
    /// Ticks consumed by the windows before the current one.
    ticks_spent: u64,
    /// Whether the run is a session's: its windows are quantum grants,
    /// and it suspends when one is used up.
    sliced: bool,
    /// The session grant `tick_boundary` loads next, if any.
    grant: Option<u64>,
}

impl<'m> Interpreter<'m> {
    /// Creates an interpreter over `module`.
    pub fn new(module: &'m Module, config: ExecConfig) -> Self {
        Self::with_parts(Some(module), config)
    }

    /// A module-less interpreter for session execution over a shared
    /// [`DecodedModule`].
    pub(crate) fn detached(config: ExecConfig) -> Interpreter<'static> {
        Interpreter::with_parts(None, config)
    }

    fn with_parts(module: Option<&'m Module>, config: ExecConfig) -> Self {
        Self {
            module,
            config,
            heap: Vec::new(),
            coll_impls: Vec::new(),
            coll_bytes: Vec::new(),
            enums: Vec::new(),
            stats: Stats::default(),
            counts: RunCounts::default(),
            output: String::new(),
            phase: Phase::Init,
            phase_start: Instant::now(),
            tracked_bytes: 0,
            ticks_left: 0,
            window: 0,
            ticks_spent: 0,
            sliced: false,
            grant: None,
        }
    }

    /// Runs the function named `entry` with no arguments.
    ///
    /// # Errors
    ///
    /// Returns an [`ExecError`] if no parameterless function is named
    /// `entry`, guest undefined behavior is trapped, or a configured
    /// execution limit (fuel, heap cells, depth) runs out.
    pub fn run(&mut self, entry: &str) -> Result<Outcome, ExecError> {
        let module = self.module.expect("batch runs have a source module");
        let decoded = DecodedModule::decode_with(module, &DecodeOptions::default());
        self.run_decoded(&decoded, entry)
    }

    /// [`Interpreter::run`] over a pre-decoded instruction stream,
    /// letting callers that execute one module many times (benchmark
    /// trials) pay for decoding and loop fusion once. `decoded` must
    /// come from this interpreter's module. Runs on the caller's thread
    /// with bounded host stack, however deeply the guest recurses. Each
    /// run starts from a fresh heap and fresh counts.
    ///
    /// # Errors
    ///
    /// As [`Interpreter::run`].
    pub fn run_decoded(
        &mut self,
        decoded: &DecodedModule,
        entry: &str,
    ) -> Result<Outcome, ExecError> {
        debug_assert!(
            self.module
                .is_none_or(|m| m.funcs.len() == decoded.funcs.len()),
            "decoded stream must come from this interpreter's module"
        );
        self.start(decoded, false);
        let fid = decoded.entry(entry)?;
        match self.resume(decoded, &mut Machine::new(fid))? {
            Poll::Done(result) => Ok(self.finish(result)),
            Poll::Suspended => unreachable!("a batch run renews its window"),
        }
    }

    /// Prepares a run of `decoded` from a fresh state: runtime
    /// enumerations, the wall clock and the first tick window. A session
    /// (`sliced`) starts paused: its empty window makes the first
    /// instruction wait for the first grant.
    pub(crate) fn start(&mut self, decoded: &DecodedModule, sliced: bool) {
        *self = Interpreter::with_parts(self.module, self.config.clone());
        self.enums = decoded
            .enum_keys
            .iter()
            .map(|&k| Enumeration::new(k))
            .collect();
        self.sliced = sliced;
        self.window = if sliced {
            0
        } else {
            self.config.fuel.unwrap_or(u64::MAX)
        };
        self.ticks_left = self.window;
    }

    /// Grants a session `ticks` more instructions, loaded at the next
    /// tick boundary.
    pub(crate) fn grant(&mut self, ticks: u64) {
        self.grant = Some(ticks);
    }

    /// The finished run's outcome: closes the last wall-time phase and
    /// hands over the run's counts.
    pub(crate) fn finish(&mut self, result: Option<Value>) -> Outcome {
        let elapsed = Stats::clamp_ns(self.phase_start.elapsed().as_nanos());
        self.stats.wall_ns[self.phase as usize] =
            self.stats.wall_ns[self.phase as usize].saturating_add(elapsed);
        self.stats.final_bytes = self.tracked_bytes;
        self.sample_peak();
        Outcome {
            fuel_ticks: self.fuel_ticks(),
            output: std::mem::take(&mut self.output),
            stats: std::mem::take(&mut self.stats),
            counts: std::mem::take(&mut self.counts),
            result,
        }
    }

    /// Instructions the current or last run executed, however it ended:
    /// a finished run's [`Outcome::fuel_ticks`], or the ticks up to the
    /// error that stopped it.
    pub fn fuel_ticks(&self) -> u64 {
        self.ticks_spent + (self.window - self.ticks_left)
    }

    fn sample_peak(&mut self) {
        if self.tracked_bytes > self.stats.peak_bytes {
            self.stats.peak_bytes = self.tracked_bytes;
        }
    }

    /// The single funnel for operation counts: every kernel, plan op
    /// and enumeration lookup charges the current phase through here.
    #[inline]
    fn bump(&mut self, imp: ImplKind, op: CollOp, n: u64) {
        self.stats.per_phase[self.phase as usize].bump(imp, op, n);
    }

    #[inline]
    fn impl_of(&self, id: CollId) -> ImplKind {
        self.coll_impls[id.0 as usize]
    }

    fn refresh_bytes(&mut self, id: CollId) {
        let new = self.heap[id.0 as usize].bytes_estimate();
        let old = self.coll_bytes[id.0 as usize];
        self.tracked_bytes = (self.tracked_bytes + new).saturating_sub(old);
        self.coll_bytes[id.0 as usize] = new;
        self.sample_peak();
    }

    fn alloc_collection(&mut self, ty: &Type) -> Result<CollId, ExecError> {
        if let Some(max) = self.config.max_heap_cells {
            if self.heap.len() >= max {
                return Err(ExecError::LimitExceeded {
                    limit: Limit::HeapCells,
                    budget: max as u64,
                });
            }
        }
        let coll = Collection::new_for(ty, self.config.defaults);
        *self.counts.backends.entry(coll.kind_label()).or_default() += 1;
        let bytes = coll.bytes_estimate();
        let id = CollId(u32::try_from(self.heap.len()).expect("heap fits u32"));
        self.coll_impls.push(coll.impl_kind());
        self.heap.push(coll);
        self.coll_bytes.push(bytes);
        self.tracked_bytes += bytes;
        self.sample_peak();
        Ok(id)
    }

    /// The default value for a freshly inserted map slot, allocating
    /// nested empty collections as needed (paper §III-G nesting).
    fn default_value(&mut self, ty: &Type) -> Result<Value, ExecError> {
        Ok(match ty {
            Type::Void => Value::Void,
            Type::Bool => Value::Bool(false),
            Type::U64 => Value::U64(0),
            Type::I64 => Value::I64(0),
            Type::F64 => Value::F64(0.0),
            Type::Str => Value::Str("".into()),
            Type::Idx => Value::Idx(0),
            Type::Tuple(elems) => {
                let vals = elems
                    .iter()
                    .map(|t| self.default_value(t))
                    .collect::<Result<Vec<_>, _>>()?;
                Value::Tuple(vals.into())
            }
            coll => Value::Coll(self.alloc_collection(coll)?),
        })
    }

    // ── Operation kernels ───────────────────────────────────────────
    //
    // The one definition of each counted operation: the statistics
    // bump, the heap call and byte accounting. The op executor reads
    // the operand slots, calls the kernel, and sites the trap it returns
    // at the op's code slot. Writers leave the handle copy into their
    // destination slot to the caller, which knows the operand's base
    // slot.

    /// `read(c, k)`.
    #[inline]
    fn read(&mut self, id: CollId, key: Arg<'_>) -> Result<Arg<'_>, TrapKind> {
        self.bump(self.impl_of(id), CollOp::Read, 1);
        self.heap[id.0 as usize].read(key)
    }

    /// `write(c, k, v)`.
    #[inline]
    fn write(&mut self, id: CollId, key: Arg<'_>, value: Arg<'_>) -> Result<(), TrapKind> {
        self.bump(self.impl_of(id), CollOp::Write, 1);
        self.heap[id.0 as usize].write(key, value)?;
        self.refresh_bytes(id);
        Ok(())
    }

    /// `has(c, k)`.
    #[inline]
    fn has(&mut self, id: CollId, key: Arg<'_>) -> bool {
        self.bump(self.impl_of(id), CollOp::Has, 1);
        self.heap[id.0 as usize].has(key)
    }

    /// `remove(c, k)`.
    #[inline]
    fn remove(&mut self, id: CollId, key: Arg<'_>) -> Result<(), TrapKind> {
        self.bump(self.impl_of(id), CollOp::Remove, 1);
        self.heap[id.0 as usize].remove(key)?;
        self.refresh_bytes(id);
        Ok(())
    }

    /// `size(c)`.
    #[inline]
    fn size(&mut self, id: CollId) -> u64 {
        let imp = self.impl_of(id);
        self.bump(imp, CollOp::Size, 1);
        self.heap[id.0 as usize].len() as u64
    }

    /// Set-flavored `insert(c, e)`.
    #[inline]
    fn insert_elem(&mut self, id: CollId, elem: Arg<'_>) -> Result<(), TrapKind> {
        self.bump(self.impl_of(id), CollOp::Insert, 1);
        self.heap[id.0 as usize].insert(elem)?;
        self.refresh_bytes(id);
        Ok(())
    }

    /// Map-flavored `insert(c, k)`: an absent key gets a default value of
    /// `val_ty`. The only kernel that can fail with something other than
    /// a guest trap (allocating a nested default may exceed
    /// [`ExecConfig::max_heap_cells`]), so it returns a site-less
    /// [`ExecError`].
    #[inline]
    fn insert_key(&mut self, id: CollId, key: Arg<'_>, val_ty: &Type) -> Result<(), ExecError> {
        self.bump(self.impl_of(id), CollOp::Insert, 1);
        // Only allocate a default if the key is absent.
        if !self.heap[id.0 as usize].has(key) {
            let default = self.default_value(val_ty)?;
            self.heap[id.0 as usize]
                .write(key, default.arg())
                .map_err(trap)?;
        }
        self.refresh_bytes(id);
        Ok(())
    }

    /// Sequence-flavored `insert(c, i, v)`.
    #[inline]
    fn insert_seq(&mut self, id: CollId, index: usize, value: Arg<'_>) -> Result<(), TrapKind> {
        let imp = self.impl_of(id);
        self.bump(imp, CollOp::Insert, 1);
        self.heap[id.0 as usize].insert_at(index, value)?;
        self.refresh_bytes(id);
        Ok(())
    }

    /// `enc(e, v)`. Values outside the enumeration encode to a sentinel
    /// identifier that is a member of no collection: the paper leaves
    /// @enc undefined there, and ADE only emits such encodes for
    /// membership probes (`has`, `remove`, guarded `read`), which must
    /// observe absence. A dense insert of the sentinel raises a typed
    /// trap instead.
    #[inline]
    fn enc(&mut self, e: u32, key: Arg<'_>) -> usize {
        self.bump(ImplKind::EnumEnc, CollOp::Read, 1);
        self.enums[e as usize]
            .enc(key)
            .unwrap_or(crate::trap::ENC_SENTINEL)
    }

    /// `dec(e, i)`. An identifier the enumeration never issued (the
    /// `enc` sentinel included) traps as out of bounds.
    #[inline]
    fn dec(&mut self, e: u32, idx: usize) -> Result<Arg<'_>, TrapKind> {
        self.bump(ImplKind::EnumDec, CollOp::Read, 1);
        self.enums[e as usize].dec(idx)
    }

    /// `add(e, v)`: `v`'s identifier, issuing the next one when `v` is
    /// new.
    fn enum_add(&mut self, e: u32, key: Arg<'_>) -> usize {
        // Bumps go through `self.bump`, which means the `&mut self.enums[e]` borrow cannot be held
        // across them; the bump sequence (Read, then on a miss Insert
        // into both Enc and Dec) is unchanged.
        self.bump(ImplKind::EnumEnc, CollOp::Read, 1);
        if let Some(idx) = self.enums[e as usize].enc(key) {
            return idx;
        }
        self.bump(ImplKind::EnumEnc, CollOp::Insert, 1);
        self.bump(ImplKind::EnumDec, CollOp::Insert, 1);
        let re = &mut self.enums[e as usize];
        let idx = re.add(key);
        let new = re.bytes_estimate();
        let old = re.cached_bytes;
        re.cached_bytes = new;
        self.tracked_bytes = (self.tracked_bytes + new).saturating_sub(old);
        self.sample_peak();
        idx
    }

    /// Fills the fresh sequence `id` with a literal's `elems`, each first
    /// added to enumeration `e` when set: the counts, identifiers and
    /// capacity growth of one `insert` at the end per element (after its
    /// `add`). Capacity and the enumeration only grow meanwhile, so
    /// refreshing the sequence's bytes once at the end samples the same
    /// peak as refreshing them per element.
    fn literal(&mut self, id: CollId, elems: &Table, e: Option<u32>) -> Result<(), TrapKind> {
        let imp = self.impl_of(id);
        let len = match elems {
            Table::Bits(t) => t.len(),
            Table::Boxed(t) => t.len(),
        };
        self.bump(imp, CollOp::Insert, len as u64);
        for i in 0..len {
            let x = match elems {
                Table::Bits(t) => Arg::Bits(t[i]),
                Table::Boxed(t) => Arg::Boxed(&t[i]),
            };
            let v = match e {
                Some(e) => Arg::Bits(self.enum_add(e, x) as u64),
                None => x,
            };
            self.heap[id.0 as usize].insert_at(i, v)?;
        }
        self.refresh_bytes(id);
        Ok(())
    }

    // ── Control: the continuation machine ──────────────────────────

    /// Runs `m` until the entry function returns, an error stops the
    /// run, or a session's grant runs out before the next instruction.
    pub(crate) fn resume(&mut self, d: &DecodedModule, m: &mut Machine) -> Result<Poll, ExecError> {
        if let Some(entry) = m.entry.take() {
            self.push_call(d, m, entry, 0)?;
        }
        loop {
            let act = m.acts.last_mut().expect("a live machine has an activation");
            let caller = act.fid;
            match self.run_activation(d, act.fid, &mut act.frame, &mut m.cursors)? {
                Transfer::Suspend => return Ok(Poll::Suspended),
                Transfer::Call { callee, site } => self
                    .push_call(d, m, callee, site)
                    .map_err(|e| site_at(d.func(caller), site, e))?,
                Transfer::Ret(src) => {
                    let done = m.pop_call();
                    let Some(caller) = m.acts.last_mut() else {
                        return Ok(Poll::Done(src.map(|s| done.frame.boxed(s))));
                    };
                    if let (Some(src), DInst::Call { dst: Some(dst), .. }) =
                        (src, d.func(caller.fid).code[done.call_site as usize].own())
                    {
                        caller.frame.copy_from(&done.frame, src, *dst);
                    }
                }
            }
        }
    }

    /// Enters `fid` from the `call` at `site` of the top activation, or
    /// as the entry (no activation yet): checks depth, then pushes its
    /// activation, with the call's arguments in its parameter slots, and
    /// its body cursor.
    fn push_call(
        &mut self,
        d: &DecodedModule,
        m: &mut Machine,
        fid: FuncId,
        site: usize,
    ) -> Result<(), ExecError> {
        let func = d.func(fid);
        self.check_depth(m.cursors.len())?;
        let mut frame = Frame::new(func);
        if let Some(caller) = m.acts.last() {
            let DInst::Call { args, .. } = d.func(caller.fid).code[site].own() else {
                unreachable!("a call leaves from a call")
            };
            for (&a, &p) in args.iter().zip(func.params.iter()) {
                frame.copy_from(&caller.frame, a, p);
            }
        }
        let body = &func.regions[func.body as usize];
        m.acts.push(Activation {
            fid,
            frame,
            call_site: site as u32,
            base: m.cursors.len(),
        });
        m.cursors.push(Cursor {
            pc: body.start,
            start: body.start,
            kind: RegionKind::Body,
        });
        Ok(())
    }

    /// [`ExecConfig::max_depth`]'s check on entering a region with
    /// `height` regions already entered.
    #[inline]
    fn check_depth(&self, height: usize) -> Result<(), ExecError> {
        match self.config.max_depth {
            Some(max) if height >= max as usize => Err(ExecError::LimitExceeded {
                limit: Limit::Depth,
                budget: u64::from(max),
            }),
            _ => Ok(()),
        }
    }

    /// The dispatch loop over one activation's code, until it calls,
    /// returns or suspends.
    fn run_activation(
        &mut self,
        d: &DecodedModule,
        fid: FuncId,
        frame: &mut Frame,
        cursors: &mut Vec<Cursor>,
    ) -> Result<Transfer, ExecError> {
        let func = d.func(fid);
        let mut pc = cursors.last().expect("an activation has a body cursor").pc as usize;
        loop {
            if self.ticks_left == 0 && !self.tick_boundary()? {
                cursors.last_mut().expect("current region").pc = pc as u32;
                return Ok(Transfer::Suspend);
            }
            self.ticks_left -= 1;
            match self.exec_inst(func, frame, cursors, pc, &func.code[pc]) {
                Ok(Next::At(next)) => pc = next,
                Ok(Next::Leave(transfer)) => return Ok(transfer),
                // A trap without a site is this instruction's. Sited
                // traps (ops) pass through.
                Err(e) => return Err(site_at(func, pc, e)),
            }
        }
    }

    /// Executes `inst`, the instruction at `pc`, which has already
    /// ticked.
    fn exec_inst(
        &mut self,
        func: &DFunc,
        frame: &mut Frame,
        cursors: &mut Vec<Cursor>,
        pc: usize,
        inst: &DInst,
    ) -> Result<Next, ExecError> {
        match inst {
            DInst::Op(p) => {
                self.exec_op(func, frame, p)?;
                Ok(Next::At(pc + 1))
            }
            DInst::Lowered { steps, inst } => {
                self.exec_ops(func, frame, steps)?;
                self.exec_inst(func, frame, cursors, pc, inst)
            }
            DInst::Call { callee, .. } => {
                cursors.last_mut().expect("current region").pc = (pc + 1) as u32;
                Ok(Next::Leave(Transfer::Call {
                    callee: *callee,
                    site: pc,
                }))
            }
            DInst::Print { srcs } => {
                for (i, &s) in srcs.iter().enumerate() {
                    let sep = if i == 0 { "" } else { " " };
                    let _ = write!(self.output, "{sep}{}", frame.boxed(s));
                }
                self.output.push('\n');
                Ok(Next::At(pc + 1))
            }
            DInst::If {
                cond,
                then_r,
                else_r,
            } => {
                let arm = if frame.reg(*cond) != 0 {
                    *then_r
                } else {
                    *else_r
                };
                self.enter_region(func, cursors, pc + 1, arm, RegionKind::Arm)
            }
            DInst::Loop(_) | DInst::LoopBulk(..) => self.enter_loop(func, frame, cursors, pc),
            DInst::DoWhile { carried, body, .. } => {
                copy_slots(frame, carried, &func.regions[*body as usize].args);
                self.count_loop(false);
                self.enter_region(
                    func,
                    cursors,
                    pc + 1,
                    *body,
                    RegionKind::DoWhile { header: pc as u32 },
                )
            }
            DInst::Yield { cond, moves } => {
                // The moves may overwrite a `dowhile` condition that is
                // also a carried argument: read it first.
                let again = cond.is_some_and(|c| frame.reg(c) != 0);
                frame.run(moves);
                self.leave_region(func, frame, cursors, again)
            }
            DInst::Ret { src } => Ok(Next::Leave(Transfer::Ret(*src))),
            DInst::Roi { begin } => {
                let now = Instant::now();
                let elapsed = Stats::clamp_ns(now.duration_since(self.phase_start).as_nanos());
                self.stats.wall_ns[self.phase as usize] =
                    self.stats.wall_ns[self.phase as usize].saturating_add(elapsed);
                self.phase_start = now;
                self.phase = if *begin { Phase::Roi } else { Phase::Init };
                Ok(Next::At(pc + 1))
            }
        }
    }

    /// Enters `region` from the header at the current slot: checks the
    /// depth limit, leaves `resume` in the current cursor for when the
    /// region is left, and pushes the region's cursor.
    fn enter_region(
        &mut self,
        func: &DFunc,
        cursors: &mut Vec<Cursor>,
        resume: usize,
        region: u32,
        kind: RegionKind,
    ) -> Result<Next, ExecError> {
        self.check_depth(cursors.len())?;
        cursors.last_mut().expect("current region").pc = resume as u32;
        let start = func.regions[region as usize].start;
        cursors.push(Cursor {
            pc: start,
            start,
            kind,
        });
        Ok(Next::At(start as usize))
    }

    /// The region's terminator ran and its values are in the consumer's
    /// slots. An arm resumes the enclosing region; a loop body starts
    /// the next iteration; a `dowhile` body runs `again`, or copies its
    /// carried arguments into the loop's destinations and resumes the
    /// enclosing region.
    fn leave_region(
        &mut self,
        func: &DFunc,
        frame: &mut Frame,
        cursors: &mut Vec<Cursor>,
        again: bool,
    ) -> Result<Next, ExecError> {
        let top = cursors.last_mut().expect("current region");
        match top.kind {
            RegionKind::Body => unreachable!("the verifier ends a function body with ret"),
            RegionKind::Arm => Ok(leave_to_parent(cursors)),
            RegionKind::Loop { .. } => self.next_iteration(func, frame, cursors),
            RegionKind::DoWhile { .. } if again => {
                top.pc = top.start;
                Ok(Next::At(top.start as usize))
            }
            RegionKind::DoWhile { header } => {
                let DInst::DoWhile { body, dsts, .. } = func.code[header as usize].own() else {
                    unreachable!("a dowhile body's header is a dowhile")
                };
                copy_slots(frame, &func.regions[*body as usize].args, dsts);
                Ok(leave_to_parent(cursors))
            }
        }
    }

    /// The countdown ran out. A spent fuel budget fails the run
    /// ([`Limit::Fuel`], which wins over any grant); otherwise a batch
    /// run renews its window, and a session loads its pending grant —
    /// or, with none left, returns `false` to suspend before the
    /// instruction that wanted the tick. Suspending touches no other
    /// interpreter state, which is why checksums, stats and trap sites
    /// are byte-identical for every quantum size.
    #[cold]
    #[inline(never)]
    fn tick_boundary(&mut self) -> Result<bool, ExecError> {
        self.ticks_spent += self.window;
        self.window = 0;
        let fuel_left = match self.config.fuel {
            Some(fuel) if self.ticks_spent >= fuel => {
                return Err(ExecError::LimitExceeded {
                    limit: Limit::Fuel,
                    budget: fuel,
                })
            }
            Some(fuel) => fuel - self.ticks_spent,
            None => u64::MAX,
        };
        let window = if self.sliced {
            let Some(granted) = self.grant.take() else {
                return Ok(false);
            };
            granted
        } else {
            u64::MAX
        };
        self.window = fuel_left.min(window);
        self.ticks_left = self.window;
        Ok(true)
    }

    /// Snapshots a `foreach`'s collection, whether dispatch or a nested
    /// loop op opens it: counts the iteration (`IterElem` per entry,
    /// `IterWord` per scanned occupancy word) and holds the entries as
    /// register bits, or, when the body binds a `str` or tuple (`args`'
    /// first `bound`), as values boxed by the bound slots' kinds.
    fn foreach_iter(&mut self, id: CollId, args: &[Slot], bound: usize) -> LoopIter {
        let imp = self.impl_of(id);
        let coll = &self.heap[id.0 as usize];
        let (n, words) = (coll.len(), coll.iter_scan_words());
        let iter = if args[..bound].iter().any(|a| a.is_boxed()) {
            let val = if bound == 2 {
                args[1].kind()
            } else {
                Kind::Void
            };
            let mut entries = Vec::with_capacity(n);
            coll.for_each(|k, v| {
                entries.push((Value::own(k, args[0].kind()), Value::own(v, val)));
            });
            LoopIter::EachBoxed(entries.into_iter())
        } else {
            let mut entries = Vec::with_capacity(n);
            coll.for_each(|k, v| entries.push((k.bits(), v.bits())));
            LoopIter::Each { entries, next: 0 }
        };
        self.bump(imp, CollOp::IterElem, n as u64);
        self.bump(imp, CollOp::IterWord, words);
        iter
    }

    /// Enters a `foreach`/`forrange` (generic or bulk): opens the loop,
    /// decides whether its iterations may run through the header's plan
    /// (counting the loop's tier and running the plan's prelude if so),
    /// then binds the first iteration. A loop with no iterations lands
    /// its carried values in its destinations without entering the body.
    fn enter_loop(
        &mut self,
        func: &DFunc,
        frame: &mut Frame,
        cursors: &mut Vec<Cursor>,
        pc: usize,
    ) -> Result<Next, ExecError> {
        let (head, plan) = loop_at(func, pc);
        let iter = self.open_loop(func, frame, head);
        let plan = plan.filter(|p| self.plan_may_run(p, cursors.len()));
        self.count_loop(plan.is_some());
        if let Some(plan) = plan {
            self.exec_ops(func, frame, &plan.prelude)?;
        }
        if iter.is_done() {
            copy_slots(frame, head.carried_args(func), &head.dsts);
            return Ok(Next::At(pc + 1));
        }
        self.enter_region(
            func,
            cursors,
            pc + 1,
            head.body,
            RegionKind::Loop {
                header: pc as u32,
                iter,
                bulk: plan.is_some(),
            },
        )?;
        self.next_iteration(func, frame, cursors)
    }

    /// Opens the `foreach`/`forrange` header `head`, as dispatch and a
    /// [`BulkOp::Loop`] both do: snapshots the collection or reads the
    /// bounds, then copies the initial carried values into the body's
    /// carried argument slots.
    fn open_loop(&mut self, func: &DFunc, frame: &mut Frame, head: &LoopHeader) -> LoopIter {
        let args = head.args(func);
        let iter = match head.over {
            LoopOver::Coll(coll) => self.foreach_iter(frame.coll(coll), args, head.bound as usize),
            LoopOver::Range { lo, hi } => LoopIter::Range {
                next: frame.reg(lo),
                hi: frame.reg(hi),
            },
        };
        copy_slots(frame, &head.carried, head.carried_args(func));
        iter
    }

    /// Whether a loop entered with `height` regions open may run its
    /// iterations through `plan`: the plan's regions fit under the depth
    /// limit from `height` (so the generic loop could not have tripped it
    /// either), and a plan with no static worst case (it holds a loop)
    /// runs only where no fuel limit or session grant can end a tick
    /// window inside an iteration.
    fn plan_may_run(&self, plan: &BulkPlan, height: usize) -> bool {
        (plan.worst.is_some() || self.config.fuel.is_none() && !self.sliced)
            && self
                .config
                .max_depth
                .is_none_or(|max| height + plan.depth as usize <= max as usize)
    }

    /// Counts one loop entry by tier: `bulk` when its iterations may run
    /// through a plan, `generic` otherwise.
    #[inline]
    fn count_loop(&mut self, bulk: bool) {
        if bulk {
            self.counts.bulk_loops += 1;
        } else {
            self.counts.generic_loops += 1;
        }
    }

    /// Binds the next iteration of the `foreach`/`forrange` whose body
    /// is the top cursor. While the loop may use its plan and the
    /// countdown covers an iteration's worst case, iterations run right
    /// here through the plan; the first one that cannot (it would
    /// straddle a budget boundary) starts the body region generically.
    /// After the last iteration the carried values land in the loop's
    /// destinations and the enclosing region resumes. However it leaves,
    /// the ticks its plan iterations took count as plan ticks.
    fn next_iteration(
        &mut self,
        func: &DFunc,
        frame: &mut Frame,
        cursors: &mut Vec<Cursor>,
    ) -> Result<Next, ExecError> {
        let top = cursors.last_mut().expect("loop region");
        let RegionKind::Loop { header, iter, bulk } = &mut top.kind else {
            unreachable!("{:?} is not a foreach/forrange body", top.kind)
        };
        let (head, plan) = loop_at(func, *header as usize);
        let (args, bound) = (head.args(func), head.bound as usize);
        let plan = plan.filter(|_| *bulk);
        let before = self.ticks_left;
        let next = loop {
            if !iter.bind(frame, args, bound) {
                copy_slots(frame, &args[bound..], &head.dsts);
                break Ok(leave_to_parent(cursors));
            }
            match plan {
                Some(plan)
                    if plan
                        .worst
                        .is_none_or(|worst| self.ticks_left >= u64::from(worst)) =>
                {
                    if let Err(e) = self.exec_plan_iteration(func, frame, plan) {
                        break Err(e);
                    }
                }
                _ => {
                    top.pc = top.start;
                    break Ok(Next::At(top.start as usize));
                }
            }
        };
        if plan.is_some() {
            self.counts.plan_ticks += before - self.ticks_left;
        }
        next
    }

    /// One bulk loop iteration: the plan's ops, then the terminal yield
    /// copied into the carried argument slots. The caller checked that
    /// the countdown covers the iteration's worst case; each op deducts
    /// the slots it stands for, so a trap leaves the exact count.
    #[inline(always)]
    fn exec_plan_iteration(
        &mut self,
        func: &DFunc,
        frame: &mut Frame,
        plan: &BulkPlan,
    ) -> Result<(), ExecError> {
        self.exec_ops(func, frame, &plan.ops)?;
        self.ticks_left -= u64::from(plan.tail);
        frame.run(&plan.yields);
        Ok(())
    }

    /// Runs ops in order, each inline: a plan's prelude, iteration or
    /// `if` arm, or the path steps of a slot dispatch reached.
    fn exec_ops(
        &mut self,
        func: &DFunc,
        frame: &mut Frame,
        ops: &[PlanOp],
    ) -> Result<(), ExecError> {
        for p in ops {
            self.exec_plan_op(func, frame, p)?;
        }
        Ok(())
    }

    /// The nested loop at code slot `header` (a [`BulkOp::Loop`]), run to
    /// completion through its `plan`: opened as dispatch opens it, every
    /// iteration through the plan, then the carried values landed in the
    /// header's destinations. The enclosing plan may run only where this
    /// one may (its depth counts this loop's regions, and its worst case
    /// is unbounded), so no iteration needs the countdown check.
    fn run_loop_in_place(
        &mut self,
        func: &DFunc,
        frame: &mut Frame,
        header: usize,
        plan: &BulkPlan,
    ) -> Result<(), ExecError> {
        let (head, _) = loop_at(func, header);
        let mut iter = self.open_loop(func, frame, head);
        self.count_loop(true);
        self.exec_ops(func, frame, &plan.prelude)?;
        let args = head.args(func);
        while iter.bind(frame, args, head.bound as usize) {
            self.exec_plan_iteration(func, frame, plan)?;
        }
        copy_slots(frame, head.carried_args(func), &head.dsts);
        Ok(())
    }

    /// The op of a slot dispatch reached, out of line: dispatch's own
    /// loop stays small, and a lone op pays none of the set-up a loop
    /// over ops hoists.
    #[inline(never)]
    fn exec_op(&mut self, func: &DFunc, frame: &mut Frame, p: &PlanOp) -> Result<(), ExecError> {
        self.exec_plan_op(func, frame, p)
    }

    /// Runs one op, whether dispatch reached its slot or a plan runs it
    /// (a nested loop opens through [`Self::open_loop`]): deducts the
    /// slots the op stands for (none under dispatch, which ticked the
    /// slot) and sites traps at the op's code slot. The scalar step and
    /// a plan's branch run inline; every other op through
    /// [`Self::exec_heap_op`].
    #[inline(always)]
    fn exec_plan_op(
        &mut self,
        func: &DFunc,
        frame: &mut Frame,
        p: &PlanOp,
    ) -> Result<(), ExecError> {
        self.ticks_left -= u64::from(p.ticks);
        match &p.op {
            BulkOp::Scalar(u) => match exec_scalar(func, frame, *u) {
                Ok(()) => Ok(()),
                Err(kind) => Err(trap_at(func, p.site as usize, kind)),
            },
            BulkOp::If {
                test,
                then_ops,
                else_ops,
                ends,
            } => {
                let (ops, (yields, tail)) = if holds(frame, *test) {
                    (then_ops, &ends[0])
                } else {
                    (else_ops, &ends[1])
                };
                self.exec_ops(func, frame, ops)?;
                self.ticks_left -= u64::from(*tail);
                frame.run(yields);
                Ok(())
            }
            op => self.exec_heap_op(func, frame, p.site as usize, op),
        }
    }

    /// Every op but the scalar step and the branch, sited at code slot
    /// `site`. Out of line, so those pay none of its frame.
    #[inline(never)]
    fn exec_heap_op(
        &mut self,
        func: &DFunc,
        frame: &mut Frame,
        site: usize,
        op: &BulkOp,
    ) -> Result<(), ExecError> {
        let at = |k| trap_at(func, site, k);
        match op {
            BulkOp::Scalar(_) | BulkOp::If { .. } => {
                unreachable!("exec_plan_op runs the scalar step and the branch")
            }
            BulkOp::Proj { base, field, dst } => {
                let v = project(&frame.side[base.index()], *field);
                frame.store(*dst, v);
            }
            BulkOp::Read { coll, key, dst } => {
                match self.read(frame.coll(*coll), frame.arg(*key)) {
                    Ok(v) => frame.put(*dst, v),
                    Err(kind) => return Err(at(kind)),
                }
            }
            BulkOp::Write {
                coll,
                key,
                val,
                base,
                dst,
            } => {
                self.write(frame.coll(*coll), frame.arg(*key), frame.arg(*val))
                    .map_err(at)?;
                frame.copy(*base, *dst);
            }
            BulkOp::Has { coll, key, dst } => {
                let has = self.has(frame.coll(*coll), frame.arg(*key));
                frame.set_reg(*dst, u64::from(has));
            }
            BulkOp::InsertSet {
                coll,
                elem,
                base,
                dst,
            } => {
                self.insert_elem(frame.coll(*coll), frame.arg(*elem))
                    .map_err(at)?;
                frame.copy(*base, *dst);
            }
            BulkOp::InsertMap {
                coll,
                key,
                val_ty,
                base,
                dst,
            } => {
                let val_ty = &func.types[*val_ty as usize];
                self.insert_key(frame.coll(*coll), frame.arg(*key), val_ty)
                    .map_err(|e| site_at(func, site, e))?;
                frame.copy(*base, *dst);
            }
            BulkOp::InsertSeq {
                coll,
                index,
                val,
                base,
                dst,
            } => {
                let index = frame.reg(*index) as usize;
                self.insert_seq(frame.coll(*coll), index, frame.arg(*val))
                    .map_err(at)?;
                frame.copy(*base, *dst);
            }
            BulkOp::Remove {
                coll,
                key,
                base,
                dst,
            } => {
                self.remove(frame.coll(*coll), frame.arg(*key))
                    .map_err(at)?;
                frame.copy(*base, *dst);
            }
            BulkOp::Size { coll, dst } => {
                let n = self.size(frame.coll(*coll));
                frame.set_reg(*dst, n);
            }
            BulkOp::Len { coll, dst } => {
                let n = self.heap[frame.coll(*coll).0 as usize].len();
                frame.set_reg(*dst, n as u64);
            }
            BulkOp::Clear { coll, base, dst } => {
                let id = frame.coll(*coll);
                let imp = self.impl_of(id);
                self.bump(imp, CollOp::Clear, 1);
                self.heap[id.0 as usize].clear();
                self.refresh_bytes(id);
                frame.copy(*base, *dst);
            }
            BulkOp::Union {
                coll,
                src,
                base,
                dst,
            } => {
                let dst_id = frame.coll(*coll);
                self.union_into(dst_id, frame.coll(*src)).map_err(at)?;
                self.refresh_bytes(dst_id);
                frame.copy(*base, *dst);
            }
            BulkOp::Enc { e, v, dst } => {
                let id = self.enc(*e, frame.arg(*v));
                frame.set_reg(*dst, id as u64);
            }
            BulkOp::Dec { e, v, dst } => match self.dec(*e, frame.reg(*v) as usize) {
                Ok(value) => frame.put(*dst, value),
                Err(kind) => return Err(at(kind)),
            },
            BulkOp::EnumAdd { e, v, dst } => {
                let id = self.enum_add(*e, frame.arg(*v));
                frame.set_reg(*dst, id as u64);
            }
            BulkOp::Literal { ty, elems, e, dst } => {
                let id = self
                    .alloc_collection(&func.types[*ty as usize])
                    .map_err(|e| site_at(func, site, e))?;
                self.literal(id, &func.literals[*elems as usize], *e)
                    .map_err(at)?;
                frame.set_reg(*dst, u64::from(id.0));
            }
            BulkOp::New { ty, dst } => {
                let v = self
                    .default_value(&func.types[*ty as usize])
                    .map_err(|e| site_at(func, site, e))?;
                frame.store(*dst, v);
            }
            BulkOp::Tuple { srcs, dst } => {
                let fields: Vec<Value> = srcs.iter().map(|&s| frame.boxed(s)).collect();
                frame.side[dst.index()] = Value::Tuple(fields.into());
            }
            BulkOp::Loop { plan } => self
                .run_loop_in_place(func, frame, site, plan)
                .map_err(|e| site_at(func, site, e))?,
        }
        Ok(())
    }

    /// `union(dst, src)`: one merge when both are the same dense or flat
    /// implementation, else `src`'s entries inserted one by one (each
    /// key already of the destination's element kind). Out of line:
    /// `exec_plan_op` calls it too, and inlined there it made every plan
    /// op slower.
    #[inline(never)]
    fn union_into(&mut self, dst: CollId, src: CollId) -> Result<(), TrapKind> {
        if dst == src {
            return Ok(());
        }
        let (di, si) = (dst.0 as usize, src.0 as usize);
        let dst_imp = self.impl_of(dst);
        let b = &self.heap[si];
        let (src_imp, n, words) = (b.impl_kind(), b.len() as u64, b.iter_scan_words());
        // Borrow both disjointly.
        let (a, b) = if di < si {
            let (lo, hi) = self.heap.split_at_mut(si);
            (&mut lo[di], &hi[0])
        } else {
            let (lo, hi) = self.heap.split_at_mut(di);
            (&mut hi[0], &lo[si])
        };
        if let Some((op, count)) = a.union_merge(b) {
            self.bump(dst_imp, op, count);
            return Ok(());
        }
        let mut inserted = Ok(());
        b.for_each(|key, _| {
            if inserted.is_ok() {
                inserted = a.insert(key).map(drop);
            }
        });
        self.bump(src_imp, CollOp::IterElem, n);
        self.bump(src_imp, CollOp::IterWord, words);
        self.bump(dst_imp, CollOp::UnionElem, n);
        inserted
    }
}

/// Field `n` of a tuple: a path's `Field` step ([`BulkOp::Proj`]).
fn project(v: &Value, n: u32) -> Value {
    match v {
        Value::Tuple(t) => t[n as usize].clone(),
        other => unreachable!("field {n} of {other:?}: the verifier applies paths to their types"),
    }
}

/// Copies each `srcs[j]` into `dsts[j]` in order, skipping self-copies:
/// initial carried values into a loop body, final ones into the loop's
/// destinations.
#[inline]
fn copy_slots(frame: &mut Frame, srcs: &[Slot], dsts: &[Slot]) {
    for (&s, &t) in srcs.iter().zip(dsts) {
        if s != t {
            frame.copy(s, t);
        }
    }
}

/// Pops the top region's cursor and continues where the enclosing region
/// left off.
fn leave_to_parent(cursors: &mut Vec<Cursor>) -> Next {
    cursors.pop();
    let parent = cursors
        .last()
        .expect("an entered region has an enclosing one");
    Next::At(parent.pc as usize)
}

/// The scalar step of the `const`, arithmetic, comparison, negation and
/// cast ops: register bits in, register bits out, typed at decode, under
/// one match. Integer arithmetic wraps; `div`/`rem` by zero, and
/// `i64::MIN` by -1, trap.
#[inline(always)]
fn exec_scalar(func: &DFunc, frame: &mut Frame, u: UScalar) -> Result<(), TrapKind> {
    use BinOp::*;
    let r = |s: Slot| frame.reg(s);
    let i = |s: Slot| frame.reg(s) as i64;
    let f = |s: Slot| f64::from_bits(frame.reg(s));
    let zero = || TrapKind::DivideByZero;
    let (dst, bits) = match u {
        UScalar::Const { pool, dst } if dst.is_boxed() => {
            frame.side[dst.index()] = func.strs[pool as usize].clone();
            return Ok(());
        }
        UScalar::Const { pool, dst } => (dst, func.consts[pool as usize]),
        UScalar::Bin { op: Add, a, b, dst } => (dst, r(a).wrapping_add(r(b))),
        UScalar::Bin { op: Sub, a, b, dst } => (dst, r(a).wrapping_sub(r(b))),
        UScalar::Bin { op: Mul, a, b, dst } => (dst, r(a).wrapping_mul(r(b))),
        UScalar::Bin { op: Div, a, b, dst } => (dst, r(a).checked_div(r(b)).ok_or_else(zero)?),
        UScalar::Bin { op: Rem, a, b, dst } => (dst, r(a).checked_rem(r(b)).ok_or_else(zero)?),
        UScalar::Bin { op: Min, a, b, dst } => (dst, r(a).min(r(b))),
        UScalar::Bin { op: Max, a, b, dst } => (dst, r(a).max(r(b))),
        UScalar::Bin { op: And, a, b, dst } => (dst, r(a) & r(b)),
        UScalar::Bin { op: Or, a, b, dst } => (dst, r(a) | r(b)),
        UScalar::Bin { op: Xor, a, b, dst } => (dst, r(a) ^ r(b)),
        UScalar::Bin { op: Shl, a, b, dst } => (dst, r(a).wrapping_shl(r(b) as u32)),
        UScalar::Bin { op: Shr, a, b, dst } => (dst, r(a).wrapping_shr(r(b) as u32)),
        UScalar::BinI { op: Div, a, b, dst } => {
            (dst, i(a).checked_div(i(b)).ok_or_else(zero)? as u64)
        }
        UScalar::BinI { op: Rem, a, b, dst } => {
            (dst, i(a).checked_rem(i(b)).ok_or_else(zero)? as u64)
        }
        UScalar::BinI { op: Min, a, b, dst } => (dst, i(a).min(i(b)) as u64),
        UScalar::BinI { op: Max, a, b, dst } => (dst, i(a).max(i(b)) as u64),
        UScalar::BinI { op: Shr, a, b, dst } => (dst, i(a).wrapping_shr(r(b) as u32) as u64),
        UScalar::BinF { op: Add, a, b, dst } => (dst, (f(a) + f(b)).to_bits()),
        UScalar::BinF { op: Sub, a, b, dst } => (dst, (f(a) - f(b)).to_bits()),
        UScalar::BinF { op: Mul, a, b, dst } => (dst, (f(a) * f(b)).to_bits()),
        UScalar::BinF { op: Div, a, b, dst } => (dst, (f(a) / f(b)).to_bits()),
        UScalar::BinF { op: Rem, a, b, dst } => (dst, (f(a) % f(b)).to_bits()),
        UScalar::BinF { op: Min, a, b, dst } => (dst, f(a).min(f(b)).to_bits()),
        UScalar::BinF { op: Max, a, b, dst } => (dst, f(a).max(f(b)).to_bits()),
        UScalar::BinI { op, .. } | UScalar::BinF { op, .. } => {
            unreachable!("{op:?}: decode gives i64 only its signed ops, f64 no bitwise or shift op")
        }
        UScalar::Cmp { test, dst } => (dst, u64::from(holds(frame, test))),
        UScalar::Not { a, dst } => (dst, r(a) ^ 1),
        UScalar::Cast { a, dst } => {
            let x = r(a);
            let bits = match (a.kind(), dst.kind()) {
                (Kind::F64, Kind::F64) => x,
                (Kind::F64, _) => f64::from_bits(x) as u64,
                (Kind::I64, Kind::F64) => (x as i64 as f64).to_bits(),
                (_, Kind::F64) => (x as f64).to_bits(),
                _ => x,
            };
            (dst, bits)
        }
    };
    frame.set_reg(dst, bits);
    Ok(())
}

/// Whether `test` holds on `frame`'s slots.
#[inline(always)]
fn holds(frame: &Frame, test: Test) -> bool {
    let r = |i: u32| frame.regs[i as usize];
    let f = |i: u32| f64::from_bits(r(i));
    match test {
        Test::Bool(c) => r(c) != 0,
        Test::Eq(a, b) => r(a) == r(b),
        Test::Ne(a, b) => r(a) != r(b),
        Test::LtU(a, b) => r(a) < r(b),
        Test::LeU(a, b) => r(a) <= r(b),
        Test::LtI(a, b) => (r(a) as i64) < r(b) as i64,
        Test::LeI(a, b) => r(a) as i64 <= r(b) as i64,
        Test::LtF(a, b) => f(a).total_cmp(&f(b)).is_lt(),
        Test::LeF(a, b) => f(a).total_cmp(&f(b)).is_le(),
        Test::Boxed { a, b, holds } => {
            let ord = frame.side[a as usize].cmp(&frame.side[b as usize]);
            holds[(ord as i8 + 1) as usize]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ade_ir::parse::parse_module;
    use ade_ir::{MapSel, SetSel};

    fn run(text: &str) -> Outcome {
        let m = parse_module(text).expect("parses");
        ade_ir::verify::verify_module(&m).expect("verifies");
        Interpreter::new(&m, ExecConfig::default())
            .run("main")
            .expect("runs")
    }

    #[test]
    fn arithmetic_and_print() {
        let out = run(
            "fn @main() -> void {\n  %a = const 2u64\n  %b = const 3u64\n  %c = mul %a, %b\n  print %c\n  ret\n}\n",
        );
        assert_eq!(out.output, "6\n");
    }

    #[test]
    fn histogram_counts_duplicates() {
        let out = run(r#"
fn @main() -> void {
  %input = new Seq<f64>
  %a = const 1.5f64
  %b = const 2.5f64
  %z = const 0u64
  %i0 = insert %input, %z, %a
  %o = const 1u64
  %i1 = insert %i0, %o, %b
  %t = const 2u64
  %i2 = insert %i1, %t, %a
  %hist = new Map<f64, u64>
  %out = foreach %i2 carry(%hist) as (%i: u64, %val: f64, %h: Map<f64, u64>) {
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
  %c1 = read %out, %a
  %c2 = read %out, %b
  print %c1, %c2
  ret
}
"#);
        assert_eq!(out.output, "2 1\n");
    }

    /// Every run on one interpreter starts from a fresh heap and fresh
    /// counts, and the ticks of a run an error stopped stay readable.
    #[test]
    fn each_run_starts_clean() {
        let m = parse_module(
            "fn @main() -> void {
  %s = new Set<u64>
  %zero = const 0u64
  %n = const 8u64
  %t = forrange %zero, %n carry(%s) as (%i: u64, %ss: Set<u64>) {
    %s1 = insert %ss, %i
    yield %s1
  }
  %k = size %t
  print %k
  ret
}",
        )
        .expect("parses");
        let mut interp = Interpreter::new(&m, ExecConfig::default());
        let first = interp.run("main").expect("runs");
        let second = interp.run("main").expect("runs");
        assert_eq!(first.output, "8\n");
        assert_eq!(first.counts.backends.values().sum::<u64>(), 1);
        assert_eq!(first.counts.bulk_loops, 1);
        assert_eq!(
            (second.output, second.stats.per_phase, second.counts),
            (first.output, first.stats.per_phase, first.counts)
        );
        assert_eq!(
            (second.fuel_ticks, second.stats.peak_bytes),
            (first.fuel_ticks, first.stats.peak_bytes)
        );
        let missing = interp.run("absent").expect_err("no such entry");
        assert_eq!(missing.code(), "no-entry");
        assert_eq!(interp.fuel_ticks(), 0);
        let mut limited = Interpreter::new(
            &m,
            ExecConfig {
                fuel: Some(5),
                ..ExecConfig::default()
            },
        );
        let spent = limited.run("main").expect_err("fuel runs out");
        assert_eq!(spent.code(), Limit::Fuel.code());
        assert_eq!(limited.fuel_ticks(), 5);
    }

    #[test]
    fn enum_translations_round_trip() {
        let out = run(r#"
enum e0: str

fn @main() -> void {
  %s = const "foo"
  %t = const "bar"
  %i = enumadd e0, %s
  %j = enumadd e0, %t
  %k = enumadd e0, %s
  %same = eq %i, %k
  %diff = ne %i, %j
  %v = dec e0, %i
  print %same, %diff, %v
  ret
}
"#);
        assert_eq!(out.output, "true true foo\n");
    }

    #[test]
    fn selection_annotations_reach_runtime() {
        let text = r#"
fn @main() -> void {
  %s = new Set{Bit}<idx>
  %x = const 3u64
  %i = cast %x to idx
  %s1 = insert %s, %i
  %h = has %s1, %i
  print %h
  ret
}
"#;
        let m = parse_module(text).expect("parses");
        let out = Interpreter::new(&m, ExecConfig::default())
            .run("main")
            .expect("runs");
        assert_eq!(out.output, "true\n");
        assert!(out.stats.totals().get(ImplKind::BitSet, CollOp::Insert) == 1);
        assert!(out.stats.totals().dense_accesses() >= 2);
    }

    #[test]
    fn defaults_knob_switches_hash_to_swiss() {
        let text = "fn @main() -> void {\n  %s = new Set<u64>\n  %x = const 1u64\n  %s1 = insert %s, %x\n  ret\n}\n";
        let m = parse_module(text).expect("parses");
        let cfg = ExecConfig {
            defaults: crate::heap::SelectionDefaults {
                set: SetSel::Swiss,
                map: MapSel::Swiss,
            },
            ..ExecConfig::default()
        };
        let out = Interpreter::new(&m, cfg).run("main").expect("runs");
        assert_eq!(
            out.stats.totals().get(ImplKind::SwissSet, CollOp::Insert),
            1
        );
        assert_eq!(out.stats.totals().get(ImplKind::HashSet, CollOp::Insert), 0);
    }

    #[test]
    fn foreach_set_and_dowhile() {
        let out = run(r#"
fn @main() -> void {
  %s = new Set<u64>
  %a = const 10u64
  %b = const 20u64
  %s1 = insert %s, %a
  %s2 = insert %s1, %b
  %zero = const 0u64
  %sum = foreach %s2 carry(%zero) as (%v: u64, %acc: u64) {
    %n = add %acc, %v
    yield %n
  }
  print %sum
  %count = dowhile carry(%zero) as (%c: u64) {
    %one = const 1u64
    %c1 = add %c, %one
    %five = const 5u64
    %go = lt %c1, %five
    yield %go, %c1
  }
  print %count
  ret
}
"#);
        assert_eq!(out.output, "30\n5\n");
    }

    #[test]
    fn nested_collections_and_union() {
        let out = run(r#"
fn @main() -> void {
  %m = new Map<u64, Set<u64>>
  %k1 = const 1u64
  %k2 = const 2u64
  %m1 = insert %m, %k1
  %m2 = insert %m1, %k2
  %v1 = const 100u64
  %v2 = const 200u64
  %m3 = insert %m2[%k1], %v1
  %m4 = insert %m3[%k1], %v2
  %m5 = insert %m4[%k2], %v1
  %a = read %m5, %k1
  %b = read %m5, %k2
  %u = union %b, %a
  %n = size %u
  print %n
  ret
}
"#);
        assert_eq!(out.output, "2\n");
    }

    #[test]
    fn calls_pass_scalars_and_collections() {
        let out = run(r#"
fn @main() -> void {
  %s = new Set<u64>
  %x = const 5u64
  %s1 = insert %s, %x
  %n = call @1(%s1)
  print %n
  ret
}

fn @count(%c: Set<u64>) -> u64 {
  %n = size %c
  ret %n
}
"#);
        assert_eq!(out.output, "1\n");
    }

    #[test]
    fn roi_markers_split_phases() {
        let text = r#"
fn @main() -> void {
  %s = new Set<u64>
  %x = const 1u64
  %s1 = insert %s, %x
  roi begin
  %h = has %s1, %x
  roi end
  ret
}
"#;
        let m = parse_module(text).expect("parses");
        let out = Interpreter::new(&m, ExecConfig::default())
            .run("main")
            .expect("runs");
        assert_eq!(
            out.stats
                .phase(Phase::Init)
                .get(ImplKind::HashSet, CollOp::Insert),
            1
        );
        assert_eq!(
            out.stats
                .phase(Phase::Roi)
                .get(ImplKind::HashSet, CollOp::Has),
            1
        );
        assert_eq!(
            out.stats
                .phase(Phase::Init)
                .get(ImplKind::HashSet, CollOp::Has),
            0
        );
    }

    #[test]
    fn fuel_limits_runaway_loops() {
        let text = r#"
fn @main() -> void {
  %zero = const 0u64
  %r = dowhile carry(%zero) as (%c: u64) {
    %t = const true
    yield %t, %c
  }
  ret
}
"#;
        let m = parse_module(text).expect("parses");
        let cfg = ExecConfig {
            fuel: Some(10_000),
            ..ExecConfig::default()
        };
        let err = Interpreter::new(&m, cfg)
            .run("main")
            .expect_err("must stop");
        assert_eq!(
            err,
            ExecError::LimitExceeded {
                limit: crate::trap::Limit::Fuel,
                budget: 10_000
            }
        );
        assert!(err.to_string().contains("fuel exhausted"));
    }

    #[test]
    fn heap_cell_budget_stops_allocation() {
        let text = r#"
fn @main() -> void {
  %m = new Map<u64, Set<u64>>
  %lo = const 0u64
  %hi = const 100u64
  %r = forrange %lo, %hi carry(%m) as (%i: u64, %c: Map<u64, Set<u64>>) {
    %c1 = insert %c, %i
    yield %c1
  }
  ret
}
"#;
        let m = parse_module(text).expect("parses");
        let cfg = ExecConfig {
            max_heap_cells: Some(8),
            ..ExecConfig::default()
        };
        let err = Interpreter::new(&m, cfg)
            .run("main")
            .expect_err("must stop");
        assert_eq!(
            err,
            ExecError::LimitExceeded {
                limit: crate::trap::Limit::HeapCells,
                budget: 8
            }
        );
        // Unlimited (the default) still runs fine.
        let ok = Interpreter::new(&m, ExecConfig::default()).run("main");
        assert!(ok.is_ok());
    }

    #[test]
    fn depth_limit_stops_runaway_recursion() {
        let text = r#"
fn @main() -> void {
  %x = const 0u64
  %r = call @1(%x)
  ret
}

fn @spin(%n: u64) -> u64 {
  %r = call @1(%n)
  ret %r
}
"#;
        let m = parse_module(text).expect("parses");
        let cfg = ExecConfig {
            max_depth: Some(64),
            ..ExecConfig::default()
        };
        let err = Interpreter::new(&m, cfg)
            .run("main")
            .expect_err("must stop");
        assert_eq!(
            err,
            ExecError::LimitExceeded {
                limit: crate::trap::Limit::Depth,
                budget: 64
            }
        );
    }

    #[test]
    fn guest_traps_are_typed_and_sited() {
        // Reading an absent map key is undefined behavior in the paper's
        // semantics; it must surface as a typed trap, not a panic.
        let text = r#"
fn @main() -> void {
  %m = new Map<u64, u64>
  %k = const 7u64
  %v = read %m, %k
  print %v
  ret
}
"#;
        let m = parse_module(text).expect("parses");
        let err = Interpreter::new(&m, ExecConfig::default())
            .run("main")
            .expect_err("must trap");
        let ExecError::GuestTrap { site, kind } = &err else {
            panic!("expected a guest trap, got {err:?}");
        };
        assert!(matches!(kind, crate::trap::TrapKind::MissingKey { .. }));
        let site = site.as_ref().expect("trap is attributed to a site");
        assert_eq!(site.func, "main");
        assert_eq!(err.code(), "missing-key");
        assert!(err.to_string().contains("guest trap at @main:"));
    }

    #[test]
    fn division_by_zero_traps() {
        let text = "fn @main() -> void {\n  %a = const 1u64\n  %z = const 0u64\n  %q = div %a, %z\n  print %q\n  ret\n}\n";
        let m = parse_module(text).expect("parses");
        let err = Interpreter::new(&m, ExecConfig::default())
            .run("main")
            .expect_err("must trap");
        assert_eq!(err.code(), "div-by-zero");
    }

    #[test]
    fn enc_sentinel_insert_into_dense_set_traps() {
        // Regression for the CLAUDE.md invariant: `enc` of a value the
        // enumeration has never seen yields the sentinel (usize::MAX),
        // which only membership probes may observe. Forcing it into a
        // dense-collection insert must raise the typed trap (this used
        // to abort the interpreter via a capacity-overflow panic).
        let text = r#"
enum e0: u64

fn @main() -> void {
  %x = const 42u64
  %id = enc e0, %x
  %s = new Set{Bit}<idx>
  %s1 = insert %s, %id
  ret
}
"#;
        let m = parse_module(text).expect("parses");
        ade_ir::verify::verify_module(&m).expect("verifies");
        let err = Interpreter::new(&m, ExecConfig::default())
            .run("main")
            .expect_err("must trap");
        let ExecError::GuestTrap { site, kind } = &err else {
            panic!("expected a guest trap, got {err:?}");
        };
        assert_eq!(*kind, crate::trap::TrapKind::SentinelInsert);
        assert_eq!(site.as_ref().map(|s| s.func.as_str()), Some("main"));
        assert_eq!(err.code(), "sentinel-insert");
    }

    #[test]
    fn enc_sentinel_membership_probe_stays_defined() {
        // The sentinel may flow into `has`/`remove`: both observe
        // absence, exactly as before this taxonomy existed.
        let text = r#"
enum e0: u64

fn @main() -> void {
  %x = const 42u64
  %id = enc e0, %x
  %s = new Set{Bit}<idx>
  %h = has %s, %id
  %s1 = remove %s, %id
  print %h
  ret
}
"#;
        let m = parse_module(text).expect("parses");
        let out = Interpreter::new(&m, ExecConfig::default())
            .run("main")
            .expect("membership probes of the sentinel are defined");
        assert_eq!(out.output, "false\n");
    }

    #[test]
    fn memory_tracking_sees_growth() {
        let text = r#"
fn @main() -> void {
  %s = new Set<u64>
  %lo = const 0u64
  %hi = const 1000u64
  %r = forrange %lo, %hi carry(%s) as (%i: u64, %c: Set<u64>) {
    %c1 = insert %c, %i
    yield %c1
  }
  ret
}
"#;
        let m = parse_module(text).expect("parses");
        let out = Interpreter::new(&m, ExecConfig::default())
            .run("main")
            .expect("runs");
        assert!(out.stats.peak_bytes > 1000 * 16, "{}", out.stats.peak_bytes);
        assert_eq!(
            out.stats.totals().get(ImplKind::HashSet, CollOp::Insert),
            1000
        );
    }
}
