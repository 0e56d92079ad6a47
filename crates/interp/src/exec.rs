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

use std::borrow::Cow;
use std::fmt;
use std::fmt::Write as _;
use std::time::Instant;

use ade_collections::SwissMap;
use ade_ir::{BinOp, CmpOp, FuncId, Module, Type};

use crate::decode::{
    BulkOp, BulkPlan, DFunc, DInst, DecodeOptions, DecodedModule, PlanOp, UScalar,
};
use crate::heap::{CollId, Collection, SelectionDefaults};
use crate::stats::{CollOp, ImplKind, Phase, Stats};
use crate::trap::{Limit, TrapKind, TrapSite};
use crate::value::Value;

/// Interpreter configuration.
#[derive(Clone, Debug)]
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
    /// Runtime metrics registry (default disabled). When enabled, the
    /// run publishes quantum grants (`exec_quanta_total`), executed
    /// ticks (`exec_fuel_ticks_total`, [`Outcome::fuel_ticks`]), loop
    /// entries by tier (`exec_loop_tier_total{tier=…}`: `bulk` when
    /// iterations may run through a plan, else `generic`), the ticks
    /// plan iterations took (`exec_plan_ticks_total`), the heap
    /// high-water mark (`exec_heap_hwm_bytes`) and per-reason stop
    /// tallies (`exec_stops_total{reason=…}`). Every update is commutative, so
    /// the published values are independent of scheduling; execution
    /// itself is untouched either way.
    pub metrics: ade_obs::MetricsRegistry,
}

impl Default for ExecConfig {
    fn default() -> ExecConfig {
        ExecConfig {
            defaults: SelectionDefaults::default(),
            fuel: None,
            max_heap_cells: None,
            max_depth: None,
            metrics: ade_obs::MetricsRegistry::disabled(),
        }
    }
}

/// A runtime failure: a missing entry point, guest undefined behavior
/// ([`ExecError::GuestTrap`]) or a configured budget running out
/// ([`ExecError::LimitExceeded`]). A panic inside the interpreter is a
/// host bug and propagates as a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The requested entry function does not exist.
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
                write!(f, "execution error: no function named @{entry}")
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
}

/// The runtime state of one enumeration class: the paper's
/// `Enum = (Enc, Dec)` pair, populated on the fly (§III-B).
#[derive(Debug, Default)]
struct RuntimeEnum {
    enc: SwissMap<Value, usize>,
    dec: Vec<Value>,
    cached_bytes: usize,
}

impl RuntimeEnum {
    fn bytes_estimate(&self) -> usize {
        self.enc.heap_bytes_fast() + self.dec.capacity() * std::mem::size_of::<Value>()
    }
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
    frame: Vec<Value>,
    /// The caller's `call` slot: where the return value lands, and where
    /// an error the callee cannot site is attributed. Unused for the
    /// entry activation.
    call_site: u32,
    /// Index of this activation's body cursor in [`Machine::cursors`].
    base: usize,
}

/// One entered region: the next code slot to run, the region's bounds,
/// and what its terminator resumes. Code slots are `u32`, like trap
/// sites (decoding checks that every function's code fits).
#[derive(Debug)]
struct Cursor {
    pc: u32,
    start: u32,
    end: u32,
    kind: RegionKind,
}

#[derive(Debug)]
enum RegionKind {
    /// A function body, left only by `ret`.
    Body,
    /// An `if` arm of the `If` at `header`, whose destinations receive
    /// the arm's yields.
    Arm { header: u32 },
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
    /// A `foreach`: the snapshot entries not yet bound.
    Each(std::vec::IntoIter<(Value, Value)>),
}

impl LoopIter {
    /// Whether no iteration is left.
    fn is_done(&self) -> bool {
        match self {
            LoopIter::Range { next, hi } => next >= hi,
            LoopIter::Each(rest) => rest.len() == 0,
        }
    }

    /// Binds the next iteration's leading body arguments (the first
    /// `bound` of `args`); `false` once no iteration is left.
    #[inline]
    fn bind(&mut self, frame: &mut [Value], args: &[u32], bound: usize) -> bool {
        match self {
            LoopIter::Range { next, hi } => {
                if *next >= *hi {
                    return false;
                }
                frame[args[0] as usize] = Value::U64(*next);
                *next += 1;
            }
            LoopIter::Each(rest) => {
                let Some((key, value)) = rest.next() else {
                    return false;
                };
                frame[args[0] as usize] = key;
                if bound == 2 {
                    frame[args[1] as usize] = value;
                }
            }
        }
        true
    }
}

impl RegionKind {
    /// The code slot of the instruction that entered the region; `None`
    /// for a function body.
    fn header(&self) -> Option<usize> {
        match self {
            RegionKind::Body => None,
            RegionKind::Arm { header }
            | RegionKind::Loop { header, .. }
            | RegionKind::DoWhile { header } => Some(*header as usize),
        }
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
    /// The given slot of the current region.
    At(usize),
    /// Slot `.0` of a region ending at `.1`: a region was entered, left
    /// or restarted.
    Jump(usize, usize),
    /// Out of the current activation.
    Leave(Transfer),
}

/// Why [`Interpreter::run_activation`] left its activation.
enum Transfer {
    /// The grant ran out; the top cursor holds the next slot.
    Suspend,
    /// A call from code slot `site`; the top cursor already holds the
    /// slot after it.
    Call {
        callee: FuncId,
        args: Vec<Value>,
        site: usize,
    },
    Ret(Option<Value>),
    /// An error the caller sites at its `call`: the function body ended
    /// without `ret`, or ran past its last slot.
    Unwind(ExecError),
}

/// The static parts of a `foreach`/`forrange` header: body region,
/// number of leading body arguments bound per iteration (the carried
/// arguments follow), destinations and plan.
struct LoopParts<'a> {
    body: u32,
    bound: usize,
    dsts: &'a [u32],
    plan: Option<&'a BulkPlan>,
}

impl LoopParts<'_> {
    /// The parts of the header `inst` (past its path steps).
    fn of(inst: &DInst) -> LoopParts<'_> {
        let (body, bound, dsts, plan) = match inst.own() {
            DInst::ForRange { body, dsts, .. } => (body, 1, dsts, None),
            DInst::ForRangeBulk {
                body, dsts, plan, ..
            } => (body, 1, dsts, Some(&**plan)),
            DInst::ForEach {
                body,
                binds_value,
                dsts,
                ..
            } => (body, 1 + usize::from(*binds_value), dsts, None),
            DInst::ForEachBulk {
                body,
                binds_value,
                dsts,
                plan,
                ..
            } => (body, 1 + usize::from(*binds_value), dsts, Some(&**plan)),
            other => unreachable!("{other:?} is not a foreach/forrange header"),
        };
        LoopParts {
            body: *body,
            bound,
            dsts,
            plan,
        }
    }
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
    enums: Vec<RuntimeEnum>,
    stats: Stats,
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
    /// Free list of spent yield buffers. Every buffered loop iteration
    /// and branch join yields a `Vec<Value>`; recycling them turns the
    /// hottest allocation in the dispatch loop into a pop/push pair.
    flow_pool: Vec<Vec<Value>>,
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
            output: String::new(),
            phase: Phase::Init,
            phase_start: Instant::now(),
            tracked_bytes: 0,
            ticks_left: 0,
            window: 0,
            ticks_spent: 0,
            sliced: false,
            grant: None,
            flow_pool: Vec::new(),
        }
    }

    /// Pops a recycled yield buffer (or allocates the first time).
    #[inline]
    fn pool_get(&mut self) -> Vec<Value> {
        self.flow_pool.pop().unwrap_or_default()
    }

    /// Returns a spent yield buffer to the free list. Bounded so a
    /// deeply nested one-off can't pin arbitrary memory.
    #[inline]
    fn pool_put(&mut self, mut v: Vec<Value>) {
        if self.flow_pool.len() < 16 {
            v.clear();
            self.flow_pool.push(v);
        }
    }

    /// Runs the function named `entry` with no arguments.
    ///
    /// # Errors
    ///
    /// Returns an [`ExecError`] if the entry point does not exist, guest
    /// undefined behavior is trapped, or a configured execution limit
    /// (fuel, heap cells, depth) runs out.
    pub fn run(self, entry: &str) -> Result<Outcome, ExecError> {
        let module = self.module.expect("batch runs have a source module");
        let decoded = DecodedModule::decode_with(module, &DecodeOptions::default());
        self.run_decoded(&decoded, entry)
    }

    /// [`Interpreter::run`] over a pre-decoded instruction stream,
    /// letting callers that execute one module many times (benchmark
    /// trials) pay for decoding and loop fusion once. `decoded` must
    /// come from this interpreter's module. Runs on the caller's thread
    /// with bounded host stack, however deeply the guest recurses.
    ///
    /// # Errors
    ///
    /// As [`Interpreter::run`].
    pub fn run_decoded(
        mut self,
        decoded: &DecodedModule,
        entry: &str,
    ) -> Result<Outcome, ExecError> {
        debug_assert!(
            self.module.is_none_or(|m| m.funcs.len() == decoded.funcs.len()),
            "decoded stream must come from this interpreter's module"
        );
        let Some(fid) = decoded.function_by_name(entry) else {
            return Err(ExecError::NoEntry {
                entry: entry.to_string(),
            });
        };
        self.start(decoded, false);
        match self.resume(decoded, &mut Machine::new(fid)) {
            Ok(Poll::Done(result)) => Ok(self.finish(result)),
            Ok(Poll::Suspended) => unreachable!("a batch run renews its window"),
            Err(e) => {
                self.record_stop(Some(&e));
                Err(e)
            }
        }
    }

    /// Prepares a run of `decoded`: runtime enumerations, the wall clock
    /// and the first tick window. A session (`sliced`) starts paused: its
    /// empty window makes the first instruction wait for the first grant.
    pub(crate) fn start(&mut self, decoded: &DecodedModule, sliced: bool) {
        self.enums = (0..decoded.enum_count).map(|_| RuntimeEnum::default()).collect();
        self.sliced = sliced;
        self.window = if sliced {
            0
        } else {
            self.config.fuel.unwrap_or(u64::MAX)
        };
        self.ticks_left = self.window;
        self.phase_start = Instant::now();
    }

    /// Grants a session `ticks` more instructions, loaded at the next
    /// tick boundary.
    pub(crate) fn grant(&mut self, ticks: u64) {
        self.grant = Some(ticks);
    }

    /// The finished run's outcome: closes the last wall-time phase and
    /// publishes the run's terminal accounting.
    pub(crate) fn finish(&mut self, result: Option<Value>) -> Outcome {
        let elapsed = Stats::clamp_ns(self.phase_start.elapsed().as_nanos());
        self.stats.wall_ns[self.phase as usize] =
            self.stats.wall_ns[self.phase as usize].saturating_add(elapsed);
        self.stats.final_bytes = self.tracked_bytes;
        self.sample_peak();
        self.record_stop(None);
        Outcome {
            fuel_ticks: self.fuel_ticks(),
            output: std::mem::take(&mut self.output),
            stats: std::mem::take(&mut self.stats),
            result,
        }
    }

    /// Ticks executed so far.
    fn fuel_ticks(&self) -> u64 {
        self.ticks_spent + (self.window - self.ticks_left)
    }

    /// Publishes the run's terminal accounting — reason tally, fuel
    /// ticks, heap high-water mark — into the metrics registry.
    /// Called exactly once per run, on both the success and the error
    /// path; a disabled registry makes this one cheap branch.
    pub(crate) fn record_stop(&mut self, err: Option<&ExecError>) {
        let reason = err.map_or("ok", ExecError::code);
        self.sample_peak();
        let m = &self.config.metrics;
        if m.is_enabled() {
            m.add("exec_stops_total", &[("reason", reason)], 1);
            m.add("exec_fuel_ticks_total", &[], self.fuel_ticks());
            m.gauge_max("exec_heap_hwm_bytes", &[], self.stats.peak_bytes as u64);
        }
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
        self.config
            .metrics
            .add("exec_backend_selected_total", &[("kind", coll.kind_label())], 1);
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

    /// The inverse of [`coerce_key`]: dense implementations store
    /// `usize` keys and yield `Value::Idx` when iterated or drained, but
    /// a directive-forced dense collection with a `u64` static domain
    /// must present `u64` values to the program — otherwise comparisons
    /// against ordinary integers silently fail.
    fn uncoerce_key(static_key_ty: &Type, key: Value) -> Value {
        match (static_key_ty, &key) {
            (Type::U64, Value::Idx(i)) => Value::U64(*i as u64),
            _ => key,
        }
    }

    // ── Operation kernels ───────────────────────────────────────────
    //
    // The one definition of each counted operation: key coercion, the
    // statistics bump, the heap call and byte accounting. The op
    // executor reads the operand slots, calls the kernel, and sites the
    // trap it returns at the op's code slot. Writers leave the handle
    // copy into their destination slot to the caller, which knows the
    // operand's base slot.

    /// `read(c, k)`.
    #[inline]
    fn read(&mut self, id: CollId, key: &Value) -> Result<Value, TrapKind> {
        let imp = self.impl_of(id);
        let key = coerce_key(imp, Cow::Borrowed(key));
        self.bump(imp, CollOp::Read, 1);
        self.heap[id.0 as usize].try_read(&key)
    }

    /// `write(c, k, v)`.
    #[inline]
    fn write(&mut self, id: CollId, key: &Value, value: Value) -> Result<(), TrapKind> {
        let imp = self.impl_of(id);
        let key = coerce_key(imp, Cow::Borrowed(key));
        self.bump(imp, CollOp::Write, 1);
        self.heap[id.0 as usize].try_write(&key, value)?;
        self.refresh_bytes(id);
        Ok(())
    }

    /// `has(c, k)`.
    #[inline]
    fn has(&mut self, id: CollId, key: &Value) -> Result<bool, TrapKind> {
        let imp = self.impl_of(id);
        let key = coerce_key(imp, Cow::Borrowed(key));
        self.bump(imp, CollOp::Has, 1);
        self.heap[id.0 as usize].try_has(&key)
    }

    /// `remove(c, k)`.
    #[inline]
    fn remove(&mut self, id: CollId, key: &Value) -> Result<(), TrapKind> {
        let imp = self.impl_of(id);
        let key = coerce_key(imp, Cow::Borrowed(key));
        self.bump(imp, CollOp::Remove, 1);
        self.heap[id.0 as usize].try_remove(&key)?;
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
    fn insert_elem(&mut self, id: CollId, elem: Value) -> Result<(), TrapKind> {
        let imp = self.impl_of(id);
        self.bump(imp, CollOp::Insert, 1);
        let elem = coerce_key(imp, Cow::Owned(elem)).into_owned();
        self.heap[id.0 as usize].try_insert_elem(elem)?;
        self.refresh_bytes(id);
        Ok(())
    }

    /// Map-flavored `insert(c, k)`: an absent key gets a default value of
    /// `val_ty`. The only kernel that can fail with something other than
    /// a guest trap (allocating a nested default may exceed
    /// [`ExecConfig::max_heap_cells`]), so it returns a site-less
    /// [`ExecError`].
    #[inline]
    fn insert_key(&mut self, id: CollId, key: &Value, val_ty: &Type) -> Result<(), ExecError> {
        let imp = self.impl_of(id);
        self.bump(imp, CollOp::Insert, 1);
        let key = coerce_key(imp, Cow::Borrowed(key));
        // Only allocate a default if the key is absent.
        if !self.heap[id.0 as usize].try_has(&key).map_err(trap)? {
            let default = self.default_value(val_ty)?;
            self.heap[id.0 as usize]
                .try_insert_key_default(&key, default)
                .map_err(trap)?;
        }
        self.refresh_bytes(id);
        Ok(())
    }

    /// Sequence-flavored `insert(c, i, v)`.
    #[inline]
    fn insert_seq(&mut self, id: CollId, index: usize, value: Value) -> Result<(), TrapKind> {
        let imp = self.impl_of(id);
        self.bump(imp, CollOp::Insert, 1);
        self.heap[id.0 as usize].try_insert_seq(index, value)?;
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
    fn enc(&mut self, e: u32, key: &Value) -> usize {
        self.bump(ImplKind::EnumEnc, CollOp::Read, 1);
        self.enums[e as usize]
            .enc
            .get(key)
            .copied()
            .unwrap_or(crate::trap::ENC_SENTINEL)
    }

    /// `dec(e, i)`. An identifier the enumeration never issued (the
    /// `enc` sentinel included) traps as out of bounds.
    #[inline]
    fn dec(&mut self, e: u32, id: &Value) -> Result<Value, TrapKind> {
        let idx = id.try_as_index()?;
        self.bump(ImplKind::EnumDec, CollOp::Read, 1);
        let dec = &self.enums[e as usize].dec;
        dec.get(idx).cloned().ok_or(TrapKind::OutOfBounds {
            index: idx as u64,
            len: dec.len(),
        })
    }

    /// `add(e, v)`: `v`'s identifier, issuing the next one when `v` is
    /// new.
    fn enum_add(&mut self, e: u32, key: Value) -> usize {
        // Bumps go through `self.bump`, which means the `&mut self.enums[e]` borrow cannot be held
        // across them; the bump sequence (Read, then on a miss Insert
        // into both Enc and Dec) is unchanged.
        self.bump(ImplKind::EnumEnc, CollOp::Read, 1);
        if let Some(&idx) = self.enums[e as usize].enc.get(&key) {
            return idx;
        }
        self.bump(ImplKind::EnumEnc, CollOp::Insert, 1);
        self.bump(ImplKind::EnumDec, CollOp::Insert, 1);
        let re = &mut self.enums[e as usize];
        let idx = re.dec.len();
        re.enc.insert(key.clone(), idx);
        re.dec.push(key);
        let new = re.bytes_estimate();
        let old = re.cached_bytes;
        re.cached_bytes = new;
        self.tracked_bytes = (self.tracked_bytes + new).saturating_sub(old);
        self.sample_peak();
        idx
    }

    // ── Control: the continuation machine ──────────────────────────

    /// Runs `m` until the entry function returns, an error stops the
    /// run, or a session's grant runs out before the next instruction.
    pub(crate) fn resume(&mut self, d: &DecodedModule, m: &mut Machine) -> Result<Poll, ExecError> {
        if let Some(entry) = m.entry.take() {
            self.push_call(d, m, entry, Vec::new(), 0)?;
        }
        loop {
            let act = m.acts.last_mut().expect("a live machine has an activation");
            let caller = act.fid;
            match self.run_activation(d, act.fid, &mut act.frame, &mut m.cursors)? {
                Transfer::Suspend => return Ok(Poll::Suspended),
                Transfer::Call { callee, args, site } => {
                    self.push_call(d, m, callee, args, site)
                        .map_err(|e| site_at(d.func(caller), site, e))?
                }
                Transfer::Ret(value) => {
                    let done = m.pop_call();
                    let Some(caller) = m.acts.last_mut() else {
                        return Ok(Poll::Done(value));
                    };
                    if let DInst::Call { dst: Some(dst), .. } =
                        d.func(caller.fid).code[done.call_site as usize].own()
                    {
                        caller.frame[*dst as usize] = value.unwrap_or(Value::Void);
                    }
                }
                Transfer::Unwind(e) => {
                    let done = m.pop_call();
                    return Err(match m.acts.last() {
                        Some(caller) => site_at(d.func(caller.fid), done.call_site as usize, e),
                        None => e,
                    });
                }
            }
        }
    }

    /// Enters `fid` with `args` from the `call` at `site` (0 for the
    /// entry): checks arity and depth, then pushes its activation and
    /// body cursor.
    fn push_call(
        &mut self,
        d: &DecodedModule,
        m: &mut Machine,
        fid: FuncId,
        args: Vec<Value>,
        site: usize,
    ) -> Result<(), ExecError> {
        let func = d.func(fid);
        if args.len() != func.params.len() {
            // The verifier rejects arity mismatches; guard anyway so an
            // unverified module traps instead of corrupting the frame.
            return Err(trap(TrapKind::Malformed {
                what: "call arity mismatch",
            }));
        }
        self.check_depth(m.cursors.len())?;
        let mut frame = vec![Value::Void; func.frame_size as usize];
        for (&p, a) in func.params.iter().zip(args) {
            frame[p as usize] = a;
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
            end: body.end,
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
        frame: &mut [Value],
        cursors: &mut Vec<Cursor>,
    ) -> Result<Transfer, ExecError> {
        let func = d.func(fid);
        let top = cursors.last().expect("an activation has a body cursor");
        let (mut pc, mut end) = (top.pc as usize, top.end as usize);
        loop {
            if pc >= end {
                return self.fell_through(func, cursors);
            }
            if self.ticks_left == 0 && !self.tick_boundary()? {
                cursors.last_mut().expect("current region").pc = pc as u32;
                return Ok(Transfer::Suspend);
            }
            self.ticks_left -= 1;
            match self.exec_inst(func, frame, cursors, pc, &func.code[pc]) {
                Ok(Next::At(next)) => pc = next,
                Ok(Next::Jump(next, next_end)) => (pc, end) = (next, next_end),
                Ok(Next::Leave(transfer)) => return Ok(transfer),
                // A trap without a site is this instruction's. Sited
                // traps (ops, loop conditions) pass through.
                Err(e) => return Err(site_at(func, pc, e)),
            }
        }
    }

    /// A region ran past its last slot: malformed code, attributed to
    /// the instruction that entered the region (for a function body, the
    /// caller's `call`).
    #[cold]
    fn fell_through(&self, func: &DFunc, cursors: &[Cursor]) -> Result<Transfer, ExecError> {
        let e = trap(TrapKind::Malformed {
            what: "region fell through without a terminator",
        });
        match cursors.last().expect("current region").kind.header() {
            Some(header) => Err(site_at(func, header, e)),
            None => Ok(Transfer::Unwind(e)),
        }
    }

    /// Executes `inst`, the instruction at `pc`, which has already
    /// ticked.
    fn exec_inst(
        &mut self,
        func: &DFunc,
        frame: &mut [Value],
        cursors: &mut Vec<Cursor>,
        pc: usize,
        inst: &DInst,
    ) -> Result<Next, ExecError> {
        match inst {
            DInst::Op(p) => {
                self.exec_plan_op(func, frame, p)?;
                Ok(Next::At(pc + 1))
            }
            DInst::Lowered { steps, inst } => {
                for p in steps.iter() {
                    self.exec_plan_op(func, frame, p)?;
                }
                self.exec_inst(func, frame, cursors, pc, inst)
            }
            DInst::Call { callee, args, .. } => {
                let args = args.iter().map(|&s| frame[s as usize].clone()).collect();
                cursors.last_mut().expect("current region").pc = (pc + 1) as u32;
                Ok(Next::Leave(Transfer::Call {
                    callee: *callee,
                    args,
                    site: pc,
                }))
            }
            DInst::Print { srcs } => {
                let parts: Vec<String> = srcs
                    .iter()
                    .map(|&s| frame[s as usize].to_string())
                    .collect();
                let _ = writeln!(self.output, "{}", parts.join(" "));
                Ok(Next::At(pc + 1))
            }
            DInst::If {
                cond,
                then_r,
                else_r,
                ..
            } => {
                let arm = if frame[*cond as usize].try_as_bool().map_err(trap)? {
                    *then_r
                } else {
                    *else_r
                };
                self.enter_region(
                    func,
                    cursors,
                    pc + 1,
                    arm,
                    RegionKind::Arm { header: pc as u32 },
                )
            }
            DInst::ForEach { .. }
            | DInst::ForEachBulk { .. }
            | DInst::ForRange { .. }
            | DInst::ForRangeBulk { .. } => self.enter_loop(func, frame, cursors, pc),
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
            DInst::Yield { srcs } => {
                let mut vals = self.pool_get();
                vals.extend(srcs.iter().map(|&s| frame[s as usize].clone()));
                self.leave_region(func, frame, cursors, Some(vals))
            }
            DInst::YieldDirect { srcs, dsts } => {
                copy_slots(frame, srcs, dsts);
                self.leave_region(func, frame, cursors, None)
            }
            DInst::Ret { src } => Ok(Next::Leave(Transfer::Ret(
                src.map(|s| frame[s as usize].clone()),
            ))),
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
        let r = &func.regions[region as usize];
        cursors.push(Cursor {
            pc: r.start,
            start: r.start,
            end: r.end,
            kind,
        });
        Ok(Next::Jump(r.start as usize, r.end as usize))
    }

    /// The region's terminator ran, with its buffered values (`None`
    /// after a [`DInst::YieldDirect`], which already copied them).
    /// An arm lands them in its header's destinations and resumes the
    /// enclosing region; a loop body passes them to the next iteration.
    fn leave_region(
        &mut self,
        func: &DFunc,
        frame: &mut [Value],
        cursors: &mut Vec<Cursor>,
        vals: Option<Vec<Value>>,
    ) -> Result<Next, ExecError> {
        let kind = &cursors.last().expect("current region").kind;
        match *kind {
            RegionKind::Body => Ok(Next::Leave(Transfer::Unwind(trap(TrapKind::Malformed {
                what: "function body ended without ret",
            })))),
            RegionKind::Arm { header } => {
                if let Some(vals) = vals {
                    let DInst::If { dsts, .. } = func.code[header as usize].own() else {
                        unreachable!("an arm's header is a branch")
                    };
                    self.land(frame, vals, dsts);
                }
                Ok(leave_to_parent(cursors))
            }
            RegionKind::Loop { header, .. } => {
                if let Some(vals) = vals {
                    let parts = LoopParts::of(&func.code[header as usize]);
                    let args = &func.regions[parts.body as usize].args;
                    self.land(frame, vals, &args[parts.bound..]);
                }
                self.next_iteration(func, frame, cursors)
            }
            RegionKind::DoWhile { header } => {
                self.next_dowhile(func, frame, cursors, header as usize, vals)
            }
        }
    }

    /// Moves yielded values into `dsts` and recycles their buffer.
    fn land(&mut self, frame: &mut [Value], mut vals: Vec<Value>, dsts: &[u32]) {
        for (&r, v) in dsts.iter().zip(vals.drain(..)) {
            frame[r as usize] = v;
        }
        self.pool_put(vals);
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
            self.config.metrics.add("exec_quanta_total", &[], 1);
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
    /// `IterWord` per scanned occupancy word) and presents dense keys as
    /// `u64` where the static key type asks for it.
    fn foreach_entries(
        &mut self,
        coll: &Value,
        uncoerce_u64: bool,
    ) -> Result<Vec<(Value, Value)>, ExecError> {
        let id = coll.try_as_coll().map_err(trap)?;
        let imp = self.impl_of(id);
        let mut entries = self.heap[id.0 as usize].snapshot();
        let words = self.heap[id.0 as usize].iter_scan_words();
        self.bump(imp, CollOp::IterElem, entries.len() as u64);
        self.bump(imp, CollOp::IterWord, words);
        if uncoerce_u64 {
            for (k, _) in &mut entries {
                if let Value::Idx(i) = k {
                    *k = Value::U64(*i as u64);
                }
            }
        }
        Ok(entries)
    }

    /// Enters a `foreach`/`forrange` (generic or bulk): opens the loop,
    /// decides whether its iterations may run through the header's plan
    /// (counting the loop's tier and running the plan's prelude if so),
    /// then binds the first iteration. A loop with no iterations lands
    /// its carried values in its destinations without entering the body.
    fn enter_loop(
        &mut self,
        func: &DFunc,
        frame: &mut [Value],
        cursors: &mut Vec<Cursor>,
        pc: usize,
    ) -> Result<Next, ExecError> {
        let inst = func.code[pc].own();
        let parts = LoopParts::of(inst);
        let iter = self.open_loop(func, frame, inst, &parts)?;
        let plan = parts.plan.filter(|p| self.plan_may_run(p, cursors.len()));
        self.count_loop(plan.is_some());
        if let Some(plan) = plan {
            for p in plan.prelude.iter() {
                self.exec_plan_op(func, frame, p)?;
            }
        }
        if iter.is_done() {
            let args = &func.regions[parts.body as usize].args;
            copy_slots(frame, &args[parts.bound..], parts.dsts);
            return Ok(Next::At(pc + 1));
        }
        self.enter_region(
            func,
            cursors,
            pc + 1,
            parts.body,
            RegionKind::Loop {
                header: pc as u32,
                iter,
                bulk: plan.is_some(),
            },
        )?;
        self.next_iteration(func, frame, cursors)
    }

    /// Opens the `foreach`/`forrange` header `inst`, as dispatch and a
    /// [`BulkOp::Loop`] both do: snapshots the collection or reads the
    /// bounds, then copies the initial carried values into the body's
    /// carried argument slots.
    fn open_loop(
        &mut self,
        func: &DFunc,
        frame: &mut [Value],
        inst: &DInst,
        parts: &LoopParts<'_>,
    ) -> Result<LoopIter, ExecError> {
        let (iter, carried) = match inst {
            DInst::ForEach {
                coll,
                carried,
                uncoerce_u64,
                ..
            }
            | DInst::ForEachBulk {
                coll,
                carried,
                uncoerce_u64,
                ..
            } => {
                let entries = self.foreach_entries(&frame[*coll as usize], *uncoerce_u64)?;
                (LoopIter::Each(entries.into_iter()), carried)
            }
            DInst::ForRange {
                lo, hi, carried, ..
            }
            | DInst::ForRangeBulk {
                lo, hi, carried, ..
            } => {
                let next = frame[*lo as usize].try_as_u64().map_err(trap)?;
                let hi = frame[*hi as usize].try_as_u64().map_err(trap)?;
                (LoopIter::Range { next, hi }, carried)
            }
            other => unreachable!("{other:?} is not a foreach/forrange header"),
        };
        let args = &func.regions[parts.body as usize].args;
        copy_slots(frame, carried, &args[parts.bound..]);
        Ok(iter)
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

    /// Publishes one loop entry to `exec_loop_tier_total{tier}`: `bulk`
    /// when its iterations may run through a plan, `generic` otherwise.
    #[inline]
    fn count_loop(&self, bulk: bool) {
        let m = &self.config.metrics;
        if m.is_enabled() {
            let tier = if bulk { "bulk" } else { "generic" };
            m.add("exec_loop_tier_total", &[("tier", tier)], 1);
        }
    }

    /// Binds the next iteration of the `foreach`/`forrange` whose body
    /// is the top cursor. While the loop may use its plan and the
    /// countdown covers an iteration's worst case, iterations run right
    /// here through the plan; the first one that cannot (it would
    /// straddle a budget boundary) starts the body region generically.
    /// After the last iteration the carried values land in the loop's
    /// destinations and the enclosing region resumes. However it leaves,
    /// the ticks its plan iterations took go to `exec_plan_ticks_total`.
    fn next_iteration(
        &mut self,
        func: &DFunc,
        frame: &mut [Value],
        cursors: &mut Vec<Cursor>,
    ) -> Result<Next, ExecError> {
        let top = cursors.last_mut().expect("loop region");
        let RegionKind::Loop { header, iter, bulk } = &mut top.kind else {
            unreachable!("{:?} is not a foreach/forrange body", top.kind)
        };
        let parts = LoopParts::of(&func.code[*header as usize]);
        let args = &func.regions[parts.body as usize].args;
        let carried_args = &args[parts.bound..];
        let plan = parts.plan.filter(|_| *bulk);
        let before = self.ticks_left;
        let next = loop {
            if !iter.bind(frame, args, parts.bound) {
                copy_slots(frame, carried_args, parts.dsts);
                break Ok(leave_to_parent(cursors));
            }
            match plan {
                Some(plan)
                    if plan
                        .worst
                        .is_none_or(|worst| self.ticks_left >= u64::from(worst)) =>
                {
                    if let Err(e) = self.exec_plan_iteration(func, frame, plan, carried_args) {
                        break Err(e);
                    }
                }
                _ => {
                    top.pc = top.start;
                    break Ok(Next::Jump(top.start as usize, top.end as usize));
                }
            }
        };
        let m = &self.config.metrics;
        if plan.is_some() && m.is_enabled() {
            m.add("exec_plan_ticks_total", &[], before - self.ticks_left);
        }
        next
    }

    /// The `dowhile` body at the top cursor yielded `vals`: the
    /// condition, then the next carried values. Runs the body again or
    /// lands the carried values in the loop's destinations. A malformed
    /// yield traps at the loop header.
    fn next_dowhile(
        &mut self,
        func: &DFunc,
        frame: &mut [Value],
        cursors: &mut Vec<Cursor>,
        header: usize,
        vals: Option<Vec<Value>>,
    ) -> Result<Next, ExecError> {
        let at = |k| trap_at(func, header, k);
        let Some(mut vals) = vals.filter(|v| !v.is_empty()) else {
            return Err(at(TrapKind::Malformed {
                what: "dowhile yield without a condition",
            }));
        };
        let cond = vals[0].try_as_bool().map_err(at)?;
        vals.remove(0);
        let DInst::DoWhile { body, dsts, .. } = func.code[header].own() else {
            unreachable!("a dowhile body's header is a dowhile")
        };
        if cond {
            self.land(frame, vals, &func.regions[*body as usize].args);
            let top = cursors.last_mut().expect("loop region");
            top.pc = top.start;
            Ok(Next::Jump(top.start as usize, top.end as usize))
        } else {
            self.land(frame, vals, dsts);
            Ok(leave_to_parent(cursors))
        }
    }

    /// One bulk loop iteration: the plan's ops, then the terminal yield
    /// copied into the carried argument slots. The caller checked that
    /// the countdown covers the iteration's worst case; each op deducts
    /// the slots it stands for, so a trap leaves the exact count.
    #[inline]
    fn exec_plan_iteration(
        &mut self,
        func: &DFunc,
        frame: &mut [Value],
        plan: &BulkPlan,
        carried_args: &[u32],
    ) -> Result<(), ExecError> {
        for p in plan.ops.iter() {
            self.exec_plan_op(func, frame, p)?;
        }
        self.ticks_left -= u64::from(plan.tail);
        copy_slots(frame, &plan.yield_srcs, carried_args);
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
        frame: &mut [Value],
        header: usize,
        plan: &BulkPlan,
    ) -> Result<(), ExecError> {
        let inst = func.code[header].own();
        let parts = LoopParts::of(inst);
        let mut iter = self.open_loop(func, frame, inst, &parts)?;
        self.count_loop(true);
        for p in plan.prelude.iter() {
            self.exec_plan_op(func, frame, p)?;
        }
        let args = &func.regions[parts.body as usize].args;
        let carried_args = &args[parts.bound..];
        while iter.bind(frame, args, parts.bound) {
            self.exec_plan_iteration(func, frame, plan, carried_args)?;
        }
        copy_slots(frame, carried_args, parts.dsts);
        Ok(())
    }

    /// Runs one op, whether dispatch reached its slot or a plan runs it
    /// (a nested loop opens through [`Self::open_loop`]): deducts the
    /// slots the op stands for (none under dispatch, which ticked the
    /// slot) and sites traps at the op's code slot.
    fn exec_plan_op(
        &mut self,
        func: &DFunc,
        frame: &mut [Value],
        p: &PlanOp,
    ) -> Result<(), ExecError> {
        self.ticks_left -= u64::from(p.ticks);
        let site = p.site as usize;
        let at = |k| trap_at(func, site, k);
        match &p.op {
            BulkOp::Scalar(u) => exec_scalar(func, frame, *u).map_err(at)?,
            BulkOp::Cast { ty, a, dst } => {
                frame[*dst as usize] =
                    eval_cast(&frame[*a as usize], &func.types[*ty as usize]).map_err(at)?;
            }
            BulkOp::Proj { base, field, dst } => {
                frame[*dst as usize] = project(&frame[*base as usize], *field).map_err(at)?;
            }
            BulkOp::Read { coll, key, dst } => {
                let id = frame[*coll as usize].try_as_coll().map_err(at)?;
                frame[*dst as usize] = self.read(id, &frame[*key as usize]).map_err(at)?;
            }
            BulkOp::Write {
                coll,
                key,
                val,
                base,
                dst,
            } => {
                let id = frame[*coll as usize].try_as_coll().map_err(at)?;
                let value = frame[*val as usize].clone();
                self.write(id, &frame[*key as usize], value).map_err(at)?;
                frame[*dst as usize] = frame[*base as usize].clone();
            }
            BulkOp::Has { coll, key, dst } => {
                let id = frame[*coll as usize].try_as_coll().map_err(at)?;
                frame[*dst as usize] =
                    Value::Bool(self.has(id, &frame[*key as usize]).map_err(at)?);
            }
            BulkOp::InsertSet {
                coll,
                elem,
                base,
                dst,
            } => {
                let id = frame[*coll as usize].try_as_coll().map_err(at)?;
                self.insert_elem(id, frame[*elem as usize].clone())
                    .map_err(at)?;
                frame[*dst as usize] = frame[*base as usize].clone();
            }
            BulkOp::InsertMap {
                coll,
                key,
                val_ty,
                base,
                dst,
            } => {
                let id = frame[*coll as usize].try_as_coll().map_err(at)?;
                self.insert_key(id, &frame[*key as usize], &func.types[*val_ty as usize])
                    .map_err(|e| site_at(func, site, e))?;
                frame[*dst as usize] = frame[*base as usize].clone();
            }
            BulkOp::InsertSeq {
                coll,
                index,
                val,
                base,
                dst,
            } => {
                let id = frame[*coll as usize].try_as_coll().map_err(at)?;
                let index = frame[*index as usize].try_as_u64().map_err(at)? as usize;
                let value = frame[*val as usize].clone();
                self.insert_seq(id, index, value).map_err(at)?;
                frame[*dst as usize] = frame[*base as usize].clone();
            }
            BulkOp::Remove {
                coll,
                key,
                base,
                dst,
            } => {
                let id = frame[*coll as usize].try_as_coll().map_err(at)?;
                self.remove(id, &frame[*key as usize]).map_err(at)?;
                frame[*dst as usize] = frame[*base as usize].clone();
            }
            BulkOp::Size { coll, dst } => {
                let id = frame[*coll as usize].try_as_coll().map_err(at)?;
                frame[*dst as usize] = Value::U64(self.size(id));
            }
            BulkOp::Len { coll, dst } => {
                let id = frame[*coll as usize].try_as_coll().map_err(at)?;
                frame[*dst as usize] = Value::U64(self.heap[id.0 as usize].len() as u64);
            }
            BulkOp::Clear { coll, base, dst } => {
                let id = frame[*coll as usize].try_as_coll().map_err(at)?;
                let imp = self.impl_of(id);
                self.bump(imp, CollOp::Clear, 1);
                self.heap[id.0 as usize].clear();
                self.refresh_bytes(id);
                frame[*dst as usize] = frame[*base as usize].clone();
            }
            BulkOp::Union {
                coll,
                src,
                elem_ty,
                base,
                dst,
            } => {
                let dst_id = frame[*coll as usize].try_as_coll().map_err(at)?;
                let src_id = frame[*src as usize].try_as_coll().map_err(at)?;
                self.union_into(dst_id, src_id, &func.types[*elem_ty as usize])
                    .map_err(|e| site_at(func, site, e))?;
                self.refresh_bytes(dst_id);
                frame[*dst as usize] = frame[*base as usize].clone();
            }
            BulkOp::Enc { e, v, dst } => {
                frame[*dst as usize] = Value::Idx(self.enc(*e, &frame[*v as usize]));
            }
            BulkOp::Dec { e, v, dst } => {
                frame[*dst as usize] = self.dec(*e, &frame[*v as usize]).map_err(at)?;
            }
            BulkOp::EnumAdd { e, v, dst } => {
                let key = frame[*v as usize].clone();
                frame[*dst as usize] = Value::Idx(self.enum_add(*e, key));
            }
            BulkOp::New { ty, dst } => {
                frame[*dst as usize] = self
                    .default_value(&func.types[*ty as usize])
                    .map_err(|e| site_at(func, site, e))?;
            }
            BulkOp::Tuple { srcs, dst } => {
                let fields: Vec<Value> = srcs.iter().map(|&s| frame[s as usize].clone()).collect();
                frame[*dst as usize] = Value::Tuple(fields.into());
            }
            BulkOp::Loop { plan } => self
                .run_loop_in_place(func, frame, site, plan)
                .map_err(|e| site_at(func, site, e))?,
            BulkOp::If {
                cond,
                then_ops,
                then_srcs,
                then_tail,
                else_ops,
                else_srcs,
                else_tail,
                dsts,
            } => {
                let (ops, srcs, tail) = if frame[*cond as usize].try_as_bool().map_err(at)? {
                    (then_ops, then_srcs, then_tail)
                } else {
                    (else_ops, else_srcs, else_tail)
                };
                for q in ops.iter() {
                    self.exec_plan_op(func, frame, q)?;
                }
                self.ticks_left -= u64::from(*tail);
                copy_slots(frame, srcs, dsts);
            }
        }
        Ok(())
    }

    /// Out of line: `exec_plan_op` calls it too, and inlined there it
    /// made every plan op slower.
    #[inline(never)]
    fn union_into(
        &mut self,
        dst: CollId,
        src: CollId,
        dst_elem_ty: &Type,
    ) -> Result<(), ExecError> {
        if dst == src {
            return Ok(());
        }
        let (di, si) = (dst.0 as usize, src.0 as usize);
        let dst_imp = self.impl_of(dst);
        // Borrow both disjointly.
        let (a, b) = if di < si {
            let (lo, hi) = self.heap.split_at_mut(si);
            (&mut lo[di], &hi[0])
        } else {
            let (lo, hi) = self.heap.split_at_mut(di);
            (&mut hi[0], &lo[si])
        };
        match (a, b) {
            (Collection::BitSet(d), Collection::BitSet(s)) => {
                let words = (d.universe().max(s.universe()) / 64) as u64;
                d.union_with(s);
                self.bump(dst_imp, CollOp::UnionWord, words);
            }
            (Collection::SparseBitSet(d), Collection::SparseBitSet(s)) => {
                let words = (s.heap_bytes_fast() / 8) as u64;
                d.union_with(s);
                self.bump(dst_imp, CollOp::UnionWord, words.max(1));
            }
            (Collection::FlatSet(d), Collection::FlatSet(s)) => {
                let elems = (d.len() + s.len()) as u64;
                d.union_with(s);
                self.bump(dst_imp, CollOp::UnionElem, elems);
            }
            (_, b) => {
                // Generic path: iterate the source, insert into the
                // destination one element at a time.
                let src_imp = b.impl_kind();
                let entries = b.snapshot();
                let words = b.iter_scan_words();
                self.bump(src_imp, CollOp::IterElem, entries.len() as u64);
                self.bump(src_imp, CollOp::IterWord, words);
                self.bump(dst_imp, CollOp::UnionElem, entries.len() as u64);
                for (key, _) in entries {
                    let key = Self::uncoerce_key(dst_elem_ty, key);
                    let key = coerce_key(dst_imp, Cow::Owned(key)).into_owned();
                    self.heap[di].try_insert_elem(key).map_err(trap)?;
                }
            }
        }
        Ok(())
    }
}

/// Field `n` of a tuple: a path's `Field` step ([`BulkOp::Proj`]).
fn project(v: &Value, n: u32) -> Result<Value, TrapKind> {
    match v {
        Value::Tuple(t) => t.get(n as usize).cloned().ok_or(TrapKind::OutOfBounds {
            index: u64::from(n),
            len: t.len(),
        }),
        other => Err(TrapKind::TypeMismatch {
            expected: "tuple",
            got: format!("{other:?}"),
        }),
    }
}

/// Dense implementations index by `idx`; accept `u64` keys for
/// directive-forced dense collections over integer domains. The common
/// no-coercion case passes a borrowed key through untouched.
#[inline]
fn coerce_key(imp: ImplKind, key: Cow<'_, Value>) -> Cow<'_, Value> {
    match (imp, &*key) {
        (ImplKind::BitSet | ImplKind::SparseBitSet | ImplKind::BitMap, Value::U64(n)) => {
            Cow::Owned(Value::Idx(*n as usize))
        }
        _ => key,
    }
}

/// Copies `frame[srcs[j]]` into `frame[dsts[j]]` in order, skipping
/// self-copies: yields landing in their consumer's slots.
#[inline]
fn copy_slots(frame: &mut [Value], srcs: &[u32], dsts: &[u32]) {
    for (&s, &t) in srcs.iter().zip(dsts) {
        if s != t {
            frame[t as usize] = frame[s as usize].clone();
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
    Next::Jump(parent.pc as usize, parent.end as usize)
}

/// The scalar step of the `const`, arithmetic, comparison and negation
/// ops.
#[inline]
fn exec_scalar(func: &DFunc, frame: &mut [Value], u: UScalar) -> Result<(), TrapKind> {
    let (dst, v) = match u {
        UScalar::Const { pool, dst } => (dst, func.consts[pool as usize].clone()),
        UScalar::Bin { op, a, b, dst } => {
            (dst, eval_bin(op, &frame[a as usize], &frame[b as usize])?)
        }
        UScalar::Cmp { op, a, b, dst } => (
            dst,
            Value::Bool(eval_cmp(op, &frame[a as usize], &frame[b as usize])),
        ),
        UScalar::Not { a, dst } => (dst, Value::Bool(!frame[a as usize].try_as_bool()?)),
    };
    frame[dst as usize] = v;
    Ok(())
}

fn eval_bin(op: BinOp, a: &Value, b: &Value) -> Result<Value, TrapKind> {
    use Value::*;
    Ok(match (a, b) {
        (U64(x), U64(y)) => U64(eval_bin_u64(op, *x, *y)?),
        (Idx(x), Idx(y)) => Idx(eval_bin_u64(op, *x as u64, *y as u64)? as usize),
        (I64(x), I64(y)) => I64(eval_bin_i64(op, *x, *y)?),
        (F64(x), F64(y)) => F64(eval_bin_f64(op, *x, *y)?),
        (Bool(x), Bool(y)) => Bool(match op {
            BinOp::And => *x && *y,
            BinOp::Or => *x || *y,
            BinOp::Xor => *x != *y,
            other => {
                return Err(TrapKind::TypeMismatch {
                    expected: "numeric operands",
                    got: format!("{other:?} on bools"),
                })
            }
        }),
        (a, b) => {
            return Err(TrapKind::TypeMismatch {
                expected: "operands of one numeric kind",
                got: format!("{op:?} on {a:?}, {b:?}"),
            })
        }
    })
}

fn eval_bin_u64(op: BinOp, x: u64, y: u64) -> Result<u64, TrapKind> {
    Ok(match op {
        BinOp::Add => x.wrapping_add(y),
        BinOp::Sub => x.wrapping_sub(y),
        BinOp::Mul => x.wrapping_mul(y),
        BinOp::Div => x.checked_div(y).ok_or(TrapKind::DivideByZero)?,
        BinOp::Rem => x.checked_rem(y).ok_or(TrapKind::DivideByZero)?,
        BinOp::Min => x.min(y),
        BinOp::Max => x.max(y),
        BinOp::And => x & y,
        BinOp::Or => x | y,
        BinOp::Xor => x ^ y,
        BinOp::Shl => x.wrapping_shl(y as u32),
        BinOp::Shr => x.wrapping_shr(y as u32),
    })
}

fn eval_bin_i64(op: BinOp, x: i64, y: i64) -> Result<i64, TrapKind> {
    Ok(match op {
        BinOp::Add => x.wrapping_add(y),
        BinOp::Sub => x.wrapping_sub(y),
        BinOp::Mul => x.wrapping_mul(y),
        BinOp::Div => x.checked_div(y).ok_or(TrapKind::DivideByZero)?,
        BinOp::Rem => x.checked_rem(y).ok_or(TrapKind::DivideByZero)?,
        BinOp::Min => x.min(y),
        BinOp::Max => x.max(y),
        BinOp::And => x & y,
        BinOp::Or => x | y,
        BinOp::Xor => x ^ y,
        BinOp::Shl => x.wrapping_shl(y as u32),
        BinOp::Shr => x.wrapping_shr(y as u32),
    })
}

fn eval_bin_f64(op: BinOp, x: f64, y: f64) -> Result<f64, TrapKind> {
    Ok(match op {
        BinOp::Add => x + y,
        BinOp::Sub => x - y,
        BinOp::Mul => x * y,
        BinOp::Div => x / y,
        BinOp::Rem => x % y,
        BinOp::Min => x.min(y),
        BinOp::Max => x.max(y),
        other => {
            return Err(TrapKind::TypeMismatch {
                expected: "arithmetic float op",
                got: format!("{other:?}"),
            })
        }
    })
}

fn eval_cmp(op: CmpOp, a: &Value, b: &Value) -> bool {
    let ord = a.cmp(b);
    match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => ord.is_lt(),
        CmpOp::Le => ord.is_le(),
        CmpOp::Gt => ord.is_gt(),
        CmpOp::Ge => ord.is_ge(),
    }
}

fn eval_cast(a: &Value, ty: &Type) -> Result<Value, TrapKind> {
    let uncastable = |v: &Value| TrapKind::TypeMismatch {
        expected: "castable scalar",
        got: format!("{v:?}"),
    };
    let as_f64 = |v: &Value| match v {
        Value::U64(n) => Ok(*n as f64),
        Value::I64(n) => Ok(*n as f64),
        Value::F64(n) => Ok(*n),
        Value::Idx(n) => Ok(*n as f64),
        Value::Bool(b) => Ok(f64::from(u8::from(*b))),
        other => Err(uncastable(other)),
    };
    let as_u = |v: &Value| match v {
        Value::U64(n) => Ok(*n),
        Value::I64(n) => Ok(*n as u64),
        Value::F64(n) => Ok(*n as u64),
        Value::Idx(n) => Ok(*n as u64),
        Value::Bool(b) => Ok(u64::from(*b)),
        other => Err(uncastable(other)),
    };
    Ok(match ty {
        Type::U64 => Value::U64(as_u(a)?),
        Type::I64 => Value::I64(as_u(a)? as i64),
        Type::F64 => Value::F64(as_f64(a)?),
        Type::Idx => Value::Idx(as_u(a)? as usize),
        other => {
            return Err(TrapKind::TypeMismatch {
                expected: "castable scalar target",
                got: format!("{other}"),
            })
        }
    })
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
