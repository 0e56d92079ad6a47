//! Resumable, preemptible execution sessions.
//!
//! A batch run ([`crate::Interpreter::run`]) executes a program start
//! to finish on one dedicated thread. An [`ExecSession`] runs the same
//! interpreter over a *shared* decoded module (`Arc<DecodedModule>`)
//! but slices execution into **fuel quanta**: each [`ExecSession::step`]
//! grants the interpreter a bounded number of instructions, then the
//! interpreter parks until the next grant. Between grants the session
//! can be cancelled ([`ExecSession::cancel`]) with a typed
//! [`StopReason`] (`deadline`, `cancelled`, `shed`), which the
//! interpreter observes at the next quantum boundary and returns as
//! [`ExecError::Preempted`]. [`ExecSession::run_until`] is the one
//! wall-deadline loop (`adec --deadline-ms`, `reproduce --cell-timeout`):
//! it steps fixed quanta and cancels with [`StopReason::Deadline`] at
//! the first boundary past an [`Instant`].
//!
//! The interpreter is a recursive tree-walker, so "pause" is
//! implemented as a thread handshake rather than a state-machine
//! rewrite: the session owns a dedicated big-stack interpreter thread
//! that blocks on a condvar whenever its quantum runs out. Parking
//! touches no interpreter state, and a session-attached interpreter
//! routes the bulk/fused fast paths through the generic
//! per-instruction loop (a grant is one more input to the
//! interpreter's single tick countdown), so outputs, statistics, per-site profiles and
//! trap sites are byte-identical for **every** quantum size — the
//! quantum-invariance differential tests pin this.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use crate::decode::DecodedModule;
use crate::exec::{ExecConfig, ExecError, Interpreter, Outcome};
use crate::trap::StopReason;

/// What one [`ExecSession::step`] observed.
#[derive(Debug)]
pub enum Step {
    /// The quantum was consumed; the program has more work to do.
    Running,
    /// The program finished during this grant.
    Done(Box<Outcome>),
}

/// The controller ⇄ interpreter handshake. The interpreter side calls
/// [`SessionShared::take_grant`] at every quantum exhaustion; the
/// controller side grants fuel, requests cancellation, and collects
/// the result.
#[derive(Debug, Default)]
pub(crate) struct SessionShared {
    inner: Mutex<SessionInner>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct SessionInner {
    /// Instructions the interpreter may still take from the pool.
    granted: u64,
    /// `step(None)` / `run_to_completion`: stop slicing, run to the end.
    unlimited: bool,
    /// A pending cancellation; observed at the next grant boundary.
    cancel: Option<StopReason>,
    /// The interpreter is parked waiting for a grant.
    parked: bool,
    /// The finished run's result (set exactly once, by the thread).
    result: Option<Result<Box<Outcome>, ExecError>>,
}

impl SessionShared {
    /// Interpreter side: blocks until fuel is granted, returning how
    /// many instructions may run before the next boundary (the calling
    /// instruction included).
    ///
    /// # Errors
    ///
    /// [`ExecError::Preempted`] if the controller cancelled the session.
    pub(crate) fn take_grant(&self) -> Result<u64, ExecError> {
        let mut g = self.inner.lock().expect("session state poisoned");
        loop {
            if let Some(reason) = g.cancel {
                return Err(ExecError::Preempted { reason });
            }
            if g.unlimited {
                return Ok(u64::MAX);
            }
            if g.granted > 0 {
                let n = g.granted;
                g.granted = 0;
                return Ok(n);
            }
            g.parked = true;
            self.cv.notify_all();
            g = self.cv.wait(g).expect("session state poisoned");
        }
    }

    /// Thread side: publishes the finished result and wakes the
    /// controller.
    fn finish(&self, result: Result<Box<Outcome>, ExecError>) {
        let mut g = self.inner.lock().expect("session state poisoned");
        g.result = Some(result);
        self.cv.notify_all();
    }
}

/// A resumable execution of one entry point over a shared
/// [`DecodedModule`].
///
/// ```
/// use std::sync::Arc;
/// use ade_interp::{DecodedModule, ExecConfig, ExecSession, Step};
/// use ade_ir::parse::parse_module;
///
/// let module = parse_module(
///     "fn @main() -> u64 {
///        %a = const 2u64
///        %b = const 3u64
///        %c = add %a, %b
///        ret %c
///      }",
/// ).expect("parses");
/// let decoded = Arc::new(DecodedModule::decode_with(&module, &Default::default()));
/// let mut session = ExecSession::spawn(decoded, "main", ExecConfig::default())
///     .expect("spawns");
/// loop {
///     match session.step(Some(1)).expect("no error") {
///         Step::Running => continue,
///         Step::Done(outcome) => {
///             assert_eq!(outcome.result, Some(ade_interp::Value::U64(5)));
///             break;
///         }
///     }
/// }
/// ```
#[derive(Debug)]
pub struct ExecSession {
    shared: Arc<SessionShared>,
    handle: Option<std::thread::JoinHandle<()>>,
    finished: bool,
}

impl ExecSession {
    /// Stack for the session's interpreter thread — the same generous
    /// size batch runs use ([`Interpreter::run`]), since guest programs
    /// may recurse deeply.
    const STACK: usize = 256 * 1024 * 1024;

    /// Instructions per grant under [`ExecSession::run_until`]: coarse
    /// enough that the park/grant handshake is noise next to real work,
    /// fine enough that a deadline is noticed within milliseconds.
    const DEADLINE_SLICE: u64 = 1 << 16;

    /// Spawns a session executing `entry` under `config`. The session
    /// starts *paused*: no guest instruction runs until the first
    /// [`ExecSession::step`].
    ///
    /// # Errors
    ///
    /// [`ExecError::NoEntry`] if `entry` does not exist;
    /// [`ExecError::Host`] if the interpreter thread cannot be spawned.
    pub fn spawn(
        decoded: Arc<DecodedModule>,
        entry: &str,
        config: ExecConfig,
    ) -> Result<ExecSession, ExecError> {
        if decoded.function_by_name(entry).is_none() {
            return Err(ExecError::NoEntry {
                entry: entry.to_string(),
            });
        }
        let shared = Arc::new(SessionShared::default());
        let thread_shared = Arc::clone(&shared);
        let entry = entry.to_string();
        let builder = std::thread::Builder::new()
            .name(format!("ade-session-{entry}"))
            .stack_size(Self::STACK);
        let handle = builder
            .spawn(move || {
                let interp = Interpreter::for_session(config, Arc::clone(&thread_shared));
                // A panic would otherwise strand the controller on the
                // condvar; surface it as a typed host error instead.
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    interp.run_decoded_inline(&decoded, &entry)
                }))
                .unwrap_or_else(|payload| {
                    let msg = payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "panic with non-string payload".to_string());
                    Err(ExecError::Host {
                        message: format!("interpreter thread panicked: {msg}"),
                    })
                });
                thread_shared.finish(result.map(Box::new));
            })
            .map_err(|e| ExecError::Host {
                message: format!("could not start the session thread ({e})"),
            })?;
        Ok(ExecSession {
            shared,
            handle: Some(handle),
            finished: false,
        })
    }

    /// Grants one quantum (`Some(n)`: at most `n` instructions;
    /// `None`: run to completion) and blocks until the interpreter
    /// either parks at the next boundary or finishes.
    ///
    /// A cancellation requested before or during the grant wins over
    /// the grant: the interpreter checks for it first and returns
    /// without executing further instructions.
    ///
    /// # Errors
    ///
    /// The run's [`ExecError`] (guest trap, limit, host failure, or
    /// [`ExecError::Preempted`] after a cancellation). Stepping an
    /// already-finished session is a host error.
    pub fn step(&mut self, quantum: Option<u64>) -> Result<Step, ExecError> {
        if self.finished {
            return Err(ExecError::Host {
                message: "session already finished".to_string(),
            });
        }
        let mut g = self.shared.inner.lock().expect("session state poisoned");
        if g.result.is_none() {
            match quantum {
                None => g.unlimited = true,
                Some(n) => g.granted = g.granted.saturating_add(n.max(1)),
            }
            g.parked = false;
            self.shared.cv.notify_all();
            while g.result.is_none() && !g.parked {
                g = self.shared.cv.wait(g).expect("session state poisoned");
            }
        }
        if let Some(result) = g.result.take() {
            drop(g);
            self.finished = true;
            if let Some(handle) = self.handle.take() {
                let _ = handle.join();
            }
            return result.map(Step::Done);
        }
        Ok(Step::Running)
    }

    /// Requests cancellation with `reason`. Observed at the next
    /// quantum boundary (immediately if the interpreter is parked); the
    /// next [`ExecSession::step`] then returns
    /// `Err(ExecError::Preempted { reason })`. The first reason wins if
    /// called twice. A no-op after the program finished.
    pub fn cancel(&self, reason: StopReason) {
        let mut g = self.shared.inner.lock().expect("session state poisoned");
        if g.cancel.is_none() {
            g.cancel = Some(reason);
        }
        self.shared.cv.notify_all();
    }

    /// Whether the run has completed (successfully or not) and its
    /// result has been collected by [`ExecSession::step`].
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Runs the remainder of the program without further slicing and
    /// returns its outcome — `step(None)` to the end.
    ///
    /// # Errors
    ///
    /// As [`ExecSession::step`].
    pub fn run_to_completion(mut self) -> Result<Outcome, ExecError> {
        match self.step(None)? {
            Step::Done(outcome) => Ok(*outcome),
            Step::Running => unreachable!("an unlimited grant only returns on completion"),
        }
    }

    /// Runs the remainder of the program in fixed quanta, cancelling
    /// with [`StopReason::Deadline`] at the first quantum boundary at or
    /// past `deadline`. Slicing is observationally inert, so a run that
    /// finishes in time returns exactly the batch outcome.
    ///
    /// # Errors
    ///
    /// As [`ExecSession::step`]; `Preempted { reason: Deadline }` once
    /// the deadline passes.
    pub fn run_until(mut self, deadline: Instant) -> Result<Outcome, ExecError> {
        loop {
            if Instant::now() >= deadline {
                self.cancel(StopReason::Deadline);
            }
            if let Step::Done(outcome) = self.step(Some(Self::DEADLINE_SLICE))? {
                return Ok(*outcome);
            }
        }
    }
}

impl Drop for ExecSession {
    /// Dropping a live session cancels it and joins the interpreter
    /// thread. The thread exits at its next grant boundary — at most
    /// one quantum of work away, since an unfinished session never
    /// holds an unlimited grant (`step(None)` blocks to completion).
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.cancel(StopReason::Cancelled);
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ade_ir::parse::parse_module;

    fn decoded(src: &str) -> Arc<DecodedModule> {
        let module = parse_module(src).expect("parses");
        Arc::new(DecodedModule::decode_with(&module, &Default::default()))
    }

    const LOOPY: &str = "fn @main() -> u64 {
        %n = const 200u64
        %zero = const 0u64
        %one = const 1u64
        %sum = dowhile carry(%zero) as (%i: u64) {
          %i2 = add %i, %one
          %more = lt %i2, %n
          yield %more, %i2
        }
        print %sum
        ret %sum
      }";

    #[test]
    fn session_matches_batch_run_for_every_quantum() {
        let module = parse_module(LOOPY).expect("parses");
        let batch = Interpreter::new(&module, ExecConfig::default())
            .run("main")
            .expect("batch runs");
        for quantum in [1u64, 7, 1024] {
            let mut session =
                ExecSession::spawn(decoded(LOOPY), "main", ExecConfig::default()).expect("spawns");
            let outcome = loop {
                match session.step(Some(quantum)).expect("steps") {
                    Step::Running => {}
                    Step::Done(o) => break o,
                }
            };
            assert_eq!(outcome.result, batch.result, "quantum {quantum}");
            assert_eq!(outcome.output, batch.output, "quantum {quantum}");
            assert_eq!(
                outcome.stats.totals(),
                batch.stats.totals(),
                "quantum {quantum}"
            );
        }
    }

    #[test]
    fn run_to_completion_matches_batch() {
        let module = parse_module(LOOPY).expect("parses");
        let batch = Interpreter::new(&module, ExecConfig::default())
            .run("main")
            .expect("batch runs");
        let session = ExecSession::spawn(decoded(LOOPY), "main", ExecConfig::default())
            .expect("spawns");
        let outcome = session.run_to_completion().expect("completes");
        assert_eq!(outcome.result, batch.result);
        assert_eq!(outcome.stats.totals(), batch.stats.totals());
    }

    #[test]
    fn fuel_ticks_are_exact_when_observed_and_zero_otherwise() {
        let module = parse_module(LOOPY).expect("parses");
        let batch = |config: ExecConfig| Interpreter::new(&module, config).run("main");
        let ticks = |config: ExecConfig| batch(config).expect("runs").fuel_ticks;
        assert_eq!(ticks(ExecConfig::default()), 0, "a plain run counts nothing");
        let exact = ExecSession::spawn(decoded(LOOPY), "main", ExecConfig::default())
            .expect("spawns")
            .run_to_completion()
            .expect("completes")
            .fuel_ticks;
        assert!(exact > 3 * 200, "every slot of 200 iterations, fused padding included: {exact}");
        let fuel = |n| ExecConfig {
            fuel: Some(n),
            ..ExecConfig::default()
        };
        assert_eq!(ticks(fuel(exact)), exact, "fuel");
        let profiled = ExecConfig {
            profile: true,
            ..ExecConfig::default()
        };
        assert_eq!(ticks(profiled), exact, "profiler");
        let depth = ExecConfig {
            max_depth: Some(64),
            ..ExecConfig::default()
        };
        assert_eq!(ticks(depth), exact, "depth limit");
        assert_eq!(
            batch(fuel(exact - 1)).expect_err("one tick short"),
            ExecError::LimitExceeded {
                limit: crate::trap::Limit::Fuel,
                budget: exact - 1
            }
        );
    }

    #[test]
    fn run_until_completes_before_the_deadline_and_stops_after_it() {
        let module = parse_module(LOOPY).expect("parses");
        let batch = Interpreter::new(&module, ExecConfig::default())
            .run("main")
            .expect("batch runs");
        let later = Instant::now() + std::time::Duration::from_secs(600);
        let outcome = ExecSession::spawn(decoded(LOOPY), "main", ExecConfig::default())
            .expect("spawns")
            .run_until(later)
            .expect("finishes in time");
        assert_eq!(outcome.output, batch.output);
        assert_eq!(outcome.stats.totals(), batch.stats.totals());
        let err = ExecSession::spawn(decoded(LOOPY), "main", ExecConfig::default())
            .expect("spawns")
            .run_until(Instant::now())
            .expect_err("deadline already passed");
        assert_eq!(
            err,
            ExecError::Preempted {
                reason: StopReason::Deadline
            }
        );
    }

    #[test]
    fn cancellation_is_observed_at_the_next_boundary() {
        let mut session =
            ExecSession::spawn(decoded(LOOPY), "main", ExecConfig::default()).expect("spawns");
        assert!(matches!(session.step(Some(5)), Ok(Step::Running)));
        session.cancel(StopReason::Deadline);
        let err = session.step(Some(5)).expect_err("cancelled");
        assert_eq!(
            err,
            ExecError::Preempted {
                reason: StopReason::Deadline
            }
        );
        assert_eq!(err.code(), "deadline");
        assert!(session.is_finished());
    }

    #[test]
    fn cancel_before_first_step_runs_nothing() {
        let session =
            ExecSession::spawn(decoded(LOOPY), "main", ExecConfig::default()).expect("spawns");
        session.cancel(StopReason::Shed);
        let mut session = session;
        let err = session.step(Some(1_000_000)).expect_err("shed");
        assert_eq!(err.code(), "shed");
    }

    #[test]
    fn missing_entry_fails_at_spawn() {
        let err = ExecSession::spawn(decoded(LOOPY), "nope", ExecConfig::default())
            .expect_err("no entry");
        assert_eq!(err.code(), "no-entry");
    }

    #[test]
    fn dropping_a_live_session_does_not_hang() {
        let mut session =
            ExecSession::spawn(decoded(LOOPY), "main", ExecConfig::default()).expect("spawns");
        let _ = session.step(Some(3));
        drop(session); // must cancel + join, not deadlock
    }

    #[test]
    fn guest_errors_surface_through_step() {
        const TRAPPING: &str = "fn @main() -> u64 {
            %m = new Map<u64, u64>
            %k = const 9u64
            %v = read %m, %k
            ret %v
          }";
        let mut session =
            ExecSession::spawn(decoded(TRAPPING), "main", ExecConfig::default()).expect("spawns");
        let err = loop {
            match session.step(Some(2)) {
                Ok(Step::Running) => {}
                Ok(Step::Done(_)) => panic!("must trap"),
                Err(e) => break e,
            }
        };
        assert_eq!(err.code(), "missing-key");
    }
}
