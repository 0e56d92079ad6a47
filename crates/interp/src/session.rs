//! Resumable, preemptible execution sessions.
//!
//! A batch run ([`crate::Interpreter::run`]) executes a program start
//! to finish. An [`ExecSession`] runs the same interpreter over a
//! *shared* decoded module (`Arc<DecodedModule>`) but slices execution
//! into **fuel quanta**: each [`ExecSession::step`] grants the
//! interpreter a bounded number of instructions and runs them on the
//! calling thread. When the grant is used up the interpreter suspends
//! before the next instruction, and its continuation — the frames and
//! region cursors of every live call and region, loop positions
//! included — stays in the session until the next step. Between steps
//! the session can be cancelled ([`ExecSession::cancel`]) with a typed
//! [`StopReason`] (`deadline`), which the next
//! step returns as [`ExecError::Preempted`] without running anything.
//! [`ExecSession::run_until`] is the one wall-deadline loop (`adec
//! --deadline-ms`): it steps fixed quanta
//! and cancels with [`StopReason::Deadline`] at the first boundary past
//! an [`Instant`].
//!
//! Suspension touches no interpreter state, and bulk loop plans count
//! their ticks exactly (they run only where no grant boundary falls
//! inside them, so a plan holding a nested loop, which has no static
//! worst case, never runs in a session), so outputs, statistics, tick
//! counts and trap sites are byte-identical for
//! **every** quantum size, and to the batch run — the
//! quantum-invariance and budget-parity differential tests pin this.

use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

use crate::decode::DecodedModule;
use crate::exec::{ExecConfig, ExecError, Interpreter, Machine, Outcome, Poll};
use crate::trap::StopReason;

/// What one [`ExecSession::step`] observed.
#[derive(Debug)]
pub enum Step {
    /// The quantum was consumed; the program has more work to do.
    Running,
    /// The program finished during this grant.
    Done(Box<Outcome>),
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
    interp: Interpreter<'static>,
    decoded: Arc<DecodedModule>,
    machine: Machine,
    /// A pending cancellation, returned by the next step.
    cancel: Cell<Option<StopReason>>,
    finished: bool,
}

impl ExecSession {
    /// Instructions per grant under [`ExecSession::run_until`]: fine
    /// enough that a deadline is noticed within milliseconds.
    const DEADLINE_SLICE: u64 = 1 << 16;

    /// Creates a session executing `entry` under `config`. The session
    /// starts *paused*: no guest instruction runs until the first
    /// [`ExecSession::step`].
    ///
    /// # Errors
    ///
    /// [`ExecError::NoEntry`] if `entry` does not exist.
    pub fn spawn(
        decoded: Arc<DecodedModule>,
        entry: &str,
        config: ExecConfig,
    ) -> Result<ExecSession, ExecError> {
        let Some(fid) = decoded.function_by_name(entry) else {
            return Err(ExecError::NoEntry {
                entry: entry.to_string(),
            });
        };
        let mut interp = Interpreter::detached(config);
        interp.start(&decoded, true);
        Ok(ExecSession {
            interp,
            decoded,
            machine: Machine::new(fid),
            cancel: Cell::new(None),
            finished: false,
        })
    }

    /// Grants one quantum (`Some(n)`: at most `n` instructions, at least
    /// one; `None`: run to completion) and runs it on the calling
    /// thread, until the interpreter either suspends at the next
    /// boundary or finishes.
    ///
    /// A cancellation requested before the step wins over the grant:
    /// the step returns it without executing further instructions.
    ///
    /// # Errors
    ///
    /// The run's [`ExecError`] (guest trap, limit, or
    /// [`ExecError::Preempted`] after a cancellation); a panic inside
    /// the interpreter surfaces as [`ExecError::Host`]. Stepping an
    /// already-finished session is a host error.
    pub fn step(&mut self, quantum: Option<u64>) -> Result<Step, ExecError> {
        if self.finished {
            return Err(ExecError::Host {
                message: "session already finished".to_string(),
            });
        }
        if let Some(reason) = self.cancel.get() {
            return Err(self.fail(ExecError::Preempted { reason }));
        }
        self.interp.grant(quantum.map_or(u64::MAX, |n| n.max(1)));
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.interp.resume(&self.decoded, &mut self.machine)
        }));
        match run {
            Ok(Ok(Poll::Suspended)) => Ok(Step::Running),
            Ok(Ok(Poll::Done(result))) => {
                self.finished = true;
                Ok(Step::Done(Box::new(self.interp.finish(result))))
            }
            Ok(Err(e)) => Err(self.fail(e)),
            Err(payload) => {
                self.finished = true;
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "panic with non-string payload".to_string());
                Err(ExecError::Host {
                    message: format!("interpreter panicked: {msg}"),
                })
            }
        }
    }

    /// Ends the session with `e`, publishing the run's terminal
    /// accounting.
    fn fail(&mut self, e: ExecError) -> ExecError {
        self.finished = true;
        self.interp.record_stop(Some(&e));
        e
    }

    /// Requests cancellation with `reason`. The next
    /// [`ExecSession::step`] returns `Err(ExecError::Preempted {
    /// reason })` without running an instruction. The first reason wins
    /// if called twice. A no-op after the program finished.
    pub fn cancel(&self, reason: StopReason) {
        if self.cancel.get().is_none() {
            self.cancel.set(Some(reason));
        }
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
    fn fuel_ticks_are_exact_for_every_run() {
        let module = parse_module(LOOPY).expect("parses");
        let batch = |config: ExecConfig| Interpreter::new(&module, config).run("main");
        let ticks = |config: ExecConfig| batch(config).expect("runs").fuel_ticks;
        let exact = ExecSession::spawn(decoded(LOOPY), "main", ExecConfig::default())
            .expect("spawns")
            .run_to_completion()
            .expect("completes")
            .fuel_ticks;
        assert!(exact > 3 * 200, "every slot of 200 iterations: {exact}");
        assert_eq!(ticks(ExecConfig::default()), exact, "a plain run");
        let fuel = |n| ExecConfig {
            fuel: Some(n),
            ..ExecConfig::default()
        };
        assert_eq!(ticks(fuel(exact)), exact, "fuel");
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
        session.cancel(StopReason::Deadline);
        let mut session = session;
        let err = session.step(Some(1_000_000)).expect_err("cancelled");
        assert_eq!(err.code(), "deadline");
    }

    #[test]
    fn a_suspended_session_moves_to_another_thread() {
        let module = parse_module(LOOPY).expect("parses");
        let batch = Interpreter::new(&module, ExecConfig::default())
            .run("main")
            .expect("batch runs");
        let mut session =
            ExecSession::spawn(decoded(LOOPY), "main", ExecConfig::default()).expect("spawns");
        assert!(matches!(session.step(Some(100)), Ok(Step::Running)));
        let outcome = std::thread::spawn(move || session.run_to_completion())
            .join()
            .expect("no panic")
            .expect("completes");
        assert_eq!(outcome.output, batch.output);
        assert_eq!(outcome.fuel_ticks, batch.fuel_ticks);
    }

    #[test]
    fn a_host_panic_inside_step_is_a_host_error() {
        let module = parse_module(LOOPY).expect("parses");
        let mut decoded = DecodedModule::decode_with(&module, &Default::default());
        let main = &mut decoded.funcs[0];
        // A constant written past the end of the frame: an interpreter
        // bug, not guest behavior.
        main.code[0] = crate::decode::DInst::Const {
            pool: 0,
            dst: main.frame_size + 7,
        };
        let mut session =
            ExecSession::spawn(Arc::new(decoded), "main", ExecConfig::default()).expect("spawns");
        let err = session.step(Some(10)).expect_err("the step panics");
        assert_eq!(err.code(), "host", "{err}");
        assert!(session.is_finished());
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
