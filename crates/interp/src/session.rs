//! Resumable execution sessions.
//!
//! A batch run ([`crate::Interpreter::run`]) executes a program start
//! to finish. An [`ExecSession`] runs the same interpreter over a
//! *shared* decoded module (`Arc<DecodedModule>`) but slices execution
//! into **fuel quanta**: each [`ExecSession::step`] grants the
//! interpreter a bounded number of instructions and runs them on the
//! calling thread. When the grant is used up the interpreter suspends
//! before the next instruction, and its continuation — the frames and
//! region cursors of every live call and region, loop positions
//! included — stays in the session until the next step.
//!
//! Suspension touches no interpreter state, and bulk loop plans count
//! their ticks exactly (they run only where no grant boundary falls
//! inside them, so a plan holding a nested loop, which has no static
//! worst case, never runs in a session), so outputs, statistics, tick
//! counts and trap sites are byte-identical for
//! **every** quantum size, and to the batch run — the
//! quantum-invariance and budget-parity differential tests pin this.

use std::sync::Arc;

use crate::decode::DecodedModule;
use crate::exec::{ExecConfig, ExecError, Interpreter, Machine, Outcome, Poll};

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
    finished: bool,
}

impl ExecSession {
    /// Creates a session executing `entry` under `config`. The session
    /// starts *paused*: no guest instruction runs until the first
    /// [`ExecSession::step`].
    ///
    /// # Errors
    ///
    /// [`ExecError::NoEntry`] if no parameterless function is named
    /// `entry`.
    pub fn spawn(
        decoded: Arc<DecodedModule>,
        entry: &str,
        config: ExecConfig,
    ) -> Result<ExecSession, ExecError> {
        let fid = decoded.entry(entry)?;
        let mut interp = Interpreter::detached(config);
        interp.start(&decoded, true);
        Ok(ExecSession {
            interp,
            decoded,
            machine: Machine::new(fid),
            finished: false,
        })
    }

    /// Grants one quantum (`Some(n)`: at most `n` instructions, at least
    /// one; `None`: run to completion) and runs it on the calling
    /// thread, until the interpreter either suspends at the next
    /// boundary or finishes.
    ///
    /// # Errors
    ///
    /// The run's [`ExecError`] (guest trap or limit), which ends the
    /// session.
    ///
    /// # Panics
    ///
    /// If the session already finished (returned [`Step::Done`] or an
    /// error). A panic inside the interpreter propagates to the caller.
    pub fn step(&mut self, quantum: Option<u64>) -> Result<Step, ExecError> {
        assert!(!self.finished, "stepped a finished session");
        self.interp.grant(quantum.map_or(u64::MAX, |n| n.max(1)));
        let poll = self.interp.resume(&self.decoded, &mut self.machine);
        self.finished = !matches!(poll, Ok(Poll::Suspended));
        Ok(match poll? {
            Poll::Suspended => Step::Running,
            Poll::Done(result) => Step::Done(Box::new(self.interp.finish(result))),
        })
    }

    /// Instructions executed so far: every grant's ticks, up to the end
    /// of the run however it ended (see [`Interpreter::fuel_ticks`]).
    pub fn fuel_ticks(&self) -> u64 {
        self.interp.fuel_ticks()
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

    /// Steps `session` once without a quantum, which only returns at
    /// the end of the run.
    fn run_to_end(mut session: ExecSession) -> Result<Outcome, ExecError> {
        match session.step(None)? {
            Step::Done(outcome) => Ok(*outcome),
            Step::Running => unreachable!("an unlimited grant only returns at the end"),
        }
    }

    #[test]
    fn session_matches_batch_run_for_every_quantum() {
        let module = parse_module(LOOPY).expect("parses");
        let batch = Interpreter::new(&module, ExecConfig::default())
            .run("main")
            .expect("batch runs");
        for quantum in [Some(1u64), Some(7), Some(1024), None] {
            let mut session =
                ExecSession::spawn(decoded(LOOPY), "main", ExecConfig::default()).expect("spawns");
            let outcome = loop {
                match session.step(quantum).expect("steps") {
                    Step::Running => {}
                    Step::Done(o) => break o,
                }
            };
            assert_eq!(outcome.result, batch.result, "quantum {quantum:?}");
            assert_eq!(outcome.output, batch.output, "quantum {quantum:?}");
            assert_eq!(
                outcome.stats.totals(),
                batch.stats.totals(),
                "quantum {quantum:?}"
            );
        }
    }

    #[test]
    fn fuel_ticks_are_exact_for_every_run() {
        let module = parse_module(LOOPY).expect("parses");
        let batch = |config: ExecConfig| Interpreter::new(&module, config).run("main");
        let ticks = |config: ExecConfig| batch(config).expect("runs").fuel_ticks;
        let session =
            ExecSession::spawn(decoded(LOOPY), "main", ExecConfig::default()).expect("spawns");
        let exact = run_to_end(session).expect("completes").fuel_ticks;
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
    fn a_suspended_session_moves_to_another_thread() {
        let module = parse_module(LOOPY).expect("parses");
        let batch = Interpreter::new(&module, ExecConfig::default())
            .run("main")
            .expect("batch runs");
        let mut session =
            ExecSession::spawn(decoded(LOOPY), "main", ExecConfig::default()).expect("spawns");
        assert!(matches!(session.step(Some(100)), Ok(Step::Running)));
        let outcome = std::thread::spawn(move || run_to_end(session))
            .join()
            .expect("no panic")
            .expect("completes");
        assert_eq!(outcome.output, batch.output);
        assert_eq!(outcome.fuel_ticks, batch.fuel_ticks);
    }

    /// An interpreter bug is not a guest failure: the panic reaches the
    /// caller of `step` instead of becoming an [`ExecError`].
    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn a_host_panic_inside_step_propagates() {
        let module = parse_module(LOOPY).expect("parses");
        let mut decoded = DecodedModule::decode_with(&module, &Default::default());
        let main = &mut decoded.funcs[0];
        // A constant written past the end of the frame: an interpreter
        // bug, not guest behavior.
        main.code[0] = crate::decode::DInst::Op(crate::decode::PlanOp {
            site: 0,
            ticks: 0,
            op: crate::decode::BulkOp::Scalar(crate::decode::UScalar::Const {
                pool: 0,
                dst: crate::decode::Slot::new(main.frame_size as usize + 7, crate::Kind::U64),
            }),
        });
        let mut session =
            ExecSession::spawn(Arc::new(decoded), "main", ExecConfig::default()).expect("spawns");
        let _ = session.step(Some(10));
    }

    #[test]
    #[should_panic(expected = "stepped a finished session")]
    fn stepping_a_finished_session_panics() {
        let mut session =
            ExecSession::spawn(decoded(LOOPY), "main", ExecConfig::default()).expect("spawns");
        assert!(matches!(session.step(None), Ok(Step::Done(_))));
        let _ = session.step(Some(1));
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
        drop(session); // a suspended continuation is plain data
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
