//! A small scoped-thread worker pool for the evaluation matrix.
//!
//! The figures' `(benchmark, configuration)` cells are independent —
//! each run owns its module, interpreter and heap and touches no shared
//! state — so the matrix is embarrassingly parallel. This pool hands
//! cells to `jobs` workers through an atomic work-list index and writes
//! each result back to the slot of its input, so the output order is
//! the input order no matter which worker finished first or when.
//!
//! Determinism: the work function receives exactly the same input in
//! the parallel and serial cases and the results vector is positional,
//! so everything *derived* from results (figures, stats totals) is
//! identical for every `jobs` value. Only wall-clock readings differ.
//!
//! Fault isolation: the evaluation harness schedules cells through
//! [`run_ordered_isolated_metered`], which catches a panicking cell,
//! retries it once, and on a second panic records a [`CellFailure`] in
//! that cell's slot while the rest of the matrix keeps running. The pool
//! isolates panics only: wall-clock cell timeouts are a typed cell error
//! raised by the cell itself (`CellSpec::deadline`). The propagating
//! [`run_ordered_with`] remains the strict contract: `reproduce
//! --strict` schedules the matrix through it so a genuine host bug still
//! fails fast, and the RQ4 tuning sweep runs its own cells through it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Stack size for pool workers. Workers run the ADE pipeline (whose
/// transformation passes recurse over regions) and the interpreter,
/// which keeps guest calls and regions on its own heap-allocated stacks
/// rather than the host's, so a moderate stack suffices.
const WORKER_STACK: usize = 64 * 1024 * 1024;

/// Runs `work` over every item, `jobs` at a time, preserving input
/// order in the returned vector. `work` also receives the zero-based
/// index of the executing worker (the serial `jobs == 1` path is always
/// worker `0`); timeline recording uses it as the lane (`tid`) of each
/// cell.
///
/// `jobs == 1` runs everything on the calling thread with no spawns —
/// byte-for-byte the serial harness.
///
/// # Panics
///
/// Panics if a worker panics (the first payload is propagated).
pub fn run_ordered_with<T, R, F>(items: Vec<T>, jobs: usize, work: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let jobs = jobs.max(1).min(n);
    if jobs == 1 {
        return items.into_iter().map(|item| work(0, item)).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(jobs);
        for w in 0..jobs {
            let slots = &slots;
            let results = &results;
            let next = &next;
            let work = &work;
            let builder = std::thread::Builder::new()
                .name(format!("ade-pool-{w}"))
                .stack_size(WORKER_STACK);
            let handle = builder
                .spawn_scoped(scope, move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item = slots[i]
                        .lock()
                        .expect("work slot poisoned")
                        .take()
                        .expect("work item claimed twice");
                    let r = work(w, item);
                    *results[i].lock().expect("result slot poisoned") = Some(r);
                })
                .expect("spawn pool worker");
            handles.push(handle);
        }
        for handle in handles {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("worker filled every claimed slot")
        })
        .collect()
}

/// Why an isolated cell failed: a stable failure code, the rendered
/// reason, and how many attempts were made before giving up.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellFailure {
    /// Stable failure class: `panic` (the work function panicked twice).
    pub code: &'static str,
    /// Rendering of the failure (the first attempt's panic payload).
    pub reason: String,
    /// Attempts made: the initial run and one retry.
    pub attempts: u32,
}

/// [`run_ordered_with`], but a panicking work item degrades to
/// `Err(CellFailure)` in its own slot instead of aborting the whole
/// matrix. Each failing item is retried once (transient host conditions
/// — allocation pressure, spurious I/O — get a second chance); the
/// failure recorded after the retry carries the *first* attempt's panic
/// payload, so the reported reason is deterministic for deterministic
/// faults.
///
/// `T: Clone` is required for the retry; items are cheap cell
/// descriptors, not run state.
///
/// Pool accounting is published into `metrics` (pass
/// [`ade_obs::MetricsRegistry::disabled`] to skip it):
///
/// * `pool_attempts_total` — work-function invocations (including
///   retries), `pool_retries_total` — panicked first attempts that got a
///   second chance, `pool_cell_panics_total` — cells recorded as
///   failed. All scheduling-independent for deterministic work, since
///   retry/failure classification is.
/// * `pool_worker_cells_total{worker=…}` — cells completed per worker.
///   Which worker claims which cell depends on scheduling, so the metric
///   is marked wall-class (excluded from deterministic snapshots).
pub fn run_ordered_isolated_metered<T, R, F>(
    items: Vec<T>,
    jobs: usize,
    metrics: &ade_obs::MetricsRegistry,
    work: F,
) -> Vec<Result<R, CellFailure>>
where
    T: Send + Clone,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    metrics.mark_wall("pool_worker_cells_total");
    let attempt = |worker: usize, item: T| {
        metrics.add("pool_attempts_total", &[], 1);
        catch_unwind(AssertUnwindSafe(|| work(worker, item)))
    };
    run_ordered_with(items, jobs, |worker, item: T| {
        let retry = item.clone();
        let result = match attempt(worker, item) {
            Ok(r) => Ok(r),
            Err(first) => {
                metrics.add("pool_retries_total", &[], 1);
                match attempt(worker, retry) {
                    Ok(r) => Ok(r),
                    Err(_) => {
                        metrics.add("pool_cell_panics_total", &[], 1);
                        Err(CellFailure {
                            code: "panic",
                            reason: payload_str(first.as_ref()),
                            attempts: 2,
                        })
                    }
                }
            }
        };
        let lane = worker.to_string();
        metrics.add("pool_worker_cells_total", &[("worker", &lane)], 1);
        result
    })
}

/// Renders a panic payload (the `&str`/`String` forms `panic!` and
/// `assert!` produce; anything else gets a fixed placeholder so failure
/// reports stay deterministic).
fn payload_str(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// The machine's available parallelism (the `--jobs` default).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let doubled = run_ordered_with(items.clone(), 8, |_w, x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn serial_path_matches_parallel() {
        let items: Vec<u64> = (0..37).collect();
        let serial = run_ordered_with(items.clone(), 1, |_w, x| x * x);
        let parallel = run_ordered_with(items, 6, |_w, x| x * x);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let count = AtomicUsize::new(0);
        let results = run_ordered_with((0..50).collect::<Vec<_>>(), 4, |_w, x| {
            count.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(results.len(), 50);
        assert_eq!(count.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn empty_and_oversized_job_counts() {
        assert!(run_ordered_with(Vec::<u8>::new(), 4, |_w, x| x).is_empty());
        assert_eq!(run_ordered_with(vec![1], 64, |_w, x| x + 1), vec![2]);
    }

    #[test]
    fn worker_indices_are_in_range() {
        let jobs = 4;
        let workers = run_ordered_with((0..40).collect::<Vec<_>>(), jobs, |w, _| w);
        assert!(workers.iter().all(|&w| w < jobs));
        // The serial path is always worker 0.
        let serial = run_ordered_with(vec![1, 2, 3], 1, |w, _| w);
        assert_eq!(serial, vec![0, 0, 0]);
    }

    /// The strict contract: `run_ordered_with` (what `--strict` uses)
    /// still propagates the first panic.
    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        run_ordered_with(vec![1, 2, 3], 2, |_w, x| {
            assert!(x != 2, "boom");
            x
        });
    }

    /// The isolated contract: a deterministic panic degrades to a
    /// `CellFailure` in its own slot after one retry; every other cell
    /// completes.
    #[test]
    fn isolated_pool_degrades_panicking_cells() {
        let attempts = AtomicUsize::new(0);
        let metrics = ade_obs::MetricsRegistry::disabled();
        let results = run_ordered_isolated_metered(vec![1, 2, 3], 2, &metrics, |_w, x| {
            if x == 2 {
                attempts.fetch_add(1, Ordering::Relaxed);
                panic!("boom on {x}");
            }
            x * 10
        });
        assert_eq!(results[0], Ok(10));
        assert_eq!(results[2], Ok(30));
        let failure = results[1].as_ref().expect_err("cell 2 must fail");
        assert_eq!(failure.code, "panic");
        assert_eq!(failure.reason, "boom on 2");
        assert_eq!(failure.attempts, 2);
        assert_eq!(attempts.load(Ordering::Relaxed), 2, "initial run + one retry");
    }

    /// The metered runner publishes attempt/retry/failure accounting;
    /// the deterministic counters are identical across job counts, and
    /// the per-worker lane counter is wall-classed.
    #[test]
    fn metered_pool_publishes_deterministic_accounting() {
        let run = |jobs: usize| {
            let metrics = ade_obs::MetricsRegistry::enabled();
            let results =
                run_ordered_isolated_metered((0..6).collect::<Vec<i32>>(), jobs, &metrics, |_w, x| {
                    assert!(x != 2, "boom");
                    x
                });
            assert_eq!(results[2].as_ref().expect_err("panic cell").code, "panic");
            metrics.snapshot()
        };
        let serial = run(1);
        let parallel = run(3);
        assert_eq!(
            serial.to_json(false),
            parallel.to_json(false),
            "deterministic pool counters are jobs-independent"
        );
        let by_id: std::collections::BTreeMap<String, ade_obs::MetricValue> = serial
            .rows
            .iter()
            .map(|r| (r.id.clone(), r.value.clone()))
            .collect();
        // 6 cells + 1 retry of the panicking cell = 7 attempts.
        assert_eq!(by_id["pool_attempts_total"], ade_obs::MetricValue::Counter(7));
        assert_eq!(by_id["pool_retries_total"], ade_obs::MetricValue::Counter(1));
        assert_eq!(by_id["pool_cell_panics_total"], ade_obs::MetricValue::Counter(1));
        // Worker lanes are recorded but wall-classed out of the
        // deterministic rendering.
        assert!(serial.rows.iter().any(|r| r.name == "pool_worker_cells_total" && r.wall));
        assert!(!serial.to_json(false).contains("pool_worker_cells_total"));
        assert!(serial.to_json(true).contains("pool_worker_cells_total"));
    }

    /// A transient panic (fails once, succeeds on retry) is absorbed.
    #[test]
    fn isolated_pool_retries_transient_failures() {
        let first = AtomicUsize::new(0);
        let metrics = ade_obs::MetricsRegistry::disabled();
        let results = run_ordered_isolated_metered(vec![7], 1, &metrics, |_w, x| {
            if first.fetch_add(1, Ordering::Relaxed) == 0 {
                panic!("transient");
            }
            x
        });
        assert_eq!(results, vec![Ok(7)]);
    }
}
