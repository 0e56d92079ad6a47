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
//! identical for every `jobs` value.
//!
//! Failure: the first panicking work item's payload propagates out of
//! the pool, so a failing cell fails the whole run. Every cell is a
//! fixed, deterministic program, so a retry would only panic again.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Stack size for pool workers. Workers run the ADE pipeline (whose
/// transformation passes recurse over regions) and the interpreter,
/// which keeps guest calls and regions on its own heap-allocated stacks
/// rather than the host's, so a moderate stack suffices.
const WORKER_STACK: usize = 64 * 1024 * 1024;

/// Runs `work` over every item, `jobs` at a time, preserving input
/// order in the returned vector.
///
/// `jobs == 1` runs everything on the calling thread with no spawns —
/// byte-for-byte the serial harness.
///
/// # Panics
///
/// Panics if a worker panics (the first payload is propagated).
pub fn run_ordered<T, R, F>(items: Vec<T>, jobs: usize, work: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let jobs = jobs.max(1).min(n);
    if jobs == 1 {
        return items.into_iter().map(work).collect();
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
                    let r = work(item);
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
        let doubled = run_ordered(items.clone(), 8, |x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn serial_path_matches_parallel() {
        let items: Vec<u64> = (0..37).collect();
        let serial = run_ordered(items.clone(), 1, |x| x * x);
        let parallel = run_ordered(items, 6, |x| x * x);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let count = AtomicUsize::new(0);
        let results = run_ordered((0..50).collect::<Vec<_>>(), 4, |x| {
            count.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(results.len(), 50);
        assert_eq!(count.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn empty_and_oversized_job_counts() {
        assert!(run_ordered(Vec::<u8>::new(), 4, |x| x).is_empty());
        assert_eq!(run_ordered(vec![1], 64, |x| x + 1), vec![2]);
    }

    /// The one failure contract: the first panic propagates.
    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        run_ordered(vec![1, 2, 3], 2, |x| {
            assert!(x != 2, "boom");
            x
        });
    }
}
