//! Store-wide scoped-task executor.
//!
//! Chunked compression used to spawn a fresh `thread::scope` fan-out per
//! call — a thread spawn + join barrier on every large-payload submit.
//! This module keeps one lazily-spawned pool of persistent workers per
//! process and gives the hot paths [`parallel_map`]: a *scoped* fan-out
//! that borrows non-`'static` data, returns index-ordered results, and
//! never deadlocks even when every pool worker is busy, because the
//! calling thread always drains the shared job queue itself (helpers only
//! steal alongside it).
//!
//! The scoped borrow is made sound the classic way: the caller blocks
//! until every helper task it submitted has *exited* (not merely until
//! all jobs are done), so the erased pointers the helpers hold never
//! outlive the call frame. The latch itself is reference-counted: a
//! helper still inside its exit signal when the caller wakes must not be
//! touching the caller's stack.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use crossbeam::channel::{unbounded, Sender};

/// Pool workers per process (bounded so one process never oversubscribes
/// the machine, matching the old per-call fan-out cap).
const MAX_WORKERS: usize = 8;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct Pool {
    tx: Sender<Job>,
    workers: usize,
}

thread_local! {
    /// Set inside pool workers: a nested [`parallel_map`] on a worker runs
    /// inline instead of submitting helpers, so workers never block on a
    /// latch another queued task must satisfy.
    static IN_POOL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let (tx, rx) = unbounded::<Job>();
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(MAX_WORKERS);
        for i in 0..workers {
            let rx = rx.clone();
            std::thread::Builder::new()
                .name(format!("flor-exec-{i}"))
                .spawn(move || {
                    IN_POOL.with(|f| f.set(true));
                    while let Ok(job) = rx.recv() {
                        // A panicking task must not kill the worker: the
                        // scoped caller re-raises map panics itself.
                        let _ = catch_unwind(AssertUnwindSafe(job));
                    }
                })
                .expect("spawn flor-exec worker");
        }
        Pool { tx, workers }
    })
}

/// Shared state of one `parallel_map` call, co-owned by the caller and
/// every helper task (a helper signals its exit through it, so it must
/// outlive the caller's frame).
struct MapCtx {
    next: AtomicUsize,
    done_jobs: AtomicUsize,
    exited_helpers: AtomicUsize,
    panicked: AtomicBool,
    jobs: usize,
    latch: Mutex<()>,
    cv: Condvar,
}

/// Runs `f(0..jobs)` across the shared pool, preserving index order in
/// the returned vec. The calling thread participates (so progress never
/// depends on pool availability); helpers steal indices from the same
/// atomic queue. Panics in `f` are re-raised on the caller after all
/// tasks finish.
pub fn parallel_map<T, F>(jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if jobs == 0 {
        return Vec::new();
    }
    let inline = jobs == 1 || IN_POOL.with(|c| c.get());
    if inline {
        return (0..jobs).map(f).collect();
    }
    let p = pool();
    let helpers = p.workers.min(jobs - 1);
    if helpers == 0 {
        return (0..jobs).map(f).collect();
    }

    let mut results: Vec<Option<T>> = Vec::with_capacity(jobs);
    results.resize_with(jobs, || None);
    let ctx = Arc::new(MapCtx {
        next: AtomicUsize::new(0),
        done_jobs: AtomicUsize::new(0),
        exited_helpers: AtomicUsize::new(0),
        panicked: AtomicBool::new(false),
        jobs,
        latch: Mutex::new(()),
        cv: Condvar::new(),
    });

    // Erase the borrows for the 'static job channel. Sound: this frame
    // blocks below until done_jobs == jobs AND every helper has exited,
    // and a helper touches neither `f` nor `results` once it has counted
    // its exit.
    let f_addr = &f as *const F as usize;
    let res_addr = results.as_mut_ptr() as usize;

    let drain = |ctx: &MapCtx, f: &F, res: *mut Option<T>| {
        loop {
            let i = ctx.next.fetch_add(1, Ordering::Relaxed);
            if i >= ctx.jobs {
                break;
            }
            match catch_unwind(AssertUnwindSafe(|| f(i))) {
                // SAFETY: index `i` is claimed exactly once, so this slot
                // is written by exactly one task; the buffer outlives the
                // call (latch below).
                Ok(v) => unsafe { *res.add(i) = Some(v) },
                Err(_) => ctx.panicked.store(true, Ordering::Relaxed),
            }
            if ctx.done_jobs.fetch_add(1, Ordering::Release) + 1 == ctx.jobs {
                let _g = ctx.latch.lock().unwrap();
                ctx.cv.notify_all();
            }
        }
    };

    for _ in 0..helpers {
        let ctx = Arc::clone(&ctx);
        let job: Job = Box::new(move || {
            // SAFETY: see the erasure comment — the caller's latch keeps
            // both allocations alive until this task counts its exit.
            let f = unsafe { &*(f_addr as *const F) };
            drain(&ctx, f, res_addr as *mut Option<T>);
            ctx.exited_helpers.fetch_add(1, Ordering::Release);
            let _g = ctx.latch.lock().unwrap();
            ctx.cv.notify_all();
        });
        if p.tx.send(job).is_err() {
            panic!("executor channel closed");
        }
    }

    // The caller drains too — a busy pool degrades to sequential, never
    // to deadlock.
    drain(&ctx, &f, results.as_mut_ptr());

    let mut g = ctx.latch.lock().unwrap();
    while ctx.done_jobs.load(Ordering::Acquire) < jobs
        || ctx.exited_helpers.load(Ordering::Acquire) < helpers
    {
        g = ctx.cv.wait(g).unwrap();
    }
    drop(g);

    if ctx.panicked.load(Ordering::Relaxed) {
        panic!("parallel_map worker panicked");
    }
    results
        .into_iter()
        .map(|r| r.expect("every index produced"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn map_preserves_index_order() {
        let out = parallel_map(100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn map_borrows_caller_stack_data() {
        let data: Vec<u64> = (0..1000).collect();
        let sum = AtomicU64::new(0);
        let parts = parallel_map(16, |i| {
            let s: u64 = data[i * 62..(i + 1) * 62].iter().sum();
            sum.fetch_add(s, Ordering::Relaxed);
            s
        });
        assert_eq!(parts.len(), 16);
        assert_eq!(sum.load(Ordering::Relaxed), parts.iter().sum::<u64>());
    }

    #[test]
    fn nested_maps_complete() {
        // Outer map on the caller + inner maps that may land on pool
        // workers (which run them inline) — must not deadlock.
        let out = parallel_map(8, |i| parallel_map(8, move |j| i * 8 + j).len());
        assert_eq!(out, vec![8; 8]);
    }

    #[test]
    #[should_panic(expected = "parallel_map worker panicked")]
    fn map_panics_propagate() {
        parallel_map(16, |i| {
            if i == 7 {
                panic!("boom");
            }
            i
        });
    }
}
