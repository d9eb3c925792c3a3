//! A persistent worker pool with parked threads.
//!
//! [`Pool`] spawns its workers once and parks them on a condvar, so a
//! sweep that fans out once per cell spawns no thread per fan-out; each
//! `map` call enqueues chunk-stealing jobs and wakes only as many workers
//! as it needs.
//!
//! Determinism contract: results are scattered back **in input order**,
//! and callers derive per-item RNG seeds from `(root_seed, trial_index)`
//! via [`crate::seed::derive`], so the output is bit-for-bit independent
//! of thread count and scheduling.
//!
//! The pool size is fixed at construction; [`configured_threads`] reads
//! the `HETERO_THREADS` environment override (falling back to the
//! machine's available parallelism) and sizes the process-wide
//! [`Pool::global`] instance.
//!
//! Jobs must not block on the pool itself: drivers fan out at one level
//! only. A job that calls [`Pool::map`] on its own pool can deadlock once
//! every worker is occupied by such a job.

use std::any::Any;
use std::collections::VecDeque;
use std::sync::OnceLock;

use crate::sync::atomic::{AtomicUsize, Ordering};
use crate::sync::{thread, Arc, Condvar, Mutex};
use hetero_obs::counters::{PAR_POOL_JOBS, PAR_POOL_PARK_WAKES};

/// The worker-thread count in effect for pooled sweeps: the
/// `HETERO_THREADS` environment variable when it parses as a positive
/// integer, otherwise [`crate::default_threads`].
pub fn configured_threads() -> usize {
    threads_from_env(std::env::var("HETERO_THREADS").ok().as_deref())
}

/// Pure core of [`configured_threads`], testable without touching the
/// process environment. `None`, empty, non-numeric, and zero all fall
/// back to the hardware default.
pub fn threads_from_env(value: Option<&str>) -> usize {
    value
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(crate::default_threads)
}

/// A queued unit of work.
type Job = Box<dyn FnOnce() + Send + 'static>;

struct Queue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    available: Condvar,
}

/// A fixed-size pool of persistent, parked worker threads.
///
/// Dropping a pool shuts its workers down and joins them; the
/// process-wide [`Pool::global`] instance lives for the program and its
/// workers simply stay parked between sweeps.
pub struct Pool {
    shared: Arc<Shared>,
    workers: Vec<thread::JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.threads)
            .finish()
    }
}

/// Accumulator one `map` call's jobs report into.
struct MapState<R> {
    buckets: Vec<Vec<(usize, R)>>,
    panics: Vec<Box<dyn Any + Send>>,
    pending: usize,
}

/// Everything a `map` call shares with its jobs.
struct MapTask<R, F> {
    f: F,
    count: usize,
    chunk: usize,
    cursor: AtomicUsize,
    state: Mutex<MapState<R>>,
    done: Condvar,
}

impl Pool {
    /// Spawns a pool with exactly `threads` parked workers (clamped ≥ 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("hetero-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    // hetero-check: allow(expect) — thread spawn fails only on OS resource exhaustion at startup
                    .expect("OS can spawn a pool worker")
            })
            .collect();
        Pool {
            shared,
            workers,
            threads,
        }
    }

    /// The process-wide pool, sized by [`configured_threads`] on first
    /// use. Every sweep driver's trials run on this instance, so a
    /// process never accumulates idle threads no matter how many sweeps
    /// it runs.
    pub fn global() -> &'static Pool {
        static GLOBAL: OnceLock<Pool> = OnceLock::new();
        GLOBAL.get_or_init(|| Pool::new(configured_threads()))
    }

    /// The number of worker threads this pool owns.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f(index)` to every index in `0..count`, in parallel over
    /// at most `limit` workers, returning results in index order.
    ///
    /// `limit` is the *caller's* concurrency budget (a sweep config's
    /// `threads` field); the effective fan-out is
    /// `min(limit, pool workers, count)`. An effective fan-out of 1 runs
    /// inline on the caller without touching the queue. A panic in `f`
    /// is re-raised on the caller after the remaining jobs drain.
    pub fn map<R, F>(&self, count: usize, limit: usize, f: F) -> Vec<R>
    where
        R: Send + 'static,
        F: Fn(usize) -> R + Send + Sync + 'static,
    {
        let _span = hetero_obs::timed("par.pool.map");
        if count == 0 {
            return Vec::new();
        }
        let jobs = self.threads.min(limit.max(1)).min(count);
        if jobs <= 1 {
            return (0..count).map(f).collect();
        }

        // Grab work in contiguous chunks: big enough to amortize the
        // atomic, small enough to balance uneven items.
        let chunk = (count / (jobs * 8)).max(1);
        let task = Arc::new(MapTask {
            f,
            count,
            chunk,
            cursor: AtomicUsize::new(0),
            state: Mutex::new(MapState {
                buckets: Vec::with_capacity(jobs),
                panics: Vec::new(),
                pending: jobs,
            }),
            done: Condvar::new(),
        });
        PAR_POOL_JOBS.add(jobs as u64);
        for _ in 0..jobs {
            let task = Arc::clone(&task);
            self.submit(Box::new(move || run_map_job(&task)));
        }

        // Park the caller until the last job reports in.
        let mut state = self.lock_state(&task.state);
        while state.pending > 0 {
            state = task
                .done
                .wait(state)
                // hetero-check: allow(expect) — condvar wait fails only on a poisoned mutex, which run_map_job never poisons
                .expect("pool map state poisoned");
        }
        let panic = state.panics.pop();
        let mut buckets = std::mem::take(&mut state.buckets);
        drop(state);
        if let Some(p) = panic {
            std::panic::resume_unwind(p);
        }

        // Scatter into input order.
        let mut out: Vec<Option<R>> = Vec::with_capacity(count);
        out.resize_with(count, || None);
        for bucket in &mut buckets {
            for (i, r) in bucket.drain(..) {
                if let Some(slot) = out.get_mut(i) {
                    debug_assert!(slot.is_none(), "index {i} produced twice");
                    *slot = Some(r);
                }
            }
        }
        out.into_iter()
            // hetero-check: allow(expect) — the chunk-stealing cursor hands out each index exactly once, so every slot is filled
            .map(|r| r.expect("every index produced exactly once"))
            .collect()
    }

    fn lock_state<'a, R>(
        &self,
        state: &'a Mutex<MapState<R>>,
    ) -> std::sync::MutexGuard<'a, MapState<R>> {
        state
            .lock()
            // hetero-check: allow(expect) — jobs catch their own panics, so the map-state mutex is never poisoned
            .expect("pool map state poisoned")
    }

    fn submit(&self, job: Job) {
        {
            let mut q = self
                .shared
                .queue
                .lock()
                // hetero-check: allow(expect) — the queue mutex is only held for push/pop and cannot be poisoned by jobs
                .expect("pool queue poisoned");
            q.jobs.push_back(job);
            // Queue depth at its high-water mark: sustained depth near
            // the job count means workers lag the submitter.
            hetero_obs::gauge_max("par.pool.queue_depth", q.jobs.len() as u64);
        }
        self.shared.available.notify_one();
    }
}

/// One chunk-stealing job of a `map` call: drains cursor chunks, buffers
/// `(index, result)` pairs, reports the bucket (or a caught panic) and
/// wakes the caller when it is the last job standing.
fn run_map_job<R, F>(task: &MapTask<R, F>)
where
    R: Send,
    F: Fn(usize) -> R + Send + Sync,
{
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut local: Vec<(usize, R)> = Vec::new();
        loop {
            let start = task.cursor.fetch_add(task.chunk, Ordering::Relaxed);
            if start >= task.count {
                break;
            }
            let end = (start + task.chunk).min(task.count);
            for i in start..end {
                local.push((i, (task.f)(i)));
            }
        }
        local
    }));
    let mut state = task
        .state
        .lock()
        // hetero-check: allow(expect) — every job stores through catch_unwind, so the state mutex is never poisoned
        .expect("pool map state poisoned");
    match result {
        Ok(local) => state.buckets.push(local),
        Err(p) => state.panics.push(p),
    }
    state.pending -= 1;
    if state.pending == 0 {
        task.done.notify_all();
    }
}

/// The park-until-work loop every pool worker runs.
fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut q = shared
                .queue
                .lock()
                // hetero-check: allow(expect) — the queue mutex is only held for push/pop and cannot be poisoned by jobs
                .expect("pool queue poisoned");
            let mut parked = false;
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    if parked {
                        // A condvar wait actually ended with work: the
                        // park-wake count over `par.pool.jobs` shows how
                        // often the queue drains dry between jobs.
                        PAR_POOL_PARK_WAKES.bump();
                    }
                    break Some(job);
                }
                if q.shutdown {
                    break None;
                }
                parked = true;
                q = shared
                    .available
                    .wait(q)
                    // hetero-check: allow(expect) — see above: the queue mutex cannot be poisoned
                    .expect("pool queue poisoned");
            }
        };
        match job {
            Some(job) => job(),
            None => return,
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        if let Ok(mut q) = self.shared.queue.lock() {
            q.shutdown = true;
        }
        self.shared.available.notify_all();
        for worker in self.workers.drain(..) {
            // A worker only terminates by reading the shutdown flag; a
            // failed join means it panicked, which jobs make impossible.
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_matches_serial_for_any_limit() {
        let pool = Pool::new(4);
        let expect: Vec<u64> = (0..5_000u64).map(|x| x.wrapping_mul(x) ^ 0xabcd).collect();
        for limit in [1, 2, 3, 7, 16] {
            let got = pool.map(5_000, limit, |i| (i as u64).wrapping_mul(i as u64) ^ 0xabcd);
            assert_eq!(got, expect, "limit = {limit}");
        }
    }

    #[test]
    fn pool_is_reusable_across_calls() {
        let pool = Pool::new(3);
        for round in 0..20usize {
            let got = pool.map(100, 3, move |i| i + round);
            assert_eq!(got, (round..100 + round).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_and_single_item_maps() {
        let pool = Pool::new(2);
        assert!(pool.map(0, 8, |i| i).is_empty());
        assert_eq!(pool.map(1, 8, |i| i + 7), vec![7]);
    }

    #[test]
    fn uneven_workloads_balance() {
        let pool = Pool::new(8);
        let out = pool.map(200, 8, |x| {
            let spin = if x < 8 { 200_000u64 } else { 10 };
            let mut acc = x as u64;
            for _ in 0..spin {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            std::hint::black_box(acc);
            x + 1
        });
        assert_eq!(out, (1..=200).collect::<Vec<usize>>());
    }

    #[test]
    fn clamps_to_one_worker() {
        let pool = Pool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(
            pool.map(10, 0, |i| i * 2),
            (0..10).map(|i| i * 2).collect::<Vec<_>>()
        );
    }

    #[test]
    fn job_panics_propagate_to_the_caller_and_spare_the_pool() {
        let pool = Pool::new(2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.map(64, 2, |i| {
                assert!(i != 17, "boom");
                i
            })
        }));
        assert!(caught.is_err(), "panic must cross map");
        // The pool survives and keeps producing correct results.
        assert_eq!(pool.map(8, 2, |i| i), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn env_parsing_falls_back_on_garbage() {
        assert_eq!(threads_from_env(Some("3")), 3);
        assert_eq!(threads_from_env(Some(" 5 ")), 5);
        let default = crate::default_threads();
        assert_eq!(threads_from_env(None), default);
        assert_eq!(threads_from_env(Some("")), default);
        assert_eq!(threads_from_env(Some("zero")), default);
        assert_eq!(threads_from_env(Some("0")), default);
        assert_eq!(threads_from_env(Some("-2")), default);
    }

    #[test]
    fn global_pool_is_shared_and_usable() {
        let a = Pool::global();
        let b = Pool::global();
        assert!(std::ptr::eq(a, b));
        assert!(a.threads() >= 1);
        assert_eq!(a.map(16, 4, |i| i), (0..16).collect::<Vec<_>>());
    }
}
