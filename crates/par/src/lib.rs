//! # hetero-par — deterministic parallel sweep execution
//!
//! The Section 4.3 experiments of the heterogeneity paper evaluate on the
//! order of 10⁵–10⁶ random cluster pairs at sizes up to 2¹⁶ computers. This
//! crate provides the small parallel runtime those sweeps run on:
//!
//! * [`par_map`] / [`par_map_with`] — data-parallel map over a slice using
//!   crossbeam scoped threads and a shared atomic work queue (dynamic load
//!   balancing), returning results **in input order** regardless of thread
//!   count or scheduling.
//! * [`par_reduce`] — map + associative reduction without materializing the
//!   mapped vector.
//! * [`Pool`] — a persistent pool of parked workers (spawned once, reused
//!   by every sweep), with the `HETERO_THREADS` override read by
//!   [`configured_threads`] and a process-wide [`Pool::global`] instance.
//! * [`seed`] — SplitMix64 seed derivation so that per-trial RNG streams
//!   depend only on `(root_seed, trial_index)`, never on which thread ran
//!   the trial. Combined with ordered results this makes every parallel
//!   experiment bit-for-bit reproducible.
//!
//! The implementation deliberately avoids `unsafe`: workers buffer
//! `(index, result)` pairs locally and the results are scattered into the
//! output vector after the scope joins.
//!
//! ```
//! let squares = hetero_par::par_map(&[1u64, 2, 3, 4], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pool;
pub mod seed;
mod sync;

pub use pool::{configured_threads, Pool};

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of worker threads used by the free functions: the machine's
/// available parallelism, falling back to 1 when it cannot be queried.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// A reusable parallel executor with a fixed thread count.
///
/// The free functions [`par_map`], [`par_map_with`], and [`par_reduce`] are
/// shorthands for an executor with [`default_threads`] workers.
#[derive(Debug, Clone, Copy)]
pub struct Executor {
    threads: usize,
}

impl Default for Executor {
    fn default() -> Self {
        Executor::new(default_threads())
    }
}

impl Executor {
    /// Creates an executor with exactly `threads` workers (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        Executor {
            threads: threads.max(1),
        }
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f(index, item)` to every item, in parallel, returning the
    /// results in input order.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.map_with(items, |_| (), |(), i, t| f(i, t))
    }

    /// Like [`Executor::map`] but threads each carry mutable worker-local
    /// state built by `init(worker_id)` — the idiomatic slot for scratch
    /// buffers or a reusable allocation. For RNG, prefer deriving per-*item*
    /// seeds via [`seed::derive`] inside `f` so results stay independent of
    /// the thread count.
    pub fn map_with<T, R, S, F, I>(&self, items: &[T], init: I, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&mut S, usize, &T) -> R + Sync,
        I: Fn(usize) -> S + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let threads = self.threads.min(n);
        if threads == 1 {
            let mut state = init(0);
            return items
                .iter()
                .enumerate()
                .map(|(i, t)| f(&mut state, i, t))
                .collect();
        }

        // Grab work in contiguous chunks: big enough to amortize the atomic,
        // small enough to balance uneven per-item cost.
        let chunk = (n / (threads * 8)).max(1);
        let cursor = AtomicUsize::new(0);

        let mut buckets: Vec<Vec<(usize, R)>> = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|worker| {
                    let cursor = &cursor;
                    let f = &f;
                    let init = &init;
                    scope.spawn(move |_| {
                        let mut state = init(worker);
                        let mut local: Vec<(usize, R)> = Vec::with_capacity(n / threads + 1);
                        loop {
                            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                            if start >= n {
                                break;
                            }
                            let end = (start + chunk).min(n);
                            for (i, item) in items.iter().enumerate().take(end).skip(start) {
                                local.push((i, f(&mut state, i, item)));
                            }
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                // hetero-check: allow(expect) — join fails only if the worker panicked; re-raising is the intended behavior
                .map(|h| h.join().expect("hetero-par worker panicked"))
                .collect()
        })
        // hetero-check: allow(expect) — the scope errs only when a child panicked, which must propagate
        .expect("crossbeam scope failed");

        // Scatter into input order.
        let mut out: Vec<Option<R>> = Vec::with_capacity(n);
        out.resize_with(n, || None);
        for bucket in &mut buckets {
            for (i, r) in bucket.drain(..) {
                if let Some(slot) = out.get_mut(i) {
                    debug_assert!(slot.is_none(), "index {i} produced twice");
                    *slot = Some(r);
                }
            }
        }
        out.into_iter()
            // hetero-check: allow(expect) — the work-stealing cursor hands out each index exactly once, so every slot is filled
            .map(|r| r.expect("every index produced exactly once"))
            .collect()
    }

    /// Maps every item through `f` and folds the results with `combine`,
    /// starting from `identity`.
    ///
    /// `combine` must be associative and commutative: the grouping of
    /// partial results depends on scheduling.
    pub fn reduce<T, R, F, C>(&self, items: &[T], identity: R, f: F, combine: C) -> R
    where
        T: Sync,
        R: Send + Clone,
        F: Fn(usize, &T) -> R + Sync,
        C: Fn(R, R) -> R + Sync,
    {
        let n = items.len();
        if n == 0 {
            return identity;
        }
        let threads = self.threads.min(n);
        if threads == 1 {
            return items
                .iter()
                .enumerate()
                .fold(identity, |acc, (i, t)| combine(acc, f(i, t)));
        }
        let chunk = (n / (threads * 8)).max(1);
        let cursor = AtomicUsize::new(0);
        let partials: Vec<R> = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let cursor = &cursor;
                    let f = &f;
                    let combine = &combine;
                    let identity = identity.clone();
                    scope.spawn(move |_| {
                        let mut acc = identity;
                        loop {
                            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                            if start >= n {
                                break;
                            }
                            let end = (start + chunk).min(n);
                            for (i, item) in items.iter().enumerate().take(end).skip(start) {
                                acc = combine(acc, f(i, item));
                            }
                        }
                        acc
                    })
                })
                .collect();
            handles
                .into_iter()
                // hetero-check: allow(expect) — join fails only if the worker panicked; re-raising is the intended behavior
                .map(|h| h.join().expect("hetero-par worker panicked"))
                .collect()
        })
        // hetero-check: allow(expect) — the scope errs only when a child panicked, which must propagate
        .expect("crossbeam scope failed");
        partials.into_iter().fold(identity, combine)
    }
}

/// [`Executor::map`] on a default-sized executor.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    Executor::default().map(items, f)
}

/// [`Executor::map_with`] on a default-sized executor.
pub fn par_map_with<T, R, S, F, I>(items: &[T], init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&mut S, usize, &T) -> R + Sync,
    I: Fn(usize) -> S + Sync,
{
    Executor::default().map_with(items, init, f)
}

/// [`Executor::reduce`] on a default-sized executor.
pub fn par_reduce<T, R, F, C>(items: &[T], identity: R, f: F, combine: C) -> R
where
    T: Sync,
    R: Send + Clone,
    F: Fn(usize, &T) -> R + Sync,
    C: Fn(R, R) -> R + Sync,
{
    Executor::default().reduce(items, identity, f, combine)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order() {
        let items: Vec<u64> = (0..10_000).collect();
        let out = par_map(&items, |i, &x| {
            assert_eq!(i as u64, x);
            x * 2
        });
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn map_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(&empty, |_, &x| x).is_empty());
        assert_eq!(par_map(&[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn map_independent_of_thread_count() {
        let items: Vec<u64> = (0..5_000).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(x) ^ 0xabcd).collect();
        for threads in [1, 2, 3, 7, 16] {
            let got = Executor::new(threads).map(&items, |_, &x| x.wrapping_mul(x) ^ 0xabcd);
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn map_with_worker_state() {
        // Worker-local scratch buffers must be reused across items on the
        // same worker; the sum of per-worker item counts is the item count.
        let items: Vec<u32> = (0..1234).collect();
        let out = Executor::new(4).map_with(
            &items,
            |_worker| Vec::<u32>::new(),
            |scratch, _, &x| {
                scratch.push(x);
                x
            },
        );
        assert_eq!(out, items);
    }

    #[test]
    fn reduce_sums_correctly() {
        let items: Vec<u64> = (1..=1000).collect();
        let sum = par_reduce(&items, 0u64, |_, &x| x, |a, b| a + b);
        assert_eq!(sum, 500_500);
    }

    #[test]
    fn reduce_matches_serial_for_any_threads() {
        let items: Vec<i64> = (-500..500).collect();
        let expect: i64 = items.iter().map(|x| x * x * x).sum();
        for threads in [1, 2, 5, 32] {
            let got = Executor::new(threads).reduce(&items, 0, |_, &x| x * x * x, |a, b| a + b);
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn executor_clamps_to_one_thread() {
        assert_eq!(Executor::new(0).threads(), 1);
    }

    #[test]
    fn uneven_workloads_balance() {
        // Items near the front are much more expensive; dynamic chunking
        // must still return correct, ordered results.
        let items: Vec<u64> = (0..200).collect();
        let out = Executor::new(8).map(&items, |_, &x| {
            let spin = if x < 8 { 200_000 } else { 10 };
            let mut acc = x;
            for _ in 0..spin {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            std::hint::black_box(acc);
            x + 1
        });
        assert_eq!(out, (1..=200).collect::<Vec<u64>>());
    }
}
