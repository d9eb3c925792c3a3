//! # hetero-par — deterministic parallel sweep execution
//!
//! The Section 4.3 experiments of the heterogeneity paper evaluate on the
//! order of 10⁵–10⁶ random cluster pairs at sizes up to 2¹⁶ computers. This
//! crate provides the small parallel runtime those sweeps run on:
//!
//! * [`Pool`] — a persistent pool of parked workers (spawned once, reused
//!   by every sweep) whose [`Pool::map`] hands out indices through a
//!   chunk-stealing cursor and returns results **in index order**
//!   regardless of thread count or scheduling. The `HETERO_THREADS`
//!   override is read by [`configured_threads`] and sizes the
//!   process-wide [`Pool::global`] instance.
//! * [`seed`] — SplitMix64 seed derivation so that per-trial RNG streams
//!   depend only on `(root_seed, trial_index)`, never on which thread ran
//!   the trial. Combined with ordered results this makes every parallel
//!   experiment bit-for-bit reproducible.
//!
//! The implementation deliberately avoids `unsafe`: workers buffer
//! `(index, result)` pairs locally and the results are scattered into the
//! output vector once every job has reported.
//!
//! ```
//! let squares = hetero_par::Pool::global().map(4, 2, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pool;
pub mod seed;
mod sync;

pub use pool::{configured_threads, Pool};

use std::num::NonZeroUsize;

/// The machine's available parallelism, falling back to 1 when it cannot
/// be queried: the pool width when `HETERO_THREADS` is unset, and the
/// default thread budget of the sweep configs.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}
