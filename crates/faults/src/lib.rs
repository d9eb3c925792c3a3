//! # hetero-faults — deterministic fault injection for the CEP simulator
//!
//! The paper's analysis (and the `hetero-protocol` executor that replays
//! it) assumes every computer runs at its advertised ρ and every message
//! transits cleanly. Real clusters crash, straggle, and drop messages —
//! the regime the related work on coded computation and work exchange
//! designs for. This crate describes such failures as *data*:
//!
//! * [`FaultSpec`] — one validated fault: a permanent worker crash, a
//!   multiplicative slowdown over an interval, a transient channel-rate
//!   perturbation, or result-message loss requiring retransmission.
//! * [`FaultPlan`] — an ordered, validated set of specs: the description
//!   of one run's faults, with sampling, JSON and a fingerprint.
//! * [`FaultIndex`] — the per-run query view an executor builds once
//!   with [`FaultPlan::index`], in O(s log s) for s specs. It groups each
//!   worker's specs in insertion order, so `crash_time`,
//!   `slowdown_factor`, `has_slowdown` and `result_losses` cost O(log s)
//!   plus that worker's own specs, and `channel_factor` scans only the
//!   jitter windows. Answers are bit-identical to a scan of the whole
//!   plan, and the *fault-free* path performs zero extra float
//!   operations — which is what lets `execute_with_faults` with an empty
//!   plan stay bit-identical to the pristine executor.
//! * [`FaultConfig`] / [`FaultPlan::sample`] — seeded random plan
//!   generation (crash probability × straggler severity × loss rate),
//!   deterministic under a `u64` seed and fingerprintable
//!   ([`FaultPlan::fingerprint`]) for reproducibility manifests.
//!
//! The plan is pure description: the DES executor in `hetero-protocol`
//! compiles it into events and reacts to it; nothing here touches the
//! simulation engine.
//!
//! ```
//! use hetero_faults::{FaultPlan, FaultSpec};
//!
//! let plan = FaultPlan::new(vec![
//!     FaultSpec::Crash { worker: 1, at: 250.0 },
//!     FaultSpec::Slowdown { worker: 0, factor: 3.0, from: 0.0, until: 600.0 },
//! ])
//! .unwrap();
//! let index = plan.index(); // once per execution
//! assert_eq!(index.crash_time(1), Some(250.0));
//! assert_eq!(index.slowdown_factor(0, 100.0), Some(3.0));
//! assert_eq!(index.slowdown_factor(1, 100.0), None); // no-fault path: no float ops
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod index;
mod json;
mod plan;
mod spec;

pub use index::FaultIndex;
pub use json::PlanJsonError;
pub use plan::{FaultConfig, FaultPlan};
pub use spec::{FaultError, FaultSpec};
