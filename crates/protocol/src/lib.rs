//! # hetero-protocol — worksharing protocols for the CEP
//!
//! The paper's Cluster-Exploitation Problem (§1.2): a server `C0` must
//! complete as many units of work as possible on cluster `C` within a
//! lifespan of `L` time units, where a unit is complete once its results
//! are back at `C0`, and **at most one intercomputer message is in transit
//! at a time**. This crate turns the paper's protocol description (§2.2,
//! Figures 1–2) into executable artifacts:
//!
//! * [`alloc`] — the optimal FIFO work allocation in closed form, derived
//!   from the no-gap conditions (`(A + Bρ_{s_i})·w_{s_i} =
//!   (Bρ_{s_{i−1}} + τδ)·w_{s_{i−1}}`), whose total reproduces Theorem 2's
//!   `W(L;P) = L/(τδ + 1/X(P))` *identically*, not just asymptotically.
//! * [`exec`] — a discrete-event execution of any plan on the
//!   `hetero-sim` engine, producing a full action/time [`Trace`] with the
//!   server, every worker, and the network as separate entities.
//! * [`fault_exec`], [`replan`], [`exchange`] and [`coded`] — the same
//!   execution under injected faults, oblivious or reacting. All five
//!   executors are policies on one crate-private event engine.
//! * [`baseline`] — suboptimal allocations (equal split,
//!   speed-proportional) sized to the same lifespan against the simulator
//!   (a walk of single ulps from `L/T(u)`, bisection as the fallback), so
//!   Theorem 1's optimality claim can be *observed*.
//! * [`validate`] — checks that executions respect the protocol's
//!   invariants (single message in transit, serial entities, completion
//!   within the lifespan).
//!
//! ```
//! use hetero_core::{Params, Profile};
//! use hetero_protocol::{alloc, exec};
//!
//! let params = Params::paper_table1();
//! let profile = Profile::new(vec![1.0, 0.5, 0.25]).unwrap();
//! let plan = alloc::fifo_plan(&params, &profile, 3600.0).unwrap();
//! let run = exec::execute(&params, &profile, &plan);
//! // Everything arrives by the lifespan, and the completed work matches
//! // the Theorem 2 closed form.
//! assert!(run.last_arrival().unwrap().get() <= 3600.0 * (1.0 + 1e-12));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod baseline;
pub mod coded;
pub mod exchange;
pub mod exec;
pub mod fault_exec;
pub mod general;
pub mod integral;
pub mod rental;
pub mod replan;
pub mod timeline;
pub mod validate;

mod detect;
mod engine;
mod error;

pub use coded::{CodedExecution, CodedPlan, DecodeFailed};
pub use error::ProtocolError;
pub use exchange::{ExchangeExecution, ExchangePolicy};
pub use fault_exec::{ExecError, FaultedExecution};
pub use hetero_sim::{Span, Trace};
