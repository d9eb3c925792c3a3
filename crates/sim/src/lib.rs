//! # hetero-sim — a deterministic discrete-event simulation engine
//!
//! The heterogeneity paper validates its closed-form analysis "via
//! simulations that illustrate and elucidate the analytical results". The
//! authors' simulator was never released, so this crate provides the
//! substrate: a small, deterministic discrete-event core on which
//! `hetero-protocol` executes worksharing protocols event by event.
//!
//! * [`SimTime`] — totally ordered simulation clock value (finite `f64`).
//! * [`EventQueue`] — time-ordered pending-event set with FIFO tie-breaking,
//!   so runs are exactly reproducible; an event loop pops it until empty.
//! * [`UnitResource`] — a serially reusable resource (a computer, or the
//!   paper's *single-message-in-transit* network) granting time intervals.
//! * [`Trace`] — span recorder producing the action/time diagrams of the
//!   paper's Figures 1–2.
//! * [`stats`] — online (Welford) accumulators and fixed histograms for
//!   sweep aggregation.
//!
//! ```
//! use hetero_sim::{EventQueue, SimTime};
//!
//! let mut q = EventQueue::new();
//! q.schedule_at(SimTime::new(2.0), "later");
//! q.schedule_at(SimTime::new(1.0), "sooner");
//! let mut order = Vec::new();
//! while let Some((_t, ev)) = q.pop() {
//!     order.push(ev);
//! }
//! assert_eq!(order, ["sooner", "later"]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod queue;
mod resource;
mod time;
mod trace;

pub mod stats;

pub use queue::EventQueue;
pub use resource::{Grant, GrantError, UnitResource};
pub use time::{NonFiniteTime, SimTime};
pub use trace::{BackwardsSpan, Label, Phase, Span, Trace};
