//! # hetero-obs — structured observability for the solver and simulator
//!
//! The workspace's hot paths (the incremental [`XScan`] engine, the
//! Gray-code subset search, the discrete-event loop) previously ran dark:
//! no counters, no timings, no machine-readable timelines. This crate is
//! the offline-friendly observability substrate — zero external
//! dependencies, in the style of the `shims/` crates — providing:
//!
//! * a global [`Collector`] handle with an **enable/disable no-op fast
//!   path** (one relaxed atomic load when disabled, benchmarked at ≤2%
//!   overhead on the greedy-sweep hot loop; see `BENCH_pr3.json`),
//! * [`counters`] — statically allocated hot counters for the innermost
//!   loops, plus dynamically named [`count`]/[`gauge_max`] metrics,
//! * [`observe`]/[`observe_hist`] — Welford statistics and fixed-width
//!   histograms reusing `hetero_sim::stats`,
//! * [`timed`] — RAII wall-clock spans,
//! * [`sketch`](mod@sketch) — mergeable log-bucketed quantile sketches
//!   ([`sketch::QuantileSketch`]) with deterministic p50/p90/p99/max,
//! * [`causal`] — critical-path extraction over the simulator's causal
//!   span trees, with an inferno-compatible folded-stack exporter
//!   ([`folded`]) beside the Chrome one,
//! * [`diff`] — the regression observatory backing `hetero-cli obsdiff`:
//!   load two runs, diff counters/spans/quantiles under noise
//!   thresholds, exit nonzero on regression,
//! * sinks: a human summary table ([`Snapshot::summary`]), a JSON-lines
//!   event stream ([`Snapshot::to_jsonl`], every line
//!   `{"event", "name", "value"}`), and a Chrome trace-event exporter
//!   ([`chrome`]) that turns a simulator [`Trace`] into a
//!   `chrome://tracing` / Perfetto-loadable action/time diagram — the
//!   paper's Figures 1–2 as profiler artifacts.
//!
//! Instrumentation sites must tolerate the collector being off: every
//! entry point checks [`enabled`] first and is a no-op (no lock, no
//! allocation) when observability is disabled, so library code can be
//! instrumented unconditionally.
//!
//! ```
//! hetero_obs::enable();
//! hetero_obs::reset();
//! hetero_obs::count("demo.widgets", 3);
//! {
//!     let _span = hetero_obs::timed("demo.phase");
//! } // span recorded on drop
//! let snap = hetero_obs::snapshot();
//! assert_eq!(snap.counter("demo.widgets"), 3);
//! for line in snap.to_jsonl().lines() {
//!     assert!(hetero_obs::sink::validate_jsonl_line(line).is_ok());
//! }
//! hetero_obs::disable();
//! ```
//!
//! [`XScan`]: https://docs.rs/hetero-core
//! [`Trace`]: hetero_sim::Trace
//! [`Collector`]: collector::Collector

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod causal;
pub mod chrome;
pub mod collector;
pub mod counters;
pub mod diff;
pub mod folded;
mod global;
pub mod json;
pub mod manifest;
pub mod sink;
pub mod sketch;

pub use collector::{
    Collector, HistRangeError, HistSnapshot, SketchSnapshot, Snapshot, ValueStats, WallSpan,
};
pub use global::{
    count, disable, enable, enabled, gauge_max, observe, observe_hist, reset, sketch, snapshot,
    timed, with_collector, TimedSpan,
};
pub use manifest::{HostContext, RunManifest};
