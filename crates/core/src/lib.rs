//! # hetero-core — the heterogeneity model of Rosenberg & Chiang
//!
//! This crate implements the analytical core of *"Toward Understanding
//! Heterogeneity in Computing"* (IPDPS 2010): a framework for measuring the
//! computing power of a heterogeneous cluster **solely from its
//! heterogeneity profile** — the vector of its computers' per-unit work
//! times — via the Cluster-Exploitation Problem (CEP).
//!
//! ## The model in one paragraph
//!
//! A server `C0` shares `W` units of uniform, independent work with a
//! cluster of `n` computers. Computer `C_i` completes one unit of work in
//! `ρ_i` time units (smaller is faster); the vector `P = ⟨ρ1,…,ρn⟩`, in
//! nonincreasing order and normalized so the slowest computer has
//! `ρ1 = 1`, is the cluster's [`Profile`]. Work and results travel over a
//! network carrying at most one message at a time, with transit rate `τ`,
//! packaging rate `π`, and output/input ratio `δ ≤ 1` (the [`Params`]).
//! FIFO worksharing protocols solve the CEP optimally, and the work they
//! complete in a lifespan `L` is determined by the *X-measure* of the
//! profile alone.
//!
//! ## What lives here
//!
//! * [`Params`] — the environment constants `τ, π, δ` and the paper's
//!   derived quantities `A = π + τ`, `B = 1 + (1+δ)π` (Tables 1–2).
//! * [`Profile`] — validated heterogeneity profiles and the paper's named
//!   families (Section 2.5).
//! * [`xmeasure`] — the X-measure and asymptotic work production
//!   (Theorem 2).
//! * [`hecr`] — the homogeneous-equivalent computing rate, by the
//!   Proposition 1 closed form and by an independent bisection solver.
//! * [`speedup`] — additive and multiplicative single-computer upgrades,
//!   the Theorem 3/4 decision rules, and the greedy upgrade engine that
//!   generates the paper's Figures 3–4.
//! * [`selection`] — cluster composition: optimal sub-clusters, marginal
//!   gains, and fleet sizing against the X-measure's saturation.
//! * [`xengine`] — the incremental X-measure engine: prefix/suffix
//!   decomposition of the Theorem 2 sum for O(1) single-ρ what-if
//!   evaluation, powering the optimization loops above.
//! * [`xbatch`] — structure-of-arrays batched evaluation: a lockstep
//!   kernel advancing the Theorem 2 recurrence for whole blocks of
//!   same-length profiles at once, bit-identical to the scalar path.
//! * [`fastnum`] — the certified fast numeric mode: a single-division
//!   reform and a divide-free reciprocal-Newton path for the Theorem 2
//!   recurrence, each with an analytic ulp budget certified against
//!   the exact rational oracle ([`NumericMode`] selects; strict stays
//!   the default and the golden baseline).
//! * [`xstream`] — streaming X-measure maintenance under fleet churn:
//!   segmented Neumaier scans behind a summary tree for amortized
//!   O(log n) `insert`/`delete`/`replace`, exploiting Theorem 1(2)
//!   order independence.
//! * [`hcompress`] — hierarchical HECR compression: sub-clusters
//!   collapsed to their Proposition 1 homogeneous equivalents behind a
//!   summary tree, for bounded-error X/HECR queries over million-worker
//!   fleets and the admissible bound of the branch-and-bound search.
//!
//! ## Quickstart
//!
//! ```
//! use hetero_core::{Params, Profile, xmeasure, hecr};
//!
//! let params = Params::paper_table1();
//! // The two clusters of the paper's Table 3, with n = 8:
//! let c1 = Profile::uniform_spread(8);
//! let c2 = Profile::harmonic(8);
//!
//! let x1 = xmeasure::x_measure(&params, &c1);
//! let x2 = xmeasure::x_measure(&params, &c2);
//! assert!(x2 > x1, "C2's computers are mostly faster");
//!
//! // HECR: the speed a homogeneous cluster would need to match them
//! // (smaller ρ = faster).
//! let r1 = hecr::hecr(&params, &c1).unwrap();
//! let r2 = hecr::hecr(&params, &c2).unwrap();
//! assert!(r2 < r1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod params;
mod profile;

pub mod fastnum;
pub mod hcompress;
pub mod hecr;
pub mod numeric;
pub mod selection;
pub mod speedup;
pub mod xbatch;
pub mod xengine;
pub mod xmeasure;
pub mod xstream;

pub use error::ModelError;
pub use fastnum::NumericMode;
pub use params::Params;
pub use profile::{sort_slowest_first, Profile};
