//! # hetero-experiments — regenerating every table and figure
//!
//! One module per artifact of the paper's evaluation (see DESIGN.md §3 for
//! the full experiment index):
//!
//! | module | paper artifact |
//! |---|---|
//! | [`table3`] | Table 3 — HECRs of the C1/C2 families |
//! | [`table4`] | Table 4 — additive-speedup work ratios |
//! | [`fig34`] | Figures 3–4 — iterated multiplicative speedup snapshots |
//! | [`variance`] | §4.3 — variance as a power predictor (bad-pair rates) |
//! | [`threshold`] | §4.3 — the 100 %-correct variance-gap threshold θ |
//! | [`examples42`] | §4 opening example + Corollary 1 demonstrations |
//! | [`protocol_check`] | Theorems 1–2 validated behaviourally on the DES |
//! | [`gantt`] | Figures 1–2 — action/time diagrams |
//! | [`obs_export`] | Figures 1–2 — Chrome trace-event JSON (`--obs-trace`) |
//! | [`moments_ext`] | companion-paper extension: scoring moment predictors |
//! | [`fifo_lifo`] | Theorem 1 quantified: FIFO vs LIFO vs heuristics |
//! | [`sensitivity`] | extension: τ sweep across the three regimes |
//! | [`scaling`] | extension: §2.5 families up to n = 2¹⁶, X saturation |
//! | [`majorization_ext`] | extension: majorization explains the bad pairs |
//! | [`granularity`] | extension: integral-task quantization cost |
//! | [`robustness`] | extension: planning under speed-estimation error |
//! | [`fault_sweep`] | extension: fault injection vs adaptive replanning |
//! | [`protocol_sweep`] | extension: work exchange + MDS coding vs replanning |
//! | [`fleet`] | extension: fleet sizing against X-measure saturation |
//! | [`selection_sweep`] | extension: branch-and-bound exact selection at fleet scale |
//!
//! Every experiment is a pure function of its configuration (including RNG
//! seeds), returns a typed result struct, and renders through [`render`]'s
//! ASCII/CSV backends. The seven Monte-Carlo sweeps ([`variance`],
//! [`threshold`], [`moments_ext`], [`majorization_ext`], [`robustness`],
//! [`fault_sweep`], [`protocol_sweep`]) run through one crate-private
//! trial harness: it derives every trial's seed from the root seed, the
//! cell and the trial index, runs blocks of trials on the `hetero-par`
//! pool, returns results in trial order and counts them under the
//! driver's `trials.*` name, so results are identical at any thread
//! count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod critpath;
pub mod examples42;
pub mod fault_sweep;
pub mod fifo_lifo;
pub mod fig34;
pub mod fleet;
pub mod gantt;
pub mod granularity;
pub mod majorization_ext;
pub mod moments_ext;
pub mod obs_export;
pub mod protocol_check;
pub mod protocol_sweep;
pub mod render;
pub mod robustness;
pub mod scaling;
pub mod selection_sweep;
pub mod sensitivity;
pub mod table3;
pub mod table4;
pub mod threshold;
mod trials;
pub mod variance;
