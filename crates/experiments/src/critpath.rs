//! Experiment E21 — **causal critical paths under faults**.
//!
//! E18 compared oblivious FIFO against adaptive replanning by *outcome*
//! (throughput fraction, deadline-miss rate). This experiment explains
//! those outcomes *structurally*: every executor now records a causal
//! parent per span (PR 8), so each run yields a span forest whose
//! heaviest result-delivering chain — extracted by
//! [`hetero_obs::causal::critical_path_where`] — is the schedule's
//! binding constraint.
//!
//! For one representative seeded trial per E18 grid cell we extract that
//! chain for both arms and report its weight, slack (causal gaps), end
//! time, and compute share. The paper's Theorem 1 story reads off the
//! table directly:
//!
//! * on a straggler-hit oblivious run the chain's **end** overshoots the
//!   lifespan — the late chain *is* the miss;
//! * the adaptive arm re-sizes the suffix, so its chain ends inside the
//!   (hedged) lifespan, trading a little weight for timeliness;
//! * **slack ≈ 0** on every chain: children are event-scheduled at their
//!   parents' completion, so the binding chain is temporally contiguous
//!   — the mechanism behind the Theorem 1 lifespan bound.

use hetero_clustergen::{rng_from_seed, GenConfig, Shape};
use hetero_core::Params;
use hetero_faults::{FaultConfig, FaultPlan};
use hetero_obs::causal;
use hetero_par::seed;
use hetero_protocol::{alloc, fault_exec, replan};
use hetero_sim::{Label, Phase, Trace};

use crate::render::{fmt_f, Table};

/// Critical-path summary of one executed arm.
#[derive(Debug, Clone, PartialEq)]
pub struct ArmPath {
    /// Chain weight: sum of span durations along the chain.
    pub weight: f64,
    /// `end − start − weight`: total causal gap along the chain.
    pub slack: f64,
    /// End time of the chain's leaf span.
    pub end: f64,
    /// Number of spans on the chain.
    pub spans: usize,
    /// Fraction of the chain's weight spent in worker `compute` phases
    /// (the rest is packaging, transmission, waits, and server unpacks).
    pub compute_share: f64,
    /// Whether the arm delivered its last result after the lifespan.
    pub missed: bool,
}

/// One grid cell: both arms' binding chains on the same perturbed run.
#[derive(Debug, Clone, PartialEq)]
pub struct CritPathRow {
    /// Per-worker crash probability.
    pub crash_p: f64,
    /// Chronic-straggler slowdown factor.
    pub straggler_factor: f64,
    /// Hedge margin the adaptive arm plans with.
    pub margin: f64,
    /// Oblivious FIFO executor's chain.
    pub oblivious: ArmPath,
    /// Adaptive replanner's chain.
    pub adaptive: ArmPath,
    /// Suffix re-optimizations the adaptive arm performed.
    pub replans: u32,
}

/// Configuration: the E18 fault grid, one seeded trial per cell.
#[derive(Debug, Clone)]
pub struct CritPathConfig {
    /// Model parameters.
    pub params: Params,
    /// Cluster size.
    pub n: usize,
    /// Lifespan both arms plan against.
    pub lifespan: f64,
    /// Per-worker crash probabilities to sweep.
    pub crash_ps: Vec<f64>,
    /// Chronic-straggler severities to sweep.
    pub straggler_factors: Vec<f64>,
    /// Hedge margins to sweep for the adaptive arm.
    pub margins: Vec<f64>,
    /// Root seed (same derivation chain as E18's first trial).
    pub seed: u64,
}

impl Default for CritPathConfig {
    fn default() -> Self {
        CritPathConfig {
            params: Params::paper_table1(),
            n: 8,
            lifespan: 600.0,
            crash_ps: vec![0.0, 0.1, 0.3],
            straggler_factors: vec![1.5, 4.0],
            margins: vec![0.0, 0.1],
            seed: 0xFA17,
        }
    }
}

/// Results.
#[derive(Debug, Clone, PartialEq)]
pub struct CritPaths {
    /// Cluster size the sweep ran at.
    pub n: usize,
    /// Lifespan the arms planned against.
    pub lifespan: f64,
    /// One row per cell, in `crash_ps × straggler_factors × margins`
    /// order.
    pub rows: Vec<CritPathRow>,
}

/// Extracts the heaviest *result-delivering* chain (leaf is a server
/// `recv` span) and summarizes it; falls back to the global critical
/// path when every result was destroyed.
fn arm_path(trace: &Trace, missed: bool) -> ArmPath {
    let path = causal::critical_path_where(trace, |i| {
        matches!(trace.spans()[i].label, Label::RecvFrom { .. })
    })
    .or_else(|| causal::critical_path(trace));
    let Some(p) = path else {
        return ArmPath {
            weight: 0.0,
            slack: 0.0,
            end: 0.0,
            spans: 0,
            compute_share: 0.0,
            missed,
        };
    };
    let spans = trace.spans();
    let compute: f64 = p
        .span_ids
        .iter()
        .filter(|&&id| {
            matches!(
                spans[id].label,
                Label::Worker {
                    phase: Phase::Compute,
                    ..
                }
            )
        })
        .map(|&id| spans[id].duration())
        .sum(); // hetero-check: allow(float-accum) — a chain holds O(n) spans and the share is reported to 3 digits
    ArmPath {
        weight: p.weight,
        slack: p.slack,
        end: p.end,
        spans: p.span_ids.len(),
        compute_share: if p.weight > 0.0 {
            compute / p.weight
        } else {
            0.0
        },
        missed,
    }
}

/// Runs the sweep: one representative trial per cell, both arms on the
/// identical perturbed run (same truth profile, same fault plan).
pub fn run(config: &CritPathConfig) -> CritPaths {
    let cells = config.crash_ps.len() * config.straggler_factors.len() * config.margins.len();
    hetero_obs::count("trials.critpath", cells as u64);
    let mut rows = Vec::with_capacity(cells);
    let mut cell = 0u64;
    for &crash_p in &config.crash_ps {
        for &factor in &config.straggler_factors {
            for &margin in &config.margins {
                cell += 1;
                // Same seed chain as E18's trial 0 of this cell, so the
                // chains explain runs the fault sweep actually measures.
                let trial_seed = seed::derive(seed::derive(config.seed, cell), 0);
                let mut rng = rng_from_seed(seed::derive(trial_seed, 1));
                let truth = hetero_clustergen::random_profile(
                    &mut rng,
                    GenConfig::new(config.n),
                    Shape::Uniform,
                );
                let faults = FaultPlan::sample(
                    &FaultConfig {
                        crash_p,
                        straggler_count: 1,
                        straggler_factor: factor,
                        ..FaultConfig::default()
                    },
                    config.n,
                    config.lifespan,
                    seed::derive(trial_seed, 2),
                )
                .expect("valid fault config");
                let plan =
                    alloc::fifo_plan(&config.params, &truth, config.lifespan).expect("feasible");
                let obl = fault_exec::execute_with_faults(&config.params, &truth, &plan, &faults)
                    .expect("runs");
                let ada = replan::execute_adaptive(
                    &config.params,
                    &truth,
                    &plan,
                    &faults,
                    &replan::HedgePolicy {
                        margin,
                        ..replan::HedgePolicy::default()
                    },
                )
                .expect("runs");
                rows.push(CritPathRow {
                    crash_p,
                    straggler_factor: factor,
                    margin,
                    oblivious: arm_path(&obl.trace, obl.missed_deadline(config.lifespan)),
                    adaptive: arm_path(&ada.trace, ada.missed_deadline(config.lifespan)),
                    replans: ada.replans,
                });
            }
        }
    }
    CritPaths {
        n: config.n,
        lifespan: config.lifespan,
        rows,
    }
}

/// The default paper-grid sweep.
pub fn run_paper() -> CritPaths {
    run(&CritPathConfig::default())
}

/// A small CI-sized sweep.
pub fn run_smoke() -> CritPaths {
    run(&CritPathConfig {
        n: 6,
        crash_ps: vec![0.0, 0.2],
        straggler_factors: vec![3.0],
        margins: vec![0.0, 0.1],
        ..CritPathConfig::default()
    })
}

impl CritPaths {
    /// ASCII rendering.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "Causal critical paths — oblivious FIFO vs adaptive replanning (n = {}, L = {})",
                self.n, self.lifespan
            ),
            &[
                "crash p",
                "straggle ×",
                "margin",
                "obliv W",
                "obliv slack",
                "obliv end",
                "obliv miss",
                "adapt W",
                "adapt slack",
                "adapt end",
                "adapt miss",
                "replans",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                fmt_f(r.crash_p, 2),
                fmt_f(r.straggler_factor, 1),
                fmt_f(r.margin, 2),
                fmt_f(r.oblivious.weight, 1),
                fmt_f(r.oblivious.slack, 3),
                fmt_f(r.oblivious.end, 1),
                if r.oblivious.missed { "yes" } else { "no" }.to_string(),
                fmt_f(r.adaptive.weight, 1),
                fmt_f(r.adaptive.slack, 3),
                fmt_f(r.adaptive.end, 1),
                if r.adaptive.missed { "yes" } else { "no" }.to_string(),
                r.replans.to_string(),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_runs() {
        assert_eq!(run_smoke(), run_smoke());
    }

    #[test]
    fn every_chain_is_causally_consistent() {
        // Children are event-scheduled at their parents' completion, so a
        // chain can never be heavier than its wall-clock extent.
        for r in run_smoke().rows {
            for arm in [&r.oblivious, &r.adaptive] {
                assert!(arm.spans > 0, "an arm must deliver at least one chain");
                assert!(
                    arm.slack >= -1e-9,
                    "negative slack {} — chain weight exceeds its extent",
                    arm.slack
                );
                assert!(arm.compute_share > 0.0 && arm.compute_share <= 1.0);
            }
        }
    }

    #[test]
    fn late_chains_explain_the_misses() {
        // Crash-free cells: the planted chronic straggler makes the
        // oblivious binding chain end past the lifespan (the miss, seen
        // causally), while the replanner's chain finishes in time.
        let e = run_smoke();
        for r in e.rows.iter().filter(|r| r.crash_p == 0.0) {
            assert!(r.oblivious.missed, "straggler must sink the oblivious arm");
            assert!(
                r.oblivious.end > e.lifespan * (1.0 + 1e-9),
                "a missed deadline must show as a late chain end ({} ≤ {})",
                r.oblivious.end,
                e.lifespan
            );
            assert!(!r.adaptive.missed, "replanner detects the straggler");
            assert!(r.replans >= 1, "crash-free straggler cells must replan");
        }
    }

    #[test]
    fn chains_are_near_contiguous_on_the_binding_path() {
        // The Theorem 1 mechanism: the binding chain has no idle gaps
        // beyond event-scheduling rounding and channel waits.
        for r in run_smoke().rows {
            assert!(
                r.oblivious.slack <= r.oblivious.weight * 0.5,
                "slack {} should stay well below weight {}",
                r.oblivious.slack,
                r.oblivious.weight
            );
        }
    }
}
