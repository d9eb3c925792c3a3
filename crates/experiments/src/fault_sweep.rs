//! Experiment E18 (extension) — **fault injection and adaptive
//! replanning**.
//!
//! E17 showed that under *estimation error* the knife-edge deadline is
//! the protocol's weak point. This experiment injects *runtime faults* —
//! permanent worker crashes and chronic multiplicative stragglers drawn
//! from a seeded [`FaultPlan`] — and compares three executors on the same
//! perturbed runs:
//!
//! * **oblivious** — the optimal FIFO plan executed with no failure
//!   detection ([`fault_exec::execute_with_faults`]): sends to crashed
//!   workers are wasted, stragglers deliver late;
//! * **adaptive** — the same plan under [`replan::execute_adaptive`]:
//!   boundary-granularity detection, suffix re-optimization through the
//!   incremental X-scan, crash skips, and a hedge margin on the lifespan;
//! * **equal split** — the estimate-free baseline, also oblivious.
//!
//! Every trial plants at least one chronic straggler, so the oblivious
//! executor delivers late in any trial whose straggler survives — while
//! the replanner detects the slowdown at its first send boundary and
//! re-sizes the whole schedule into the hedged window. The headline
//! claim (pinned by a test): **replanning strictly dominates oblivious
//! FIFO on deadline-miss rate at every swept crash rate**, with
//! deterministic results under fixed seeds at any thread count.

use hetero_clustergen::{rng_from_seed, GenConfig, Shape};
use hetero_core::{xmeasure, Params};
use hetero_faults::{FaultConfig, FaultPlan};
use hetero_par::seed;
use hetero_protocol::{alloc, baseline, fault_exec, replan};

use crate::render::{fmt_f, Table};
use crate::trials::{run_grid, Cell};

/// Aggregates for one (crash probability, straggler factor, margin) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSweepRow {
    /// Per-worker crash probability.
    pub crash_p: f64,
    /// Chronic-straggler slowdown factor.
    pub straggler_factor: f64,
    /// Hedge margin the adaptive arm plans with.
    pub margin: f64,
    /// Mean effective-throughput fraction (work back by `L` over the
    /// fault-free optimum) of the oblivious executor.
    pub oblivious_fraction: f64,
    /// Same, for the adaptive replanner.
    pub adaptive_fraction: f64,
    /// Same, for oblivious equal split.
    pub equal_fraction: f64,
    /// Fraction of trials in which the oblivious run delivered a result
    /// after the lifespan.
    pub oblivious_miss_rate: f64,
    /// Same, for the adaptive replanner.
    pub adaptive_miss_rate: f64,
    /// Mean suffix re-optimizations per adaptive run.
    pub mean_replans: f64,
}

/// Configuration.
#[derive(Debug, Clone)]
pub struct FaultSweepConfig {
    /// Model parameters.
    pub params: Params,
    /// Cluster size.
    pub n: usize,
    /// Lifespan every arm plans against.
    pub lifespan: f64,
    /// Per-worker crash probabilities to sweep.
    pub crash_ps: Vec<f64>,
    /// Chronic-straggler severities to sweep (each > 1 so every trial
    /// has a detectable fault).
    pub straggler_factors: Vec<f64>,
    /// Hedge margins to sweep for the adaptive arm.
    pub margins: Vec<f64>,
    /// Trials per cell.
    pub trials: usize,
    /// Root seed.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
}

impl Default for FaultSweepConfig {
    fn default() -> Self {
        FaultSweepConfig {
            params: Params::paper_table1(),
            n: 8,
            lifespan: 600.0,
            crash_ps: vec![0.0, 0.1, 0.3],
            straggler_factors: vec![1.5, 4.0],
            margins: vec![0.0, 0.1],
            trials: 100,
            seed: 0xFA17,
            threads: hetero_par::default_threads(),
        }
    }
}

/// Results.
#[derive(Debug, Clone)]
pub struct FaultSweep {
    /// Configuration used.
    pub config: FaultSweepConfig,
    /// One row per swept cell, in `crash_ps × straggler_factors ×
    /// margins` order.
    pub rows: Vec<FaultSweepRow>,
}

/// Per-trial metrics: throughput fractions and miss flags for the three
/// arms, plus the adaptive replan count.
struct Trial {
    oblivious: f64,
    adaptive: f64,
    equal: f64,
    oblivious_miss: bool,
    adaptive_miss: bool,
    replans: u32,
}

/// One trial of one cell.
fn one_trial(
    cfg: &FaultSweepConfig,
    crash_p: f64,
    factor: f64,
    margin: f64,
    trial_seed: u64,
) -> Trial {
    let mut rng = rng_from_seed(seed::derive(trial_seed, 1));
    let truth = hetero_clustergen::random_profile(&mut rng, GenConfig::new(cfg.n), Shape::Uniform);
    let optimum = xmeasure::work(&cfg.params, &truth, cfg.lifespan);

    let faults = FaultPlan::sample(
        &FaultConfig {
            crash_p,
            straggler_count: 1,
            straggler_factor: factor,
            ..FaultConfig::default()
        },
        cfg.n,
        cfg.lifespan,
        seed::derive(trial_seed, 2),
    )
    .expect("valid fault config");

    let plan = alloc::fifo_plan(&cfg.params, &truth, cfg.lifespan).expect("feasible");
    let oblivious =
        fault_exec::execute_with_faults(&cfg.params, &truth, &plan, &faults).expect("runs");
    let adaptive = replan::execute_adaptive(
        &cfg.params,
        &truth,
        &plan,
        &faults,
        &replan::HedgePolicy {
            margin,
            ..replan::HedgePolicy::default()
        },
    )
    .expect("runs");
    let equal_plan =
        baseline::equal_split_plan(&cfg.params, &truth, cfg.lifespan).expect("feasible");
    let equal =
        fault_exec::execute_with_faults(&cfg.params, &truth, &equal_plan, &faults).expect("runs");

    Trial {
        oblivious: oblivious.work_completed_by(cfg.lifespan) / optimum,
        adaptive: adaptive.work_completed_by(cfg.lifespan) / optimum,
        equal: equal.work_completed_by(cfg.lifespan) / optimum,
        oblivious_miss: oblivious.missed_deadline(cfg.lifespan),
        adaptive_miss: adaptive.missed_deadline(cfg.lifespan),
        replans: adaptive.replans,
    }
}

/// Runs the sweep.
pub fn run(config: &FaultSweepConfig) -> FaultSweep {
    // Grid points (crash p, straggler factor, margin), keyed 1, 2, … in
    // grid order.
    let mut cells = Vec::new();
    for &crash_p in &config.crash_ps {
        for &factor in &config.straggler_factors {
            for &margin in &config.margins {
                cells.push(Cell {
                    key: cells.len() as u64 + 1,
                    block: 1,
                    data: (crash_p, factor, margin),
                });
            }
        }
    }
    let shared = config.clone();
    let results = run_grid(
        "trials.fault_sweep",
        config.seed,
        &cells,
        config.trials,
        config.threads,
        move |&(crash_p, factor, margin), seeds| {
            seeds
                .iter()
                .map(|&s| one_trial(&shared, crash_p, factor, margin, s))
                .collect()
        },
    );
    let rows = cells
        .iter()
        .zip(results)
        .map(|(cell, trials)| {
            let (crash_p, factor, margin) = cell.data;
            let n = trials.len() as f64;
            FaultSweepRow {
                crash_p,
                straggler_factor: factor,
                margin,
                oblivious_fraction: trials.iter().map(|t| t.oblivious).sum::<f64>() / n,
                adaptive_fraction: trials.iter().map(|t| t.adaptive).sum::<f64>() / n,
                equal_fraction: trials.iter().map(|t| t.equal).sum::<f64>() / n,
                oblivious_miss_rate: trials.iter().filter(|t| t.oblivious_miss).count() as f64 / n,
                adaptive_miss_rate: trials.iter().filter(|t| t.adaptive_miss).count() as f64 / n,
                mean_replans: trials.iter().map(|t| f64::from(t.replans)).sum::<f64>() / n,
            }
        })
        .collect();
    FaultSweep {
        config: config.clone(),
        rows,
    }
}

impl FaultSweep {
    /// ASCII rendering.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "Fault sweep — oblivious vs replanning vs equal split (n = {}, {} trials/cell)",
                self.config.n, self.config.trials
            ),
            &[
                "crash p",
                "straggle ×",
                "margin",
                "obliv %",
                "adapt %",
                "equal %",
                "obliv miss",
                "adapt miss",
                "replans",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                fmt_f(r.crash_p, 2),
                fmt_f(r.straggler_factor, 1),
                fmt_f(r.margin, 2),
                fmt_f(100.0 * r.oblivious_fraction, 2),
                fmt_f(100.0 * r.adaptive_fraction, 2),
                fmt_f(100.0 * r.equal_fraction, 2),
                fmt_f(r.oblivious_miss_rate, 3),
                fmt_f(r.adaptive_miss_rate, 3),
                fmt_f(r.mean_replans, 1),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> FaultSweepConfig {
        FaultSweepConfig {
            n: 6,
            crash_ps: vec![0.0, 0.2],
            straggler_factors: vec![3.0],
            margins: vec![0.0, 0.1],
            trials: 30,
            seed: 11,
            threads: 4,
            ..FaultSweepConfig::default()
        }
    }

    #[test]
    fn replanning_strictly_dominates_oblivious_miss_rate() {
        // The acceptance claim: at every swept crash rate the adaptive
        // arm's deadline-miss rate is strictly below the oblivious arm's.
        let r = run(&quick());
        for row in &r.rows {
            assert!(
                row.adaptive_miss_rate < row.oblivious_miss_rate,
                "crash_p = {}, margin = {}: adaptive {} !< oblivious {}",
                row.crash_p,
                row.margin,
                row.adaptive_miss_rate,
                row.oblivious_miss_rate
            );
        }
    }

    #[test]
    fn chronic_stragglers_always_sink_the_oblivious_arm() {
        // Without crashes nothing destroys the straggler's late result,
        // so every oblivious trial misses; the replanner detects the
        // slowdown at its first boundary and never delivers late.
        let r = run(&quick());
        for row in r.rows.iter().filter(|r| r.crash_p == 0.0) {
            assert_eq!(row.oblivious_miss_rate, 1.0);
            assert_eq!(row.adaptive_miss_rate, 0.0);
            assert!(row.mean_replans >= 1.0);
        }
    }

    #[test]
    fn optimal_plans_beat_equal_split_even_under_faults() {
        let r = run(&quick());
        for row in &r.rows {
            assert!(
                row.adaptive_fraction > row.equal_fraction,
                "crash_p = {}, margin = {}",
                row.crash_p,
                row.margin
            );
        }
    }

    #[test]
    fn deterministic_across_threads() {
        let mut cfg = quick();
        cfg.trials = 20;
        cfg.threads = 1;
        let a = run(&cfg);
        cfg.threads = 8;
        let b = run(&cfg);
        assert_eq!(a.rows, b.rows);
    }
}
