//! Experiment E17 (extension) — **robustness to profile estimation
//! error**.
//!
//! The paper assumes the scheduler knows every ρ exactly. In practice
//! speeds are estimated. This experiment plans with a *perturbed* profile
//! (each ρ scaled by an independent factor in `[1−ε, 1+ε]`) and executes
//! the plan against the *true* speeds.
//!
//! Under Table 1 parameters every result arrives within milliseconds of
//! the lifespan (the transmissions chain back-to-back at the very end),
//! so hard-deadline accounting is a knife edge: *any* net overestimate
//! pushes the whole chain past `L` and scores zero. The robust metric is
//! therefore **effective throughput** — planned work over the schedule's
//! *actual* makespan — compared with the true optimum's `W/L`, plus the
//! makespan overrun factor that a deadline-bound operator must hedge
//! with a safety margin.

use hetero_clustergen::{rng_from_seed, GenConfig, Shape};
use hetero_core::{xmeasure, Params, Profile};
use hetero_protocol::replan::hedged_lifespan;
use hetero_protocol::{alloc, baseline, exec};
use rand::Rng;

use crate::render::{fmt_f, Table};
use crate::trials::{run_grid, Cell};

/// Aggregates for one error level.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessRow {
    /// Relative estimation error ε.
    pub epsilon: f64,
    /// Mean effective-throughput fraction (vs the true optimum's `W/L`)
    /// when planning with perturbed estimates.
    pub mean_fraction: f64,
    /// Worst observed fraction.
    pub worst_fraction: f64,
    /// Mean makespan overrun factor (actual/L; > 1 means a deadline miss).
    pub mean_overrun: f64,
    /// Mean throughput fraction achieved by equal split (no estimates).
    pub equal_split_fraction: f64,
    /// Fraction of trials whose last arrival landed past the lifespan.
    pub miss_rate: f64,
}

/// Configuration.
#[derive(Debug, Clone)]
pub struct RobustnessConfig {
    /// Model parameters.
    pub params: Params,
    /// Cluster size.
    pub n: usize,
    /// Error levels ε to probe.
    pub epsilons: Vec<f64>,
    /// Trials per level.
    pub trials: usize,
    /// Safety margin hedged off the planned lifespan: plans are sized to
    /// [`hedged_lifespan`]`(L, hedge_margin)` but judged against `L`.
    /// Zero (the default) plans to the knife edge.
    pub hedge_margin: f64,
    /// Root seed.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
}

impl Default for RobustnessConfig {
    fn default() -> Self {
        RobustnessConfig {
            params: Params::paper_table1(),
            n: 8,
            epsilons: vec![0.0, 0.01, 0.05, 0.1, 0.25, 0.5],
            trials: 200,
            hedge_margin: 0.0,
            seed: 0xEB0B,
            threads: hetero_par::default_threads(),
        }
    }
}

/// Results.
#[derive(Debug, Clone)]
pub struct Robustness {
    /// Configuration used.
    pub config: RobustnessConfig,
    /// One row per ε.
    pub rows: Vec<RobustnessRow>,
}

/// One trial: returns `(throughput fraction, overrun factor, equal-split
/// fraction, deadline missed)`.
pub fn one_trial(
    params: &Params,
    n: usize,
    epsilon: f64,
    hedge_margin: f64,
    trial_seed: u64,
) -> (f64, f64, f64, bool) {
    let mut rng = rng_from_seed(trial_seed);
    let truth = hetero_clustergen::random_profile(&mut rng, GenConfig::new(n), Shape::Uniform);
    let lifespan = 600.0;
    let optimum = xmeasure::work(params, &truth, lifespan);

    // Perturbed estimate (clamped into a valid range).
    let estimate = Profile::from_unsorted(
        truth
            .rhos()
            .iter()
            .map(|r| (r * (1.0 + rng.random_range(-epsilon..=epsilon))).clamp(1e-6, 10.0))
            .collect(),
    )
    .expect("valid");

    // Plan with the estimate... but the plan's `order` refers to positions
    // in the *estimated* (sorted) profile. To execute against the truth we
    // need each position's work, matched to the true computer with the
    // same rank — rank order is preserved by construction because the
    // perturbation is per-computer but both profiles are sorted; matching
    // by rank models "we think this machine is the k-th slowest".
    // The hedge shaves the planned window so estimation noise lands in
    // the margin instead of past the deadline — the same transform the
    // fault replanner applies to its re-solved suffixes.
    let planned = alloc::fifo_plan(params, &estimate, hedged_lifespan(lifespan, hedge_margin))
        .expect("feasible");
    let run = exec::execute(params, &truth, &planned);
    let makespan = run.last_arrival().expect("nonempty").get();
    let throughput = planned.total_work() / makespan.max(lifespan);
    let fraction = throughput / (optimum / lifespan);
    let overrun = makespan / lifespan;
    let missed = run.missed_deadline(lifespan);

    let equal = baseline::equal_split_plan(params, &truth, lifespan)
        .expect("feasible")
        .total_work()
        / optimum;
    (fraction, overrun, equal, missed)
}

/// Runs the sweep.
pub fn run(config: &RobustnessConfig) -> Robustness {
    let cells: Vec<Cell<f64>> = config
        .epsilons
        .iter()
        .map(|&epsilon| Cell {
            key: (epsilon * 1e6) as u64,
            block: 1,
            data: epsilon,
        })
        .collect();
    let (params, size, margin) = (config.params, config.n, config.hedge_margin);
    let results = run_grid(
        "trials.robustness",
        config.seed,
        &cells,
        config.trials,
        config.threads,
        move |&epsilon, seeds| {
            seeds
                .iter()
                .map(|&s| one_trial(&params, size, epsilon, margin, s))
                .collect()
        },
    );
    let rows = config
        .epsilons
        .iter()
        .zip(results)
        .map(|(&epsilon, pairs)| {
            let n = pairs.len() as f64;
            let mean_fraction = pairs.iter().map(|p| p.0).sum::<f64>() / n;
            let worst_fraction = pairs.iter().map(|p| p.0).fold(f64::INFINITY, f64::min);
            let mean_overrun = pairs.iter().map(|p| p.1).sum::<f64>() / n;
            let equal_split_fraction = pairs.iter().map(|p| p.2).sum::<f64>() / n;
            let miss_rate = pairs.iter().filter(|p| p.3).count() as f64 / n;
            RobustnessRow {
                epsilon,
                mean_fraction,
                worst_fraction,
                mean_overrun,
                equal_split_fraction,
                miss_rate,
            }
        })
        .collect();
    Robustness {
        config: config.clone(),
        rows,
    }
}

impl Robustness {
    /// ASCII rendering.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "Robustness — planning with ±ε speed estimates (n = {}, % of true optimum)",
                self.config.n
            ),
            &[
                "ε",
                "mean %",
                "worst %",
                "overrun ×",
                "equal split %",
                "miss",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                fmt_f(r.epsilon, 2),
                fmt_f(100.0 * r.mean_fraction, 2),
                fmt_f(100.0 * r.worst_fraction, 2),
                fmt_f(r.mean_overrun, 4),
                fmt_f(100.0 * r.equal_split_fraction, 2),
                fmt_f(r.miss_rate, 3),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> RobustnessConfig {
        RobustnessConfig {
            n: 6,
            epsilons: vec![0.0, 0.1, 0.5],
            trials: 60,
            seed: 9,
            threads: 4,
            ..RobustnessConfig::default()
        }
    }

    #[test]
    fn zero_error_achieves_the_optimum() {
        let r = run(&quick());
        let exact = &r.rows[0];
        assert!((exact.mean_fraction - 1.0).abs() < 1e-9);
        assert!((exact.worst_fraction - 1.0).abs() < 1e-9);
    }

    #[test]
    fn degradation_is_monotone_in_error() {
        let r = run(&quick());
        for w in r.rows.windows(2) {
            assert!(w[1].mean_fraction <= w[0].mean_fraction + 1e-9);
        }
    }

    #[test]
    fn misplanned_throughput_still_beats_equal_split() {
        // Even with ±50 % speed estimates, the optimal protocol's
        // *throughput* beats the estimate-free equal-split heuristic.
        let r = run(&quick());
        for row in &r.rows {
            assert!(
                row.mean_fraction > row.equal_split_fraction,
                "ε = {}",
                row.epsilon
            );
        }
    }

    #[test]
    fn overrun_quantifies_the_needed_safety_margin() {
        // The mean makespan overrun grows with ε; a deadline-bound
        // operator must shave the planned lifespan by about that factor.
        let r = run(&quick());
        assert!(
            (r.rows[0].mean_overrun - 1.0).abs() < 1e-9,
            "exact plan is exact"
        );
        for w in r.rows.windows(2) {
            assert!(w[1].mean_overrun >= w[0].mean_overrun - 1e-9);
        }
        let big = r.rows.last().unwrap();
        assert!(big.mean_overrun > 1.0, "±50 % estimates overrun on average");
        assert!(big.mean_overrun < 2.0, "but by a bounded factor");
        for row in &r.rows {
            assert!(row.worst_fraction >= 0.0 && row.mean_fraction <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn hedging_the_lifespan_buys_down_the_miss_rate() {
        // Planning to hedged_lifespan(L, margin) with margin at the
        // knife-edge's observed overrun should eliminate nearly every
        // deadline miss, at a bounded throughput cost.
        let knife = run(&quick());
        let hedged = run(&RobustnessConfig {
            hedge_margin: 0.25,
            ..quick()
        });
        let last = knife.rows.len() - 1;
        assert!(
            knife.rows[last].miss_rate > 0.5,
            "±50 % estimates at the knife edge miss most deadlines"
        );
        // A 25 % margin swallows ε = 0.1's entire overrun distribution
        // and strictly improves even ε = 0.5 (whose overrun tail can
        // exceed any fixed margin).
        assert_eq!(hedged.rows[1].miss_rate, 0.0, "ε = 0.1 fully hedged");
        assert!(hedged.rows[last].miss_rate < knife.rows[last].miss_rate);
        for (k, h) in knife.rows.iter().zip(&hedged.rows) {
            assert!(h.miss_rate <= k.miss_rate, "ε = {}", k.epsilon);
        }
    }

    #[test]
    fn deterministic_across_threads() {
        let mut cfg = quick();
        cfg.trials = 30;
        cfg.threads = 1;
        let a = run(&cfg);
        cfg.threads = 8;
        let b = run(&cfg);
        assert_eq!(a.rows, b.rows);
    }
}
