//! Experiment E12 (extension) — scoring statistical-moment predictors,
//! following the companion paper's direction (Chiang, Maciejewski,
//! Rosenberg & Siegel, "Statistical predictors of computing power in
//! heterogeneous clusters").
//!
//! On random equal-mean pairs we score three predictors of the more
//! powerful cluster: variance (Theorem 5's candidate), skewness, and the
//! *combined* rule "variance, then skewness on near-ties". The paper's
//! finding — variance is strong but imperfect — extends: skewness alone is
//! weaker, but breaks a useful fraction of variance's near-ties.
//!
//! Trials run in blocks through the crate's seeded trial harness: each
//! block loads its pairs into one
//! [`ProfileBatch`](hetero_core::xbatch::ProfileBatch) and takes every
//! X-value from one lockstep pass, bit-identical to the scalar
//! [`one_trial`] reference (pinned by a test).

use std::cmp::Ordering;

use hetero_clustergen::rng_from_seed;
use hetero_core::xmeasure::x_measure;
use hetero_core::{NumericMode, Params};
use hetero_symfunc::{indices, predictors};

use crate::render::{fmt_f, Table};
use crate::trials::{pair_cells, pair_trials, run_grid};
use crate::variance::{pair_gen, PairGenerator};

/// Which predictors got one trial right.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrialScore {
    /// Trial was decided (X-values distinguishable).
    pub decided: bool,
    /// Variance predictor correct.
    pub variance: bool,
    /// Skewness predictor correct.
    pub skewness: bool,
    /// Variance-then-skewness combination correct.
    pub combined: bool,
    /// Gini-index predictor correct (more unequal ⇒ more powerful).
    pub gini: bool,
    /// Entropy-deficit predictor correct.
    pub entropy: bool,
}

/// Aggregate scores for one cluster size.
#[derive(Debug, Clone, PartialEq)]
pub struct MomentRow {
    /// Cluster size.
    pub n: usize,
    /// Decided trials.
    pub decided: usize,
    /// Correct counts (variance, skewness, combined, gini, entropy).
    pub correct: (usize, usize, usize, usize, usize),
}

/// Configuration.
#[derive(Debug, Clone)]
pub struct MomentsConfig {
    /// Model parameters.
    pub params: Params,
    /// Cluster sizes.
    pub sizes: Vec<usize>,
    /// Trials per size.
    pub trials: usize,
    /// Root seed.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
}

impl Default for MomentsConfig {
    fn default() -> Self {
        MomentsConfig {
            params: Params::paper_table1(),
            sizes: vec![8, 32, 128, 512],
            trials: 2000,
            seed: 0xA11CE,
            threads: hetero_par::default_threads(),
        }
    }
}

/// Results.
#[derive(Debug, Clone)]
pub struct MomentsExperiment {
    /// Configuration used.
    pub config: MomentsConfig,
    /// One row per size.
    pub rows: Vec<MomentRow>,
}

/// Variance gap below which the combined predictor defers to skewness.
const NEAR_TIE: f64 = 1e-3;

/// Runs one trial: the scalar reference of the batched sweep.
pub fn one_trial(params: &Params, n: usize, trial_seed: u64) -> TrialScore {
    let mut rng = rng_from_seed(trial_seed);
    // Same diverse-shape pair family as the E6 default (variance module).
    let gen = pair_gen(n, PairGenerator::DiverseShapes, &mut rng);
    let Some(pair) = gen.sample(&mut rng) else {
        return TrialScore::default();
    };
    let x1 = x_measure(params, &pair.p1);
    let x2 = x_measure(params, &pair.p2);
    score(x1, x2, pair.p1.rhos(), pair.p2.rhos(), pair.variance_gap())
}

/// Scores every predictor on one pair: X-values `x1`, `x2`, sorted
/// ρ-rows `r1`, `r2` and variance gap `|VAR(P1) − VAR(P2)|`.
fn score(x1: f64, x2: f64, r1: &[f64], r2: &[f64], variance_gap: f64) -> TrialScore {
    if (x1 - x2).abs() / x1.max(x2) < 1e-13 {
        return TrialScore::default();
    }
    let truth = if x1 > x2 {
        Ordering::Greater
    } else {
        Ordering::Less
    };

    let var_pred = predictors::predict_by_variance(r1, r2);
    let skew_pred = predictors::predict_by_skewness(r1, r2);
    let combined_pred = if variance_gap < NEAR_TIE && skew_pred != Ordering::Equal {
        skew_pred
    } else {
        var_pred
    };
    // Scalar heterogeneity indices as predictors: the more heterogeneous
    // cluster is predicted more powerful (the Corollary 1 intuition).
    let by_index = |f: fn(&[f64]) -> f64| -> Ordering { f(r1).total_cmp(&f(r2)) };
    TrialScore {
        decided: true,
        variance: var_pred == truth,
        skewness: skew_pred == truth,
        combined: combined_pred == truth,
        gini: by_index(indices::gini) == truth,
        entropy: by_index(indices::shannon_entropy_deficit) == truth,
    }
}

/// Runs the sweep.
pub fn run(config: &MomentsConfig) -> MomentsExperiment {
    let params = config.params;
    let scores = run_grid(
        "trials.moments",
        config.seed,
        &pair_cells(&config.sizes),
        config.trials,
        config.threads,
        move |&n, seeds| {
            pair_trials(
                &params,
                NumericMode::Strict,
                n,
                seeds,
                |rng| pair_gen(n, PairGenerator::DiverseShapes, rng),
                |pair| {
                    pair.map(|p| p.variance_gap())
                        .ok_or_else(TrialScore::default)
                },
                |variance_gap, [x1, x2], [r1, r2]| score(x1, x2, r1, r2, variance_gap),
            )
        },
    );
    let rows = config
        .sizes
        .iter()
        .zip(scores)
        .map(|(&n, scores)| {
            let decided = scores.iter().filter(|s| s.decided).count();
            let correct = (
                scores.iter().filter(|s| s.decided && s.variance).count(),
                scores.iter().filter(|s| s.decided && s.skewness).count(),
                scores.iter().filter(|s| s.decided && s.combined).count(),
                scores.iter().filter(|s| s.decided && s.gini).count(),
                scores.iter().filter(|s| s.decided && s.entropy).count(),
            );
            MomentRow {
                n,
                decided,
                correct,
            }
        })
        .collect();
    MomentsExperiment {
        config: config.clone(),
        rows,
    }
}

impl MomentsExperiment {
    /// ASCII rendering.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Extension — moment predictors on equal-mean pairs (accuracy %)",
            &[
                "n", "decided", "variance", "skewness", "var+skew", "gini", "entropy",
            ],
        );
        for r in &self.rows {
            let pct = |c: usize| fmt_f(100.0 * c as f64 / r.decided.max(1) as f64, 1);
            t.row(vec![
                r.n.to_string(),
                r.decided.to_string(),
                pct(r.correct.0),
                pct(r.correct.1),
                pct(r.correct.2),
                pct(r.correct.3),
                pct(r.correct.4),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_par::seed;

    fn quick() -> MomentsConfig {
        MomentsConfig {
            sizes: vec![8, 64],
            trials: 400,
            seed: 5,
            threads: 2,
            ..MomentsConfig::default()
        }
    }

    #[test]
    fn variance_beats_skewness_alone() {
        let e = run(&quick());
        for r in &e.rows {
            assert!(
                r.correct.0 > r.correct.1,
                "n = {}: variance {} vs skewness {}",
                r.n,
                r.correct.0,
                r.correct.1
            );
        }
    }

    #[test]
    fn variance_is_well_above_chance() {
        let e = run(&quick());
        for r in &e.rows {
            let acc = r.correct.0 as f64 / r.decided as f64;
            assert!(acc > 0.6, "n = {n}: {acc}", n = r.n);
        }
    }

    #[test]
    fn deterministic_across_threads() {
        let mut cfg = quick();
        cfg.threads = 1;
        let a = run(&cfg);
        cfg.threads = 8;
        let b = run(&cfg);
        assert_eq!(a.rows, b.rows);
    }

    #[test]
    fn batched_run_matches_the_scalar_reference() {
        // The batched block path (SoA arena + lockstep kernel) must land
        // on exactly the scores of the per-trial scalar reference, also
        // at n = 512, where the ρ cap narrows the block to 32 trials.
        let cfg = MomentsConfig {
            sizes: vec![8, 512],
            trials: 100,
            ..quick()
        };
        let e = run(&cfg);
        for (row, &n) in e.rows.iter().zip(&cfg.sizes) {
            let size_seed = seed::derive(cfg.seed, n as u64);
            let (mut decided, mut c) = (0usize, [0usize; 5]);
            for t in 0..cfg.trials as u64 {
                let s = one_trial(&cfg.params, n, seed::derive(size_seed, t));
                if s.decided {
                    decided += 1;
                    let hits = [s.variance, s.skewness, s.combined, s.gini, s.entropy];
                    for (count, hit) in c.iter_mut().zip(hits) {
                        *count += usize::from(hit);
                    }
                }
            }
            assert_eq!(row.decided, decided, "n = {n}");
            assert_eq!(row.correct, (c[0], c[1], c[2], c[3], c[4]), "n = {n}");
        }
    }

    #[test]
    fn render_includes_all_predictors() {
        let s = run(&quick()).table().to_ascii();
        assert!(s.contains("variance") && s.contains("skewness") && s.contains("var+skew"));
    }
}
