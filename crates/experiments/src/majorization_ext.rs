//! Experiment E15 (extension) — **majorization explains the bad pairs**.
//!
//! Our Schur-convexity finding (see `hetero_symfunc::majorization`): on
//! equal-mean clusters, whenever two profiles are majorization-comparable
//! the more spread-out one always won in over 10⁶ random searches. This
//! experiment quantifies the consequence for §4.3:
//!
//! * on *comparable* pairs, the majorization predictor — equivalently
//!   variance, which agrees with it there — is essentially perfect;
//! * every "bad pair" (larger variance, less power) is incomparable;
//! * variance's overall error rate is just the incomparable fraction
//!   times its error rate there.
//!
//! Trials run in blocks through the crate's seeded trial harness: each
//! block loads its pairs into one
//! [`ProfileBatch`](hetero_core::xbatch::ProfileBatch) and takes every
//! X-value from one lockstep pass, bit-identical to the scalar
//! [`one_trial`] reference (pinned by a test).

use hetero_clustergen::rng_from_seed;
use hetero_core::xmeasure::x_measure;
use hetero_core::{NumericMode, Params};
use hetero_symfunc::majorization::majorizes;

use crate::render::{fmt_f, Table};
use crate::trials::{pair_cells, pair_trials, run_grid, untied_gap};
use crate::variance::{pair_gen, PairGenerator};

/// Per-trial classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairKind {
    /// Pair was majorization-comparable and the spread-out side won.
    ComparableCorrect,
    /// Comparable but the spread-out side lost (a Schur-convexity
    /// violation — never observed).
    ComparableViolation,
    /// Incomparable; the variance predictor was right anyway.
    IncomparableCorrect,
    /// Incomparable and variance was wrong — the §4.3 "bad pairs".
    IncomparableWrong,
    /// Undecidable (ties).
    Tie,
}

/// Aggregates for one cluster size.
#[derive(Debug, Clone, PartialEq)]
pub struct MajorizationRow {
    /// Cluster size.
    pub n: usize,
    /// Counts: (comparable-correct, comparable-violation,
    /// incomparable-correct, incomparable-wrong, ties).
    pub counts: (usize, usize, usize, usize, usize),
}

impl MajorizationRow {
    /// Fraction of decided pairs that were majorization-comparable.
    pub fn comparable_fraction(&self) -> f64 {
        let (cc, cv, ic, iw, _) = self.counts;
        let decided = cc + cv + ic + iw;
        if decided == 0 {
            0.0
        } else {
            (cc + cv) as f64 / decided as f64
        }
    }

    /// Variance-predictor accuracy on the incomparable pairs.
    pub fn incomparable_accuracy(&self) -> f64 {
        let (_, _, ic, iw, _) = self.counts;
        if ic + iw == 0 {
            1.0
        } else {
            ic as f64 / (ic + iw) as f64
        }
    }
}

/// Configuration.
#[derive(Debug, Clone)]
pub struct MajorizationConfig {
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

impl Default for MajorizationConfig {
    fn default() -> Self {
        MajorizationConfig {
            params: Params::paper_table1(),
            sizes: vec![4, 8, 16, 64, 256],
            trials: 2000,
            seed: 0x5EED,
            threads: hetero_par::default_threads(),
        }
    }
}

/// Results.
#[derive(Debug, Clone)]
pub struct MajorizationExperiment {
    /// Configuration used.
    pub config: MajorizationConfig,
    /// One row per size.
    pub rows: Vec<MajorizationRow>,
}

/// One trial: the scalar reference of the batched sweep.
pub fn one_trial(params: &Params, n: usize, trial_seed: u64) -> PairKind {
    let mut rng = rng_from_seed(trial_seed);
    let gen = pair_gen(n, PairGenerator::DiverseShapes, &mut rng);
    let Some(pair) = gen.sample(&mut rng) else {
        return PairKind::Tie;
    };
    let gap = pair.var1 - pair.var2;
    if gap.abs() < 1e-12 {
        return PairKind::Tie;
    }
    let x1 = x_measure(params, &pair.p1);
    let x2 = x_measure(params, &pair.p2);
    classify(gap, x1, x2, pair.p1.rhos(), pair.p2.rhos())
}

/// Classifies one pair past the variance tie: signed variance gap
/// `VAR(P1) − VAR(P2)`, X-values `x1`, `x2` and sorted ρ-rows `r1`, `r2`.
fn classify(gap: f64, x1: f64, x2: f64, r1: &[f64], r2: &[f64]) -> PairKind {
    if (x1 - x2).abs() / x1.max(x2) < 1e-13 {
        return PairKind::Tie;
    }
    let variance_right = (gap > 0.0) == (x1 > x2);
    let m12 = majorizes(r1, r2);
    let m21 = majorizes(r2, r1);
    if m12 ^ m21 {
        // Comparable: the majorizing side is the spread-out side, which
        // for equal means is also the larger-variance side, so
        // "majorization correct" coincides with "variance correct" here.
        if variance_right {
            PairKind::ComparableCorrect
        } else {
            PairKind::ComparableViolation
        }
    } else if variance_right {
        PairKind::IncomparableCorrect
    } else {
        PairKind::IncomparableWrong
    }
}

/// Runs the sweep.
pub fn run(config: &MajorizationConfig) -> MajorizationExperiment {
    let params = config.params;
    let kinds = run_grid(
        "trials.majorization",
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
                |pair| untied_gap(pair).ok_or(PairKind::Tie),
                |gap, [x1, x2], [r1, r2]| classify(gap, x1, x2, r1, r2),
            )
        },
    );
    let rows = config
        .sizes
        .iter()
        .zip(kinds)
        .map(|(&n, kinds)| {
            let count = |k: PairKind| kinds.iter().filter(|x| **x == k).count();
            MajorizationRow {
                n,
                counts: (
                    count(PairKind::ComparableCorrect),
                    count(PairKind::ComparableViolation),
                    count(PairKind::IncomparableCorrect),
                    count(PairKind::IncomparableWrong),
                    count(PairKind::Tie),
                ),
            }
        })
        .collect();
    MajorizationExperiment {
        config: config.clone(),
        rows,
    }
}

impl MajorizationExperiment {
    /// ASCII rendering.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Extension — majorization vs the §4.3 bad pairs",
            &[
                "n",
                "comparable %",
                "schur violations",
                "incomp. accuracy %",
                "bad pairs",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                r.n.to_string(),
                fmt_f(100.0 * r.comparable_fraction(), 1),
                r.counts.1.to_string(),
                fmt_f(100.0 * r.incomparable_accuracy(), 1),
                r.counts.3.to_string(),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_par::seed;

    fn quick() -> MajorizationConfig {
        MajorizationConfig {
            sizes: vec![4, 16, 64],
            trials: 500,
            seed: 77,
            threads: 4,
            ..MajorizationConfig::default()
        }
    }

    #[test]
    fn no_schur_convexity_violations() {
        // The headline: comparable pairs never mispredict.
        let e = run(&quick());
        for r in &e.rows {
            assert_eq!(r.counts.1, 0, "n = {}", r.n);
        }
    }

    #[test]
    fn bad_pairs_are_all_incomparable() {
        // Follows from the zero-violation count, stated explicitly: every
        // variance error lives in the incomparable bucket.
        let e = run(&quick());
        let total_bad: usize = e.rows.iter().map(|r| r.counts.3).sum();
        assert!(total_bad > 0, "the experiment must exercise bad pairs");
        for r in &e.rows {
            assert_eq!(
                r.counts.1, 0,
                "a comparable bad pair would be a Schur violation"
            );
        }
    }

    #[test]
    fn comparability_shrinks_with_n() {
        // Random equal-mean pairs become incomparable as n grows (more
        // prefix constraints to satisfy).
        let e = run(&quick());
        assert!(
            e.rows.first().unwrap().comparable_fraction()
                > e.rows.last().unwrap().comparable_fraction()
        );
    }

    #[test]
    fn deterministic_across_threads() {
        let mut cfg = quick();
        cfg.trials = 200;
        cfg.threads = 1;
        let a = run(&cfg);
        cfg.threads = 8;
        let b = run(&cfg);
        assert_eq!(a.rows, b.rows);
    }

    #[test]
    fn batched_run_matches_the_scalar_reference() {
        // The batched block path (SoA arena + lockstep kernel) must land
        // on exactly the kinds of the per-trial scalar reference, up to
        // n = 256, where a 64-trial block reaches the 2^15-value ρ cap.
        let cfg = MajorizationConfig {
            sizes: vec![4, 64, 256],
            trials: 150,
            ..quick()
        };
        let e = run(&cfg);
        for (row, &n) in e.rows.iter().zip(&cfg.sizes) {
            let size_seed = seed::derive(cfg.seed, n as u64);
            let mut c = [0usize; 5];
            for t in 0..cfg.trials as u64 {
                let slot = match one_trial(&cfg.params, n, seed::derive(size_seed, t)) {
                    PairKind::ComparableCorrect => 0,
                    PairKind::ComparableViolation => 1,
                    PairKind::IncomparableCorrect => 2,
                    PairKind::IncomparableWrong => 3,
                    PairKind::Tie => 4,
                };
                c[slot] += 1;
            }
            assert_eq!(row.counts, (c[0], c[1], c[2], c[3], c[4]), "n = {n}");
        }
    }

    #[test]
    fn render_reports_violations_column() {
        let s = run(&quick()).table().to_ascii();
        assert!(s.contains("schur violations"));
    }
}
