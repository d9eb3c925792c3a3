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

use hetero_clustergen::{rng_from_seed, EqualMeanPairGen, GenConfig, Shape};
use hetero_core::xmeasure::x_measure;
use hetero_core::Params;
use hetero_symfunc::majorization::majorizes;
use rand::Rng;

use crate::render::{fmt_f, Table};
use crate::trials::run_cell;

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

/// One trial.
pub fn one_trial(params: &Params, n: usize, trial_seed: u64) -> PairKind {
    let mut rng = rng_from_seed(trial_seed);
    const SHAPES: [Shape; 3] = [Shape::Uniform, Shape::Bimodal, Shape::Concentrated];
    let s1 = SHAPES[rng.random_range(0..SHAPES.len())];
    let s2 = SHAPES[rng.random_range(0..SHAPES.len())];
    let gen = EqualMeanPairGen::new(GenConfig::new(n), s1, s2);
    let Some(pair) = gen.sample(&mut rng) else {
        return PairKind::Tie;
    };
    let gap = pair.var1 - pair.var2;
    if gap.abs() < 1e-12 {
        return PairKind::Tie;
    }
    let x1 = x_measure(params, &pair.p1);
    let x2 = x_measure(params, &pair.p2);
    if (x1 - x2).abs() / x1.max(x2) < 1e-13 {
        return PairKind::Tie;
    }
    let variance_right = (gap > 0.0) == (x1 > x2);
    let m12 = majorizes(pair.p1.rhos(), pair.p2.rhos());
    let m21 = majorizes(pair.p2.rhos(), pair.p1.rhos());
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
    let rows = config
        .sizes
        .iter()
        .map(|&n| {
            let params = config.params;
            let kinds = run_cell(
                "trials.majorization",
                config.seed,
                n as u64,
                config.trials,
                1,
                config.threads,
                move |seeds| seeds.iter().map(|&s| one_trial(&params, n, s)).collect(),
            );
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
    fn render_reports_violations_column() {
        let s = run(&quick()).table().to_ascii();
        assert!(s.contains("schur violations"));
    }
}
