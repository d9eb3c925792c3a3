//! Experiment E6 — §4.3: **variance as a predictor of power** for
//! equal-mean clusters.
//!
//! For each cluster size `n`, draw many random pairs of equal-mean
//! profiles and label each pair *good* when the larger-variance cluster is
//! the more powerful (larger X-measure), *bad* otherwise. The paper
//! found bad-pair rates growing to roughly 23 % (around n = 128) and
//! plateauing — i.e. variance is right about 76–77 % of the time.
//!
//! Trials run in blocks through the crate's seeded trial harness: each
//! block bulk-loads its equal-mean pairs into a structure-of-arrays
//! [`ProfileBatch`](hetero_core::xbatch::ProfileBatch) and judges them
//! through the lockstep batched X-kernel — bit-identical to the scalar
//! [`one_trial`] path (pinned by a test). Per-trial RNG streams are
//! derived from the root seed, the size and the trial index, so the
//! numbers are independent of the thread count.

use hetero_clustergen::{rng_from_seed, EqualMeanPairGen, GenConfig, Shape};
use hetero_core::xmeasure::x_measure_of_rhos;
use hetero_core::{NumericMode, Params};
use rand::rngs::StdRng;
use rand::Rng;

use crate::render::{fmt_f, Table};
use crate::trials::{pair_cells, pair_trials, run_grid, untied_gap};

/// How pair variances are distributed (DESIGN.md substitution S3: the
/// paper's generator is unavailable, so we report both ends of the
/// plausible family — the paper's ~23 % bad-pair plateau falls between
/// them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairGenerator {
    /// Both sides i.i.d. uniform, mean-matched: variance gaps are small,
    /// so the predictor faces its hardest cases (~40 % bad plateau).
    SameUniform,
    /// Each side's shape drawn at random from
    /// {uniform, bimodal, concentrated}: gaps span the full range
    /// (~12 % bad plateau).
    DiverseShapes,
}

/// Outcome of one pair trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrialOutcome {
    /// Larger variance ⇒ more powerful: the predictor was right.
    Good,
    /// Larger variance but *less* powerful: the predictor was wrong.
    Bad,
    /// Variances or X-values too close to call.
    Tie,
}

/// Per-size aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct VarianceRow {
    /// Cluster size.
    pub n: usize,
    /// Decided trials (ties excluded).
    pub decided: usize,
    /// Bad trials.
    pub bad: usize,
    /// Ties.
    pub ties: usize,
    /// `bad / decided`.
    pub bad_fraction: f64,
}

/// The experiment's configuration.
#[derive(Debug, Clone)]
pub struct VarianceConfig {
    /// Model parameters.
    pub params: Params,
    /// Cluster sizes to probe.
    pub sizes: Vec<usize>,
    /// Trials per size.
    pub trials: usize,
    /// Root RNG seed.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
    /// Pair-generation strategy.
    pub generator: PairGenerator,
    /// Numeric mode for the batched X pass (`Strict` by default; `Fast`
    /// uses the certified divide-free kernel, which may flip trials
    /// sitting within its ulp budget of the 1e-13 tie threshold).
    pub numeric: NumericMode,
}

impl Default for VarianceConfig {
    fn default() -> Self {
        VarianceConfig {
            params: Params::paper_table1(),
            sizes: vec![4, 8, 16, 32, 64, 128, 256, 512, 1024],
            trials: 2000,
            seed: 0xC0FFEE,
            threads: hetero_par::default_threads(),
            generator: PairGenerator::DiverseShapes,
            numeric: NumericMode::Strict,
        }
    }
}

/// The experiment results.
#[derive(Debug, Clone)]
pub struct VarianceExperiment {
    /// Configuration used.
    pub config: VarianceConfig,
    /// One row per size.
    pub rows: Vec<VarianceRow>,
}

/// The generator of one trial's pair: both sides uniform, or (for
/// [`PairGenerator::DiverseShapes`]) each side's shape drawn from the
/// trial's own stream before the pair itself. The moment and
/// majorization extensions draw their pairs from the diverse family too.
pub(crate) fn pair_gen(n: usize, generator: PairGenerator, rng: &mut StdRng) -> EqualMeanPairGen {
    let (s1, s2) = match generator {
        PairGenerator::SameUniform => (Shape::Uniform, Shape::Uniform),
        PairGenerator::DiverseShapes => {
            const SHAPES: [Shape; 3] = [Shape::Uniform, Shape::Bimodal, Shape::Concentrated];
            (
                SHAPES[rng.random_range(0..SHAPES.len())],
                SHAPES[rng.random_range(0..SHAPES.len())],
            )
        }
    };
    EqualMeanPairGen::new(GenConfig::new(n), s1, s2)
}

/// Runs one trial: sample an equal-mean pair and judge the predictor.
pub fn one_trial(
    params: &Params,
    n: usize,
    generator: PairGenerator,
    trial_seed: u64,
) -> TrialOutcome {
    let mut rng = rng_from_seed(trial_seed);
    let gen = pair_gen(n, generator, &mut rng);
    let Some(pair) = gen.sample(&mut rng) else {
        return TrialOutcome::Tie;
    };
    let gap = pair.var1 - pair.var2;
    if gap.abs() < 1e-12 {
        return TrialOutcome::Tie;
    }
    let x1 = x_measure_of_rhos(params, pair.p1.rhos());
    let x2 = x_measure_of_rhos(params, pair.p2.rhos());
    judge(gap > 0.0, x1, x2)
}

/// Judges one pair past the variance tie from the sign of its variance
/// gap and its X-values.
fn judge(gap_positive: bool, x1: f64, x2: f64) -> TrialOutcome {
    if (x1 - x2).abs() / x1.max(x2) < 1e-13 {
        TrialOutcome::Tie
    } else if gap_positive == (x1 > x2) {
        TrialOutcome::Good
    } else {
        TrialOutcome::Bad
    }
}

/// Runs the full sweep.
pub fn run(config: &VarianceConfig) -> VarianceExperiment {
    let (params, generator, numeric) = (config.params, config.generator, config.numeric);
    let outcomes = run_grid(
        "trials.variance",
        config.seed,
        &pair_cells(&config.sizes),
        config.trials,
        config.threads,
        move |&n, seeds| {
            pair_trials(
                &params,
                numeric,
                n,
                seeds,
                |rng| pair_gen(n, generator, rng),
                |pair| {
                    untied_gap(pair)
                        .map(|gap| gap > 0.0)
                        .ok_or(TrialOutcome::Tie)
                },
                |gap_positive, [x1, x2], _| judge(gap_positive, x1, x2),
            )
        },
    );
    let rows = config
        .sizes
        .iter()
        .zip(outcomes)
        .map(|(&n, outcomes)| {
            let bad = outcomes.iter().filter(|o| **o == TrialOutcome::Bad).count();
            let ties = outcomes.iter().filter(|o| **o == TrialOutcome::Tie).count();
            let decided = outcomes.len() - ties;
            VarianceRow {
                n,
                decided,
                bad,
                ties,
                bad_fraction: if decided == 0 {
                    0.0
                } else {
                    bad as f64 / decided as f64
                },
            }
        })
        .collect();
    VarianceExperiment {
        config: config.clone(),
        rows,
    }
}

impl VarianceExperiment {
    /// ASCII rendering.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "§4.3 — variance as a power predictor ({:?} pairs, {} trials/size, seed {})",
                self.config.generator, self.config.trials, self.config.seed
            ),
            &["n", "decided", "bad", "ties", "bad %", "correct %"],
        );
        for r in &self.rows {
            t.row(vec![
                r.n.to_string(),
                r.decided.to_string(),
                r.bad.to_string(),
                r.ties.to_string(),
                fmt_f(100.0 * r.bad_fraction, 1),
                fmt_f(100.0 * (1.0 - r.bad_fraction), 1),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_par::seed;

    fn quick_config() -> VarianceConfig {
        VarianceConfig {
            sizes: vec![2, 8, 64],
            trials: 300,
            seed: 42,
            threads: 2,
            ..VarianceConfig::default()
        }
    }

    #[test]
    fn n2_is_always_good() {
        // Theorem 5(2): for two-computer clusters the predictor is exact.
        let e = run(&quick_config());
        let n2 = &e.rows[0];
        assert_eq!(n2.n, 2);
        assert_eq!(n2.bad, 0, "biconditional at n = 2");
        assert!(n2.decided > 200, "most trials decide");
    }

    #[test]
    fn bad_pairs_exist_at_larger_n_but_stay_minority() {
        let e = run(&quick_config());
        let n64 = e.rows.iter().find(|r| r.n == 64).unwrap();
        assert!(
            n64.bad_fraction < 0.5,
            "variance predictor stays better than a coin: {}",
            n64.bad_fraction
        );
    }

    #[test]
    fn results_independent_of_thread_count() {
        let mut cfg = quick_config();
        cfg.threads = 1;
        let serial = run(&cfg);
        cfg.threads = 8;
        let parallel = run(&cfg);
        assert_eq!(serial.rows, parallel.rows);
    }

    #[test]
    fn one_trial_is_deterministic() {
        let p = Params::paper_table1();
        for g in [PairGenerator::SameUniform, PairGenerator::DiverseShapes] {
            assert_eq!(one_trial(&p, 16, g, 99), one_trial(&p, 16, g, 99));
        }
    }

    #[test]
    fn diverse_pairs_are_easier_than_same_uniform() {
        // The generator family brackets the paper's ~23 % bad plateau:
        // same-uniform pairs are harder, diverse-shape pairs easier.
        let mut cfg = quick_config();
        cfg.sizes = vec![64];
        cfg.trials = 500;
        cfg.generator = PairGenerator::SameUniform;
        let hard = run(&cfg).rows[0].bad_fraction;
        cfg.generator = PairGenerator::DiverseShapes;
        let easy = run(&cfg).rows[0].bad_fraction;
        assert!(
            easy < hard,
            "diverse {easy} should beat same-uniform {hard}"
        );
        assert!(hard > 0.23 && easy < 0.23, "paper's plateau is bracketed");
    }

    #[test]
    fn batched_run_matches_the_scalar_reference() {
        // The batched block path (SoA arena + lockstep kernel) must land
        // on exactly the outcomes of the per-trial scalar reference.
        let cfg = quick_config();
        let e = run(&cfg);
        for (row, &n) in e.rows.iter().zip(&cfg.sizes) {
            let size_seed = seed::derive(cfg.seed, n as u64);
            let (mut bad, mut ties) = (0usize, 0usize);
            for t in 0..cfg.trials as u64 {
                match one_trial(&cfg.params, n, cfg.generator, seed::derive(size_seed, t)) {
                    TrialOutcome::Bad => bad += 1,
                    TrialOutcome::Tie => ties += 1,
                    TrialOutcome::Good => {}
                }
            }
            assert_eq!((row.bad, row.ties), (bad, ties), "n = {n}");
        }
    }

    #[test]
    fn render_has_one_row_per_size() {
        let e = run(&quick_config());
        assert_eq!(e.table().len(), 3);
        let s = e.table().to_ascii();
        assert!(s.contains("correct %"));
    }
}
