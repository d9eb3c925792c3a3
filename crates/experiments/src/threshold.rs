//! Experiment E7 — §4.3: the **variance-gap threshold θ**.
//!
//! The paper's refinement of E6: although variance alone errs on ~23 % of
//! equal-mean pairs, every observed error had a *small* variance gap. The
//! authors searched for the smallest θ such that "variance larger by at
//! least θ" was a 100 %-correct predictor across all their trials and
//! found θ = 0.167.
//!
//! We reproduce the search: draw pairs from shape combinations spanning
//! tiny to near-maximal variance gaps, record `(gap, correct?)` for each,
//! and report the largest gap that ever mispredicted — the empirical θ —
//! together with an accuracy-by-gap histogram.

use hetero_clustergen::{rng_from_seed, EqualMeanPairGen, GenConfig, PairBatcher, Shape};
use hetero_core::xbatch::{self, ProfileBatch};
use hetero_core::{NumericMode, Params};

use crate::render::{fmt_f, Table};
use crate::trials::{run_cell, BATCH_BLOCK};

/// One trial's record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GapSample {
    /// `|VAR(P1) − VAR(P2)|`.
    pub gap: f64,
    /// Whether the larger-variance cluster was the more powerful.
    pub correct: bool,
}

/// Configuration of the threshold search.
#[derive(Debug, Clone)]
pub struct ThresholdConfig {
    /// Model parameters.
    pub params: Params,
    /// Cluster sizes to probe.
    pub sizes: Vec<usize>,
    /// Trials per (size, shape-combination).
    pub trials_per_combo: usize,
    /// Root seed.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
    /// Histogram bucket width (in variance units).
    pub bucket_width: f64,
    /// Numeric mode for the batched X pass (`Strict` by default).
    pub numeric: NumericMode,
}

impl Default for ThresholdConfig {
    fn default() -> Self {
        ThresholdConfig {
            params: Params::paper_table1(),
            sizes: vec![4, 16, 64, 256],
            trials_per_combo: 1500,
            seed: 0xBEEF,
            threads: hetero_par::default_threads(),
            bucket_width: 0.02,
            numeric: NumericMode::Strict,
        }
    }
}

/// The search result.
#[derive(Debug, Clone)]
pub struct ThresholdExperiment {
    /// Configuration used.
    pub config: ThresholdConfig,
    /// Every decided trial.
    pub samples: Vec<GapSample>,
    /// The empirical θ: the largest gap that ever mispredicted (`0` when
    /// no trial erred). Any gap strictly above this was always correct.
    pub theta: f64,
    /// Accuracy per gap bucket: `(bucket_lo, decided, correct)`.
    pub histogram: Vec<(f64, usize, usize)>,
}

const SHAPE_COMBOS: [(Shape, Shape); 4] = [
    (Shape::Uniform, Shape::Uniform),
    (Shape::Concentrated, Shape::Uniform),
    (Shape::Uniform, Shape::Bimodal),
    (Shape::Concentrated, Shape::Bimodal),
];

/// Runs one block of trials of one (size, shape-combo) cell through the
/// batched kernel — generation bulk-loads one [`ProfileBatch`], a single
/// lockstep pass supplies every X-value, and each trial's record is
/// bit-identical to the scalar per-trial path it replaced (pinned by the
/// `batched_run_matches_the_scalar_reference` test below).
fn block_samples(
    params: &Params,
    n: usize,
    shapes: (Shape, Shape),
    numeric: NumericMode,
    seeds: &[u64],
) -> Vec<Option<GapSample>> {
    let gen = EqualMeanPairGen::new(GenConfig::new(n), shapes.0, shapes.1);
    let mut batch = ProfileBatch::with_capacity(2 * seeds.len(), 2 * n * seeds.len());
    let mut batcher = PairBatcher::new();
    // Signed gap per judged trial; None when the trial tied before X.
    let mut gaps = Vec::with_capacity(seeds.len());
    for &trial_seed in seeds {
        let mut rng = rng_from_seed(trial_seed);
        match batcher.sample_into(&gen, &mut rng, &mut batch) {
            None => gaps.push(None),
            Some(stats) => {
                let gap = stats.var1 - stats.var2;
                if gap.abs() < 1e-12 {
                    batch.truncate(batch.len() - 2);
                    gaps.push(None);
                } else {
                    gaps.push(Some(gap));
                }
            }
        }
    }
    let xs = xbatch::x_measures_mode(params, &batch, numeric);
    let mut next = 0usize;
    gaps.into_iter()
        .map(|gap| {
            let gap = gap?;
            let (x1, x2) = (xs[next], xs[next + 1]);
            next += 2;
            if (x1 - x2).abs() / x1.max(x2) < 1e-13 {
                return None;
            }
            Some(GapSample {
                gap: gap.abs(),
                correct: (gap > 0.0) == (x1 > x2),
            })
        })
        .collect()
}

/// Runs the full search.
pub fn run(config: &ThresholdConfig) -> ThresholdExperiment {
    let mut samples = Vec::new();
    for &n in &config.sizes {
        for (combo_idx, &shapes) in SHAPE_COMBOS.iter().enumerate() {
            let (params, numeric) = (config.params, config.numeric);
            let cell = run_cell(
                "trials.threshold",
                config.seed,
                (n as u64) << 8 | combo_idx as u64,
                config.trials_per_combo,
                BATCH_BLOCK,
                config.threads,
                move |seeds| block_samples(&params, n, shapes, numeric, seeds),
            );
            samples.extend(cell.into_iter().flatten());
        }
    }

    let theta = samples
        .iter()
        .filter(|s| !s.correct)
        .map(|s| s.gap)
        .fold(0.0f64, f64::max);

    let max_gap = samples.iter().map(|s| s.gap).fold(0.0f64, f64::max);
    let buckets = (max_gap / config.bucket_width).ceil() as usize + 1;
    let mut histogram = vec![(0.0, 0usize, 0usize); buckets];
    for (i, h) in histogram.iter_mut().enumerate() {
        h.0 = i as f64 * config.bucket_width;
    }
    for s in &samples {
        let b = (s.gap / config.bucket_width) as usize;
        histogram[b].1 += 1;
        if s.correct {
            histogram[b].2 += 1;
        }
    }
    histogram.retain(|&(_, d, _)| d > 0);

    ThresholdExperiment {
        config: config.clone(),
        samples,
        theta,
        histogram,
    }
}

impl ThresholdExperiment {
    /// Fraction of decided trials the bare predictor got right.
    pub fn overall_accuracy(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().filter(|s| s.correct).count() as f64 / self.samples.len() as f64
    }

    /// ASCII rendering of the accuracy-by-gap histogram.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "§4.3 — accuracy by variance gap ({} samples, θ = {:.3}, paper θ = 0.167)",
                self.samples.len(),
                self.theta
            ),
            &["gap ≥", "decided", "correct", "accuracy %"],
        );
        for &(lo, decided, correct) in &self.histogram {
            t.row(vec![
                fmt_f(lo, 3),
                decided.to_string(),
                correct.to_string(),
                fmt_f(100.0 * correct as f64 / decided as f64, 1),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_core::xmeasure::x_measure_of_rhos;
    use hetero_par::seed;

    /// The scalar reference: one trial for a given shape combination,
    /// exactly as the pre-batch driver computed it.
    fn one_trial(
        params: &Params,
        n: usize,
        shapes: (Shape, Shape),
        trial_seed: u64,
    ) -> Option<GapSample> {
        let mut rng = rng_from_seed(trial_seed);
        let gen = EqualMeanPairGen::new(GenConfig::new(n), shapes.0, shapes.1);
        let pair = gen.sample(&mut rng)?;
        let gap = pair.var1 - pair.var2;
        if gap.abs() < 1e-12 {
            return None;
        }
        let x1 = x_measure_of_rhos(params, pair.p1.rhos());
        let x2 = x_measure_of_rhos(params, pair.p2.rhos());
        if (x1 - x2).abs() / x1.max(x2) < 1e-13 {
            return None;
        }
        Some(GapSample {
            gap: gap.abs(),
            correct: (gap > 0.0) == (x1 > x2),
        })
    }

    fn quick_config() -> ThresholdConfig {
        ThresholdConfig {
            sizes: vec![8, 64],
            trials_per_combo: 250,
            seed: 7,
            threads: 2,
            ..ThresholdConfig::default()
        }
    }

    #[test]
    fn a_finite_threshold_exists() {
        let e = run(&quick_config());
        assert!(!e.samples.is_empty());
        // Some errors occur (otherwise the threshold experiment would be
        // moot) but the worst error has a bounded gap, and gaps above θ
        // are all correct by construction.
        let max_gap = e.samples.iter().map(|s| s.gap).fold(0.0f64, f64::max);
        assert!(
            e.theta < max_gap,
            "largest gaps must predict correctly: θ = {}, max = {max_gap}",
            e.theta
        );
        for s in &e.samples {
            if s.gap > e.theta {
                assert!(s.correct);
            }
        }
    }

    #[test]
    fn accuracy_improves_with_gap() {
        let e = run(&quick_config());
        // Compare small-gap vs large-gap halves.
        let mid = e.theta.max(0.02);
        let acc = |pred: &dyn Fn(&GapSample) -> bool| -> f64 {
            let subset: Vec<_> = e.samples.iter().filter(|s| pred(s)).collect();
            if subset.is_empty() {
                return 1.0;
            }
            subset.iter().filter(|s| s.correct).count() as f64 / subset.len() as f64
        };
        let small = acc(&|s: &GapSample| s.gap <= mid);
        let large = acc(&|s: &GapSample| s.gap > mid);
        assert!(
            large >= small,
            "large-gap accuracy {large} < small-gap {small}"
        );
        assert!(
            (large - 1.0).abs() < 1e-12,
            "gaps above θ are always correct"
        );
    }

    #[test]
    fn overall_accuracy_beats_chance() {
        let e = run(&quick_config());
        assert!(e.overall_accuracy() > 0.6, "{}", e.overall_accuracy());
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let mut cfg = quick_config();
        cfg.trials_per_combo = 100;
        cfg.threads = 1;
        let a = run(&cfg);
        cfg.threads = 8;
        let b = run(&cfg);
        assert_eq!(a.samples, b.samples);
        assert_eq!(a.theta, b.theta);
    }

    #[test]
    fn batched_run_matches_the_scalar_reference() {
        let mut cfg = quick_config();
        cfg.trials_per_combo = 120;
        let e = run(&cfg);
        let mut reference = Vec::new();
        for &n in &cfg.sizes {
            for (combo_idx, &shapes) in SHAPE_COMBOS.iter().enumerate() {
                let combo_seed = seed::derive(cfg.seed, (n as u64) << 8 | combo_idx as u64);
                for t in 0..cfg.trials_per_combo as u64 {
                    reference.extend(one_trial(
                        &cfg.params,
                        n,
                        shapes,
                        seed::derive(combo_seed, t),
                    ));
                }
            }
        }
        assert_eq!(e.samples.len(), reference.len());
        for (got, want) in e.samples.iter().zip(&reference) {
            assert_eq!(got.gap.to_bits(), want.gap.to_bits());
            assert_eq!(got.correct, want.correct);
        }
    }

    #[test]
    fn histogram_covers_all_samples() {
        let e = run(&quick_config());
        let total: usize = e.histogram.iter().map(|&(_, d, _)| d).sum();
        assert_eq!(total, e.samples.len());
        let s = e.table().to_ascii();
        assert!(s.contains("accuracy %"));
    }
}
