//! # hetero-clustergen — constrained random heterogeneity profiles
//!
//! The Section 4.3 experiments need *pairs* of random `n`-computer
//! clusters that share the same mean speed while differing in variance.
//! The paper only sketches its generator (the details are in the
//! unavailable companion paper), so this crate defines a documented,
//! reproducible one (DESIGN.md substitution S3):
//!
//! 1. draw raw speeds in `[lo, 1]` from a configurable [`Shape`]
//!    (uniform, bimodal, or mean-concentrated — the shapes produce small,
//!    large, and tiny variances respectively, giving the threshold
//!    experiment its range of variance gaps);
//! 2. project the second profile onto the first's mean by iterative
//!    shift-and-clamp, finishing with an exact residual distribution
//!    ([`adjust_to_mean`]);
//! 3. reject and retry if the projection cannot land inside `[lo, 1]ⁿ`.
//!
//! Everything is driven by explicit [`rand::rngs::StdRng`] seeds; combined
//! with `hetero_par::seed::derive`, parallel sweeps are reproducible
//! independent of thread count.
//!
//! ```
//! use hetero_clustergen::{rng_from_seed, EqualMeanPairGen, GenConfig, Shape};
//!
//! let mut rng = rng_from_seed(7);
//! let gen = EqualMeanPairGen::new(GenConfig::new(16), Shape::Uniform, Shape::Bimodal);
//! let pair = gen.sample(&mut rng).expect("projection feasible");
//! assert!((pair.p1.mean() - pair.p2.mean()).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hetero_core::numeric::kahan_sum;
use hetero_core::xbatch::ProfileBatch;
use hetero_core::{sort_slowest_first, Profile};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds the crate's standard RNG from a 64-bit seed.
pub fn rng_from_seed(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Size and speed-range of generated clusters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenConfig {
    /// Number of computers.
    pub n: usize,
    /// Smallest permitted ρ (fastest speed). Must satisfy `0 < lo < 1`.
    pub lo: f64,
}

impl GenConfig {
    /// Config with the default speed floor `lo = 0.01` (a 100× speed range,
    /// comfortably covering the paper's examples).
    pub fn new(n: usize) -> Self {
        GenConfig { n, lo: 0.01 }
    }

    /// Overrides the speed floor.
    pub fn with_lo(mut self, lo: f64) -> Self {
        assert!(lo > 0.0 && lo < 1.0, "lo must lie in (0, 1)");
        self.lo = lo;
        self
    }
}

/// Distribution family for raw speed draws.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// i.i.d. uniform on `[lo, 1]` — moderate variance.
    Uniform,
    /// Each speed near `lo` or near `1` (±10 % of the range) with equal
    /// probability — variance close to its maximum for the range.
    Bimodal,
    /// Speeds within ±10 % of the range's midpoint — variance near zero.
    Concentrated,
}

/// Draws one vector of raw speeds (unsorted, not mean-adjusted).
pub fn sample_speeds(rng: &mut StdRng, cfg: GenConfig, shape: Shape) -> Vec<f64> {
    let mut out = Vec::with_capacity(cfg.n);
    sample_speeds_into(rng, cfg, shape, &mut out);
    out
}

/// [`sample_speeds`] into a caller-owned buffer (cleared first), drawing
/// exactly the same RNG stream — the allocation-free primitive the batch
/// loaders are built on.
pub fn sample_speeds_into(rng: &mut StdRng, cfg: GenConfig, shape: Shape, out: &mut Vec<f64>) {
    assert!(cfg.n >= 1, "cluster must have at least one computer");
    let width = 1.0 - cfg.lo;
    out.clear();
    out.reserve(cfg.n);
    for _ in 0..cfg.n {
        out.push(match shape {
            Shape::Uniform => rng.random_range(cfg.lo..=1.0),
            Shape::Bimodal => {
                let jitter = rng.random_range(0.0..=0.1) * width;
                if rng.random_bool(0.5) {
                    cfg.lo + jitter
                } else {
                    1.0 - jitter
                }
            }
            Shape::Concentrated => {
                let mid = cfg.lo + 0.5 * width;
                mid + rng.random_range(-0.1..=0.1) * width
            }
        });
    }
}

/// Draws one random [`Profile`] (sorted slowest-first).
pub fn random_profile(rng: &mut StdRng, cfg: GenConfig, shape: Shape) -> Profile {
    Profile::from_unsorted(sample_speeds(rng, cfg, shape))
        // hetero-check: allow(expect) — sample_speeds clamps every draw into [cfg.lo, 1] with cfg.lo > 0
        .expect("sampled speeds are positive and finite")
}

/// Projects `speeds` to have exactly the `target` mean while staying in
/// `[lo, 1]`, by iterative shift-and-clamp plus an exact residual pass.
/// Returns `None` when the target is outside `[lo, 1]` (unreachable).
pub fn adjust_to_mean(mut speeds: Vec<f64>, target: f64, lo: f64) -> Option<Vec<f64>> {
    adjust_to_mean_in_place(&mut speeds, target, lo).then_some(speeds)
}

/// [`adjust_to_mean`] operating in place: same arithmetic, no move.
/// Returns `false` (leaving `speeds` partially shifted — resample them)
/// when the target mean is unreachable.
pub fn adjust_to_mean_in_place(speeds: &mut [f64], target: f64, lo: f64) -> bool {
    let n = speeds.len() as f64;
    if speeds.is_empty() || !(lo..=1.0).contains(&target) {
        return false;
    }
    // Phase 1: shift everything by the mean error, clamping to the box.
    // Each iteration strictly reduces |error| unless all entries are
    // pinned at the same bound, which cannot happen for a reachable target.
    for _ in 0..64 {
        // hetero-check: allow(float-accum) — mean over a fixed-order slice used only as a projection target; not on a result path
        let mean = speeds.iter().sum::<f64>() / n;
        let err = target - mean;
        if err.abs() < 1e-12 {
            break;
        }
        for s in &mut *speeds {
            *s = (*s + err).clamp(lo, 1.0);
        }
    }
    // Phase 2: distribute the (tiny) remaining residual over entries with
    // slack, making the mean exact to f64 working precision.
    // hetero-check: allow(float-accum) — residual of a fixed-order slice sum; the distribution loop below zeroes it regardless of rounding
    let mut residual = target * n - speeds.iter().sum::<f64>();
    for s in &mut *speeds {
        if residual.abs() < 1e-15 {
            break;
        }
        let room = if residual > 0.0 { 1.0 - *s } else { lo - *s };
        let step = residual.clamp(room.min(0.0), room.max(0.0));
        // hetero-check: allow(float-accum) — sequential residual hand-off IS the algorithm; the entry order is pinned by the slice
        *s += step;
        // hetero-check: allow(float-accum) — same pinned-order residual walk as the line above
        residual -= step;
    }
    // A residual that refuses to distribute means a pathological box;
    // the caller should resample.
    residual.abs() <= 1e-9
}

/// A pair of equal-mean profiles plus their measured statistics.
#[derive(Debug, Clone)]
pub struct EqualMeanPair {
    /// First profile.
    pub p1: Profile,
    /// Second profile (mean-matched to the first).
    pub p2: Profile,
    /// The shared mean speed.
    pub mean: f64,
    /// `VAR(p1)`.
    pub var1: f64,
    /// `VAR(p2)`.
    pub var2: f64,
}

impl EqualMeanPair {
    /// Absolute variance gap `|VAR(p1) − VAR(p2)|`.
    pub fn variance_gap(&self) -> f64 {
        (self.var1 - self.var2).abs()
    }
}

/// Generator of equal-mean profile pairs with chosen shapes for each side.
///
/// Drawing `p1` from one shape and `p2` from another controls the typical
/// variance gap: `(Concentrated, Bimodal)` produces the large gaps probed
/// by the threshold experiment, `(Uniform, Uniform)` the small ones where
/// the variance predictor starts to fail.
#[derive(Debug, Clone, Copy)]
pub struct EqualMeanPairGen {
    cfg: GenConfig,
    shape1: Shape,
    shape2: Shape,
}

impl EqualMeanPairGen {
    /// New generator.
    pub fn new(cfg: GenConfig, shape1: Shape, shape2: Shape) -> Self {
        EqualMeanPairGen {
            cfg,
            shape1,
            shape2,
        }
    }

    /// The configuration.
    pub fn config(&self) -> GenConfig {
        self.cfg
    }

    /// Draws one pair; `None` when 32 successive projections failed
    /// (practically unreachable for sane configs).
    pub fn sample(&self, rng: &mut StdRng) -> Option<EqualMeanPair> {
        for _ in 0..32 {
            let raw1 = sample_speeds(rng, self.cfg, self.shape1);
            // hetero-check: allow(float-accum) — mean of a freshly drawn fixed-order sample; golden profile outputs pin this exact sum order
            let mean = raw1.iter().sum::<f64>() / raw1.len() as f64;
            let raw2 = sample_speeds(rng, self.cfg, self.shape2);
            let Some(adj2) = adjust_to_mean(raw2, mean, self.cfg.lo) else {
                continue;
            };
            // hetero-check: allow(expect) — sample_speeds keeps draws in [cfg.lo, 1], cfg.lo > 0
            let p1 = Profile::from_unsorted(raw1).expect("valid speeds");
            // hetero-check: allow(expect) — adjust_to_mean clamps into [lo, 1] and returned Some, so speeds are valid
            let p2 = Profile::from_unsorted(adj2).expect("valid speeds");
            let (var1, var2) = (p1.variance(), p2.variance());
            return Some(EqualMeanPair {
                p1,
                p2,
                mean,
                var1,
                var2,
            });
        }
        None
    }
}

/// Statistics of one pair drawn by [`PairBatcher::sample_into`] — the
/// same numbers [`EqualMeanPair`] carries, without the two `Profile`
/// allocations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairSample {
    /// The shared mean speed.
    pub mean: f64,
    /// `VAR(p1)`.
    pub var1: f64,
    /// `VAR(p2)`.
    pub var2: f64,
}

impl PairSample {
    /// Absolute variance gap `|VAR(p1) − VAR(p2)|`.
    pub fn variance_gap(&self) -> f64 {
        (self.var1 - self.var2).abs()
    }
}

/// Allocation-free bulk loader of equal-mean pairs into a
/// [`ProfileBatch`].
///
/// Holds the raw-draw scratch buffers that [`EqualMeanPairGen::sample`]
/// would allocate per trial, plus the sort's key scratch, and pushes each
/// accepted pair's *sorted* ρ-rows directly into the structure-of-arrays
/// arena. The RNG draw order, the retry policy, the plain-sum target
/// mean, the slowest-first [`sort_slowest_first`], and the compensated
/// mean/variance are each the exact operation sequence of the
/// `Profile`-returning path, so a batched sweep consumes the same stream
/// and computes bit-identical statistics (pinned by a test).
#[derive(Debug, Clone, Default)]
pub struct PairBatcher {
    raw1: Vec<f64>,
    raw2: Vec<f64>,
    keys: Vec<u64>,
}

impl PairBatcher {
    /// A batcher with empty scratch (grown on first use, reused after).
    pub fn new() -> Self {
        PairBatcher::default()
    }

    /// Draws one pair from `gen`, appending its two sorted profiles to
    /// `batch` and returning their statistics; `None` (nothing appended)
    /// when 32 successive projections failed. Mirrors
    /// [`EqualMeanPairGen::sample`] draw for draw.
    pub fn sample_into(
        &mut self,
        gen: &EqualMeanPairGen,
        rng: &mut StdRng,
        batch: &mut ProfileBatch,
    ) -> Option<PairSample> {
        let cfg = gen.cfg;
        for _ in 0..32 {
            sample_speeds_into(rng, cfg, gen.shape1, &mut self.raw1);
            // hetero-check: allow(float-accum) — must match the allocating path's sum bit-for-bit, same fixed slice order
            let mean = self.raw1.iter().sum::<f64>() / self.raw1.len() as f64;
            sample_speeds_into(rng, cfg, gen.shape2, &mut self.raw2);
            if !adjust_to_mean_in_place(&mut self.raw2, mean, cfg.lo) {
                continue;
            }
            // Sort exactly as Profile::from_unsorted does, then take the
            // statistics in sorted order exactly as Profile::mean/variance
            // do — bit-identical to building the profiles.
            sort_slowest_first(&mut self.raw1, &mut self.keys);
            sort_slowest_first(&mut self.raw2, &mut self.keys);
            let (var1, var2) = (variance_of(&self.raw1), variance_of(&self.raw2));
            batch.push(&self.raw1);
            batch.push(&self.raw2);
            return Some(PairSample { mean, var1, var2 });
        }
        None
    }
}

/// [`Profile::mean`]'s operation sequence on a raw sorted slice.
fn mean_of(rhos: &[f64]) -> f64 {
    kahan_sum(rhos.iter().copied()) / rhos.len() as f64
}

/// [`Profile::variance`]'s operation sequence on a raw sorted slice.
fn variance_of(rhos: &[f64]) -> f64 {
    let mean = mean_of(rhos);
    kahan_sum(rhos.iter().map(|r| (r - mean) * (r - mean))) / rhos.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_rng_is_deterministic() {
        let cfg = GenConfig::new(8);
        let a = sample_speeds(&mut rng_from_seed(99), cfg, Shape::Uniform);
        let b = sample_speeds(&mut rng_from_seed(99), cfg, Shape::Uniform);
        assert_eq!(a, b);
        let c = sample_speeds(&mut rng_from_seed(100), cfg, Shape::Uniform);
        assert_ne!(a, c);
    }

    #[test]
    fn samples_respect_the_box() {
        let cfg = GenConfig::new(200).with_lo(0.05);
        let mut rng = rng_from_seed(1);
        for shape in [Shape::Uniform, Shape::Bimodal, Shape::Concentrated] {
            for s in sample_speeds(&mut rng, cfg, shape) {
                assert!((0.05..=1.0).contains(&s), "{shape:?} produced {s}");
            }
        }
    }

    #[test]
    fn shapes_order_variances() {
        let cfg = GenConfig::new(500);
        let mut rng = rng_from_seed(2);
        let mut var = |shape| {
            Profile::from_unsorted(sample_speeds(&mut rng, cfg, shape))
                .unwrap()
                .variance()
        };
        let (vc, vu, vb) = (
            var(Shape::Concentrated),
            var(Shape::Uniform),
            var(Shape::Bimodal),
        );
        assert!(vc < vu && vu < vb, "{vc} < {vu} < {vb} violated");
    }

    #[test]
    fn adjust_to_mean_hits_target_exactly() {
        let speeds = vec![0.2, 0.9, 0.5, 0.7];
        let out = adjust_to_mean(speeds, 0.4, 0.01).unwrap();
        let mean = out.iter().sum::<f64>() / 4.0;
        assert!((mean - 0.4).abs() < 1e-12);
        for s in out {
            assert!((0.01..=1.0).contains(&s));
        }
    }

    #[test]
    fn adjust_to_mean_rejects_unreachable_targets() {
        assert!(adjust_to_mean(vec![0.5, 0.5], 1.5, 0.01).is_none());
        assert!(adjust_to_mean(vec![0.5, 0.5], 0.001, 0.01).is_none());
        assert!(adjust_to_mean(vec![], 0.5, 0.01).is_none());
    }

    #[test]
    fn adjust_to_mean_handles_extreme_targets_in_range() {
        // Target at the very top of the box pins everything at 1.
        let out = adjust_to_mean(vec![0.3, 0.8], 1.0, 0.01).unwrap();
        assert_eq!(out, vec![1.0, 1.0]);
    }

    #[test]
    fn equal_mean_pairs_share_mean() {
        let gen = EqualMeanPairGen::new(GenConfig::new(32), Shape::Uniform, Shape::Bimodal);
        let mut rng = rng_from_seed(3);
        for _ in 0..50 {
            let pair = gen.sample(&mut rng).expect("feasible");
            assert!((pair.p1.mean() - pair.p2.mean()).abs() < 1e-11);
            assert!((pair.p1.mean() - pair.mean).abs() < 1e-11);
            assert_eq!(pair.p1.n(), 32);
            assert_eq!(pair.p2.n(), 32);
        }
    }

    #[test]
    fn shape_pairing_controls_variance_gap() {
        let mut rng = rng_from_seed(4);
        let big = EqualMeanPairGen::new(GenConfig::new(64), Shape::Concentrated, Shape::Bimodal);
        let small = EqualMeanPairGen::new(GenConfig::new(64), Shape::Uniform, Shape::Uniform);
        let mut big_gaps = 0.0;
        let mut small_gaps = 0.0;
        for _ in 0..20 {
            big_gaps += big.sample(&mut rng).unwrap().variance_gap();
            small_gaps += small.sample(&mut rng).unwrap().variance_gap();
        }
        assert!(
            big_gaps > 4.0 * small_gaps,
            "Concentrated/Bimodal should give much larger gaps: {big_gaps} vs {small_gaps}"
        );
    }

    #[test]
    fn pair_batcher_is_bit_identical_to_the_profile_path() {
        // Same seed through both paths: the arena rows must equal the
        // sorted profiles bit for bit, the statistics likewise, and the
        // two RNGs must stay in lockstep across many trials. n = 1024 is
        // the top of the variance sweep's grid.
        for n in [24, 1024] {
            for (s1, s2) in [
                (Shape::Uniform, Shape::Bimodal),
                (Shape::Concentrated, Shape::Bimodal),
                (Shape::Uniform, Shape::Uniform),
            ] {
                let gen = EqualMeanPairGen::new(GenConfig::new(n), s1, s2);
                let mut rng_a = rng_from_seed(77);
                let mut rng_b = rng_from_seed(77);
                let mut batcher = PairBatcher::new();
                let mut batch = ProfileBatch::new();
                for trial in 0..40 {
                    let pair = gen.sample(&mut rng_a).expect("feasible");
                    let stats = batcher
                        .sample_into(&gen, &mut rng_b, &mut batch)
                        .expect("feasible");
                    let row1 = batch.rhos_of(batch.len() - 2);
                    let row2 = batch.rhos_of(batch.len() - 1);
                    assert_eq!(row1, pair.p1.rhos(), "n {n}, trial {trial}");
                    assert_eq!(row2, pair.p2.rhos(), "n {n}, trial {trial}");
                    assert_eq!(stats.mean.to_bits(), pair.mean.to_bits());
                    assert_eq!(stats.var1.to_bits(), pair.var1.to_bits());
                    assert_eq!(stats.var2.to_bits(), pair.var2.to_bits());
                }
            }
        }
    }

    #[test]
    fn variance_gap_is_symmetric() {
        let pair = EqualMeanPair {
            p1: Profile::homogeneous(2, 0.5).unwrap(),
            p2: Profile::new(vec![0.9, 0.1]).unwrap(),
            mean: 0.5,
            var1: 0.0,
            var2: 0.16,
        };
        assert!((pair.variance_gap() - 0.16).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "lo must lie")]
    fn bad_lo_panics() {
        let _ = GenConfig::new(4).with_lo(1.5);
    }
}
