//! Mergeable log-bucketed quantile sketches (HDR-histogram style).
//!
//! A [`QuantileSketch`] buckets positive observations into *fixed*
//! geometric bins with ratio `GAMMA = 2^(1/8)` (≈ 9.05% relative width),
//! anchored at 1.0. The bucket boundaries are global constants, never
//! derived from the data, which buys three properties the ad-hoc
//! `FixedHistogram` cannot offer for latencies:
//!
//! * **Exact merge.** Two sketches over the same (universal) boundary
//!   grid merge by integer bucket-count addition plus min/max folds —
//!   associative, commutative, and lossless with respect to the
//!   individual sketches' quantile answers.
//! * **Insertion-order determinism.** The state is integer counts and
//!   exact min/max; any permutation of the same observations yields a
//!   bit-identical sketch.
//! * **Bounded relative error.** A reported quantile is the geometric
//!   midpoint of the bucket holding the target rank, so it is within a
//!   factor `GAMMA^(1/2)` (≈ 4.4%) of some sample at that rank — the
//!   property the proptest oracle checks.
//!
//! The dynamic range spans `GAMMA^LO_EXP ≈ 5e-10` to `GAMMA^HI_EXP ≈
//! 8.9e9`; values at or below zero (and underflows) land in a dedicated
//! `low` bucket reported as the exact minimum, overflows in a `high`
//! bucket reported as the exact maximum. NaN is dropped.

/// Geometric bucket ratio: `2^(1/8)`, so eight buckets per octave.
pub const GAMMA: f64 = 1.090_507_732_665_257_7;

/// Log₂ resolution: buckets per factor-of-two.
const PER_OCTAVE: i32 = 8;

/// Lowest finite bucket exponent (`GAMMA^LO_EXP` ≈ 5.4e-10).
const LO_EXP: i32 = -248;

/// Highest finite bucket exponent (`GAMMA^HI_EXP` ≈ 8.9e9).
const HI_EXP: i32 = 264;

/// Number of finite buckets.
const N_BUCKETS: usize = (HI_EXP - LO_EXP) as usize;

/// A mergeable quantile sketch over fixed log-spaced buckets.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    counts: Vec<u64>,
    low: u64,
    high: u64,
    count: u64,
    min: f64,
    max: f64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new()
    }
}

impl QuantileSketch {
    /// An empty sketch.
    pub fn new() -> Self {
        QuantileSketch {
            counts: vec![0; N_BUCKETS],
            low: 0,
            high: 0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The bucket index for a positive, in-range `v`:
    /// `floor(8·log₂ v) − LO_EXP`, clamped into the finite grid.
    fn bucket_of(v: f64) -> usize {
        let e = (v.log2() * PER_OCTAVE as f64).floor() as i64;
        let e = e.clamp(LO_EXP as i64, (HI_EXP - 1) as i64);
        (e - LO_EXP as i64) as usize
    }

    /// Records one observation. NaN is dropped; non-positive values go
    /// to the `low` bucket; values past the grid go to `low`/`high`.
    pub fn record(&mut self, v: f64) {
        if v.is_nan() {
            return;
        }
        self.count += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        if v < gamma_pow(LO_EXP) {
            // Zero, negative, and sub-grid values all land in `low`.
            self.low += 1;
        } else if v >= gamma_pow(HI_EXP) {
            self.high += 1;
        } else {
            // `bucket_of` clamps into the grid, so the slot exists.
            if let Some(c) = self.counts.get_mut(Self::bucket_of(v)) {
                *c += 1;
            }
        }
    }

    /// Merges `other` into `self` — exact: pure integer addition over
    /// the shared boundary grid plus min/max folds.
    pub fn merge(&mut self, other: &QuantileSketch) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.low += other.low;
        self.high += other.high;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact minimum observation (`NaN` when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Exact maximum observation (`NaN` when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`) by the nearest-rank rule
    /// `rank = floor(q·(count−1))`: the geometric midpoint of the bucket
    /// holding that rank, clamped into `[min, max]`; the `low`/`high`
    /// buckets answer with the exact extremes. `NaN` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 || q.is_nan() {
            return f64::NAN;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * (self.count - 1) as f64).floor() as u64;
        if rank < self.low {
            return self.min;
        }
        let mut seen = self.low;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if rank < seen {
                let lo = gamma_pow(LO_EXP + i as i32);
                let mid = lo * SQRT_GAMMA;
                return mid.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median (p50).
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> f64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

/// `GAMMA^(1/2)` — bucket lower bound → geometric midpoint.
const SQRT_GAMMA: f64 = 1.044_273_782_427_413_8;

/// `GAMMA^e` computed as `2^(e/8)` so boundaries are reproducible
/// bit-for-bit from the exponent alone.
fn gamma_pow(e: i32) -> f64 {
    (e as f64 / PER_OCTAVE as f64).exp2()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sketch_answers_nan() {
        let s = QuantileSketch::new();
        assert_eq!(s.count(), 0);
        assert!(s.p50().is_nan() && s.min().is_nan() && s.max().is_nan());
    }

    #[test]
    fn quantiles_track_a_uniform_ladder() {
        let mut s = QuantileSketch::new();
        for i in 1..=1000 {
            s.record(i as f64);
        }
        assert_eq!(s.count(), 1000);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 1000.0);
        for (q, expect) in [(0.5, 500.0), (0.9, 900.0), (0.99, 990.0)] {
            let got = s.quantile(q);
            let rel = (got - expect).abs() / expect;
            assert!(rel < 0.06, "q={q}: got {got}, want ≈{expect} (rel {rel})");
        }
    }

    #[test]
    fn merge_equals_union() {
        let mut a = QuantileSketch::new();
        let mut b = QuantileSketch::new();
        let mut whole = QuantileSketch::new();
        for i in 0..500 {
            let v = 1.5f64.powi(i % 40) * 1e-3;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole, "merge must be exact");
    }

    #[test]
    fn out_of_range_and_nonpositive_use_exact_extremes() {
        let mut s = QuantileSketch::new();
        s.record(0.0);
        s.record(-3.0);
        s.record(1e300); // overflow bucket
        s.record(1e-300); // underflow bucket
        s.record(f64::NAN); // dropped
        assert_eq!(s.count(), 4);
        assert_eq!(s.min(), -3.0);
        assert_eq!(s.max(), 1e300);
        assert_eq!(s.quantile(0.0), -3.0);
        assert_eq!(s.quantile(1.0), 1e300);
    }

    #[test]
    fn single_value_quantiles_are_that_value_region() {
        let mut s = QuantileSketch::new();
        s.record(42.0);
        for q in [0.0, 0.5, 0.99, 1.0] {
            let got = s.quantile(q);
            assert_eq!(got, 42.0, "clamped into [min, max] collapses to 42");
        }
    }
}
