//! Online statistics accumulators.
//!
//! Simulation sweeps aggregate thousands of per-trial observations;
//! [`OnlineStats`] folds them in one pass with Welford's numerically
//! stable mean/variance update (no stored samples, no cancellation), and
//! [`FixedHistogram`] buckets them for distribution-shaped summaries.

/// Single-pass mean/variance/extrema accumulator (Welford's algorithm).
///
/// ```
/// use hetero_sim::stats::OnlineStats;
/// let mut s = OnlineStats::new();
/// for v in [1.0, 2.0, 3.0, 4.0] {
///     s.push(v);
/// }
/// assert_eq!(s.mean(), 2.5);
/// assert_eq!(s.variance(), 1.25);
/// assert_eq!((s.min(), s.max()), (1.0, 4.0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Folds one observation.
    ///
    /// # Panics
    /// Panics on NaN (a NaN observation would silently poison every
    /// statistic).
    pub fn push(&mut self, v: f64) {
        assert!(!v.is_nan(), "NaN observation");
        self.count += 1;
        let delta = v - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (v - self.mean);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Merges another accumulator (Chan's parallel combination), so
    /// per-worker partials can be reduced.
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let (n1, n2) = (self.count as f64, other.count as f64);
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 when fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`+∞` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`−∞` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// Fixed-width histogram over `[lo, hi)` with out-of-range clamping.
#[derive(Debug, Clone)]
pub struct FixedHistogram {
    lo: f64,
    width: f64,
    counts: Vec<u64>,
}

impl FixedHistogram {
    /// `buckets` equal-width bins spanning `[lo, hi)`.
    ///
    /// # Panics
    /// Panics when `hi ≤ lo` or `buckets == 0`.
    pub fn new(lo: f64, hi: f64, buckets: usize) -> Self {
        assert!(hi > lo, "empty range");
        assert!(buckets > 0, "need at least one bucket");
        FixedHistogram {
            lo,
            width: (hi - lo) / buckets as f64,
            counts: vec![0; buckets],
        }
    }

    /// Records one observation (values outside the range clamp to the
    /// first/last bucket).
    pub fn push(&mut self, v: f64) {
        let idx = ((v - self.lo) / self.width).floor();
        let idx = (idx.max(0.0) as usize).min(self.counts.len() - 1);
        if let Some(count) = self.counts.get_mut(idx) {
            *count += 1;
        }
    }

    /// Bucket counts, in range order.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// `(bucket_lo, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .map(move |(i, &c)| (self.lo + i as f64 * self.width, c))
    }

    /// Total observations recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_direct_computation() {
        let data = [0.3, 1.7, -2.2, 5.0, 0.0, 3.1];
        let mut s = OnlineStats::new();
        for &v in &data {
            s.push(v);
        }
        let n = data.len() as f64;
        let mean = data.iter().sum::<f64>() / n;
        let var = data.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        assert!((s.mean() - mean).abs() < 1e-14);
        assert!((s.variance() - var).abs() < 1e-14);
        assert_eq!(s.count(), 6);
        assert_eq!(s.min(), -2.2);
        assert_eq!(s.max(), 5.0);
    }

    #[test]
    fn welford_is_stable_for_large_offsets() {
        // Classic catastrophic-cancellation case: tiny variance on a huge
        // mean. The naive Σx² − (Σx)²/n formula fails here.
        let mut s = OnlineStats::new();
        for v in [1e9 + 1.0, 1e9 + 2.0, 1e9 + 3.0] {
            s.push(v);
        }
        assert!((s.variance() - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn empty_and_single_edge_cases() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        let mut s = OnlineStats::new();
        s.push(7.0);
        assert_eq!(s.mean(), 7.0);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut whole = OnlineStats::new();
        for &v in &data {
            whole.push(v);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &v in &data[..33] {
            a.push(v);
        }
        for &v in &data[33..] {
            b.push(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-12);
        assert!((a.variance() - whole.variance()).abs() < 1e-12);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
        // Merging an empty accumulator is a no-op either way.
        let empty = OnlineStats::new();
        let before = a.mean();
        a.merge(&empty);
        assert_eq!(a.mean(), before);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        OnlineStats::new().push(f64::NAN);
    }

    #[test]
    fn histogram_buckets_and_clamps() {
        let mut h = FixedHistogram::new(0.0, 1.0, 4);
        for v in [0.1, 0.3, 0.3, 0.6, 0.9, -5.0, 5.0] {
            h.push(v);
        }
        assert_eq!(h.counts(), &[2, 2, 1, 2]); // clamped ends included
        assert_eq!(h.total(), 7);
        let firsts: Vec<f64> = h.iter().map(|(lo, _)| lo).collect();
        assert_eq!(firsts, vec![0.0, 0.25, 0.5, 0.75]);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn histogram_rejects_bad_range() {
        let _ = FixedHistogram::new(1.0, 1.0, 4);
    }
}
