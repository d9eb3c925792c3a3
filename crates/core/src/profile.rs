//! Heterogeneity profiles (paper §1.1, §2.5).

use crate::ModelError;

/// A cluster's heterogeneity profile `P = ⟨ρ1,…,ρn⟩`.
///
/// `ρ_i` is the time computer `C_i` needs to complete one unit of work, so
/// **smaller values mean faster computers**. Following the paper's
/// power-indexing convention, values are stored in *nonincreasing* order:
/// index `0` is the slowest computer, index `n−1` the fastest. (This crate
/// uses 0-based indices; the paper's `C_1 … C_n` map to `0 … n−1`.)
///
/// Profiles are usually normalized so the slowest computer has `ρ = 1`
/// ([`Profile::is_normalized`]); un-normalized profiles are legal — the
/// HECR computation, for instance, needs homogeneous profiles with
/// arbitrary ρ — but every ρ must be finite and strictly positive.
///
/// ```
/// use hetero_core::Profile;
/// let p = Profile::new(vec![1.0, 0.5, 1.0 / 3.0, 0.25]).unwrap();
/// assert_eq!(p.n(), 4);
/// assert_eq!(p.slowest(), 1.0);
/// assert_eq!(p.fastest(), 0.25);
/// assert!(p.is_normalized());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    rhos: Vec<f64>,
}

impl Profile {
    /// Builds a profile from ρ-values already in nonincreasing order.
    pub fn new(rhos: Vec<f64>) -> Result<Self, ModelError> {
        if rhos.is_empty() {
            return Err(ModelError::EmptyProfile);
        }
        for (index, &value) in rhos.iter().enumerate() {
            if !(value.is_finite() && value > 0.0) {
                return Err(ModelError::InvalidRho { index, value });
            }
        }
        if let Some(index) = rhos.windows(2).position(|w| w[0] < w[1]) {
            return Err(ModelError::NotSorted { index });
        }
        Ok(Profile { rhos })
    }

    /// Builds a profile from ρ-values in any order (sorts them slowest
    /// first).
    pub fn from_unsorted(mut rhos: Vec<f64>) -> Result<Self, ModelError> {
        for (index, &value) in rhos.iter().enumerate() {
            if !(value.is_finite() && value > 0.0) {
                return Err(ModelError::InvalidRho { index, value });
            }
        }
        sort_slowest_first(&mut rhos, &mut Vec::new());
        Self::new(rhos)
    }

    /// A homogeneous `n`-computer cluster at speed `rho`.
    pub fn homogeneous(n: usize, rho: f64) -> Result<Self, ModelError> {
        Self::new(vec![rho; n.max(1)]).and_then(|p| {
            if n == 0 {
                Err(ModelError::EmptyProfile)
            } else {
                Ok(p)
            }
        })
    }

    /// The paper's cluster `C1` (§2.5): speeds spread evenly over
    /// `[1/n, 1]`, i.e. `ρ_i = 1 − (i−1)/n` for `i = 1…n`.
    pub fn uniform_spread(n: usize) -> Self {
        assert!(n >= 1, "cluster must have at least one computer");
        let rhos = (1..=n).map(|i| 1.0 - (i as f64 - 1.0) / n as f64).collect();
        // hetero-check: allow(expect) — ρ_i = (n−i+1)/n is strictly positive and nonincreasing for every i ≤ n
        Self::new(rhos).expect("family is valid by construction")
    }

    /// The paper's cluster `C2` (§2.5): harmonic speeds `ρ_i = 1/i`,
    /// weighted toward the fast half of the range.
    pub fn harmonic(n: usize) -> Self {
        assert!(n >= 1, "cluster must have at least one computer");
        let rhos = (1..=n).map(|i| 1.0 / i as f64).collect();
        // hetero-check: allow(expect) — ρ_i = 1/i is strictly positive and nonincreasing for every i ≤ n
        Self::new(rhos).expect("family is valid by construction")
    }

    /// Builds `⟨f(1), …, f(n)⟩` (1-based, as in the paper's
    /// `⟨f(i)|_{i=1}^n⟩` notation), sorting if needed.
    pub fn from_fn(n: usize, f: impl Fn(usize) -> f64) -> Result<Self, ModelError> {
        Self::from_unsorted((1..=n).map(f).collect())
    }

    /// Number of computers `n`.
    pub fn n(&self) -> usize {
        self.rhos.len()
    }

    /// The ρ-values, slowest first.
    pub fn rhos(&self) -> &[f64] {
        &self.rhos
    }

    /// The ρ-value of computer `index` (0-based, slowest first).
    pub fn rho(&self, index: usize) -> f64 {
        self.rhos[index]
    }

    /// ρ of the slowest computer (the largest value).
    pub fn slowest(&self) -> f64 {
        self.rhos[0]
    }

    /// ρ of the fastest computer (the smallest value).
    pub fn fastest(&self) -> f64 {
        // hetero-check: allow(expect) — every constructor rejects empty profiles
        *self.rhos.last().expect("profiles are nonempty")
    }

    /// `true` iff the slowest computer has ρ = 1 (the paper's convention).
    pub fn is_normalized(&self) -> bool {
        // hetero-check: allow(float-eq) — normalization means ρ1 is *exactly* 1, a definitional sentinel
        self.rhos[0] == 1.0
    }

    /// Rescales so the slowest computer has ρ = 1 (a change of time unit).
    pub fn normalized(&self) -> Self {
        let scale = self.rhos[0];
        Profile {
            rhos: self.rhos.iter().map(|r| r / scale).collect(),
        }
    }

    /// Arithmetic mean of the ρ-values.
    pub fn mean(&self) -> f64 {
        crate::numeric::kahan_sum(self.rhos.iter().copied()) / self.n() as f64
    }

    /// Population variance of the ρ-values (the paper's `VAR(P)`, Eq. 7).
    pub fn variance(&self) -> f64 {
        let mean = self.mean();
        crate::numeric::kahan_sum(self.rhos.iter().map(|r| (r - mean) * (r - mean)))
            / self.n() as f64
    }

    /// `true` iff `self` *minorizes* `other` (§4): same size, every
    /// `ρ_self[i] ≤ ρ_other[i]`, and at least one strictly smaller. By
    /// Proposition 2 a minorizing cluster always outperforms.
    pub fn minorizes(&self, other: &Profile) -> bool {
        self.n() == other.n()
            && self.rhos.iter().zip(&other.rhos).all(|(a, b)| a <= b)
            && self.rhos.iter().zip(&other.rhos).any(|(a, b)| a < b)
    }

    /// Returns a copy with computer `index` set to speed `rho`, re-sorted.
    ///
    /// This is the primitive behind both speedup scenarios of §3.
    pub fn with_rho(&self, index: usize, rho: f64) -> Result<Self, ModelError> {
        if index >= self.n() {
            return Err(ModelError::IndexOutOfRange { index, n: self.n() });
        }
        if !(rho.is_finite() && rho > 0.0) {
            return Err(ModelError::InvalidRho { index, value: rho });
        }
        let mut rhos = self.rhos.clone();
        rhos[index] = rho;
        Self::from_unsorted(rhos)
    }
}

/// Sorts `values` slowest first (descending IEEE total order), bit for
/// bit as `values.sort_by(|a, b| b.total_cmp(a))` does. `keys` is scratch
/// for the sort keys, cleared first and reusable across calls.
///
/// [`f64::total_cmp`] compares the bits as a signed integer after flipping
/// the magnitude bits of negative values. Reversing that order and moving
/// it onto unsigned integers gives the key sorted here. The key is a
/// bijection, so equal keys are equal bits: the unstable integer sort
/// yields the stable sort's slice for any input — negatives, signed
/// zeros, subnormals and NaNs included — in about half the time.
pub fn sort_slowest_first(values: &mut [f64], keys: &mut Vec<u64>) {
    keys.clear();
    keys.extend(values.iter().map(|v| slowest_first_key(v.to_bits())));
    keys.sort_unstable();
    for (v, &k) in values.iter_mut().zip(keys.iter()) {
        *v = f64::from_bits(slowest_first_key(k));
    }
}

/// Maps an `f64`'s bits to a `u64` whose ascending order is the value's
/// descending `total_cmp` order: with the sign bit clear the magnitude
/// bits flip, with it set they stay. The map is its own inverse.
fn slowest_first_key(bits: u64) -> u64 {
    if bits >> 63 == 0 {
        bits ^ (u64::MAX >> 1)
    } else {
        bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert_eq!(Profile::new(vec![]), Err(ModelError::EmptyProfile));
        assert!(matches!(
            Profile::new(vec![1.0, 0.0]),
            Err(ModelError::InvalidRho { index: 1, .. })
        ));
        assert!(matches!(
            Profile::new(vec![1.0, -0.5]),
            Err(ModelError::InvalidRho { .. })
        ));
        assert!(matches!(
            Profile::new(vec![0.5, 1.0]),
            Err(ModelError::NotSorted { index: 0 })
        ));
        assert!(matches!(
            Profile::new(vec![1.0, f64::NAN]),
            Err(ModelError::InvalidRho { .. })
        ));
    }

    #[test]
    fn from_unsorted_sorts_slowest_first() {
        let p = Profile::from_unsorted(vec![0.25, 1.0, 0.5]).unwrap();
        assert_eq!(p.rhos(), &[1.0, 0.5, 0.25]);
    }

    #[test]
    fn from_unsorted_rejects_negative_zero() {
        // -0.0 is not a valid speed (ρ must be strictly positive), and it
        // must be caught by validation rather than surprise the total_cmp
        // sort (which orders -0.0 before +0.0).
        assert!(matches!(
            Profile::from_unsorted(vec![1.0, -0.0]),
            Err(ModelError::InvalidRho { index: 1, .. })
        ));
        assert!(Profile::new(vec![1.0, -0.0]).is_err());
    }

    #[test]
    fn sort_comparator_is_total_over_signed_zeros() {
        // Regression for the partial_cmp(..).expect(..) comparators this
        // crate used to carry: the sort must order mixed signed zeros
        // deterministically instead of panicking or leaving them unsorted.
        let mut values = [0.0f64, -0.0, 1.0, -0.0, 0.0];
        sort_slowest_first(&mut values, &mut Vec::new());
        assert_eq!(values[0], 1.0);
        // Descending IEEE total order puts +0.0 before -0.0.
        assert!(values[1].is_sign_positive() && values[2].is_sign_positive());
        assert!(values[3].is_sign_negative() && values[4].is_sign_negative());
    }

    #[test]
    fn paper_families_match_section_2_5() {
        // "when n = 8, P1 = ⟨1, 7/8, …, 1/8⟩ and P2 = ⟨1, 1/2, …, 1/8⟩"
        let p1 = Profile::uniform_spread(8);
        let expect1: Vec<f64> = (0..8).map(|k| (8 - k) as f64 / 8.0).collect();
        assert_eq!(p1.rhos(), expect1.as_slice());

        let p2 = Profile::harmonic(8);
        let expect2: Vec<f64> = (1..=8).map(|i| 1.0 / i as f64).collect();
        assert_eq!(p2.rhos(), expect2.as_slice());

        assert!(p1.is_normalized() && p2.is_normalized());
    }

    #[test]
    fn homogeneous_profile() {
        let p = Profile::homogeneous(4, 0.5).unwrap();
        assert_eq!(p.rhos(), &[0.5; 4]);
        assert!(!p.is_normalized());
        assert!(Profile::homogeneous(0, 1.0).is_err());
    }

    #[test]
    fn statistics() {
        let p = Profile::new(vec![1.0, 0.5]).unwrap();
        assert_eq!(p.mean(), 0.75);
        assert!((p.variance() - 0.0625).abs() < 1e-15);
        let h = Profile::homogeneous(5, 0.3).unwrap();
        assert!(h.variance().abs() < 1e-15);
    }

    #[test]
    fn normalization_is_a_unit_change() {
        let p = Profile::new(vec![0.5, 0.25, 0.125]).unwrap();
        assert!(!p.is_normalized());
        let q = p.normalized();
        assert_eq!(q.rhos(), &[1.0, 0.5, 0.25]);
        assert!(q.is_normalized());
    }

    #[test]
    fn minorization_definition() {
        let faster = Profile::new(vec![0.9, 0.5]).unwrap();
        let slower = Profile::new(vec![1.0, 0.5]).unwrap();
        assert!(faster.minorizes(&slower));
        assert!(!slower.minorizes(&faster));
        assert!(!slower.minorizes(&slower), "equal profiles do not minorize");
        let other_size = Profile::new(vec![0.1]).unwrap();
        assert!(!other_size.minorizes(&slower));
        // Incomparable profiles minorize in neither direction.
        let a = Profile::new(vec![1.0, 0.2]).unwrap();
        let b = Profile::new(vec![0.8, 0.5]).unwrap();
        assert!(!a.minorizes(&b) && !b.minorizes(&a));
    }

    #[test]
    fn with_rho_resorts_and_validates() {
        let p = Profile::new(vec![1.0, 0.5, 0.25]).unwrap();
        // Speeding the slowest past the middle re-sorts.
        let q = p.with_rho(0, 0.3).unwrap();
        assert_eq!(q.rhos(), &[0.5, 0.3, 0.25]);
        assert!(matches!(
            p.with_rho(7, 0.3),
            Err(ModelError::IndexOutOfRange { index: 7, n: 3 })
        ));
        assert!(p.with_rho(0, 0.0).is_err());
    }

    #[test]
    fn accessors() {
        let p = Profile::new(vec![1.0, 0.5, 0.25, 0.25]).unwrap();
        assert_eq!(p.n(), 4);
        assert_eq!(p.rho(1), 0.5);
        assert_eq!(p.slowest(), 1.0);
        assert_eq!(p.fastest(), 0.25);
    }
}
