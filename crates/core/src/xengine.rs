//! Incremental X-measure engine: O(1) single-ρ what-if evaluation.
//!
//! Every optimization loop in the model — the Theorem 3/4 greedy upgrade
//! engine, `k`-subset selection, fleet sizing, and the §4.3 predictor
//! sweeps — repeatedly asks "what would `X(P)` become if one ρ changed?".
//! Answering from scratch costs O(n) per candidate and makes each greedy
//! round O(n²). This module decomposes the Theorem 2 sum
//!
//! ```text
//! X(P) = Σ_{i=1}^n  S_i / d_i      with  d_i = Bρ_i + A,
//!                                        r_i = (Bρ_i + τδ) / d_i,
//!                                        S_i = Π_{j<i} r_j
//! ```
//!
//! into Neumaier-compensated prefix sums `P_k = Σ_{i<k} S_i/d_i`, suffix
//! sums `T_k = Σ_{i>k} S_i/d_i`, and the prefix products `S_k`, so that
//! replacing `ρ_k` by `ρ'` evaluates as
//!
//! ```text
//! X' = P_k + S_k/d' + (r'/r_k)·T_k
//! ```
//!
//! in O(1) with zero allocation. The identity holds because every term
//! after position `k` carries the factor `r_k` exactly once, and is *valid
//! regardless of where the new value would sort*: by Theorem 1(2) the
//! X-measure is independent of the order in which the ρ-values are listed,
//! so an [`XScan`] never needs to keep its array sorted.
//!
//! The scan is a structure-of-arrays batch path: `d_i` and `r_i` are
//! precomputed once per profile and shared by all `n` candidate
//! evaluations of a sweep, turning a greedy round from O(n²·log n) into
//! amortized O(n) — the difference between toy-sized clusters and the
//! 2¹⁶-computer sweeps of §4.3.
//!
//! ```
//! use hetero_core::{Params, Profile};
//! use hetero_core::xengine::XScan;
//! use hetero_core::xmeasure::x_measure_of_rhos;
//!
//! let params = Params::paper_table1();
//! let p = Profile::harmonic(64);
//! let mut scan = XScan::new(&params, p.rhos()).unwrap();
//! assert_eq!(scan.x(), x_measure_of_rhos(&params, p.rhos()));
//!
//! // O(1) what-if: speed up computer 63 (ρ = 1/64) to ρ = 1/128.
//! let x = scan.replace(63, 1.0 / 128.0).unwrap();
//! assert!(x > scan.x());
//!
//! // Accept the upgrade: O(n) rebuild of the decomposition.
//! scan.commit(63, 1.0 / 128.0).unwrap();
//! assert!((scan.x() - x).abs() / x < 1e-12);
//! ```

use crate::numeric::KahanSum;
use crate::{ModelError, Params, Profile};

/// Prefix/suffix decomposition of the Theorem 2 sum over one ρ-array,
/// supporting O(1) single-ρ replacement queries ([`XScan::replace`]) and
/// O(n) accepted-upgrade rebuilds ([`XScan::commit`]).
///
/// The array order is the *evaluation* order of the order-explicit
/// `X(P; Σ)` of Theorem 1's proof; by Theorem 1(2) the value — and hence
/// every replacement query — is independent of that order, so callers may
/// hand the scan sorted or unsorted speeds alike.
#[derive(Debug, Clone)]
pub struct XScan {
    a: f64,
    b: f64,
    td: f64,
    /// Current ρ-values, in scan order.
    rhos: Vec<f64>,
    /// `d_i = Bρ_i + A`.
    d: Vec<f64>,
    /// `r_i = (Bρ_i + τδ)/d_i`, each in `(τδ/A, 1)` under the §4.1
    /// standing assumption — bounded away from zero, so dividing by
    /// `r_k` in a replacement query is always safe.
    r: Vec<f64>,
    /// Prefix products `s[k] = S_k = Π_{j<k} r_j` (`s[0] = 1`).
    s: Vec<f64>,
    /// Compensated prefix sums `prefix[k] = P_k = Σ_{i<k} S_i/d_i`;
    /// `prefix[n]` is `X(P)` itself, bit-identical to
    /// [`x_measure_of_rhos`](crate::xmeasure::x_measure_of_rhos) because
    /// the snapshots come from the same fused Neumaier recurrence.
    prefix: Vec<f64>,
    /// Compensated suffix sums `suffix[k] = Σ_{i≥k} S_i/d_i`
    /// (`suffix[n] = 0`); the `T_k` of a replacement query is
    /// `suffix[k + 1]`.
    suffix: Vec<f64>,
}

impl XScan {
    /// Builds the decomposition over a raw ρ-array (any order — Theorem
    /// 1(2) makes the measure order-independent). Validates every ρ the
    /// way [`Profile`] construction does.
    pub fn new(params: &Params, rhos: &[f64]) -> Result<Self, ModelError> {
        let mut scan = XScan {
            a: params.a(),
            b: params.b(),
            td: params.tau_delta(),
            rhos: Vec::new(),
            d: Vec::new(),
            r: Vec::new(),
            s: Vec::new(),
            prefix: Vec::new(),
            suffix: Vec::new(),
        };
        scan.rebuild(rhos)?;
        Ok(scan)
    }

    /// [`XScan::new`] over a validated [`Profile`]'s speeds (§2.2).
    pub fn from_profile(params: &Params, profile: &Profile) -> Self {
        // hetero-check: allow(expect) — Profile construction already validated every ρ finite and positive
        Self::new(params, profile.rhos()).expect("profiles hold validated speeds")
    }

    /// Re-populates the scan from a fresh ρ-array in O(n), reusing the
    /// existing buffers (the per-round path of the §3.2.2 greedy engine —
    /// no allocation once capacity has grown to the cluster size).
    pub fn rebuild(&mut self, rhos: &[f64]) -> Result<(), ModelError> {
        if rhos.is_empty() {
            return Err(ModelError::EmptyProfile);
        }
        for (index, &value) in rhos.iter().enumerate() {
            if !(value.is_finite() && value > 0.0) {
                return Err(ModelError::InvalidRho { index, value });
            }
        }
        self.rhos.clear();
        self.rhos.extend_from_slice(rhos);
        hetero_obs::counters::XENGINE_REBUILD.bump();
        self.recompute();
        Ok(())
    }

    /// Rebuilds `d`, `r`, `s`, `prefix`, and `suffix` from `self.rhos`.
    ///
    /// The forward pass is the exact operation sequence of
    /// [`x_measure_of_rhos`](crate::xmeasure::x_measure_of_rhos) with the
    /// running state snapshotted at every step, so `prefix[k]` is
    /// bit-identical to evaluating the first `k` elements from scratch.
    fn recompute(&mut self) {
        let n = self.rhos.len();
        self.d.clear();
        self.r.clear();
        self.s.clear();
        self.prefix.clear();
        self.suffix.clear();
        self.s.push(1.0);
        self.prefix.push(0.0);
        let mut product = 1.0f64;
        let mut acc = KahanSum::new();
        for &rho in &self.rhos {
            let denom = self.b * rho + self.a;
            let ratio = (self.b * rho + self.td) / denom;
            acc.add(product / denom);
            product *= ratio;
            self.d.push(denom);
            self.r.push(ratio);
            self.s.push(product);
            self.prefix.push(acc.value());
        }
        self.suffix.resize(n + 1, 0.0);
        let mut tail = KahanSum::new();
        for i in (0..n).rev() {
            tail.add(self.s[i] / self.d[i]);
            self.suffix[i] = tail.value();
        }
        if hetero_obs::enabled() {
            // How much the Neumaier compensation mattered for this pass:
            // |comp| bucketed on a log10 axis from 1e-30 up to 1.
            let comp = acc.compensation().abs().max(1e-30).log10();
            hetero_obs::observe_hist("xengine.kahan_comp_log10", comp, -30.0, 0.0, 30);
        }
    }

    /// Number of computers in the scanned cluster (§1.1's `n`).
    pub fn n(&self) -> usize {
        self.rhos.len()
    }

    /// The current ρ-values, in scan order (§1.1's heterogeneity
    /// profile, possibly unsorted — see Theorem 1(2)).
    pub fn rhos(&self) -> &[f64] {
        &self.rhos
    }

    /// `X(P)` of the current array (Theorem 2's power measure),
    /// bit-identical to a from-scratch
    /// [`x_measure_of_rhos`](crate::xmeasure::x_measure_of_rhos) call.
    pub fn x(&self) -> f64 {
        self.prefix[self.rhos.len()]
    }

    /// `X` of the first `k` elements (the order-explicit prefix of
    /// Theorem 1's proof), bit-identical to evaluating them from scratch.
    /// Nested families — e.g. §2.5's harmonic C2, whose size-`n` profile
    /// is a prefix of the size-`2n` one — read a whole scaling sweep off
    /// one scan. `None` when `k > n`.
    pub fn prefix_x(&self, k: usize) -> Option<f64> {
        self.prefix.get(k).copied()
    }

    /// O(1) what-if: `X` of the cluster with `ρ_k` replaced by `rho`,
    /// leaving the scan untouched — the candidate evaluation of the
    /// Theorem 3/4 upgrade rules, computed as `P_k + S_k/d' + (r'/r_k)·T_k`
    /// with a compensated 3-term combine and zero allocation.
    pub fn replace(&self, k: usize, rho: f64) -> Result<f64, ModelError> {
        let n = self.rhos.len();
        if k >= n {
            return Err(ModelError::IndexOutOfRange { index: k, n });
        }
        if !(rho.is_finite() && rho > 0.0) {
            return Err(ModelError::InvalidRho {
                index: k,
                value: rho,
            });
        }
        hetero_obs::counters::XENGINE_REPLACE.bump();
        let denom = self.b * rho + self.a;
        let ratio = (self.b * rho + self.td) / denom;
        let mut acc = KahanSum::new();
        acc.add(self.prefix[k]);
        acc.add(self.s[k] / denom);
        acc.add((ratio / self.r[k]) * self.suffix[k + 1]);
        Ok(acc.value())
    }

    /// Accepts an upgrade (§3): sets `ρ_k = rho` in place and rebuilds
    /// the decomposition in O(n). The value stays at position `k` rather
    /// than re-sorting — legal by Theorem 1(2)'s order-independence.
    pub fn commit(&mut self, k: usize, rho: f64) -> Result<(), ModelError> {
        let n = self.rhos.len();
        if k >= n {
            return Err(ModelError::IndexOutOfRange { index: k, n });
        }
        if !(rho.is_finite() && rho > 0.0) {
            return Err(ModelError::InvalidRho {
                index: k,
                value: rho,
            });
        }
        self.rhos[k] = rho;
        hetero_obs::counters::XENGINE_COMMIT.bump();
        self.recompute();
        Ok(())
    }

    /// `X(⟨ρ_k, …, ρ_{n-1}⟩)` for every `k` in one O(n) backward pass
    /// (entry `n` is 0, the empty cluster): the suffix scan behind
    /// Proposition 2 fleet sizing, replacing `n` full evaluations.
    ///
    /// Computed by the Horner-form recurrence `v_k = 1/d_k + r_k·v_{k+1}`
    /// rather than as `suffix[k]/S_k`: the prefix products `S_k` underflow
    /// to zero on large saturated clusters (§2.3's regime, where the terms
    /// decay geometrically), while the recurrence only ever combines
    /// positive, well-scaled quantities and is forward stable.
    pub fn suffix_measures(&self) -> Vec<f64> {
        let n = self.rhos.len();
        let mut v = vec![0.0f64; n + 1];
        for i in (0..n).rev() {
            v[i] = 1.0 / self.d[i] + self.r[i] * v[i + 1];
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xmeasure::x_measure_of_rhos;

    fn params() -> Params {
        Params::paper_table1()
    }

    fn rel_err(a: f64, b: f64) -> f64 {
        (a - b).abs() / a.abs().max(b.abs()).max(f64::MIN_POSITIVE)
    }

    #[test]
    fn scan_x_is_bitwise_from_scratch() {
        let p = params();
        for profile in [
            Profile::harmonic(1),
            Profile::harmonic(17),
            Profile::uniform_spread(256),
            Profile::new(vec![1.0, 1e-3, 1e-6, 1e-9]).unwrap(),
        ] {
            let scan = XScan::from_profile(&p, &profile);
            assert_eq!(scan.x(), x_measure_of_rhos(&p, profile.rhos()));
        }
    }

    #[test]
    fn prefix_x_is_bitwise_prefix_evaluation() {
        let p = params();
        let profile = Profile::harmonic(64);
        let scan = XScan::from_profile(&p, &profile);
        assert_eq!(scan.prefix_x(0), Some(0.0));
        for k in 1..=64 {
            assert_eq!(
                scan.prefix_x(k).unwrap(),
                x_measure_of_rhos(&p, &profile.rhos()[..k]),
                "prefix {k}"
            );
        }
        assert!(scan.prefix_x(65).is_none());
    }

    #[test]
    fn replace_matches_from_scratch_on_every_position() {
        let p = params();
        let profile = Profile::harmonic(128);
        let scan = XScan::from_profile(&p, &profile);
        let mut scratch = profile.rhos().to_vec();
        for k in 0..scan.n() {
            let old = scratch[k];
            for new_rho in [old * 0.5, old * 0.999, old * 17.0, 1e-9] {
                let incremental = scan.replace(k, new_rho).unwrap();
                scratch[k] = new_rho;
                let direct = x_measure_of_rhos(&p, &scratch);
                scratch[k] = old;
                assert!(
                    rel_err(incremental, direct) < 1e-13,
                    "k={k} rho'={new_rho}: {incremental} vs {direct}"
                );
            }
        }
    }

    #[test]
    fn replace_is_order_agnostic() {
        // Theorem 1(2): an unsorted scan answers the same queries.
        let p = params();
        let sorted = [1.0, 0.5, 0.25, 0.125];
        let shuffled = [0.25, 1.0, 0.125, 0.5];
        let a = XScan::new(&p, &sorted).unwrap();
        let b = XScan::new(&p, &shuffled).unwrap();
        // Replace the ρ = 0.25 computer in both (position 2 vs 0).
        let xa = a.replace(2, 0.2).unwrap();
        let xb = b.replace(0, 0.2).unwrap();
        assert!(rel_err(xa, xb) < 1e-13);
    }

    #[test]
    fn commit_rebuilds_exactly() {
        let p = params();
        let mut scan = XScan::from_profile(&p, &Profile::uniform_spread(33));
        let predicted = scan.replace(7, 0.01).unwrap();
        scan.commit(7, 0.01).unwrap();
        let mut rhos = Profile::uniform_spread(33).rhos().to_vec();
        rhos[7] = 0.01;
        assert_eq!(scan.x(), x_measure_of_rhos(&p, &rhos));
        assert!(rel_err(scan.x(), predicted) < 1e-13);
    }

    #[test]
    fn validation_errors() {
        let p = params();
        assert!(matches!(XScan::new(&p, &[]), Err(ModelError::EmptyProfile)));
        let scan = XScan::new(&p, &[1.0, 0.5]).unwrap();
        assert!(matches!(
            scan.replace(2, 0.5),
            Err(ModelError::IndexOutOfRange { index: 2, n: 2 })
        ));
        assert!(matches!(
            scan.replace(0, -1.0),
            Err(ModelError::InvalidRho { index: 0, .. })
        ));
        let mut scan = scan;
        assert!(scan.commit(5, 0.5).is_err());
        assert!(scan.commit(0, f64::NAN).is_err());
        assert!(XScan::new(&p, &[1.0, f64::INFINITY]).is_err());
    }

    #[test]
    fn suffix_measures_match_direct_suffix_evaluation() {
        let p = params();
        let profile = Profile::harmonic(200);
        let scan = XScan::from_profile(&p, &profile);
        let v = scan.suffix_measures();
        assert_eq!(v.len(), 201);
        assert_eq!(v[200], 0.0);
        for (k, &vk) in v.iter().enumerate().take(200) {
            let direct = x_measure_of_rhos(&p, &profile.rhos()[k..]);
            assert!(rel_err(vk, direct) < 1e-12, "suffix {k}: {vk} vs {direct}");
        }
    }

    #[test]
    fn suffix_measures_survive_prefix_product_underflow() {
        // A huge saturated harmonic cluster drives the prefix products
        // S_k to zero; the Horner recurrence must stay finite and match
        // direct evaluation wherever we spot-check it.
        let p = params();
        let profile = Profile::harmonic(65_536);
        let scan = XScan::from_profile(&p, &profile);
        assert!(
            *scan.s.last().unwrap() < 1e-300,
            "prefix products really do collapse into the subnormal range"
        );
        let v = scan.suffix_measures();
        for k in [0usize, 1, 1000, 30_000, 65_000] {
            assert!(v[k].is_finite() && v[k] > 0.0);
            let direct = x_measure_of_rhos(&p, &profile.rhos()[k..]);
            assert!(rel_err(v[k], direct) < 1e-11, "suffix {k}");
        }
    }

    #[test]
    fn rebuild_reuses_and_matches_new() {
        let p = params();
        let mut scan = XScan::new(&p, &[1.0; 8]).unwrap();
        scan.rebuild(Profile::harmonic(5).rhos()).unwrap();
        assert_eq!(scan.n(), 5);
        assert_eq!(scan.x(), x_measure_of_rhos(&p, Profile::harmonic(5).rhos()));
        assert!(scan.rebuild(&[]).is_err());
        assert!(scan.rebuild(&[1.0, -2.0]).is_err());
    }
}
