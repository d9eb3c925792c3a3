//! Profile-only predictors of relative cluster power (paper §4).
//!
//! Given two profiles with the *same* size, these predicates try to decide
//! which cluster completes more work without evaluating X:
//!
//! * [`prop3_dominates`] — the Proposition 3 system: sufficient (never
//!   wrong, but may abstain).
//! * [`predict_by_variance`] — Theorem 5 / §4.3: for equal-mean clusters,
//!   bet on the larger variance. Provably right for `n = 2`; empirically
//!   right ~76 % of the time for large `n`, and (empirically) always right
//!   when the variance gap exceeds a threshold θ.
//! * [`predict_by_mean`] — the naive bet on the smaller mean speed; the
//!   paper's §4 example shows it is *not* valid. Included so experiments
//!   can score it against the variance predictor.
//! * [`predict_by_skewness`] — higher-moment tiebreak explored by the
//!   companion paper; exposed for the extension experiment.

use std::cmp::Ordering;

use crate::elementary::elementary_all;
use crate::moments;
use crate::Num;

/// The Proposition 3 dominance test: returns `true` when profile `p1`
/// *provably* outperforms `p2`, i.e. when for all `0 ≤ i < j ≤ n`
///
/// ```text
/// F_i(P1)·F_j(P2) ≥ F_i(P2)·F_j(P1)
/// ```
///
/// with at least one strict inequality. Evaluate over
/// [`hetero_exact::Ratio`] for certainty.
///
/// # Panics
/// Panics when the profiles have different sizes (the system compares
/// same-`n` clusters).
pub fn prop3_dominates<T: Num>(p1: &[T], p2: &[T]) -> bool {
    assert_eq!(
        p1.len(),
        p2.len(),
        "Proposition 3 compares equal-size clusters"
    );
    let f1 = elementary_all(p1);
    let f2 = elementary_all(p2);
    let mut some_strict = false;
    for (i, (f1i, f2i)) in f1.iter().zip(&f2).enumerate() {
        for (f1j, f2j) in f1.iter().zip(&f2).skip(i + 1) {
            let lhs = f1i.mul_ref(f2j);
            let rhs = f2i.mul_ref(f1j);
            if lhs < rhs {
                return false;
            }
            if lhs > rhs {
                some_strict = true;
            }
        }
    }
    some_strict
}

/// Predicts relative power from variances: `Greater` means `p1` is
/// predicted the more powerful (it has the larger variance), `Less` the
/// opposite, `Equal` when the variances tie. Only meaningful when the two
/// profiles share the same mean speed (Theorem 5's hypothesis).
pub fn predict_by_variance<T: Num>(p1: &[T], p2: &[T]) -> Ordering {
    let v1 = moments::variance(p1);
    let v2 = moments::variance(p2);
    if v1 > v2 {
        Ordering::Greater
    } else if v1 < v2 {
        Ordering::Less
    } else {
        Ordering::Equal
    }
}

/// The naive mean-speed predictor: the cluster with the *smaller* mean
/// ρ (faster on average) is predicted more powerful. §4's opening example
/// (⟨0.99, 0.02⟩ vs ⟨0.5, 0.5⟩) demonstrates this predictor is invalid.
pub fn predict_by_mean<T: Num>(p1: &[T], p2: &[T]) -> Ordering {
    let m1 = moments::mean(p1);
    let m2 = moments::mean(p2);
    // Smaller mean → faster → predicted Greater power.
    if m1 < m2 {
        Ordering::Greater
    } else if m1 > m2 {
        Ordering::Less
    } else {
        Ordering::Equal
    }
}

/// Higher-moment predictor (companion-paper extension): for equal mean
/// *and* equal variance, bet on larger (more positive) skewness — mass
/// pushed toward small ρ (fast computers) with a slow tail.
pub fn predict_by_skewness(p1: &[f64], p2: &[f64]) -> Ordering {
    let s1 = moments::skewness(p1);
    let s2 = moments::skewness(p2);
    s1.total_cmp(&s2)
}

/// Theorem 5(1) as a checkable implication: if `p1` and `p2` share a mean
/// and `p1` Prop-3-dominates, then `VAR(p1) > VAR(p2)`. Returns `true`
/// when the implication's conclusion holds (or its hypothesis fails).
pub fn theorem5_implication_holds<T: Num>(p1: &[T], p2: &[T]) -> bool {
    if moments::mean(p1) != moments::mean(p2) || !prop3_dominates(p1, p2) {
        return true; // hypothesis not met — implication vacuously true
    }
    moments::variance(p1) > moments::variance(p2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_exact::Ratio;

    fn r(n: i64, d: u64) -> Ratio {
        Ratio::from_frac(n, d)
    }

    #[test]
    fn minorizing_profile_dominates() {
        // Strictly smaller ρ everywhere ⇒ all F_k smaller ⇒ dominance.
        let fast = [r(1, 2), r(1, 4)];
        let slow = [r(1, 1), r(1, 2)];
        assert!(prop3_dominates(&fast, &slow));
        assert!(!prop3_dominates(&slow, &fast));
    }

    #[test]
    fn equal_profiles_do_not_dominate() {
        let p = [r(1, 1), r(1, 2)];
        assert!(!prop3_dominates(&p, &p), "no strict inequality anywhere");
    }

    #[test]
    fn theorem5_biconditional_for_n2() {
        // n = 2, equal means: larger variance ⇔ dominance (Theorem 5(2)).
        // ⟨1, 1/2⟩ (var 1/16) vs ⟨3/4, 3/4⟩ (var 0), both mean 3/4.
        let hetero = [r(1, 1), r(1, 2)];
        let homo = [r(3, 4), r(3, 4)];
        assert_eq!(moments::mean(&hetero), moments::mean(&homo));
        assert!(moments::variance(&hetero) > moments::variance(&homo));
        assert!(
            prop3_dominates(&hetero, &homo),
            "Corollary 1: heterogeneity lends power"
        );
        assert!(!prop3_dominates(&homo, &hetero));
    }

    #[test]
    fn n2_variance_order_matches_dominance_on_a_family() {
        // Sweep spread d: ⟨m+d, m−d⟩ vs ⟨m+d', m−d'⟩ with d > d' always
        // dominates (n = 2 biconditional).
        let m = r(1, 2);
        for (dn, dd, en, ed) in [(1i64, 4u64, 1i64, 8u64), (3, 8, 1, 4), (1, 8, 1, 16)] {
            let d = r(dn, dd);
            let e = r(en, ed);
            let wide = [&m + &d, &m - &d];
            let tight = [&m + &e, &m - &e];
            assert!(prop3_dominates(&wide, &tight), "d={dn}/{dd} e={en}/{ed}");
            assert_eq!(predict_by_variance(&wide, &tight), Ordering::Greater);
        }
    }

    #[test]
    fn dominance_is_sufficient_not_necessary() {
        // ⟨0.99, 0.02⟩ beats ⟨0.5, 0.5⟩ in X (verified in hetero-core),
        // but F_1 is larger (1.01 > 1.0), so i = 0, j = 1 fails and
        // Prop. 3 abstains. Sufficiency means abstention, not error.
        let hetero = [r(99, 100), r(2, 100)];
        let homo = [r(1, 2), r(1, 2)];
        assert!(!prop3_dominates(&hetero, &homo));
        assert!(!prop3_dominates(&homo, &hetero));
    }

    #[test]
    fn mean_predictor_gets_section4_example_wrong() {
        // The hetero cluster has the worse mean yet (per hetero-core
        // tests) the greater power — the mean predictor picks the loser.
        let hetero = [0.99f64, 0.02];
        let homo = [0.5f64, 0.5];
        assert_eq!(predict_by_mean(&hetero, &homo), Ordering::Less);
    }

    #[test]
    fn variance_predictor_orders() {
        assert_eq!(
            predict_by_variance(&[1.0f64, 0.0], &[0.6, 0.4]),
            Ordering::Greater
        );
        assert_eq!(
            predict_by_variance(&[0.5f64, 0.5], &[1.0, 0.0]),
            Ordering::Less
        );
        assert_eq!(
            predict_by_variance(&[1.0f64, 0.0], &[1.0, 0.0]),
            Ordering::Equal
        );
    }

    #[test]
    fn skewness_predictor_orders() {
        let fast_heavy = [1.0f64, 0.2, 0.2, 0.2]; // long slow tail → positive skew
        let slow_heavy = [1.0f64, 1.0, 1.0, 0.2];
        assert_eq!(
            predict_by_skewness(&fast_heavy, &slow_heavy),
            Ordering::Greater
        );
    }

    #[test]
    fn theorem5_implication_on_examples() {
        let hetero = [r(1, 1), r(1, 2)];
        let homo = [r(3, 4), r(3, 4)];
        assert!(theorem5_implication_holds(&hetero, &homo));
        // Vacuous cases: unequal means.
        let a = [r(1, 1), r(1, 2)];
        let b = [r(1, 2), r(1, 4)];
        assert!(theorem5_implication_holds(&a, &b));
    }

    #[test]
    #[should_panic(expected = "equal-size")]
    fn size_mismatch_panics() {
        let _ = prop3_dominates(&[r(1, 1)], &[r(1, 1), r(1, 2)]);
    }
}
