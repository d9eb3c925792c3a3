//! Exact certification of scheduling decisions.
//!
//! The decisions the paper's theory drives — *which cluster do I rent*,
//! *which computer do I upgrade* — are sign decisions on differences of
//! large products, exactly where floating point silently lies. This
//! module certifies them over exact rationals:
//!
//! * [`certify_comparison`] — which of two clusters completes more work;
//! * [`certify_best_additive`] / [`certify_best_multiplicative`] — the
//!   optimal single upgrade, by exhaustive exact comparison;
//! * [`certify_hecr_bracket`] — rational bounds `lo < ρ_C ≤ hi` on the
//!   (irrational) HECR, to any requested width, by exact bisection on the
//!   homogeneous X closed form.
//!
//! Everything here is slow and certain; the f64 twins in `hetero-core`
//! are fast and (as the cross-validation tests show) agree except within
//! ulps of a tie.

use std::cmp::Ordering;

use crate::exact_model::{x_exact, ExactParams};
use hetero_exact::Ratio;

/// Exact verdict on two clusters: `Greater` = the first completes
/// strictly more work.
pub fn certify_comparison(params: &ExactParams, p1: &[Ratio], p2: &[Ratio]) -> Ordering {
    x_exact(params, p1).cmp(&x_exact(params, p2))
}

/// The certified best single *additive* upgrade by `phi`: the index whose
/// upgrade maximizes exact X (ties broken to the larger index, matching
/// the paper's convention). Computers with `ρ ≤ φ` are not upgradable.
///
/// Returns `None` when no computer can absorb the upgrade.
pub fn certify_best_additive(params: &ExactParams, rhos: &[Ratio], phi: &Ratio) -> Option<usize> {
    let mut best: Option<(usize, Ratio)> = None;
    for (i, rho) in rhos.iter().enumerate() {
        let upgraded = rho - phi;
        if !upgraded.is_positive() {
            continue;
        }
        let mut candidate = rhos.to_vec();
        if let Some(slot) = candidate.get_mut(i) {
            *slot = upgraded;
        }
        let x = x_exact(params, &candidate);
        match &best {
            Some((_, bx)) if x < *bx => {}
            _ => best = Some((i, x)),
        }
    }
    best.map(|(i, _)| i)
}

/// The certified best single *multiplicative* upgrade by `psi`
/// (`0 < ψ < 1`), ties to the larger index.
pub fn certify_best_multiplicative(
    params: &ExactParams,
    rhos: &[Ratio],
    psi: &Ratio,
) -> Option<usize> {
    if rhos.is_empty() || !psi.is_positive() || *psi >= Ratio::one() {
        return None;
    }
    let mut best: Option<(usize, Ratio)> = None;
    for (i, rho) in rhos.iter().enumerate() {
        let mut candidate = rhos.to_vec();
        if let Some(slot) = candidate.get_mut(i) {
            *slot = rho * psi;
        }
        let x = x_exact(params, &candidate);
        match &best {
            Some((_, bx)) if x < *bx => {}
            _ => best = Some((i, x)),
        }
    }
    best.map(|(i, _)| i)
}

/// Exact X of a homogeneous cluster `⟨ρ,…,ρ⟩` (paper Eq. 2, rational
/// form): `(1 − ((Bρ+τδ)/(Bρ+A))ⁿ) / (A − τδ)`.
pub fn x_homogeneous_exact(params: &ExactParams, rho: &Ratio, n: usize) -> Ratio {
    let b_rho = params.b() * rho;
    let ratio = (&b_rho + &params.tau_delta()) / (&b_rho + &params.a());
    (Ratio::one() - ratio.powi(n as i32)) / (params.a() - params.tau_delta())
}

/// Certified rational bracket `(lo, hi)` with `lo < ρ_C ≤ hi` and
/// `hi − lo ≤ width`, by exact bisection: `X(⟨hi,…⟩) ≤ X(P) ≤ X(⟨lo,…⟩)`
/// holds exactly at return.
///
/// # Panics
/// Panics when `width` is not positive or the profile is empty.
pub fn certify_hecr_bracket(params: &ExactParams, rhos: &[Ratio], width: &Ratio) -> (Ratio, Ratio) {
    assert!(!rhos.is_empty(), "empty profile");
    assert!(width.is_positive(), "bracket width must be positive");
    let n = rhos.len();
    let target = x_exact(params, rhos);
    // hetero-check: allow(expect) — the assert above rejects empty profiles, so min exists
    let mut lo = rhos.iter().min().expect("nonempty").clone(); // fastest
                                                               // hetero-check: allow(expect) — the assert above rejects empty profiles, so max exists
    let mut hi = rhos.iter().max().expect("nonempty").clone(); // slowest
    debug_assert!(x_homogeneous_exact(params, &lo, n) >= target);
    debug_assert!(x_homogeneous_exact(params, &hi, n) <= target);
    let two = Ratio::from_int(2);
    while &(&hi - &lo) > width {
        let mid = (&hi + &lo) / &two;
        if x_homogeneous_exact(params, &mid, n) >= target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_core::{hecr, speedup, Params, Profile};

    fn exact_params() -> ExactParams {
        ExactParams::from_params(&Params::paper_table1())
    }

    fn rational_profile(fracs: &[(i64, u64)]) -> Vec<Ratio> {
        fracs.iter().map(|&(n, d)| Ratio::from_frac(n, d)).collect()
    }

    #[test]
    fn comparison_agrees_with_f64_when_f64_can_see() {
        let ep = exact_params();
        let fp = Params::paper_table1();
        let p1 = rational_profile(&[(1, 1), (1, 2), (1, 4)]);
        let p2 = rational_profile(&[(1, 1), (1, 3), (1, 3)]);
        let exact = certify_comparison(&ep, &p1, &p2);
        let f1 =
            hetero_core::xmeasure::x_measure(&fp, &Profile::new(vec![1.0, 0.5, 0.25]).unwrap());
        let f2 = hetero_core::xmeasure::x_measure(
            &fp,
            &Profile::new(vec![1.0, 1.0 / 3.0, 1.0 / 3.0]).unwrap(),
        );
        assert_eq!(exact == Ordering::Greater, f1 > f2);
    }

    #[test]
    fn certified_additive_matches_theorem3() {
        let ep = exact_params();
        let rhos = rational_profile(&[(1, 1), (1, 2), (1, 3), (1, 4)]);
        let best = certify_best_additive(&ep, &rhos, &Ratio::from_frac(1, 16)).unwrap();
        assert_eq!(best, 3, "Theorem 3, exactly");
    }

    #[test]
    fn certified_additive_skips_unupgradable() {
        let ep = exact_params();
        let rhos = rational_profile(&[(1, 1), (1, 32)]);
        // φ = 1/16 > 1/32: only the slow computer can absorb it.
        let best = certify_best_additive(&ep, &rhos, &Ratio::from_frac(1, 16)).unwrap();
        assert_eq!(best, 0);
        // φ bigger than everything: no upgrade possible.
        assert!(certify_best_additive(&ep, &rhos, &Ratio::from_int(2)).is_none());
    }

    #[test]
    fn certified_multiplicative_matches_theorem4_phases() {
        let fig = ExactParams::new(
            Ratio::from_frac(1, 5),
            Ratio::from_frac(1, 100),
            Ratio::one(),
        );
        let psi = Ratio::from_frac(1, 2);
        // Condition (1): slow cluster → speed the fastest (largest index).
        let slow = rational_profile(&[(1, 1), (1, 1), (1, 1), (1, 2)]);
        assert_eq!(certify_best_multiplicative(&fig, &slow, &psi), Some(3));
        // Condition (2): everyone at 1/16 → after the tie-break, the
        // f64 greedy engine picks index 3; the exact one must agree.
        let fast = rational_profile(&[(1, 16), (1, 16), (1, 16), (1, 16)]);
        assert_eq!(certify_best_multiplicative(&fig, &fast, &psi), Some(3));
        // Degenerate ψ values refuse.
        assert_eq!(
            certify_best_multiplicative(&fig, &slow, &Ratio::one()),
            None
        );
    }

    #[test]
    fn exact_and_f64_best_upgrade_agree_on_a_battery() {
        let ep = exact_params();
        let fp = Params::paper_table1();
        for fracs in [
            &[(1i64, 1u64), (1, 2)][..],
            &[(1, 1), (9, 10), (1, 5)],
            &[(1, 1), (1, 2), (1, 3), (1, 4), (1, 5)],
        ] {
            let rhos = rational_profile(fracs);
            let f64_profile =
                Profile::from_unsorted(rhos.iter().map(|r| r.to_f64()).collect()).unwrap();
            let phi_exact = Ratio::from_frac(1, 100);
            let exact = certify_best_additive(&ep, &rhos, &phi_exact).unwrap();
            let float = speedup::best_additive_index(&fp, &f64_profile, 0.01).unwrap();
            assert_eq!(exact, float, "{fracs:?}");
        }
    }

    #[test]
    fn hecr_bracket_contains_the_f64_hecr() {
        let ep = exact_params();
        let fp = Params::paper_table1();
        for fracs in [
            &[(1i64, 1u64), (1, 2), (1, 4)][..],
            &[(1, 1), (1, 2), (1, 3), (1, 4)],
        ] {
            let rhos = rational_profile(fracs);
            let profile =
                Profile::from_unsorted(rhos.iter().map(|r| r.to_f64()).collect()).unwrap();
            let width = Ratio::from_frac(1, 1_000_000);
            let (lo, hi) = certify_hecr_bracket(&ep, &rhos, &width);
            assert!(&hi - &lo <= width);
            let f64_hecr = hecr::hecr(&fp, &profile).unwrap();
            assert!(
                lo.to_f64() - 1e-9 <= f64_hecr && f64_hecr <= hi.to_f64() + 1e-9,
                "{fracs:?}: [{}, {}] vs {f64_hecr}",
                lo.to_f64(),
                hi.to_f64()
            );
        }
    }

    #[test]
    fn hecr_bracket_invariant_holds_exactly() {
        let ep = exact_params();
        let rhos = rational_profile(&[(1, 1), (1, 2)]);
        let (lo, hi) = certify_hecr_bracket(&ep, &rhos, &Ratio::from_frac(1, 1024));
        let n = rhos.len();
        let target = x_exact(&ep, &rhos);
        assert!(x_homogeneous_exact(&ep, &lo, n) >= target);
        assert!(x_homogeneous_exact(&ep, &hi, n) <= target);
    }

    #[test]
    fn homogeneous_exact_matches_general_formula() {
        let ep = exact_params();
        let rho = Ratio::from_frac(3, 7);
        for n in [1usize, 2, 5] {
            let direct = x_exact(&ep, &vec![rho.clone(); n]);
            assert_eq!(x_homogeneous_exact(&ep, &rho, n), direct, "n = {n}");
        }
    }
}
