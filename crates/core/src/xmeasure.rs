//! The X-measure and asymptotic work production (paper Theorem 2).
//!
//! For a profile `P = ⟨ρ1,…,ρn⟩` and environment constants `A = π + τ`,
//! `B = 1 + (1+δ)π`:
//!
//! ```text
//! X(P) = Σ_{i=1}^n  1/(Bρ_i + A) · Π_{j=1}^{i-1} (Bρ_j + τδ)/(Bρ_j + A)
//! ```
//!
//! and the asymptotic work a FIFO protocol completes over a lifespan `L`
//! is `W(L; P) = L / (τδ + 1/X(P))`. Because `X` *tracks* `W` — they are
//! related by a strictly increasing transformation — `X(P)` is the paper's
//! primary measure of a cluster's computing power.
//!
//! By Theorem 1(2) the value of `X` is independent of the order in which
//! the ρ-values are listed; [`x_measure_of_rhos`] exposes the
//! order-explicit form used in the paper's proofs, and the equality of all
//! orderings is verified in the test suite (and exactly, in
//! `hetero-symfunc`).

use crate::numeric::KahanSum;
use crate::{NumericMode, Params, Profile};

/// `X(P)` — the paper's power measure (§2.2, Theorem 1) — evaluated in a
/// single fused pass with Neumaier-compensated summation.
///
/// The `i`-th summand multiplies the running product
/// `Π_{j<i} (Bρ_j + τδ)/(Bρ_j + A)`, whose factors are all `< 1`; naive
/// accumulation of the sum loses relative accuracy once `n` is large and
/// the terms span many magnitudes, so the compensated form is the default.
pub fn x_measure(params: &Params, profile: &Profile) -> f64 {
    x_measure_of_rhos(params, profile.rhos())
}

/// [`x_measure`] on a raw ρ-slice in the *given* order (the order-explicit
/// `X(P; Σ)` of Theorem 1's proof; by Theorem 1(2) the value is
/// order-independent).
pub fn x_measure_of_rhos(params: &Params, rhos: &[f64]) -> f64 {
    let (a, b, td) = (params.a(), params.b(), params.tau_delta());
    let mut product = 1.0f64; // Π_{j<i} (Bρ_j + τδ)/(Bρ_j + A)
    let mut sum = KahanSum::new();
    for &rho in rhos {
        let denom = b * rho + a;
        sum.add(product / denom);
        product *= (b * rho + td) / denom;
    }
    sum.value()
}

/// [`x_measure_of_rhos`] (the Theorem 2 / §2.2 recurrence) under an
/// explicit [`NumericMode`]: `Strict` is the bit-identical reference
/// kernel above; `Fast` is the single-division reform
/// [`crate::fastnum::x_fast_1div`] — on a scalar (latency-bound)
/// evaluation the divide-free reciprocal chain is *slower* than one
/// hardware divide, so the scalar fast path is the 1-div kernel,
/// certified within [`crate::fastnum::x_budget_1div`].
pub fn x_measure_of_rhos_mode(params: &Params, rhos: &[f64], mode: NumericMode) -> f64 {
    match mode {
        NumericMode::Strict => x_measure_of_rhos(params, rhos),
        NumericMode::Fast => crate::fastnum::x_fast_1div(params, rhos),
    }
}

/// Naive (uncompensated) evaluation of `X(P)` (§2.2) — kept for the
/// accuracy and performance ablation in `hetero-bench`; prefer
/// [`x_measure`].
pub fn x_measure_naive(params: &Params, rhos: &[f64]) -> f64 {
    let (a, b, td) = (params.a(), params.b(), params.tau_delta());
    let mut product = 1.0f64;
    let mut sum = 0.0f64;
    for &rho in rhos {
        let denom = b * rho + a;
        // hetero-check: allow(float-accum) — deliberately uncompensated: this is the naive baseline the accuracy ablation measures against
        sum += product / denom;
        product *= (b * rho + td) / denom;
    }
    sum
}

/// Closed form of `X` for a *homogeneous* cluster `⟨ρ,…,ρ⟩` (paper Eq. 2):
///
/// ```text
/// X(P^(ρ)) = (1/(A−τδ)) · (1 − ((Bρ + τδ)/(Bρ + A))^n)
/// ```
/// Under Table 1 parameters `ratio ≈ 1 − 10⁻⁵`, so the naive
/// `1 − ratio^n` cancels ~5 digits. The form below goes through the
/// log: `1 − ratio^n = −expm1(n · ln_1p((τδ − A)/(Bρ + A)))`, where
/// both `ln_1p` and `exp_m1` are accurate near zero, keeping full
/// relative precision for every `n`.
pub fn x_homogeneous(params: &Params, rho: f64, n: usize) -> f64 {
    let (a, b, td) = (params.a(), params.b(), params.tau_delta());
    let z = (td - a) / (b * rho + a); // ratio = 1 + z with |z| small
    -((n as f64) * z.ln_1p()).exp_m1() / (a - td)
}

/// The asymptotic work-completion *rate* `W(L;P)/L = 1/(τδ + 1/X(P))`
/// (Theorem 2, per unit of lifespan).
pub fn work_rate(params: &Params, profile: &Profile) -> f64 {
    1.0 / (params.tau_delta() + 1.0 / x_measure(params, profile))
}

/// The asymptotic work completed over a lifespan `L`:
/// `W(L;P) = L / (τδ + 1/X(P))` (Theorem 2).
pub fn work(params: &Params, profile: &Profile, lifespan: f64) -> f64 {
    lifespan * work_rate(params, profile)
}

/// The *work ratio* `W(L;P') / W(L;P)` used throughout §3 to compare an
/// upgraded profile `P'` against the original `P` (independent of `L`).
pub fn work_ratio(params: &Params, upgraded: &Profile, original: &Profile) -> f64 {
    work_rate(params, upgraded) / work_rate(params, original)
}

/// Upper bound `1/(A−τδ)` that `X(P)` approaches as clusters grow (§2.3):
/// at this supremum the server spends every moment feeding the network.
pub fn x_supremum(params: &Params) -> f64 {
    1.0 / (params.a() - params.tau_delta())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> Params {
        Params::paper_table1()
    }

    #[test]
    fn single_computer_x_is_reciprocal_cost() {
        // n = 1: X = 1/(Bρ + A).
        let p = Profile::new(vec![1.0]).unwrap();
        let x = x_measure(&params(), &p);
        assert!((x - 1.0 / (params().b() + params().a())).abs() < 1e-15);
    }

    #[test]
    fn x_matches_homogeneous_closed_form() {
        for n in [1usize, 2, 5, 17, 64] {
            for rho in [1.0, 0.5, 0.062_5] {
                let p = Profile::homogeneous(n, rho).unwrap();
                let general = x_measure(&params(), &p);
                let closed = x_homogeneous(&params(), rho, n);
                // The log-form closed expression keeps full relative
                // precision (no 1 − ratio^n cancellation), so the two
                // evaluations agree to near roundoff.
                assert!(
                    (general - closed).abs() / closed < 1e-13,
                    "n={n} rho={rho}: {general} vs {closed}"
                );
            }
        }
    }

    #[test]
    fn x_is_order_independent() {
        // Theorem 1(2): every startup order yields the same production.
        let p = params();
        let orders = [
            vec![1.0, 0.5, 1.0 / 3.0, 0.25],
            vec![0.25, 1.0 / 3.0, 0.5, 1.0],
            vec![0.5, 0.25, 1.0, 1.0 / 3.0],
        ];
        let base = x_measure_of_rhos(&p, &orders[0]);
        for o in &orders[1..] {
            let x = x_measure_of_rhos(&p, o);
            assert!((x - base).abs() / base < 1e-13, "{x} vs {base}");
        }
    }

    #[test]
    fn faster_cluster_has_larger_x() {
        // Proposition 2 at the X level.
        let p = params();
        let slow = Profile::new(vec![1.0, 0.5, 0.5]).unwrap();
        let fast = Profile::new(vec![1.0, 0.5, 0.4]).unwrap();
        assert!(x_measure(&p, &fast) > x_measure(&p, &slow));
    }

    #[test]
    fn x_below_supremum_and_monotone_in_n() {
        let p = params();
        let sup = x_supremum(&p);
        let mut prev = 0.0;
        for n in 1..=200 {
            let x = x_homogeneous(&p, 1.0, n);
            assert!(x > prev, "adding a computer always helps");
            assert!(x < sup);
            prev = x;
        }
    }

    #[test]
    fn work_tracks_x() {
        // X(P1) ≥ X(P2) ⇔ W(L;P1) ≥ W(L;P2) — "X tracks W".
        let p = params();
        let c1 = Profile::uniform_spread(8);
        let c2 = Profile::harmonic(8);
        let (x1, x2) = (x_measure(&p, &c1), x_measure(&p, &c2));
        let (w1, w2) = (work(&p, &c1, 1000.0), work(&p, &c2, 1000.0));
        assert_eq!(x1 < x2, w1 < w2);
        assert!(work(&p, &c1, 2000.0) > w1, "work scales with lifespan");
    }

    #[test]
    fn work_is_linear_in_lifespan() {
        let p = params();
        let c = Profile::harmonic(4);
        let w1 = work(&p, &c, 123.0);
        let w2 = work(&p, &c, 246.0);
        assert!((w2 - 2.0 * w1).abs() / w2 < 1e-14);
    }

    #[test]
    fn work_ratio_of_identity_is_one() {
        let p = params();
        let c = Profile::harmonic(5);
        assert!((work_ratio(&p, &c, &c) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn compensated_and_naive_agree_at_small_n() {
        let p = params();
        let c = Profile::uniform_spread(16);
        let a = x_measure(&p, &c);
        let b = x_measure_naive(&p, c.rhos());
        assert!((a - b).abs() / a < 1e-12);
    }

    #[test]
    fn section4_example_mean_speed_misleads() {
        // §4: ⟨0.99, 0.02⟩ outperforms ⟨0.5, 0.5⟩ despite the worse mean.
        let p = params();
        let hetero = Profile::new(vec![0.99, 0.02]).unwrap();
        let homo = Profile::new(vec![0.5, 0.5]).unwrap();
        assert!(hetero.mean() > homo.mean());
        assert!(x_measure(&p, &hetero) > x_measure(&p, &homo));
    }
}
