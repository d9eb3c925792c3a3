//! Lemma 1: `X(P)` as a ratio of symmetric-function combinations.
//!
//! For an `n`-computer profile,
//!
//! ```text
//!        α_0 + α_1·F_1(P) + … + α_{n−1}·F_{n−1}(P)
//! X(P) = ------------------------------------------
//!        β_0 + β_1·F_1(P) + … + β_n·F_n(P)
//! ```
//!
//! with `β_i = Bⁱ·A^{n−i}` and `α_i = Bⁱ·Σ_{k=0}^{n−i−1} Aᵏ·(τδ)^{n−i−1−k}`
//! — all strictly positive under the standing assumption `τδ ≤ A ≤ B`.
//! This identity is what connects cluster power to the profile's symmetric
//! functions, and through them to its statistical moments (§4.2).
//!
//! The implementation is generic over the numeric field; over
//! [`hetero_exact::Ratio`] the identity with the direct Theorem 2 formula
//! holds *exactly* (asserted in the tests), which simultaneously validates
//! this module, [`crate::elementary`], and [`crate::exact_model`].

use crate::elementary::elementary_all;
use crate::Num;

/// The environment constants in whatever field the caller works in.
#[derive(Debug, Clone)]
pub struct FieldParams<T> {
    /// `A = π + τ`.
    pub a: T,
    /// `B = 1 + (1+δ)π`.
    pub b: T,
    /// `τδ`.
    pub tau_delta: T,
}

impl FieldParams<f64> {
    /// Extracts the constants from f64 [`hetero_core::Params`].
    pub fn from_params(p: &hetero_core::Params) -> Self {
        FieldParams {
            a: p.a(),
            b: p.b(),
            tau_delta: p.tau_delta(),
        }
    }
}

impl FieldParams<hetero_exact::Ratio> {
    /// Extracts the constants from [`crate::exact_model::ExactParams`].
    pub fn from_exact(p: &crate::exact_model::ExactParams) -> Self {
        FieldParams {
            a: p.a(),
            b: p.b(),
            tau_delta: p.tau_delta(),
        }
    }
}

fn pow<T: Num>(base: &T, exp: usize) -> T {
    let mut acc = T::one();
    for _ in 0..exp {
        acc = acc.mul_ref(base);
    }
    acc
}

/// The numerator coefficients `α_0…α_{n−1}` of Lemma 1.
pub fn alpha_coefficients<T: Num>(params: &FieldParams<T>, n: usize) -> Vec<T> {
    (0..n)
        .map(|i| {
            // α_i = B^i · Σ_{k=0}^{n-i-1} A^k (τδ)^{n-i-1-k}
            let mut sum = T::zero();
            for k in 0..=(n - i - 1) {
                let term = pow(&params.a, k).mul_ref(&pow(&params.tau_delta, n - i - 1 - k));
                sum = sum.add_ref(&term);
            }
            pow(&params.b, i).mul_ref(&sum)
        })
        .collect()
}

/// The denominator coefficients `β_0…β_n` of Lemma 1:
/// `β_i = Bⁱ·A^{n−i}`.
pub fn beta_coefficients<T: Num>(params: &FieldParams<T>, n: usize) -> Vec<T> {
    (0..=n)
        .map(|i| pow(&params.b, i).mul_ref(&pow(&params.a, n - i)))
        .collect()
}

/// Evaluates `X(P)` through the Lemma 1 identity.
pub fn x_via_lemma1<T: Num>(params: &FieldParams<T>, rhos: &[T]) -> T {
    let n = rhos.len();
    let f = elementary_all(rhos);
    let alphas = alpha_coefficients(params, n);
    let betas = beta_coefficients(params, n);
    let num = alphas
        .iter()
        .zip(&f)
        .fold(T::zero(), |acc, (a, fk)| acc.add_ref(&a.mul_ref(fk)));
    let den = betas
        .iter()
        .zip(&f)
        .fold(T::zero(), |acc, (b, fk)| acc.add_ref(&b.mul_ref(fk)));
    num.div_ref(&den)
}

/// Claim 1 inside Proposition 3: `α_i·β_j > α_j·β_i` for all `i < j`.
/// Returns `true` when the strict inequality holds for every pair — the
/// structural fact that makes the dominance system of Proposition 3
/// sufficient.
pub fn claim1_holds<T: Num>(params: &FieldParams<T>, n: usize) -> bool {
    let alphas = alpha_coefficients(params, n);
    let betas = beta_coefficients(params, n);
    // α has n coefficients, β has n + 1: the pairs run over the first n.
    for (i, (ai, bi)) in alphas.iter().zip(&betas).enumerate() {
        for (aj, bj) in alphas.iter().zip(&betas).skip(i + 1) {
            let lhs = ai.mul_ref(bj);
            let rhs = aj.mul_ref(bi);
            if lhs <= rhs {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact_model::{exact_rhos, x_exact, ExactParams};
    use hetero_core::{xmeasure, Params, Profile};
    use hetero_exact::Ratio;

    fn exact_params() -> ExactParams {
        ExactParams::from_params(&Params::paper_table1())
    }

    #[test]
    fn lemma1_is_an_exact_identity() {
        // The rational-arithmetic equality X(P) == (Σα·F)/(Σβ·F) must be
        // *exact*, not approximate.
        let ep = exact_params();
        let fp = FieldParams::from_exact(&ep);
        for profile in [
            Profile::new(vec![1.0]).unwrap(),
            Profile::new(vec![1.0, 0.5]).unwrap(),
            Profile::new(vec![1.0, 0.5, 1.0 / 3.0, 0.25]).unwrap(),
            Profile::harmonic(7),
        ] {
            let rhos = exact_rhos(&profile);
            assert_eq!(
                x_via_lemma1(&fp, &rhos),
                x_exact(&ep, &rhos),
                "n = {}",
                profile.n()
            );
        }
    }

    #[test]
    fn lemma1_agrees_in_f64() {
        let p = Params::paper_table1();
        let fp = FieldParams::from_params(&p);
        let c = Profile::uniform_spread(6);
        let via = x_via_lemma1(&fp, c.rhos());
        let direct = xmeasure::x_measure(&p, &c);
        assert!((via - direct).abs() / direct < 1e-9, "{via} vs {direct}");
    }

    #[test]
    fn coefficients_are_positive_under_standing_assumption() {
        let ep = exact_params();
        let fp = FieldParams::from_exact(&ep);
        for n in [1usize, 2, 5, 9] {
            for a in alpha_coefficients(&fp, n) {
                assert!(a.is_positive());
            }
            for b in beta_coefficients(&fp, n) {
                assert!(b.is_positive());
            }
        }
    }

    #[test]
    fn beta_closed_form() {
        let fp = FieldParams {
            a: 2.0f64,
            b: 3.0,
            tau_delta: 1.0,
        };
        // n = 3: β = [A³, BA², B²A, B³] = [8, 12, 18, 27].
        assert_eq!(beta_coefficients(&fp, 3), vec![8.0, 12.0, 18.0, 27.0]);
    }

    #[test]
    fn alpha_closed_form_small() {
        let fp = FieldParams {
            a: 2.0f64,
            b: 3.0,
            tau_delta: 1.0,
        };
        // n = 2: α_0 = A + τδ = 3, α_1 = B = 3.
        assert_eq!(alpha_coefficients(&fp, 2), vec![3.0, 3.0]);
        // n = 3: α_0 = A² + A·τδ + τδ² = 7, α_1 = B(A + τδ) = 9, α_2 = B² = 9.
        assert_eq!(alpha_coefficients(&fp, 3), vec![7.0, 9.0, 9.0]);
    }

    #[test]
    fn claim1_holds_exactly_for_paper_params() {
        let ep = exact_params();
        let fp = FieldParams::from_exact(&ep);
        for n in [2usize, 3, 6, 10] {
            assert!(claim1_holds(&fp, n), "Claim 1 fails at n = {n}");
        }
    }

    #[test]
    fn claim1_difference_formula() {
        // The proof's closed form: α_iβ_j − α_jβ_i =
        // B^{i+j} Σ_{k=n−j}^{n−1−i} A^{2n−1−k−i−j} (τδ)^k. Check one cell.
        let ep = ExactParams::new(
            Ratio::from_frac(1, 5),
            Ratio::from_frac(1, 100),
            Ratio::one(),
        );
        let fp = FieldParams::from_exact(&ep);
        let n = 4;
        let (i, j) = (1usize, 3usize);
        let alphas = alpha_coefficients(&fp, n);
        let betas = beta_coefficients(&fp, n);
        let diff = alphas[i]
            .mul_ref(&betas[j])
            .sub_ref(&alphas[j].mul_ref(&betas[i]));
        let mut expect = Ratio::zero();
        for k in (n - j)..=(n - 1 - i) {
            let term = pow(&fp.a, 2 * n - 1 - k - i - j).mul_ref(&pow(&fp.tau_delta, k));
            expect = expect.add_ref(&term);
        }
        expect = expect.mul_ref(&pow(&fp.b, i + j));
        assert_eq!(diff, expect);
    }
}
