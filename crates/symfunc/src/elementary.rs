//! Elementary symmetric functions `F_k⁽ⁿ⁾` (paper §4.1, Table 5).
//!
//! `F_k⁽ⁿ⁾(x_1,…,x_n)` is the sum over all `k`-element products of the
//! variables, with the paper's convention `F_0⁽ⁿ⁾ ≡ 1`. Two evaluation
//! strategies are provided:
//!
//! * [`elementary_all`] — the O(n²) in-place dynamic program (the
//!   coefficients of `Π(t + x_i)` built one factor at a time);
//! * [`elementary_all_dc`] — divide-and-conquer polynomial products.
//!
//! Both are exact over [`hetero_exact::Ratio`]; over `f64` all terms are
//! nonnegative for ρ-values, so there is no cancellation and the DP is
//! accurate. The two are cross-checked in the tests and raced in the
//! `hetero-bench` ablation (divide-and-conquer keeps exact-rational
//! intermediates *small*, which dominates its cost).

use crate::Num;

/// All elementary symmetric functions of `values`:
/// returns `[F_0, F_1, …, F_n]` (length `n + 1`, `F_0 = 1`).
pub fn elementary_all<T: Num>(values: &[T]) -> Vec<T> {
    let mut e = Vec::with_capacity(values.len() + 1);
    e.push(T::one());
    for (i, v) in values.iter().enumerate() {
        // e'[k] = e[k] + v·e[k-1], processed from high k down so the
        // previous generation is still intact when read.
        e.push(T::zero());
        for k in (1..=i + 1).rev() {
            if let Some([prev, cur]) = e.get_mut(k - 1..=k) {
                *cur = cur.add_ref(&v.mul_ref(prev));
            }
        }
    }
    e
}

/// One elementary symmetric function `F_k⁽ⁿ⁾(values)`.
///
/// # Panics
/// Panics when `k > values.len()`.
pub fn elementary_k<T: Num>(values: &[T], k: usize) -> T {
    assert!(
        k <= values.len(),
        "F_{k} undefined for {} variables",
        values.len()
    );
    elementary_all(values).swap_remove(k)
}

/// [`elementary_all`] by divide and conquer: the coefficient vector of
/// `Π_i (t + x_i)` computed as a balanced product tree.
pub fn elementary_all_dc<T: Num>(values: &[T]) -> Vec<T> {
    fn poly_of<T: Num>(values: &[T]) -> Vec<T> {
        match values {
            [] => vec![T::one()],
            [x] => vec![T::one(), x.clone()],
            _ => {
                let (lo, hi) = values.split_at(values.len() / 2);
                poly_mul(&poly_of(lo), &poly_of(hi))
            }
        }
    }
    // Coefficient convention: index k holds F_k (coefficient of t^(n-k)).
    fn poly_mul<T: Num>(a: &[T], b: &[T]) -> Vec<T> {
        let mut out = vec![T::zero(); a.len() + b.len() - 1];
        for (i, ai) in a.iter().enumerate() {
            for (o, bj) in out.iter_mut().skip(i).zip(b) {
                *o = o.add_ref(&ai.mul_ref(bj));
            }
        }
        out
    }
    poly_of(values)
}

/// Power sums `p_k = Σ_i x_i^k` for `k = 0…max_k` (with `p_0 = n`).
pub fn power_sums<T: Num>(values: &[T], max_k: usize) -> Vec<T> {
    let mut out = Vec::with_capacity(max_k + 1);
    out.push(T::from_usize(values.len()));
    let mut powers: Vec<T> = values.to_vec();
    for _ in 1..=max_k {
        let sum = powers.iter().fold(T::zero(), |acc, p| acc.add_ref(p));
        out.push(sum);
        for (p, v) in powers.iter_mut().zip(values) {
            *p = p.mul_ref(v);
        }
    }
    out.truncate(max_k + 1);
    out
}

/// Recovers the elementary symmetric functions from power sums via
/// Newton's identities: `k·e_k = Σ_{i=1}^{k} (−1)^{i−1} e_{k−i} p_i`.
///
/// Provided as an independent third evaluation path for cross-validation.
pub fn elementary_from_power_sums<T: Num>(p: &[T], n: usize) -> Vec<T> {
    assert!(p.len() > n, "need power sums up to p_n");
    let mut e = vec![T::one()];
    for k in 1..=n {
        let mut acc = T::zero();
        let mut negative = false;
        // e_{k−1}·p_1, e_{k−2}·p_2, …, e_0·p_k.
        for (ei, pi) in e.iter().rev().zip(p.iter().skip(1)) {
            let term = ei.mul_ref(pi);
            acc = if negative {
                acc.sub_ref(&term)
            } else {
                acc.add_ref(&term)
            };
            negative = !negative;
        }
        e.push(acc.div_ref(&T::from_usize(k)));
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_exact::Ratio;

    #[test]
    fn matches_table5_n2() {
        let e = elementary_all(&[2.0, 3.0]);
        assert_eq!(e, vec![1.0, 5.0, 6.0]); // F_1 = ρ1+ρ2, F_2 = ρ1ρ2
    }

    #[test]
    fn matches_table5_n3() {
        let (a, b, c) = (2.0, 3.0, 5.0);
        let e = elementary_all(&[a, b, c]);
        assert_eq!(e[1], a + b + c);
        assert_eq!(e[2], a * b + a * c + b * c);
        assert_eq!(e[3], a * b * c);
    }

    #[test]
    fn matches_table5_n4() {
        let v = [2.0, 3.0, 5.0, 7.0];
        let e = elementary_all(&v);
        assert_eq!(e[1], 17.0);
        assert_eq!(
            e[2],
            2.0 * 3.0 + 2.0 * 5.0 + 2.0 * 7.0 + 3.0 * 5.0 + 3.0 * 7.0 + 5.0 * 7.0
        );
        assert_eq!(
            e[3],
            2.0 * 3.0 * 5.0 + 2.0 * 3.0 * 7.0 + 2.0 * 5.0 * 7.0 + 3.0 * 5.0 * 7.0
        );
        assert_eq!(e[4], 210.0);
    }

    #[test]
    fn empty_input_is_f0_only() {
        let e: Vec<f64> = elementary_all(&[]);
        assert_eq!(e, vec![1.0]);
    }

    #[test]
    fn f0_is_always_one() {
        let e = elementary_all(&[0.25, 0.5, 1.0]);
        assert_eq!(e[0], 1.0);
    }

    #[test]
    fn dp_and_dc_agree() {
        let v: Vec<f64> = (1..=12).map(|i| 1.0 / f64::from(i)).collect();
        let dp = elementary_all(&v);
        let dc = elementary_all_dc(&v);
        assert_eq!(dp.len(), dc.len());
        for (a, b) in dp.iter().zip(&dc) {
            assert!((a - b).abs() <= 1e-14 * a.abs().max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn dp_and_dc_agree_exactly_over_ratio() {
        let v: Vec<Ratio> = (1..=9).map(|i| Ratio::from_frac(1, i)).collect();
        assert_eq!(elementary_all(&v), elementary_all_dc(&v));
    }

    #[test]
    fn elementary_k_picks_one() {
        let v = [1.0, 2.0, 4.0];
        assert_eq!(elementary_k(&v, 0), 1.0);
        assert_eq!(elementary_k(&v, 2), 1.0 * 2.0 + 1.0 * 4.0 + 2.0 * 4.0);
    }

    #[test]
    #[should_panic(expected = "undefined")]
    fn elementary_k_out_of_range_panics() {
        let _ = elementary_k(&[1.0, 2.0], 3);
    }

    #[test]
    fn permutation_invariance() {
        let a = elementary_all(&[0.2, 0.9, 0.5, 0.7]);
        let b = elementary_all(&[0.9, 0.7, 0.2, 0.5]);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-15);
        }
    }

    #[test]
    fn power_sums_basic() {
        let p = power_sums(&[1.0, 2.0, 3.0], 3);
        assert_eq!(p, vec![3.0, 6.0, 14.0, 36.0]);
        let p0: Vec<f64> = power_sums(&[5.0, 5.0], 0);
        assert_eq!(p0, vec![2.0]);
    }

    #[test]
    fn newton_identities_recover_elementary() {
        let v: Vec<Ratio> = [3i64, 5, 7, 11]
            .iter()
            .map(|&x| Ratio::from_int(x))
            .collect();
        let p = power_sums(&v, v.len());
        let from_newton = elementary_from_power_sums(&p, v.len());
        assert_eq!(from_newton, elementary_all(&v));
    }

    #[test]
    fn newton_identities_f64() {
        let v = [0.25, 0.5, 0.75, 1.0, 0.1];
        let p = power_sums(&v, v.len());
        let e1 = elementary_from_power_sums(&p, v.len());
        let e2 = elementary_all(&v);
        for (a, b) in e1.iter().zip(&e2) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }
}
