//! Property-based tests for the heterogeneity model: the paper's theorems
//! must hold on *randomly generated* clusters and parameters, not just on
//! the worked examples.

use hetero_core::hecr::log_residual;
use hetero_core::{hecr, sort_slowest_first, speedup, xmeasure, Params, Profile};
use proptest::prelude::*;

/// Random but well-conditioned model parameters (τδ ≤ A ≤ B always holds
/// when δ ≤ 1 and τ ≤ 1 + π·δ... in fact τδ ≤ τ ≤ τ + π = A ≤ B requires
/// A ≤ B, i.e. τ + π ≤ 1 + (1+δ)π ⇔ τ ≤ 1 + δπ; we keep τ ≤ 1).
fn params_strategy() -> impl Strategy<Value = Params> {
    (1e-7f64..1.0, 0.0f64..0.5, 0.01f64..=1.0)
        .prop_map(|(tau, pi, delta)| Params::new(tau, pi, delta).expect("valid by range"))
}

/// Random normalized profiles of 1–24 computers.
fn profile_strategy() -> impl Strategy<Value = Profile> {
    prop::collection::vec(0.001f64..=1.0, 0..24).prop_map(|mut rest| {
        rest.push(1.0); // the normalized slowest computer
        Profile::from_unsorted(rest).expect("valid by range")
    })
}

/// Values that stress a sort key built from raw bits: both signed zeros,
/// subnormals of either sign, arbitrary bit patterns (NaNs, infinities,
/// extremes) and ordinary values of either sign.
fn sort_value_strategy() -> impl Strategy<Value = f64> {
    (0u8..8, -1.0f64..=1.0, any::<u64>()).prop_map(|(kind, x, bits)| match kind {
        0 => 0.0,
        1 => -0.0,
        2 => f64::from_bits(bits % (1 << 52)),
        3 => -f64::from_bits(bits % (1 << 52)),
        4 => f64::from_bits(bits),
        _ => x,
    })
}

/// Slices of 0–2048 values built from runs of 1–8 equal values, the runs
/// kept adjacent or scattered by a seeded shuffle.
fn sort_input_strategy() -> impl Strategy<Value = Vec<f64>> {
    (
        prop::collection::vec((sort_value_strategy(), 1usize..=8), 0..=256),
        any::<u64>(),
    )
        .prop_map(|(runs, seed)| {
            let mut values: Vec<f64> = runs
                .into_iter()
                .flat_map(|(v, len)| std::iter::repeat_n(v, len))
                .collect();
            if seed % 2 == 1 {
                let mut state = seed;
                for i in (1..values.len()).rev() {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    values.swap(i, (state >> 33) as usize % (i + 1));
                }
            }
            values
        })
}

proptest! {
    #[test]
    fn sort_slowest_first_matches_the_stable_total_cmp_sort(values in sort_input_strategy()) {
        let mut expect = values.clone();
        expect.sort_by(|a, b| b.total_cmp(a));
        let mut got = values;
        // Stale scratch must not leak into the result.
        let mut keys = vec![u64::MAX; 3];
        sort_slowest_first(&mut got, &mut keys);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&got), bits(&expect));
    }

    #[test]
    fn x_is_positive_and_below_supremum(p in params_strategy(), c in profile_strategy()) {
        let x = xmeasure::x_measure(&p, &c);
        prop_assert!(x > 0.0);
        prop_assert!(x < xmeasure::x_supremum(&p));
    }

    #[test]
    fn x_is_permutation_invariant(p in params_strategy(), c in profile_strategy()) {
        // Theorem 1(2): startup order does not matter. Compare the sorted
        // order against the reversed order (the most different one).
        let sorted = xmeasure::x_measure(&p, &c);
        let mut rev: Vec<f64> = c.rhos().to_vec();
        rev.reverse();
        let reversed = xmeasure::x_measure_of_rhos(&p, &rev);
        prop_assert!((sorted - reversed).abs() / sorted < 1e-10,
            "{sorted} vs {reversed}");
    }

    #[test]
    fn adding_a_computer_increases_x(p in params_strategy(), c in profile_strategy(),
                                     extra in 0.001f64..=1.0) {
        let mut rhos = c.rhos().to_vec();
        rhos.push(extra);
        let bigger = Profile::from_unsorted(rhos).unwrap();
        // Compared via the log residual: a strictly decreasing transform
        // of X that, unlike X itself, cannot saturate at the supremum in
        // f64 (see hecr::log_residual).
        prop_assert!(log_residual(&p, bigger.rhos()) < log_residual(&p, c.rhos()));
    }

    #[test]
    fn proposition2_speedup_increases_x(p in params_strategy(), c in profile_strategy(),
                                        which in any::<prop::sample::Index>(),
                                        frac in 0.01f64..=0.99) {
        // Speeding any computer up by any amount increases X — asserted
        // on the non-saturating log residual (X itself can be pinned at
        // its supremum to f64 precision in communication-heavy regimes).
        let index = which.index(c.n());
        let faster = c.with_rho(index, c.rho(index) * frac).unwrap();
        prop_assert!(log_residual(&p, faster.rhos()) < log_residual(&p, c.rhos()));
    }

    #[test]
    fn minorization_implies_dominance(p in params_strategy(), c in profile_strategy(),
                                      frac in 0.05f64..=0.95) {
        // Scale *every* computer: the scaled profile minorizes and must win.
        let scaled = Profile::from_unsorted(
            c.rhos().iter().map(|r| r * frac).collect()
        ).unwrap();
        prop_assert!(scaled.minorizes(&c));
        prop_assert!(log_residual(&p, scaled.rhos()) < log_residual(&p, c.rhos()));
    }

    #[test]
    fn work_tracks_x_on_random_pairs(p in params_strategy(),
                                     c1 in profile_strategy(), c2 in profile_strategy(),
                                     lifespan in 1.0f64..1e6) {
        let (x1, x2) = (xmeasure::x_measure(&p, &c1), xmeasure::x_measure(&p, &c2));
        let (w1, w2) = (xmeasure::work(&p, &c1, lifespan), xmeasure::work(&p, &c2, lifespan));
        prop_assert_eq!(x1 >= x2, w1 >= w2);
    }

    #[test]
    fn hecr_brackets_and_inverts(p in params_strategy(), c in profile_strategy()) {
        let r = hecr::hecr(&p, &c).unwrap();
        prop_assert!(r >= c.fastest() * (1.0 - 1e-9));
        prop_assert!(r <= c.slowest() * (1.0 + 1e-9));
        // Definition: a homogeneous cluster at the HECR matches X(P).
        let x_eq = xmeasure::x_homogeneous(&p, r, c.n());
        let x = xmeasure::x_measure(&p, &c);
        prop_assert!((x_eq - x).abs() / x < 1e-6, "{x_eq} vs {x}");
    }

    #[test]
    fn hecr_closed_form_matches_bisection(p in params_strategy(), c in profile_strategy()) {
        let closed = hecr::hecr(&p, &c).unwrap();
        let bisect = hecr::hecr_bisect(&p, &c, 1e-12);
        prop_assert!((closed - bisect).abs() / closed < 1e-8,
            "closed {closed} vs bisect {bisect}");
    }

    #[test]
    fn theorem3_on_random_clusters(p in params_strategy(), c in profile_strategy()) {
        prop_assume!(c.n() >= 2);
        let phi = c.fastest() * 0.5;
        let best = speedup::best_additive_index(&p, &c, phi).unwrap();
        // Theorem 3: the fastest computer is always the best additive
        // upgrade. With duplicated fastest speeds any of the tied copies is
        // equivalent; the tie-break picks the largest index.
        prop_assert_eq!(best, c.n() - 1, "profile {:?}", c.rhos());
    }

    #[test]
    fn theorem4_rule_agrees_with_bruteforce(p in params_strategy(),
                                            rho_j in 0.001f64..=1.0,
                                            spread in 1.01f64..=10.0,
                                            psi in 0.05f64..=0.95) {
        let rho_i = (rho_j * spread).min(1.0);
        prop_assume!(rho_i > rho_j);
        let c = Profile::from_unsorted(vec![rho_i, rho_j]).unwrap();
        let xs = xmeasure::x_measure(&p, &speedup::multiplicative_speedup(&c, 0, psi).unwrap());
        let xf = xmeasure::x_measure(&p, &speedup::multiplicative_speedup(&c, 1, psi).unwrap());
        // Skip hair's-breadth cases where f64 cannot resolve the winner.
        prop_assume!((xs - xf).abs() / xs > 1e-12);
        match speedup::theorem4_choice(&p, rho_i, rho_j, psi) {
            speedup::Theorem4Choice::Faster => prop_assert!(xf > xs),
            speedup::Theorem4Choice::Slower => prop_assert!(xs > xf),
            speedup::Theorem4Choice::Indifferent => {}
        }
    }

    #[test]
    fn greedy_x_is_monotone(p in params_strategy(),
                            n in 2usize..6, psi in 0.1f64..=0.9, rounds in 1usize..12) {
        let steps = speedup::greedy_multiplicative(&p, &vec![1.0; n], psi, rounds).unwrap();
        prop_assert_eq!(steps.len(), rounds);
        for w in steps.windows(2) {
            // Nondecreasing: strict growth can fall below f64 resolution
            // once X saturates near its supremum in extreme regimes.
            prop_assert!(w[1].x >= w[0].x * (1.0 - 1e-12), "greedy speedup must not lower X");
        }
    }

    #[test]
    fn normalization_preserves_relative_order(c in profile_strategy()) {
        let scaled = Profile::from_unsorted(
            c.rhos().iter().map(|r| r * 0.37).collect()
        ).unwrap();
        let renorm = scaled.normalized();
        prop_assert!(renorm.is_normalized());
        for (a, b) in renorm.rhos().iter().zip(c.normalized().rhos()) {
            prop_assert!((a - b).abs() < 1e-12);
        }
    }
}
