//! Property tests for the incremental X-measure engine: O(1) replacement
//! queries must agree with from-scratch evaluation to ≤1e-12 relative
//! error across long chains of random single-ρ updates, including on
//! adversarial profiles whose speeds span ~12 orders of magnitude, and
//! `commit`/`rebuild` must stay *bit-identical* to the reference scan.

use hetero_core::xengine::XScan;
use hetero_core::xmeasure::x_measure_of_rhos;
use hetero_core::{Params, Profile};
use proptest::prelude::*;

fn params_strategy() -> impl Strategy<Value = Params> {
    (1e-7f64..1.0, 0.0f64..0.5, 0.01f64..=1.0)
        .prop_map(|(tau, pi, delta)| Params::new(tau, pi, delta).expect("valid by range"))
}

/// Speeds drawn log-uniformly over ~12 decades — the magnitude-spread
/// regime where uncompensated prefix/suffix bookkeeping would lose digits.
fn spread_rho() -> impl Strategy<Value = f64> {
    (1.0f64..2.0, -40i32..1).prop_map(|(m, e)| m * (e as f64).exp2())
}

fn spread_rhos() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(spread_rho(), 1..64)
}

/// A chain of single-ρ updates: (position sampler, replacement speed).
fn updates() -> impl Strategy<Value = Vec<(prop::sample::Index, f64)>> {
    prop::collection::vec((any::<prop::sample::Index>(), spread_rho()), 1..40)
}

fn rel_err(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(f64::MIN_POSITIVE)
}

proptest! {
    #[test]
    fn replace_chain_tracks_from_scratch(
        p in params_strategy(),
        rhos in spread_rhos(),
        chain in updates(),
    ) {
        let mut scan = XScan::new(&p, &rhos).unwrap();
        let mut scratch = rhos;
        for (which, new_rho) in chain {
            let k = which.index(scratch.len());
            let incremental = scan.replace(k, new_rho).unwrap();
            let old = scratch[k];
            scratch[k] = new_rho;
            let direct = x_measure_of_rhos(&p, &scratch);
            prop_assert!(
                rel_err(incremental, direct) <= 1e-12,
                "k = {k}: ρ {old} → {new_rho}, incremental {incremental} vs direct {direct}"
            );
            // Accept the update and keep going: errors must not compound
            // across a long chain of commits.
            scan.commit(k, new_rho).unwrap();
            prop_assert_eq!(scan.x().to_bits(), direct.to_bits(),
                "commit must rebuild the exact forward scan");
        }
    }

    #[test]
    fn scan_agrees_with_scratch_on_any_order(
        p in params_strategy(),
        rhos in spread_rhos(),
    ) {
        // The scan itself is bit-identical to x_measure_of_rhos in the
        // given (arbitrary, unsorted) order …
        let scan = XScan::new(&p, &rhos).unwrap();
        prop_assert_eq!(scan.x().to_bits(), x_measure_of_rhos(&p, &rhos).to_bits());
        // … and by Theorem 1(2) agrees with the sorted evaluation to
        // rounding error.
        let sorted = Profile::from_unsorted(rhos).unwrap();
        prop_assert!(rel_err(scan.x(), x_measure_of_rhos(&p, sorted.rhos())) <= 1e-10);
    }

    #[test]
    fn suffix_measures_agree_with_scratch(
        p in params_strategy(),
        rhos in spread_rhos(),
    ) {
        let scan = XScan::new(&p, &rhos).unwrap();
        let v = scan.suffix_measures();
        for k in 0..rhos.len() {
            let direct = x_measure_of_rhos(&p, &rhos[k..]);
            prop_assert!(
                rel_err(v[k], direct) <= 1e-12,
                "suffix {k}: {} vs {direct}", v[k]
            );
        }
    }

    #[test]
    fn prefix_snapshots_are_bitwise(
        p in params_strategy(),
        rhos in spread_rhos(),
    ) {
        let scan = XScan::new(&p, &rhos).unwrap();
        for k in 1..=rhos.len() {
            prop_assert_eq!(
                scan.prefix_x(k).unwrap().to_bits(),
                x_measure_of_rhos(&p, &rhos[..k]).to_bits()
            );
        }
    }
}
