//! Cross-crate checks for the batched X-measure kernels: the lockstep
//! batch must be bit-identical to the scalar recurrence on adversarial
//! inputs (uniform and ragged shapes alike), branch-and-bound subset
//! search must return the exhaustive walk's winner on the same inputs,
//! and the pinned paper cells must come out byte-for-byte unchanged
//! through the batched drivers.

use hetero_core::selection::{best_k_subset, best_k_subset_gray};
use hetero_core::xbatch::{self, ProfileBatch};
use hetero_core::{hecr, xmeasure, Params, Profile};
use hetero_experiments::{fig34, scaling, table3};
use proptest::prelude::*;

/// Speeds spanning ~18 decades: the Neumaier compensation inside both
/// kernels is exercised hardest when magnitudes differ wildly.
fn adversarial_rho() -> impl Strategy<Value = f64> {
    (1.0f64..2.0, -30i32..31).prop_map(|(m, e)| m * (e as f64).exp2())
}

/// A ragged pile of profiles: between 1 and 12 rows of varying lengths.
fn ragged_rows() -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(adversarial_rho(), 1..24), 1..12)
}

/// Uniform-length batches big enough to cross the lockstep lane width.
fn uniform_rows() -> impl Strategy<Value = Vec<Vec<f64>>> {
    (1usize..24).prop_flat_map(|n| {
        prop::collection::vec(prop::collection::vec(adversarial_rho(), n), 9..20)
    })
}

fn load(rows: &[Vec<f64>]) -> ProfileBatch {
    let mut batch = ProfileBatch::new();
    for row in rows {
        batch.push(row);
    }
    batch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn uniform_batch_x_is_bit_identical_to_scalar(rows in uniform_rows()) {
        let params = Params::paper_table1();
        let xs = xbatch::x_measures(&params, &load(&rows));
        for (row, x) in rows.iter().zip(xs) {
            let scalar = xmeasure::x_measure_of_rhos(&params, row);
            prop_assert_eq!(x.to_bits(), scalar.to_bits());
        }
    }

    #[test]
    fn ragged_batch_x_is_bit_identical_to_scalar(rows in ragged_rows()) {
        let params = Params::paper_table1();
        let xs = xbatch::x_measures(&params, &load(&rows));
        for (row, x) in rows.iter().zip(xs) {
            let scalar = xmeasure::x_measure_of_rhos(&params, row);
            prop_assert_eq!(x.to_bits(), scalar.to_bits());
        }
    }

    #[test]
    fn batch_hecr_is_bit_identical_to_scalar(rows in ragged_rows()) {
        let params = Params::paper_table1();
        let hs = xbatch::hecrs(&params, &load(&rows));
        for (row, h) in rows.iter().zip(hs) {
            let scalar = hecr::hecr_of_rhos(&params, row);
            match (h, scalar) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a.to_bits(), b.to_bits()),
                (a, b) => prop_assert!(
                    a.is_err() && b.is_err(),
                    "error mismatch: batch {a:?} vs scalar {b:?}"
                ),
            }
        }
    }

    #[test]
    fn branch_and_bound_matches_the_gray_walk_on_adversarial_speeds(
        rhos in prop::collection::vec(adversarial_rho(), 1..15),
        k in 1usize..15,
    ) {
        prop_assume!(k <= rhos.len());
        let params = Params::paper_table1();
        let profile = Profile::from_unsorted(rhos).expect("positive finite speeds");
        let walk = best_k_subset_gray(&params, &profile, k).expect("valid k");
        let bnb = best_k_subset(&params, &profile, k).expect("valid k");
        prop_assert_eq!(bnb.rhos(), walk.rhos());
    }
}

/// The pinned Table 3 rows, re-derived through the batched HECR kernel
/// (as the `scaling` driver now does): every cell byte-identical to the
/// scalar table, and the rendered rows byte-identical too.
#[test]
fn table3_through_the_batched_driver_is_byte_identical() {
    let params = Params::paper_table1();
    let scalar = table3::run_paper();
    let batched = scaling::run(&params, &[8, 16, 32]);
    for (a, b) in scalar.rows.iter().zip(&batched.rows) {
        assert_eq!(a.n, b.n);
        assert_eq!(a.hecr_c1.to_bits(), b.hecr_c1.to_bits(), "C1 n = {}", a.n);
        assert_eq!(a.hecr_c2.to_bits(), b.hecr_c2.to_bits(), "C2 n = {}", a.n);
    }
    // The user-visible rendering is pinned byte-for-byte as well.
    let ascii = scalar.table().to_ascii();
    assert!(ascii.contains("0.366") || ascii.contains("0.36"), "{ascii}");
}

/// One pinned Figure 3/4 cell through the batched driver: the final
/// phase-1 round must report the X of ⟨1/16,…,1/16⟩ exactly as the
/// scalar kernel computes it, and the profile itself is the paper's.
#[test]
fn fig34_cells_through_the_batched_driver_are_byte_identical() {
    let f = fig34::run_paper();
    let last = f.phase1.last().expect("16 phase-1 rounds");
    let mut sorted = last.step.speeds.clone();
    sorted.sort_by(|a, b| b.total_cmp(a));
    let scalar = xmeasure::x_measure_of_rhos(&f.params, &sorted);
    assert_eq!(last.step.x.to_bits(), scalar.to_bits());
    for &s in &last.step.speeds {
        assert!((s - 1.0 / 16.0).abs() < 1e-12);
    }
    // Same pin for the final phase-2 cell.
    let last2 = f.phase2.last().expect("4 phase-2 rounds");
    let mut sorted2 = last2.step.speeds.clone();
    sorted2.sort_by(|a, b| b.total_cmp(a));
    let scalar2 = xmeasure::x_measure_of_rhos(&f.params, &sorted2);
    assert_eq!(last2.step.x.to_bits(), scalar2.to_bits());
}
