//! Reproducibility guarantees: every randomized experiment is a pure
//! function of its seed, independent of thread count, and stable across
//! repeated runs in one process.

use hetero_clustergen::{rng_from_seed, GenConfig, Shape};
use hetero_experiments::{
    fault_sweep, majorization_ext, moments_ext, protocol_sweep, robustness, threshold, variance,
};
use hetero_par::{seed, Pool};

#[test]
fn profile_generation_is_seed_deterministic() {
    let cfg = GenConfig::new(64);
    for shape in [Shape::Uniform, Shape::Bimodal, Shape::Concentrated] {
        let a = hetero_clustergen::random_profile(&mut rng_from_seed(11), cfg, shape);
        let b = hetero_clustergen::random_profile(&mut rng_from_seed(11), cfg, shape);
        assert_eq!(a.rhos(), b.rhos());
    }
}

#[test]
fn variance_experiment_identical_at_1_and_16_threads() {
    let mut cfg = variance::VarianceConfig {
        sizes: vec![4, 32, 256],
        trials: 400,
        seed: 2024,
        threads: 1,
        ..variance::VarianceConfig::default()
    };
    let serial = variance::run(&cfg);
    cfg.threads = 16;
    let parallel = variance::run(&cfg);
    assert_eq!(serial.rows, parallel.rows);
}

#[test]
fn threshold_experiment_identical_across_threads() {
    let mut cfg = threshold::ThresholdConfig {
        sizes: vec![16],
        trials_per_combo: 200,
        seed: 555,
        threads: 1,
        ..threshold::ThresholdConfig::default()
    };
    let a = threshold::run(&cfg);
    cfg.threads = 12;
    let b = threshold::run(&cfg);
    assert_eq!(a.theta, b.theta);
    assert_eq!(a.samples, b.samples);
}

/// Every sweep driver's table CSV on a small grid under a thread budget.
/// The batched grids include sizes whose blocks the ρ cap narrows (32
/// trials at n = 512), and no trial count is a multiple of a block.
fn sweep_csvs(threads: usize) -> [(&'static str, String); 7] {
    [
        (
            "variance",
            variance::run(&variance::VarianceConfig {
                sizes: vec![4, 64, 512],
                trials: 70,
                seed: 31,
                threads,
                ..variance::VarianceConfig::default()
            })
            .table()
            .to_csv(),
        ),
        (
            "threshold",
            threshold::run(&threshold::ThresholdConfig {
                sizes: vec![4, 16],
                trials_per_combo: 70,
                seed: 32,
                threads,
                ..threshold::ThresholdConfig::default()
            })
            .table()
            .to_csv(),
        ),
        (
            "moments_ext",
            moments_ext::run(&moments_ext::MomentsConfig {
                sizes: vec![8, 512],
                trials: 70,
                seed: 33,
                threads,
                ..moments_ext::MomentsConfig::default()
            })
            .table()
            .to_csv(),
        ),
        (
            "majorization_ext",
            majorization_ext::run(&majorization_ext::MajorizationConfig {
                sizes: vec![4, 64, 256],
                trials: 70,
                seed: 34,
                threads,
                ..majorization_ext::MajorizationConfig::default()
            })
            .table()
            .to_csv(),
        ),
        (
            "robustness",
            robustness::run(&robustness::RobustnessConfig {
                trials: 9,
                seed: 35,
                threads,
                ..robustness::RobustnessConfig::default()
            })
            .table()
            .to_csv(),
        ),
        (
            "fault_sweep",
            fault_sweep::run(&fault_sweep::FaultSweepConfig {
                trials: 5,
                seed: 36,
                threads,
                ..fault_sweep::FaultSweepConfig::default()
            })
            .table()
            .to_csv(),
        ),
        (
            "protocol_sweep",
            protocol_sweep::run(&protocol_sweep::ProtocolSweepConfig {
                trials: 3,
                seed: 37,
                threads,
                ..protocol_sweep::ProtocolSweepConfig::default()
            })
            .table()
            .to_csv(),
        ),
    ]
}

#[test]
fn every_sweep_driver_renders_the_same_bytes_at_1_2_and_8_threads() {
    let serial = sweep_csvs(1);
    for threads in [2, 8] {
        for ((driver, one), (_, many)) in serial.iter().zip(sweep_csvs(threads)) {
            assert_eq!(*one, many, "{driver} at {threads} threads");
        }
    }
}

#[test]
fn different_seeds_give_different_streams() {
    let cfg = GenConfig::new(32);
    let a = hetero_clustergen::random_profile(&mut rng_from_seed(1), cfg, Shape::Uniform);
    let b = hetero_clustergen::random_profile(&mut rng_from_seed(2), cfg, Shape::Uniform);
    assert_ne!(a.rhos(), b.rhos());
}

#[test]
fn pool_map_result_order_matches_serial_on_heavy_mixed_load() {
    // The pool contract that determinism rests on: index order out, any
    // worker count, uneven workloads. Each budget gets a pool of its own
    // size, so 32 real workers race even on a 2-core host, where the
    // process-wide pool would cap every budget at the core count.
    fn work(i: usize) -> u64 {
        let x = i as u64;
        let mut acc = seed::derive(x, x);
        let spin = (x % 37) * 50;
        for _ in 0..spin {
            acc = seed::mix(acc);
        }
        acc
    }
    let expect: Vec<u64> = (0..2_000).map(work).collect();
    for threads in [1, 3, 8, 32] {
        assert_eq!(Pool::new(threads).map(2_000, threads, work), expect);
    }
}
