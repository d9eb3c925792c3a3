//! Reproducibility guarantees: every randomized experiment is a pure
//! function of its seed, independent of thread count, and stable across
//! repeated runs in one process.

use hetero_clustergen::{rng_from_seed, GenConfig, Shape};
use hetero_experiments::{threshold, variance};
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
