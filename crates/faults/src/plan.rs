//! Validated fault plans: ordered spec sets with deterministic sampling.

use rand::{Rng, SeedableRng};

use crate::index::FaultIndex;
use crate::spec::{FaultError, FaultSpec};

/// An ordered, validated collection of faults for one execution.
///
/// A plan is pure description: its specs, their validation, seeded
/// sampling, JSON and a fingerprint. Executors query it through a
/// per-run [`FaultIndex`] ([`FaultPlan::index`]), which groups each
/// worker's specs once so a query costs O(log s) plus the worker's own
/// specs rather than a scan of all s. Sampled plans grow with the
/// cluster — about (crash p + loss p)·n specs plus the stragglers — so
/// a scan per query would make the executors' boundary-time failure
/// detection cubic in n.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// Builds a plan from specs, validating each one.
    pub fn new(specs: Vec<FaultSpec>) -> Result<Self, FaultError> {
        for spec in &specs {
            spec.validate()?;
        }
        Ok(FaultPlan { specs })
    }

    /// The fault-free plan.
    pub fn empty() -> Self {
        FaultPlan::default()
    }

    /// `true` when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The validated specs, in insertion order.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// Builds the per-run query index over this plan's specs, in
    /// O(s log s) for s specs.
    ///
    /// Executors build one per execution and answer every fault query
    /// from it; the plan itself stays a plain description. See
    /// [`FaultIndex`] for the cost of each query and why its answers are
    /// bit-identical to a scan of the whole plan.
    pub fn index(&self) -> FaultIndex<'_> {
        FaultIndex::new(&self.specs)
    }

    /// Order-sensitive content hash of the plan.
    ///
    /// Chains the SplitMix64 finalizer over a per-spec tag and the raw
    /// bits of every field, so two plans fingerprint equal iff their spec
    /// sequences are field-for-field identical (`-0.0` vs `0.0` and NaN
    /// payloads are distinguished — fingerprints identify *descriptions*,
    /// not behaviours). Stable across runs, platforms, and thread counts;
    /// intended for reproducibility manifests next to the RNG seed.
    pub fn fingerprint(&self) -> u64 {
        use hetero_par::seed::mix;
        let mut h = mix(0xFA17_5EED ^ self.specs.len() as u64);
        let absorb = |h: &mut u64, v: u64| *h = mix(*h ^ v);
        for spec in &self.specs {
            match *spec {
                FaultSpec::Crash { worker, at } => {
                    absorb(&mut h, 1);
                    absorb(&mut h, worker as u64);
                    absorb(&mut h, at.to_bits());
                }
                FaultSpec::Slowdown {
                    worker,
                    factor,
                    from,
                    until,
                } => {
                    absorb(&mut h, 2);
                    absorb(&mut h, worker as u64);
                    absorb(&mut h, factor.to_bits());
                    absorb(&mut h, from.to_bits());
                    absorb(&mut h, until.to_bits());
                }
                FaultSpec::ChannelJitter {
                    factor,
                    from,
                    until,
                } => {
                    absorb(&mut h, 3);
                    absorb(&mut h, factor.to_bits());
                    absorb(&mut h, from.to_bits());
                    absorb(&mut h, until.to_bits());
                }
                FaultSpec::ResultLoss { worker, count } => {
                    absorb(&mut h, 4);
                    absorb(&mut h, worker as u64);
                    absorb(&mut h, u64::from(count));
                }
            }
        }
        h
    }

    /// Draws a random plan for an `n`-worker execution over `[0, lifespan]`.
    ///
    /// Deterministic in `(cfg, n, lifespan, seed)`: the same inputs yield
    /// the same plan (same [`fingerprint`](FaultPlan::fingerprint)) on any
    /// platform or thread count. Sampling order is fixed — stragglers,
    /// then per-worker crashes, then channel jitter, then per-worker
    /// result losses — so plans are stable under config changes that
    /// disable later stages.
    pub fn sample(
        cfg: &FaultConfig,
        n: usize,
        lifespan: f64,
        seed: u64,
    ) -> Result<FaultPlan, FaultError> {
        if !(lifespan.is_finite() && lifespan > 0.0) {
            return Err(FaultError::InvalidTime { value: lifespan });
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut specs = Vec::new();

        // Chronic stragglers: a distinct subset of workers slowed for the
        // whole lifespan (partial Fisher–Yates over the index set).
        let straggler_count = cfg.straggler_count.min(n);
        if straggler_count > 0 && cfg.straggler_factor > 1.0 {
            let mut idx: Vec<usize> = (0..n).collect();
            for k in 0..straggler_count {
                let j = rng.random_range(k..n);
                idx.swap(k, j);
                if let Some(&worker) = idx.get(k) {
                    specs.push(FaultSpec::Slowdown {
                        worker,
                        factor: cfg.straggler_factor,
                        from: 0.0,
                        until: lifespan,
                    });
                }
            }
        }

        // Independent per-worker crashes at a uniform time in (0, lifespan).
        if cfg.crash_p > 0.0 {
            for worker in 0..n {
                if rng.random_bool(cfg.crash_p) {
                    let at = rng.random_range(0.0..lifespan).max(f64::MIN_POSITIVE);
                    specs.push(FaultSpec::Crash { worker, at });
                }
            }
        }

        // One transient channel-jitter window covering a random half-open
        // sub-interval of the lifespan.
        if cfg.jitter_p > 0.0 && rng.random_bool(cfg.jitter_p) {
            let a = rng.random_range(0.0..lifespan);
            let b = rng.random_range(0.0..lifespan);
            let (from, until) = if a < b { (a, b) } else { (b, a) };
            if until > from {
                specs.push(FaultSpec::ChannelJitter {
                    factor: cfg.jitter_factor,
                    from,
                    until,
                });
            }
        }

        // Independent per-worker result-message loss bursts.
        if cfg.loss_p > 0.0 && cfg.loss_max > 0 {
            for worker in 0..n {
                if rng.random_bool(cfg.loss_p) {
                    let count = rng.random_range(1..=cfg.loss_max);
                    specs.push(FaultSpec::ResultLoss { worker, count });
                }
            }
        }

        FaultPlan::new(specs)
    }
}

/// Knobs for [`FaultPlan::sample`].
///
/// The default configuration injects nothing; sweeps dial individual
/// fields up from there.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Independent probability that each worker crashes during the run.
    pub crash_p: f64,
    /// Number of distinct chronic stragglers (slowed for the whole
    /// lifespan); clamped to the worker count.
    pub straggler_count: usize,
    /// Slowdown multiplier applied to each straggler (≥ 1; exactly 1
    /// disables straggler sampling).
    pub straggler_factor: f64,
    /// Probability that the channel suffers one jitter window.
    pub jitter_p: f64,
    /// Transit-time multiplier inside the jitter window.
    pub jitter_factor: f64,
    /// Independent probability that each worker's first results are lost.
    pub loss_p: f64,
    /// Maximum consecutive losses per affected worker.
    pub loss_max: u32,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            crash_p: 0.0,
            straggler_count: 0,
            straggler_factor: 1.0,
            jitter_p: 0.0,
            jitter_factor: 1.0,
            loss_p: 0.0,
            loss_max: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_plan() -> FaultPlan {
        FaultPlan::new(vec![
            FaultSpec::Crash {
                worker: 1,
                at: 250.0,
            },
            FaultSpec::Crash {
                worker: 1,
                at: 100.0,
            },
            FaultSpec::Slowdown {
                worker: 0,
                factor: 3.0,
                from: 0.0,
                until: 600.0,
            },
            FaultSpec::Slowdown {
                worker: 0,
                factor: 2.0,
                from: 50.0,
                until: 150.0,
            },
            FaultSpec::ChannelJitter {
                factor: 2.0,
                from: 10.0,
                until: 20.0,
            },
            FaultSpec::ResultLoss {
                worker: 2,
                count: 2,
            },
            FaultSpec::ResultLoss {
                worker: 2,
                count: 1,
            },
        ])
        .unwrap()
    }

    #[test]
    fn new_rejects_any_invalid_spec() {
        let err = FaultPlan::new(vec![
            FaultSpec::Crash { worker: 0, at: 1.0 },
            FaultSpec::ResultLoss {
                worker: 1,
                count: 0,
            },
        ])
        .unwrap_err();
        assert_eq!(err, FaultError::ZeroLossCount);
    }

    #[test]
    fn empty_plan_answers_every_query_without_faults() {
        let plan = FaultPlan::empty();
        assert!(plan.is_empty());
        let index = plan.index();
        assert_eq!(index.crash_time(0), None);
        assert_eq!(index.slowdown_factor(0, 10.0), None);
        assert!(!index.has_slowdown(0));
        assert_eq!(index.channel_factor(10.0), None);
        assert_eq!(index.result_losses(0), 0);
    }

    #[test]
    fn crash_time_takes_the_earliest() {
        let plan = demo_plan();
        assert_eq!(plan.index().crash_time(1), Some(100.0));
        assert_eq!(plan.index().crash_time(0), None);
        // Of equal times the first in plan order wins, signed zeros included.
        let ties = FaultPlan::new(vec![
            FaultSpec::Crash {
                worker: 3,
                at: -0.0,
            },
            FaultSpec::Crash { worker: 4, at: 0.0 },
            FaultSpec::Crash { worker: 3, at: 0.0 },
            FaultSpec::Crash {
                worker: 4,
                at: -0.0,
            },
        ])
        .unwrap();
        let bits = |w| ties.index().crash_time(w).map(f64::to_bits);
        assert_eq!(bits(3), Some((-0.0f64).to_bits()));
        assert_eq!(bits(4), Some(0.0f64.to_bits()));
    }

    #[test]
    fn overlapping_slowdowns_compound() {
        let plan = demo_plan();
        let index = plan.index();
        // Only the chronic window is active at t = 10.
        assert_eq!(index.slowdown_factor(0, 10.0), Some(3.0));
        // Both windows are active at t = 100: 3 × 2.
        assert_eq!(index.slowdown_factor(0, 100.0), Some(6.0));
        // The window end is exclusive.
        assert_eq!(index.slowdown_factor(0, 600.0), None);
        assert_eq!(index.slowdown_factor(1, 100.0), None);
        assert!(index.has_slowdown(0) && !index.has_slowdown(1));
        // Factors compound in plan order, ((a·b)·c), even with other
        // workers' specs in between; (a·(b·c)) differs in the last bit.
        let (a, b, c): (f64, f64, f64) = (1.1, 1.1, 1.9);
        assert_ne!((a * b * c).to_bits(), (a * (b * c)).to_bits());
        let slow = |worker, factor| FaultSpec::Slowdown {
            worker,
            factor,
            from: 0.0,
            until: 10.0,
        };
        let plan = FaultPlan::new(vec![
            slow(7, a),
            slow(2, 2.0),
            slow(7, b),
            slow(9, 3.0),
            slow(7, c),
        ])
        .unwrap();
        let product = plan.index().slowdown_factor(7, 5.0).map(f64::to_bits);
        assert_eq!(product, Some((a * b * c).to_bits()));
    }

    #[test]
    fn channel_factor_respects_its_window() {
        let plan = demo_plan();
        let index = plan.index();
        assert_eq!(index.channel_factor(10.0), Some(2.0));
        assert_eq!(index.channel_factor(20.0), None);
        assert_eq!(index.channel_factor(9.9), None);
    }

    #[test]
    fn result_losses_sum_per_worker() {
        let plan = demo_plan();
        assert_eq!(plan.index().result_losses(2), 3);
        assert_eq!(plan.index().result_losses(0), 0);
    }

    #[test]
    fn fingerprint_is_content_and_order_sensitive() {
        let plan = demo_plan();
        assert_eq!(plan.fingerprint(), demo_plan().fingerprint());
        assert_ne!(plan.fingerprint(), FaultPlan::empty().fingerprint());
        let reordered = FaultPlan::new(plan.specs().iter().rev().copied().collect()).unwrap();
        assert_ne!(plan.fingerprint(), reordered.fingerprint());
        // A one-field change moves the fingerprint.
        let mut specs = plan.specs().to_vec();
        specs[0] = FaultSpec::Crash {
            worker: 1,
            at: 250.5,
        };
        assert_ne!(
            plan.fingerprint(),
            FaultPlan::new(specs).unwrap().fingerprint()
        );
    }

    #[test]
    fn sample_is_seed_deterministic() {
        let cfg = FaultConfig {
            crash_p: 0.4,
            straggler_count: 2,
            straggler_factor: 4.0,
            jitter_p: 0.5,
            jitter_factor: 2.0,
            loss_p: 0.3,
            loss_max: 3,
        };
        let a = FaultPlan::sample(&cfg, 8, 600.0, 42).unwrap();
        let b = FaultPlan::sample(&cfg, 8, 600.0, 42).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = FaultPlan::sample(&cfg, 8, 600.0, 43).unwrap();
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn sample_with_default_config_is_empty() {
        let plan = FaultPlan::sample(&FaultConfig::default(), 8, 600.0, 7).unwrap();
        assert!(plan.is_empty());
        assert_eq!(plan, FaultPlan::empty());
    }

    #[test]
    fn sampled_stragglers_are_distinct_and_chronic() {
        let cfg = FaultConfig {
            straggler_count: 3,
            straggler_factor: 5.0,
            ..FaultConfig::default()
        };
        for seed in 0..50 {
            let plan = FaultPlan::sample(&cfg, 4, 600.0, seed).unwrap();
            let workers: Vec<usize> = plan
                .specs()
                .iter()
                .filter_map(|s| match *s {
                    FaultSpec::Slowdown {
                        worker,
                        from,
                        until,
                        ..
                    } => {
                        assert_eq!(from, 0.0);
                        assert_eq!(until, 600.0);
                        Some(worker)
                    }
                    _ => None,
                })
                .collect();
            assert_eq!(workers.len(), 3);
            let mut dedup = workers.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), 3, "stragglers must be distinct: {workers:?}");
            assert!(workers.iter().all(|&w| w < 4));
        }
    }

    #[test]
    fn straggler_count_clamps_to_worker_count() {
        let cfg = FaultConfig {
            straggler_count: 10,
            straggler_factor: 2.0,
            ..FaultConfig::default()
        };
        let plan = FaultPlan::sample(&cfg, 3, 600.0, 1).unwrap();
        assert_eq!(plan.specs().len(), 3);
    }

    #[test]
    fn sampled_crashes_land_strictly_inside_the_run() {
        let cfg = FaultConfig {
            crash_p: 1.0,
            ..FaultConfig::default()
        };
        let plan = FaultPlan::sample(&cfg, 16, 600.0, 9).unwrap();
        let crashes: Vec<f64> = plan
            .specs()
            .iter()
            .filter_map(|s| match *s {
                FaultSpec::Crash { at, .. } => Some(at),
                _ => None,
            })
            .collect();
        assert_eq!(crashes.len(), 16);
        assert!(crashes.iter().all(|&t| t > 0.0 && t < 600.0));
    }

    #[test]
    fn sample_rejects_a_degenerate_lifespan() {
        let cfg = FaultConfig::default();
        assert!(FaultPlan::sample(&cfg, 4, 0.0, 1).is_err());
        assert!(FaultPlan::sample(&cfg, 4, f64::NAN, 1).is_err());
    }
}
