//! `sweep`: one op is one reproduction pass — one call to each of the
//! seven Monte-Carlo drivers `hetero-cli all` runs, on their default grids
//! at 1/16 of the CLI's default trial counts, fanned out over `threads`
//! pool workers in strict numeric mode.

use std::time::Instant;

use hetero_core::NumericMode;
use hetero_experiments::{
    fault_sweep, majorization_ext, moments_ext, protocol_sweep, robustness, threshold, variance,
};
use hetero_par::seed;

use crate::measure::Tracer;
use crate::runner::Client;

/// The layer spans of one op, in call order.
pub const LAYERS: [&str; 7] = [
    "experiments.variance",
    "experiments.threshold",
    "experiments.moments_ext",
    "experiments.majorization_ext",
    "experiments.robustness",
    "experiments.fault_sweep",
    "experiments.protocol_sweep",
];

/// Passes run untimed before the loop starts: they fill the caches and
/// start the worker pool.
const WARMUP_PASSES: u64 = 2;

/// The results of one pass, one per driver.
struct Pass {
    variance: variance::VarianceExperiment,
    threshold: threshold::ThresholdExperiment,
    moments: moments_ext::MomentsExperiment,
    majorization: majorization_ext::MajorizationExperiment,
    robustness: robustness::Robustness,
    faults: fault_sweep::FaultSweep,
    protocols: protocol_sweep::ProtocolSweep,
}

/// Runs pass `op`. Every driver's seed derives from the workload seed and
/// the op index, so each op samples fresh trials.
fn pass(root: u64, op: u64, threads: usize, tr: &mut Tracer) -> Pass {
    let s = |driver: u64| seed::derive(seed::derive(root, op), driver);
    Pass {
        variance: tr.span(LAYERS[0], op, || {
            variance::run(&variance::VarianceConfig {
                trials: 125,
                seed: s(0),
                threads,
                numeric: NumericMode::Strict,
                ..variance::VarianceConfig::default()
            })
        }),
        threshold: tr.span(LAYERS[1], op, || {
            threshold::run(&threshold::ThresholdConfig {
                trials_per_combo: 93,
                seed: s(1),
                threads,
                numeric: NumericMode::Strict,
                ..threshold::ThresholdConfig::default()
            })
        }),
        moments: tr.span(LAYERS[2], op, || {
            moments_ext::run(&moments_ext::MomentsConfig {
                trials: 125,
                seed: s(2),
                threads,
                ..moments_ext::MomentsConfig::default()
            })
        }),
        majorization: tr.span(LAYERS[3], op, || {
            majorization_ext::run(&majorization_ext::MajorizationConfig {
                trials: 125,
                seed: s(3),
                threads,
                ..majorization_ext::MajorizationConfig::default()
            })
        }),
        robustness: tr.span(LAYERS[4], op, || {
            robustness::run(&robustness::RobustnessConfig {
                trials: 12,
                seed: s(4),
                threads,
                ..robustness::RobustnessConfig::default()
            })
        }),
        faults: tr.span(LAYERS[5], op, || {
            fault_sweep::run(&fault_sweep::FaultSweepConfig {
                trials: 6,
                seed: s(5),
                threads,
                ..fault_sweep::FaultSweepConfig::default()
            })
        }),
        protocols: tr.span(LAYERS[6], op, || {
            protocol_sweep::run(&protocol_sweep::ProtocolSweepConfig {
                trials: 3,
                seed: s(6),
                threads,
                ..protocol_sweep::ProtocolSweepConfig::default()
            })
        }),
    }
}

/// Fractions may exceed 1 by rounding: work totals are compared with the
/// same relative slack the executors allow at the lifespan boundary.
const SLACK: f64 = 1e-9;

fn unit(what: &str, v: f64) -> Result<(), String> {
    if v.is_finite() && (0.0..=1.0 + SLACK).contains(&v) {
        Ok(())
    } else {
        Err(format!("{what} = {v} is not a fraction"))
    }
}

fn count_le(what: &str, part: usize, whole: usize) -> Result<(), String> {
    if part <= whole {
        Ok(())
    } else {
        Err(format!("{what}: {part} of {whole}"))
    }
}

/// Every rate and fraction the pass reports is finite and in [0, 1].
fn check(p: &Pass) -> Result<(), String> {
    for r in &p.variance.rows {
        unit("variance.bad_fraction", r.bad_fraction)?;
        count_le("variance.bad", r.bad, r.decided)?;
    }
    unit("threshold.accuracy", p.threshold.overall_accuracy())?;
    if !(p.threshold.theta.is_finite() && p.threshold.theta >= 0.0) {
        return Err(format!("threshold.theta = {}", p.threshold.theta));
    }
    for &(_, decided, correct) in &p.threshold.histogram {
        count_le("threshold.bucket", correct, decided)?;
    }
    for r in &p.moments.rows {
        let (a, b, c, d, e) = r.correct;
        for k in [a, b, c, d, e] {
            count_le("moments.correct", k, r.decided)?;
        }
    }
    for r in &p.majorization.rows {
        unit("majorization.comparable", r.comparable_fraction())?;
        unit("majorization.accuracy", r.incomparable_accuracy())?;
    }
    for r in &p.robustness.rows {
        for v in [
            r.mean_fraction,
            r.worst_fraction,
            r.equal_split_fraction,
            r.miss_rate,
        ] {
            unit("robustness", v)?;
        }
        if !(r.mean_overrun.is_finite() && r.mean_overrun > 0.0) {
            return Err(format!("robustness.overrun = {}", r.mean_overrun));
        }
    }
    for r in &p.faults.rows {
        for v in [
            r.oblivious_fraction,
            r.adaptive_fraction,
            r.equal_fraction,
            r.oblivious_miss_rate,
            r.adaptive_miss_rate,
        ] {
            unit("fault_sweep", v)?;
        }
        if !(r.mean_replans.is_finite() && r.mean_replans >= 0.0) {
            return Err(format!("fault_sweep.replans = {}", r.mean_replans));
        }
    }
    for r in &p.protocols.rows {
        for v in [
            r.oblivious_fraction,
            r.adaptive_fraction,
            r.exchange_fraction,
            r.coded_fraction,
            r.oblivious_miss_rate,
            r.adaptive_miss_rate,
            r.exchange_miss_rate,
            r.coded_miss_rate,
            r.exchange_degraded_rate,
            r.decode_failure_rate,
        ] {
            unit("protocol_sweep", v)?;
        }
    }
    Ok(())
}

/// The CSV every driver's table renders for pass `op`.
fn csv(root: u64, op: u64, threads: usize) -> String {
    let p = pass(root, op, threads, &mut Tracer::new(false));
    [
        p.variance.table(),
        p.threshold.table(),
        p.moments.table(),
        p.majorization.table(),
        p.robustness.table(),
        p.faults.table(),
        p.protocols.table(),
    ]
    .iter()
    .map(|t| t.to_csv())
    .collect()
}

/// One `sweep` client.
#[derive(Clone)]
pub struct Sweep {
    seed: u64,
    threads: usize,
}

impl Sweep {
    /// Starts the pool and runs the warm-up passes (ops `0..WARMUP_PASSES`,
    /// so timed ops start at [`Sweep::first_op`]).
    pub fn setup(seed: u64, threads: usize) -> Result<Self, String> {
        let mut me = Sweep { seed, threads };
        let mut off = Tracer::new(false);
        for op in 0..WARMUP_PASSES {
            me.op(op, &mut off)?;
        }
        Ok(me)
    }

    /// Index of the first op after the warm-up.
    pub fn first_op(&self) -> u64 {
        WARMUP_PASSES
    }

    /// A pass renders byte-identical CSV at one thread and at `threads`.
    pub fn finish(&mut self) -> Result<(), String> {
        let serial = csv(self.seed, 0, 1);
        let parallel = csv(self.seed, 0, self.threads);
        if serial == parallel {
            Ok(())
        } else {
            Err(format!(
                "pass CSV differs between 1 and {} threads",
                self.threads
            ))
        }
    }
}

impl Client for Sweep {
    fn op(&mut self, index: u64, tracer: &mut Tracer) -> Result<(Instant, Instant), String> {
        let start = Instant::now();
        let p = pass(self.seed, index, self.threads, tracer);
        let end = Instant::now();
        check(&p)?;
        Ok((start, end))
    }
}
