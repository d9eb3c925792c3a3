//! `faulted`: one op plans one seed-derived job and runs it through the
//! pristine executor and all four fault-aware protocol families.

use std::time::Instant;

use hetero_clustergen::{random_profile, rng_from_seed, GenConfig, Shape};
use hetero_core::{xmeasure, Params, Profile};
use hetero_faults::{FaultConfig, FaultPlan};
use hetero_par::seed;
use hetero_protocol::{alloc, coded, exchange, exec, fault_exec, replan, validate, ExchangePolicy};

use crate::measure::Tracer;
use crate::runner::Client;
use crate::uniform;

/// The layer spans of one op, in call order.
pub const LAYERS: [&str; 7] = [
    "alloc.fifo_plan",
    "exec.execute",
    "fault_exec.execute_with_faults",
    "replan.execute_adaptive",
    "exchange.execute_exchange",
    "coded.mds_assignment",
    "coded.execute_coded",
];

/// Work each family finished by the lifespan, over the Theorem 2 optimum,
/// in the order [`Client::take_outcomes`] returns them.
pub const FRACTIONS: [&str; 4] = [
    "fault_exec.work_fraction",
    "replan.work_fraction",
    "exchange.work_fraction",
    "coded.work_fraction",
];

/// Distinct jobs; op `i` runs job `i mod JOBS`.
pub const JOBS: usize = 4096;
/// Ops run untimed at the end of set-up.
pub const WARMUP_OPS: u64 = 128;

const LIFESPAN: f64 = 600.0;

/// Relative slack of the work comparisons: the executors count a result
/// that arrives within `L·(1 + 1e-9)` as on time.
const SLACK: f64 = 1e-9;

/// One planning job.
#[derive(Debug, Clone)]
pub struct Job {
    /// The cluster, slowest first.
    pub profile: Profile,
    /// Crashes, one straggler and result losses over `[0, L]`.
    pub faults: FaultPlan,
    /// Lifespan hedge of the adaptive family (and the exchange fallback).
    pub margin: f64,
    /// Theorem 2 optimum work by `L`, the reference of every check.
    pub optimum: f64,
}

/// Steps of the R5 sequence (Roberts' generalised golden ratio): the
/// fractional parts of 1/g, 1/g², …, 1/g⁵, where g is the positive root of
/// x⁶ = x + 1. Since x⁶ − x − 1 is irreducible, the steps and 1 are
/// rationally independent, so no coordinate is a function of another.
const STEPS: [f64; 5] = [
    0.881_271_461_633_569_6,
    0.776_639_389_089_768_1,
    0.684_430_129_585_342_5,
    0.603_168_740_685_728_2,
    0.531_555_397_715_791_2,
];

/// Point `index` of the Kronecker sequence with [`STEPS`], shifted by a
/// draw from `root`: each coordinate is uniform on [0, 1), and any run of
/// consecutive points covers the unit 5-cube evenly.
fn coords(root: u64, index: u64) -> [f64; 5] {
    let mut shift = seed::derive(root, u64::MAX);
    STEPS.map(|step| (uniform(&mut shift, 0.0, 1.0) + index as f64 * step).fract())
}

/// Job `index` of the set derived from `root`. Its size, speed floor,
/// crash probability, straggler factor and margin are the coordinates of
/// [`coords`] rather than independent draws: each parameter keeps its
/// distribution, every pair of them covers its joint range, and any run
/// of consecutive jobs does so evenly, so the op mix — and with it the
/// cost of a run — changes little from seed to seed. Speeds and fault
/// times are independent draws.
pub fn job(params: &Params, root: u64, index: u64) -> Result<Job, String> {
    let coords = coords(root, index);
    let within = |c: usize, lo: f64, hi: f64| lo + (hi - lo) * coords[c];
    // n log-uniform in [16, 256]; speed floor uniform in [0.05, 0.9].
    let n = within(0, 16f64.ln(), 256f64.ln()).exp().round() as usize;
    let lo = within(1, 0.05, 0.9);
    let mut s = seed::derive(root, index);
    let profile = random_profile(
        &mut rng_from_seed(seed::next(&mut s)),
        GenConfig::new(n).with_lo(lo),
        Shape::Uniform,
    );
    let faults = FaultPlan::sample(
        &FaultConfig {
            crash_p: within(2, 0.0, 0.3),
            straggler_count: 1,
            straggler_factor: within(3, 1.5, 4.0),
            loss_p: 0.2,
            loss_max: 1,
            ..FaultConfig::default()
        },
        n,
        LIFESPAN,
        seed::next(&mut s),
    )
    .map_err(|e| format!("fault plan: {e}"))?;
    let margin = if coords[4] < 0.5 { 0.0 } else { 0.1 };
    let optimum = xmeasure::work(params, &profile, LIFESPAN);
    Ok(Job {
        profile,
        faults,
        margin,
        optimum,
    })
}

/// The job set derived from `root`.
pub fn jobs(params: &Params, root: u64, count: usize) -> Result<Vec<Job>, String> {
    (0..count as u64).map(|i| job(params, root, i)).collect()
}

/// One `faulted` client over a shared job set.
pub struct Faulted<'a> {
    params: Params,
    jobs: &'a [Job],
    fractions: [f64; 4],
}

impl<'a> Faulted<'a> {
    /// A client drawing ops from `jobs`.
    pub fn new(params: Params, jobs: &'a [Job]) -> Self {
        Faulted {
            params,
            jobs,
            fractions: [0.0; 4],
        }
    }
}

impl Client for Faulted<'_> {
    fn op(&mut self, index: u64, tr: &mut Tracer) -> Result<(Instant, Instant), String> {
        let job = &self.jobs[index as usize % self.jobs.len()];
        let (p, profile, faults) = (&self.params, &job.profile, &job.faults);
        let n = profile.n();
        let hedge = replan::HedgePolicy {
            margin: job.margin,
            ..replan::HedgePolicy::default()
        };

        let start = Instant::now();
        let plan = tr
            .span(LAYERS[0], index, || alloc::fifo_plan(p, profile, LIFESPAN))
            .map_err(|e| format!("fifo_plan: {e}"))?;
        let pristine = tr.span(LAYERS[1], index, || exec::execute(p, profile, &plan));
        let oblivious = tr
            .span(LAYERS[2], index, || {
                fault_exec::execute_with_faults(p, profile, &plan, faults)
            })
            .map_err(|e| format!("execute_with_faults: {e}"))?;
        let adaptive = tr
            .span(LAYERS[3], index, || {
                replan::execute_adaptive(p, profile, &plan, faults, &hedge)
            })
            .map_err(|e| format!("execute_adaptive: {e}"))?;
        let xchg = tr
            .span(LAYERS[4], index, || {
                exchange::execute_exchange(
                    p,
                    profile,
                    &plan,
                    faults,
                    &ExchangePolicy {
                        fallback: hedge,
                        ..ExchangePolicy::default()
                    },
                )
            })
            .map_err(|e| format!("execute_exchange: {e}"))?;
        let assignment = tr
            .span(LAYERS[5], index, || {
                coded::mds_assignment(p, profile, LIFESPAN, n - n / 4)
            })
            .map_err(|e| format!("mds_assignment: {e}"))?;
        let mds = tr
            .span(LAYERS[6], index, || {
                coded::execute_coded(p, profile, &assignment, faults)
            })
            .map_err(|e| format!("execute_coded: {e}"))?;
        let end = Instant::now();

        let optimum = job.optimum;
        let done = pristine.work_completed_by(LIFESPAN);
        if (done - optimum).abs() > SLACK * optimum {
            return Err(format!("pristine work {done} != optimum {optimum}"));
        }
        let violations = validate::validate(p, profile, &pristine);
        if !violations.is_empty() {
            return Err(format!("pristine run violates {:?}", violations[0]));
        }
        let works = [
            oblivious.work_completed_by(LIFESPAN),
            adaptive.work_completed_by(LIFESPAN),
            xchg.work_completed_by(LIFESPAN),
            mds.work_completed_by(LIFESPAN),
        ];
        for (name, work) in FRACTIONS.iter().zip(works) {
            if !(work.is_finite() && work >= 0.0 && work <= optimum * (1.0 + SLACK)) {
                return Err(format!("{name}: work {work} beyond optimum {optimum}"));
            }
        }
        for (sum, work) in self.fractions.iter_mut().zip(works) {
            *sum += work / optimum;
        }
        Ok((start, end))
    }

    fn take_outcomes(&mut self) -> Vec<(&'static str, f64)> {
        let sums = std::mem::take(&mut self.fractions);
        FRACTIONS.iter().copied().zip(sums).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_are_a_function_of_the_seed() {
        let p = Params::paper_table1();
        let a = jobs(&p, 7, 24).unwrap();
        let b = jobs(&p, 7, 24).unwrap();
        let c = jobs(&p, 8, 24).unwrap();
        let key = |js: &[Job]| -> Vec<(Vec<u64>, u64, u64)> {
            js.iter()
                .map(|j| {
                    let rhos = j.profile.rhos().iter().map(|r| r.to_bits()).collect();
                    (rhos, j.faults.fingerprint(), j.margin.to_bits())
                })
                .collect()
        };
        assert_eq!(key(&a), key(&b));
        assert_ne!(key(&a), key(&c));
        for j in &a {
            assert!((16..=256).contains(&j.profile.n()), "n = {}", j.profile.n());
        }
    }

    #[test]
    fn no_job_parameter_is_a_function_of_another() {
        // Over 1024 consecutive jobs, every pair of coordinates (size vs
        // straggler factor among them) reaches all cells of an 8×8 grid.
        for root in [1, 2, 3] {
            let points: Vec<[f64; 5]> = (0..1024).map(|i| coords(root, i)).collect();
            for a in 0..5 {
                for b in a + 1..5 {
                    let mut cells = [[false; 8]; 8];
                    for c in &points {
                        cells[(c[a] * 8.0) as usize][(c[b] * 8.0) as usize] = true;
                    }
                    let hit = cells.iter().flatten().filter(|&&h| h).count();
                    assert_eq!(hit, 64, "root {root}: coordinates {a} and {b}");
                }
            }
        }
    }

    #[test]
    fn same_seed_gives_the_same_check_results() {
        let p = Params::paper_table1();
        let set = jobs(&p, 11, 16).unwrap();
        let run = || {
            let mut c = Faulted::new(p, &set);
            let mut tr = Tracer::new(false);
            let ok: Vec<bool> = (0..16).map(|i| c.op(i, &mut tr).is_ok()).collect();
            let sums: Vec<u64> = c.take_outcomes().iter().map(|o| o.1.to_bits()).collect();
            (ok, sums)
        };
        let (ok, fractions) = run();
        assert!(ok.iter().all(|&x| x), "every op passes its checks");
        assert_eq!(run(), (ok, fractions));
    }
}
