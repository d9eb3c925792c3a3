//! Large-n bit-identity golden for the four faulted protocol families.
//!
//! The byte-pinned Chrome goldens (`fault2`, `exchange2`) cover two
//! workers. This test runs oblivious, adaptive, exchange and coded
//! execution over seeded jobs at n ∈ {16, 64, 256}, under the paper's
//! Table 1 parameters and a τδ-heavy set that leaves room for top-ups,
//! with sampled crashes, stragglers, jitter and result losses plus
//! hand-added specs the sampler never draws: overlapping mid-run
//! slowdown windows, duplicate crashes and workers outside the cluster.
//! Every span (entity, label, start/end bits, causal parent), arrival,
//! final package size, top-up, trade and counter is folded into one
//! `u64`, so any change to a single float bit or a single event order
//! of any run moves the pinned value.

use hetero_clustergen::{random_profile, rng_from_seed, GenConfig, Shape};
use hetero_core::{Params, Profile};
use hetero_faults::{FaultConfig, FaultPlan, FaultSpec};
use hetero_par::seed;
use hetero_protocol::coded::{execute_coded, mds_assignment};
use hetero_protocol::exchange::{execute_exchange, ExchangePolicy};
use hetero_protocol::replan::{execute_adaptive, HedgePolicy};
use hetero_protocol::{alloc, fault_exec};
use hetero_sim::{SimTime, Trace};

const LIFESPAN: f64 = 600.0;

/// The value every run folds to; see the module docs.
const GOLDEN: u64 = 0xb900_3edc_3a6f_d01c;

/// A running SplitMix64 fold.
struct Digest(u64);

impl Digest {
    fn absorb(&mut self, v: u64) {
        self.0 = seed::mix(self.0 ^ v);
    }

    fn float(&mut self, x: f64) {
        self.absorb(x.to_bits());
    }

    fn time(&mut self, t: Option<SimTime>) {
        match t {
            Some(t) => {
                self.absorb(1);
                self.float(t.get());
            }
            None => self.absorb(0),
        }
    }

    fn floats(&mut self, xs: &[f64]) {
        self.absorb(xs.len() as u64);
        xs.iter().for_each(|&x| self.float(x));
    }

    fn times(&mut self, ts: &[Option<SimTime>]) {
        self.absorb(ts.len() as u64);
        ts.iter().for_each(|&t| self.time(t));
    }

    fn trace(&mut self, trace: &Trace) {
        self.absorb(trace.spans().len() as u64);
        for (span, parent) in trace.spans().iter().zip(trace.parents()) {
            self.absorb(span.entity as u64);
            self.absorb(span.label.len() as u64);
            span.label.bytes().for_each(|b| self.absorb(u64::from(b)));
            self.float(span.start.get());
            self.float(span.end.get());
            self.absorb(parent.map_or(u64::MAX, |p| p as u64));
        }
    }
}

/// What the runs exercised, so the digest is known to cover them.
#[derive(Default)]
struct Coverage {
    runs: usize,
    topups: usize,
    trades: usize,
    skipped_sends: u32,
    replans: u32,
    lost_messages: u32,
}

/// The fault plan of one job: a seeded sample plus the hand-added specs.
fn job_faults(n: usize, crash_p: f64, job: u64) -> FaultPlan {
    let mut s = seed::derive(0x5EED_D16E, job);
    let sampled = FaultPlan::sample(
        &FaultConfig {
            crash_p,
            straggler_count: 1 + (job % 2) as usize,
            straggler_factor: 1.3 + (job % 5) as f64 * 0.45,
            jitter_p: if job.is_multiple_of(3) { 1.0 } else { 0.0 },
            jitter_factor: if job.is_multiple_of(2) { 1.5 } else { 0.75 },
            loss_p: 0.2,
            loss_max: 2,
        },
        n,
        LIFESPAN,
        seed::next(&mut s),
    )
    .unwrap();
    let mut specs = sampled.specs().to_vec();
    let pick = |s: &mut u64| (seed::next(s) % n as u64) as usize;
    let (slow, crash) = (pick(&mut s), pick(&mut s));
    // Overlapping mid-run windows on one worker: their factors compound
    // where they meet, and the earliest opens after the first sends.
    // Where all three meet, (1.25·1.3)·1.7 and (1.7·1.3)·1.25 differ in
    // the last bit, so the product's order shows in the digest.
    let windows = [
        (1.25, 0.002, 0.4 * LIFESPAN),
        (1.3, 0.1 * LIFESPAN, 0.7 * LIFESPAN),
        (1.7, 0.05 * LIFESPAN, 0.5 * LIFESPAN),
    ];
    for (factor, from, until) in windows {
        specs.push(FaultSpec::Slowdown {
            worker: slow,
            factor,
            from,
            until,
        });
    }
    // Duplicate crashes: an exact repeat and an earlier one.
    let at = 0.5 * LIFESPAN;
    specs.push(FaultSpec::Crash { worker: crash, at });
    specs.push(FaultSpec::Crash { worker: crash, at });
    specs.push(FaultSpec::Crash {
        worker: crash,
        at: 0.25 * LIFESPAN,
    });
    // Workers the cluster does not have: never queried, never applied.
    specs.push(FaultSpec::Crash {
        worker: n + 3,
        at: 0.0,
    });
    specs.push(FaultSpec::Slowdown {
        worker: n,
        factor: 4.0,
        from: 0.0,
        until: LIFESPAN,
    });
    FaultPlan::new(specs).unwrap()
}

/// Runs one job through all four families and folds their outcomes.
fn run_job(
    d: &mut Digest,
    cov: &mut Coverage,
    params: &Params,
    profile: &Profile,
    faults: &FaultPlan,
    margin: f64,
) {
    let n = profile.n();
    let plan = alloc::fifo_plan(params, profile, LIFESPAN).unwrap();
    let hedge = HedgePolicy {
        margin,
        ..HedgePolicy::default()
    };
    d.absorb(faults.fingerprint());

    let oblivious = fault_exec::execute_with_faults(params, profile, &plan, faults).unwrap();
    d.trace(&oblivious.trace);
    d.times(&oblivious.arrivals);
    d.floats(&oblivious.realized_service);
    d.absorb(u64::from(oblivious.lost_messages));
    d.absorb(u64::from(oblivious.retransmits));

    let adaptive = execute_adaptive(params, profile, &plan, faults, &hedge).unwrap();
    d.trace(&adaptive.trace);
    d.times(&adaptive.arrivals);
    d.floats(&adaptive.final_work);
    d.absorb(adaptive.topups.len() as u64);
    for t in &adaptive.topups {
        d.absorb(t.worker as u64);
        d.float(t.work);
        d.time(t.arrival);
    }
    for c in [
        adaptive.replans,
        adaptive.skipped_sends,
        adaptive.lost_messages,
        adaptive.retransmits,
    ] {
        d.absorb(u64::from(c));
    }
    d.float(adaptive.hedged_lifespan);

    let policy = ExchangePolicy {
        fallback: hedge,
        ..ExchangePolicy::default()
    };
    let xchg = execute_exchange(params, profile, &plan, faults, &policy).unwrap();
    d.absorb(u64::from(xchg.degraded()));
    d.trace(&xchg.trace);
    d.times(&xchg.arrivals);
    d.floats(&xchg.final_work);
    d.absorb(xchg.exchanges.len() as u64);
    for x in &xchg.exchanges {
        d.absorb(x.from as u64);
        d.absorb(x.to as u64);
        d.float(x.work);
        d.time(x.arrival);
    }
    d.absorb(u64::from(xchg.lost_messages));
    d.absorb(u64::from(xchg.retransmits));

    let assignment = mds_assignment(params, profile, LIFESPAN, n - n / 4).unwrap();
    let mds = execute_coded(params, profile, &assignment, faults).unwrap();
    d.trace(&mds.trace);
    d.times(&mds.arrivals);
    d.absorb(u64::from(mds.lost_messages));
    d.absorb(u64::from(mds.decode().is_ok()));

    cov.runs += 4;
    cov.topups += adaptive.topups.len();
    cov.trades += xchg.exchanges.len();
    cov.skipped_sends += adaptive.skipped_sends;
    cov.replans += adaptive.replans;
    cov.lost_messages += oblivious.lost_messages;
}

#[test]
fn four_families_fold_to_the_pinned_digest_at_large_n() {
    let mut d = Digest(0xD16E_57ED);
    let mut cov = Coverage::default();
    let mut job = 0u64;
    for n in [16usize, 64, 256] {
        // The τδ-heavy set is (0.004, 0.001, 1) at n = 16, scaled by 16/n
        // so that the plan stays feasible (A·X < 1) as the cluster grows.
        let heavy = Params::new(0.064 / n as f64, 0.016 / n as f64, 1.0).unwrap();
        for params in &[Params::paper_table1(), heavy] {
            for margin in [0.0, 0.1] {
                for crash_p in [0.0, 0.1, 0.3] {
                    for _ in 0..3 {
                        job += 1;
                        let lo = 0.05 + (job % 7) as f64 * 0.1;
                        let profile = random_profile(
                            &mut rng_from_seed(seed::derive(0xC1A5_7E25, job)),
                            GenConfig::new(n).with_lo(lo),
                            Shape::Uniform,
                        );
                        let faults = job_faults(n, crash_p, job);
                        run_job(&mut d, &mut cov, params, &profile, &faults, margin);
                    }
                }
            }
        }
    }
    assert_eq!(cov.runs, 432);
    assert!(cov.topups > 0, "no top-up round ran");
    assert!(cov.trades > 0, "no work exchange ran");
    assert!(cov.skipped_sends > 0, "no send was skipped");
    assert!(cov.replans > 0 && cov.lost_messages > 0);
    assert_eq!(
        d.0, GOLDEN,
        "digest {:#018x} over {} runs ({} top-ups, {} trades, {} skipped sends)",
        d.0, cov.runs, cov.topups, cov.trades, cov.skipped_sends
    );
}
