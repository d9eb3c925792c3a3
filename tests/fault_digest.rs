//! Large-n bit-identity golden for the four faulted protocol families.
//!
//! The byte-pinned Chrome goldens (`fault2`, `exchange2`) cover two
//! workers. This test runs oblivious, adaptive, exchange and coded
//! execution over seeded jobs at n ∈ {16, 64, 256}, under the paper's
//! Table 1 parameters and a τδ-heavy set that leaves room for top-ups,
//! with sampled crashes, stragglers, jitter and result losses plus
//! hand-added specs the sampler never draws: overlapping mid-run
//! slowdown windows, duplicate crashes and workers outside the cluster.
//! Every span (entity, label, start/end bits, causal parent), and every
//! package of each run's ledger (arrival, final size, top-up, trade) and
//! counter is folded into one `u64`, so any change to a single float bit
//! or a single event order of any run moves the pinned value.

use hetero_clustergen::{random_profile, rng_from_seed, GenConfig, Shape};
use hetero_core::{Params, Profile};
use hetero_faults::{FaultConfig, FaultPlan, FaultSpec};
use hetero_par::seed;
use hetero_protocol::coded::{execute_coded, mds_assignment};
use hetero_protocol::exchange::{execute_exchange, ExchangePolicy};
use hetero_protocol::exec::{Execution, Package};
use hetero_protocol::replan::{execute_adaptive, hedged_lifespan, HedgePolicy};
use hetero_protocol::{alloc, baseline, exec, fault_exec};
use hetero_sim::{Label, SimTime, Trace};

const LIFESPAN: f64 = 600.0;

/// The value every run folds to; see the module docs.
const GOLDEN: u64 = 0xb900_3edc_3a6f_d01c;

/// The value the policy-variant runs fold to; see
/// `policy_variants_fold_to_the_pinned_digest`.
const VARIANT_GOLDEN: u64 = 0x6334_0776_a28a_6d11;

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

    fn floats(&mut self, xs: impl ExactSizeIterator<Item = f64>) {
        self.absorb(xs.len() as u64);
        xs.for_each(|x| self.float(x));
    }

    /// The count of `packages`, then each one's arrival.
    fn arrivals(&mut self, packages: &[Package]) {
        self.absorb(packages.len() as u64);
        packages.iter().for_each(|p| self.time(p.arrival));
    }

    fn trace(&mut self, trace: &Trace) {
        self.absorb(trace.spans().len() as u64);
        for (span, parent) in trace.spans().iter().zip(trace.parents()) {
            self.absorb(span.entity as u64);
            let label = span.label.to_string();
            self.absorb(label.len() as u64);
            label.bytes().for_each(|b| self.absorb(u64::from(b)));
            self.float(span.start.get());
            self.float(span.end.get());
            self.absorb(parent.map_or(u64::MAX, |p| p as u64));
        }
    }

    /// An adaptive run under `hedge`: its appended packages are the
    /// top-up round.
    fn adaptive(&mut self, run: &Execution, hedge: &HedgePolicy) {
        self.trace(&run.trace);
        self.arrivals(run.planned());
        self.floats(run.planned().iter().map(|p| p.work));
        self.absorb(run.appended().len() as u64);
        for t in run.appended() {
            self.absorb(t.worker as u64);
            self.float(t.work);
            self.time(t.arrival);
        }
        for c in [
            run.replans,
            run.skipped_sends,
            run.lost_messages,
            run.retransmits,
        ] {
            self.absorb(u64::from(c));
        }
        self.float(hedged_lifespan(run.plan.lifespan, hedge.margin));
    }

    /// An exchange run: its traded residuals are the appended packages
    /// that name the position they came from (a degraded run has none).
    fn exchange(&mut self, run: &Execution) {
        self.absorb(u64::from(run.degraded));
        self.trace(&run.trace);
        self.arrivals(run.planned());
        self.floats(run.planned().iter().map(|p| p.work));
        let traded: Vec<(usize, &Package)> = run
            .appended()
            .iter()
            .filter_map(|x| Some((x.from?, x)))
            .collect();
        self.absorb(traded.len() as u64);
        for (from, x) in traded {
            self.absorb(from as u64);
            self.absorb(x.position as u64);
            self.float(x.work);
            self.time(x.arrival);
        }
        self.absorb(u64::from(run.lost_messages));
        self.absorb(u64::from(run.retransmits));
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
    d.arrivals(oblivious.planned());
    d.floats(oblivious.planned().iter().map(|p| p.service));
    d.absorb(u64::from(oblivious.lost_messages));
    d.absorb(u64::from(oblivious.retransmits));

    let adaptive = execute_adaptive(params, profile, &plan, faults, &hedge).unwrap();
    d.adaptive(&adaptive, &hedge);

    let policy = ExchangePolicy {
        fallback: hedge,
        ..ExchangePolicy::default()
    };
    let xchg = execute_exchange(params, profile, &plan, faults, &policy).unwrap();
    d.exchange(&xchg);

    let assignment = mds_assignment(params, profile, LIFESPAN, n - n / 4).unwrap();
    let mds = execute_coded(params, profile, &assignment, faults).unwrap();
    d.trace(&mds.run.trace);
    d.arrivals(mds.run.planned());
    d.absorb(u64::from(mds.run.lost_messages));
    d.absorb(u64::from(mds.decode().is_ok()));

    cov.runs += 4;
    cov.topups += adaptive.appended().len();
    cov.trades += xchg.appended().iter().filter(|x| x.from.is_some()).count();
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

/// What the policy-variant runs exercised.
#[derive(Default)]
struct VariantCoverage {
    runs: usize,
    degraded: usize,
    adaptive_lost: u32,
    adaptive_retransmits: u32,
    delayed_retransmits: usize,
}

/// Spans caused by a lost transit that start after it ended: the
/// retransmissions that waited out a backoff.
fn delayed_retransmits(trace: &Trace) -> usize {
    let spans = trace.spans();
    spans
        .iter()
        .zip(trace.parents())
        .filter(|(span, parent)| {
            parent.and_then(|p| spans.get(p)).is_some_and(|lost| {
                matches!(lost.label, Label::XmitResult { lost: true, .. }) && span.start > lost.end
            })
        })
        .count()
}

/// Runs one job through the pristine executor on its FIFO and
/// equal-split plans, the adaptive family under three non-default hedge
/// policies and the exchange family under round budgets 0 and 1.
fn run_variants(
    d: &mut Digest,
    cov: &mut VariantCoverage,
    params: &Params,
    profile: &Profile,
    faults: &FaultPlan,
    margin: f64,
) {
    let fifo = alloc::fifo_plan(params, profile, LIFESPAN).unwrap();
    let equal = baseline::equal_split_plan(params, profile, LIFESPAN).unwrap();
    d.absorb(faults.fingerprint());
    for plan in [&fifo, &equal] {
        let run = exec::execute(params, profile, plan);
        d.trace(&run.trace);
        d.absorb(run.planned().len() as u64);
        for p in run.planned() {
            d.float(
                p.arrival
                    .expect("a pristine run delivers every package")
                    .get(),
            );
        }
    }

    let base = HedgePolicy {
        margin,
        ..HedgePolicy::default()
    };
    let hedges = [
        HedgePolicy {
            max_retries: 0,
            ..base
        },
        HedgePolicy {
            max_retries: 1,
            retry_backoff: 0.5,
            ..base
        },
        HedgePolicy {
            degrade: false,
            topup: false,
            ..base
        },
    ];
    for (i, hedge) in hedges.iter().enumerate() {
        let run = execute_adaptive(params, profile, &fifo, faults, hedge).unwrap();
        d.adaptive(&run, hedge);
        cov.adaptive_lost += run.lost_messages;
        cov.adaptive_retransmits += run.retransmits;
        if i == 1 {
            cov.delayed_retransmits += delayed_retransmits(&run.trace);
        }
    }

    for max_rounds in [0, 1] {
        let policy = ExchangePolicy {
            max_rounds,
            fallback: base,
        };
        let run = execute_exchange(params, profile, &fifo, faults, &policy).unwrap();
        d.exchange(&run);
        cov.degraded += usize::from(run.degraded);
    }
    cov.runs += 7;
}

#[test]
fn policy_variants_fold_to_the_pinned_digest() {
    let mut d = Digest(0x7A21_A275);
    let mut cov = VariantCoverage::default();
    let mut job = 1000u64;
    for n in [16usize, 64] {
        let heavy = Params::new(0.064 / n as f64, 0.016 / n as f64, 1.0).unwrap();
        for params in &[Params::paper_table1(), heavy] {
            for (crash_p, margin) in [(0.1, 0.0), (0.3, 0.1)] {
                job += 1;
                let lo = 0.05 + (job % 7) as f64 * 0.1;
                let profile = random_profile(
                    &mut rng_from_seed(seed::derive(0xC1A5_7E25, job)),
                    GenConfig::new(n).with_lo(lo),
                    Shape::Uniform,
                );
                let faults = job_faults(n, crash_p, job);
                run_variants(&mut d, &mut cov, params, &profile, &faults, margin);
            }
        }
    }
    // Jobs no straggler can trade in, so exchange falls back to adaptive
    // replanning: a single worker (the sampler always slows it from
    // t = 0), and a cluster whose every worker straggles from t = 0.
    for (n, margin) in [(1usize, 0.0), (1, 0.1), (16, 0.0), (16, 0.1)] {
        job += 1;
        let profile = random_profile(
            &mut rng_from_seed(seed::derive(0xC1A5_7E25, job)),
            GenConfig::new(n).with_lo(0.25),
            Shape::Uniform,
        );
        let mut specs = job_faults(n, 0.1, job).specs().to_vec();
        if n > 1 {
            specs.extend((0..n).map(|worker| FaultSpec::Slowdown {
                worker,
                factor: 1.5,
                from: 0.0,
                until: LIFESPAN,
            }));
        }
        let faults = FaultPlan::new(specs).unwrap();
        run_variants(
            &mut d,
            &mut cov,
            &Params::paper_table1(),
            &profile,
            &faults,
            margin,
        );
    }
    assert_eq!(cov.runs, 84);
    assert!(cov.degraded > 0, "no exchange run degraded");
    assert!(
        cov.adaptive_lost > cov.adaptive_retransmits,
        "the retry budget never ran out: {} lost, {} retransmitted",
        cov.adaptive_lost,
        cov.adaptive_retransmits
    );
    assert!(cov.delayed_retransmits > 0, "no retransmission backed off");
    assert_eq!(
        d.0, VARIANT_GOLDEN,
        "digest {:#018x} over {} runs ({} degraded, {} delayed retransmits)",
        d.0, cov.runs, cov.degraded, cov.delayed_retransmits
    );
}
