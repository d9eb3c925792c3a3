//! Discrete-event execution of worksharing plans.
//!
//! The executor replays the paper's protocol (§2.2) literally: it is the
//! empty policy — no fault, no reaction — on the crate's one event engine
//! (the crate-private `engine` module, built on `hetero-sim`):
//!
//! 1. the server packages and transmits each position's work package
//!    seriatim — each send is a contiguous `(π+τ)w` block, matching the
//!    `C0` row of Figure 2;
//! 2. a worker receiving `w` units unpackages (`πρw`), computes (`ρw`),
//!    and packages results (`πρδw`) back to back — the `Bρw` block;
//! 3. results transit the network (`τδw`) under the *single message in
//!    transit* constraint (one [`UnitResource`] carries every message,
//!    work and results alike), then the server unpackages them (`πδw`).
//!
//! Entity layout in the produced [`Trace`]: `0` = server, `1..=n` =
//! workers (`1 + profile index`), `n+1` = the network channel.
//!
//! Every worksharing family returns the same [`Execution`]: the trace,
//! the plan, one [`Package`] per engine slot and the run's counts. Its
//! accounting applies the paper's completion criterion — a package's
//! work counts once its results are back at the server — with one
//! tolerance, [`COMPLETION_SLACK`].
//!
//! [`UnitResource`]: hetero_sim::UnitResource

use hetero_core::{Params, Profile};
use hetero_faults::FaultPlan;
use hetero_sim::{SimTime, Trace};

use crate::alloc::Plan;
use crate::engine::{self, NoSpans};
use crate::fault_exec::ExecError;

/// Entity id of the server in execution traces.
pub const SERVER: usize = 0;

/// Entity id of worker with profile index `i`.
pub fn worker_entity(index: usize) -> usize {
    index + 1
}

/// Entity id of the network channel for an `n`-computer cluster.
pub fn channel_entity(n: usize) -> usize {
    n + 1
}

/// Relative slack of the paper's completion criterion: float round-off
/// may land a result a few ulps past the lifespan.
pub const COMPLETION_SLACK: f64 = 1e-9;

/// The latest arrival that still counts as back by `t`:
/// `t·(1 + COMPLETION_SLACK)`.
pub(crate) fn cutoff(t: f64) -> f64 {
    t * (1.0 + COMPLETION_SLACK)
}

/// One package of a run: a planned position, or one a policy appended
/// (a top-up round, or a residual traded to a donor).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Package {
    /// Profile index of the worker that served it.
    pub worker: usize,
    /// That worker's startup position in the plan.
    pub position: usize,
    /// For a traded residual, the position it was traded from.
    pub from: Option<usize>,
    /// Work units it carried, after any replan resize or trade split.
    pub work: f64,
    /// When its results reached the server; `None` when a fault
    /// destroyed them, the send was skipped or the loss was given up.
    pub arrival: Option<SimTime>,
    /// Realized worker busy time: slowdown-stretched, crash-truncated.
    pub service: f64,
}

/// The outcome of a run of any worksharing family: the trace, the plan
/// and the package ledger.
#[derive(Debug, Clone)]
pub struct Execution {
    /// Action/time record of every entity (crash-truncated phases carry
    /// a `†crash` suffix, lost transits a `†lost` one, skipped sends are
    /// zero-width `skip→C*` markers).
    pub trace: Trace,
    /// The plan the run started from.
    pub plan: Plan,
    /// One package per engine slot: the plan's positions first, in
    /// startup order, then whatever a policy appended.
    pub packages: Vec<Package>,
    /// Result messages that vanished in transit.
    pub lost_messages: u32,
    /// Retransmissions performed to recover lost messages.
    pub retransmits: u32,
    /// Suffix re-optimizations performed.
    pub replans: u32,
    /// Sends skipped (known-crashed targets and degradation).
    pub skipped_sends: u32,
    /// A work-exchange run found a straggler with no donor and was
    /// replayed under adaptive replanning; this is that replay.
    pub degraded: bool,
}

impl Execution {
    /// The packages of the plan's positions, in startup order.
    pub fn planned(&self) -> &[Package] {
        self.split().0
    }

    /// The packages a policy appended, in the order it appended them.
    pub fn appended(&self) -> &[Package] {
        self.split().1
    }

    fn split(&self) -> (&[Package], &[Package]) {
        let n = self.plan.order.len().min(self.packages.len());
        self.packages.split_at(n)
    }

    /// The latest result arrival among the packages that returned.
    pub fn last_arrival(&self) -> Option<SimTime> {
        self.packages.iter().filter_map(|p| p.arrival).max()
    }

    /// Total work units whose results had arrived by
    /// `t·(1 +`[`COMPLETION_SLACK`]`)`: the planned packages summed in
    /// startup order, then the appended ones, then the two added. A run
    /// that delivered nothing reads `+0.0`.
    pub fn work_completed_by(&self, t: f64) -> f64 {
        let cutoff = cutoff(t);
        // hetero-check: allow(float-accum) — fixed slot order; pinned goldens cover these bits
        let done = |packages: &[Package]| -> f64 {
            packages
                .iter()
                .filter(|p| p.arrival.is_some_and(|a| a.get() <= cutoff))
                .map(|p| p.work)
                .sum()
        };
        let (planned, appended) = self.split();
        // An empty sum is -0.0; adding +0.0 changes that and nothing else.
        done(planned) + done(appended) + 0.0
    }

    /// `true` when some results arrived after
    /// `lifespan·(1 +`[`COMPLETION_SLACK`]`)`: late work the completion
    /// criterion refuses to count. Destroyed results are lost throughput,
    /// not a deadline miss.
    pub fn missed_deadline(&self, lifespan: f64) -> bool {
        let cutoff = cutoff(lifespan);
        self.packages
            .iter()
            .filter_map(|p| p.arrival)
            .any(|a| a.get() > cutoff)
    }

    /// The end of the last recorded activity (including the server's final
    /// unpackaging, which the completion criterion does not count).
    pub fn makespan(&self) -> SimTime {
        self.trace.makespan()
    }
}

/// Executes `plan` on `profile` and returns the full [`Execution`].
///
/// # Panics
/// Panics if the plan's order is not a permutation of the profile's
/// indices (construct plans through [`crate::alloc`] / [`crate::baseline`]
/// to avoid this), or if a package size makes a negative or non-finite
/// duration.
pub fn execute(params: &Params, profile: &Profile, plan: &Plan) -> Execution {
    let none = FaultPlan::empty();
    let run = engine::oblivious(params, profile, plan, &none, Trace::new());
    expect_pristine(run).into_execution(plan)
}

/// The latest result arrival of `plan`: `execute(..).last_arrival()` bit
/// for bit, for sizing searches that only ask whether a candidate plan
/// lands by its lifespan. Records no span, clones no plan and feeds no
/// collector.
///
/// # Panics
/// As [`execute`].
pub(crate) fn last_arrival(params: &Params, profile: &Profile, plan: &Plan) -> Option<SimTime> {
    let none = FaultPlan::empty();
    let run = expect_pristine(engine::oblivious(params, profile, plan, &none, NoSpans));
    run.st.slots.iter().filter_map(|slot| slot.arrival).max()
}

/// A fault-free run fails only on a caller's bug; report it as the
/// simulator's panicking wrappers (`UnitResource::acquire`,
/// `Trace::record_caused`) do.
fn expect_pristine<T>(run: Result<T, ExecError>) -> T {
    run.unwrap_or_else(|e| match e {
        // hetero-check: allow(panic) — documented contract of execute and last_arrival: a negative or non-finite package is a caller bug
        ExecError::Grant(e) => panic!("invalid duration: {e:?}"),
        // hetero-check: allow(panic) — documented contract of execute and last_arrival: a malformed plan is a caller bug
        e => panic!("{e}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::{fifo_plan, fifo_plan_ordered, theorem2_work};
    use hetero_sim::Label;

    fn params() -> Params {
        Params::paper_table1()
    }

    #[test]
    fn single_worker_timeline_matches_fig1() {
        // Figure 1: π0w | τw | πiw | ρiw | πiδw | τδw | π0δw.
        let p = params();
        let profile = Profile::new(vec![0.5]).unwrap();
        let w = 10.0;
        let plan = Plan {
            order: vec![0],
            work: vec![w],
            lifespan: 1e9,
        };
        let run = execute(&p, &profile, &plan);
        let rho = 0.5;
        let expect_arrival = p.pi() * w + p.tau() * w + p.b() * rho * w + p.tau() * p.delta() * w;
        let arrival = run.packages[0].arrival.unwrap().get();
        assert!((arrival - expect_arrival).abs() < 1e-9);
        // Makespan additionally includes the server's final unpackaging.
        let expect_makespan = expect_arrival + p.pi() * p.delta() * w;
        assert!((run.makespan().get() - expect_makespan).abs() < 1e-9);
    }

    #[test]
    fn optimal_plan_finishes_exactly_at_lifespan() {
        let p = params();
        let profile = Profile::new(vec![1.0, 0.5, 0.25]).unwrap();
        let lifespan = 3600.0;
        let plan = fifo_plan(&p, &profile, lifespan).unwrap();
        let run = execute(&p, &profile, &plan);
        let last = run.last_arrival().unwrap().get();
        assert!(
            (last - lifespan).abs() / lifespan < 1e-9,
            "no-gap optimum uses the whole lifespan: {last} vs {lifespan}"
        );
    }

    #[test]
    fn executed_work_matches_theorem2() {
        // Theorem 2 validated behaviourally: the event-driven execution of
        // the closed-form plan completes exactly W(L;P) work by L.
        let p = params();
        for profile in [
            Profile::harmonic(5),
            Profile::uniform_spread(8),
            Profile::new(vec![1.0, 0.9, 0.2, 0.01]).unwrap(),
        ] {
            let lifespan = 1000.0;
            let plan = fifo_plan(&p, &profile, lifespan).unwrap();
            let run = execute(&p, &profile, &plan);
            let done = run.work_completed_by(lifespan);
            let closed = theorem2_work(&p, &profile, lifespan);
            assert!(
                (done - closed).abs() / closed < 1e-9,
                "n={}: {done} vs {closed}",
                profile.n()
            );
        }
    }

    #[test]
    fn theorem1_all_startup_orders_equally_productive() {
        // Executed, not just computed: every startup order of the FIFO
        // protocol completes the same work by L.
        let p = params();
        let profile = Profile::new(vec![1.0, 0.5, 1.0 / 3.0, 0.25]).unwrap();
        let lifespan = 250.0;
        let orders: [&[usize]; 4] = [&[0, 1, 2, 3], &[3, 2, 1, 0], &[2, 0, 3, 1], &[1, 3, 0, 2]];
        let mut totals = Vec::new();
        for order in orders {
            let plan = fifo_plan_ordered(&p, &profile, order, lifespan).unwrap();
            let run = execute(&p, &profile, &plan);
            assert!(run.last_arrival().unwrap().get() <= lifespan * (1.0 + 1e-9));
            totals.push(run.work_completed_by(lifespan));
        }
        for w in &totals[1..] {
            assert!((w - totals[0]).abs() / totals[0] < 1e-9, "{totals:?}");
        }
    }

    #[test]
    fn workers_never_wait_for_the_channel_in_the_optimal_plan() {
        // The no-gap conditions mean each worker's results transmission
        // starts the moment packaging finishes.
        let p = params();
        let profile = Profile::harmonic(6);
        let plan = fifo_plan(&p, &profile, 500.0).unwrap();
        let run = execute(&p, &profile, &plan);
        assert!(
            !run.trace
                .spans()
                .iter()
                .any(|s| s.label == Label::WaitChannel),
            "optimal plan has no channel waits"
        );
    }

    #[test]
    fn work_completed_by_respects_cutoff() {
        let p = params();
        let profile = Profile::new(vec![1.0, 0.5]).unwrap();
        let plan = fifo_plan(&p, &profile, 100.0).unwrap();
        let run = execute(&p, &profile, &plan);
        // Before the first arrival nothing is complete; after the last,
        // everything is.
        assert_eq!(run.work_completed_by(0.5), 0.0);
        let all = run.work_completed_by(100.0);
        assert!((all - plan.total_work()).abs() < 1e-9);
        // Between the two arrivals exactly the first position counts.
        let first = run.packages[0].arrival.unwrap().get();
        let second = run.packages[1].arrival.unwrap().get();
        assert!(first < second);
        let partial = run.work_completed_by(0.5 * (first + second));
        assert!((partial - plan.work[0]).abs() < 1e-12);
    }

    /// A two-position run of plan work ⟨0.1, 0.2⟩ whose ledger is
    /// `packages`.
    fn ledger(packages: Vec<Package>) -> Execution {
        Execution {
            trace: Trace::new(),
            plan: Plan {
                order: vec![0, 1],
                work: vec![0.1, 0.2],
                lifespan: 100.0,
            },
            packages,
            lost_messages: 0,
            retransmits: 0,
            replans: 0,
            skipped_sends: 0,
            degraded: false,
        }
    }

    fn package(position: usize, work: f64, arrival: Option<f64>) -> Package {
        Package {
            worker: position,
            position,
            from: None,
            work,
            arrival: arrival.map(SimTime::new),
            service: 0.0,
        }
    }

    #[test]
    fn the_completion_rule_counts_up_to_the_cutoff_and_no_further() {
        let l = 100.0f64;
        let edge = l * (1.0 + 1e-9);
        let late = edge.next_up();
        assert_eq!(cutoff(l).to_bits(), edge.to_bits());
        // On the edge: counts, not a miss. No arrival: neither.
        let run = ledger(vec![package(0, 0.1, Some(edge)), package(1, 0.2, None)]);
        assert_eq!(run.work_completed_by(l), 0.1);
        assert!(!run.missed_deadline(l));
        // One ulp past it: does not count, and is a miss.
        let run = ledger(vec![package(0, 0.1, Some(late)), package(1, 0.2, None)]);
        assert_eq!(run.work_completed_by(l).to_bits(), 0.0f64.to_bits());
        assert!(run.missed_deadline(l));
        // An appended package counts like a planned one, on both sides
        // of the edge.
        let planned = [package(0, 0.1, Some(1.0)), package(1, 0.2, Some(edge))];
        let on_time = ledger([&planned[..], &[package(0, 0.3, Some(edge))]].concat());
        assert_eq!(on_time.appended().len(), 1);
        assert_eq!(on_time.work_completed_by(l), (0.1 + 0.2) + 0.3);
        assert!(!on_time.missed_deadline(l));
        let tardy = ledger([&planned[..], &[package(0, 0.3, Some(late))]].concat());
        assert_eq!(tardy.work_completed_by(l), 0.1 + 0.2);
        assert!(tardy.missed_deadline(l));
        assert_eq!(tardy.last_arrival(), Some(SimTime::new(late)));
        // With no deadline, everything that returned counts: the planned
        // total, then the appended one, then their sum.
        let salvaged = |ps: &[Package]| -> f64 {
            ps.iter()
                .filter(|p| p.arrival.is_some())
                .map(|p| p.work)
                .sum()
        };
        for run in [&on_time, &tardy] {
            let want = salvaged(run.planned()) + salvaged(run.appended());
            assert_eq!(
                run.work_completed_by(f64::INFINITY).to_bits(),
                want.to_bits()
            );
        }
        // Nothing delivered reads +0.0, not the empty sum's -0.0.
        let run = ledger(vec![package(0, 0.1, None), package(1, 0.2, None)]);
        assert_eq!(
            run.work_completed_by(f64::INFINITY).to_bits(),
            0.0f64.to_bits()
        );
        assert!(!run.missed_deadline(l));
        assert_eq!(run.last_arrival(), None);
    }

    /// 64-bit LCG step for the differential test's shuffles and work.
    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    #[test]
    fn untraced_probe_matches_traced_execution_bit_for_bit() {
        // δ < 1 with a slow channel: off-optimum plans queue result
        // transits behind work transits and server unpacks behind packs.
        let contended = Params::new(0.05, 0.02, 0.3).unwrap();
        let sets = [
            Params::paper_table1(),
            Params::paper_table1_fine(),
            Params::fig34(),
            contended,
        ];
        let mut state = 0x5EED_u64;
        let (mut plans_checked, mut channel_waits, mut server_waits) = (0, 0, 0);
        for p in sets {
            for n in [
                1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 17, 24, 31, 32, 48, 63, 64,
            ] {
                let distinct = Profile::harmonic(n);
                let duplicates =
                    Profile::from_unsorted((0..n).map(|i| [1.0, 0.5, 0.5, 0.125][i % 4]).collect())
                        .unwrap();
                for profile in [distinct, duplicates] {
                    let lifespan = 50.0 * n as f64;
                    let mut order: Vec<usize> = (0..n).collect();
                    for i in (1..n).rev() {
                        order.swap(i, lcg(&mut state) as usize % (i + 1));
                    }
                    let random_work = (0..n).map(|_| (lcg(&mut state) % 1000) as f64 * 0.37);
                    let mut plans = vec![
                        crate::baseline::equal_split_plan(&p, &profile, lifespan).unwrap(),
                        crate::baseline::speed_proportional_plan(&p, &profile, lifespan).unwrap(),
                        Plan {
                            order: order.clone(),
                            work: random_work.collect(),
                            lifespan,
                        },
                    ];
                    // Communication-bound fleets have no FIFO optimum.
                    if let Ok(plan) = fifo_plan_ordered(&p, &profile, &order, lifespan) {
                        plans.push(plan);
                    }
                    for plan in &plans {
                        let run = execute(&p, &profile, plan);
                        let traced = run.last_arrival().map(|t| t.get().to_bits());
                        let probed = last_arrival(&p, &profile, plan).map(|t| t.get().to_bits());
                        assert_eq!(probed, traced, "n = {n}, {p:?}, {plan:?}");
                        plans_checked += 1;
                        let spans = run.trace.spans();
                        channel_waits += spans
                            .iter()
                            .filter(|s| s.label == Label::WaitChannel)
                            .count();
                        // A result unpack that starts after the transit
                        // that caused it ended waited for the server.
                        server_waits += (0..spans.len())
                            .filter(|&id| {
                                let parent = run.trace.parent(id).map(|c| spans[c].end);
                                matches!(spans[id].label, Label::RecvFrom { .. })
                                    && parent.is_some_and(|end| spans[id].start > end)
                            })
                            .count();
                    }
                }
            }
        }
        assert!(plans_checked > 500, "{plans_checked}");
        assert!(
            channel_waits > 0 && server_waits > 0,
            "{channel_waits} {server_waits}"
        );
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn execute_rejects_malformed_plan() {
        let p = params();
        let profile = Profile::new(vec![1.0, 0.5]).unwrap();
        let plan = Plan {
            order: vec![0, 0],
            work: vec![1.0, 1.0],
            lifespan: 10.0,
        };
        let _ = execute(&p, &profile, &plan);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn probe_rejects_malformed_plan() {
        let p = params();
        let profile = Profile::new(vec![1.0, 0.5]).unwrap();
        let plan = Plan {
            order: vec![1, 1],
            work: vec![1.0, 1.0],
            lifespan: 10.0,
        };
        let _ = last_arrival(&p, &profile, &plan);
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn probe_rejects_negative_work() {
        let p = params();
        let profile = Profile::new(vec![1.0, 0.5]).unwrap();
        let plan = Plan {
            order: vec![0, 1],
            work: vec![1.0, -1.0],
            lifespan: 10.0,
        };
        let _ = last_arrival(&p, &profile, &plan);
    }
}
