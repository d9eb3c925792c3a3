//! Discrete-event execution of worksharing plans.
//!
//! The executor replays the paper's protocol (§2.2) literally on the
//! `hetero-sim` engine:
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
//! [`UnitResource`]: hetero_sim::UnitResource

use hetero_core::{Params, Profile};
use hetero_obs::sketch::QuantileSketch;
use hetero_sim::stats::OnlineStats;
use hetero_sim::{EventQueue, SimTime, Trace, UnitResource};

use crate::alloc::Plan;

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

/// The protocol's events, keyed by startup position. Each event carries
/// the span id of the activity that caused it (`cause`), so the trace
/// records the full causality DAG: every span's parent is the span
/// whose completion triggered it.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// Server starts packaging the work for `pos`.
    StartSend { pos: usize, cause: Option<usize> },
    /// Work for `pos` finished its network transit; worker begins.
    WorkArrived { pos: usize, cause: usize },
    /// Worker at `pos` finished packaging its results.
    ResultsReady { pos: usize, cause: usize },
    /// Results of `pos` arrived back at the server.
    TransitDone { pos: usize, cause: usize },
}

/// Where the FIFO event loop's spans go: into a [`Trace`] for
/// [`execute`], nowhere for the sizing probe [`last_arrival`]. Span ids
/// only travel inside events as causal parents — no event time, and no
/// event order, ever depends on one — so both sinks drive the loop
/// through the same events with the same arithmetic.
trait SpanSink {
    /// Records one span and returns its id. `label` is only called by
    /// sinks that keep the text.
    fn record(
        &mut self,
        entity: usize,
        label: impl FnOnce() -> String,
        start: SimTime,
        end: SimTime,
        cause: Option<usize>,
    ) -> usize;
}

impl SpanSink for Trace {
    fn record(
        &mut self,
        entity: usize,
        label: impl FnOnce() -> String,
        start: SimTime,
        end: SimTime,
        cause: Option<usize>,
    ) -> usize {
        self.record_caused(entity, label(), start, end, cause)
    }
}

/// The untraced sink: keeps the trace's backwards-span check and drops
/// the span.
struct NoSpans;

impl SpanSink for NoSpans {
    fn record(
        &mut self,
        _entity: usize,
        _label: impl FnOnce() -> String,
        start: SimTime,
        end: SimTime,
        _cause: Option<usize>,
    ) -> usize {
        assert!(end >= start, "span ends before it starts");
        0
    }
}

struct ExecState<'a, S> {
    params: Params,
    profile: &'a Profile,
    plan: &'a Plan,
    server: UnitResource,
    channel: UnitResource,
    spans: S,
    arrivals: Vec<Option<SimTime>>, // result-transit end, by position
}

impl<S> ExecState<'_, S> {
    /// Result arrival times, by startup position.
    fn arrivals(&self) -> impl Iterator<Item = SimTime> + '_ {
        self.arrivals
            .iter()
            // hetero-check: allow(expect) — the event loop schedules a TransitDone for every position, filling each slot
            .map(|a| a.expect("every position's results arrive"))
    }
}

/// The outcome of executing a plan: the full trace plus per-position
/// result arrival times.
#[derive(Debug, Clone)]
pub struct Execution {
    /// Action/time record of every entity.
    pub trace: Trace,
    /// When each position's results finished transiting back to the
    /// server (the paper's completion criterion), by startup position.
    pub arrivals: Vec<SimTime>,
    /// The executed plan.
    pub plan: Plan,
}

impl Execution {
    /// The latest result arrival (completion time of the whole batch).
    pub fn last_arrival(&self) -> Option<SimTime> {
        self.arrivals.iter().copied().max()
    }

    /// Total work units whose results had arrived by time `t` (with a
    /// relative tolerance for float round-off at the lifespan boundary).
    pub fn work_completed_by(&self, t: f64) -> f64 {
        let cutoff = t * (1.0 + 1e-9);
        // hetero-check: allow(float-accum) — diagnostic total over the fixed worker order; pinned CLI goldens cover these bits
        self.arrivals
            .iter()
            .zip(&self.plan.work)
            .filter(|(arr, _)| arr.get() <= cutoff)
            .map(|(_, w)| w)
            .sum()
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
/// to avoid this).
pub fn execute(params: &Params, profile: &Profile, plan: &Plan) -> Execution {
    let (state, queue) = run_fifo(params, profile, plan, Trace::new());
    observe_trace(
        &state.spans,
        &state.server,
        &state.channel,
        queue.dispatched(),
        queue.high_water(),
        profile.n(),
    );
    let arrivals = state.arrivals().collect();
    Execution {
        trace: state.spans,
        arrivals,
        plan: plan.clone(),
    }
}

/// The latest result arrival of `plan`: `execute(..).last_arrival()` bit
/// for bit, for sizing searches that only ask whether a candidate plan
/// lands by its lifespan. Records no span, clones no plan and feeds no
/// collector.
///
/// # Panics
/// As [`execute`].
pub(crate) fn last_arrival(params: &Params, profile: &Profile, plan: &Plan) -> Option<SimTime> {
    let (state, _) = run_fifo(params, profile, plan, NoSpans);
    state.arrivals().max()
}

/// The FIFO protocol's event loop, shared by [`execute`] and
/// [`last_arrival`]; `spans` receives every activity it schedules.
fn run_fifo<'a, S: SpanSink>(
    params: &Params,
    profile: &'a Profile,
    plan: &'a Plan,
    spans: S,
) -> (ExecState<'a, S>, EventQueue<Event>) {
    assert!(
        crate::alloc::is_permutation(&plan.order, profile.n()),
        "plan order must be a permutation of the profile indices"
    );
    let mut state = ExecState {
        params: *params,
        profile,
        plan,
        server: UnitResource::new(),
        channel: UnitResource::new(),
        spans,
        arrivals: vec![None; profile.n()],
    };
    let mut queue: EventQueue<Event> = EventQueue::new();
    queue.schedule_at(
        SimTime::ZERO,
        Event::StartSend {
            pos: 0,
            cause: None,
        },
    );

    hetero_sim::run(&mut state, &mut queue, |st, q, now, ev| {
        let (pi, tau, delta) = (st.params.pi(), st.params.tau(), st.params.delta());
        let n = st.plan.order.len();
        match ev {
            Event::StartSend { pos, cause } => {
                let w = st.plan.work[pos];
                let target = st.plan.order[pos];
                // Server packages (πw), then the message transits (τw);
                // the channel is claimed as soon as packaging ends.
                let pack = st.server.acquire(now, pi * w);
                let pack_id = st.spans.record(
                    SERVER,
                    || format!("pack→C{}", target + 1),
                    pack.start,
                    pack.end,
                    cause,
                );
                let transit = st.channel.acquire(pack.end, tau * w);
                let xmit_id = st.spans.record(
                    channel_entity(n),
                    || format!("xmit:work:C{}", target + 1),
                    transit.start,
                    transit.end,
                    Some(pack_id),
                );
                q.schedule_at(
                    transit.end,
                    Event::WorkArrived {
                        pos,
                        cause: xmit_id,
                    },
                );
                if pos + 1 < n {
                    // "It immediately prepares and sends w₂ via the same
                    // process": the next (π+τ)w block starts when this
                    // transit ends, keeping the C0 row gap-free.
                    q.schedule_at(
                        transit.end,
                        Event::StartSend {
                            pos: pos + 1,
                            cause: Some(xmit_id),
                        },
                    );
                }
            }
            Event::WorkArrived { pos, cause } => {
                let w = st.plan.work[pos];
                let target = st.plan.order[pos];
                let rho = st.profile.rho(target);
                let ent = worker_entity(target);
                let unpack_end = now + pi * rho * w;
                let compute_end = unpack_end + rho * w;
                let pack_end = compute_end + pi * rho * delta * w;
                let unpack_id =
                    st.spans
                        .record(ent, || "unpack".into(), now, unpack_end, Some(cause));
                let compute_id = st.spans.record(
                    ent,
                    || "compute".into(),
                    unpack_end,
                    compute_end,
                    Some(unpack_id),
                );
                let pack_id = st.spans.record(
                    ent,
                    || "pack".into(),
                    compute_end,
                    pack_end,
                    Some(compute_id),
                );
                q.schedule_at(
                    pack_end,
                    Event::ResultsReady {
                        pos,
                        cause: pack_id,
                    },
                );
            }
            Event::ResultsReady { pos, cause } => {
                let w = st.plan.work[pos];
                let target = st.plan.order[pos];
                let transit = st.channel.acquire(now, tau * delta * w);
                // In the optimal plan the channel frees *exactly* when the
                // worker is ready; f64 round-off can leave an ulp-scale gap
                // that is not a real wait, so only genuine stalls are
                // recorded.
                let wait_threshold = 1e-9 * (1.0 + now.get().abs());
                let mut xmit_cause = cause;
                if transit.start - now > wait_threshold {
                    xmit_cause = st.spans.record(
                        worker_entity(target),
                        || "wait:channel".into(),
                        now,
                        transit.start,
                        Some(cause),
                    );
                }
                let xmit_id = st.spans.record(
                    channel_entity(n),
                    || format!("xmit:result:C{}", target + 1),
                    transit.start,
                    transit.end,
                    Some(xmit_cause),
                );
                q.schedule_at(
                    transit.end,
                    Event::TransitDone {
                        pos,
                        cause: xmit_id,
                    },
                );
            }
            Event::TransitDone { pos, cause } => {
                let w = st.plan.work[pos];
                let target = st.plan.order[pos];
                st.arrivals[pos] = Some(now);
                let unpack = st.server.acquire(now, pi * delta * w);
                st.spans.record(
                    SERVER,
                    || format!("recv←C{}", target + 1),
                    unpack.start,
                    unpack.end,
                    Some(cause),
                );
            }
        }
    });
    (state, queue)
}

/// Fallible form of [`execute`]: rejects malformed plans with a typed
/// error instead of panicking, and surfaces any engine-level failure
/// (invalid grant durations, clock overflow, backwards spans) as an
/// [`ExecError`](crate::fault_exec::ExecError).
///
/// Routes through the fault-aware executor with an empty
/// [`FaultPlan`](hetero_faults::FaultPlan), whose fault-free path is
/// bit-identical to [`execute`] — so the two forms cannot drift apart.
pub fn try_execute(
    params: &Params,
    profile: &Profile,
    plan: &Plan,
) -> Result<Execution, crate::fault_exec::ExecError> {
    let faulted = crate::fault_exec::execute_with_faults(
        params,
        profile,
        plan,
        &hetero_faults::FaultPlan::empty(),
    )?;
    Ok(Execution {
        trace: faulted.trace,
        arrivals: faulted
            .arrivals
            .into_iter()
            // hetero-check: allow(expect) — an empty fault plan loses no results, so every slot is filled
            .map(|a| a.expect("empty fault plan loses no results"))
            .collect(),
        plan: faulted.plan,
    })
}

/// Folds one finished execution into the global collector: simulator
/// load, resource utilization per entity, and per-phase span timing
/// (send = server packaging + work transit; compute = the worker's
/// `Bρw` block; receive = result transit + server unpackaging).
///
/// Shared with the fault-aware protocol families ([`crate::exchange`],
/// [`crate::coded`]) so every family feeds the same per-phase sketches
/// and utilization series regardless of which extra span labels it mints.
pub(crate) fn observe_trace(
    trace: &Trace,
    server: &UnitResource,
    channel: &UnitResource,
    dispatched: u64,
    high_water: usize,
    n: usize,
) {
    if !hetero_obs::enabled() {
        // One atomic load while disabled — the span walk below is O(n)
        // and must not run when nobody is listening.
        return;
    }
    let horizon = trace.makespan();
    // Fold the per-span phase timings into local accumulators first: a
    // sweep lands here once per trial, and paying the collector lock
    // plus a name lookup per span made full recording cost more than
    // the execution itself. One trace pass, five local accumulators
    // (Welford + quantile sketch per phase), one lock at the end.
    const PHASES: [&str; 5] = [
        "protocol.compute",
        "protocol.wait",
        "protocol.send",
        "protocol.receive",
        "protocol.other",
    ];
    let mut stats: [OnlineStats; 5] = Default::default();
    let mut sketches: [QuantileSketch; 5] = std::array::from_fn(|_| QuantileSketch::new());
    // Workers are not UnitResources (their schedule is closed-form), so
    // their utilization is busy time over the makespan, read off the trace.
    let mut worker_busy = vec![0.0f64; n];
    for span in trace.spans() {
        let phase = match span.label.as_str() {
            "unpack" | "compute" | "pack" => {
                let idx = span.entity.wrapping_sub(1);
                if let Some(busy) = worker_busy.get_mut(idx) {
                    *busy += span.duration();
                }
                0
            }
            "wait:channel" => 1,
            l if l.starts_with("pack→")
                || l.starts_with("xpack→")
                || l.starts_with("xmit:work")
                || l.starts_with("xmit:xchg") =>
            {
                2
            }
            l if l.starts_with("xmit:result") || l.starts_with("recv←") => 3,
            _ => 4,
        };
        let d = span.duration();
        stats[phase].push(d);
        // The same phase durations also feed the mergeable quantile
        // sketches, so the JSONL stream and manifest can report
        // p50/p90/p99 latencies instead of just Welford moments.
        sketches[phase].record(d);
    }
    hetero_obs::with_collector(|c| {
        c.count("sim.events", dispatched);
        c.gauge_max("sim.queue_high_water", high_water as u64);
        c.observe("protocol.util.server", server.utilization(horizon));
        c.observe("protocol.util.channel", channel.utilization(horizon));
        for (i, phase) in PHASES.iter().enumerate() {
            c.merge_observations(phase, &stats[i]);
            c.merge_sketch(phase, &sketches[i]);
        }
        if horizon.get() > 0.0 {
            for busy in &worker_busy {
                c.observe("protocol.util.worker", busy / horizon.get());
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::{fifo_plan, fifo_plan_ordered, theorem2_work};

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
        assert!((run.arrivals[0].get() - expect_arrival).abs() < 1e-9);
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
            !run.trace.spans().iter().any(|s| s.label == "wait:channel"),
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
        let first = run.arrivals[0].get();
        let second = run.arrivals[1].get();
        assert!(first < second);
        let partial = run.work_completed_by(0.5 * (first + second));
        assert!((partial - plan.work[0]).abs() < 1e-12);
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
                        channel_waits += spans.iter().filter(|s| s.label == "wait:channel").count();
                        // A result unpack that starts after the transit
                        // that caused it ended waited for the server.
                        server_waits += (0..spans.len())
                            .filter(|&id| {
                                let parent = run.trace.parent(id).map(|c| spans[c].end);
                                spans[id].label.starts_with("recv←")
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
