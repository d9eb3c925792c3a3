//! Work exchange: peer-to-peer residual-load transfer on straggler
//! detection.
//!
//! The fourth protocol family follows the work-exchange discipline of
//! Attia & Tandon (arXiv:1711.08452): instead of the *server* resizing
//! future packages (adaptive replanning) or coding redundancy in up
//! front (MDS), the *workers* trade load — a detected straggler keeps
//! only the slice it can still finish on schedule and ships the residual
//! to a healthy peer as a package of its own, through the same
//! single-message-in-transit channel every other message fights for.
//!
//! Mapped onto Rosenberg–Chiang's CEP model:
//!
//! * **Detection** — the server runs [`crate::replan`]'s failure
//!   detector (the crate's shared one) at send boundaries: crashes by
//!   `t_c ≤ now`, stragglers by an active slowdown window rescaling the
//!   effective ρ. The exchange family piggy-backs the verdicts onto the
//!   work package: a worker that learns it is running
//!   `f×` slow keeps `w/f` — the slice whose inflated compute time
//!   `ρ·(w/f)·f = ρw` still lands on the planned schedule — and
//!   re-packages the residual `w − w/f` for its donor.
//! * **Transfer** — the residual is a real DES citizen: an `xpack→C*`
//!   packaging phase on the straggler (crash-truncatable), an
//!   `xmit:xchg:C*→C*` transit occupying the shared channel (jitter
//!   applies), then the donor's own unpack/compute/pack at *its* ρ,
//!   serialized after whatever the donor was already obligated to do.
//!   Exchange rounds are bounded by [`ExchangePolicy::max_rounds`] and
//!   each position trades at most once.
//! * **Degradation** — when a straggler finds no donor (every peer is
//!   itself straggling, crashed, or there is no peer at all) the run
//!   degrades gracefully: the whole execution is replayed under
//!   [`crate::replan::execute_adaptive`] with
//!   [`ExchangePolicy::fallback`], and the result reports
//!   [`ExchangeExecution::degraded`].
//!
//! Conservation invariant: every exchange splits `w` into `w/f` and
//! `w − w/f` exactly, so retained + transferred work equals the planned
//! allocation to the last bit — `tests/protocol_families.rs` checks the
//! ledger against the exact `Ratio` oracle.
//!
//! With an empty fault plan nothing is ever detected, no exchange fires,
//! and the trace is bit-identical to the pristine executor's.

use hetero_core::{Params, Profile};
use hetero_faults::{FaultIndex, FaultPlan};
use hetero_sim::{EventQueue, SimTime, Trace, UnitResource};

use crate::alloc::Plan;
use crate::detect::Detector;
use crate::exec::{channel_entity, worker_entity, SERVER};
use crate::fault_exec::ExecError;
use crate::replan::{execute_adaptive, AdaptiveExecution, HedgePolicy};

/// How the exchange family trades and when it gives up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExchangePolicy {
    /// Total residual transfers the run may perform; once exhausted,
    /// later stragglers just run slow. Bounds the recovery traffic a
    /// fault storm can inject into the shared channel.
    pub max_rounds: u32,
    /// The adaptive policy used when the run degrades (a straggler with
    /// no available donor).
    pub fallback: HedgePolicy,
}

impl Default for ExchangePolicy {
    fn default() -> Self {
        ExchangePolicy {
            max_rounds: 4,
            fallback: HedgePolicy::default(),
        }
    }
}

/// One residual-load transfer, as recorded in the exchange ledger.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exchange {
    /// Straggler's startup position (the load's planned owner).
    pub from: usize,
    /// Donor's startup position (who actually computed it).
    pub to: usize,
    /// Work units transferred.
    pub work: f64,
    /// When the residual's results reached the server (`None` = a later
    /// fault destroyed the parcel en route or at the donor).
    pub arrival: Option<SimTime>,
}

/// The outcome of a work-exchange execution.
#[derive(Debug, Clone)]
pub struct ExchangeExecution {
    /// Action/time record. Exchange traffic appears as `xpack→C*` on
    /// the straggler, `xmit:xchg:C*→C*` on the channel, the donor's
    /// second unpack/compute/pack block, and `recv←C*·xchg` on the
    /// server. When the run degraded this is the adaptive trace.
    pub trace: Trace,
    /// Result arrival of each position's *retained* share (`None` =
    /// destroyed).
    pub arrivals: Vec<Option<SimTime>>,
    /// The original plan the run started from.
    pub plan: Plan,
    /// Post-exchange retained share per position (`= plan.work` for
    /// positions that never traded).
    pub final_work: Vec<f64>,
    /// The transfer ledger, in trigger order.
    pub exchanges: Vec<Exchange>,
    /// Result messages lost in transit.
    pub lost_messages: u32,
    /// Retransmissions performed to recover lost messages.
    pub retransmits: u32,
    /// Present when the run degraded to adaptive replanning (a
    /// straggler found no donor); all accounting methods delegate to it.
    pub fallback: Option<Box<AdaptiveExecution>>,
}

impl ExchangeExecution {
    /// `true` when the run fell back to adaptive replanning.
    pub fn degraded(&self) -> bool {
        self.fallback.is_some()
    }

    /// Work units (retained + exchanged) whose results were back by `t`.
    pub fn work_completed_by(&self, t: f64) -> f64 {
        if let Some(fb) = &self.fallback {
            return fb.work_completed_by(t);
        }
        let cutoff = t * (1.0 + 1e-9);
        // hetero-check: allow(float-accum) — fixed position order, mirrors Execution::work_completed_by bit-for-bit
        let retained: f64 = self
            .arrivals
            .iter()
            .zip(&self.final_work)
            .filter_map(|(arr, w)| arr.filter(|a| a.get() <= cutoff).map(|_| w))
            .sum();
        // hetero-check: allow(float-accum) — ledger is in deterministic trigger order
        let traded: f64 = self
            .exchanges
            .iter()
            .filter_map(|x| x.arrival.filter(|a| a.get() <= cutoff).map(|_| x.work))
            .sum();
        retained + traded
    }

    /// Total work whose results returned at all.
    pub fn salvaged_work(&self) -> f64 {
        if let Some(fb) = &self.fallback {
            return fb.salvaged_work();
        }
        let retained: f64 = self
            .arrivals
            .iter()
            .zip(&self.final_work)
            .filter(|(arr, _)| arr.is_some())
            .map(|(_, w)| w)
            .sum();
        let traded: f64 = self
            .exchanges
            .iter()
            .filter(|x| x.arrival.is_some())
            .map(|x| x.work)
            .sum();
        retained + traded
    }

    /// `true` when any result — retained or exchanged — arrived after
    /// the lifespan.
    pub fn missed_deadline(&self, lifespan: f64) -> bool {
        if let Some(fb) = &self.fallback {
            return fb.missed_deadline(lifespan);
        }
        let cutoff = lifespan * (1.0 + 1e-9);
        self.arrivals
            .iter()
            .flatten()
            .chain(self.exchanges.iter().filter_map(|x| x.arrival.as_ref()))
            .any(|arr| arr.get() > cutoff)
    }

    /// The latest arrival among everything that returned.
    pub fn last_arrival(&self) -> Option<SimTime> {
        if let Some(fb) = &self.fallback {
            return fb.last_arrival();
        }
        self.arrivals
            .iter()
            .flatten()
            .chain(self.exchanges.iter().filter_map(|x| x.arrival.as_ref()))
            .copied()
            .max()
    }

    /// The end of the last recorded activity.
    pub fn makespan(&self) -> SimTime {
        self.trace.makespan()
    }
}

/// The exchange protocol's events: the oblivious executor's four, plus
/// the parcel lifecycle (`id` indexes the transfer ledger).
#[derive(Debug, Clone, Copy)]
enum Event {
    StartSend {
        pos: usize,
        cause: Option<usize>,
    },
    WorkArrived {
        pos: usize,
        cause: usize,
    },
    ResultsReady {
        pos: usize,
        cause: usize,
    },
    TransitDone {
        pos: usize,
        lost: bool,
        cause: usize,
    },
    /// A residual parcel finished its peer-to-peer transit.
    ParcelArrived {
        id: usize,
        cause: usize,
    },
    /// The donor packaged the parcel's results.
    ParcelReady {
        id: usize,
        cause: usize,
    },
    /// A parcel-result transit ended — delivered, or vanished.
    ParcelDone {
        id: usize,
        lost: bool,
        cause: usize,
    },
}

struct XState<'f> {
    params: Params,
    // Per position:
    order: Vec<usize>,
    work: Vec<f64>, // retained share (shrinks when a position trades)
    rhos: Vec<f64>,
    det: Detector, // crashes known, slowdowns seen, rescaled speeds
    exchanged: Vec<bool>,
    done: Vec<bool>, // own three phases completed (donor preference)
    crash_by_pos: Vec<Option<f64>>,
    arrivals: Vec<Option<SimTime>>,
    // Per worker (profile index):
    losses_left: Vec<u32>,
    worker_free: Vec<SimTime>, // serialization horizon for parcel phases
    // Engine state:
    server: UnitResource,
    channel: UnitResource,
    trace: Trace,
    faults: FaultIndex<'f>,
    parcels: Vec<Exchange>,
    rounds_left: u32,
    lost_messages: u32,
    retransmits: u32,
    no_donor: bool,
    error: Option<ExecError>,
}

/// Executes `plan` under `faults` with peer-to-peer work exchange.
///
/// See the module docs for the trade rules. With an empty fault plan the
/// result is bit-identical to the pristine executor; when a straggler
/// finds no donor the run degrades to [`execute_adaptive`] under
/// `policy.fallback`.
pub fn execute_exchange(
    params: &Params,
    profile: &Profile,
    plan: &Plan,
    faults: &FaultPlan,
    policy: &ExchangePolicy,
) -> Result<ExchangeExecution, ExecError> {
    if !crate::alloc::is_permutation(&plan.order, profile.n()) {
        return Err(ExecError::MalformedPlan);
    }
    let n = profile.n();
    let index = faults.index();
    let rhos: Vec<f64> = plan.order.iter().map(|&i| profile.rho(i)).collect();
    let crash_by_pos: Vec<Option<f64>> = plan.order.iter().map(|&i| index.crash_time(i)).collect();
    let mut state = XState {
        params: *params,
        order: plan.order.clone(),
        work: plan.work.clone(),
        det: Detector::new(&index, &plan.order, &rhos, &crash_by_pos),
        rhos,
        exchanged: vec![false; n],
        done: vec![false; n],
        crash_by_pos,
        arrivals: vec![None; n],
        losses_left: (0..n).map(|i| index.result_losses(i)).collect(),
        worker_free: vec![SimTime::ZERO; n],
        server: UnitResource::new(),
        channel: UnitResource::new(),
        trace: Trace::new(),
        faults: index,
        parcels: Vec::new(),
        rounds_left: policy.max_rounds,
        lost_messages: 0,
        retransmits: 0,
        no_donor: false,
        error: None,
    };
    for pos in 0..n {
        if let Some(tc) = state.crash_by_pos[pos] {
            let at = SimTime::try_new(tc)?;
            let ent = worker_entity(state.order[pos]);
            state.trace.try_record(ent, "†crash", at, at)?;
        }
    }
    let mut queue: EventQueue<Event> = EventQueue::new();
    queue.schedule_at(
        SimTime::ZERO,
        Event::StartSend {
            pos: 0,
            cause: None,
        },
    );

    hetero_sim::run(&mut state, &mut queue, |st, q, now, ev| {
        if st.error.is_some() || st.no_donor {
            return;
        }
        if let Err(e) = handle_event(st, q, now, ev) {
            st.error = Some(e);
        }
    });
    if let Some(e) = state.error.take() {
        return Err(e);
    }

    if state.no_donor {
        // Graceful degradation: nobody can absorb the residual, so the
        // server-side replanner is strictly the better reaction. The
        // partial exchange trace is discarded and the run replayed.
        let fb = execute_adaptive(params, profile, plan, faults, &policy.fallback)?;
        if hetero_obs::enabled() {
            hetero_obs::counters::PROTOCOL_EXCHANGE_DEGRADED.bump();
        }
        return Ok(ExchangeExecution {
            trace: fb.trace.clone(),
            arrivals: fb.arrivals.clone(),
            plan: plan.clone(),
            final_work: fb.final_work.clone(),
            exchanges: Vec::new(),
            lost_messages: fb.lost_messages,
            retransmits: fb.retransmits,
            fallback: Some(Box::new(fb)),
        });
    }

    if hetero_obs::enabled() {
        crate::exec::observe_trace(
            &state.trace,
            &state.server,
            &state.channel,
            queue.dispatched(),
            queue.high_water(),
            n,
        );
        hetero_obs::counters::PROTOCOL_EXCHANGE_TRANSFERS.add(state.parcels.len() as u64);
        for parcel in &state.parcels {
            hetero_obs::observe("protocol.exchange.transfer_work", parcel.work);
        }
        if !faults.is_empty() {
            hetero_obs::counters::FAULTS_INJECTED.add(faults.specs().len() as u64);
            hetero_obs::counters::FAULTS_LOST_MESSAGES.add(u64::from(state.lost_messages));
        }
    }

    Ok(ExchangeExecution {
        trace: state.trace,
        arrivals: state.arrivals,
        plan: plan.clone(),
        final_work: state.work,
        exchanges: state.parcels,
        lost_messages: state.lost_messages,
        retransmits: state.retransmits,
        fallback: None,
    })
}

/// Picks the donor for a straggler at `straggler`: the fastest peer not
/// known-crashed and not itself straggling, preferring peers whose own
/// obligations already completed (trading onto a still-loaded peer only
/// queues the parcel behind them). Ties break to the lowest position.
fn pick_donor(st: &XState<'_>, straggler: usize) -> Option<usize> {
    let candidate = |j: usize| {
        j != straggler && !st.det.known_crashed(j) && !st.det.detected_slow(j) && !st.exchanged[j]
    };
    let best_of = |only_done: bool| {
        let mut best: Option<usize> = None;
        for j in 0..st.order.len() {
            if !candidate(j) || (only_done && !st.done[j]) {
                continue;
            }
            best = match best {
                Some(b) if st.det.eff_rho(j) >= st.det.eff_rho(b) => Some(b),
                _ => Some(j),
            };
        }
        best
    };
    best_of(true).or_else(|| best_of(false))
}

/// One crash-truncatable, slowdown-stretchable worker phase. Returns
/// `true` when the worker died mid-phase (the caller abandons the rest
/// of its sequence).
#[allow(clippy::too_many_arguments)]
fn worker_phase(
    st: &mut XState<'_>,
    ent: usize,
    target: usize,
    crash: Option<f64>,
    label: &str,
    base: f64,
    t: &mut SimTime,
    prev: &mut usize,
) -> Result<bool, ExecError> {
    let dur = match st.faults.slowdown_factor(target, t.get()) {
        Some(f) => f * base,
        None => base,
    };
    let end = t.try_add(dur)?;
    if let Some(tc) = crash {
        if tc < end.get() {
            let cut = SimTime::try_new(tc)?;
            if cut > *t {
                st.trace
                    .try_record_caused(ent, format!("{label}†crash"), *t, cut, Some(*prev))?;
            }
            return Ok(true);
        }
    }
    *prev = st
        .trace
        .try_record_caused(ent, label, *t, end, Some(*prev))?;
    *t = end;
    Ok(false)
}

/// Acquires the channel for a transit of nominal length `base`,
/// stretched by any jitter window active at its queue-adjusted start.
fn jittered_transit(
    st: &mut XState<'_>,
    ready: SimTime,
    base: f64,
) -> Result<hetero_sim::Grant, ExecError> {
    let prospective = ready.max(st.channel.next_free());
    let dur = match st.faults.channel_factor(prospective.get()) {
        Some(f) => f * base,
        None => base,
    };
    Ok(st.channel.try_acquire(ready, dur)?)
}

fn handle_event(
    st: &mut XState<'_>,
    q: &mut EventQueue<Event>,
    now: SimTime,
    ev: Event,
) -> Result<(), ExecError> {
    let (pi, tau, delta) = (st.params.pi(), st.params.tau(), st.params.delta());
    let n = st.order.len();
    match ev {
        Event::StartSend { pos, cause } => {
            // Detection happens here, at the send boundary; the verdict
            // travels with the package and is acted on at arrival. The
            // send itself stays oblivious — the exchange family reacts
            // worker-side, not server-side.
            st.det.detect(&st.faults, pos, now);
            let w = st.work[pos];
            let target = st.order[pos];
            let pack = st.server.try_acquire(now, pi * w)?;
            let pack_id = st.trace.try_record_caused(
                SERVER,
                format!("pack→C{}", target + 1),
                pack.start,
                pack.end,
                cause,
            )?;
            let transit = jittered_transit(st, pack.end, tau * w)?;
            let xmit_id = st.trace.try_record_caused(
                channel_entity(n),
                format!("xmit:work:C{}", target + 1),
                transit.start,
                transit.end,
                Some(pack_id),
            )?;
            q.schedule_at(
                transit.end,
                Event::WorkArrived {
                    pos,
                    cause: xmit_id,
                },
            );
            if pos + 1 < n {
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
            let w_in = st.work[pos];
            let rho = st.rhos[pos];
            let target = st.order[pos];
            let ent = worker_entity(target);
            let crash = st.crash_by_pos[pos];
            // Trade decision: a detected straggler keeps the slice that
            // still fits its planned schedule and ships the rest.
            let mut parcel: Option<(usize, usize)> = None; // (ledger id, donor pos)
            if st.det.detected_slow(pos) && !st.exchanged[pos] && st.rounds_left > 0 {
                let f = st.det.eff_rho(pos) / st.rhos[pos];
                let keep = w_in / f;
                let residual = w_in - keep;
                if residual > 0.0 {
                    match pick_donor(st, pos) {
                        Some(d) => {
                            st.rounds_left -= 1;
                            st.exchanged[pos] = true;
                            st.work[pos] = keep;
                            let id = st.parcels.len();
                            st.parcels.push(Exchange {
                                from: pos,
                                to: d,
                                work: residual,
                                arrival: None,
                            });
                            parcel = Some((id, d));
                        }
                        None => {
                            // Nobody can take the load: degrade the
                            // whole run to adaptive replanning.
                            st.no_donor = true;
                            return Ok(());
                        }
                    }
                }
            }
            let mut t = now.max(st.worker_free[target]);
            let mut prev = cause;
            let mut died = worker_phase(
                st,
                ent,
                target,
                crash,
                "unpack",
                pi * rho * w_in,
                &mut t,
                &mut prev,
            )?;
            if !died {
                if let Some((id, d)) = parcel {
                    // Residual re-packaging and peer-to-peer transit:
                    // a work-shaped package (δ does not apply — this is
                    // input, not results) at the straggler's speed.
                    let residual = st.parcels[id].work;
                    let donor_target = st.order[d];
                    let label = format!("xpack→C{}", donor_target + 1);
                    died = worker_phase(
                        st,
                        ent,
                        target,
                        crash,
                        &label,
                        pi * rho * residual,
                        &mut t,
                        &mut prev,
                    )?;
                    if !died {
                        let transit = jittered_transit(st, t, tau * residual)?;
                        let xmit_id = st.trace.try_record_caused(
                            channel_entity(n),
                            format!("xmit:xchg:C{}→C{}", target + 1, donor_target + 1),
                            transit.start,
                            transit.end,
                            Some(prev),
                        )?;
                        q.schedule_at(transit.end, Event::ParcelArrived { id, cause: xmit_id });
                    }
                }
            }
            if !died {
                let keep = st.work[pos];
                died = worker_phase(
                    st,
                    ent,
                    target,
                    crash,
                    "compute",
                    rho * keep,
                    &mut t,
                    &mut prev,
                )?;
            }
            if !died {
                let keep = st.work[pos];
                died = worker_phase(
                    st,
                    ent,
                    target,
                    crash,
                    "pack",
                    pi * rho * delta * keep,
                    &mut t,
                    &mut prev,
                )?;
            }
            st.worker_free[target] = st.worker_free[target].max(t);
            if !died {
                st.done[pos] = true;
                q.schedule_at(t, Event::ResultsReady { pos, cause: prev });
            }
        }
        Event::ResultsReady { pos, cause } => {
            let w = st.work[pos];
            let target = st.order[pos];
            let transit = jittered_transit(st, now, tau * delta * w)?;
            let wait_threshold = 1e-9 * (1.0 + now.get().abs());
            let mut xmit_cause = cause;
            if transit.start - now > wait_threshold {
                xmit_cause = st.trace.try_record_caused(
                    worker_entity(target),
                    "wait:channel",
                    now,
                    transit.start,
                    Some(cause),
                )?;
            }
            let lost = st.losses_left[target] > 0;
            let label = if lost {
                st.losses_left[target] -= 1;
                format!("xmit:result:C{}†lost", target + 1)
            } else {
                format!("xmit:result:C{}", target + 1)
            };
            let xmit_id = st.trace.try_record_caused(
                channel_entity(n),
                label,
                transit.start,
                transit.end,
                Some(xmit_cause),
            )?;
            q.schedule_at(
                transit.end,
                Event::TransitDone {
                    pos,
                    lost,
                    cause: xmit_id,
                },
            );
        }
        Event::TransitDone { pos, lost, cause } => {
            let w = st.work[pos];
            let target = st.order[pos];
            if lost {
                st.lost_messages += 1;
                let alive = st.crash_by_pos[pos].is_none_or(|tc| tc > now.get());
                if alive {
                    st.retransmits += 1;
                    q.schedule_at(now, Event::ResultsReady { pos, cause });
                }
            } else {
                st.arrivals[pos] = Some(now);
                let unpack = st.server.try_acquire(now, pi * delta * w)?;
                st.trace.try_record_caused(
                    SERVER,
                    format!("recv←C{}", target + 1),
                    unpack.start,
                    unpack.end,
                    Some(cause),
                )?;
            }
        }
        Event::ParcelArrived { id, cause } => {
            let Exchange { to: d, work: r, .. } = st.parcels[id];
            let donor_target = st.order[d];
            let ent = worker_entity(donor_target);
            let rho = st.rhos[d];
            let crash = st.crash_by_pos[d];
            // The donor serves the parcel after its own obligations —
            // one worker, one pipeline.
            let mut t = now.max(st.worker_free[donor_target]);
            let mut prev = cause;
            let mut died = false;
            for (label, base) in [
                ("unpack", pi * rho * r),
                ("compute", rho * r),
                ("pack", pi * rho * delta * r),
            ] {
                if worker_phase(st, ent, donor_target, crash, label, base, &mut t, &mut prev)? {
                    died = true;
                    break;
                }
            }
            st.worker_free[donor_target] = st.worker_free[donor_target].max(t);
            if !died {
                q.schedule_at(t, Event::ParcelReady { id, cause: prev });
            }
        }
        Event::ParcelReady { id, cause } => {
            let Exchange { to: d, work: r, .. } = st.parcels[id];
            let donor_target = st.order[d];
            let transit = jittered_transit(st, now, tau * delta * r)?;
            let wait_threshold = 1e-9 * (1.0 + now.get().abs());
            let mut xmit_cause = cause;
            if transit.start - now > wait_threshold {
                xmit_cause = st.trace.try_record_caused(
                    worker_entity(donor_target),
                    "wait:channel",
                    now,
                    transit.start,
                    Some(cause),
                )?;
            }
            let lost = st.losses_left[donor_target] > 0;
            let label = if lost {
                st.losses_left[donor_target] -= 1;
                format!("xmit:result:C{}†lost", donor_target + 1)
            } else {
                format!("xmit:result:C{}", donor_target + 1)
            };
            let xmit_id = st.trace.try_record_caused(
                channel_entity(n),
                label,
                transit.start,
                transit.end,
                Some(xmit_cause),
            )?;
            q.schedule_at(
                transit.end,
                Event::ParcelDone {
                    id,
                    lost,
                    cause: xmit_id,
                },
            );
        }
        Event::ParcelDone { id, lost, cause } => {
            let Exchange { to: d, work: r, .. } = st.parcels[id];
            let donor_target = st.order[d];
            if lost {
                st.lost_messages += 1;
                let alive = st.crash_by_pos[d].is_none_or(|tc| tc > now.get());
                if alive {
                    st.retransmits += 1;
                    q.schedule_at(now, Event::ParcelReady { id, cause });
                }
            } else {
                st.parcels[id].arrival = Some(now);
                let unpack = st.server.try_acquire(now, pi * delta * r)?;
                st.trace.try_record_caused(
                    SERVER,
                    format!("recv←C{}·xchg", donor_target + 1),
                    unpack.start,
                    unpack.end,
                    Some(cause),
                )?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::fifo_plan;
    use crate::exec::execute;
    use crate::fault_exec::execute_with_faults;
    use hetero_faults::FaultSpec;

    fn params() -> Params {
        Params::paper_table1()
    }

    #[test]
    fn empty_plan_reproduces_the_pristine_execution() {
        let p = params();
        let profile = Profile::harmonic(5);
        let plan = fifo_plan(&p, &profile, 700.0).unwrap();
        let pristine = execute(&p, &profile, &plan);
        let run = execute_exchange(
            &p,
            &profile,
            &plan,
            &FaultPlan::empty(),
            &ExchangePolicy::default(),
        )
        .unwrap();
        assert!(!run.degraded());
        assert_eq!(run.trace.spans(), pristine.trace.spans());
        let arrivals: Vec<SimTime> = run.arrivals.iter().map(|a| a.unwrap()).collect();
        assert_eq!(arrivals, pristine.arrivals);
        assert!(run.exchanges.is_empty());
        assert_eq!(run.final_work, plan.work);
    }

    #[test]
    fn detected_straggler_trades_its_residual() {
        let p = params();
        let profile = Profile::new(vec![1.0, 0.5]).unwrap();
        let lifespan = 500.0;
        let plan = fifo_plan(&p, &profile, lifespan).unwrap();
        let factor = 4.0;
        let faults = FaultPlan::new(vec![FaultSpec::Slowdown {
            worker: 1,
            factor,
            from: 0.0,
            until: 1e6,
        }])
        .unwrap();
        let run =
            execute_exchange(&p, &profile, &plan, &faults, &ExchangePolicy::default()).unwrap();
        assert!(!run.degraded());
        assert_eq!(run.exchanges.len(), 1);
        let x = &run.exchanges[0];
        // Worker 1 sits at position 1 (fifo keeps profile order).
        let pos = plan.order.iter().position(|&i| i == 1).unwrap();
        assert_eq!(x.from, pos);
        assert_ne!(x.to, pos);
        // Exact split: keep = w/f, residual = w − w/f.
        let w = plan.work[pos];
        assert_eq!(run.final_work[pos], w / factor);
        assert_eq!(x.work, w - w / factor);
        assert!(x.arrival.is_some(), "residual results returned");
        // The ledger conserves the plan: retained + traded = planned.
        let total: f64 =
            run.final_work.iter().sum::<f64>() + run.exchanges.iter().map(|x| x.work).sum::<f64>();
        assert!((total - plan.total_work()).abs() <= 1e-12 * plan.total_work());
        // The trace shows the transfer machinery.
        assert!(run
            .trace
            .spans()
            .iter()
            .any(|s| s.label.starts_with("xpack→")));
        assert!(run
            .trace
            .spans()
            .iter()
            .any(|s| s.label.starts_with("xmit:xchg:")));
        assert!(run
            .trace
            .spans()
            .iter()
            .any(|s| s.label.starts_with("recv←") && s.label.ends_with("·xchg")));
        // The trade pays in completion time: the oblivious executor
        // grinds the full package at 4x, while the exchange run finishes
        // the same total work strictly earlier (retained slice on the
        // planned schedule, residual at the donor's healthy speed).
        let oblivious = execute_with_faults(&p, &profile, &plan, &faults).unwrap();
        assert!(run.last_arrival().unwrap() < oblivious.last_arrival().unwrap());
        assert!(run.work_completed_by(lifespan) >= oblivious.work_completed_by(lifespan));
        assert!((run.salvaged_work() - plan.total_work()).abs() <= 1e-9 * plan.total_work());
    }

    #[test]
    fn straggler_without_donor_degrades_to_adaptive() {
        let p = params();
        // Single worker: a straggler can never find a peer.
        let profile = Profile::new(vec![1.0]).unwrap();
        let lifespan = 400.0;
        let plan = fifo_plan(&p, &profile, lifespan).unwrap();
        let faults = FaultPlan::new(vec![FaultSpec::Slowdown {
            worker: 0,
            factor: 3.0,
            from: 0.0,
            until: 1e6,
        }])
        .unwrap();
        let policy = ExchangePolicy {
            fallback: HedgePolicy {
                margin: 0.05,
                ..HedgePolicy::default()
            },
            ..ExchangePolicy::default()
        };
        let run = execute_exchange(&p, &profile, &plan, &faults, &policy).unwrap();
        assert!(run.degraded());
        assert!(run.exchanges.is_empty());
        let adaptive = execute_adaptive(&p, &profile, &plan, &faults, &policy.fallback).unwrap();
        assert_eq!(run.trace.spans(), adaptive.trace.spans());
        assert_eq!(
            run.work_completed_by(lifespan),
            adaptive.work_completed_by(lifespan)
        );
        assert_eq!(
            run.missed_deadline(lifespan),
            adaptive.missed_deadline(lifespan)
        );
    }

    #[test]
    fn rounds_budget_bounds_the_transfers() {
        let p = params();
        let profile = Profile::new(vec![1.0, 0.8, 0.6, 0.4]).unwrap();
        let plan = fifo_plan(&p, &profile, 500.0).unwrap();
        // Two chronic stragglers; a budget of one lets only the first
        // (earliest-arriving) trade — the second just runs slow.
        let faults = FaultPlan::new(vec![
            FaultSpec::Slowdown {
                worker: 0,
                factor: 3.0,
                from: 0.0,
                until: 1e6,
            },
            FaultSpec::Slowdown {
                worker: 1,
                factor: 3.0,
                from: 0.0,
                until: 1e6,
            },
        ])
        .unwrap();
        let policy = ExchangePolicy {
            max_rounds: 1,
            ..ExchangePolicy::default()
        };
        let run = execute_exchange(&p, &profile, &plan, &faults, &policy).unwrap();
        assert!(!run.degraded());
        assert_eq!(run.exchanges.len(), 1);
    }

    #[test]
    fn crashed_and_straggling_peers_are_never_donors() {
        let p = params();
        let profile = Profile::new(vec![1.0, 0.5, 0.25]).unwrap();
        let plan = fifo_plan(&p, &profile, 500.0).unwrap();
        // Worker 2 (the fastest — the natural donor) is crashed from the
        // start; worker 1 straggles. The only legal donor is worker 0.
        let faults = FaultPlan::new(vec![
            FaultSpec::Crash { worker: 2, at: 0.0 },
            FaultSpec::Slowdown {
                worker: 1,
                factor: 4.0,
                from: 0.0,
                until: 1e6,
            },
        ])
        .unwrap();
        let run =
            execute_exchange(&p, &profile, &plan, &faults, &ExchangePolicy::default()).unwrap();
        assert!(!run.degraded());
        assert_eq!(run.exchanges.len(), 1);
        let donor_pos = run.exchanges[0].to;
        assert_eq!(plan.order[donor_pos], 0);
    }

    #[test]
    fn malformed_plan_is_a_typed_error() {
        let p = params();
        let profile = Profile::new(vec![1.0, 0.5]).unwrap();
        let plan = Plan {
            order: vec![0, 0],
            work: vec![1.0, 1.0],
            lifespan: 10.0,
        };
        assert_eq!(
            execute_exchange(
                &p,
                &profile,
                &plan,
                &FaultPlan::empty(),
                &ExchangePolicy::default()
            )
            .unwrap_err(),
            ExecError::MalformedPlan
        );
    }
}
