//! The one discrete-event engine every protocol family runs on.
//!
//! The paper's protocol (§2.2, Figures 1–2) is one FIFO worksharing
//! schedule, and every family in this crate replays it through the same
//! four events per package:
//!
//! 1. **StartSend** — the server packages the work (`πw`) and the message
//!    transits (`τw`); the next send starts when this transit ends, which
//!    keeps the `C0` row of Figure 2 gap-free;
//! 2. **WorkArrived** — the worker unpackages (`πρw`), computes (`ρw`) and
//!    packages its results (`πρδw`) back to back: the `Bρw` block;
//! 3. **ResultsReady** — the results transit (`τδw`) under the *single
//!    message in transit* constraint: one channel carries every message;
//! 4. **TransitDone** — the server unpackages them (`πδw`).
//!
//! The [`Engine`] owns everything the families share: the event queue,
//! the server and channel [`UnitResource`]s, the faults of the per-run
//! [`FaultIndex`] (crash markers and `†crash` truncation, slowdowns,
//! channel jitter, result losses counted per worker), causal span
//! recording through a [`SpanSink`], and the one fold of a traced run into
//! the collector. A family is a [`Policy`] that decides at four points:
//!
//! * **send boundary** ([`Policy::on_send`]) — pack the slot, or skip it;
//! * **work arrival** ([`Policy::on_arrival`]) — serve the package, split
//!   off a residual for a donor, or halt the run;
//! * **lost result** ([`Policy::on_loss`]) — retransmit after a delay, or
//!   never;
//! * **all slots resolved** ([`Policy::on_all_resolved`]) — append and
//!   send another round.
//!
//! The packages are [`Slot`]s: the plan's positions first, then whatever
//! a policy appends — a top-up round the server sends, or a traded
//! residual that travels from the straggler to its donor and is served
//! after the donor's other work.
//!
//! Every fault query is `Option`-shaped and a duration is multiplied only
//! when a fault is active, so an empty fault plan under the empty policy
//! performs the float operations of the fault-free protocol, and every
//! family that never decides anything on a run replays it bit for bit.

use hetero_core::{Params, Profile};
use hetero_faults::{FaultIndex, FaultPlan};
use hetero_obs::sketch::QuantileSketch;
use hetero_sim::stats::OnlineStats;
use hetero_sim::{BackwardsSpan, EventQueue, Grant, Label, Phase, SimTime, Trace, UnitResource};

use crate::alloc::Plan;
use crate::exec::{channel_entity, worker_entity, Execution, Package, SERVER};
use crate::fault_exec::ExecError;

/// Where the engine's spans go: into a [`Trace`] for every reported run,
/// nowhere for the sizing probe. Span ids only travel inside events as
/// causal parents — no event time, and no event order, ever depends on
/// one — so both sinks drive the same events through the same arithmetic.
pub(crate) trait SpanSink {
    /// Records one span and returns its id.
    fn record(
        &mut self,
        entity: usize,
        label: Label,
        start: SimTime,
        end: SimTime,
        cause: Option<usize>,
    ) -> Result<usize, BackwardsSpan>;

    /// The recorded trace, when the sink keeps one.
    fn trace(&self) -> Option<&Trace>;
}

impl SpanSink for Trace {
    fn record(
        &mut self,
        entity: usize,
        label: Label,
        start: SimTime,
        end: SimTime,
        cause: Option<usize>,
    ) -> Result<usize, BackwardsSpan> {
        self.try_record_caused(entity, label, start, end, cause)
    }

    fn trace(&self) -> Option<&Trace> {
        Some(self)
    }
}

/// The untraced sink: keeps the trace's backwards-span check and drops
/// the span.
pub(crate) struct NoSpans;

impl SpanSink for NoSpans {
    fn record(
        &mut self,
        entity: usize,
        _label: Label,
        start: SimTime,
        end: SimTime,
        _cause: Option<usize>,
    ) -> Result<usize, BackwardsSpan> {
        if end < start {
            return Err(BackwardsSpan { entity, start, end });
        }
        Ok(0)
    }

    fn trace(&self) -> Option<&Trace> {
        None
    }
}

/// One package the engine delivers: a planned position, or one a policy
/// appended.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slot {
    /// Profile index of the worker that serves it.
    pub(crate) worker: usize,
    /// Work units; a policy may shrink them before the send or at arrival.
    pub(crate) work: f64,
    /// The worker's profiled ρ.
    pub(crate) rho: f64,
    /// The worker's earliest crash.
    pub(crate) crash: Option<f64>,
    /// The planned position of the same worker. Its slot keeps what the
    /// engine tracks per worker: the losses still to come and the end of
    /// the work the worker already has.
    pub(crate) home: usize,
    /// For a traded residual, the position it was traded from; `None`
    /// for a package the server sends.
    pub(crate) from: Option<usize>,
    /// When its results reached the server.
    pub(crate) arrival: Option<SimTime>,
    /// Realized worker busy time: slowdown-stretched, crash-truncated.
    pub(crate) service: f64,
    /// The worker finished packaging its results.
    pub(crate) packed: bool,
    /// Retransmissions of its results so far.
    pub(crate) retries: u32,
    /// Per worker (home slot): result messages still to lose.
    losses_left: u32,
    /// Per worker (home slot): when it finishes the work it already has.
    free: SimTime,
}

/// The protocol's events, keyed by slot. Each carries the id of the span
/// whose completion caused it, so the trace records the causality DAG.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// The server starts packaging the work of `pos`.
    StartSend { pos: usize, cause: Option<usize> },
    /// The work of `pos` reached its worker.
    WorkArrived { pos: usize, cause: usize },
    /// The worker of `pos` has results packaged (first send and
    /// retransmissions alike).
    ResultsReady { pos: usize, cause: usize },
    /// The results of `pos` arrived back at the server.
    TransitDone { pos: usize, cause: usize },
    /// A result transit of `pos` ended, and the message vanished.
    TransitLost { pos: usize, cause: usize },
}

/// A policy's verdict at a send boundary.
pub(crate) enum Boundary {
    /// Package and send the slot.
    Pack,
    /// Send nothing; record a zero-width `skip→C*` marker instead.
    Skip,
}

/// A policy's verdict when work reaches its worker.
pub(crate) enum Arrival {
    /// Serve the whole package.
    Serve,
    /// Keep `keep` units, re-package the rest (an `xpack→C*` phase after
    /// the unpack) and send it to the worker at position `donor`.
    Split { donor: usize, keep: f64 },
    /// Stop the run here: nothing more is simulated or observed.
    Halt,
}

/// A protocol family's decisions. Every hook defaults to the oblivious
/// replay: send every slot, serve every package, retransmit every loss
/// at once, add nothing at the end.
pub(crate) trait Policy {
    /// The server is about to package slot `pos` at `now`.
    fn on_send(
        &mut self,
        _st: &mut State<'_>,
        _pos: usize,
        _now: SimTime,
    ) -> Result<Boundary, ExecError> {
        Ok(Boundary::Pack)
    }

    /// The work of slot `pos` reached its worker.
    fn on_arrival(&mut self, _st: &State<'_>, _pos: usize) -> Arrival {
        Arrival::Serve
    }

    /// A result transit of slot `pos`, whose worker is alive, was lost:
    /// retransmit after the returned delay, or give the results up.
    fn on_loss(&self, _st: &State<'_>, _pos: usize) -> Option<f64> {
        Some(0.0)
    }

    /// Every slot has resolved (arrived, destroyed, skipped or given up)
    /// at `now`; the policy may append slots and send them.
    fn on_all_resolved(&mut self, _st: &mut State<'_>, _now: SimTime) -> Result<(), ExecError> {
        Ok(())
    }
}

/// The empty policy: the pristine and the oblivious faulted replay.
pub(crate) struct Oblivious;

impl Policy for Oblivious {}

/// What a policy may read and steer.
pub(crate) struct State<'f> {
    pub(crate) params: Params,
    pub(crate) faults: FaultIndex<'f>,
    /// The planned positions first, then the appended slots.
    pub(crate) slots: Vec<Slot>,
    /// Cluster size: the number of planned positions and of workers.
    pub(crate) n: usize,
    pub(crate) server: UnitResource,
    pub(crate) channel: UnitResource,
    /// Result messages that vanished in transit.
    pub(crate) lost_messages: u32,
    /// Retransmissions performed.
    pub(crate) retransmits: u32,
    /// Suffix re-optimizations a policy performed.
    pub(crate) replans: u32,
    /// Sends a policy skipped.
    skipped_sends: u32,
    queue: EventQueue<Event>,
    resolved: usize,
    /// The server sends slots `..sends`.
    sends: usize,
    specs: usize,
}

impl State<'_> {
    /// A copy of slot `pos`.
    pub(crate) fn slot(&self, pos: usize) -> Slot {
        self.slots
            .get(pos)
            .copied()
            // hetero-check: allow(expect) — positions come from events and policies, which name only slots the engine holds
            .expect("a slot per position")
    }

    /// Slot `pos`, for a policy that resizes it.
    pub(crate) fn slot_mut(&mut self, pos: usize) -> &mut Slot {
        self.slots
            .get_mut(pos)
            // hetero-check: allow(expect) — positions come from events and policies, which name only slots the engine holds
            .expect("a slot per position")
    }

    /// Appends `work` units for the worker of planned position `home`,
    /// traded from position `from` or (`None`) sent by the server.
    /// Returns the new slot's position.
    pub(crate) fn push(&mut self, home: usize, work: f64, from: Option<usize>) -> usize {
        let Slot {
            worker, rho, crash, ..
        } = self.slot(home);
        self.slots.push(Slot {
            worker,
            work,
            rho,
            crash,
            home,
            from,
            arrival: None,
            service: 0.0,
            packed: false,
            retries: 0,
            losses_left: 0,
            free: SimTime::ZERO,
        });
        self.slots.len() - 1
    }

    /// Starts a send round at slot `pos` at `at`, as a fresh causal root.
    pub(crate) fn send_from(&mut self, pos: usize, at: SimTime) {
        self.sends = self.slots.len();
        self.queue
            .schedule_at(at, Event::StartSend { pos, cause: None });
    }

    /// Acquires the channel for a transit of nominal length `base`,
    /// stretched by any jitter window active at its queue-adjusted start.
    fn transit(&mut self, ready: SimTime, base: f64) -> Result<Grant, ExecError> {
        let prospective = ready.max(self.channel.next_free());
        let dur = match self.faults.channel_factor(prospective.get()) {
            Some(f) => f * base,
            None => base,
        };
        Ok(self.channel.try_acquire(ready, dur)?)
    }
}

/// A worker serving one package: where it stands in its phases.
struct Job {
    worker: usize,
    crash: Option<f64>,
    /// When the next phase starts.
    t: SimTime,
    /// The span the next phase follows.
    prev: usize,
    /// Busy time so far.
    service: f64,
}

/// One run: the state a policy steers plus the sink its spans go to.
pub(crate) struct Engine<'f, S> {
    pub(crate) st: State<'f>,
    pub(crate) spans: S,
}

impl Engine<'_, Trace> {
    /// The run's outcome: its trace, `plan`, and one [`Package`] per slot,
    /// built in one pass.
    pub(crate) fn into_execution(self, plan: &Plan) -> Execution {
        let st = self.st;
        let packages = st
            .slots
            .iter()
            .map(|slot| Package {
                worker: slot.worker,
                position: slot.home,
                from: slot.from,
                work: slot.work,
                arrival: slot.arrival,
                service: slot.service,
            })
            .collect();
        Execution {
            trace: self.spans,
            plan: plan.clone(),
            packages,
            lost_messages: st.lost_messages,
            retransmits: st.retransmits,
            replans: st.replans,
            skipped_sends: st.skipped_sends,
            degraded: false,
        }
    }
}

/// Runs `plan` under `faults` with the empty policy.
pub(crate) fn oblivious<'f, S: SpanSink>(
    params: &Params,
    profile: &Profile,
    plan: &Plan,
    faults: &'f FaultPlan,
    spans: S,
) -> Result<Engine<'f, S>, ExecError> {
    let mut engine = Engine::new(params, profile, plan, faults, spans)?;
    engine.run(&mut Oblivious)?;
    Ok(engine)
}

impl<'f, S: SpanSink> Engine<'f, S> {
    /// Sets up a run of `plan` on `profile` under `faults`: one slot per
    /// planned position, a zero-width `†crash` marker per doomed position
    /// (so traces show the fault plan even where work never reaches the
    /// worker), and the first send at time zero.
    pub(crate) fn new(
        params: &Params,
        profile: &Profile,
        plan: &Plan,
        faults: &'f FaultPlan,
        spans: S,
    ) -> Result<Self, ExecError> {
        let n = profile.n();
        if !crate::alloc::is_permutation(&plan.order, n) || plan.work.len() < n {
            return Err(ExecError::MalformedPlan);
        }
        let index = faults.index();
        let slots = plan
            .order
            .iter()
            .zip(&plan.work)
            .enumerate()
            .map(|(home, (&worker, &work))| Slot {
                worker,
                work,
                rho: profile.rho(worker),
                crash: index.crash_time(worker),
                home,
                from: None,
                arrival: None,
                service: 0.0,
                packed: false,
                retries: 0,
                losses_left: index.result_losses(worker),
                free: SimTime::ZERO,
            })
            .collect();
        let mut engine = Engine {
            st: State {
                params: *params,
                faults: index,
                slots,
                n,
                server: UnitResource::new(),
                channel: UnitResource::new(),
                lost_messages: 0,
                retransmits: 0,
                replans: 0,
                skipped_sends: 0,
                queue: EventQueue::new(),
                resolved: 0,
                sends: n,
                specs: faults.specs().len(),
            },
            spans,
        };
        for slot in &engine.st.slots {
            if let Some(tc) = slot.crash {
                let at = SimTime::try_new(tc)?;
                let ent = worker_entity(slot.worker);
                engine.spans.record(ent, Label::Crash, at, at, None)?;
            }
        }
        engine.st.send_from(0, SimTime::ZERO);
        Ok(engine)
    }

    /// Dispatches every event under `policy`, then folds a traced run
    /// into the collector. A halted run stops where it halted and is not
    /// observed.
    pub(crate) fn run(&mut self, policy: &mut impl Policy) -> Result<(), ExecError> {
        while let Some((now, ev)) = self.st.queue.pop() {
            if !self.dispatch(policy, now, ev)? {
                return Ok(());
            }
        }
        self.observe();
        Ok(())
    }

    /// Handles one event; `false` when the policy halted the run.
    fn dispatch(
        &mut self,
        policy: &mut impl Policy,
        now: SimTime,
        ev: Event,
    ) -> Result<bool, ExecError> {
        let (pi, tau, delta) = (
            self.st.params.pi(),
            self.st.params.tau(),
            self.st.params.delta(),
        );
        let channel = channel_entity(self.st.n);
        match ev {
            Event::StartSend { pos, cause } => {
                let boundary = policy.on_send(&mut self.st, pos, now)?;
                let Slot { worker, work, .. } = self.st.slot(pos);
                // The server sends its slots in order; a traded residual
                // travels from worker to worker instead.
                let next = Some(pos + 1).filter(|&p| p < self.st.sends);
                if let Boundary::Skip = boundary {
                    self.st.skipped_sends += 1;
                    hetero_obs::counters::FAULTS_SKIPPED_SENDS.bump();
                    let skip =
                        self.spans
                            .record(SERVER, Label::SkipFor(worker), now, now, cause)?;
                    if let Some(pos) = next {
                        let ev = Event::StartSend {
                            pos,
                            cause: Some(skip),
                        };
                        self.st.queue.schedule_at(now, ev);
                    }
                    self.resolve(policy, now)?;
                    return Ok(true);
                }
                // Server packages (πw), then the message transits (τw);
                // the channel is claimed as soon as packaging ends.
                let pack = self.st.server.try_acquire(now, pi * work)?;
                let pack_id = self.spans.record(
                    SERVER,
                    Label::PackFor(worker),
                    pack.start,
                    pack.end,
                    cause,
                )?;
                let transit = self.st.transit(pack.end, tau * work)?;
                let xmit = self.spans.record(
                    channel,
                    Label::XmitWork(worker),
                    transit.start,
                    transit.end,
                    Some(pack_id),
                )?;
                let arrive = Event::WorkArrived { pos, cause: xmit };
                self.st.queue.schedule_at(transit.end, arrive);
                if let Some(pos) = next {
                    // "It immediately prepares and sends w₂ via the same
                    // process": the next (π+τ)w block starts when this
                    // transit ends.
                    let ev = Event::StartSend {
                        pos,
                        cause: Some(xmit),
                    };
                    self.st.queue.schedule_at(transit.end, ev);
                }
            }
            Event::WorkArrived { pos, cause } => {
                let Slot {
                    worker,
                    work: w_in,
                    rho,
                    crash,
                    home,
                    ..
                } = self.st.slot(pos);
                let parcel = match policy.on_arrival(&self.st, pos) {
                    Arrival::Serve => None,
                    Arrival::Halt => return Ok(false),
                    Arrival::Split { donor, keep } => {
                        self.st.slot_mut(pos).work = keep;
                        let home = self.st.slot(donor).home;
                        Some(self.st.push(home, w_in - keep, Some(pos)))
                    }
                };
                // One worker, one pipeline: a package waits for the work
                // its worker already has.
                let mut job = Job {
                    worker,
                    crash,
                    t: now.max(self.st.slot(home).free),
                    prev: cause,
                    service: 0.0,
                };
                let mut alive = self.phase(&mut job, Phase::Unpack, pi * rho * w_in)?;
                if let (true, Some(id)) = (alive, parcel) {
                    // The residual is work, not results: it is re-packaged
                    // at the straggler's speed and transits without δ.
                    let Slot {
                        worker: to,
                        work: residual,
                        ..
                    } = self.st.slot(id);
                    alive = self.phase(&mut job, Phase::Xpack(to), pi * rho * residual)?;
                    if alive {
                        let transit = self.st.transit(job.t, tau * residual)?;
                        let xmit = self.spans.record(
                            channel,
                            Label::XmitXchg { from: worker, to },
                            transit.start,
                            transit.end,
                            Some(job.prev),
                        )?;
                        let arrive = Event::WorkArrived {
                            pos: id,
                            cause: xmit,
                        };
                        self.st.queue.schedule_at(transit.end, arrive);
                    }
                }
                let keep = self.st.slot(pos).work;
                if alive {
                    alive = self.phase(&mut job, Phase::Compute, rho * keep)?;
                }
                if alive {
                    alive = self.phase(&mut job, Phase::Pack, pi * rho * delta * keep)?;
                }
                let free = &mut self.st.slot_mut(home).free;
                *free = (*free).max(job.t);
                let slot = self.st.slot_mut(pos);
                slot.service = job.service;
                slot.packed = alive;
                if alive {
                    let ready = Event::ResultsReady {
                        pos,
                        cause: job.prev,
                    };
                    self.st.queue.schedule_at(job.t, ready);
                } else {
                    self.resolve(policy, job.t)?;
                }
            }
            Event::ResultsReady { pos, cause } => {
                let Slot {
                    worker, work, home, ..
                } = self.st.slot(pos);
                let transit = self.st.transit(now, tau * delta * work)?;
                // In the optimal plan the channel frees *exactly* when the
                // worker is ready; f64 round-off can leave an ulp-scale gap
                // that is not a real wait, so only genuine stalls are
                // recorded.
                let mut xmit_cause = cause;
                if transit.start - now > 1e-9 * (1.0 + now.get().abs()) {
                    xmit_cause = self.spans.record(
                        worker_entity(worker),
                        Label::WaitChannel,
                        now,
                        transit.start,
                        Some(cause),
                    )?;
                }
                // Whether *this* transmission vanishes is decided at send
                // time: the worker's first `result_losses` are doomed.
                let left = &mut self.st.slot_mut(home).losses_left;
                let lost = *left > 0;
                if lost {
                    *left -= 1;
                }
                let xmit = self.spans.record(
                    channel,
                    Label::XmitResult { worker, lost },
                    transit.start,
                    transit.end,
                    Some(xmit_cause),
                )?;
                let done = if lost {
                    Event::TransitLost { pos, cause: xmit }
                } else {
                    Event::TransitDone { pos, cause: xmit }
                };
                self.st.queue.schedule_at(transit.end, done);
            }
            Event::TransitLost { pos, cause } => {
                self.st.lost_messages += 1;
                // The package is stored at the worker, so a live worker can
                // retransmit once the loss is discovered; a crashed one
                // cannot. A retransmission chains off the lost transit, so
                // recovery shows as a longer causal path through `†lost`.
                let alive = self.st.slot(pos).crash.is_none_or(|tc| tc > now.get());
                match alive.then(|| policy.on_loss(&self.st, pos)).flatten() {
                    Some(delay) => {
                        self.st.retransmits += 1;
                        self.st.slot_mut(pos).retries += 1;
                        let at = if delay > 0.0 {
                            now.try_add(delay)?
                        } else {
                            now
                        };
                        let ready = Event::ResultsReady { pos, cause };
                        self.st.queue.schedule_at(at, ready);
                    }
                    None => self.resolve(policy, now)?,
                }
            }
            Event::TransitDone { pos, cause } => {
                let Slot {
                    worker, work, from, ..
                } = self.st.slot(pos);
                self.st.slot_mut(pos).arrival = Some(now);
                let unpack = self.st.server.try_acquire(now, pi * delta * work)?;
                self.spans.record(
                    SERVER,
                    Label::RecvFrom {
                        worker,
                        xchg: from.is_some(),
                    },
                    unpack.start,
                    unpack.end,
                    Some(cause),
                )?;
                self.resolve(policy, now)?;
            }
        }
        Ok(true)
    }

    /// One phase of `job`: stretched by any slowdown window active at its
    /// start, cut short by the worker's crash. Returns `false` when the
    /// worker died in it; results persist only once packaging completes.
    #[inline]
    fn phase(&mut self, job: &mut Job, phase: Phase, base: f64) -> Result<bool, ExecError> {
        let ent = worker_entity(job.worker);
        let dur = match self.st.faults.slowdown_factor(job.worker, job.t.get()) {
            Some(f) => f * base,
            None => base,
        };
        let end = job.t.try_add(dur)?;
        if let Some(tc) = job.crash.filter(|&tc| tc < end.get()) {
            let cut = SimTime::try_new(tc)?;
            if cut > job.t {
                let label = Label::Worker { phase, crash: true };
                self.spans.record(ent, label, job.t, cut, Some(job.prev))?;
                job.service += cut - job.t;
            }
            return Ok(false);
        }
        let label = Label::phase(phase);
        job.prev = self.spans.record(ent, label, job.t, end, Some(job.prev))?;
        job.service += end - job.t;
        job.t = end;
        Ok(true)
    }

    /// Counts one more slot resolved and lets the policy react once every
    /// slot has.
    fn resolve(&mut self, policy: &mut impl Policy, now: SimTime) -> Result<(), ExecError> {
        self.st.resolved += 1;
        if self.st.resolved < self.st.slots.len() {
            return Ok(());
        }
        policy.on_all_resolved(&mut self.st, now)
    }

    /// Folds a traced run into the global collector: simulator load,
    /// resource utilization per entity, per-phase span timing (send =
    /// server packaging + work transit; compute = the worker's `Bρw`
    /// block; receive = result transit + server unpackaging) and the
    /// fault tallies. Every family feeds the same sketches and series,
    /// whatever extra span labels it mints; the untraced probe feeds none.
    fn observe(&self) {
        let Some(trace) = self.spans.trace() else {
            return;
        };
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
        let mut worker_busy = vec![0.0f64; self.st.n];
        for span in trace.spans() {
            let phase = match span.label {
                Label::Worker {
                    phase: Phase::Unpack | Phase::Compute | Phase::Pack,
                    crash: false,
                } => {
                    let idx = span.entity.wrapping_sub(1);
                    if let Some(busy) = worker_busy.get_mut(idx) {
                        *busy += span.duration();
                    }
                    0
                }
                Label::WaitChannel => 1,
                Label::PackFor(_)
                | Label::Worker {
                    phase: Phase::Xpack(_),
                    ..
                }
                | Label::XmitWork(_)
                | Label::XmitXchg { .. } => 2,
                Label::XmitResult { .. } | Label::RecvFrom { .. } => 3,
                Label::SkipFor(_) | Label::Worker { .. } | Label::Crash | Label::Text(_) => 4,
            };
            let d = span.duration();
            // The same phase durations feed the mergeable quantile sketches,
            // so the stream can report p50/p90/p99 latencies next to the
            // Welford moments.
            if let (Some(st), Some(sk)) = (stats.get_mut(phase), sketches.get_mut(phase)) {
                st.push(d);
                sk.record(d);
            }
        }
        let st = &self.st;
        hetero_obs::with_collector(|c| {
            c.count("sim.events", st.queue.dispatched());
            c.gauge_max("sim.queue_high_water", st.queue.high_water() as u64);
            c.observe("protocol.util.server", st.server.utilization(horizon));
            c.observe("protocol.util.channel", st.channel.utilization(horizon));
            for ((phase, stats), sketch) in PHASES.iter().zip(&stats).zip(&sketches) {
                c.merge_observations(phase, stats);
                c.merge_sketch(phase, sketch);
            }
            if horizon.get() > 0.0 {
                for busy in &worker_busy {
                    c.observe("protocol.util.worker", busy / horizon.get());
                }
            }
        });
        if st.specs > 0 {
            hetero_obs::counters::FAULTS_INJECTED.add(st.specs as u64);
            hetero_obs::counters::FAULTS_LOST_MESSAGES.add(u64::from(st.lost_messages));
        }
    }
}
