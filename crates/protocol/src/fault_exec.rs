//! Discrete-event execution of worksharing plans under injected faults.
//!
//! [`execute_with_faults`] is a superset of [`crate::exec::execute`]: both
//! are the empty policy on the crate's one event engine (the crate-private
//! `engine` module), which consults a [`FaultPlan`] at every event
//! boundary — through the per-run [`FaultIndex`] it builds once — and
//! compiles its specs into the schedule:
//!
//! * **Crash** — the worker dies at `t_c`. A package whose *result
//!   packaging* has not completed by then (`t_c < pack_end`) is lost:
//!   its phase spans are truncated at `t_c` with a `†crash` marker and
//!   no results ever arrive. Results packaged strictly before the crash
//!   persist and still transit (the network, not the worker, carries
//!   them) — but a crashed worker cannot *re*-transmit a lost message.
//!   The executor itself stays oblivious: the server keeps sending to
//!   crashed workers exactly as planned (reacting is the job of
//!   [`crate::replan`]).
//! * **Slowdown** — each worker phase whose start falls inside the
//!   window takes `factor` times as long.
//! * **Channel jitter** — each network transit whose (queue-adjusted)
//!   start falls inside the window takes `factor` times as long.
//! * **Result loss** — the first `count` result messages from a worker
//!   occupy the channel, then vanish; the worker retransmits from its
//!   stored package immediately on discovery.
//!
//! Every fault query is `Option`-shaped and every perturbation multiplies
//! only when a fault is *active*, so executing an **empty** plan performs
//! the exact float-operation sequence of the pristine executor — the
//! result is bit-identical, which `tests/fault_recovery.rs` pins.
//!
//! Fault-perturbed durations are arbitrary products, so this path uses
//! the fallible engine API throughout ([`UnitResource::try_acquire`],
//! [`SimTime::try_add`], [`Trace::try_record`]) and surfaces failures as
//! typed [`ExecError`]s instead of panicking.
//!
//! [`FaultIndex`]: hetero_faults::FaultIndex
//! [`UnitResource::try_acquire`]: hetero_sim::UnitResource::try_acquire
//! [`SimTime::try_add`]: hetero_sim::SimTime::try_add
//! [`Trace::try_record`]: hetero_sim::Trace::try_record

use std::fmt;

use hetero_core::{Params, Profile};
use hetero_faults::FaultPlan;
use hetero_sim::{BackwardsSpan, GrantError, NonFiniteTime, SimTime, Trace};

use crate::alloc::Plan;
use crate::engine;

/// Why a faulted execution could not run to completion.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// The plan's order is not a permutation of the profile's indices.
    MalformedPlan,
    /// A fault-perturbed occupancy was rejected by a resource.
    Grant(GrantError),
    /// A fault-perturbed schedule left the finite clock range.
    Time(NonFiniteTime),
    /// A fault-perturbed span ended before it started.
    Span(BackwardsSpan),
    /// The replanner's suffix re-solve was rejected by the model layer
    /// (e.g. a slowdown factor drove an effective ρ out of range).
    Model(hetero_core::ModelError),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::MalformedPlan => {
                write!(f, "plan order must be a permutation of the profile indices")
            }
            ExecError::Grant(e) => write!(f, "resource grant failed: {e}"),
            ExecError::Time(e) => write!(f, "schedule overflowed the clock: {e}"),
            ExecError::Span(e) => write!(f, "trace rejected a span: {e}"),
            ExecError::Model(e) => write!(f, "suffix re-solve rejected: {e}"),
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::MalformedPlan => None,
            ExecError::Grant(e) => Some(e),
            ExecError::Time(e) => Some(e),
            ExecError::Span(e) => Some(e),
            ExecError::Model(e) => Some(e),
        }
    }
}

impl From<hetero_core::ModelError> for ExecError {
    fn from(e: hetero_core::ModelError) -> Self {
        ExecError::Model(e)
    }
}

impl From<GrantError> for ExecError {
    fn from(e: GrantError) -> Self {
        ExecError::Grant(e)
    }
}

impl From<NonFiniteTime> for ExecError {
    fn from(e: NonFiniteTime) -> Self {
        ExecError::Time(e)
    }
}

impl From<BackwardsSpan> for ExecError {
    fn from(e: BackwardsSpan) -> Self {
        ExecError::Span(e)
    }
}

/// The outcome of a faulted execution: the trace plus the fault ledger.
#[derive(Debug, Clone)]
pub struct FaultedExecution {
    /// Action/time record of every entity (crash-truncated phases carry a
    /// `†crash` label suffix; lost transits a `†lost` one).
    pub trace: Trace,
    /// When each position's results finished transiting back to the
    /// server, by startup position — `None` when the fault plan destroyed
    /// them (crash before packaging, or an unretransmittable loss).
    pub arrivals: Vec<Option<SimTime>>,
    /// The executed plan.
    pub plan: Plan,
    /// Realized worker busy time per position — the fault-inflated
    /// (slowdowns) or crash-truncated time actually spent serving the
    /// package, against which the planned `Bρw` can be compared.
    pub realized_service: Vec<f64>,
    /// Result messages that vanished in transit.
    pub lost_messages: u32,
    /// Retransmissions performed to recover lost messages.
    pub retransmits: u32,
}

impl FaultedExecution {
    /// The latest result arrival among positions that returned at all.
    pub fn last_arrival(&self) -> Option<SimTime> {
        self.arrivals.iter().flatten().copied().max()
    }

    /// Total work units whose results made it back to the server — the
    /// paper's completion criterion applied to the surviving positions.
    pub fn salvaged_work(&self) -> f64 {
        self.arrivals
            .iter()
            .zip(&self.plan.work)
            .filter(|(arr, _)| arr.is_some())
            .map(|(_, w)| w)
            .sum()
    }

    /// Total work units whose results the fault plan destroyed.
    pub fn lost_work(&self) -> f64 {
        self.plan.total_work() - self.salvaged_work()
    }

    /// Work units whose results had arrived by time `t` (same boundary
    /// tolerance as [`Execution::work_completed_by`]).
    ///
    /// [`Execution::work_completed_by`]: crate::exec::Execution::work_completed_by
    pub fn work_completed_by(&self, t: f64) -> f64 {
        let cutoff = t * (1.0 + 1e-9);
        // hetero-check: allow(float-accum) — same fixed worker order as Execution::work_completed_by; the two must agree bit-for-bit
        self.arrivals
            .iter()
            .zip(&self.plan.work)
            .filter_map(|(arr, w)| arr.filter(|a| a.get() <= cutoff).map(|_| w))
            .sum()
    }

    /// `true` when some results arrived *after* the lifespan — late work
    /// the paper's completion criterion refuses to count. Destroyed
    /// results are lost throughput, not a deadline miss; the distinction
    /// keeps the two sweep metrics (throughput, miss rate) independent.
    pub fn missed_deadline(&self, lifespan: f64) -> bool {
        let cutoff = lifespan * (1.0 + 1e-9);
        self.arrivals.iter().flatten().any(|arr| arr.get() > cutoff)
    }

    /// The end of the last recorded activity.
    pub fn makespan(&self) -> SimTime {
        self.trace.makespan()
    }
}

/// Executes `plan` on `profile` while injecting `faults`.
///
/// With an empty fault plan this is bit-identical to
/// [`crate::exec::execute`] (every arrival `Some`, every span equal);
/// with faults it records what actually happened — truncated phases,
/// inflated service times, lost and retransmitted messages — without ever
/// reacting to them. The adaptive counterpart lives in [`crate::replan`].
pub fn execute_with_faults(
    params: &Params,
    profile: &Profile,
    plan: &Plan,
    faults: &FaultPlan,
) -> Result<FaultedExecution, ExecError> {
    let run = engine::oblivious(params, profile, plan, faults, Trace::new())?;
    Ok(FaultedExecution {
        arrivals: run.st.slots.iter().map(|slot| slot.arrival).collect(),
        realized_service: run.st.slots.iter().map(|slot| slot.service).collect(),
        lost_messages: run.st.lost_messages,
        retransmits: run.st.retransmits,
        trace: run.spans,
        plan: plan.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::fifo_plan;
    use crate::exec::execute;
    use hetero_faults::FaultSpec;
    use hetero_sim::{Label, Phase};

    fn params() -> Params {
        Params::paper_table1()
    }

    #[test]
    fn empty_plan_reproduces_the_pristine_execution() {
        let p = params();
        let profile = Profile::harmonic(5);
        let plan = fifo_plan(&p, &profile, 700.0).unwrap();
        let pristine = execute(&p, &profile, &plan);
        let faulted = execute_with_faults(&p, &profile, &plan, &FaultPlan::empty()).unwrap();
        assert_eq!(faulted.trace.spans(), pristine.trace.spans());
        let arrivals: Vec<SimTime> = faulted.arrivals.iter().map(|a| a.unwrap()).collect();
        assert_eq!(arrivals, pristine.arrivals);
        assert_eq!(faulted.lost_messages, 0);
        assert_eq!(faulted.retransmits, 0);
        assert!((faulted.salvaged_work() - plan.total_work()).abs() < 1e-12);
        assert_eq!(faulted.lost_work(), 0.0);
        assert!(!faulted.missed_deadline(700.0));
    }

    #[test]
    fn early_crash_destroys_the_package_and_marks_the_trace() {
        let p = params();
        let profile = Profile::new(vec![1.0, 0.5]).unwrap();
        let plan = fifo_plan(&p, &profile, 400.0).unwrap();
        // Crash worker 0 before its work even arrives.
        let faults = FaultPlan::new(vec![FaultSpec::Crash {
            worker: 0,
            at: 1e-6,
        }])
        .unwrap();
        let run = execute_with_faults(&p, &profile, &plan, &faults).unwrap();
        assert_eq!(run.arrivals[0], None);
        assert!(run.arrivals[1].is_some());
        assert_eq!(run.realized_service[0], 0.0);
        assert!((run.lost_work() - plan.work[0]).abs() < 1e-12);
        assert!(run
            .trace
            .spans()
            .iter()
            .any(|s| s.label == Label::Crash && s.entity == crate::exec::worker_entity(0)));
        // No worker phase spans for the dead worker beyond the marker.
        assert!(!run
            .trace
            .spans()
            .iter()
            .any(|s| s.entity == crate::exec::worker_entity(0)
                && s.label == Label::phase(Phase::Compute)));
    }

    #[test]
    fn mid_phase_crash_truncates_and_loses_only_that_position() {
        let p = params();
        let profile = Profile::new(vec![1.0, 0.5]).unwrap();
        let plan = fifo_plan(&p, &profile, 400.0).unwrap();
        let pristine = execute(&p, &profile, &plan);
        // Crash worker 0 in the middle of its compute phase.
        let compute = pristine
            .trace
            .spans()
            .iter()
            .find(|s| {
                s.entity == crate::exec::worker_entity(0) && s.label == Label::phase(Phase::Compute)
            })
            .unwrap();
        let tc = 0.5 * (compute.start.get() + compute.end.get());
        let faults = FaultPlan::new(vec![FaultSpec::Crash { worker: 0, at: tc }]).unwrap();
        let run = execute_with_faults(&p, &profile, &plan, &faults).unwrap();
        assert_eq!(run.arrivals[0], None);
        let cut = run
            .trace
            .spans()
            .iter()
            .find(|s| {
                s.label
                    == Label::Worker {
                        phase: Phase::Compute,
                        crash: true,
                    }
            })
            .unwrap();
        assert_eq!(cut.end.get(), tc);
        // Realized service = full unpack + the truncated compute slice.
        let unpack = pristine
            .trace
            .spans()
            .iter()
            .find(|s| {
                s.entity == crate::exec::worker_entity(0) && s.label == Label::phase(Phase::Unpack)
            })
            .unwrap();
        let expect = unpack.duration() + (tc - compute.start.get());
        assert!((run.realized_service[0] - expect).abs() < 1e-9);
        // The surviving worker is untouched.
        assert_eq!(run.arrivals[1], pristine.arrivals.get(1).copied());
    }

    #[test]
    fn post_packaging_crash_still_delivers_results() {
        let p = params();
        let profile = Profile::new(vec![1.0]).unwrap();
        let plan = fifo_plan(&p, &profile, 300.0).unwrap();
        let pristine = execute(&p, &profile, &plan);
        let pack_end = pristine
            .trace
            .spans()
            .iter()
            .find(|s| s.label == Label::phase(Phase::Pack))
            .unwrap()
            .end;
        // Crash exactly at packaging completion: the loss window is
        // [0, pack_end), so the results persist and transit normally.
        let faults = FaultPlan::new(vec![FaultSpec::Crash {
            worker: 0,
            at: pack_end.get(),
        }])
        .unwrap();
        let run = execute_with_faults(&p, &profile, &plan, &faults).unwrap();
        assert_eq!(run.arrivals[0], Some(pristine.arrivals[0]));
    }

    #[test]
    fn slowdown_inflates_service_and_delays_the_arrival() {
        let p = params();
        let profile = Profile::new(vec![1.0, 0.5]).unwrap();
        let plan = fifo_plan(&p, &profile, 400.0).unwrap();
        let pristine = execute(&p, &profile, &plan);
        // The window must cover the *inflated* schedule too: phases of a
        // 3x-slowed worker start well past the original lifespan.
        let faults = FaultPlan::new(vec![FaultSpec::Slowdown {
            worker: 1,
            factor: 3.0,
            from: 0.0,
            until: 1e6,
        }])
        .unwrap();
        let run = execute_with_faults(&p, &profile, &plan, &faults).unwrap();
        // Worker 1 (position 1) took 3x its planned service time.
        let planned = p.b() * profile.rho(1) * plan.work[1];
        assert!((run.realized_service[1] - 3.0 * planned).abs() / planned < 1e-9);
        assert!(run.arrivals[1].unwrap() > pristine.arrivals[1]);
        assert!(run.missed_deadline(400.0));
        // Worker 0's own phases are unaffected (though its result transit
        // may queue behind the straggler's).
        assert!((run.realized_service[0] - p.b() * profile.rho(0) * plan.work[0]).abs() < 1e-9);
    }

    #[test]
    fn channel_jitter_stretches_covered_transits() {
        let p = params();
        let profile = Profile::new(vec![1.0]).unwrap();
        let plan = fifo_plan(&p, &profile, 300.0).unwrap();
        // Cover the whole run: every transit is doubled.
        let faults = FaultPlan::new(vec![FaultSpec::ChannelJitter {
            factor: 2.0,
            from: 0.0,
            until: 1e6,
        }])
        .unwrap();
        let run = execute_with_faults(&p, &profile, &plan, &faults).unwrap();
        let w = plan.work[0];
        let xmit_work = run
            .trace
            .spans()
            .iter()
            .find(|s| matches!(s.label, Label::XmitWork(_)))
            .unwrap();
        assert!((xmit_work.duration() - 2.0 * p.tau() * w).abs() < 1e-12);
        let xmit_result = run
            .trace
            .spans()
            .iter()
            .find(|s| matches!(s.label, Label::XmitResult { .. }))
            .unwrap();
        assert!((xmit_result.duration() - 2.0 * p.tau() * p.delta() * w).abs() < 1e-12);
    }

    #[test]
    fn lost_results_are_retransmitted_by_live_workers() {
        let p = params();
        let profile = Profile::new(vec![1.0]).unwrap();
        let plan = fifo_plan(&p, &profile, 300.0).unwrap();
        let pristine = execute(&p, &profile, &plan);
        let faults = FaultPlan::new(vec![FaultSpec::ResultLoss {
            worker: 0,
            count: 2,
        }])
        .unwrap();
        let run = execute_with_faults(&p, &profile, &plan, &faults).unwrap();
        assert_eq!(run.lost_messages, 2);
        assert_eq!(run.retransmits, 2);
        // Two extra transits of τδw each push the arrival back exactly.
        let extra = 2.0 * p.tau() * p.delta() * plan.work[0];
        let expect = pristine.arrivals[0].get() + extra;
        assert!((run.arrivals[0].unwrap().get() - expect).abs() < 1e-9);
        assert_eq!(
            run.trace
                .spans()
                .iter()
                .filter(|s| matches!(s.label, Label::XmitResult { lost: true, .. }))
                .count(),
            2
        );
    }

    #[test]
    fn a_crashed_worker_cannot_retransmit() {
        let p = params();
        let profile = Profile::new(vec![1.0]).unwrap();
        let plan = fifo_plan(&p, &profile, 300.0).unwrap();
        let pristine = execute(&p, &profile, &plan);
        // Crash after packaging (results persist, first transit happens)
        // but before the loss is discovered: no retransmission possible.
        let pack_end = pristine
            .trace
            .spans()
            .iter()
            .find(|s| s.label == Label::phase(Phase::Pack))
            .unwrap()
            .end;
        let faults = FaultPlan::new(vec![
            FaultSpec::Crash {
                worker: 0,
                at: pack_end.get(),
            },
            FaultSpec::ResultLoss {
                worker: 0,
                count: 1,
            },
        ])
        .unwrap();
        let run = execute_with_faults(&p, &profile, &plan, &faults).unwrap();
        assert_eq!(run.lost_messages, 1);
        assert_eq!(run.retransmits, 0);
        assert_eq!(run.arrivals[0], None);
        assert_eq!(run.salvaged_work(), 0.0);
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
            execute_with_faults(&p, &profile, &plan, &FaultPlan::empty()).unwrap_err(),
            ExecError::MalformedPlan
        );
    }

    #[test]
    fn absurd_fault_factors_surface_grant_errors() {
        let p = params();
        let profile = Profile::new(vec![1.0]).unwrap();
        let plan = fifo_plan(&p, &profile, 300.0).unwrap();
        // Two overlapping maximal windows: their product overflows to
        // infinity, which the time arithmetic must reject, not absorb.
        let huge = FaultSpec::Slowdown {
            worker: 0,
            factor: f64::MAX,
            from: 0.0,
            until: 1e9,
        };
        let faults = FaultPlan::new(vec![huge, huge]).unwrap();
        let err = execute_with_faults(&p, &profile, &plan, &faults).unwrap_err();
        assert!(matches!(err, ExecError::Time(_) | ExecError::Grant(_)));
    }
}
