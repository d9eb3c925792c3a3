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
//! The family is a policy on the crate's one event engine (the
//! crate-private `engine` module): it detects at send boundaries and
//! decides at work arrival; the engine runs everything else. Mapped onto
//! Rosenberg–Chiang's CEP model:
//!
//! * **Detection** — the server runs [`crate::replan`]'s failure
//!   detector (the crate's shared one) at send boundaries: crashes by
//!   `t_c ≤ now`, stragglers by an active slowdown window rescaling the
//!   effective ρ. The exchange family piggy-backs the verdicts onto the
//!   work package: a worker that learns it is running
//!   `f×` slow keeps `w/f` — the slice whose inflated compute time
//!   `ρ·(w/f)·f = ρw` still lands on the planned schedule — and
//!   re-packages the residual `w − w/f` for its donor.
//! * **Transfer** — the residual is a real DES citizen, a package the
//!   engine appends for the donor: an `xpack→C*` packaging phase on the
//!   straggler (crash-truncatable), an `xmit:xchg:C*→C*` transit
//!   occupying the shared channel (jitter applies), then the donor's own
//!   unpack/compute/pack at *its* ρ, serialized after whatever the donor
//!   was already obligated to do.
//!   Exchange rounds are bounded by [`ExchangePolicy::max_rounds`] and
//!   each position trades at most once.
//! * **Degradation** — when a straggler finds no donor (every peer is
//!   itself straggling, crashed, or there is no peer at all) the run
//!   degrades gracefully: the whole execution is replayed under
//!   [`crate::replan::execute_adaptive`] with
//!   [`ExchangePolicy::fallback`], and that run is returned with its
//!   `degraded` flag set.
//!
//! Conservation invariant: every exchange splits `w` into `w/f` and
//! `w − w/f` exactly, so retained + transferred work equals the planned
//! allocation to the last bit — `tests/protocol_families.rs` checks the
//! ledger against the exact `Ratio` oracle.
//!
//! With an empty fault plan nothing is ever detected, no exchange fires,
//! and the trace is bit-identical to the pristine executor's.

use hetero_core::{Params, Profile};
use hetero_faults::FaultPlan;
use hetero_sim::{SimTime, Trace};

use crate::alloc::Plan;
use crate::detect::Detector;
use crate::engine::{Arrival, Boundary, Engine, Policy, State};
use crate::exec::Execution;
use crate::fault_exec::ExecError;
use crate::replan::{execute_adaptive, HedgePolicy};

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

/// The exchange family's decisions; see the module docs.
struct Exchanger {
    det: Detector,
    exchanged: Vec<bool>, // per planned position: it already traded
    rounds_left: u32,
    no_donor: bool,
}

/// Executes `plan` under `faults` with peer-to-peer work exchange.
///
/// See the module docs for the trade rules. Each traded residual follows
/// the plan's positions in the ledger as a package of its donor, with
/// `from` naming the straggler's position. With an empty fault plan the
/// result is bit-identical to the pristine executor; when a straggler
/// finds no donor the result is [`execute_adaptive`]'s run under
/// `policy.fallback`, marked `degraded`.
pub fn execute_exchange(
    params: &Params,
    profile: &Profile,
    plan: &Plan,
    faults: &FaultPlan,
    policy: &ExchangePolicy,
) -> Result<Execution, ExecError> {
    let mut run = Engine::new(params, profile, plan, faults, Trace::new())?;
    let mut exchanger = Exchanger {
        det: Detector::new(&run.st.faults, &run.st.slots),
        exchanged: vec![false; profile.n()],
        rounds_left: policy.max_rounds,
        no_donor: false,
    };
    run.run(&mut exchanger)?;

    if exchanger.no_donor {
        // Graceful degradation: nobody can absorb the residual, so the
        // server-side replanner is strictly the better reaction. The
        // partial exchange trace is discarded and the run replayed.
        let mut fallback = execute_adaptive(params, profile, plan, faults, &policy.fallback)?;
        fallback.degraded = true;
        if hetero_obs::enabled() {
            hetero_obs::counters::PROTOCOL_EXCHANGE_DEGRADED.bump();
        }
        return Ok(fallback);
    }

    // Every appended package is a traded residual.
    let run = run.into_execution(plan);
    if hetero_obs::enabled() {
        let traded = run.appended();
        hetero_obs::counters::PROTOCOL_EXCHANGE_TRANSFERS.add(traded.len() as u64);
        for x in traded {
            hetero_obs::observe("protocol.exchange.transfer_work", x.work);
        }
    }
    Ok(run)
}

impl Exchanger {
    /// Picks the donor for the straggler at `straggler`: the fastest peer
    /// not known-crashed and not itself straggling, preferring peers whose
    /// own obligations already completed (trading onto a still-loaded peer
    /// only queues the parcel behind them). Ties break to the lowest
    /// position.
    fn pick_donor(&self, st: &State<'_>, straggler: usize) -> Option<usize> {
        let best_of = |only_done: bool| {
            let mut best: Option<usize> = None;
            for (j, &traded) in self.exchanged.iter().enumerate() {
                if j == straggler
                    || traded
                    || self.det.known_crashed(j)
                    || self.det.detected_slow(j)
                    || (only_done && !st.slot(j).packed)
                {
                    continue;
                }
                best = match best {
                    Some(b) if self.det.eff_rho(j) >= self.det.eff_rho(b) => Some(b),
                    _ => Some(j),
                };
            }
            best
        };
        best_of(true).or_else(|| best_of(false))
    }
}

impl Policy for Exchanger {
    fn on_send(
        &mut self,
        st: &mut State<'_>,
        pos: usize,
        now: SimTime,
    ) -> Result<Boundary, ExecError> {
        // Detection happens here, at the send boundary; the verdict
        // travels with the package and is acted on at arrival. The send
        // itself stays oblivious — the exchange family reacts worker-side,
        // not server-side.
        self.det.detect(&st.faults, pos, now);
        Ok(Boundary::Pack)
    }

    fn on_arrival(&mut self, st: &State<'_>, pos: usize) -> Arrival {
        // Trade decision: a detected straggler keeps the slice that still
        // fits its planned schedule and ships the rest. A parcel, or a
        // position that already traded, is served as it is.
        if self.exchanged.get(pos) != Some(&false)
            || !self.det.detected_slow(pos)
            || self.rounds_left == 0
        {
            return Arrival::Serve;
        }
        let slot = st.slot(pos);
        let keep = slot.work / (self.det.eff_rho(pos) / slot.rho);
        if slot.work - keep > 0.0 {
            let Some(donor) = self.pick_donor(st, pos) else {
                // Nobody can take the load: degrade the whole run to
                // adaptive replanning.
                self.no_donor = true;
                return Arrival::Halt;
            };
            self.rounds_left -= 1;
            if let Some(traded) = self.exchanged.get_mut(pos) {
                *traded = true;
            }
            return Arrival::Split { donor, keep };
        }
        Arrival::Serve
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::fifo_plan;
    use crate::exec::execute;
    use crate::fault_exec::execute_with_faults;
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
        let run = execute_exchange(
            &p,
            &profile,
            &plan,
            &FaultPlan::empty(),
            &ExchangePolicy::default(),
        )
        .unwrap();
        assert!(!run.degraded);
        assert_eq!(run.trace.spans(), pristine.trace.spans());
        assert_eq!(run.packages, pristine.packages);
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
        assert!(!run.degraded);
        assert_eq!(run.appended().len(), 1);
        let x = &run.appended()[0];
        // Worker 1 sits at position 1 (fifo keeps profile order).
        let pos = plan.order.iter().position(|&i| i == 1).unwrap();
        assert_eq!(x.from, Some(pos));
        assert_ne!(x.position, pos);
        // Exact split: keep = w/f, residual = w − w/f.
        let w = plan.work[pos];
        assert_eq!(run.packages[pos].work, w / factor);
        assert_eq!(x.work, w - w / factor);
        assert!(x.arrival.is_some(), "residual results returned");
        // The ledger conserves the plan: retained + traded = planned.
        let total: f64 = run.packages.iter().map(|p| p.work).sum();
        assert!((total - plan.total_work()).abs() <= 1e-12 * plan.total_work());
        // The trace shows the transfer machinery.
        assert!(run.trace.spans().iter().any(|s| matches!(
            s.label,
            Label::Worker {
                phase: Phase::Xpack(_),
                ..
            }
        )));
        assert!(run
            .trace
            .spans()
            .iter()
            .any(|s| matches!(s.label, Label::XmitXchg { .. })));
        assert!(run
            .trace
            .spans()
            .iter()
            .any(|s| matches!(s.label, Label::RecvFrom { xchg: true, .. })));
        // The trade pays in completion time: the oblivious executor
        // grinds the full package at 4x, while the exchange run finishes
        // the same total work strictly earlier (retained slice on the
        // planned schedule, residual at the donor's healthy speed).
        let oblivious = execute_with_faults(&p, &profile, &plan, &faults).unwrap();
        assert!(run.last_arrival().unwrap() < oblivious.last_arrival().unwrap());
        assert!(run.work_completed_by(lifespan) >= oblivious.work_completed_by(lifespan));
        let salvaged = run.work_completed_by(f64::INFINITY);
        assert!((salvaged - plan.total_work()).abs() <= 1e-9 * plan.total_work());
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
        assert!(run.degraded);
        assert!(run.appended().iter().all(|p| p.from.is_none()));
        let adaptive = execute_adaptive(&p, &profile, &plan, &faults, &policy.fallback).unwrap();
        assert!(!adaptive.degraded);
        assert_eq!(run.trace.spans(), adaptive.trace.spans());
        assert_eq!(run.packages, adaptive.packages);
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
        assert!(!run.degraded);
        assert_eq!(run.appended().len(), 1);
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
        assert!(!run.degraded);
        assert_eq!(run.appended().len(), 1);
        let donor_pos = run.appended()[0].position;
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
