//! Adaptive replanning: reacting to detected faults at send boundaries.
//!
//! [`execute_adaptive`] runs the same DES protocol as
//! [`crate::fault_exec::execute_with_faults`], but gives the server a
//! failure detector with **send-boundary granularity**: each time it is
//! about to package the next position's work, it learns which of the
//! still-unserved workers have crashed or are straggling *as of that
//! moment*, and reacts:
//!
//! * **Drop** — sends to known-crashed workers are skipped outright
//!   (the oblivious executor wastes `(π+τ)w` of server and channel time
//!   on each doomed package).
//! * **Re-solve** — when new faults were detected since the last solve
//!   (and, under a positive hedge margin, at the first boundary), the
//!   remaining workload is re-optimized over the surviving suffix:
//!   the live X-measure is maintained by a streaming [`ChurnScan`], so
//!   each boundary syncs by *diff* — sent positions and newly detected
//!   crashes are O(log n) `delete`s, detected slowdowns are O(log n)
//!   `replace`s, top-up positions are O(log n) `insert`s — never a
//!   from-scratch solver construction over the whole suffix. The no-gap
//!   recurrence then re-sizes the suffix to the *hedged* window.
//!   Allocations **never grow** past the original plan — under pure
//!   crashes the re-solve reproduces the original sizes exactly, which
//!   is what makes replanned throughput provably ≥ oblivious throughput
//!   (pinned by a property test).
//! * **Hedge** — [`HedgePolicy`] shaves the deadline to
//!   [`hedged_lifespan`]`(L, margin)` so perturbation noise lands in the
//!   margin instead of past the deadline, bounds retransmission attempts
//!   with optional backoff, and (graceful degradation) skips sends whose
//!   best-case return would already overshoot the hedged deadline.
//! * **Top-up** — once every planned position has resolved, leftover
//!   hedged window is refilled with a bonus round over *proven-alive*
//!   workers (those whose results actually returned), recovering
//!   throughput that crashes destroyed. The bonus packages follow the
//!   planned ones in the returned [`Execution`]'s ledger, and each
//!   planned package carries its post-replan size.
//!
//! The family is a policy on the crate's one event engine (the
//! crate-private `engine` module): it decides at send boundaries, on lost
//! results and once every planned position has resolved; the engine runs
//! everything else.
//!
//! Detection runs through the crate's shared send-boundary detector,
//! which visits only the unsent positions that can still learn something
//! (a crash not yet known, a slowdown not yet seen) and answers from the
//! plan's per-run [`FaultIndex`].
//!
//! With an empty fault plan and a zero margin nothing is ever detected
//! or re-solved, so the adaptive executor performs the exact schedule —
//! bit-identical trace — of the pristine one. A positive margin re-sizes
//! the plan to the hedged window at the first boundary even when nothing
//! is detected.
//!
//! [`ChurnScan`]: hetero_core::xstream::ChurnScan
//! [`FaultIndex`]: hetero_faults::FaultIndex

use hetero_core::xmeasure::x_measure_of_rhos;
use hetero_core::xstream::{ChurnScan, WorkerId};
use hetero_core::{Params, Profile};
use hetero_faults::FaultPlan;
use hetero_sim::{SimTime, Trace};

use crate::alloc::Plan;
use crate::detect::Detector;
use crate::engine::{Boundary, Engine, Policy, Slot, State};
use crate::exec::{cutoff, Execution};
use crate::fault_exec::ExecError;

/// The deadline a margin-hedging planner actually plans for:
/// `L / (1 + margin)`.
///
/// E17 measures the mean makespan *overrun factor* `actual/L` under
/// ρ-estimation error; planning for `hedged_lifespan(L, overrun)` absorbs
/// exactly that factor, turning the knife-edge deadline into a safety
/// band. The replanner applies the same transform to its re-solved
/// windows, so the two layers hedge identically.
pub fn hedged_lifespan(lifespan: f64, margin: f64) -> f64 {
    lifespan / (1.0 + margin)
}

/// How aggressively the adaptive executor hedges against faults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgePolicy {
    /// Safety margin on the lifespan: all replanned work is sized to
    /// [`hedged_lifespan`]`(L, margin)`. Zero plans to the knife edge.
    pub margin: f64,
    /// Retransmission budget per position for lost result messages.
    pub max_retries: u32,
    /// Backoff factor between retries: retry `k` (1-based) waits
    /// `backoff · k · τδw` before retransmitting. Zero retransmits
    /// immediately, like the oblivious executor.
    pub retry_backoff: f64,
    /// Graceful degradation: skip a send whose best-case result return
    /// (`(π+τ)w + Bρw + τδw` from now, at the detected effective speed)
    /// already overshoots the hedged deadline.
    pub degrade: bool,
    /// Refill leftover hedged window with a bonus round over
    /// proven-alive workers once every planned position has resolved.
    pub topup: bool,
}

impl Default for HedgePolicy {
    fn default() -> Self {
        HedgePolicy {
            margin: 0.0,
            max_retries: 3,
            retry_backoff: 0.0,
            degrade: true,
            topup: true,
        }
    }
}

/// The adaptive family's decisions; see the module docs.
struct Adaptive {
    hedge: HedgePolicy,
    hedged_l: f64,
    det: Detector,
    scan: ChurnScan,
    scan_ids: Vec<Option<WorkerId>>, // per slot: live churn-scan handle
    dirty: bool,
    topup_done: bool,
}

/// Executes `plan` under `faults` with boundary-granularity replanning.
///
/// See the module docs for the reaction rules. The top-up packages
/// follow the plan's positions in the ledger, and the run plans to
/// [`hedged_lifespan`]`(plan.lifespan, policy.margin)`. With an empty
/// fault plan and `policy.margin == 0` the result is bit-identical to
/// the oblivious (and pristine) executor.
pub fn execute_adaptive(
    params: &Params,
    profile: &Profile,
    plan: &Plan,
    faults: &FaultPlan,
    policy: &HedgePolicy,
) -> Result<Execution, ExecError> {
    let mut run = Engine::new(params, profile, plan, faults, Trace::new())?;
    let n = profile.n();
    let mut adaptive = Adaptive {
        hedge: *policy,
        hedged_l: hedged_lifespan(plan.lifespan, policy.margin),
        det: Detector::new(&run.st.faults, &run.st.slots),
        scan: ChurnScan::new(params),
        scan_ids: vec![None; n],
        // The plan was sized to the unhedged lifespan: a positive margin
        // re-sizes it to the hedged window at the first boundary, whether
        // or not anything is detected there.
        dirty: policy.margin > 0.0,
        topup_done: false,
    };
    run.run(&mut adaptive)?;
    Ok(run.into_execution(plan))
}

/// Package sizes of the no-gap recurrence for the speeds `rhos`, scaled
/// by the window constant `c`.
fn no_gap<'a>(
    params: &Params,
    c: f64,
    rhos: impl Iterator<Item = f64> + 'a,
) -> impl Iterator<Item = f64> + 'a {
    let (a, b, td) = (params.a(), params.b(), params.tau_delta());
    let mut product = 1.0f64;
    rhos.map(move |rho| {
        let denom = b * rho + a;
        let w = c * product / denom;
        product *= (b * rho + td) / denom;
        w
    })
}

impl Adaptive {
    /// Re-optimizes the unsent suffix `pos..` over its surviving members:
    /// no-gap recurrence sized to the hedged window, allocations capped at
    /// their current values (never-grow).
    fn resolve_suffix(
        &mut self,
        st: &mut State<'_>,
        pos: usize,
        now: SimTime,
    ) -> Result<(), ExecError> {
        let survivors: Vec<usize> = (pos..st.slots.len())
            .filter(|&j| !self.det.known_crashed(j))
            .collect();
        let remaining = self.hedged_l - now.get();
        if survivors.is_empty() || remaining <= 0.0 {
            return Ok(());
        }
        let _span = hetero_obs::timed("faults.replan");
        hetero_obs::counters::FAULTS_REPLANS.bump();
        // Suffix re-solve depth: how many surviving positions each boundary
        // re-optimization spans (the `obsdiff` observatory tracks its mean).
        hetero_obs::observe("faults.replan.suffix_depth", survivors.len() as f64);
        st.replans += 1;
        // Streaming X-measure maintenance: sync the churn scan to the
        // surviving suffix by diff. Sent and newly crashed positions leave
        // (O(log n) deletes), detected slowdowns rescale in place (O(log n)
        // replaces), top-up positions join (O(log n) inserts) — membership
        // changes never trigger an O(n) from-scratch re-solve.
        for (j, handle) in self.scan_ids.iter_mut().enumerate() {
            if j < pos || self.det.known_crashed(j) {
                if let Some(id) = handle.take() {
                    self.scan.delete(id)?;
                }
                continue;
            }
            let rho = self.det.eff_rho(j);
            match *handle {
                Some(id) => {
                    if self.scan.rho_of(id)?.to_bits() != rho.to_bits() {
                        self.scan.replace(id, rho)?;
                    }
                }
                None => *handle = Some(self.scan.insert(rho)?),
            }
        }
        let c = remaining / (1.0 + st.params.tau_delta() * self.scan.x());
        let rhos = survivors.iter().map(|&j| self.det.eff_rho(j));
        for (&j, resized) in survivors.iter().zip(no_gap(&st.params, c, rhos)) {
            let slot = st.slot_mut(j);
            if resized < slot.work {
                slot.work = resized;
            }
        }
        Ok(())
    }
}

impl Policy for Adaptive {
    fn on_send(
        &mut self,
        st: &mut State<'_>,
        pos: usize,
        now: SimTime,
    ) -> Result<Boundary, ExecError> {
        if self.det.detect(&st.faults, pos, now) {
            self.dirty = true;
        }
        if self.dirty {
            self.resolve_suffix(st, pos, now)?;
            self.dirty = false;
        }
        // Best-case return time at the detected effective speed; anything
        // that cannot make the hedged deadline even unobstructed is dead
        // channel weight.
        let p = &st.params;
        let w = st.slot(pos).work;
        let skip = self.det.known_crashed(pos)
            || (self.hedge.degrade && {
                let best = (p.pi() + p.tau()) * w
                    + p.b() * self.det.eff_rho(pos) * w
                    + p.tau() * p.delta() * w;
                now.get() + best > cutoff(self.hedged_l)
            });
        Ok(if skip { Boundary::Skip } else { Boundary::Pack })
    }

    fn on_loss(&self, st: &State<'_>, pos: usize) -> Option<f64> {
        // Retry k (1-based) waits `backoff · k · τδw`.
        let slot = st.slot(pos);
        (slot.retries < self.hedge.max_retries).then(|| {
            let p = &st.params;
            self.hedge.retry_backoff * f64::from(slot.retries + 1) * p.tau() * p.delta() * slot.work
        })
    }

    /// The top-up round.
    fn on_all_resolved(&mut self, st: &mut State<'_>, now: SimTime) -> Result<(), ExecError> {
        if !self.hedge.topup || self.topup_done {
            return Ok(());
        }
        self.topup_done = true;
        // The bonus round can only start once the server has finished
        // unpacking the last result and the channel has drained — sizing the
        // window from `now` would overshoot the hedged deadline by exactly
        // that busy tail.
        let start = now.max(st.server.next_free()).max(st.channel.next_free());
        let window = self.hedged_l - start.get();
        if window <= 1e-6 * self.hedged_l {
            return Ok(());
        }
        // Proven-alive workers: original positions whose results came back.
        let alive: Vec<usize> = (0..st.n)
            .filter(|&p| st.slot(p).arrival.is_some())
            .collect();
        if alive.is_empty() {
            return Ok(());
        }
        // The bonus round is a one-shot flat solve over a different member
        // set; the churn scan keeps tracking the planned suffix, and the new
        // positions join it through resolve_suffix's insert diff.
        let rhos: Vec<f64> = alive.iter().map(|&p| self.det.eff_rho(p)).collect();
        let x = x_measure_of_rhos(&st.params, &rhos);
        let c = window / (1.0 + st.params.tau_delta() * x);
        let first_new = st.slots.len();
        let sizes = no_gap(&st.params, c, rhos.iter().copied());
        for ((&p, &rho), w) in alive.iter().zip(&rhos).zip(sizes) {
            if !(w.is_finite() && w > 0.0) {
                continue;
            }
            let Slot {
                worker,
                rho: base_rho,
                crash,
                ..
            } = st.slot(p);
            st.push(p, w, None);
            // A fresh position: its crash is not yet known, its slowdown
            // verdict is the original position's.
            let slow = self.det.detected_slow(p);
            self.det
                .push(&st.faults, worker, base_rho, crash, rho, slow);
            self.scan_ids.push(None);
        }
        if st.slots.len() > first_new {
            // The bonus round is a fresh causal root: no single span caused
            // it — it starts when *everything* planned has resolved.
            st.send_from(first_new, start);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::fifo_plan;
    use crate::exec::execute;
    use crate::fault_exec::execute_with_faults;
    use hetero_faults::FaultSpec;
    use hetero_sim::Label;

    fn params() -> Params {
        Params::paper_table1()
    }

    #[test]
    fn hedged_lifespan_shaves_the_margin() {
        assert_eq!(hedged_lifespan(600.0, 0.0), 600.0);
        assert!((hedged_lifespan(600.0, 0.2) - 500.0).abs() < 1e-12);
        assert!(hedged_lifespan(600.0, 0.05) < 600.0);
    }

    #[test]
    fn fault_free_adaptive_is_bit_identical_to_pristine() {
        let p = params();
        let profile = Profile::harmonic(6);
        let plan = fifo_plan(&p, &profile, 700.0).unwrap();
        let pristine = execute(&p, &profile, &plan);
        let run = execute_adaptive(
            &p,
            &profile,
            &plan,
            &FaultPlan::empty(),
            &HedgePolicy::default(),
        )
        .unwrap();
        assert_eq!(run.trace.spans(), pristine.trace.spans());
        assert_eq!(run.packages, pristine.packages);
        assert_eq!(run.replans, 0);
        assert_eq!(run.skipped_sends, 0);
    }

    #[test]
    fn a_positive_margin_hedges_the_run_when_nothing_is_detected() {
        // An empty plan never triggers a detection, yet the margin must
        // still size the run to the hedged window L/1.1 rather than let
        // graceful degradation skip every send of the unhedged plan.
        let p = params();
        let profile = Profile::harmonic(8);
        let lifespan = 600.0;
        let plan = fifo_plan(&p, &profile, lifespan).unwrap();
        let policy = HedgePolicy {
            margin: 0.1,
            ..HedgePolicy::default()
        };
        let run = execute_adaptive(&p, &profile, &plan, &FaultPlan::empty(), &policy).unwrap();
        let hedged = hetero_core::xmeasure::work(&p, &profile, lifespan / 1.1);
        let done = run.work_completed_by(lifespan);
        assert!((done - hedged).abs() <= 1e-9 * hedged, "{done} vs {hedged}");
        assert!(!run.missed_deadline(lifespan));
        assert_eq!(run.skipped_sends, 0);
    }

    #[test]
    fn detected_crash_skips_the_send_and_replans() {
        let p = params();
        let profile = Profile::new(vec![1.0, 0.5, 0.25]).unwrap();
        let plan = fifo_plan(&p, &profile, 500.0).unwrap();
        // Worker 2 (position 2, fastest) crashes at t = 0: every boundary
        // detects it before its send.
        let faults = FaultPlan::new(vec![FaultSpec::Crash { worker: 2, at: 0.0 }]).unwrap();
        let run = execute_adaptive(&p, &profile, &plan, &faults, &HedgePolicy::default()).unwrap();
        assert!(run.skipped_sends >= 1);
        assert!(run.replans >= 1);
        assert_eq!(run.packages[2].arrival, None);
        assert!(run.packages[0].arrival.is_some() && run.packages[1].arrival.is_some());
        assert!(run
            .trace
            .spans()
            .iter()
            .any(|s| s.label == Label::SkipFor(2) && s.entity == crate::exec::SERVER));
        // The oblivious executor wastes the send; adaptive salvages no
        // less work and never delivers late.
        let oblivious = execute_with_faults(&p, &profile, &plan, &faults).unwrap();
        let salvaged = |run: &Execution| run.work_completed_by(f64::INFINITY);
        assert!(salvaged(&run) >= salvaged(&oblivious) - 1e-9);
        assert!(!run.missed_deadline(500.0));
    }

    #[test]
    fn detected_straggler_shrinks_its_package_to_fit_the_hedge() {
        let p = params();
        let profile = Profile::new(vec![1.0, 0.5]).unwrap();
        let lifespan = 500.0;
        let plan = fifo_plan(&p, &profile, lifespan).unwrap();
        // Worker 1 runs 4x slow for the whole run — chronic straggler,
        // detectable at the very first boundary.
        let faults = FaultPlan::new(vec![FaultSpec::Slowdown {
            worker: 1,
            factor: 4.0,
            from: 0.0,
            until: lifespan,
        }])
        .unwrap();
        let policy = HedgePolicy {
            margin: 0.05,
            ..HedgePolicy::default()
        };
        let oblivious = execute_with_faults(&p, &profile, &plan, &faults).unwrap();
        assert!(oblivious.missed_deadline(lifespan), "oblivious is late");
        let run = execute_adaptive(&p, &profile, &plan, &faults, &policy).unwrap();
        assert!(!run.missed_deadline(lifespan), "replanned fits");
        assert!(run.replans >= 1);
        assert!(
            run.packages[1].work < plan.work[1],
            "straggler package shrank"
        );
    }

    #[test]
    fn topup_refills_the_window_after_losses() {
        // Fat result transits (τδ = 0.2): the last position's arrival sits
        // a real fraction of the lifespan after the first's, so its death
        // frees a window the top-up round can actually use. Under the
        // paper's τδ ~ 1e-6 every arrival clusters at L and there is
        // nothing to refill — which the guard correctly detects.
        let p = Params::new(0.2, 0.01, 1.0).unwrap();
        let profile = Profile::new(vec![1.0, 0.5]).unwrap();
        let lifespan = 500.0;
        let plan = fifo_plan(&p, &profile, lifespan).unwrap();
        // Worker 1 (the last position) dies mid-compute; worker 0 returns
        // fine well before the deadline, leaving the freed tail window.
        let faults = FaultPlan::new(vec![FaultSpec::Crash {
            worker: 1,
            at: 100.0,
        }])
        .unwrap();
        let run = execute_adaptive(&p, &profile, &plan, &faults, &HedgePolicy::default()).unwrap();
        assert!(
            !run.appended().is_empty(),
            "proven-alive worker 0 gets bonus work"
        );
        for t in run.appended() {
            assert_eq!(t.worker, 0);
            assert!(t.work > 0.0);
        }
        assert!(!run.missed_deadline(lifespan));
        let oblivious = execute_with_faults(&p, &profile, &plan, &faults).unwrap();
        assert!(
            run.work_completed_by(lifespan) > oblivious.work_completed_by(lifespan),
            "top-up strictly beats oblivious salvage"
        );
    }

    #[test]
    fn retry_budget_bounds_retransmissions() {
        let p = params();
        let profile = Profile::new(vec![1.0]).unwrap();
        let plan = fifo_plan(&p, &profile, 400.0).unwrap();
        let faults = FaultPlan::new(vec![FaultSpec::ResultLoss {
            worker: 0,
            count: 10,
        }])
        .unwrap();
        let policy = HedgePolicy {
            max_retries: 2,
            topup: false,
            ..HedgePolicy::default()
        };
        let run = execute_adaptive(&p, &profile, &plan, &faults, &policy).unwrap();
        assert_eq!(run.retransmits, 2);
        assert_eq!(run.lost_messages, 3); // initial send + 2 retries, all lost
        assert_eq!(run.packages[0].arrival, None);
    }

    #[test]
    fn backoff_delays_retransmission() {
        let p = params();
        let profile = Profile::new(vec![1.0]).unwrap();
        let plan = fifo_plan(&p, &profile, 400.0).unwrap();
        let faults = FaultPlan::new(vec![FaultSpec::ResultLoss {
            worker: 0,
            count: 1,
        }])
        .unwrap();
        let eager = execute_adaptive(&p, &profile, &plan, &faults, &HedgePolicy::default())
            .unwrap()
            .packages[0]
            .arrival
            .unwrap();
        let lazy = execute_adaptive(
            &p,
            &profile,
            &plan,
            &faults,
            &HedgePolicy {
                retry_backoff: 2.0,
                ..HedgePolicy::default()
            },
        )
        .unwrap()
        .packages[0]
            .arrival
            .unwrap();
        assert!(lazy > eager, "backoff postpones the recovered arrival");
    }

    #[test]
    fn crash_only_never_grows_allocations() {
        // The dominance cap: under pure crashes the re-solve reproduces
        // the original allocation for every survivor.
        let p = params();
        let profile = Profile::harmonic(5);
        let plan = fifo_plan(&p, &profile, 600.0).unwrap();
        let faults = FaultPlan::new(vec![
            FaultSpec::Crash { worker: 1, at: 0.0 },
            FaultSpec::Crash {
                worker: 3,
                at: 50.0,
            },
        ])
        .unwrap();
        let run = execute_adaptive(&p, &profile, &plan, &faults, &HedgePolicy::default()).unwrap();
        for (pos, (w, &orig)) in run
            .planned()
            .iter()
            .map(|p| p.work)
            .zip(&plan.work)
            .enumerate()
        {
            assert!(
                w <= orig * (1.0 + 1e-9),
                "position {pos} grew: {w} > {orig}"
            );
        }
        for pos in [0usize, 2, 4] {
            assert!(
                (run.packages[pos].work - plan.work[pos]).abs() / plan.work[pos] < 1e-9,
                "survivor {pos} resized under crash-only faults"
            );
        }
    }

    #[test]
    fn malformed_plan_is_rejected() {
        let p = params();
        let profile = Profile::new(vec![1.0, 0.5]).unwrap();
        let plan = Plan {
            order: vec![1, 1],
            work: vec![1.0, 1.0],
            lifespan: 10.0,
        };
        assert_eq!(
            execute_adaptive(
                &p,
                &profile,
                &plan,
                &FaultPlan::empty(),
                &HedgePolicy::default()
            )
            .unwrap_err(),
            ExecError::MalformedPlan
        );
    }
}
