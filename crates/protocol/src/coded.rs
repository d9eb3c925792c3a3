//! MDS-coded execution: redundancy replaces retransmission.
//!
//! The third protocol family, after oblivious retransmission
//! ([`crate::fault_exec`]) and adaptive replanning ([`crate::replan`]),
//! follows the coded-computation discipline of Reisizadeh et al.
//! (arXiv:1701.05973): the server encodes the job with an (n, k) MDS
//! code and ships one coded share to every worker, sized to its speed —
//! *any* k completed shares reconstruct the job, so stragglers, crashes
//! and lost messages up to `n − k` of them cost nothing but the coding
//! overhead.
//!
//! Mapped onto Rosenberg–Chiang's CEP model:
//!
//! * **Assignment** ([`mds_assignment`]) — the shares are the FIFO
//!   worksharing allocation itself (the no-gap recurrence already sizes
//!   each worker's load to its ρ so everything lands by the lifespan).
//!   The *certified job size* is the sum of the k **smallest** shares:
//!   every k-subset of shares carries at least that much coded mass, so
//!   a job of that size decodes from any k survivors — the worst case
//!   is exactly the k smallest. [`CodedPlan::overhead`] reports the
//!   redundancy paid for that certificate.
//! * **Execution** ([`execute_coded`]) — the DES replay is the oblivious
//!   executor's on the crate's one event engine (the crate-private
//!   `engine` module), with one deliberate difference, the family's only
//!   policy hook: a result message lost in transit is **never
//!   retransmitted**. The share is simply gone; the code absorbs it.
//!   (This is what makes the family strictly faster than retransmission
//!   under lossy channels: no recovery round-trips ever extend the
//!   schedule.)
//! * **Decode** ([`CodedExecution::decode`]) — succeeds at the k-th
//!   earliest share arrival; with fewer than k survivors it returns the
//!   typed [`DecodeFailed`] carrying the certified accounting of what
//!   was assigned, what survived, and what was stranded.
//!
//! With an empty fault plan the trace is bit-identical to the pristine
//! executor run on the same plan (the no-retransmission branch is never
//! reached when nothing is lost), which `tests/protocol_families.rs`
//! pins.

use std::fmt;

use hetero_core::{ModelError, Params, Profile};
use hetero_faults::FaultPlan;
use hetero_sim::{SimTime, Trace};

use crate::alloc::{fifo_plan, Plan};
use crate::engine::{Engine, Policy, State};
use crate::error::ProtocolError;
use crate::exec::{cutoff, Execution};
use crate::fault_exec::ExecError;

/// An (n, k) MDS share assignment over a heterogeneous cluster.
#[derive(Debug, Clone)]
pub struct CodedPlan {
    /// The share sizes and startup order (the FIFO worksharing
    /// allocation — each share is sized to its worker's ρ).
    pub plan: Plan,
    /// Decode threshold: any `k` completed shares reconstruct the job.
    pub k: usize,
    /// Certified decodable job size: the sum of the k smallest shares.
    /// Any k-subset of shares totals at least this much coded mass.
    pub job: f64,
}

impl CodedPlan {
    /// Redundancy paid for the any-k certificate:
    /// `total assigned work / certified job − 1`. Zero only when every
    /// share is equal and k = n (no coding at all).
    pub fn overhead(&self) -> f64 {
        self.plan.total_work() / self.job - 1.0
    }
}

/// Builds the heterogeneity-aware (n, k) MDS assignment for `profile`:
/// the FIFO worksharing allocation provides the per-ρ share sizes, and
/// the certified job is the sum of the k smallest shares.
///
/// Returns [`ProtocolError::InvalidK`] unless `1 ≤ k ≤ n`, and
/// propagates any allocation failure from [`fifo_plan`].
pub fn mds_assignment(
    params: &Params,
    profile: &Profile,
    lifespan: f64,
    k: usize,
) -> Result<CodedPlan, ProtocolError> {
    let n = profile.n();
    if k == 0 || k > n {
        return Err(ProtocolError::InvalidK { k, n });
    }
    let plan = fifo_plan(params, profile, lifespan)?;
    let mut shares = plan.work.clone();
    shares.sort_unstable_by(f64::total_cmp);
    // hetero-check: allow(float-accum) — k smallest shares in sorted order; the certificate test re-derives this sum in exact Ratio arithmetic
    let job: f64 = shares.iter().take(k).sum();
    Ok(CodedPlan { plan, k, job })
}

/// The typed decode failure: fewer than k shares survived.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeFailed {
    /// The decode threshold the assignment was built for.
    pub needed: usize,
    /// How many shares actually returned.
    pub arrived: usize,
    /// Total coded work assigned across all n shares.
    pub assigned_work: f64,
    /// Coded mass that returned but cannot be decoded — certified
    /// overhead accounting for the sub-threshold outcome: the cluster
    /// burned this much work for zero decodable output.
    pub stranded_work: f64,
}

impl fmt::Display for DecodeFailed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MDS decode failed: {} of {} required shares survived ({} of {} assigned work units stranded undecodable)",
            self.arrived, self.needed, self.stranded_work, self.assigned_work
        )
    }
}

impl std::error::Error for DecodeFailed {}

/// A successful reconstruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodedDecode {
    /// When the k-th share arrived — the moment the job decodes.
    pub time: SimTime,
    /// Decoded job size (the certified `job` of the assignment).
    pub job: f64,
    /// Shares that had arrived by the decode instant (exactly k).
    pub shares_used: usize,
}

/// The outcome of a coded execution: the run of the share plan plus
/// what coding adds, the decode threshold and the certified job.
#[derive(Debug, Clone)]
pub struct CodedExecution {
    /// The run of the assignment's plan: one package per share, `None`
    /// where the fault plan destroyed the share (crash before packaging,
    /// or a transit loss, which this family never recovers).
    pub run: Execution,
    /// Decode threshold: any `k` completed shares reconstruct the job.
    pub k: usize,
    /// The assignment's certified job size.
    pub job: f64,
}

impl CodedExecution {
    /// Reconstructs the job from the surviving shares: succeeds at the
    /// k-th earliest arrival, or reports the typed [`DecodeFailed`]
    /// with the certified overhead accounting.
    pub fn decode(&self) -> Result<CodedDecode, DecodeFailed> {
        let mut times: Vec<SimTime> = self.run.packages.iter().filter_map(|p| p.arrival).collect();
        times.sort_unstable();
        // The k-th earliest arrival decodes; with fewer than k shares (or
        // a hand-built k = 0) there is none.
        if let Some(&time) = self.k.checked_sub(1).and_then(|i| times.get(i)) {
            return Ok(CodedDecode {
                time,
                job: self.job,
                shares_used: self.k,
            });
        }
        Err(DecodeFailed {
            needed: self.k,
            arrived: times.len(),
            assigned_work: self.run.plan.total_work(),
            stranded_work: self.run.work_completed_by(f64::INFINITY),
        })
    }

    /// Decodable work by time `t`: the certified job iff the k-th share
    /// had arrived by `t` (within [`crate::exec::COMPLETION_SLACK`]),
    /// else zero. MDS reconstruction is all-or-nothing — partial share
    /// sets carry no decodable mass, which is the price the family pays
    /// next to worksharing's per-position salvage.
    pub fn work_completed_by(&self, t: f64) -> f64 {
        match self.decode() {
            Ok(d) if d.time.get() <= cutoff(t) => d.job,
            _ => 0.0,
        }
    }

    /// `true` when the job did not decode by the lifespan — either
    /// fewer than k shares ever returned, or the k-th arrived late.
    /// (Shares arriving after the decode instant are irrelevant; the
    /// code has already reconstructed without them.)
    pub fn missed_deadline(&self, lifespan: f64) -> bool {
        !matches!(self.decode(), Ok(d) if d.time.get() <= cutoff(lifespan))
    }
}

/// The coded family's one decision: a lost share is never retransmitted.
struct NoRetransmit;

impl Policy for NoRetransmit {
    fn on_loss(&self, _st: &State<'_>, _pos: usize) -> Option<f64> {
        None
    }
}

/// Executes the coded assignment on `profile` while injecting `faults`.
///
/// The replay is the oblivious executor's — same phase structure, same
/// crash/slowdown/jitter semantics — except that lost result messages
/// are never retransmitted: the share is sacrificed and the MDS code is
/// expected to absorb it at decode time. With an empty fault plan the
/// trace is bit-identical to [`crate::exec::execute`] on `coded.plan`.
///
/// Returns [`ExecError::Model`] unless `1 ≤ coded.k ≤ n`.
pub fn execute_coded(
    params: &Params,
    profile: &Profile,
    coded: &CodedPlan,
    faults: &FaultPlan,
) -> Result<CodedExecution, ExecError> {
    if !(1..=profile.n()).contains(&coded.k) {
        return Err(ExecError::Model(ModelError::InvalidParam {
            name: "k",
            value: coded.k as f64,
        }));
    }
    let mut engine = Engine::new(params, profile, &coded.plan, faults, Trace::new())?;
    engine.run(&mut NoRetransmit)?;
    let run = engine.into_execution(&coded.plan);
    if hetero_obs::enabled() {
        if run.packages.iter().filter(|p| p.arrival.is_some()).count() >= coded.k {
            hetero_obs::counters::PROTOCOL_CODED_DECODES.bump();
        } else {
            hetero_obs::counters::PROTOCOL_CODED_DECODE_FAILURES.bump();
        }
        hetero_obs::observe("protocol.coded.overhead", coded.overhead());
    }
    Ok(CodedExecution {
        run,
        k: coded.k,
        job: coded.job,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use hetero_faults::FaultSpec;
    use hetero_sim::Label;

    fn params() -> Params {
        Params::paper_table1()
    }

    #[test]
    fn assignment_certifies_the_k_smallest_shares() {
        let p = params();
        let profile = Profile::harmonic(5);
        let coded = mds_assignment(&p, &profile, 600.0, 3).unwrap();
        let mut shares = coded.plan.work.clone();
        shares.sort_unstable_by(f64::total_cmp);
        assert!((coded.job - (shares[0] + shares[1] + shares[2])).abs() < 1e-12);
        assert!(coded.overhead() > 0.0);
        // k = n certifies the whole allocation: zero slack against loss,
        // zero overhead — no coding at all.
        let full = mds_assignment(&p, &profile, 600.0, 5).unwrap();
        let total = full.plan.total_work();
        assert!((full.job - total).abs() <= 1e-12 * total);
        assert!(full.overhead().abs() <= 1e-12);
    }

    #[test]
    fn invalid_k_is_a_typed_error() {
        let p = params();
        let profile = Profile::harmonic(3);
        assert!(matches!(
            mds_assignment(&p, &profile, 600.0, 0),
            Err(ProtocolError::InvalidK { k: 0, n: 3 })
        ));
        assert!(matches!(
            mds_assignment(&p, &profile, 600.0, 4),
            Err(ProtocolError::InvalidK { k: 4, n: 3 })
        ));
    }

    #[test]
    fn empty_plan_reproduces_the_pristine_execution() {
        let p = params();
        let profile = Profile::harmonic(5);
        let coded = mds_assignment(&p, &profile, 700.0, 4).unwrap();
        let pristine = execute(&p, &profile, &coded.plan);
        let run = execute_coded(&p, &profile, &coded, &FaultPlan::empty()).unwrap();
        assert_eq!(run.run.trace.spans(), pristine.trace.spans());
        assert_eq!(run.run.packages, pristine.packages);
        assert_eq!(run.run.lost_messages, 0);
        let d = run.decode().unwrap();
        assert_eq!(d.shares_used, 4);
        assert!(!run.missed_deadline(700.0));
        assert!((run.work_completed_by(700.0) - coded.job).abs() < 1e-12);
    }

    #[test]
    fn decode_survives_up_to_n_minus_k_losses() {
        let p = params();
        let profile = Profile::harmonic(5);
        let coded = mds_assignment(&p, &profile, 600.0, 3).unwrap();
        // Two shares destroyed (= n − k): still decodes, on time.
        let faults = FaultPlan::new(vec![
            FaultSpec::ResultLoss {
                worker: 0,
                count: 1,
            },
            FaultSpec::Crash { worker: 2, at: 1.0 },
        ])
        .unwrap();
        let run = execute_coded(&p, &profile, &coded, &faults).unwrap();
        assert_eq!(run.run.lost_messages, 1);
        let arrived = run.run.packages.iter().filter(|p| p.arrival.is_some());
        assert_eq!(arrived.count(), 3);
        let d = run.decode().unwrap();
        assert!((d.job - coded.job).abs() < 1e-12);
        assert!(!run.missed_deadline(600.0));
    }

    #[test]
    fn losses_are_never_retransmitted() {
        let p = params();
        let profile = Profile::harmonic(4);
        let coded = mds_assignment(&p, &profile, 500.0, 3).unwrap();
        let faults = FaultPlan::new(vec![FaultSpec::ResultLoss {
            worker: 1,
            count: 3,
        }])
        .unwrap();
        let run = execute_coded(&p, &profile, &coded, &faults).unwrap();
        // One loss consumed, the share is gone; the remaining loss
        // budget never fires because nothing is ever resent.
        assert_eq!(run.run.lost_messages, 1);
        let pos = coded.plan.order.iter().position(|&i| i == 1).unwrap();
        assert_eq!(run.run.packages[pos].arrival, None);
        assert_eq!(
            run.run
                .trace
                .spans()
                .iter()
                .filter(|s| matches!(s.label, Label::XmitResult { lost: true, .. }))
                .count(),
            1
        );
    }

    #[test]
    fn sub_threshold_survival_is_a_typed_decode_failure() {
        let p = params();
        let profile = Profile::harmonic(4);
        let coded = mds_assignment(&p, &profile, 500.0, 3).unwrap();
        let faults = FaultPlan::new(vec![
            FaultSpec::Crash { worker: 0, at: 0.0 },
            FaultSpec::ResultLoss {
                worker: 1,
                count: 1,
            },
        ])
        .unwrap();
        let run = execute_coded(&p, &profile, &coded, &faults).unwrap();
        let err = run.decode().unwrap_err();
        assert_eq!(err.needed, 3);
        assert_eq!(err.arrived, 2);
        assert!((err.assigned_work - coded.plan.total_work()).abs() < 1e-12);
        assert!(err.stranded_work > 0.0 && err.stranded_work < err.assigned_work);
        assert!(err.to_string().contains("2 of 3"));
        assert_eq!(run.work_completed_by(500.0), 0.0);
        assert!(run.missed_deadline(500.0));
    }

    #[test]
    fn k_outside_one_to_n_is_a_typed_error_and_decode_never_panics() {
        let p = params();
        let profile = Profile::harmonic(3);
        let mut coded = mds_assignment(&p, &profile, 600.0, 2).unwrap();
        for k in [0, 4] {
            coded.k = k;
            assert_eq!(
                execute_coded(&p, &profile, &coded, &FaultPlan::empty()).unwrap_err(),
                ExecError::Model(ModelError::InvalidParam {
                    name: "k",
                    value: k as f64,
                })
            );
        }
        // `CodedExecution`'s fields are public: a hand-built k = 0 decodes
        // nothing instead of underflowing.
        coded.k = 2;
        let mut run = execute_coded(&p, &profile, &coded, &FaultPlan::empty()).unwrap();
        run.k = 0;
        assert_eq!(run.decode().unwrap_err().needed, 0);
        assert_eq!(run.work_completed_by(600.0), 0.0);
        assert!(run.missed_deadline(600.0));
    }

    #[test]
    fn malformed_plan_is_a_typed_error() {
        let p = params();
        let profile = Profile::new(vec![1.0, 0.5]).unwrap();
        let coded = CodedPlan {
            plan: Plan {
                order: vec![0, 0],
                work: vec![1.0, 1.0],
                lifespan: 10.0,
            },
            k: 1,
            job: 1.0,
        };
        assert_eq!(
            execute_coded(&p, &profile, &coded, &FaultPlan::empty()).unwrap_err(),
            ExecError::MalformedPlan
        );
    }
}
