//! The Cluster-Rental Problem — the CEP's dual (paper footnote 3).
//!
//! CRP: complete `W` units of work on cluster `C` in as few time units as
//! possible. The paper cites \[1\]'s result that an optimal CEP solution
//! converts efficiently into an optimal CRP solution; with the exact
//! (not just asymptotic) work identity `W(L) = L/(τδ + 1/X(P))` of our
//! FIFO allocation, the conversion is the closed form
//!
//! ```text
//! L*(W) = W · (τδ + 1/X(P))
//! ```
//!
//! [`min_lifespan`] computes it, [`rental_plan`] builds the witnessing
//! schedule, and the tests confirm minimality behaviourally: the plan
//! completes exactly `W` by `L*`, and any shorter lifespan completes
//! strictly less.

use hetero_core::xmeasure;
use hetero_core::{ModelError, Params, Profile};

use crate::alloc::{fifo_plan, Plan};
use crate::ProtocolError;

/// The minimum lifespan in which `work` units can be completed on the
/// cluster (the CRP optimum).
pub fn min_lifespan(params: &Params, profile: &Profile, work: f64) -> Result<f64, ProtocolError> {
    if !(work.is_finite() && work > 0.0) {
        return Err(ProtocolError::Model(ModelError::InvalidParam {
            name: "work",
            value: work,
        }));
    }
    let x = xmeasure::x_measure(params, profile);
    Ok(work * (params.tau_delta() + 1.0 / x))
}

/// The optimal CRP schedule: a FIFO plan sized to complete exactly `work`
/// units, returned together with its (minimal) lifespan.
pub fn rental_plan(
    params: &Params,
    profile: &Profile,
    work: f64,
) -> Result<(Plan, f64), ProtocolError> {
    let lifespan = min_lifespan(params, profile, work)?;
    let plan = fifo_plan(params, profile, lifespan)?;
    Ok((plan, lifespan))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;

    fn params() -> Params {
        Params::paper_table1()
    }

    #[test]
    fn rental_plan_completes_exactly_the_requested_work() {
        let p = params();
        let profile = Profile::new(vec![1.0, 0.5, 0.25]).unwrap();
        for work in [1.0, 100.0, 12_345.6] {
            let (plan, lifespan) = rental_plan(&p, &profile, work).unwrap();
            assert!((plan.total_work() - work).abs() / work < 1e-12);
            let run = execute(&p, &profile, &plan);
            assert!((run.work_completed_by(lifespan) - work).abs() / work < 1e-9);
        }
    }

    #[test]
    fn shorter_lifespans_cannot_complete_the_work() {
        // Minimality, observed: at 99.9 % of L* the optimal protocol
        // finishes strictly less than W.
        let p = params();
        let profile = Profile::harmonic(5);
        let work = 500.0;
        let lifespan = min_lifespan(&p, &profile, work).unwrap();
        let shorter = fifo_plan(&p, &profile, lifespan * 0.999).unwrap();
        assert!(shorter.total_work() < work);
    }

    #[test]
    fn duality_roundtrip() {
        // CEP(L) produces W; CRP(W) must return exactly L.
        let p = params();
        let profile = Profile::uniform_spread(6);
        let lifespan = 777.0;
        let w = xmeasure::work(&p, &profile, lifespan);
        let back = min_lifespan(&p, &profile, w).unwrap();
        assert!((back - lifespan).abs() / lifespan < 1e-12);
    }

    #[test]
    fn faster_clusters_need_less_time() {
        let p = params();
        let slow = Profile::new(vec![1.0, 0.5]).unwrap();
        let fast = Profile::new(vec![1.0, 0.25]).unwrap();
        let work = 1000.0;
        assert!(min_lifespan(&p, &fast, work).unwrap() < min_lifespan(&p, &slow, work).unwrap());
    }

    #[test]
    fn rejects_nonpositive_work() {
        let p = params();
        let profile = Profile::new(vec![1.0]).unwrap();
        for work in [0.0, f64::NAN] {
            let err = min_lifespan(&p, &profile, work).unwrap_err();
            assert!(
                matches!(
                    err,
                    ProtocolError::Model(ModelError::InvalidParam {
                        name: "work",
                        value,
                    }) if value.to_bits() == work.to_bits()
                ),
                "{err:?}"
            );
        }
    }
}
