//! Suboptimal allocation baselines.
//!
//! Theorem 1 says FIFO protocols with the closed-form allocation are
//! *optimal*. To observe that claim (rather than assume it), these
//! baselines build plans from naive allocation policies and size them to
//! the same lifespan by bisection against the simulator:
//!
//! * [`equal_split_plan`] — every computer gets the same amount of work
//!   (ignores heterogeneity entirely);
//! * [`speed_proportional_plan`] — work proportional to `1/ρ` (the
//!   folk heuristic: feed computers in proportion to their speed, ignoring
//!   communication).
//!
//! Both complete strictly less work than the optimal FIFO plan on any
//! genuinely heterogeneous cluster, quantifying the value of the paper's
//! analysis.

use hetero_core::{Params, Profile};

use crate::alloc::Plan;
use crate::exec::last_arrival;
use crate::ProtocolError;

/// Builds a plan with the given per-computer work *weights* (any positive
/// numbers; only ratios matter), scaled by bisection to the largest total
/// work whose execution completes within `lifespan`.
pub fn weighted_plan(
    params: &Params,
    profile: &Profile,
    weights: &[f64],
    lifespan: f64,
) -> Result<Plan, ProtocolError> {
    if !(lifespan.is_finite() && lifespan > 0.0) {
        return Err(ProtocolError::InvalidLifespan { lifespan });
    }
    if weights.len() != profile.n() || weights.iter().any(|&w| !(w.is_finite() && w > 0.0)) {
        return Err(ProtocolError::InvalidOrder);
    }
    // hetero-check: allow(float-accum) — normalisation over the caller's fixed weight order; golden protocol tables pin it
    let weight_sum: f64 = weights.iter().sum();
    let unit: Vec<f64> = weights.iter().map(|w| w / weight_sum).collect();

    // One probe plan, its work rewritten per midpoint; the untraced probe
    // replays the same event loop as `execute`, so every midpoint's
    // verdict — and hence the plan — is the traced search's, bit for bit.
    let mut probe = Plan {
        order: (0..profile.n()).collect(),
        work: vec![0.0; profile.n()],
        lifespan,
    };
    let mut completes_within = |total: f64| -> bool {
        for (w, u) in probe.work.iter_mut().zip(&unit) {
            *w = u * total;
        }
        // hetero-check: allow(expect) — weights.len() == profile.n() ≥ 1 was validated above, so the run is nonempty
        let last = last_arrival(params, profile, &probe).expect("nonempty plan");
        last.get() <= lifespan
    };

    // Bracket the feasible total: the arrival time is monotone increasing
    // in the total work, so plain bisection applies.
    let mut lo = 0.0f64;
    let mut hi = lifespan; // generous: ≥ 1 time unit per work unit overall
    while completes_within(hi) {
        hi *= 2.0;
    }
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if completes_within(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(Plan {
        order: probe.order,
        work: unit.iter().map(|u| u * lo).collect(),
        lifespan,
    })
}

/// Equal work for every computer, sized to the lifespan.
pub fn equal_split_plan(
    params: &Params,
    profile: &Profile,
    lifespan: f64,
) -> Result<Plan, ProtocolError> {
    weighted_plan(params, profile, &vec![1.0; profile.n()], lifespan)
}

/// Work proportional to computer speed (`1/ρ`), sized to the lifespan.
pub fn speed_proportional_plan(
    params: &Params,
    profile: &Profile,
    lifespan: f64,
) -> Result<Plan, ProtocolError> {
    let weights: Vec<f64> = profile.rhos().iter().map(|&r| 1.0 / r).collect();
    weighted_plan(params, profile, &weights, lifespan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::fifo_plan;
    use crate::exec::execute;

    fn params() -> Params {
        Params::paper_table1()
    }

    #[test]
    fn baselines_fit_the_lifespan() {
        let p = params();
        let profile = Profile::new(vec![1.0, 0.5, 0.25]).unwrap();
        let lifespan = 200.0;
        for plan in [
            equal_split_plan(&p, &profile, lifespan).unwrap(),
            speed_proportional_plan(&p, &profile, lifespan).unwrap(),
        ] {
            let run = execute(&p, &profile, &plan);
            let last = run.last_arrival().unwrap().get();
            assert!(last <= lifespan * (1.0 + 1e-9), "{last}");
            // And the sizing is tight: within 0.1 % of the boundary.
            assert!(last >= lifespan * 0.999, "sizing not tight: {last}");
        }
    }

    #[test]
    fn theorem1_fifo_beats_baselines() {
        let p = params();
        let profile = Profile::new(vec![1.0, 0.5, 0.25, 0.125]).unwrap();
        let lifespan = 500.0;
        let optimal = fifo_plan(&p, &profile, lifespan).unwrap().total_work();
        let equal = equal_split_plan(&p, &profile, lifespan)
            .unwrap()
            .total_work();
        let prop = speed_proportional_plan(&p, &profile, lifespan)
            .unwrap()
            .total_work();
        assert!(
            optimal > equal * 1.01,
            "optimal {optimal} should clearly beat equal split {equal}"
        );
        assert!(optimal > prop, "optimal {optimal} vs proportional {prop}");
        // Speed-proportional is the smarter heuristic of the two.
        assert!(prop > equal);
    }

    #[test]
    fn on_homogeneous_clusters_the_gap_nearly_closes() {
        // With identical computers, equal split ≈ optimal (they differ
        // only by the staggered communication slots).
        let p = params();
        let profile = Profile::homogeneous(4, 1.0).unwrap();
        let lifespan = 100.0;
        let optimal = fifo_plan(&p, &profile, lifespan).unwrap().total_work();
        let equal = equal_split_plan(&p, &profile, lifespan)
            .unwrap()
            .total_work();
        assert!(
            (optimal - equal).abs() / optimal < 1e-3,
            "{optimal} vs {equal}"
        );
    }

    #[test]
    fn weighted_plan_validates() {
        let p = params();
        let profile = Profile::new(vec![1.0, 0.5]).unwrap();
        assert!(weighted_plan(&p, &profile, &[1.0], 10.0).is_err());
        assert!(weighted_plan(&p, &profile, &[1.0, 0.0], 10.0).is_err());
        assert!(weighted_plan(&p, &profile, &[1.0, 1.0], -1.0).is_err());
    }
}
