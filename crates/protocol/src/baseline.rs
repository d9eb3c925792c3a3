//! Suboptimal allocation baselines.
//!
//! Theorem 1 says FIFO protocols with the closed-form allocation are
//! *optimal*. To observe that claim (rather than assume it), these
//! baselines build plans from naive allocation policies and size them to
//! the same lifespan against the simulator:
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
//!
//! Sizing rests on the schedule's homogeneity (DESIGN.md §18): every phase
//! lasts a constant times its package and the engine only adds and takes
//! maxima, so scaling the work by `s` scales the last arrival by `s` —
//! Theorem 2's `W(L;P) = L/(τδ + 1/X(P))` is the optimal plan's case. One
//! probe of the unit plan gives `T(u)`, and a walk of single ulps from
//! `L/T(u)` finds the total where the probe's verdict flips: the float the
//! bracket-and-80-halvings bisection returns, in 3–6 probes instead of
//! ~84. That bisection remains the fallback.

use hetero_core::{Params, Profile};

use crate::alloc::Plan;
use crate::exec::last_arrival;
use crate::ProtocolError;

/// Ulp steps the walk may take from `L/T(u)` before sizing falls back to
/// the bisection.
const MAX_WALK_STEPS: usize = 64;

/// Halvings the bisection runs once it has bracketed the total.
const HALVINGS: usize = 80;

/// Builds a plan with the given per-computer work *weights* (any positive
/// numbers; only ratios matter), scaled to the largest total work whose
/// execution completes within `lifespan`.
///
/// The total is the one a bisection of 80 halvings returns, found by an
/// ulp walk from the homogeneity estimate `L/T(u)`. The bisection itself
/// runs only when the walk takes more than 64 steps or when its halvings
/// would not reach adjacent floats around the walk's answer (counted by
/// `protocol.baseline.fallbacks`). Each plan's probe count is recorded as
/// `protocol.baseline.probes`.
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

    let mut probe = Probe {
        params,
        profile,
        unit: &unit,
        plan: Plan {
            order: (0..profile.n()).collect(),
            work: vec![0.0; profile.n()],
            lifespan,
        },
        count: 0,
    };
    // The walk's answer `a` is the bisection's exactly when the halvings
    // reach adjacent floats around `a`. A monotone probe answers each of
    // the bisection's queries `t` with `t ≤ a`, so replaying the bisection
    // against that comparison — float arithmetic, no probe — decides it.
    let total = match probe.walk() {
        Some(a) if bisect(lifespan, |t| t <= a).to_bits() == a.to_bits() => a,
        _ => {
            hetero_obs::counters::PROTOCOL_BASELINE_FALLBACKS.bump();
            bisect(lifespan, |t| probe.fits(t))
        }
    };
    hetero_obs::observe("protocol.baseline.probes", f64::from(probe.count));
    Ok(Plan {
        order: probe.plan.order,
        work: unit.iter().map(|u| u * total).collect(),
        lifespan,
    })
}

/// One plan whose work is rewritten per probed total. The untraced probe
/// replays the same event loop as `execute`, so every verdict — and hence
/// the plan — is the traced search's, bit for bit.
struct Probe<'a> {
    params: &'a Params,
    profile: &'a Profile,
    unit: &'a [f64],
    plan: Plan,
    count: u32,
}

impl Probe<'_> {
    /// The last arrival when the plan carries `total` units of work.
    fn last_arrival(&mut self, total: f64) -> f64 {
        for (w, u) in self.plan.work.iter_mut().zip(self.unit) {
            *w = u * total;
        }
        self.count += 1;
        // hetero-check: allow(expect) — weights.len() == profile.n() ≥ 1 was validated above, so the run is nonempty
        let last = last_arrival(self.params, self.profile, &self.plan).expect("nonempty plan");
        last.get()
    }

    /// `true` iff `total` units of work complete within the lifespan.
    fn fits(&mut self, total: f64) -> bool {
        self.last_arrival(total) <= self.plan.lifespan
    }

    /// The largest total that fits, found one ulp at a time from
    /// `L/T(u)`; `None` once the walk exceeds [`MAX_WALK_STEPS`].
    fn walk(&mut self) -> Option<f64> {
        let mut total = self.plan.lifespan / self.last_arrival(1.0);
        if self.fits(total) {
            for _ in 0..MAX_WALK_STEPS {
                let up = total.next_up();
                if !self.fits(up) {
                    return Some(total);
                }
                total = up;
            }
        } else {
            for _ in 0..MAX_WALK_STEPS {
                total = total.next_down();
                if self.fits(total) {
                    return Some(total);
                }
            }
        }
        None
    }
}

/// The bracket-and-halve search: double from `L` until `fits` fails, then
/// [`HALVINGS`] halvings, keeping the last total that fits. With the probe
/// as `fits` it is the fallback; with `|t| t ≤ a` it replays the search a
/// monotone probe would make.
fn bisect(lifespan: f64, mut fits: impl FnMut(f64) -> bool) -> f64 {
    let mut lo = 0.0f64;
    let mut hi = lifespan; // generous: ≥ 1 time unit per work unit overall
    while fits(hi) {
        hi *= 2.0;
    }
    for _ in 0..HALVINGS {
        let mid = 0.5 * (lo + hi);
        if fits(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
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
