//! Work allocation for FIFO worksharing protocols.
//!
//! ## Derivation (from the paper's §2.2–2.3 and \[1\])
//!
//! Fix a startup order `Σ = ⟨s_1,…,s_n⟩` and let `w_i` abbreviate
//! `w_{s_i}`, `ρ_i` abbreviate `ρ_{s_i}`. In the FIFO protocol with no
//! idle gaps:
//!
//! * the server's sends are back-to-back: send `i` ends at
//!   `S_i = (π+τ)(w_1 + … + w_i)`;
//! * worker `i`'s results are packaged and ready at
//!   `F_i = S_i + Bρ_i·w_i` (unpackage + compute + package);
//! * results transmissions are back-to-back and in the same order, each
//!   starting exactly when its worker finishes: `F_i = F_{i−1} + τδ·w_{i−1}`.
//!
//! Substituting gives the recurrence
//!
//! ```text
//! (A + Bρ_i)·w_i = (Bρ_{i−1} + τδ)·w_{i−1}
//! ```
//!
//! whose solution is `w_i = c·x_i` with `x_i` the `i`-th summand of the
//! X-measure. The lifespan condition — the last results finish transiting
//! at `L` — fixes `c = L/(1 + τδ·X(P))`, so the total completed work is
//!
//! ```text
//! W = c·X(P) = L / (1/X(P) + τδ)
//! ```
//!
//! — precisely Theorem 2. The identity `total_work ≡ W(L;P)` is asserted
//! in this module's tests, and the *executed* schedule is re-validated
//! event-by-event in [`crate::exec`].

use hetero_core::xmeasure::x_measure_of_rhos;
use hetero_core::{Params, Profile};

use crate::ProtocolError;

/// A fully specified worksharing plan: who gets work in what order, and
/// how much.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Startup order: `order[pos]` is the profile index (0-based) of the
    /// computer served at position `pos`. FIFO protocols return results in
    /// the same order.
    pub order: Vec<usize>,
    /// Work allocated to each position (aligned with `order`), in work
    /// units.
    pub work: Vec<f64>,
    /// The lifespan the plan was sized for.
    pub lifespan: f64,
}

impl Plan {
    /// Total work across all computers.
    pub fn total_work(&self) -> f64 {
        self.work.iter().sum()
    }

    /// Work assigned to profile index `i` (0 if unassigned).
    pub fn work_for(&self, index: usize) -> f64 {
        self.order
            .iter()
            .position(|&o| o == index)
            .and_then(|pos| self.work.get(pos).copied())
            .unwrap_or(0.0)
    }
}

/// Checks that `order` is a permutation of `0..n`.
pub fn is_permutation(order: &[usize], n: usize) -> bool {
    if order.len() != n {
        return false;
    }
    let mut seen = vec![false; n];
    for &o in order {
        match seen.get_mut(o) {
            Some(seen) if !*seen => *seen = true,
            _ => return false,
        }
    }
    true
}

/// Whether the gap-free FIFO schedule exists for this cluster and
/// environment: **`A·X(P) ≤ 1`**.
///
/// Derivation: with allocations `w_i = c·x_i`, the first finisher's
/// results are ready at `F₁ = (A + Bρ_{s₁})·w₁ = c`, while the server's
/// sends occupy the channel until `S_n = A·ΣW = A·X(P)·c`. The FIFO
/// schedule (results chaining right behind the sends with no collisions)
/// therefore exists iff `A·X(P) ≤ 1` — i.e. iff the server can *feed* the
/// cluster faster than the cluster absorbs work. The paper's Theorem 2
/// implicitly assumes this computation-dominated regime; under its
/// Table 1 parameters `A·X < 10⁻⁴·n`, comfortably feasible for any
/// realistic size. The condition is order-independent (Theorem 1(2)).
pub fn fifo_feasible(params: &Params, profile: &Profile) -> bool {
    params.a() * x_measure_of_rhos(params, profile.rhos()) <= 1.0 + 1e-12
}

/// The optimal FIFO plan with the identity startup order `⟨0,1,…,n−1⟩`
/// (slowest computer served first; by Theorem 1(2) the order is
/// production-neutral).
pub fn fifo_plan(params: &Params, profile: &Profile, lifespan: f64) -> Result<Plan, ProtocolError> {
    let order: Vec<usize> = (0..profile.n()).collect();
    fifo_plan_ordered(params, profile, &order, lifespan)
}

/// The optimal FIFO plan under an explicit startup order.
pub fn fifo_plan_ordered(
    params: &Params,
    profile: &Profile,
    order: &[usize],
    lifespan: f64,
) -> Result<Plan, ProtocolError> {
    if !(lifespan.is_finite() && lifespan > 0.0) {
        return Err(ProtocolError::InvalidLifespan { lifespan });
    }
    if !is_permutation(order, profile.n()) {
        return Err(ProtocolError::InvalidOrder);
    }
    if !fifo_feasible(params, profile) {
        return Err(ProtocolError::CommunicationBound {
            a_times_x: params.a() * x_measure_of_rhos(params, profile.rhos()),
        });
    }
    let (a, b, td) = (params.a(), params.b(), params.tau_delta());
    let rhos: Vec<f64> = order.iter().map(|&i| profile.rho(i)).collect();

    // The X summands x_i = (1/(A+Bρ_i))·Π_{j<i}(Bρ_j+τδ)/(A+Bρ_j), and
    // the scale c = L/(1 + τδ·X).
    let x = x_measure_of_rhos(params, &rhos);
    let c = lifespan / (1.0 + td * x);
    let mut work = Vec::with_capacity(rhos.len());
    let mut product = 1.0f64;
    for &rho in &rhos {
        let denom = b * rho + a;
        work.push(c * product / denom);
        product *= (b * rho + td) / denom;
    }
    Ok(Plan {
        order: order.to_vec(),
        work,
        lifespan,
    })
}

/// The closed-form work total the plan must achieve (Theorem 2):
/// `W(L;P) = L / (τδ + 1/X(P))`.
pub fn theorem2_work(params: &Params, profile: &Profile, lifespan: f64) -> f64 {
    hetero_core::xmeasure::work(params, profile, lifespan)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> Params {
        Params::paper_table1()
    }

    #[test]
    fn plan_rejects_bad_arguments() {
        let p = params();
        let c = Profile::new(vec![1.0, 0.5]).unwrap();
        assert!(matches!(
            fifo_plan(&p, &c, 0.0),
            Err(ProtocolError::InvalidLifespan { .. })
        ));
        assert!(matches!(
            fifo_plan(&p, &c, f64::INFINITY),
            Err(ProtocolError::InvalidLifespan { .. })
        ));
        assert!(matches!(
            fifo_plan_ordered(&p, &c, &[0, 0], 10.0),
            Err(ProtocolError::InvalidOrder)
        ));
        assert!(matches!(
            fifo_plan_ordered(&p, &c, &[0], 10.0),
            Err(ProtocolError::InvalidOrder)
        ));
        assert!(matches!(
            fifo_plan_ordered(&p, &c, &[0, 2], 10.0),
            Err(ProtocolError::InvalidOrder)
        ));
    }

    #[test]
    fn allocations_are_positive() {
        let p = params();
        let c = Profile::harmonic(6);
        let plan = fifo_plan(&p, &c, 1000.0).unwrap();
        for &w in &plan.work {
            assert!(w > 0.0);
        }
    }

    #[test]
    fn total_work_matches_theorem2_exactly() {
        let p = params();
        for profile in [
            Profile::new(vec![1.0]).unwrap(),
            Profile::new(vec![1.0, 0.5, 0.25]).unwrap(),
            Profile::uniform_spread(16),
            Profile::harmonic(9),
        ] {
            for lifespan in [1.0, 60.0, 86_400.0] {
                let plan = fifo_plan(&p, &profile, lifespan).unwrap();
                let closed = theorem2_work(&p, &profile, lifespan);
                assert!(
                    (plan.total_work() - closed).abs() / closed < 1e-12,
                    "n={} L={lifespan}: {} vs {closed}",
                    profile.n(),
                    plan.total_work()
                );
            }
        }
    }

    #[test]
    fn recurrence_holds_between_positions() {
        // (A + Bρ_i)·w_i = (Bρ_{i−1} + τδ)·w_{i−1}.
        let p = params();
        let c = Profile::new(vec![1.0, 0.7, 0.3, 0.1]).unwrap();
        let plan = fifo_plan(&p, &c, 500.0).unwrap();
        let (a, b, td) = (p.a(), p.b(), p.tau_delta());
        for i in 1..plan.work.len() {
            let lhs = (a + b * c.rho(plan.order[i])) * plan.work[i];
            let rhs = (b * c.rho(plan.order[i - 1]) + td) * plan.work[i - 1];
            assert!((lhs - rhs).abs() / rhs < 1e-12, "position {i}");
        }
    }

    #[test]
    fn total_work_is_order_invariant() {
        // Theorem 1(2) at the allocation level.
        let p = params();
        let c = Profile::new(vec![1.0, 0.5, 1.0 / 3.0, 0.25]).unwrap();
        let orders: [&[usize]; 4] = [&[0, 1, 2, 3], &[3, 2, 1, 0], &[1, 3, 0, 2], &[2, 0, 3, 1]];
        let base = fifo_plan_ordered(&p, &c, orders[0], 777.0)
            .unwrap()
            .total_work();
        for order in &orders[1..] {
            let w = fifo_plan_ordered(&p, &c, order, 777.0)
                .unwrap()
                .total_work();
            assert!((w - base).abs() / base < 1e-12, "order {order:?}");
        }
    }

    #[test]
    fn faster_computers_get_more_work() {
        // Under FIFO the faster computer receives strictly more work
        // whenever B ≫ A (our regimes): its summand has the smaller
        // denominator and the products differ negligibly.
        let p = params();
        let c = Profile::new(vec![1.0, 0.25]).unwrap();
        let plan = fifo_plan(&p, &c, 100.0).unwrap();
        assert!(plan.work_for(1) > plan.work_for(0));
    }

    #[test]
    fn work_for_unknown_index_is_zero() {
        let p = params();
        let c = Profile::new(vec![1.0]).unwrap();
        let plan = fifo_plan(&p, &c, 10.0).unwrap();
        assert_eq!(plan.work_for(5), 0.0);
    }

    #[test]
    fn work_scales_linearly_with_lifespan() {
        let p = params();
        let c = Profile::harmonic(4);
        let w1 = fifo_plan(&p, &c, 100.0).unwrap().total_work();
        let w2 = fifo_plan(&p, &c, 300.0).unwrap().total_work();
        assert!((w2 - 3.0 * w1).abs() / w2 < 1e-12);
    }

    #[test]
    fn permutation_checker() {
        assert!(is_permutation(&[2, 0, 1], 3));
        assert!(!is_permutation(&[0, 1], 3));
        assert!(!is_permutation(&[0, 1, 1], 3));
        assert!(!is_permutation(&[0, 1, 3], 3));
        assert!(is_permutation(&[], 0));
    }
}
