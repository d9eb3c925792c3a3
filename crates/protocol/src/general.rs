//! General worksharing protocols: independent startup and finishing
//! orders.
//!
//! The paper's protocols (§2.2) are parameterized by a startup indexing Σ
//! (who receives work when) *and* a finishing indexing Φ (who returns
//! results when); FIFO is the special case Σ = Φ, and Theorem 1 states
//! FIFO is optimal. This module makes that claim *observable* by
//! constructing the gap-free schedule for **any** (Σ, Φ) pair:
//!
//! * sends are back-to-back in Σ order;
//! * result transmissions are back-to-back in Φ order, each starting the
//!   instant its worker finishes packaging;
//! * the last results finish transiting exactly at the lifespan `L`.
//!
//! These tightness conditions are an `n × n` linear system in the
//! allocations `w` (solved with `hetero-linalg`); orders whose system has
//! no positive solution cannot run gap-free and are reported
//! [`ProtocolError::InfeasibleOrders`]. Sweeping all (Σ, Φ) pairs shows
//! every feasible non-FIFO pair completes strictly less work — Theorem 1
//! in action (see the tests and `hetero-experiments`).

use hetero_core::{Params, Profile};
use hetero_linalg::{lu_solve, Matrix};

use crate::alloc::{is_permutation, Plan};
use crate::ProtocolError;

/// Builds the gap-free plan for startup order `startup` and finishing
/// order `finishing` over `lifespan`.
///
/// Returns [`ProtocolError::InfeasibleOrders`] when the orders admit no
/// gap-free schedule (some allocation would have to be negative), and
/// [`ProtocolError::InvalidOrder`] for malformed permutations.
pub fn general_plan(
    params: &Params,
    profile: &Profile,
    startup: &[usize],
    finishing: &[usize],
    lifespan: f64,
) -> Result<Plan, ProtocolError> {
    if !(lifespan.is_finite() && lifespan > 0.0) {
        return Err(ProtocolError::InvalidLifespan { lifespan });
    }
    let n = profile.n();
    if !is_permutation(startup, n) || !is_permutation(finishing, n) {
        return Err(ProtocolError::InvalidOrder);
    }
    let (a, b, td) = (params.a(), params.b(), params.tau_delta());

    // Length of the startup prefix that ends at each computer, by
    // computer.
    let mut prefix_len = vec![0usize; n];
    for (p, &i) in startup.iter().enumerate() {
        if let Some(len) = prefix_len.get_mut(i) {
            *len = p + 1;
        }
    }
    let prefix = |i: usize| {
        let len = prefix_len.get(i).copied().unwrap_or(0);
        startup.iter().take(len)
    };

    // ready(i) = Σ_{q ≤ posΣ(i)} A·w_{s_q} + Bρ_i·w_i, as a coefficient
    // row over the unknowns w_0..w_{n−1} (indexed by computer).
    let ready_row = |i: usize| -> Vec<f64> {
        let mut row = vec![0.0; n];
        for &j in prefix(i) {
            if let Some(c) = row.get_mut(j) {
                *c += a;
            }
        }
        if let Some(c) = row.get_mut(i) {
            *c += b * profile.rho(i);
        }
        row
    };

    // n equations: (n−1) chaining equations + the lifespan equation.
    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(n);
    let mut rhs = vec![0.0; n];
    for (&prev, &next) in finishing.iter().zip(finishing.iter().skip(1)) {
        // ready(f_k) − ready(f_{k−1}) − τδ·w_{f_{k−1}} = 0.
        let mut row = ready_row(next);
        for (c, p) in row.iter_mut().zip(ready_row(prev)) {
            // hetero-check: allow(float-accum) — elementwise row difference in pinned column order while assembling the linear system
            *c -= p;
        }
        if let Some(c) = row.get_mut(prev) {
            // hetero-check: allow(float-accum) — single coefficient adjustment, not an accumulation chain
            *c -= td;
        }
        rows.push(row);
    }
    // ready(f_n) + τδ·w_{f_n} = L.
    if let Some(&f_n) = finishing.last() {
        let mut last = ready_row(f_n);
        if let Some(c) = last.get_mut(f_n) {
            *c += td;
        }
        rows.push(last);
    }
    if let Some(r) = rhs.last_mut() {
        *r = lifespan;
    }

    let row_refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
    let matrix = Matrix::from_rows(&row_refs);
    let w_by_computer = lu_solve(&matrix, &rhs).map_err(|_| ProtocolError::InfeasibleOrders)?;

    // Gap-free schedules require strictly positive allocations.
    if w_by_computer.iter().any(|&w| !(w.is_finite() && w > 0.0)) {
        return Err(ProtocolError::InfeasibleOrders);
    }

    // ... and the first results transmission must not collide with the
    // tail of the work sends: ready(f₁) ≥ S_n (cf. `alloc::fifo_feasible`,
    // which is this check specialized to Σ = Φ).
    // hetero-check: allow(float-accum) — feasibility check over the solver's fixed output order; not part of the returned plan
    let total: f64 = w_by_computer.iter().sum();
    let send_end = a * total;
    let w = |j: usize| w_by_computer.get(j).copied().unwrap_or(0.0);
    let f1 = finishing.first().copied().unwrap_or(0);
    // hetero-check: allow(float-accum) — prefix sum over the fixed startup order; mirrors alloc::fifo_feasible exactly
    let ready_f1: f64 = prefix(f1).map(|&j| a * w(j)).sum::<f64>() + b * profile.rho(f1) * w(f1);
    if ready_f1 < send_end * (1.0 - 1e-12) {
        return Err(ProtocolError::InfeasibleOrders);
    }

    Ok(Plan {
        order: startup.to_vec(),
        work: startup.iter().map(|&i| w(i)).collect(),
        lifespan,
    })
}

/// The LIFO plan: work served in the given order, results returned in the
/// *reverse* order (the first-served computer reports last). Uses the
/// identity startup order.
pub fn lifo_plan(params: &Params, profile: &Profile, lifespan: f64) -> Result<Plan, ProtocolError> {
    let startup: Vec<usize> = (0..profile.n()).collect();
    let finishing: Vec<usize> = (0..profile.n()).rev().collect();
    general_plan(params, profile, &startup, &finishing, lifespan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::{fifo_plan, fifo_plan_ordered};
    use crate::exec::execute;
    use crate::validate::validate;

    fn params() -> Params {
        Params::paper_table1()
    }

    /// All permutations of 0..n (n small).
    fn permutations(n: usize) -> Vec<Vec<usize>> {
        if n == 1 {
            return vec![vec![0]];
        }
        let mut out = Vec::new();
        for p in permutations(n - 1) {
            for slot in 0..=p.len() {
                let mut q = p.clone();
                q.insert(slot, n - 1);
                out.push(q);
            }
        }
        out
    }

    #[test]
    fn coincident_orders_reproduce_the_fifo_closed_form() {
        let p = params();
        let profile = Profile::new(vec![1.0, 0.5, 1.0 / 3.0, 0.25]).unwrap();
        for order in permutations(4) {
            let via_system = general_plan(&p, &profile, &order, &order, 600.0).unwrap();
            let via_closed = fifo_plan_ordered(&p, &profile, &order, 600.0).unwrap();
            assert_eq!(via_system.order, via_closed.order);
            for (a, b) in via_system.work.iter().zip(&via_closed.work) {
                assert!((a - b).abs() / b < 1e-9, "{order:?}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn theorem1_fifo_is_optimal_over_all_order_pairs() {
        // Exhaustive over (Σ, Φ) for a 3-computer cluster: the maximum
        // work production is attained exactly by the coincident pairs.
        let p = params();
        let profile = Profile::new(vec![1.0, 0.5, 0.25]).unwrap();
        let lifespan = 300.0;
        let fifo_work = fifo_plan(&p, &profile, lifespan).unwrap().total_work();
        let perms = permutations(3);
        let mut feasible = 0;
        for s in &perms {
            for f in &perms {
                match general_plan(&p, &profile, s, f, lifespan) {
                    Ok(plan) => {
                        feasible += 1;
                        let w = plan.total_work();
                        if s == f {
                            assert!((w - fifo_work).abs() / fifo_work < 1e-9);
                        } else {
                            assert!(
                                w < fifo_work * (1.0 + 1e-12),
                                "Σ={s:?} Φ={f:?}: {w} vs FIFO {fifo_work}"
                            );
                        }
                    }
                    Err(ProtocolError::InfeasibleOrders) => {}
                    Err(e) => panic!("unexpected error {e}"),
                }
            }
        }
        assert!(
            feasible >= perms.len(),
            "at least the FIFO pairs are feasible"
        );
    }

    #[test]
    fn lifo_executes_validly_but_underperforms() {
        let p = params();
        let profile = Profile::new(vec![1.0, 0.5, 0.25, 0.125]).unwrap();
        let lifespan = 500.0;
        let lifo = lifo_plan(&p, &profile, lifespan).unwrap();
        let fifo = fifo_plan(&p, &profile, lifespan).unwrap();
        assert!(lifo.total_work() < fifo.total_work());

        // The LIFO schedule really runs: all invariants hold and the whole
        // lifespan is used.
        let run = execute(&p, &profile, &lifo);
        assert!(validate(&p, &profile, &run).is_empty());
        let last = run.last_arrival().unwrap().get();
        assert!((last - lifespan).abs() / lifespan < 1e-9);
        // And results really return in reverse startup order.
        for pair in run.packages.windows(2) {
            assert!(
                pair[1].arrival.unwrap() < pair[0].arrival.unwrap(),
                "LIFO: later-served returns earlier"
            );
        }
    }

    #[test]
    fn communication_bound_regimes_are_rejected_consistently() {
        // Under the Figure 3/4 parameters with two 1000×-faster
        // computers, A·X(P) > 1: the server cannot feed the cluster, so
        // the paper's gap-free schedules do not exist for *any* (Σ, Φ).
        // Both entry points must refuse rather than emit schedules whose
        // results silently overrun the lifespan (which is what the naive
        // closed form would produce — our simulator caught exactly that).
        let p = Params::fig34();
        let profile = Profile::new(vec![1.0, 0.9, 1e-3, 1e-3]).unwrap();
        assert!(!crate::alloc::fifo_feasible(&p, &profile));
        assert!(matches!(
            fifo_plan(&p, &profile, 100.0),
            Err(ProtocolError::CommunicationBound { .. })
        ));
        // Every *coincident* (FIFO) pair must be rejected — consistently
        // with `fifo_plan`. Some non-FIFO pairs remain feasible: a
        // finishing order that starts with a slow computer naturally waits
        // out the send tail. Those schedules must actually run cleanly.
        let perms = permutations(4);
        let mut feasible_nonfifo = 0usize;
        for s in &perms {
            for f in &perms {
                match general_plan(&p, &profile, s, f, 100.0) {
                    Err(ProtocolError::InfeasibleOrders) => {}
                    Ok(plan) => {
                        assert_ne!(s, f, "FIFO pairs are communication-bound here");
                        feasible_nonfifo += 1;
                        let run = execute(&p, &profile, &plan);
                        assert!(validate(&p, &profile, &run).is_empty());
                        let last = run.last_arrival().unwrap().get();
                        assert!((last - 100.0).abs() < 1e-6, "uses the lifespan: {last}");
                    }
                    Err(e) => panic!("unexpected error {e}"),
                }
            }
        }
        for s in &perms {
            assert!(
                matches!(
                    general_plan(&p, &profile, s, s, 100.0),
                    Err(ProtocolError::InfeasibleOrders)
                ),
                "coincident pair {s:?}"
            );
        }
        assert!(feasible_nonfifo > 0, "some slow-first orders survive");

        // The same profile under µs-scale Table 1 parameters is deep in
        // the computation-dominated regime: every order pair is feasible.
        let easy = params();
        assert!(crate::alloc::fifo_feasible(&easy, &profile));
        for s in &perms {
            for f in &perms {
                assert!(general_plan(&easy, &profile, s, f, 100.0).is_ok());
            }
        }
    }

    #[test]
    fn malformed_orders_rejected() {
        let p = params();
        let profile = Profile::new(vec![1.0, 0.5]).unwrap();
        assert!(matches!(
            general_plan(&p, &profile, &[0, 0], &[0, 1], 10.0),
            Err(ProtocolError::InvalidOrder)
        ));
        assert!(matches!(
            general_plan(&p, &profile, &[0, 1], &[1], 10.0),
            Err(ProtocolError::InvalidOrder)
        ));
        assert!(matches!(
            general_plan(&p, &profile, &[0, 1], &[0, 1], -5.0),
            Err(ProtocolError::InvalidLifespan { .. })
        ));
    }

    #[test]
    fn single_computer_general_equals_fifo() {
        let p = params();
        let profile = Profile::new(vec![1.0]).unwrap();
        let g = general_plan(&p, &profile, &[0], &[0], 50.0).unwrap();
        let f = fifo_plan(&p, &profile, 50.0).unwrap();
        assert!((g.total_work() - f.total_work()).abs() / f.total_work() < 1e-12);
    }
}
