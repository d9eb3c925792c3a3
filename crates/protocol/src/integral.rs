//! Integral tasks: quantizing the divisible-load idealization.
//!
//! The paper's workload is "`W` units of work consisting of mutually
//! independent *tasks* of equal sizes" (§1.2) — the continuous allocation
//! analysis is an idealization of a problem whose packages must contain
//! whole tasks. This module quantizes the optimal FIFO allocation to a
//! task granularity `g` (work units per task) and measures what the
//! idealization hides:
//!
//! * floor-rounding each computer's allocation to whole tasks keeps the
//!   schedule feasible (less work everywhere means every deadline is
//!   met early) but forfeits up to `n·g` units;
//! * a greedy redistribution pass hands back whole tasks wherever they
//!   still fit within the lifespan, recovering most of the loss.
//!
//! The quantization loss as a function of `g` is the library's account of
//! the paper's own Table 2 distinction between *coarse* (1 s) and *fine*
//! (0.1 s) tasks.

use hetero_core::{ModelError, Params, Profile};

use crate::alloc::{fifo_plan, Plan};
use crate::exec::last_arrival;
use crate::ProtocolError;

/// An integral plan plus its provenance.
#[derive(Debug, Clone)]
pub struct IntegralPlan {
    /// The quantized plan (every allocation a whole multiple of `g`).
    pub plan: Plan,
    /// Task granularity (work units per task).
    pub granularity: f64,
    /// Whole tasks assigned per startup position.
    pub tasks: Vec<u64>,
    /// The divisible-load optimum this was quantized from.
    pub divisible_work: f64,
}

impl IntegralPlan {
    /// Total whole tasks assigned.
    pub fn total_tasks(&self) -> u64 {
        self.tasks.iter().sum()
    }

    /// Work forfeited relative to the divisible optimum.
    pub fn quantization_loss(&self) -> f64 {
        self.divisible_work - self.plan.total_work()
    }

    /// Loss as a fraction of the divisible optimum.
    pub fn loss_fraction(&self) -> f64 {
        self.quantization_loss() / self.divisible_work
    }
}

/// Quantizes the optimal FIFO plan to whole tasks of `granularity` work
/// units: floor-round, then greedily hand back one task at a time (to the
/// computer whose results chain still fits the lifespan) until no task
/// fits.
pub fn integral_fifo_plan(
    params: &Params,
    profile: &Profile,
    lifespan: f64,
    granularity: f64,
) -> Result<IntegralPlan, ProtocolError> {
    if !(granularity.is_finite() && granularity > 0.0) {
        return Err(ProtocolError::Model(ModelError::InvalidParam {
            name: "granularity",
            value: granularity,
        }));
    }
    let divisible = fifo_plan(params, profile, lifespan)?;
    let divisible_work = divisible.total_work();

    let mut tasks: Vec<u64> = divisible
        .work
        .iter()
        .map(|w| (w / granularity).floor() as u64)
        .collect();

    // One probe plan, its work rewritten per candidate and checked by the
    // untraced probe, which replays `execute`'s event loop bit for bit.
    let mut probe = Plan {
        order: divisible.order.clone(),
        work: vec![0.0; tasks.len()],
        lifespan,
    };
    let mut completes = |tasks: &[u64]| -> bool {
        for (w, &t) in probe.work.iter_mut().zip(tasks) {
            *w = t as f64 * granularity;
        }
        // hetero-check: allow(float-eq) — whole-task allocations sum to exactly 0.0 iff every task count is 0
        if probe.total_work() == 0.0 {
            return true;
        }
        last_arrival(params, profile, &probe).is_none_or(|t| t.get() <= lifespan)
    };
    debug_assert!(completes(&tasks), "floor-rounding keeps feasibility");

    // Greedy hand-back: try to add one task to each position, fastest
    // (largest allocation) first, until nothing fits.
    let mut order_by_alloc: Vec<(usize, f64)> =
        divisible.work.iter().copied().enumerate().collect();
    order_by_alloc.sort_by(|a, b| b.1.total_cmp(&a.1));
    let mut progress = true;
    while progress {
        progress = false;
        for &(pos, _) in &order_by_alloc {
            let Some(slot) = tasks.get_mut(pos) else {
                continue;
            };
            let held = *slot;
            *slot = held + 1;
            if completes(&tasks) {
                progress = true;
            } else if let Some(slot) = tasks.get_mut(pos) {
                *slot = held;
            }
        }
    }

    let work: Vec<f64> = tasks.iter().map(|&t| t as f64 * granularity).collect();
    Ok(IntegralPlan {
        plan: Plan {
            order: probe.order,
            work,
            lifespan,
        },
        granularity,
        tasks,
        divisible_work,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use crate::validate::validate;

    fn params() -> Params {
        Params::paper_table1()
    }

    #[test]
    fn integral_plan_is_feasible_and_whole() {
        let p = params();
        let profile = Profile::new(vec![1.0, 0.5, 0.25]).unwrap();
        let ip = integral_fifo_plan(&p, &profile, 500.0, 1.0).unwrap();
        for (&t, &w) in ip.tasks.iter().zip(&ip.plan.work) {
            assert_eq!(t as f64, w, "whole tasks at g = 1");
        }
        let run = execute(&p, &profile, &ip.plan);
        assert!(validate(&p, &profile, &run).is_empty());
        assert!(run.last_arrival().unwrap().get() <= 500.0);
    }

    #[test]
    fn loss_is_bounded_by_one_task_per_computer() {
        // After the hand-back pass the residual loss is below n·g (and in
        // practice far below).
        let p = params();
        let profile = Profile::new(vec![1.0, 0.5, 1.0 / 3.0, 0.25]).unwrap();
        for g in [0.1, 1.0, 10.0] {
            let ip = integral_fifo_plan(&p, &profile, 1000.0, g).unwrap();
            assert!(ip.quantization_loss() >= -1e-9, "never exceeds divisible");
            assert!(
                ip.quantization_loss() < profile.n() as f64 * g,
                "g = {g}: loss {}",
                ip.quantization_loss()
            );
        }
    }

    #[test]
    fn finer_tasks_lose_less() {
        let p = params();
        let profile = Profile::harmonic(4);
        let coarse = integral_fifo_plan(&p, &profile, 300.0, 10.0).unwrap();
        let fine = integral_fifo_plan(&p, &profile, 300.0, 0.1).unwrap();
        assert!(fine.loss_fraction() <= coarse.loss_fraction());
        assert!(fine.loss_fraction() < 1e-3, "fine tasks ≈ divisible");
    }

    #[test]
    fn handback_recovers_work_over_plain_flooring() {
        let p = params();
        let profile = Profile::new(vec![1.0, 0.5]).unwrap();
        let g = 25.0; // brutally coarse
        let ip = integral_fifo_plan(&p, &profile, 500.0, g).unwrap();
        let floored: f64 = fifo_plan(&p, &profile, 500.0)
            .unwrap()
            .work
            .iter()
            .map(|w| (w / g).floor() * g)
            .sum();
        assert!(ip.plan.total_work() >= floored);
    }

    #[test]
    fn rejects_bad_granularity() {
        let p = params();
        let profile = Profile::new(vec![1.0]).unwrap();
        for g in [0.0, f64::NAN] {
            let err = integral_fifo_plan(&p, &profile, 100.0, g).unwrap_err();
            assert!(
                matches!(
                    err,
                    ProtocolError::Model(ModelError::InvalidParam {
                        name: "granularity",
                        value,
                    }) if value.to_bits() == g.to_bits()
                ),
                "{err:?}"
            );
        }
    }

    #[test]
    fn huge_granularity_degenerates_gracefully() {
        // Tasks bigger than anyone's allocation: zero work, loss = 100 %.
        let p = params();
        let profile = Profile::new(vec![1.0, 0.5]).unwrap();
        let ip = integral_fifo_plan(&p, &profile, 10.0, 1e9).unwrap();
        assert_eq!(ip.total_tasks(), 0);
        assert!((ip.loss_fraction() - 1.0).abs() < 1e-12);
    }
}
