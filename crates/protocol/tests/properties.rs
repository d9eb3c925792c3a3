//! Property tests for the protocol layer: plans, executions, and the
//! Theorem 1/2 identities on random clusters, lifespans, and orders.

use hetero_core::{xmeasure, Params, Profile};
use hetero_protocol::{alloc, baseline, exec, general, rental, validate};
use proptest::prelude::*;

fn profile_strategy() -> impl Strategy<Value = Profile> {
    prop::collection::vec(0.01f64..=1.0, 0..10).prop_map(|mut v| {
        v.push(1.0);
        Profile::from_unsorted(v).expect("valid")
    })
}

/// Random parameters, with the paper's Table 1 and Figures 3–4 sets
/// drawn as extra inputs (one case in eight each).
fn params_strategy() -> impl Strategy<Value = Params> {
    (0u8..8, 1e-7f64..0.05, 0.0f64..0.05, 0.1f64..=1.0).prop_map(
        |(pick, tau, pi, delta)| match pick {
            0 => Params::paper_table1(),
            1 => Params::fig34(),
            _ => Params::new(tau, pi, delta).expect("valid"),
        },
    )
}

fn shuffled_order(n: usize, seed: u64) -> Vec<usize> {
    // Deterministic Fisher–Yates from a seed (no rand dependency needed).
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed | 1;
    for i in (1..n).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        order.swap(i, j);
    }
    order
}

/// The traced bisection `baseline::weighted_plan` ran before it sized
/// plans with the untraced probe, kept verbatim as its oracle.
fn traced_weighted_plan(
    params: &Params,
    profile: &Profile,
    weights: &[f64],
    lifespan: f64,
) -> alloc::Plan {
    let order: Vec<usize> = (0..profile.n()).collect();
    let weight_sum: f64 = weights.iter().sum();
    let unit: Vec<f64> = weights.iter().map(|w| w / weight_sum).collect();
    let completes_within = |total: f64| -> bool {
        let plan = alloc::Plan {
            order: order.clone(),
            work: unit.iter().map(|u| u * total).collect(),
            lifespan,
        };
        let run = exec::execute(params, profile, &plan);
        run.last_arrival().expect("nonempty plan").get() <= lifespan
    };
    let mut lo = 0.0f64;
    let mut hi = lifespan;
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
    alloc::Plan {
        order,
        work: unit.iter().map(|u| u * lo).collect(),
        lifespan,
    }
}

fn work_bits(plan: &alloc::Plan) -> Vec<u64> {
    plan.work.iter().map(|w| w.to_bits()).collect()
}

/// With τ ≥ 10⁶ the unit plan takes ~2τ, so the bisection's first
/// feasible midpoint comes only after ~21–41 of its 80 halvings, and from
/// τ = 10⁸ up the rest may not reach adjacent floats. The walk's answer
/// is then not the bisection's, and sizing must fall back to it.
#[test]
fn weighted_plan_falls_back_when_the_halvings_run_short() {
    hetero_obs::enable();
    let fallbacks = &hetero_obs::counters::PROTOCOL_BASELINE_FALLBACKS;
    let before = fallbacks.get();
    for tau in [1e6, 1e7, 1e8, 1e9, 1e12] {
        let p = Params::new(tau, 0.0, 1.0).expect("valid");
        for lifespan in [0.5, 1.0, 10.0, 1e4] {
            for n in [1, 3, 8] {
                let c = Profile::harmonic(n);
                let weights = vec![1.0; n];
                let plan = baseline::weighted_plan(&p, &c, &weights, lifespan).unwrap();
                let oracle = traced_weighted_plan(&p, &c, &weights, lifespan);
                assert_eq!(
                    work_bits(&plan),
                    work_bits(&oracle),
                    "τ = {tau}, L = {lifespan}, n = {n}"
                );
            }
        }
    }
    assert!(
        fallbacks.get() > before,
        "no case fell back to the bisection"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn weighted_plan_matches_the_traced_bisection(p in params_strategy(), c in profile_strategy(),
                                                  kind in 0u8..3,
                                                  random in prop::collection::vec(0.01f64..=1.0, 11),
                                                  lifespan in 1.0f64..=1e5) {
        let weights: Vec<f64> = match kind {
            0 => vec![1.0; c.n()],
            1 => c.rhos().iter().map(|&r| 1.0 / r).collect(),
            _ => random[..c.n()].to_vec(),
        };
        let plan = baseline::weighted_plan(&p, &c, &weights, lifespan).unwrap();
        let oracle = traced_weighted_plan(&p, &c, &weights, lifespan);
        prop_assert_eq!(&plan.order, &oracle.order);
        prop_assert_eq!(work_bits(&plan), work_bits(&oracle));
        prop_assert_eq!(plan.lifespan.to_bits(), oracle.lifespan.to_bits());
    }

    #[test]
    fn fifo_plan_is_positive_and_exact(p in params_strategy(), c in profile_strategy(),
                                       lifespan in 1.0f64..1e5) {
        prop_assume!(alloc::fifo_feasible(&p, &c));
        let plan = alloc::fifo_plan(&p, &c, lifespan).unwrap();
        prop_assert!(plan.work.iter().all(|&w| w > 0.0));
        let closed = xmeasure::work(&p, &c, lifespan);
        prop_assert!((plan.total_work() - closed).abs() / closed < 1e-10);
    }

    #[test]
    fn execution_meets_lifespan_and_invariants(p in params_strategy(), c in profile_strategy(),
                                               lifespan in 1.0f64..1e4) {
        prop_assume!(alloc::fifo_feasible(&p, &c));
        let plan = alloc::fifo_plan(&p, &c, lifespan).unwrap();
        let run = exec::execute(&p, &c, &plan);
        prop_assert!(validate::validate(&p, &c, &run).is_empty());
        let last = run.last_arrival().unwrap().get();
        prop_assert!((last - lifespan).abs() / lifespan < 1e-9,
            "optimal plans use the whole lifespan: {last} vs {lifespan}");
    }

    #[test]
    fn random_startup_orders_tie(p in params_strategy(), c in profile_strategy(),
                                 seed in any::<u64>()) {
        let lifespan = 500.0;
        prop_assume!(alloc::fifo_feasible(&p, &c));
        let base = alloc::fifo_plan(&p, &c, lifespan).unwrap().total_work();
        let order = shuffled_order(c.n(), seed);
        let plan = alloc::fifo_plan_ordered(&p, &c, &order, lifespan).unwrap();
        prop_assert!((plan.total_work() - base).abs() / base < 1e-10);
    }

    #[test]
    fn general_solver_agrees_with_closed_form_on_fifo(p in params_strategy(),
                                                      c in profile_strategy(),
                                                      seed in any::<u64>()) {
        let lifespan = 300.0;
        prop_assume!(alloc::fifo_feasible(&p, &c));
        let order = shuffled_order(c.n(), seed);
        let via_system = general::general_plan(&p, &c, &order, &order, lifespan).unwrap();
        let via_closed = alloc::fifo_plan_ordered(&p, &c, &order, lifespan).unwrap();
        for (a, b) in via_system.work.iter().zip(&via_closed.work) {
            prop_assert!((a - b).abs() <= 1e-8 * b.max(1e-3), "{a} vs {b}");
        }
    }

    #[test]
    fn feasible_general_plans_never_beat_fifo(p in params_strategy(), c in profile_strategy(),
                                              s1 in any::<u64>(), s2 in any::<u64>()) {
        let lifespan = 200.0;
        prop_assume!(alloc::fifo_feasible(&p, &c));
        let fifo = alloc::fifo_plan(&p, &c, lifespan).unwrap().total_work();
        let startup = shuffled_order(c.n(), s1);
        let finishing = shuffled_order(c.n(), s2);
        if let Ok(plan) = general::general_plan(&p, &c, &startup, &finishing, lifespan) {
            prop_assert!(plan.total_work() <= fifo * (1.0 + 1e-9),
                "Theorem 1: Σ={startup:?} Φ={finishing:?}");
        }
    }

    #[test]
    fn rental_duality(p in params_strategy(), c in profile_strategy(),
                      work in 1.0f64..1e5) {
        prop_assume!(alloc::fifo_feasible(&p, &c));
        let lifespan = rental::min_lifespan(&p, &c, work).unwrap();
        let (plan, _) = rental::rental_plan(&p, &c, work).unwrap();
        prop_assert!((plan.total_work() - work).abs() / work < 1e-10);
        // CEP at that lifespan yields back the work.
        let w2 = xmeasure::work(&p, &c, lifespan);
        prop_assert!((w2 - work).abs() / work < 1e-10);
    }

    #[test]
    fn work_completed_is_monotone_in_time(p in params_strategy(), c in profile_strategy()) {
        let lifespan = 100.0;
        prop_assume!(alloc::fifo_feasible(&p, &c));
        let plan = alloc::fifo_plan(&p, &c, lifespan).unwrap();
        let run = exec::execute(&p, &c, &plan);
        let mut prev = 0.0;
        for k in 1..=10 {
            let t = lifespan * k as f64 / 10.0;
            let w = run.work_completed_by(t);
            prop_assert!(w >= prev);
            prev = w;
        }
        prop_assert!((prev - plan.total_work()).abs() < 1e-9 * plan.total_work());
    }
}
