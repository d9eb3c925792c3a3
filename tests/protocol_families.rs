//! Cross-family protocol contracts for the resilience suite (PR 9):
//!
//! 1. an **empty fault plan is a no-op, bit for bit** for the two new
//!    families — work exchange and MDS coding reproduce the pristine
//!    executor's spans and arrivals exactly, just as `fault_recovery.rs`
//!    pins for the oblivious and adaptive families;
//! 2. the MDS **any-k decode certificate** holds against the exact
//!    `Ratio` oracle, exhaustively: for every small n, every threshold
//!    k, and every subset of destroyed shares, decode succeeds iff at
//!    least k shares survive, and every surviving k-subset carries at
//!    least the certified job mass (checked in exact rational
//!    arithmetic, so float rounding cannot hide a violation);
//! 3. work exchange **conserves the planned load**: retained + traded
//!    work equals the original allocation to ≤ 1e-12 relative, with
//!    both sides summed through `Ratio` so accumulation order is not a
//!    confound (property-tested over seeded fault plans);
//! 4. the Chrome export of a pinned two-worker mid-run-straggler
//!    exchange is **byte-identical** to the checked-in golden file;
//! 5. both families are **seed-deterministic**: same inputs, same
//!    spans, same ledger, at any repetition.

use hetero_core::{Params, Profile};
use hetero_exact::Ratio;
use hetero_faults::{FaultConfig, FaultPlan, FaultSpec};
use hetero_protocol::coded::{execute_coded, mds_assignment};
use hetero_protocol::exchange::{execute_exchange, ExchangePolicy};
use hetero_protocol::{alloc, exec};
use hetero_sim::SimTime;
use proptest::prelude::*;

/// Entity names for the Chrome export: C0, C1…Cn, net (matches
/// `obs_export::execution_to_chrome`).
fn entity_names(n: usize) -> Vec<String> {
    (0..=n + 1)
        .map(|entity| {
            if entity == exec::SERVER {
                "C0".to_string()
            } else if entity == exec::channel_entity(n) {
                "net".to_string()
            } else {
                format!("C{entity}")
            }
        })
        .collect()
}

/// Exact sum of a float slice: every f64 is a dyadic rational, so the
/// `Ratio` total is the true mathematical sum with no rounding at all.
fn ratio_sum(xs: impl IntoIterator<Item = f64>) -> Ratio {
    let mut total = Ratio::zero();
    for x in xs {
        total += &Ratio::from_f64(x).expect("finite work values");
    }
    total
}

// --- 1. the empty plan is bit-identical -----------------------------------

/// Every package's work and arrival, bit for bit.
fn ledger_bits(run: &exec::Execution) -> Vec<(u64, Option<u64>)> {
    run.packages
        .iter()
        .map(|p| (p.work.to_bits(), p.arrival.map(|t| t.get().to_bits())))
        .collect()
}

#[test]
fn empty_fault_plan_is_bit_identical_for_exchange_and_coded() {
    let params = Params::paper_table1();
    for n in [1usize, 2, 5, 9] {
        let profile = Profile::harmonic(n);
        let plan = alloc::fifo_plan(&params, &profile, 800.0).unwrap();
        let pristine = exec::execute(&params, &profile, &plan);

        let exchange = execute_exchange(
            &params,
            &profile,
            &plan,
            &FaultPlan::empty(),
            &ExchangePolicy::default(),
        )
        .unwrap();
        assert!(!exchange.degraded, "n = {n}");
        assert_eq!(exchange.trace.spans(), pristine.trace.spans(), "n = {n}");
        assert_eq!(ledger_bits(&exchange), ledger_bits(&pristine), "n = {n}");
        assert!(exchange.appended().is_empty());
        assert_eq!(exchange.lost_messages, 0);
        assert_eq!(exchange.retransmits, 0);

        let k = (n / 2).max(1);
        let coded = mds_assignment(&params, &profile, 800.0, k).unwrap();
        let pristine_coded = exec::execute(&params, &profile, &coded.plan);
        let run = execute_coded(&params, &profile, &coded, &FaultPlan::empty()).unwrap();
        assert_eq!(
            run.run.trace.spans(),
            pristine_coded.trace.spans(),
            "n = {n}"
        );
        assert_eq!(
            ledger_bits(&run.run),
            ledger_bits(&pristine_coded),
            "n = {n}"
        );
        assert_eq!(run.run.lost_messages, 0);
        assert!(!run.missed_deadline(800.0), "n = {n}");
    }
}

// --- 2. the any-k decode certificate, exhaustively vs Ratio ----------------

/// For every cluster size n ≤ 5, every threshold k, and every one of the
/// 2ⁿ subsets of destroyed shares: decode succeeds iff at least k shares
/// survive, the certified job is exactly the sum of the k smallest
/// shares, and — the MDS certificate itself — *every* surviving k-subset
/// carries at least that much coded mass. All mass comparisons run in
/// exact `Ratio` arithmetic.
#[test]
fn coded_decode_matches_the_ratio_oracle_for_every_loss_subset() {
    let params = Params::paper_table1();
    for n in 2usize..=5 {
        let profile = Profile::harmonic(n);
        for k in 1..=n {
            let coded = mds_assignment(&params, &profile, 600.0, k).unwrap();

            // The certificate, re-derived exactly: job = Σ of the k
            // smallest shares, and any k-subset of shares sums to at
            // least that.
            let mut sorted = coded.plan.work.clone();
            sorted.sort_unstable_by(f64::total_cmp);
            let certified = ratio_sum(sorted[..k].iter().copied());
            let job_err = (&Ratio::from_f64(coded.job).unwrap() - &certified).to_f64();
            assert!(
                job_err.abs() <= 1e-12 * coded.job,
                "n = {n}, k = {k}: certified job drifted {job_err} from the exact sum"
            );

            for mask in 0u32..(1 << n) {
                let destroyed: Vec<usize> = (0..n).filter(|i| mask & (1 << i) != 0).collect();
                let survivors = n - destroyed.len();
                let faults = FaultPlan::new(
                    destroyed
                        .iter()
                        .map(|&w| FaultSpec::ResultLoss {
                            worker: w,
                            count: 1,
                        })
                        .collect(),
                )
                .unwrap();
                let run = execute_coded(&params, &profile, &coded, &faults).unwrap();
                let arrivals: Vec<Option<SimTime>> =
                    run.run.packages.iter().map(|p| p.arrival).collect();
                assert_eq!(
                    arrivals.iter().flatten().count(),
                    survivors,
                    "n = {n}, k = {k}, mask = {mask:b}"
                );
                assert_eq!(run.run.lost_messages as usize, destroyed.len());

                let surviving_mass = ratio_sum(
                    arrivals
                        .iter()
                        .zip(&coded.plan.work)
                        .filter_map(|(arr, &w)| arr.map(|_| w)),
                );
                match run.decode() {
                    Ok(d) => {
                        assert!(survivors >= k, "decoded below threshold: mask = {mask:b}");
                        assert_eq!(d.shares_used, k);
                        assert_eq!(d.job.to_bits(), coded.job.to_bits());
                        // The oracle: what survived really does cover
                        // the certified job, exactly.
                        assert!(
                            surviving_mass >= certified,
                            "n = {n}, k = {k}, mask = {mask:b}: surviving mass below certificate"
                        );
                        // Decode happens at the k-th earliest arrival.
                        let mut times: Vec<SimTime> = arrivals.iter().flatten().copied().collect();
                        times.sort_unstable();
                        assert_eq!(d.time, times[k - 1]);
                    }
                    Err(e) => {
                        assert!(survivors < k, "failed above threshold: mask = {mask:b}");
                        assert_eq!(e.needed, k);
                        assert_eq!(e.arrived, survivors);
                        let stranded_err =
                            (&Ratio::from_f64(e.stranded_work).unwrap() - &surviving_mass).to_f64();
                        assert!(
                            stranded_err.abs() <= 1e-12 * coded.plan.total_work(),
                            "stranded accounting drifted {stranded_err}"
                        );
                    }
                }
            }
        }
    }
}

// --- 3. exchange conserves the planned load, property-tested ---------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every trade splits a share into retained + residual; nothing is
    /// created or destroyed. Summing both the plan and the post-exchange
    /// ledger through exact `Ratio` arithmetic, the totals agree to
    /// ≤ 1e-12 relative — the only float error budget is the per-trade
    /// `w/f` split itself, never summation order.
    #[test]
    fn exchange_conserves_total_load_against_the_ratio_oracle(
        seed in any::<u64>(),
        n in 2usize..7,
        straggler_count in 1usize..3,
        straggler_factor in 1.5f64..6.0,
        loss_p in 0.0f64..0.4,
    ) {
        let params = Params::paper_table1();
        let profile = Profile::harmonic(n);
        let lifespan = 600.0;
        let plan = alloc::fifo_plan(&params, &profile, lifespan).unwrap();
        let faults = FaultPlan::sample(
            &FaultConfig {
                straggler_count,
                straggler_factor,
                loss_p,
                loss_max: 2,
                ..FaultConfig::default()
            },
            n,
            lifespan,
            seed,
        ).unwrap();
        let run = execute_exchange(
            &params,
            &profile,
            &plan,
            &faults,
            &ExchangePolicy::default(),
        ).unwrap();
        // A degraded run replays under the adaptive replanner, whose
        // top-up rounds deliberately ADD work; conservation is an
        // exchange-ledger contract.
        if !run.degraded {
            let planned = ratio_sum(plan.work.iter().copied());
            let ledger = ratio_sum(run.packages.iter().map(|p| p.work));
            let drift = (&ledger - &planned).to_f64().abs();
            prop_assert!(
                drift <= 1e-12 * plan.total_work(),
                "ledger drifted {} from the plan under {:?}",
                drift,
                faults.specs()
            );
            // Each individual split is exact to the same budget.
            for x in run.appended() {
                let from = x.from.expect("every appended package is a trade");
                let w = plan.work[from];
                let split = (&(&Ratio::from_f64(run.packages[from].work).unwrap()
                    + &Ratio::from_f64(x.work).unwrap())
                    - &Ratio::from_f64(w).unwrap())
                    .to_f64();
                prop_assert!(split.abs() <= 1e-12 * w, "split drifted {}", split);
            }
        }
    }
}

// --- 4. golden mid-run-straggler exchange trace ----------------------------

/// The pinned run behind the golden file: Table 1 parameters, two remote
/// computers at ρ = ⟨1, ½⟩, FIFO plan for lifespan 500, worker 1
/// running 4× slow from t = 0 — detected at its send boundary, it keeps
/// the quarter-share that still fits its schedule and trades the
/// residual to worker 0 (`xpack→C1`, `xmit:xchg:C2→C1`, the donor's
/// second compute block, `recv←C1·xchg`).
fn exchange2_chrome() -> String {
    let params = Params::paper_table1();
    let profile = Profile::new(vec![1.0, 0.5]).unwrap();
    let plan = alloc::fifo_plan(&params, &profile, 500.0).unwrap();
    let faults = FaultPlan::new(vec![FaultSpec::Slowdown {
        worker: 1,
        factor: 4.0,
        from: 0.0,
        until: 1e6,
    }])
    .unwrap();
    let run = execute_exchange(
        &params,
        &profile,
        &plan,
        &faults,
        &ExchangePolicy::default(),
    )
    .unwrap();
    assert!(!run.degraded);
    assert_eq!(run.appended().len(), 1);
    hetero_obs::chrome::sim_trace_to_chrome(&run.trace, &entity_names(profile.n()))
}

/// Regenerates the golden file after an intentional format change:
/// `cargo test --test protocol_families -- --ignored regenerate_golden_exchange_trace`
#[test]
#[ignore = "writes tests/golden/exchange2_trace.json; run explicitly after intentional format changes"]
fn regenerate_golden_exchange_trace() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/exchange2_trace.json");
    std::fs::write(path, exchange2_chrome()).unwrap();
}

#[test]
fn exchange_trace_matches_golden_file_byte_for_byte() {
    let doc = exchange2_chrome();
    let golden = include_str!("golden/exchange2_trace.json");
    assert_eq!(
        doc, golden,
        "exchange Chrome trace drifted from tests/golden/exchange2_trace.json; \
         if the change is intentional, regenerate the golden file"
    );
}

#[test]
fn exchange_trace_records_the_transfer_machinery() {
    let doc = exchange2_chrome();
    for needle in ["xpack→C1", "xmit:xchg:C2→C1", "recv←C1·xchg"] {
        assert!(doc.contains(needle), "missing {needle} in: {doc}");
    }
}

// --- 5. seed determinism for both families ---------------------------------

#[test]
fn both_families_replay_bit_identically_under_sampled_plans() {
    let params = Params::paper_table1();
    let n = 6;
    let profile = Profile::harmonic(n);
    let lifespan = 600.0;
    let plan = alloc::fifo_plan(&params, &profile, lifespan).unwrap();
    let coded = mds_assignment(&params, &profile, lifespan, 3).unwrap();
    let cfg = FaultConfig {
        crash_p: 0.2,
        straggler_count: 2,
        straggler_factor: 3.0,
        loss_p: 0.3,
        loss_max: 2,
        ..FaultConfig::default()
    };
    for seed in [0u64, 0x9E22, u64::MAX] {
        let faults = FaultPlan::sample(&cfg, n, lifespan, seed).unwrap();
        assert_eq!(
            faults.fingerprint(),
            FaultPlan::sample(&cfg, n, lifespan, seed)
                .unwrap()
                .fingerprint(),
            "seed {seed}: sampling must be deterministic"
        );

        let x1 = execute_exchange(
            &params,
            &profile,
            &plan,
            &faults,
            &ExchangePolicy::default(),
        )
        .unwrap();
        let x2 = execute_exchange(
            &params,
            &profile,
            &plan,
            &faults,
            &ExchangePolicy::default(),
        )
        .unwrap();
        assert_eq!(x1.trace.spans(), x2.trace.spans(), "seed {seed}");
        assert_eq!(x1.packages, x2.packages, "seed {seed}");
        assert_eq!(x1.degraded, x2.degraded, "seed {seed}");

        let c1 = execute_coded(&params, &profile, &coded, &faults).unwrap();
        let c2 = execute_coded(&params, &profile, &coded, &faults).unwrap();
        assert_eq!(c1.run.trace.spans(), c2.run.trace.spans(), "seed {seed}");
        assert_eq!(c1.decode(), c2.decode(), "seed {seed}");
    }
}
