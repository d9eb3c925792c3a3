//! Fault-injection and recovery contracts across the workspace:
//!
//! 1. an **empty fault plan is a no-op, bit for bit** — both the
//!    oblivious faulted executor and the adaptive replanner reproduce the
//!    pristine execution's spans and arrival times exactly (the fault
//!    machinery adds zero float operations to the fault-free path);
//! 2. under **crash-only** fault plans the replanner's salvaged
//!    throughput **dominates** the oblivious executor's, at every seed
//!    (property-tested: the re-solve's never-grow cap reproduces the
//!    original allocation for survivors, so replanned schedules are
//!    weakly earlier and salvage a superset);
//! 3. the Chrome export of a pinned two-worker mid-run-crash execution is
//!    **byte-identical** to the checked-in golden file;
//! 4. `FaultPlan::sample` is **deterministic**: same seed, same
//!    fingerprint, on any platform or thread.

use hetero_core::{Params, Profile};
use hetero_faults::{FaultConfig, FaultPlan, FaultSpec};
use hetero_protocol::replan::{execute_adaptive, HedgePolicy};
use hetero_protocol::{alloc, exec, fault_exec};
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

// --- 1. the empty plan is bit-identical -----------------------------------

/// Every package's arrival, bit for bit.
fn arrival_bits(run: &exec::Execution) -> Vec<Option<u64>> {
    run.packages
        .iter()
        .map(|p| p.arrival.map(|t| t.get().to_bits()))
        .collect()
}

#[test]
fn empty_fault_plan_is_bit_identical_for_both_executors() {
    let params = Params::paper_table1();
    for n in [1usize, 2, 5, 9] {
        let profile = Profile::harmonic(n);
        let plan = alloc::fifo_plan(&params, &profile, 800.0).unwrap();
        let pristine = exec::execute(&params, &profile, &plan);

        let oblivious =
            fault_exec::execute_with_faults(&params, &profile, &plan, &FaultPlan::empty()).unwrap();
        assert_eq!(oblivious.trace.spans(), pristine.trace.spans(), "n = {n}");
        assert_eq!(arrival_bits(&oblivious), arrival_bits(&pristine), "n = {n}");
        assert_eq!(oblivious.lost_messages, 0);
        assert_eq!(oblivious.retransmits, 0);

        let adaptive = execute_adaptive(
            &params,
            &profile,
            &plan,
            &FaultPlan::empty(),
            &HedgePolicy::default(),
        )
        .unwrap();
        assert_eq!(adaptive.trace.spans(), pristine.trace.spans(), "n = {n}");
        assert_eq!(arrival_bits(&adaptive), arrival_bits(&pristine), "n = {n}");
        assert_eq!(adaptive.replans, 0);
        assert!(adaptive.appended().is_empty());
    }
}

// --- 2. crash-only dominance, property-tested ------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Under pure crash faults (no stragglers, jitter, or losses) the
    /// replanner can only help: skipped sends free the server and
    /// channel earlier, the never-grow cap keeps survivor allocations at
    /// their originals, and the top-up round adds work on top. Salvaged
    /// throughput therefore dominates the oblivious executor at every
    /// seed, and both runs are seed-deterministic.
    #[test]
    fn crash_only_replanning_dominates_oblivious(
        seed in any::<u64>(),
        n in 2usize..8,
        crash_p in 0.1f64..0.9,
    ) {
        let params = Params::paper_table1();
        let profile = Profile::harmonic(n);
        let lifespan = 600.0;
        let plan = alloc::fifo_plan(&params, &profile, lifespan).unwrap();
        let faults = FaultPlan::sample(
            &FaultConfig { crash_p, ..FaultConfig::default() },
            n,
            lifespan,
            seed,
        ).unwrap();
        prop_assert_eq!(
            faults.fingerprint(),
            FaultPlan::sample(
                &FaultConfig { crash_p, ..FaultConfig::default() },
                n,
                lifespan,
                seed,
            ).unwrap().fingerprint(),
            "same-seed sampling must be deterministic"
        );

        let oblivious =
            fault_exec::execute_with_faults(&params, &profile, &plan, &faults).unwrap();
        let policy = HedgePolicy { margin: 0.0, ..HedgePolicy::default() };
        let adaptive = execute_adaptive(&params, &profile, &plan, &faults, &policy).unwrap();

        let ob = oblivious.work_completed_by(lifespan);
        let ad = adaptive.work_completed_by(lifespan);
        prop_assert!(
            ad >= ob - 1e-9 * ob.abs().max(1.0),
            "adaptive {} < oblivious {} under {:?}", ad, ob, faults.specs()
        );

        // Determinism of the executions themselves: replaying the same
        // inputs yields bit-identical traces.
        let replay = execute_adaptive(&params, &profile, &plan, &faults, &policy).unwrap();
        prop_assert_eq!(replay.trace.spans(), adaptive.trace.spans());
    }
}

// --- 3. golden mid-run-crash trace ----------------------------------------

/// The pinned run behind the golden file: Table 1 parameters, two remote
/// computers at ρ = ⟨1, ½⟩, FIFO plan for lifespan 100, worker 1 crashing
/// at t = 50 (mid-compute — its trace ends in a truncated `†crash` span
/// and its results never return).
fn fault2_chrome() -> String {
    let params = Params::paper_table1();
    let profile = Profile::new(vec![1.0, 0.5]).unwrap();
    let plan = alloc::fifo_plan(&params, &profile, 100.0).unwrap();
    let faults = FaultPlan::new(vec![FaultSpec::Crash {
        worker: 1,
        at: 50.0,
    }])
    .unwrap();
    let run = fault_exec::execute_with_faults(&params, &profile, &plan, &faults).unwrap();
    hetero_obs::chrome::sim_trace_to_chrome(&run.trace, &entity_names(profile.n()))
}

/// Regenerates the golden file after an intentional format change:
/// `cargo test --test fault_recovery -- --ignored regenerate_golden_fault_trace`
#[test]
#[ignore = "writes tests/golden/fault2_trace.json; run explicitly after intentional format changes"]
fn regenerate_golden_fault_trace() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/fault2_trace.json");
    std::fs::write(path, fault2_chrome()).unwrap();
}

#[test]
fn crash_trace_matches_golden_file_byte_for_byte() {
    let doc = fault2_chrome();
    let golden = include_str!("golden/fault2_trace.json");
    assert_eq!(
        doc, golden,
        "faulted Chrome trace drifted from tests/golden/fault2_trace.json; \
         if the change is intentional, regenerate the golden file"
    );
}

#[test]
fn crash_trace_records_the_truncated_span() {
    let doc = fault2_chrome();
    assert!(
        doc.contains("†crash"),
        "the golden run must show the crash marker: {doc}"
    );
}

// --- 4. fingerprint determinism -------------------------------------------

#[test]
fn same_seed_fault_plans_share_a_fingerprint() {
    let cfg = FaultConfig {
        crash_p: 0.4,
        straggler_count: 2,
        straggler_factor: 3.0,
        jitter_p: 0.5,
        jitter_factor: 2.0,
        loss_p: 0.3,
        loss_max: 4,
    };
    let a = FaultPlan::sample(&cfg, 12, 500.0, 0xD5EED).unwrap();
    let b = FaultPlan::sample(&cfg, 12, 500.0, 0xD5EED).unwrap();
    assert_eq!(a, b, "same seed must reproduce the identical plan");
    assert_eq!(a.fingerprint(), b.fingerprint());

    let c = FaultPlan::sample(&cfg, 12, 500.0, 0xD5EED + 1).unwrap();
    assert_ne!(
        a.fingerprint(),
        c.fingerprint(),
        "different seeds must (virtually always) diverge"
    );
}
