//! Capacity planning: *which computer should I upgrade?*
//!
//! ```sh
//! cargo run -p hetero-examples --example capacity_planning
//! ```
//!
//! You run a render farm with a mixed fleet and budget for exactly one
//! upgrade. The paper's Section 3 answers the question rigorously:
//!
//! * swapping a machine for one that is a fixed amount faster (an
//!   *additive* speedup) → always upgrade the **fastest** (Theorem 3);
//! * swapping for one twice as fast (a *multiplicative* speedup) → upgrade
//!   the fastest *unless* it is already so fast that the network is the
//!   bottleneck (Theorem 4) — then upgrade the slowest.

use hetero_core::speedup::{
    additive_speedup, best_additive_index, best_multiplicative_index, multiplicative_speedup,
    theorem4_choice, Theorem4Choice,
};
use hetero_core::xmeasure::work_ratio;
use hetero_core::{Params, Profile};

fn main() {
    let params = Params::paper_table1();
    // The render farm: ρ in units of the slowest node's per-frame time.
    let farm = Profile::new(vec![1.0, 0.8, 0.5, 0.5, 0.25]).expect("valid profile");
    println!("fleet: {:?}\n", farm.rhos());

    // --- Scenario 1: vendor offers "0.1 faster" modules (additive). ---
    println!("additive upgrade (ρ → ρ − 0.1):");
    let phi = 0.1;
    for i in 0..farm.n() {
        match additive_speedup(&farm, i, phi) {
            Ok(upgraded) => println!(
                "  upgrade node {i} (ρ = {:.2}): throughput ×{:.4}",
                farm.rho(i),
                work_ratio(&params, &upgraded, &farm)
            ),
            Err(_) => println!(
                "  upgrade node {i} (ρ = {:.2}): not possible (ρ ≤ φ)",
                farm.rho(i)
            ),
        }
    }
    let best = best_additive_index(&params, &farm, phi).expect("some node upgradable");
    println!("  → best: node {best} — the fastest, exactly as Theorem 3 proves.\n");
    assert_eq!(best, farm.n() - 1);

    // --- Scenario 2: vendor offers "2× faster" modules (multiplicative). ---
    let psi = 0.5;
    println!("multiplicative upgrade (ρ → ρ/2):");
    for i in 0..farm.n() {
        let upgraded = multiplicative_speedup(&farm, i, psi).expect("valid");
        println!(
            "  upgrade node {i} (ρ = {:.2}): throughput ×{:.4}",
            farm.rho(i),
            work_ratio(&params, &upgraded, &farm)
        );
    }
    let best = best_multiplicative_index(&params, &farm, psi).expect("nonempty");
    println!("  → best: node {best}.");

    // Theorem 4's decision rule, pairwise between slowest and fastest:
    let (slow, fast) = (farm.slowest(), farm.fastest());
    let verdict = match theorem4_choice(&params, slow, fast, psi) {
        Theorem4Choice::Faster => "upgrade the faster (condition 1)",
        Theorem4Choice::Slower => "upgrade the slower (condition 2)",
        Theorem4Choice::Indifferent => "either (boundary)",
    };
    println!(
        "  Theorem 4 on (ρ={slow}, ρ={fast}): ψρᵢρⱼ = {:.3} vs Aτδ/B² = {:.2e} → {verdict}",
        psi * slow * fast,
        params.theorem4_threshold()
    );

    // --- Scenario 3: when does the answer flip? ---
    // On a very fast fleet with a slow network (the paper's Figure 4
    // regime), the multiplicative answer flips to the *slowest* node.
    let fig_params = Params::fig34();
    let fast_fleet = Profile::homogeneous(4, 1.0 / 16.0)
        .expect("valid")
        .with_rho(3, 1.0 / 32.0)
        .expect("valid");
    let best = best_multiplicative_index(&fig_params, &fast_fleet, psi).expect("nonempty");
    println!(
        "\nslow-network regime, fleet {:?}: best multiplicative upgrade is node {best} — the slowest.",
        fast_fleet.rhos()
    );
    // Nodes 0–2 tie for slowest, and `best_multiplicative_index` breaks
    // ties toward the larger index: it names the last of them.
    let slowest = fast_fleet.slowest();
    let last_slowest = fast_fleet
        .rhos()
        .iter()
        .rposition(|&rho| rho.total_cmp(&slowest).is_eq())
        .expect("the slowest node is in the fleet");
    assert_eq!(best, last_slowest);
}
