//! Experiment E20 (extension) — **fleet-scale exact selection**: how far
//! does dominance pruning carry the Lemma 1 search?
//!
//! The Gray-code walk of `hetero_core::selection` certifies optimal
//! sub-clusters by enumerating all `2ⁿ − 1` subsets — infeasible past
//! n = 63 and already ~1.4 s at n = 28 on the bench host. The
//! branch-and-bound search closes the same exact answer by pruning with
//! the Proposition 3 dominance ordering and an admissible bound off the
//! hierarchical summary tree. This sweep makes the gap concrete: for
//! n ∈ {64, 256, 4096} — every one of them unreachable by enumeration —
//! it reports the nodes actually expanded against the exhaustive count,
//! on a distinct-speed family and a duplicate-heavy family (the
//! adversarial case for tie canonicalization).
//!
//! The second half demonstrates the other fleet-scale layer: a 10⁶-worker
//! synthetic fleet (clustergen) summarized by a
//! [`SummaryTree`] and collapsed to
//! 64 Proposition 1 homogeneous equivalents, with the compressed X/HECR
//! checked against the exact flat evaluation.

use hetero_clustergen::{rng_from_seed, sample_speeds, GenConfig, Shape};
use hetero_core::hcompress::SummaryTree;
use hetero_core::xmeasure::x_measure_of_rhos;
use hetero_core::{selection, Params, Profile};

use crate::render::{fmt_f, Table};

/// One branch-and-bound cell of the sweep.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Profile family label.
    pub family: String,
    /// Cluster size.
    pub n: usize,
    /// Subset size searched for.
    pub k: usize,
    /// X-measure of the winning subset.
    pub x: f64,
    /// Decision nodes the search expanded.
    pub nodes_visited: u64,
    /// Subtrees cut by the bound or the dominance rule.
    pub nodes_pruned: u64,
    /// Fraction of the `2ⁿ − 1` exhaustive space never materialized.
    pub pruned_fraction: f64,
    /// Whether the winner is bit-identical to the Proposition 2
    /// fastest-`k` suffix (always true for distinct speeds; duplicate
    /// families may canonicalize to an equal-X, smaller-mask subset).
    pub winner_is_fastest_k: bool,
}

/// The million-worker compression demonstration.
#[derive(Debug, Clone)]
pub struct CompressionDemo {
    /// Fleet size.
    pub n: usize,
    /// Homogeneous equivalents retained.
    pub clusters: usize,
    /// Exact flat X of the fleet.
    pub x_flat: f64,
    /// X of the compressed fleet.
    pub x_compressed: f64,
    /// HECR of the compressed fleet.
    pub hecr_compressed: f64,
    /// The summary tree's certified absolute bound on its X.
    pub x_error_bound: f64,
}

/// The experiment results.
#[derive(Debug, Clone)]
pub struct SelectionSweep {
    /// One row per (family, n) cell.
    pub rows: Vec<SweepRow>,
    /// The 10⁶-worker compression demonstration.
    pub demo: CompressionDemo,
}

/// A duplicate-heavy profile: runs of eight equal speeds, the adversarial
/// input for the equal-speed dominance rule (every run forces exact X
/// ties the canonical min-mask winner must break).
fn duplicate_runs(n: usize) -> Profile {
    // hetero-check: allow(expect) — speeds 1/((i/8)+1) are finite and positive by construction
    Profile::from_unsorted((0..n).map(|i| 1.0 / ((i / 8) + 1) as f64).collect())
        .expect("valid speeds")
}

/// Runs the sweep at the given cluster sizes with `k = n/2`, plus the
/// compression demo over `demo_n` synthetic workers.
pub fn run(params: &Params, sizes: &[usize], demo_n: usize, seed: u64) -> SelectionSweep {
    let mut rows = Vec::with_capacity(2 * sizes.len());
    for &n in sizes {
        let k = n / 2;
        for (family, profile) in [
            ("harmonic", Profile::harmonic(n)),
            ("dup-runs", duplicate_runs(n)),
        ] {
            // hetero-check: allow(expect) — 1 ≤ k = n/2 ≤ n for every swept size
            let (winner, stats) =
                selection::best_k_subset_with_stats(params, &profile, k).expect("valid k");
            // hetero-check: allow(expect) — same bounds as above
            let fastest = selection::fastest_k(&profile, k).expect("valid k");
            let winner_is_fastest_k = winner
                .rhos()
                .iter()
                .zip(fastest.rhos())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            rows.push(SweepRow {
                family: family.to_string(),
                n,
                k,
                x: x_measure_of_rhos(params, winner.rhos()),
                nodes_visited: stats.nodes_visited,
                nodes_pruned: stats.nodes_pruned,
                pruned_fraction: stats.pruned_fraction(n),
                winner_is_fastest_k,
            });
        }
    }

    let mut rng = rng_from_seed(seed);
    let speeds = sample_speeds(&mut rng, GenConfig::new(demo_n), Shape::Uniform);
    // hetero-check: allow(expect) — clustergen samples finite positive speeds
    let tree = SummaryTree::new(params, &speeds).expect("generated speeds are valid");
    // hetero-check: allow(expect) — 64 clusters is a valid compression target
    let fleet = tree.compress(64).expect("valid cluster budget");
    let demo = CompressionDemo {
        n: demo_n,
        clusters: fleet.num_clusters(),
        x_flat: x_measure_of_rhos(params, &speeds),
        x_compressed: fleet.x(),
        // hetero-check: allow(expect) — a nonempty fleet always has a finite HECR
        hecr_compressed: fleet.hecr().expect("valid fleet"),
        x_error_bound: tree.x_error_bound(),
    };
    SelectionSweep { rows, demo }
}

/// The paper-default sweep: n ∈ {64, 256, 4096} under Table 1
/// parameters, with a 10⁶-worker demo fleet.
pub fn run_paper() -> SelectionSweep {
    run(&Params::paper_table1(), &[64, 256, 4096], 1_000_000, 20)
}

/// A miniature sweep for smoke tests and CI: small sizes, small fleet.
pub fn run_smoke() -> SelectionSweep {
    run(&Params::paper_table1(), &[16, 64], 10_000, 20)
}

impl SelectionSweep {
    /// ASCII rendering of the branch-and-bound sweep.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "E20 — exact best-k selection by branch-and-bound (vs 2^n enumeration)",
            &[
                "family",
                "n",
                "k",
                "X(winner)",
                "nodes visited",
                "nodes pruned",
                "pruned %",
                "winner = fastest-k",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                r.family.clone(),
                r.n.to_string(),
                r.k.to_string(),
                fmt_f(r.x, 4),
                r.nodes_visited.to_string(),
                r.nodes_pruned.to_string(),
                fmt_f(100.0 * r.pruned_fraction, 12),
                if r.winner_is_fastest_k { "yes" } else { "tie" }.to_string(),
            ]);
        }
        t
    }

    /// ASCII rendering of the compression demonstration.
    pub fn demo_table(&self) -> Table {
        let mut t = Table::new(
            "E20 — hierarchical HECR compression of a synthetic mega-fleet",
            &[
                "workers",
                "clusters",
                "X flat",
                "X compressed",
                "HECR",
                "certified |ΔX| bound",
            ],
        );
        let d = &self.demo;
        t.row(vec![
            d.n.to_string(),
            d.clusters.to_string(),
            fmt_f(d.x_flat, 4),
            fmt_f(d.x_compressed, 4),
            format!("{:.6e}", d.hecr_compressed),
            format!("{:.3e}", d.x_error_bound),
        ]);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_prunes_nearly_everything() {
        let s = run_smoke();
        assert_eq!(s.rows.len(), 4);
        for r in &s.rows {
            assert!(r.pruned_fraction > 0.99, "{} n={}", r.family, r.n);
            assert!(r.x > 0.0);
            assert!(r.nodes_visited > 0);
        }
        // Distinct speeds: the Proposition 2 suffix wins outright.
        assert!(s
            .rows
            .iter()
            .filter(|r| r.family == "harmonic")
            .all(|r| r.winner_is_fastest_k));
    }

    #[test]
    fn compression_demo_is_tight() {
        let s = run_smoke();
        let d = &s.demo;
        assert_eq!(d.clusters, 64);
        let rel = (d.x_compressed - d.x_flat).abs() / d.x_flat;
        assert!(rel < 1e-10, "compressed X off by {rel}");
        assert!(d.hecr_compressed > 0.0);
    }

    #[test]
    fn render_contains_every_cell() {
        let s = run_smoke();
        let ascii = s.table().to_ascii();
        assert!(ascii.contains("harmonic"));
        assert!(ascii.contains("dup-runs"));
        assert!(ascii.contains("pruned %"));
        let demo = s.demo_table().to_ascii();
        assert!(demo.contains("10000"));
    }

    #[test]
    fn sweep_is_deterministic() {
        let a = run_smoke();
        let b = run_smoke();
        assert_eq!(a.table().to_ascii(), b.table().to_ascii());
        assert_eq!(a.demo_table().to_ascii(), b.demo_table().to_ascii());
    }
}
