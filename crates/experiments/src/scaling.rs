//! Experiment E14 (extension) — **scaling Table 3 to large clusters**:
//! X, HECR, and the approach to the server's feeding limit.
//!
//! Extends §2.5's comparison of the C1/C2 families from n = 32 up to the
//! paper's largest experimental size, n = 2¹⁶, and adds the quantity the
//! small table hides: `X(P)` saturates at the supremum `1/(A − τδ)` —
//! past a few thousand computers the *server*, not the cluster, limits
//! production, and the HECR's decline stalls accordingly.

use hetero_core::xbatch::{self, ProfileBatch};
use hetero_core::xengine::XScan;
use hetero_core::{xmeasure, NumericMode, Params, Profile};

use crate::render::{fmt_f, Table};

/// One cluster size's measurements.
#[derive(Debug, Clone)]
pub struct ScalingRow {
    /// Cluster size.
    pub n: usize,
    /// `X` of the uniform-spread family C1.
    pub x_c1: f64,
    /// `X` of the harmonic family C2.
    pub x_c2: f64,
    /// HECR of C1.
    pub hecr_c1: f64,
    /// HECR of C2.
    pub hecr_c2: f64,
    /// `X(C2)` as a fraction of the supremum `1/(A−τδ)`.
    pub saturation_c2: f64,
}

/// The scaling sweep.
#[derive(Debug, Clone)]
pub struct Scaling {
    /// Parameters used.
    pub params: Params,
    /// One row per size.
    pub rows: Vec<ScalingRow>,
}

/// Runs the sweep over the given sizes.
pub fn run(params: &Params, sizes: &[usize]) -> Scaling {
    run_mode(params, sizes, NumericMode::Strict)
}

/// [`run`] under an explicit [`NumericMode`]. The C1 X column switches
/// to the certified fast scalar kernel in `Fast` mode (the rows are
/// ragged, so the batch takes its per-row fallback); the C2 column
/// stays on the strict incremental prefix scan in both modes (the
/// engine's O(1) update algebra is certified only against the strict
/// evaluation order), as do both HECR columns' closed forms. Every
/// row's values are recorded as quantile sketches when observability is
/// on, which is what lets CI diff a strict run against a fast run at
/// the certified tolerance (`obsdiff --quantile-rel`).
pub fn run_mode(params: &Params, sizes: &[usize], mode: NumericMode) -> Scaling {
    let sup = xmeasure::x_supremum(params);
    // The harmonic family is nested — ⟨1, 1/2, …, 1/n⟩ is a prefix of
    // ⟨1, 1/2, …, 1/2n⟩ — so one xengine scan over the largest size
    // yields every smaller size's X as a prefix snapshot, bit-identical
    // to evaluating each from scratch. (C1 is not nested: its spread
    // depends on n, so it is evaluated per size.)
    let max_n = sizes.iter().copied().max().unwrap_or(0);
    let c2_scan = (max_n > 0).then(|| XScan::from_profile(params, &Profile::harmonic(max_n)));
    // Observability probe: a same-rho replacement at the last slot is an
    // identity query, so it exercises the O(1) replace path (and its
    // counter) without perturbing the sweep. Self-consistency of the
    // engine is recorded as a relative-error metric.
    if hetero_obs::enabled() {
        if let Some(scan) = c2_scan.as_ref() {
            let last = scan.n() - 1;
            let rho = scan.rhos()[last];
            if let Ok(x_probe) = scan.replace(last, rho) {
                let x = scan.x();
                let rel = if x.abs() > 0.0 {
                    ((x_probe - x) / x).abs()
                } else {
                    (x_probe - x).abs()
                };
                hetero_obs::observe("xengine.replace_identity_rel_err", rel);
            }
        }
    }
    // The C1 column and both HECR columns go through the batch kernels.
    // Rows have distinct lengths, so this is the documented ragged path:
    // the batch falls back to the scalar kernel per row, bit-identical to
    // the per-profile calls it replaces. (C2's X stays on the prefix
    // scan, which is cheaper than any re-evaluation.)
    let mut c1_batch = ProfileBatch::new();
    let mut c2_batch = ProfileBatch::new();
    for &n in sizes {
        c1_batch.push_profile(&Profile::uniform_spread(n));
        c2_batch.push_profile(&Profile::harmonic(n));
    }
    let x1s = xbatch::x_measures_mode(params, &c1_batch, mode);
    let hecr1s = xbatch::hecrs_mode(params, &c1_batch, mode);
    let hecr2s = xbatch::hecrs_mode(params, &c2_batch, mode);
    let rows: Vec<ScalingRow> = sizes
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let x2 = c2_scan
                .as_ref()
                .and_then(|scan| scan.prefix_x(n))
                .unwrap_or_else(|| xmeasure::x_measure(params, &Profile::harmonic(n)));
            ScalingRow {
                n,
                x_c1: x1s[i],
                x_c2: x2,
                hecr_c1: *hecr1s[i].as_ref().expect("valid"),
                hecr_c2: *hecr2s[i].as_ref().expect("valid"),
                saturation_c2: x2 / sup,
            }
        })
        .collect();
    if hetero_obs::enabled() {
        for r in &rows {
            hetero_obs::sketch("scaling.x_c1", r.x_c1);
            hetero_obs::sketch("scaling.x_c2", r.x_c2);
            hetero_obs::sketch("scaling.hecr_c1", r.hecr_c1);
            hetero_obs::sketch("scaling.hecr_c2", r.hecr_c2);
        }
    }
    Scaling {
        params: *params,
        rows,
    }
}

/// The default sweep: powers of two from 8 to 2¹⁶ under Table 1
/// parameters (the paper's experimental size range).
pub fn run_paper() -> Scaling {
    let sizes: Vec<usize> = (3..=16).map(|k| 1usize << k).collect();
    run(&Params::paper_table1(), &sizes)
}

/// [`run_paper`] under an explicit [`NumericMode`].
pub fn run_paper_mode(mode: NumericMode) -> Scaling {
    let sizes: Vec<usize> = (3..=16).map(|k| 1usize << k).collect();
    run_mode(&Params::paper_table1(), &sizes, mode)
}

impl Scaling {
    /// ASCII rendering.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Scaling §2.5 to n = 2¹⁶ — saturation of the X-measure",
            &[
                "n",
                "X(C1)",
                "X(C2)",
                "HECR C1",
                "HECR C2",
                "C2 % of supremum",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                r.n.to_string(),
                fmt_f(r.x_c1, 1),
                fmt_f(r.x_c2, 1),
                fmt_f(r.hecr_c1, 4),
                fmt_f(r.hecr_c2, 4),
                fmt_f(100.0 * r.saturation_c2, 1),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn x_grows_and_stays_below_supremum() {
        let s = run_paper();
        let sup = xmeasure::x_supremum(&s.params);
        for w in s.rows.windows(2) {
            // Strict growth until saturation eats the f64 resolution; never
            // a real decrease.
            assert!(w[1].x_c1 >= w[0].x_c1 * (1.0 - 1e-12));
            assert!(w[1].x_c2 >= w[0].x_c2 * (1.0 - 1e-12));
        }
        for w in s.rows[..4].windows(2) {
            assert!(w[1].x_c1 > w[0].x_c1, "strictly growing while unsaturated");
            assert!(w[1].x_c2 > w[0].x_c2);
        }
        for r in &s.rows {
            assert!(r.x_c2 <= sup * (1.0 + 1e-12) && r.x_c1 <= sup * (1.0 + 1e-12));
            assert!(r.x_c2 > r.x_c1, "C2 is the stronger family");
        }
    }

    #[test]
    fn hecrs_decline_monotonically() {
        let s = run_paper();
        for w in s.rows.windows(2) {
            assert!(w[1].hecr_c1 < w[0].hecr_c1);
            assert!(w[1].hecr_c2 < w[0].hecr_c2);
        }
    }

    #[test]
    fn c2_saturates_visibly_at_the_papers_largest_size() {
        // At n = 2¹⁶ the harmonic family has consumed a large share of
        // the server's feeding capacity — the saturation effect invisible
        // in the paper's n ≤ 32 table.
        let s = run_paper();
        let last = s.rows.last().unwrap();
        assert_eq!(last.n, 65_536);
        assert!(
            last.saturation_c2 > 0.5,
            "saturation {} at n = 2^16",
            last.saturation_c2
        );
        let first = s.rows.first().unwrap();
        assert!(first.saturation_c2 < 0.01, "tiny clusters are far from it");
    }

    #[test]
    fn table3_is_the_prefix_of_the_sweep() {
        let s = run(&Params::paper_table1(), &[8, 16, 32]);
        let t3 = crate::table3::run_paper();
        for (a, b) in s.rows.iter().zip(&t3.rows) {
            assert!((a.hecr_c1 - b.hecr_c1).abs() < 1e-12);
            assert!((a.hecr_c2 - b.hecr_c2).abs() < 1e-12);
        }
    }

    #[test]
    fn render_includes_saturation_column() {
        let s = run(&Params::paper_table1(), &[8, 4096]).table().to_ascii();
        assert!(s.contains("supremum"));
        assert!(s.contains("4096"));
    }
}
