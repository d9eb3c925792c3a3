//! Action/time diagrams (the paper's Figures 1–2).
//!
//! [`fig1_stages`] reproduces the seven-stage pipeline of Figure 1 for a
//! single remote computer; [`gantt_rows`] groups an execution's trace into
//! per-entity rows ready for rendering (the ASCII renderer lives in
//! `hetero-experiments`).

use hetero_core::Params;
use hetero_sim::Span;

use crate::exec::{channel_entity, Execution, SERVER};

/// One stage of the Figure 1 pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Stage {
    /// Stage label, matching the paper's notation.
    pub label: &'static str,
    /// Stage duration for `w` units of work.
    pub duration: f64,
}

/// The Figure 1 stage durations for sharing `w` units with a single
/// remote computer of speed `rho`:
/// `π0·w | τ·w | πi·w | ρi·w | πi·δ·w | τ·δ·w | π0·δ·w`
/// (with the architectural-balance convention `π_i = π·ρ_i`, `π_0 = π`).
pub fn fig1_stages(params: &Params, rho: f64, w: f64) -> Vec<Stage> {
    let (pi, tau, delta) = (params.pi(), params.tau(), params.delta());
    vec![
        Stage {
            label: "π0·w (server packages)",
            duration: pi * w,
        },
        Stage {
            label: "τ·w (work transits)",
            duration: tau * w,
        },
        Stage {
            label: "πi·w (worker unpackages)",
            duration: pi * rho * w,
        },
        Stage {
            label: "ρi·w (worker computes)",
            duration: rho * w,
        },
        Stage {
            label: "πi·δw (worker packages)",
            duration: pi * rho * delta * w,
        },
        Stage {
            label: "τ·δw (results transit)",
            duration: tau * delta * w,
        },
        Stage {
            label: "π0·δw (server unpackages)",
            duration: pi * delta * w,
        },
    ]
}

/// A named row of spans for Gantt rendering.
#[derive(Debug, Clone)]
pub struct GanttRow {
    /// Row heading (`C0`, `C1`, …, `net`).
    pub name: String,
    /// The row's spans in start order.
    pub spans: Vec<Span>,
}

/// Groups an execution's trace into rows: server, workers 1…n, network.
pub fn gantt_rows(run: &Execution, n: usize) -> Vec<GanttRow> {
    let name_of = move |entity: usize| -> String {
        if entity == SERVER {
            "C0".to_string()
        } else if entity == channel_entity(n) {
            "net".to_string()
        } else {
            format!("C{entity}")
        }
    };
    let mut rows: Vec<GanttRow> = (0..=n + 1)
        .map(|e| GanttRow {
            name: name_of(e),
            spans: Vec::new(),
        })
        .collect();
    for span in run.trace.spans() {
        if let Some(row) = rows.get_mut(span.entity) {
            row.spans.push(span.clone());
        }
    }
    for row in &mut rows {
        row.spans.sort_by_key(|s| s.start);
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::fifo_plan;
    use crate::exec::execute;
    use hetero_core::Profile;

    #[test]
    fn fig1_stage_sum_is_the_end_to_end_latency() {
        let p = Params::paper_table1();
        let (rho, w) = (0.5, 20.0);
        let stages = fig1_stages(&p, rho, w);
        assert_eq!(stages.len(), 7);
        let total: f64 = stages.iter().map(|s| s.duration).sum();
        // π·w + τ·w + Bρ·w + τδ·w + πδ·w.
        let expect = p.a() * w + p.b() * rho * w + p.tau_delta() * w + p.pi() * p.delta() * w;
        assert!((total - expect).abs() < 1e-12);
    }

    #[test]
    fn fig1_compute_stage_dominates_for_coarse_tasks() {
        let p = Params::paper_table1();
        let stages = fig1_stages(&p, 1.0, 1.0);
        let compute = stages
            .iter()
            .find(|s| s.label.contains("computes"))
            .unwrap();
        for s in &stages {
            if s.label != compute.label {
                assert!(compute.duration > 100.0 * s.duration, "{}", s.label);
            }
        }
    }

    #[test]
    fn gantt_rows_cover_every_span() {
        let p = Params::paper_table1();
        let profile = Profile::new(vec![1.0, 0.5, 0.25]).unwrap();
        let plan = fifo_plan(&p, &profile, 100.0).unwrap();
        let run = execute(&p, &profile, &plan);
        let rows = gantt_rows(&run, 3);
        assert_eq!(rows.len(), 5); // C0, C1..C3, net
        assert_eq!(rows[0].name, "C0");
        assert_eq!(rows[4].name, "net");
        let total: usize = rows.iter().map(|r| r.spans.len()).sum();
        assert_eq!(total, run.trace.spans().len());
        for row in &rows {
            for pair in row.spans.windows(2) {
                assert!(pair[0].start <= pair[1].start, "rows sorted by start");
            }
        }
    }
}
