//! Experiment E11 — the paper's **Figures 1–2** as ASCII action/time
//! diagrams rendered from actual executions.

use hetero_core::{Params, Profile};
use hetero_protocol::timeline::{fig1_stages, gantt_rows};
use hetero_protocol::{alloc, exec};
use hetero_sim::{Label, Phase};
use std::fmt::Write as _;

/// Renders Figure 1: the seven-stage pipeline for one remote computer.
pub fn render_fig1(params: &Params, rho: f64, w: f64) -> String {
    let stages = fig1_stages(params, rho, w);
    let total: f64 = stages.iter().map(|s| s.duration).sum();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 1 — worksharing with one remote computer (ρ = {rho}, w = {w}):"
    );
    for s in &stages {
        let _ = writeln!(
            out,
            "  {label:<28} {dur:>14.6}  ({pct:>5.2}%)",
            label = s.label,
            dur = s.duration,
            pct = 100.0 * s.duration / total
        );
    }
    let _ = writeln!(out, "  {:<28} {total:>14.6}", "total");
    out
}

/// Renders Figure 2: the FIFO action/time diagram for an executed plan.
/// Each row shows the entity's activities proportionally on a shared time
/// axis of `width` characters.
pub fn render_fig2(params: &Params, profile: &Profile, lifespan: f64, width: usize) -> String {
    let plan = alloc::fifo_plan(params, profile, lifespan).expect("valid plan");
    let run = exec::execute(params, profile, &plan);
    let makespan = run.makespan().get();
    let rows = gantt_rows(&run, profile.n());

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 2 — FIFO worksharing with {} remote computers (L = {lifespan}):",
        profile.n()
    );
    for row in rows {
        let mut line = vec![b'.'; width];
        for span in &row.spans {
            let a = ((span.start.get() / makespan) * width as f64) as usize;
            let b = (((span.end.get() / makespan) * width as f64).ceil() as usize).min(width);
            let ch = match span.label {
                Label::PackFor(_) => b'P',
                Label::XmitWork(_) => b'w',
                Label::XmitResult { .. } => b'r',
                Label::Worker { phase, .. } => match phase {
                    Phase::Unpack => b'u',
                    Phase::Compute => b'C',
                    Phase::Pack => b'p',
                    Phase::Xpack(_) => b'?',
                },
                Label::RecvFrom { .. } => b'R',
                _ => b'?',
            };
            for c in line.iter_mut().take(b).skip(a.min(width)) {
                *c = ch;
            }
        }
        let _ = writeln!(
            out,
            "  {name:>4} |{}|",
            String::from_utf8(line).expect("ascii"),
            name = row.name
        );
    }
    out.push_str(
        "  key: P pack  w work-xmit  u unpack  C compute  p pack-results  r result-xmit  R recv\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_lists_seven_stages_and_total() {
        let s = render_fig1(&Params::paper_table1(), 0.5, 100.0);
        assert_eq!(s.matches('%').count(), 7);
        assert!(s.contains("total"));
        assert!(s.contains("computes"));
    }

    #[test]
    fn fig2_has_one_row_per_entity() {
        let p = Params::paper_table1();
        let profile = Profile::new(vec![1.0, 0.5, 0.25]).unwrap();
        let s = render_fig2(&p, &profile, 100.0, 72);
        // C0, C1, C2, C3, net + header + key.
        let rows: Vec<&str> = s.lines().filter(|l| l.contains('|')).collect();
        assert_eq!(rows.len(), 5);
        assert!(s.contains("C0"));
        assert!(s.contains("net"));
        // Compute dominates the workers' rows for coarse tasks.
        assert!(rows[1].contains('C'));
    }

    #[test]
    fn fig2_marks_the_workers_result_packs_apart_from_the_servers_packs() {
        let p = Params::paper_table1();
        let profile = Profile::new(vec![1.0, 0.5, 0.25]).unwrap();
        let s = render_fig2(&p, &profile, 100.0, 72);
        let rows: Vec<&str> = s.lines().filter(|l| l.contains('|')).collect();
        assert!(rows[0].contains("|P"), "the server packs: {}", rows[0]);
        for row in &rows[1..=3] {
            assert!(row.ends_with("p|"), "a worker ends packing results: {row}");
            assert!(!row.contains('P'), "a worker never packs work: {row}");
        }
    }

    #[test]
    fn fig2_workers_start_staggered() {
        // FIFO: C1 computes before C2 before C3 — visible as the first
        // non-dot column shifting right for later workers... at µs-scale
        // comm the stagger is subpixel, so verify via the trace instead.
        let p = Params::paper_table1();
        let profile = Profile::new(vec![1.0, 0.5, 0.25]).unwrap();
        let plan = alloc::fifo_plan(&p, &profile, 100.0).unwrap();
        let run = exec::execute(&p, &profile, &plan);
        let start_of = |entity: usize| {
            run.trace
                .entity_spans(entity)
                .map(|s| s.start)
                .min()
                .unwrap()
        };
        assert!(start_of(1) < start_of(2));
        assert!(start_of(2) < start_of(3));
    }
}
