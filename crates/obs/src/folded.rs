//! Inferno-compatible folded-stack export of causal span trees.
//!
//! The folded-stack format (`inferno` / Brendan Gregg's
//! `flamegraph.pl`) is one line per stack:
//! `frame;frame;…;frame <weight>`, weights in integer units. This
//! module renders a causal [`Trace`] as such a profile: every span
//! becomes one line whose frames are the labels along its causal chain
//! (root first, each frame prefixed by the entity's lane name) and
//! whose weight is the span's **self time** in integer microseconds:
//! its duration minus the time its causal children were simultaneously
//! running. Sequential causal successors (the common case — a transmit
//! *follows* the pack that caused it) overlap nothing and keep their
//! full duration, while nested spans surrender the overlapped portion
//! to the child, so a frame's rendered width is the total time causally
//! downstream of it — the same quantity the critical-path extractor
//! maximizes.
//!
//! Lines are emitted in span-id order and zero-weight lines are
//! skipped; the output is byte-deterministic for the same trace. The
//! time scale matches the Chrome exporter: 1 sim unit = 1 ms = 1000 µs
//! (see [`crate::chrome::SIM_UNIT_US`]).

use crate::chrome::SIM_UNIT_US;
use hetero_sim::Trace;

/// Renders `trace` in folded-stack format. `entity_names[i]` names
/// entity `i`'s lane; out-of-range entities fall back to `E<i>`,
/// exactly like the Chrome exporter.
pub fn trace_to_folded(trace: &Trace, entity_names: &[String]) -> String {
    let spans = trace.spans();
    // Time each span's causal children spent running *inside* its own
    // interval — subtracted below so nested spans don't double-count.
    let mut child_time = vec![0.0f64; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        let Some(p) = trace.parent(i) else { continue };
        if let (Some(parent), Some(acc)) = (spans.get(p), child_time.get_mut(p)) {
            let overlap = (s.end.get().min(parent.end.get())
                - s.start.get().max(parent.start.get()))
            .max(0.0);
            // hetero-check: allow(float-accum) — a span has O(1) causal children and the sum is rounded to whole µs below
            *acc += overlap;
        }
    }
    let mut out = String::new();
    for ((i, s), child) in spans.iter().enumerate().zip(&child_time) {
        let self_us = ((s.duration() - child) * SIM_UNIT_US).round();
        if self_us <= 0.0 {
            continue;
        }
        let mut frames: Vec<usize> = vec![i];
        let mut cur = i;
        while let Some(p) = trace.parent(cur) {
            frames.push(p);
            cur = p;
        }
        frames.reverse();
        for (k, sp) in frames.iter().filter_map(|&id| spans.get(id)).enumerate() {
            if k > 0 {
                out.push(';');
            }
            match entity_names.get(sp.entity) {
                Some(name) => out.push_str(name),
                None => out.push_str(&format!("E{}", sp.entity)),
            }
            out.push(':');
            out.push_str(&sp.label);
        }
        out.push(' ');
        out.push_str(&format!("{}", self_us as u64));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_sim::SimTime;

    fn t(v: f64) -> SimTime {
        SimTime::new(v)
    }

    #[test]
    fn chains_fold_with_self_time_weights() {
        let mut tr = Trace::new();
        let a = tr.record_caused(0, "pack", t(0.0), t(1.0), None);
        let b = tr.record_caused(2, "xmit", t(1.0), t(3.0), Some(a));
        tr.record_caused(1, "compute", t(3.0), t(6.0), Some(b));
        let names = vec!["C0".to_string(), "C1".to_string(), "net".to_string()];
        let folded = trace_to_folded(&tr, &names);
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(
            lines,
            vec![
                "C0:pack 1000",
                "C0:pack;net:xmit 2000",
                "C0:pack;net:xmit;C1:compute 3000",
            ]
        );
    }

    #[test]
    fn zero_self_time_spans_are_skipped() {
        let mut tr = Trace::new();
        // Parent fully covered by its child: zero self time.
        let a = tr.record_caused(0, "outer", t(0.0), t(2.0), None);
        tr.record_caused(0, "inner", t(0.0), t(2.0), Some(a));
        let folded = trace_to_folded(&tr, &[]);
        assert_eq!(folded, "E0:outer;E0:inner 2000\n");
    }

    #[test]
    fn empty_trace_renders_empty() {
        assert_eq!(trace_to_folded(&Trace::new(), &[]), "");
    }
}
