//! Causal span trees and deterministic critical-path extraction.
//!
//! The protocol executors record every span with a *causal parent* (see
//! `hetero_sim::Trace::record_caused`): the span whose completion
//! enabled it. A trace is therefore a forest; the **critical path** is
//! the maximal-weight root-to-leaf chain, where a chain's weight is the
//! sum of its spans' durations. On an optimal FIFO plan the chain
//! ending at the last result arrival is temporally contiguous from
//! `t = 0`, so its weight *is* the lifespan bound of Theorem 1 — the
//! paper's scheduling argument made visible in one query.
//!
//! Extraction is a single forward pass: parents are always recorded
//! before children (ids are recording indices), so `down[i] =
//! dur(i) + down[parent(i)]` is computable in id order, and ties break
//! to the smallest id — fully deterministic for the same trace.

use hetero_sim::Trace;

/// One extracted root-to-leaf causal chain.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// Span ids along the chain, root first.
    pub span_ids: Vec<usize>,
    /// Sum of the chain's span durations (sim units), Neumaier-summed.
    pub weight: f64,
    /// Start time of the chain's root span.
    pub start: f64,
    /// End time of the chain's leaf span.
    pub end: f64,
    /// `end − start` minus `weight`: total causal gap along the chain.
    /// Zero (to rounding) iff every span starts exactly when its parent
    /// ends — the signature of a bound-tight schedule.
    pub slack: f64,
}

/// Per-span cumulated root-to-here weights, in id order. Shared by the
/// extractors; exposed for tooling that wants the whole profile.
pub fn down_weights(trace: &Trace) -> Vec<f64> {
    let spans = trace.spans();
    let mut down: Vec<f64> = Vec::with_capacity(spans.len());
    for (i, s) in spans.iter().enumerate() {
        // Neumaier-style compensated add of this span's duration onto
        // the parent's cumulated weight, so long chains do not drift.
        // Parents precede their children, so the parent's weight is in.
        let base = trace
            .parent(i)
            .and_then(|p| down.get(p))
            .copied()
            .unwrap_or(0.0);
        down.push(neumaier2(base, s.duration()));
    }
    down
}

/// The maximal-weight root-to-leaf chain of the whole trace, `None`
/// when the trace is empty. Ties break to the smallest leaf id.
pub fn critical_path(trace: &Trace) -> Option<CriticalPath> {
    let down = down_weights(trace);
    let leaf = max_index(&down, |_| true)?;
    chain_to(trace, &down, leaf)
}

/// The maximal-weight chain ending at a span satisfying `pred` — e.g.
/// "the heaviest chain ending in a result transmission". `None` when no
/// span matches.
pub fn critical_path_where<F>(trace: &Trace, pred: F) -> Option<CriticalPath>
where
    F: FnMut(usize) -> bool,
{
    let down = down_weights(trace);
    let leaf = max_index(&down, pred)?;
    chain_to(trace, &down, leaf)
}

/// The chain from the forest root down to span `leaf`. Returns `None`
/// for out-of-range ids.
pub fn critical_path_to(trace: &Trace, leaf: usize) -> Option<CriticalPath> {
    let down = down_weights(trace);
    chain_to(trace, &down, leaf)
}

fn max_index<F>(down: &[f64], mut keep: F) -> Option<usize>
where
    F: FnMut(usize) -> bool,
{
    let mut best: Option<(usize, f64)> = None;
    for (i, &w) in down.iter().enumerate() {
        if !keep(i) {
            continue;
        }
        match best {
            // Strictly-greater comparison keeps the first (smallest id)
            // of any exact tie.
            Some((_, bw)) if w.total_cmp(&bw) != std::cmp::Ordering::Greater => {}
            _ => best = Some((i, w)),
        }
    }
    best.map(|(i, _)| i)
}

/// The chain from its root down to `leaf`; `None` when `leaf` is not a
/// span of `trace`.
fn chain_to(trace: &Trace, down: &[f64], leaf: usize) -> Option<CriticalPath> {
    let spans = trace.spans();
    let weight = *down.get(leaf)?;
    let end = spans.get(leaf)?.end.get();
    let mut ids = vec![leaf];
    let mut cur = leaf;
    while let Some(p) = trace.parent(cur) {
        ids.push(p);
        cur = p;
    }
    ids.reverse();
    let start = spans.get(cur)?.start.get();
    Some(CriticalPath {
        weight,
        slack: (end - start) - weight,
        span_ids: ids,
        start,
        end,
    })
}

/// Compensated two-term sum (Neumaier): returns `a + b` with the
/// rounding residue folded back in, adequate for chain-length
/// accumulation without pulling in the core kernels (which depend on
/// this crate and cannot be used here).
fn neumaier2(a: f64, b: f64) -> f64 {
    let s = a + b;
    let comp = if a.abs() >= b.abs() {
        (a - s) + b
    } else {
        (b - s) + a
    };
    s + comp
}

impl CriticalPath {
    /// The chain rendered as `label;label;…` (root first) — one frame
    /// path in the folded-stack format. `trace` should be the trace the
    /// path was extracted from; a span id it does not hold renders as
    /// `?`.
    pub fn folded_frames(&self, trace: &Trace) -> String {
        let spans = trace.spans();
        let mut out = String::new();
        for (k, &id) in self.span_ids.iter().enumerate() {
            if k > 0 {
                out.push(';');
            }
            out.push_str(spans.get(id).map_or("?", |s| s.label.as_str()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_sim::SimTime;

    fn t(v: f64) -> SimTime {
        SimTime::new(v)
    }

    /// Two chains: a(0–1)→b(1–4) (weight 4) and c(0–2)→d(2–3) (weight 3).
    fn forest() -> Trace {
        let mut tr = Trace::new();
        let a = tr.record_caused(0, "a", t(0.0), t(1.0), None);
        tr.record_caused(1, "b", t(1.0), t(4.0), Some(a));
        let c = tr.record_caused(2, "c", t(0.0), t(2.0), None);
        tr.record_caused(3, "d", t(2.0), t(3.0), Some(c));
        tr
    }

    #[test]
    fn empty_trace_has_no_path() {
        assert_eq!(critical_path(&Trace::new()), None);
    }

    #[test]
    fn heaviest_chain_wins() {
        let tr = forest();
        let p = critical_path(&tr).expect("nonempty");
        assert_eq!(p.span_ids, vec![0, 1]);
        assert_eq!(p.weight, 4.0);
        assert_eq!((p.start, p.end), (0.0, 4.0));
        assert_eq!(p.slack, 0.0, "contiguous chain has zero slack");
        assert_eq!(p.folded_frames(&tr), "a;b");
    }

    #[test]
    fn filtered_extraction_targets_a_leaf_family() {
        let tr = forest();
        let p = critical_path_where(&tr, |i| tr.spans()[i].label == "d").expect("d exists");
        assert_eq!(p.span_ids, vec![2, 3]);
        assert_eq!(p.weight, 3.0);
    }

    #[test]
    fn frames_of_a_path_from_a_longer_trace_do_not_panic() {
        // The path is [0, 1]; the shorter trace holds span 0 only.
        let p = critical_path(&forest()).expect("nonempty");
        let mut short = Trace::new();
        short.record_caused(0, "only", t(0.0), t(1.0), None);
        assert_eq!(p.folded_frames(&short), "only;?");
        assert_eq!(p.folded_frames(&Trace::new()), "?;?");
    }

    #[test]
    fn chain_to_specific_leaf() {
        let tr = forest();
        let p = critical_path_to(&tr, 3).expect("in range");
        assert_eq!(p.span_ids, vec![2, 3]);
        assert_eq!(critical_path_to(&tr, 99), None);
    }

    #[test]
    fn gaps_surface_as_slack() {
        let mut tr = Trace::new();
        let a = tr.record_caused(0, "a", t(0.0), t(1.0), None);
        tr.record_caused(1, "b", t(3.0), t(4.0), Some(a)); // 2-unit gap
        let p = critical_path(&tr).expect("nonempty");
        assert_eq!(p.weight, 2.0);
        assert_eq!(p.slack, 2.0);
    }

    #[test]
    fn ties_break_to_the_smallest_id() {
        let mut tr = Trace::new();
        tr.record_caused(0, "x", t(0.0), t(2.0), None);
        tr.record_caused(1, "y", t(5.0), t(7.0), None); // same weight
        let p = critical_path(&tr).expect("nonempty");
        assert_eq!(p.span_ids, vec![0]);
    }
}
