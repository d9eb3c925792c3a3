//! Protocol-invariant validation.
//!
//! An [`Execution`] is checked against the model's
//! ground rules:
//!
//! 1. **single message in transit** — no two network spans overlap;
//! 2. **serial entities** — the server and each worker do one thing at a
//!    time;
//! 3. **lifespan** — every result arrives by `L`;
//! 4. **conservation** — every position's work appears as a compute span
//!    of the right duration.
//!
//! Checks 1 and 2 are one sweep over the spans sorted by (entity, start,
//! end), so validation costs O(S log S) for S spans; check 4 looks each
//! worker up in the same sorted order.

use hetero_core::{Params, Profile};
use hetero_sim::{Label, Phase, Span};

use crate::exec::{channel_entity, cutoff, worker_entity, Execution};

/// A violated protocol invariant.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// Two messages were in transit simultaneously.
    ChannelConflict {
        /// Labels of the colliding spans, the earlier start first.
        labels: (String, String),
    },
    /// An entity had two overlapping activities.
    EntityConflict {
        /// The busy entity.
        entity: usize,
    },
    /// A result arrived after the lifespan.
    LifespanExceeded {
        /// Ledger position of the late result's package.
        position: usize,
        /// Its arrival time.
        arrival: f64,
    },
    /// A worker's compute span does not match `ρ·w`.
    WrongComputeTime {
        /// Profile index of the worker.
        index: usize,
    },
}

/// Runs every check; returns all violations (empty = valid). Overlaps
/// come first, at most one per entity and in entity order, then late
/// arrivals and wrong compute times in position order.
pub fn validate(_params: &Params, profile: &Profile, run: &Execution) -> Vec<Violation> {
    let mut out = Vec::new();
    let chan = channel_entity(profile.n());

    // 1–2. In (entity, start, end) order a span overlaps an earlier span
    // of its entity iff it starts before the latest end so far (touching
    // endpoints do not overlap). Every message crosses the channel
    // entity, so an overlap there is two messages in transit at once.
    let mut spans: Vec<&Span> = run.trace.spans().iter().collect();
    spans.sort_unstable_by_key(|s| (s.entity, s.start, s.end));
    let mut reach: Option<&Span> = None;
    let mut flagged = None;
    for &s in &spans {
        let Some(r) = reach.filter(|r| r.entity == s.entity) else {
            reach = Some(s);
            continue;
        };
        if s.start < r.end && flagged != Some(s.entity) {
            flagged = Some(s.entity);
            out.push(if s.entity == chan {
                Violation::ChannelConflict {
                    labels: (r.label.to_string(), s.label.to_string()),
                }
            } else {
                Violation::EntityConflict { entity: s.entity }
            });
        }
        if s.end > r.end {
            reach = Some(s);
        }
    }

    // 3. Lifespan.
    let late = cutoff(run.plan.lifespan);
    for (position, package) in run.packages.iter().enumerate() {
        if let Some(arrival) = package.arrival.filter(|a| a.get() > late) {
            out.push(Violation::LifespanExceeded {
                position,
                arrival: arrival.get(),
            });
        }
    }

    // 4. Compute spans have duration ρ·w.
    let compute = Label::phase(Phase::Compute);
    for (&index, &work) in run.plan.order.iter().zip(&run.plan.work) {
        let expected = profile.rho(index) * work;
        let entity = worker_entity(index);
        let first = spans.partition_point(|s| s.entity < entity);
        let ok = spans
            .iter()
            .skip(first)
            .take_while(|s| s.entity == entity)
            .filter(|s| s.label == compute)
            .any(|s| (s.duration() - expected).abs() <= 1e-9 * expected.max(1.0));
        if !ok {
            out.push(Violation::WrongComputeTime { index });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::fifo_plan;
    use crate::baseline::equal_split_plan;
    use crate::exec::execute;
    use hetero_sim::{SimTime, Trace};

    fn params() -> Params {
        Params::paper_table1()
    }

    #[test]
    fn optimal_executions_are_valid() {
        let p = params();
        for profile in [
            Profile::new(vec![1.0]).unwrap(),
            Profile::harmonic(6),
            Profile::uniform_spread(10),
        ] {
            let plan = fifo_plan(&p, &profile, 400.0).unwrap();
            let run = execute(&p, &profile, &plan);
            assert_eq!(validate(&p, &profile, &run), vec![], "n = {}", profile.n());
        }
    }

    #[test]
    fn baseline_executions_are_valid_too() {
        let p = params();
        let profile = Profile::new(vec![1.0, 0.5, 0.25]).unwrap();
        let plan = equal_split_plan(&p, &profile, 300.0).unwrap();
        let run = execute(&p, &profile, &plan);
        assert_eq!(validate(&p, &profile, &run), vec![]);
    }

    #[test]
    fn oversized_plan_is_flagged() {
        // Hand-build a plan that cannot finish by its claimed lifespan.
        let p = params();
        let profile = Profile::new(vec![1.0, 0.5]).unwrap();
        let mut plan = fifo_plan(&p, &profile, 100.0).unwrap();
        plan.lifespan = 50.0; // lie about the lifespan
        let run = execute(&p, &profile, &plan);
        let violations = validate(&p, &profile, &run);
        assert!(violations
            .iter()
            .any(|v| matches!(v, Violation::LifespanExceeded { .. })));
    }

    #[test]
    fn channel_conflicts_would_be_caught() {
        // Sanity for the checker itself: a doctored trace trips it.
        let p = params();
        let profile = Profile::new(vec![1.0, 0.5]).unwrap();
        let plan = fifo_plan(&p, &profile, 100.0).unwrap();
        let mut run = execute(&p, &profile, &plan);
        let chan = channel_entity(2);
        let t0 = SimTime::ZERO;
        let t1 = SimTime::new(run.plan.lifespan);
        run.trace.record(chan, "xmit:rogue", t0, t1);
        let violations = validate(&p, &profile, &run);
        assert!(violations
            .iter()
            .any(|v| matches!(v, Violation::ChannelConflict { .. })));
    }

    #[test]
    fn a_channel_overlap_does_not_hide_a_worker_overlap() {
        let p = params();
        let profile = Profile::new(vec![1.0, 0.5]).unwrap();
        let plan = fifo_plan(&p, &profile, 100.0).unwrap();
        let mut run = execute(&p, &profile, &plan);
        let t0 = SimTime::ZERO;
        let t1 = SimTime::new(run.plan.lifespan);
        run.trace.record(channel_entity(2), "xmit:rogue", t0, t1);
        run.trace.record(worker_entity(0), "rogue", t0, t1);
        let violations = validate(&p, &profile, &run);
        assert!(
            violations.contains(&Violation::EntityConflict {
                entity: worker_entity(0)
            }),
            "{violations:?}"
        );
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, Violation::ChannelConflict { .. })),
            "{violations:?}"
        );
    }

    /// An execution of a two-worker plan whose trace is replaced by `trace`.
    fn with_trace(trace: Trace) -> (Profile, Execution) {
        let profile = Profile::new(vec![1.0, 0.5]).unwrap();
        let plan = fifo_plan(&params(), &profile, 100.0).unwrap();
        let mut run = execute(&params(), &profile, &plan);
        run.trace = trace;
        (profile, run)
    }

    /// The entities validation reports as overlapping.
    fn conflicting_entities(profile: &Profile, run: &Execution) -> Vec<usize> {
        validate(&params(), profile, run)
            .iter()
            .filter_map(|v| match v {
                Violation::ChannelConflict { .. } => Some(channel_entity(profile.n())),
                Violation::EntityConflict { entity } => Some(*entity),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn entity_conflicts_detected() {
        let t = SimTime::new;
        let mut tr = Trace::new();
        tr.record(2, "x", t(0.0), t(2.0));
        tr.record(1, "y", t(1.0), t(3.0)); // different entity: fine
        let (profile, run) = with_trace(tr.clone());
        assert_eq!(conflicting_entities(&profile, &run), Vec::<usize>::new());
        tr.record(2, "z", t(1.5), t(1.8));
        let (profile, run) = with_trace(tr);
        assert_eq!(conflicting_entities(&profile, &run), vec![2]);
    }

    /// The quadratic scan the sweep replaced: every pair of spans of one
    /// entity, in recording order.
    fn pairwise_conflicts(trace: &Trace) -> Vec<usize> {
        let spans = trace.spans();
        let mut out: Vec<usize> = spans
            .iter()
            .enumerate()
            .filter(|&(i, a)| {
                spans
                    .iter()
                    .skip(i + 1)
                    .any(|b| a.entity == b.entity && a.overlaps(b))
            })
            .map(|(_, a)| a.entity)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    #[test]
    fn sweep_finds_the_entities_the_pairwise_scan_finds() {
        // Spans on a coarse integer grid, a third of them zero-width:
        // touching endpoints, markers inside and at the edges of other
        // spans, and exact duplicates all occur.
        let mut state = 0x5EED_u64;
        let mut next = |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        let mut with_conflicts = 0;
        for _ in 0..2000 {
            let mut tr = Trace::new();
            for _ in 0..1 + next(8) {
                let entity = next(4) as usize; // server, two workers, channel
                let start = next(6) as f64;
                let len = next(3) as f64;
                tr.record(
                    entity,
                    "span",
                    SimTime::new(start),
                    SimTime::new(start + len),
                );
            }
            let want = pairwise_conflicts(&tr);
            with_conflicts += usize::from(!want.is_empty());
            let (profile, run) = with_trace(tr);
            assert_eq!(
                conflicting_entities(&profile, &run),
                want,
                "{:?}",
                run.trace.spans()
            );
            for v in validate(&params(), &profile, &run) {
                if let Violation::ChannelConflict { labels } = v {
                    assert_eq!(labels, ("span".to_string(), "span".to_string()));
                }
            }
        }
        assert!(with_conflicts > 500, "{with_conflicts}");
    }
}
