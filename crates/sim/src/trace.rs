//! Span recording for action/time diagrams.
//!
//! The paper presents protocols as action/time diagrams (its Figures 1–2):
//! one row per entity, one labelled box per activity. [`Trace`] records
//! those boxes during a simulation; `hetero-experiments` renders them as an
//! ASCII Gantt chart.
//!
//! Spans optionally carry a *causal parent*: the span whose completion
//! enabled this one (the message that triggered a computation, the pack
//! that fed a transmission). Parent links live in a parallel vector —
//! [`Span`] itself stays the plain interval record the Gantt renderers
//! and byte-pinned Chrome goldens compare — and turn a trace into a
//! causality forest that `hetero-obs` walks for critical-path
//! extraction.
//!
//! A span's [`Label`] is a `Copy` kind plus the worker indices it names,
//! so recording a span allocates nothing; its `Display` writes the text
//! the exporters print (`pack→C2`, `xmit:result:C3†lost`, `compute`).
//!
//! A trace does not police overlaps: `hetero-protocol`'s `validate`
//! checks that each entity does one thing at a time by sorting the spans
//! by (entity, start, end) and sweeping them once, O(S log S).

use std::error::Error;
use std::fmt;

use crate::SimTime;

/// One phase of a worker's `Bρw` block on a package (the paper's §2.2),
/// in the order the worker runs them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// `unpack`: the worker unpackages its work (`πρw`).
    Unpack,
    /// `xpack→C<to+1>`: it re-packages a traded residual for the worker
    /// with profile index `to`.
    Xpack(usize),
    /// `compute`: `ρw`.
    Compute,
    /// `pack`: it packages its results (`πρδw`).
    Pack,
}

/// What a span records. Worker fields are profile indices; the text
/// names worker `w` as `C<w+1>`, the paper's numbering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Label {
    /// `pack→C<w+1>`: the server packages the work of worker `w`.
    PackFor(usize),
    /// `skip→C<w+1>`: zero-width marker of a send the server skipped.
    SkipFor(usize),
    /// `recv←C<w+1>`, suffixed `·xchg` for the results of a traded
    /// residual: the server unpackages a worker's results.
    RecvFrom {
        /// The worker whose results arrived.
        worker: usize,
        /// The package was a traded residual.
        xchg: bool,
    },
    /// `xmit:work:C<w+1>`: work in transit to worker `w`.
    XmitWork(usize),
    /// `xmit:xchg:C<from+1>→C<to+1>`: a traded residual in transit from
    /// one worker to another.
    XmitXchg {
        /// The straggler that traded the work away.
        from: usize,
        /// The donor that receives it.
        to: usize,
    },
    /// `xmit:result:C<w+1>`, suffixed `†lost` when the message vanishes.
    XmitResult {
        /// The worker whose results transit.
        worker: usize,
        /// The message is lost in transit.
        lost: bool,
    },
    /// A worker phase, suffixed `†crash` when the worker's crash cut it
    /// short.
    Worker {
        /// Which phase.
        phase: Phase,
        /// The crash ended the phase early.
        crash: bool,
    },
    /// `wait:channel`: a worker's results wait for the channel.
    WaitChannel,
    /// `†crash`: zero-width marker of a worker's crash.
    Crash,
    /// Free text, for hand-built traces.
    Text(&'static str),
}

impl Label {
    /// A worker phase that ran to its end.
    pub const fn phase(phase: Phase) -> Self {
        Label::Worker {
            phase,
            crash: false,
        }
    }

    fn write_text(self, out: &mut impl fmt::Write) -> fmt::Result {
        match self {
            Label::PackFor(w) => write!(out, "pack→C{}", w + 1),
            Label::SkipFor(w) => write!(out, "skip→C{}", w + 1),
            Label::RecvFrom { worker, xchg } => {
                let flag = if xchg { "·xchg" } else { "" };
                write!(out, "recv←C{}{flag}", worker + 1)
            }
            Label::XmitWork(w) => write!(out, "xmit:work:C{}", w + 1),
            Label::XmitXchg { from, to } => write!(out, "xmit:xchg:C{}→C{}", from + 1, to + 1),
            Label::XmitResult { worker, lost } => {
                let flag = if lost { "†lost" } else { "" };
                write!(out, "xmit:result:C{}{flag}", worker + 1)
            }
            Label::Worker { phase, crash } => {
                match phase {
                    Phase::Unpack => out.write_str("unpack")?,
                    Phase::Xpack(to) => write!(out, "xpack→C{}", to + 1)?,
                    Phase::Compute => out.write_str("compute")?,
                    Phase::Pack => out.write_str("pack")?,
                }
                out.write_str(if crash { "†crash" } else { "" })
            }
            Label::WaitChannel => out.write_str("wait:channel"),
            Label::Crash => out.write_str("†crash"),
            Label::Text(text) => out.write_str(text),
        }
    }
}

impl From<&'static str> for Label {
    fn from(text: &'static str) -> Self {
        Label::Text(text)
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if f.width().is_none() && f.precision().is_none() {
            return self.write_text(f);
        }
        // Padding and truncation apply to the whole text, as for a str.
        let mut text = String::new();
        self.write_text(&mut text)?;
        f.pad(&text)
    }
}

/// One recorded activity interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Row identifier (e.g. computer index; 0 is the server).
    pub entity: usize,
    /// What the entity did.
    pub label: Label,
    /// Start of the activity.
    pub start: SimTime,
    /// End of the activity.
    pub end: SimTime,
}

impl Span {
    /// Duration of the span.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }

    /// `true` iff this span overlaps `other` on the open interval.
    pub fn overlaps(&self, other: &Span) -> bool {
        self.start < other.end && other.start < self.end
    }
}

/// Rejected span: its end precedes its start.
#[derive(Debug, Clone, PartialEq)]
pub struct BackwardsSpan {
    /// The entity the span was recorded for.
    pub entity: usize,
    /// The offending start time.
    pub start: SimTime,
    /// The offending (earlier) end time.
    pub end: SimTime,
}

impl fmt::Display for BackwardsSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "span ends before it starts: entity {} from {:?} to {:?}",
            self.entity, self.start, self.end
        )
    }
}

impl Error for BackwardsSpan {}

/// An append-only recording of activity spans.
///
/// Each span is identified by its recording index; `parents[i]` is the
/// id of the span whose completion causally enabled span `i`, or `None`
/// for a causal root (the spontaneous first action of an entity). The
/// two vectors always have equal length.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    spans: Vec<Span>,
    parents: Vec<Option<usize>>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one activity, rejecting spans that end before they start.
    pub fn try_record(
        &mut self,
        entity: usize,
        label: impl Into<Label>,
        start: SimTime,
        end: SimTime,
    ) -> Result<(), BackwardsSpan> {
        self.try_record_caused(entity, label, start, end, None)
            .map(|_| ())
    }

    /// Records one activity with an explicit causal parent, returning
    /// the new span's id (its recording index). `parent` must refer to
    /// an already-recorded span, which makes parent ids strictly smaller
    /// than child ids — the invariant the critical-path walk relies on.
    pub fn try_record_caused(
        &mut self,
        entity: usize,
        label: impl Into<Label>,
        start: SimTime,
        end: SimTime,
        parent: Option<usize>,
    ) -> Result<usize, BackwardsSpan> {
        if end < start {
            return Err(BackwardsSpan { entity, start, end });
        }
        if let Some(p) = parent {
            assert!(
                p < self.spans.len(),
                "causal parent {p} not yet recorded (trace has {} spans)",
                self.spans.len()
            );
        }
        let id = self.spans.len();
        self.spans.push(Span {
            entity,
            label: label.into(),
            start,
            end,
        });
        self.parents.push(parent);
        Ok(id)
    }

    /// Records one activity with a causal parent, returning its id.
    /// Convenience wrapper over [`try_record_caused`] with the same
    /// documented-panic contract as [`record`].
    ///
    /// # Panics
    /// Panics when `end < start` or when `parent` names a span that has
    /// not been recorded yet — both are protocol-logic bugs.
    ///
    /// [`try_record_caused`]: Trace::try_record_caused
    /// [`record`]: Trace::record
    pub fn record_caused(
        &mut self,
        entity: usize,
        label: impl Into<Label>,
        start: SimTime,
        end: SimTime,
        parent: Option<usize>,
    ) -> usize {
        self.try_record_caused(entity, label, start, end, parent)
            // hetero-check: allow(expect) — documented-panic wrapper; the fallible form is try_record_caused
            .expect("span ends before it starts")
    }

    /// Records one activity. Convenience wrapper over [`try_record`] for
    /// event handlers whose span endpoints come straight off the causal
    /// event clock; callers with untrusted endpoints should use
    /// [`try_record`] and handle the error.
    ///
    /// # Panics
    /// Panics when `end < start` — a backwards span is a protocol-logic
    /// bug, not a recoverable condition, at these call sites.
    ///
    /// [`try_record`]: Trace::try_record
    pub fn record(&mut self, entity: usize, label: impl Into<Label>, start: SimTime, end: SimTime) {
        self.try_record(entity, label, start, end)
            // hetero-check: allow(expect) — documented-panic wrapper; the fallible form is try_record
            .expect("span ends before it starts");
    }

    /// All recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The causal parent of span `id`, if any. Returns `None` both for
    /// causal roots and for out-of-range ids.
    pub fn parent(&self, id: usize) -> Option<usize> {
        self.parents.get(id).copied().flatten()
    }

    /// Causal parent links, parallel to [`spans`](Trace::spans):
    /// `parents()[i]` is the id of the span that enabled span `i`.
    pub fn parents(&self) -> &[Option<usize>] {
        &self.parents
    }

    /// Spans belonging to one entity, in recording order.
    pub fn entity_spans(&self, entity: usize) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.entity == entity)
    }

    /// The latest end time over all spans (zero when empty).
    pub fn makespan(&self) -> SimTime {
        self.spans
            .iter()
            .map(|s| s.end)
            .max()
            .unwrap_or(SimTime::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: f64) -> SimTime {
        SimTime::new(v)
    }

    #[test]
    fn record_and_query() {
        let mut tr = Trace::new();
        tr.record(0, "send", t(0.0), t(1.0));
        tr.record(1, "compute", t(1.0), t(4.0));
        tr.record(0, "send", t(1.0), t(2.0));
        assert_eq!(tr.spans().len(), 3);
        assert_eq!(tr.entity_spans(0).count(), 2);
        assert_eq!(tr.makespan(), t(4.0));
    }

    #[test]
    fn overlap_semantics_are_open_interval() {
        let a = Span {
            entity: 0,
            label: "a".into(),
            start: t(0.0),
            end: t(1.0),
        };
        let b = Span {
            entity: 0,
            label: "b".into(),
            start: t(1.0),
            end: t(2.0),
        };
        let c = Span {
            entity: 0,
            label: "c".into(),
            start: t(0.5),
            end: t(1.5),
        };
        assert!(!a.overlaps(&b)); // touching endpoints do not overlap
        assert!(a.overlaps(&c));
        assert!(c.overlaps(&b));
    }

    #[test]
    fn labels_print_the_engine_text() {
        let cases = [
            (Label::PackFor(1), "pack→C2"),
            (Label::SkipFor(2), "skip→C3"),
            (
                Label::RecvFrom {
                    worker: 0,
                    xchg: false,
                },
                "recv←C1",
            ),
            (
                Label::RecvFrom {
                    worker: 3,
                    xchg: true,
                },
                "recv←C4·xchg",
            ),
            (Label::XmitWork(9), "xmit:work:C10"),
            (Label::XmitXchg { from: 4, to: 0 }, "xmit:xchg:C5→C1"),
            (
                Label::XmitResult {
                    worker: 1,
                    lost: false,
                },
                "xmit:result:C2",
            ),
            (
                Label::XmitResult {
                    worker: 1,
                    lost: true,
                },
                "xmit:result:C2†lost",
            ),
            (Label::phase(Phase::Unpack), "unpack"),
            (Label::phase(Phase::Xpack(6)), "xpack→C7"),
            (Label::phase(Phase::Compute), "compute"),
            (Label::phase(Phase::Pack), "pack"),
            (
                Label::Worker {
                    phase: Phase::Unpack,
                    crash: true,
                },
                "unpack†crash",
            ),
            (
                Label::Worker {
                    phase: Phase::Xpack(2),
                    crash: true,
                },
                "xpack→C3†crash",
            ),
            (
                Label::Worker {
                    phase: Phase::Compute,
                    crash: true,
                },
                "compute†crash",
            ),
            (
                Label::Worker {
                    phase: Phase::Pack,
                    crash: true,
                },
                "pack†crash",
            ),
            (Label::WaitChannel, "wait:channel"),
            (Label::Crash, "†crash"),
            (Label::from("idle"), "idle"),
        ];
        for (label, text) in cases {
            assert_eq!(label.to_string(), text);
        }
        // Width and alignment pad the whole text, as they would a str.
        assert_eq!(format!("[{:<8}]", Label::PackFor(0)), "[pack→C1 ]");
        assert_eq!(format!("[{:>7}]", Label::WaitChannel), "[wait:channel]");
    }

    #[test]
    fn empty_trace_makespan_is_zero() {
        assert_eq!(Trace::new().makespan(), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "ends before")]
    fn backwards_span_panics() {
        let mut tr = Trace::new();
        tr.record(0, "bad", t(2.0), t(1.0));
    }

    #[test]
    fn causal_parents_are_tracked_in_parallel() {
        let mut tr = Trace::new();
        let root = tr.record_caused(0, "pack", t(0.0), t(1.0), None);
        let xmit = tr.record_caused(2, "xmit", t(1.0), t(2.0), Some(root));
        tr.record(1, "idle", t(0.0), t(2.0)); // plain record: no parent
        let comp = tr.record_caused(1, "compute", t(2.0), t(5.0), Some(xmit));
        assert_eq!(tr.parent(root), None);
        assert_eq!(tr.parent(xmit), Some(root));
        assert_eq!(tr.parent(2), None);
        assert_eq!(tr.parent(comp), Some(xmit));
        assert_eq!(tr.parent(99), None, "out of range is None");
        assert_eq!(tr.parents().len(), tr.spans().len());
    }

    #[test]
    #[should_panic(expected = "causal parent")]
    fn forward_parent_reference_panics() {
        let mut tr = Trace::new();
        tr.record_caused(0, "a", t(0.0), t(1.0), Some(0));
    }

    #[test]
    fn rejected_span_leaves_parents_aligned() {
        let mut tr = Trace::new();
        tr.record(0, "ok", t(0.0), t(1.0));
        assert!(tr
            .try_record_caused(0, "bad", t(2.0), t(1.0), Some(0))
            .is_err());
        assert_eq!(tr.spans().len(), 1);
        assert_eq!(tr.parents().len(), 1);
    }

    #[test]
    fn try_record_returns_the_offending_endpoints() {
        let mut tr = Trace::new();
        assert!(tr.try_record(1, "ok", t(1.0), t(1.0)).is_ok());
        let err = tr.try_record(3, "bad", t(2.0), t(1.0)).unwrap_err();
        assert_eq!(
            err,
            BackwardsSpan {
                entity: 3,
                start: t(2.0),
                end: t(1.0)
            }
        );
        assert!(err.to_string().contains("ends before"));
        assert_eq!(tr.spans().len(), 1, "rejected span not recorded");
    }
}
