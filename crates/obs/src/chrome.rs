//! Chrome trace-event JSON export.
//!
//! Turns a simulator [`Trace`] (the paper's Figure 1–2 action/time
//! diagrams) or a set of collector wall spans into the Trace Event Format
//! consumed by `chrome://tracing` and [Perfetto](https://ui.perfetto.dev):
//! one complete-duration (`"ph":"X"`) event per span, entities mapped to
//! thread lanes, with `thread_name` metadata so lanes carry the paper's
//! row labels (`server`, `C1`, …, `net`). Timestamps are microseconds; a
//! simulated time unit is exported as one millisecond (1000 µs) so the
//! dimensionless `SimTime` axis stays readable in the viewer.
//!
//! Output is deterministic — fixed key order, recording-order events,
//! shortest-roundtrip float text — which is what the golden-file test
//! pins.

use hetero_sim::Trace;

use crate::collector::WallSpan;
use crate::json::Value;

/// Microseconds per simulated time unit in the exported trace (shared
/// with the folded-stack exporter so both render the same scale).
pub const SIM_UNIT_US: f64 = 1000.0;

fn event(name: &str, cat: &str, ts_us: f64, dur_us: f64, tid: usize) -> Value {
    Value::Obj(vec![
        ("name".into(), Value::Str(name.into())),
        ("cat".into(), Value::Str(cat.into())),
        ("ph".into(), Value::Str("X".into())),
        ("ts".into(), Value::Num(ts_us)),
        ("dur".into(), Value::Num(dur_us)),
        ("pid".into(), Value::Num(0.0)),
        ("tid".into(), Value::Num(tid as f64)),
    ])
}

fn thread_name(tid: usize, label: &str) -> Value {
    Value::Obj(vec![
        ("name".into(), Value::Str("thread_name".into())),
        ("ph".into(), Value::Str("M".into())),
        ("pid".into(), Value::Num(0.0)),
        ("tid".into(), Value::Num(tid as f64)),
        (
            "args".into(),
            Value::Obj(vec![("name".into(), Value::Str(label.into()))]),
        ),
    ])
}

fn document(events: Vec<Value>) -> String {
    Value::Obj(vec![
        ("displayTimeUnit".into(), Value::Str("ms".into())),
        ("traceEvents".into(), Value::Arr(events)),
    ])
    .render()
}

/// Exports a simulator trace as Chrome trace-event JSON. `entity_names`
/// labels the lanes by entity index (missing entries fall back to `E<i>`);
/// only entities that actually recorded spans get a lane.
pub fn sim_trace_to_chrome(trace: &Trace, entity_names: &[String]) -> String {
    let mut entities: Vec<usize> = trace.spans().iter().map(|s| s.entity).collect();
    entities.sort_unstable();
    entities.dedup();
    let mut events = Vec::new();
    for &e in &entities {
        let fallback = format!("E{e}");
        let label = entity_names.get(e).map(String::as_str).unwrap_or(&fallback);
        events.push(thread_name(e, label));
    }
    for span in trace.spans() {
        events.push(event(
            &span.label.to_string(),
            "sim",
            span.start.get() * SIM_UNIT_US,
            span.duration() * SIM_UNIT_US,
            span.entity,
        ));
    }
    document(events)
}

/// Exports collector wall spans (already in µs) as Chrome trace-event
/// JSON on a single lane — the per-command timeline of a CLI run.
pub fn wall_spans_to_chrome(spans: &[WallSpan]) -> String {
    let mut events = vec![thread_name(0, "hetero-cli")];
    for span in spans {
        events.push(event(&span.name, "wall", span.start_us, span.dur_us, 0));
    }
    document(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use hetero_sim::SimTime;

    fn t(v: f64) -> SimTime {
        SimTime::new(v)
    }

    #[test]
    fn exports_lanes_and_complete_events() {
        let mut tr = Trace::new();
        tr.record(0, "pack→C1", t(0.0), t(0.5));
        tr.record(1, "compute", t(1.0), t(3.0));
        let text = sim_trace_to_chrome(&tr, &["server".into(), "C1".into()]);
        let doc = json::parse(&text).unwrap();
        let events = match doc.get("traceEvents") {
            Some(json::Value::Arr(evs)) => evs.clone(),
            other => panic!("traceEvents missing: {other:?}"),
        };
        // Two thread_name metadata events plus two spans.
        assert_eq!(events.len(), 4);
        let meta: Vec<&json::Value> = events
            .iter()
            .filter(|e| e.get("ph").and_then(json::Value::as_str) == Some("M"))
            .collect();
        assert_eq!(meta.len(), 2);
        assert_eq!(
            meta[0]
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(json::Value::as_str),
            Some("server")
        );
        let xs: Vec<&json::Value> = events
            .iter()
            .filter(|e| e.get("ph").and_then(json::Value::as_str) == Some("X"))
            .collect();
        assert_eq!(xs.len(), 2);
        assert_eq!(xs[0].get("ts").and_then(json::Value::as_f64), Some(0.0));
        assert_eq!(xs[0].get("dur").and_then(json::Value::as_f64), Some(500.0));
        assert_eq!(xs[1].get("tid").and_then(json::Value::as_f64), Some(1.0));
    }

    #[test]
    fn unnamed_entities_get_fallback_lanes() {
        let mut tr = Trace::new();
        tr.record(7, "work", t(0.0), t(1.0));
        let text = sim_trace_to_chrome(&tr, &[]);
        assert!(text.contains("\"E7\""));
    }

    #[test]
    fn wall_spans_export_on_one_lane() {
        let spans = vec![WallSpan {
            name: "cli.fig3".into(),
            start_us: 5.0,
            dur_us: 100.0,
        }];
        let doc = json::parse(&wall_spans_to_chrome(&spans)).unwrap();
        let events = match doc.get("traceEvents") {
            Some(json::Value::Arr(evs)) => evs.clone(),
            _ => panic!("no events"),
        };
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1].get("name").and_then(json::Value::as_str),
            Some("cli.fig3")
        );
    }
}
