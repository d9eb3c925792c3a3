//! Chrome trace-export edge cases, byte-pinned against golden files.
//!
//! The exporter is part of the reproducibility surface: the same trace
//! must render the same bytes on every run, including the awkward
//! shapes real executions produce —
//!
//! * **zero-duration spans** (instantaneous markers such as `skip→C*`
//!   sends): must still emit a `"ph":"X"` event with `dur` 0, not be
//!   dropped;
//! * **out-of-order completion** (recording order ≠ timestamp order, as
//!   when a fast worker finishes before an earlier-started slow one):
//!   events stay in recording order — the viewer sorts by `ts`, the
//!   bytes must not depend on completion timing;
//! * **more than 64 entity lanes**: lane ids are plain `tid` integers,
//!   so nothing breaks past the bit-width of any mask (PR 7 lifted the
//!   n = 63 selection cap; traces follow).
//!
//! Any drift is a deliberate, golden-updating change:
//! `cargo test --test chrome_edge -- --ignored regenerate_chrome_edge_goldens`

use hetero_obs::chrome::sim_trace_to_chrome;
use hetero_obs::json;
use hetero_sim::{SimTime, Trace};

fn t(v: f64) -> SimTime {
    SimTime::new(v)
}

/// A server lane with an instantaneous marker between two real spans.
fn zero_duration_trace() -> String {
    let mut tr = Trace::new();
    tr.record(0, "pack→C1", t(0.0), t(0.5));
    tr.record(0, "skip→C2", t(0.5), t(0.5));
    tr.record(0, "pack→C3", t(0.5), t(1.25));
    sim_trace_to_chrome(&tr, &["C0".into()])
}

/// Recording order deliberately disagrees with timestamp order: the
/// later-starting span completes (and is recorded) first.
fn out_of_order_trace() -> String {
    let mut tr = Trace::new();
    tr.record(2, "compute", t(4.0), t(5.0));
    tr.record(1, "compute", t(0.0), t(8.0));
    tr.record(0, "recv←C2", t(5.0), t(5.5));
    tr.record(0, "recv←C1", t(8.0), t(8.5));
    sim_trace_to_chrome(&tr, &["C0".into(), "C1".into(), "C2".into()])
}

/// Seventy entity lanes — past the 64-bit mask width that bounded the
/// old subset walk. Entities 0–67 are named; 68–69 take `E<i>`
/// fallbacks.
fn many_lanes_trace() -> String {
    let mut tr = Trace::new();
    for e in 0..70usize {
        let start = e as f64 * 0.25;
        let label: &'static str = format!("compute#{e}").leak();
        tr.record(e, label, t(start), t(start + 1.0));
    }
    let names: Vec<String> = (0..68).map(|i| format!("C{i}")).collect();
    sim_trace_to_chrome(&tr, &names)
}

/// Regenerates the three golden files after an intentional format
/// change.
#[test]
#[ignore = "writes tests/golden/chrome_*.json; run explicitly after intentional format changes"]
fn regenerate_chrome_edge_goldens() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/golden");
    std::fs::write(
        format!("{dir}/chrome_zero_duration.json"),
        zero_duration_trace(),
    )
    .unwrap();
    std::fs::write(
        format!("{dir}/chrome_out_of_order.json"),
        out_of_order_trace(),
    )
    .unwrap();
    std::fs::write(format!("{dir}/chrome_many_lanes.json"), many_lanes_trace()).unwrap();
}

#[test]
fn zero_duration_spans_survive_export_byte_for_byte() {
    let doc = zero_duration_trace();
    assert_eq!(doc, include_str!("golden/chrome_zero_duration.json"));
    let v = json::parse(&doc).unwrap();
    let Some(json::Value::Arr(events)) = v.get("traceEvents").cloned() else {
        panic!("traceEvents must be an array");
    };
    let marker = events
        .iter()
        .find(|e| e.get("name").and_then(json::Value::as_str) == Some("skip→C2"))
        .expect("instantaneous marker must not be dropped");
    assert_eq!(marker.get("dur").and_then(json::Value::as_f64), Some(0.0));
    assert_eq!(marker.get("ph").and_then(json::Value::as_str), Some("X"));
}

#[test]
fn out_of_order_completion_keeps_recording_order_byte_for_byte() {
    let doc = out_of_order_trace();
    assert_eq!(doc, include_str!("golden/chrome_out_of_order.json"));
    let v = json::parse(&doc).unwrap();
    let Some(json::Value::Arr(events)) = v.get("traceEvents").cloned() else {
        panic!("traceEvents must be an array");
    };
    let ts: Vec<f64> = events
        .iter()
        .filter(|e| e.get("ph").and_then(json::Value::as_str) == Some("X"))
        .filter_map(|e| e.get("ts").and_then(json::Value::as_f64))
        .collect();
    // Recording order, not timestamp order: 4.0, 0.0, 5.0, 8.0 sim
    // units, exported at 1000 µs per unit.
    assert_eq!(ts, vec![4000.0, 0.0, 5000.0, 8000.0]);
}

#[test]
fn more_than_64_lanes_export_byte_for_byte() {
    let doc = many_lanes_trace();
    assert_eq!(doc, include_str!("golden/chrome_many_lanes.json"));
    let v = json::parse(&doc).unwrap();
    let Some(json::Value::Arr(events)) = v.get("traceEvents").cloned() else {
        panic!("traceEvents must be an array");
    };
    let lanes = events
        .iter()
        .filter(|e| e.get("ph").and_then(json::Value::as_str) == Some("M"))
        .count();
    assert_eq!(lanes, 70, "every entity past the 64-bit width gets a lane");
    assert!(doc.contains("\"C67\""), "explicit names still apply");
    assert!(doc.contains("\"E69\""), "fallback names fill the gaps");
    let max_tid = events
        .iter()
        .filter_map(|e| e.get("tid").and_then(json::Value::as_f64))
        .fold(0.0f64, f64::max);
    assert_eq!(max_tid, 69.0);
}
