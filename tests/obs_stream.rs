//! Observability-stream contracts across the workspace:
//!
//! 1. the Chrome trace export of a pinned two-computer FIFO run is
//!    byte-identical to the checked-in golden file (the export is part of
//!    the reproducibility surface — any drift is a deliberate,
//!    golden-updating change);
//! 2. two identical runs produce identical counter snapshots (the
//!    collector never injects nondeterminism);
//! 3. every line of a JSONL stream honours the `{event, name, value}`
//!    contract — including, when `OBS_JSONL` points at a file written by
//!    `hetero-cli --obs-json`, the stream produced by the real binary
//!    (this is the CI validation hook).

use std::sync::Mutex;

use hetero_core::{Params, Profile};
use hetero_experiments::{obs_export, scaling};
use hetero_obs::sink::validate_jsonl_line;
use hetero_sim::Label;

/// Serializes the tests that flip the process-global collector.
static GLOBAL_LOCK: Mutex<()> = Mutex::new(());

/// The pinned run behind the golden file: Table 1 parameters, two remote
/// computers at ρ = ⟨1, ½⟩, FIFO plan sized for lifespan 100.
fn fifo2_chrome() -> String {
    let params = Params::paper_table1();
    let profile = Profile::new(vec![1.0, 0.5]).unwrap();
    let run = obs_export::fig2_execution(&params, &profile, 100.0);
    obs_export::execution_to_chrome(&run, profile.n())
}

/// Regenerates the golden file after an intentional format change:
/// `cargo test --test obs_stream -- --ignored regenerate_golden_trace`
#[test]
#[ignore = "writes tests/golden/fifo2_trace.json; run explicitly after intentional format changes"]
fn regenerate_golden_trace() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/fifo2_trace.json");
    std::fs::write(path, fifo2_chrome()).unwrap();
}

#[test]
fn chrome_trace_matches_golden_file_byte_for_byte() {
    let doc = fifo2_chrome();
    let golden = include_str!("golden/fifo2_trace.json");
    assert_eq!(
        doc, golden,
        "Chrome trace drifted from tests/golden/fifo2_trace.json; if the \
         change is intentional, regenerate the golden file"
    );
}

#[test]
fn chrome_trace_is_valid_json_with_expected_rows() {
    let doc = fifo2_chrome();
    let v = hetero_obs::json::parse(&doc).expect("golden trace parses as JSON");
    assert_eq!(
        v.get("displayTimeUnit").and_then(|u| u.as_str()),
        Some("ms")
    );
    for row in ["\"C0\"", "\"C1\"", "\"C2\"", "\"net\""] {
        assert!(doc.contains(row), "missing gantt row {row}");
    }
}

#[test]
fn identical_runs_produce_identical_counter_snapshots() {
    let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let params = Params::paper_table1();
    let sizes = [8usize, 16, 32];

    hetero_obs::reset();
    hetero_obs::enable();
    let _ = scaling::run(&params, &sizes);
    let first = hetero_obs::snapshot();

    hetero_obs::reset();
    let _ = scaling::run(&params, &sizes);
    let second = hetero_obs::snapshot();
    hetero_obs::disable();
    hetero_obs::reset();

    assert_eq!(
        first.counter_fingerprint(),
        second.counter_fingerprint(),
        "same-seed runs must produce identical counters and gauges"
    );
    assert!(
        first.counter("xengine.rebuild") > 0,
        "scaling must exercise the xengine"
    );
}

#[test]
fn every_jsonl_line_honours_the_event_name_value_contract() {
    let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    hetero_obs::reset();
    hetero_obs::enable();
    let _ = scaling::run(&Params::paper_table1(), &[8, 16]);
    hetero_obs::count("demo.counter", 3);
    hetero_obs::observe("demo.value", 1.5);
    hetero_obs::observe_hist("demo.hist", 0.5, 0.0, 1.0, 4);
    let snapshot = hetero_obs::snapshot();
    hetero_obs::disable();
    hetero_obs::reset();

    let stream = snapshot.to_jsonl();
    assert!(!stream.is_empty());
    for line in stream.lines() {
        validate_jsonl_line(line).unwrap_or_else(|e| panic!("bad line {line:?}: {e}"));
    }
}

/// PR 8 acceptance: the causal chain ending at the pinned FIFO run's
/// last result transmission reproduces the analytic lifespan bound. The
/// plan is sized for L = 100, so Theorem 1 makes the chain to the last
/// arrival temporally contiguous from t = 0 — its weight *is* L and its
/// end *is* the last arrival, bit for bit.
#[test]
fn critical_path_of_the_pinned_fifo2_run_reproduces_the_lifespan_bound() {
    let params = Params::paper_table1();
    let profile = Profile::new(vec![1.0, 0.5]).unwrap();
    let run = obs_export::fig2_execution(&params, &profile, 100.0);
    let path = hetero_obs::causal::critical_path_where(&run.trace, |i| {
        matches!(run.trace.spans()[i].label, Label::XmitResult { .. })
    })
    .expect("the run transmits results");
    let last_arrival = run.last_arrival().expect("results arrived").get();
    assert_eq!(
        path.end.to_bits(),
        last_arrival.to_bits(),
        "the heaviest result chain must end at the last arrival"
    );
    assert!(
        (path.weight - 100.0).abs() <= 1e-9 * 100.0,
        "contiguous chain weight {} must equal the lifespan bound 100",
        path.weight
    );
    assert!(
        path.slack.abs() <= 1e-9 * 100.0,
        "Theorem 1 chain must be gap-free, got slack {}",
        path.slack
    );
    assert_eq!(path.start, 0.0, "the chain is anchored at t = 0");
    // The folded rendering of the same trace carries every frame the
    // chain names, so flamegraph width agrees with the extractor.
    let names: Vec<String> = vec!["C0".into(), "C1".into(), "C2".into(), "net".into()];
    let folded = hetero_obs::folded::trace_to_folded(&run.trace, &names);
    for label in path.span_ids.iter().map(|&i| &run.trace.spans()[i].label) {
        assert!(
            folded.contains(&label.to_string()),
            "folded output lost {label}"
        );
    }
}

/// Causal parents never change the spans themselves: the parent-id
/// vector rides alongside, so the golden Chrome trace (which renders
/// spans only) is untouched by PR 8's causality threading — and every
/// span's parent is recorded before it.
#[test]
fn causal_parents_are_well_formed_on_the_pinned_run() {
    let params = Params::paper_table1();
    let profile = Profile::new(vec![1.0, 0.5]).unwrap();
    let run = obs_export::fig2_execution(&params, &profile, 100.0);
    let n = run.trace.spans().len();
    assert_eq!(run.trace.parents().len(), n);
    let mut roots = 0;
    for i in 0..n {
        match run.trace.parent(i) {
            None => roots += 1,
            Some(p) => assert!(p < i, "parent {p} of span {i} must be recorded first"),
        }
    }
    assert_eq!(roots, 1, "one FIFO run grows from a single causal root");
}

/// An instrumented protocol execution now also feeds the mergeable
/// quantile sketches; their lines validate under the stream contract.
#[test]
fn sketch_events_join_the_instrumented_stream() {
    let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    hetero_obs::reset();
    hetero_obs::enable();
    let params = Params::paper_table1();
    let profile = Profile::new(vec![1.0, 0.5]).unwrap();
    let _ = obs_export::fig2_execution(&params, &profile, 100.0);
    let snapshot = hetero_obs::snapshot();
    hetero_obs::disable();
    hetero_obs::reset();

    let stream = snapshot.to_jsonl();
    let sketch_lines: Vec<&str> = stream
        .lines()
        .filter(|l| l.contains("\"sketch\""))
        .collect();
    assert!(
        !sketch_lines.is_empty(),
        "protocol phases must feed the sketches"
    );
    for line in stream.lines() {
        validate_jsonl_line(line).unwrap_or_else(|e| panic!("bad line {line:?}: {e}"));
    }
    assert!(
        !snapshot.sketches.is_empty(),
        "snapshot must expose the sketches for the manifest"
    );
}

/// CI hook: when `OBS_JSONL` names a file (written by
/// `hetero-cli all --obs-json`), every line of it must parse and carry
/// the `{event, name, value}` keys. Without the variable the test is a
/// no-op, so local `cargo test` stays hermetic.
#[test]
fn external_obs_stream_validates_when_provided() {
    let Ok(path) = std::env::var("OBS_JSONL") else {
        return;
    };
    let body = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("OBS_JSONL={path} is not readable: {e}"));
    let mut lines = 0usize;
    for line in body.lines() {
        validate_jsonl_line(line).unwrap_or_else(|e| panic!("bad line {line:?}: {e}"));
        lines += 1;
    }
    assert!(lines > 0, "OBS_JSONL={path} is empty");
    // A full CLI run must close with the manifest record.
    let last = body.lines().last().unwrap();
    let v = hetero_obs::json::parse(last).unwrap();
    assert_eq!(
        v.get("event").and_then(|e| e.as_str()),
        Some("manifest"),
        "stream must end with the run manifest"
    );
}
