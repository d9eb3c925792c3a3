//! End-to-end tests of the `obsdiff` subcommand against the real binary:
//! a self-diff must pass clean (exit 0), an injected 10% slowdown must
//! be detected (exit 1), and usage errors must exit 2 — the contract the
//! CI perf gate scripts rely on.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_hetero-cli")
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("hetero-obsdiff-{}-{name}", std::process::id()));
    p
}

fn run(args: &[&str]) -> Output {
    Command::new(bin()).args(args).output().expect("spawn CLI")
}

/// A small obs JSONL stream; `scale` multiplies span durations and
/// sketch quantiles, so `scale = 1.1` is a 10% slowdown.
fn stream(scale: f64) -> String {
    let mut s = String::new();
    s.push_str("{\"event\":\"counter\",\"name\":\"sim.events\",\"value\":42}\n");
    s.push_str(&format!(
        "{{\"event\":\"sketch\",\"name\":\"protocol.compute\",\"value\":{{\"count\":100,\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}}}\n",
        1.0 * scale,
        9.0 * scale,
        4.0 * scale,
        8.0 * scale,
        8.8 * scale,
    ));
    s.push_str(&format!(
        "{{\"event\":\"span\",\"name\":\"cmd.protocol\",\"value\":{{\"start_us\":0,\"dur_us\":{}}}}}\n",
        1500.0 * scale,
    ));
    s
}

#[test]
fn self_diff_exits_zero_and_injected_slowdown_exits_one() {
    let a = tmp("base.jsonl");
    let b = tmp("slow.jsonl");
    std::fs::write(&a, stream(1.0)).unwrap();
    std::fs::write(&b, stream(1.1)).unwrap();

    let clean = run(&["obsdiff", a.to_str().unwrap(), a.to_str().unwrap()]);
    assert!(
        clean.status.success(),
        "self-diff must pass clean: {}",
        String::from_utf8_lossy(&clean.stdout)
    );
    let out = String::from_utf8_lossy(&clean.stdout);
    assert!(out.contains("obsdiff"), "report header expected: {out}");

    let slow = run(&["obsdiff", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert_eq!(
        slow.status.code(),
        Some(1),
        "10% slowdown must fail the gate: {}",
        String::from_utf8_lossy(&slow.stdout)
    );
    let out = String::from_utf8_lossy(&slow.stdout);
    assert!(
        !out.contains("0 regressions"),
        "header must count the regressions: {out}"
    );
    assert!(
        out.contains("cmd.protocol/mean_us"),
        "report must name the slowed span: {out}"
    );

    // The same pair passes when the caller raises the noise thresholds
    // above the injected drift.
    let tolerant = run(&[
        "obsdiff",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        "--rel",
        "0.25",
    ]);
    assert!(
        tolerant.status.success(),
        "25% thresholds must absorb a 10% drift: {}",
        String::from_utf8_lossy(&tolerant.stdout)
    );

    // ...and when every drifting metric namespace is ignored by prefix
    // (the CI recipe for scheduling-dependent counters).
    let ignored = run(&[
        "obsdiff",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        "--ignore",
        "cmd.",
        "--ignore",
        "protocol.",
    ]);
    assert!(
        ignored.status.success(),
        "--ignore must drop the drifting span and sketch: {}",
        String::from_utf8_lossy(&ignored.stdout)
    );

    let json = run(&[
        "obsdiff",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        "--json",
    ]);
    assert_eq!(json.status.code(), Some(1));
    let doc = String::from_utf8_lossy(&json.stdout);
    assert!(
        doc.trim_start().starts_with('{') && doc.contains("\"regressions\""),
        "--json must emit a machine-readable report: {doc}"
    );

    std::fs::remove_file(&a).ok();
    std::fs::remove_file(&b).ok();
}

#[test]
fn usage_and_io_errors_exit_two() {
    let missing = run(&["obsdiff", "/nonexistent-a", "/nonexistent-b"]);
    assert_eq!(missing.status.code(), Some(2));
    let one_file = run(&["obsdiff", "/nonexistent-a"]);
    assert_eq!(one_file.status.code(), Some(2));
    let bad_flag = run(&["obsdiff", "--bogus"]);
    assert_eq!(bad_flag.status.code(), Some(2));
}

#[test]
fn deeply_nested_input_is_a_typed_error() {
    // A 50,000-deep run file is malformed input (exit 2), not a stack
    // overflow.
    let deep = tmp("deep.json");
    let doc = format!("{}{}", "[".repeat(50_000), "]".repeat(50_000));
    std::fs::write(&deep, doc).unwrap();
    let path = deep.to_str().unwrap();
    let out = run(&["obsdiff", path, path]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains("nesting deeper than 128"), "{err}");
    std::fs::remove_file(&deep).ok();
}
