//! End-to-end fixture tests for the `hetero-check` binary.
//!
//! Each fixture under `tests/fixtures/<case>/` is a miniature workspace;
//! the tests run the real binary with `--root <case> --json` and assert
//! on the machine-readable report and the process exit code. The real
//! workspace walk skips directories named `fixtures`, so these trees
//! never pollute a normal run.

use hetero_obs::json::{parse, Value};
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(case: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(case)
}

struct Report {
    code: i32,
    stdout: String,
    stderr: String,
    root: Value,
}

fn run_check(case: &str, extra: &[&str]) -> Report {
    let out = Command::new(env!("CARGO_BIN_EXE_hetero-check"))
        .arg("--json")
        .arg("--root")
        .arg(fixture(case))
        .args(extra)
        .output()
        .expect("hetero-check binary runs");
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let stderr = String::from_utf8(out.stderr).expect("stderr is UTF-8");
    let root = parse(&stdout).unwrap_or(Value::Null);
    Report {
        code: out.status.code().expect("process exits normally"),
        stdout,
        stderr,
        root,
    }
}

/// The elements of an array value; empty for anything else.
fn elements(v: Option<&Value>) -> &[Value] {
    match v {
        Some(Value::Arr(items)) => items,
        _ => &[],
    }
}

/// `(lint, file, line, level)` rows from a diagnostics-shaped array.
fn rows(report: &Report, key: &str) -> Vec<(String, String, i64, String)> {
    elements(report.root.get(key))
        .iter()
        .map(|d| {
            (
                d.get("lint")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string(),
                d.get("file")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string(),
                d.get("line").and_then(Value::as_f64).unwrap_or(0.0) as i64,
                d.get("level")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string(),
            )
        })
        .collect()
}

fn summary_num(report: &Report, key: &str) -> i64 {
    report
        .root
        .get("summary")
        .and_then(|s| s.get(key))
        .and_then(Value::as_f64)
        .expect("summary field present") as i64
}

fn has(rows: &[(String, String, i64, String)], lint: &str, file: &str, line: i64) -> bool {
    rows.iter()
        .any(|(l, f, n, _)| l == lint && f == file && *n == line)
}

// --- every lint ID firing, with exact positions -------------------------

#[test]
fn violations_fixture_fires_every_deny_lint() {
    let r = run_check("violations", &[]);
    assert_eq!(r.code, 1, "stdout: {}\nstderr: {}", r.stdout, r.stderr);
    let d = rows(&r, "diagnostics");

    assert!(has(&d, "float-eq", "crates/demo/src/float.rs", 4), "{d:?}");
    assert!(has(&d, "partial-cmp-unwrap", "crates/demo/src/float.rs", 8));
    assert!(has(&d, "unwrap", "crates/demo/src/panics.rs", 4));
    assert!(has(&d, "expect", "crates/demo/src/panics.rs", 5));
    assert!(has(&d, "panic", "crates/demo/src/panics.rs", 7));
    assert!(has(&d, "naked-sum", "crates/core/src/xmeasure.rs", 5));
    assert!(has(&d, "paper-anchor", "crates/core/src/xmeasure.rs", 4));
    assert!(has(
        &d,
        "constructor-discipline",
        "crates/demo/src/ctor.rs",
        5
    ));
    assert!(has(
        &d,
        "allow-missing-reason",
        "crates/demo/src/allow.rs",
        5
    ));
    // The reason-less allow comment does NOT waive the unwrap under it.
    assert!(has(&d, "unwrap", "crates/demo/src/allow.rs", 6));
    assert!(has(&d, "print-in-lib", "crates/demo/src/print.rs", 4));
    assert!(has(&d, "print-in-lib", "crates/demo/src/print.rs", 5));
    // The panicking constructor fires; the fallible API stays silent.
    assert!(has(
        &d,
        "sim-time-unchecked",
        "crates/demo/src/simtime.rs",
        4
    ));
    let simtime = d
        .iter()
        .filter(|(l, _, _, _)| l == "sim-time-unchecked")
        .count();
    assert_eq!(simtime, 1, "{d:?}");
    // Both spawning entry points fire; the parallelism probe stays silent.
    assert!(has(
        &d,
        "thread-spawn-outside-par",
        "crates/demo/src/spawn.rs",
        4
    ));
    assert!(has(
        &d,
        "thread-spawn-outside-par",
        "crates/demo/src/spawn.rs",
        5
    ));
    let spawns = d
        .iter()
        .filter(|(l, _, _, _)| l == "thread-spawn-outside-par")
        .count();
    assert_eq!(spawns, 2, "{d:?}");
    // Missing headers are reported once per header.
    let policy = d
        .iter()
        .filter(|(l, f, _, _)| l == "crate-policy" && f == "crates/demo/src/lib.rs")
        .count();
    assert_eq!(policy, 2, "{d:?}");
    // Indexing rides along as a warning, not a violation.
    assert!(has(&d, "indexing", "crates/demo/src/panics.rs", 9));
    let (_, _, _, level) = d
        .iter()
        .find(|(l, _, _, _)| l == "indexing")
        .expect("indexing reported");
    assert_eq!(level, "warn");

    // The dataflow generation: each deep lint fires at its planted site.
    assert!(has(&d, "float-accum", "crates/demo/src/accum.rs", 7));
    assert!(has(&d, "nondet-iteration", "crates/demo/src/nondet.rs", 8));
    assert!(has(&d, "float-accum", "crates/demo/src/nondet.rs", 9));
    // The chained `hash.values().sum()` form fires both lints on one line.
    assert!(has(&d, "nondet-iteration", "crates/demo/src/nondet.rs", 16));
    assert!(has(&d, "float-accum", "crates/demo/src/nondet.rs", 16));
    assert!(has(&d, "wall-clock-in-lib", "crates/demo/src/clock.rs", 5));
    assert!(has(&d, "atomic-ordering", "crates/demo/src/atomic.rs", 10));
    // Interprocedural: `risky` panics through `helper`'s unwrap; only the
    // undocumented public fn fires, not `documented` or `waived`.
    assert!(has(&d, "unwrap", "crates/core/src/panicky.rs", 4));
    assert!(has(
        &d,
        "panic-propagation",
        "crates/core/src/panicky.rs",
        8
    ));
    let panics = d
        .iter()
        .filter(|(l, _, _, _)| l == "panic-propagation")
        .count();
    assert_eq!(panics, 1, "{d:?}");

    // Metric-name discipline: the rogue name fires once, the registered
    // recorder call on line 5 stays silent.
    assert!(has(
        &d,
        "counter-name-discipline",
        "crates/demo/src/metrics.rs",
        10
    ));
    let names = d
        .iter()
        .filter(|(l, _, _, _)| l == "counter-name-discipline")
        .count();
    assert_eq!(names, 1, "{d:?}");

    // The unbounded retransmit loop fires; the budgeted one below it
    // stays silent.
    assert!(has(&d, "unbounded-retry", "crates/demo/src/retry.rs", 5));
    let retries = d
        .iter()
        .filter(|(l, _, _, _)| l == "unbounded-retry")
        .count();
    assert_eq!(retries, 1, "{d:?}");

    // Approximation outside the certified kernels: all three shapes fire
    // (reciprocal call, Newton step, raw SIMD intrinsic).
    assert!(has(
        &d,
        "approx-math-outside-kernel",
        "crates/demo/src/approx.rs",
        6
    ));
    assert!(has(
        &d,
        "approx-math-outside-kernel",
        "crates/demo/src/approx.rs",
        7
    ));
    assert!(has(
        &d,
        "approx-math-outside-kernel",
        "crates/demo/src/approx.rs",
        8
    ));
    let approx = d
        .iter()
        .filter(|(l, _, _, _)| l == "approx-math-outside-kernel")
        .count();
    assert_eq!(approx, 3, "{d:?}");

    assert_eq!(summary_num(&r, "violations"), 31);
    assert_eq!(summary_num(&r, "warnings"), 1);
    assert_eq!(summary_num(&r, "exit_code"), 1);
}

#[test]
fn waived_panic_propagation_is_suppressed_with_reason() {
    let r = run_check("violations", &[]);
    let suppressed = rows(&r, "suppressed");
    assert!(
        has(
            &suppressed,
            "panic-propagation",
            "crates/core/src/panicky.rs",
            23
        ),
        "{suppressed:?}"
    );
}

#[test]
fn call_graph_summary_counts_may_panic_public_fns() {
    let r = run_check("violations", &[]);
    let core = r
        .root
        .get("call_graph")
        .and_then(|g| g.get("core"))
        .expect("call_graph has a core entry");
    let num = |key: &str| core.get(key).and_then(Value::as_f64).unwrap_or(-1.0) as i64;
    // risky + waived count: an allow waives the diagnostic, not the fact.
    // documented does not: a `# Panics` section settles the contract.
    assert_eq!(num("public_fns"), 4);
    assert_eq!(num("may_panic_strong"), 2);
    assert_eq!(num("may_panic_indexing"), 0);
}

#[test]
fn partial_cmp_chain_is_not_double_reported() {
    let r = run_check("violations", &[]);
    let d = rows(&r, "diagnostics");
    // float.rs line 8 holds the chained unwrap: the specific lint fires,
    // the generic `unwrap` lint must stay silent there.
    assert!(!has(&d, "unwrap", "crates/demo/src/float.rs", 8), "{d:?}");
}

// --- the clean counterparts: nothing fires ------------------------------

#[test]
fn clean_fixture_passes_with_zero_findings() {
    let r = run_check("clean", &[]);
    assert_eq!(r.code, 0, "stdout: {}\nstderr: {}", r.stdout, r.stderr);
    assert_eq!(summary_num(&r, "violations"), 0);
    assert_eq!(summary_num(&r, "warnings"), 0);
    assert!(rows(&r, "diagnostics").is_empty());
    // Every waiver is on record with its reason; look the float-eq one up
    // by position (the clean tree now carries several suppressions).
    let suppressed = rows(&r, "suppressed");
    assert!(has(&suppressed, "float-eq", "crates/demo/src/lib.rs", 20));
    let reason = elements(r.root.get("suppressed"))
        .iter()
        .find(|s| {
            s.get("lint").and_then(Value::as_str) == Some("float-eq")
                && s.get("file").and_then(Value::as_str) == Some("crates/demo/src/lib.rs")
        })
        .and_then(|s| s.get("reason"))
        .and_then(Value::as_str)
        .expect("suppression carries its reason");
    assert_eq!(reason, "zero is an exact sentinel here");
    // The dataflow-lint waivers from hygiene.rs ride along.
    assert!(has(
        &suppressed,
        "float-accum",
        "crates/demo/src/hygiene.rs",
        44
    ));
    assert!(has(
        &suppressed,
        "nondet-iteration",
        "crates/demo/src/hygiene.rs",
        53
    ));
    assert!(has(
        &suppressed,
        "wall-clock-in-lib",
        "crates/demo/src/hygiene.rs",
        63
    ));
    // The by-construction retry loop is on record with its reason.
    assert!(has(
        &suppressed,
        "unbounded-retry",
        "crates/demo/src/retry.rs",
        15
    ));
}

#[test]
fn obs_crate_is_exempt_from_wall_clock_in_lib() {
    // clean/crates/obs/src/timing.rs calls Instant::now(): the lint is
    // scoped out of the observability crate by design.
    let r = run_check("clean", &[]);
    let d = rows(&r, "diagnostics");
    assert!(
        d.iter().all(|(l, _, _, _)| l != "wall-clock-in-lib"),
        "{d:?}"
    );
}

#[test]
fn binaries_and_tests_are_exempt_from_panic_lints() {
    // clean/ contains an unwrap in a bin crate's main.rs and another in a
    // #[cfg(test)] module; neither may fire.
    let r = run_check("clean", &[]);
    let d = rows(&r, "diagnostics");
    assert!(d.iter().all(|(l, _, _, _)| l != "unwrap"), "{d:?}");
}

// --- warning promotion --------------------------------------------------

#[test]
fn advisory_indexing_passes_unless_warnings_are_denied() {
    let r = run_check("advisory", &[]);
    assert_eq!(r.code, 0, "stderr: {}", r.stderr);
    assert_eq!(summary_num(&r, "warnings"), 1);
    let d = rows(&r, "diagnostics");
    assert!(has(&d, "indexing", "crates/demo/src/lib.rs", 8));

    let denied = run_check("advisory", &["--deny-warnings"]);
    assert_eq!(denied.code, 1);
    assert_eq!(summary_num(&denied, "exit_code"), 1);
}

// --- baseline lifecycle -------------------------------------------------

#[test]
fn baselined_violations_pass_and_stale_entries_are_reported() {
    let r = run_check("baselined", &[]);
    assert_eq!(r.code, 0, "stdout: {}\nstderr: {}", r.stdout, r.stderr);
    assert_eq!(summary_num(&r, "violations"), 0);
    assert_eq!(summary_num(&r, "baselined"), 1);
    assert_eq!(summary_num(&r, "stale_baseline"), 1);
    let grand = rows(&r, "baselined");
    assert!(
        has(&grand, "unwrap", "crates/demo/src/lib.rs", 8),
        "{grand:?}"
    );
    let stale = rows(&r, "stale_baseline");
    assert!(
        has(&stale, "expect", "crates/demo/src/gone.rs", 3),
        "{stale:?}"
    );
}

#[test]
fn prune_baseline_rewrites_the_file_without_stale_entries() {
    // `--prune-baseline` rewrites check-baseline.json in place, so run it
    // against a throwaway copy of the baselined fixture.
    let scratch = Path::new(env!("CARGO_TARGET_TMPDIR")).join("prune-baseline");
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(scratch.join("crates/demo/src")).expect("mkdir scratch tree");
    for rel in ["check-baseline.json", "crates/demo/src/lib.rs"] {
        std::fs::copy(fixture("baselined").join(rel), scratch.join(rel)).expect("copy fixture");
    }

    let run = |extra: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_hetero-check"))
            .arg("--json")
            .arg("--root")
            .arg(&scratch)
            .args(extra)
            .output()
            .expect("hetero-check binary runs")
    };

    let pruned = run(&["--prune-baseline"]);
    assert_eq!(pruned.status.code(), Some(0));
    let stdout = String::from_utf8(pruned.stdout).expect("stdout is UTF-8");
    assert!(stdout.contains("pruned 1 stale"), "{stdout}");

    // The surviving entry still baselines the live unwrap; the stale
    // `gone.rs` entry is out of the file for good.
    let text = std::fs::read_to_string(scratch.join("check-baseline.json")).expect("read pruned");
    assert!(text.contains("crates/demo/src/lib.rs"), "{text}");
    assert!(!text.contains("gone.rs"), "{text}");
    let again = run(&[]);
    assert_eq!(again.status.code(), Some(0));
    let root =
        parse(&String::from_utf8(again.stdout).expect("stdout is UTF-8")).unwrap_or(Value::Null);
    let num = |key: &str| {
        root.get("summary")
            .and_then(|s| s.get(key))
            .and_then(Value::as_f64)
            .unwrap_or(-1.0) as i64
    };
    assert_eq!(num("baselined"), 1);
    assert_eq!(num("stale_baseline"), 0);

    // A second prune is a no-op that leaves the file untouched.
    let noop = run(&["--prune-baseline"]);
    assert_eq!(noop.status.code(), Some(0));
    let stdout = String::from_utf8(noop.stdout).expect("stdout is UTF-8");
    assert!(stdout.contains("no stale entries"), "{stdout}");
}

// --- lint documentation -------------------------------------------------

#[test]
fn explain_prints_a_doc_page_for_every_catalogued_lint() {
    for lint in ["float-accum", "panic-propagation", "nondet-iteration"] {
        let r = run_check("clean", &["--explain", lint]);
        assert_eq!(r.code, 0, "stderr: {}", r.stderr);
        assert!(r.stdout.contains(lint), "{}", r.stdout);
        assert!(r.stdout.contains("Why"), "{}", r.stdout);
    }
}

#[test]
fn explain_unknown_lint_is_a_usage_error_listing_known_lints() {
    let r = run_check("clean", &["--explain", "no-such-lint"]);
    assert_eq!(r.code, 2);
    assert!(r.stderr.contains("unknown lint"), "{}", r.stderr);
    assert!(r.stderr.contains("float-accum"), "{}", r.stderr);
}

// --- IO and usage errors ------------------------------------------------

#[test]
fn malformed_baseline_is_a_usage_error() {
    let r = run_check("malformed-baseline", &[]);
    assert_eq!(r.code, 2, "stderr: {}", r.stderr);
    assert!(r.stderr.contains("check-baseline.json"), "{}", r.stderr);
}

#[test]
fn deeply_nested_baseline_is_a_typed_error() {
    // A 50,000-deep baseline is a usage error naming the nesting bound,
    // not a stack overflow.
    let scratch = Path::new(env!("CARGO_TARGET_TMPDIR")).join("deep-baseline");
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(scratch.join("crates/demo/src")).expect("mkdir scratch tree");
    std::fs::write(scratch.join("crates/demo/src/lib.rs"), "//! Demo.\n").expect("write src");
    let deep = format!("{}{}", "[".repeat(50_000), "]".repeat(50_000));
    std::fs::write(scratch.join("check-baseline.json"), deep).expect("write baseline");
    let out = Command::new(env!("CARGO_BIN_EXE_hetero-check"))
        .arg("--root")
        .arg(&scratch)
        .output()
        .expect("hetero-check binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("nesting deeper than 128"), "{stderr}");
}

#[test]
fn unknown_flag_is_a_usage_error() {
    let r = run_check("clean", &["--no-such-flag"]);
    assert_eq!(r.code, 2);
    assert!(r.stderr.contains("unknown option"), "{}", r.stderr);
}

#[test]
fn missing_scan_path_is_an_error() {
    let r = run_check("clean", &["crates/nope"]);
    assert_eq!(r.code, 2, "stderr: {}", r.stderr);
    assert!(r.stderr.contains("no such path"), "{}", r.stderr);
}

// --- scoped scans -------------------------------------------------------

#[test]
fn explicit_paths_narrow_the_scan() {
    // Scanning only the float file must surface its two findings and
    // nothing from the rest of the violations tree.
    let r = run_check("violations", &["crates/demo/src/float.rs"]);
    assert_eq!(r.code, 1);
    assert_eq!(summary_num(&r, "files_scanned"), 1);
    let d = rows(&r, "diagnostics");
    assert_eq!(d.len(), 2, "{d:?}");
    assert!(has(&d, "float-eq", "crates/demo/src/float.rs", 4));
    assert!(has(&d, "partial-cmp-unwrap", "crates/demo/src/float.rs", 8));
}
