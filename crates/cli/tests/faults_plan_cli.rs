//! `hetero-cli faults --plan FILE`: a pinned JSON fault plan replayed
//! through the four protocol families on the 8-worker harmonic cluster.

use std::path::PathBuf;
use std::process::Output;

fn replay(name: &str, plan: &str) -> Output {
    let path: PathBuf =
        std::env::temp_dir().join(format!("hetero_cli_{name}_{}.json", std::process::id()));
    std::fs::write(&path, plan).expect("write plan");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_hetero-cli"))
        .args(["faults", "--plan"])
        .arg(&path)
        .output()
        .expect("spawn CLI");
    let _ = std::fs::remove_file(&path);
    out
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The "work by L" cell of `family`'s table row.
fn work_of(table: &str, family: &str) -> f64 {
    let row = table
        .lines()
        .find(|l| l.split('|').nth(1).map(str::trim) == Some(family))
        .unwrap_or_else(|| panic!("no {family} row in\n{table}"));
    let cell = row.split('|').nth(2).expect("work column").trim();
    cell.parse()
        .unwrap_or_else(|e| panic!("{family} work {cell:?}: {e}"))
}

const FAMILIES: [&str; 4] = ["oblivious", "adaptive", "exchange", "coded"];

#[test]
fn a_mixed_plan_replays_through_all_four_families() {
    let out = replay(
        "mixed",
        r#"{"faults":[
            {"kind":"crash","worker":2,"at":150.0},
            {"kind":"slowdown","worker":5,"factor":3.0,"from":0.0,"until":600.0},
            {"kind":"jitter","factor":1.5,"from":10.0,"until":90.0},
            {"kind":"result-loss","worker":7,"count":1}
        ]}"#,
    );
    let table = stdout(&out);
    assert!(out.status.success(), "{table}");
    assert!(table.contains("4 specs, harmonic n = 8"), "{table}");
    for family in FAMILIES {
        let work = work_of(&table, family);
        assert!(work.is_finite() && work >= 0.0, "{family}: {work}");
    }
}

#[test]
fn a_plan_naming_a_worker_outside_the_cluster_is_rejected() {
    let out = replay(
        "out_of_range",
        r#"{"faults":[
            {"kind":"crash","worker":3,"at":100.0},
            {"kind":"crash","worker":12,"at":100.0},
            {"kind":"slowdown","worker":40,"factor":2.0,"from":0.0,"until":600.0}
        ]}"#,
    );
    assert!(!out.status.success(), "{}", stdout(&out));
    assert!(stdout(&out).is_empty(), "no table for a rejected plan");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("spec 1 names worker 12"), "{err}");
    assert!(err.contains("n = 8"), "{err}");
}

#[test]
fn families_that_deliver_nothing_print_zero_not_negative_zero() {
    let crashes: Vec<String> = (0..8)
        .map(|w| format!(r#"{{"kind":"crash","worker":{w},"at":0.0}}"#))
        .collect();
    let out = replay(
        "all_crash",
        &format!(r#"{{"faults":[{}]}}"#, crashes.join(",")),
    );
    let table = stdout(&out);
    assert!(out.status.success(), "{table}");
    assert!(!table.contains("-0.00"), "{table}");
    for family in FAMILIES {
        assert_eq!(
            work_of(&table, family).to_bits(),
            0.0f64.to_bits(),
            "{family}"
        );
    }
}

#[test]
fn the_hedged_adaptive_family_delivers_under_the_empty_plan() {
    let out = replay("empty", r#"{"faults":[]}"#);
    let table = stdout(&out);
    assert!(out.status.success(), "{table}");
    // Margin 0.1 sizes the run to L/1.1 of the optimum's window.
    let adaptive = work_of(&table, "adaptive");
    let oblivious = work_of(&table, "oblivious");
    assert!(adaptive > 0.85 * oblivious, "{table}");
    assert!(!table.contains("-0.00"), "{table}");
}

#[test]
fn a_deeply_nested_plan_is_a_typed_error() {
    // A 50,000-deep plan is rejected like any malformed one, not with a
    // stack overflow.
    let plan = format!("{}{}", "[".repeat(50_000), "]".repeat(50_000));
    let out = replay("deep", &plan);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(stdout(&out).is_empty(), "no table for a rejected plan");
    assert!(err.contains("nesting deeper than 128"), "{err}");
}
