//! Command-line arguments that name an empty cluster, an empty sample or
//! an impossible subset size are usage errors: exit 1 with a message
//! naming the option, never a panic and never a table of NaN.

use std::process::Output;

fn cli(args: &[&str]) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_hetero-cli"))
        .args(args)
        .output()
        .expect("spawn CLI")
}

/// Runs `args` and asserts a usage error whose message contains `needle`.
fn rejects(args: &[&str], needle: &str) {
    let out = cli(args);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
    assert!(out.stdout.is_empty(), "{args:?} printed a table");
    assert!(err.contains(needle), "{args:?}: {err}");
    assert!(!err.contains("panicked"), "{args:?}: {err}");
}

#[test]
fn an_empty_cluster_is_a_usage_error() {
    rejects(
        &["select", "--exact", "--k", "5", "--n", "0"],
        "--n must be at least 1",
    );
}

#[test]
fn a_subset_size_outside_one_to_n_is_a_k_error() {
    for k in ["0", "6"] {
        rejects(
            &["select", "--exact", "--k", k, "--n", "5"],
            &format!("--k {k} is outside 1..=5"),
        );
    }
}

#[test]
fn zero_trials_is_a_usage_error() {
    for cmd in ["robustness", "faults", "protocols"] {
        rejects(&[cmd, "--trials", "0"], "--trials must be at least 1");
    }
}

#[test]
fn the_bounds_admit_their_smallest_values() {
    let out = cli(&["select", "--exact", "--k", "1", "--n", "1"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = cli(&["robustness", "--trials", "1"]);
    let table = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{table}");
    assert!(!table.contains("NaN") && !table.contains("inf"), "{table}");
}
