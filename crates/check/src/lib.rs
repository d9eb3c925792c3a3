//! `hetero-check`: the workspace's static-analysis pass.
//!
//! Walks every Rust source file in the workspace and enforces the
//! numerical and robustness invariants the heterogeneity model depends
//! on:
//!
//! - **Float hygiene** — no exact `==`/`!=` against float literals
//!   outside documented sentinels (`float-eq`), no
//!   `partial_cmp(..).unwrap()`-style sort comparators
//!   (`partial-cmp-unwrap`), and no bare `.sum()` in the numerical
//!   kernels (`naked-sum`, core/symfunc only — use
//!   `hetero_core::numeric::kahan_sum`).
//! - **Panic freedom** — no `.unwrap()` / `.expect(..)` / `panic!`-family
//!   macros in library crates (`unwrap`, `expect`, `panic`), and advisory
//!   reporting of slice indexing (`indexing`). Binaries, benches,
//!   examples, and tests are exempt.
//! - **Crate policy** — library crates must declare
//!   `#![forbid(unsafe_code)]` and `#![warn(missing_docs)]`
//!   (`crate-policy`), and public items in the formula modules
//!   (xmeasure, hecr, speedup) must cite their paper anchor
//!   (`paper-anchor`).
//! - **Constructor discipline** — `Profile` / `Params` are built through
//!   validated constructors, never struct literals
//!   (`constructor-discipline`).
//! - **Stdio discipline** — no `println!` / `eprintln!` / `print!` /
//!   `eprint!` in library crates (`print-in-lib`): libraries return data
//!   or record metrics through `hetero-obs`; only binaries present.
//! - **Metric-name discipline** — literal names passed to `hetero_obs`
//!   recorders in library code must appear in
//!   `hetero_obs::counters::REGISTRY` (`counter-name-discipline`), so
//!   the `obsdiff` namespace never silently forks.
//!
//! Findings are suppressible only with an inline
//! `// hetero-check: allow(<lint>) — <reason>` comment; the reason is
//! mandatory and suppressions are counted in the output. Known legacy
//! violations can be grandfathered in `check-baseline.json` for
//! burn-down; this repository keeps that file empty.
//!
//! The analysis is a hand-rolled lexer plus token-stream rules (the
//! build environment is offline, so no `syn`); it is intentionally
//! conservative and purely syntactic — e.g. `float-eq` only fires when a
//! float *literal* is adjacent to the comparison.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod callgraph;
pub mod cfg;
pub mod dataflow;
pub mod diag;
pub mod explain;
pub mod lexer;
pub mod lints;
pub mod parser;

use baseline::Baseline;
use diag::{Diagnostic, Level, Suppressed};
use hetero_obs::json::Value;
use std::path::{Path, PathBuf};

/// What to scan and how to judge it.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workspace root (diagnostics are reported relative to it).
    pub root: PathBuf,
    /// Root-relative paths to scan; empty means the whole workspace.
    pub paths: Vec<PathBuf>,
    /// Treat advisory (`warn`) findings as failures.
    pub deny_warnings: bool,
}

/// The outcome of a full run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Violations that fail the run (deny-level, not baselined).
    pub new_deny: Vec<Diagnostic>,
    /// Advisory findings.
    pub warnings: Vec<Diagnostic>,
    /// Deny-level findings grandfathered by the baseline.
    pub baselined: Vec<Diagnostic>,
    /// Baseline entries that no longer match anything.
    pub stale: Vec<baseline::Entry>,
    /// Findings waived by allow comments.
    pub suppressed: Vec<Suppressed>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Per-crate may-panic statistics from the call-graph pass.
    pub call_graph: callgraph::Summary,
}

impl Outcome {
    /// The process exit code: 0 clean, 1 violations.
    pub fn exit_code(&self, deny_warnings: bool) -> i32 {
        if !self.new_deny.is_empty() || (deny_warnings && !self.warnings.is_empty()) {
            1
        } else {
            0
        }
    }
}

/// Runs the checker over the configured tree. IO problems (unreadable
/// root, malformed baseline) are reported as `Err`.
pub fn run(config: &Config) -> Result<Outcome, String> {
    let files = collect_files(config)?;
    let baseline = load_baseline(&config.root)?;
    let registry = load_counter_registry(&config.root);

    let mut outcome = Outcome {
        files_scanned: files.len(),
        ..Outcome::default()
    };
    let mut all_deny = Vec::new();
    let mut fn_facts = Vec::new();
    for rel in &files {
        let full = config.root.join(rel);
        let src = std::fs::read_to_string(&full)
            .map_err(|e| format!("cannot read {}: {e}", full.display()))?;
        let rel_str = rel
            .to_string_lossy()
            .replace(std::path::MAIN_SEPARATOR, "/");
        let scan = lints::scan_file_with_registry(&rel_str, &src, registry.as_deref());
        outcome.suppressed.extend(scan.suppressed);
        fn_facts.extend(scan.fn_facts);
        for diag in scan.diagnostics {
            match diag.level {
                Level::Warn => outcome.warnings.push(diag),
                Level::Deny => all_deny.push(diag),
            }
        }
    }

    // Second phase: close may-panic facts over the cross-file call graph.
    let (cg_diags, cg_suppressed, cg_summary) = callgraph::propagate(&fn_facts);
    all_deny.extend(cg_diags);
    outcome.suppressed.extend(cg_suppressed);
    outcome.call_graph = cg_summary;

    outcome.stale = baseline.stale(all_deny.iter());
    for diag in all_deny {
        if baseline.covers(&diag) {
            outcome.baselined.push(diag);
        } else {
            outcome.new_deny.push(diag);
        }
    }
    let by_pos = |d: &Diagnostic| (d.file.clone(), d.line, d.col, d.lint);
    outcome.new_deny.sort_by_key(by_pos);
    outcome.warnings.sort_by_key(by_pos);
    outcome.baselined.sort_by_key(by_pos);
    Ok(outcome)
}

/// Loads the metric-name registry from
/// `<root>/crates/obs/src/counters.rs` by lexing the file and collecting
/// the string literals of its `REGISTRY` array. `None` (registry file
/// absent or array not found) leaves the `counter-name-discipline` lint
/// inert, so the checker still works on partial trees and fixtures.
pub fn load_counter_registry(root: &Path) -> Option<Vec<String>> {
    let src = std::fs::read_to_string(root.join("crates/obs/src/counters.rs")).ok()?;
    let lexed = lexer::lex(&src);
    let toks = &lexed.tokens;
    let start = toks.iter().position(|t| t.text == "REGISTRY")?;
    // Walk past the `=` (the declared type also contains `[`), then to
    // the opening `[` of the array literal, and collect string literals
    // until the matching `]`.
    let eq = toks[start..].iter().position(|t| t.text == "=")? + start;
    let open = toks[eq..].iter().position(|t| t.text == "[")? + eq;
    let mut names = Vec::new();
    for t in &toks[open + 1..] {
        match t.text.as_str() {
            "]" => return Some(names),
            _ if t.kind == lexer::TokenKind::Str && t.text.starts_with('"') => {
                names.push(t.text.trim_matches('"').to_string());
            }
            _ => {}
        }
    }
    None
}

/// Loads `check-baseline.json` from the root; a missing file is an empty
/// baseline, a malformed one is an error.
pub fn load_baseline(root: &Path) -> Result<Baseline, String> {
    let path = root.join("check-baseline.json");
    match std::fs::read_to_string(&path) {
        Ok(src) => Baseline::parse(&src).map_err(|e| format!("{}: {e}", path.display())),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Baseline::default()),
        Err(e) => Err(format!("cannot read {}: {e}", path.display())),
    }
}

/// Finds the `.rs` files to scan, sorted for deterministic output.
fn collect_files(config: &Config) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    let roots: Vec<PathBuf> = if config.paths.is_empty() {
        ["crates", "tests", "examples"]
            .iter()
            .map(PathBuf::from)
            .filter(|p| config.root.join(p).exists())
            .collect()
    } else {
        config.paths.clone()
    };
    if roots.is_empty() {
        return Err(format!(
            "nothing to scan under {} (no crates/, tests/, or examples/)",
            config.root.display()
        ));
    }
    for rel in roots {
        let full = config.root.join(&rel);
        if full.is_file() {
            files.push(rel);
        } else if full.is_dir() {
            walk(&config.root, &rel, &mut files)
                .map_err(|e| format!("cannot walk {}: {e}", full.display()))?;
        } else {
            return Err(format!("no such path: {}", full.display()));
        }
    }
    files.sort();
    files.dedup();
    Ok(files)
}

fn walk(root: &Path, rel: &Path, files: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> =
        std::fs::read_dir(root.join(rel))?.collect::<std::io::Result<Vec<_>>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let child = rel.join(name.as_ref());
        let ty = entry.file_type()?;
        if ty.is_dir() {
            if matches!(name.as_ref(), "target" | "fixtures" | ".git" | "shims") {
                continue;
            }
            walk(root, &child, files)?;
        } else if ty.is_file() && name.ends_with(".rs") {
            files.push(child);
        }
    }
    Ok(())
}

/// Renders the human-readable report.
pub fn render_text(outcome: &Outcome, deny_warnings: bool) -> String {
    let mut out = String::new();
    for d in &outcome.new_deny {
        out.push_str(&d.to_string());
        out.push('\n');
    }
    for d in &outcome.warnings {
        out.push_str(&d.to_string());
        out.push('\n');
    }
    for d in &outcome.baselined {
        out.push_str(&format!("{d} [baselined]\n"));
    }
    for e in &outcome.stale {
        out.push_str(&format!(
            "check-baseline.json: stale entry {}:{} ({}) — fixed; prune it\n",
            e.file, e.line, e.lint
        ));
    }
    out.push_str(&format!(
        "hetero-check: {} files scanned, {} violations, {} warnings, \
         {} baselined, {} allowed (with reasons), {} stale baseline entries\n",
        outcome.files_scanned,
        outcome.new_deny.len(),
        outcome.warnings.len(),
        outcome.baselined.len(),
        outcome.suppressed.len(),
        outcome.stale.len(),
    ));
    let code = outcome.exit_code(deny_warnings);
    out.push_str(if code == 0 {
        "hetero-check: PASS\n"
    } else {
        "hetero-check: FAIL\n"
    });
    out
}

/// A diagnostic's JSON fields in alphabetical key order; `--json` keeps
/// every object's keys sorted.
fn diag_fields(d: &Diagnostic) -> Vec<(String, Value)> {
    vec![
        ("column".into(), Value::Num(f64::from(d.col))),
        ("file".into(), Value::Str(d.file.clone())),
        ("level".into(), Value::Str(d.level.label().into())),
        ("line".into(), Value::Num(f64::from(d.line))),
        ("lint".into(), Value::Str(d.lint.name().into())),
        ("message".into(), Value::Str(d.message.clone())),
    ]
}

fn count(n: usize) -> Value {
    Value::Num(n as f64)
}

/// Renders the machine-readable (`--json`) report.
pub fn render_json(outcome: &Outcome, deny_warnings: bool) -> String {
    let diagnostics = outcome
        .new_deny
        .iter()
        .chain(&outcome.warnings)
        .map(|d| Value::Obj(diag_fields(d)))
        .collect();
    let suppressed = outcome
        .suppressed
        .iter()
        .map(|s| {
            let mut fields = diag_fields(&s.diag);
            fields.push(("reason".into(), Value::Str(s.reason.clone())));
            Value::Obj(fields)
        })
        .collect();
    let call_graph = outcome
        .call_graph
        .per_crate
        .iter()
        .map(|(krate, stats)| {
            let fields = vec![
                ("may_panic_indexing".into(), count(stats.may_panic_indexing)),
                ("may_panic_strong".into(), count(stats.may_panic_strong)),
                ("public_fns".into(), count(stats.public_fns)),
            ];
            (krate.clone(), Value::Obj(fields))
        })
        .collect();
    let summary = vec![
        ("baselined".into(), count(outcome.baselined.len())),
        (
            "exit_code".into(),
            Value::Num(f64::from(outcome.exit_code(deny_warnings))),
        ),
        ("files_scanned".into(), count(outcome.files_scanned)),
        ("stale_baseline".into(), count(outcome.stale.len())),
        ("suppressed".into(), count(outcome.suppressed.len())),
        ("violations".into(), count(outcome.new_deny.len())),
        ("warnings".into(), count(outcome.warnings.len())),
    ];
    let root = Value::Obj(vec![
        (
            "baselined".into(),
            Value::Arr(
                outcome
                    .baselined
                    .iter()
                    .map(|d| Value::Obj(diag_fields(d)))
                    .collect(),
            ),
        ),
        ("call_graph".into(), Value::Obj(call_graph)),
        ("diagnostics".into(), Value::Arr(diagnostics)),
        (
            "stale_baseline".into(),
            Value::Arr(outcome.stale.iter().map(baseline::Entry::to_json).collect()),
        ),
        ("summary".into(), Value::Obj(summary)),
        ("suppressed".into(), Value::Arr(suppressed)),
        ("version".into(), Value::Num(1.0)),
    ]);
    let mut out = root.render_pretty();
    out.push('\n');
    out
}
