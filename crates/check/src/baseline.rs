//! The checked-in violation baseline (`check-baseline.json`).
//!
//! The baseline is a burn-down ledger: known violations listed there are
//! reported but do not fail the run, so the checker can be adopted before
//! every finding is fixed. The goal state — and the state this repo keeps
//! — is an empty baseline.

use crate::diag::{Diagnostic, Lint};
use hetero_obs::json::{self, Value};

/// One grandfathered violation.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Entry {
    /// Stable lint ID.
    pub lint: String,
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line the violation was recorded at.
    pub line: u32,
}

impl Entry {
    /// The entry as a JSON object, keys in alphabetical order.
    pub(crate) fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("file".into(), Value::Str(self.file.clone())),
            ("line".into(), Value::Num(f64::from(self.line))),
            ("lint".into(), Value::Str(self.lint.clone())),
        ])
    }
}

/// The parsed baseline.
#[derive(Debug, Clone, Default)]
pub struct Baseline {
    /// All grandfathered violations.
    pub entries: Vec<Entry>,
}

impl Baseline {
    /// Parses the baseline JSON document.
    pub fn parse(src: &str) -> Result<Baseline, String> {
        let value = json::parse(src)?;
        let version = value
            .get("version")
            .and_then(Value::as_f64)
            .ok_or("baseline missing numeric `version`")?;
        if value.get("version").and_then(Value::as_u32) != Some(1) {
            return Err(format!("unsupported baseline version {version}"));
        }
        let Some(Value::Arr(items)) = value.get("entries") else {
            return Err("baseline missing `entries` array".into());
        };
        let mut entries = Vec::new();
        for item in items {
            let lint = item
                .get("lint")
                .and_then(Value::as_str)
                .ok_or("baseline entry missing `lint`")?;
            if Lint::from_name(lint).is_none() {
                return Err(format!("baseline entry has unknown lint `{lint}`"));
            }
            let file = item
                .get("file")
                .and_then(Value::as_str)
                .ok_or("baseline entry missing `file`")?;
            let line = item.get("line").ok_or("baseline entry missing `line`")?;
            let line = line.as_u32().ok_or_else(|| {
                format!(
                    "baseline entry `line` must be an integer in 0..={}, got {}",
                    u32::MAX,
                    line.render()
                )
            })?;
            entries.push(Entry {
                lint: lint.to_string(),
                file: file.to_string(),
                line,
            });
        }
        Ok(Baseline { entries })
    }

    /// Serializes the baseline (sorted, deterministic; keys in
    /// alphabetical order).
    pub fn render(&self) -> String {
        let mut entries = self.entries.clone();
        entries.sort();
        entries.dedup();
        let items = entries.iter().map(Entry::to_json).collect();
        let root = Value::Obj(vec![
            ("entries".into(), Value::Arr(items)),
            ("version".into(), Value::Num(1.0)),
        ]);
        let mut out = root.render_pretty();
        out.push('\n');
        out
    }

    /// Builds a baseline grandfathering the given diagnostics.
    pub fn from_diagnostics<'a>(diags: impl Iterator<Item = &'a Diagnostic>) -> Baseline {
        Baseline {
            entries: diags
                .map(|d| Entry {
                    lint: d.lint.name().to_string(),
                    file: d.file.clone(),
                    line: d.line,
                })
                .collect(),
        }
    }

    /// Whether a diagnostic is grandfathered.
    pub fn covers(&self, diag: &Diagnostic) -> bool {
        self.entries
            .iter()
            .any(|e| e.lint == diag.lint.name() && e.file == diag.file && e.line == diag.line)
    }

    /// Entries that no longer match any current diagnostic (fixed or
    /// moved): these should be pruned from the checked-in file.
    pub fn stale<'a>(&self, diags: impl Iterator<Item = &'a Diagnostic> + Clone) -> Vec<Entry> {
        self.entries
            .iter()
            .filter(|e| {
                !diags
                    .clone()
                    .any(|d| d.lint.name() == e.lint && d.file == e.file && d.line == e.line)
            })
            .cloned()
            .collect()
    }

    /// A copy of this baseline with the given stale entries dropped
    /// (`--prune-baseline`). Entries are matched exactly; pruning never
    /// invents entries, so `pruned` followed by [`render`](Self::render)
    /// and [`parse`](Self::parse) round-trips to the surviving set.
    pub fn pruned(&self, stale: &[Entry]) -> Baseline {
        Baseline {
            entries: self
                .entries
                .iter()
                .filter(|e| !stale.contains(e))
                .cloned()
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::{Level, Lint};

    fn diag(lint: Lint, file: &str, line: u32) -> Diagnostic {
        Diagnostic {
            lint,
            level: Level::Deny,
            file: file.to_string(),
            line,
            col: 1,
            message: String::new(),
        }
    }

    #[test]
    fn parse_render_roundtrip() {
        let b = Baseline {
            entries: vec![Entry {
                lint: "unwrap".into(),
                file: "crates/core/src/profile.rs".into(),
                line: 58,
            }],
        };
        let text = b.render();
        let back = Baseline::parse(&text).expect("roundtrips");
        assert_eq!(back.entries, b.entries);
    }

    #[test]
    fn covers_and_stale() {
        let d1 = diag(Lint::Unwrap, "a.rs", 3);
        let d2 = diag(Lint::Expect, "b.rs", 9);
        let b = Baseline::from_diagnostics([&d1].into_iter());
        assert!(b.covers(&d1));
        assert!(!b.covers(&d2));
        let stale = b.stale([&d2].into_iter());
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].lint, "unwrap");
    }

    #[test]
    fn prune_roundtrips_through_render_and_parse() {
        let keep = diag(Lint::Unwrap, "a.rs", 3);
        let fixed = diag(Lint::Expect, "b.rs", 9);
        let b = Baseline::from_diagnostics([&keep, &fixed].into_iter());
        assert_eq!(b.entries.len(), 2);

        // `fixed` no longer fires; only `keep` is still current.
        let stale = b.stale([&keep].into_iter());
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].file, "b.rs");

        let pruned = b.pruned(&stale);
        let back = Baseline::parse(&pruned.render()).expect("pruned baseline parses");
        assert_eq!(back.entries, pruned.entries);
        assert_eq!(back.entries.len(), 1);
        assert_eq!(back.entries[0].file, "a.rs");
        assert!(back.stale([&keep].into_iter()).is_empty());

        // Pruning with nothing stale is the identity.
        let same = b.pruned(&[]);
        assert_eq!(same.entries, b.entries);
    }

    #[test]
    fn rejects_unknown_lints() {
        let src = r#"{"version": 1, "entries": [{"lint": "no-such", "file": "a.rs", "line": 1}]}"#;
        assert!(Baseline::parse(src).is_err());
    }

    /// The fixture's entry with `version` and `line` as given.
    fn entry_doc(version: &str, line: &str) -> String {
        format!(
            r#"{{"version": {version}, "entries": [{{"lint": "unwrap", "file": "crates/demo/src/lib.rs", "line": {line}}}]}}"#
        )
    }

    #[test]
    fn version_and_line_must_be_exact_integers() {
        let ok = Baseline::parse(&entry_doc("1", "8")).expect("parses");
        assert_eq!(ok.entries[0].line, 8);
        let err = Baseline::parse(&entry_doc("1.9", "8")).unwrap_err();
        assert_eq!(err, "unsupported baseline version 1.9");
        for (line, shown) in [("8.7", "8.7"), ("-1", "-1"), ("1e10", "10000000000")] {
            let err = Baseline::parse(&entry_doc("1", line)).unwrap_err();
            assert_eq!(
                err,
                format!("baseline entry `line` must be an integer in 0..=4294967295, got {shown}")
            );
        }
    }

    #[test]
    fn empty_baseline_parses() {
        let b = Baseline::parse("{\"version\": 1, \"entries\": []}\n").expect("parses");
        assert!(b.entries.is_empty());
    }
}
