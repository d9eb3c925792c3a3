//! The regression observatory: diffing two observability runs.
//!
//! `hetero-cli obsdiff <run-a> <run-b>` loads two runs — either obs
//! JSONL event streams or whole BENCH-style JSON documents, both parsed
//! with the crate's own [`json`] parser — and compares
//! them under configurable noise thresholds:
//!
//! * **counters / gauges** (and every numeric leaf of a BENCH json,
//!   flattened to a dotted path) are exact-count metrics: any relative
//!   drift beyond the counter threshold is flagged in either direction;
//! * **span stats** compare mean wall duration per span name: an
//!   increase beyond the span threshold is a *regression*, a decrease
//!   an *improvement*;
//! * **sketch quantiles** (p50/p90/p99/max) follow the same one-sided
//!   rule under the quantile threshold;
//! * **value stats** compare means like counters (two-sided drift).
//!
//! Metrics present in only one run are reported as informational. The
//! report renders both human-readable ([`DiffReport::human`]) and
//! machine-readable ([`DiffReport::to_json`]); the CLI exits nonzero
//! iff any regression survived the thresholds, which is what turns a
//! perf regression into a red CI build.

use std::collections::BTreeMap;

use crate::json::{self, Value};

/// Relative-noise thresholds for one diff. All are fractions (0.05 =
/// 5%); `abs_floor` guards the denominators of near-zero baselines.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffThresholds {
    /// Two-sided drift tolerance for counters, gauges, value means, and
    /// BENCH numeric leaves.
    pub counter_rel: f64,
    /// One-sided slowdown tolerance for span mean durations.
    pub span_rel: f64,
    /// One-sided slowdown tolerance for sketch quantiles.
    pub quantile_rel: f64,
    /// Denominator floor: baselines smaller than this in magnitude are
    /// compared against the floor instead of themselves.
    pub abs_floor: f64,
}

impl Default for DiffThresholds {
    fn default() -> Self {
        DiffThresholds {
            counter_rel: 0.01,
            span_rel: 0.05,
            quantile_rel: 0.05,
            abs_floor: 1e-9,
        }
    }
}

/// Aggregated wall-span statistics for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanAgg {
    /// Number of spans recorded under this name.
    pub count: u64,
    /// Total duration, µs.
    pub total_us: f64,
}

impl SpanAgg {
    /// Mean duration per span, µs.
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_us / self.count as f64
        }
    }
}

/// Sketch quantile summary as parsed from a `sketch` event.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SketchQuantiles {
    /// Observation count.
    pub count: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

/// Mean-level view of a `value` event.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ValueAgg {
    /// Observation count.
    pub count: f64,
    /// Mean.
    pub mean: f64,
}

/// One run, normalized for diffing.
#[derive(Debug, Clone, Default)]
pub struct RunData {
    /// Exact-count metrics: counters, gauges, and BENCH numeric leaves.
    pub counters: BTreeMap<String, f64>,
    /// Welford value means.
    pub values: BTreeMap<String, ValueAgg>,
    /// Sketch quantiles.
    pub sketches: BTreeMap<String, SketchQuantiles>,
    /// Wall-span aggregates.
    pub spans: BTreeMap<String, SpanAgg>,
}

impl RunData {
    /// Drops every metric whose name starts with one of `prefixes` from
    /// all four tables. This is how `obsdiff --ignore` excludes metrics
    /// that are honest but host-timing-dependent (pool park-wake counts,
    /// queue-depth high-water marks) from a deterministic gate.
    pub fn strip_prefixes(&mut self, prefixes: &[String]) {
        if prefixes.is_empty() {
            return;
        }
        let keep = |name: &String| !prefixes.iter().any(|p| name.starts_with(p.as_str()));
        self.counters.retain(|name, _| keep(name));
        self.values.retain(|name, _| keep(name));
        self.sketches.retain(|name, _| keep(name));
        self.spans.retain(|name, _| keep(name));
    }
}

/// Loads a run from text: a whole-document JSON object (BENCH json) or
/// an obs JSONL event stream, auto-detected by trying the document
/// parse first.
pub fn load_run(text: &str) -> Result<RunData, String> {
    let trimmed = text.trim();
    if trimmed.is_empty() {
        return Err("empty run file".into());
    }
    if let Ok(doc) = json::parse(trimmed) {
        // A single-line obs stream is also a valid whole-document JSON
        // object — the `event` key disambiguates the two formats.
        if doc.get("event").and_then(Value::as_str).is_some() {
            return load_jsonl(trimmed);
        }
        if matches!(doc, Value::Obj(_)) {
            let mut run = RunData::default();
            flatten_numbers("", &doc, &mut run.counters);
            return Ok(run);
        }
        return Err("run file is JSON but not an object".into());
    }
    load_jsonl(trimmed)
}

fn load_jsonl(text: &str) -> Result<RunData, String> {
    let mut run = RunData::default();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let event = v
            .get("event")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("line {}: missing `event`", lineno + 1))?;
        let name = v
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("line {}: missing `name`", lineno + 1))?;
        let payload = v
            .get("value")
            .ok_or_else(|| format!("line {}: missing `value`", lineno + 1))?;
        match event {
            "counter" | "gauge" => {
                if let Some(x) = payload.as_f64() {
                    run.counters.insert(name.to_string(), x);
                }
            }
            "value" => {
                let get = |k: &str| payload.get(k).and_then(Value::as_f64).unwrap_or(f64::NAN);
                run.values.insert(
                    name.to_string(),
                    ValueAgg {
                        count: get("count"),
                        mean: get("mean"),
                    },
                );
            }
            "sketch" => {
                let get = |k: &str| payload.get(k).and_then(Value::as_f64).unwrap_or(f64::NAN);
                run.sketches.insert(
                    name.to_string(),
                    SketchQuantiles {
                        count: get("count"),
                        p50: get("p50"),
                        p90: get("p90"),
                        p99: get("p99"),
                        max: get("max"),
                    },
                );
            }
            "span" => {
                let dur = payload.get("dur_us").and_then(Value::as_f64).unwrap_or(0.0);
                let agg = run.spans.entry(name.to_string()).or_default();
                // hetero-check: allow(float-accum) — spans fold in fixed JSONL line order; obsdiff compares the means at percent-level thresholds
                agg.count += 1;
                agg.total_us += dur; // hetero-check: allow(float-accum) — same fixed-order fold as the count above
            }
            "spantree" => {
                if let Some(w) = payload.get("weight").and_then(Value::as_f64) {
                    run.counters.insert(format!("spantree.{name}.weight"), w);
                }
            }
            // The manifest duplicates counters and carries wall time,
            // which the span stats already cover.
            "manifest" => {}
            // Unknown event kinds pass through un-diffed: the stream
            // contract allows new kinds to appear.
            _ => {}
        }
    }
    Ok(run)
}

/// Flattens every numeric leaf of a JSON tree into `path.to.leaf → x`.
fn flatten_numbers(prefix: &str, v: &Value, out: &mut BTreeMap<String, f64>) {
    match v {
        Value::Num(x) => {
            out.insert(prefix.to_string(), *x);
        }
        Value::Obj(pairs) => {
            for (k, child) in pairs {
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                flatten_numbers(&path, child, out);
            }
        }
        Value::Arr(items) => {
            for (i, child) in items.iter().enumerate() {
                let path = if prefix.is_empty() {
                    format!("{i}")
                } else {
                    format!("{prefix}.{i}")
                };
                flatten_numbers(&path, child, out);
            }
        }
        _ => {}
    }
}

/// How one diff entry is judged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Got slower / drifted beyond threshold — fails the gate.
    Regression,
    /// Got faster beyond threshold — reported, does not fail.
    Improvement,
    /// Present in only one run — informational.
    OnlyInA,
    /// Present in only one run — informational.
    OnlyInB,
}

impl Verdict {
    /// Stable lowercase tag for machine output.
    pub fn tag(&self) -> &'static str {
        match self {
            Verdict::Regression => "regression",
            Verdict::Improvement => "improvement",
            Verdict::OnlyInA => "only_in_a",
            Verdict::OnlyInB => "only_in_b",
        }
    }
}

/// One metric that moved past its threshold (or exists on one side
/// only).
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEntry {
    /// Metric family: `counter`, `value`, `span`, `sketch`.
    pub kind: &'static str,
    /// Metric name, suffixed with the compared statistic where it is
    /// not the value itself (e.g. `proto.lat/p99`, `cmd.all/mean_us`).
    pub name: String,
    /// Baseline (run A) value.
    pub a: f64,
    /// Candidate (run B) value.
    pub b: f64,
    /// `(b − a) / max(|a|, floor)`; 0 for one-sided presence entries.
    pub rel: f64,
    /// The judgement.
    pub verdict: Verdict,
}

/// The full diff result.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Entries that moved (or are one-sided), in deterministic order.
    pub entries: Vec<DiffEntry>,
    /// Metrics compared (both sides present).
    pub compared: usize,
}

impl DiffReport {
    /// Number of regressions — the CI gate fails iff this is nonzero.
    pub fn regressions(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.verdict == Verdict::Regression)
            .count()
    }

    /// Human-readable report.
    pub fn human(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "── obsdiff: {} metrics compared, {} flagged, {} regressions ──",
            self.compared,
            self.entries.len(),
            self.regressions()
        );
        for e in &self.entries {
            let _ = writeln!(
                out,
                "  {:<12} {:<48} {:>14.6} → {:<14.6} {:>+8.2}%  {}",
                e.kind,
                e.name,
                e.a,
                e.b,
                e.rel * 100.0,
                e.verdict.tag()
            );
        }
        if self.entries.is_empty() {
            let _ = writeln!(out, "  (no differences beyond thresholds)");
        }
        out
    }

    /// Machine-readable report as one JSON document.
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("compared".into(), Value::Num(self.compared as f64)),
            ("regressions".into(), Value::Num(self.regressions() as f64)),
            (
                "entries".into(),
                Value::Arr(
                    self.entries
                        .iter()
                        .map(|e| {
                            Value::Obj(vec![
                                ("kind".into(), Value::Str(e.kind.into())),
                                ("name".into(), Value::Str(e.name.clone())),
                                ("a".into(), Value::Num(e.a)),
                                ("b".into(), Value::Num(e.b)),
                                ("rel".into(), Value::Num(e.rel)),
                                ("verdict".into(), Value::Str(e.verdict.tag().into())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Diffs run `b` (candidate) against run `a` (baseline).
pub fn diff(a: &RunData, b: &RunData, thr: &DiffThresholds) -> DiffReport {
    let mut report = DiffReport::default();

    // Counters and value means: two-sided drift.
    two_sided(
        "counter",
        &a.counters,
        &b.counters,
        |&x| x,
        thr.counter_rel,
        thr,
        &mut report,
    );
    two_sided(
        "value",
        &a.values,
        &b.values,
        |v: &ValueAgg| v.mean,
        thr.counter_rel,
        thr,
        &mut report,
    );

    // Span means: one-sided slowdown.
    for (name, sa) in &a.spans {
        match b.spans.get(name) {
            None => report.entries.push(presence(
                "span",
                &format!("{name}/mean_us"),
                sa.mean_us(),
                Verdict::OnlyInA,
            )),
            Some(sb) => {
                report.compared += 1;
                judge_one_sided(
                    "span",
                    &format!("{name}/mean_us"),
                    sa.mean_us(),
                    sb.mean_us(),
                    thr.span_rel,
                    thr.abs_floor,
                    &mut report,
                );
            }
        }
    }
    for (name, sb) in &b.spans {
        if !a.spans.contains_key(name) {
            report.entries.push(presence(
                "span",
                &format!("{name}/mean_us"),
                sb.mean_us(),
                Verdict::OnlyInB,
            ));
        }
    }

    // Sketch quantiles: one-sided slowdown per statistic.
    for (name, qa) in &a.sketches {
        match b.sketches.get(name) {
            None => report
                .entries
                .push(presence("sketch", name, qa.p50, Verdict::OnlyInA)),
            Some(qb) => {
                report.compared += 1;
                for (stat, x, y) in [
                    ("p50", qa.p50, qb.p50),
                    ("p90", qa.p90, qb.p90),
                    ("p99", qa.p99, qb.p99),
                    ("max", qa.max, qb.max),
                ] {
                    judge_one_sided(
                        "sketch",
                        &format!("{name}/{stat}"),
                        x,
                        y,
                        thr.quantile_rel,
                        thr.abs_floor,
                        &mut report,
                    );
                }
            }
        }
    }
    for (name, qb) in &b.sketches {
        if !a.sketches.contains_key(name) {
            report
                .entries
                .push(presence("sketch", name, qb.p50, Verdict::OnlyInB));
        }
    }

    report
}

fn presence(kind: &'static str, name: &str, v: f64, verdict: Verdict) -> DiffEntry {
    let (a, b) = match verdict {
        Verdict::OnlyInA => (v, f64::NAN),
        _ => (f64::NAN, v),
    };
    DiffEntry {
        kind,
        name: name.to_string(),
        a,
        b,
        rel: 0.0,
        verdict,
    }
}

fn rel_change(a: f64, b: f64, floor: f64) -> f64 {
    (b - a) / a.abs().max(floor)
}

fn two_sided<T, F>(
    kind: &'static str,
    a: &BTreeMap<String, T>,
    b: &BTreeMap<String, T>,
    project: F,
    rel_thr: f64,
    thr: &DiffThresholds,
    report: &mut DiffReport,
) where
    F: Fn(&T) -> f64,
{
    for (name, va) in a {
        match b.get(name) {
            None => report
                .entries
                .push(presence(kind, name, project(va), Verdict::OnlyInA)),
            Some(vb) => {
                report.compared += 1;
                let (x, y) = (project(va), project(vb));
                if x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()) {
                    continue;
                }
                let rel = rel_change(x, y, thr.abs_floor);
                if rel.abs() > rel_thr || rel.is_nan() {
                    let verdict = if rel > 0.0 || rel.is_nan() {
                        Verdict::Regression
                    } else {
                        // Two-sided drift: shrinkage is also a behaviour
                        // change for exact counters, but it cannot make
                        // the build slower — report as improvement.
                        Verdict::Improvement
                    };
                    report.entries.push(DiffEntry {
                        kind,
                        name: name.clone(),
                        a: x,
                        b: y,
                        rel,
                        verdict,
                    });
                }
            }
        }
    }
    for (name, vb) in b {
        if !a.contains_key(name) {
            report
                .entries
                .push(presence(kind, name, project(vb), Verdict::OnlyInB));
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn judge_one_sided(
    kind: &'static str,
    name: &str,
    a: f64,
    b: f64,
    rel_thr: f64,
    floor: f64,
    report: &mut DiffReport,
) {
    if a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()) {
        return;
    }
    let rel = rel_change(a, b, floor);
    if rel > rel_thr {
        report.entries.push(DiffEntry {
            kind,
            name: name.to_string(),
            a,
            b,
            rel,
            verdict: Verdict::Regression,
        });
    } else if rel < -rel_thr {
        report.entries.push(DiffEntry {
            kind,
            name: name.to_string(),
            a,
            b,
            rel,
            verdict: Verdict::Improvement,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jsonl_run(scale: f64) -> RunData {
        let text = format!(
            concat!(
                "{{\"event\":\"counter\",\"name\":\"sim.events\",\"value\":120}}\n",
                "{{\"event\":\"gauge\",\"name\":\"sim.queue_high_water\",\"value\":5}}\n",
                "{{\"event\":\"value\",\"name\":\"protocol.send\",\"value\":",
                "{{\"count\":8,\"mean\":2.5,\"stddev\":0.5,\"min\":2,\"max\":3}}}}\n",
                "{{\"event\":\"sketch\",\"name\":\"protocol.lat\",\"value\":",
                "{{\"count\":100,\"min\":1,\"max\":{max},\"p50\":10,\"p90\":{p90},\"p99\":20}}}}\n",
                "{{\"event\":\"span\",\"name\":\"cmd.all\",\"value\":",
                "{{\"start_us\":0,\"dur_us\":{dur}}}}}\n",
                "{{\"event\":\"manifest\",\"name\":\"all\",\"value\":{{\"wall_ms\":9}}}}\n",
            ),
            max = 30.0 * scale,
            p90 = 15.0 * scale,
            dur = 1000.0 * scale,
        );
        load_run(&text).expect("well-formed stream")
    }

    #[test]
    fn self_diff_is_clean() {
        let a = jsonl_run(1.0);
        let r = diff(&a, &a, &DiffThresholds::default());
        assert_eq!(r.entries, vec![]);
        assert_eq!(r.regressions(), 0);
        assert!(r.compared >= 4);
        assert!(r.human().contains("no differences"));
    }

    #[test]
    fn ten_percent_slowdown_is_caught() {
        let a = jsonl_run(1.0);
        let b = jsonl_run(1.1);
        let r = diff(&a, &b, &DiffThresholds::default());
        assert!(r.regressions() >= 2, "span + quantiles must fire: {r:?}");
        assert!(r
            .entries
            .iter()
            .any(|e| e.kind == "span" && e.name == "cmd.all/mean_us"));
        assert!(r
            .entries
            .iter()
            .any(|e| e.kind == "sketch" && e.name == "protocol.lat/p90"));
        // Counters were identical: no counter entry.
        assert!(r.entries.iter().all(|e| e.kind != "counter"));
    }

    #[test]
    fn speedup_reports_improvement_not_regression() {
        let a = jsonl_run(1.0);
        let b = jsonl_run(0.8);
        let r = diff(&a, &b, &DiffThresholds::default());
        assert_eq!(r.regressions(), 0);
        assert!(r.entries.iter().any(|e| e.verdict == Verdict::Improvement));
    }

    #[test]
    fn counter_drift_is_two_sided() {
        let mut a = RunData::default();
        let mut b = RunData::default();
        a.counters.insert("xscan.insert".into(), 100.0);
        b.counters.insert("xscan.insert".into(), 90.0);
        let r = diff(&a, &b, &DiffThresholds::default());
        assert_eq!(r.entries.len(), 1);
        assert_eq!(r.entries[0].verdict, Verdict::Improvement);
        let r2 = diff(&b, &a, &DiffThresholds::default());
        assert_eq!(r2.entries[0].verdict, Verdict::Regression);
    }

    #[test]
    fn bench_documents_flatten_and_diff() {
        let a = load_run(
            r#"{ "pr": 7, "units": "ns_per_iter",
                 "table": { "n16": {"mean": 100.0, "min": 90.0} } }"#,
        )
        .unwrap();
        let b = load_run(
            r#"{ "pr": 7, "units": "ns_per_iter",
                 "table": { "n16": {"mean": 200.0, "min": 95.0} } }"#,
        )
        .unwrap();
        assert_eq!(a.counters.get("table.n16.mean"), Some(&100.0));
        let r = diff(&a, &b, &DiffThresholds::default());
        assert!(r
            .entries
            .iter()
            .any(|e| e.name == "table.n16.mean" && e.verdict == Verdict::Regression));
    }

    #[test]
    fn one_sided_presence_is_informational() {
        let a = jsonl_run(1.0);
        let mut b = jsonl_run(1.0);
        b.counters.insert("brand.new".into(), 1.0);
        b.spans.remove("cmd.all");
        let r = diff(&a, &b, &DiffThresholds::default());
        assert_eq!(r.regressions(), 0);
        assert!(r
            .entries
            .iter()
            .any(|e| e.verdict == Verdict::OnlyInB && e.name == "brand.new"));
        assert!(r
            .entries
            .iter()
            .any(|e| e.verdict == Verdict::OnlyInA && e.name == "cmd.all/mean_us"));
    }

    #[test]
    fn report_renders_json_and_human() {
        let a = jsonl_run(1.0);
        let b = jsonl_run(1.2);
        let r = diff(&a, &b, &DiffThresholds::default());
        let doc = r.to_json().render();
        let parsed = json::parse(&doc).unwrap();
        assert_eq!(
            parsed.get("regressions").and_then(Value::as_f64),
            Some(r.regressions() as f64)
        );
        assert!(r.human().contains("regression"));
    }

    #[test]
    fn malformed_input_is_a_typed_error() {
        assert!(load_run("").is_err());
        assert!(load_run("not json at all").is_err());
        assert!(load_run("[1,2,3]").is_err());
    }

    #[test]
    fn spantree_weights_join_the_counter_namespace() {
        let run = load_run(
            "{\"event\":\"spantree\",\"name\":\"fig2\",\"value\":{\"weight\":100.0,\"folded\":\"a;b\"}}",
        )
        .unwrap();
        assert_eq!(run.counters.get("spantree.fig2.weight"), Some(&100.0));
    }

    #[test]
    fn strip_prefixes_drops_ignored_namespaces_everywhere() {
        let stream = "{\"event\":\"counter\",\"name\":\"par.pool.park_wakes\",\"value\":8}\n\
                      {\"event\":\"counter\",\"name\":\"sim.events\",\"value\":42}\n\
                      {\"event\":\"sketch\",\"name\":\"par.pool.lat\",\"value\":{\"count\":1,\"min\":1,\"max\":1,\"p50\":1,\"p90\":1,\"p99\":1}}\n\
                      {\"event\":\"span\",\"name\":\"par.pool.map\",\"value\":{\"start_us\":0,\"dur_us\":10}}";
        let mut run = load_run(stream).unwrap();
        run.strip_prefixes(&["par.pool.".to_string()]);
        assert_eq!(run.counters.len(), 1);
        assert!(run.counters.contains_key("sim.events"));
        assert!(run.sketches.is_empty());
        assert!(run.spans.is_empty());
        // An empty prefix list is a no-op.
        run.strip_prefixes(&[]);
        assert_eq!(run.counters.len(), 1);
    }
}
