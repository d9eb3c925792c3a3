//! Output sinks: the JSON-lines event stream and the human summary table.
//!
//! The JSONL contract (checked by the CI stream validator): **every line
//! is one JSON object carrying at least the keys `event`, `name`, and
//! `value`**. `event` selects the payload shape:
//!
//! | event       | value payload                                       |
//! |-------------|-----------------------------------------------------|
//! | `counter`   | number                                              |
//! | `gauge`     | number (high-water mark)                            |
//! | `value`     | `{count, mean, stddev, min, max}`                   |
//! | `histogram` | `{total, buckets: [[lo, count], …]}`                |
//! | `sketch`    | `{count, min, max, p50, p90, p99}`                  |
//! | `span`      | `{start_us, dur_us}`                                |
//! | `spantree`  | `{weight, start, end, slack, frames, folded}`       |
//! | `manifest`  | see [`RunManifest`](crate::manifest::RunManifest)   |
//!
//! `sketch` lines carry the quantile summaries of the mergeable
//! log-bucketed sketches ([`crate::sketch`](mod@crate::sketch)); `spantree` lines are
//! emitted by the CLI for commands that execute a protocol run, carrying
//! the causal critical path ([`crate::causal`]).

use std::fmt::Write as _;

use crate::collector::Snapshot;
use crate::json::{self, Value};

impl Snapshot {
    /// The JSON-lines event stream, one `{"event","name","value"}` object
    /// per line, deterministically ordered.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let mut line = |event: &str, name: &str, value: Value| {
            let obj = Value::Obj(vec![
                ("event".into(), Value::Str(event.into())),
                ("name".into(), Value::Str(name.into())),
                ("value".into(), value),
            ]);
            out.push_str(&obj.render());
            out.push('\n');
        };
        for (name, v) in &self.counters {
            line("counter", name, Value::Num(*v as f64));
        }
        for (name, v) in &self.gauges {
            line("gauge", name, Value::Num(*v as f64));
        }
        for (name, s) in &self.values {
            line(
                "value",
                name,
                Value::Obj(vec![
                    ("count".into(), Value::Num(s.count as f64)),
                    ("mean".into(), Value::Num(s.mean)),
                    ("stddev".into(), Value::Num(s.stddev)),
                    ("min".into(), Value::Num(s.min)),
                    ("max".into(), Value::Num(s.max)),
                ]),
            );
        }
        for (name, h) in &self.hists {
            line(
                "histogram",
                name,
                Value::Obj(vec![
                    ("total".into(), Value::Num(h.total as f64)),
                    (
                        "buckets".into(),
                        Value::Arr(
                            h.buckets
                                .iter()
                                .map(|&(lo, c)| {
                                    Value::Arr(vec![Value::Num(lo), Value::Num(c as f64)])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            );
        }
        for (name, s) in &self.sketches {
            line(
                "sketch",
                name,
                Value::Obj(vec![
                    ("count".into(), Value::Num(s.count as f64)),
                    ("min".into(), Value::Num(s.min)),
                    ("max".into(), Value::Num(s.max)),
                    ("p50".into(), Value::Num(s.p50)),
                    ("p90".into(), Value::Num(s.p90)),
                    ("p99".into(), Value::Num(s.p99)),
                ]),
            );
        }
        for span in &self.spans {
            line(
                "span",
                &span.name,
                Value::Obj(vec![
                    ("start_us".into(), Value::Num(span.start_us)),
                    ("dur_us".into(), Value::Num(span.dur_us)),
                ]),
            );
        }
        out
    }

    /// The human summary table printed by `hetero-cli --obs`.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "── observability summary ──");
        if self.counters.is_empty()
            && self.gauges.is_empty()
            && self.values.is_empty()
            && self.hists.is_empty()
            && self.sketches.is_empty()
            && self.spans.is_empty()
        {
            let _ = writeln!(out, "  (nothing collected)");
            return out;
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "counters");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "  {name:<40} {v:>14}");
            }
        }
        if !self.gauges.is_empty() {
            let _ = writeln!(out, "gauges (max)");
            for (name, v) in &self.gauges {
                let _ = writeln!(out, "  {name:<40} {v:>14}");
            }
        }
        if !self.values.is_empty() {
            let _ = writeln!(out, "values");
            for (name, s) in &self.values {
                let _ = writeln!(
                    out,
                    "  {name:<40} n={:<8} mean={:<12.6} min={:<12.6} max={:<12.6}",
                    s.count, s.mean, s.min, s.max
                );
            }
        }
        if !self.hists.is_empty() {
            let _ = writeln!(out, "histograms");
            for (name, h) in &self.hists {
                let _ = write!(out, "  {name:<40} n={:<8} ", h.total);
                // A coarse ASCII shape: one glyph per bucket, scaled to
                // the fullest bucket.
                let peak = h.buckets.iter().map(|&(_, c)| c).max().unwrap_or(0);
                for &(_, c) in &h.buckets {
                    let glyph = if peak == 0 || c == 0 {
                        '.'
                    } else {
                        const RAMP: [char; 5] = ['_', '-', '=', '#', '@'];
                        let i = ((c * RAMP.len() as u64).div_ceil(peak.max(1)) as usize)
                            .clamp(1, RAMP.len());
                        RAMP.get(i - 1).copied().unwrap_or('@')
                    };
                    out.push(glyph);
                }
                out.push('\n');
            }
        }
        if !self.sketches.is_empty() {
            let _ = writeln!(out, "sketches");
            for (name, s) in &self.sketches {
                let _ = writeln!(
                    out,
                    "  {name:<40} n={:<8} p50={:<12.6} p90={:<12.6} p99={:<12.6} max={:<12.6}",
                    s.count, s.p50, s.p90, s.p99, s.max
                );
            }
        }
        if !self.spans.is_empty() {
            let _ = writeln!(out, "spans");
            for span in &self.spans {
                let _ = writeln!(
                    out,
                    "  {:<40} {:>12.3} ms  (at +{:.3} ms)",
                    span.name,
                    span.dur_us / 1e3,
                    span.start_us / 1e3
                );
            }
        }
        out
    }
}

/// Validates one JSONL line against the stream contract: a JSON object
/// with string `event` and `name` keys and any `value` payload. This is
/// the checker the CI step and `tests/obs_stream.rs` run over emitted
/// files.
pub fn validate_jsonl_line(line: &str) -> Result<(), String> {
    let v = json::parse(line)?;
    if !matches!(v, Value::Obj(_)) {
        return Err("line is not a JSON object".into());
    }
    for key in ["event", "name"] {
        match v.get(key) {
            Some(Value::Str(_)) => {}
            Some(_) => return Err(format!("`{key}` is not a string")),
            None => return Err(format!("missing `{key}` key")),
        }
    }
    if v.get("value").is_none() {
        return Err("missing `value` key".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::Collector;

    fn sample() -> Snapshot {
        let mut c = Collector::new();
        c.count("xengine.replace", 12);
        c.gauge_max("sim.queue_high_water", 5);
        for v in [0.5, 1.5, 2.5] {
            c.observe("protocol.send", v);
            c.observe_hist("kahan", v, 0.0, 4.0, 4).unwrap();
        }
        c.record_span(crate::collector::WallSpan {
            name: "cli.fig3".into(),
            start_us: 10.0,
            dur_us: 250.5,
        });
        c.snapshot(&[("hot.extra", 3)])
    }

    #[test]
    fn every_jsonl_line_satisfies_the_contract() {
        let text = sample().to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 6, "counter×2, gauge, value, histogram, span");
        for line in lines {
            validate_jsonl_line(line).unwrap();
        }
    }

    #[test]
    fn jsonl_payload_shapes() {
        let text = sample().to_jsonl();
        let hist_line = text
            .lines()
            .find(|l| l.contains("\"histogram\""))
            .expect("histogram line");
        let v = crate::json::parse(hist_line).unwrap();
        let total = v
            .get("value")
            .and_then(|p| p.get("total"))
            .and_then(crate::json::Value::as_f64);
        assert_eq!(total, Some(3.0));
        let span_line = text.lines().find(|l| l.contains("\"span\"")).unwrap();
        let v = crate::json::parse(span_line).unwrap();
        assert_eq!(
            v.get("value")
                .and_then(|p| p.get("dur_us"))
                .and_then(crate::json::Value::as_f64),
            Some(250.5)
        );
    }

    #[test]
    fn sketch_lines_join_the_stream_when_present() {
        let mut c = Collector::new();
        for i in 1..=50 {
            c.sketch("protocol.lat", i as f64);
        }
        let snap = c.snapshot(&[]);
        let text = snap.to_jsonl();
        let sketch_line = text
            .lines()
            .find(|l| l.contains("\"sketch\""))
            .expect("sketch line");
        validate_jsonl_line(sketch_line).unwrap();
        let v = crate::json::parse(sketch_line).unwrap();
        assert_eq!(
            v.get("name").and_then(crate::json::Value::as_str),
            Some("protocol.lat")
        );
        let count = v
            .get("value")
            .and_then(|p| p.get("count"))
            .and_then(crate::json::Value::as_f64);
        assert_eq!(count, Some(50.0));
        for key in ["min", "max", "p50", "p90", "p99"] {
            assert!(
                v.get("value").and_then(|p| p.get(key)).is_some(),
                "sketch payload missing {key}"
            );
        }
        assert!(snap.summary().contains("sketches"));
    }

    #[test]
    fn validator_rejects_contract_breaches() {
        assert!(validate_jsonl_line("not json").is_err());
        assert!(validate_jsonl_line("[1,2]").is_err());
        assert!(validate_jsonl_line(r#"{"event":"x","name":"y"}"#).is_err());
        assert!(validate_jsonl_line(r#"{"event":7,"name":"y","value":0}"#).is_err());
        assert!(validate_jsonl_line(r#"{"event":"x","name":"y","value":null}"#).is_ok());
    }

    #[test]
    fn summary_renders_all_sections() {
        let s = sample().summary();
        for needle in [
            "counters",
            "xengine.replace",
            "hot.extra",
            "gauges (max)",
            "values",
            "protocol.send",
            "histograms",
            "spans",
            "cli.fig3",
        ] {
            assert!(s.contains(needle), "summary missing {needle}:\n{s}");
        }
        assert!(Snapshot::default().summary().contains("nothing collected"));
    }
}
