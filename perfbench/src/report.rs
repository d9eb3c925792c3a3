//! Turns a run's measurements into the result line, the run record and
//! the span file.

use std::fmt::Write as _;

use hetero_obs::json::Value;
use hetero_par::default_threads;

use crate::measure::{beyond_tail, median, percentile, Span, OP_SPAN};
use crate::metrics;
use crate::runner::Measured;
use crate::{Args, Outcome, Shape};

fn num(v: impl Into<f64>) -> Value {
    Value::Num(v.into())
}

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(shape: &Shape, o: &Outcome, peak_mib: f64) -> Vec<(&'static str, f64)> {
    let m = &o.timed;
    let lat = sorted(&m.latencies_ms);
    let values = [
        m.ops_per_s(),
        median(&lat),
        percentile(&lat, shape.tail_pct),
        m.cpu_s * 1e3 / m.attempted as f64,
        median(&sorted(&o.setups)),
        peak_mib,
    ];
    metrics::END_TO_END
        .iter()
        .map(|&(n, _)| n)
        .zip(values)
        .collect()
}

/// The per-layer metrics of a traced run; layers the workload does not
/// call read 0.
fn per_layer(shape: &Shape, o: &Outcome) -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = metrics::per_layer()
        .into_iter()
        .map(|(name, _)| (name, 0.0))
        .collect();
    let mut set = |name: &str, v: f64| {
        let slot = out.iter_mut().find(|(n, _)| n == name);
        slot.unwrap_or_else(|| panic!("{name} is not in the catalogue"))
            .1 = v;
    };
    let Some((traced, counted)) = &o.traced else {
        return out;
    };

    let busy = |name: &str| -> f64 {
        let spans = traced.spans.iter().filter(|s| s.name == name);
        spans.map(|s| s.duration().as_secs_f64()).sum()
    };
    let ops = traced.spans.iter().filter(|s| s.name == OP_SPAN).count() as f64;
    let op_s = busy(OP_SPAN);
    let scale = if shape.layer_unit == "ms" { 1e3 } else { 1e6 };
    let mut covered = 0.0;
    for &layer in shape.layers {
        let b = busy(layer);
        covered += b;
        set(
            &format!("{layer}.{}_per_op", shape.layer_unit),
            b * scale / ops,
        );
        set(&format!("{layer}.share"), b / op_s);
    }
    set("bench.glue_frac", 1.0 - covered / op_s);
    set(
        "bench.trace_overhead",
        1.0 - traced.ops_per_s() / o.timed.ops_per_s(),
    );
    set("par.cpu_per_wall", o.timed.cpu_s / o.timed.wall_s);

    let count_ops = counted.measured.attempted as f64;
    let counter = |name: &str| -> f64 {
        let found = counted.counters.iter().find(|(n, _)| n == name);
        found.map_or(0.0, |&(_, v)| v as f64)
    };
    for (metric, name) in metrics::COUNTERS {
        set(metric, counter(name) / count_ops);
    }
    let (visited, pruned) = (
        counter("select.bnb.nodes_visited"),
        counter("select.bnb.nodes_pruned"),
    );
    if visited + pruned > 0.0 {
        set("select.bnb.pruned_frac", pruned / (visited + pruned));
    }
    for &(name, sum) in &counted.outcomes {
        set(name, sum / count_ops);
    }
    let (attempted, failed) = totals(o);
    set("failed_frac", failed as f64 / attempted as f64);
    out
}

/// Ops attempted and failed over every phase; a failed post-run check
/// counts as one more failed op.
fn totals(o: &Outcome) -> (u64, u64) {
    let mut phases: Vec<&Measured> = vec![&o.timed];
    if let Some((traced, counted)) = &o.traced {
        phases.extend([traced, &counted.measured]);
    }
    let finish = u64::from(o.finish_error.is_some());
    let attempted = phases.iter().map(|m| m.attempted).sum::<u64>() + finish;
    let failed = phases.iter().map(|m| m.failed).sum::<u64>() + finish;
    (attempted, failed)
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result(args: &Args, shape: &Shape, o: &Outcome, peak_mib: f64) -> String {
    let units: Vec<(String, &str)> = metrics::END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .chain(metrics::per_layer())
        .collect();
    let values: Vec<(String, f64)> = if args.trace {
        per_layer(shape, o)
    } else {
        end_to_end(shape, o, peak_mib)
            .into_iter()
            .map(|(n, v)| (n.to_string(), v))
            .collect()
    };
    let finite = values.iter().all(|(_, v)| v.is_finite());
    let (attempted, failed) = totals(o);
    let metrics = values
        .into_iter()
        .map(|(name, v)| {
            let unit = units.iter().find(|(n, _)| *n == name).map_or("", |u| u.1);
            let m = obj(vec![("value", num(v)), ("unit", Value::Str(unit.into()))]);
            (name, m)
        })
        .collect();
    obj(vec![
        ("correct", Value::Bool(failed == 0 && finite)),
        ("attempted", num(attempted as f64)),
        ("failed", num(failed as f64)),
        ("metrics", Value::Obj(metrics)),
    ])
    .render()
}

/// The commit of the checkout the benchmark runs in, read from `.git`
/// in the working directory; `unknown` outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(format!(".git/{p}")).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.trim().strip_prefix("ref: ") else {
        return head.trim().to_string();
    };
    if let Some(id) = read(reference) {
        return id.trim().to_string();
    }
    let packed = read("packed-refs").unwrap_or_default();
    let line = packed
        .lines()
        .find(|l| l.ends_with(&format!(" {reference}")));
    line.and_then(|l| l.split(' ').next())
        .unwrap_or("unknown")
        .to_string()
}

/// The run record: what a number needs beside it to be compared.
pub fn record(args: &Args, shape: &Shape, o: &Outcome) -> String {
    let host = hetero_obs::HostContext::detect();
    let m = &o.timed;
    let completed = (m.attempted - m.failed) as usize;
    let mut errors: Vec<String> = m.errors.clone();
    if let Some((traced, counted)) = &o.traced {
        errors.extend(
            traced
                .errors
                .iter()
                .chain(&counted.measured.errors)
                .cloned(),
        );
    }
    errors.extend(o.finish_error.clone());
    let strs = |v: Vec<String>| Value::Arr(v.into_iter().map(Value::Str).collect());
    let env = host.hetero_threads_env.map_or(Value::Null, Value::Str);
    obj(vec![(
        "record",
        obj(vec![
            ("workload", Value::Str(args.workload.clone())),
            ("seed", num(args.seed as f64)),
            ("seconds", num(args.seconds)),
            ("trace", Value::Bool(args.trace)),
            ("nproc", num(default_threads() as f64)),
            ("logical_cores", num(host.logical_cores as f64)),
            ("hetero_threads_env", env),
            ("target_cpu", Value::Str(host.target_cpu)),
            ("rustc", Value::Str(env!("PERFBENCH_RUSTC").into())),
            ("git_commit", Value::Str(git_commit())),
            ("clients", num(shape.clients as f64)),
            ("sweep_threads", num(default_threads() as f64)),
            ("pool_threads", num(hetero_par::configured_threads() as f64)),
            ("ops", num(completed as f64)),
            ("wall_s", num(m.wall_s)),
            ("tail_pct", num(shape.tail_pct as f64)),
            (
                "beyond_tail",
                num(beyond_tail(completed, shape.tail_pct) as f64),
            ),
            (
                "setup_s",
                Value::Arr(o.setups.iter().map(|&s| num(s)).collect()),
            ),
            ("errors", strs(errors)),
        ]),
    )])
    .render()
}

/// Writes the traced phase's spans, once, to
/// `.perfbench/spans-<workload>-<seed>.csv` in the working directory:
/// one line per span with its op, name, parent and interval in µs from
/// the first span.
pub fn write_spans(args: &Args, spans: &[Span]) -> Result<(), String> {
    let Some(t0) = spans.iter().map(|s| s.start).min() else {
        return Ok(());
    };
    let mut text = String::from("op,name,parent,start_us,end_us\n");
    for s in spans {
        let parent = if s.name == OP_SPAN { "" } else { OP_SPAN };
        let us = |t: std::time::Instant| (t - t0).as_secs_f64() * 1e6;
        let _ = writeln!(
            text,
            "{},{},{parent},{:.3},{:.3}",
            s.op,
            s.name,
            us(s.start),
            us(s.end)
        );
    }
    let dir = std::path::Path::new(".perfbench");
    let path = dir.join(format!("spans-{}-{}.csv", args.workload, args.seed));
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, text))
        .map_err(|e| format!("writing {}: {e}", path.display()))
}
