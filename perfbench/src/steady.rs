//! The steadiness report: runs every workload several times, alternating
//! workloads, each run in a fresh process with its own seed, and prints
//! each end-to-end metric's median, quartiles and spreads. It then runs
//! every workload traced twice on one seed and checks that the per-layer
//! counts repeat exactly.

use std::process::{Command, Stdio};

use hetero_obs::json::{parse, Value};

use crate::measure::{median, quartiles};
use crate::{metrics, WORKLOADS};

/// Seconds of each traced run of the count-repeat check; the counts come
/// from a fixed op range, so the length does not change them.
const TRACED_SECONDS: &str = "2";

/// What one child run printed.
struct Run {
    correct: bool,
    failed: f64,
    metrics: Vec<(String, f64)>,
    record: Value,
}

impl Run {
    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|m| m.1)
    }

    fn record_num(&self, key: &str) -> f64 {
        self.record
            .get("record")
            .and_then(|r| r.get(key))
            .and_then(Value::as_f64)
            .unwrap_or(f64::NAN)
    }
}

fn child(workload: &str, seed: u64, seconds: &str, trace: bool) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let seed = seed.to_string();
    let trace = if trace { "1" } else { "0" };
    let args = [
        "--workload",
        workload,
        "--seed",
        &seed,
        "--seconds",
        seconds,
        "--trace",
        trace,
    ];
    let out = Command::new(exe)
        .args(args)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = text.lines().collect();
    if !out.status.success() || lines.len() < 2 {
        return Err(format!("{workload} seed {seed} exited with {}", out.status));
    }
    let result = parse(lines[lines.len() - 1])?;
    let record = parse(lines[lines.len() - 2])?;
    let Some(Value::Obj(metrics)) = result.get("metrics") else {
        return Err(format!("{workload}: result has no metrics"));
    };
    let metrics = metrics
        .iter()
        .map(|(k, v)| {
            (
                k.clone(),
                v.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN),
            )
        })
        .collect();
    Ok(Run {
        correct: result.get("correct") == Some(&Value::Bool(true)),
        failed: result
            .get("failed")
            .and_then(Value::as_f64)
            .unwrap_or(f64::NAN),
        metrics,
        record,
    })
}

/// Runs per workload, seconds per run and first seed when no flag names
/// them: the settings of the runs `BENCHMARK.json`'s bounds come from.
const DEFAULTS: (usize, &str, u64) = (10, "30", 101);

fn parse_flags(argv: &[String]) -> Result<(usize, String, u64), String> {
    let (mut runs, mut seconds, mut seed) = (DEFAULTS.0, DEFAULTS.1.to_string(), DEFAULTS.2);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad {flag} {value:?}");
        match flag.as_str() {
            "--runs" => runs = value.parse().ok().filter(|&r| r >= 2).ok_or_else(bad)?,
            "--seconds" => {
                value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or_else(bad)?;
                seconds = value.clone();
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok((runs, seconds, seed))
}

/// Runs the report; fails when any run failed or a count did not repeat.
pub fn main(argv: &[String]) -> Result<(), String> {
    let (runs, seconds, seed) = parse_flags(argv)?;
    let mut all: Vec<Vec<Run>> = WORKLOADS.iter().map(|_| Vec::new()).collect();
    for r in 0..runs {
        for (w, workload) in WORKLOADS.iter().enumerate() {
            let run = child(workload, seed + r as u64, &seconds, false)?;
            let values: Vec<String> = metrics::END_TO_END
                .iter()
                .map(|&(name, _)| format!("{name}={:.6}", run.metric(name).unwrap_or(f64::NAN)))
                .collect();
            println!(
                "run {workload} seed {} {}",
                seed + r as u64,
                values.join(" ")
            );
            all[w].push(run);
        }
    }

    let mut ok = true;
    println!(
        "steadiness: {runs} runs × {seconds} s per workload, seeds {seed}..{}",
        seed + runs as u64 - 1
    );
    println!(
        "{:<8} {:<14} {:>12} {:>12} {:>12} {:>9} {:>9}",
        "workload", "metric", "median", "q1", "q3", "iqr/med", "range/med"
    );
    for (workload, runs) in WORKLOADS.iter().zip(&all) {
        for &(name, unit) in &metrics::END_TO_END {
            let mut v: Vec<f64> = runs.iter().filter_map(|r| r.metric(name)).collect();
            v.sort_by(f64::total_cmp);
            let (q1, q3) = quartiles(&v);
            let med = median(&v);
            let range = v[v.len() - 1] - v[0];
            println!(
                "{workload:<8} {:<14} {med:>12.4} {q1:>12.4} {q3:>12.4} {:>9.4} {:>9.4}",
                format!("{name} ({unit})"),
                (q3 - q1) / med,
                range / med
            );
        }
        let failed: f64 = runs.iter().map(|r| r.failed).sum();
        let incorrect = runs.iter().filter(|r| !r.correct).count();
        let min = |key: &str| {
            runs.iter()
                .map(|r| r.record_num(key))
                .fold(f64::INFINITY, f64::min)
        };
        println!(
            "{workload:<8} failed ops {failed}, incorrect runs {incorrect}, fewest ops {}, fewest samples beyond the tail {}, shortest setup_s {:.3}",
            min("ops"),
            min("beyond_tail"),
            runs.iter().filter_map(|r| r.metric("setup_s")).fold(f64::INFINITY, f64::min)
        );
        ok &= failed == 0.0 && incorrect == 0 && min("beyond_tail") >= 10.0;
    }

    println!("count repeat (two traced runs, seed {seed}; par.* excluded):");
    for workload in WORKLOADS {
        let a = child(workload, seed, TRACED_SECONDS, true)?;
        let b = child(workload, seed, TRACED_SECONDS, true)?;
        let differ: Vec<&str> = a
            .metrics
            .iter()
            .filter(|(name, _)| metrics::exact(name))
            .filter(|(name, v)| b.metric(name).map(f64::to_bits) != Some(v.to_bits()))
            .map(|(name, _)| name.as_str())
            .collect();
        let exact = a.metrics.iter().filter(|(n, _)| metrics::exact(n)).count();
        if differ.is_empty() && a.correct && b.correct {
            println!("{workload:<8} all {exact} counts identical");
        } else {
            ok = false;
            println!("{workload:<8} differ: {}", differ.join(", "));
        }
    }
    if ok {
        Ok(())
    } else {
        Err("steadiness: failures or unrepeated counts (see above)".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_run_length_is_the_benchmarks() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let run_seconds = parse(&text)
            .expect("valid JSON")
            .get("run_seconds")
            .and_then(Value::as_f64);
        assert_eq!(run_seconds, DEFAULTS.1.parse().ok());
        assert_eq!(
            parse_flags(&[]),
            Ok((DEFAULTS.0, DEFAULTS.1.into(), DEFAULTS.2))
        );
        assert!(parse_flags(&["--workloads".into(), "sweep".into()]).is_err());
    }
}
