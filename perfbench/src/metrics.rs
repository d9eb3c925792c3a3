//! The metric catalogue: every name the benchmark reports, with its unit.
//! `BENCHMARK.json` lists the same names; a test keeps the two in step.

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("ops_per_s", "op/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("setup_s", "s"),
    ("peak_mem_mb", "MiB"),
];

/// Layer-call spans of every workload, with the unit of their per-op time.
pub fn layer_spans() -> impl Iterator<Item = (&'static str, &'static str)> {
    let sweep = crate::sweep::LAYERS.into_iter().map(|l| (l, "ms"));
    let faulted = crate::faulted::LAYERS.into_iter().map(|l| (l, "us"));
    let fleet = crate::fleet::LAYERS.into_iter().map(|l| (l, "us"));
    sweep.chain(faulted).chain(fleet)
}

/// Per-op counts read from the program's `hetero_obs` counters:
/// `(metric, counter)`.
pub const COUNTERS: [(&str, &str); 11] = [
    ("par.pool.jobs_per_op", "par.pool.jobs"),
    ("par.pool.park_wakes_per_op", "par.pool.park_wakes"),
    ("xbatch.eval_per_op", "xbatch.eval"),
    ("xbatch.ragged_fallback_per_op", "xbatch.ragged_fallback"),
    ("faults.replans_per_op", "faults.replans"),
    (
        "protocol.exchange.transfers_per_op",
        "protocol.exchange.transfers",
    ),
    (
        "protocol.coded.decode_failures_per_op",
        "protocol.coded.decode_failures",
    ),
    ("xscan.insert_per_op", "xscan.insert"),
    ("xscan.delete_per_op", "xscan.delete"),
    ("xscan.replace_per_op", "xscan.replace"),
    (
        "select.bnb.nodes_visited_per_op",
        "select.bnb.nodes_visited",
    ),
];

/// Per-layer metrics other than span times and counter rates.
pub const DERIVED: [(&str, &str); 7] = [
    ("par.cpu_per_wall", "ratio"),
    ("select.bnb.pruned_frac", "ratio"),
    ("fault_exec.work_fraction", "ratio"),
    ("replan.work_fraction", "ratio"),
    ("exchange.work_fraction", "ratio"),
    ("coded.work_fraction", "ratio"),
    ("failed_frac", "ratio"),
];

/// The benchmark's own overheads, reported by every traced run.
pub const BENCH: [(&str, &str); 2] = [
    ("bench.glue_frac", "ratio"),
    ("bench.trace_overhead", "ratio"),
];

/// Every per-layer metric `(name, unit)` in catalogue order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for (span, unit) in layer_spans() {
        out.push((format!("{span}.{unit}_per_op"), unit));
        out.push((format!("{span}.share"), "ratio"));
    }
    out.extend(COUNTERS.iter().map(|&(m, _)| (m.to_string(), "count")));
    out.extend(DERIVED.iter().map(|&(m, u)| (m.to_string(), u)));
    out.extend(BENCH.iter().map(|&(m, u)| (m.to_string(), u)));
    out
}

/// Per-layer metrics that must repeat exactly for a fixed seed: every
/// count and outcome except the scheduling-dependent `par.*` ones.
pub fn exact(name: &str) -> bool {
    let counted = COUNTERS.iter().chain(&DERIVED).any(|&(m, _)| m == name);
    counted && !name.starts_with("par.")
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_obs::json::{parse, Value};

    fn names(v: &Value, key: &str) -> Vec<(String, String)> {
        let Some(Value::Arr(items)) = v.get(key) else {
            panic!("BENCHMARK.json has no {key} list");
        };
        items
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = parse(&text).expect("valid JSON");
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names(&doc, "end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(names(&doc, "per_layer"), layers);
    }

    #[test]
    fn registered_counters_only() {
        for (_, counter) in COUNTERS {
            assert!(hetero_obs::counters::is_registered(counter), "{counter}");
        }
        assert!(hetero_obs::counters::is_registered(
            "select.bnb.nodes_pruned"
        ));
    }

    #[test]
    fn pool_counts_and_times_are_not_exact() {
        assert!(exact("xbatch.eval_per_op"));
        assert!(exact("coded.work_fraction"));
        assert!(!exact("par.pool.jobs_per_op"));
        assert!(!exact("par.cpu_per_wall"));
        assert!(!exact("exec.execute.us_per_op"));
    }
}
