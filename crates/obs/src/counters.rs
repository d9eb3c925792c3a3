//! Statically allocated hot-path counters.
//!
//! The innermost solver loops cannot afford a mutex or a map lookup per
//! event — an O(1) `XScan::replace` query runs in ~10 ns. Each hot site
//! therefore gets a dedicated static [`HotCounter`]: when observability is
//! disabled a bump is one relaxed atomic load plus a predictable branch;
//! when enabled it is one relaxed `fetch_add`. The global
//! [`snapshot`](crate::snapshot) folds these statics into the dynamic
//! collector's view under their stable metric names.

use std::sync::atomic::{AtomicU64, Ordering};

/// A named, statically allocated event counter.
#[derive(Debug)]
pub struct HotCounter {
    name: &'static str,
    hits: AtomicU64,
}

impl HotCounter {
    /// A zeroed counter with a stable metric name.
    pub const fn new(name: &'static str) -> Self {
        HotCounter {
            name,
            hits: AtomicU64::new(0),
        }
    }

    /// The metric name reported in snapshots.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds one event when observability is enabled.
    #[inline]
    pub fn bump(&self) {
        if crate::enabled() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Adds `n` events when observability is enabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.hits.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The current count (readable regardless of the enable flag).
    pub fn get(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Zeroes the counter (used by [`reset`](crate::reset)).
    pub(crate) fn clear(&self) {
        self.hits.store(0, Ordering::Relaxed);
    }
}

/// `XScan::replace` — O(1) single-ρ replacement queries issued.
pub static XENGINE_REPLACE: HotCounter = HotCounter::new("xengine.replace");
/// `XScan::commit` — replacements committed into the scan.
pub static XENGINE_COMMIT: HotCounter = HotCounter::new("xengine.commit");
/// `XScan::rebuild` — full O(n) prefix/suffix rebuilds.
pub static XENGINE_REBUILD: HotCounter = HotCounter::new("xengine.rebuild");
/// Subsets visited by the Gray-code exhaustive subset search.
pub static SELECTION_SUBSET_NODES: HotCounter = HotCounter::new("selection.subset_nodes");
/// Fault specs compiled into an execution by `execute_with_faults`.
pub static FAULTS_INJECTED: HotCounter = HotCounter::new("faults.injected");
/// Suffix re-optimizations performed by the adaptive replanner.
pub static FAULTS_REPLANS: HotCounter = HotCounter::new("faults.replans");
/// Result messages lost in transit (before any retransmission).
pub static FAULTS_LOST_MESSAGES: HotCounter = HotCounter::new("faults.lost_messages");
/// Sends the replanner skipped because the target was known-crashed or
/// the remaining hedged window could not fit them.
pub static FAULTS_SKIPPED_SENDS: HotCounter = HotCounter::new("faults.skipped_sends");
/// Profiles evaluated through the batched X-measure kernel.
pub static XBATCH_EVAL: HotCounter = HotCounter::new("xbatch.eval");
/// Profiles that fell back to the scalar path because their batch was
/// ragged (mixed lengths).
pub static XBATCH_RAGGED_FALLBACK: HotCounter = HotCounter::new("xbatch.ragged_fallback");
/// Chunk-stealing jobs dispatched to the persistent worker pool.
pub static PAR_POOL_JOBS: HotCounter = HotCounter::new("par.pool.jobs");
/// Decision nodes expanded by the branch-and-bound subset search.
pub static SELECT_BNB_NODES_VISITED: HotCounter = HotCounter::new("select.bnb.nodes_visited");
/// Branches cut by the branch-and-bound search (admissible bound plus
/// dominance tests), each eliminating a whole subtree of subsets.
pub static SELECT_BNB_NODES_PRUNED: HotCounter = HotCounter::new("select.bnb.nodes_pruned");
/// Workers inserted into a streaming churn scan.
pub static XSCAN_INSERT: HotCounter = HotCounter::new("xscan.insert");
/// Workers deleted from a streaming churn scan.
pub static XSCAN_DELETE: HotCounter = HotCounter::new("xscan.delete");
/// In-place speed rescales applied to a streaming churn scan
/// (`ChurnScan::replace`) — completes the churn op mix with
/// `xscan.insert`/`xscan.delete`.
pub static XSCAN_REPLACE: HotCounter = HotCounter::new("xscan.replace");
/// Times a parked pool worker was woken by a job becoming available
/// (condvar wait returning with work) — a high ratio of park-wakes to
/// jobs means the queue keeps draining dry.
pub static PAR_POOL_PARK_WAKES: HotCounter = HotCounter::new("par.pool.park_wakes");
/// Residual-load transfers committed by the work-exchange executor.
pub static PROTOCOL_EXCHANGE_TRANSFERS: HotCounter = HotCounter::new("protocol.exchange.transfers");
/// Work-exchange runs that degraded to adaptive replanning because a
/// straggler found no donor.
pub static PROTOCOL_EXCHANGE_DEGRADED: HotCounter = HotCounter::new("protocol.exchange.degraded");
/// Coded executions whose surviving shares reached the decode threshold.
pub static PROTOCOL_CODED_DECODES: HotCounter = HotCounter::new("protocol.coded.decodes");
/// Coded executions where fewer than k shares survived — the job was
/// undecodable and every returned share stranded.
pub static PROTOCOL_CODED_DECODE_FAILURES: HotCounter =
    HotCounter::new("protocol.coded.decode_failures");
/// Baseline plans sized by the fallback bisection because the ulp walk
/// from `L/T(u)` hit its step bound or the bisection would not have
/// landed on the walk's answer.
pub static PROTOCOL_BASELINE_FALLBACKS: HotCounter = HotCounter::new("protocol.baseline.fallbacks");

/// Every static hot counter, in reporting order.
pub fn all() -> [&'static HotCounter; 22] {
    [
        &XENGINE_REPLACE,
        &XENGINE_COMMIT,
        &XENGINE_REBUILD,
        &SELECTION_SUBSET_NODES,
        &FAULTS_INJECTED,
        &FAULTS_REPLANS,
        &FAULTS_LOST_MESSAGES,
        &FAULTS_SKIPPED_SENDS,
        &XBATCH_EVAL,
        &XBATCH_RAGGED_FALLBACK,
        &PAR_POOL_JOBS,
        &SELECT_BNB_NODES_VISITED,
        &SELECT_BNB_NODES_PRUNED,
        &XSCAN_INSERT,
        &XSCAN_DELETE,
        &XSCAN_REPLACE,
        &PAR_POOL_PARK_WAKES,
        &PROTOCOL_EXCHANGE_TRANSFERS,
        &PROTOCOL_EXCHANGE_DEGRADED,
        &PROTOCOL_CODED_DECODES,
        &PROTOCOL_CODED_DECODE_FAILURES,
        &PROTOCOL_BASELINE_FALLBACKS,
    ]
}

/// The metric-name registry: every counter, gauge, value, histogram,
/// sketch, and span name library code may emit. The `hetero-check`
/// `counter-name-discipline` lint parses this list straight out of this
/// source file and rejects any obs call in lib code whose literal name
/// is not registered — so adding an instrumentation site means adding
/// its name here, where the dashboards and `obsdiff` baselines can see
/// it. (Binary crates — the CLI's `cmd.*` spans, the experiments'
/// `trials.*` counts — are exempt; this is the *library* contract.)
pub const REGISTRY: &[&str] = &[
    // Static hot counters (kept in sync by `registry_covers_all_statics`).
    "xengine.replace",
    "xengine.commit",
    "xengine.rebuild",
    "selection.subset_nodes",
    "faults.injected",
    "faults.replans",
    "faults.lost_messages",
    "faults.skipped_sends",
    "xbatch.eval",
    "xbatch.ragged_fallback",
    "par.pool.jobs",
    "select.bnb.nodes_visited",
    "select.bnb.nodes_pruned",
    "xscan.insert",
    "xscan.delete",
    "xscan.replace",
    "par.pool.park_wakes",
    "protocol.exchange.transfers",
    "protocol.exchange.degraded",
    "protocol.coded.decodes",
    "protocol.coded.decode_failures",
    "protocol.baseline.fallbacks",
    // Simulator and protocol dynamic metrics.
    "sim.events",
    "sim.queue_high_water",
    "protocol.util.server",
    "protocol.util.channel",
    "protocol.util.worker",
    "protocol.send",
    "protocol.compute",
    "protocol.receive",
    "protocol.wait",
    "protocol.other",
    // Replanner metrics.
    "faults.replan",
    "faults.replan.suffix_depth",
    // Protocol-family metrics (work exchange, MDS coding).
    "protocol.exchange.transfer_work",
    "protocol.coded.overhead",
    // Baseline-plan sizing: DES probes per sized plan.
    "protocol.baseline.probes",
    // Worker-pool metrics.
    "par.pool.map",
    "par.pool.queue_depth",
    // Subset-selection metrics.
    "select.bnb",
    "select.bnb.nodes",
    // Numeric-kernel diagnostics.
    "xengine.kahan_comp_log10",
    // Collector self-diagnostics.
    "obs.error.hist_range",
];

/// `true` iff `name` is a registered metric name.
pub fn is_registered(name: &str) -> bool {
    REGISTRY.contains(&name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable_and_distinct() {
        let names: Vec<&str> = all().iter().map(|c| c.name()).collect();
        assert_eq!(
            names,
            [
                "xengine.replace",
                "xengine.commit",
                "xengine.rebuild",
                "selection.subset_nodes",
                "faults.injected",
                "faults.replans",
                "faults.lost_messages",
                "faults.skipped_sends",
                "xbatch.eval",
                "xbatch.ragged_fallback",
                "par.pool.jobs",
                "select.bnb.nodes_visited",
                "select.bnb.nodes_pruned",
                "xscan.insert",
                "xscan.delete",
                "xscan.replace",
                "par.pool.park_wakes",
                "protocol.exchange.transfers",
                "protocol.exchange.degraded",
                "protocol.coded.decodes",
                "protocol.coded.decode_failures",
                "protocol.baseline.fallbacks"
            ]
        );
    }

    #[test]
    fn registry_covers_all_statics() {
        for c in all() {
            assert!(
                is_registered(c.name()),
                "static counter `{}` missing from REGISTRY",
                c.name()
            );
        }
        // No duplicates — the registry is also documentation.
        let mut sorted: Vec<&str> = REGISTRY.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), REGISTRY.len(), "duplicate registry entry");
        assert!(!is_registered("not.a.metric"));
    }

    #[test]
    fn disabled_bump_is_a_no_op() {
        // A private local counter exercises the mechanics without racing
        // the global enable flag owned by other tests.
        static LOCAL: HotCounter = HotCounter::new("test.local");
        let before = LOCAL.get();
        if !crate::enabled() {
            LOCAL.bump();
            LOCAL.add(5);
            assert_eq!(LOCAL.get(), before, "bumps ignored while disabled");
        }
    }
}
