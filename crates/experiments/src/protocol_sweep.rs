//! Experiment E22 (extension) — **protocol families under faults:
//! oblivious vs adaptive vs work exchange vs MDS coding**.
//!
//! E18 established that boundary-granularity replanning dominates the
//! oblivious executor once faults appear. This experiment widens the
//! comparison to the two robustness families the related work proposes —
//! peer-to-peer *work exchange* (Attia & Tandon) and *(n, k) MDS-coded*
//! assignment (Reisizadeh et al.) — and runs all four protocols through
//! **identical** seeded fault plans on a grid of crash probability ×
//! straggler severity × cluster heterogeneity × hedge margin:
//!
//! * **oblivious** — the optimal FIFO plan, no failure reaction;
//! * **adaptive** — suffix replanning with a hedge margin (E18's winner);
//! * **exchange** — stragglers shed their residual load to the fastest
//!   healthy peer; plans are built against the hedged lifespan
//!   `L / (1 + margin)` (the knife-edge plan leaves zero slack for the
//!   transfer overhead), and lost results are retransmitted until they
//!   land — exchange never abandons work;
//! * **coded** — work is provisioned on all n workers but the certified
//!   job needs only the k smallest shares; lost results are never
//!   retransmitted, the code absorbs them.
//!
//! Each cell reports per-family throughput fractions and deadline-miss
//! rates plus a **dominance frontier**: the set of families not weakly
//! dominated on (miss rate ↓, fraction ↑) by any other. The headline
//! claim (pinned by a test): under result-message loss the coded family
//! strictly beats the *unhedged* adaptive replanner on miss rate — the
//! replanner cannot see a loss until the retransmit lands late, while
//! the decoder never needed the destroyed share. Hedged replanning buys
//! the slack back, so the margin axis exposes a genuine trade: coding
//! is insensitive to loss at a fixed provisioning overhead, replanning
//! is free of overhead but lives on its hedge.

use hetero_clustergen::{rng_from_seed, GenConfig, Shape};
use hetero_core::{xmeasure, Params};
use hetero_faults::{FaultConfig, FaultPlan};
use hetero_par::seed;
use hetero_protocol::{alloc, coded, exchange, fault_exec, replan, ExchangePolicy};

use crate::render::{fmt_f, Table};
use crate::trials::{run_grid, Cell};

/// Aggregates for one (crash probability, straggler factor, speed floor)
/// cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolSweepRow {
    /// Per-worker crash probability.
    pub crash_p: f64,
    /// Chronic-straggler slowdown factor.
    pub straggler_factor: f64,
    /// Speed floor `lo` of the sampled profiles (lower = more
    /// heterogeneous cluster).
    pub lo: f64,
    /// Hedge margin the adaptive arm replans with (the exchange plan is
    /// built against the same hedged lifespan).
    pub margin: f64,
    /// Mean effective-throughput fraction (work back by `L` over the
    /// fault-free optimum) of the oblivious executor.
    pub oblivious_fraction: f64,
    /// Same, for the adaptive replanner.
    pub adaptive_fraction: f64,
    /// Same, for the work-exchange family.
    pub exchange_fraction: f64,
    /// Same, for the MDS-coded family (certified job only).
    pub coded_fraction: f64,
    /// Deadline-miss rate of the oblivious executor.
    pub oblivious_miss_rate: f64,
    /// Same, for the adaptive replanner.
    pub adaptive_miss_rate: f64,
    /// Same, for the work-exchange family.
    pub exchange_miss_rate: f64,
    /// Same, for the MDS-coded family (a miss is failing to decode the
    /// certified job by `L`).
    pub coded_miss_rate: f64,
    /// Mean residual-load transfers per exchange run.
    pub mean_transfers: f64,
    /// Fraction of exchange runs that degraded to adaptive replanning
    /// because no donor was available.
    pub exchange_degraded_rate: f64,
    /// Fraction of coded runs in which fewer than k shares survived.
    pub decode_failure_rate: f64,
    /// Families not weakly dominated on (miss rate, fraction), joined
    /// with `+` in oblivious/adaptive/exchange/coded order.
    pub frontier: String,
}

/// Configuration.
#[derive(Debug, Clone)]
pub struct ProtocolSweepConfig {
    /// Model parameters.
    pub params: Params,
    /// Cluster size.
    pub n: usize,
    /// Lifespan every family is measured against.
    pub lifespan: f64,
    /// Per-worker crash probabilities to sweep.
    pub crash_ps: Vec<f64>,
    /// Chronic-straggler severities to sweep (each > 1 so every trial
    /// has a detectable fault).
    pub straggler_factors: Vec<f64>,
    /// Profile speed floors to sweep (heterogeneity axis; lower `lo`
    /// widens the ρ spread).
    pub spreads: Vec<f64>,
    /// Per-worker result-loss probability (shared by every cell; this
    /// is the regime that separates coding from replanning).
    pub loss_p: f64,
    /// Maximum consecutive losses per afflicted worker.
    pub loss_max: u32,
    /// Hedge margins to sweep for the adaptive arm and the exchange
    /// plan/fallback (0 = knife-edge, no slack for retransmits).
    pub margins: Vec<f64>,
    /// Decode-threshold slack: `k = n - k_slack` shares suffice.
    pub k_slack: usize,
    /// Residual-transfer budget per exchange run.
    pub exchange_rounds: u32,
    /// Trials per cell.
    pub trials: usize,
    /// Root seed.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
}

impl Default for ProtocolSweepConfig {
    fn default() -> Self {
        ProtocolSweepConfig {
            params: Params::paper_table1(),
            n: 8,
            lifespan: 600.0,
            crash_ps: vec![0.0, 0.1, 0.3],
            straggler_factors: vec![1.5, 4.0],
            spreads: vec![0.9, 0.3],
            loss_p: 0.2,
            loss_max: 1,
            margins: vec![0.0, 0.1],
            k_slack: 4,
            exchange_rounds: 4,
            trials: 60,
            seed: 0x9E22,
            threads: hetero_par::default_threads(),
        }
    }
}

/// Results.
#[derive(Debug, Clone)]
pub struct ProtocolSweep {
    /// Configuration used.
    pub config: ProtocolSweepConfig,
    /// One row per swept cell, in `crash_ps × straggler_factors ×
    /// spreads × margins` order.
    pub rows: Vec<ProtocolSweepRow>,
}

/// Per-trial metrics for the four families.
struct Trial {
    fractions: [f64; 4],
    misses: [bool; 4],
    transfers: usize,
    exchange_degraded: bool,
    decode_failed: bool,
}

/// One trial of one cell: a fresh profile, one shared fault plan, four
/// executions.
fn one_trial(
    cfg: &ProtocolSweepConfig,
    crash_p: f64,
    factor: f64,
    lo: f64,
    margin: f64,
    trial_seed: u64,
) -> Trial {
    let mut rng = rng_from_seed(seed::derive(trial_seed, 1));
    let truth = hetero_clustergen::random_profile(
        &mut rng,
        GenConfig::new(cfg.n).with_lo(lo),
        Shape::Uniform,
    );
    let optimum = xmeasure::work(&cfg.params, &truth, cfg.lifespan);

    // One plan of failures, replayed identically against every family.
    let faults = FaultPlan::sample(
        &FaultConfig {
            crash_p,
            straggler_count: 1,
            straggler_factor: factor,
            loss_p: cfg.loss_p,
            loss_max: cfg.loss_max,
            ..FaultConfig::default()
        },
        cfg.n,
        cfg.lifespan,
        seed::derive(trial_seed, 2),
    )
    .expect("valid fault config");

    let plan = alloc::fifo_plan(&cfg.params, &truth, cfg.lifespan).expect("feasible");
    let oblivious =
        fault_exec::execute_with_faults(&cfg.params, &truth, &plan, &faults).expect("runs");
    let hedge = replan::HedgePolicy {
        margin,
        ..replan::HedgePolicy::default()
    };
    let adaptive =
        replan::execute_adaptive(&cfg.params, &truth, &plan, &faults, &hedge).expect("runs");

    // The exchange arm plans against the hedged lifespan so the transfer
    // overhead (extra unpack/pack plus the parcel transit) fits inside L.
    let hedged_plan =
        alloc::fifo_plan(&cfg.params, &truth, cfg.lifespan / (1.0 + margin)).expect("feasible");
    let xchg = exchange::execute_exchange(
        &cfg.params,
        &truth,
        &hedged_plan,
        &faults,
        &ExchangePolicy {
            max_rounds: cfg.exchange_rounds,
            fallback: hedge,
        },
    )
    .expect("runs");

    let k = cfg.n.saturating_sub(cfg.k_slack).max(1);
    let assignment = coded::mds_assignment(&cfg.params, &truth, cfg.lifespan, k).expect("valid k");
    let mds = coded::execute_coded(&cfg.params, &truth, &assignment, &faults).expect("runs");

    Trial {
        fractions: [
            oblivious.work_completed_by(cfg.lifespan) / optimum,
            adaptive.work_completed_by(cfg.lifespan) / optimum,
            xchg.work_completed_by(cfg.lifespan) / optimum,
            mds.work_completed_by(cfg.lifespan) / optimum,
        ],
        misses: [
            oblivious.missed_deadline(cfg.lifespan),
            adaptive.missed_deadline(cfg.lifespan),
            xchg.missed_deadline(cfg.lifespan),
            mds.missed_deadline(cfg.lifespan),
        ],
        // A degraded run's appended packages are top-ups, not trades.
        transfers: xchg.appended().iter().filter(|p| p.from.is_some()).count(),
        exchange_degraded: xchg.degraded,
        decode_failed: mds.decode().is_err(),
    }
}

/// Family display names, in metric-array order.
const FAMILIES: [&str; 4] = ["oblivious", "adaptive", "exchange", "coded"];

/// The dominance frontier over (miss rate ↓, fraction ↑): family `a`
/// weakly dominates `b` when it is no worse on both axes and strictly
/// better on at least one.
fn frontier(misses: &[f64; 4], fractions: &[f64; 4]) -> String {
    let dominated = |b: usize| {
        (0..4).any(|a| {
            a != b
                && misses[a] <= misses[b]
                && fractions[a] >= fractions[b]
                && (misses[a] < misses[b] || fractions[a] > fractions[b])
        })
    };
    let survivors: Vec<&str> = (0..4)
        .filter(|&i| !dominated(i))
        .map(|i| FAMILIES[i])
        .collect();
    survivors.join("+")
}

/// Runs the sweep.
pub fn run(config: &ProtocolSweepConfig) -> ProtocolSweep {
    // Grid points (crash p, straggler factor, speed floor, margin), keyed
    // 1, 2, … in grid order.
    let mut cells = Vec::new();
    for &crash_p in &config.crash_ps {
        for &factor in &config.straggler_factors {
            for &lo in &config.spreads {
                for &margin in &config.margins {
                    cells.push(Cell {
                        key: cells.len() as u64 + 1,
                        block: 1,
                        data: (crash_p, factor, lo, margin),
                    });
                }
            }
        }
    }
    let shared = config.clone();
    let results = run_grid(
        "trials.protocol_sweep",
        config.seed,
        &cells,
        config.trials,
        config.threads,
        move |&(crash_p, factor, lo, margin), seeds| {
            seeds
                .iter()
                .map(|&s| one_trial(&shared, crash_p, factor, lo, margin, s))
                .collect()
        },
    );
    let rows = cells
        .iter()
        .zip(results)
        .map(|(cell, trials)| {
            let (crash_p, factor, lo, margin) = cell.data;
            let n = trials.len() as f64;
            let mean_fraction = |i: usize| trials.iter().map(|t| t.fractions[i]).sum::<f64>() / n;
            let miss_rate = |i: usize| trials.iter().filter(|t| t.misses[i]).count() as f64 / n;
            let fractions = [
                mean_fraction(0),
                mean_fraction(1),
                mean_fraction(2),
                mean_fraction(3),
            ];
            let misses = [miss_rate(0), miss_rate(1), miss_rate(2), miss_rate(3)];
            ProtocolSweepRow {
                crash_p,
                straggler_factor: factor,
                lo,
                margin,
                oblivious_fraction: fractions[0],
                adaptive_fraction: fractions[1],
                exchange_fraction: fractions[2],
                coded_fraction: fractions[3],
                oblivious_miss_rate: misses[0],
                adaptive_miss_rate: misses[1],
                exchange_miss_rate: misses[2],
                coded_miss_rate: misses[3],
                mean_transfers: trials.iter().map(|t| t.transfers as f64).sum::<f64>() / n,
                exchange_degraded_rate: trials.iter().filter(|t| t.exchange_degraded).count()
                    as f64
                    / n,
                decode_failure_rate: trials.iter().filter(|t| t.decode_failed).count() as f64 / n,
                frontier: frontier(&misses, &fractions),
            }
        })
        .collect();
    ProtocolSweep {
        config: config.clone(),
        rows,
    }
}

impl ProtocolSweep {
    /// ASCII rendering.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "Protocol families under faults — n = {}, k = {}, loss p = {}, {} trials/cell",
                self.config.n,
                self.config.n.saturating_sub(self.config.k_slack).max(1),
                self.config.loss_p,
                self.config.trials
            ),
            &[
                "crash p",
                "straggle ×",
                "lo",
                "margin",
                "obliv %",
                "adapt %",
                "xchg %",
                "coded %",
                "obliv miss",
                "adapt miss",
                "xchg miss",
                "coded miss",
                "xfers",
                "frontier",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                fmt_f(r.crash_p, 2),
                fmt_f(r.straggler_factor, 1),
                fmt_f(r.lo, 2),
                fmt_f(r.margin, 2),
                fmt_f(100.0 * r.oblivious_fraction, 2),
                fmt_f(100.0 * r.adaptive_fraction, 2),
                fmt_f(100.0 * r.exchange_fraction, 2),
                fmt_f(100.0 * r.coded_fraction, 2),
                fmt_f(r.oblivious_miss_rate, 3),
                fmt_f(r.adaptive_miss_rate, 3),
                fmt_f(r.exchange_miss_rate, 3),
                fmt_f(r.coded_miss_rate, 3),
                fmt_f(r.mean_transfers, 2),
                r.frontier.clone(),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ProtocolSweepConfig {
        ProtocolSweepConfig {
            n: 6,
            crash_ps: vec![0.0, 0.2],
            straggler_factors: vec![3.0],
            spreads: vec![0.5],
            k_slack: 3,
            trials: 30,
            seed: 17,
            threads: 4,
            ..ProtocolSweepConfig::default()
        }
    }

    #[test]
    fn coded_beats_adaptive_under_result_loss() {
        // The acceptance claim: with result-message loss in the fault
        // vocabulary, at least one cell shows the coded family strictly
        // below adaptive replanning on miss rate. (The mechanism: the
        // replanner cannot see a loss until the retransmit arrives late,
        // while the decoder never needed the destroyed share.)
        let r = run(&quick());
        assert!(
            r.rows
                .iter()
                .any(|row| row.coded_miss_rate < row.adaptive_miss_rate),
            "no cell had coded strictly beat adaptive: {:?}",
            r.rows
                .iter()
                .map(|row| (row.coded_miss_rate, row.adaptive_miss_rate))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn every_frontier_is_nonempty_and_lists_known_families() {
        let r = run(&quick());
        for row in &r.rows {
            assert!(!row.frontier.is_empty(), "empty frontier at {row:?}");
            for name in row.frontier.split('+') {
                assert!(FAMILIES.contains(&name), "unknown family `{name}`");
            }
        }
    }

    #[test]
    fn the_hedge_margin_is_what_protects_the_replanner() {
        // The flip side of the acceptance claim: with slack to absorb
        // retransmits the hedged replanner never delivers late, while
        // the unhedged one misses whenever a loss lands on its
        // knife-edge schedule.
        let r = run(&quick());
        for row in &r.rows {
            if row.margin > 0.0 {
                assert_eq!(
                    row.adaptive_miss_rate, 0.0,
                    "hedged replanner delivered late at crash_p = {}",
                    row.crash_p
                );
            } else {
                assert!(
                    row.adaptive_miss_rate > 0.0,
                    "unhedged replanner absorbed every loss at crash_p = {}",
                    row.crash_p
                );
            }
        }
    }

    #[test]
    fn exchange_stays_useful_under_pure_straggling() {
        // With no crashes and no losses the exchange family's hedged
        // plan plus residual transfers should miss no more often than
        // the oblivious knife-edge plan, and some trials should trade.
        let cfg = ProtocolSweepConfig {
            loss_p: 0.0,
            crash_ps: vec![0.0],
            ..quick()
        };
        let r = run(&cfg);
        for row in &r.rows {
            assert!(
                row.exchange_miss_rate <= row.oblivious_miss_rate,
                "exchange {} > oblivious {}",
                row.exchange_miss_rate,
                row.oblivious_miss_rate
            );
        }
        assert!(
            r.rows.iter().any(|row| row.mean_transfers > 0.0),
            "no cell recorded a residual transfer"
        );
    }

    #[test]
    fn deterministic_across_threads() {
        let mut cfg = quick();
        cfg.trials = 20;
        cfg.threads = 1;
        let a = run(&cfg);
        cfg.threads = 8;
        let b = run(&cfg);
        assert_eq!(a.rows, b.rows);
    }
}
