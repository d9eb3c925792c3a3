//! `hetero-cli` — regenerate every table and figure of the paper.
//!
//! ```text
//! hetero-cli <command> [options]
//!
//! commands:
//!   params                  Tables 1–2: model parameters and A/B values
//!   table3                  Table 3: HECRs of the C1/C2 families
//!   table4                  Table 4: additive-speedup work ratios
//!   fig3                    Figure 3: greedy speedup phase 1 snapshots
//!   fig4                    Figure 4: greedy speedup phase 2 snapshots
//!   variance [--trials N] [--max-n N] [--seed S] [--hard]
//!                           §4.3: variance-predictor bad-pair rates
//!   threshold [--trials N] [--seed S]
//!                           §4.3: the 100%-correct variance-gap θ
//!   minorize                §4 examples: mean misleads, Corollary 1
//!   protocol                Theorems 1–2 on the discrete-event simulator
//!   gantt                   Figures 1–2: action/time diagrams
//!   moments [--trials N]    extension: scoring moment + index predictors
//!   lifo                    Theorem 1 quantified: FIFO vs LIFO vs heuristics
//!   sensitivity             extension: τ sweep across the three regimes
//!   scaling                 extension: §2.5 families up to n = 2¹⁶
//!                           (greedy-round timings: `cargo bench -p
//!                           hetero-bench --bench greedy_scaling`)
//!   majorize-ext [--trials N] [--seed S]
//!                           extension: majorization explains the bad pairs
//!   granularity             extension: integral-task quantization cost
//!   robustness [--trials N] extension: planning under estimation error
//!   faults [--smoke] [--trials N] [--seed S] [--plan FILE]
//!                           extension: fault injection vs adaptive
//!                           replanning (E18); --smoke runs a small,
//!                           CI-sized sweep; --plan replays one pinned
//!                           JSON fault plan through all four protocol
//!                           families instead of sweeping
//!   protocols [--smoke] [--trials N] [--seed S]
//!                           extension: protocol families under faults
//!                           (E22) — oblivious vs adaptive vs work
//!                           exchange vs MDS coding on identical fault
//!                           plans, with per-cell dominance frontiers;
//!                           --smoke runs a small, CI-sized grid
//!   fleet                   extension: fleet sizing vs X saturation
//!   select [--smoke] [--exact --k K --n N]
//!                           extension: exact best-k selection by
//!                           branch-and-bound (E20); the sweep reports
//!                           nodes pruned vs the 2^n enumeration plus a
//!                           10^6-worker compression demo; --exact solves
//!                           one (n, k) instance — any n, far past the
//!                           n = 63 walk cap
//!   critpath [--csv]        extension: E21 causal critical paths —
//!                           oblivious FIFO vs adaptive replanning on the
//!                           E18 fault grid, one seeded trial per cell
//!   all                     everything above with default settings
//!
//!   obsdiff <run-a> <run-b> [--rel R] [--span-rel R] [--quantile-rel R]
//!           [--ignore PREFIX]... [--json]
//!                           perf-regression observatory: diff two
//!                           `--obs-json` streams (or BENCH json
//!                           documents), exit nonzero when any span mean
//!                           or sketch quantile regresses past the noise
//!                           thresholds (counters drift two-sided);
//!                           `--ignore` drops metrics by name prefix
//!                           (e.g. scheduling-dependent pool counters)
//! ```
//!
//! Add `--csv` to any table-producing command to print CSV instead of the
//! aligned ASCII table.
//!
//! `--threads N` caps the worker-pool fan-out of the sweep commands
//! (`variance`, `threshold`, `moments`, `majorize-ext`, `robustness`,
//! `faults`, `protocols`). The default is the `HETERO_THREADS`
//! environment variable when set, else one worker per core; results are
//! bit-identical at every thread count.
//!
//! Observability (see DESIGN.md "Observability"):
//!
//! ```text
//!   --obs                   print a metrics summary + run manifest after
//!                           the command's normal output
//!   --obs-json PATH         write the metric stream as JSON lines
//!                           (one {event, name, value} object per line)
//!   --obs-trace PATH        write a Chrome trace-event JSON file
//!                           (load in Perfetto / chrome://tracing):
//!                           `protocol` exports the Figure 1 execution,
//!                           `gantt` the Figure 2 execution, any other
//!                           command its per-command wall spans
//! ```
//!
//! `--obs-json` and `--obs-trace` imply `--obs` collection.
//!
//! `--numeric {strict|fast}` selects the numeric mode of the batched
//! X-measure kernels (DESIGN.md §17). `strict` (the default) is the
//! bit-reproducible reference; `fast` is the certified divide-free
//! mode, accurate within its documented ulp budget. The chosen mode is
//! recorded in the `--obs` run manifest. Commands built on incremental
//! scans (`protocol`, `select`, …) are strict-only and ignore the flag.

use std::process::ExitCode;

use hetero_core::{NumericMode, Params};
use hetero_experiments::{
    critpath, examples42, fault_sweep, fifo_lifo, fig34, fleet, gantt, granularity,
    majorization_ext, moments_ext, obs_export, protocol_check, protocol_sweep, robustness, scaling,
    selection_sweep, sensitivity, table3, table4, threshold, variance,
};

/// Parsed command-line options.
struct Opts {
    csv: bool,
    trials: Option<usize>,
    max_n: Option<usize>,
    seed: Option<u64>,
    hard: bool,
    threads: usize,
    smoke: bool,
    exact: bool,
    k: Option<usize>,
    n: Option<usize>,
    obs: bool,
    obs_json: Option<String>,
    obs_trace: Option<String>,
    plan: Option<String>,
    numeric: NumericMode,
}

impl Opts {
    /// Whether metric collection should be switched on for this run
    /// (`--obs-json`/`--obs-trace` imply `--obs`).
    fn obs_active(&self) -> bool {
        self.obs || self.obs_json.is_some() || self.obs_trace.is_some()
    }
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        csv: false,
        trials: None,
        max_n: None,
        seed: None,
        hard: false,
        threads: hetero_par::configured_threads(),
        smoke: false,
        exact: false,
        k: None,
        n: None,
        obs: false,
        obs_json: None,
        obs_trace: None,
        plan: None,
        numeric: NumericMode::Strict,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--csv" => opts.csv = true,
            "--hard" => opts.hard = true,
            "--smoke" => opts.smoke = true,
            "--exact" => opts.exact = true,
            "--k" => {
                let v = it.next().ok_or("--k needs a value")?;
                opts.k = Some(v.parse().map_err(|_| format!("bad --k {v}"))?);
            }
            "--n" => {
                let v = it.next().ok_or("--n needs a value")?;
                opts.n = Some(at_least_one("--n", v)?);
            }
            "--obs" => opts.obs = true,
            "--obs-json" => {
                let v = it.next().ok_or("--obs-json needs a path")?;
                opts.obs_json = Some(v.clone());
            }
            "--obs-trace" => {
                let v = it.next().ok_or("--obs-trace needs a path")?;
                opts.obs_trace = Some(v.clone());
            }
            "--plan" => {
                let v = it.next().ok_or("--plan needs a path")?;
                opts.plan = Some(v.clone());
            }
            "--numeric" => {
                let v = it.next().ok_or("--numeric needs strict or fast")?;
                opts.numeric = NumericMode::parse(v)?;
            }
            "--trials" => {
                let v = it.next().ok_or("--trials needs a value")?;
                opts.trials = Some(at_least_one("--trials", v)?);
            }
            "--max-n" => {
                let v = it.next().ok_or("--max-n needs a value")?;
                opts.max_n = Some(v.parse().map_err(|_| format!("bad --max-n {v}"))?);
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                opts.seed = Some(v.parse().map_err(|_| format!("bad --seed {v}"))?);
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                opts.threads = at_least_one("--threads", v)?;
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(opts)
}

/// The count `v` given to `flag`: an empty cluster, sample or pool is a
/// usage error, not a panic or a row of NaN.
fn at_least_one(flag: &str, v: &str) -> Result<usize, String> {
    match v.parse() {
        Ok(0) => Err(format!("{flag} must be at least 1")),
        Ok(x) => Ok(x),
        Err(_) => Err(format!("bad {flag} {v}")),
    }
}

fn print_table(t: &hetero_experiments::render::Table, csv: bool) {
    if csv {
        print!("{}", t.to_csv());
    } else {
        print!("{}", t.to_ascii());
    }
}

fn cmd_params(opts: &Opts) {
    let mut t = hetero_experiments::render::Table::new(
        "Tables 1–2 — model parameters",
        &[
            "configuration",
            "τ",
            "π",
            "δ",
            "A = π+τ",
            "B = 1+(1+δ)π",
            "Aτδ/B²",
        ],
    );
    for (name, p) in [
        ("coarse tasks (1 s)", Params::paper_table1()),
        ("fine tasks (0.1 s)", Params::paper_table1_fine()),
        ("figures 3–4", Params::fig34()),
    ] {
        t.row(vec![
            name.to_string(),
            format!("{:e}", p.tau()),
            format!("{:e}", p.pi()),
            format!("{}", p.delta()),
            format!("{:e}", p.a()),
            format!("{:.6}", p.b()),
            format!("{:.3e}", p.theorem4_threshold()),
        ]);
    }
    print_table(&t, opts.csv);
}

/// The powers of two from 4 up to `max_n`; doubling stops before it
/// would overflow, so `usize::MAX` ends at 2⁶³.
fn variance_sizes(max_n: usize) -> Vec<usize> {
    std::iter::successors(Some(4usize), |n| n.checked_mul(2))
        .take_while(|&n| n <= max_n)
        .collect()
}

fn cmd_variance(opts: &Opts) {
    let cfg = variance::VarianceConfig {
        sizes: variance_sizes(opts.max_n.unwrap_or(1024)),
        trials: opts.trials.unwrap_or(2000),
        seed: opts.seed.unwrap_or(0xC0FFEE),
        generator: if opts.hard {
            variance::PairGenerator::SameUniform
        } else {
            variance::PairGenerator::DiverseShapes
        },
        threads: opts.threads,
        numeric: opts.numeric,
        ..variance::VarianceConfig::default()
    };
    print_table(&variance::run(&cfg).table(), opts.csv);
    println!(
        "(paper: ~23% bad plateau with its own generator; ours brackets it — see EXPERIMENTS.md)"
    );
}

fn cmd_threshold(opts: &Opts) {
    let cfg = threshold::ThresholdConfig {
        trials_per_combo: opts.trials.unwrap_or(1500),
        seed: opts.seed.unwrap_or(0xBEEF),
        threads: opts.threads,
        numeric: opts.numeric,
        ..threshold::ThresholdConfig::default()
    };
    let e = threshold::run(&cfg);
    print_table(&e.table(), opts.csv);
    println!(
        "overall accuracy {:.1}%  |  empirical θ = {:.3} (paper: 0.167)",
        100.0 * e.overall_accuracy(),
        e.theta
    );
}

fn moments_config(opts: &Opts) -> moments_ext::MomentsConfig {
    moments_ext::MomentsConfig {
        trials: opts.trials.unwrap_or(2000),
        seed: opts.seed.unwrap_or(0xA11CE),
        threads: opts.threads,
        ..moments_ext::MomentsConfig::default()
    }
}

fn majorization_config(opts: &Opts) -> majorization_ext::MajorizationConfig {
    majorization_ext::MajorizationConfig {
        trials: opts.trials.unwrap_or(2000),
        seed: opts.seed.unwrap_or(0x5EED),
        threads: opts.threads,
        ..majorization_ext::MajorizationConfig::default()
    }
}

fn robustness_config(opts: &Opts) -> robustness::RobustnessConfig {
    robustness::RobustnessConfig {
        trials: opts.trials.unwrap_or(200),
        seed: opts.seed.unwrap_or(0xEB0B),
        threads: opts.threads,
        ..robustness::RobustnessConfig::default()
    }
}

fn cmd_select(opts: &Opts) -> Result<(), String> {
    if opts.exact {
        let n = opts.n.ok_or("select --exact needs --n")?;
        let k = opts.k.ok_or("select --exact needs --k")?;
        if !(1..=n).contains(&k) {
            return Err(format!("select --exact: --k {k} is outside 1..={n} (--n)"));
        }
        let params = Params::paper_table1();
        let profile = hetero_core::Profile::harmonic(n);
        let (winner, stats) =
            hetero_core::selection::best_k_subset_with_stats(&params, &profile, k)
                .map_err(|e| format!("select --exact: {e}"))?;
        let fastest =
            hetero_core::selection::fastest_k(&profile, k).map_err(|e| format!("select: {e}"))?;
        let is_fastest = winner
            .rhos()
            .iter()
            .zip(fastest.rhos())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        let mut t = hetero_experiments::render::Table::new(
            "exact best-k subset (branch-and-bound, harmonic profile)",
            &[
                "n",
                "k",
                "X(winner)",
                "nodes visited",
                "nodes pruned",
                "pruned %",
                "winner = fastest-k",
            ],
        );
        t.row(vec![
            n.to_string(),
            k.to_string(),
            hetero_experiments::render::fmt_f(
                hetero_core::xmeasure::x_measure_of_rhos(&params, winner.rhos()),
                4,
            ),
            stats.nodes_visited.to_string(),
            stats.nodes_pruned.to_string(),
            hetero_experiments::render::fmt_f(100.0 * stats.pruned_fraction(n), 12),
            if is_fastest { "yes" } else { "tie" }.to_string(),
        ]);
        print_table(&t, opts.csv);
    } else {
        let s = if opts.smoke {
            selection_sweep::run_smoke()
        } else {
            selection_sweep::run_paper()
        };
        print_table(&s.table(), opts.csv);
        print_table(&s.demo_table(), opts.csv);
        println!("(exact winners past the n = 63 enumeration cap; pruning stats also land in the obs manifest counters)");
    }
    Ok(())
}

/// `faults --plan FILE` — replays one pinned JSON fault plan through
/// all four protocol families on a canonical harmonic cluster, so a
/// failure scenario found by a sweep can be pinned to disk and
/// re-examined protocol by protocol. A plan naming a worker the cluster
/// does not have is rejected rather than replayed without that spec.
fn cmd_faults_plan(path: &str, opts: &Opts) -> Result<(), String> {
    use hetero_faults::FaultSpec;
    use hetero_protocol::{alloc, coded, exchange, fault_exec, replan, ExchangePolicy};

    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let faults = hetero_faults::FaultPlan::from_json(&text).map_err(|e| format!("{path}: {e}"))?;

    let params = Params::paper_table1();
    let n = 8;
    for (i, spec) in faults.specs().iter().enumerate() {
        let worker = match *spec {
            FaultSpec::Crash { worker, .. }
            | FaultSpec::Slowdown { worker, .. }
            | FaultSpec::ResultLoss { worker, .. } => worker,
            FaultSpec::ChannelJitter { .. } => continue,
        };
        if worker >= n {
            return Err(format!(
                "{path}: spec {i} names worker {worker}, but the replay cluster has n = {n} workers (0 to {})",
                n - 1
            ));
        }
    }

    let lifespan = 600.0;
    let margin = 0.1;
    let profile = hetero_core::Profile::harmonic(n);
    let optimum = hetero_core::xmeasure::work(&params, &profile, lifespan);

    let plan = alloc::fifo_plan(&params, &profile, lifespan).map_err(|e| format!("plan: {e}"))?;
    let hedge = replan::HedgePolicy {
        margin,
        ..replan::HedgePolicy::default()
    };
    let hedged_plan = alloc::fifo_plan(&params, &profile, lifespan / (1.0 + margin))
        .map_err(|e| format!("plan: {e}"))?;
    let oblivious = fault_exec::execute_with_faults(&params, &profile, &plan, &faults)
        .map_err(|e| format!("oblivious: {e}"))?;
    let adaptive = replan::execute_adaptive(&params, &profile, &plan, &faults, &hedge)
        .map_err(|e| format!("adaptive: {e}"))?;
    let xchg = exchange::execute_exchange(
        &params,
        &profile,
        &hedged_plan,
        &faults,
        &ExchangePolicy {
            fallback: hedge,
            ..ExchangePolicy::default()
        },
    )
    .map_err(|e| format!("exchange: {e}"))?;
    let assignment = coded::mds_assignment(&params, &profile, lifespan, n / 2)
        .map_err(|e| format!("coded: {e}"))?;
    let mds = coded::execute_coded(&params, &profile, &assignment, &faults)
        .map_err(|e| format!("coded: {e}"))?;

    let mut t = hetero_experiments::render::Table::new(
        format!(
            "fault-plan replay — {} specs, harmonic n = {}, L = {}",
            faults.specs().len(),
            n,
            lifespan
        ),
        &["family", "work by L", "fraction %", "missed", "notes"],
    );
    let fmt = hetero_experiments::render::fmt_f;
    let mut row = |family: &str, work: f64, missed: bool, notes: String| {
        t.row(vec![
            family.to_string(),
            fmt(work, 2),
            fmt(100.0 * work / optimum, 2),
            if missed { "yes" } else { "no" }.to_string(),
            notes,
        ]);
    };
    row(
        "oblivious",
        oblivious.work_completed_by(lifespan),
        oblivious.missed_deadline(lifespan),
        format!("{} lost msgs", oblivious.lost_messages),
    );
    row(
        "adaptive",
        adaptive.work_completed_by(lifespan),
        adaptive.missed_deadline(lifespan),
        format!(
            "{} replans, {} topups",
            adaptive.replans,
            adaptive.appended().len()
        ),
    );
    row(
        "exchange",
        xchg.work_completed_by(lifespan),
        xchg.missed_deadline(lifespan),
        if xchg.degraded {
            "degraded to adaptive".to_string()
        } else {
            format!("{} transfers", xchg.appended().len())
        },
    );
    row(
        "coded",
        mds.work_completed_by(lifespan),
        mds.missed_deadline(lifespan),
        match mds.decode() {
            Ok(d) => format!("decoded from {} shares", d.shares_used),
            Err(e) => format!("{} of {} shares survived", e.arrived, e.needed),
        },
    );
    print_table(&t, opts.csv);
    println!("plan fingerprint: {:#018x}", faults.fingerprint());
    Ok(())
}

fn run_command(cmd: &str, opts: &Opts) -> Result<(), String> {
    match cmd {
        "params" => cmd_params(opts),
        "table3" => print_table(&table3::run_paper().table(), opts.csv),
        "table4" => print_table(&table4::run_paper().table(), opts.csv),
        "fig3" => {
            let f = fig34::run_paper_mode(opts.numeric);
            print!("{}", f.render_phase(&f.phase1, 1.0));
        }
        "fig4" => {
            let f = fig34::run_paper_mode(opts.numeric);
            print!("{}", f.render_phase(&f.phase2, 1.0 / 16.0));
        }
        "variance" => cmd_variance(opts),
        "threshold" => cmd_threshold(opts),
        "minorize" => print_table(&examples42::run_paper().table(), opts.csv),
        "protocol" => {
            let c = protocol_check::run_paper();
            print_table(&c.table(), opts.csv);
            println!(
                "startup-order totals (Theorem 1.2, must agree): {:?}",
                c.order_totals
            );
            println!("protocol-invariant violations: {}", c.violations);
        }
        "gantt" => {
            let p = Params::paper_table1();
            print!("{}", gantt::render_fig1(&p, 0.5, 100.0));
            println!();
            let profile = hetero_core::Profile::new(vec![1.0, 0.5, 1.0 / 3.0]).expect("valid");
            print!("{}", gantt::render_fig2(&p, &profile, 100.0, 72));
        }
        "lifo" => print_table(&fifo_lifo::run_paper().table(), opts.csv),
        "granularity" => print_table(&granularity::run_paper().table(), opts.csv),
        "fleet" => print_table(&fleet::run_paper().table(), opts.csv),
        "select" => cmd_select(opts)?,
        "robustness" => print_table(&robustness::run(&robustness_config(opts)).table(), opts.csv),
        "faults" if opts.plan.is_some() => {
            let path = opts.plan.clone().expect("guarded by match arm");
            cmd_faults_plan(&path, opts)?;
        }
        "faults" => {
            let mut cfg = fault_sweep::FaultSweepConfig {
                trials: opts.trials.unwrap_or(100),
                seed: opts.seed.unwrap_or(0xFA17),
                threads: opts.threads,
                ..fault_sweep::FaultSweepConfig::default()
            };
            if opts.smoke {
                cfg.n = 6;
                cfg.crash_ps = vec![0.0, 0.2];
                cfg.straggler_factors = vec![3.0];
                cfg.margins = vec![0.0, 0.1];
                cfg.trials = opts.trials.unwrap_or(25);
            }
            print_table(&fault_sweep::run(&cfg).table(), opts.csv);
            println!("(adaptive replanning vs oblivious FIFO vs equal split under seeded crash/straggler injection)");
        }
        "protocols" => {
            let mut cfg = protocol_sweep::ProtocolSweepConfig {
                trials: opts.trials.unwrap_or(60),
                seed: opts.seed.unwrap_or(0x9E22),
                threads: opts.threads,
                ..protocol_sweep::ProtocolSweepConfig::default()
            };
            if opts.smoke {
                cfg.n = 6;
                cfg.crash_ps = vec![0.0, 0.2];
                cfg.straggler_factors = vec![3.0];
                cfg.spreads = vec![0.5];
                cfg.margins = vec![0.0, 0.1];
                cfg.k_slack = 3;
                cfg.trials = opts.trials.unwrap_or(25);
            }
            print_table(&protocol_sweep::run(&cfg).table(), opts.csv);
            println!("(four protocol families on identical seeded fault plans; frontier = not dominated on miss rate + throughput)");
        }
        "critpath" => {
            let e = if opts.smoke {
                critpath::run_smoke()
            } else {
                critpath::run_paper()
            };
            print_table(&e.table(), opts.csv);
            println!("(heaviest result-delivering causal chain per arm; a missed deadline is a chain ending past L)");
        }
        "sensitivity" => print_table(&sensitivity::run_paper().table(), opts.csv),
        "scaling" => print_table(&scaling::run_paper_mode(opts.numeric).table(), opts.csv),
        "majorize-ext" => print_table(
            &majorization_ext::run(&majorization_config(opts)).table(),
            opts.csv,
        ),
        "moments" => print_table(&moments_ext::run(&moments_config(opts)).table(), opts.csv),
        "all" => {
            for c in [
                "params",
                "table3",
                "table4",
                "fig3",
                "fig4",
                "variance",
                "threshold",
                "minorize",
                "protocol",
                "gantt",
                "moments",
                "lifo",
                "sensitivity",
                "scaling",
                "majorize-ext",
                "granularity",
                "robustness",
                "faults",
                "protocols",
                "fleet",
                "select",
                "critpath",
            ] {
                println!("──────────────────────────────────────── {c}");
                run_command(c, opts)?;
                println!();
            }
        }
        other => return Err(format!("unknown command {other}")),
    }
    Ok(())
}

/// Builds the Chrome trace document for `--obs-trace`: the Figure 1
/// execution for `protocol`, the Figure 2 execution for `gantt`, and the
/// per-command wall spans for everything else.
fn obs_trace_document(cmd: &str, snapshot: &hetero_obs::Snapshot) -> String {
    let p = Params::paper_table1();
    match cmd {
        "protocol" => {
            let run = obs_export::fig1_execution(&p);
            obs_export::execution_to_chrome(&run, 1)
        }
        "gantt" => {
            let profile = hetero_core::Profile::new(vec![1.0, 0.5, 1.0 / 3.0]).expect("valid");
            let run = obs_export::fig2_execution(&p, &profile, 100.0);
            obs_export::execution_to_chrome(&run, profile.n())
        }
        _ => hetero_obs::chrome::wall_spans_to_chrome(&snapshot.spans),
    }
}

/// The causal critical path of the command's canonical execution as a
/// `spantree` JSONL event (`protocol` → the Figure 1 run, `gantt` → the
/// Figure 2 run; other commands execute no protocol run, so no line).
/// The folded rendering names entities like the Chrome export
/// (`C0`…`Cn`, `net`).
fn obs_spantree_line(cmd: &str) -> Option<String> {
    use hetero_obs::json::Value;
    let p = Params::paper_table1();
    let (run, n) = match cmd {
        "protocol" => (obs_export::fig1_execution(&p), 1),
        "gantt" => {
            let profile = hetero_core::Profile::new(vec![1.0, 0.5, 1.0 / 3.0]).expect("valid");
            let n = profile.n();
            (obs_export::fig2_execution(&p, &profile, 100.0), n)
        }
        _ => return None,
    };
    let path = hetero_obs::causal::critical_path(&run.trace)?;
    // Entity layout of `exec`: 0 = server (`C0`), 1..=n = remote
    // computers, n + 1 = the channel (`net`) — same as the Chrome export.
    let names: Vec<String> = (0..=n + 1)
        .map(|entity| {
            if entity == n + 1 {
                "net".to_string()
            } else {
                format!("C{entity}")
            }
        })
        .collect();
    let obj = Value::Obj(vec![
        ("event".into(), Value::Str("spantree".into())),
        ("name".into(), Value::Str(cmd.into())),
        (
            "value".into(),
            Value::Obj(vec![
                ("weight".into(), Value::Num(path.weight)),
                ("start".into(), Value::Num(path.start)),
                ("end".into(), Value::Num(path.end)),
                ("slack".into(), Value::Num(path.slack)),
                ("frames".into(), Value::Str(path.folded_frames(&run.trace))),
                (
                    "folded".into(),
                    Value::Str(hetero_obs::folded::trace_to_folded(&run.trace, &names)),
                ),
            ]),
        ),
    ]);
    Some(obj.render())
}

/// Drains the collector into the requested sinks after an instrumented run.
fn obs_finalize(cmd: &str, opts: &Opts, wall_ms: f64) -> Result<(), String> {
    let snapshot = hetero_obs::snapshot();
    let p = Params::paper_table1();
    let mut counters = snapshot.counters.clone();
    counters.extend(snapshot.gauges.iter().cloned());
    let manifest = hetero_obs::RunManifest {
        command: cmd.to_string(),
        seed: opts.seed.unwrap_or(0),
        trials: opts.trials.unwrap_or(0),
        max_n: opts.max_n.unwrap_or(0),
        threads: opts.threads,
        numeric: opts.numeric.as_str().to_string(),
        params: vec![
            ("tau".to_string(), p.tau()),
            ("pi".to_string(), p.pi()),
            ("delta".to_string(), p.delta()),
        ],
        wall_ms,
        counters,
        sketches: snapshot.sketches.clone(),
        host: hetero_obs::HostContext::detect(),
    };
    if opts.obs {
        println!();
        print!("{}", snapshot.summary());
        print!("{}", manifest.footer());
    }
    if let Some(path) = &opts.obs_json {
        let mut stream = snapshot.to_jsonl();
        if let Some(line) = obs_spantree_line(cmd) {
            stream.push_str(&line);
            stream.push('\n');
        }
        stream.push_str(&manifest.to_jsonl_line());
        stream.push('\n');
        std::fs::write(path, stream).map_err(|e| format!("writing {path}: {e}"))?;
    }
    if let Some(path) = &opts.obs_trace {
        let doc = obs_trace_document(cmd, &snapshot);
        std::fs::write(path, doc).map_err(|e| format!("writing {path}: {e}"))?;
    }
    Ok(())
}

/// `hetero-cli obsdiff <run-a> <run-b>` — the perf-regression
/// observatory. Loads two runs (`--obs-json` streams or BENCH json
/// documents, auto-detected), diffs them under the noise thresholds,
/// prints the report, and exits nonzero iff any metric *regressed*
/// (slower span/quantile, or a counter drifting either way past the
/// counter threshold).
fn cmd_obsdiff(args: &[String]) -> Result<bool, String> {
    let mut thr = hetero_obs::diff::DiffThresholds::default();
    let mut json = false;
    let mut ignore: Vec<String> = Vec::new();
    let mut paths: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--ignore" => {
                let v = it.next().ok_or("--ignore needs a metric-name prefix")?;
                ignore.push(v.clone());
            }
            "--rel" => {
                let v = it.next().ok_or("--rel needs a value")?;
                let r: f64 = v.parse().map_err(|_| format!("bad --rel {v}"))?;
                thr.counter_rel = r;
                thr.span_rel = r;
                thr.quantile_rel = r;
            }
            "--span-rel" => {
                let v = it.next().ok_or("--span-rel needs a value")?;
                thr.span_rel = v.parse().map_err(|_| format!("bad --span-rel {v}"))?;
            }
            "--quantile-rel" => {
                let v = it.next().ok_or("--quantile-rel needs a value")?;
                thr.quantile_rel = v.parse().map_err(|_| format!("bad --quantile-rel {v}"))?;
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown obsdiff option {other}"));
            }
            _ => paths.push(a),
        }
    }
    let [path_a, path_b] = paths[..] else {
        return Err("obsdiff needs exactly two run files: obsdiff <run-a> <run-b>".to_string());
    };
    let text_a = std::fs::read_to_string(path_a).map_err(|e| format!("reading {path_a}: {e}"))?;
    let text_b = std::fs::read_to_string(path_b).map_err(|e| format!("reading {path_b}: {e}"))?;
    let mut a = hetero_obs::diff::load_run(&text_a).map_err(|e| format!("{path_a}: {e}"))?;
    let mut b = hetero_obs::diff::load_run(&text_b).map_err(|e| format!("{path_b}: {e}"))?;
    a.strip_prefixes(&ignore);
    b.strip_prefixes(&ignore);
    let report = hetero_obs::diff::diff(&a, &b, &thr);
    if json {
        println!("{}", report.to_json().render());
    } else {
        print!("{}", report.human());
    }
    Ok(report.regressions() == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("usage: hetero-cli <command> [options]; see `hetero-cli help`");
        return ExitCode::FAILURE;
    };
    if cmd == "help" || cmd == "--help" || cmd == "-h" {
        println!(
            "commands: params table3 table4 fig3 fig4 variance threshold minorize \
             protocol gantt moments lifo sensitivity scaling majorize-ext \
             granularity robustness faults protocols fleet select critpath all"
        );
        println!(
            "options:  --csv --trials N --max-n N --seed S --threads N --hard \
             --smoke --exact --k K --n N --numeric strict|fast \
             --obs --obs-json PATH --obs-trace PATH --plan FILE"
        );
        println!(
            "obsdiff:  hetero-cli obsdiff <run-a> <run-b> [--rel R] [--span-rel R] \
             [--quantile-rel R] [--ignore PREFIX]... [--json]  (exit 1 = regression detected)"
        );
        return ExitCode::SUCCESS;
    }
    // `obsdiff` takes positional file arguments, which `parse_opts`
    // rejects by design — handle it before option parsing.
    if cmd == "obsdiff" {
        return match cmd_obsdiff(rest) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    let opts = match parse_opts(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if opts.obs_active() {
        hetero_obs::reset();
        hetero_obs::enable();
    }
    let wall_start = std::time::Instant::now();
    let result = {
        let span = hetero_obs::timed(format!("cmd.{cmd}"));
        let r = run_command(cmd, &opts);
        span.finish();
        r
    };
    let result = result.and_then(|()| {
        if opts.obs_active() {
            obs_finalize(cmd, &opts, wall_start.elapsed().as_secs_f64() * 1e3)
        } else {
            Ok(())
        }
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_opts_defaults() {
        let o = parse_opts(&[]).unwrap();
        assert!(!o.csv && !o.hard && !o.smoke && !o.obs && !o.exact);
        assert!(o.trials.is_none() && o.max_n.is_none() && o.seed.is_none());
        assert!(o.k.is_none() && o.n.is_none());
        assert!(o.obs_json.is_none() && o.obs_trace.is_none());
        assert!(!o.obs_active());
    }

    #[test]
    fn obs_sinks_imply_collection() {
        let o = parse_opts(&["--obs-json".into(), "out.jsonl".into()]).unwrap();
        assert!(!o.obs && o.obs_active());
        assert_eq!(o.obs_json.as_deref(), Some("out.jsonl"));
        let o = parse_opts(&["--obs-trace".into(), "trace.json".into()]).unwrap();
        assert!(!o.obs && o.obs_active());
        assert_eq!(o.obs_trace.as_deref(), Some("trace.json"));
        let o = parse_opts(&["--obs".into()]).unwrap();
        assert!(o.obs && o.obs_active());
        assert!(parse_opts(&["--obs-json".into()]).is_err());
        assert!(parse_opts(&["--obs-trace".into()]).is_err());
    }

    #[test]
    fn parse_opts_all_flags() {
        let args: Vec<String> = [
            "--csv",
            "--hard",
            "--smoke",
            "--trials",
            "42",
            "--max-n",
            "128",
            "--seed",
            "7",
            "--threads",
            "3",
            "--exact",
            "--k",
            "5",
            "--n",
            "80",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let o = parse_opts(&args).unwrap();
        assert!(o.csv && o.hard && o.smoke && o.exact);
        assert_eq!(o.trials, Some(42));
        assert_eq!(o.max_n, Some(128));
        assert_eq!(o.seed, Some(7));
        assert_eq!(o.threads, 3);
        assert_eq!(o.k, Some(5));
        assert_eq!(o.n, Some(80));
        assert!(parse_opts(&["--k".into()]).is_err());
        assert!(parse_opts(&["--n".into(), "abc".into()]).is_err());
    }

    #[test]
    fn threads_defaults_to_the_configured_pool_width() {
        let o = parse_opts(&[]).unwrap();
        assert_eq!(o.threads, hetero_par::configured_threads());
        assert!(parse_opts(&["--threads".into()]).is_err());
        assert!(parse_opts(&["--threads".into(), "0".into()]).is_err());
        assert!(parse_opts(&["--threads".into(), "abc".into()]).is_err());
    }

    #[test]
    fn executor_sweeps_take_the_thread_budget() {
        // A budget no host defaults to, so the config cannot match by luck.
        let budget = hetero_par::default_threads() + 1;
        let o = parse_opts(&["--threads".into(), budget.to_string()]).unwrap();
        assert_eq!(moments_config(&o).threads, budget);
        assert_eq!(majorization_config(&o).threads, budget);
        assert_eq!(robustness_config(&o).threads, budget);
    }

    #[test]
    fn faults_smoke_command_runs() {
        let opts = Opts {
            csv: true,
            trials: Some(5),
            max_n: None,
            seed: Some(42),
            hard: false,
            threads: 2,
            smoke: true,
            exact: false,
            k: None,
            n: None,
            obs: false,
            obs_json: None,
            numeric: NumericMode::Strict,
            obs_trace: None,
            plan: None,
        };
        run_command("faults", &opts).unwrap();
    }

    #[test]
    fn select_commands_run() {
        let mut opts = Opts {
            csv: true,
            trials: None,
            max_n: None,
            seed: None,
            hard: false,
            threads: 1,
            smoke: true,
            exact: false,
            k: None,
            n: None,
            obs: false,
            obs_json: None,
            numeric: NumericMode::Strict,
            obs_trace: None,
            plan: None,
        };
        run_command("select", &opts).unwrap();
        // --exact solves a single instance well past the n = 63 walk cap.
        opts.exact = true;
        opts.k = Some(4);
        opts.n = Some(80);
        run_command("select", &opts).unwrap();
        opts.k = None;
        assert!(run_command("select", &opts).is_err());
        opts.k = Some(4);
        opts.n = None;
        assert!(run_command("select", &opts).is_err());
    }

    #[test]
    fn protocols_smoke_command_runs() {
        let opts = Opts {
            csv: true,
            trials: Some(5),
            max_n: None,
            seed: Some(42),
            hard: false,
            threads: 2,
            smoke: true,
            exact: false,
            k: None,
            n: None,
            obs: false,
            obs_json: None,
            numeric: NumericMode::Strict,
            obs_trace: None,
            plan: None,
        };
        run_command("protocols", &opts).unwrap();
    }

    #[test]
    fn faults_replays_a_pinned_plan_and_rejects_malformed_ones() {
        let dir = std::env::temp_dir();
        let good = dir.join("hetero_cli_plan_ok.json");
        let plan = hetero_faults::FaultPlan::new(vec![
            hetero_faults::FaultSpec::Slowdown {
                worker: 1,
                factor: 4.0,
                from: 0.0,
                until: 600.0,
            },
            hetero_faults::FaultSpec::ResultLoss {
                worker: 2,
                count: 1,
            },
        ])
        .unwrap();
        std::fs::write(&good, plan.to_json()).unwrap();
        let mut opts = Opts {
            csv: true,
            trials: None,
            max_n: None,
            seed: None,
            hard: false,
            threads: 1,
            smoke: false,
            exact: false,
            k: None,
            n: None,
            obs: false,
            obs_json: None,
            numeric: NumericMode::Strict,
            obs_trace: None,
            plan: Some(good.to_string_lossy().into_owned()),
        };
        run_command("faults", &opts).unwrap();

        // A malformed plan surfaces the typed JSON error, not a panic.
        let bad = dir.join("hetero_cli_plan_bad.json");
        std::fs::write(&bad, "{\"faults\":[{\"kind\":\"meteor\"}]}").unwrap();
        opts.plan = Some(bad.to_string_lossy().into_owned());
        let err = run_command("faults", &opts).unwrap_err();
        assert!(err.contains("unknown kind"), "{err}");
        let _ = std::fs::remove_file(&good);
        let _ = std::fs::remove_file(&bad);
    }

    #[test]
    fn parse_opts_rejects_bad_input() {
        assert!(parse_opts(&["--bogus".into()]).is_err());
        assert!(parse_opts(&["--trials".into()]).is_err());
        assert!(parse_opts(&["--trials".into(), "abc".into()]).is_err());
    }

    #[test]
    fn numeric_mode_parses_and_defaults_to_strict() {
        assert_eq!(parse_opts(&[]).unwrap().numeric, NumericMode::Strict);
        let o = parse_opts(&["--numeric".into(), "fast".into()]).unwrap();
        assert_eq!(o.numeric, NumericMode::Fast);
        let o = parse_opts(&["--numeric".into(), "strict".into()]).unwrap();
        assert_eq!(o.numeric, NumericMode::Strict);
        assert!(parse_opts(&["--numeric".into()]).is_err());
        assert!(parse_opts(&["--numeric".into(), "sloppy".into()]).is_err());
    }

    #[test]
    fn variance_sizes_are_powers_of_two() {
        assert_eq!(variance_sizes(64), vec![4, 8, 16, 32, 64]);
        assert_eq!(variance_sizes(3), Vec::<usize>::new());
    }

    #[test]
    fn variance_sizes_stop_doubling_before_overflow() {
        let sizes = variance_sizes(usize::MAX);
        assert_eq!(sizes.len(), 62);
        assert_eq!(sizes.first(), Some(&4));
        assert_eq!(sizes.last(), Some(&(1usize << 63)));
        assert!(sizes.windows(2).all(|w| w[1] == 2 * w[0]));
    }

    #[test]
    fn every_quick_command_runs() {
        let opts = Opts {
            csv: false,
            trials: Some(50),
            max_n: Some(8),
            seed: Some(1),
            hard: false,
            threads: 2,
            smoke: false,
            exact: false,
            k: None,
            n: None,
            obs: false,
            obs_json: None,
            numeric: NumericMode::Strict,
            obs_trace: None,
            plan: None,
        };
        for c in [
            "params",
            "table3",
            "table4",
            "fig3",
            "fig4",
            "minorize",
            "protocol",
            "gantt",
            "lifo",
            "sensitivity",
        ] {
            run_command(c, &opts).unwrap_or_else(|e| panic!("{c}: {e}"));
        }
        assert!(run_command("nope", &opts).is_err());
    }
}
