//! The benchmark of the `hetero` workspace: three closed-loop workloads
//! that call the program only through its public functions and config
//! structs, check every op's output, and report end-to-end metrics
//! (untraced) or per-layer metrics (traced). See `README.md`.
//!
//! ```text
//! perfbench --workload sweep|faulted|fleet --seed N --seconds S --trace 0|1
//! perfbench --steadiness [--runs R] [--seconds S] [--seed N]
//! ```

mod faulted;
mod fleet;
mod measure;
mod metrics;
mod report;
mod runner;
mod steady;
mod sweep;

use std::process::ExitCode;
use std::time::Instant;

use hetero_core::Params;
use hetero_par::{default_threads, seed};

use measure::{min_samples_for_tail, Tracer};
use runner::{closed_loop, Client, Measured, Phase};

/// The workloads, in the order the steadiness mode alternates them.
pub const WORKLOADS: [&str; 3] = ["sweep", "faulted", "fleet"];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// One run's arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload.
    pub workload: String,
    /// Root of every input.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

/// How a workload is loaded and reported.
pub struct Shape {
    /// Percentile reported as `op_tail_ms`.
    pub tail_pct: usize,
    /// Closed-loop clients.
    pub clients: usize,
    /// Ops of the fixed-size phase that reads the program's counters.
    count_ops: u64,
    /// Layer spans.
    pub layers: &'static [&'static str],
    /// Unit of the per-op layer times.
    pub layer_unit: &'static str,
}

/// Everything one run measured.
pub struct Outcome {
    /// Set-up wall times, in s.
    pub setups: Vec<f64>,
    /// The untraced phase: the whole measurement of an end-to-end run,
    /// the first half of a traced one.
    pub timed: Measured,
    /// The traced half and the counting phase (traced runs only).
    pub traced: Option<(Measured, Counted)>,
    /// Why the post-run check failed, if it did.
    pub finish_error: Option<String>,
}

/// The counting phase: a fixed op range run with the program's
/// `hetero_obs` counters switched on.
pub struct Counted {
    /// What the phase measured.
    pub measured: Measured,
    /// The counters at its end.
    pub counters: Vec<(String, u64)>,
    /// The client's outcome values summed over its ops.
    pub outcomes: Vec<(&'static str, f64)>,
}

/// A uniform draw from `[lo, hi)` advancing a SplitMix64 `state`.
pub fn uniform(state: &mut u64, lo: f64, hi: f64) -> f64 {
    let u = (seed::next(state) >> 11) as f64 / (1u64 << 53) as f64;
    lo + (hi - lo) * u
}

/// The load shape of `workload`.
pub fn shape(workload: &str) -> Result<Shape, String> {
    Ok(match workload {
        "sweep" => Shape {
            tail_pct: 90,
            // A lone client leaves a core idle at every pool fan-out, and
            // waking it on a shared host made run-to-run spread about four
            // times wider than with one client per core.
            clients: default_threads().min(2),
            count_ops: 3,
            layers: &sweep::LAYERS,
            layer_unit: "ms",
        },
        "faulted" => Shape {
            tail_pct: 99,
            clients: default_threads().min(2),
            count_ops: 512,
            layers: &faulted::LAYERS,
            layer_unit: "us",
        },
        "fleet" => Shape {
            tail_pct: 99,
            clients: 1,
            count_ops: 64,
            layers: &fleet::LAYERS,
            layer_unit: "us",
        },
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// Sets up `SETUPS` times, each from scratch after dropping the previous
/// state, and keeps the last state.
fn set_up<T>(mut build: impl FnMut() -> Result<T, String>) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut state = None;
    for _ in 0..SETUPS {
        drop(state.take());
        let t0 = Instant::now();
        state = Some(build()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((state.expect("SETUPS > 0"), times))
}

/// The measured phases over `clients`, whose first op is `first_op`: one
/// untraced phase of `--seconds`; or, traced, an untraced half, a traced
/// half and a fixed counting phase on the first client.
fn measure<C: Client>(
    args: &Args,
    shape: &Shape,
    first_op: u64,
    clients: &mut [C],
) -> Result<(Measured, Option<(Measured, Counted)>), String> {
    if !args.trace {
        let phase = Phase {
            first_op,
            seconds: args.seconds,
            min_ops: min_samples_for_tail(shape.tail_pct) as u64,
            max_ops: u64::MAX,
            trace: false,
        };
        return Ok((closed_loop(clients, phase)?, None));
    }
    let half = |first_op, trace| Phase {
        first_op,
        seconds: args.seconds / 2.0,
        min_ops: 1,
        max_ops: u64::MAX,
        trace,
    };
    let untraced = closed_loop(clients, half(first_op, false))?;
    let traced = closed_loop(clients, half(first_op + untraced.attempted, true))?;

    let counter = &mut clients[..1];
    counter[0].take_outcomes();
    hetero_obs::reset();
    hetero_obs::enable();
    let counted = closed_loop(counter, Phase::fixed(0, shape.count_ops, false));
    hetero_obs::disable();
    let counters = hetero_obs::snapshot().counters;
    hetero_obs::reset();
    let counted = Counted {
        measured: counted?,
        counters,
        outcomes: counter[0].take_outcomes(),
    };
    Ok((untraced, Some((traced, counted))))
}

/// Sets up and measures one workload.
fn run(args: &Args, shape: &Shape) -> Result<Outcome, String> {
    let params = Params::paper_table1();
    let (setups, (timed, traced), finish) = match args.workload.as_str() {
        "sweep" => {
            let (s, setups) = set_up(|| sweep::Sweep::setup(args.seed, default_threads()))?;
            let mut clients = vec![s; shape.clients];
            let phases = measure(args, shape, clients[0].first_op(), &mut clients)?;
            (setups, phases, clients[0].finish())
        }
        "faulted" => {
            let (jobs, setups) = set_up(|| {
                let jobs = faulted::jobs(&params, args.seed, faulted::JOBS)?;
                let mut warm = faulted::Faulted::new(params, &jobs);
                let mut off = Tracer::new(false);
                for op in 0..faulted::WARMUP_OPS {
                    warm.op(op, &mut off)?;
                }
                Ok(jobs)
            })?;
            let mut clients: Vec<_> = (0..shape.clients)
                .map(|_| faulted::Faulted::new(params, &jobs))
                .collect();
            let phases = measure(args, shape, faulted::WARMUP_OPS, &mut clients)?;
            (setups, phases, Ok(()))
        }
        "fleet" => {
            let (mut f, setups) = set_up(|| fleet::Fleet::setup(params, args.seed, fleet::SIZE))?;
            let phases = measure(args, shape, f.first_op(), std::slice::from_mut(&mut f))?;
            (setups, phases, f.finish())
        }
        other => return Err(format!("unknown workload {other:?}")),
    };
    Ok(Outcome {
        setups,
        timed,
        traced,
        finish_error: finish.err(),
    })
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {flag} {value:?}: {what}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(bad(&format!("not one of {}", WORKLOADS.join(", ")))),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("not a u64"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("not a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Ok(Args {
            workload,
            seed,
            seconds,
            trace,
        }),
        _ => Err(
            "usage: perfbench --workload sweep|faulted|fleet --seed N --seconds S --trace 0|1"
                .to_string(),
        ),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = if argv.first().map(String::as_str) == Some("--steadiness") {
        steady::main(&argv[1..])
    } else {
        parse_args(&argv).and_then(|args| {
            let shape = shape(&args.workload)?;
            let outcome = run(&args, &shape)?;
            let peak_mib = outcome.timed.peak_mib.ok_or("VmHWM was not read")?;
            println!("{}", report::record(&args, &shape, &outcome));
            if let Some((traced, _)) = &outcome.traced {
                report::write_spans(&args, &traced.spans)?;
            }
            println!("{}", report::result(&args, &shape, &outcome, peak_mib));
            Ok(())
        })
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
