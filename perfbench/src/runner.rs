//! The closed loop: each client runs its next op only after the previous
//! one returned, so a slower program receives less load.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::measure::{peak_rss_mib, process_cpu, Span, Tracer};

/// One closed-loop client of a workload.
pub trait Client: Send {
    /// Runs op `index` through the program's public calls, then checks
    /// what they returned. Returns when the calls started and ended (the
    /// check is not part of the op's latency), or why the op failed.
    fn op(&mut self, index: u64, tracer: &mut Tracer) -> Result<(Instant, Instant), String>;

    /// Per-op outcome values summed over this client's ops since the last
    /// call, for the per-layer report (e.g. the work each protocol family
    /// finished); the sums restart from zero.
    fn take_outcomes(&mut self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// How long a phase runs and which ops it runs.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// Index of the phase's first op; later ops follow consecutively.
    pub first_op: u64,
    /// Run at least this long ...
    pub seconds: f64,
    /// ... and complete at least this many ops (peak memory is read when
    /// the last of them completes) ...
    pub min_ops: u64,
    /// ... but start no more than this many.
    pub max_ops: u64,
    /// Record spans.
    pub trace: bool,
}

impl Phase {
    /// A phase that runs exactly ops `first_op .. first_op + ops`.
    pub fn fixed(first_op: u64, ops: u64, trace: bool) -> Self {
        Phase {
            first_op,
            seconds: 0.0,
            min_ops: ops,
            max_ops: ops,
            trace,
        }
    }
}

/// What one phase measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Latency of every op that passed its check, in ms.
    pub latencies_ms: Vec<f64>,
    /// Ops started.
    pub attempted: u64,
    /// Ops that panicked, returned an unexpected error or failed a check.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Wall time of the phase, in s.
    pub wall_s: f64,
    /// Process CPU time (all threads) over the phase, in s.
    pub cpu_s: f64,
    /// Spans of every client (empty unless traced).
    pub spans: Vec<Span>,
    /// Peak resident set size, in MiB, once `min_ops` ops had completed:
    /// a fixed amount of work, so state that grows with every op does not
    /// make the figure follow throughput.
    pub peak_mib: Option<f64>,
}

impl Measured {
    /// Completed ops per wall second.
    pub fn ops_per_s(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.wall_s
    }
}

const KEPT_ERRORS: usize = 5;

/// Runs `clients` concurrently, one thread each, through `phase`.
pub fn closed_loop<C: Client>(clients: &mut [C], phase: Phase) -> Result<Measured, String> {
    let next = AtomicU64::new(phase.first_op);
    let done = AtomicU64::new(0);
    let cpu0 = process_cpu()?;
    let t0 = Instant::now();
    let parts: Vec<Measured> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|c| s.spawn(|| run_client(c, phase, &next, &done, t0)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads contain op panics"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = (process_cpu()? - cpu0).as_secs_f64();
    let mut all = Measured {
        wall_s,
        cpu_s,
        ..Measured::default()
    };
    for p in parts {
        all.latencies_ms.extend(p.latencies_ms);
        all.attempted += p.attempted;
        all.failed += p.failed;
        all.errors.extend(p.errors);
        all.spans.extend(p.spans);
        all.peak_mib = all.peak_mib.or(p.peak_mib);
    }
    all.errors.truncate(KEPT_ERRORS);
    Ok(all)
}

fn run_client<C: Client>(
    client: &mut C,
    phase: Phase,
    next: &AtomicU64,
    done: &AtomicU64,
    t0: Instant,
) -> Measured {
    let mut out = Measured::default();
    let mut tracer = Tracer::new(phase.trace);
    loop {
        let op = next.fetch_add(1, Ordering::Relaxed);
        if op - phase.first_op >= phase.max_ops {
            break;
        }
        out.attempted += 1;
        let result =
            catch_unwind(AssertUnwindSafe(|| client.op(op, &mut tracer))).unwrap_or_else(|panic| {
                let msg = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                Err(format!("panic: {msg}"))
            });
        match result {
            Ok((start, end)) => {
                out.latencies_ms.push((end - start).as_secs_f64() * 1e3);
                tracer.op(op, start, end);
            }
            Err(e) => {
                out.failed += 1;
                if out.errors.len() < KEPT_ERRORS {
                    out.errors.push(format!("op {op}: {e}"));
                }
            }
        }
        let completed = done.fetch_add(1, Ordering::Relaxed) + 1;
        if completed == phase.min_ops {
            out.peak_mib = peak_rss_mib().ok();
        }
        if completed >= phase.min_ops && t0.elapsed().as_secs_f64() >= phase.seconds {
            break;
        }
    }
    out.spans = tracer.into_spans();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fails every third op's check and panics on every fifth.
    struct Flaky;

    impl Client for Flaky {
        fn op(&mut self, index: u64, tracer: &mut Tracer) -> Result<(Instant, Instant), String> {
            let start = Instant::now();
            tracer.span("layer", index, || std::hint::black_box(index * 2));
            let end = Instant::now();
            if index % 5 == 4 {
                panic!("forced panic");
            }
            if index % 3 == 2 {
                return Err("forced check failure".into());
            }
            Ok((start, end))
        }
    }

    #[test]
    fn forced_failures_are_counted() {
        let m = closed_loop(&mut [Flaky, Flaky], Phase::fixed(0, 30, true)).expect("loop runs");
        // Of ops 0..30, 10 fail the check and 6 panic; 2 (14, 29) do both
        // and count once.
        assert_eq!(m.attempted, 30);
        assert_eq!(m.failed, 14);
        assert_eq!(m.latencies_ms.len(), 16);
        assert_eq!(m.errors.len(), KEPT_ERRORS);
        assert!(m
            .errors
            .iter()
            .any(|e| e.contains("panic") || e.contains("check")));
        let op_spans = m.spans.iter().filter(|s| s.name == crate::measure::OP_SPAN);
        assert_eq!(op_spans.count(), 16);
    }

    #[test]
    fn timed_phase_completes_at_least_min_ops() {
        let phase = Phase {
            first_op: 100,
            seconds: 0.0,
            min_ops: 7,
            max_ops: u64::MAX,
            trace: false,
        };
        struct Quick;
        impl Client for Quick {
            fn op(&mut self, _: u64, _: &mut Tracer) -> Result<(Instant, Instant), String> {
                let t = Instant::now();
                Ok((t, t))
            }
        }
        let m = closed_loop(&mut [Quick], phase).expect("loop runs");
        assert_eq!(m.attempted, 7);
        assert!(m.spans.is_empty());
        assert!(m.peak_mib.is_some_and(|mib| mib > 0.0));
    }
}
