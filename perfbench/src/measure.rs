//! Measurement primitives: the `/proc` readers, order statistics and the
//! in-memory span recorder.

use std::time::{Duration, Instant};

/// Clock ticks per second of the `utime`/`stime` fields of `/proc/*/stat`.
/// The kernel exports CPU time to userspace in `USER_HZ` units, fixed at
/// 100 on x86-64 and aarch64 whatever the kernel's internal `HZ`.
const USER_HZ: f64 = 100.0;

/// Process CPU time, user plus system, summed over every thread the
/// process has run, parsed from the text of `/proc/self/stat`.
pub fn parse_stat_cpu(stat: &str) -> Option<Duration> {
    // Field 2, the command name, is parenthesised and may itself contain
    // spaces or ')'; count fields from the last ')'. The first field after
    // it is field 3 (state), so utime (14) and stime (15) are 11 and 12.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(Duration::from_secs_f64((utime + stime) as f64 / USER_HZ))
}

/// Peak resident set size (`VmHWM`) in MiB, parsed from the text of
/// `/proc/self/status`.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let kib: f64 = parts.next()?.parse().ok()?;
    (parts.next()? == "kB").then_some(kib / 1024.0)
}

/// The process's CPU time so far.
pub fn process_cpu() -> Result<Duration, String> {
    let text = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("reading /proc/self/stat: {e}"))?;
    parse_stat_cpu(&text).ok_or_else(|| "unparsable /proc/self/stat".to_string())
}

/// The process's peak resident set size so far, in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let text = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    parse_vm_hwm_mib(&text).ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// 1-based nearest rank of the `pct`-th percentile among `n` samples:
/// the smallest rank with at least `pct`% of the samples at or below it.
pub fn tail_rank(n: usize, pct: usize) -> usize {
    (pct * n).div_ceil(100).max(1)
}

/// How many of `n` samples lie beyond the `pct`-th percentile.
pub fn beyond_tail(n: usize, pct: usize) -> usize {
    n - tail_rank(n, pct)
}

/// The fewest samples that leave at least ten beyond the `pct`-th
/// percentile, so a reported tail is never just the maximum.
pub fn min_samples_for_tail(pct: usize) -> usize {
    (1..)
        .find(|&n| beyond_tail(n, pct) >= 10)
        .expect("pct < 100")
}

/// The nearest-rank `pct`-th percentile of ascending `sorted`.
pub fn percentile(sorted: &[f64], pct: usize) -> f64 {
    sorted[tail_rank(sorted.len(), pct) - 1]
}

/// Median of ascending `sorted` (mean of the middle pair for even counts).
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartiles of ascending `sorted` by the same rule as
/// Python's `statistics.quantiles(values, n=4)` (the "exclusive" method),
/// so the spreads printed here match that common definition. Needs at
/// least two samples.
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let m = sorted.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, sorted.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Name of the span that covers one whole op. Every other span of the
/// same op id is a layer call made inside it, so the op span is their
/// parent.
pub const OP_SPAN: &str = "op";

/// One timed interval of one op.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// [`OP_SPAN`] or the public call it covers, e.g. `exec.execute`.
    pub name: &'static str,
    /// The op the span belongs to.
    pub op: u64,
    /// When the interval started.
    pub start: Instant,
    /// When it ended.
    pub end: Instant,
}

impl Span {
    /// Length of the interval.
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }
}

/// Records spans in memory when tracing is on; costs one branch per call
/// when it is off.
pub struct Tracer {
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that keeps spans only when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            spans: Vec::with_capacity(if on { 1 << 16 } else { 0 }),
        }
    }

    /// Runs `f` as the layer call `name` of op `op`.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.spans.push(Span {
            name,
            op,
            start,
            end,
        });
        out
    }

    /// Records the span covering the whole of op `op`.
    pub fn op(&mut self, op: u64, start: Instant, end: Instant) {
        if self.on {
            self.spans.push(Span {
                name: OP_SPAN,
                op,
                start,
                end,
            });
        }
    }

    /// The recorded spans, in recording order.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentiles_leave_ten_samples_beyond() {
        for pct in [50, 90, 99] {
            let need = min_samples_for_tail(pct);
            assert!(beyond_tail(need, pct) >= 10, "p{pct} at {need}");
            assert!(beyond_tail(need - 1, pct) < 10, "p{pct} not minimal");
            for n in need..need * 5 {
                assert!(beyond_tail(n, pct) >= 10, "p{pct} at {n}");
            }
        }
        assert_eq!(min_samples_for_tail(90), 100);
        assert_eq!(min_samples_for_tail(99), 1000);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90), 90.0);
        assert_eq!(percentile(&v, 99), 99.0);
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&[7.0], 99), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0]), (1.25, 7.0));
        assert_eq!(median(&[1.0, 2.0, 4.0, 8.0]), 3.0);
    }

    #[test]
    fn stat_reader_counts_fields_after_the_command_name() {
        // A command name with spaces and a ')' must not shift the fields.
        let stat = "4242 (a b) c) S 1 4242 4242 0 -1 4194560 1234 0 0 0 \
                    250 37 0 0 20 0 3 0 100 1000 200 18446744073709551615";
        assert_eq!(parse_stat_cpu(stat), Some(Duration::from_millis(2870)));
        assert_eq!(parse_stat_cpu("4242 (truncated) S 1 2"), None);
        assert_eq!(parse_stat_cpu("no parenthesis"), None);
    }

    #[test]
    fn status_reader_takes_vm_hwm_in_kib() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  300000 kB\nVmHWM:\t  126976 kB\nVmRSS:\t  100 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(124.0));
        assert_eq!(parse_vm_hwm_mib("VmRSS:\t 100 kB\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t 100 MB\n"), None);
    }

    #[test]
    fn live_proc_readers_return_plausible_values() {
        assert!(process_cpu().is_ok());
        let rss = peak_rss_mib().expect("VmHWM");
        assert!(rss > 0.0 && rss < 1e6, "{rss}");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut off = Tracer::new(false);
        assert_eq!(off.span("x", 0, || 3), 3);
        let t = Instant::now();
        off.op(0, t, t);
        assert!(off.into_spans().is_empty());
        let mut on = Tracer::new(true);
        on.span("x", 1, || ());
        on.op(1, t, Instant::now());
        let spans = on.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[1].name), ("x", OP_SPAN));
    }
}
