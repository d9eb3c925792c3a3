//! The per-run fault index: a plan's specs grouped once per execution so
//! that every point query touches only the specs that can answer it.

use crate::spec::FaultSpec;

/// A per-run query view of a [`FaultPlan`](crate::FaultPlan).
///
/// [`FaultPlan::index`](crate::FaultPlan::index) builds it in O(s log s)
/// for s specs: a stable sort groups each worker's specs (crash,
/// slowdown, result loss) in insertion order, and the channel-jitter
/// windows keep theirs. A worker query then costs O(log s) to find the
/// worker's group plus the group's length, and
/// [`channel_factor`](FaultIndex::channel_factor) scans only the jitter
/// windows — where a scan of the whole plan costs O(s) per query.
///
/// Every answer is bit-identical to such a scan, because each query
/// visits the same specs in the same relative order: slowdown and jitter
/// factors multiply in insertion order, the earliest crash keeps the
/// first of equal times, and loss counts saturate at the same sum. The
/// absence of a fault still costs no floating-point operation:
/// `slowdown_factor`/`channel_factor` return `None` rather than a neutral
/// `1.0`, and `crash_time` returns `None` rather than `f64::INFINITY`.
/// This is what keeps the empty-plan execution bit-identical to the
/// fault-free executor.
///
/// The index borrows its plan and lives for one execution. It is never
/// stored in the plan, so a caller holding thousands of plans pays for
/// one index at a time.
#[derive(Debug)]
pub struct FaultIndex<'a> {
    /// Worker-scoped specs, stably sorted by worker: each worker's specs
    /// form one contiguous group, in insertion order.
    by_worker: Vec<(usize, &'a FaultSpec)>,
    /// Channel-jitter specs, in insertion order.
    jitter: Vec<&'a FaultSpec>,
}

impl<'a> FaultIndex<'a> {
    pub(crate) fn new(specs: &'a [FaultSpec]) -> Self {
        let mut by_worker = Vec::with_capacity(specs.len());
        let mut jitter = Vec::new();
        for spec in specs {
            match *spec {
                FaultSpec::Crash { worker, .. }
                | FaultSpec::Slowdown { worker, .. }
                | FaultSpec::ResultLoss { worker, .. } => by_worker.push((worker, spec)),
                FaultSpec::ChannelJitter { .. } => jitter.push(spec),
            }
        }
        // A stable sort: specs naming one worker keep their plan order.
        by_worker.sort_by_key(|&(worker, _)| worker);
        FaultIndex { by_worker, jitter }
    }

    /// The specs naming `worker`, in insertion order.
    #[inline]
    fn specs_of(&self, worker: usize) -> impl Iterator<Item = &'a FaultSpec> + '_ {
        let start = self.by_worker.partition_point(|&(w, _)| w < worker);
        self.by_worker
            .iter()
            .skip(start)
            .take_while(move |&&(w, _)| w == worker)
            .map(|&(_, spec)| spec)
    }

    /// Earliest crash time for `worker`, or `None` if it never crashes.
    #[inline]
    pub fn crash_time(&self, worker: usize) -> Option<f64> {
        let mut earliest: Option<f64> = None;
        for spec in self.specs_of(worker) {
            if let FaultSpec::Crash { at, .. } = *spec {
                if earliest.is_none_or(|t| at < t) {
                    earliest = Some(at);
                }
            }
        }
        earliest
    }

    /// `true` when the plan has any slowdown window for `worker`, active
    /// or not: a worker without one can never be detected straggling.
    #[inline]
    pub fn has_slowdown(&self, worker: usize) -> bool {
        self.specs_of(worker)
            .any(|spec| matches!(spec, FaultSpec::Slowdown { .. }))
    }

    /// Combined slowdown multiplier for a phase of `worker` starting at
    /// `at`, or `None` when no slowdown window is active (so the
    /// fault-free path multiplies nothing).
    #[inline]
    pub fn slowdown_factor(&self, worker: usize, at: f64) -> Option<f64> {
        let mut combined: Option<f64> = None;
        for spec in self.specs_of(worker) {
            if let FaultSpec::Slowdown {
                factor,
                from,
                until,
                ..
            } = *spec
            {
                if from <= at && at < until {
                    combined = Some(match combined {
                        Some(c) => c * factor,
                        None => factor,
                    });
                }
            }
        }
        combined
    }

    /// Combined channel-rate multiplier for a transit starting at `at`,
    /// or `None` when the channel is unperturbed.
    #[inline]
    pub fn channel_factor(&self, at: f64) -> Option<f64> {
        let mut combined: Option<f64> = None;
        for spec in &self.jitter {
            if let FaultSpec::ChannelJitter {
                factor,
                from,
                until,
            } = **spec
            {
                if from <= at && at < until {
                    combined = Some(match combined {
                        Some(c) => c * factor,
                        None => factor,
                    });
                }
            }
        }
        combined
    }

    /// Total result messages from `worker` that will be lost before one
    /// gets through (zero for unaffected workers).
    #[inline]
    pub fn result_losses(&self, worker: usize) -> u32 {
        let mut total = 0u32;
        for spec in self.specs_of(worker) {
            if let FaultSpec::ResultLoss { count, .. } = *spec {
                total = total.saturating_add(count);
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultPlan;
    use proptest::prelude::*;

    // --- the oracle: one scan of the whole plan per query ----------------

    fn scan_crash_time(specs: &[FaultSpec], worker: usize) -> Option<f64> {
        let mut earliest: Option<f64> = None;
        for spec in specs {
            if let FaultSpec::Crash { worker: w, at } = *spec {
                if w == worker && earliest.is_none_or(|t| at < t) {
                    earliest = Some(at);
                }
            }
        }
        earliest
    }

    fn scan_slowdown_factor(specs: &[FaultSpec], worker: usize, at: f64) -> Option<f64> {
        let mut combined: Option<f64> = None;
        for spec in specs {
            if let FaultSpec::Slowdown {
                worker: w,
                factor,
                from,
                until,
            } = *spec
            {
                if w == worker && from <= at && at < until {
                    combined = Some(combined.map_or(factor, |c| c * factor));
                }
            }
        }
        combined
    }

    fn scan_channel_factor(specs: &[FaultSpec], at: f64) -> Option<f64> {
        let mut combined: Option<f64> = None;
        for spec in specs {
            if let FaultSpec::ChannelJitter {
                factor,
                from,
                until,
            } = *spec
            {
                if from <= at && at < until {
                    combined = Some(combined.map_or(factor, |c| c * factor));
                }
            }
        }
        combined
    }

    fn scan_result_losses(specs: &[FaultSpec], worker: usize) -> u32 {
        let mut total = 0u32;
        for spec in specs {
            if let FaultSpec::ResultLoss { worker: w, count } = *spec {
                if w == worker {
                    total = total.saturating_add(count);
                }
            }
        }
        total
    }

    // --- generators -------------------------------------------------------

    /// Window edges and crash times on a coarse grid, so windows overlap
    /// and crash times tie; `-0.0` and `0.0` are both valid times.
    fn time() -> impl Strategy<Value = f64> {
        prop_oneof![
            (0u32..12).prop_map(|k| f64::from(k) * 50.0),
            Just(-0.0),
            Just(0.0),
            0.0f64..600.0,
        ]
    }

    fn window() -> impl Strategy<Value = (f64, f64)> {
        (time(), 1u32..8).prop_map(|(from, k)| (from, from.max(0.0) + f64::from(k) * 37.5))
    }

    /// Workers crowd a few low ids (long groups) or spread to 300.
    fn worker() -> impl Strategy<Value = usize> {
        prop_oneof![0usize..4, 0usize..=300]
    }

    fn spec() -> impl Strategy<Value = FaultSpec> {
        prop_oneof![
            (worker(), time()).prop_map(|(worker, at)| FaultSpec::Crash { worker, at }),
            (worker(), 1.0f64..4.0, window()).prop_map(|(worker, factor, (from, until))| {
                FaultSpec::Slowdown {
                    worker,
                    factor,
                    from,
                    until,
                }
            }),
            (0.25f64..4.0, window()).prop_map(|(factor, (from, until))| {
                FaultSpec::ChannelJitter {
                    factor,
                    from,
                    until,
                }
            }),
            (worker(), prop_oneof![1u32..4, (u32::MAX - 2)..=u32::MAX])
                .prop_map(|(worker, count)| FaultSpec::ResultLoss { worker, count }),
        ]
    }

    /// `x` and its neighbours one ulp away on either side.
    fn around(x: f64) -> [f64; 3] {
        let up = |v: f64| {
            if v == 0.0 {
                f64::from_bits(1)
            } else if v > 0.0 {
                f64::from_bits(v.to_bits() + 1)
            } else {
                f64::from_bits(v.to_bits() - 1)
            }
        };
        [-up(-x), x, up(x)]
    }

    fn bits(x: Option<f64>) -> Option<u64> {
        x.map(f64::to_bits)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn every_query_matches_a_scan_of_the_whole_plan_bit_for_bit(
            specs in prop::collection::vec(spec(), 0..=200),
        ) {
            let plan = FaultPlan::new(specs).unwrap();
            let specs = plan.specs();
            let index = plan.index();
            // Every worker the plan names, its neighbours, and ones it
            // does not name; every window edge, at and one ulp either side.
            let mut workers: Vec<usize> = vec![0, 1, 299, 300, 301, usize::MAX];
            let mut times: Vec<f64> = vec![-0.0, 0.0, 600.0];
            for spec in specs {
                match *spec {
                    FaultSpec::Crash { worker, at } => {
                        workers.extend([worker, worker + 1]);
                        times.extend(around(at));
                    }
                    FaultSpec::Slowdown { worker, .. } | FaultSpec::ResultLoss { worker, .. } => {
                        workers.push(worker);
                    }
                    FaultSpec::ChannelJitter { from, until, .. } => {
                        times.extend(around(from).into_iter().chain(around(until)));
                    }
                }
            }
            for &w in &workers {
                prop_assert_eq!(bits(index.crash_time(w)), bits(scan_crash_time(specs, w)));
                prop_assert_eq!(index.result_losses(w), scan_result_losses(specs, w));
                // The edges of this worker's windows, where its factor changes.
                let edges: Vec<f64> = specs
                    .iter()
                    .filter_map(|s| match *s {
                        FaultSpec::Slowdown { worker, from, until, .. } if worker == w => {
                            Some(around(from).into_iter().chain(around(until)))
                        }
                        _ => None,
                    })
                    .flatten()
                    .collect();
                prop_assert_eq!(index.has_slowdown(w), !edges.is_empty());
                for &t in edges.iter().chain(&[-0.0, 0.0, 300.0]) {
                    prop_assert_eq!(
                        bits(index.slowdown_factor(w, t)),
                        bits(scan_slowdown_factor(specs, w, t)),
                        "worker {} at {:e}", w, t
                    );
                }
            }
            for &t in &times {
                prop_assert_eq!(
                    bits(index.channel_factor(t)),
                    bits(scan_channel_factor(specs, t)),
                    "channel at {:e}", t
                );
            }
        }
    }
}
