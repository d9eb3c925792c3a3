//! `fleet`: one op is one controller tick over a churning fleet of about
//! 2^20 workers — a batch of churn events, a read of the live X, and one
//! placement query on a candidate set.

use std::time::Instant;

use hetero_core::hcompress::SummaryTree;
use hetero_core::xmeasure::x_measure_of_rhos;
use hetero_core::xstream::{ChurnScan, WorkerId};
use hetero_core::{selection, speedup, Params, Profile};
use hetero_par::seed;

use crate::measure::Tracer;
use crate::runner::Client;
use crate::uniform;

/// The layer spans of one op, in call order.
pub const LAYERS: [&str; 7] = [
    "xstream.churn",
    "xstream.read",
    "selection.best_k_subset",
    "selection.smallest_fleet_for",
    "speedup.best_multiplicative_index",
    "hcompress.build",
    "hcompress.compress",
];

/// Sizes of the fleet, its churn and its placement queries.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Workers in the initial fleet.
    pub workers: usize,
    /// Churn events per op.
    pub churn: usize,
    /// Length of the pre-generated churn stream, which ops walk cyclically.
    pub stream: usize,
    /// Candidate sets, which ops use cyclically.
    pub candidates: usize,
    /// Workers per candidate set.
    pub candidate_n: usize,
    /// Ops run untimed at the end of set-up.
    pub warmup_ops: u64,
}

/// The benchmark's size.
pub const SIZE: Size = Size {
    workers: 1 << 20,
    churn: 1024,
    stream: 1 << 20,
    candidates: 64,
    candidate_n: 2048,
    warmup_ops: 16,
};

/// Clusters the initial fleet is compressed to.
const FLEET_CLUSTERS: usize = 64;
/// Clusters a candidate set is compressed to.
const CANDIDATE_CLUSTERS: usize = 16;
/// Share of the candidate set's X the smallest sub-fleet must reach.
const TARGET: f64 = 0.9;
/// Multiplicative upgrade offered to one candidate worker.
const PSI: f64 = 0.5;
/// Slowest and fastest ρ of any worker.
const RHO: (f64, f64) = (0.05, 1.0);
/// Relative rounding slack between two evaluation orders of one X.
const SLACK: f64 = 1e-12;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    Join(f64),
    Leave(u32),
    Change(u32, f64),
}

/// A candidate set and the flat-evaluation references its checks use.
pub struct Candidate {
    profile: Profile,
    x: f64,
    fastest_half_x: f64,
}

fn rho(state: &mut u64) -> f64 {
    uniform(state, RHO.0, RHO.1)
}

/// The fleet controller's state.
pub struct Fleet {
    params: Params,
    size: Size,
    scan: ChurnScan,
    live: Vec<WorkerId>,
    stream: Vec<Event>,
    candidates: Vec<Candidate>,
}

impl Fleet {
    /// Builds the fleet, its churn stream and the candidate sets from
    /// `root`, then runs the warm-up ticks (ops `0..warmup_ops`).
    pub fn setup(params: Params, root: u64, size: Size) -> Result<Self, String> {
        let mut s = seed::derive(root, 0);
        let rhos: Vec<f64> = (0..size.workers).map(|_| rho(&mut s)).collect();
        let (scan, live) = ChurnScan::from_rhos(&params, &rhos).map_err(|e| e.to_string())?;
        let tree = SummaryTree::new(&params, &rhos).map_err(|e| e.to_string())?;
        let initial = tree.compress(FLEET_CLUSTERS).map_err(|e| e.to_string())?;
        if (initial.x() - scan.x()).abs() > tree.x_error_bound() + 1e-11 * scan.x() {
            return Err("compressed initial fleet drifts from its scan".into());
        }
        drop(rhos);

        let mut s = seed::derive(root, 1);
        let stream = (0..size.stream)
            .map(|i| {
                let pick = (seed::next(&mut s) >> 32) as u32;
                match i % 3 {
                    0 => Event::Join(rho(&mut s)),
                    1 => Event::Leave(pick),
                    _ => Event::Change(pick, rho(&mut s)),
                }
            })
            .collect();

        let mut s = seed::derive(root, 2);
        let candidates = (0..size.candidates)
            .map(|_| {
                let profile =
                    Profile::from_unsorted((0..size.candidate_n).map(|_| rho(&mut s)).collect())
                        .map_err(|e| e.to_string())?;
                let half = selection::fastest_k(&profile, size.candidate_n / 2)
                    .map_err(|e| e.to_string())?;
                Ok(Candidate {
                    x: x_measure_of_rhos(&params, profile.rhos()),
                    fastest_half_x: x_measure_of_rhos(&params, half.rhos()),
                    profile,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;

        let mut fleet = Fleet {
            params,
            size,
            scan,
            live,
            stream,
            candidates,
        };
        let mut off = Tracer::new(false);
        for op in 0..size.warmup_ops {
            fleet.op(op, &mut off)?;
        }
        Ok(fleet)
    }

    /// Index of the first op after the warm-up.
    pub fn first_op(&self) -> u64 {
        self.size.warmup_ops
    }

    /// After the churn, the streamed X still matches a flat evaluation of
    /// the same workers.
    pub fn finish(&mut self) -> Result<(), String> {
        let flat = x_measure_of_rhos(&self.params, &self.scan.to_rhos());
        let live = self.scan.x();
        if (live - flat).abs() > SLACK * flat || self.scan.n() != self.live.len() {
            return Err(format!("churned X {live} vs flat {flat}"));
        }
        Ok(())
    }

    fn churn(&mut self, op: u64) -> Result<(), String> {
        let len = self.stream.len();
        let from = (op as usize * self.size.churn) % len;
        for i in from..from + self.size.churn {
            match self.stream[i % len] {
                Event::Join(rho) => self
                    .live
                    .push(self.scan.insert(rho).map_err(|e| e.to_string())?),
                Event::Leave(pick) => {
                    let id = self.live.swap_remove(pick as usize % self.live.len());
                    self.scan.delete(id).map_err(|e| e.to_string())?;
                }
                Event::Change(pick, rho) => {
                    let id = self.live[pick as usize % self.live.len()];
                    self.scan.replace(id, rho).map_err(|e| e.to_string())?;
                }
            }
        }
        Ok(())
    }
}

/// X of the `k` fastest workers of a slowest-first profile.
fn x_fastest(params: &Params, profile: &Profile, k: usize) -> f64 {
    x_measure_of_rhos(params, &profile.rhos()[profile.n() - k..])
}

impl Client for Fleet {
    fn op(&mut self, index: u64, tr: &mut Tracer) -> Result<(Instant, Instant), String> {
        let start = Instant::now();
        tr.span(LAYERS[0], index, || self.churn(index))?;
        let (x, residual) = tr.span(LAYERS[1], index, || {
            (self.scan.x(), self.scan.residual_product())
        });
        let params = &self.params;
        let cand = &self.candidates[index as usize % self.candidates.len()];
        let profile = &cand.profile;
        let half = profile.n() / 2;
        let winner = tr
            .span(LAYERS[2], index, || {
                selection::best_k_subset(params, profile, half)
            })
            .map_err(|e| format!("best_k_subset: {e}"))?;
        let k = tr
            .span(LAYERS[3], index, || {
                selection::smallest_fleet_for(params, profile, TARGET)
            })
            .map_err(|e| format!("smallest_fleet_for: {e}"))?;
        let upgrade = tr.span(LAYERS[4], index, || {
            speedup::best_multiplicative_index(params, profile, PSI)
        });
        let tree = tr
            .span(LAYERS[5], index, || {
                SummaryTree::new(params, profile.rhos())
            })
            .map_err(|e| format!("SummaryTree::new: {e}"))?;
        let compressed = tr
            .span(LAYERS[6], index, || tree.compress(CANDIDATE_CLUSTERS))
            .map_err(|e| format!("compress: {e}"))?;
        let end = Instant::now();

        if !(x.is_finite() && x > 0.0 && residual > 0.0 && residual <= 1.0) {
            return Err(format!("fleet X {x}, residual product {residual}"));
        }
        let won = x_measure_of_rhos(params, winner.rhos());
        if winner.n() != half || won < cand.fastest_half_x {
            return Err(format!(
                "best {half}-subset X {won} < fastest-{half} X {}",
                cand.fastest_half_x
            ));
        }
        let target = TARGET * cand.x;
        let reaches = |k: usize| x_fastest(params, profile, k) >= target * (1.0 - SLACK);
        let misses = |k: usize| k == 0 || x_fastest(params, profile, k) < target * (1.0 + SLACK);
        if !(1..=profile.n()).contains(&k) || !reaches(k) || !misses(k - 1) {
            return Err(format!("smallest fleet for {TARGET} of X is not {k}"));
        }
        if upgrade.is_none_or(|i| i >= profile.n()) {
            return Err(format!("no upgrade index: {upgrade:?}"));
        }
        let drift = (compressed.x() - cand.x).abs();
        if compressed.n() != profile.n() || drift > tree.x_error_bound() + 1e-11 * cand.x {
            return Err(format!("compressed X drifts by {drift}"));
        }
        Ok((start, end))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Size = Size {
        workers: 4096,
        churn: 96,
        stream: 1000,
        candidates: 3,
        candidate_n: 96,
        warmup_ops: 2,
    };

    fn ticks(root: u64) -> (Vec<bool>, Vec<u64>, Vec<f64>) {
        let mut f = Fleet::setup(Params::paper_table1(), root, SMALL).unwrap();
        let mut tr = Tracer::new(false);
        let mut ok = Vec::new();
        let mut xs = Vec::new();
        for op in f.first_op()..f.first_op() + 12 {
            ok.push(f.op(op, &mut tr).is_ok());
            xs.push(f.scan.x().to_bits());
        }
        f.finish().unwrap();
        (ok, xs, f.scan.to_rhos())
    }

    #[test]
    fn same_seed_gives_the_same_fleet_and_check_results() {
        let (ok, xs, rhos) = ticks(5);
        assert!(ok.iter().all(|&x| x), "every tick passes its checks");
        let again = ticks(5);
        assert_eq!((&ok, &xs), (&again.0, &again.1));
        assert_eq!(rhos, again.2);
        let other = ticks(6);
        assert_ne!(xs, other.1);
    }

    #[test]
    fn churn_mixes_joins_leaves_and_changes() {
        let f = Fleet::setup(Params::paper_table1(), 3, SMALL).unwrap();
        let joins = f
            .stream
            .iter()
            .filter(|e| matches!(e, Event::Join(_)))
            .count();
        let leaves = f
            .stream
            .iter()
            .filter(|e| matches!(e, Event::Leave(_)))
            .count();
        assert_eq!((joins, leaves), (334, 333));
        // Joins and leaves balance, so the fleet keeps its size.
        assert_eq!(f.scan.n(), SMALL.workers);
    }
}
