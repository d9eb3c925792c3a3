//! The seeded trial harness the seven Monte-Carlo sweep drivers share.
//!
//! A sweep is a grid of cells — a cluster size, an error level, a point
//! of a fault grid — and each cell runs `trials` independent seeded
//! trials. The harness owns the frame around the trial: trial `t` of
//! cell `key` draws from `seed::derive(seed::derive(root, key), t)`, the
//! blocks of every cell run in one [`Pool::map`] on the process-wide
//! pool under the driver's thread budget (one fan-out per driver, not
//! one per cell), each cell's results come back in trial order, and the
//! grid's trials are counted under the driver's `trials.*` name. A
//! driver supplies only the closure that turns one block's seeds into
//! results, so its output depends on `(root, key, trials)` and on
//! nothing the thread count could change, nor, in strict numeric mode,
//! the block width (fast mode evaluates a batch's tail rows with another
//! kernel than its full lane groups).
//!
//! The four drivers that judge equal-mean pairs (`variance`,
//! `threshold`, `moments_ext`, `majorization_ext`) size their blocks by
//! ρ-values ([`pair_block`]) and run each block through one lockstep X
//! pass ([`pair_trials`]).

use hetero_clustergen::{rng_from_seed, EqualMeanPairGen, PairBatcher, PairSample};
use hetero_core::xbatch::{self, ProfileBatch};
use hetero_core::{NumericMode, Params};
use hetero_par::{seed, Pool};
use rand::rngs::StdRng;

/// One cell of a driver's grid.
#[derive(Debug, Clone)]
pub(crate) struct Cell<D> {
    /// The cell's seed key: trial `t` draws from
    /// `seed::derive(seed::derive(root, key), t)`.
    pub(crate) key: u64,
    /// Trials per pool item (≥ 1).
    pub(crate) block: usize,
    /// What the cell's trials read (a size, an error level, a grid point).
    pub(crate) data: D,
}

/// Runs `trials` trials of every cell in `cells` and returns each cell's
/// results in trial order, one vector per cell in grid order.
///
/// Every block of every cell is one item of a single [`Pool::map`], in
/// (cell, block) order; `threads` caps the fan-out as in [`Pool::map`].
/// `trial_block` receives the cell's data and one block's seeds in trial
/// order and must return exactly one result per seed. It must not call
/// [`Pool::map`]: the pool fans out at one level only.
pub(crate) fn run_grid<D, R, F>(
    counter: &'static str,
    root: u64,
    cells: &[Cell<D>],
    trials: usize,
    threads: usize,
    trial_block: F,
) -> Vec<Vec<R>>
where
    D: Clone + Send + Sync + 'static,
    R: Send + 'static,
    F: Fn(&D, &[u64]) -> Vec<R> + Send + Sync + 'static,
{
    if !cells.is_empty() {
        hetero_obs::count(counter, (cells.len() * trials) as u64);
    }
    // Every block as (cell index, first trial), in (cell, block) order.
    let blocks: Vec<(usize, usize)> = cells
        .iter()
        .enumerate()
        .flat_map(|(c, cell)| (0..trials).step_by(cell.block).map(move |lo| (c, lo)))
        .collect();
    let grid = cells.to_vec();
    let mut results = Pool::global()
        .map(blocks.len(), threads, move |b| {
            let (c, lo) = blocks[b];
            let cell = &grid[c];
            let cell_seed = seed::derive(root, cell.key);
            let seeds: Vec<u64> = (lo..trials.min(lo + cell.block))
                .map(|t| seed::derive(cell_seed, t as u64))
                .collect();
            let results = trial_block(&cell.data, &seeds);
            debug_assert_eq!(results.len(), seeds.len(), "one result per trial");
            results
        })
        .into_iter();
    cells
        .iter()
        .map(|cell| {
            results
                .by_ref()
                .take(trials.div_ceil(cell.block))
                .flatten()
                .collect()
        })
        .collect()
}

/// Most ρ-values one batched block holds: 2¹⁵ values, 256 KiB of `f64`.
/// A driver-wide fan-out keeps up to one block per worker in flight, so
/// the cap bounds sweep memory however large the cluster size.
const MAX_BLOCK_VALUES: usize = 1 << 15;

/// Trials per block of a cell whose trials each load one equal-mean pair
/// of `n`-computer profiles (`2n` ρ-values) into a batch: as many as fit
/// [`MAX_BLOCK_VALUES`], at most 64 (enough to amortize the arena and
/// fill the lockstep kernel's lanes) and never fewer than 8 (one full
/// set of lanes). That is 64 trials up to n = 256, 32 at n = 512 and 16
/// at n = 1024.
pub(crate) fn pair_block(n: usize) -> usize {
    (MAX_BLOCK_VALUES / (2 * n.max(1))).clamp(8, 64)
}

/// One pair-batched cell per cluster size, keyed by the size itself so
/// sizes never share RNG streams.
pub(crate) fn pair_cells(sizes: &[usize]) -> Vec<Cell<usize>> {
    sizes
        .iter()
        .map(|&n| Cell {
            key: n as u64,
            block: pair_block(n),
            data: n,
        })
        .collect()
}

/// The signed variance gap `VAR(P1) − VAR(P2)` of a drawn pair, or
/// `None` when generation failed or the gap is below 1e-12, a variance
/// tie that settles the trial before X.
pub(crate) fn untied_gap(pair: Option<PairSample>) -> Option<f64> {
    let gap = pair.map_or(0.0, |p| p.var1 - p.var2);
    if gap.abs() < 1e-12 {
        None
    } else {
        Some(gap)
    }
}

/// Runs one block of equal-mean pair trials through the lockstep X
/// kernel.
///
/// Trial `i` seeds its stream with `seeds[i]`, takes its generator from
/// `draw` and its pair from [`PairBatcher::sample_into`], straight into
/// one [`ProfileBatch`]. `screen` reads the pair's statistics (`None`
/// when generation failed) and either passes a state on to X or settles
/// the trial with its result, retracting the pair's rows. One lockstep
/// pass then evaluates every kept pair, and `judge` turns a state, the
/// pair's two X-values and its two sorted ρ-rows into the trial's
/// result. Per trial these are the draws of [`EqualMeanPairGen::sample`]
/// and, in strict mode, the arithmetic of the scalar X kernel, so a
/// batched sweep equals its driver's scalar `one_trial` fold (each
/// driver's `batched_run_matches_the_scalar_reference` test pins it).
pub(crate) fn pair_trials<S, R>(
    params: &Params,
    numeric: NumericMode,
    n: usize,
    seeds: &[u64],
    draw: impl Fn(&mut StdRng) -> EqualMeanPairGen,
    screen: impl Fn(Option<PairSample>) -> Result<S, R>,
    judge: impl Fn(S, [f64; 2], [&[f64]; 2]) -> R,
) -> Vec<R> {
    let mut batch = ProfileBatch::with_capacity(2 * seeds.len(), 2 * n * seeds.len());
    let mut batcher = PairBatcher::new();
    let screened: Vec<Result<S, R>> = seeds
        .iter()
        .map(|&trial_seed| {
            let mut rng = rng_from_seed(trial_seed);
            let gen = draw(&mut rng);
            let pair = batcher.sample_into(&gen, &mut rng, &mut batch);
            let loaded = pair.is_some();
            let state = screen(pair);
            if loaded && state.is_err() {
                batch.truncate(batch.len() - 2);
            }
            state
        })
        .collect();
    let xs = xbatch::x_measures_mode(params, &batch, numeric);
    let mut row = 0;
    screened
        .into_iter()
        .map(|state| match state {
            Err(settled) => settled,
            Ok(state) => {
                let result = judge(
                    state,
                    [xs[row], xs[row + 1]],
                    [batch.rhos_of(row), batch.rhos_of(row + 1)],
                );
                row += 2;
                result
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_cell_sees_its_seeds_in_trial_order_at_any_threads_and_block() {
        let root = 0xD1CE;
        // Pair-batched cells at sizes where the ρ cap sets the block (64,
        // 32, 16 and 8 trials) beside unbatched widths 1 and 7; the data
        // is (pair size, block), with size 0 for an unbatched cell.
        let batched = |n: usize| Cell {
            key: n as u64,
            block: pair_block(n),
            data: (n, pair_block(n)),
        };
        let unbatched = |key: u64, block: usize| Cell {
            key,
            block,
            data: (0, block),
        };
        let grids: [Vec<Cell<(usize, usize)>>; 4] = [
            Vec::new(),
            vec![batched(512)],
            vec![unbatched(37, 1)],
            vec![
                batched(4),
                unbatched(1, 1),
                batched(1024),
                unbatched(2, 7),
                batched(256),
                batched(2048),
            ],
        ];
        assert_eq!(
            [4, 256, 512, 1024, 2048].map(pair_block),
            [64, 64, 32, 16, 8]
        );
        // Counts at, below and off every block width's multiples, and 0.
        for trials in [0usize, 1, 7, 64, 65, 130] {
            for cells in &grids {
                let expect: Vec<Vec<u64>> = cells
                    .iter()
                    .map(|cell| {
                        (0..trials as u64)
                            .map(|t| seed::derive(seed::derive(root, cell.key), t))
                            .collect()
                    })
                    .collect();
                for threads in [1, 2, 8] {
                    let got = run_grid(
                        "trials.test",
                        root,
                        cells,
                        trials,
                        threads,
                        |&(n, block), seeds| {
                            assert!(!seeds.is_empty() && seeds.len() <= block);
                            assert!(2 * n * seeds.len() <= MAX_BLOCK_VALUES, "n = {n}");
                            seeds.to_vec()
                        },
                    );
                    assert_eq!(
                        got,
                        expect,
                        "{trials} trials, {threads} threads, {} cells",
                        cells.len()
                    );
                }
            }
        }
    }
}
