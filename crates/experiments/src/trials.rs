//! The seeded trial harness the seven Monte-Carlo sweep drivers share.
//!
//! A sweep is a list of cells — a cluster size, an error level, a point
//! of a fault grid — and each cell runs `trials` independent seeded
//! trials. The harness owns the frame around the trial: trial `t` of
//! cell `key` draws from `seed::derive(seed::derive(root, key), t)`,
//! trials run in blocks on the process-wide [`Pool`] under the driver's
//! thread budget, results come back in trial order, and each cell's
//! trials are counted under the driver's `trials.*` name. A driver
//! supplies only the closure that turns one block's seeds into results,
//! so its output depends on `(root, key, trials)` and on nothing the
//! thread count or the block width could change.

use hetero_par::{seed, Pool};

/// Trials per block for the batched drivers (`variance`, `threshold`):
/// 64 pairs fill one structure-of-arrays arena per pool job, amortizing
/// allocation without inflating worker memory.
pub(crate) const BATCH_BLOCK: usize = 64;

/// Runs one cell's `trials` trials and returns their results in trial
/// order.
///
/// Each pool item is a block of `block` (≥ 1) trials; `threads` caps the
/// fan-out as in [`Pool::map`]. `trial_block` receives one block's
/// seeds in trial order and must return exactly one result per seed. It
/// must not call [`Pool::map`]: the pool fans out at one level only.
pub(crate) fn run_cell<R, F>(
    counter: &'static str,
    root: u64,
    key: u64,
    trials: usize,
    block: usize,
    threads: usize,
    trial_block: F,
) -> Vec<R>
where
    R: Send + 'static,
    F: Fn(&[u64]) -> Vec<R> + Send + Sync + 'static,
{
    hetero_obs::count(counter, trials as u64);
    let cell_seed = seed::derive(root, key);
    Pool::global()
        .map(trials.div_ceil(block), threads, move |b| {
            let lo = b * block;
            let hi = trials.min(lo + block);
            let seeds: Vec<u64> = (lo..hi)
                .map(|t| seed::derive(cell_seed, t as u64))
                .collect();
            let results = trial_block(&seeds);
            debug_assert_eq!(results.len(), seeds.len(), "one result per trial");
            results
        })
        .into_iter()
        .flatten()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trial_t_sees_its_cell_seed_in_trial_order_at_any_threads_and_block() {
        let (root, key) = (0xD1CE, 37);
        // Counts at, below and off every block width's multiples, and 0.
        for trials in [0usize, 1, 6, 7, 64, 65, 130] {
            let expect: Vec<u64> = (0..trials as u64)
                .map(|t| seed::derive(seed::derive(root, key), t))
                .collect();
            for threads in [1, 2, 8] {
                for block in [1, 7, 64] {
                    let got = run_cell(
                        "trials.test",
                        root,
                        key,
                        trials,
                        block,
                        threads,
                        move |seeds| {
                            assert!(!seeds.is_empty() && seeds.len() <= block);
                            seeds.to_vec()
                        },
                    );
                    assert_eq!(
                        got, expect,
                        "{trials} trials, {threads} threads, block {block}"
                    );
                }
            }
        }
    }
}
