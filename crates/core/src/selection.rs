//! Cluster composition: which computers are worth keeping?
//!
//! The paper asks *what determines a cluster's power*; the operator's
//! version is *which `k` of my `n` computers should I actually rent?*
//! Proposition 2 settles it: any subset is pointwise dominated by the
//! `k` fastest computers (sort both subsets — each rank of the fastest-`k`
//! subset is at least as fast), so by minorization the **`k` fastest are
//! always an optimal `k`-subset**. This module verifies that claim with
//! *exact search* that does not assume it:
//!
//! * [`best_k_subset`] — branch-and-bound over the Lemma 1 symmetric-form
//!   recurrence: depth-first over elements in ascending index order, an
//!   admissible bound from the [`hcompress`](crate::hcompress) summary
//!   tree ("finish with the `s` fastest remaining" — the Proposition 3
//!   dominance ordering makes it an upper bound), and an equal-speed
//!   dominance rule that canonicalizes ties. Exact far beyond the
//!   enumerable range, with a winner bit-identical to the Gray walk
//!   wherever both run.
//! * [`best_k_subset_gray`] — the exhaustive Gray-code walk, kept as the
//!   independent oracle that the tests and the `subset_bnb` bench check
//!   branch-and-bound against.
//!
//! [`marginal_gains`] quantifies the diminishing returns that the
//! X-measure's saturation at `1/(A−τδ)` imposes; [`smallest_fleet_for`]
//! inverts the curve by binary search. The fleet-curve functions read all
//! `n` sub-cluster X-values off one backward
//! [`XScan`] suffix scan instead of `n` full
//! evaluations.

use std::cmp::Ordering;

use crate::hcompress::SummaryTree;
use crate::numeric::KahanSum;
use crate::xengine::XScan;
use crate::xmeasure::{x_measure_of_rhos, x_supremum};
use crate::{ModelError, Params, Profile};

/// The `k` fastest computers of the profile, as a new profile. By
/// Proposition 2 this is an optimal `k`-subset (a fact the tests verify
/// exhaustively against [`best_k_subset`]).
pub fn fastest_k(profile: &Profile, k: usize) -> Result<Profile, ModelError> {
    if k == 0 || k > profile.n() {
        return Err(ModelError::IndexOutOfRange {
            index: k,
            n: profile.n(),
        });
    }
    // Profiles are sorted slowest-first, so the k fastest are the suffix.
    Profile::new(profile.rhos()[profile.n() - k..].to_vec())
}

/// The largest cluster the exhaustive walk [`best_k_subset_gray`] can
/// enumerate — its subset masks are `u64` bit-sets. [`best_k_subset`]
/// has no such cap: branch-and-bound prunes instead of enumerating.
pub const MAX_SUBSET_SEARCH_N: usize = 63;

/// Search statistics of one [`best_k_subset_with_stats`] run, for the
/// pruned-vs-exhaustive accounting in benches, the E20 sweep, and the
/// CLI's obs manifest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BnbStats {
    /// Decision nodes expanded (including forced-completion chains).
    pub nodes_visited: u64,
    /// Subtrees cut — by the admissible bound or the equal-speed
    /// dominance rule — without being expanded.
    pub nodes_pruned: u64,
    /// Complete `k`-subsets whose X was evaluated and offered.
    pub leaves_evaluated: u64,
}

impl BnbStats {
    /// How many subsets an exhaustive walk over the same cluster visits
    /// (`2ⁿ − 1`, as an `f64` because `n` may far exceed 63).
    pub fn exhaustive_subsets(n: usize) -> f64 {
        (n as f64).exp2() - 1.0
    }

    /// Fraction of the exhaustive subset space never materialized:
    /// `1 − visited/2ⁿ`, in `[0, 1)`.
    pub fn pruned_fraction(&self, n: usize) -> f64 {
        1.0 - self.nodes_visited as f64 / Self::exhaustive_subsets(n)
    }
}

/// Finds the exact `k`-subset maximizing X (smallest mask — i.e. first in
/// ascending-mask order — among exact ties), by branch-and-bound instead
/// of enumeration. Works for any `n` (memory O(n), winner identical to
/// [`best_k_subset_gray`] wherever the walk is feasible).
pub fn best_k_subset(params: &Params, profile: &Profile, k: usize) -> Result<Profile, ModelError> {
    best_k_subset_with_stats(params, profile, k).map(|(winner, _)| winner)
}

/// [`best_k_subset`] plus its [`BnbStats`].
///
/// # Search design
///
/// Depth-first over elements in **ascending index order**, each node
/// deciding skip/take for one element. The path state is the Lemma 1
/// recurrence state after the taken prefix — a compensated partial sum
/// and prefix product, updated by exactly the operation sequence of
/// [`x_measure_of_rhos`] — so every
/// leaf's X is **bit-identical** to the Gray walk's evaluation of the
/// same subset, and the (max-X by `total_cmp`, min-mask) winner predicate
/// shared with [`best_k_subset_gray`] picks the identical winner.
///
/// Pruning (exactness-preserving, both rules cut only on certainty):
///
/// * **Admissible bound.** From a node that has taken partial state
///   `(S, P)` and still needs `s` elements, every completion `C`
///   satisfies `X = S + P·X(C) ≤ S + P·X(s fastest remaining)` — the
///   Proposition 3 dominance ordering (pointwise-faster profiles have no
///   smaller X) applied to Proposition 2's fastest-`s` completion. The
///   `X(s fastest)` terms come from one [`SummaryTree`] per search
///   (profiles are slowest-first, so the `s` fastest are the global
///   suffix, disjoint from any expandable node's taken prefix). The
///   float bound is inflated by an `O(n·ε)` slack so it dominates every
///   *floating-point* leaf value too; subtrees are cut only when the
///   inflated bound is strictly below the incumbent (`total_cmp` Less),
///   so exact ties always survive to the min-mask tie-break.
/// * **Equal-speed dominance.** If `ρ_i` is bit-equal to `ρ_{i−1}` and
///   the path skipped `i−1`, taking `i` is dominated: swapping `i` for
///   `i−1` yields a float-identical X (same multiset, same ascending
///   operation sequence) at a strictly smaller mask. The canonical
///   winner therefore takes the earliest elements of each duplicate run,
///   exactly as the Gray walk's min-mask rule resolves such ties.
///
/// The first descent is skip-first, reaching the Proposition 2
/// fastest-`k` incumbent in `n` steps; with the bound tight at the root,
/// distinct-speed searches then close in O(n) further expansions.
///
/// # The two pruning regimes
///
/// The tie-preserving strict rule above is the contract **inside the
/// Gray domain** (`n ≤ MAX_SUBSET_SEARCH_N`), where the min-mask
/// tie-break is defined by — and verified against — the exhaustive walk.
/// Past that domain the strict rule has a failure mode: when the fleet
/// drives X into its saturation plateau (X → 1/(A − τδ), §2.4), true
/// inter-subset gaps shrink below one ulp of X, every float bound lands
/// inside the tie-preservation slack, and the search degenerates toward
/// enumerating the plateau. For `n > MAX_SUBSET_SEARCH_N` the search
/// therefore prunes with an ε-certified suboptimality margin instead:
/// a subtree is cut unless its bound exceeds the incumbent by more than
/// a margin covering every rounding source (`O(k·ε)` for the path
/// product plus the summary tree's certified error). The returned
/// winner then carries a `(1 + margin)`-optimality certificate — and is
/// in fact the *exact* optimum whenever the optimum is unique at float
/// resolution, because the Proposition 2 fastest-`k` subset (the true
/// argmax by Proposition 3) is the first incumbent and is only ever
/// replaced by a strictly larger computed X. Exact ties beyond the Gray
/// domain canonicalize to that fastest-`k` incumbent rather than the
/// global min-mask, which is only defined by the walk.
pub fn best_k_subset_with_stats(
    params: &Params,
    profile: &Profile,
    k: usize,
) -> Result<(Profile, BnbStats), ModelError> {
    let n = profile.n();
    if k == 0 || k > n {
        return Err(ModelError::IndexOutOfRange { index: k, n });
    }
    let _span = hetero_obs::timed("select.bnb");
    let (a, b, td) = (params.a(), params.b(), params.tau_delta());
    let rhos = profile.rhos();
    let d: Vec<f64> = rhos.iter().map(|&rho| b * rho + a).collect();
    let r: Vec<f64> = rhos
        .iter()
        .zip(&d)
        .map(|(&rho, &denom)| (b * rho + td) / denom)
        .collect();
    // tail_ub[s] = X of the s globally-fastest computers, off the
    // hierarchical summary tree. Admissible at any expandable node: such
    // a node has taken its elements strictly before index n − s, so the
    // global fastest-s suffix is entirely still available.
    let tree = SummaryTree::from_profile(params, profile);
    let tail_ub: Vec<f64> = (0..=k)
        .map(|s| {
            // hetero-check: allow(expect) — s ≤ k ≤ n keeps the query in range
            tree.x_of_fastest(s).expect("s is within the fleet")
        })
        .collect();
    // Relative slack dominating the O(n·ε) rounding drift between the
    // bound's arithmetic and any leaf's: Neumaier sums of positives stay
    // within a few ε, prefix products within n·ε.
    let slack = 1.0 + 1e-12 + 16.0 * f64::EPSILON * n as f64;
    // Beyond the Gray domain ties need not be preserved (see the module
    // docs on the two pruning regimes): cut any subtree whose bound does
    // not beat the incumbent by more than every rounding source — the
    // O(k·ε) path-product drift plus the summary tree's certified error,
    // which also covers the bound's own overshoot so saturated plateaus
    // prune instead of being enumerated.
    let tie_preserving = n <= MAX_SUBSET_SEARCH_N;
    let root_x = tail_ub[k].max(f64::MIN_POSITIVE);
    let cutoff = 1.0 + 1e-12 + 64.0 * f64::EPSILON * k as f64 + 2.0 * tree.x_error_bound() / root_x;

    // Path state indexed by taken count c: the recurrence state after the
    // first c taken elements, exactly as the Gray walk's level stacks.
    let mut sums = vec![KahanSum::new(); k + 1];
    let mut prods = vec![1.0f64; k + 1];
    let mut taken: Vec<u32> = Vec::with_capacity(k);
    let mut best: Option<(f64, Vec<u32>)> = None;
    let mut stats = BnbStats::default();

    // Explicit DFS. A frame records the element index `i` about to be
    // decided, the taken count `c` on its path, and whether reaching it
    // took element i − 1 (applied on pop, when the parent state at
    // c − 1 is guaranteed current — deeper subtrees only touch higher
    // counts, so sibling order preserves the invariant).
    struct Frame {
        i: u32,
        c: u32,
        take_prev: bool,
    }
    let mut stack = vec![Frame {
        i: 0,
        c: 0,
        take_prev: false,
    }];
    while let Some(Frame { i, c, take_prev }) = stack.pop() {
        let (i, c) = (i as usize, c as usize);
        if take_prev {
            let e = i - 1;
            taken.truncate(c - 1);
            taken.push(e as u32);
            let mut sum = sums[c - 1];
            let prod = prods[c - 1];
            sum.add(prod / d[e]);
            sums[c] = sum;
            prods[c] = prod * r[e];
        } else {
            taken.truncate(c);
        }
        stats.nodes_visited += 1;
        if c == k {
            stats.leaves_evaluated += 1;
            offer_indices(&mut best, sums[k].value(), &taken);
            continue;
        }
        let s = k - c; // still needed
        let rem = n - i; // still available
        if rem == s {
            // Forced completion: take everything left in one chain.
            let mut sum = sums[c];
            let mut prod = prods[c];
            for e in i..n {
                sum.add(prod / d[e]);
                prod *= r[e];
                taken.push(e as u32);
            }
            stats.nodes_visited += rem as u64;
            stats.leaves_evaluated += 1;
            offer_indices(&mut best, sum.value(), &taken);
            taken.truncate(c);
            continue;
        }
        if let Some((best_x, _)) = &best {
            let ub = sums[c].value() + prods[c] * tail_ub[s];
            let cut = if tie_preserving {
                (ub * slack).total_cmp(best_x) == Ordering::Less
            } else {
                ub.total_cmp(&(best_x * cutoff)) != Ordering::Greater
            };
            if cut {
                stats.nodes_pruned += 1;
                continue;
            }
        }
        // Children, skip-first (pushed last, popped first). The take
        // child is suppressed when dominated by its skipped equal-speed
        // predecessor.
        let dominated = i > 0
            && rhos[i].to_bits() == rhos[i - 1].to_bits()
            && taken.last() != Some(&((i - 1) as u32));
        if dominated {
            stats.nodes_pruned += 1;
        } else {
            stack.push(Frame {
                i: (i + 1) as u32,
                c: (c + 1) as u32,
                take_prev: true,
            });
        }
        stack.push(Frame {
            i: (i + 1) as u32,
            c: c as u32,
            take_prev: false,
        });
    }
    hetero_obs::counters::SELECT_BNB_NODES_VISITED.add(stats.nodes_visited);
    hetero_obs::counters::SELECT_BNB_NODES_PRUNED.add(stats.nodes_pruned);
    // Per-call node count as a value observation: paired with the
    // `select.bnb` wall span, `obsdiff` derives nodes/sec from the two
    // without the library ever reading a wall clock itself.
    hetero_obs::observe("select.bnb.nodes", stats.nodes_visited as f64);
    // hetero-check: allow(expect) — with 1 ≤ k ≤ n the forced/leaf paths offer at least one subset
    let (_, indices) = best.expect("k ≥ 1 guarantees a subset");
    let winner: Vec<f64> = indices.iter().map(|&i| rhos[i as usize]).collect();
    Ok((Profile::from_unsorted(winner)?, stats))
}

/// The winner predicate of the branch-and-bound leaves: take the
/// candidate when its X is strictly larger (`total_cmp`), or exactly
/// equal with a smaller mask. Ascending index lists compare as masks by
/// scanning from the *highest* element down — the numeric order of the
/// corresponding bit-sets for any `n`.
fn offer_indices(best: &mut Option<(f64, Vec<u32>)>, x: f64, indices: &[u32]) {
    let better = match best {
        None => true,
        Some((bx, bidx)) => match x.total_cmp(bx) {
            Ordering::Greater => true,
            Ordering::Equal => indices_mask_lt(indices, bidx),
            Ordering::Less => false,
        },
    };
    if better {
        *best = Some((x, indices.to_vec()));
    }
}

/// Numeric `mask(a) < mask(b)` for two ascending index lists of equal
/// length: the highest differing element decides.
fn indices_mask_lt(a: &[u32], b: &[u32]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    for (ai, bi) in a.iter().rev().zip(b.iter().rev()) {
        if ai != bi {
            return ai < bi;
        }
    }
    false
}

/// Exhaustively finds a `k`-subset maximizing X (smallest mask among
/// exact ties) over a Gray-code subset walk. Exponential — the oracle
/// that [`best_k_subset`] is cross-checked against; clusters beyond
/// [`MAX_SUBSET_SEARCH_N`] return [`ModelError::SubsetSearchTooLarge`].
///
/// The walk follows a binary-reflected Gray code, so consecutive subsets
/// differ in one element: a stack of per-element prefix states
/// (compensated partial sum plus prefix product) is patched from the
/// toggled element onward, making each subset's X cost amortized O(1)
/// instead of O(n). Mapping the counter's most-toggled bit to the *last*
/// element keeps the patch short. Each visited subset's value is produced
/// by exactly the operation sequence of
/// [`x_measure_of_rhos`] over its
/// elements in ascending index order, so results — including tie
/// resolution — are bit-identical to the straightforward per-mask rescan.
pub fn best_k_subset_gray(
    params: &Params,
    profile: &Profile,
    k: usize,
) -> Result<Profile, ModelError> {
    let n = profile.n();
    if k == 0 || k > n {
        return Err(ModelError::IndexOutOfRange { index: k, n });
    }
    if n > MAX_SUBSET_SEARCH_N {
        return Err(ModelError::SubsetSearchTooLarge {
            n,
            max: MAX_SUBSET_SEARCH_N,
        });
    }
    let (a, b, td) = (params.a(), params.b(), params.tau_delta());
    let d: Vec<f64> = profile.rhos().iter().map(|&rho| b * rho + a).collect();
    let r: Vec<f64> = profile
        .rhos()
        .iter()
        .zip(&d)
        .map(|(&rho, &denom)| (b * rho + td) / denom)
        .collect();
    // Level j holds the (sum, product) state after elements 0..j of the
    // current subset, exactly as x_measure_of_rhos would leave them.
    let mut included = vec![false; n];
    let mut sums = vec![KahanSum::new(); n + 1];
    let mut prods = vec![1.0f64; n + 1];
    let mut mask = 0u64;
    let mut count = 0usize;
    let mut best: Option<(f64, u64)> = None;
    for i in 1..(1u64 << n) {
        // Binary-reflected Gray step i toggles counter bit tz(i); mapping
        // it to element n−1−tz(i) means the cheapest (last) element
        // toggles every other step.
        let e = n - 1 - i.trailing_zeros() as usize;
        included[e] = !included[e];
        mask ^= 1u64 << e;
        count = if included[e] { count + 1 } else { count - 1 };
        for j in e..n {
            let mut sum = sums[j];
            let mut prod = prods[j];
            if included[j] {
                sum.add(prod / d[j]);
                prod *= r[j];
            }
            sums[j + 1] = sum;
            prods[j + 1] = prod;
        }
        if count != k {
            continue;
        }
        offer(&mut best, sums[n].value(), mask);
    }
    // The Gray walk visits every nonempty subset exactly once.
    hetero_obs::counters::SELECTION_SUBSET_NODES.add((1u64 << n) - 1);
    winner_profile(profile, best)
}

/// The Gray walk's winner predicate: take the candidate when its X is
/// strictly larger, or exactly equal (by `total_cmp`) with a smaller
/// mask. Picking the unique (max-X, min-mask) element makes the winner
/// independent of visit order.
#[inline]
fn offer(best: &mut Option<(f64, u64)>, x: f64, mask: u64) {
    let better = match *best {
        None => true,
        Some((bx, bmask)) => x > bx || (x.total_cmp(&bx) == Ordering::Equal && mask < bmask),
    };
    if better {
        *best = Some((x, mask));
    }
}

/// Rebuilds the winning mask into a [`Profile`].
fn winner_profile(profile: &Profile, best: Option<(f64, u64)>) -> Result<Profile, ModelError> {
    // hetero-check: allow(expect) — with 1 ≤ k ≤ n at least one subset has k elements, so `best` is set
    let (_, bmask) = best.expect("k ≥ 1 guarantees a subset");
    let rhos: Vec<f64> = (0..profile.n())
        .filter(|i| bmask & (1u64 << i) != 0)
        .map(|i| profile.rho(i))
        .collect();
    Profile::from_unsorted(rhos)
}

/// The X-measure of the `k`-fastest sub-cluster, for `k = 1…n` (index
/// `k − 1`), plus the marginal gain of each additional (slower) computer.
///
/// Profiles are sorted slowest-first, so the `k` fastest are the length-`k`
/// suffix and all `n` values fall out of one backward
/// [`XScan::suffix_measures`] pass — O(n) total instead of `n` full
/// evaluations.
pub fn marginal_gains(params: &Params, profile: &Profile) -> Vec<(f64, f64)> {
    let n = profile.n();
    let suffix_x = XScan::from_profile(params, profile).suffix_measures();
    let mut out = Vec::with_capacity(n);
    let mut prev = 0.0;
    for k in 1..=n {
        let x = suffix_x[n - k];
        out.push((x, x - prev));
        prev = x;
    }
    out
}

/// The smallest `k` such that the `k` fastest computers reach `fraction`
/// of the *full* cluster's X-measure. `fraction` must be in `(0, 1]`.
///
/// The fastest-`k` X-curve is nondecreasing in `k` — every additional
/// (slower) computer contributes a nonnegative Theorem 2 term — so after
/// the one O(n) suffix scan the threshold is found by binary search:
/// O(log n) probes instead of a linear walk, returning the identical
/// first-satisfying `k`.
pub fn smallest_fleet_for(
    params: &Params,
    profile: &Profile,
    fraction: f64,
) -> Result<usize, ModelError> {
    if !(fraction > 0.0 && fraction <= 1.0) {
        return Err(ModelError::InvalidParam {
            name: "fraction",
            value: fraction,
        });
    }
    // One suffix scan answers every fleet size at once (see
    // marginal_gains); entry 0 is the full cluster.
    let n = profile.n();
    let suffix_x = XScan::from_profile(params, profile).suffix_measures();
    let target = fraction * suffix_x[0];
    // Invariant: every k > hi satisfies the target, no k < lo does; the
    // probe is monotone because suffix_x[n − k] is nondecreasing in k.
    let (mut lo, mut hi) = (1usize, n);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if suffix_x[n - mid] >= target {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Ok(lo)
}

/// How close the full cluster sits to the server's feeding limit
/// `1/(A−τδ)`, in `[0, 1)` — the saturation headroom that makes late
/// marginal gains small.
pub fn saturation(params: &Params, profile: &Profile) -> f64 {
    x_measure_of_rhos(params, profile.rhos()) / x_supremum(params)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> Params {
        Params::paper_table1()
    }

    fn assert_bit_identical(a: &Profile, b: &Profile, context: &str) {
        let same = a.n() == b.n()
            && a.rhos()
                .iter()
                .zip(b.rhos())
                .all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(same, "{context}: {:?} vs {:?}", a.rhos(), b.rhos());
    }

    #[test]
    fn fastest_k_is_the_suffix() {
        let p = Profile::new(vec![1.0, 0.5, 0.25, 0.125]).unwrap();
        assert_eq!(fastest_k(&p, 2).unwrap().rhos(), &[0.25, 0.125]);
        assert_eq!(fastest_k(&p, 4).unwrap().rhos(), p.rhos());
        assert!(fastest_k(&p, 0).is_err());
        assert!(fastest_k(&p, 5).is_err());
    }

    #[test]
    fn fastest_k_is_an_optimal_subset() {
        // Proposition 2's consequence, verified by exact search.
        let pr = params();
        for profile in [
            Profile::new(vec![1.0, 0.5, 0.25, 0.125]).unwrap(),
            Profile::harmonic(7),
            Profile::new(vec![1.0, 0.9, 0.9, 0.2, 0.1]).unwrap(),
        ] {
            for k in 1..=profile.n() {
                let exhaustive = best_k_subset(&pr, &profile, k).unwrap();
                let greedy = fastest_k(&profile, k).unwrap();
                let xe = x_measure_of_rhos(&pr, exhaustive.rhos());
                let xg = x_measure_of_rhos(&pr, greedy.rhos());
                assert!(
                    (xe - xg).abs() / xe < 1e-12,
                    "k = {k} on {:?}",
                    profile.rhos()
                );
            }
        }
    }

    /// The pre-Gray-code implementation, verbatim apart from the mask
    /// width: rescan every mask in ascending order, keep the first
    /// maximizer. The Gray walk must reproduce it bit for bit.
    fn masked_rescan_reference(params: &Params, profile: &Profile, k: usize) -> Profile {
        let n = profile.n();
        let mut best: Option<(f64, Vec<f64>)> = None;
        for mask in 0u64..(1 << n) {
            if mask.count_ones() as usize != k {
                continue;
            }
            let rhos: Vec<f64> = (0..n)
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| profile.rho(i))
                .collect();
            let x = x_measure_of_rhos(params, &rhos);
            match &best {
                Some((bx, _)) if x <= *bx => {}
                _ => best = Some((x, rhos)),
            }
        }
        Profile::from_unsorted(best.unwrap().1).unwrap()
    }

    #[test]
    fn gray_walk_matches_the_masked_rescan_for_all_small_clusters() {
        let pr = params();
        for n in 1..=12usize {
            // A distinct-speed family and a duplicate-heavy family (the
            // latter forces exact X ties between different subsets).
            let distinct = Profile::uniform_spread(n);
            let duplicated = Profile::from_unsorted(
                (0..n)
                    .map(|i| 1.0 / ((i / 2) + 1) as f64)
                    .collect::<Vec<_>>(),
            )
            .unwrap();
            for profile in [&distinct, &duplicated] {
                for k in 1..=n {
                    let gray = best_k_subset_gray(&pr, profile, k).unwrap();
                    let reference = masked_rescan_reference(&pr, profile, k);
                    assert_eq!(
                        gray.rhos(),
                        reference.rhos(),
                        "n = {n}, k = {k} on {:?}",
                        profile.rhos()
                    );
                }
            }
        }
    }

    #[test]
    fn branch_and_bound_matches_the_gray_walk_bit_for_bit() {
        // The tentpole cross-check at unit-test scale (the n ≤ 24
        // adversarial sweep lives in the proptest suite): distinct
        // speeds, duplicate runs, and all-equal degenerate clusters.
        let pr = params();
        for n in 1..=14usize {
            let distinct = Profile::uniform_spread(n);
            let duplicated = Profile::from_unsorted(
                (0..n)
                    .map(|i| 1.0 / ((i / 2) + 1) as f64)
                    .collect::<Vec<_>>(),
            )
            .unwrap();
            let all_equal = Profile::homogeneous(n, 0.5).unwrap();
            for profile in [&distinct, &duplicated, &all_equal] {
                for k in 1..=n {
                    let gray = best_k_subset_gray(&pr, profile, k).unwrap();
                    let (bnb, stats) = best_k_subset_with_stats(&pr, profile, k).unwrap();
                    assert_bit_identical(&bnb, &gray, &format!("n = {n}, k = {k}"));
                    assert!(stats.nodes_visited > 0 && stats.leaves_evaluated > 0);
                }
            }
        }
    }

    #[test]
    fn branch_and_bound_prunes_hard_on_distinct_speeds() {
        // At n = 24 the exhaustive walk visits 2²⁴ − 1 subsets; the
        // search should close in a vanishing fraction of that.
        let pr = params();
        let profile = Profile::uniform_spread(24);
        let (winner, stats) = best_k_subset_with_stats(&pr, &profile, 12).unwrap();
        assert_bit_identical(
            &winner,
            &fastest_k(&profile, 12).unwrap(),
            "distinct speeds: the Proposition 2 suffix wins",
        );
        assert!(
            stats.nodes_visited < 10_000,
            "visited {} of {} subsets",
            stats.nodes_visited,
            BnbStats::exhaustive_subsets(24)
        );
        assert!(stats.pruned_fraction(24) > 0.999);
    }

    #[test]
    fn branch_and_bound_solves_clusters_far_beyond_the_walk_cap() {
        // n = 128 is 2¹²⁸ subsets — unreachable for any enumeration; the
        // acceptance bar for the pruned search.
        let pr = params();
        for (n, k) in [(128usize, 20usize), (128, 64), (256, 128), (1000, 500)] {
            let profile = Profile::harmonic(n);
            let (winner, stats) = best_k_subset_with_stats(&pr, &profile, k).unwrap();
            assert_bit_identical(
                &winner,
                &fastest_k(&profile, k).unwrap(),
                &format!("n = {n}, k = {k}"),
            );
            assert!(
                stats.nodes_visited < 16 * n as u64,
                "n = {n}, k = {k}: visited {}",
                stats.nodes_visited
            );
        }
    }

    #[test]
    fn branch_and_bound_stays_linear_through_saturation() {
        // Harmonic fleets past n ≈ 3000 drive X onto its saturation
        // plateau (X → 1/(A − τδ)), where true inter-subset gaps fall
        // below one ulp of X. The strict tie-preserving rule would
        // degenerate to enumerating the plateau there; the margin regime
        // (n > MAX_SUBSET_SEARCH_N) must keep the node count linear and
        // still certify the Proposition 2 fastest-k optimum.
        let pr = params();
        for n in [3000usize, 4096] {
            let k = n / 2;
            let profile = Profile::harmonic(n);
            let (winner, stats) = best_k_subset_with_stats(&pr, &profile, k).unwrap();
            assert_bit_identical(
                &winner,
                &fastest_k(&profile, k).unwrap(),
                &format!("saturated n = {n}"),
            );
            assert!(
                stats.nodes_visited < 4 * n as u64,
                "saturated n = {n}: visited {} — plateau pruning regressed",
                stats.nodes_visited
            );
        }
    }

    #[test]
    fn gray_walk_errors_on_large_clusters_but_bnb_solves_them() {
        let pr = params();
        let p = Profile::harmonic(64);
        // The enumerative oracle still refuses past its mask width…
        assert!(matches!(
            best_k_subset_gray(&pr, &p, 3),
            Err(ModelError::SubsetSearchTooLarge { n: 64, max: 63 })
        ));
        // …while the default exact search answers (the former dead-end).
        let winner = best_k_subset(&pr, &p, 3).unwrap();
        assert_eq!(winner.rhos(), fastest_k(&p, 3).unwrap().rhos());
        // k-bound validation still comes first everywhere.
        assert!(matches!(
            best_k_subset(&pr, &Profile::harmonic(4), 0),
            Err(ModelError::IndexOutOfRange { .. })
        ));
        assert!(matches!(
            best_k_subset_gray(&pr, &Profile::harmonic(4), 0),
            Err(ModelError::IndexOutOfRange { .. })
        ));
    }

    #[test]
    fn subset_search_handles_clusters_beyond_the_old_u32_cap() {
        // n = 21 overflowed the old `assert!(n <= 20)` guard; the u64
        // Gray walk handles it and still finds the fastest-k optimum.
        let pr = params();
        let p = Profile::harmonic(21);
        let best = best_k_subset_gray(&pr, &p, 20).unwrap();
        assert_eq!(best.rhos(), fastest_k(&p, 20).unwrap().rhos());
    }

    #[test]
    fn marginal_gains_are_positive_and_x_monotone() {
        let pr = params();
        let p = Profile::harmonic(10);
        let gains = marginal_gains(&pr, &p);
        assert_eq!(gains.len(), 10);
        for (x, gain) in &gains {
            assert!(*x > 0.0 && *gain > 0.0);
        }
        for w in gains.windows(2) {
            assert!(w[1].0 > w[0].0, "X grows with fleet size");
        }
    }

    #[test]
    fn gains_diminish_for_the_harmonic_family() {
        // Adding the slowest computer to a harmonic fleet is worth far
        // less than the first computer was.
        let pr = params();
        let p = Profile::harmonic(16);
        let gains = marginal_gains(&pr, &p);
        assert!(gains.last().unwrap().1 < 0.1 * gains.first().unwrap().1);
    }

    #[test]
    fn smallest_fleet_inverts_the_curve() {
        let pr = params();
        let p = Profile::harmonic(12);
        let k95 = smallest_fleet_for(&pr, &p, 0.95).unwrap();
        let k100 = smallest_fleet_for(&pr, &p, 1.0).unwrap();
        assert!(k95 < k100, "95 % needs fewer computers than 100 %");
        assert_eq!(k100, 12);
        // The returned k really achieves the target; k − 1 does not.
        let full = x_measure_of_rhos(&pr, p.rhos());
        let at_k = x_measure_of_rhos(&pr, &p.rhos()[p.n() - k95..]);
        assert!(at_k >= 0.95 * full);
        let below = x_measure_of_rhos(&pr, &p.rhos()[p.n() - (k95 - 1)..]);
        assert!(below < 0.95 * full);
        assert!(smallest_fleet_for(&pr, &p, 0.0).is_err());
        assert!(smallest_fleet_for(&pr, &p, 1.5).is_err());
    }

    #[test]
    fn binary_search_fleet_matches_a_linear_scan() {
        // The binary search must return exactly the linear scan's answer
        // at every fraction, including plateau-heavy duplicate fleets.
        let pr = params();
        let duplicated = Profile::from_unsorted(
            (0..40)
                .map(|i| 1.0 / ((i / 5) + 1) as f64)
                .collect::<Vec<_>>(),
        )
        .unwrap();
        for profile in [&Profile::harmonic(33), &duplicated] {
            let n = profile.n();
            let suffix_x = XScan::from_profile(&pr, profile).suffix_measures();
            for pct in 1..=100usize {
                let fraction = pct as f64 / 100.0;
                let got = smallest_fleet_for(&pr, profile, fraction).unwrap();
                let target = fraction * suffix_x[0];
                let linear = (1..=n).find(|k| suffix_x[n - k] >= target).unwrap_or(n);
                assert_eq!(got, linear, "fraction {fraction}");
            }
        }
    }

    #[test]
    fn saturation_reflects_scale() {
        let pr = params();
        assert!(saturation(&pr, &Profile::harmonic(4)) < 0.001);
        assert!(saturation(&pr, &Profile::harmonic(4096)) > 0.9);
    }
}
