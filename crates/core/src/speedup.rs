//! Speeding up a cluster optimally (paper §3).
//!
//! Two upgrade scenarios are modelled. An *additive* speedup replaces a
//! computer of speed `ρ` with one of speed `ρ − φ`; a *multiplicative*
//! speedup replaces it with one of speed `ψρ` (`0 < ψ < 1`). The paper's
//! headline results:
//!
//! * **Theorem 3** — under additive speedup, the single most advantageous
//!   computer to upgrade is always the *fastest*.
//! * **Theorem 4** — under multiplicative speedup, upgrading the faster of
//!   two computers `C_i, C_j` (`ρ_j < ρ_i`) wins iff
//!   `ψρ_iρ_j > Aτδ/B²`; otherwise upgrading the *slower* wins.
//!
//! The [`greedy_multiplicative`] engine iterates "upgrade the best single
//! computer" and reproduces the paper's Figures 3–4, including the phase
//! transition between fastest-first and slowest-first regimes.
//!
//! All candidate evaluation goes through the incremental
//! [`XScan`] engine: one O(n) scan per round
//! answers every single-computer what-if in O(1), so a greedy round costs
//! amortized O(n) instead of the O(n²·log n) of re-evaluating each
//! candidate profile from scratch. Candidates whose upgraded clusters have
//! identical speed *multisets* share one evaluation, so the paper's
//! tie-break ("speed up the computer with the larger index") stays exact.

use std::cmp::Ordering;

use crate::xengine::XScan;
use crate::{ModelError, Params, Profile};

/// Additively speeds up computer `index` (0-based, slowest first) by `phi`
/// (§3.1): its speed becomes `ρ − φ`. Requires `0 < φ < ρ` so the result
/// stays a valid (positive) speed; the paper's blanket requirement
/// `φ < ρ_n` guarantees this for every computer at once.
pub fn additive_speedup(profile: &Profile, index: usize, phi: f64) -> Result<Profile, ModelError> {
    if index >= profile.n() {
        return Err(ModelError::IndexOutOfRange {
            index,
            n: profile.n(),
        });
    }
    let rho = profile.rho(index);
    if !(phi.is_finite() && phi > 0.0 && phi < rho) {
        return Err(ModelError::InvalidSpeedup {
            name: "phi",
            value: phi,
        });
    }
    profile.with_rho(index, rho - phi)
}

/// Multiplicatively speeds up computer `index` by the factor `psi`
/// (`0 < ψ < 1`, §3.2): its speed becomes `ψρ`.
pub fn multiplicative_speedup(
    profile: &Profile,
    index: usize,
    psi: f64,
) -> Result<Profile, ModelError> {
    if index >= profile.n() {
        return Err(ModelError::IndexOutOfRange {
            index,
            n: profile.n(),
        });
    }
    if !(psi.is_finite() && psi > 0.0 && psi < 1.0) {
        return Err(ModelError::InvalidSpeedup {
            name: "psi",
            value: psi,
        });
    }
    profile.with_rho(index, psi * profile.rho(index))
}

/// Which of two computers Theorem 4 says to speed up multiplicatively.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Theorem4Choice {
    /// Condition (1): `ψρ_iρ_j > Aτδ/B²` — speed up the **faster**.
    Faster,
    /// Condition (2): `ψρ_iρ_j < Aτδ/B²` — speed up the **slower**.
    Slower,
    /// The discriminant vanishes (or the speeds are equal): both choices
    /// complete the same work.
    Indifferent,
}

/// Evaluates the Theorem 4 decision rule for speeds `rho_i ≥ rho_j` (the
/// slower and the faster computer) and factor `psi`.
pub fn theorem4_choice(params: &Params, rho_i: f64, rho_j: f64, psi: f64) -> Theorem4Choice {
    debug_assert!(rho_i >= rho_j, "rho_i is the slower computer");
    if rho_i == rho_j {
        return Theorem4Choice::Indifferent;
    }
    let lhs = psi * rho_i * rho_j;
    let threshold = params.theorem4_threshold();
    if lhs > threshold {
        Theorem4Choice::Faster
    } else if lhs < threshold {
        Theorem4Choice::Slower
    } else {
        Theorem4Choice::Indifferent
    }
}

/// The index whose additive upgrade by `phi` maximizes the resulting
/// X-measure, with the paper's tie-break (larger index — i.e. the faster
/// computer — wins). Theorem 3 proves this is always the fastest computer,
/// `n − 1`; the function computes it empirically so tests can *verify*
/// the theorem rather than assume it.
///
/// Only computers with `ρ > φ` are eligible (others cannot be sped up by
/// `φ` and keep a positive speed).
pub fn best_additive_index(params: &Params, profile: &Profile, phi: f64) -> Option<usize> {
    if !(phi.is_finite() && phi > 0.0) {
        return None;
    }
    let scan = XScan::from_profile(params, profile);
    let mut best: Option<(usize, f64)> = None;
    let mut prev: Option<(f64, f64)> = None;
    for index in 0..profile.n() {
        let rho = profile.rho(index);
        if phi >= rho {
            continue;
        }
        // Equal-ρ computers yield identical upgraded multisets; sharing
        // the first occurrence's O(1) what-if value keeps their X-values
        // bitwise equal, so the larger-index tie-break stays exact.
        let x = match prev {
            Some((prho, px)) if prho.total_cmp(&rho) == Ordering::Equal => px,
            _ => {
                let Ok(x) = scan.replace(index, rho - phi) else {
                    continue;
                };
                x
            }
        };
        prev = Some((rho, x));
        match best {
            Some((_, bx)) if x < bx => {}
            _ => best = Some((index, x)),
        }
    }
    best.map(|(i, _)| i)
}

/// The index whose multiplicative upgrade by `psi` maximizes the resulting
/// X-measure, with the paper's tie-break (larger index wins) — the
/// empirical counterpart of the Theorem 4 pairwise rule.
pub fn best_multiplicative_index(params: &Params, profile: &Profile, psi: f64) -> Option<usize> {
    if !(psi.is_finite() && psi > 0.0 && psi < 1.0) {
        return None;
    }
    let scan = XScan::from_profile(params, profile);
    let mut best: Option<(usize, f64)> = None;
    let mut prev: Option<(f64, f64)> = None;
    for index in 0..profile.n() {
        let rho = profile.rho(index);
        // See best_additive_index: equal-ρ candidates share one value.
        let x = match prev {
            Some((prho, px)) if prho.total_cmp(&rho) == Ordering::Equal => px,
            _ => {
                let Ok(x) = scan.replace(index, psi * rho) else {
                    continue;
                };
                x
            }
        };
        prev = Some((rho, x));
        match best {
            Some((_, bx)) if x < bx => {}
            _ => best = Some((index, x)),
        }
    }
    best.map(|(i, _)| i)
}

/// One round of the §3.2.2 iterated-upgrade experiment behind Figures 3–4.
#[derive(Debug, Clone, PartialEq)]
pub struct GreedyStep {
    /// 1-based round number.
    pub round: usize,
    /// Which computer (by fixed identity, 0-based) was sped up.
    pub chosen: usize,
    /// The speeds after the upgrade, indexed by computer identity — the
    /// bar heights of the paper's snapshot charts.
    pub speeds: Vec<f64>,
    /// `X` of the post-upgrade profile.
    pub x: f64,
}

/// Runs the paper's iterated multiplicative-speedup experiment (§3.2.2).
///
/// Starting from `initial` speeds (indexed by computer *identity*, which
/// is preserved across rounds exactly as in the paper's bar charts), each
/// round considers the `n` candidate profiles obtained by speeding up one
/// computer by `psi`, selects the one with the largest work production,
/// and on ties "chooses to speed up the computer with the larger index".
///
/// Each round maintains one [`XScan`] over the sorted speeds and answers
/// every candidate with an O(1) [`XScan::replace`] query — amortized O(n)
/// per round instead of `n` from-scratch evaluations. Candidates with
/// identical speed *multisets* are routed through the same scan position,
/// so they compare exactly equal and the tie-break is deterministic; the
/// recorded per-round `X` comes from the rebuilt scan's forward pass and
/// is bit-identical to evaluating the sorted post-upgrade profile from
/// scratch.
pub fn greedy_multiplicative(
    params: &Params,
    initial: &[f64],
    psi: f64,
    rounds: usize,
) -> Result<Vec<GreedyStep>, ModelError> {
    if initial.is_empty() {
        return Err(ModelError::EmptyProfile);
    }
    for (index, &value) in initial.iter().enumerate() {
        if !(value.is_finite() && value > 0.0) {
            return Err(ModelError::InvalidRho { index, value });
        }
    }
    if !(psi.is_finite() && psi > 0.0 && psi < 1.0) {
        return Err(ModelError::InvalidSpeedup {
            name: "psi",
            value: psi,
        });
    }

    let mut speeds = initial.to_vec();
    let mut steps = Vec::with_capacity(rounds);
    let mut sorted = speeds.clone();
    sorted.sort_by(|a, b| b.total_cmp(a));
    let mut scan = XScan::new(params, &sorted)?;
    // Per-round memo of candidate X-values, keyed by scan position.
    let mut cand_x: Vec<Option<f64>> = vec![None; speeds.len()];
    for round in 1..=rounds {
        cand_x.iter_mut().for_each(|c| *c = None);
        let mut best: Option<(usize, f64)> = None;
        for (j, &v) in speeds.iter().enumerate() {
            // All computers sharing speed `v` produce the same upgraded
            // multiset; evaluating them at `v`'s first position in the
            // sorted scan makes their X-values bitwise equal, keeping the
            // paper's larger-index tie-break deterministic.
            let p = sorted.partition_point(|&s| s > v);
            let x = match cand_x[p] {
                Some(x) => x,
                None => {
                    let Ok(x) = scan.replace(p, v * psi) else {
                        continue;
                    };
                    cand_x[p] = Some(x);
                    x
                }
            };
            match best {
                Some((_, bx)) if x < bx => {}
                _ => best = Some((j, x)),
            }
        }
        // hetero-check: allow(expect) — the candidate loop over a validated nonempty cluster always sets `best`
        let (chosen, _) = best.expect("nonempty cluster has a best upgrade");
        speeds[chosen] *= psi;
        sorted.copy_from_slice(&speeds);
        sorted.sort_by(|a, b| b.total_cmp(a));
        scan.rebuild(&sorted)?;
        steps.push(GreedyStep {
            round,
            chosen,
            speeds: speeds.clone(),
            x: scan.x(),
        });
    }
    Ok(steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xmeasure::{work_ratio, x_measure};

    fn params() -> Params {
        Params::paper_table1()
    }

    #[test]
    fn speedups_validate_arguments() {
        let p = Profile::new(vec![1.0, 0.25]).unwrap();
        assert!(additive_speedup(&p, 5, 0.1).is_err());
        assert!(additive_speedup(&p, 1, 0.25).is_err(), "φ must stay < ρ");
        assert!(additive_speedup(&p, 1, -0.1).is_err());
        assert!(multiplicative_speedup(&p, 0, 1.0).is_err());
        assert!(multiplicative_speedup(&p, 0, 0.0).is_err());
        assert!(multiplicative_speedup(&p, 9, 0.5).is_err());
    }

    #[test]
    fn speedups_produce_expected_profiles() {
        let p = Profile::new(vec![1.0, 0.5]).unwrap();
        assert_eq!(additive_speedup(&p, 0, 0.25).unwrap().rhos(), &[0.75, 0.5]);
        assert_eq!(
            multiplicative_speedup(&p, 1, 0.5).unwrap().rhos(),
            &[1.0, 0.25]
        );
    }

    #[test]
    fn any_speedup_increases_work() {
        // Proposition 2: faster clusters complete more work.
        let pr = params();
        let p = Profile::new(vec![1.0, 0.5, 1.0 / 3.0, 0.25]).unwrap();
        for i in 0..p.n() {
            let up = additive_speedup(&p, i, 1.0 / 16.0).unwrap();
            assert!(work_ratio(&pr, &up, &p) > 1.0, "index {i}");
            let up = multiplicative_speedup(&p, i, 0.5).unwrap();
            assert!(work_ratio(&pr, &up, &p) > 1.0, "index {i}");
        }
    }

    #[test]
    fn theorem3_fastest_always_wins_additively() {
        let pr = params();
        for profile in [
            Profile::new(vec![1.0, 0.5, 1.0 / 3.0, 0.25]).unwrap(),
            Profile::uniform_spread(8),
            Profile::harmonic(6),
            Profile::new(vec![1.0, 0.9999, 0.2]).unwrap(),
        ] {
            let phi = profile.fastest() / 2.0;
            let best = best_additive_index(&pr, &profile, phi).unwrap();
            assert_eq!(
                best,
                profile.n() - 1,
                "Theorem 3 violated on {:?}",
                profile.rhos()
            );
        }
    }

    #[test]
    fn theorem4_choice_matches_x_comparison() {
        // The decision rule must agree with brute-force X comparison on
        // both sides of the threshold.
        let pr = Params::fig34();
        let psi = 0.5;
        let cases = [
            (1.0, 0.5),    // ψρρ = 0.25 > threshold → faster
            (1.0, 0.0625), // ψρρ ≈ 0.031 < threshold → slower
            (0.0625, 0.03125),
            (1.0, 0.9),
        ];
        for (rho_i, rho_j) in cases {
            let p = Profile::from_unsorted(vec![rho_i, rho_j]).unwrap();
            // In the sorted profile, index 0 is the slower (ρ_i).
            let speed_slower = multiplicative_speedup(&p, 0, psi).unwrap();
            let speed_faster = multiplicative_speedup(&p, 1, psi).unwrap();
            let xs = x_measure(&pr, &speed_slower);
            let xf = x_measure(&pr, &speed_faster);
            match theorem4_choice(&pr, rho_i, rho_j, psi) {
                Theorem4Choice::Faster => assert!(xf > xs, "({rho_i},{rho_j})"),
                Theorem4Choice::Slower => assert!(xs > xf, "({rho_i},{rho_j})"),
                Theorem4Choice::Indifferent => {
                    assert!((xs - xf).abs() / xs < 1e-12)
                }
            }
        }
    }

    #[test]
    fn theorem4_equal_speeds_are_indifferent() {
        assert_eq!(
            theorem4_choice(&params(), 0.5, 0.5, 0.5),
            Theorem4Choice::Indifferent
        );
    }

    #[test]
    fn greedy_validates_inputs() {
        let pr = params();
        assert!(greedy_multiplicative(&pr, &[], 0.5, 1).is_err());
        assert!(greedy_multiplicative(&pr, &[1.0, -1.0], 0.5, 1).is_err());
        assert!(greedy_multiplicative(&pr, &[1.0], 1.0, 1).is_err());
    }

    #[test]
    fn greedy_fig3_phase_structure() {
        // Figure 3: from ⟨1,1,1,1⟩ with ψ = 1/2 under the fig34
        // parameters, 16 rounds bring every computer to 1/16, each
        // computer being driven down in a block of 4 rounds (ties break to
        // the larger index, so C4 first — identity 3).
        let pr = Params::fig34();
        let steps = greedy_multiplicative(&pr, &[1.0; 4], 0.5, 16).unwrap();
        let chosen: Vec<usize> = steps.iter().map(|s| s.chosen).collect();
        assert_eq!(
            chosen,
            [3, 3, 3, 3, 2, 2, 2, 2, 1, 1, 1, 1, 0, 0, 0, 0],
            "fastest-first in blocks of four"
        );
        let last = steps.last().unwrap();
        for &s in &last.speeds {
            assert!((s - 1.0 / 16.0).abs() < 1e-12);
        }
        // X must increase monotonically across rounds.
        for w in steps.windows(2) {
            assert!(w[1].x > w[0].x);
        }
    }

    #[test]
    fn greedy_fig4_switches_to_slowest_first() {
        // Figure 4: continuing from ⟨1/16,…⟩, every computer is now "very
        // fast", so condition (2) applies and the *slowest* (tie-broken to
        // the larger index) is upgraded each round.
        let pr = Params::fig34();
        let start = [1.0 / 16.0; 4];
        let steps = greedy_multiplicative(&pr, &start, 0.5, 4).unwrap();
        let chosen: Vec<usize> = steps.iter().map(|s| s.chosen).collect();
        // Each round upgrades a different still-slow computer.
        assert_eq!(chosen, [3, 2, 1, 0]);
        for &s in &steps.last().unwrap().speeds {
            assert!((s - 1.0 / 32.0).abs() < 1e-12);
        }
    }

    #[test]
    fn greedy_preserves_identity_indexing() {
        let pr = Params::fig34();
        let steps = greedy_multiplicative(&pr, &[1.0, 0.5, 0.25], 0.5, 2).unwrap();
        for s in &steps {
            assert_eq!(s.speeds.len(), 3);
        }
    }
}
