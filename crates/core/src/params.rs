//! The architectural/environment parameters of the model (paper §2.1).

use crate::ModelError;

/// The environment constants of the CEP model.
///
/// All rates are expressed *per unit of work*, in the same time unit used
/// by the profile's ρ-values (the paper normalizes the slowest computer to
/// `ρ1 = 1`, so one time unit = the slowest computer's per-unit compute
/// time unless stated otherwise):
///
/// * `tau` (τ) — network transit time per work unit,
/// * `pi` (π) — message (un)packaging time per work unit,
/// * `delta` (δ ≤ 1) — units of results produced per unit of work.
///
/// The paper's derived constants are [`Params::a`]` = π + τ` and
/// [`Params::b`]` = 1 + (1+δ)π`; its standing assumption (§4.1) is
/// `τδ ≤ A ≤ B`, checked by [`Params::satisfies_standing_assumption`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    tau: f64,
    pi: f64,
    delta: f64,
}

impl Params {
    /// Builds a parameter set, validating ranges: `τ > 0`, `π ≥ 0`,
    /// `0 < δ ≤ 1`, all finite.
    pub fn new(tau: f64, pi: f64, delta: f64) -> Result<Self, ModelError> {
        if !(tau.is_finite() && tau > 0.0) {
            return Err(ModelError::InvalidParam {
                name: "tau",
                value: tau,
            });
        }
        if !(pi.is_finite() && pi >= 0.0) {
            return Err(ModelError::InvalidParam {
                name: "pi",
                value: pi,
            });
        }
        if !(delta.is_finite() && delta > 0.0 && delta <= 1.0) {
            return Err(ModelError::InvalidParam {
                name: "delta",
                value: delta,
            });
        }
        Ok(Params { tau, pi, delta })
    }

    /// The paper's Table 1 values with *coarse* (1 s) tasks: τ = 1 µs,
    /// π = 10 µs, δ = 1, expressed in seconds-per-work-unit with the unit
    /// compute time of 1 s — i.e. τ = 10⁻⁶, π = 10⁻⁵, δ = 1.
    ///
    /// These are the values behind Tables 2–4 of the paper.
    pub fn paper_table1() -> Self {
        Params {
            tau: 1e-6,
            pi: 1e-5,
            delta: 1.0,
        }
    }

    /// Table 2's *fine* task variant: the same wall-clock rates against
    /// 0.1 s tasks, so in task-time units τ = 10⁻⁵, π = 10⁻⁴, δ = 1.
    pub fn paper_table1_fine() -> Self {
        Params {
            tau: 1e-5,
            pi: 1e-4,
            delta: 1.0,
        }
    }

    /// The parameter set that reproduces the paper's Figures 3–4.
    ///
    /// The figures need `Aτδ/B² ∈ (1/32, 1/16)` for their phase transition
    /// at ρ = 1/16 (see DESIGN.md §5, substitution S2): τ = 0.2, π = 0.01,
    /// δ = 1 in task-time units gives `Aτδ/B² ≈ 0.0404`.
    pub fn fig34() -> Self {
        Params {
            tau: 0.2,
            pi: 0.01,
            delta: 1.0,
        }
    }

    /// Network transit rate τ (time per work unit).
    pub fn tau(&self) -> f64 {
        self.tau
    }

    /// Packaging/unpackaging rate π (time per work unit).
    pub fn pi(&self) -> f64 {
        self.pi
    }

    /// Output-to-input ratio δ (result units per work unit).
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// `A = π + τ`: the server-side cost of preparing and injecting one
    /// unit of work.
    pub fn a(&self) -> f64 {
        self.pi + self.tau
    }

    /// `B = 1 + (1+δ)π`: a computer's total handling cost per unit of work
    /// at speed ρ = 1 (unpackage + compute + package results).
    pub fn b(&self) -> f64 {
        1.0 + (1.0 + self.delta) * self.pi
    }

    /// `τδ`: the transit cost of one unit of *results*.
    pub fn tau_delta(&self) -> f64 {
        self.tau * self.delta
    }

    /// The paper's §4.1 standing assumption `τδ ≤ A ≤ B`, under which the
    /// symmetric-function coefficients of Lemma 1 are positive.
    pub fn satisfies_standing_assumption(&self) -> bool {
        self.tau_delta() <= self.a() && self.a() <= self.b()
    }

    /// The Theorem 4 threshold `Aτδ/B²`: multiplicative speedup of the
    /// *faster* of two computers wins exactly when `ψρ_iρ_j` exceeds this.
    pub fn theorem4_threshold(&self) -> f64 {
        let b = self.b();
        self.a() * self.tau_delta() / (b * b)
    }
}

impl Default for Params {
    /// Defaults to the paper's Table 1 (coarse-task) values.
    fn default() -> Self {
        Self::paper_table1()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_values_reproduced() {
        // Table 2: A = 11 µs/work-unit; B = per-task time + (1+δ)π.
        let p = Params::paper_table1();
        assert!((p.a() - 1.1e-5).abs() < 1e-20);
        assert!((p.b() - 1.00002).abs() < 1e-12);
        let fine = Params::paper_table1_fine();
        assert!((fine.a() - 1.1e-4).abs() < 1e-18);
        assert!((fine.b() - 1.0002).abs() < 1e-12);
    }

    #[test]
    fn standing_assumption_holds_for_paper_params() {
        assert!(Params::paper_table1().satisfies_standing_assumption());
        assert!(Params::paper_table1_fine().satisfies_standing_assumption());
        assert!(Params::fig34().satisfies_standing_assumption());
    }

    #[test]
    fn fig34_threshold_is_in_the_phase_window() {
        // The window that makes the published Figures 3–4 possible.
        let th = Params::fig34().theorem4_threshold();
        assert!(th > 1.0 / 32.0 && th < 1.0 / 16.0, "threshold {th}");
    }

    #[test]
    fn theorem4_threshold_small_for_table1() {
        // The paper: "with the values from Table 2, Aτδ/B² ≈ 1.1·10⁻⁵"...
        // that figure actually corresponds to A itself; the product
        // Aτδ/B² is ≈ 1.1·10⁻¹¹ with τ = 10⁻⁶. Either way it is tiny, so
        // condition (1) of Theorem 4 dominates, as the paper argues.
        let th = Params::paper_table1().theorem4_threshold();
        assert!(th < 1e-9);
    }

    #[test]
    fn validation_rejects_bad_values() {
        assert!(Params::new(0.0, 0.1, 1.0).is_err());
        assert!(Params::new(-1.0, 0.1, 1.0).is_err());
        assert!(Params::new(1.0, -0.1, 1.0).is_err());
        assert!(Params::new(1.0, 0.1, 0.0).is_err());
        assert!(Params::new(1.0, 0.1, 1.5).is_err());
        assert!(Params::new(f64::NAN, 0.1, 1.0).is_err());
        assert!(Params::new(1.0, f64::INFINITY, 1.0).is_err());
        assert!(Params::new(1.0, 0.0, 1.0).is_ok(), "π = 0 is legal");
    }

    #[test]
    fn accessors_roundtrip() {
        let p = Params::new(0.25, 0.5, 0.75).unwrap();
        assert_eq!((p.tau(), p.pi(), p.delta()), (0.25, 0.5, 0.75));
        assert_eq!(p.a(), 0.75);
        assert_eq!(p.b(), 1.0 + 1.75 * 0.5);
        assert_eq!(p.tau_delta(), 0.1875);
    }
}
