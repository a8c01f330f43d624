//! Optimized countermeasures for rumor spreading (paper Section IV).
//!
//! The paper poses an optimal-control problem: choose the time profiles
//! of truth-spreading `ε1(t)` and rumor-blocking `ε2(t)` on `(0, tf]` to
//! minimize
//!
//! ```text
//! J = Σ_i I_i(tf) + ∫₀^tf Σ_i ( c1 ε1²(t) S_i²(t) + c2 ε2²(t) I_i²(t) ) dt
//! ```
//!
//! subject to the rumor dynamics and box constraints
//! `0 ≤ ε1 ≤ ε1max`, `0 ≤ ε2 ≤ ε2max`. Pontryagin's maximum principle
//! yields the co-state system (Eqs. (15)–(16)), the transversality
//! conditions `ψ_i(tf) = 0, φ_i(tf) = 1`, and the stationary controls
//! (Eqs. (18)–(19)):
//!
//! ```text
//! ε1(t) = clamp( Σ ψ_i S_i / (2 c1 Σ S_i²), 0, ε1max )
//! ε2(t) = clamp( Σ φ_i I_i / (2 c2 Σ I_i²), 0, ε2max )
//! ```
//!
//! This crate realizes that analysis numerically, for the paper model
//! ([`rumor_compartments::paper::PaperSir`]) and every other
//! [`rumor_compartments::model::CompartmentModel`] alike:
//!
//! * [`multi`] — the one forward–backward sweep method (FBSM): grid
//!   schedules ([`multi::MultiPiecewiseControl`]), evaluation of `J`
//!   along simulated trajectories, the sweep that alternates
//!   state/costate integrations until the control converges, and its
//!   deadline-constrained variant.
//! * [`heuristic`] — the myopic feedback baseline of Fig. 4(c), which
//!   reacts only to the current infection level.
//! * [`watchdog`] — guarded execution of the sweep on the paper model:
//!   divergence classification, restart backoff with reduced relaxation,
//!   and graceful degradation to the heuristic controller.
//! * [`checkpoint`] — a versioned byte encoding of a schedule, used by
//!   the durable-jobs layer to warm-start sweep campaigns across
//!   process restarts.
//!
//! Note on Eq. (16): the paper writes the `Θ`-coupling of the adjoint
//! with per-class terms `ψ_i λ_i S_i`; differentiating the Hamiltonian
//! exactly gives the *network-coupled* form
//! `(ϕ_j/⟨k⟩) Σ_i (ψ_i − φ_i) λ_i S_i`. `PaperSir` implements the exact
//! adjoint, which reproduces the paper's qualitative results and agrees
//! with finite differences of `J` (`tests/adjoint_gradient.rs`); the
//! printed diagonal form survives only as ablation 6
//! (`crates/bench/src/bin/ablation.rs`), and DESIGN.md records the
//! discrepancy.

// Deliberate idioms throughout this workspace:
// * `!(x > 0.0)` rejects NaN alongside non-positive values, which the
//   suggested `x <= 0.0` would silently accept;
// * index-based loops mirror the mathematical stencils of the numeric
//   kernels more directly than iterator chains.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![allow(clippy::needless_range_loop)]
#![allow(clippy::manual_is_multiple_of)]

pub mod checkpoint;
pub mod heuristic;
pub mod multi;
pub mod watchdog;

mod error;

pub use error::ControlError;

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, ControlError>;

/// Box constraints on the two countermeasure channels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlBounds {
    /// Upper bound `ε1max` on the truth-spreading rate.
    pub eps1_max: f64,
    /// Upper bound `ε2max` on the rumor-blocking rate.
    pub eps2_max: f64,
}

impl ControlBounds {
    /// Creates bounds, validating positivity.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::InvalidConfig`] if either bound is not
    /// positive and finite.
    pub fn new(eps1_max: f64, eps2_max: f64) -> Result<Self> {
        if !(eps1_max > 0.0) || !eps1_max.is_finite() || !(eps2_max > 0.0) || !eps2_max.is_finite()
        {
            return Err(ControlError::InvalidConfig(format!(
                "control bounds must be positive and finite, got ({eps1_max}, {eps2_max})"
            )));
        }
        Ok(ControlBounds { eps1_max, eps2_max })
    }
}

/// Unit costs `(c1, c2)` of the two countermeasures (paper: spreading
/// truth is cheaper than blocking, `c1 = 5 < c2 = 10`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostWeights {
    /// Unit cost `c1` of spreading truth.
    pub c1: f64,
    /// Unit cost `c2` of blocking rumors.
    pub c2: f64,
}

impl CostWeights {
    /// Creates weights, validating positivity.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::InvalidConfig`] if either weight is not
    /// positive and finite.
    pub fn new(c1: f64, c2: f64) -> Result<Self> {
        if !(c1 > 0.0) || !c1.is_finite() || !(c2 > 0.0) || !c2.is_finite() {
            return Err(ControlError::InvalidConfig(format!(
                "cost weights must be positive and finite, got ({c1}, {c2})"
            )));
        }
        Ok(CostWeights { c1, c2 })
    }

    /// The paper's Fig. 4 setting: `c1 = 5, c2 = 10`.
    pub fn paper_default() -> Self {
        CostWeights { c1: 5.0, c2: 10.0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_validation() {
        assert!(ControlBounds::new(0.5, 0.5).is_ok());
        assert!(ControlBounds::new(0.0, 0.5).is_err());
        assert!(ControlBounds::new(0.5, -1.0).is_err());
        assert!(ControlBounds::new(f64::NAN, 0.5).is_err());
    }

    #[test]
    fn weights_validation_and_default() {
        assert!(CostWeights::new(1.0, 2.0).is_ok());
        assert!(CostWeights::new(0.0, 2.0).is_err());
        let w = CostWeights::paper_default();
        assert_eq!(w.c1, 5.0);
        assert_eq!(w.c2, 10.0);
    }
}
