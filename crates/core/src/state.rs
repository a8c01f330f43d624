//! The per-class state of the rumor system.
//!
//! [`NetworkState`] holds `(S_i, I_i, R_i)` for every degree class and
//! converts to/from the flat layout used by the ODE integrators:
//! `[S_0..S_{n-1}, I_0..I_{n-1}, R_0..R_{n-1}]`.

use crate::params::ModelParams;
use crate::{CoreError, Result};

/// Densities of susceptible, infected and recovered users per degree
/// class.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkState {
    s: Vec<f64>,
    i: Vec<f64>,
    r: Vec<f64>,
}

impl NetworkState {
    /// Creates a state from explicit per-class densities.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimensionMismatch`] if the vectors differ in
    /// length, or [`CoreError::InvalidParameter`] if any density is
    /// negative or non-finite.
    pub fn new(s: Vec<f64>, i: Vec<f64>, r: Vec<f64>) -> Result<Self> {
        if s.len() != i.len() || s.len() != r.len() {
            return Err(CoreError::DimensionMismatch {
                expected: s.len(),
                found: i.len().max(r.len()),
            });
        }
        for (name, v) in [("s", &s), ("i", &i), ("r", &r)] {
            if v.iter().any(|x| !x.is_finite() || *x < 0.0) {
                return Err(CoreError::InvalidParameter {
                    name: "density",
                    message: format!("compartment {name} contains a negative or non-finite value"),
                });
            }
        }
        Ok(NetworkState { s, i, r })
    }

    /// The paper's initial condition: every class starts with infected
    /// fraction `i0`, susceptible `1 − i0`, recovered `0`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if `i0 ∉ (0, 1]` or
    /// `n == 0`.
    pub fn initial_uniform(n: usize, i0: f64) -> Result<Self> {
        if n == 0 {
            return Err(CoreError::InvalidParameter {
                name: "n",
                message: "need at least one degree class".into(),
            });
        }
        if !(i0 > 0.0 && i0 <= 1.0) {
            return Err(CoreError::InvalidParameter {
                name: "i0",
                message: format!("initial infection must lie in (0, 1], got {i0}"),
            });
        }
        Ok(NetworkState {
            s: vec![1.0 - i0; n],
            i: vec![i0; n],
            r: vec![0.0; n],
        })
    }

    /// Initial condition with a distinct infected fraction per class
    /// (`S_i = 1 − I_i`, `R_i = 0`), matching the paper's
    /// `S(t0) = 1 − I(t0), R(t0) = 0` convention.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if any fraction is outside
    /// `[0, 1]` or the vector is empty.
    pub fn initial_from_infected(i: Vec<f64>) -> Result<Self> {
        if i.is_empty() {
            return Err(CoreError::InvalidParameter {
                name: "i",
                message: "need at least one degree class".into(),
            });
        }
        if i.iter().any(|&x| !(0.0..=1.0).contains(&x)) {
            return Err(CoreError::InvalidParameter {
                name: "i",
                message: "infected fractions must lie in [0, 1]".into(),
            });
        }
        let s: Vec<f64> = i.iter().map(|&x| 1.0 - x).collect();
        let r = vec![0.0; i.len()];
        Ok(NetworkState { s, i, r })
    }

    /// Number of degree classes.
    pub fn n_classes(&self) -> usize {
        self.s.len()
    }

    /// Susceptible densities per class.
    pub fn s(&self) -> &[f64] {
        &self.s
    }

    /// Infected densities per class.
    pub fn i(&self) -> &[f64] {
        &self.i
    }

    /// Recovered densities per class.
    pub fn r(&self) -> &[f64] {
        &self.r
    }

    /// Total infected density `Σ_i I_i` (the objective's terminal term).
    pub fn total_infected(&self) -> f64 {
        self.i.iter().sum()
    }

    /// The average rumor infectivity
    /// `Θ = (1/⟨k⟩) Σ_i ϕ(k_i) I_i` (paper Eq. (2) context).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimensionMismatch`] if the state and
    /// parameters disagree on the class count.
    pub fn theta(&self, params: &ModelParams) -> Result<f64> {
        if params.n_classes() != self.n_classes() {
            return Err(CoreError::DimensionMismatch {
                expected: params.n_classes(),
                found: self.n_classes(),
            });
        }
        let sum: f64 = params
            .phi()
            .iter()
            .zip(&self.i)
            .map(|(phi, i)| phi * i)
            .sum();
        Ok(sum / params.mean_degree())
    }

    /// Flattens to the integrator layout `[S.., I.., R..]`.
    pub fn to_flat(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(3 * self.n_classes());
        out.extend_from_slice(&self.s);
        out.extend_from_slice(&self.i);
        out.extend_from_slice(&self.r);
        out
    }

    /// Reconstructs a state from the integrator layout.
    ///
    /// Small negative densities produced by integration error are clamped
    /// to zero.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimensionMismatch`] if `flat.len()` is not a
    /// multiple of 3, or [`CoreError::InvalidParameter`] on non-finite
    /// values.
    pub fn from_flat(flat: &[f64]) -> Result<Self> {
        if flat.len() % 3 != 0 || flat.is_empty() {
            return Err(CoreError::DimensionMismatch {
                expected: 3,
                found: flat.len(),
            });
        }
        if flat.iter().any(|x| !x.is_finite()) {
            return Err(CoreError::InvalidParameter {
                name: "flat",
                message: "state contains non-finite values".into(),
            });
        }
        let n = flat.len() / 3;
        let clamp = |x: f64| x.max(0.0);
        Ok(NetworkState {
            s: flat[..n].iter().copied().map(clamp).collect(),
            i: flat[n..2 * n].iter().copied().map(clamp).collect(),
            r: flat[2 * n..].iter().copied().map(clamp).collect(),
        })
    }

    /// Infinity-norm distance to another state across all compartments —
    /// the `Dist0`/`Dist+` metric of Figs. 2(a) and 3(a).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimensionMismatch`] on class-count mismatch.
    pub fn dist_inf(&self, other: &NetworkState) -> Result<f64> {
        if self.n_classes() != other.n_classes() {
            return Err(CoreError::DimensionMismatch {
                expected: self.n_classes(),
                found: other.n_classes(),
            });
        }
        let mut d: f64 = 0.0;
        for (a, b) in self.s.iter().zip(&other.s) {
            d = d.max((a - b).abs());
        }
        for (a, b) in self.i.iter().zip(&other.i) {
            d = d.max((a - b).abs());
        }
        for (a, b) in self.r.iter().zip(&other.r) {
            d = d.max((a - b).abs());
        }
        Ok(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::test_support::tiny_params;

    #[test]
    fn initial_uniform_layout() {
        let st = NetworkState::initial_uniform(3, 0.1).unwrap();
        assert_eq!(st.n_classes(), 3);
        assert!(st.s().iter().all(|&x| (x - 0.9).abs() < 1e-15));
        assert!(st.i().iter().all(|&x| (x - 0.1).abs() < 1e-15));
        assert!(st.r().iter().all(|&x| x == 0.0));
        assert!((st.total_infected() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn initial_uniform_validation() {
        assert!(NetworkState::initial_uniform(0, 0.1).is_err());
        assert!(NetworkState::initial_uniform(3, 0.0).is_err());
        assert!(NetworkState::initial_uniform(3, 1.5).is_err());
        assert!(NetworkState::initial_uniform(3, 1.0).is_ok());
    }

    #[test]
    fn initial_from_infected() {
        let st = NetworkState::initial_from_infected(vec![0.1, 0.5, 0.0]).unwrap();
        assert_eq!(st.s(), &[0.9, 0.5, 1.0]);
        assert!(NetworkState::initial_from_infected(vec![]).is_err());
        assert!(NetworkState::initial_from_infected(vec![1.1]).is_err());
        assert!(NetworkState::initial_from_infected(vec![-0.1]).is_err());
    }

    #[test]
    fn new_validation() {
        assert!(NetworkState::new(vec![0.5], vec![0.5], vec![0.0]).is_ok());
        assert!(NetworkState::new(vec![0.5], vec![0.5, 0.1], vec![0.0]).is_err());
        assert!(NetworkState::new(vec![-0.1], vec![0.5], vec![0.0]).is_err());
        assert!(NetworkState::new(vec![f64::NAN], vec![0.5], vec![0.0]).is_err());
    }

    #[test]
    fn flat_roundtrip() {
        let st = NetworkState::new(vec![0.7, 0.6], vec![0.2, 0.3], vec![0.1, 0.1]).unwrap();
        let flat = st.to_flat();
        assert_eq!(flat, vec![0.7, 0.6, 0.2, 0.3, 0.1, 0.1]);
        let back = NetworkState::from_flat(&flat).unwrap();
        assert_eq!(st, back);
    }

    #[test]
    fn from_flat_clamps_negatives() {
        let st = NetworkState::from_flat(&[-1e-12, 0.5, 0.5]).unwrap();
        assert_eq!(st.s()[0], 0.0);
    }

    #[test]
    fn from_flat_validation() {
        assert!(NetworkState::from_flat(&[0.1, 0.2]).is_err());
        assert!(NetworkState::from_flat(&[]).is_err());
        assert!(NetworkState::from_flat(&[f64::INFINITY, 0.0, 0.0]).is_err());
    }

    #[test]
    fn theta_matches_hand_computation() {
        // tiny_params: degrees [1, 2, 4] with P = [1/2, 1/3, 1/6].
        let p = tiny_params();
        let st = NetworkState::initial_uniform(3, 0.1).unwrap();
        let omega = |k: f64| k.sqrt() / (1.0 + k.sqrt());
        let phi: Vec<f64> = [(1.0, 0.5), (2.0, 1.0 / 3.0), (4.0, 1.0 / 6.0)]
            .iter()
            .map(|&(k, pk)| omega(k) * pk)
            .collect();
        let mean_k = 1.0 * 0.5 + 2.0 / 3.0 + 4.0 / 6.0;
        let expect = phi.iter().map(|f| f * 0.1).sum::<f64>() / mean_k;
        assert!((st.theta(&p).unwrap() - expect).abs() < 1e-12);
    }

    #[test]
    fn theta_dimension_check() {
        let p = tiny_params();
        let st = NetworkState::initial_uniform(2, 0.1).unwrap();
        assert!(st.theta(&p).is_err());
    }

    #[test]
    fn dist_inf_basics() {
        let a = NetworkState::initial_uniform(2, 0.1).unwrap();
        let b = NetworkState::initial_uniform(2, 0.4).unwrap();
        // S differs by 0.3, I differs by 0.3, R identical.
        assert!((a.dist_inf(&b).unwrap() - 0.3).abs() < 1e-15);
        assert_eq!(a.dist_inf(&a).unwrap(), 0.0);
        let c = NetworkState::initial_uniform(3, 0.1).unwrap();
        assert!(a.dist_inf(&c).is_err());
    }
}
