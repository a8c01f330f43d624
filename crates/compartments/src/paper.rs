//! The paper's heterogeneous S/I/R model on the generalized
//! abstraction — the instance every paper-model optimization runs on.
//!
//! The forward RHS is the same function as
//! [`rumor_core::model::RumorModel`]'s, [`rumor_core::model::flat_rhs`],
//! so trajectories are **bit-identical** to the core model by
//! construction (still pinned in `tests/paper_identity.rs`). The adjoint
//! is the exact gradient of the Hamiltonian (Eqs. (15)–(16) with the
//! network-coupled `Σ_i` term the paper's printed Eq. (16) drops);
//! `rumor-control` pins the sweep's outputs on this model in
//! `tests/frozen_sweeps.rs` and checks the adjoint against finite
//! differences in `tests/adjoint_gradient.rs`.

use crate::model::CompartmentModel;
use crate::{CoreError, Result};
use rumor_core::kernels;
use rumor_core::model::{flat_rhs, flat_theta, MassConvention};
use rumor_core::params::ModelParams;
use rumor_par::InnerPool;

/// The paper model as a [`CompartmentModel`]: 3 compartments
/// `[S, I, R]`, 2 controls `[ε1, ε2]`, 2 costates `[ψ, φ]`.
#[derive(Debug, Clone)]
pub struct PaperSir {
    lambda: Vec<f64>,
    theta_w: Vec<f64>,
    alpha: f64,
    c1: f64,
    c2: f64,
}

impl PaperSir {
    /// Builds the port from validated model parameters and the cost
    /// weights `(c1, c2)` of paper Eq. (13).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for non-positive or
    /// non-finite cost weights.
    pub fn from_params(params: &ModelParams, c1: f64, c2: f64) -> Result<Self> {
        Self::from_parts(
            params.lambda().to_vec(),
            params.theta_weights().to_vec(),
            params.alpha(),
            c1,
            c2,
        )
    }

    /// Builds a model from raw per-class tables — the seam the
    /// tie-strength variant uses to install its `ω(k)`-modulated
    /// acceptance rates.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimensionMismatch`] when the tables differ in
    /// length or are empty, and [`CoreError::InvalidParameter`] for bad
    /// scalars.
    pub fn from_parts(
        lambda: Vec<f64>,
        theta_w: Vec<f64>,
        alpha: f64,
        c1: f64,
        c2: f64,
    ) -> Result<Self> {
        if lambda.is_empty() || lambda.len() != theta_w.len() {
            return Err(CoreError::DimensionMismatch {
                expected: lambda.len().max(1),
                found: theta_w.len(),
            });
        }
        if !(alpha >= 0.0) || !alpha.is_finite() {
            return Err(CoreError::InvalidParameter {
                name: "alpha",
                message: format!("must be non-negative and finite, got {alpha}"),
            });
        }
        for (name, w) in [("c1", c1), ("c2", c2)] {
            if !(w > 0.0) || !w.is_finite() {
                return Err(CoreError::InvalidParameter {
                    name: "cost_weight",
                    message: format!("{name} must be positive and finite, got {w}"),
                });
            }
        }
        Ok(PaperSir {
            lambda,
            theta_w,
            alpha,
            c1,
            c2,
        })
    }

    /// The per-class acceptance rates `λ(k_i)`.
    pub fn lambda(&self) -> &[f64] {
        &self.lambda
    }

    /// The fused `ϕ_i/⟨k⟩` table used by the Θ reduction.
    pub fn theta_weights(&self) -> &[f64] {
        &self.theta_w
    }

    /// The cost weights `(c1, c2)` of paper Eq. (13).
    pub fn cost_weights(&self) -> (f64, f64) {
        (self.c1, self.c2)
    }

    /// `Θ` from a flat state, through the same
    /// [`rumor_core::model::flat_theta`] as `RumorModel::theta_flat`.
    pub fn theta_flat(&self, y: &[f64], pool: Option<&InnerPool>) -> f64 {
        flat_theta(&self.theta_w, y, pool)
    }
}

impl CompartmentModel for PaperSir {
    fn n_classes(&self) -> usize {
        self.lambda.len()
    }

    fn n_compartments(&self) -> usize {
        3
    }

    fn n_controls(&self) -> usize {
        2
    }

    fn n_costates(&self) -> usize {
        2
    }

    fn compartment_names(&self) -> &'static [&'static str] {
        &["s", "i", "r"]
    }

    fn control_names(&self) -> &'static [&'static str] {
        &["eps1", "eps2"]
    }

    fn rhs(&self, y: &[f64], u: &[f64], pool: Option<&InnerPool>, dydt: &mut [f64]) {
        flat_rhs(
            &self.lambda,
            &self.theta_w,
            self.alpha,
            MassConvention::default(),
            u[0],
            u[1],
            y,
            pool,
            dydt,
        );
    }

    fn adjoint_rhs(
        &self,
        state: &[f64],
        p: &[f64],
        u: &[f64],
        pool: Option<&InnerPool>,
        dpdt: &mut [f64],
    ) {
        let n = self.lambda.len();
        let (eps1, eps2) = (u[0], u[1]);
        let s = &state[..n];
        let i = &state[n..2 * n];
        let theta = self.theta_flat(state, pool);
        let (psi, phi) = p.split_at(n);
        let (dpsi, dphi) = dpdt.split_at_mut(n);
        let c1e1sq2 = 2.0 * self.c1 * eps1 * eps1;
        let c2e2sq2 = 2.0 * self.c2 * eps2 * eps2;
        match pool {
            Some(pool) => {
                let coupling = kernels::coupling_sum_pooled(pool, psi, phi, &self.lambda, s);
                kernels::costate_rhs_pooled(
                    pool,
                    s,
                    i,
                    psi,
                    phi,
                    &self.lambda,
                    &self.theta_w,
                    theta,
                    coupling,
                    c1e1sq2,
                    c2e2sq2,
                    eps1,
                    eps2,
                    dpsi,
                    dphi,
                );
            }
            None => {
                let coupling = kernels::coupling_sum_partitioned(psi, phi, &self.lambda, s);
                kernels::costate_rhs(
                    s,
                    i,
                    psi,
                    phi,
                    &self.lambda,
                    &self.theta_w,
                    theta,
                    coupling,
                    c1e1sq2,
                    c2e2sq2,
                    eps1,
                    eps2,
                    dpsi,
                    dphi,
                );
            }
        }
    }

    fn terminal_condition(&self, weight: f64, out: &mut [f64]) {
        let n = self.lambda.len();
        for v in out[..n].iter_mut() {
            *v = 0.0;
        }
        for v in out[n..2 * n].iter_mut() {
            *v = weight;
        }
    }

    fn stationary_controls(&self, state: &[f64], p: &[f64], out: &mut [f64]) {
        let n = self.lambda.len();
        let (s, i) = (&state[..n], &state[n..2 * n]);
        let (psi, phi) = (&p[..n], &p[n..2 * n]);
        let s2 = kernels::dot(s, s);
        let i2 = kernels::dot(i, i);
        let num1 = kernels::dot(psi, s);
        let num2 = kernels::dot(phi, i);
        out[0] = if s2 > 0.0 {
            num1 / (2.0 * self.c1 * s2)
        } else {
            0.0
        };
        out[1] = if i2 > 0.0 {
            num2 / (2.0 * self.c2 * i2)
        } else {
            0.0
        };
    }

    fn running_cost(&self, state: &[f64], u: &[f64], out: &mut [f64]) {
        let n = self.lambda.len();
        // Naive left-fold sums: the cost bits the frozen sweep digests
        // record.
        let s2: f64 = state[..n].iter().map(|x| x * x).sum();
        let i2: f64 = state[n..2 * n].iter().map(|x| x * x).sum();
        out[0] = self.c1 * u[0] * u[0] * s2;
        out[1] = self.c2 * u[1] * u[1] * i2;
    }

    fn terminal_objective(&self, state: &[f64]) -> f64 {
        let n = self.lambda.len();
        state[n..2 * n].iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_parts_validates() {
        assert!(PaperSir::from_parts(vec![], vec![], 0.0, 5.0, 10.0).is_err());
        assert!(PaperSir::from_parts(vec![0.1], vec![0.2, 0.3], 0.0, 5.0, 10.0).is_err());
        assert!(PaperSir::from_parts(vec![0.1], vec![0.2], -1.0, 5.0, 10.0).is_err());
        assert!(PaperSir::from_parts(vec![0.1], vec![0.2], 0.0, 0.0, 10.0).is_err());
        assert!(PaperSir::from_parts(vec![0.1], vec![0.2], 0.0, 5.0, f64::NAN).is_err());
        let m = PaperSir::from_parts(vec![0.1, 0.2], vec![0.3, 0.4], 0.01, 5.0, 10.0).unwrap();
        assert_eq!(m.n_classes(), 2);
        assert_eq!(m.state_dim(), 6);
        assert_eq!(m.costate_dim(), 4);
        assert_eq!(m.compartment_names(), &["s", "i", "r"]);
        assert_eq!(m.control_names(), &["eps1", "eps2"]);
    }

    #[test]
    fn terminal_condition_and_objective() {
        let m = PaperSir::from_parts(vec![0.1, 0.2], vec![0.3, 0.4], 0.01, 5.0, 10.0).unwrap();
        assert_eq!(m.cost_weights(), (5.0, 10.0));
        let mut term = vec![f64::NAN; 4];
        m.terminal_condition(2.5, &mut term);
        assert_eq!(term, vec![0.0, 0.0, 2.5, 2.5]);
        let state = [0.5, 0.6, 0.2, 0.1, 0.3, 0.3];
        assert!((m.terminal_objective(&state) - 0.3).abs() < 1e-15);
    }

    #[test]
    fn stationary_controls_match_closed_form() {
        // The closed form of Eq. (18) with c1 = 2, c2 = 4.
        let m = PaperSir::from_parts(vec![0.1; 2], vec![0.3; 2], 0.0, 2.0, 4.0).unwrap();
        // state = [s0,s1, i0,i1, r0,r1]; adjoint = [psi0,psi1, phi0,phi1].
        // Use a 2-class embedding of the 1-class doc example for i/phi.
        let state = [0.5, 0.5, 0.2, 0.0, 0.0, 0.0];
        let p = [1.0, 2.0, 3.0, 0.0];
        let mut u = [0.0; 2];
        m.stationary_controls(&state, &p, &mut u);
        assert!((u[0] - 0.75).abs() < 1e-12);
        assert!((u[1] - 1.875).abs() < 1e-12);
    }

    #[test]
    fn running_cost_matches_hand_computation() {
        let m = PaperSir::from_parts(vec![0.1; 2], vec![0.3; 2], 0.0, 2.0, 3.0).unwrap();
        let mut cost = [0.0; 2];
        m.running_cost(&[0.5, 0.5, 0.1, 0.0, 0.4, 0.5], &[0.2, 0.4], &mut cost);
        // c1 ε1² Σ S² = 2·0.04·0.5 = 0.04; c2 ε2² Σ I² = 3·0.16·0.01.
        assert!((cost[0] - 0.04).abs() < 1e-12);
        assert!((cost[1] - 0.0048).abs() < 1e-12);
    }

    #[test]
    fn stationary_controls_degenerate_to_zero() {
        // All-zero compartments leave the Eq. (18) denominators at zero.
        let m = PaperSir::from_parts(vec![0.1], vec![0.3], 0.0, 5.0, 10.0).unwrap();
        let mut u = [f64::NAN; 2];
        m.stationary_controls(&[0.0, 0.0, 1.0], &[1.0, 1.0], &mut u);
        assert_eq!(u, [0.0, 0.0]);
    }

    #[test]
    fn stationary_controls_minimize_the_hamiltonian() {
        // H(u) = Σ_c L_c(u) + Σ_b p_b f_b(u) over the two costate bands
        // is a convex quadratic in each channel, and Eq. (18) is its
        // minimizer.
        let m = PaperSir::from_parts(vec![0.05, 0.1, 0.2], vec![0.1, 0.2, 0.3], 0.01, 5.0, 10.0)
            .unwrap();
        let state = [0.5, 0.6, 0.7, 0.2, 0.1, 0.05, 0.3, 0.3, 0.25];
        let p = [0.4, 0.3, 0.2, 1.0, 0.9, 0.8];
        let hamiltonian = |u: [f64; 2]| {
            let (mut cost, mut f) = ([0.0; 2], [0.0; 9]);
            m.running_cost(&state, &u, &mut cost);
            m.rhs(&state, &u, None, &mut f);
            cost[0] + cost[1] + p.iter().zip(&f).map(|(a, b)| a * b).sum::<f64>()
        };
        let mut star = [0.0; 2];
        m.stationary_controls(&state, &p, &mut star);
        let h_star = hamiltonian(star);
        for c in 0..2 {
            for step in [-0.05, 0.05] {
                let mut moved = star;
                moved[c] += step;
                assert!(hamiltonian(moved) > h_star, "channel {c}, step {step}");
            }
        }
    }

    #[test]
    fn backward_adjoint_is_finite_and_prices_truth_spreading() {
        use crate::model::{CompartmentAdjoint, CompartmentOde};
        use crate::schedule::ConstantMultiControl;
        use rumor_ode::integrator::Adaptive;
        let m = PaperSir::from_parts(
            vec![0.05, 0.1, 0.1, 0.15],
            vec![0.12, 0.2, 0.2, 0.27],
            0.01,
            5.0,
            10.0,
        )
        .unwrap();
        let control = ConstantMultiControl::new(vec![0.3, 0.1]);
        let y0 = [0.9, 0.9, 0.9, 0.9, 0.1, 0.1, 0.1, 0.1, 0.0, 0.0, 0.0, 0.0];
        let tf = 5.0;
        let forward = Adaptive::new()
            .integrate(&CompartmentOde::new(&m, &control), 0.0, &y0, tf)
            .unwrap();
        let adjoint = CompartmentAdjoint::new(&m, &forward, &control);
        let back = Adaptive::new()
            .integrate(&adjoint, tf, &adjoint.weighted_terminal_condition(1.0), 0.0)
            .unwrap();
        assert_eq!(back.last_time(), 0.0);
        let p0 = back.last_state();
        assert!(p0.iter().all(|v| v.is_finite()));
        // ψ(tf) = 0 and the running truth cost drives ψ̇ < 0 near tf, so
        // ψ is positive at earlier times.
        assert!(p0[..4].iter().all(|&v| v > 0.0), "psi(0) = {:?}", &p0[..4]);
    }

    #[test]
    fn rhs_conserves_class_mass() {
        let m = PaperSir::from_parts(vec![0.5], vec![1.0], 0.01, 5.0, 10.0).unwrap();
        let y = [0.8, 0.15, 0.05];
        let mut d = [0.0; 3];
        m.rhs(&y, &[0.1, 0.2], None, &mut d);
        assert!((d[0] + d[1] + d[2]).abs() < 1e-15);
    }
}
