//! Competing two-rumor dynamics: a rumor and a truth campaign racing
//! for the same susceptible population (after Zan's double-rumor
//! models and the truth/rumor competition line of arXiv:1709.01726),
//! lifted onto the degree-class mean-field machinery of the paper.
//!
//! Four compartments per degree class `[S, I1, I2, R]`:
//!
//! * `S` — ignorant of both stories,
//! * `I1` — spreading the rumor (contact force `λ1(k)·S·Θ1`),
//! * `I2` — spreading the truth (contact force `λ2(k)·S·Θ2`), which
//!   also *converts* rumor spreaders on contact (`μ·λ2(k)·I1·Θ2` — a
//!   debunked spreader switches sides),
//! * `R` — stifled, spreading nothing.
//!
//! Two countermeasure channels compete for budget in the optimal
//! control problem:
//!
//! * `u1` — **truth seeding**: directly recruits susceptibles into the
//!   truth campaign (`S → I2` at rate `u1`), cost `c1·u1²·ΣS_j²`;
//! * `u2` — **blocking**: silences rumor spreaders (`I1 → R` at rate
//!   `u2`), cost `c2·u2²·ΣI1_j²` — the paper's ε2 channel.
//!
//! The objective is `w·ΣI1(tf) + ∫(c1u1²ΣS² + c2u2²ΣI1²)dt`: suppress
//! the rumor, not the truth. Three costate bands `[ψ, φ, χ]` (the `R`
//! costate vanishes identically) drive the multi-control FBSM in
//! `rumor_control::multi`.
//!
//! All Θ reductions and adjoint couplings route through the partitioned
//! `rumor_core::kernels`, the same `PART_CHUNK` plan as the S/I/R
//! kernels. Production solves run serially; the forward RHS can also
//! shard its element-wise body over that plan on an inner pool, with the
//! same bits.

use rumor_compartments::model::CompartmentModel;
use rumor_compartments::CoreError;
use rumor_core::functions::AcceptanceRate;
use rumor_core::kernels;
use rumor_core::params::ModelParams;
use rumor_par::InnerPool;

type Result<T> = std::result::Result<T, CoreError>;

/// The competing two-rumor model: 4 compartments `[S, I1, I2, R]`,
/// 2 controls `[u1 (truth seeding), u2 (blocking)]`, 3 costates
/// `[ψ, φ, χ]`.
#[derive(Debug, Clone)]
pub struct TwoRumorModel {
    /// Rumor acceptance `λ1(k_j)` per class.
    lambda1: Vec<f64>,
    /// Truth acceptance `λ2(k_j)` per class.
    lambda2: Vec<f64>,
    /// Fused `ϕ_j/⟨k⟩` table shared by both Θ reductions.
    theta_w: Vec<f64>,
    /// Churn rate (class-uniform inflow of fresh susceptibles).
    alpha: f64,
    /// Spontaneous rumor stifling rate `I1 → R`.
    gamma1: f64,
    /// Truth-campaign fatigue rate `I2 → R`.
    gamma2: f64,
    /// Debunking efficiency: rumor spreaders convert to truth spreaders
    /// at `μ·λ2(k)·I1·Θ2`.
    mu: f64,
    /// Cost weight of the truth-seeding channel.
    c1: f64,
    /// Cost weight of the blocking channel.
    c2: f64,
}

impl TwoRumorModel {
    /// Builds the model on the paper's calibrated degree-class tables:
    /// `λ1` and Θ weights from `params`, `λ2` from a linear-in-degree
    /// acceptance with scale `lambda20`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for a non-finite or
    /// negative rate, non-positive cost weight, or `mu` outside
    /// `[0, 1]`.
    #[allow(clippy::too_many_arguments)]
    pub fn from_params(
        params: &ModelParams,
        lambda20: f64,
        gamma1: f64,
        gamma2: f64,
        mu: f64,
        c1: f64,
        c2: f64,
    ) -> Result<Self> {
        if !(lambda20 > 0.0) || !lambda20.is_finite() {
            return Err(CoreError::InvalidParameter {
                name: "lambda20",
                message: format!(
                    "truth acceptance scale must be positive and finite, got {lambda20}"
                ),
            });
        }
        let accept2 = AcceptanceRate::LinearInDegree { lambda0: lambda20 };
        let lambda2: Vec<f64> = params
            .classes()
            .degrees()
            .iter()
            .map(|&k| accept2.eval(k))
            .collect();
        Self::from_parts(
            params.lambda().to_vec(),
            lambda2,
            params.theta_weights().to_vec(),
            params.alpha(),
            gamma1,
            gamma2,
            mu,
            c1,
            c2,
        )
    }

    /// Builds a model from raw per-class tables.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimensionMismatch`] for empty or mismatched
    /// tables and [`CoreError::InvalidParameter`] for bad scalars.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        lambda1: Vec<f64>,
        lambda2: Vec<f64>,
        theta_w: Vec<f64>,
        alpha: f64,
        gamma1: f64,
        gamma2: f64,
        mu: f64,
        c1: f64,
        c2: f64,
    ) -> Result<Self> {
        if lambda1.is_empty() || lambda1.len() != theta_w.len() || lambda2.len() != theta_w.len() {
            return Err(CoreError::DimensionMismatch {
                expected: lambda1.len().max(1),
                found: lambda2.len().min(theta_w.len()),
            });
        }
        for (name, v) in [("alpha", alpha), ("gamma1", gamma1), ("gamma2", gamma2)] {
            if !(v >= 0.0) || !v.is_finite() {
                return Err(CoreError::InvalidParameter {
                    name: "rate",
                    message: format!("{name} must be non-negative and finite, got {v}"),
                });
            }
        }
        if !(0.0..=1.0).contains(&mu) || !mu.is_finite() {
            return Err(CoreError::InvalidParameter {
                name: "mu",
                message: format!("debunking efficiency must lie in [0, 1], got {mu}"),
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
        Ok(TwoRumorModel {
            lambda1,
            lambda2,
            theta_w,
            alpha,
            gamma1,
            gamma2,
            mu,
            c1,
            c2,
        })
    }

    /// The two contact forces `(Θ1, Θ2)` at a flat state.
    fn thetas(&self, y: &[f64], pool: Option<&InnerPool>) -> (f64, f64) {
        let n = self.theta_w.len();
        let i1 = &y[n..2 * n];
        let i2 = &y[2 * n..3 * n];
        match pool {
            Some(pool) => (
                kernels::dot_pooled(pool, &self.theta_w, i1),
                kernels::dot_pooled(pool, &self.theta_w, i2),
            ),
            None => (
                kernels::dot_partitioned(&self.theta_w, i1),
                kernels::dot_partitioned(&self.theta_w, i2),
            ),
        }
    }

    /// Element-wise forward stencil on one class range `[lo, hi)`. The
    /// pooled path scatters this same function over `PART_CHUNK` chunks,
    /// so sharding never changes per-element arithmetic. Only the
    /// benchmark probes reach the pooled path.
    #[allow(clippy::too_many_arguments)]
    fn rhs_chunk(
        &self,
        lo: usize,
        hi: usize,
        s: &[f64],
        i1: &[f64],
        i2: &[f64],
        theta1: f64,
        theta2: f64,
        u1: f64,
        u2: f64,
        ds: &mut [f64],
        di1: &mut [f64],
        di2: &mut [f64],
        dr: &mut [f64],
    ) {
        for j in lo..hi {
            let o = j - lo;
            let force1 = self.lambda1[j] * s[o] * theta1;
            let force2 = self.lambda2[j] * s[o] * theta2;
            let convert = self.mu * self.lambda2[j] * i1[o] * theta2;
            ds[o] = self.alpha - force1 - force2 - u1 * s[o];
            di1[o] = force1 - self.gamma1 * i1[o] - u2 * i1[o] - convert;
            di2[o] = force2 + u1 * s[o] + convert - self.gamma2 * i2[o];
            dr[o] = self.gamma1 * i1[o] + u2 * i1[o] + self.gamma2 * i2[o] - self.alpha;
        }
    }
}

impl CompartmentModel for TwoRumorModel {
    fn n_classes(&self) -> usize {
        self.theta_w.len()
    }

    fn n_compartments(&self) -> usize {
        4
    }

    fn n_controls(&self) -> usize {
        2
    }

    fn n_costates(&self) -> usize {
        3
    }

    fn compartment_names(&self) -> &'static [&'static str] {
        &["s", "i1", "i2", "r"]
    }

    fn control_names(&self) -> &'static [&'static str] {
        &["truth", "blocking"]
    }

    fn rhs(&self, y: &[f64], u: &[f64], pool: Option<&InnerPool>, dydt: &mut [f64]) {
        let n = self.theta_w.len();
        let (u1, u2) = (u[0], u[1]);
        let (theta1, theta2) = self.thetas(y, pool);
        let (s, rest) = y.split_at(n);
        let (i1, i2) = (&rest[..n], &rest[n..2 * n]);
        let (ds, rest) = dydt.split_at_mut(n);
        let (di1, rest) = rest.split_at_mut(n);
        let (di2, dr) = rest.split_at_mut(n);
        match pool {
            Some(pool) if pool.threads() > 1 && kernels::partition_count(n) > 1 => {
                #[allow(clippy::type_complexity)]
                let chunks: Vec<(&mut [f64], &mut [f64], &mut [f64], &mut [f64])> = ds
                    .chunks_mut(kernels::PART_CHUNK)
                    .zip(di1.chunks_mut(kernels::PART_CHUNK))
                    .zip(di2.chunks_mut(kernels::PART_CHUNK))
                    .zip(dr.chunks_mut(kernels::PART_CHUNK))
                    .map(|(((a, b), c), d)| (a, b, c, d))
                    .collect();
                pool.scatter(chunks, |c, (ds_c, di1_c, di2_c, dr_c)| {
                    let (lo, hi) = rumor_par::chunk_bounds(n, kernels::PART_CHUNK, c);
                    self.rhs_chunk(
                        lo,
                        hi,
                        &s[lo..hi],
                        &i1[lo..hi],
                        &i2[lo..hi],
                        theta1,
                        theta2,
                        u1,
                        u2,
                        ds_c,
                        di1_c,
                        di2_c,
                        dr_c,
                    );
                });
            }
            _ => {
                self.rhs_chunk(0, n, s, i1, i2, theta1, theta2, u1, u2, ds, di1, di2, dr);
            }
        }
    }

    fn adjoint_rhs(&self, state: &[f64], p: &[f64], u: &[f64], dpdt: &mut [f64]) {
        let n = self.theta_w.len();
        let (u1, u2) = (u[0], u[1]);
        let (theta1, theta2) = self.thetas(state, None);
        let s = &state[..n];
        let i1 = &state[n..2 * n];
        let (psi, rest) = p.split_at(n);
        let (phi, chi) = (&rest[..n], &rest[n..2 * n]);
        // Cross-Θ couplings: the rumor's debunked spreaders and both
        // stories' shared susceptibles tie every class to every other.
        let coupling1 = kernels::coupling_sum_partitioned(psi, phi, &self.lambda1, s);
        let coupling_a = kernels::coupling_sum_partitioned(psi, chi, &self.lambda2, s);
        let coupling_b = kernels::coupling_sum_partitioned(phi, chi, &self.lambda2, i1);
        let c1u1sq2 = 2.0 * self.c1 * u1 * u1;
        let c2u2sq2 = 2.0 * self.c2 * u2 * u2;
        let (dpsi, rest) = dpdt.split_at_mut(n);
        let (dphi, dchi) = rest.split_at_mut(n);
        for j in 0..n {
            let l1t1 = self.lambda1[j] * theta1;
            let l2t2 = self.lambda2[j] * theta2;
            dpsi[j] = -c1u1sq2 * s[j] + psi[j] * (l1t1 + l2t2 + u1)
                - phi[j] * l1t1
                - chi[j] * (l2t2 + u1);
            dphi[j] = -c2u2sq2 * i1[j]
                + self.theta_w[j] * coupling1
                + phi[j] * (self.gamma1 + u2 + self.mu * l2t2)
                - chi[j] * self.mu * l2t2;
            dchi[j] = self.theta_w[j] * (coupling_a + self.mu * coupling_b) + chi[j] * self.gamma2;
        }
    }

    fn terminal_condition(&self, weight: f64, out: &mut [f64]) {
        let n = self.theta_w.len();
        // Only the rumor band enters the terminal objective: ψ = χ = 0,
        // φ = w.
        for v in out[..n].iter_mut() {
            *v = 0.0;
        }
        for v in out[n..2 * n].iter_mut() {
            *v = weight;
        }
        for v in out[2 * n..3 * n].iter_mut() {
            *v = 0.0;
        }
    }

    fn stationary_controls(&self, state: &[f64], p: &[f64], out: &mut [f64]) {
        let n = self.theta_w.len();
        let (s, i1) = (&state[..n], &state[n..2 * n]);
        let (psi, phi, chi) = (&p[..n], &p[n..2 * n], &p[2 * n..3 * n]);
        let s2 = kernels::dot(s, s);
        let i1sq = kernels::dot(i1, i1);
        // ∂H/∂u1 = 0: u1 = Σ(ψ−χ)S / (2 c1 ΣS²).
        out[0] = if s2 > 0.0 {
            (kernels::dot(psi, s) - kernels::dot(chi, s)) / (2.0 * self.c1 * s2)
        } else {
            0.0
        };
        // ∂H/∂u2 = 0: u2 = ΣφI1 / (2 c2 ΣI1²).
        out[1] = if i1sq > 0.0 {
            kernels::dot(phi, i1) / (2.0 * self.c2 * i1sq)
        } else {
            0.0
        };
    }

    fn running_cost(&self, state: &[f64], u: &[f64], out: &mut [f64]) {
        let n = self.theta_w.len();
        let s2: f64 = state[..n].iter().map(|x| x * x).sum();
        let i1sq: f64 = state[n..2 * n].iter().map(|x| x * x).sum();
        out[0] = self.c1 * u[0] * u[0] * s2;
        out[1] = self.c2 * u[1] * u[1] * i1sq;
    }

    fn terminal_objective(&self, state: &[f64]) -> f64 {
        let n = self.theta_w.len();
        state[n..2 * n].iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rumor_compartments::schedule::ConstantMultiControl;
    use rumor_compartments::simulate::{simulate_compartments, CompartmentSimOptions};
    use std::sync::Arc;

    fn model(n: usize) -> TwoRumorModel {
        let lambda1: Vec<f64> = (0..n).map(|j| 0.02 * (1 + j % 40) as f64).collect();
        let lambda2: Vec<f64> = (0..n).map(|j| 0.03 * (1 + j % 40) as f64).collect();
        let theta_w: Vec<f64> = (0..n).map(|j| 0.01 + 0.002 * (j % 7) as f64).collect();
        TwoRumorModel::from_parts(lambda1, lambda2, theta_w, 0.002, 0.05, 0.08, 0.5, 5.0, 10.0)
            .unwrap()
    }

    fn y0(n: usize) -> Vec<f64> {
        let mut y = vec![0.0; 4 * n];
        for j in 0..n {
            y[j] = 0.88;
            y[n + j] = 0.1;
            y[2 * n + j] = 0.02;
        }
        y
    }

    #[test]
    fn validation_rejects_bad_inputs() {
        let ok = model(3);
        assert_eq!(ok.n_compartments(), 4);
        assert_eq!(ok.n_costates(), 3);
        assert_eq!(ok.state_dim(), 12);
        assert_eq!(ok.costate_dim(), 9);
        assert!(
            TwoRumorModel::from_parts(vec![], vec![], vec![], 0.0, 0.0, 0.0, 0.5, 1.0, 1.0)
                .is_err()
        );
        assert!(TwoRumorModel::from_parts(
            vec![0.1],
            vec![0.1, 0.2],
            vec![0.1],
            0.0,
            0.0,
            0.0,
            0.5,
            1.0,
            1.0
        )
        .is_err());
        for (alpha, gamma1, gamma2, mu, c1, c2) in [
            (-0.1, 0.0, 0.0, 0.5, 1.0, 1.0),
            (0.0, f64::NAN, 0.0, 0.5, 1.0, 1.0),
            (0.0, 0.0, -1.0, 0.5, 1.0, 1.0),
            (0.0, 0.0, 0.0, 1.5, 1.0, 1.0),
            (0.0, 0.0, 0.0, 0.5, 0.0, 1.0),
            (0.0, 0.0, 0.0, 0.5, 1.0, -2.0),
        ] {
            assert!(TwoRumorModel::from_parts(
                vec![0.1],
                vec![0.1],
                vec![0.1],
                alpha,
                gamma1,
                gamma2,
                mu,
                c1,
                c2
            )
            .is_err());
        }
    }

    #[test]
    fn rhs_conserves_mass_per_class() {
        let m = model(6);
        let y = y0(6);
        let mut d = vec![0.0; 24];
        m.rhs(&y, &[0.1, 0.2], None, &mut d);
        for j in 0..6 {
            let total = d[j] + d[6 + j] + d[12 + j] + d[18 + j];
            assert!(total.abs() < 1e-15, "class {j}: {total}");
        }
    }

    #[test]
    fn truth_campaign_suppresses_the_rumor() {
        // With an aggressive truth campaign the rumor's final prevalence
        // drops relative to the uncontrolled run.
        let m = model(6);
        let opts = CompartmentSimOptions {
            n_out: 41,
            ..Default::default()
        };
        let free = simulate_compartments(
            &m,
            ConstantMultiControl::new(vec![0.0; 2]),
            &y0(6),
            30.0,
            &opts,
        )
        .unwrap();
        let seeded = simulate_compartments(
            &m,
            ConstantMultiControl::new(vec![0.3, 0.0]),
            &y0(6),
            30.0,
            &opts,
        )
        .unwrap();
        let free_i1: f64 = free.total_series(1).last().copied().unwrap();
        let seeded_i1: f64 = seeded.total_series(1).last().copied().unwrap();
        assert!(
            seeded_i1 < free_i1,
            "truth seeding did not suppress the rumor: {seeded_i1} vs {free_i1}"
        );
        // Mass stays conserved along the trajectory.
        let last = free.last_state();
        for j in 0..6 {
            let mass = last[j] + last[6 + j] + last[12 + j] + last[18 + j];
            assert!((mass - 1.0).abs() < 1e-6, "class {j}: mass {mass}");
        }
    }

    #[test]
    fn pooled_rhs_is_bit_identical() {
        for n in [7usize, 264, 848] {
            let m = model(n);
            let y = y0(n);
            let mut d_serial = vec![0.0; 4 * n];
            m.rhs(&y, &[0.15, 0.07], None, &mut d_serial);
            for threads in [2usize, 4] {
                let pool = Arc::new(InnerPool::new(threads));
                let mut d_pooled = vec![0.0; 4 * n];
                m.rhs(&y, &[0.15, 0.07], Some(&pool), &mut d_pooled);
                for (a, b) in d_serial.iter().zip(&d_pooled) {
                    assert_eq!(a.to_bits(), b.to_bits(), "rhs n = {n}, threads = {threads}");
                }
            }
        }
    }

    #[test]
    fn stationary_controls_and_terminal_shape() {
        let m = model(2);
        let mut term = vec![f64::NAN; 6];
        m.terminal_condition(3.0, &mut term);
        assert_eq!(term, vec![0.0, 0.0, 3.0, 3.0, 0.0, 0.0]);
        let state = [0.5, 0.5, 0.2, 0.2, 0.1, 0.1, 0.2, 0.2];
        assert!((m.terminal_objective(&state) - 0.4).abs() < 1e-15);
        // Degenerate denominators fall back to zero.
        let zero_state = [0.0; 8];
        let p = [1.0; 6];
        let mut u = [f64::NAN; 2];
        m.stationary_controls(&zero_state, &p, &mut u);
        assert_eq!(u, [0.0, 0.0]);
    }
}
