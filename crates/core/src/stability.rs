//! Stability analysis of the equilibrium solutions (Theorems 2–4).
//!
//! Theorem 2 classifies the local stability of the rumor-free
//! equilibrium `E0` through the eigenvalues of the Jacobian of the
//! reduced `(S, I)` system (the first two equations are independent of
//! `R`). At `E0` that `2n × 2n` Jacobian is block upper triangular, so
//! the Theorem-2 check assembles only its `n × n` I–I block, feeds it to
//! the dense QR eigenvalue solver in `rumor-numerics` and adds the `S`
//! block's eigenvalue `−ε1`. The tests assemble the whole Jacobian as
//! their oracle and find that abscissa bit for bit equal to the whole
//! matrix's on nets of 1–16, 97 and 264 classes; the two solves' QR
//! deflation floors differ, so the equality is checked, not proven. The
//! module also provides an empirical global-stability check (Theorems
//! 3–4) that integrates the full system from a batch of initial
//! conditions and measures convergence to a target equilibrium.

use crate::control::ConstantControl;
use crate::equilibrium::r0;
use crate::model::RumorModel;
use crate::params::ModelParams;
use crate::state::NetworkState;
use crate::{CoreError, Result};
use rumor_numerics::eigen::spectral_abscissa;
use rumor_numerics::matrix::Matrix;
use rumor_ode::integrator::Adaptive;

/// Verdict of a local stability analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stability {
    /// All Jacobian eigenvalues have negative real part.
    LocallyStable {
        /// The spectral abscissa (most positive real part).
        abscissa: f64,
    },
    /// At least one eigenvalue has positive real part.
    Unstable {
        /// The spectral abscissa.
        abscissa: f64,
    },
    /// The spectral abscissa is numerically indistinguishable from zero
    /// (critical case `r0 = 1`).
    Marginal {
        /// The spectral abscissa.
        abscissa: f64,
    },
}

impl Stability {
    fn from_abscissa(a: f64) -> Self {
        const TOL: f64 = 1e-9;
        if a < -TOL {
            Stability::LocallyStable { abscissa: a }
        } else if a > TOL {
            Stability::Unstable { abscissa: a }
        } else {
            Stability::Marginal { abscissa: a }
        }
    }

    /// `true` for the locally-stable verdict.
    pub fn is_stable(&self) -> bool {
        matches!(self, Stability::LocallyStable { .. })
    }
}

/// The I–I block of the reduced `(S, I)` system's Jacobian at `state`,
/// `∂İ_i/∂I_j = λ_i S_i ϕ_j/⟨k⟩ − ε2 δ_ij`: the diagonal `−ε2` first,
/// then `+=` the coupling.
fn jacobian_ii_block(params: &ModelParams, state: &NetworkState, eps2: f64) -> Matrix {
    let n = params.n_classes();
    let mean_k = params.mean_degree();
    let lambda = params.lambda();
    let phi = params.phi();
    let mut d = Matrix::zeros(n, n);
    for i in 0..n {
        d[(i, i)] = -eps2;
        for col in 0..n {
            d[(i, col)] += lambda[i] * state.s()[i] * phi[col] / mean_k;
        }
    }
    d
}

/// Local stability of the rumor-free equilibrium `E0` via the spectral
/// abscissa of the reduced `(S, I)` system's Jacobian (Theorem 2:
/// stable iff `r0 < 1`), ordered `[S_0..S_{n-1}, I_0..I_{n-1}]`:
///
/// ```text
/// ∂Ṡ_i/∂S_j = −(λ_i Θ + ε1) δ_ij        ∂Ṡ_i/∂I_j = −λ_i S_i ϕ_j/⟨k⟩
/// ∂İ_i/∂S_j =  λ_i Θ δ_ij               ∂İ_i/∂I_j =  λ_i S_i ϕ_j/⟨k⟩ − ε2 δ_ij
/// ```
///
/// At `E0` no class is infected, so `Θ` is exactly 0. The `S` columns
/// of the Jacobian then hold only their diagonal `−ε1`, and the matrix
/// is block upper triangular: its spectrum is `{−ε1}` together with the
/// spectrum of the `n × n` I–I block `D`. So only `D` is assembled and
/// handed to the dense QR solver, and the abscissa is the larger of
/// `D`'s and `−ε1`.
///
/// # Errors
///
/// Propagates equilibrium construction and eigenvalue failures.
pub fn local_stability_e0(params: &ModelParams, eps1: f64, eps2: f64) -> Result<Stability> {
    let e0 = crate::equilibrium::zero_equilibrium(params, eps1, eps2)?;
    debug_assert_eq!(e0.theta(params)?, 0.0);
    // The matrix moves into the eigenvalue solver, which reduces it in
    // place: at paper scale `D` is a dense 848 × 848 matrix (5.7 MB),
    // the whole Jacobian 1,696 × 1,696 (23 MB).
    let abscissa = spectral_abscissa(jacobian_ii_block(params, &e0, eps2))?.max(-eps1);
    Ok(Stability::from_abscissa(abscissa))
}

/// Checks Theorem 2's claim against the eigenvalue computation: the sign
/// of `r0 − 1` must match the instability of `E0`. Returns
/// `(r0, verdict, consistent)`.
///
/// # Errors
///
/// Propagates threshold and stability-analysis failures.
pub fn theorem2_consistency(
    params: &ModelParams,
    eps1: f64,
    eps2: f64,
) -> Result<(f64, Stability, bool)> {
    let threshold = r0(params, eps1, eps2)?;
    let verdict = local_stability_e0(params, eps1, eps2)?;
    let consistent = match verdict {
        Stability::LocallyStable { .. } => threshold < 1.0,
        Stability::Unstable { .. } => threshold > 1.0,
        Stability::Marginal { .. } => (threshold - 1.0).abs() < 1e-6,
    };
    Ok((threshold, verdict, consistent))
}

/// The Lyapunov function of Theorem 3 for the rumor-free equilibrium:
/// `V(t) = Θ(t)/ε2`. Along solutions, `V̇ = Θ·(r0 − 1)`-signed, so it
/// decreases whenever `r0 < 1`.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParameter`] if `eps2 ≤ 0` and propagates
/// dimension mismatches from the `Θ` computation.
pub fn lyapunov_v0(params: &ModelParams, state: &NetworkState, eps2: f64) -> Result<f64> {
    if !(eps2 > 0.0) {
        return Err(CoreError::InvalidParameter {
            name: "eps2",
            message: format!("must be positive, got {eps2}"),
        });
    }
    Ok(state.theta(params)? / eps2)
}

/// The Lyapunov function of Theorem 4 for the endemic equilibrium:
///
/// ```text
/// V = (1/2⟨k⟩) Σ_i ϕ_i (S_i − S⁺_i)²/S⁺_i + Θ − Θ⁺ − Θ⁺ ln(Θ/Θ⁺)
/// ```
///
/// Non-negative with equality only at `E+`; decreasing along solutions
/// when `r0 > 1`.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParameter`] if the state's `Θ` is not
/// strictly positive (the logarithm is then undefined) and propagates
/// dimension mismatches.
pub fn lyapunov_vplus(
    params: &ModelParams,
    state: &NetworkState,
    eplus: &NetworkState,
) -> Result<f64> {
    let theta = state.theta(params)?;
    let theta_plus = eplus.theta(params)?;
    if !(theta > 0.0) || !(theta_plus > 0.0) {
        return Err(CoreError::InvalidParameter {
            name: "theta",
            message: format!(
                "lyapunov V+ needs strictly positive theta, got {theta} (target {theta_plus})"
            ),
        });
    }
    let mean_k = params.mean_degree();
    let mut quad = 0.0;
    for i in 0..params.n_classes() {
        let ds = state.s()[i] - eplus.s()[i];
        quad += params.phi()[i] * ds * ds / eplus.s()[i];
    }
    Ok(0.5 * quad / mean_k + theta - theta_plus - theta_plus * (theta / theta_plus).ln())
}

/// Samples a Lyapunov function along the sampled states of a trajectory
/// and reports the series together with whether it is non-increasing up
/// to `slack` (absolute tolerance for integration noise).
///
/// # Errors
///
/// Propagates evaluation failures from `v`.
pub fn lyapunov_descent_check(
    states: &[NetworkState],
    mut v: impl FnMut(&NetworkState) -> Result<f64>,
    slack: f64,
) -> Result<(Vec<f64>, bool)> {
    let mut series = Vec::with_capacity(states.len());
    for state in states {
        series.push(v(state)?);
    }
    let monotone = series.windows(2).all(|w| w[1] <= w[0] + slack);
    Ok((series, monotone))
}

/// Empirical global-stability check (Theorems 3–4): integrates the model
/// from each initial condition to `tf` and returns the final
/// infinity-norm distance to `target` for each run.
///
/// A globally asymptotically stable equilibrium drives all distances
/// towards zero regardless of the starting point.
///
/// # Errors
///
/// Propagates integration and state-conversion failures.
pub fn empirical_convergence(
    params: &ModelParams,
    eps1: f64,
    eps2: f64,
    initial: &[NetworkState],
    tf: f64,
    target: &NetworkState,
) -> Result<Vec<f64>> {
    let model = RumorModel::new(params, ConstantControl::new(eps1, eps2));
    let mut out = Vec::with_capacity(initial.len());
    for state in initial {
        let sol = Adaptive::new().integrate(&model, 0.0, &state.to_flat(), tf)?;
        let final_state = NetworkState::from_flat(sol.last_state())?;
        out.push(final_state.dist_inf(target)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equilibrium::{positive_equilibrium, zero_equilibrium};
    use crate::functions::{AcceptanceRate, Infectivity};
    use rumor_net::degree::DegreeClasses;
    use rumor_ode::integrator::AdaptiveConfig;

    fn params(alpha: f64, lambda0: f64) -> ModelParams {
        let classes = DegreeClasses::from_degrees(&[1, 1, 2, 2, 3, 6]).unwrap();
        ModelParams::builder(classes)
            .alpha(alpha)
            .acceptance(AcceptanceRate::LinearInDegree { lambda0 })
            .infectivity(Infectivity::paper_default())
            .build()
            .unwrap()
    }

    /// Integrates from the uniform initial condition `i0` under constant
    /// countermeasures and samples `n_out` uniform points on `[0, tf]`.
    fn sampled_states(
        p: &ModelParams,
        (eps1, eps2): (f64, f64),
        i0: f64,
        tf: f64,
        n_out: usize,
    ) -> Vec<NetworkState> {
        let model = RumorModel::new(p, ConstantControl::new(eps1, eps2));
        let init = NetworkState::initial_uniform(p.n_classes(), i0).unwrap();
        let sol = Adaptive::with_config(AdaptiveConfig {
            rtol: 1e-8,
            atol: 1e-10,
            ..AdaptiveConfig::default()
        })
        .integrate(&model, 0.0, &init.to_flat(), tf)
        .unwrap();
        (0..n_out)
            .map(|k| {
                let t = tf * k as f64 / (n_out - 1) as f64;
                NetworkState::from_flat(&sol.sample(t).unwrap()).unwrap()
            })
            .collect()
    }

    /// Oracle: the whole `2n × 2n` Jacobian of the reduced `(S, I)` system
    /// at an arbitrary state, in the layout [`local_stability_e0`]
    /// documents. Fails with [`CoreError::DimensionMismatch`] if `state`
    /// and `params` disagree on the class count.
    fn jacobian_reduced(
        params: &ModelParams,
        state: &NetworkState,
        eps1: f64,
        eps2: f64,
    ) -> Result<Matrix> {
        let n = params.n_classes();
        if state.n_classes() != n {
            return Err(CoreError::DimensionMismatch {
                expected: n,
                found: state.n_classes(),
            });
        }
        let theta = state.theta(params)?;
        let lambda = params.lambda();
        let ii = jacobian_ii_block(params, state, eps2);
        // With `ε2 = 0` the block is the coupling alone, which `∂Ṡ/∂I`
        // subtracts from `0.0`.
        let coupling = jacobian_ii_block(params, state, 0.0);
        let mut j = Matrix::zeros(2 * n, 2 * n);
        for i in 0..n {
            j[(i, i)] = -(lambda[i] * theta + eps1);
            j[(n + i, i)] = lambda[i] * theta;
            for col in 0..n {
                j[(i, n + col)] -= coupling[(i, col)];
                j[(n + i, n + col)] = ii[(i, col)];
            }
        }
        Ok(j)
    }

    #[test]
    fn jacobian_shape_and_signs() {
        let p = params(0.01, 0.1);
        let e0 = zero_equilibrium(&p, 0.2, 0.05).unwrap();
        let j = jacobian_reduced(&p, &e0, 0.2, 0.05).unwrap();
        let n = p.n_classes();
        assert_eq!(j.rows(), 2 * n);
        // At E0, Θ = 0: S-block diagonal is exactly −ε1.
        for i in 0..n {
            assert!((j[(i, i)] + 0.2).abs() < 1e-12);
            assert_eq!(j[(n + i, i)], 0.0);
        }
        // S-I coupling is negative (more infected → fewer susceptible).
        assert!(j[(0, n)] < 0.0);
    }

    #[test]
    fn jacobian_dimension_check() {
        let p = params(0.01, 0.1);
        let st = NetworkState::initial_uniform(2, 0.1).unwrap();
        assert!(jacobian_reduced(&p, &st, 0.1, 0.1).is_err());
    }

    #[test]
    fn subcritical_e0_is_stable() {
        let p = params(0.01, 0.001);
        let (threshold, verdict, consistent) = theorem2_consistency(&p, 0.2, 0.05).unwrap();
        assert!(threshold < 1.0);
        assert!(verdict.is_stable());
        assert!(consistent);
    }

    #[test]
    fn supercritical_e0_is_unstable() {
        let p = params(0.01, 0.5);
        let (threshold, verdict, consistent) = theorem2_consistency(&p, 0.05, 0.02).unwrap();
        assert!(threshold > 1.0);
        assert!(matches!(verdict, Stability::Unstable { .. }));
        assert!(consistent);
    }

    #[test]
    fn near_critical_abscissa_tracks_r0_minus_one() {
        // Calibrate to r0 = 1: the largest eigenvalue should be ≈ Γ − ε2 = 0.
        let p = params(0.01, 0.1);
        let (cal, _) = crate::equilibrium::calibrate_acceptance(&p, 1.0, 0.2, 0.05).unwrap();
        let verdict = local_stability_e0(&cal, 0.2, 0.05).unwrap();
        match verdict {
            Stability::Marginal { abscissa } => assert!(abscissa.abs() < 1e-9),
            other => panic!("expected marginal verdict, got {other:?}"),
        }
        // The I–I block solve lands on the whole Jacobian's bits.
        let e0 = zero_equilibrium(&cal, 0.2, 0.05).unwrap();
        let whole = spectral_abscissa(jacobian_reduced(&cal, &e0, 0.2, 0.05).unwrap()).unwrap();
        assert_eq!(abscissa(verdict).to_bits(), whole.to_bits());
    }

    #[test]
    fn eigenvalue_matches_papers_closed_form() {
        // Paper: eigenvalues of J(E0) are −ε1, −ε2 and Γ − ε2 with
        // Γ = (α/ε1)(1/⟨k⟩) Σ λ_i ϕ_i. Verify the abscissa equals
        // max(−ε1, Γ − ε2).
        let p = params(0.01, 0.3);
        let (eps1, eps2) = (0.1, 0.05);
        let gamma = p.alpha() / eps1 * p.lambda_phi_sum() / p.mean_degree();
        let expect = (gamma - eps2).max(-eps1);
        let e0 = zero_equilibrium(&p, eps1, eps2).unwrap();
        let jac = jacobian_reduced(&p, &e0, eps1, eps2).unwrap();
        let abscissa = spectral_abscissa(jac).unwrap();
        assert!(
            (abscissa - expect).abs() < 1e-9,
            "abscissa {abscissa} vs closed form {expect}"
        );
    }

    #[test]
    fn theorem2_tuple_is_pinned_bit_for_bit_on_a_digg_net() {
        // Bits recorded with the textbook column-by-column Hessenberg
        // reduction; the row-walking rewrite must not move a rounding.
        use rumor_datasets::digg::{DiggConfig, DiggDataset};
        let ds = DiggDataset::synthesize(DiggConfig {
            nodes: 2_000,
            k_max: 100,
            target_mean_degree: 12.0,
            ..DiggConfig::small()
        })
        .unwrap();
        assert_eq!(ds.classes().len(), 97);
        let pins: [(f64, u64, u64, bool); 2] = [
            (0.02, 0x3f90_f50e_df40_e955, 0xbfa9_2d12_d404_c6f8, true),
            (2.0, 0x3ffa_7ee7_3cd5_6c8f, 0x3fa0_cb0b_9488_ad8c, false),
        ];
        for (lambda0, r0_bits, abscissa_bits, stable) in pins {
            let p = ModelParams::builder(ds.classes().clone())
                .alpha(0.01)
                .acceptance(AcceptanceRate::LinearInDegree { lambda0 })
                .infectivity(Infectivity::paper_default())
                .build()
                .unwrap();
            let (threshold, verdict, consistent) = theorem2_consistency(&p, 0.2, 0.05).unwrap();
            assert_eq!(threshold.to_bits(), r0_bits, "r0 at lambda0 {lambda0}");
            // Nonzero finite abscissas compare equal only bit for bit.
            let abscissa = f64::from_bits(abscissa_bits);
            let want = if stable {
                Stability::LocallyStable { abscissa }
            } else {
                Stability::Unstable { abscissa }
            };
            assert_eq!(verdict, want, "verdict at lambda0 {lambda0}");
            assert!(consistent);
        }
    }

    fn abscissa(verdict: Stability) -> f64 {
        match verdict {
            Stability::LocallyStable { abscissa }
            | Stability::Unstable { abscissa }
            | Stability::Marginal { abscissa } => abscissa,
        }
    }

    fn params_on(classes: &DegreeClasses, lambda0: f64) -> ModelParams {
        ModelParams::builder(classes.clone())
            .alpha(0.01)
            .acceptance(AcceptanceRate::LinearInDegree { lambda0 })
            .infectivity(Infectivity::paper_default())
            .build()
            .unwrap()
    }

    /// The I–I block solve must return the whole Jacobian's abscissa bit
    /// for bit, on either side of the threshold.
    fn assert_block_solve_is_exact(
        classes: &DegreeClasses,
        (eps1, eps2): (f64, f64),
        lambda0s: &[f64],
    ) {
        let (mut below, mut above) = (false, false);
        for &lambda0 in lambda0s {
            let p = params_on(classes, lambda0);
            let threshold = crate::equilibrium::r0(&p, eps1, eps2).unwrap();
            below |= threshold < 1.0;
            above |= threshold > 1.0;
            let e0 = zero_equilibrium(&p, eps1, eps2).unwrap();
            let whole = spectral_abscissa(jacobian_reduced(&p, &e0, eps1, eps2).unwrap()).unwrap();
            let block = abscissa(local_stability_e0(&p, eps1, eps2).unwrap());
            assert_eq!(
                block.to_bits(),
                whole.to_bits(),
                "{} classes, eps ({eps1}, {eps2}), lambda0 {lambda0}: block {block:e}, whole {whole:e}",
                classes.len()
            );
        }
        assert!(below && above, "the lambda0 values must straddle r0 = 1");
    }

    #[test]
    fn block_solve_matches_the_whole_jacobian_on_the_pin_net() {
        use rumor_datasets::digg::{DiggConfig, DiggDataset};
        let ds = DiggDataset::synthesize(DiggConfig {
            nodes: 2_000,
            k_max: 100,
            target_mean_degree: 12.0,
            ..DiggConfig::small()
        })
        .unwrap();
        assert_eq!(ds.classes().len(), 97);
        assert_block_solve_is_exact(ds.classes(), (0.2, 0.05), &[0.02, 0.3, 2.0]);
    }

    #[test]
    fn block_solve_matches_the_whole_jacobian_on_the_paper_net() {
        use rumor_datasets::digg::{DiggConfig, DiggDataset};
        let ds = DiggDataset::synthesize(DiggConfig::small()).unwrap();
        assert_eq!(ds.classes().len(), 264);
        assert_block_solve_is_exact(ds.classes(), (0.2, 0.05), &[0.01, 1.1, 1.2, 5.0]);
    }

    #[test]
    fn block_solve_matches_the_whole_jacobian_on_tiny_nets() {
        // 1 to 16 classes: with a small `n` in the deflation floor
        // `n·ε·‖H‖`, a rounding-noise entry on `D`'s reduced subdiagonal
        // is likeliest to fall between `D`'s floor and the whole
        // matrix's (twice the order, a larger norm). One class reaches
        // the QR phase unreduced. Degree `k` is held by `1 + 16/k²`
        // nodes, a heavy-tailed histogram.
        for m in 1..=16 {
            let degrees: Vec<usize> = (1..=m)
                .flat_map(|k| std::iter::repeat_n(k, 1 + 16 / (k * k)))
                .collect();
            let classes = DegreeClasses::from_degrees(&degrees).unwrap();
            assert_eq!(classes.len(), m);
            for (eps1, eps2) in [(0.2, 0.05), (0.05, 0.3)] {
                // `r0` is linear in `λ0`: bracket the critical value.
                let r0_at_one = crate::equilibrium::r0(&params_on(&classes, 1.0), eps1, eps2);
                let critical = 1.0 / r0_at_one.unwrap();
                let lambda0s = [0.1, 0.99, 1.01, 10.0].map(|f| f * critical);
                assert_block_solve_is_exact(&classes, (eps1, eps2), &lambda0s);
            }
        }
    }

    #[test]
    fn empirical_convergence_to_e0_subcritical() {
        let p = params(0.01, 0.001);
        let e0 = zero_equilibrium(&p, 0.2, 0.05).unwrap();
        let initials: Vec<NetworkState> = [0.05, 0.3, 0.9]
            .iter()
            .map(|&i0| NetworkState::initial_uniform(p.n_classes(), i0).unwrap())
            .collect();
        let dists = empirical_convergence(&p, 0.2, 0.05, &initials, 400.0, &e0).unwrap();
        for d in dists {
            assert!(d < 1e-3, "distance {d} did not vanish");
        }
    }

    #[test]
    fn empirical_convergence_to_eplus_supercritical() {
        let p = params(0.01, 0.5);
        let (eps1, eps2) = (0.05, 0.02);
        let ep = positive_equilibrium(&p, eps1, eps2).unwrap();
        let initials: Vec<NetworkState> = [0.01, 0.2, 0.7]
            .iter()
            .map(|&i0| NetworkState::initial_uniform(p.n_classes(), i0).unwrap())
            .collect();
        let dists = empirical_convergence(&p, eps1, eps2, &initials, 3000.0, &ep).unwrap();
        for d in dists {
            assert!(d < 1e-3, "distance {d} did not vanish");
        }
    }

    #[test]
    fn theorem3_lyapunov_descends_subcritically() {
        let p = params(0.01, 0.001);
        let (eps1, eps2) = (0.2, 0.05);
        assert!(crate::equilibrium::r0(&p, eps1, eps2).unwrap() < 1.0);
        let states = sampled_states(&p, (eps1, eps2), 0.3, 100.0, 201);
        let (series, monotone) =
            lyapunov_descent_check(&states, |st| lyapunov_v0(&p, st, eps2), 1e-9).unwrap();
        assert!(monotone, "V0 must be non-increasing below threshold");
        assert!(series[0] > *series.last().unwrap());
        assert!(*series.last().unwrap() >= 0.0);
    }

    #[test]
    fn theorem4_lyapunov_descends_supercritically() {
        let p = params(0.01, 0.5);
        let (eps1, eps2) = (0.05, 0.02);
        assert!(crate::equilibrium::r0(&p, eps1, eps2).unwrap() > 1.0);
        let eplus = positive_equilibrium(&p, eps1, eps2).unwrap();
        let states = sampled_states(&p, (eps1, eps2), 0.05, 500.0, 101);
        let (series, monotone) =
            lyapunov_descent_check(&states, |st| lyapunov_vplus(&p, st, &eplus), 1e-7).unwrap();
        assert!(monotone, "V+ must be non-increasing above threshold");
        // V+ is non-negative and vanishes at E+.
        assert!(series.iter().all(|&v| v >= -1e-12));
        assert!(*series.last().unwrap() < series[0] * 1e-2);
    }

    #[test]
    fn lyapunov_vplus_is_zero_at_equilibrium() {
        let p = params(0.01, 0.5);
        let (eps1, eps2) = (0.05, 0.02);
        let eplus = positive_equilibrium(&p, eps1, eps2).unwrap();
        let v = lyapunov_vplus(&p, &eplus, &eplus).unwrap();
        assert!(v.abs() < 1e-12, "V+(E+) = {v}");
    }

    #[test]
    fn lyapunov_validation() {
        let p = params(0.01, 0.1);
        let st = NetworkState::initial_uniform(p.n_classes(), 0.1).unwrap();
        assert!(lyapunov_v0(&p, &st, 0.0).is_err());
        // Zero infection makes V+ undefined (ln 0).
        let zero = NetworkState::initial_from_infected(vec![0.0; p.n_classes()]).unwrap();
        let fake_plus = NetworkState::initial_uniform(p.n_classes(), 0.2).unwrap();
        assert!(lyapunov_vplus(&p, &zero, &fake_plus).is_err());
    }

    #[test]
    fn stability_enum_helpers() {
        assert!(Stability::from_abscissa(-0.5).is_stable());
        assert!(!Stability::from_abscissa(0.5).is_stable());
        assert!(matches!(
            Stability::from_abscissa(0.0),
            Stability::Marginal { .. }
        ));
    }
}
