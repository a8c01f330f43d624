//! The adjoint gradient against finite differences of the objective.
//!
//! The sweep's control update is only as good as the costate it reads,
//! and a costate can be wrong while every sweep still "converges" (the
//! paper's own printed Eq. (16) is an example). This check is
//! independent of the sweep: for a fixed schedule `u` and direction
//! `δ`, the directional derivative of
//!
//! ```text
//! J(u) = Φ(y(tf)) + ∫₀^tf Σ_c L_c(y, u) dt
//! ```
//!
//! must equal the adjoint formula
//!
//! ```text
//! dJ/dh = ∫₀^tf Σ_c ( ∂L/∂u_c + Σ_b p_b ∂f_b/∂u_c ) δ_c dt
//! ```
//!
//! where `p` solves the model's own adjoint system backward from its
//! transversality condition. The left side is a central difference of
//! `J` over full simulations; the right side needs the model only
//! through `rhs`, `running_cost` and the adjoint. The u-partials are
//! taken by central differences of `rhs` and `running_cost` themselves,
//! which is exact up to rounding because both are polynomials of degree
//! at most two in `u`.

use rumor_compartments::model::{CompartmentAdjoint, CompartmentModel, CompartmentOde};
use rumor_compartments::paper::PaperSir;
use rumor_compartments::schedule::MultiControlSchedule;
use rumor_compartments::simulate::{simulate_compartments, CompartmentSimOptions};
use rumor_control::multi::{evaluate_compartments, MultiPiecewiseControl};
use rumor_core::functions::{AcceptanceRate, Infectivity};
use rumor_core::params::ModelParams;
use rumor_datasets::digg::{DiggConfig, DiggDataset};
use rumor_models::tie_strength::tie_strength_model;
use rumor_models::two_rumor::TwoRumorModel;
use rumor_numerics::quadrature::trapezoid_sampled;
use rumor_ode::integrator::{Adaptive, AdaptiveConfig};

const TF: f64 = 30.0;
const NODES: usize = 41;
const N_OUT: usize = 1_001;
/// Step of the central difference in `J`.
const H: f64 = 1e-2;
/// Step of the central differences in `u` (exact for polynomials).
const DU: f64 = 1e-3;

fn ode() -> AdaptiveConfig {
    AdaptiveConfig {
        rtol: 1e-12,
        atol: 1e-14,
        ..Default::default()
    }
}

/// A 38-class Digg-equivalent net (300 nodes, `k ≤ 50`, mean degree 8)
/// under `α = 0.01`, `λ(k) = 0.05k`.
fn params() -> ModelParams {
    let dataset = DiggDataset::synthesize(DiggConfig {
        nodes: 300,
        k_min: 1,
        k_max: 50,
        target_mean_degree: 8.0,
        seed: 104,
    })
    .unwrap();
    assert_eq!(dataset.classes().len(), 38);
    ModelParams::builder(dataset.classes().clone())
        .alpha(0.01)
        .acceptance(AcceptanceRate::LinearInDegree { lambda0: 0.05 })
        .infectivity(Infectivity::paper_default())
        .build()
        .unwrap()
}

/// Every class starts with 5% in compartment 1 (the rumor spreaders),
/// the rest susceptible.
fn initial<M: CompartmentModel>(model: &M) -> Vec<f64> {
    let n = model.n_classes();
    let mut y = vec![0.0; model.state_dim()];
    y[..n].fill(0.95);
    y[n..2 * n].fill(0.05);
    y
}

/// The schedule `u + h·δ` on the node grid, with
/// `u_c(t) = 0.3·(0.4 + 0.2·sin(3t/tf + c))` and
/// `δ_c(t) = 0.03·cos((c + 1)πt/tf)`.
fn schedule(n_controls: usize, h: f64) -> MultiPiecewiseControl {
    let grid: Vec<f64> = (0..NODES)
        .map(|i| TF * i as f64 / (NODES - 1) as f64)
        .collect();
    let channels = (0..n_controls)
        .map(|c| {
            let c = c as f64;
            grid.iter()
                .map(|&t| {
                    let u = 0.3 * (0.4 + 0.2 * (3.0 * t / TF + c).sin());
                    let delta = 0.03 * ((c + 1.0) * std::f64::consts::PI * t / TF).cos();
                    u + h * delta
                })
                .collect()
        })
        .collect();
    MultiPiecewiseControl::from_values(grid, channels).unwrap()
}

/// `J(u + h·δ)` from a full simulation.
fn objective<M: CompartmentModel>(model: &M, h: f64) -> f64 {
    let control = schedule(model.n_controls(), h);
    let traj = simulate_compartments(
        model,
        &control,
        &initial(model),
        TF,
        &CompartmentSimOptions {
            n_out: N_OUT,
            ode: ode(),
        },
    )
    .unwrap();
    evaluate_compartments(model, &traj, &control)
        .unwrap()
        .total()
}

/// The adjoint-side directional derivative of `J` along `δ`.
fn adjoint_derivative<M: CompartmentModel>(model: &M) -> f64 {
    let n_controls = model.n_controls();
    let dim = model.state_dim();
    let n_p = model.costate_dim();
    let control = schedule(n_controls, 0.0);
    let (plus, minus) = (schedule(n_controls, H), schedule(n_controls, -H));
    let forward = Adaptive::with_config(ode())
        .integrate(
            &CompartmentOde::new(model, &control),
            0.0,
            &initial(model),
            TF,
        )
        .unwrap();
    let adjoint = CompartmentAdjoint::new(model, &forward, &control);
    let backward = Adaptive::with_config(ode())
        .integrate(&adjoint, TF, &adjoint.weighted_terminal_condition(1.0), 0.0)
        .unwrap();

    let ts: Vec<f64> = (0..N_OUT)
        .map(|i| TF * i as f64 / (N_OUT - 1) as f64)
        .collect();
    let mut u = vec![0.0; n_controls];
    let (mut u_hi, mut u_lo) = (vec![0.0; n_controls], vec![0.0; n_controls]);
    let (mut f_hi, mut f_lo) = (vec![0.0; dim], vec![0.0; dim]);
    let (mut l_hi, mut l_lo) = (vec![0.0; n_controls], vec![0.0; n_controls]);
    let (mut up, mut down) = (vec![0.0; n_controls], vec![0.0; n_controls]);
    let integrand: Vec<f64> = ts
        .iter()
        .map(|&t| {
            let state = forward.sample(t).unwrap();
            let p = backward.sample(t).unwrap();
            control.eval_into(t, &mut u);
            plus.eval_into(t, &mut up);
            minus.eval_into(t, &mut down);
            (0..n_controls)
                .map(|c| {
                    u_hi.copy_from_slice(&u);
                    u_lo.copy_from_slice(&u);
                    u_hi[c] += DU;
                    u_lo[c] -= DU;
                    model.rhs(&state, &u_hi, None, &mut f_hi);
                    model.rhs(&state, &u_lo, None, &mut f_lo);
                    model.running_cost(&state, &u_hi, &mut l_hi);
                    model.running_cost(&state, &u_lo, &mut l_lo);
                    let dl: f64 = l_hi.iter().zip(&l_lo).map(|(a, b)| a - b).sum();
                    let pf: f64 = (0..n_p).map(|b| p[b] * (f_hi[b] - f_lo[b])).sum();
                    let delta = (up[c] - down[c]) / (2.0 * H);
                    (dl + pf) / (2.0 * DU) * delta
                })
                .sum()
        })
        .collect();
    trapezoid_sampled(&ts, &integrand).unwrap()
}

/// Relative disagreement between the finite-difference and adjoint
/// directional derivatives.
fn gradient_error<M: CompartmentModel>(model: &M) -> f64 {
    let fd = (objective(model, H) - objective(model, -H)) / (2.0 * H);
    let adj = adjoint_derivative(model);
    assert!(fd.abs() > 1e-6, "degenerate direction: dJ/dh = {fd}");
    (fd - adj).abs() / fd.abs()
}

const TOLERANCE: f64 = 5e-4;

#[test]
fn paper_model_adjoint_matches_finite_differences() {
    let model = PaperSir::from_params(&params(), 5.0, 10.0).unwrap();
    let err = gradient_error(&model);
    assert!(err <= TOLERANCE, "paper: relative error {err:.3e}");
}

#[test]
fn two_rumor_adjoint_matches_finite_differences() {
    let model = TwoRumorModel::from_params(&params(), 0.03, 0.05, 0.08, 0.5, 5.0, 10.0).unwrap();
    let err = gradient_error(&model);
    assert!(err <= TOLERANCE, "two_rumor: relative error {err:.3e}");
}

#[test]
fn tie_strength_adjoint_matches_finite_differences() {
    let model = tie_strength_model(&params(), 0.5, 5.0, 10.0).unwrap();
    let err = gradient_error(&model);
    assert!(err <= TOLERANCE, "tie_strength: relative error {err:.3e}");
}
