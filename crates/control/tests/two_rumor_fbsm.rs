//! Multi-control FBSM on the competing two-rumor model: convergence on
//! the small tier and the RCP2 warm-start round trip — the end-to-end
//! contract the durable-jobs layer relies on for campaign resume.

use rumor_control::checkpoint::{decode_multi_schedule, encode_multi_schedule};
use rumor_control::multi::{
    evaluate_compartments, optimize_compartments_monitored, MultiControlBounds, MultiFbsmOptions,
    MultiPiecewiseControl,
};
use rumor_core::functions::{AcceptanceRate, Infectivity};
use rumor_core::params::ModelParams;
use rumor_models::two_rumor::TwoRumorModel;
use rumor_net::degree::DegreeClasses;
use rumor_ode::integrator::AdaptiveConfig;

fn small_params() -> ModelParams {
    // Small-tier degree profile: a handful of classes with a hub.
    let degrees: Vec<usize> = (0..24).map(|i| 1 + i % 12).collect();
    let classes = DegreeClasses::from_degrees(&degrees).unwrap();
    ModelParams::builder(classes)
        .alpha(0.002)
        .acceptance(AcceptanceRate::LinearInDegree { lambda0: 0.02 })
        .infectivity(Infectivity::paper_default())
        .build()
        .unwrap()
}

fn small_model() -> TwoRumorModel {
    TwoRumorModel::from_params(&small_params(), 0.03, 0.05, 0.08, 0.5, 5.0, 10.0).unwrap()
}

fn initial_state(n: usize) -> Vec<f64> {
    let mut y = vec![0.0; 4 * n];
    for j in 0..n {
        y[j] = 0.88;
        y[n + j] = 0.1;
        y[2 * n + j] = 0.02;
    }
    y
}

fn small_options() -> MultiFbsmOptions {
    MultiFbsmOptions {
        n_nodes: 51,
        max_iterations: 150,
        tolerance: 1e-4,
        relaxation: 0.4,
        ode: AdaptiveConfig {
            rtol: 1e-6,
            atol: 1e-8,
            ..Default::default()
        },
        ..Default::default()
    }
}

#[test]
fn multi_control_sweep_converges_on_the_small_tier() {
    let m = small_model();
    let n = small_params().n_classes();
    // A 0.2 box keeps the stationary map contractive on this problem;
    // wider boxes put grid nodes on the clamp boundary, where the
    // Picard iteration cycles instead of contracting.
    let bounds = MultiControlBounds::new(vec![0.2, 0.2]).unwrap();
    let result =
        optimize_compartments_monitored(&m, &initial_state(n), 40.0, &bounds, &small_options())
            .unwrap();
    assert!(
        result.converged,
        "two-rumor sweep did not converge in {} iterations (residual {:.3e})",
        result.iterations,
        result.change_history.last().copied().unwrap_or(f64::NAN)
    );
    let residual = result.change_history.last().copied().unwrap();
    assert!(residual <= 1e-4, "residual {residual:.3e} above tolerance");
    assert!(result.cost.total().is_finite());
    // Both channels live inside the box and actually act.
    for c in 0..2 {
        assert!(result
            .control
            .values(c)
            .iter()
            .all(|&v| (0.0..=0.2).contains(&v)));
        assert!(
            result.control.values(c).iter().any(|&v| v > 1e-6),
            "channel {c} never activates"
        );
    }
    // The optimized schedule beats doing nothing.
    let idle = MultiPiecewiseControl::constant(40.0, 51, &[0.0, 0.0]).unwrap();
    let grid: Vec<f64> = (0..51).map(|i| 40.0 * i as f64 / 50.0).collect();
    let idle_traj = rumor_compartments::simulate::simulate_compartments_grid(
        &m,
        &idle,
        &initial_state(n),
        &grid,
        &rumor_compartments::simulate::CompartmentSimOptions {
            n_out: grid.len(),
            ode: small_options().ode,
        },
    )
    .unwrap();
    let idle_cost = evaluate_compartments(&m, &idle_traj, &idle).unwrap();
    assert!(result.cost.total() < idle_cost.total());
}

#[test]
fn rcp2_warm_start_round_trips_byte_identically() {
    // The SIGKILL-resume contract: persist the optimized schedule as
    // RCP2 bytes, decode in a "restarted process", warm-start a new
    // sweep — the warm sweep must accept the schedule unchanged, and
    // re-encoding the decoded schedule must reproduce the bytes exactly.
    let m = small_model();
    let n = small_params().n_classes();
    let bounds = MultiControlBounds::new(vec![0.2, 0.2]).unwrap();
    let opts = MultiFbsmOptions {
        max_iterations: 25,
        ..small_options()
    };
    let first =
        optimize_compartments_monitored(&m, &initial_state(n), 40.0, &bounds, &opts).unwrap();

    let bytes = encode_multi_schedule(&first.control);
    let restored = decode_multi_schedule(&bytes).unwrap();
    assert_eq!(restored, first.control);
    assert_eq!(encode_multi_schedule(&restored), bytes);

    // The resumed sweep continues from the checkpoint: its first iterate
    // starts at the restored schedule, so it converges at least as fast
    // as the cold start would from here.
    let warm_opts = MultiFbsmOptions {
        initial_control: Some(restored),
        max_iterations: 150,
        ..small_options()
    };
    let resumed =
        optimize_compartments_monitored(&m, &initial_state(n), 40.0, &bounds, &warm_opts).unwrap();
    assert!(resumed.converged, "resumed sweep did not converge");
    // Warm-started resume spends fewer iterations than a full cold sweep.
    let cold =
        optimize_compartments_monitored(&m, &initial_state(n), 40.0, &bounds, &small_options())
            .unwrap();
    assert!(
        resumed.iterations <= cold.iterations,
        "warm resume took {} iterations, cold start {}",
        resumed.iterations,
        cold.iterations
    );
}
