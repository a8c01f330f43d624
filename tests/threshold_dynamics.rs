//! Cross-crate integration tests: the critical-condition pipeline from
//! dataset synthesis through threshold analysis to simulated dynamics
//! (paper Theorems 1–5 on the Digg-like network).

use rumor_repro::core::equilibrium::{
    calibrate_acceptance, positive_equilibrium, r0, zero_equilibrium,
};
use rumor_repro::core::stability::{local_stability_e0, theorem2_consistency};
use rumor_repro::prelude::*;

/// Simulates the paper model from `i0` initially infected in every class
/// under constant countermeasures.
fn simulate_paper(
    params: &ModelParams,
    (eps1, eps2): (f64, f64),
    i0: f64,
    tf: f64,
    n_out: usize,
) -> CompartmentTrajectory {
    let model = PaperSir::from_params(params, 5.0, 10.0).expect("paper model");
    let initial = NetworkState::initial_uniform(params.n_classes(), i0).expect("initial state");
    simulate_compartments(
        &model,
        ConstantMultiControl::new(vec![eps1, eps2]),
        &initial.to_flat(),
        tf,
        &CompartmentSimOptions {
            n_out,
            ..Default::default()
        },
    )
    .expect("simulation")
}

/// A reduced Digg-like parameter bundle shared by the tests.
fn digg_params(alpha: f64) -> ModelParams {
    let dataset = DiggDataset::synthesize(DiggConfig {
        nodes: 1_500,
        k_max: 150,
        ..DiggConfig::small()
    })
    .expect("dataset synthesis");
    ModelParams::builder(dataset.classes().clone())
        .alpha(alpha)
        .acceptance(AcceptanceRate::LinearInDegree { lambda0: 1.0 })
        .infectivity(Infectivity::paper_default())
        .build()
        .expect("params")
}

#[test]
fn extinction_pipeline_matches_theorems() {
    // Calibrate to the paper's printed subcritical threshold.
    let base = digg_params(0.01);
    let (eps1, eps2) = (0.2, 0.05);
    let (params, _) = calibrate_acceptance(&base, 0.7220, eps1, eps2).unwrap();
    assert!((r0(&params, eps1, eps2).unwrap() - 0.7220).abs() < 1e-9);

    // Theorem 2: E0 locally stable; Theorem 5: rumor goes extinct.
    let (threshold, verdict, consistent) = theorem2_consistency(&params, eps1, eps2).unwrap();
    assert!(threshold < 1.0);
    assert!(verdict.is_stable());
    assert!(consistent);

    let e0 = zero_equilibrium(&params, eps1, eps2).unwrap();
    let traj = simulate_paper(&params, (eps1, eps2), 0.1, 600.0, 201);
    let dist = traj.dist_series(&e0.to_flat()).unwrap();
    assert!(dist[0] > 0.5);
    assert!(
        *dist.last().unwrap() < 1e-3,
        "Dist0 residual {}",
        dist.last().unwrap()
    );
    // Dist0 decays overall (tolerate tiny numeric wiggles).
    assert!(dist.last().unwrap() < &(dist[0] * 1e-3));
}

#[test]
fn persistence_pipeline_matches_theorems() {
    let base = digg_params(0.002);
    // Consistent persistence regime (DESIGN.md: the printed eps2 = 1e-4
    // puts E+ outside the simplex for any acceptance rate).
    let (eps1, eps2) = (0.002, 0.004);
    let (params, _) = calibrate_acceptance(&base, 2.1661, eps1, eps2).unwrap();
    assert!((r0(&params, eps1, eps2).unwrap() - 2.1661).abs() < 1e-9);

    // Theorem 2: E0 unstable above threshold.
    let verdict = local_stability_e0(&params, eps1, eps2).unwrap();
    assert!(!verdict.is_stable());

    // Theorem 1 case 2: E+ exists and is a genuine fixed point.
    let eplus = positive_equilibrium(&params, eps1, eps2).unwrap();
    assert!(eplus.i().iter().all(|&x| x > 0.0));

    let traj = simulate_paper(&params, (eps1, eps2), 0.1, 3000.0, 241);
    let dist = traj.dist_series(&eplus.to_flat()).unwrap();
    assert!(
        *dist.last().unwrap() < 5e-3,
        "Dist+ residual {}",
        dist.last().unwrap()
    );
    // Endemic: infection persists at the equilibrium level.
    let final_i = *traj.total_series(1).last().unwrap();
    assert!((final_i - eplus.total_infected()).abs() / eplus.total_infected() < 0.02);
}

#[test]
fn threshold_boundary_behaviour() {
    // Exactly at r0 = 1 the endemic equilibrium does not exist.
    let base = digg_params(0.01);
    let (eps1, eps2) = (0.1, 0.1);
    let (params, _) = calibrate_acceptance(&base, 1.0, eps1, eps2).unwrap();
    assert!(positive_equilibrium(&params, eps1, eps2).is_err());
    // Slightly above, it does.
    let (params, _) = calibrate_acceptance(&base, 1.01, eps1, eps2).unwrap();
    assert!(positive_equilibrium(&params, eps1, eps2).is_ok());
}

#[test]
fn stronger_countermeasures_reduce_r0_monotonically() {
    let params = digg_params(0.01);
    let mut prev = f64::INFINITY;
    for eps in [0.01, 0.02, 0.05, 0.1, 0.5] {
        let t = r0(&params, eps, eps).unwrap();
        assert!(t < prev, "r0 must fall as countermeasures strengthen");
        prev = t;
    }
}

#[test]
fn initial_condition_independence_of_extinction() {
    // Theorem 3 (global stability): any initial condition converges to E0.
    let base = digg_params(0.01);
    let (eps1, eps2) = (0.2, 0.05);
    let (params, _) = calibrate_acceptance(&base, 0.7220, eps1, eps2).unwrap();
    let e0 = zero_equilibrium(&params, eps1, eps2).unwrap();
    for i0 in [0.01, 0.25, 0.6, 0.95] {
        let traj = simulate_paper(&params, (eps1, eps2), i0, 600.0, 61);
        let d = traj.dist_series(&e0.to_flat()).unwrap();
        assert!(
            *d.last().unwrap() < 2e-3,
            "i0 = {i0}: residual {}",
            d.last().unwrap()
        );
    }
}
