//! Cross-crate integration tests of the optimized-countermeasure
//! pipeline (paper Section IV / Fig. 4): forward–backward sweep, cost
//! accounting, and the heuristic comparison.

use rumor_repro::control::heuristic;
use rumor_repro::prelude::*;
use std::sync::OnceLock;

fn fig4_setup() -> (ModelParams, NetworkState, ControlBounds, CostWeights) {
    let dataset = DiggDataset::synthesize(DiggConfig {
        nodes: 1_000,
        k_max: 120,
        target_mean_degree: 15.0,
        ..DiggConfig::small()
    })
    .expect("dataset");
    let params = ModelParams::builder(dataset.classes().clone())
        .alpha(0.01)
        .acceptance(AcceptanceRate::LinearInDegree { lambda0: 0.15 })
        .infectivity(Infectivity::paper_default())
        .build()
        .expect("params");
    let initial = NetworkState::initial_uniform(params.n_classes(), 0.05).unwrap();
    let bounds = ControlBounds::new(0.7, 0.7).unwrap();
    (params, initial, bounds, CostWeights::paper_default())
}

/// The horizons the tests below read, each solved once per test binary.
const HORIZONS: [f64; 3] = [30.0, 40.0, 60.0];

/// The sweep on the [`fig4_setup`] problem at horizon `tf` (one of
/// [`HORIZONS`]). It is deterministic, so every test that reads a horizon
/// shares one solve.
fn quick_sweep(tf: f64) -> &'static MultiSweepResult {
    static SWEEPS: [OnceLock<MultiSweepResult>; 3] =
        [OnceLock::new(), OnceLock::new(), OnceLock::new()];
    let slot = HORIZONS
        .iter()
        .position(|&h| h == tf)
        .expect("a memoized horizon");
    SWEEPS[slot].get_or_init(|| {
        let (params, initial, bounds, weights) = fig4_setup();
        optimize_compartments(
            &PaperSir::from_params(&params, weights.c1, weights.c2).unwrap(),
            &initial.to_flat(),
            tf,
            &MultiControlBounds::from(bounds),
            &MultiFbsmOptions {
                n_nodes: 61,
                max_iterations: 250,
                tolerance: 1e-4,
                relaxation: 0.3,
                ..Default::default()
            },
        )
        .expect("sweep")
    })
}

#[test]
fn fig4a_shape_truth_early_blocking_late() {
    let result = quick_sweep(60.0);
    let e1 = result.control.values(0);
    let e2 = result.control.values(1);
    let n = e1.len();
    // Mid-horizon: truth-spreading dominates.
    assert!(
        e1[n / 2] > e2[n / 2],
        "mid-horizon eps1 {} must exceed eps2 {}",
        e1[n / 2],
        e2[n / 2]
    );
    // Deadline: blocking dominates (transversality forces eps1(tf) -> 0).
    assert!(e2[n - 1] > e1[n - 1]);
    // Controls respect the box everywhere.
    assert!(e1
        .iter()
        .chain(e2)
        .all(|&v| (0.0..=0.7 + 1e-12).contains(&v)));
}

#[test]
fn fig4c_optimized_beats_heuristic_across_horizons() {
    let (params, initial, bounds, weights) = fig4_setup();
    for tf in [30.0, 60.0] {
        let opt = quick_sweep(tf);
        let target = opt.cost.terminal.max(1e-6);
        let heur = heuristic::tune(&params, &initial, tf, &bounds, &weights, target, 61)
            .expect("heuristic tune");
        assert!(
            opt.cost.running() < heur.cost.running(),
            "tf = {tf}: optimized {} must beat heuristic {}",
            opt.cost.running(),
            heur.cost.running()
        );
        // Equal effectiveness within tolerance.
        assert!(heur.cost.terminal <= target * 1.10 + 1e-9);
    }
}

#[test]
fn optimized_control_suppresses_infection() {
    let (params, initial, _, weights) = fig4_setup();
    let tf = 60.0;
    let result = quick_sweep(tf);
    let free = simulate_compartments(
        &PaperSir::from_params(&params, weights.c1, weights.c2).unwrap(),
        ConstantMultiControl::new(vec![0.0; 2]),
        &initial.to_flat(),
        tf,
        &CompartmentSimOptions::default(),
    )
    .unwrap();
    let controlled = result.cost.terminal;
    let uncontrolled = *free.total_series(1).last().unwrap();
    assert!(
        controlled < 0.2 * uncontrolled,
        "controlled {controlled} vs uncontrolled {uncontrolled}"
    );
}

#[test]
fn cost_accounting_is_consistent() {
    let (params, _, _, weights) = fig4_setup();
    let result = quick_sweep(30.0);
    // Re-evaluating the final schedule reproduces the reported cost.
    let model = PaperSir::from_params(&params, weights.c1, weights.c2).unwrap();
    let re = evaluate_compartments(&model, &result.trajectory, &result.control).unwrap();
    assert!((re.total() - result.cost.total()).abs() < 1e-9);
    assert!(re.channel_costs.iter().all(|&c| c >= 0.0));
    assert!(re.terminal >= 0.0);
    // The terminal objective is the trajectory's terminal infection.
    let infected: f64 = result.trajectory.total_series(1).last().copied().unwrap();
    assert_eq!(re.terminal, infected);
}

#[test]
fn sweep_improves_on_initial_guess() {
    let (params, initial, bounds, weights) = fig4_setup();
    let tf = 40.0;
    let result = quick_sweep(tf);
    // The initial guess is the constant mid-box schedule.
    let guess =
        MultiPiecewiseControl::constant(tf, 61, &[bounds.eps1_max / 2.0, bounds.eps2_max / 2.0])
            .unwrap();
    let model = PaperSir::from_params(&params, weights.c1, weights.c2).unwrap();
    let guess_traj = simulate_compartments(
        &model,
        &guess,
        &initial.to_flat(),
        tf,
        &CompartmentSimOptions {
            n_out: 61,
            ..Default::default()
        },
    )
    .unwrap();
    let guess_cost = evaluate_compartments(&model, &guess_traj, &guess).unwrap();
    assert!(
        result.cost.total() < guess_cost.total(),
        "optimized {} vs initial guess {}",
        result.cost.total(),
        guess_cost.total()
    );
}
