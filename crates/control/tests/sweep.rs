//! The forward–backward sweep and its building blocks: schedules,
//! bounds, options, cost evaluation, warm starts, backtracking, guarded
//! passes and the deadline-constrained variant, on the paper model.

use rumor_compartments::paper::PaperSir;
use rumor_compartments::schedule::{ConstantMultiControl, MultiControlSchedule};
use rumor_compartments::simulate::{simulate_compartments, CompartmentSimOptions};
use rumor_control::multi::{
    evaluate_compartments, optimize_compartments, optimize_compartments_monitored,
    optimize_to_target, MultiControlBounds, MultiCostBreakdown, MultiFbsmOptions,
    MultiPiecewiseControl, MultiSweepResult,
};
use rumor_control::ControlError;
use rumor_core::functions::{AcceptanceRate, Infectivity};
use rumor_core::params::ModelParams;
use rumor_core::state::NetworkState;
use rumor_net::degree::DegreeClasses;
use rumor_ode::integrator::AdaptiveConfig;
use rumor_ode::recovery::RecoveryPolicy;

fn params(lambda0: f64) -> ModelParams {
    let classes = DegreeClasses::from_degrees(&[1, 1, 2, 2, 3, 6]).unwrap();
    ModelParams::builder(classes)
        .alpha(0.002)
        .acceptance(AcceptanceRate::LinearInDegree { lambda0 })
        .infectivity(Infectivity::paper_default())
        .build()
        .unwrap()
}

fn model() -> PaperSir {
    PaperSir::from_params(&params(0.02), 5.0, 10.0).unwrap()
}

fn y0(i0: f64) -> Vec<f64> {
    NetworkState::initial_uniform(params(0.02).n_classes(), i0)
        .unwrap()
        .to_flat()
}

fn quick_options() -> MultiFbsmOptions {
    MultiFbsmOptions {
        n_nodes: 51,
        max_iterations: 80,
        tolerance: 1e-4,
        relaxation: 0.5,
        ode: AdaptiveConfig {
            rtol: 1e-6,
            atol: 1e-8,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn box_of(bound: f64) -> MultiControlBounds {
    MultiControlBounds::new(vec![bound, bound]).unwrap()
}

fn in_box(result: &MultiSweepResult, bounds: &[f64]) -> bool {
    bounds.iter().enumerate().all(|(c, &b)| {
        result
            .control
            .values(c)
            .iter()
            .all(|&v| (0.0..=b).contains(&v))
    })
}

/// Cost of a constant schedule simulated at the default tolerances.
fn constant_cost(m: &PaperSir, y: &[f64], tf: f64, levels: &[f64]) -> MultiCostBreakdown {
    let traj = simulate_compartments(
        m,
        ConstantMultiControl::new(levels.to_vec()),
        y,
        tf,
        &CompartmentSimOptions {
            n_out: 51,
            ..Default::default()
        },
    )
    .unwrap();
    let control = MultiPiecewiseControl::constant(tf, 2, levels).unwrap();
    evaluate_compartments(m, &traj, &control).unwrap()
}

#[test]
fn constant_schedule_everywhere() {
    let pc = MultiPiecewiseControl::constant(10.0, 11, &[0.3, 0.1]).unwrap();
    let mut u = [0.0; 2];
    for t in [0.0, 3.7, 10.0, 99.0, -5.0] {
        pc.eval_into(t, &mut u);
        assert_eq!(u, [0.3, 0.1]);
    }
    assert_eq!(pc.grid().len(), 11);
    assert_eq!(pc.n_controls(), 2);
}

#[test]
fn schedule_interpolates_linearly() {
    let pc =
        MultiPiecewiseControl::from_values(vec![0.0, 2.0], vec![vec![0.0, 1.0], vec![1.0, 0.0]])
            .unwrap();
    assert!((pc.eval(0, 1.0) - 0.5).abs() < 1e-12);
    assert!((pc.eval(1, 1.0) - 0.5).abs() < 1e-12);
}

#[test]
fn schedule_validation() {
    assert!(MultiPiecewiseControl::from_values(vec![0.0, 1.0], vec![]).is_err());
    assert!(MultiPiecewiseControl::from_values(vec![0.0, 1.0], vec![vec![0.1, -0.2]]).is_err());
    assert!(MultiPiecewiseControl::from_values(vec![0.0, 1.0], vec![vec![f64::NAN, 0.0]]).is_err());
    assert!(MultiPiecewiseControl::from_values(vec![0.0], vec![vec![0.1]]).is_err());
    assert!(MultiPiecewiseControl::constant(0.0, 5, &[0.1]).is_err());
    assert!(MultiPiecewiseControl::constant(1.0, 1, &[0.1]).is_err());
    let mut c = MultiPiecewiseControl::constant(1.0, 3, &[0.5, 0.5]).unwrap();
    assert!(c.set_values(vec![vec![0.1; 3]]).is_err());
    assert!(c.set_values(vec![vec![0.1; 2], vec![0.1; 2]]).is_err());
    c.set_values(vec![vec![0.9, 0.5, 0.1], vec![0.2, 0.3, 0.4]])
        .unwrap();
    c.clamp_to(&[0.6, 0.25]);
    assert_eq!(c.values(0), &[0.6, 0.5, 0.1]);
    assert_eq!(c.values(1), &[0.2, 0.25, 0.25]);
}

#[test]
fn bounds_validation_and_pair_conversion() {
    assert!(MultiControlBounds::new(vec![]).is_err());
    assert!(MultiControlBounds::new(vec![0.5, 0.0]).is_err());
    assert!(MultiControlBounds::new(vec![f64::NAN]).is_err());
    let b = MultiControlBounds::new(vec![0.5, 0.6]).unwrap();
    assert_eq!(b.n_channels(), 2);
    let pair = rumor_control::ControlBounds::new(0.5, 0.6).unwrap();
    assert_eq!(MultiControlBounds::from(pair), b);
}

#[test]
fn options_validation() {
    assert!(MultiFbsmOptions::default().validate().is_ok());
    for bad in [
        MultiFbsmOptions {
            n_nodes: 1,
            ..Default::default()
        },
        MultiFbsmOptions {
            max_iterations: 0,
            ..Default::default()
        },
        MultiFbsmOptions {
            tolerance: 0.0,
            ..Default::default()
        },
        MultiFbsmOptions {
            relaxation: 1.5,
            ..Default::default()
        },
        MultiFbsmOptions {
            relaxation: 0.0,
            ..Default::default()
        },
        MultiFbsmOptions {
            relaxation_floor: 0.9,
            relaxation: 0.4,
            ..Default::default()
        },
        MultiFbsmOptions {
            terminal_weight: -1.0,
            ..Default::default()
        },
        MultiFbsmOptions {
            guard_ode: Some(RecoveryPolicy {
                max_fallbacks: 0,
                ..Default::default()
            }),
            ..Default::default()
        },
    ] {
        assert!(bad.validate().is_err(), "{bad:?}");
    }
}

#[test]
fn cost_breakdown_totals() {
    let b = MultiCostBreakdown {
        terminal: 0.5,
        channel_costs: vec![1.0, 2.0],
    };
    assert_eq!(b.running(), 3.0);
    assert_eq!(b.total(), 3.5);
}

#[test]
fn zero_control_has_zero_running_cost() {
    let m = model();
    let cost = constant_cost(&m, &y0(0.1), 5.0, &[0.0, 0.0]);
    assert_eq!(cost.channel_costs, vec![0.0, 0.0]);
    assert!(cost.terminal > 0.0);
    assert_eq!(cost.total(), cost.terminal);
}

#[test]
fn running_cost_scales_quadratically_in_control() {
    // Over a short horizon the state barely moves, so doubling ε1
    // roughly quadruples the truth cost.
    let m = model();
    let a = constant_cost(&m, &y0(0.1), 0.1, &[0.1, 0.0]).channel_costs[0];
    let b = constant_cost(&m, &y0(0.1), 0.1, &[0.2, 0.0]).channel_costs[0];
    assert!((b / a - 4.0).abs() < 0.2, "ratio {}", b / a);
}

#[test]
fn weights_scale_channel_costs_linearly() {
    let p = params(0.02);
    let cheap = PaperSir::from_params(&p, 1.0, 1.0).unwrap();
    let dear = PaperSir::from_params(&p, 2.0, 1.0).unwrap();
    let a = constant_cost(&cheap, &y0(0.1), 1.0, &[0.1, 0.1]);
    let b = constant_cost(&dear, &y0(0.1), 1.0, &[0.1, 0.1]);
    assert!((b.channel_costs[0] - 2.0 * a.channel_costs[0]).abs() < 1e-12);
    assert!((b.channel_costs[1] - a.channel_costs[1]).abs() < 1e-12);
}

#[test]
fn stronger_control_lowers_terminal_infection_but_costs_more() {
    let m = PaperSir::from_params(&params(0.05), 5.0, 10.0).unwrap();
    let weak = constant_cost(&m, &y0(0.1), 30.0, &[0.02, 0.02]);
    let strong = constant_cost(&m, &y0(0.1), 30.0, &[0.3, 0.3]);
    assert!(strong.terminal < weak.terminal);
    assert!(strong.running() > weak.running());
}

#[test]
fn sweep_converges_inside_the_box() {
    let result =
        optimize_compartments(&model(), &y0(0.1), 20.0, &box_of(0.6), &quick_options()).unwrap();
    assert!(result.converged, "sweep did not converge");
    assert!(result.iterations > 1);
    assert!(result.cost.total().is_finite());
    assert!(in_box(&result, &[0.6, 0.6]));
}

#[test]
fn optimized_beats_constant_midbox_control_and_no_control() {
    let m = model();
    let tf = 20.0;
    let result = optimize_compartments(&m, &y0(0.1), tf, &box_of(0.6), &quick_options()).unwrap();
    // The initial guess held for the whole run, and no control at all.
    let midbox = constant_cost(&m, &y0(0.1), tf, &[0.3, 0.3]);
    let idle = constant_cost(&m, &y0(0.1), tf, &[0.0, 0.0]);
    assert!(
        result.cost.total() < midbox.total(),
        "optimized {} must beat constant {}",
        result.cost.total(),
        midbox.total()
    );
    assert!(result.cost.total() < idle.total());
    assert!(result.cost.terminal < idle.terminal);
}

#[test]
fn cost_history_trends_downward() {
    let result =
        optimize_compartments(&model(), &y0(0.1), 15.0, &box_of(0.6), &quick_options()).unwrap();
    let hist = &result.cost_history;
    assert!(hist.len() >= 2);
    // Not necessarily monotone step by step, but the final cost must
    // not exceed the first iterate's.
    assert!(*hist.last().unwrap() <= hist[0], "history {hist:?}");
}

#[test]
fn rejects_bad_configs_and_mismatched_shapes() {
    let m = model();
    let opts = quick_options();
    assert!(optimize_compartments(&m, &y0(0.1), 0.0, &box_of(0.5), &opts).is_err());
    assert!(optimize_compartments(&m, &y0(0.1), -1.0, &box_of(0.5), &opts).is_err());
    let one_node = MultiFbsmOptions {
        n_nodes: 1,
        ..quick_options()
    };
    assert!(optimize_compartments(&m, &y0(0.1), 1.0, &box_of(0.5), &one_node).is_err());
    let bounds3 = MultiControlBounds::new(vec![0.5, 0.5, 0.5]).unwrap();
    assert!(optimize_compartments_monitored(&m, &y0(0.1), 20.0, &bounds3, &opts).is_err());
    assert!(optimize_compartments_monitored(&m, &[0.1; 4], 20.0, &box_of(0.5), &opts).is_err());
    let wrong_warm = MultiFbsmOptions {
        initial_control: Some(MultiPiecewiseControl::constant(10.0, 5, &[0.1]).unwrap()),
        ..quick_options()
    };
    assert!(
        optimize_compartments_monitored(&m, &y0(0.1), 20.0, &box_of(0.5), &wrong_warm).is_err()
    );
}

#[test]
fn warm_start_cuts_iterations_in_a_parameter_sweep() {
    // The sweep scenario the jobs layer runs: solve at one lambda0,
    // then re-solve at a neighboring lambda0 seeded with the first
    // optimum. The warm start must converge in strictly fewer
    // iterations than a cold start, on the same optimum.
    let opts = quick_options();
    let first = optimize_compartments(&model(), &y0(0.1), 20.0, &box_of(0.6), &opts).unwrap();
    let neighbor = PaperSir::from_params(&params(0.022), 5.0, 10.0).unwrap();
    let cold = optimize_compartments(&neighbor, &y0(0.1), 20.0, &box_of(0.6), &opts).unwrap();
    let warm_opts = MultiFbsmOptions {
        initial_control: Some(first.control.clone()),
        ..opts
    };
    let warm = optimize_compartments(&neighbor, &y0(0.1), 20.0, &box_of(0.6), &warm_opts).unwrap();
    assert!(warm.converged);
    assert!(
        warm.iterations < cold.iterations,
        "warm {} vs cold {} iterations",
        warm.iterations,
        cold.iterations
    );
    assert!(
        (warm.cost.total() - cold.cost.total()).abs() < 0.05 * cold.cost.total().abs(),
        "warm cost {} vs cold cost {}",
        warm.cost.total(),
        cold.cost.total()
    );
}

#[test]
fn warm_start_resamples_across_grids_and_horizons() {
    // A prior schedule on a coarser grid and shorter horizon is still
    // a legal seed: it resamples by interpolation, extends by
    // constant extrapolation, and clamps into the (tighter) box.
    let prior = MultiPiecewiseControl::from_values(
        vec![0.0, 5.0, 10.0],
        vec![vec![0.9, 0.5, 0.1], vec![0.4, 0.3, 0.2]],
    )
    .unwrap();
    let bounds = MultiControlBounds::new(vec![0.6, 0.25]).unwrap();
    let opts = MultiFbsmOptions {
        initial_control: Some(prior.clone()),
        ..quick_options()
    };
    let result = optimize_compartments(&model(), &y0(0.1), 20.0, &bounds, &opts).unwrap();
    assert!(in_box(&result, &[0.6, 0.25]));
    // A one-iteration sweep shows the clamped seed was the iterate.
    let one = MultiFbsmOptions {
        max_iterations: 1,
        tolerance: 1e-12,
        initial_control: Some(prior),
        ..quick_options()
    };
    let first = optimize_compartments_monitored(&model(), &y0(0.1), 20.0, &bounds, &one).unwrap();
    assert_eq!(first.iterations, 1);
    assert!(!first.converged);
}

#[test]
fn backtracking_converges_from_an_aggressive_first_step() {
    // A deliberately aggressive relaxation gives the backtracking
    // retry oscillations to damp: the sweep must still converge inside
    // the box, onto the optimum the default step finds.
    let aggressive = MultiFbsmOptions {
        relaxation: 0.9,
        ..quick_options()
    };
    let result =
        optimize_compartments(&model(), &y0(0.1), 20.0, &box_of(0.6), &aggressive).unwrap();
    assert!(result.converged, "backtracking sweep did not converge");
    assert!(result.final_relaxation >= aggressive.relaxation_floor);
    assert!(in_box(&result, &[0.6, 0.6]));
    let reference =
        optimize_compartments(&model(), &y0(0.1), 20.0, &box_of(0.6), &quick_options()).unwrap();
    assert!(
        (result.cost.total() - reference.cost.total()).abs() < 0.05 * reference.cost.total().abs(),
        "aggressive cost {} vs reference {}",
        result.cost.total(),
        reference.cost.total()
    );
}

#[test]
fn guarded_sweep_matches_the_plain_sweep_on_a_clean_problem() {
    // With nothing to rescue, the guarded passes take the same steps
    // as the plain ones.
    let plain =
        optimize_compartments(&model(), &y0(0.1), 20.0, &box_of(0.6), &quick_options()).unwrap();
    let guarded_opts = MultiFbsmOptions {
        guard_ode: Some(RecoveryPolicy::default()),
        ..quick_options()
    };
    let guarded =
        optimize_compartments(&model(), &y0(0.1), 20.0, &box_of(0.6), &guarded_opts).unwrap();
    assert_eq!(guarded.iterations, plain.iterations);
    assert!((guarded.cost.total() - plain.cost.total()).abs() < 1e-9);
}

fn target_options() -> MultiFbsmOptions {
    MultiFbsmOptions {
        n_nodes: 41,
        max_iterations: 120,
        tolerance: 1e-4,
        relaxation: 0.4,
        ..Default::default()
    }
}

fn target_model() -> PaperSir {
    PaperSir::from_params(&params(0.05), 5.0, 10.0).unwrap()
}

#[test]
fn target_is_met_by_escalating_terminal_weight() {
    let target = 0.01;
    let (result, weight) = optimize_to_target(
        &target_model(),
        &y0(0.2),
        40.0,
        &box_of(0.8),
        target,
        &target_options(),
    )
    .unwrap();
    assert!(
        result.cost.terminal <= target,
        "terminal {} vs target {target}",
        result.cost.terminal
    );
    assert!(weight >= 1.0);
}

#[test]
fn tighter_target_escalates_weight_and_suppresses_harder() {
    let m = target_model();
    let (loose, w_loose) =
        optimize_to_target(&m, &y0(0.2), 40.0, &box_of(0.8), 0.05, &target_options()).unwrap();
    // A target far below the unconstrained optimum's terminal level
    // forces the penalty weight up. The running cost need not grow —
    // blocking a nearly extinct rumor is almost free under the
    // quadratic ε²I² cost — but the suppression must be stronger.
    let tight_target = (loose.cost.terminal / 50.0).max(1e-8);
    let (tight, w_tight) = optimize_to_target(
        &m,
        &y0(0.2),
        40.0,
        &box_of(0.8),
        tight_target,
        &target_options(),
    )
    .unwrap();
    assert!(w_tight > w_loose, "weights {w_tight} vs {w_loose}");
    assert!(tight.cost.terminal <= tight_target);
    assert!(tight.cost.terminal < loose.cost.terminal);
}

#[test]
fn unreachable_target_reported() {
    // Tiny bounds over a very short horizon: extinction impossible.
    let r = optimize_to_target(
        &target_model(),
        &y0(0.5),
        1.0,
        &box_of(0.01),
        1e-9,
        &target_options(),
    );
    assert!(matches!(r, Err(ControlError::TargetUnreachable { .. })));
}

#[test]
fn invalid_target_rejected() {
    let r = optimize_to_target(
        &target_model(),
        &y0(0.1),
        10.0,
        &box_of(0.5),
        0.0,
        &target_options(),
    );
    assert!(matches!(r, Err(ControlError::InvalidConfig(_))));
}
