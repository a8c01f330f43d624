//! How many adaptive solves a sweep costs: the first forward pass, then
//! per iteration one backward pass and one forward pass that both prices
//! the new iterate and serves as the next iteration's forward pass —
//! `2·iterations + 1` — plus one more when the best-so-far checkpoint is
//! restored. A single test in its own binary, because the rollup tables
//! that count the solves are process-wide.

use rumor_compartments::paper::PaperSir;
use rumor_control::multi::{
    optimize_compartments_monitored, MultiControlBounds, MultiFbsmOptions, MultiSweepResult,
};
use rumor_core::functions::{AcceptanceRate, Infectivity};
use rumor_core::params::ModelParams;
use rumor_core::state::NetworkState;
use rumor_net::degree::DegreeClasses;
use rumor_ode::integrator::AdaptiveConfig;
use rumor_ode::recovery::RecoveryPolicy;

/// Runs one sweep on the paper model to `tf` in a `[0, bound]²` box and
/// returns it with the number of `ode.adaptive` and `ode.guarded` runs
/// it made.
fn counted_sweep(
    lambda0: f64,
    tf: f64,
    bound: f64,
    options: &MultiFbsmOptions,
) -> (MultiSweepResult, u64, u64) {
    let degrees: Vec<usize> = (0..24).map(|i| 1 + i % 12).collect();
    let params = ModelParams::builder(DegreeClasses::from_degrees(&degrees).unwrap())
        .alpha(0.002)
        .acceptance(AcceptanceRate::LinearInDegree { lambda0 })
        .infectivity(Infectivity::paper_default())
        .build()
        .unwrap();
    let model = PaperSir::from_params(&params, 5.0, 10.0).unwrap();
    let y0 = NetworkState::initial_uniform(params.n_classes(), 0.1)
        .unwrap()
        .to_flat();
    let bounds = MultiControlBounds::new(vec![bound, bound]).unwrap();
    let runs = |name: &str| {
        rumor_obs::snapshot()
            .span_stat(name)
            .map_or(0, |stat| stat.count)
    };
    let (adaptive, guarded) = (runs("ode.adaptive"), runs("ode.guarded"));
    let result = optimize_compartments_monitored(&model, &y0, tf, &bounds, options).unwrap();
    (
        result,
        runs("ode.adaptive") - adaptive,
        runs("ode.guarded") - guarded,
    )
}

#[test]
fn an_iteration_costs_two_solves() {
    rumor_obs::set_rollup(true);
    let options = MultiFbsmOptions {
        n_nodes: 21,
        max_iterations: 6,
        tolerance: 1e-4,
        relaxation: 0.9,
        ode: AdaptiveConfig {
            rtol: 1e-6,
            atol: 1e-8,
            ..AdaptiveConfig::default()
        },
        ..MultiFbsmOptions::default()
    };

    // Budget-capped, final iterate kept.
    let (r, adaptive, guarded) = counted_sweep(0.02, 20.0, 0.6, &options);
    assert_eq!(
        (r.iterations, r.converged, r.restored_checkpoint),
        (6, false, false)
    );
    assert_eq!((adaptive, guarded), (2 * 6 + 1, 0));

    // Converged.
    let converging = MultiFbsmOptions {
        max_iterations: 120,
        relaxation: 0.5,
        ..options.clone()
    };
    let (r, adaptive, _) = counted_sweep(0.002, 16.0, 0.6, &converging);
    assert!(r.converged && !r.restored_checkpoint);
    assert_eq!(adaptive, 2 * r.iterations as u64 + 1);

    // The guarded driver runs one adaptive solve per clean pass.
    let guarded_options = MultiFbsmOptions {
        guard_ode: Some(RecoveryPolicy::default()),
        ..options.clone()
    };
    let (r, adaptive, guarded) = counted_sweep(0.02, 20.0, 0.6, &guarded_options);
    assert!(!r.restored_checkpoint);
    assert_eq!((adaptive, guarded), (2 * 6 + 1, 2 * 6 + 1));

    // Restoring the checkpoint re-solves the restored control once.
    let (r, adaptive, _) = counted_sweep(0.02, 20.0, 0.2, &options);
    assert_eq!((r.iterations, r.restored_checkpoint), (6, true));
    assert_eq!(adaptive, 2 * 6 + 2);
    rumor_obs::set_rollup(false);
}
