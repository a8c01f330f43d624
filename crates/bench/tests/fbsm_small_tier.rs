//! Regression pin for the small-tier FBSM bench configuration.
//!
//! The perfreport Fig. 4 sweep (workload 3) historically reported
//! `converged: false` at its 150-iteration cap: the relative control
//! change plateaus around 4e-3 in this setting. With the sweep's
//! backtracking under-relaxation, warm-started continuation rounds (each
//! restart resets the relaxation weight, breaking the plateau cycle)
//! settle convergence in three rounds.
//! This test replicates the exact bench configuration and pins the
//! round/iteration counts so a regression in the default (or in the
//! sweep numerics) shows up as a test failure, not as a silently
//! non-converging benchmark.

use rumor_bench::{digg_dataset, fig4_params, Scale};
use rumor_compartments::paper::PaperSir;
use rumor_control::multi::{optimize_compartments_monitored, MultiControlBounds, MultiFbsmOptions};
use rumor_control::CostWeights;
use rumor_core::state::NetworkState;

#[test]
// ~3 minutes unoptimized vs ~5 s in release; CI runs it through the
// release test step. The pinned counts are identical in both profiles.
#[cfg_attr(debug_assertions, ignore = "slow unoptimized; run with --release")]
fn small_tier_bench_sweep_converges_under_warm_continuation() {
    let dataset = digg_dataset(Scale::Small);
    let params = fig4_params(&dataset);
    let bounds = MultiControlBounds::new(vec![0.7, 0.7]).expect("static bounds");
    let weights = CostWeights::paper_default();
    let model = PaperSir::from_params(&params, weights.c1, weights.c2).expect("paper model");
    let y0 = NetworkState::initial_uniform(params.n_classes(), 0.05)
        .expect("static initial state")
        .to_flat();
    // Byte-for-byte the perfreport workload-3 configuration: everything
    // not listed here comes from the default, which this test guards.
    let options = MultiFbsmOptions {
        n_nodes: 81,
        max_iterations: 150,
        tolerance: 1e-4,
        relaxation: 0.3,
        ..Default::default()
    };
    let mut sweep = optimize_compartments_monitored(&model, &y0, 40.0, &bounds, &options)
        .expect("small-tier sweep");
    assert!(
        !sweep.converged,
        "the timed first sweep is iteration-capped"
    );
    assert_eq!(sweep.iterations, 150);

    let mut rounds = Vec::new();
    while !sweep.converged && rounds.len() < 5 {
        let warm = MultiFbsmOptions {
            initial_control: Some(sweep.control.clone()),
            ..options.clone()
        };
        sweep = optimize_compartments_monitored(&model, &y0, 40.0, &bounds, &warm)
            .expect("continuation sweep");
        rounds.push(sweep.iterations);
    }

    assert!(
        sweep.converged,
        "small-tier continuation no longer converges: rounds {rounds:?}, last change {:?}",
        sweep.change_history.last()
    );
    let residual = sweep
        .change_history
        .last()
        .copied()
        .unwrap_or(f64::INFINITY);
    assert!(
        residual <= 1e-4,
        "final residual {residual} above tolerance"
    );
    // The whole chain is deterministic (fixed grid, fixed dataset seed,
    // pinned single-threaded kernels), so the counts are exact. Update
    // the pin deliberately when the numerics change.
    assert_eq!(rounds, vec![150, 150, 78]);
}
