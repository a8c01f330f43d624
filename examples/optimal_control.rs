//! Optimized countermeasures: run the Pontryagin forward–backward sweep
//! on a Digg-like network and compare the optimized schedule against the
//! myopic heuristic at equal effectiveness (paper Fig. 4).
//!
//! ```sh
//! cargo run --release --example optimal_control
//! ```

use rumor_repro::control::heuristic;
use rumor_repro::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = DiggDataset::synthesize(DiggConfig {
        nodes: 2_000,
        k_max: 200,
        ..DiggConfig::small()
    })?;
    // An aggressive rumor: supercritical and fast within the horizon
    // (uncontrolled, the mean infected density saturates by t ≈ 40).
    let params = ModelParams::builder(dataset.classes().clone())
        .alpha(0.01)
        .acceptance(AcceptanceRate::LinearInDegree { lambda0: 0.15 })
        .infectivity(Infectivity::paper_default())
        .build()?;

    let tf = 100.0;
    let bounds = ControlBounds::new(0.7, 0.7)?;
    let weights = CostWeights::paper_default(); // c1 = 5, c2 = 10
    let initial = NetworkState::initial_uniform(params.n_classes(), 0.05)?;
    let model = PaperSir::from_params(&params, weights.c1, weights.c2)?;

    println!("running forward-backward sweep (tf = {tf}, c1 = 5, c2 = 10)...");
    let result = optimize_compartments(
        &model,
        &initial.to_flat(),
        tf,
        &MultiControlBounds::from(bounds),
        &MultiFbsmOptions {
            n_nodes: 101,
            max_iterations: 300,
            relaxation: 0.3,
            tolerance: 1e-4,
            ..Default::default()
        },
    )?;
    println!(
        "sweep finished after {} iterations (converged: {}); objective J = {:.4}\n",
        result.iterations,
        result.converged,
        result.cost.total()
    );

    println!("optimized schedule (Fig. 4a shape: truth-spreading dominates the");
    println!("early/middle phase, blocking ramps up near the deadline):");
    println!("   t      eps1(t)   eps2(t)");
    for idx in (0..result.control.grid().len()).step_by(10) {
        println!(
            "{:6.1}   {:7.4}   {:7.4}",
            result.control.grid()[idx],
            result.control.values(0)[idx],
            result.control.values(1)[idx]
        );
    }
    // The qualitative Fig. 4a checks.
    let e1 = result.control.values(0);
    let e2 = result.control.values(1);
    let mid = e1.len() / 2;
    assert!(
        e1[mid] > e2[mid],
        "truth-spreading should dominate mid-horizon"
    );
    assert!(
        e2[e2.len() - 1] > e1[e1.len() - 1],
        "blocking should dominate at the deadline"
    );

    // r0 under the running-average (cumulative effective) countermeasure
    // level (Fig. 4b shape: above 1 early — the rumor propagates mildly —
    // then pushed below 1 as the countermeasures accumulate).
    println!("\nr0 under the cumulative effective countermeasures (Fig. 4b):");
    let grid = result.control.grid().to_vec();
    let mut acc1 = 0.0;
    let mut acc2 = 0.0;
    for (idx, w) in grid.windows(2).enumerate() {
        let dt = w[1] - w[0];
        acc1 += 0.5 * dt * (e1[idx] + e1[idx + 1]);
        acc2 += 0.5 * dt * (e2[idx] + e2[idx + 1]);
        if (idx + 1) % 10 == 0 {
            let t = w[1];
            let avg1 = (acc1 / t).max(1e-6);
            let avg2 = (acc2 / t).max(1e-6);
            println!("  t = {t:5.1}: r0 = {:9.3}", r0(&params, avg1, avg2)?);
        }
    }

    // Heuristic comparison at equal terminal infection (Fig. 4c).
    let target = result.cost.terminal.max(1e-6);
    println!("\ntuning myopic heuristic to the same terminal infection ({target:.3e})...");
    let heur = heuristic::tune(&params, &initial, tf, &bounds, &weights, target, 101)?;
    println!(
        "cost comparison at equal effectiveness:\n  optimized: {:.4}\n  heuristic: {:.4}",
        result.cost.running(),
        heur.cost.running()
    );
    assert!(
        result.cost.running() < heur.cost.running(),
        "optimized countermeasures must be cheaper (Fig. 4c)"
    );
    println!("the optimized countermeasures are cheaper, as in Fig. 4(c)");
    Ok(())
}
