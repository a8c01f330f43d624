//! `two_rumor` — cost-effectiveness of truth campaigning vs blocking on
//! the competing two-rumor model (EXPERIMENTS.md "Two-rumor
//! cost-effectiveness" section).
//!
//! Three multi-control FBSM runs on the canonical two-rumor small tier
//! (the configuration pinned in `crates/control/tests/two_rumor_fbsm.rs`
//! and the perfreport `two_rumor` workload):
//!
//! * **joint** — both channels free inside the `[0, 0.2]` box;
//! * **truth-only** — the blocking channel's bound collapsed to ~0, so
//!   only truth seeding fights the rumor;
//! * **blocking-only** — the truth channel collapsed instead.
//!
//! For each run the report carries the FBSM iteration count, the
//! itemized cost (per-channel running cost + terminal objective) and the
//! final rumor/truth prevalences. CSVs land in `results/`:
//! `two_rumor_summary.csv` (one row per scenario) and
//! `two_rumor_schedule.csv` (the joint run's optimal schedule).

use rumor_bench::write_csv;
use rumor_control::multi::{optimize_compartments_monitored, MultiControlBounds, MultiFbsmOptions};
use rumor_core::functions::{AcceptanceRate, Infectivity};
use rumor_core::params::ModelParams;
use rumor_models::two_rumor::TwoRumorModel;
use rumor_net::degree::DegreeClasses;
use rumor_ode::integrator::AdaptiveConfig;

/// A channel bound that is effectively "off" without tripping the
/// positivity validation of [`MultiControlBounds`].
const OFF: f64 = 1e-9;

fn canonical_params() -> ModelParams {
    let degrees: Vec<usize> = (0..24).map(|i| 1 + i % 12).collect();
    let classes = DegreeClasses::from_degrees(&degrees).expect("classes");
    ModelParams::builder(classes)
        .alpha(0.002)
        .acceptance(AcceptanceRate::LinearInDegree { lambda0: 0.02 })
        .infectivity(Infectivity::paper_default())
        .build()
        .expect("params")
}

fn options() -> MultiFbsmOptions {
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

fn main() {
    let params = canonical_params();
    let model =
        TwoRumorModel::from_params(&params, 0.03, 0.05, 0.08, 0.5, 5.0, 10.0).expect("model");
    let n = params.n_classes();
    let mut y0 = vec![0.0; 4 * n];
    for j in 0..n {
        y0[j] = 0.88;
        y0[n + j] = 0.1;
        y0[2 * n + j] = 0.02;
    }
    let tf = 40.0;
    println!(
        "two_rumor: {} classes, tf = {tf}, c_truth = 5, c_block = 10, initial (s, i1, i2) = (0.88, 0.10, 0.02)",
        n
    );

    let scenarios: [(&str, [f64; 2]); 3] = [
        ("joint", [0.2, 0.2]),
        ("truth_only", [0.2, OFF]),
        ("blocking_only", [OFF, 0.2]),
    ];
    let mut summary_rows: Vec<Vec<f64>> = Vec::new();
    let mut joint_schedule: Vec<Vec<f64>> = Vec::new();
    for (idx, (name, boxed)) in scenarios.iter().enumerate() {
        let bounds = MultiControlBounds::new(boxed.to_vec()).expect("bounds");
        let result = optimize_compartments_monitored(&model, &y0, tf, &bounds, &options())
            .expect("two-rumor sweep");
        assert!(
            result.converged,
            "{name}: sweep must converge, residual {:?}",
            result.change_history.last()
        );
        let last = result.trajectory.last_state().to_vec();
        let mean = |c: usize| last[c * n..(c + 1) * n].iter().sum::<f64>() / n as f64;
        let (rumor, truth) = (mean(1), mean(2));
        println!(
            "{name:14} iterations {:3}  cost: truth {:.4} + blocking {:.4} + terminal {:.4} = J {:.4}  final prevalence: rumor {rumor:.5}, truth {truth:.5}",
            result.iterations,
            result.cost.channel_costs[0],
            result.cost.channel_costs[1],
            result.cost.terminal,
            result.cost.total()
        );
        summary_rows.push(vec![
            idx as f64,
            result.iterations as f64,
            result.cost.channel_costs[0],
            result.cost.channel_costs[1],
            result.cost.terminal,
            result.cost.total(),
            rumor,
            truth,
        ]);
        if *name == "joint" {
            let times = result.control.grid().to_vec();
            for (k, &t) in times.iter().enumerate() {
                let row: Vec<f64> = std::iter::once(t)
                    .chain((0..2).map(|c| result.control.values(c)[k]))
                    .collect();
                joint_schedule.push(row);
            }
        }
    }
    let summary = write_csv(
        "two_rumor_summary.csv",
        "scenario,iterations,cost_truth,cost_blocking,cost_terminal,cost_total,final_rumor,final_truth",
        &summary_rows,
    );
    let schedule = write_csv(
        "two_rumor_schedule.csv",
        "t,truth,blocking",
        &joint_schedule,
    );
    println!("wrote {} and {}", summary.display(), schedule.display());
    println!("scenario ids: 0 = joint, 1 = truth_only, 2 = blocking_only");
}
