//! Deadline-constrained countermeasures: the paper's literal problem —
//! "ensure a rumor becomes extinct at the end of an expected time period
//! with lowest cost" — solved by escalating the terminal penalty of the
//! Pontryagin sweep until the extinction target is met.
//!
//! ```sh
//! cargo run --release --example deadline_extinction
//! ```

use rumor_repro::control::multi::optimize_to_target;
use rumor_repro::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = DiggDataset::synthesize(DiggConfig {
        nodes: 2_000,
        k_max: 200,
        ..DiggConfig::small()
    })?;
    let params = ModelParams::builder(dataset.classes().clone())
        .alpha(0.01)
        .acceptance(AcceptanceRate::LinearInDegree { lambda0: 0.15 })
        .infectivity(Infectivity::paper_default())
        .build()?;
    let weights = CostWeights::paper_default();
    let model = PaperSir::from_params(&params, weights.c1, weights.c2)?;
    let y0 = NetworkState::initial_uniform(params.n_classes(), 0.05)?.to_flat();
    let bounds = MultiControlBounds::new(vec![0.7, 0.7])?;
    let opts = MultiFbsmOptions {
        n_nodes: 61,
        max_iterations: 200,
        tolerance: 1e-4,
        relaxation: 0.3,
        ..Default::default()
    };

    // Growing deadlines, same extinction target: the rumor must be down
    // to a mean infected density of 1e-4 per class by tf.
    let target = 1e-4 * params.n_classes() as f64;
    println!(
        "extinction target: total infected <= {target:.4} ({} classes x 1e-4)\n",
        params.n_classes()
    );
    println!(
        "{:>6} {:>14} {:>14} {:>12}",
        "tf", "terminal I", "running cost", "weight"
    );
    for tf in [20.0, 40.0, 60.0, 80.0] {
        match optimize_to_target(&model, &y0, tf, &bounds, target, &opts) {
            Ok((result, weight)) => {
                println!(
                    "{tf:>6} {:>14.6} {:>14.4} {:>12.1}",
                    result.cost.terminal,
                    result.cost.running(),
                    weight
                );
            }
            Err(e) => println!("{tf:>6} unreachable: {e}"),
        }
    }
    println!("\nacting early is cheap: over short horizons the rumor has no room to");
    println!("grow and a light touch meets the target. Longer horizons let the rumor");
    println!("expand before the deadline bites, so the sweep spends far more (and");
    println!("escalates the terminal penalty) to claw the infection back down.");
    Ok(())
}
