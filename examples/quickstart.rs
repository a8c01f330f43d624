//! Quickstart: build a small heterogeneous network, check the
//! propagation threshold, and simulate the rumor dynamics under fixed
//! countermeasures.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use rumor_repro::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A toy social network: mostly low-degree users plus a few hubs.
    let degrees: Vec<usize> = (0..200)
        .map(|i| match i % 20 {
            0 => 50,
            1..=3 => 10,
            _ => 2,
        })
        .collect();
    let classes = DegreeClasses::from_degrees(&degrees)?;
    println!(
        "network: {} degree classes, <k> = {:.2}, k in [{}, {}]",
        classes.len(),
        classes.mean_degree(),
        classes.min_degree(),
        classes.max_degree()
    );

    let params = ModelParams::builder(classes)
        .alpha(0.01)
        .acceptance(AcceptanceRate::LinearInDegree { lambda0: 0.01 })
        .infectivity(Infectivity::paper_default())
        .build()?;

    // Countermeasures: spread truth at ε1 = 0.2, block rumors at ε2 = 0.05.
    let (eps1, eps2) = (0.2, 0.05);
    let threshold = r0(&params, eps1, eps2)?;
    println!("propagation threshold r0 = {threshold:.4}");
    println!(
        "theorem 5 predicts the rumor will {}",
        if threshold <= 1.0 {
            "become extinct"
        } else {
            "persist"
        }
    );

    // Simulate the paper model (cost weights c1 = 5, c2 = 10) from 10%
    // initially infected in every class.
    let model = PaperSir::from_params(&params, 5.0, 10.0)?;
    let initial = NetworkState::initial_uniform(params.n_classes(), 0.1)?;
    let trajectory = simulate_compartments(
        &model,
        ConstantMultiControl::new(vec![eps1, eps2]),
        &initial.to_flat(),
        150.0,
        &CompartmentSimOptions::default(),
    )?;

    // Per-sample totals of the S, I and R bands.
    let totals: Vec<Vec<f64>> = (0..3).map(|c| trajectory.total_series(c)).collect();
    let n = params.n_classes() as f64;
    println!("\n  t      S_total   I_total   R_total");
    for idx in (0..trajectory.len()).step_by(25) {
        println!(
            "{:6.1}   {:8.5}  {:8.5}  {:8.5}",
            trajectory.times()[idx],
            totals[0][idx] / n,
            totals[1][idx] / n,
            totals[2][idx] / n,
        );
    }

    let final_infected = *totals[1].last().expect("non-empty trajectory");
    println!("\nfinal total infected density: {final_infected:.2e}");
    if threshold <= 1.0 {
        assert!(final_infected < 0.05, "subcritical rumor must die out");
        println!("consistent with the r0 < 1 extinction prediction");
    }
    Ok(())
}
