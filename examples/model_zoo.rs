//! Model zoo: contrast the paper's heterogeneous SIR against the
//! homogeneous ablation and the classical rumor models (Daley–Kendall,
//! Maki–Thompson) on comparable scenarios.
//!
//! ```sh
//! cargo run --example model_zoo
//! ```

use rumor_repro::models::dk::DaleyKendall;
use rumor_repro::models::homogeneous::HomogeneousSir;
use rumor_repro::models::mt::MakiThompson;
use rumor_repro::ode::integrator::Adaptive;
use rumor_repro::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Shared scenario: 10% initial spreaders.
    let tf = 60.0;

    // 1. Heterogeneous SIR on a skewed degree distribution.
    let degrees: Vec<usize> = (0..300).map(|i| if i % 30 == 0 { 40 } else { 3 }).collect();
    let classes = DegreeClasses::from_degrees(&degrees)?;
    let het = ModelParams::builder(classes)
        .alpha(0.01)
        .acceptance(AcceptanceRate::LinearInDegree { lambda0: 0.02 })
        .infectivity(Infectivity::paper_default())
        .build()?;
    let initial = NetworkState::initial_uniform(het.n_classes(), 0.1)?;
    let (eps1, eps2) = (0.05, 0.05);
    let het_traj = simulate_compartments(
        &PaperSir::from_params(&het, 5.0, 10.0)?,
        ConstantMultiControl::new(vec![eps1, eps2]),
        &initial.to_flat(),
        tf,
        &CompartmentSimOptions::default(),
    )?;
    println!(
        "heterogeneous SIR: r0 = {:.3}, final infected = {:.4}",
        r0(&het, eps1, eps2)?,
        het_traj
            .total_series(1)
            .last()
            .expect("non-empty trajectory")
            / het.n_classes() as f64
    );

    // 2. Homogeneous ablation with a degree-blind contact rate matched
    //    to the heterogeneous coupling strength.
    let beta = het.lambda_phi_sum() / het.mean_degree();
    let hom = HomogeneousSir::new(het.alpha(), beta, ConstantControl::new(eps1, eps2));
    let sol = Adaptive::new().integrate(&hom, 0.0, &[0.9, 0.1, 0.0], tf)?;
    println!(
        "homogeneous SIR:   r0 = {:.3}, final infected = {:.4}",
        hom.r0(eps1, eps2),
        sol.last_state()[1]
    );
    println!("  (degree-blind mixing changes the predicted outcome — the paper's motivation)");

    // 3. Classical rumor models: spreaders always terminate, leaving a
    //    final fraction of never-informed ignorants.
    let dk = DaleyKendall::new(1.0, 1.0, 1.0);
    let dk_sol = Adaptive::new().integrate(&dk, 0.0, &[0.99, 0.01, 0.0], 500.0)?;
    println!(
        "daley-kendall:     final ignorants = {:.4} (classic ~0.203), spreaders = {:.2e}",
        dk_sol.last_state()[0],
        dk_sol.last_state()[1]
    );

    let mt = MakiThompson::new(1.0, 1.0, 1.0);
    let mt_sol = Adaptive::new().integrate(&mt, 0.0, &[0.99, 0.01, 0.0], 500.0)?;
    println!(
        "maki-thompson:     final ignorants = {:.4} (stifles less, spreads further)",
        mt_sol.last_state()[0]
    );

    println!("\ntakeaway: classical models have no countermeasure channels and no");
    println!("heterogeneity; the paper's model adds both, with r0 as the control knob.");
    Ok(())
}
