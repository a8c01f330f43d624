//! Mean-field validation: compare the heterogeneous SIR ODE against the
//! microscopic agent-based process it approximates, on a scale-free
//! graph.
//!
//! ```sh
//! cargo run --release --example abm_vs_ode
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use rumor_repro::net::generators::barabasi_albert;
use rumor_repro::prelude::*;
use rumor_repro::sim::abm::AbmConfig;
use rumor_repro::sim::ensemble::{max_deviation, mean_field_reference, run_ensemble, Simulator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(2009);
    let graph = barabasi_albert(3_000, 3, &mut rng)?;
    let classes = DegreeClasses::from_graph(&graph)?;
    println!(
        "barabasi-albert graph: {} nodes, {} edges, <k> = {:.2}",
        graph.node_count(),
        graph.edge_count(),
        graph.mean_degree()
    );

    let params = ModelParams::builder(classes)
        .alpha(0.0) // the microscopic process carries no demography
        .acceptance(AcceptanceRate::LinearInDegree { lambda0: 1.0 })
        .infectivity(Infectivity::paper_default())
        .build()?;

    let cfg = AbmConfig {
        alpha: 0.0,
        dt: 0.1,
        tf: 40.0,
        eps1: 0.01,
        eps2: 0.1,
        initial_infected: 0.05,
        record_every: 20,
    };

    for (name, sim) in [
        ("synchronous ABM", Simulator::Synchronous),
        ("gillespie SSA", Simulator::Gillespie),
    ] {
        let ens = run_ensemble(&graph, &params, &cfg, sim, 10, 7, None)?;
        let mf = mean_field_reference(&params, &cfg, &ens.times)?;
        let dev = max_deviation(&ens, &mf)?;
        println!("\n{name} (10 runs) vs mean-field ODE:");
        println!("   t     ABM mean   ABM std    ODE");
        for idx in (0..ens.times.len()).step_by(4) {
            println!(
                "{:5.1}   {:8.5}  {:8.5}  {:8.5}",
                ens.times[idx], ens.i_mean[idx], ens.i_std[idx], mf[idx]
            );
        }
        println!("max |ABM − ODE| deviation: {dev:.4}");
    }
    println!("\nthe mean field tracks the microscopic process; transient gaps");
    println!("reflect degree correlations the annealed approximation ignores.");
    Ok(())
}
