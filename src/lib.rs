//! # rumor-repro
//!
//! A full reproduction of *“Modeling Propagation Dynamics and Developing
//! Optimized Countermeasures for Rumor Spreading in Online Social
//! Networks”* (He, Cai, Wang — ICDCS 2015) as a Rust workspace.
//!
//! This facade crate re-exports every subsystem so downstream users can
//! depend on a single crate:
//!
//! | Re-export | Subsystem |
//! |---|---|
//! | [`core`] | the heterogeneous SIR rumor model, threshold `r0`, equilibria, stability |
//! | [`compartments`] | the compartment-model contract, with the paper model as one instance |
//! | [`control`] | Pontryagin-optimized countermeasures (FBSM) and the heuristic baseline |
//! | [`net`] | CSR graphs, scale-free generators, degree classes, connected components |
//! | [`datasets`] | the calibrated Digg2009-equivalent dataset and edge-list I/O |
//! | [`sim`] | agent-based Monte Carlo validation (synchronous ABM + Gillespie SSA) |
//! | [`models`] | baselines (homogeneous SIR, Daley–Kendall, Maki–Thompson) and the two-rumor and tie-strength scenarios |
//! | [`ode`] | ODE integration substrate (Euler/Heun/RK4/DOPRI5/implicit Euler) |
//! | [`numerics`] | LU, eigenvalues, Brent roots, trapezoid sums, linear interpolation, running statistics |
//! | [`par`] | std-only parallel executor with deterministic ordered collection |
//! | [`serve`] | std-only HTTP/1.1 JSON service with admission control and result caching |
//!
//! ## Quickstart
//!
//! ```
//! use rumor_repro::compartments::model::CompartmentModel;
//! use rumor_repro::compartments::paper::PaperSir;
//! use rumor_repro::compartments::schedule::ConstantMultiControl;
//! use rumor_repro::compartments::simulate::{simulate_compartments, CompartmentSimOptions};
//! use rumor_repro::core::equilibrium::r0;
//! use rumor_repro::core::functions::AcceptanceRate;
//! use rumor_repro::core::params::ModelParams;
//! use rumor_repro::net::degree::DegreeClasses;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A small heterogeneous network: degree classes from a degree sequence.
//! let classes = DegreeClasses::from_degrees(&[1, 1, 2, 2, 3, 6])?;
//! let params = ModelParams::builder(classes)
//!     .alpha(0.01)
//!     .acceptance(AcceptanceRate::LinearInDegree { lambda0: 0.02 })
//!     .build()?;
//!
//! // Is the rumor subcritical under countermeasures (ε1, ε2) = (0.2, 0.05)?
//! let threshold = r0(&params, 0.2, 0.05)?;
//!
//! // Simulate the propagation dynamics: the paper model (cost weights
//! // c1 = 5, c2 = 10) from 10% initially infected in every class.
//! let model = PaperSir::from_params(&params, 5.0, 10.0)?;
//! let trajectory = simulate_compartments(
//!     &model,
//!     ConstantMultiControl::new(vec![0.2, 0.05]),
//!     &model.layout().initial_uniform(0.1)?,
//!     100.0,
//!     &CompartmentSimOptions::default(),
//! )?;
//! let infected = trajectory.total_series(1);
//! if threshold < 1.0 {
//!     assert!(infected.last().unwrap() < &0.05);
//! }
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and the
//! `rumor-bench` crate for the harness that regenerates every table and
//! figure of the paper.

pub use rumor_compartments as compartments;
pub use rumor_control as control;
pub use rumor_core as core;
pub use rumor_datasets as datasets;
pub use rumor_models as models;
pub use rumor_net as net;
pub use rumor_numerics as numerics;
pub use rumor_ode as ode;
pub use rumor_par as par;
pub use rumor_serve as serve;
pub use rumor_sim as sim;

/// A convenience prelude importing the most commonly used items.
pub mod prelude {
    pub use rumor_compartments::paper::PaperSir;
    pub use rumor_compartments::schedule::ConstantMultiControl;
    pub use rumor_compartments::simulate::{
        simulate_compartments, CompartmentSimOptions, CompartmentTrajectory,
    };
    pub use rumor_control::multi::{
        evaluate_compartments, optimize_compartments, MultiControlBounds, MultiFbsmOptions,
        MultiPiecewiseControl, MultiSweepResult,
    };
    pub use rumor_control::watchdog::{optimize_guarded, GuardedSweep, WatchdogOptions};
    pub use rumor_control::{ControlBounds, CostWeights};
    pub use rumor_core::control::{ConstantControl, ControlSchedule};
    pub use rumor_core::equilibrium::{
        calibrate_acceptance, positive_equilibrium, r0, zero_equilibrium,
    };
    pub use rumor_core::functions::{AcceptanceRate, Infectivity};
    pub use rumor_core::model::{MassConvention, RumorModel};
    pub use rumor_core::params::ModelParams;
    pub use rumor_core::state::NetworkState;
    pub use rumor_datasets::digg::{DiggConfig, DiggDataset};
    pub use rumor_net::degree::DegreeClasses;
    pub use rumor_net::graph::{EdgeKind, Graph};
    pub use rumor_ode::fault::{FaultSchedule, FaultyRhs};
    pub use rumor_ode::recovery::{Guarded, GuardedRun, RecoveryPolicy, RecoveryReport};
    pub use rumor_par::{par_map_indexed, resolve_threads, set_thread_override};
    pub use rumor_sim::ensemble::{run_ensemble_isolated, IsolatedEnsemble, IsolationPolicy};
}

/// The README's code blocks, compiled and run as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_items_resolve() {
        use crate::prelude::*;
        let classes = DegreeClasses::from_degrees(&[1, 2]).unwrap();
        let params = ModelParams::builder(classes).alpha(0.01).build().unwrap();
        assert_eq!(params.n_classes(), 2);
        let _ = ConstantControl::new(0.1, 0.1);
        let _ = CostWeights::paper_default();
    }
}
