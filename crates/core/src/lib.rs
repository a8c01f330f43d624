//! Heterogeneous-network SIR rumor-propagation model.
//!
//! This crate is the primary contribution of the reproduced paper
//! (*Modeling Propagation Dynamics and Developing Optimized
//! Countermeasures for Rumor Spreading in Online Social Networks*,
//! ICDCS 2015): a degree-heterogeneous SIR epidemic model of rumor
//! spreading with two countermeasure channels — spreading truth
//! (immunizing susceptibles at rate `ε1`) and blocking rumors (removing
//! spreaders at rate `ε2`).
//!
//! Users are partitioned into `n` degree classes. Class `i` with degree
//! `k_i` carries densities `S_i(t), I_i(t), R_i(t)` evolving as (paper
//! Eq. (1)):
//!
//! ```text
//! dS_i/dt = α − λ(k_i) S_i Θ(t) − ε1(t) S_i
//! dI_i/dt = λ(k_i) S_i Θ(t) − ε2(t) I_i
//! dR_i/dt = ε1(t) S_i + ε2(t) I_i
//! Θ(t)    = (1/⟨k⟩) Σ_j ϕ(k_j) I_j(t),   ϕ(k) = ω(k) P(k)
//! ```
//!
//! The crate provides:
//!
//! * [`functions`] — the acceptance-rate `λ(k)` and infectivity `ω(k)`
//!   families (constant, linear, saturating `k^β/(1+k^γ)`).
//! * [`kernels`] — chunked auto-vectorizable per-class kernels (the `Θ`
//!   dot product, the SIR/costate right-hand sides) with bit-identical
//!   scalar references.
//! * [`params`] — validated model parameters bound to a degree partition.
//! * [`state`] — the per-class state vector with `Θ`, norms and the
//!   `Dist0`/`Dist+` distances used in Figs. 2–3.
//! * [`model`] — the ODE system (implements
//!   [`rumor_ode::system::OdeSystem`]) under any [`control::ControlSchedule`],
//!   and the one forward RHS of Eq. (1) it shares with the compartment
//!   port. Trajectories on output grids come from
//!   `rumor_compartments::simulate`.
//! * [`equilibrium`] — the threshold `r0`, the rumor-free equilibrium
//!   `E0` and the endemic equilibrium `E+` (Theorem 1).
//! * [`stability`] — Jacobian eigenvalue analysis at `E0` (Theorem 2) and
//!   numeric Lyapunov verification (Theorems 3–4).
//! * [`targeted`] — per-degree-class countermeasure rates (the
//!   hub-prioritized "blocking at influential users" strategy) with the
//!   generalized threshold.
//! * [`sensitivity`] — exact threshold sensitivities and the critical
//!   countermeasure scaling.
//!
//! # Quickstart
//!
//! ```
//! use rumor_core::control::ConstantControl;
//! use rumor_core::equilibrium::r0;
//! use rumor_core::functions::{AcceptanceRate, Infectivity};
//! use rumor_core::params::ModelParams;
//! use rumor_net::degree::DegreeClasses;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let classes = DegreeClasses::from_degrees(&[1, 1, 2, 2, 3, 4])?;
//! let params = ModelParams::builder(classes)
//!     .alpha(0.01)
//!     .acceptance(AcceptanceRate::LinearInDegree { lambda0: 0.05 })
//!     .infectivity(Infectivity::Saturating { beta: 0.5, gamma: 0.5 })
//!     .build()?;
//! let threshold = r0(&params, 0.2, 0.05)?;
//! assert!(threshold.is_finite() && threshold > 0.0);
//! # Ok(())
//! # }
//! ```

// Deliberate idioms throughout this workspace:
// * `!(x > 0.0)` rejects NaN alongside non-positive values, which the
//   suggested `x <= 0.0` would silently accept;
// * index-based loops mirror the mathematical stencils of the numeric
//   kernels more directly than iterator chains.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![allow(clippy::needless_range_loop)]
#![allow(clippy::manual_is_multiple_of)]

pub mod control;
pub mod equilibrium;
pub mod functions;
pub mod kernels;
pub mod model;
pub mod params;
pub mod sensitivity;
pub mod stability;
pub mod state;
pub mod targeted;

mod error;

pub use error::CoreError;

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, CoreError>;
