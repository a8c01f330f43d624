//! Baseline propagation models.
//!
//! The paper positions its heterogeneous SIR model against two
//! traditions: classical rumor models (Daley–Kendall 1965 and
//! Maki–Thompson 1973, its Section III lineage) and mean-field epidemic
//! models that ignore degree structure. This crate implements those
//! baselines: the ablation harness runs the homogeneous SIR against the
//! heterogeneous model, and `examples/model_zoo.rs` runs all three:
//!
//! * [`homogeneous`] — the degree-blind SIR with the same countermeasure
//!   channels (the direct ablation of network heterogeneity).
//! * [`dk`] — the Daley–Kendall ignorant/spreader/stifler model.
//! * [`mt`] — the Maki–Thompson variant.
//!
//! Beyond the baselines, two *scenario* models ride on the generalized
//! compartment abstraction of `rumor-compartments`:
//!
//! * [`two_rumor`] — competing two-rumor dynamics: a rumor and a truth
//!   campaign racing for shared susceptibles, with truth-seeding and
//!   blocking control channels for the multi-control FBSM.
//! * [`tie_strength`] — the paper model with degree-dependent
//!   tie-strength modulation `λ_eff(k) = λ(k)·k^(−β)`.
//!
//! The baseline models implement [`rumor_ode::system::OdeSystem`] and
//! integrate with any driver from `rumor-ode`; the scenario models
//! implement `rumor_compartments::model::CompartmentModel`.

// Deliberate idioms throughout this workspace:
// * `!(x > 0.0)` rejects NaN alongside non-positive values, which the
//   suggested `x <= 0.0` would silently accept;
// * index-based loops mirror the mathematical stencils of the numeric
//   kernels more directly than iterator chains.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![allow(clippy::needless_range_loop)]
#![allow(clippy::manual_is_multiple_of)]

pub mod dk;
pub mod homogeneous;
pub mod mt;
pub mod tie_strength;
pub mod two_rumor;
