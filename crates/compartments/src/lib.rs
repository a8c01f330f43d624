//! Generalized multi-compartment propagation models.
//!
//! The paper's model is a fixed S/I/R-per-degree-class system, and the
//! original `rumor-core` types hardwire that shape: `NetworkState` owns
//! exactly three bands and `RumorModel` assumes a `3n` flat layout. None of the
//! scenario extensions named by ROADMAP (competing rumors, tie-strength
//! variants, hesitation compartments) fit in that mold.
//!
//! This crate is the generalization seam:
//!
//! * [`layout::CompartmentLayout`] — the flat-state contract. A model
//!   declares `n_compartments` bands over `n_classes` degree classes and
//!   the layout packs them compartment-major
//!   (`[C0_0..C0_{n-1}, C1_0.., …]`), exactly the convention the
//!   existing `[S.., I.., R..]` layout is a special case of.
//! * [`model::CompartmentModel`] — the model trait: compartment count,
//!   control channels, RHS coupling terms, adjoint system, stationary
//!   controls, and cost integrands are all model-defined. Kernels stay
//!   on the hot path: implementations receive an optional
//!   [`rumor_par::InnerPool`] and are expected to route reductions
//!   through the partitioned `rumor_core::kernels` so results stay
//!   bit-identical at every thread count.
//! * [`model::CompartmentOde`] / [`model::CompartmentAdjoint`] — the
//!   adapters that bind a model plus a [`schedule::MultiControlSchedule`]
//!   into [`rumor_ode::system::OdeSystem`]s for the forward and backward
//!   passes.
//! * [`paper::PaperSir`] — the paper model on the abstraction, with its
//!   exact adjoint; its forward RHS is the one
//!   [`rumor_core::model::RumorModel`] calls
//!   ([`rumor_core::model::flat_rhs`]), trajectories stay pinned
//!   bit-identical in `tests/paper_identity.rs`, sweep results in
//!   `crates/control/tests/frozen_sweeps.rs`.
//! * [`simulate`] — the one simulator: grid runs of any compartment
//!   model under a control schedule, the paper model included.
//!
//! The concrete scenario models (competing two-rumor, degree-dependent
//! tie strength) live in `rumor-models`; the forward–backward sweep that
//! optimizes any of them over `n_controls ≥ 1` channels lives in
//! `rumor-control`.

// Deliberate idioms throughout this workspace:
// * `!(x > 0.0)` rejects NaN alongside non-positive values, which the
//   suggested `x <= 0.0` would silently accept;
// * index-based loops mirror the mathematical stencils of the numeric
//   kernels more directly than iterator chains.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![allow(clippy::needless_range_loop)]
#![allow(clippy::manual_is_multiple_of)]

pub mod layout;
pub mod model;
pub mod paper;
pub mod schedule;
pub mod simulate;

pub use rumor_core::CoreError;

/// Convenient result alias used across the crate (layout and model
/// validation reuse the core error taxonomy).
pub type Result<T> = std::result::Result<T, CoreError>;
