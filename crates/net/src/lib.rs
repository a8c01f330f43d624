//! Graph substrate for the rumor-propagation reproduction workspace.
//!
//! The paper evaluates its model on the Digg2009 friendship graph. The
//! mean-field ODE model consumes a network only through its *degree
//! structure* — the degree distribution `P(k)`, the mean degree `⟨k⟩`
//! and the set of distinct degree classes — while the agent-based
//! validator in `rumor-sim` walks actual edges. This crate provides both
//! views:
//!
//! * [`graph::Graph`] — a compact CSR (compressed sparse row) graph.
//! * [`generators`] — Barabási–Albert and configuration-model generators
//!   plus bounded power-law degree-sequence sampling, all deterministic
//!   given a seed.
//! * [`degree`] — [`degree::DegreeClasses`], the `n` groups of the paper's
//!   heterogeneous model, with `P(k)` and `⟨k⟩`.
//! * [`metrics`] — connected components.

// Deliberate idioms throughout this workspace:
// * `!(x > 0.0)` rejects NaN alongside non-positive values, which the
//   suggested `x <= 0.0` would silently accept;
// * index-based loops mirror the mathematical stencils of the numeric
//   kernels more directly than iterator chains.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![allow(clippy::needless_range_loop)]
#![allow(clippy::manual_is_multiple_of)]

pub mod degree;
pub mod generators;
pub mod graph;
pub mod metrics;

mod error;

pub use error::NetError;

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, NetError>;
