//! Dataset substrate for the rumor-propagation reproduction workspace.
//!
//! The paper evaluates on the **Digg2009** dataset (71,367 voters,
//! 1,731,658 friendship links, 848 distinct degree classes, degrees in
//! `[1, 995]`, mean degree ≈ 24). The original download link is dead and
//! the data is not redistributable, so this crate provides:
//!
//! * [`digg`] — a deterministic synthetic generator calibrated to the
//!   published statistics. The mean-field model consumes a network only
//!   through its degree histogram, so matching `n`, `k_min`, `k_max`,
//!   `⟨k⟩` and the class count preserves everything the experiments
//!   depend on (see DESIGN.md §2 for the substitution argument).
//! * [`edgelist`] — the edge-list grammar, reading from any reader and
//!   writing, so the *real* Digg2009 file can be dropped in without code
//!   changes.
//! * [`streaming`] — the one line parser and two-pass CSR builder behind
//!   every edge-list load, O(input size) with exact-sized allocations
//!   and fast enough for million-node synthetic graphs.
//! * [`summary`] — dataset statistics used by the experiment harness to
//!   print Table I.

// Deliberate idioms throughout this workspace:
// * `!(x > 0.0)` rejects NaN alongside non-positive values, which the
//   suggested `x <= 0.0` would silently accept;
// * index-based loops mirror the mathematical stencils of the numeric
//   kernels more directly than iterator chains.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![allow(clippy::needless_range_loop)]
#![allow(clippy::manual_is_multiple_of)]

pub mod digg;
pub mod edgelist;
pub mod streaming;
pub mod summary;

mod error;

pub use error::DatasetError;

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, DatasetError>;
