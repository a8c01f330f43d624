//! Numerical substrate for the rumor-propagation reproduction workspace.
//!
//! This crate holds the numerical building blocks the rest of the
//! workspace calls:
//!
//! * [`matrix`] — a small dense row-major [`matrix::Matrix`] holding the
//!   Jacobians of the implicit Euler stepper and of Theorem 2.
//! * [`lu`] — LU decomposition with partial pivoting: the implicit Euler
//!   stepper's Newton solves, and determinants.
//! * [`eigen`] — eigenvalues of general real matrices via Hessenberg
//!   reduction followed by the Francis double-shift QR iteration, and the
//!   spectral abscissa behind Theorem 2's stability verdict.
//! * [`roots`] — Brent's method for the `E+` fixed point and the `λ0` and
//!   Digg2009 calibrations (with bisection as its test reference).
//! * [`quadrature`] — trapezoid integration of sampled trajectories, for
//!   the cost functional `J`.
//! * [`interp`] — piecewise-linear interpolation on grids, for the control
//!   schedules.
//! * [`stats`] — the running mean/variance accumulator of the Monte Carlo
//!   ensembles.
//!
//! # Example
//!
//! ```
//! use rumor_numerics::roots::{brent, RootConfig};
//!
//! # fn main() -> Result<(), rumor_numerics::NumericsError> {
//! // Find the positive root of x^2 - 2.
//! let root = brent(|x| x * x - 2.0, 0.0, 2.0, &RootConfig::default())?;
//! assert!((root.x - 2.0_f64.sqrt()).abs() < 1e-12);
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

pub mod eigen;
pub mod interp;
pub mod lu;
pub mod matrix;
pub mod quadrature;
pub mod roots;
pub mod stats;

mod error;

pub use error::NumericsError;

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, NumericsError>;
