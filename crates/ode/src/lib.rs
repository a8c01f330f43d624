//! ODE integration substrate for the rumor-propagation workspace.
//!
//! The paper's heterogeneous SIR system (Eq. (1)), the co-state system of
//! the Pontryagin analysis (Eqs. (15)–(16)), and every baseline model are
//! integrated with the solvers in this crate:
//!
//! * [`system::OdeSystem`] — the right-hand-side trait all models implement.
//! * [`steppers`] — explicit fixed-step methods (Euler, Heun, classic RK4)
//!   and an implicit (backward) Euler stepper for stiff regimes.
//! * [`integrator`] — drivers that walk a stepper across an interval
//!   (the adaptive one steps its own Dormand–Prince 5(4) pair), record
//!   the trajectory, support *backward* integration (needed for the
//!   co-state sweep), stop on events, and sample onto caller-supplied
//!   output grids.
//! * [`solution::Solution`] — a recorded trajectory with interpolating
//!   samplers.
//!
//! # Example
//!
//! ```
//! use rumor_ode::integrator::FixedStep;
//! use rumor_ode::steppers::Rk4;
//! use rumor_ode::system::OdeSystem;
//!
//! /// dy/dt = -y, solution y(t) = e^{-t}.
//! struct Decay;
//! impl OdeSystem for Decay {
//!     fn dim(&self) -> usize { 1 }
//!     fn rhs(&self, _t: f64, y: &[f64], dydt: &mut [f64]) { dydt[0] = -y[0]; }
//! }
//!
//! # fn main() -> Result<(), rumor_ode::OdeError> {
//! let mut driver = FixedStep::new(Rk4::new(), 1e-3);
//! let sol = driver.integrate(&Decay, 0.0, &[1.0], 1.0)?;
//! assert!((sol.last_state()[0] - (-1.0_f64).exp()).abs() < 1e-9);
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

pub mod fault;
pub mod integrator;
pub mod recovery;
pub mod solution;
pub mod steppers;
pub mod system;

mod error;
#[cfg(test)]
mod reference;

pub use error::OdeError;

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, OdeError>;
