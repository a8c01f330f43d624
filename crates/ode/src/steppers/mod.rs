//! Single-step integration methods.
//!
//! All steppers advance a state by one step of size `h`; `h` may be
//! negative, which the drivers use for backward (co-state) integration.
//! Steppers own their scratch buffers, so repeated calls after the first
//! are allocation-free.
//!
//! The public steppers — Euler, Heun, classic RK4 and implicit Euler —
//! implement [`Stepper`]. The Dormand–Prince 5(4) pair is private to
//! [`crate::integrator::Adaptive`], its only user, which takes each
//! step's first stage from the step before.

mod dopri5;
mod euler;
mod heun;
mod implicit;
mod rk4;

pub(crate) use dopri5::Dopri5;
pub use euler::Euler;
pub use heun::Heun;
pub use implicit::ImplicitEuler;
pub use rk4::Rk4;

use crate::system::OdeSystem;
use crate::OdeError;

/// A fixed-step single-step method.
///
/// Implementations must tolerate `h < 0` (backward steps).
pub trait Stepper {
    /// Advances the state from `(t, y)` by one step of size `h`, writing
    /// `y(t + h)` into `out`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `y.len()` or `out.len()` differ from
    /// `sys.dim()`; the drivers validate dimensions before stepping.
    fn step(&mut self, sys: &dyn OdeSystem, t: f64, y: &[f64], h: f64, out: &mut [f64]);

    /// Fallible variant of [`Stepper::step`]. Explicit methods cannot
    /// fail and use the default pass-through; methods with an inner
    /// solve (e.g. [`ImplicitEuler`]) override this to surface failure
    /// as an error instead of a panic. The drivers step through this
    /// method so a failed inner solve is always recoverable.
    ///
    /// # Errors
    ///
    /// Implementation-specific; the default never errors.
    fn fallible_step(
        &mut self,
        sys: &dyn OdeSystem,
        t: f64,
        y: &[f64],
        h: f64,
        out: &mut [f64],
    ) -> Result<(), OdeError> {
        self.step(sys, t, y, h, out);
        Ok(())
    }

    /// Classical order of accuracy of the method (e.g. 4 for RK4).
    fn order(&self) -> usize;

    /// Human-readable method name, used in diagnostics.
    fn name(&self) -> &'static str;
}

/// Grows `buf` to length `n`, zero-filling, without shrinking.
pub(crate) fn ensure_len(buf: &mut Vec<f64>, n: usize) {
    if buf.len() < n {
        buf.resize(n, 0.0);
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use crate::system::{FnSystem, OdeSystem};

    /// dy/dt = -y with y(0) = 1: solution e^{-t}.
    pub fn decay() -> FnSystem<impl Fn(f64, &[f64], &mut [f64])> {
        FnSystem::new(1, |_t, y: &[f64], d: &mut [f64]| d[0] = -y[0])
    }

    /// Harmonic oscillator: y0'' = -y0 written first-order; energy
    /// y0² + y1² is conserved.
    pub fn oscillator() -> FnSystem<impl Fn(f64, &[f64], &mut [f64])> {
        FnSystem::new(2, |_t, y: &[f64], d: &mut [f64]| {
            d[0] = y[1];
            d[1] = -y[0];
        })
    }

    /// Nonautonomous: dy/dt = t, solution y = y0 + t²/2.
    pub fn ramp() -> FnSystem<impl Fn(f64, &[f64], &mut [f64])> {
        FnSystem::new(1, |t, _y: &[f64], d: &mut [f64]| d[0] = t)
    }

    /// Empirical order of convergence of a stepper on the decay problem:
    /// integrates to t = 1 with steps h and h/2 and returns
    /// log2(err_h / err_{h/2}).
    pub fn empirical_order(stepper: &mut dyn super::Stepper, h: f64) -> f64 {
        empirical_order_of(|sys, t, y, h, out| stepper.step(sys, t, y, h, out), h)
    }

    /// [`empirical_order`] of any step function
    /// `step(sys, t, y, h, out)`.
    pub fn empirical_order_of(
        mut step: impl FnMut(&dyn OdeSystem, f64, &[f64], f64, &mut [f64]),
        h: f64,
    ) -> f64 {
        let sys = decay();
        let exact = (-1.0_f64).exp();
        let mut run = |h: f64| {
            let n = (1.0 / h).round() as usize;
            let mut y = vec![1.0];
            let mut out = vec![0.0];
            let mut t = 0.0;
            for _ in 0..n {
                step(&sys, t, &y, h, &mut out);
                y.copy_from_slice(&out);
                t += h;
            }
            (y[0] - exact).abs()
        };
        let e1 = run(h);
        let e2 = run(h / 2.0);
        (e1 / e2).log2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ensure_len_grows_but_never_shrinks() {
        let mut v = vec![1.0, 2.0];
        ensure_len(&mut v, 4);
        assert_eq!(v.len(), 4);
        ensure_len(&mut v, 2);
        assert_eq!(v.len(), 4);
    }

    #[test]
    fn names_and_orders() {
        assert_eq!(Euler::new().order(), 1);
        assert_eq!(Heun::new().order(), 2);
        assert_eq!(Rk4::new().order(), 4);
        assert_eq!(ImplicitEuler::new().order(), 1);
        for name in [
            Euler::new().name(),
            Heun::new().name(),
            Rk4::new().name(),
            ImplicitEuler::new().name(),
        ] {
            assert!(!name.is_empty());
        }
    }
}
