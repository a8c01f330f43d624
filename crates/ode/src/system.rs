//! The [`OdeSystem`] trait — the interface every dynamical model in the
//! workspace implements.

/// A first-order ODE system `dy/dt = f(t, y)`.
///
/// Implementors write the derivative into a caller-provided buffer so the
/// integrators can run allocation-free in their inner loops.
///
/// # Example
///
/// ```
/// use rumor_ode::system::OdeSystem;
///
/// /// The harmonic oscillator x'' = -x as a first-order system.
/// struct Oscillator;
///
/// impl OdeSystem for Oscillator {
///     fn dim(&self) -> usize { 2 }
///     fn rhs(&self, _t: f64, y: &[f64], dydt: &mut [f64]) {
///         dydt[0] = y[1];
///         dydt[1] = -y[0];
///     }
/// }
/// ```
pub trait OdeSystem {
    /// Dimension of the state vector.
    fn dim(&self) -> usize;

    /// Writes `f(t, y)` into `dydt`, every component of it.
    ///
    /// Both slices have length [`OdeSystem::dim`]; the integrators
    /// guarantee this.
    ///
    /// The result must depend on `(t, y)` alone: the same bits in give
    /// the same bits out, whatever was evaluated before. Drivers rely on
    /// this to reuse a derivative at an identical `(t, y)` instead of
    /// calling again — the adaptive driver evaluates the first stage of
    /// a step only once per run (see [`crate::steppers::Dopri5`]).
    /// Interior scratch and call tallies are fine; a tally then counts
    /// only the calls actually made.
    fn rhs(&self, t: f64, y: &[f64], dydt: &mut [f64]);
}

/// Blanket implementation so `&S` can be passed wherever an owned system
/// is expected.
impl<S: OdeSystem + ?Sized> OdeSystem for &S {
    fn dim(&self) -> usize {
        (**self).dim()
    }

    fn rhs(&self, t: f64, y: &[f64], dydt: &mut [f64]) {
        (**self).rhs(t, y, dydt)
    }
}

/// An [`OdeSystem`] defined by a closure, convenient for tests and small
/// models.
///
/// # Example
///
/// ```
/// use rumor_ode::system::{FnSystem, OdeSystem};
///
/// let decay = FnSystem::new(1, |_t, y: &[f64], dydt: &mut [f64]| dydt[0] = -0.5 * y[0]);
/// let mut out = [0.0];
/// decay.rhs(0.0, &[2.0], &mut out);
/// assert_eq!(out[0], -1.0);
/// ```
pub struct FnSystem<F> {
    dim: usize,
    f: F,
}

impl<F: Fn(f64, &[f64], &mut [f64])> FnSystem<F> {
    /// Wraps a closure as an ODE system of the given dimension.
    pub fn new(dim: usize, f: F) -> Self {
        FnSystem { dim, f }
    }
}

impl<F: Fn(f64, &[f64], &mut [f64])> OdeSystem for FnSystem<F> {
    fn dim(&self) -> usize {
        self.dim
    }

    fn rhs(&self, t: f64, y: &[f64], dydt: &mut [f64]) {
        (self.f)(t, y, dydt)
    }
}

impl<F> std::fmt::Debug for FnSystem<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnSystem").field("dim", &self.dim).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_system_evaluates_closure() {
        let sys = FnSystem::new(2, |t, y: &[f64], d: &mut [f64]| {
            d[0] = y[1] + t;
            d[1] = -y[0];
        });
        assert_eq!(sys.dim(), 2);
        let mut d = [0.0; 2];
        sys.rhs(1.0, &[3.0, 4.0], &mut d);
        assert_eq!(d, [5.0, -3.0]);
    }

    #[test]
    fn reference_blanket_impl() {
        fn takes_system(s: impl OdeSystem) -> usize {
            s.dim()
        }
        let sys = FnSystem::new(3, |_, _: &[f64], _: &mut [f64]| {});
        assert_eq!(takes_system(&sys), 3);
        assert_eq!(takes_system(&sys), 3);
    }

    #[test]
    fn debug_is_nonempty() {
        let sys = FnSystem::new(1, |_, _: &[f64], _: &mut [f64]| {});
        assert!(format!("{sys:?}").contains("dim"));
    }
}
