//! Countermeasure schedules.
//!
//! The two countermeasure channels of the model are time-varying rates:
//! `ε1(t)` (spreading truth — immunizing susceptibles) and `ε2(t)`
//! (blocking rumors — removing spreaders). [`ControlSchedule`] abstracts
//! over how those rates are produced; the optimal-control crate
//! implements it for interpolated schedules produced by the
//! forward–backward sweep, while [`ConstantControl`] covers the
//! fixed-rate analysis of Section III.

/// A time-varying pair of countermeasure rates.
pub trait ControlSchedule {
    /// Truth-spreading (immunization) rate `ε1(t) ≥ 0`.
    fn eps1(&self, t: f64) -> f64;

    /// Rumor-blocking rate `ε2(t) ≥ 0`.
    fn eps2(&self, t: f64) -> f64;
}

/// Blanket implementation for references.
impl<C: ControlSchedule + ?Sized> ControlSchedule for &C {
    fn eps1(&self, t: f64) -> f64 {
        (**self).eps1(t)
    }

    fn eps2(&self, t: f64) -> f64 {
        (**self).eps2(t)
    }
}

/// Constant countermeasures `(ε1, ε2)` — the setting of the equilibrium
/// and stability analysis (Theorems 1–5).
///
/// # Example
///
/// ```
/// use rumor_core::control::{ConstantControl, ControlSchedule};
///
/// let c = ConstantControl::new(0.2, 0.05);
/// assert_eq!(c.eps1(3.0), 0.2);
/// assert_eq!(c.eps2(99.0), 0.05);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstantControl {
    eps1: f64,
    eps2: f64,
}

impl ConstantControl {
    /// Creates a constant schedule.
    ///
    /// # Panics
    ///
    /// Panics if either rate is negative or non-finite — constant rates
    /// are part of the experiment configuration and must be valid.
    pub fn new(eps1: f64, eps2: f64) -> Self {
        assert!(
            eps1 >= 0.0 && eps1.is_finite() && eps2 >= 0.0 && eps2.is_finite(),
            "countermeasure rates must be non-negative and finite"
        );
        ConstantControl { eps1, eps2 }
    }
}

impl ControlSchedule for ConstantControl {
    fn eps1(&self, _t: f64) -> f64 {
        self.eps1
    }

    fn eps2(&self, _t: f64) -> f64 {
        self.eps2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_control_is_time_invariant() {
        let c = ConstantControl::new(0.3, 0.1);
        for t in [0.0, 1.0, 1e6] {
            assert_eq!(c.eps1(t), 0.3);
            assert_eq!(c.eps2(t), 0.1);
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_rate_panics() {
        let _ = ConstantControl::new(-0.1, 0.0);
    }

    #[test]
    fn reference_blanket_impl() {
        fn sum_at<C: ControlSchedule>(c: C, t: f64) -> f64 {
            c.eps1(t) + c.eps2(t)
        }
        let c = ConstantControl::new(0.1, 0.2);
        assert!((sum_at(c, 0.0) - 0.3).abs() < 1e-15);
        let dynref: &dyn ControlSchedule = &c;
        assert!((sum_at(dynref, 0.0) - 0.3).abs() < 1e-15);
    }
}
