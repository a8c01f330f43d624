//! Control schedules with a model-defined channel count.
//!
//! The legacy [`rumor_core::control::ControlSchedule`] fixes two named
//! channels (`ε1`, `ε2`). Generalized models declare `n_controls ≥ 1`
//! channels instead, and evaluate them all at once into a caller-owned
//! buffer so the ODE hot loop stays allocation-free.

/// A time-varying control vector `u(t) ∈ R^{n_controls}`.
pub trait MultiControlSchedule {
    /// Number of control channels.
    fn n_controls(&self) -> usize;

    /// Evaluates every channel at time `t` into `out`.
    ///
    /// Implementations must fill exactly `out[..n_controls]`.
    fn eval_into(&self, t: f64, out: &mut [f64]);
}

impl<C: MultiControlSchedule + ?Sized> MultiControlSchedule for &C {
    fn n_controls(&self) -> usize {
        (**self).n_controls()
    }

    fn eval_into(&self, t: f64, out: &mut [f64]) {
        (**self).eval_into(t, out)
    }
}

/// Time-constant control levels, the multi-channel analogue of
/// [`rumor_core::control::ConstantControl`].
#[derive(Debug, Clone, PartialEq)]
pub struct ConstantMultiControl {
    levels: Vec<f64>,
}

impl ConstantMultiControl {
    /// Creates constant levels.
    ///
    /// # Panics
    ///
    /// Panics if any level is negative or non-finite, or if `levels` is
    /// empty — mirroring `ConstantControl::new`, which treats a bad
    /// constant rate as a programming error rather than a runtime
    /// condition.
    pub fn new(levels: Vec<f64>) -> Self {
        assert!(!levels.is_empty(), "need at least one control channel");
        assert!(
            levels.iter().all(|x| x.is_finite() && *x >= 0.0),
            "control levels must be non-negative and finite, got {levels:?}"
        );
        ConstantMultiControl { levels }
    }
}

impl MultiControlSchedule for ConstantMultiControl {
    fn n_controls(&self) -> usize {
        self.levels.len()
    }

    fn eval_into(&self, _t: f64, out: &mut [f64]) {
        out[..self.levels.len()].copy_from_slice(&self.levels);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_levels_everywhere() {
        let c = ConstantMultiControl::new(vec![0.3, 0.1, 0.0]);
        assert_eq!(c.n_controls(), 3);
        let mut u = [0.0; 3];
        for t in [0.0, 1.5, 99.0] {
            c.eval_into(t, &mut u);
            assert_eq!(u, [0.3, 0.1, 0.0]);
        }
        // The blanket `&C` impl forwards.
        fn channels<C: MultiControlSchedule>(c: C) -> usize {
            c.n_controls()
        }
        assert_eq!(channels(&c), 3);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_level_rejected() {
        let _ = ConstantMultiControl::new(vec![0.1, -0.2]);
    }
}
