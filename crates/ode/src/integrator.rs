//! Integration drivers: walk a stepper across a time interval.
//!
//! Two drivers are provided:
//!
//! * [`FixedStep`] — uniform steps with any [`Stepper`]; deterministic
//!   grids, used by the forward–backward sweep where state and co-state
//!   share a grid.
//! * [`Adaptive`] — Dormand–Prince 5(4) with PI step-size control, used
//!   for the long trajectory simulations behind Figs. 2 and 3.
//!
//! Both drivers integrate **backward** when `tf < t0` (the co-state
//! system of the Pontryagin analysis is integrated from `tf` down to 0),
//! and both support early termination through [`Event`] callbacks.

use crate::solution::Solution;
use crate::steppers::{Dopri5, Stepper};
use crate::system::OdeSystem;
use crate::{OdeError, Result};

/// An event callback inspected after every accepted step; returning
/// `true` stops the integration at that sample.
pub type Event<'a> = dyn FnMut(f64, &[f64]) -> bool + 'a;

/// Why an integration run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The final time was reached.
    Completed,
    /// An [`Event`] returned `true`.
    EventTriggered,
}

/// The outcome of an integration run: the recorded trajectory plus
/// diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// The recorded trajectory (every accepted step, endpoints included).
    pub solution: Solution,
    /// Why the run stopped.
    pub stop: StopReason,
    /// Number of accepted steps.
    pub accepted: usize,
    /// Number of rejected steps (always 0 for fixed-step runs).
    pub rejected: usize,
}

/// Folds a finished driver run into the enclosing observability span
/// and the workspace rollup counters.
fn observe_run(sp: &mut rumor_obs::Span, result: &Result<Run>) {
    match result {
        Ok(run) => {
            if sp.active() {
                sp.field("accepted", run.accepted);
                sp.field("rejected", run.rejected);
            }
            rumor_obs::add("ode.steps_accepted", run.accepted as u64);
            rumor_obs::add("ode.steps_rejected", run.rejected as u64);
        }
        Err(e) => {
            if sp.active() {
                sp.field("error", e.to_string());
            }
            rumor_obs::add("ode.integration_errors", 1);
        }
    }
}

fn validate_initial(sys: &dyn OdeSystem, y0: &[f64]) -> Result<()> {
    if y0.len() != sys.dim() {
        return Err(OdeError::DimensionMismatch {
            expected: sys.dim(),
            found: y0.len(),
        });
    }
    if y0.iter().any(|v| !v.is_finite()) {
        return Err(OdeError::NonFiniteState { t: f64::NAN });
    }
    Ok(())
}

/// Fixed-step driver wrapping any [`Stepper`].
///
/// # Example
///
/// ```
/// use rumor_ode::integrator::FixedStep;
/// use rumor_ode::steppers::Rk4;
/// use rumor_ode::system::FnSystem;
///
/// # fn main() -> Result<(), rumor_ode::OdeError> {
/// let decay = FnSystem::new(1, |_t, y: &[f64], d: &mut [f64]| d[0] = -y[0]);
/// let sol = FixedStep::new(Rk4::new(), 0.01).integrate(&decay, 0.0, &[1.0], 2.0)?;
/// assert!((sol.last_state()[0] - (-2.0_f64).exp()).abs() < 1e-8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FixedStep<S> {
    stepper: S,
    h: f64,
}

impl<S: Stepper> FixedStep<S> {
    /// Creates a fixed-step driver with step size `h > 0` (the sign is
    /// chosen automatically from the integration direction).
    pub fn new(stepper: S, h: f64) -> Self {
        FixedStep { stepper, h }
    }

    /// The configured step magnitude.
    pub fn step_size(&self) -> f64 {
        self.h
    }

    /// Integrates from `(t0, y0)` to `tf`, recording every step.
    ///
    /// # Errors
    ///
    /// * [`OdeError::InvalidStep`] if `h` is not positive and finite.
    /// * [`OdeError::DimensionMismatch`] if `y0.len() != sys.dim()`.
    /// * [`OdeError::NonFiniteState`] if the trajectory blows up.
    pub fn integrate(
        &mut self,
        sys: &(impl OdeSystem + ?Sized),
        t0: f64,
        y0: &[f64],
        tf: f64,
    ) -> Result<Solution> {
        Ok(self.run(sys, t0, y0, tf, None)?.solution)
    }

    /// Integrates with an event callback checked after every step.
    ///
    /// # Errors
    ///
    /// Same as [`FixedStep::integrate`].
    pub fn run(
        &mut self,
        sys: &(impl OdeSystem + ?Sized),
        t0: f64,
        y0: &[f64],
        tf: f64,
        event: Option<&mut Event<'_>>,
    ) -> Result<Run> {
        let mut sp = rumor_obs::span("ode.fixed_step");
        let result = self.run_inner(sys, t0, y0, tf, event);
        observe_run(&mut sp, &result);
        result
    }

    fn run_inner(
        &mut self,
        sys: &(impl OdeSystem + ?Sized),
        t0: f64,
        y0: &[f64],
        tf: f64,
        mut event: Option<&mut Event<'_>>,
    ) -> Result<Run> {
        if !(self.h.is_finite() && self.h > 0.0) {
            return Err(OdeError::InvalidStep(format!(
                "step size must be positive and finite, got {}",
                self.h
            )));
        }
        validate_initial(&sys, y0)?;
        let span = tf - t0;
        let dir = if span >= 0.0 { 1.0 } else { -1.0 };
        let n_steps = (span.abs() / self.h).ceil().max(1.0) as usize;
        let h_eff = span / n_steps as f64;

        let mut solution = Solution::with_capacity(n_steps + 1);
        let mut y = y0.to_vec();
        let mut out = vec![0.0; y.len()];
        solution.push(t0, &y);

        if span == 0.0 {
            return Ok(Run {
                solution,
                stop: StopReason::Completed,
                accepted: 0,
                rejected: 0,
            });
        }

        for k in 0..n_steps {
            let t = t0 + k as f64 * h_eff;
            self.stepper.fallible_step(&sys, t, &y, h_eff, &mut out)?;
            if out.iter().any(|v| !v.is_finite()) {
                return Err(OdeError::NonFiniteState { t: t + h_eff });
            }
            y.copy_from_slice(&out);
            let t_next = if k + 1 == n_steps { tf } else { t + h_eff };
            solution.push(t_next, &y);
            if let Some(ev) = event.as_deref_mut() {
                if ev(t_next, &y) {
                    return Ok(Run {
                        solution,
                        stop: StopReason::EventTriggered,
                        accepted: k + 1,
                        rejected: 0,
                    });
                }
            }
        }
        let _ = dir;
        Ok(Run {
            solution,
            stop: StopReason::Completed,
            accepted: n_steps,
            rejected: 0,
        })
    }

    /// Integrates and samples the trajectory at the caller's `grid`
    /// (each grid time must lie within `[t0, tf]`, in either direction).
    ///
    /// # Errors
    ///
    /// Same as [`FixedStep::integrate`].
    pub fn integrate_grid(
        &mut self,
        sys: &(impl OdeSystem + ?Sized),
        t0: f64,
        y0: &[f64],
        tf: f64,
        grid: &[f64],
    ) -> Result<Vec<Vec<f64>>> {
        let sol = self.integrate(sys, t0, y0, tf)?;
        sol.sample_grid(grid)
    }
}

/// Configuration for the adaptive Dormand–Prince driver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Relative tolerance.
    pub rtol: f64,
    /// Absolute tolerance.
    pub atol: f64,
    /// Initial step magnitude (`None` → heuristic from the tolerances).
    pub h0: Option<f64>,
    /// Maximum step magnitude.
    pub h_max: f64,
    /// Minimum step magnitude before reporting underflow.
    pub h_min: f64,
    /// Maximum number of accepted + rejected steps.
    pub max_steps: usize,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            rtol: 1e-8,
            atol: 1e-10,
            h0: None,
            h_max: f64::INFINITY,
            h_min: 1e-14,
            max_steps: 1_000_000,
        }
    }
}

impl AdaptiveConfig {
    /// Validates every field up front so a bad configuration surfaces as
    /// a structured [`OdeError::InvalidConfig`] instead of propagating
    /// NaN through an integration.
    ///
    /// # Errors
    ///
    /// Returns [`OdeError::InvalidConfig`] naming the offending field
    /// when a tolerance is non-positive or non-finite, a step bound is
    /// negative, non-finite (`h_max = ∞` is allowed), or inverted
    /// (`h_min > h_max`), `h0` is non-positive or non-finite, or
    /// `max_steps` is zero.
    pub fn validate(&self) -> Result<()> {
        let bad =
            |field: &'static str, reason: String| Err(OdeError::InvalidConfig { field, reason });
        if !(self.rtol > 0.0) || !self.rtol.is_finite() {
            return bad(
                "rtol",
                format!("must be positive and finite, got {}", self.rtol),
            );
        }
        if !(self.atol > 0.0) || !self.atol.is_finite() {
            return bad(
                "atol",
                format!("must be positive and finite, got {}", self.atol),
            );
        }
        if let Some(h0) = self.h0 {
            if !(h0 > 0.0) || !h0.is_finite() {
                return bad("h0", format!("must be positive and finite, got {h0}"));
            }
        }
        if !(self.h_max > 0.0) {
            return bad("h_max", format!("must be positive, got {}", self.h_max));
        }
        if !(self.h_min >= 0.0) || !self.h_min.is_finite() {
            return bad(
                "h_min",
                format!("must be non-negative and finite, got {}", self.h_min),
            );
        }
        if self.h_min > self.h_max {
            return bad(
                "h_min",
                format!("must not exceed h_max, got {} > {}", self.h_min, self.h_max),
            );
        }
        if self.max_steps == 0 {
            return bad("max_steps", "must be at least 1".into());
        }
        Ok(())
    }
}

/// Adaptive Dormand–Prince 5(4) driver with a PI step-size controller.
///
/// A run evaluates `f(t0, y0)` once; every step then takes its first
/// stage from the step before — the same one after a rejection, the
/// last one after an acceptance (first same as last) — and costs six
/// right-hand-side calls.
#[derive(Debug, Clone, Default)]
pub struct Adaptive {
    config: AdaptiveConfig,
    stepper: Dopri5,
}

impl Adaptive {
    /// Creates a driver with default tolerances (`rtol = 1e-8`,
    /// `atol = 1e-10`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a driver with the given configuration.
    pub fn with_config(config: AdaptiveConfig) -> Self {
        Adaptive {
            config,
            stepper: Dopri5::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &AdaptiveConfig {
        &self.config
    }

    /// Integrates from `(t0, y0)` to `tf` (backward if `tf < t0`).
    ///
    /// # Errors
    ///
    /// * [`OdeError::DimensionMismatch`] on a bad initial state.
    /// * [`OdeError::StepSizeUnderflow`] if error control cannot proceed.
    /// * [`OdeError::TooManySteps`] if the step budget is exhausted.
    /// * [`OdeError::NonFiniteState`] if the trajectory blows up.
    pub fn integrate(
        &mut self,
        sys: &(impl OdeSystem + ?Sized),
        t0: f64,
        y0: &[f64],
        tf: f64,
    ) -> Result<Solution> {
        Ok(self.run(sys, t0, y0, tf, None)?.solution)
    }

    /// Integrates with an event callback checked after every accepted
    /// step; returning `true` stops the run.
    ///
    /// # Errors
    ///
    /// Same as [`Adaptive::integrate`].
    pub fn run(
        &mut self,
        sys: &(impl OdeSystem + ?Sized),
        t0: f64,
        y0: &[f64],
        tf: f64,
        event: Option<&mut Event<'_>>,
    ) -> Result<Run> {
        let mut sp = rumor_obs::span("ode.adaptive");
        let mut rhs_evals = 0;
        let result = self.run_inner(sys, t0, y0, tf, event, &mut rhs_evals);
        observe_run(&mut sp, &result);
        if sp.active() {
            sp.field("rhs_evals", rhs_evals);
        }
        rumor_obs::add("ode.rhs_evals", rhs_evals as u64);
        result
    }

    /// The driver loop; adds every right-hand-side call it makes to
    /// `rhs_evals`, on success and failure alike.
    fn run_inner(
        &mut self,
        sys: &(impl OdeSystem + ?Sized),
        t0: f64,
        y0: &[f64],
        tf: f64,
        mut event: Option<&mut Event<'_>>,
        rhs_evals: &mut usize,
    ) -> Result<Run> {
        validate_initial(&sys, y0)?;
        let cfg = self.config;
        cfg.validate()?;
        let span = tf - t0;
        let mut solution = Solution::new();
        let mut y = y0.to_vec();
        solution.push(t0, &y);
        if span == 0.0 {
            return Ok(Run {
                solution,
                stop: StopReason::Completed,
                accepted: 0,
                rejected: 0,
            });
        }
        let dir = span.signum();
        let mut h = dir
            * cfg
                .h0
                .unwrap_or_else(|| (span.abs() / 100.0).min(cfg.h_max).max(cfg.h_min * 10.0))
                .abs();
        let n = y.len();
        let mut out = vec![0.0; n];
        let mut t = t0;
        let mut accepted = 0usize;
        let mut rejected = 0usize;
        // PI controller memory.
        let mut err_prev: f64 = 1.0;
        // The first step's first stage. Every later step takes its first
        // stage from the step before: a rejected step leaves `(t, y)` and
        // its first stage as they were, and an accepted one hands over its
        // last stage, which is `f` at the new `(t, y)`.
        self.stepper.first_stage(&sys, t, &y);
        *rhs_evals += 1;

        for _ in 0..cfg.max_steps {
            // Clamp the final step onto tf exactly.
            if (tf - t) * dir <= 0.0 {
                break;
            }
            if ((t + h) - tf) * dir > 0.0 {
                h = tf - t;
            }
            let norm2 =
                self.stepper
                    .step_from_first_stage(&sys, t, &y, h, (cfg.atol, cfg.rtol), &mut out);
            *rhs_evals += 6;
            let Some(norm2) = norm2 else {
                return Err(OdeError::NonFiniteState { t: t + h });
            };
            // Weighted RMS error norm.
            let err_norm = (norm2 / n as f64).sqrt().max(1e-16);

            if err_norm <= 1.0 {
                // Accept: the step becomes the state, and the old state
                // the next step's output buffer.
                t += h;
                std::mem::swap(&mut y, &mut out);
                self.stepper.reuse_last_stage(&y);
                solution.push(t, &y);
                accepted += 1;
                if let Some(ev) = event.as_deref_mut() {
                    if ev(t, &y) {
                        return Ok(Run {
                            solution,
                            stop: StopReason::EventTriggered,
                            accepted,
                            rejected,
                        });
                    }
                }
                // PI step-size update (orders: 5 with 4th-order estimate).
                let fac = 0.9 * err_norm.powf(-0.7 / 5.0) * err_prev.powf(0.4 / 5.0);
                let fac = fac.clamp(0.2, 5.0);
                h = (h * fac).clamp(-cfg.h_max, cfg.h_max);
                if h.abs() < cfg.h_min {
                    h = cfg.h_min * dir;
                }
                err_prev = err_norm;
            } else {
                // Reject and shrink.
                rejected += 1;
                let fac = (0.9 * err_norm.powf(-1.0 / 5.0)).clamp(0.1, 0.9);
                h *= fac;
                if h.abs() < cfg.h_min {
                    return Err(OdeError::StepSizeUnderflow { t, h });
                }
            }
        }
        if (tf - t) * dir > 1e-12 * span.abs().max(1.0) {
            return Err(OdeError::TooManySteps {
                max_steps: cfg.max_steps,
                t,
            });
        }
        Ok(Run {
            solution,
            stop: StopReason::Completed,
            accepted,
            rejected,
        })
    }

    /// Integrates and samples the trajectory at the caller's `grid`.
    ///
    /// # Errors
    ///
    /// Same as [`Adaptive::integrate`].
    pub fn integrate_grid(
        &mut self,
        sys: &(impl OdeSystem + ?Sized),
        t0: f64,
        y0: &[f64],
        tf: f64,
        grid: &[f64],
    ) -> Result<Vec<Vec<f64>>> {
        let sol = self.integrate(sys, t0, y0, tf)?;
        sol.sample_grid(grid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::steppers::{Euler, Heun, Rk4};
    use crate::system::FnSystem;

    fn decay() -> FnSystem<impl Fn(f64, &[f64], &mut [f64])> {
        FnSystem::new(1, |_t, y: &[f64], d: &mut [f64]| d[0] = -y[0])
    }

    fn oscillator() -> FnSystem<impl Fn(f64, &[f64], &mut [f64])> {
        FnSystem::new(2, |_t, y: &[f64], d: &mut [f64]| {
            d[0] = y[1];
            d[1] = -y[0];
        })
    }

    #[test]
    fn fixed_step_rk4_decay() {
        let sol = FixedStep::new(Rk4::new(), 0.01)
            .integrate(&decay(), 0.0, &[1.0], 1.0)
            .unwrap();
        assert!((sol.last_state()[0] - (-1.0_f64).exp()).abs() < 1e-9);
        assert_eq!(sol.last_time(), 1.0);
    }

    #[test]
    fn fixed_step_backward_integration() {
        // Integrate forward then backward: must return to the start.
        let fwd = FixedStep::new(Rk4::new(), 0.01)
            .integrate(&decay(), 0.0, &[1.0], 1.0)
            .unwrap();
        let bwd = FixedStep::new(Rk4::new(), 0.01)
            .integrate(&decay(), 1.0, fwd.last_state(), 0.0)
            .unwrap();
        assert!((bwd.last_state()[0] - 1.0).abs() < 1e-8);
        assert_eq!(bwd.last_time(), 0.0);
        assert!(bwd.times()[0] > bwd.last_time(), "backward times decrease");
    }

    #[test]
    fn fixed_step_zero_span() {
        let sol = FixedStep::new(Euler::new(), 0.1)
            .integrate(&decay(), 1.0, &[2.0], 1.0)
            .unwrap();
        assert_eq!(sol.len(), 1);
        assert_eq!(sol.last_state(), &[2.0]);
    }

    #[test]
    fn fixed_step_validates_input() {
        assert!(matches!(
            FixedStep::new(Euler::new(), 0.0).integrate(&decay(), 0.0, &[1.0], 1.0),
            Err(OdeError::InvalidStep(_))
        ));
        assert!(matches!(
            FixedStep::new(Euler::new(), 0.1).integrate(&decay(), 0.0, &[1.0, 2.0], 1.0),
            Err(OdeError::DimensionMismatch { .. })
        ));
        assert!(FixedStep::new(Euler::new(), 0.1)
            .integrate(&decay(), 0.0, &[f64::NAN], 1.0)
            .is_err());
    }

    #[test]
    fn fixed_step_event_stops_early() {
        let mut ev = |_t: f64, y: &[f64]| y[0] < 0.5;
        let run = FixedStep::new(Rk4::new(), 0.01)
            .run(&decay(), 0.0, &[1.0], 10.0, Some(&mut ev))
            .unwrap();
        assert_eq!(run.stop, StopReason::EventTriggered);
        assert!(run.solution.last_time() < 1.0); // ln 2 ≈ 0.693
        assert!(run.solution.last_state()[0] < 0.5);
    }

    #[test]
    fn fixed_step_lands_exactly_on_tf() {
        // 0.3 step into a span of 1.0 does not divide evenly.
        let sol = FixedStep::new(Rk4::new(), 0.3)
            .integrate(&decay(), 0.0, &[1.0], 1.0)
            .unwrap();
        assert_eq!(sol.last_time(), 1.0);
    }

    #[test]
    fn fixed_step_grid_sampling() {
        let grid = [0.0, 0.25, 0.5, 1.0];
        let samples = FixedStep::new(Rk4::new(), 0.005)
            .integrate_grid(&decay(), 0.0, &[1.0], 1.0, &grid)
            .unwrap();
        for (t, s) in grid.iter().zip(&samples) {
            assert!((s[0] - (-t).exp()).abs() < 1e-4, "at t = {t}");
        }
    }

    #[test]
    fn nonfinite_rhs_detected() {
        let bad = FnSystem::new(1, |_t, y: &[f64], d: &mut [f64]| d[0] = y[0] * y[0]);
        // y' = y² blows up at t = 1 for y0 = 1.
        let r = FixedStep::new(Euler::new(), 0.001).integrate(&bad, 0.0, &[1.0], 5.0);
        assert!(matches!(r, Err(OdeError::NonFiniteState { .. })));
    }

    #[test]
    fn adaptive_decay_high_accuracy() {
        let sol = Adaptive::new()
            .integrate(&decay(), 0.0, &[1.0], 5.0)
            .unwrap();
        assert!((sol.last_state()[0] - (-5.0_f64).exp()).abs() < 1e-8);
    }

    #[test]
    fn adaptive_oscillator_long_run() {
        let tf = 20.0 * std::f64::consts::PI;
        let sol = Adaptive::new()
            .integrate(&oscillator(), 0.0, &[1.0, 0.0], tf)
            .unwrap();
        assert!((sol.last_state()[0] - 1.0).abs() < 1e-5);
        assert!(sol.last_state()[1].abs() < 1e-5);
    }

    #[test]
    fn adaptive_takes_fewer_steps_at_loose_tolerance() {
        let tight = Adaptive::with_config(AdaptiveConfig {
            rtol: 1e-10,
            atol: 1e-12,
            ..Default::default()
        })
        .run(&oscillator(), 0.0, &[1.0, 0.0], 10.0, None)
        .unwrap();
        let loose = Adaptive::with_config(AdaptiveConfig {
            rtol: 1e-4,
            atol: 1e-6,
            ..Default::default()
        })
        .run(&oscillator(), 0.0, &[1.0, 0.0], 10.0, None)
        .unwrap();
        assert!(loose.accepted < tight.accepted);
    }

    #[test]
    fn adaptive_backward_integration() {
        let sol = Adaptive::new()
            .integrate(&decay(), 1.0, &[0.5], 0.0)
            .unwrap();
        assert_eq!(sol.last_time(), 0.0);
        assert!((sol.last_state()[0] - 0.5 * 1.0_f64.exp()).abs() < 1e-7);
    }

    #[test]
    fn adaptive_event_stops_early() {
        let mut ev = |_t: f64, y: &[f64]| y[0] < 0.1;
        let run = Adaptive::new()
            .run(&decay(), 0.0, &[1.0], 100.0, Some(&mut ev))
            .unwrap();
        assert_eq!(run.stop, StopReason::EventTriggered);
        assert!(run.solution.last_time() < 100.0);
    }

    #[test]
    fn adaptive_step_budget_enforced() {
        let cfg = AdaptiveConfig {
            max_steps: 3,
            ..Default::default()
        };
        let r = Adaptive::with_config(cfg).integrate(&oscillator(), 0.0, &[1.0, 0.0], 100.0);
        assert!(matches!(r, Err(OdeError::TooManySteps { .. })));
    }

    #[test]
    fn adaptive_rejects_bad_tolerances() {
        let cfg = AdaptiveConfig {
            rtol: 0.0,
            ..Default::default()
        };
        assert!(Adaptive::with_config(cfg)
            .integrate(&decay(), 0.0, &[1.0], 1.0)
            .is_err());
    }

    #[test]
    fn adaptive_zero_span_is_identity() {
        let sol = Adaptive::new()
            .integrate(&decay(), 2.0, &[3.0], 2.0)
            .unwrap();
        assert_eq!(sol.len(), 1);
        assert_eq!(sol.last_state(), &[3.0]);
    }

    #[test]
    fn adaptive_matches_fixed_step_reference() {
        // Nonautonomous system: y' = sin(t) - y.
        let sys = FnSystem::new(1, |t: f64, y: &[f64], d: &mut [f64]| d[0] = t.sin() - y[0]);
        let a = Adaptive::new().integrate(&sys, 0.0, &[0.0], 3.0).unwrap();
        let f = FixedStep::new(Rk4::new(), 1e-4)
            .integrate(&sys, 0.0, &[0.0], 3.0)
            .unwrap();
        assert!((a.last_state()[0] - f.last_state()[0]).abs() < 1e-7);
    }

    #[test]
    fn heun_driver_second_order_global_error() {
        let e_h = {
            let s = FixedStep::new(Heun::new(), 0.02)
                .integrate(&decay(), 0.0, &[1.0], 1.0)
                .unwrap();
            (s.last_state()[0] - (-1.0_f64).exp()).abs()
        };
        let e_h2 = {
            let s = FixedStep::new(Heun::new(), 0.01)
                .integrate(&decay(), 0.0, &[1.0], 1.0)
                .unwrap();
            (s.last_state()[0] - (-1.0_f64).exp()).abs()
        };
        let ratio = e_h / e_h2;
        assert!(ratio > 3.0 && ratio < 5.0, "ratio {ratio}");
    }
}
