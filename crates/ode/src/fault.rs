//! Deterministic fault injection for exercising recovery paths.
//!
//! [`FaultyRhs`] wraps any [`OdeSystem`] and corrupts its right-hand
//! side according to a fixed [`FaultSchedule`]: a NaN window, a
//! stiffness spike, or a perturbation burst, each active on a closed
//! time interval. Injection is purely a function of `t`, so every run
//! against the same schedule sees exactly the same faults — the tests in
//! `crates/ode/tests/recovery.rs` and the CLI's `selftest` command rely
//! on that reproducibility.

use crate::system::OdeSystem;
use std::cell::Cell;

/// What a fault does to the right-hand side while active.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Every derivative component becomes NaN — models a corrupted
    /// parameter or an out-of-domain special-function evaluation.
    Nan,
    /// Adds `-factor · y` to the derivative, making the system stiff by
    /// `factor` relative to its natural time scale.
    StiffnessSpike {
        /// Stiffness ratio; `1e4` comfortably breaks a loose-tolerance
        /// explicit integrator's step-size control.
        factor: f64,
    },
    /// Adds a deterministic high-frequency forcing
    /// `amplitude · sin(frequency · t)` to every component.
    PerturbationBurst {
        /// Forcing amplitude.
        amplitude: f64,
        /// Forcing angular frequency.
        frequency: f64,
    },
}

/// One scheduled fault: a [`FaultKind`] active on `[t_start, t_end)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fault {
    /// Start of the active window.
    pub t_start: f64,
    /// End of the active window (exclusive).
    pub t_end: f64,
    /// What happens inside the window.
    pub kind: FaultKind,
}

impl Fault {
    /// Whether this fault is active at time `t` (direction-agnostic:
    /// the window is checked on the interval's natural order, so it
    /// also triggers during backward integration passes).
    pub fn active_at(&self, t: f64) -> bool {
        let (lo, hi) = if self.t_start <= self.t_end {
            (self.t_start, self.t_end)
        } else {
            (self.t_end, self.t_start)
        };
        t >= lo && t < hi
    }
}

/// An ordered set of scheduled faults.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    faults: Vec<Fault>,
}

impl FaultSchedule {
    /// An empty schedule (the wrapper becomes a transparent pass-through).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a NaN window `[t, t + duration)`.
    #[must_use]
    pub fn nan_at(mut self, t: f64, duration: f64) -> Self {
        self.faults.push(Fault {
            t_start: t,
            t_end: t + duration,
            kind: FaultKind::Nan,
        });
        self
    }

    /// Adds a stiffness spike on `[t, t + duration)`.
    #[must_use]
    pub fn stiffness_spike(mut self, t: f64, duration: f64, factor: f64) -> Self {
        self.faults.push(Fault {
            t_start: t,
            t_end: t + duration,
            kind: FaultKind::StiffnessSpike { factor },
        });
        self
    }

    /// Adds a perturbation burst on `[t, t + duration)`.
    #[must_use]
    pub fn perturbation_burst(
        mut self,
        t: f64,
        duration: f64,
        amplitude: f64,
        frequency: f64,
    ) -> Self {
        self.faults.push(Fault {
            t_start: t,
            t_end: t + duration,
            kind: FaultKind::PerturbationBurst {
                amplitude,
                frequency,
            },
        });
        self
    }

    /// The scheduled faults.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }
}

/// An [`OdeSystem`] wrapper that applies a [`FaultSchedule`] to the
/// wrapped system's right-hand side.
///
/// # Example
///
/// ```
/// use rumor_ode::fault::{FaultSchedule, FaultyRhs};
/// use rumor_ode::system::{FnSystem, OdeSystem};
///
/// let decay = FnSystem::new(1, |_t, y: &[f64], d: &mut [f64]| d[0] = -y[0]);
/// let faulty = FaultyRhs::new(&decay, FaultSchedule::new().nan_at(0.5, 0.1));
/// let mut d = [0.0];
/// faulty.rhs(0.0, &[1.0], &mut d);
/// assert!(d[0].is_finite());
/// faulty.rhs(0.55, &[1.0], &mut d);
/// assert!(d[0].is_nan());
/// assert_eq!(faulty.injections(), 1);
/// ```
#[derive(Debug)]
pub struct FaultyRhs<S: ?Sized> {
    schedule: FaultSchedule,
    injections: Cell<usize>,
    inner: S,
}

impl<S: OdeSystem> FaultyRhs<S> {
    /// Wraps `inner` with the given schedule.
    pub fn new(inner: S, schedule: FaultSchedule) -> Self {
        FaultyRhs {
            schedule,
            injections: Cell::new(0),
            inner,
        }
    }
}

impl<S: OdeSystem + ?Sized> FaultyRhs<S> {
    /// Number of RHS evaluations that had at least one active fault.
    pub fn injections(&self) -> usize {
        self.injections.get()
    }

    /// The schedule driving the injections.
    pub fn schedule(&self) -> &FaultSchedule {
        &self.schedule
    }
}

impl<S: OdeSystem + ?Sized> OdeSystem for FaultyRhs<S> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn rhs(&self, t: f64, y: &[f64], dydt: &mut [f64]) {
        self.inner.rhs(t, y, dydt);
        let mut injected = false;
        for fault in &self.schedule.faults {
            if !fault.active_at(t) {
                continue;
            }
            injected = true;
            match fault.kind {
                FaultKind::Nan => {
                    for d in dydt.iter_mut() {
                        *d = f64::NAN;
                    }
                }
                FaultKind::StiffnessSpike { factor } => {
                    for (d, &yi) in dydt.iter_mut().zip(y) {
                        *d -= factor * yi;
                    }
                }
                FaultKind::PerturbationBurst {
                    amplitude,
                    frequency,
                } => {
                    let forcing = amplitude * (frequency * t).sin();
                    for d in dydt.iter_mut() {
                        *d += forcing;
                    }
                }
            }
        }
        if injected {
            // Tally locally only: the RHS is the integrator's innermost
            // loop, so the shared rollup table is touched once per
            // wrapper lifetime (see `Drop`), not once per evaluation.
            self.injections.set(self.injections.get() + 1);
        }
    }
}

impl<S: ?Sized> Drop for FaultyRhs<S> {
    fn drop(&mut self) {
        let n = self.injections.get();
        if n > 0 {
            rumor_obs::add("ode.fault_injections", n as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::FnSystem;

    fn decay() -> FnSystem<impl Fn(f64, &[f64], &mut [f64])> {
        FnSystem::new(1, |_t, y: &[f64], d: &mut [f64]| d[0] = -y[0])
    }

    #[test]
    fn empty_schedule_is_transparent() {
        let faulty = FaultyRhs::new(decay(), FaultSchedule::new());
        let mut d = [0.0];
        faulty.rhs(3.0, &[2.0], &mut d);
        assert_eq!(d[0], -2.0);
        assert_eq!(faulty.injections(), 0);
    }

    #[test]
    fn nan_window_hits_only_inside() {
        let faulty = FaultyRhs::new(decay(), FaultSchedule::new().nan_at(1.0, 0.5));
        let mut d = [0.0];
        for t in [0.0, 0.99, 1.5, 2.0] {
            faulty.rhs(t, &[1.0], &mut d);
            assert!(d[0].is_finite(), "t = {t} should be clean");
        }
        faulty.rhs(1.25, &[1.0], &mut d);
        assert!(d[0].is_nan());
        assert_eq!(faulty.injections(), 1);
    }

    #[test]
    fn stiffness_spike_scales_decay() {
        let faulty = FaultyRhs::new(decay(), FaultSchedule::new().stiffness_spike(0.0, 1.0, 1e4));
        let mut d = [0.0];
        faulty.rhs(0.5, &[1.0], &mut d);
        assert!((d[0] - (-1.0 - 1e4)).abs() < 1e-9);
    }

    #[test]
    fn perturbation_burst_is_deterministic() {
        let schedule = FaultSchedule::new().perturbation_burst(0.0, 10.0, 2.0, 3.0);
        let a = FaultyRhs::new(decay(), schedule.clone());
        let b = FaultyRhs::new(decay(), schedule);
        let (mut da, mut db) = ([0.0], [0.0]);
        for t in [0.1, 0.7, 4.4] {
            a.rhs(t, &[1.0], &mut da);
            b.rhs(t, &[1.0], &mut db);
            assert_eq!(da[0], db[0]);
            assert_ne!(da[0], -1.0, "burst must actually perturb");
        }
    }

    #[test]
    fn windows_trigger_for_backward_passes_too() {
        let fault = Fault {
            t_start: 2.0,
            t_end: 1.0,
            kind: FaultKind::Nan,
        };
        assert!(fault.active_at(1.5));
        assert!(!fault.active_at(0.5));
    }
}
