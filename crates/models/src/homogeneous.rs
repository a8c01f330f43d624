//! The homogeneous (degree-blind) SIR baseline.
//!
//! Collapses the network to a single effective class with contact rate
//! `β` — exactly what the paper criticizes existing work for doing. The
//! ablation benchmark compares its predictions against the
//! degree-resolved model on the same aggregate quantities.

use rumor_core::control::ControlSchedule;
use rumor_ode::system::OdeSystem;

/// The homogeneous SIR rumor model with countermeasures:
///
/// ```text
/// dS/dt = α − β S I − ε1(t) S
/// dI/dt = β S I − ε2(t) I
/// dR/dt = ε1(t) S + ε2(t) I − α
/// ```
///
/// (the inflow is recycled from `R` as in the heterogeneous model's
/// conserving convention). State layout: `[S, I, R]`.
#[derive(Debug, Clone)]
pub struct HomogeneousSir<C> {
    /// Inflow rate of newly susceptible users.
    pub alpha: f64,
    /// Effective contact/acceptance rate.
    pub beta: f64,
    /// Countermeasure schedule.
    pub control: C,
}

impl<C: ControlSchedule> HomogeneousSir<C> {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics if `alpha < 0` or `beta < 0` (configuration error).
    pub fn new(alpha: f64, beta: f64, control: C) -> Self {
        assert!(alpha >= 0.0 && beta >= 0.0, "rates must be non-negative");
        HomogeneousSir {
            alpha,
            beta,
            control,
        }
    }

    /// The homogeneous threshold analogue `r0 = α β / (ε1 ε2)` (set
    /// `⟨k⟩`-scaled `β` to compare with the heterogeneous threshold).
    pub fn r0(&self, eps1: f64, eps2: f64) -> f64 {
        self.alpha * self.beta / (eps1 * eps2)
    }
}

impl<C: ControlSchedule> OdeSystem for HomogeneousSir<C> {
    fn dim(&self) -> usize {
        3
    }

    fn rhs(&self, t: f64, y: &[f64], dydt: &mut [f64]) {
        let (s, i) = (y[0], y[1]);
        let eps1 = self.control.eps1(t);
        let eps2 = self.control.eps2(t);
        let force = self.beta * s * i;
        dydt[0] = self.alpha - force - eps1 * s;
        dydt[1] = force - eps2 * i;
        dydt[2] = eps1 * s + eps2 * i - self.alpha;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rumor_core::control::ConstantControl;
    use rumor_ode::integrator::Adaptive;

    #[test]
    fn mass_conserved() {
        let m = HomogeneousSir::new(0.01, 0.5, ConstantControl::new(0.1, 0.05));
        let sol = Adaptive::new()
            .integrate(&m, 0.0, &[0.9, 0.1, 0.0], 50.0)
            .unwrap();
        let y = sol.last_state();
        assert!((y.iter().sum::<f64>() - 1.0).abs() < 1e-7);
    }

    #[test]
    fn strong_blocking_extinguishes() {
        let m = HomogeneousSir::new(0.01, 0.3, ConstantControl::new(0.2, 0.5));
        assert!(m.r0(0.2, 0.5) < 1.0);
        let sol = Adaptive::new()
            .integrate(&m, 0.0, &[0.9, 0.1, 0.0], 200.0)
            .unwrap();
        assert!(sol.last_state()[1] < 1e-4, "I = {}", sol.last_state()[1]);
    }

    #[test]
    fn weak_countermeasures_sustain_rumor() {
        let m = HomogeneousSir::new(0.05, 2.0, ConstantControl::new(0.05, 0.02));
        assert!(m.r0(0.05, 0.02) > 1.0);
        let sol = Adaptive::new()
            .integrate(&m, 0.0, &[0.9, 0.1, 0.0], 500.0)
            .unwrap();
        assert!(sol.last_state()[1] > 1e-3, "I = {}", sol.last_state()[1]);
    }

    #[test]
    fn no_infection_without_contact() {
        let m = HomogeneousSir::new(0.0, 0.0, ConstantControl::new(0.0, 0.0));
        let mut d = [0.0; 3];
        m.rhs(0.0, &[0.9, 0.1, 0.0], &mut d);
        assert_eq!(d, [0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_rate_panics() {
        let _ = HomogeneousSir::new(-0.1, 0.5, ConstantControl::new(0.0, 0.0));
    }
}
