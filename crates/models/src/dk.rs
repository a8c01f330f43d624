//! The Daley–Kendall rumor model (1965) — the lineage root the paper
//! cites as the "DK model".
//!
//! Population splits into ignorants `X`, spreaders `Y` and stiflers `Z`.
//! Spreading happens on ignorant–spreader contact; a spreader who meets
//! another spreader or a stifler stifles:
//!
//! ```text
//! dX/dt = −k β X Y
//! dY/dt =  k β X Y − k γ Y (Y + Z)
//! dZ/dt =  k γ Y (Y + Z)
//! ```
//!
//! with contact rate `k`, transmission probability `β`, stifling
//! probability `γ`. Densities satisfy `X + Y + Z = 1`.

use rumor_ode::system::OdeSystem;

/// The mean-field Daley–Kendall system. State layout: `[X, Y, Z]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DaleyKendall {
    /// Contact rate `k`.
    pub contact_rate: f64,
    /// Transmission probability `β` on ignorant–spreader contact.
    pub beta: f64,
    /// Stifling probability `γ` on spreader–(spreader|stifler) contact.
    pub gamma: f64,
}

impl DaleyKendall {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics if any rate is negative (configuration error).
    pub fn new(contact_rate: f64, beta: f64, gamma: f64) -> Self {
        assert!(
            contact_rate >= 0.0 && beta >= 0.0 && gamma >= 0.0,
            "rates must be non-negative"
        );
        DaleyKendall {
            contact_rate,
            beta,
            gamma,
        }
    }
}

impl OdeSystem for DaleyKendall {
    fn dim(&self) -> usize {
        3
    }

    fn rhs(&self, _t: f64, y: &[f64], dydt: &mut [f64]) {
        let (x, yy, z) = (y[0], y[1], y[2]);
        let k = self.contact_rate;
        let spread = k * self.beta * x * yy;
        let stifle = k * self.gamma * yy * (yy + z);
        dydt[0] = -spread;
        dydt[1] = spread - stifle;
        dydt[2] = stifle;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rumor_ode::integrator::Adaptive;

    #[test]
    fn mass_conserved() {
        let m = DaleyKendall::new(1.0, 1.0, 1.0);
        let sol = Adaptive::new()
            .integrate(&m, 0.0, &[0.99, 0.01, 0.0], 100.0)
            .unwrap();
        assert!((sol.last_state().iter().sum::<f64>() - 1.0).abs() < 1e-8);
    }

    #[test]
    fn rumor_dies_out_with_stiflers_remaining() {
        let m = DaleyKendall::new(1.0, 1.0, 1.0);
        let sol = Adaptive::new()
            .integrate(&m, 0.0, &[0.99, 0.01, 0.0], 200.0)
            .unwrap();
        let y = sol.last_state();
        assert!(y[1] < 1e-6, "spreaders must vanish, got {}", y[1]);
        assert!(y[2] > 0.5, "most should have heard and stifled");
    }

    #[test]
    fn classic_final_size_fraction() {
        // The classic final-size relation x = exp(-2(1-x)) for β = γ: about
        // 20.3% of the population never hears the rumor.
        const CLASSIC_FINAL_IGNORANT: f64 = 0.203_187_869_979_980_66;
        let m = DaleyKendall::new(1.0, 1.0, 1.0);
        let sol = Adaptive::new()
            .integrate(&m, 0.0, &[1.0 - 1e-5, 1e-5, 0.0], 2000.0)
            .unwrap();
        let x_final = sol.last_state()[0];
        assert!(
            (x_final - CLASSIC_FINAL_IGNORANT).abs() < 0.01,
            "final ignorant fraction {x_final}"
        );
    }

    #[test]
    fn no_dynamics_without_spreaders() {
        let m = DaleyKendall::new(1.0, 1.0, 1.0);
        let mut d = [0.0; 3];
        m.rhs(0.0, &[1.0, 0.0, 0.0], &mut d);
        assert_eq!(d, [0.0, 0.0, 0.0]);
    }

    #[test]
    fn ignorants_monotone_decreasing() {
        let m = DaleyKendall::new(2.0, 0.8, 0.5);
        let sol = Adaptive::new()
            .integrate(&m, 0.0, &[0.9, 0.1, 0.0], 50.0)
            .unwrap();
        let xs: Vec<f64> = sol.states().map(|s| s[0]).collect();
        for w in xs.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_rate_panics() {
        let _ = DaleyKendall::new(1.0, -0.5, 1.0);
    }
}
