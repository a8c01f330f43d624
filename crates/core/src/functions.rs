//! The degree-dependent rate functions of the model.
//!
//! Two families parameterize how a node's social connectivity `k` shapes
//! the dynamics:
//!
//! * [`AcceptanceRate`] — `λ(k)`, the probability a susceptible with
//!   degree `k` believes the rumor on contact. The paper's experiments
//!   use `λ(k) = k` scaled to hit a target threshold (see
//!   `equilibrium::calibrate_acceptance`).
//! * [`Infectivity`] — `ω(k)`, how many effective contacts an infected
//!   node of degree `k` produces. The paper argues for the saturating
//!   `ω(k) = k^β/(1 + k^γ)` (Section III) and uses `β = γ = 0.5`.

/// The rumor acceptance rate `λ(k)` of susceptible individuals.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum AcceptanceRate {
    /// Degree-independent acceptance: `λ(k) = λ0`.
    Constant {
        /// The constant acceptance rate.
        lambda0: f64,
    },
    /// Acceptance grows linearly with connectivity: `λ(k) = λ0·k`
    /// (the paper's Section V choice, with `λ0` calibrated).
    LinearInDegree {
        /// Scale factor applied to the degree.
        lambda0: f64,
    },
}

impl AcceptanceRate {
    /// Evaluates `λ(k)`.
    pub fn eval(&self, k: usize) -> f64 {
        let kf = k as f64;
        match *self {
            AcceptanceRate::Constant { lambda0 } => lambda0,
            AcceptanceRate::LinearInDegree { lambda0 } => lambda0 * kf,
        }
    }

    /// Returns a copy with every output multiplied by `factor` — the
    /// primitive behind threshold calibration (`r0` is linear in the
    /// acceptance scale for every family).
    pub fn scaled(&self, factor: f64) -> AcceptanceRate {
        match *self {
            AcceptanceRate::Constant { lambda0 } => AcceptanceRate::Constant {
                lambda0: lambda0 * factor,
            },
            AcceptanceRate::LinearInDegree { lambda0 } => AcceptanceRate::LinearInDegree {
                lambda0: lambda0 * factor,
            },
        }
    }

    /// Validates the family's parameters.
    ///
    /// # Errors
    ///
    /// Returns a message describing the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            AcceptanceRate::Constant { lambda0 } | AcceptanceRate::LinearInDegree { lambda0 } => {
                if !(lambda0 > 0.0) || !lambda0.is_finite() {
                    return Err(format!(
                        "lambda0 must be positive and finite, got {lambda0}"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// The infectivity `ω(k)` of infected individuals.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum Infectivity {
    /// Identical infectivity regardless of degree: `ω(k) = c`
    /// (Yang et al. 2007).
    Constant {
        /// The constant infectivity.
        c: f64,
    },
    /// Infectivity proportional to degree: `ω(k) = k`
    /// (Moreno–Pastor-Satorras–Vespignani 2002).
    Linear,
    /// Saturating nonlinear infectivity `ω(k) = k^β / (1 + k^γ)`
    /// (Zhu–Fu–Chen 2012; the paper's choice with `β = γ = 0.5`).
    Saturating {
        /// Numerator exponent.
        beta: f64,
        /// Denominator exponent.
        gamma: f64,
    },
}

impl Infectivity {
    /// Evaluates `ω(k)`.
    pub fn eval(&self, k: usize) -> f64 {
        let kf = k as f64;
        match *self {
            Infectivity::Constant { c } => c,
            Infectivity::Linear => kf,
            Infectivity::Saturating { beta, gamma } => kf.powf(beta) / (1.0 + kf.powf(gamma)),
        }
    }

    /// The paper's experimental setting: `ω(k) = k^0.5/(1 + k^0.5)`.
    pub fn paper_default() -> Self {
        Infectivity::Saturating {
            beta: 0.5,
            gamma: 0.5,
        }
    }

    /// Validates the family's parameters.
    ///
    /// # Errors
    ///
    /// Returns a message describing the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            Infectivity::Constant { c } => {
                if !(c > 0.0) || !c.is_finite() {
                    return Err(format!("infectivity constant must be positive, got {c}"));
                }
            }
            Infectivity::Linear => {}
            Infectivity::Saturating { beta, gamma } => {
                if !beta.is_finite() || !gamma.is_finite() || beta <= 0.0 || gamma < 0.0 {
                    return Err(format!(
                        "saturating infectivity needs beta > 0 and gamma >= 0, got beta = {beta}, gamma = {gamma}"
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acceptance_families_evaluate() {
        assert_eq!(AcceptanceRate::Constant { lambda0: 0.3 }.eval(10), 0.3);
        assert_eq!(AcceptanceRate::LinearInDegree { lambda0: 0.1 }.eval(5), 0.5);
    }

    #[test]
    fn scaled_multiplies_output() {
        for f in [0.5, 2.0] {
            let a = AcceptanceRate::LinearInDegree { lambda0: 0.2 };
            assert!((a.scaled(f).eval(7) - f * a.eval(7)).abs() < 1e-12);
            let c = AcceptanceRate::Constant { lambda0: 0.2 };
            assert!((c.scaled(f).eval(7) - f * c.eval(7)).abs() < 1e-12);
        }
    }

    #[test]
    fn acceptance_validation() {
        assert!(AcceptanceRate::Constant { lambda0: 0.1 }.validate().is_ok());
        assert!(AcceptanceRate::Constant { lambda0: 0.0 }
            .validate()
            .is_err());
        assert!(AcceptanceRate::LinearInDegree { lambda0: -1.0 }
            .validate()
            .is_err());
        assert!(AcceptanceRate::Constant { lambda0: f64::NAN }
            .validate()
            .is_err());
    }

    #[test]
    fn infectivity_families_evaluate() {
        assert_eq!(Infectivity::Constant { c: 2.0 }.eval(99), 2.0);
        assert_eq!(Infectivity::Linear.eval(7), 7.0);
        let s = Infectivity::paper_default();
        // k = 4: sqrt(4)/(1+sqrt(4)) = 2/3.
        assert!((s.eval(4) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn paper_infectivity_saturates() {
        let s = Infectivity::paper_default();
        // With β = γ the ratio approaches 1 from below.
        assert!(s.eval(1_000_000) < 1.0);
        assert!(s.eval(1_000_000) > s.eval(100));
    }

    #[test]
    fn infectivity_monotone_in_degree_for_paper_default() {
        let s = Infectivity::paper_default();
        let mut prev = 0.0;
        for k in 1..=1000 {
            let v = s.eval(k);
            assert!(v > prev);
            prev = v;
        }
    }

    #[test]
    fn infectivity_validation() {
        assert!(Infectivity::Constant { c: 1.0 }.validate().is_ok());
        assert!(Infectivity::Constant { c: 0.0 }.validate().is_err());
        assert!(Infectivity::Linear.validate().is_ok());
        assert!(Infectivity::Saturating {
            beta: 0.5,
            gamma: 0.5
        }
        .validate()
        .is_ok());
        assert!(Infectivity::Saturating {
            beta: 0.0,
            gamma: 0.5
        }
        .validate()
        .is_err());
        assert!(Infectivity::Saturating {
            beta: f64::NAN,
            gamma: 0.5
        }
        .validate()
        .is_err());
    }
}
