//! Degree-targeted countermeasures.
//!
//! The paper's introduction motivates two families of countermeasures and
//! notes that the classical approach is to concentrate them on
//! *influential users* ("rumor ends with sage"). The base model applies
//! the rates `ε1, ε2` uniformly across degree classes; this module
//! generalizes both channels to **per-class rates**, which makes the
//! hub-prioritized strategy expressible and lets the ablation harness
//! quantify it:
//!
//! ```text
//! dS_i/dt = α − λ(k_i) S_i Θ − ε1_i S_i
//! dI_i/dt = λ(k_i) S_i Θ − ε2_i I_i
//! dR_i/dt = ε1_i S_i + ε2_i I_i − α
//! ```
//!
//! The generalized threshold follows from the rank-1 structure of the
//! linearization at the rumor-free state (`S⁰_i = α/ε1_i`):
//!
//! ```text
//! r0_targeted = Σ_i α λ(k_i) ϕ(k_i) / (⟨k⟩ ε1_i ε2_i)
//! ```
//!
//! which reduces to the paper's `r0` for uniform rates. A consequence
//! worth noting: concentrating blocking *only* on hubs leaves the
//! low-degree terms of the sum unbounded — some budget must reach every
//! class or the rumor survives in the periphery.

use crate::params::ModelParams;
use crate::{CoreError, Result};
use rumor_net::degree::DegreeClasses;
use rumor_ode::system::OdeSystem;

/// Constant-in-time, per-degree-class countermeasure rates.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassRates {
    eps1: Vec<f64>,
    eps2: Vec<f64>,
}

impl ClassRates {
    /// Explicit per-class rates.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if the vectors differ in
    /// length, are empty, or contain negative/non-finite values.
    pub fn new(eps1: Vec<f64>, eps2: Vec<f64>) -> Result<Self> {
        if eps1.is_empty() || eps1.len() != eps2.len() {
            return Err(CoreError::InvalidParameter {
                name: "class_rates",
                message: format!(
                    "need equal-length non-empty rate vectors, got {} and {}",
                    eps1.len(),
                    eps2.len()
                ),
            });
        }
        for (name, v) in [("eps1", &eps1), ("eps2", &eps2)] {
            if v.iter().any(|x| !x.is_finite() || *x < 0.0) {
                return Err(CoreError::InvalidParameter {
                    name: "class_rates",
                    message: format!("{name} contains a negative or non-finite rate"),
                });
            }
        }
        Ok(ClassRates { eps1, eps2 })
    }

    /// Uniform rates across `n` classes — equivalent to the base model's
    /// [`crate::control::ConstantControl`].
    ///
    /// # Errors
    ///
    /// See [`ClassRates::new`].
    pub fn uniform(n: usize, eps1: f64, eps2: f64) -> Result<Self> {
        Self::new(vec![eps1; n], vec![eps2; n])
    }

    /// Hub-prioritized allocation: every class receives the `base`
    /// rates, and the additional population budgets
    /// `(extra_budget1, extra_budget2)` are spent entirely on the
    /// highest-degree classes holding the top `top_fraction` of the
    /// population (by `P(k)` mass), raising their rates uniformly.
    ///
    /// "Population budget" is the `P(k)`-weighted rate `Σ_i ε_i P(k_i)`,
    /// so two policies with equal budget immunize/block the same number
    /// of users per unit time; see [`ClassRates::population_budget`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for `top_fraction`
    /// outside `(0, 1]` or negative rates/budgets.
    pub fn hub_targeted(
        classes: &DegreeClasses,
        base: (f64, f64),
        extra_budget: (f64, f64),
        top_fraction: f64,
    ) -> Result<Self> {
        if !(top_fraction > 0.0 && top_fraction <= 1.0) {
            return Err(CoreError::InvalidParameter {
                name: "top_fraction",
                message: format!("must lie in (0, 1], got {top_fraction}"),
            });
        }
        if base.0 < 0.0 || base.1 < 0.0 || extra_budget.0 < 0.0 || extra_budget.1 < 0.0 {
            return Err(CoreError::InvalidParameter {
                name: "rates",
                message: "base rates and budgets must be non-negative".into(),
            });
        }
        let n = classes.len();
        // Walk classes from the highest degree down until the target
        // population mass is covered.
        let mut covered = 0.0;
        let mut targeted = vec![false; n];
        for i in (0..n).rev() {
            targeted[i] = true;
            covered += classes.probability(i);
            if covered >= top_fraction {
                break;
            }
        }
        let boost1 = extra_budget.0 / covered;
        let boost2 = extra_budget.1 / covered;
        let eps1 = (0..n)
            .map(|i| base.0 + if targeted[i] { boost1 } else { 0.0 })
            .collect();
        let eps2 = (0..n)
            .map(|i| base.1 + if targeted[i] { boost2 } else { 0.0 })
            .collect();
        Self::new(eps1, eps2)
    }

    /// The budget-optimal allocation for the threshold objective:
    /// minimizing `r0 = Σ_i C_i/(ε1_i ε2_i)` (with
    /// `C_i = α λ_i ϕ_i / ⟨k⟩`) subject to the population budgets
    /// `Σ_i P_i ε_i = B` gives, by Lagrange duality, the profile
    ///
    /// ```text
    /// ε_i ∝ (C_i / P(k_i))^(1/3)
    /// ```
    ///
    /// applied to both channels. Hubs receive more than leaves — but
    /// *smoothly*, never starving the periphery (a pure hub-only boost
    /// is counterproductive in this model because every class feeds the
    /// same coupling `Θ`; see the tests).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for non-positive budgets
    /// or a zero-coupling parameter set.
    pub fn r0_optimal(params: &ModelParams, budget1: f64, budget2: f64) -> Result<Self> {
        if !(budget1 > 0.0) || !(budget2 > 0.0) {
            return Err(CoreError::InvalidParameter {
                name: "budget",
                message: format!("budgets must be positive, got ({budget1}, {budget2})"),
            });
        }
        let classes = params.classes();
        let n = classes.len();
        let mut weights = Vec::with_capacity(n);
        let mut norm = 0.0;
        for i in 0..n {
            let c_i = params.alpha() * params.lambda()[i] * params.phi()[i] / params.mean_degree();
            let p_i = classes.probability(i);
            let w = (c_i / p_i).cbrt();
            if !(w > 0.0) || !w.is_finite() {
                return Err(CoreError::InvalidParameter {
                    name: "params",
                    message: format!("class {i} has zero coupling; optimal profile undefined"),
                });
            }
            weights.push(w);
            norm += p_i * w;
        }
        let eps1 = weights.iter().map(|w| budget1 * w / norm).collect();
        let eps2 = weights.iter().map(|w| budget2 * w / norm).collect();
        Self::new(eps1, eps2)
    }

    /// Number of classes the rates cover.
    pub fn len(&self) -> usize {
        self.eps1.len()
    }

    /// `true` if the rate vectors are empty (cannot be constructed).
    pub fn is_empty(&self) -> bool {
        self.eps1.is_empty()
    }

    /// Truth-spreading rates per class.
    pub fn eps1(&self) -> &[f64] {
        &self.eps1
    }

    /// Blocking rates per class.
    pub fn eps2(&self) -> &[f64] {
        &self.eps2
    }

    /// The population-weighted budgets
    /// `(Σ_i ε1_i P(k_i), Σ_i ε2_i P(k_i))` — the fair-comparison
    /// invariant between allocation policies.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimensionMismatch`] if the partition size
    /// differs from the rate vectors.
    pub fn population_budget(&self, classes: &DegreeClasses) -> Result<(f64, f64)> {
        if classes.len() != self.len() {
            return Err(CoreError::DimensionMismatch {
                expected: classes.len(),
                found: self.len(),
            });
        }
        let b1 = self
            .eps1
            .iter()
            .zip(classes.probabilities())
            .map(|(e, p)| e * p)
            .sum();
        let b2 = self
            .eps2
            .iter()
            .zip(classes.probabilities())
            .map(|(e, p)| e * p)
            .sum();
        Ok((b1, b2))
    }
}

/// The generalized threshold
/// `r0 = Σ_i α λ_i ϕ_i / (⟨k⟩ ε1_i ε2_i)` for per-class rates.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParameter`] if any class rate is zero
/// (the corresponding term diverges — the rumor survives in that class)
/// or [`CoreError::DimensionMismatch`] on a class-count mismatch.
pub fn targeted_r0(params: &ModelParams, rates: &ClassRates) -> Result<f64> {
    let n = params.n_classes();
    if rates.len() != n {
        return Err(CoreError::DimensionMismatch {
            expected: n,
            found: rates.len(),
        });
    }
    let mut sum = 0.0;
    for i in 0..n {
        let (e1, e2) = (rates.eps1[i], rates.eps2[i]);
        if e1 <= 0.0 || e2 <= 0.0 {
            return Err(CoreError::InvalidParameter {
                name: "class_rates",
                message: format!(
                    "class {i} has a zero countermeasure rate; its threshold term diverges"
                ),
            });
        }
        sum += params.alpha() * params.lambda()[i] * params.phi()[i] / (e1 * e2);
    }
    Ok(sum / params.mean_degree())
}

/// The rumor ODE system under per-class countermeasure rates
/// (mass-conserving convention). State layout matches
/// [`crate::model::RumorModel`].
#[derive(Debug, Clone)]
pub struct TargetedModel<'p> {
    params: &'p ModelParams,
    rates: ClassRates,
}

impl<'p> TargetedModel<'p> {
    /// Binds parameters to per-class rates.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimensionMismatch`] if the rates do not
    /// cover every class.
    pub fn new(params: &'p ModelParams, rates: ClassRates) -> Result<Self> {
        if rates.len() != params.n_classes() {
            return Err(CoreError::DimensionMismatch {
                expected: params.n_classes(),
                found: rates.len(),
            });
        }
        Ok(TargetedModel { params, rates })
    }

    /// The bound rates.
    pub fn rates(&self) -> &ClassRates {
        &self.rates
    }
}

impl OdeSystem for TargetedModel<'_> {
    fn dim(&self) -> usize {
        3 * self.params.n_classes()
    }

    fn rhs(&self, _t: f64, y: &[f64], dydt: &mut [f64]) {
        let rates = &self.rates;
        per_class_rhs(self.params, y, |j| (rates.eps1[j], rates.eps2[j]), dydt);
    }
}

/// The S/I/R right-hand side of the module-level equations at the flat
/// state `y = [S.., I.., R..]`, with class `j`'s countermeasure rates
/// `rates(j) = (ε1_j, ε2_j)`: `Θ` is the left fold `Σ_j ϕ_j I_j` divided
/// by `⟨k⟩`, then each class's three updates. [`TargetedModel`] passes
/// its per-class rates; a caller with uniform rates returns the same
/// pair for every class.
///
/// # Panics
///
/// Panics if `y` or `dydt` is shorter than `3 · n_classes`.
pub fn per_class_rhs(
    params: &ModelParams,
    y: &[f64],
    rates: impl Fn(usize) -> (f64, f64),
    dydt: &mut [f64],
) {
    let n = params.n_classes();
    let alpha = params.alpha();
    let lambda = params.lambda();
    let phi = params.phi();
    let mean_k = params.mean_degree();
    let theta: f64 = phi
        .iter()
        .zip(&y[n..2 * n])
        .map(|(p, i)| p * i)
        .sum::<f64>()
        / mean_k;
    for j in 0..n {
        let s = y[j];
        let inf = y[n + j];
        let (e1, e2) = rates(j);
        let force = lambda[j] * s * theta;
        dydt[j] = alpha - force - e1 * s;
        dydt[n + j] = force - e2 * inf;
        dydt[2 * n + j] = e1 * s + e2 * inf - alpha;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::ConstantControl;
    use crate::equilibrium::r0;
    use crate::functions::{AcceptanceRate, Infectivity};
    use crate::model::RumorModel;
    use crate::state::NetworkState;
    use rumor_ode::integrator::Adaptive;

    fn scale_free_params() -> ModelParams {
        // Skewed partition with enough distinct classes that a top-20%
        // population cut leaves the low-degree classes untargeted.
        let mut degrees = Vec::new();
        for (k, count) in [
            (1, 50),
            (2, 50),
            (3, 50),
            (4, 30),
            (5, 20),
            (10, 10),
            (20, 5),
            (40, 5),
        ] {
            degrees.extend(vec![k as usize; count]);
        }
        let classes = DegreeClasses::from_degrees(&degrees).unwrap();
        ModelParams::builder(classes)
            .alpha(0.01)
            .acceptance(AcceptanceRate::LinearInDegree { lambda0: 0.05 })
            .infectivity(Infectivity::paper_default())
            .build()
            .unwrap()
    }

    #[test]
    fn class_rates_validation() {
        assert!(ClassRates::new(vec![], vec![]).is_err());
        assert!(ClassRates::new(vec![0.1], vec![0.1, 0.2]).is_err());
        assert!(ClassRates::new(vec![-0.1], vec![0.1]).is_err());
        assert!(ClassRates::new(vec![f64::NAN], vec![0.1]).is_err());
        let r = ClassRates::uniform(3, 0.1, 0.2).unwrap();
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
        assert_eq!(r.eps1(), &[0.1; 3]);
        assert_eq!(r.eps2(), &[0.2; 3]);
    }

    #[test]
    fn uniform_rates_reduce_to_base_r0() {
        let p = scale_free_params();
        let rates = ClassRates::uniform(p.n_classes(), 0.1, 0.05).unwrap();
        let generalized = targeted_r0(&p, &rates).unwrap();
        let base = r0(&p, 0.1, 0.05).unwrap();
        assert!((generalized - base).abs() < 1e-12);
    }

    #[test]
    fn zero_class_rate_rejected_by_threshold() {
        let p = scale_free_params();
        let mut e2 = vec![0.05; p.n_classes()];
        e2[0] = 0.0;
        let rates = ClassRates::new(vec![0.1; p.n_classes()], e2).unwrap();
        assert!(matches!(
            targeted_r0(&p, &rates),
            Err(CoreError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn uniform_targeted_model_matches_base_model() {
        let p = scale_free_params();
        let rates = ClassRates::uniform(p.n_classes(), 0.1, 0.05).unwrap();
        let targeted = TargetedModel::new(&p, rates).unwrap();
        let base = RumorModel::new(&p, ConstantControl::new(0.1, 0.05));
        let y0 = NetworkState::initial_uniform(p.n_classes(), 0.1)
            .unwrap()
            .to_flat();
        let a = Adaptive::new()
            .integrate(&targeted, 0.0, &y0, 20.0)
            .unwrap();
        let b = Adaptive::new().integrate(&base, 0.0, &y0, 20.0).unwrap();
        for (x, y) in a.last_state().iter().zip(b.last_state()) {
            assert!((x - y).abs() < 1e-8);
        }
    }

    #[test]
    fn hub_targeting_preserves_population_budget() {
        let p = scale_free_params();
        let base = (0.02, 0.02);
        let extra = (0.05, 0.05);
        let hub = ClassRates::hub_targeted(p.classes(), base, extra, 0.25).unwrap();
        let (b1, b2) = hub.population_budget(p.classes()).unwrap();
        // Budget = base + extra exactly (the boost is spread over the
        // covered probability mass).
        assert!((b1 - (base.0 + extra.0)).abs() < 1e-9, "b1 = {b1}");
        assert!((b2 - (base.1 + extra.1)).abs() < 1e-9, "b2 = {b2}");
        // The highest-degree class is boosted, the lowest is not.
        let n = p.n_classes();
        assert!(hub.eps2()[n - 1] > base.1 + 1e-9);
        assert_eq!(hub.eps2()[0], base.1);
    }

    #[test]
    fn hub_only_boost_backfires_at_equal_budget() {
        // The counterintuitive (and correct) result for this model:
        // because every class feeds the same coupling Θ and each
        // threshold term scales as 1/ε², starving the periphery to
        // boost hubs *raises* r0 and worsens the outcome relative to
        // spending the same population budget uniformly.
        let p = scale_free_params();
        let base = (0.02, 0.02);
        let extra = (0.08, 0.08);
        let hub = ClassRates::hub_targeted(p.classes(), base, extra, 0.2).unwrap();
        let uniform =
            ClassRates::uniform(p.n_classes(), base.0 + extra.0, base.1 + extra.1).unwrap();
        // Same population budget in both policies.
        let bh = hub.population_budget(p.classes()).unwrap();
        let bu = uniform.population_budget(p.classes()).unwrap();
        assert!((bh.0 - bu.0).abs() < 1e-9 && (bh.1 - bu.1).abs() < 1e-9);

        let r_hub = targeted_r0(&p, &hub).unwrap();
        let r_uni = targeted_r0(&p, &uniform).unwrap();
        assert!(
            r_hub > r_uni,
            "hub-only boost must raise the threshold: {r_hub} vs {r_uni}"
        );

        let y0 = NetworkState::initial_uniform(p.n_classes(), 0.1)
            .unwrap()
            .to_flat();
        let run = |rates: ClassRates| {
            let m = TargetedModel::new(&p, rates).unwrap();
            let sol = Adaptive::new().integrate(&m, 0.0, &y0, 60.0).unwrap();
            let st = NetworkState::from_flat(sol.last_state()).unwrap();
            // Population-weighted infection.
            st.i()
                .iter()
                .zip(p.classes().probabilities())
                .map(|(i, pr)| i * pr)
                .sum::<f64>()
        };
        let hub_final = run(hub);
        let uniform_final = run(uniform);
        assert!(
            hub_final > uniform_final,
            "hub-only targeting ({hub_final}) should underperform uniform ({uniform_final})"
        );
    }

    #[test]
    fn r0_optimal_allocation_beats_uniform_and_hub_only() {
        let p = scale_free_params();
        let budget = 0.1;
        let optimal = ClassRates::r0_optimal(&p, budget, budget).unwrap();
        let uniform = ClassRates::uniform(p.n_classes(), budget, budget).unwrap();
        let hub = ClassRates::hub_targeted(p.classes(), (0.02, 0.02), (0.08, 0.08), 0.2).unwrap();
        // All three spend the same population budget.
        let bo = optimal.population_budget(p.classes()).unwrap();
        assert!((bo.0 - budget).abs() < 1e-9 && (bo.1 - budget).abs() < 1e-9);

        let r_opt = targeted_r0(&p, &optimal).unwrap();
        let r_uni = targeted_r0(&p, &uniform).unwrap();
        let r_hub = targeted_r0(&p, &hub).unwrap();
        assert!(r_opt < r_uni, "optimal {r_opt} must beat uniform {r_uni}");
        assert!(r_opt < r_hub, "optimal {r_opt} must beat hub-only {r_hub}");
        // The optimal profile still favours hubs over leaves — smoothly.
        let n = p.n_classes();
        assert!(optimal.eps2()[n - 1] > optimal.eps2()[0]);
    }

    #[test]
    fn r0_optimal_validation() {
        let p = scale_free_params();
        assert!(ClassRates::r0_optimal(&p, 0.0, 0.1).is_err());
        assert!(ClassRates::r0_optimal(&p, 0.1, -1.0).is_err());
    }

    #[test]
    fn top_fraction_validation() {
        let p = scale_free_params();
        assert!(ClassRates::hub_targeted(p.classes(), (0.1, 0.1), (0.1, 0.1), 0.0).is_err());
        assert!(ClassRates::hub_targeted(p.classes(), (0.1, 0.1), (0.1, 0.1), 1.5).is_err());
        assert!(ClassRates::hub_targeted(p.classes(), (-0.1, 0.1), (0.1, 0.1), 0.5).is_err());
        // top_fraction = 1 covers everyone: equivalent to uniform.
        let all = ClassRates::hub_targeted(p.classes(), (0.1, 0.1), (0.1, 0.1), 1.0).unwrap();
        for (a, b) in all.eps1().iter().zip(all.eps2()) {
            assert!((a - 0.2).abs() < 1e-12 && (b - 0.2).abs() < 1e-12);
        }
    }

    #[test]
    fn dimension_checks() {
        let p = scale_free_params();
        let wrong = ClassRates::uniform(2, 0.1, 0.1).unwrap();
        assert!(TargetedModel::new(&p, wrong.clone()).is_err());
        assert!(targeted_r0(&p, &wrong).is_err());
        assert!(wrong.population_budget(p.classes()).is_err());
    }
}
