//! The heterogeneous SIR ODE system (paper Eq. (1)).

use crate::control::ControlSchedule;
use crate::params::ModelParams;
use rumor_ode::system::OdeSystem;
use rumor_par::InnerPool;
use std::sync::Arc;

/// How the recovered compartment treats the inflow `α`.
///
/// The paper prints `dR/dt = ε1 S + ε2 I` (Eq. (1)), under which the total
/// density grows at rate `α` — yet its own solution space Ω asserts
/// `S + I + R = 1` and its figures show `R → 1 − α/ε1`. The figures are
/// only consistent with an inflow that *recycles* recovered users into
/// susceptibles, i.e. `dR/dt = ε1 S + ε2 I − α`. Both conventions share
/// identical `S`/`I` dynamics (the first two equations do not involve
/// `R`), so the threshold `r0`, the equilibria's `S`/`I` components and
/// the optimal control are unaffected; only `R` trajectories and the
/// `Dist` metrics differ. See DESIGN.md §2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MassConvention {
    /// `dR/dt = ε1 S + ε2 I − α`: preserves `S + I + R = 1`, matches the
    /// paper's figures. The default.
    #[default]
    Conserving,
    /// `dR/dt = ε1 S + ε2 I`: the system exactly as printed; total mass
    /// grows at rate `α`.
    AsPrinted,
}

/// The coupled `3n`-dimensional rumor ODE system under a countermeasure
/// schedule.
///
/// State layout: `[S_0..S_{n-1}, I_0..I_{n-1}, R_0..R_{n-1}]`.
///
/// # Example
///
/// ```
/// use rumor_core::control::ConstantControl;
/// use rumor_core::functions::{AcceptanceRate, Infectivity};
/// use rumor_core::model::RumorModel;
/// use rumor_core::params::ModelParams;
/// use rumor_core::state::NetworkState;
/// use rumor_net::degree::DegreeClasses;
/// use rumor_ode::integrator::Adaptive;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let classes = DegreeClasses::from_degrees(&[1, 2, 2, 3])?;
/// let params = ModelParams::builder(classes)
///     .alpha(0.01)
///     .acceptance(AcceptanceRate::LinearInDegree { lambda0: 0.05 })
///     .build()?;
/// let model = RumorModel::new(&params, ConstantControl::new(0.2, 0.05));
/// let y0 = NetworkState::initial_uniform(params.n_classes(), 0.05)?.to_flat();
/// let sol = Adaptive::new().integrate(&model, 0.0, &y0, 10.0)?;
/// assert_eq!(sol.last_state().len(), 3 * params.n_classes());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RumorModel<'p, C> {
    params: &'p ModelParams,
    control: C,
    convention: MassConvention,
    /// Optional worker pool for the Θ reduction and the RHS map; see
    /// [`RumorModel::with_pool`].
    pool: Option<Arc<InnerPool>>,
}

impl<'p, C: ControlSchedule> RumorModel<'p, C> {
    /// Binds parameters to a countermeasure schedule under the default
    /// (mass-conserving) convention.
    pub fn new(params: &'p ModelParams, control: C) -> Self {
        Self::with_convention(params, control, MassConvention::default())
    }

    /// Binds parameters to a schedule with an explicit
    /// [`MassConvention`].
    pub fn with_convention(
        params: &'p ModelParams,
        control: C,
        convention: MassConvention,
    ) -> Self {
        RumorModel {
            params,
            control,
            convention,
            pool: None,
        }
    }

    /// Attaches (or detaches, with `None`) an intra-replica worker pool.
    /// Splits the per-class kernels across the pool's threads; output is
    /// bit-identical to the pool-less model at every pool size. Only the
    /// benchmark probes and perfreport's `intra_scaling.rhs_848` rows
    /// reach it.
    pub fn with_pool(mut self, pool: Option<Arc<InnerPool>>) -> Self {
        self.pool = pool;
        self
    }

    /// The bound parameters.
    pub fn params(&self) -> &ModelParams {
        self.params
    }

    /// The active mass convention.
    pub fn convention(&self) -> MassConvention {
        self.convention
    }

    /// The bound control schedule.
    pub fn control(&self) -> &C {
        &self.control
    }

    /// Computes `Θ` from a flat state slice (layout `[S.., I.., R..]`)
    /// through [`flat_theta`].
    pub fn theta_flat(&self, y: &[f64]) -> f64 {
        flat_theta(self.params.theta_weights(), y, self.pool.as_deref())
    }
}

/// `Θ` of a flat `[S.., I.., R..]` state: a single dot product of the
/// infected band against the fused `ϕ_i/⟨k⟩` table `theta_w` (one entry
/// per class, see [`ModelParams::theta_weights`]), evaluated with the
/// partitioned [`crate::kernels::dot_partitioned`] reduction — or its
/// pooled form, bit-identical at every thread count. It equals
/// [`crate::kernels::dot`] whenever the class count fits one
/// [`crate::kernels::PART_CHUNK`] partition.
#[inline]
pub fn flat_theta(theta_w: &[f64], y: &[f64], pool: Option<&InnerPool>) -> f64 {
    let n = theta_w.len();
    let i = &y[n..2 * n];
    match pool {
        Some(pool) => crate::kernels::dot_pooled(pool, theta_w, i),
        None => crate::kernels::dot_partitioned(theta_w, i),
    }
}

/// The right-hand side of Eq. (1) on a flat `[S.., I.., R..]` state under
/// countermeasures `(eps1, eps2)`: `Θ` through [`flat_theta`], the
/// convention's recycle term, then the element-wise
/// [`crate::kernels::sir_rhs`] (pooled when a pool is given, with the same
/// bits). This is the one forward RHS of the paper model: both
/// [`RumorModel`] and the compartment-model port `PaperSir` call it.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn flat_rhs(
    lambda: &[f64],
    theta_w: &[f64],
    alpha: f64,
    convention: MassConvention,
    eps1: f64,
    eps2: f64,
    y: &[f64],
    pool: Option<&InnerPool>,
    dydt: &mut [f64],
) {
    let n = lambda.len();
    let theta = flat_theta(theta_w, y, pool);
    let recycle = match convention {
        MassConvention::Conserving => alpha,
        MassConvention::AsPrinted => 0.0,
    };
    let (s, rest) = y.split_at(n);
    let inf = &rest[..n];
    let (ds, rest) = dydt.split_at_mut(n);
    let (di, dr) = rest.split_at_mut(n);
    match pool {
        Some(pool) => crate::kernels::sir_rhs_pooled(
            pool, s, inf, lambda, theta, alpha, eps1, eps2, recycle, ds, di, dr,
        ),
        None => crate::kernels::sir_rhs(
            s, inf, lambda, theta, alpha, eps1, eps2, recycle, ds, di, dr,
        ),
    }
}

impl<C: ControlSchedule> OdeSystem for RumorModel<'_, C> {
    fn dim(&self) -> usize {
        3 * self.params.n_classes()
    }

    fn rhs(&self, t: f64, y: &[f64], dydt: &mut [f64]) {
        flat_rhs(
            self.params.lambda(),
            self.params.theta_weights(),
            self.params.alpha(),
            self.convention,
            self.control.eps1(t),
            self.control.eps2(t),
            y,
            self.pool.as_deref(),
            dydt,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::ConstantControl;
    use crate::params::test_support::tiny_params;
    use crate::state::NetworkState;
    use rumor_ode::integrator::{Adaptive, FixedStep};
    use rumor_ode::steppers::Rk4;

    #[test]
    fn dimension_is_three_per_class() {
        let p = tiny_params();
        let m = RumorModel::new(&p, ConstantControl::new(0.0, 0.0));
        assert_eq!(m.dim(), 9);
    }

    #[test]
    fn rhs_matches_hand_computation_single_class() {
        // One class with degree 2, P = 1: ϕ = ω(2), ⟨k⟩ = 2.
        let classes = rumor_net::degree::DegreeClasses::from_degrees(&[2, 2]).unwrap();
        let p = ModelParams::builder(classes)
            .alpha(0.01)
            .acceptance(crate::functions::AcceptanceRate::Constant { lambda0: 0.5 })
            .infectivity(crate::functions::Infectivity::Linear)
            .build()
            .unwrap();
        let m = RumorModel::new(&p, ConstantControl::new(0.1, 0.2));
        // ϕ = 2, ⟨k⟩ = 2 → Θ = I.
        let y = [0.8, 0.15, 0.05];
        let mut d = [0.0; 3];
        m.rhs(0.0, &y, &mut d);
        let theta = 0.15;
        let force = 0.5 * 0.8 * theta;
        assert!((d[0] - (0.01 - force - 0.1 * 0.8)).abs() < 1e-12);
        assert!((d[1] - (force - 0.2 * 0.15)).abs() < 1e-12);
        // Default convention recycles the inflow out of R.
        assert!((d[2] - (0.1 * 0.8 + 0.2 * 0.15 - 0.01)).abs() < 1e-12);
    }

    #[test]
    fn as_printed_mass_grows_at_rate_alpha() {
        // Paper Eq. (1) literally: d(S+I+R)/dt = α per class.
        let p = tiny_params();
        let m = RumorModel::with_convention(
            &p,
            ConstantControl::new(0.05, 0.02),
            MassConvention::AsPrinted,
        );
        let y0 = NetworkState::initial_uniform(3, 0.1).unwrap().to_flat();
        let sol = Adaptive::new().integrate(&m, 0.0, &y0, 5.0).unwrap();
        let yf = sol.last_state();
        for i in 0..3 {
            let mass0 = y0[i] + y0[3 + i] + y0[6 + i];
            let massf = yf[i] + yf[3 + i] + yf[6 + i];
            assert!(
                (massf - mass0 - p.alpha() * 5.0).abs() < 1e-7,
                "class {i}: {massf} vs {mass0}"
            );
        }
    }

    #[test]
    fn conserving_convention_preserves_unit_mass() {
        let p = tiny_params();
        let m = RumorModel::new(&p, ConstantControl::new(0.05, 0.02));
        assert_eq!(m.convention(), MassConvention::Conserving);
        let y0 = NetworkState::initial_uniform(3, 0.1).unwrap().to_flat();
        let sol = Adaptive::new().integrate(&m, 0.0, &y0, 25.0).unwrap();
        let yf = sol.last_state();
        for i in 0..3 {
            let mass = yf[i] + yf[3 + i] + yf[6 + i];
            assert!((mass - 1.0).abs() < 1e-7, "class {i}: mass {mass}");
        }
    }

    #[test]
    fn no_rumor_without_infected() {
        let p = tiny_params();
        let m = RumorModel::new(&p, ConstantControl::new(0.0, 0.0));
        let y = NetworkState::initial_from_infected(vec![0.0; 3])
            .unwrap()
            .to_flat();
        let mut d = vec![0.0; 9];
        m.rhs(0.0, &y, &mut d);
        // With Θ = 0 and no controls, I stays zero.
        for i in 3..6 {
            assert_eq!(d[i], 0.0);
        }
    }

    #[test]
    fn higher_degree_class_infects_faster() {
        let p = tiny_params(); // degrees 1, 2, 4; λ ∝ k
        let m = RumorModel::new(&p, ConstantControl::new(0.0, 0.0));
        let y = NetworkState::initial_uniform(3, 0.1).unwrap().to_flat();
        let mut d = vec![0.0; 9];
        m.rhs(0.0, &y, &mut d);
        assert!(d[3] < d[4] && d[4] < d[5], "dI/dt must grow with degree");
    }

    /// `ε1(t) = 0.1 t`, `ε2 = 0`.
    struct Ramp;

    impl ControlSchedule for Ramp {
        fn eps1(&self, t: f64) -> f64 {
            0.1 * t
        }

        fn eps2(&self, _t: f64) -> f64 {
            0.0
        }
    }

    #[test]
    fn time_varying_control_is_applied() {
        let p = tiny_params();
        // ε1 ramps with time; compare derivative at two instants.
        let m = RumorModel::new(&p, Ramp);
        let y = NetworkState::initial_uniform(3, 0.1).unwrap().to_flat();
        let mut d0 = vec![0.0; 9];
        let mut d1 = vec![0.0; 9];
        m.rhs(0.0, &y, &mut d0);
        m.rhs(1.0, &y, &mut d1);
        // At t = 1 the immunization drain makes dS/dt more negative.
        assert!(d1[0] < d0[0]);
        // And recovery grows faster.
        assert!(d1[6] > d0[6]);
    }

    #[test]
    fn blocking_reduces_infected_compartment() {
        let p = tiny_params();
        let y0 = NetworkState::initial_uniform(3, 0.2).unwrap().to_flat();
        let run = |eps2: f64| {
            let m = RumorModel::new(&p, ConstantControl::new(0.0, eps2));
            let mut drv = FixedStep::new(Rk4::new(), 0.01);
            let sol = drv.integrate(&m, 0.0, &y0, 10.0).unwrap();
            let st = NetworkState::from_flat(sol.last_state()).unwrap();
            st.total_infected()
        };
        assert!(run(0.5) < run(0.0), "blocking must lower infections");
    }

    #[test]
    fn theta_flat_agrees_with_state_theta() {
        let p = tiny_params();
        let m = RumorModel::new(&p, ConstantControl::new(0.0, 0.0));
        let st = NetworkState::initial_uniform(3, 0.37).unwrap();
        let t1 = m.theta_flat(&st.to_flat());
        let t2 = st.theta(&p).unwrap();
        assert!((t1 - t2).abs() < 1e-15);
    }
}
