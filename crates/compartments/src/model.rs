//! The generalized compartment-model trait and its ODE adapters.

use crate::layout::CompartmentLayout;
use crate::schedule::MultiControlSchedule;
use rumor_ode::solution::Solution;
use rumor_ode::system::OdeSystem;
use rumor_par::InnerPool;
use std::cell::RefCell;
use std::sync::Arc;

/// A propagation model with a model-defined number of compartments per
/// degree class and `n_controls ≥ 1` countermeasure channels.
///
/// The contract generalizes exactly what `RumorModel` and the paper's
/// adjoint and stationary conditions hardwire for its S/I/R system:
///
/// * **State** lives in the compartment-major flat layout of
///   [`CompartmentLayout`] (`n_compartments` bands of `n_classes`).
/// * **Controls** arrive pre-evaluated as a slice `u[..n_controls]`, so
///   the model never touches schedules or time directly and the ODE hot
///   loop stays allocation-free.
/// * **Kernels** stay on the hot path: both RHS methods receive an
///   optional [`InnerPool`] and implementations are expected to route
///   their Θ-style reductions and element-wise bodies through the
///   partitioned `rumor_core::kernels`, which keeps every trajectory
///   bit-identical at any thread count.
/// * **Adjoint** (`n_costates` bands) plus the stationary controls and
///   the per-channel cost integrands are what the forward–backward sweep
///   in `rumor-control` iterates on.
pub trait CompartmentModel {
    /// Number of degree classes.
    fn n_classes(&self) -> usize;

    /// Number of state compartments per class.
    fn n_compartments(&self) -> usize;

    /// Number of control channels.
    fn n_controls(&self) -> usize;

    /// Number of adjoint (costate) bands per class.
    ///
    /// Costate band `b` is the Lagrange multiplier of compartment band
    /// `b`, so the costate covers the first `n_costates` state bands and
    /// `Σ_b p_b·f_b` over them is the Hamiltonian's coupling term. The
    /// bands at index `≥ n_costates` must feed neither the derivatives
    /// of the lower bands nor the objective (`running_cost`,
    /// `terminal_objective`): then their multipliers vanish identically
    /// and may be dropped. The paper model's `R` band is such a band. The
    /// finite-difference gradient check in
    /// `rumor-control/tests/adjoint_gradient.rs` relies on this contract.
    fn n_costates(&self) -> usize;

    /// Compartment band names, in layout order (for serialization and
    /// display; must have length `n_compartments`).
    fn compartment_names(&self) -> &'static [&'static str];

    /// Control channel names, in `u` index order (length `n_controls`).
    fn control_names(&self) -> &'static [&'static str];

    /// Flat state dimension.
    fn state_dim(&self) -> usize {
        self.n_classes() * self.n_compartments()
    }

    /// Flat costate dimension.
    fn costate_dim(&self) -> usize {
        self.n_classes() * self.n_costates()
    }

    /// The model's state layout.
    fn layout(&self) -> CompartmentLayout {
        CompartmentLayout::new(self.n_classes(), self.n_compartments())
            .expect("model dimensions are positive")
    }

    /// State derivative `dy/dt` at state `y` under controls `u`.
    fn rhs(&self, y: &[f64], u: &[f64], pool: Option<&InnerPool>, dydt: &mut [f64]);

    /// Adjoint derivative `dp/dt` at forward state `state`, costate `p`,
    /// controls `u`.
    fn adjoint_rhs(
        &self,
        state: &[f64],
        p: &[f64],
        u: &[f64],
        pool: Option<&InnerPool>,
        dpdt: &mut [f64],
    );

    /// Transversality condition at `tf` for terminal weight `w`, written
    /// into `out[..costate_dim]`.
    fn terminal_condition(&self, weight: f64, out: &mut [f64]);

    /// The unclamped stationary controls at one `(state, costate)`
    /// sample, written into `out[..n_controls]`.
    fn stationary_controls(&self, state: &[f64], p: &[f64], out: &mut [f64]);

    /// Per-channel running-cost integrands at one sample, written into
    /// `out[..n_controls]` (channel `c` carries the expenditure of
    /// control `c`, e.g. `c1 u1² Σ S_i²`).
    fn running_cost(&self, state: &[f64], u: &[f64], out: &mut [f64]);

    /// The terminal objective (e.g. `Σ I_i(tf)`).
    fn terminal_objective(&self, state: &[f64]) -> f64;
}

impl<M: CompartmentModel + ?Sized> CompartmentModel for &M {
    fn n_classes(&self) -> usize {
        (**self).n_classes()
    }

    fn n_compartments(&self) -> usize {
        (**self).n_compartments()
    }

    fn n_controls(&self) -> usize {
        (**self).n_controls()
    }

    fn n_costates(&self) -> usize {
        (**self).n_costates()
    }

    fn compartment_names(&self) -> &'static [&'static str] {
        (**self).compartment_names()
    }

    fn control_names(&self) -> &'static [&'static str] {
        (**self).control_names()
    }

    fn rhs(&self, y: &[f64], u: &[f64], pool: Option<&InnerPool>, dydt: &mut [f64]) {
        (**self).rhs(y, u, pool, dydt)
    }

    fn adjoint_rhs(
        &self,
        state: &[f64],
        p: &[f64],
        u: &[f64],
        pool: Option<&InnerPool>,
        dpdt: &mut [f64],
    ) {
        (**self).adjoint_rhs(state, p, u, pool, dpdt)
    }

    fn terminal_condition(&self, weight: f64, out: &mut [f64]) {
        (**self).terminal_condition(weight, out)
    }

    fn stationary_controls(&self, state: &[f64], p: &[f64], out: &mut [f64]) {
        (**self).stationary_controls(state, p, out)
    }

    fn running_cost(&self, state: &[f64], u: &[f64], out: &mut [f64]) {
        (**self).running_cost(state, u, out)
    }

    fn terminal_objective(&self, state: &[f64]) -> f64 {
        (**self).terminal_objective(state)
    }
}

/// Binds a compartment model to a control schedule as a forward
/// [`OdeSystem`] — the generalized counterpart of
/// [`rumor_core::model::RumorModel`].
pub struct CompartmentOde<'m, M, C> {
    model: &'m M,
    control: C,
    /// Optional intra-replica worker pool, forwarded to the model's
    /// kernels; bit-identical with and without a pool at every size.
    pool: Option<Arc<InnerPool>>,
    /// Scratch for the evaluated control vector (no allocation in `rhs`).
    u_scratch: RefCell<Vec<f64>>,
}

impl<'m, M: CompartmentModel, C: MultiControlSchedule> CompartmentOde<'m, M, C> {
    /// Binds model and schedule.
    ///
    /// # Panics
    ///
    /// Panics if the schedule's channel count differs from the model's.
    pub fn new(model: &'m M, control: C) -> Self {
        assert_eq!(
            control.n_controls(),
            model.n_controls(),
            "schedule channel count must match the model"
        );
        let n_controls = model.n_controls();
        CompartmentOde {
            model,
            control,
            pool: None,
            u_scratch: RefCell::new(vec![0.0; n_controls]),
        }
    }

    /// Attaches (or detaches, with `None`) an intra-replica worker pool.
    pub fn with_pool(mut self, pool: Option<Arc<InnerPool>>) -> Self {
        self.pool = pool;
        self
    }
}

impl<M: CompartmentModel, C: MultiControlSchedule> OdeSystem for CompartmentOde<'_, M, C> {
    fn dim(&self) -> usize {
        self.model.state_dim()
    }

    fn rhs(&self, t: f64, y: &[f64], dydt: &mut [f64]) {
        let mut u = self.u_scratch.borrow_mut();
        self.control.eval_into(t, &mut u);
        self.model.rhs(y, &u, self.pool.as_deref(), dydt);
    }
}

impl<M, C> std::fmt::Debug for CompartmentOde<'_, M, C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompartmentOde").finish_non_exhaustive()
    }
}

/// The backward adjoint system of a compartment model, bound to a stored
/// forward trajectory and the schedule that produced it.
pub struct CompartmentAdjoint<'a, M, C> {
    model: &'a M,
    forward: &'a Solution,
    control: C,
    pool: Option<Arc<InnerPool>>,
    u_scratch: RefCell<Vec<f64>>,
    /// Scratch for sampling the forward state inside `rhs` without
    /// allocating.
    state_scratch: RefCell<Vec<f64>>,
}

impl<'a, M: CompartmentModel, C: MultiControlSchedule> CompartmentAdjoint<'a, M, C> {
    /// Binds the adjoint to a forward trajectory and its schedule.
    ///
    /// # Panics
    ///
    /// Panics if the schedule's channel count differs from the model's,
    /// or the forward solution's dimension is not the model's state
    /// dimension.
    pub fn new(model: &'a M, forward: &'a Solution, control: C) -> Self {
        assert_eq!(
            control.n_controls(),
            model.n_controls(),
            "schedule channel count must match the model"
        );
        assert_eq!(
            forward.dim(),
            model.state_dim(),
            "forward trajectory dimension must match the model"
        );
        let n_controls = model.n_controls();
        let dim = forward.dim();
        CompartmentAdjoint {
            model,
            forward,
            control,
            pool: None,
            u_scratch: RefCell::new(vec![0.0; n_controls]),
            state_scratch: RefCell::new(vec![0.0; dim]),
        }
    }

    /// Attaches (or detaches, with `None`) an intra-replica worker pool.
    pub fn with_pool(mut self, pool: Option<Arc<InnerPool>>) -> Self {
        self.pool = pool;
        self
    }

    /// The transversality condition at `tf` for terminal weight `w`.
    pub fn weighted_terminal_condition(&self, weight: f64) -> Vec<f64> {
        let mut y = vec![0.0; self.model.costate_dim()];
        self.model.terminal_condition(weight, &mut y);
        y
    }
}

impl<M: CompartmentModel, C: MultiControlSchedule> OdeSystem for CompartmentAdjoint<'_, M, C> {
    fn dim(&self) -> usize {
        self.model.costate_dim()
    }

    fn rhs(&self, t: f64, y: &[f64], dydt: &mut [f64]) {
        let mut u = self.u_scratch.borrow_mut();
        self.control.eval_into(t, &mut u);
        let mut state = self.state_scratch.borrow_mut();
        self.forward
            .sample_into(t, &mut state)
            .expect("forward trajectory must cover the adjoint's time span");
        self.model
            .adjoint_rhs(&state, y, &u, self.pool.as_deref(), dydt);
    }
}

impl<M, C> std::fmt::Debug for CompartmentAdjoint<'_, M, C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompartmentAdjoint").finish_non_exhaustive()
    }
}
