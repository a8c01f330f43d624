//! The forward–backward sweep method (FBSM).
//!
//! The standard numerical realization of Pontryagin's principle for
//! epidemic control: alternate (i) a forward integration of the state
//! under the current control, (ii) a backward integration of the
//! co-state from the transversality condition, and (iii) a control
//! update from the stationarity conditions (18)–(19), relaxed by a
//! convex combination with the previous iterate, until the control
//! stops changing.

use crate::cost::{evaluate, CostBreakdown};
use crate::costate::{stationary_controls, AdjointVariant, CostateSystem};
use crate::schedule::PiecewiseControl;
use crate::{ControlBounds, ControlError, CostWeights, Result};
use rumor_core::model::RumorModel;
use rumor_core::params::ModelParams;
use rumor_core::simulate::{simulate_grid, SimulateOptions};
use rumor_core::state::NetworkState;
use rumor_ode::integrator::{Adaptive, AdaptiveConfig};
use rumor_ode::recovery::{Guarded, RecoveryPolicy};
use rumor_ode::solution::Solution;
use rumor_ode::system::OdeSystem;

/// Tuning knobs of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FbsmOptions {
    /// Number of control-grid nodes on `[0, tf]`.
    pub n_nodes: usize,
    /// Maximum sweep iterations.
    pub max_iterations: usize,
    /// Convergence threshold on the relative control change.
    pub tolerance: f64,
    /// Relaxation weight `δ ∈ (0, 1]` of the control update
    /// (`u ← δ·u_new + (1−δ)·u_old`).
    pub relaxation: f64,
    /// Floor below which the adaptive damping never pushes the
    /// relaxation weight. Without a floor the backoff `δ ← δ/2` can
    /// shrink `δ` into numerical irrelevance, freezing the iteration
    /// while still burning the budget.
    pub relaxation_floor: f64,
    /// Integrator tolerances for the forward and backward passes.
    pub ode: AdaptiveConfig,
    /// When set, the forward and backward passes run under the guarded
    /// integrator with this fallback policy instead of the plain
    /// adaptive driver, so a stiff or transiently non-finite segment is
    /// rescued instead of aborting the sweep. The watchdog enables this
    /// on restarts after an integration failure.
    pub guard_ode: Option<RecoveryPolicy>,
    /// Which adjoint coupling to sweep with (exact by default; the
    /// paper's printed diagonal variant is available for the
    /// faithfulness ablation).
    pub adjoint: AdjointVariant,
    /// Weight of the terminal objective `w·Σ I_i(tf)` (the transversality
    /// condition becomes `φ(tf) = w`). The deadline-constrained solver
    /// [`optimize_to_target`] raises this until its target is met.
    pub terminal_weight: f64,
    /// Warm start: when set, the sweep's initial iterate is this
    /// schedule resampled onto the sweep grid (and clamped into the
    /// box) instead of the mid-box constant guess. In a parameter
    /// sweep, seeding each grid point with the previous point's
    /// optimum typically cuts the iteration count by an integer
    /// factor — neighboring problems have neighboring optima.
    pub initial_control: Option<PiecewiseControl>,
    /// Intra-replica thread count for the sweep's forward/backward
    /// kernels, resolved through
    /// [`rumor_par::resolve_inner_threads`] (`None` consults the
    /// `--inner-threads` override, then `RUMOR_INNER_THREADS`, else 1:
    /// a single sweep runs serially unless asked for a pool). The
    /// partitioned kernels are bit-identical at every thread count, so
    /// this knob affects wall-clock only, never the optimum.
    pub inner_threads: Option<usize>,
    /// Backtracking under-relaxation: when the relaxed update *grows*
    /// the control change (damped-Picard oscillation), retry the same
    /// iteration's convex combination with a halved relaxation weight
    /// (down to `relaxation_floor`) instead of accepting the
    /// oscillating iterate and only damping the *next* one. The retry
    /// is nearly free — the stationary controls are already computed,
    /// no re-integration happens — and suppresses the plateau the
    /// accept-then-damp scheme hits on stiff large-class problems
    /// (`digg_full`). On by default since it strictly dominates the
    /// accept-then-damp scheme on every benchmark tier (the small-tier
    /// sweep now converges inside its 150-iteration budget instead of
    /// plateauing); set `false` for the historical behavior.
    pub backtracking: bool,
}

impl Default for FbsmOptions {
    fn default() -> Self {
        FbsmOptions {
            n_nodes: 201,
            max_iterations: 200,
            tolerance: 1e-5,
            relaxation: 0.4,
            relaxation_floor: 0.02,
            ode: AdaptiveConfig {
                rtol: 1e-7,
                atol: 1e-9,
                ..AdaptiveConfig::default()
            },
            guard_ode: None,
            adjoint: AdjointVariant::default(),
            terminal_weight: 1.0,
            initial_control: None,
            inner_threads: None,
            backtracking: true,
        }
    }
}

impl FbsmOptions {
    /// Validates every field up front so a bad configuration surfaces as
    /// a structured [`ControlError::InvalidConfig`] instead of NaN
    /// propagating through a sweep.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::InvalidConfig`] naming the offending
    /// field, or the wrapped [`rumor_ode::OdeError::InvalidConfig`] for
    /// a bad integrator configuration.
    pub fn validate(&self) -> Result<()> {
        if self.n_nodes < 2 {
            return Err(ControlError::InvalidConfig(
                "n_nodes: need at least two control nodes".into(),
            ));
        }
        if self.max_iterations == 0 {
            return Err(ControlError::InvalidConfig(
                "max_iterations: must be at least 1".into(),
            ));
        }
        if !(self.tolerance > 0.0) || !self.tolerance.is_finite() {
            return Err(ControlError::InvalidConfig(format!(
                "tolerance: must be positive and finite, got {}",
                self.tolerance
            )));
        }
        if !(self.relaxation > 0.0 && self.relaxation <= 1.0) {
            return Err(ControlError::InvalidConfig(format!(
                "relaxation: must lie in (0, 1], got {}",
                self.relaxation
            )));
        }
        if !(self.relaxation_floor > 0.0) || self.relaxation_floor > self.relaxation {
            return Err(ControlError::InvalidConfig(format!(
                "relaxation_floor: must lie in (0, relaxation = {}], got {}",
                self.relaxation, self.relaxation_floor
            )));
        }
        if !(self.terminal_weight >= 0.0) || !self.terminal_weight.is_finite() {
            return Err(ControlError::InvalidConfig(format!(
                "terminal_weight: must be non-negative and finite, got {}",
                self.terminal_weight
            )));
        }
        self.ode.validate()?;
        if let Some(policy) = &self.guard_ode {
            policy.validate()?;
        }
        Ok(())
    }
}

/// Output of a converged (or budget-exhausted) sweep.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// The optimized countermeasure schedule.
    pub control: PiecewiseControl,
    /// The state trajectory under the optimized schedule, sampled on the
    /// control grid.
    pub trajectory: rumor_core::simulate::Trajectory,
    /// Itemized cost of the optimized schedule.
    pub cost: CostBreakdown,
    /// Sweep iterations performed.
    pub iterations: usize,
    /// Whether the relative control change dropped below tolerance.
    pub converged: bool,
    /// Objective value after each iteration (diagnostic).
    pub cost_history: Vec<f64>,
    /// Relative control change after each iteration (diagnostic; the
    /// watchdog classifies divergence from this series).
    pub change_history: Vec<f64>,
    /// How often the adaptive damping halved the relaxation weight.
    pub relaxation_backoffs: usize,
    /// The relaxation weight in effect when the sweep stopped.
    pub final_relaxation: f64,
    /// `true` when the returned control is not the final iterate but the
    /// best-so-far checkpoint (lowest diagnostic cost), restored because
    /// the sweep stopped without converging.
    pub restored_checkpoint: bool,
}

/// Runs the forward–backward sweep.
///
/// # Example
///
/// ```
/// use rumor_control::fbsm::{optimize, FbsmOptions};
/// use rumor_control::{ControlBounds, CostWeights};
/// use rumor_core::functions::AcceptanceRate;
/// use rumor_core::params::ModelParams;
/// use rumor_core::state::NetworkState;
/// use rumor_net::degree::DegreeClasses;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let classes = DegreeClasses::from_degrees(&[1, 2, 2, 3])?;
/// let params = ModelParams::builder(classes)
///     .alpha(0.002)
///     .acceptance(AcceptanceRate::LinearInDegree { lambda0: 0.02 })
///     .build()?;
/// let initial = NetworkState::initial_uniform(params.n_classes(), 0.1)?;
/// let result = optimize(
///     &params,
///     &initial,
///     10.0,
///     &ControlBounds::new(0.5, 0.5)?,
///     &CostWeights::paper_default(),
///     &FbsmOptions { n_nodes: 21, max_iterations: 60, tolerance: 1e-3, ..Default::default() },
/// )?;
/// assert!(result.cost.total().is_finite());
/// assert_eq!(result.control.grid().len(), 21);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// * [`ControlError::InvalidConfig`] for bad options (`tf ≤ 0`,
///   relaxation outside `(0, 1]`, fewer than two nodes).
/// * [`ControlError::SweepDiverged`] if the iteration budget is exhausted
///   while the control is still changing by more than 100× the tolerance
///   (mild non-convergence returns `converged = false` instead).
/// * Propagated integration failures.
pub fn optimize(
    params: &ModelParams,
    initial: &NetworkState,
    tf: f64,
    bounds: &ControlBounds,
    weights: &CostWeights,
    options: &FbsmOptions,
) -> Result<SweepResult> {
    let result = optimize_monitored(params, initial, tf, bounds, weights, options)?;
    if !result.converged {
        let last_change = result
            .change_history
            .last()
            .copied()
            .unwrap_or(f64::INFINITY);
        if !(last_change <= 100.0 * options.tolerance) {
            return Err(ControlError::SweepDiverged {
                iterations: result.iterations,
                last_change,
            });
        }
    }
    Ok(result)
}

/// Integrates one forward or backward pass, guarded or plain depending
/// on `options.guard_ode`.
fn integrate_pass(
    options: &FbsmOptions,
    sys: &impl OdeSystem,
    t0: f64,
    y0: &[f64],
    tf: f64,
) -> std::result::Result<Solution, rumor_ode::OdeError> {
    match &options.guard_ode {
        None => Adaptive::with_config(options.ode).integrate(sys, t0, y0, tf),
        Some(policy) => {
            Guarded::with_config(options.ode, policy.clone()).integrate(sys, t0, y0, tf)
        }
    }
}

/// Simulates `control` on the sweep's grid, honoring `options.guard_ode`
/// so the diagnostic and final trajectories survive the same troubled
/// segments the sweep's own passes do.
fn trajectory_on_grid(
    params: &ModelParams,
    control: &PiecewiseControl,
    initial: &NetworkState,
    grid: &[f64],
    options: &FbsmOptions,
) -> Result<rumor_core::simulate::Trajectory> {
    if options.guard_ode.is_none() {
        return Ok(simulate_grid(
            params,
            control,
            initial,
            grid,
            &SimulateOptions {
                n_out: grid.len(),
                ode: options.ode,
                ..Default::default()
            },
        )?);
    }
    let model = RumorModel::new(params, control);
    let tf = *grid.last().expect("validated non-empty grid");
    let sol =
        integrate_pass(options, &model, 0.0, &initial.to_flat(), tf).map_err(ControlError::Ode)?;
    let mut states = Vec::with_capacity(grid.len());
    for &t in grid {
        let flat = sol.sample(t).map_err(ControlError::Ode)?;
        states.push(NetworkState::from_flat(&flat)?);
    }
    Ok(rumor_core::simulate::Trajectory::from_parts(
        grid.to_vec(),
        states,
    ))
}

/// The sweep itself, instrumented for the watchdog: never errors on mere
/// non-convergence — the result carries `converged = false` plus the full
/// change/cost histories and relaxation telemetry instead, and restores
/// the best-so-far (lowest diagnostic cost) control checkpoint when the
/// final iterate is not the best one seen.
///
/// [`optimize`] wraps this and converts severe non-convergence (last
/// change above 100× tolerance) into [`ControlError::SweepDiverged`];
/// [`crate::watchdog::optimize_guarded`] instead classifies it and
/// restarts with reduced relaxation.
///
/// # Errors
///
/// * [`ControlError::InvalidConfig`] for bad options.
/// * Propagated integration failures.
pub fn optimize_monitored(
    params: &ModelParams,
    initial: &NetworkState,
    tf: f64,
    bounds: &ControlBounds,
    weights: &CostWeights,
    options: &FbsmOptions,
) -> Result<SweepResult> {
    if !(tf > 0.0) || !tf.is_finite() {
        return Err(ControlError::InvalidConfig(format!(
            "final time must be positive and finite, got {tf}"
        )));
    }
    options.validate()?;
    let n = params.n_classes();
    if initial.n_classes() != n {
        return Err(ControlError::InvalidConfig(format!(
            "initial state has {} classes, parameters have {n}",
            initial.n_classes()
        )));
    }
    let mut sweep_span = rumor_obs::span("control.fbsm_sweep");

    let grid: Vec<f64> = (0..options.n_nodes)
        .map(|i| tf * i as f64 / (options.n_nodes - 1) as f64)
        .collect();
    let mut control = match &options.initial_control {
        // Warm start: resample the prior schedule onto this grid
        // (constant extrapolation covers a longer horizon) and clamp
        // into the current box so the iterate is always feasible.
        Some(prior) => {
            use rumor_core::control::ControlSchedule;
            let e1: Vec<f64> = grid.iter().map(|&t| prior.eps1(t)).collect();
            let e2: Vec<f64> = grid.iter().map(|&t| prior.eps2(t)).collect();
            let mut warm = PiecewiseControl::from_values(grid.clone(), e1, e2)?;
            warm.clamp_to(bounds);
            warm
        }
        // Cold start from mid-box controls: a feasible, non-degenerate
        // guess.
        None => PiecewiseControl::constant(
            tf,
            options.n_nodes,
            bounds.eps1_max / 2.0,
            bounds.eps2_max / 2.0,
        )?,
    };

    let y0 = initial.to_flat();
    let mut cost_history = Vec::new();
    let mut change_history = Vec::new();
    let mut converged = false;
    let mut iterations = 0;
    let mut last_change = f64::INFINITY;
    let mut relaxation_backoffs = 0;
    // Best-so-far checkpoint: the control with the lowest diagnostic
    // cost seen during the sweep, restored if the iteration stops
    // without converging on something better.
    let mut best: Option<(f64, PiecewiseControl)> = None;
    // Adaptive damping: when the control update oscillates (the change
    // grows between iterations), halve the relaxation weight; when it
    // contracts, cautiously restore it toward the configured value.
    let mut delta = options.relaxation;

    // Intra-replica pool for the forward/backward kernels, per the
    // resolved inner-thread budget. Skipped when the class count fits a
    // single kernel partition — the pool could never dispatch. The
    // partitioned kernels are bit-identical with and without the pool,
    // so the resolved count can never change the optimum.
    let inner_threads = rumor_par::resolve_inner_threads(options.inner_threads);
    let pool = if inner_threads > 1 && rumor_core::kernels::partition_count(n) > 1 {
        Some(std::sync::Arc::new(rumor_par::InnerPool::new(
            inner_threads,
        )))
    } else {
        None
    };

    for iter in 1..=options.max_iterations {
        iterations = iter;
        // (i) Forward pass.
        let model = RumorModel::new(params, &control).with_pool(pool.clone());
        let forward = integrate_pass(options, &model, 0.0, &y0, tf)?;

        // (ii) Backward pass.
        let costate =
            CostateSystem::with_variant(params, &forward, &control, *weights, options.adjoint)
                .with_pool(pool.clone());
        let terminal = costate.weighted_terminal_condition(options.terminal_weight);
        let backward = integrate_pass(options, &costate, tf, &terminal, 0.0)?;

        // (iii) Control update on the grid.
        let mut e1_new = Vec::with_capacity(grid.len());
        let mut e2_new = Vec::with_capacity(grid.len());
        for &t in &grid {
            let state = forward.sample(t)?;
            let adj = backward.sample(t)?;
            let (s, i) = (&state[..n], &state[n..2 * n]);
            let (psi, phi) = (&adj[..n], &adj[n..2 * n]);
            let (u1, u2) = stationary_controls(s, i, psi, phi, weights);
            e1_new.push(u1.clamp(0.0, bounds.eps1_max));
            e2_new.push(u2.clamp(0.0, bounds.eps2_max));
        }
        // Relaxed update: convex combination with the previous iterate
        // at weight `d`, plus the convergence metric — node-wise change
        // scaled by each channel's bound (a pure relative metric
        // explodes on near-zero values).
        let relax = |d: f64| {
            let e1_relaxed: Vec<f64> = control
                .eps1_values()
                .iter()
                .zip(&e1_new)
                .map(|(old, new)| (1.0 - d) * old + d * new)
                .collect();
            let e2_relaxed: Vec<f64> = control
                .eps2_values()
                .iter()
                .zip(&e2_new)
                .map(|(old, new)| (1.0 - d) * old + d * new)
                .collect();
            let mut change: f64 = 0.0;
            for (old, new) in control.eps1_values().iter().zip(&e1_relaxed) {
                change = change.max((old - new).abs() / bounds.eps1_max);
            }
            for (old, new) in control.eps2_values().iter().zip(&e2_relaxed) {
                change = change.max((old - new).abs() / bounds.eps2_max);
            }
            (e1_relaxed, e2_relaxed, change)
        };
        let (mut e1_relaxed, mut e2_relaxed, mut change) = relax(delta);

        if change > last_change {
            if options.backtracking {
                // Backtracking under-relaxation: retry *this* update with
                // a halved weight before accepting it — the stationary
                // controls are already in hand, so each retry is just the
                // convex combination again, no re-integration. Stops at
                // the floor so damping can never fake convergence.
                while change > last_change && delta > options.relaxation_floor {
                    delta = (delta * 0.5).max(options.relaxation_floor);
                    relaxation_backoffs += 1;
                    (e1_relaxed, e2_relaxed, change) = relax(delta);
                }
            } else {
                // Historical accept-then-damp: keep the oscillating
                // iterate, halve the weight for the next one.
                let lowered = (delta * 0.5).max(options.relaxation_floor);
                if lowered < delta {
                    relaxation_backoffs += 1;
                }
                delta = lowered;
            }
        } else {
            delta = (delta * 1.05).min(options.relaxation);
        }
        let mut next = control.clone();
        next.set_values(e1_relaxed, e2_relaxed)?;
        last_change = change;
        change_history.push(change);
        control = next;

        // Diagnostic cost of the current iterate.
        let traj = trajectory_on_grid(params, &control, initial, &grid, options)?;
        let total = evaluate(&traj, &control, weights)?.total();
        cost_history.push(total);
        if total.is_finite() && best.as_ref().is_none_or(|(b, _)| total < *b) {
            best = Some((total, control.clone()));
        }

        if last_change < options.tolerance {
            converged = true;
            break;
        }
    }

    // A non-converged sweep hands back its best checkpoint, not whatever
    // iterate the budget happened to end on.
    let mut restored_checkpoint = false;
    if !converged {
        if let Some((best_cost, best_control)) = best {
            let final_cost = cost_history.last().copied().unwrap_or(f64::INFINITY);
            if best_cost < final_cost && best_control != control {
                control = best_control;
                restored_checkpoint = true;
            }
        }
    }

    // Per-iteration convergence residuals for trace consumers, replayed
    // from the recorded histories once the loop is done — the sweep's
    // hot loop itself does no per-iteration trace work.
    if rumor_obs::format() != rumor_obs::LogFormat::Off {
        for (i, (&change, &cost)) in change_history.iter().zip(&cost_history).enumerate() {
            rumor_obs::event(
                "control.fbsm_iter",
                &[
                    ("iter", (i + 1).into()),
                    ("change", change.into()),
                    ("cost", cost.into()),
                ],
            );
        }
    }
    if sweep_span.active() {
        sweep_span.field("iterations", iterations);
        sweep_span.field("converged", converged);
        sweep_span.field("backoffs", relaxation_backoffs);
    }
    rumor_obs::add("control.fbsm_sweeps", 1);
    rumor_obs::add("control.fbsm_iterations", iterations as u64);

    let trajectory = trajectory_on_grid(params, &control, initial, &grid, options)?;
    let cost = evaluate(&trajectory, &control, weights)?;
    Ok(SweepResult {
        control,
        trajectory,
        cost,
        iterations,
        converged,
        cost_history,
        change_history,
        relaxation_backoffs,
        final_relaxation: delta,
        restored_checkpoint,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rumor_core::control::ConstantControl;
    use rumor_core::functions::{AcceptanceRate, Infectivity};
    use rumor_core::simulate::simulate;
    use rumor_net::degree::DegreeClasses;

    fn params() -> ModelParams {
        let classes = DegreeClasses::from_degrees(&[1, 1, 2, 2, 3, 6]).unwrap();
        ModelParams::builder(classes)
            .alpha(0.002)
            .acceptance(AcceptanceRate::LinearInDegree { lambda0: 0.02 })
            .infectivity(Infectivity::paper_default())
            .build()
            .unwrap()
    }

    fn quick_options() -> FbsmOptions {
        FbsmOptions {
            n_nodes: 51,
            max_iterations: 80,
            tolerance: 1e-4,
            relaxation: 0.5,
            ode: AdaptiveConfig {
                rtol: 1e-6,
                atol: 1e-8,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn sweep_converges_on_small_problem() {
        let p = params();
        let init = NetworkState::initial_uniform(p.n_classes(), 0.1).unwrap();
        let bounds = ControlBounds::new(0.6, 0.6).unwrap();
        let w = CostWeights::paper_default();
        let result = optimize(&p, &init, 20.0, &bounds, &w, &quick_options()).unwrap();
        assert!(result.converged, "sweep did not converge");
        assert!(result.iterations > 1);
        assert!(result.cost.total().is_finite());
        // Controls respect the box.
        assert!(result
            .control
            .eps1_values()
            .iter()
            .all(|&v| (0.0..=0.6).contains(&v)));
        assert!(result
            .control
            .eps2_values()
            .iter()
            .all(|&v| (0.0..=0.6).contains(&v)));
    }

    #[test]
    fn optimized_beats_constant_midbox_control() {
        let p = params();
        let init = NetworkState::initial_uniform(p.n_classes(), 0.1).unwrap();
        let bounds = ControlBounds::new(0.6, 0.6).unwrap();
        let w = CostWeights::paper_default();
        let tf = 20.0;
        let result = optimize(&p, &init, tf, &bounds, &w, &quick_options()).unwrap();

        // Baseline: hold the initial guess (mid-box) for the whole run.
        let baseline_ctl = ConstantControl::new(0.3, 0.3);
        let baseline_traj = simulate(
            &p,
            baseline_ctl,
            &init,
            tf,
            &SimulateOptions {
                n_out: 51,
                ..Default::default()
            },
        )
        .unwrap();
        let baseline = evaluate(&baseline_traj, baseline_ctl, &w).unwrap();
        assert!(
            result.cost.total() < baseline.total(),
            "optimized {} must beat constant {}",
            result.cost.total(),
            baseline.total()
        );
    }

    #[test]
    fn cost_history_trends_downward() {
        let p = params();
        let init = NetworkState::initial_uniform(p.n_classes(), 0.1).unwrap();
        let bounds = ControlBounds::new(0.6, 0.6).unwrap();
        let w = CostWeights::paper_default();
        let result = optimize(&p, &init, 15.0, &bounds, &w, &quick_options()).unwrap();
        let hist = &result.cost_history;
        assert!(hist.len() >= 2);
        // Not necessarily monotone step-by-step, but the final cost must
        // be well below the first iterate's.
        assert!(*hist.last().unwrap() <= hist[0], "history {:?}", hist);
    }

    #[test]
    fn invalid_configs_rejected() {
        let p = params();
        let init = NetworkState::initial_uniform(p.n_classes(), 0.1).unwrap();
        let bounds = ControlBounds::new(0.5, 0.5).unwrap();
        let w = CostWeights::paper_default();
        let mut opts = quick_options();
        assert!(optimize(&p, &init, 0.0, &bounds, &w, &opts).is_err());
        opts.n_nodes = 1;
        assert!(optimize(&p, &init, 1.0, &bounds, &w, &opts).is_err());
        opts = quick_options();
        opts.relaxation = 0.0;
        assert!(optimize(&p, &init, 1.0, &bounds, &w, &opts).is_err());
        opts = quick_options();
        let bad_init = NetworkState::initial_uniform(2, 0.1).unwrap();
        assert!(optimize(&p, &bad_init, 1.0, &bounds, &w, &opts).is_err());
    }

    #[test]
    fn warm_start_cuts_iterations_in_a_parameter_sweep() {
        // The sweep scenario the jobs layer runs: solve at one lambda0,
        // then re-solve at a neighboring lambda0 seeded with the first
        // optimum. The warm start must converge in strictly fewer
        // iterations than a cold start of the same problem.
        let classes = DegreeClasses::from_degrees(&[1, 1, 2, 2, 3, 6]).unwrap();
        let build = |lambda0: f64| {
            ModelParams::builder(classes.clone())
                .alpha(0.002)
                .acceptance(AcceptanceRate::LinearInDegree { lambda0 })
                .infectivity(Infectivity::paper_default())
                .build()
                .unwrap()
        };
        let base = build(0.02);
        let init = NetworkState::initial_uniform(base.n_classes(), 0.1).unwrap();
        let bounds = ControlBounds::new(0.6, 0.6).unwrap();
        let w = CostWeights::paper_default();
        let opts = quick_options();

        let first = optimize(&base, &init, 20.0, &bounds, &w, &opts).unwrap();
        let neighbor = build(0.022);
        let cold = optimize(&neighbor, &init, 20.0, &bounds, &w, &opts).unwrap();
        let warm_opts = FbsmOptions {
            initial_control: Some(first.control.clone()),
            ..opts
        };
        let warm = optimize(&neighbor, &init, 20.0, &bounds, &w, &warm_opts).unwrap();
        assert!(warm.converged);
        assert!(
            warm.iterations < cold.iterations,
            "warm {} vs cold {} iterations",
            warm.iterations,
            cold.iterations
        );
        // The warm start lands on the same optimum, not a different one.
        assert!(
            (warm.cost.total() - cold.cost.total()).abs() < 0.05 * cold.cost.total().abs(),
            "warm cost {} vs cold cost {}",
            warm.cost.total(),
            cold.cost.total()
        );
    }

    #[test]
    fn warm_start_resamples_across_grids_and_horizons() {
        // A prior schedule on a coarser grid and shorter horizon is
        // still a legal seed: it resamples by interpolation, extends by
        // constant extrapolation, and clamps into the (tighter) box.
        let p = params();
        let init = NetworkState::initial_uniform(p.n_classes(), 0.1).unwrap();
        let w = CostWeights::paper_default();
        let prior = PiecewiseControl::from_values(
            vec![0.0, 5.0, 10.0],
            vec![0.9, 0.5, 0.1],
            vec![0.4, 0.3, 0.2],
        )
        .unwrap();
        let bounds = ControlBounds::new(0.6, 0.25).unwrap();
        let opts = FbsmOptions {
            initial_control: Some(prior),
            ..quick_options()
        };
        let result = optimize(&p, &init, 20.0, &bounds, &w, &opts).unwrap();
        assert!(result
            .control
            .eps1_values()
            .iter()
            .all(|&v| (0.0..=0.6).contains(&v)));
        assert!(result
            .control
            .eps2_values()
            .iter()
            .all(|&v| (0.0..=0.25).contains(&v)));
    }

    #[test]
    fn terminal_infection_lower_than_uncontrolled() {
        let p = params();
        let init = NetworkState::initial_uniform(p.n_classes(), 0.1).unwrap();
        let bounds = ControlBounds::new(0.6, 0.6).unwrap();
        let w = CostWeights::paper_default();
        let tf = 20.0;
        let result = optimize(&p, &init, tf, &bounds, &w, &quick_options()).unwrap();
        let free = simulate(
            &p,
            ConstantControl::none(),
            &init,
            tf,
            &SimulateOptions::default(),
        )
        .unwrap();
        assert!(
            result.trajectory.last_state().total_infected() < free.last_state().total_infected()
        );
    }

    /// Tentpole determinism contract at the sweep level: a full FBSM
    /// solve on a problem large enough that the inner pool genuinely
    /// dispatches (class count above `PART_CHUNK`) must reproduce the
    /// single-threaded sweep bit for bit at every inner thread count.
    #[test]
    fn sweep_is_bit_identical_across_inner_thread_counts() {
        let degrees: Vec<usize> = (1..=300).collect();
        let classes = DegreeClasses::from_degrees(&degrees).unwrap();
        assert!(rumor_core::kernels::partition_count(classes.len()) > 1);
        let p = ModelParams::builder(classes)
            .alpha(0.002)
            .acceptance(AcceptanceRate::LinearInDegree { lambda0: 0.002 })
            .infectivity(Infectivity::paper_default())
            .build()
            .unwrap();
        let init = NetworkState::initial_uniform(p.n_classes(), 0.1).unwrap();
        let bounds = ControlBounds::new(0.6, 0.6).unwrap();
        let w = CostWeights::paper_default();
        let opts = |threads: usize| FbsmOptions {
            n_nodes: 21,
            max_iterations: 5,
            tolerance: 1e-3,
            relaxation: 0.5,
            inner_threads: Some(threads),
            ..Default::default()
        };
        let serial = optimize(&p, &init, 10.0, &bounds, &w, &opts(1)).unwrap();
        for threads in [2usize, 4] {
            let pooled = optimize(&p, &init, 10.0, &bounds, &w, &opts(threads)).unwrap();
            assert_eq!(pooled.iterations, serial.iterations, "threads = {threads}");
            assert_eq!(
                pooled.cost.total().to_bits(),
                serial.cost.total().to_bits(),
                "cost at threads = {threads}"
            );
            for (a, b) in pooled
                .change_history
                .iter()
                .zip(serial.change_history.iter())
            {
                assert_eq!(a.to_bits(), b.to_bits(), "change at threads = {threads}");
            }
            for (a, b) in pooled
                .control
                .eps1_values()
                .iter()
                .zip(serial.control.eps1_values())
            {
                assert_eq!(a.to_bits(), b.to_bits(), "eps1 at threads = {threads}");
            }
            for (a, b) in pooled
                .control
                .eps2_values()
                .iter()
                .zip(serial.control.eps2_values())
            {
                assert_eq!(a.to_bits(), b.to_bits(), "eps2 at threads = {threads}");
            }
        }
    }

    /// Backtracking under-relaxation: with `backtracking: true` an
    /// oscillation is retried at a smaller step inside the same
    /// iteration instead of accepted. The sweep must still converge on
    /// the small problem, land inside the box, and report any backoffs
    /// through the existing telemetry field.
    #[test]
    fn backtracking_sweep_converges_inside_the_box() {
        let p = params();
        let init = NetworkState::initial_uniform(p.n_classes(), 0.1).unwrap();
        let bounds = ControlBounds::new(0.6, 0.6).unwrap();
        let w = CostWeights::paper_default();
        let opts = FbsmOptions {
            backtracking: true,
            // A deliberately aggressive first step so the retry path has
            // oscillations to damp.
            relaxation: 0.9,
            ..quick_options()
        };
        let result = optimize(&p, &init, 20.0, &bounds, &w, &opts).unwrap();
        assert!(result.converged, "backtracking sweep did not converge");
        assert!(result.final_relaxation >= opts.relaxation_floor);
        assert!(result
            .control
            .eps1_values()
            .iter()
            .all(|&v| (0.0..=0.6).contains(&v)));
        assert!(result
            .control
            .eps2_values()
            .iter()
            .all(|&v| (0.0..=0.6).contains(&v)));
        // The reference (non-backtracking) solution on the same problem
        // lands on the same optimum: backtracking changes the path, not
        // the destination.
        let reference_opts = FbsmOptions {
            backtracking: false,
            ..quick_options()
        };
        let reference = optimize(&p, &init, 20.0, &bounds, &w, &reference_opts).unwrap();
        assert!(
            (result.cost.total() - reference.cost.total()).abs()
                < 0.05 * reference.cost.total().abs(),
            "backtracking cost {} vs reference {}",
            result.cost.total(),
            reference.cost.total()
        );
    }
}

/// Deadline-constrained optimization (the paper's literal problem
/// statement: the rumor must be extinct — terminal infection at or below
/// `target` — at the end of the expected time period, with lowest cost).
///
/// Realized as an outer penalty loop: the terminal weight `w` in
/// `J_w = w·Σ I_i(tf) + ∫ …` is raised geometrically until the sweep's
/// terminal infection meets `target`, then the *running* cost of that
/// schedule is reported. Returns the final sweep result together with
/// the weight that achieved the target.
///
/// # Errors
///
/// * [`ControlError::InvalidConfig`] for a non-positive target.
/// * [`ControlError::TargetUnreachable`] if the target is not met even
///   with a very large terminal weight (the box bounds are then the
///   binding constraint).
/// * Propagated sweep failures.
pub fn optimize_to_target(
    params: &ModelParams,
    initial: &NetworkState,
    tf: f64,
    bounds: &ControlBounds,
    weights: &CostWeights,
    target: f64,
    options: &FbsmOptions,
) -> Result<(SweepResult, f64)> {
    if !(target > 0.0) {
        return Err(ControlError::InvalidConfig(format!(
            "terminal infection target must be positive, got {target}"
        )));
    }
    let mut weight = options.terminal_weight.max(1.0);
    let mut best: Option<(SweepResult, f64)> = None;
    const MAX_ESCALATIONS: usize = 24;
    for _ in 0..MAX_ESCALATIONS {
        let opts = FbsmOptions {
            terminal_weight: weight,
            ..options.clone()
        };
        let result = optimize(params, initial, tf, bounds, weights, &opts)?;
        let terminal = result.trajectory.last_state().total_infected();
        let met = terminal <= target;
        best = Some((result, weight));
        if met {
            return Ok(best.expect("just set"));
        }
        weight *= 4.0;
    }
    let (result, _) = best.expect("at least one sweep ran");
    Err(ControlError::TargetUnreachable {
        target,
        best: result.trajectory.last_state().total_infected(),
    })
}

#[cfg(test)]
mod target_tests {
    use super::*;
    use rumor_core::functions::{AcceptanceRate, Infectivity};
    use rumor_net::degree::DegreeClasses;

    fn params() -> ModelParams {
        let classes = DegreeClasses::from_degrees(&[1, 1, 2, 2, 3, 6]).unwrap();
        ModelParams::builder(classes)
            .alpha(0.002)
            .acceptance(AcceptanceRate::LinearInDegree { lambda0: 0.05 })
            .infectivity(Infectivity::paper_default())
            .build()
            .unwrap()
    }

    fn opts() -> FbsmOptions {
        FbsmOptions {
            n_nodes: 41,
            max_iterations: 120,
            tolerance: 1e-4,
            relaxation: 0.4,
            ..Default::default()
        }
    }

    #[test]
    fn target_is_met_by_escalating_terminal_weight() {
        let p = params();
        let init = NetworkState::initial_uniform(p.n_classes(), 0.2).unwrap();
        let bounds = ControlBounds::new(0.8, 0.8).unwrap();
        let w = CostWeights::paper_default();
        let target = 0.01;
        let (result, weight) =
            optimize_to_target(&p, &init, 40.0, &bounds, &w, target, &opts()).unwrap();
        let terminal = result.trajectory.last_state().total_infected();
        assert!(terminal <= target, "terminal {terminal} vs target {target}");
        assert!(weight >= 1.0);
    }

    #[test]
    fn tighter_target_escalates_weight_and_suppresses_harder() {
        let p = params();
        let init = NetworkState::initial_uniform(p.n_classes(), 0.2).unwrap();
        let bounds = ControlBounds::new(0.8, 0.8).unwrap();
        let w = CostWeights::paper_default();
        let (loose, w_loose) =
            optimize_to_target(&p, &init, 40.0, &bounds, &w, 0.05, &opts()).unwrap();
        // A target far below the unconstrained optimum's terminal level
        // forces the penalty weight up and the spend with it.
        let loose_terminal = loose.trajectory.last_state().total_infected();
        let tight_target = (loose_terminal / 50.0).max(1e-8);
        let (tight, w_tight) =
            optimize_to_target(&p, &init, 40.0, &bounds, &w, tight_target, &opts()).unwrap();
        assert!(w_tight > w_loose, "weights {w_tight} vs {w_loose}");
        // Note: the *running* cost need not grow — blocking a nearly
        // extinct rumor is almost free under the quadratic ε²I² cost —
        // but the suppression itself must be strictly stronger.
        assert!(tight.trajectory.last_state().total_infected() <= tight_target);
        assert!(
            tight.trajectory.last_state().total_infected()
                < loose.trajectory.last_state().total_infected()
        );
    }

    #[test]
    fn unreachable_target_reported() {
        let p = params();
        let init = NetworkState::initial_uniform(p.n_classes(), 0.5).unwrap();
        // Tiny bounds over a very short horizon: extinction impossible.
        let bounds = ControlBounds::new(0.01, 0.01).unwrap();
        let w = CostWeights::paper_default();
        let r = optimize_to_target(&p, &init, 1.0, &bounds, &w, 1e-9, &opts());
        assert!(matches!(r, Err(ControlError::TargetUnreachable { .. })));
    }

    #[test]
    fn invalid_target_rejected() {
        let p = params();
        let init = NetworkState::initial_uniform(p.n_classes(), 0.1).unwrap();
        let bounds = ControlBounds::new(0.5, 0.5).unwrap();
        let w = CostWeights::paper_default();
        assert!(optimize_to_target(&p, &init, 10.0, &bounds, &w, 0.0, &opts()).is_err());
    }
}
