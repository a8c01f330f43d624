//! The forward–backward sweep method (FBSM) over any
//! [`CompartmentModel`].
//!
//! The standard numerical realization of Pontryagin's principle: alternate
//! (i) a forward integration of the state under the current control,
//! (ii) a backward integration of the costate from the transversality
//! condition, and (iii) a control update from the stationarity
//! conditions, relaxed by a convex combination with the previous iterate,
//! until the control stops changing. The state, adjoint, stationary
//! conditions, and per-channel cost integrands all come from the model,
//! so the one sweep serves the paper's S/I/R system
//! ([`rumor_compartments::paper::PaperSir`], Eqs. (15)–(19)) as well as the
//! two-rumor and tie-strength models of `rumor-models`.
//!
//! The sweep is a damped Picard iteration with best-so-far checkpointing,
//! adaptive relaxation, and backtracking under-relaxation; its outputs on
//! the paper model are pinned bit for bit in `tests/frozen_sweeps.rs`.
//! The checkpoint ranks iterates by a diagnostic cost, which needs the
//! state under each accepted control; that forward solve is exactly the
//! next iteration's forward pass, so the sweep keeps it. An iteration
//! therefore costs two adaptive solves, forward and backward: a sweep of
//! `I` iterations makes `2I + 1`, and one more when it restores the
//! checkpoint (`tests/sweep_solves.rs`).
//! [`optimize_to_target`] wraps it in the deadline-constrained outer loop.

use crate::{ControlError, Result};
use rumor_compartments::model::{CompartmentAdjoint, CompartmentModel, CompartmentOde};
use rumor_compartments::schedule::MultiControlSchedule;
use rumor_compartments::simulate::CompartmentTrajectory;
use rumor_numerics::interp::LinearInterp;
use rumor_numerics::quadrature::trapezoid_sampled;
use rumor_ode::integrator::{Adaptive, AdaptiveConfig};
use rumor_ode::recovery::{Guarded, RecoveryPolicy};
use rumor_ode::solution::Solution;
use rumor_ode::system::OdeSystem;

/// A piecewise-linear schedule of `n_controls` channels on a shared time
/// grid, with constant extrapolation outside it.
///
/// This is the representation the sweep iterates on, and the form in
/// which optimized countermeasures are returned to callers.
///
/// # Example
///
/// ```
/// use rumor_control::multi::MultiPiecewiseControl;
///
/// # fn main() -> Result<(), rumor_control::ControlError> {
/// let pc = MultiPiecewiseControl::from_values(
///     vec![0.0, 1.0, 2.0],
///     vec![vec![0.4, 0.2, 0.0], vec![0.0, 0.1, 0.2]],
/// )?;
/// assert!((pc.eval(0, 0.5) - 0.3).abs() < 1e-12);
/// assert!((pc.eval(1, 1.5) - 0.15).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MultiPiecewiseControl {
    channels: Vec<LinearInterp>,
}

impl MultiPiecewiseControl {
    /// Creates a schedule from a grid and per-channel node values.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::InvalidConfig`] for an empty channel set,
    /// a grid that is not strictly increasing, mismatched lengths, or
    /// negative/non-finite values.
    pub fn from_values(grid: Vec<f64>, channels: Vec<Vec<f64>>) -> Result<Self> {
        if channels.is_empty() {
            return Err(ControlError::InvalidConfig(
                "need at least one control channel".into(),
            ));
        }
        for (c, v) in channels.iter().enumerate() {
            if v.iter().any(|x| !x.is_finite() || *x < 0.0) {
                return Err(ControlError::InvalidConfig(format!(
                    "channel {c} values must be non-negative and finite"
                )));
            }
        }
        let interps = channels
            .into_iter()
            .map(|v| {
                LinearInterp::new(grid.clone(), v)
                    .map_err(|e| ControlError::InvalidConfig(e.to_string()))
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(MultiPiecewiseControl { channels: interps })
    }

    /// Creates a constant schedule on a uniform grid over `[0, tf]` with
    /// one level per channel.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::InvalidConfig`] for non-positive `tf`,
    /// fewer than two nodes, no channels, or negative levels.
    pub fn constant(tf: f64, n_nodes: usize, levels: &[f64]) -> Result<Self> {
        if !(tf > 0.0) || !tf.is_finite() || n_nodes < 2 {
            return Err(ControlError::InvalidConfig(format!(
                "need finite tf > 0 and at least two nodes, got tf = {tf}, nodes = {n_nodes}"
            )));
        }
        let grid: Vec<f64> = (0..n_nodes)
            .map(|i| tf * i as f64 / (n_nodes - 1) as f64)
            .collect();
        Self::from_values(grid, levels.iter().map(|&l| vec![l; n_nodes]).collect())
    }

    /// Number of control channels.
    pub fn n_channels(&self) -> usize {
        self.channels.len()
    }

    /// The shared time grid.
    pub fn grid(&self) -> &[f64] {
        self.channels[0].xs()
    }

    /// Node values of channel `c`.
    pub fn values(&self, c: usize) -> &[f64] {
        self.channels[c].ys()
    }

    /// Replaces every channel's node values (grid unchanged).
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::InvalidConfig`] on channel-count or
    /// length mismatch, or invalid values.
    pub fn set_values(&mut self, channels: Vec<Vec<f64>>) -> Result<()> {
        if channels.len() != self.channels.len() {
            return Err(ControlError::InvalidConfig(format!(
                "expected {} channels, got {}",
                self.channels.len(),
                channels.len()
            )));
        }
        for (c, v) in channels.iter().enumerate() {
            if v.iter().any(|x| !x.is_finite() || *x < 0.0) {
                return Err(ControlError::InvalidConfig(format!(
                    "channel {c} values must be non-negative and finite"
                )));
            }
        }
        for (interp, v) in self.channels.iter_mut().zip(channels) {
            interp
                .set_ys(v)
                .map_err(|e| ControlError::InvalidConfig(e.to_string()))?;
        }
        Ok(())
    }

    /// Clamps every node of channel `c` into `[0, bounds[c]]`.
    ///
    /// # Panics
    ///
    /// Panics if `bounds.len()` differs from the channel count.
    pub fn clamp_to(&mut self, bounds: &[f64]) {
        assert_eq!(bounds.len(), self.channels.len(), "one bound per channel");
        for (interp, &b) in self.channels.iter_mut().zip(bounds) {
            let ys: Vec<f64> = interp.ys().iter().map(|&v| v.clamp(0.0, b)).collect();
            interp.set_ys(ys).expect("same length");
        }
    }

    /// Value of channel `c` at time `t` (constant extrapolation).
    pub fn eval(&self, c: usize, t: f64) -> f64 {
        self.channels[c].eval(t)
    }
}

impl MultiControlSchedule for MultiPiecewiseControl {
    fn n_controls(&self) -> usize {
        self.channels.len()
    }

    fn eval_into(&self, t: f64, out: &mut [f64]) {
        for (o, interp) in out.iter_mut().zip(&self.channels) {
            *o = interp.eval(t);
        }
    }
}

/// Per-channel box bounds `u_c ∈ [0, max[c]]`.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiControlBounds {
    max: Vec<f64>,
}

impl MultiControlBounds {
    /// Validates one positive, finite upper bound per channel.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::InvalidConfig`] for an empty vector or a
    /// non-positive/non-finite bound.
    pub fn new(max: Vec<f64>) -> Result<Self> {
        if max.is_empty() {
            return Err(ControlError::InvalidConfig(
                "need at least one control bound".into(),
            ));
        }
        for (c, &b) in max.iter().enumerate() {
            if !(b > 0.0) || !b.is_finite() {
                return Err(ControlError::InvalidConfig(format!(
                    "bound for channel {c} must be positive and finite, got {b}"
                )));
            }
        }
        Ok(MultiControlBounds { max })
    }

    /// Number of channels.
    pub fn n_channels(&self) -> usize {
        self.max.len()
    }

    /// The per-channel maxima.
    pub fn max(&self) -> &[f64] {
        &self.max
    }
}

impl From<crate::ControlBounds> for MultiControlBounds {
    /// The paper's two-channel box `[ε1max, ε2max]` (already validated).
    fn from(bounds: crate::ControlBounds) -> Self {
        MultiControlBounds {
            max: vec![bounds.eps1_max, bounds.eps2_max],
        }
    }
}

/// Tuning knobs of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiFbsmOptions {
    /// Number of control-grid nodes on `[0, tf]`.
    pub n_nodes: usize,
    /// Maximum sweep iterations.
    pub max_iterations: usize,
    /// Convergence threshold on the relative control change.
    pub tolerance: f64,
    /// Relaxation weight `δ ∈ (0, 1]` of the control update
    /// (`u ← δ·u_new + (1−δ)·u_old`).
    pub relaxation: f64,
    /// Floor below which the adaptive damping never pushes `δ`. Without
    /// a floor the backoff `δ ← δ/2` can shrink `δ` into numerical
    /// irrelevance, freezing the iteration while still burning the
    /// budget.
    pub relaxation_floor: f64,
    /// Integrator tolerances for the forward and backward passes.
    pub ode: AdaptiveConfig,
    /// When set, the forward and backward passes (the diagnostic solve
    /// is the next forward pass) run under the guarded integrator with
    /// this fallback policy instead of the plain adaptive driver, so a
    /// stiff or transiently non-finite segment is rescued instead of
    /// aborting the sweep. The watchdog enables this on restarts after an
    /// integration failure.
    pub guard_ode: Option<RecoveryPolicy>,
    /// Weight of the terminal objective (the transversality condition
    /// becomes `p(tf) = w·∂Φ/∂y`). [`optimize_to_target`] raises this
    /// until its target is met.
    pub terminal_weight: f64,
    /// Warm start: the initial iterate is this schedule resampled onto
    /// the sweep grid and clamped into the box, instead of the mid-box
    /// constant guess. In a parameter sweep, seeding each grid point with
    /// the previous point's optimum typically cuts the iteration count by
    /// an integer factor — neighboring problems have neighboring optima.
    pub initial_control: Option<MultiPiecewiseControl>,
}

impl Default for MultiFbsmOptions {
    fn default() -> Self {
        MultiFbsmOptions {
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
            terminal_weight: 1.0,
            initial_control: None,
        }
    }
}

impl MultiFbsmOptions {
    /// Validates every field up front, so a bad configuration surfaces
    /// as a structured error instead of NaN propagating through a sweep.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::InvalidConfig`] naming the offending
    /// field, or a wrapped integrator or recovery-policy configuration
    /// error.
    pub fn validate(&self) -> Result<()> {
        if self.n_nodes < 2 {
            return Err(ControlError::InvalidConfig(format!(
                "need at least two control nodes, got {}",
                self.n_nodes
            )));
        }
        if self.max_iterations < 1 {
            return Err(ControlError::InvalidConfig(
                "need at least one iteration".into(),
            ));
        }
        if !(self.tolerance > 0.0) || !self.tolerance.is_finite() {
            return Err(ControlError::InvalidConfig(format!(
                "tolerance must be positive and finite, got {}",
                self.tolerance
            )));
        }
        if !(self.relaxation > 0.0) || self.relaxation > 1.0 {
            return Err(ControlError::InvalidConfig(format!(
                "relaxation must lie in (0, 1], got {}",
                self.relaxation
            )));
        }
        if !(self.relaxation_floor > 0.0) || self.relaxation_floor > self.relaxation {
            return Err(ControlError::InvalidConfig(format!(
                "relaxation floor must lie in (0, relaxation], got {}",
                self.relaxation_floor
            )));
        }
        if !(self.terminal_weight >= 0.0) || !self.terminal_weight.is_finite() {
            return Err(ControlError::InvalidConfig(format!(
                "terminal weight must be non-negative and finite, got {}",
                self.terminal_weight
            )));
        }
        self.ode.validate().map_err(ControlError::Ode)?;
        if let Some(policy) = &self.guard_ode {
            policy.validate().map_err(ControlError::Ode)?;
        }
        Ok(())
    }
}

/// Cost breakdown of a compartment-model schedule: the terminal
/// objective plus one running-cost integral per control channel.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiCostBreakdown {
    /// The model's terminal objective at `tf` (for the paper model, the
    /// terminal infection `Σ_i I_i(tf)`).
    pub terminal: f64,
    /// `∫ running_cost_c dt` per channel.
    pub channel_costs: Vec<f64>,
}

impl MultiCostBreakdown {
    /// Total running expenditure across channels.
    pub fn running(&self) -> f64 {
        self.channel_costs.iter().sum()
    }

    /// The full objective `terminal + Σ_c ∫ running_cost_c dt`.
    pub fn total(&self) -> f64 {
        self.terminal + self.running()
    }
}

/// Evaluates the objective of `control` along a sampled trajectory,
/// integrating each channel's running cost with the trapezoid rule on
/// the trajectory's own grid.
///
/// # Errors
///
/// Returns [`ControlError::InvalidConfig`] on a channel-count mismatch
/// and propagates quadrature failures.
pub fn evaluate_compartments<M: CompartmentModel>(
    model: &M,
    trajectory: &CompartmentTrajectory,
    control: &MultiPiecewiseControl,
) -> Result<MultiCostBreakdown> {
    let n_controls = model.n_controls();
    if control.n_channels() != n_controls {
        return Err(ControlError::InvalidConfig(format!(
            "schedule has {} channels, model has {n_controls}",
            control.n_channels()
        )));
    }
    let ts = trajectory.times();
    let mut u = vec![0.0; n_controls];
    let mut integrand = vec![0.0; n_controls];
    let mut series: Vec<Vec<f64>> = vec![Vec::with_capacity(ts.len()); n_controls];
    for (&t, state) in ts.iter().zip(trajectory.states()) {
        control.eval_into(t, &mut u);
        model.running_cost(state, &u, &mut integrand);
        for (c, &v) in integrand.iter().enumerate() {
            series[c].push(v);
        }
    }
    let channel_costs = series
        .iter()
        .map(|ys| trapezoid_sampled(ts, ys).map_err(ControlError::Numerics))
        .collect::<Result<Vec<f64>>>()?;
    Ok(MultiCostBreakdown {
        terminal: model.terminal_objective(trajectory.last_state()),
        channel_costs,
    })
}

/// Outcome of a converged (or budget-exhausted) sweep.
#[derive(Debug, Clone)]
pub struct MultiSweepResult {
    /// The optimized multi-channel schedule.
    pub control: MultiPiecewiseControl,
    /// The state trajectory under the optimized schedule, on the sweep
    /// grid.
    pub trajectory: CompartmentTrajectory,
    /// Cost of the optimized schedule.
    pub cost: MultiCostBreakdown,
    /// Sweep iterations performed.
    pub iterations: usize,
    /// Whether the control change dropped below tolerance.
    pub converged: bool,
    /// Total diagnostic cost per iteration.
    pub cost_history: Vec<f64>,
    /// Relative control change per iteration (the watchdog classifies
    /// divergence from this series).
    pub change_history: Vec<f64>,
    /// How often the adaptive damping halved the relaxation weight.
    pub relaxation_backoffs: usize,
    /// The relaxation weight in effect when the sweep stopped.
    pub final_relaxation: f64,
    /// `true` when the returned control is the best-so-far checkpoint,
    /// restored because the sweep stopped without converging.
    pub restored_checkpoint: bool,
}

/// Integrates one forward or backward pass, guarded or plain depending
/// on `options.guard_ode`.
fn integrate_pass(
    options: &MultiFbsmOptions,
    sys: &impl OdeSystem,
    t0: f64,
    y0: &[f64],
    tf: f64,
) -> Result<Solution> {
    match &options.guard_ode {
        None => Adaptive::with_config(options.ode).integrate(sys, t0, y0, tf),
        Some(policy) => {
            Guarded::with_config(options.ode, policy.clone()).integrate(sys, t0, y0, tf)
        }
    }
    .map_err(ControlError::Ode)
}

/// The sweep itself, instrumented for the watchdog: never errors on mere
/// non-convergence. The result carries `converged = false` plus the full
/// change/cost histories and relaxation telemetry instead, and restores
/// the best-so-far (lowest diagnostic cost) control checkpoint when the
/// final iterate is not the best one seen.
///
/// [`optimize_compartments`] wraps this and converts severe
/// non-convergence into [`ControlError::SweepDiverged`];
/// [`crate::watchdog::optimize_guarded`] instead classifies it and
/// restarts with reduced relaxation.
///
/// # Errors
///
/// * [`ControlError::InvalidConfig`] for bad options, a bounds/channel
///   mismatch, or an initial state of the wrong dimension.
/// * Propagated integration failures.
pub fn optimize_compartments_monitored<M: CompartmentModel>(
    model: &M,
    y0: &[f64],
    tf: f64,
    bounds: &MultiControlBounds,
    options: &MultiFbsmOptions,
) -> Result<MultiSweepResult> {
    if !(tf > 0.0) || !tf.is_finite() {
        return Err(ControlError::InvalidConfig(format!(
            "final time must be positive and finite, got {tf}"
        )));
    }
    options.validate()?;
    let n_controls = model.n_controls();
    if bounds.n_channels() != n_controls {
        return Err(ControlError::InvalidConfig(format!(
            "bounds have {} channels, model has {n_controls}",
            bounds.n_channels()
        )));
    }
    if y0.len() != model.state_dim() {
        return Err(ControlError::InvalidConfig(format!(
            "initial state has length {}, model needs {}",
            y0.len(),
            model.state_dim()
        )));
    }
    let mut sweep_span = rumor_obs::span("control.fbsm_sweep");

    let grid: Vec<f64> = (0..options.n_nodes)
        .map(|i| tf * i as f64 / (options.n_nodes - 1) as f64)
        .collect();
    let mut control = match &options.initial_control {
        // Warm start: resample the prior schedule onto this grid
        // (constant extrapolation covers a longer horizon) and clamp into
        // the current box so the iterate is always feasible.
        Some(prior) => {
            if prior.n_channels() != n_controls {
                return Err(ControlError::InvalidConfig(format!(
                    "warm-start schedule has {} channels, model has {n_controls}",
                    prior.n_channels()
                )));
            }
            let channels: Vec<Vec<f64>> = (0..n_controls)
                .map(|c| grid.iter().map(|&t| prior.eval(c, t)).collect())
                .collect();
            let mut warm = MultiPiecewiseControl::from_values(grid.clone(), channels)?;
            warm.clamp_to(bounds.max());
            warm
        }
        // Cold start from mid-box controls: a feasible, non-degenerate
        // guess.
        None => {
            let levels: Vec<f64> = bounds.max().iter().map(|&b| b / 2.0).collect();
            MultiPiecewiseControl::constant(tf, options.n_nodes, &levels)?
        }
    };

    let mut cost_history = Vec::new();
    let mut change_history = Vec::new();
    let mut converged = false;
    let mut iterations = 0;
    let mut last_change = f64::INFINITY;
    let mut relaxation_backoffs = 0;
    // Best-so-far checkpoint: the control with the lowest diagnostic cost
    // seen during the sweep, restored if the iteration stops without
    // converging on something better.
    let mut best: Option<(f64, MultiPiecewiseControl)> = None;
    // Adaptive damping: when the control update oscillates (the change
    // grows between iterations), halve the relaxation weight; when it
    // contracts, cautiously restore it toward the configured value.
    let mut delta = options.relaxation;

    // One forward solve serves twice: it prices the control it was run
    // for (the diagnostic cost) and, unchanged, it is the next
    // iteration's forward pass — same model, control, `y0`, horizon and
    // tolerances. So an iteration costs two solves, backward and
    // forward, plus the first forward.
    let forward_pass = |control: &MultiPiecewiseControl| {
        let sys = CompartmentOde::new(model, control);
        integrate_pass(options, &sys, 0.0, y0, tf)
    };
    // (i) Forward pass of the first iterate.
    let mut forward = forward_pass(&control)?;

    let mut u_scratch = vec![0.0; n_controls];
    for iter in 1..=options.max_iterations {
        iterations = iter;
        // (ii) Backward pass.
        let adjoint = CompartmentAdjoint::new(model, &forward, &control);
        let terminal = adjoint.weighted_terminal_condition(options.terminal_weight);
        let backward = integrate_pass(options, &adjoint, tf, &terminal, 0.0)?;

        // (iii) Control update on the grid.
        let mut new_values: Vec<Vec<f64>> = vec![Vec::with_capacity(grid.len()); n_controls];
        for &t in &grid {
            let state = forward.sample(t).map_err(ControlError::Ode)?;
            let adj = backward.sample(t).map_err(ControlError::Ode)?;
            model.stationary_controls(&state, &adj, &mut u_scratch);
            for (c, &u) in u_scratch.iter().enumerate() {
                new_values[c].push(u.clamp(0.0, bounds.max()[c]));
            }
        }
        // Relaxed update at weight `d`, plus the convergence metric —
        // node-wise change scaled by each channel's bound (a pure
        // relative metric explodes on near-zero values), channel by
        // channel in index order.
        let relax = |d: f64| {
            let relaxed: Vec<Vec<f64>> = (0..n_controls)
                .map(|c| {
                    control
                        .values(c)
                        .iter()
                        .zip(&new_values[c])
                        .map(|(old, new)| (1.0 - d) * old + d * new)
                        .collect()
                })
                .collect();
            let mut change: f64 = 0.0;
            for c in 0..n_controls {
                for (old, new) in control.values(c).iter().zip(&relaxed[c]) {
                    change = change.max((old - new).abs() / bounds.max()[c]);
                }
            }
            (relaxed, change)
        };
        let (mut relaxed, mut change) = relax(delta);

        if change > last_change {
            // Backtracking under-relaxation: when the relaxed update
            // grows the change (damped-Picard oscillation), retry this
            // update at a halved weight before accepting it. The
            // stationary controls are already in hand, so each retry is
            // just the convex combination again, no re-integration. Stops
            // at the floor so damping can never fake convergence.
            while change > last_change && delta > options.relaxation_floor {
                delta = (delta * 0.5).max(options.relaxation_floor);
                relaxation_backoffs += 1;
                (relaxed, change) = relax(delta);
            }
        } else {
            delta = (delta * 1.05).min(options.relaxation);
        }
        let mut next = control.clone();
        next.set_values(relaxed)?;
        last_change = change;
        change_history.push(change);
        control = next;

        // (i) Forward pass of the new iterate, and its diagnostic cost.
        // The spent solves go first, so the new one reuses their memory
        // instead of piling on top of it.
        drop(backward);
        drop(std::mem::take(&mut forward));
        forward = forward_pass(&control)?;
        let trajectory = CompartmentTrajectory::from_solution(model.layout(), &forward, &grid)?;
        let total = evaluate_compartments(model, &trajectory, &control)?.total();
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
    // from the recorded histories once the loop is done — the hot loop
    // itself does no per-iteration trace work.
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

    // `forward` is the last iterate's solve; a restored checkpoint needs
    // its own.
    if restored_checkpoint {
        forward = forward_pass(&control)?;
    }
    let trajectory = CompartmentTrajectory::from_solution(model.layout(), &forward, &grid)?;
    let cost = evaluate_compartments(model, &trajectory, &control)?;
    Ok(MultiSweepResult {
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

/// Runs the sweep and converts severe non-convergence into an error.
///
/// # Example
///
/// ```
/// use rumor_compartments::paper::PaperSir;
/// use rumor_control::multi::{optimize_compartments, MultiControlBounds, MultiFbsmOptions};
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
/// let model = PaperSir::from_params(&params, 5.0, 10.0)?;
/// let initial = NetworkState::initial_uniform(params.n_classes(), 0.1)?;
/// let result = optimize_compartments(
///     &model,
///     &initial.to_flat(),
///     10.0,
///     &MultiControlBounds::new(vec![0.5, 0.5])?,
///     &MultiFbsmOptions { n_nodes: 21, max_iterations: 60, tolerance: 1e-3, ..Default::default() },
/// )?;
/// assert!(result.cost.total().is_finite());
/// assert_eq!(result.control.grid().len(), 21);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// As [`optimize_compartments_monitored`], plus
/// [`ControlError::SweepDiverged`] if the iteration budget is exhausted
/// while the control is still changing by more than 100× the tolerance
/// (mild non-convergence returns `converged = false` instead).
pub fn optimize_compartments<M: CompartmentModel>(
    model: &M,
    y0: &[f64],
    tf: f64,
    bounds: &MultiControlBounds,
    options: &MultiFbsmOptions,
) -> Result<MultiSweepResult> {
    let result = optimize_compartments_monitored(model, y0, tf, bounds, options)?;
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

/// Deadline-constrained optimization (the paper's literal problem
/// statement: the rumor must be extinct — terminal objective at or below
/// `target` — at the end of the expected time period, with lowest cost).
///
/// Realized as an outer penalty loop: the terminal weight `w` in
/// `J_w = w·Φ(y(tf)) + ∫ …` is raised geometrically until the sweep's
/// terminal objective meets `target`, then the *running* cost of that
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
pub fn optimize_to_target<M: CompartmentModel>(
    model: &M,
    y0: &[f64],
    tf: f64,
    bounds: &MultiControlBounds,
    target: f64,
    options: &MultiFbsmOptions,
) -> Result<(MultiSweepResult, f64)> {
    if !(target > 0.0) {
        return Err(ControlError::InvalidConfig(format!(
            "terminal infection target must be positive, got {target}"
        )));
    }
    let mut weight = options.terminal_weight.max(1.0);
    let mut best: Option<(MultiSweepResult, f64)> = None;
    const MAX_ESCALATIONS: usize = 24;
    for _ in 0..MAX_ESCALATIONS {
        let opts = MultiFbsmOptions {
            terminal_weight: weight,
            ..options.clone()
        };
        let result = optimize_compartments(model, y0, tf, bounds, &opts)?;
        let met = result.cost.terminal <= target;
        best = Some((result, weight));
        if met {
            return Ok(best.expect("just set"));
        }
        weight *= 4.0;
    }
    let (result, _) = best.expect("at least one sweep ran");
    Err(ControlError::TargetUnreachable {
        target,
        best: result.cost.terminal,
    })
}
