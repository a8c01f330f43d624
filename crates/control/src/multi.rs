//! The forward–backward sweep generalized to `n_controls ≥ 1`
//! compartment models.
//!
//! This is [`crate::fbsm`] lifted onto the
//! [`rumor_compartments::model::CompartmentModel`] contract: the state,
//! adjoint, stationary conditions, and per-channel cost integrands all
//! come from the model, while the sweep itself — the damped Picard
//! iteration with best-so-far checkpointing, adaptive relaxation, and
//! backtracking under-relaxation — is copied step for step from
//! [`crate::fbsm::optimize_monitored`]. Run on the
//! [`rumor_compartments::paper::PaperSir`] port with a two-channel
//! bounds vector, it reproduces the legacy sweep bit for bit (pinned in
//! `tests/compartment_identity.rs`).

use crate::schedule::PiecewiseControl;
use crate::{ControlError, Result};
use rumor_compartments::model::{CompartmentAdjoint, CompartmentModel, CompartmentOde};
use rumor_compartments::schedule::MultiControlSchedule;
use rumor_compartments::simulate::{
    simulate_compartments_grid, CompartmentSimOptions, CompartmentTrajectory,
};
use rumor_numerics::interp::LinearInterp;
use rumor_numerics::quadrature::trapezoid_sampled;
use rumor_ode::integrator::{Adaptive, AdaptiveConfig};

/// A piecewise-linear schedule of `n_controls` channels on a shared time
/// grid, with constant extrapolation outside it — the `n`-channel
/// generalization of [`PiecewiseControl`].
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

    /// Converts a two-channel legacy schedule (`ε1 → 0`, `ε2 → 1`).
    pub fn from_pair(pair: &PiecewiseControl) -> Self {
        Self::from_values(
            pair.grid().to_vec(),
            vec![pair.eps1_values().to_vec(), pair.eps2_values().to_vec()],
        )
        .expect("a valid PiecewiseControl is a valid two-channel schedule")
    }

    /// Converts back into the legacy two-channel form.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::InvalidConfig`] unless the schedule has
    /// exactly two channels.
    pub fn to_pair(&self) -> Result<PiecewiseControl> {
        if self.channels.len() != 2 {
            return Err(ControlError::InvalidConfig(format!(
                "expected 2 channels for a legacy pair, got {}",
                self.channels.len()
            )));
        }
        PiecewiseControl::from_values(
            self.grid().to_vec(),
            self.values(0).to_vec(),
            self.values(1).to_vec(),
        )
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

/// Per-channel box bounds `u_c ∈ [0, max[c]]` — the `n`-channel
/// generalization of [`crate::ControlBounds`].
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

/// Tuning knobs of the generalized sweep — the multi-control subset of
/// [`crate::fbsm::FbsmOptions`] (no guarded integration or adjoint
/// ablation here; those remain legacy-sweep features).
#[derive(Debug, Clone, PartialEq)]
pub struct MultiFbsmOptions {
    /// Number of control-grid nodes on `[0, tf]`.
    pub n_nodes: usize,
    /// Maximum sweep iterations.
    pub max_iterations: usize,
    /// Convergence threshold on the relative control change.
    pub tolerance: f64,
    /// Relaxation weight `δ ∈ (0, 1]` of the control update.
    pub relaxation: f64,
    /// Floor below which the adaptive damping never pushes `δ`.
    pub relaxation_floor: f64,
    /// Integrator tolerances for the forward and backward passes.
    pub ode: AdaptiveConfig,
    /// Weight of the terminal objective (the transversality condition).
    pub terminal_weight: f64,
    /// Warm start: the initial iterate is this schedule resampled onto
    /// the sweep grid and clamped into the box, instead of the mid-box
    /// constant guess.
    pub initial_control: Option<MultiPiecewiseControl>,
    /// Intra-replica thread count for the forward/backward kernels,
    /// resolved through [`rumor_par::resolve_inner_threads`] (`None`
    /// runs serially unless the `--inner-threads` override or
    /// `RUMOR_INNER_THREADS` asks for a pool); bit-identical at every
    /// count.
    pub inner_threads: Option<usize>,
    /// Backtracking under-relaxation (see
    /// [`crate::fbsm::FbsmOptions::backtracking`]); on by default, like
    /// the legacy sweep.
    pub backtracking: bool,
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
            terminal_weight: 1.0,
            initial_control: None,
            inner_threads: None,
            backtracking: true,
        }
    }
}

impl MultiFbsmOptions {
    /// Validates every field up front.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::InvalidConfig`] naming the offending
    /// field, or a wrapped integrator configuration error.
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
        Ok(())
    }
}

/// Cost breakdown of a compartment-model schedule: the terminal
/// objective plus one running-cost integral per control channel.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiCostBreakdown {
    /// The model's terminal objective at `tf`.
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

/// Evaluates the objective of `control` along a sampled trajectory —
/// the generalized counterpart of [`crate::cost::evaluate`].
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

/// Outcome of the generalized sweep.
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
    /// Relative control change per iteration.
    pub change_history: Vec<f64>,
    /// How often the adaptive damping halved the relaxation weight.
    pub relaxation_backoffs: usize,
    /// The relaxation weight in effect when the sweep stopped.
    pub final_relaxation: f64,
    /// `true` when the returned control is the best-so-far checkpoint,
    /// restored because the sweep stopped without converging.
    pub restored_checkpoint: bool,
}

/// Simulates `control` on the sweep grid for the diagnostic and final
/// trajectories. Deliberately serial (no pool), mirroring
/// `fbsm::trajectory_on_grid`'s `simulate_grid` path, so the generic
/// sweep on the paper port stays bit-identical to the legacy one.
fn multi_trajectory_on_grid<M: CompartmentModel>(
    model: &M,
    control: &MultiPiecewiseControl,
    y0: &[f64],
    grid: &[f64],
    options: &MultiFbsmOptions,
) -> Result<CompartmentTrajectory> {
    simulate_compartments_grid(
        model,
        control,
        y0,
        grid,
        &CompartmentSimOptions {
            n_out: grid.len(),
            ode: options.ode,
        },
        None,
    )
    .map_err(ControlError::Core)
}

/// Runs the generalized forward–backward sweep, instrumented like
/// [`crate::fbsm::optimize_monitored`]: mere non-convergence is reported
/// through `converged = false` plus the histories, with the best-so-far
/// checkpoint restored.
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
    let n = model.n_classes();
    let mut sweep_span = rumor_obs::span("control.multi_fbsm_sweep");

    let grid: Vec<f64> = (0..options.n_nodes)
        .map(|i| tf * i as f64 / (options.n_nodes - 1) as f64)
        .collect();
    let mut control = match &options.initial_control {
        // Warm start: resample the prior schedule onto this grid and
        // clamp into the current box so the iterate is always feasible.
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
        // Cold start from mid-box controls.
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
    let mut best: Option<(f64, MultiPiecewiseControl)> = None;
    let mut delta = options.relaxation;

    // Intra-replica pool, under the same dispatchability condition as the
    // legacy sweep; bit-identical with and without it.
    let inner_threads = rumor_par::resolve_inner_threads(options.inner_threads);
    let pool = if inner_threads > 1 && rumor_core::kernels::partition_count(n) > 1 {
        Some(std::sync::Arc::new(rumor_par::InnerPool::new(
            inner_threads,
        )))
    } else {
        None
    };

    let mut u_scratch = vec![0.0; n_controls];
    for iter in 1..=options.max_iterations {
        iterations = iter;
        // (i) Forward pass.
        let sys = CompartmentOde::new(model, &control).with_pool(pool.clone());
        let forward = Adaptive::with_config(options.ode)
            .integrate(&sys, 0.0, y0, tf)
            .map_err(ControlError::Ode)?;

        // (ii) Backward pass.
        let adjoint = CompartmentAdjoint::new(model, &forward, &control).with_pool(pool.clone());
        let terminal = adjoint.weighted_terminal_condition(options.terminal_weight);
        let backward = Adaptive::with_config(options.ode)
            .integrate(&adjoint, tf, &terminal, 0.0)
            .map_err(ControlError::Ode)?;

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
        // Relaxed update + convergence metric, channel by channel in
        // index order (the legacy sweep's eps1-then-eps2 sequence).
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
            if options.backtracking {
                // Backtracking under-relaxation: retry this update at a
                // halved weight — the stationary controls are already in
                // hand, no re-integration.
                while change > last_change && delta > options.relaxation_floor {
                    delta = (delta * 0.5).max(options.relaxation_floor);
                    relaxation_backoffs += 1;
                    (relaxed, change) = relax(delta);
                }
            } else {
                // Historical accept-then-damp.
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
        next.set_values(relaxed)?;
        last_change = change;
        change_history.push(change);
        control = next;

        // Diagnostic cost of the current iterate.
        let traj = multi_trajectory_on_grid(model, &control, y0, &grid, options)?;
        let total = evaluate_compartments(model, &traj, &control)?.total();
        cost_history.push(total);
        if total.is_finite() && best.as_ref().is_none_or(|(b, _)| total < *b) {
            best = Some((total, control.clone()));
        }

        if last_change < options.tolerance {
            converged = true;
            break;
        }
    }

    // A non-converged sweep hands back its best checkpoint.
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

    // Per-iteration residual replay for trace consumers.
    if rumor_obs::format() != rumor_obs::LogFormat::Off {
        for (i, (&change, &cost)) in change_history.iter().zip(&cost_history).enumerate() {
            rumor_obs::event(
                "control.multi_fbsm_iter",
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
    rumor_obs::add("control.multi_fbsm_sweeps", 1);
    rumor_obs::add("control.multi_fbsm_iterations", iterations as u64);

    let trajectory = multi_trajectory_on_grid(model, &control, y0, &grid, options)?;
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

/// Runs the generalized sweep and converts severe non-convergence (last
/// change above 100× tolerance) into [`ControlError::SweepDiverged`],
/// mirroring [`crate::fbsm::optimize`].
///
/// # Errors
///
/// As [`optimize_compartments_monitored`], plus
/// [`ControlError::SweepDiverged`].
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

#[cfg(test)]
mod tests {
    use super::*;
    use rumor_compartments::paper::PaperSir;

    fn model() -> PaperSir {
        PaperSir::from_parts(
            vec![0.02, 0.02, 0.04, 0.04, 0.06, 0.12],
            vec![0.04, 0.04, 0.08, 0.08, 0.12, 0.24],
            0.002,
            5.0,
            10.0,
        )
        .unwrap()
    }

    fn y0() -> Vec<f64> {
        let mut y = vec![0.0; 18];
        for j in 0..6 {
            y[j] = 0.9;
            y[6 + j] = 0.1;
        }
        y
    }

    #[test]
    fn schedule_round_trips_with_the_pair_form() {
        let pair = PiecewiseControl::from_values(
            vec![0.0, 1.0, 3.0],
            vec![0.4, 0.2, 0.0],
            vec![0.0, 0.1, 0.2],
        )
        .unwrap();
        let multi = MultiPiecewiseControl::from_pair(&pair);
        assert_eq!(multi.n_channels(), 2);
        assert_eq!(multi.to_pair().unwrap(), pair);
        assert!((multi.eval(0, 0.5) - 0.3).abs() < 1e-12);
        let mut out = [0.0; 2];
        multi.eval_into(2.0, &mut out);
        assert!((out[0] - 0.1).abs() < 1e-12);
        assert!((out[1] - 0.15).abs() < 1e-12);
    }

    #[test]
    fn schedule_validation() {
        assert!(MultiPiecewiseControl::from_values(vec![0.0, 1.0], vec![]).is_err());
        assert!(MultiPiecewiseControl::from_values(vec![0.0, 1.0], vec![vec![0.1, -0.2]]).is_err());
        assert!(MultiPiecewiseControl::constant(0.0, 5, &[0.1]).is_err());
        assert!(MultiPiecewiseControl::constant(1.0, 1, &[0.1]).is_err());
        let three = MultiPiecewiseControl::constant(1.0, 3, &[0.1, 0.2, 0.3]).unwrap();
        assert!(three.to_pair().is_err());
        let mut c = MultiPiecewiseControl::constant(1.0, 3, &[0.5, 0.5]).unwrap();
        assert!(c.set_values(vec![vec![0.1; 3]]).is_err());
        assert!(c.set_values(vec![vec![0.1; 2], vec![0.1; 2]]).is_err());
        c.set_values(vec![vec![0.9; 3], vec![0.1; 3]]).unwrap();
        c.clamp_to(&[0.6, 0.2]);
        assert_eq!(c.values(0), &[0.6; 3]);
        assert_eq!(c.values(1), &[0.1; 3]);
    }

    #[test]
    fn bounds_validation() {
        assert!(MultiControlBounds::new(vec![]).is_err());
        assert!(MultiControlBounds::new(vec![0.5, 0.0]).is_err());
        assert!(MultiControlBounds::new(vec![f64::NAN]).is_err());
        let b = MultiControlBounds::new(vec![0.5, 0.6]).unwrap();
        assert_eq!(b.n_channels(), 2);
    }

    #[test]
    fn options_validation() {
        assert!(MultiFbsmOptions::default().validate().is_ok());
        for bad in [
            MultiFbsmOptions {
                n_nodes: 1,
                ..Default::default()
            },
            MultiFbsmOptions {
                max_iterations: 0,
                ..Default::default()
            },
            MultiFbsmOptions {
                tolerance: 0.0,
                ..Default::default()
            },
            MultiFbsmOptions {
                relaxation: 1.5,
                ..Default::default()
            },
            MultiFbsmOptions {
                relaxation_floor: 0.9,
                relaxation: 0.4,
                ..Default::default()
            },
            MultiFbsmOptions {
                terminal_weight: -1.0,
                ..Default::default()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn sweep_converges_on_the_paper_port() {
        let m = model();
        let bounds = MultiControlBounds::new(vec![0.6, 0.6]).unwrap();
        let options = MultiFbsmOptions {
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
        };
        let result = optimize_compartments(&m, &y0(), 20.0, &bounds, &options).unwrap();
        assert!(result.converged, "generic sweep did not converge");
        assert!(result.iterations > 1);
        assert!(result.cost.total().is_finite());
        for c in 0..2 {
            assert!(result
                .control
                .values(c)
                .iter()
                .all(|&v| (0.0..=0.6).contains(&v)));
        }
        // Optimized control beats the uncontrolled baseline.
        let no_control = MultiPiecewiseControl::constant(20.0, 51, &[0.0, 0.0]).unwrap();
        let grid: Vec<f64> = (0..51).map(|i| 20.0 * i as f64 / 50.0).collect();
        let base_traj = multi_trajectory_on_grid(&m, &no_control, &y0(), &grid, &options).unwrap();
        let base_cost = evaluate_compartments(&m, &base_traj, &no_control).unwrap();
        assert!(result.cost.total() < base_cost.total());
    }

    #[test]
    fn warm_start_resamples_and_clamps() {
        let m = model();
        let bounds = MultiControlBounds::new(vec![0.3, 0.3]).unwrap();
        let prior = MultiPiecewiseControl::constant(10.0, 5, &[0.9, 0.05]).unwrap();
        let options = MultiFbsmOptions {
            n_nodes: 21,
            max_iterations: 1,
            tolerance: 1e-12,
            relaxation: 0.5,
            initial_control: Some(prior),
            ..Default::default()
        };
        let result = optimize_compartments_monitored(&m, &y0(), 20.0, &bounds, &options).unwrap();
        assert_eq!(result.iterations, 1);
        assert!(!result.converged);
    }

    #[test]
    fn rejects_mismatched_shapes() {
        let m = model();
        let bounds3 = MultiControlBounds::new(vec![0.5, 0.5, 0.5]).unwrap();
        let options = MultiFbsmOptions::default();
        assert!(optimize_compartments_monitored(&m, &y0(), 20.0, &bounds3, &options).is_err());
        let bounds = MultiControlBounds::new(vec![0.5, 0.5]).unwrap();
        assert!(optimize_compartments_monitored(&m, &[0.1; 4], 20.0, &bounds, &options).is_err());
        assert!(optimize_compartments_monitored(&m, &y0(), -1.0, &bounds, &options).is_err());
        let wrong_warm = MultiFbsmOptions {
            initial_control: Some(MultiPiecewiseControl::constant(10.0, 5, &[0.1]).unwrap()),
            ..Default::default()
        };
        assert!(optimize_compartments_monitored(&m, &y0(), 20.0, &bounds, &wrong_warm).is_err());
    }
}
