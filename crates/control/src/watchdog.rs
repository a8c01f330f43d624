//! FBSM watchdog: divergence classification, restart backoff, and
//! graceful degradation.
//!
//! The forward–backward sweep is the numerically fragile heart of the
//! optimized-countermeasure pipeline: near `r0 ≈ 1` the forward and
//! backward passes become stiff, and an aggressive relaxation weight can
//! make the control update oscillate or blow up. A plain
//! [`optimize_compartments`](crate::multi::optimize_compartments) call
//! turns any of that into a hard error, which is the wrong behavior for a
//! sweep over thousands of parameter sets. [`optimize_guarded`], which
//! runs the paper model ([`PaperSir`]), instead:
//!
//! 1. runs the instrumented sweep
//!    ([`optimize_compartments_monitored`]), which
//!    checkpoints the best-so-far control internally;
//! 2. on failure, **classifies** the divergence — [`DivergenceKind::Oscillation`],
//!    [`DivergenceKind::BlowUp`], or [`DivergenceKind::Stall`] — from the
//!    change and cost histories;
//! 3. **restarts with reduced relaxation** (and, after an integration
//!    blow-up, with the guarded ODE fallback chain engaged), up to a
//!    bounded restart budget;
//! 4. when every retry is exhausted, **degrades gracefully**: the best
//!    non-converged checkpoint or the myopic heuristic controller is
//!    returned with `degraded = true` and `converged = false` — never a
//!    panic, and an error only for caller bugs (invalid configuration,
//!    dimension mismatches) or when even the heuristic cannot run.

use crate::heuristic::{self, HeuristicPolicy};
use crate::multi::{
    optimize_compartments_monitored, MultiControlBounds, MultiFbsmOptions, MultiSweepResult,
};
use crate::{ControlBounds, ControlError, CostWeights, Result};
use rumor_compartments::paper::PaperSir;
use rumor_core::params::ModelParams;
use rumor_core::state::NetworkState;
use rumor_ode::recovery::RecoveryPolicy;
use rumor_ode::OdeError;

/// How a sweep failed, inferred from its iteration telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivergenceKind {
    /// The control change bounces up and down without contracting —
    /// the classic FBSM failure mode of an overly aggressive relaxation.
    Oscillation,
    /// The change or cost grew without bound (or went non-finite), or an
    /// integration pass failed outright.
    BlowUp,
    /// The change plateaued above tolerance: the iteration still moves
    /// but no longer makes progress.
    Stall,
}

impl std::fmt::Display for DivergenceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DivergenceKind::Oscillation => write!(f, "oscillation"),
            DivergenceKind::BlowUp => write!(f, "blow-up"),
            DivergenceKind::Stall => write!(f, "stall"),
        }
    }
}

/// Classifies a non-converged sweep from its per-iteration relative
/// control changes and diagnostic costs.
///
/// Deterministic rules, checked in order: any non-finite entry or a
/// change that grew by more than 10× over the run is a
/// [`DivergenceKind::BlowUp`]; a change series whose direction flips on
/// at least half of the possible turns is an
/// [`DivergenceKind::Oscillation`]; everything else is a
/// [`DivergenceKind::Stall`].
pub fn classify_divergence(changes: &[f64], costs: &[f64]) -> DivergenceKind {
    if changes.iter().chain(costs).any(|v| !v.is_finite()) {
        return DivergenceKind::BlowUp;
    }
    if let (Some(first), Some(last)) = (changes.first(), changes.last()) {
        if *last > 10.0 * *first {
            return DivergenceKind::BlowUp;
        }
    }
    if changes.len() >= 3 {
        let diffs: Vec<f64> = changes.windows(2).map(|w| w[1] - w[0]).collect();
        let turns = diffs.windows(2).filter(|w| w[0] * w[1] < 0.0).count();
        let opportunities = diffs.len().saturating_sub(1);
        if opportunities > 0 && 2 * turns >= opportunities {
            return DivergenceKind::Oscillation;
        }
    }
    DivergenceKind::Stall
}

/// Tuning knobs of the watchdog.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchdogOptions {
    /// The sweep configuration of the first attempt.
    pub fbsm: MultiFbsmOptions,
    /// Restarts allowed after the initial attempt.
    pub max_restarts: usize,
    /// Factor applied to the relaxation weight on each restart
    /// (`δ ← shrink·δ`), in `(0, 1)`.
    pub relaxation_shrink: f64,
    /// After an integration blow-up, engage the guarded ODE fallback
    /// chain ([`RecoveryPolicy`]) on subsequent attempts.
    pub guard_ode_on_retry: bool,
    /// Shared proportional gain of the heuristic fallback controller
    /// used when every retry is exhausted.
    pub fallback_gain: f64,
}

impl Default for WatchdogOptions {
    fn default() -> Self {
        WatchdogOptions {
            fbsm: MultiFbsmOptions::default(),
            max_restarts: 3,
            relaxation_shrink: 0.5,
            guard_ode_on_retry: true,
            fallback_gain: 5.0,
        }
    }
}

impl WatchdogOptions {
    /// Validates every field up front.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::InvalidConfig`] naming the offending
    /// field (including nested [`MultiFbsmOptions`] problems).
    pub fn validate(&self) -> Result<()> {
        self.fbsm.validate()?;
        if !(self.relaxation_shrink > 0.0 && self.relaxation_shrink < 1.0) {
            return Err(ControlError::InvalidConfig(format!(
                "relaxation_shrink: must lie in (0, 1), got {}",
                self.relaxation_shrink
            )));
        }
        if !(self.fallback_gain > 0.0) || !self.fallback_gain.is_finite() {
            return Err(ControlError::InvalidConfig(format!(
                "fallback_gain: must be positive and finite, got {}",
                self.fallback_gain
            )));
        }
        Ok(())
    }
}

/// One failed attempt: what diverged, how, and with which settings.
#[derive(Debug, Clone, PartialEq)]
pub struct RestartEvent {
    /// Zero-based attempt index.
    pub attempt: usize,
    /// Relaxation weight the attempt ran with.
    pub relaxation: f64,
    /// Whether the attempt integrated under the guarded fallback chain.
    pub guarded_ode: bool,
    /// The inferred failure mode.
    pub divergence: DivergenceKind,
    /// Human-readable detail (iterations, last change, or the
    /// integration error).
    pub detail: String,
}

/// Which solver produced the returned schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepSource {
    /// The forward–backward sweep (possibly a best-so-far checkpoint).
    Fbsm,
    /// The myopic heuristic feedback controller (last-resort fallback).
    HeuristicFallback,
}

/// Outcome of a guarded optimization: always a usable schedule, plus a
/// faithful account of what the watchdog had to do to obtain it.
#[derive(Debug, Clone)]
pub struct GuardedSweep {
    /// The schedule, trajectory, and cost actually returned.
    pub result: MultiSweepResult,
    /// Which solver produced it.
    pub source: SweepSource,
    /// One entry per failed attempt, in order.
    pub restarts: Vec<RestartEvent>,
    /// `true` when the result is not a converged sweep: either a
    /// best-so-far checkpoint of a non-converged sweep or the heuristic
    /// fallback. Strict callers treat this as an error.
    pub degraded: bool,
}

impl GuardedSweep {
    /// One-line human-readable summary for logs and CLI output.
    pub fn summary(&self) -> String {
        match (self.degraded, self.source, self.restarts.len()) {
            (false, _, 0) => "sweep converged on the first attempt".to_string(),
            (false, _, n) => format!("sweep converged after {n} restart(s)"),
            (true, SweepSource::Fbsm, n) => {
                format!("DEGRADED: best-so-far FBSM checkpoint after {n} failed attempt(s)")
            }
            (true, SweepSource::HeuristicFallback, n) => {
                format!("DEGRADED: heuristic fallback controller after {n} failed attempt(s)")
            }
        }
    }
}

/// Is this integration failure worth a restart (as opposed to a caller
/// bug such as a dimension mismatch or an invalid configuration)?
fn ode_recoverable(e: &OdeError) -> bool {
    matches!(
        e,
        OdeError::NonFiniteState { .. }
            | OdeError::StepSizeUnderflow { .. }
            | OdeError::TooManySteps { .. }
            | OdeError::NewtonFailed { .. }
            | OdeError::RecoveryExhausted { .. }
            | OdeError::Numerics(_)
    )
}

/// Runs the forward–backward sweep on the paper model under the
/// watchdog.
///
/// Unlike [`optimize_compartments`](crate::multi::optimize_compartments),
/// this never fails because
/// of divergence: it restarts with reduced relaxation (engaging the
/// guarded ODE fallback chain after a blow-up) and, once the restart
/// budget is exhausted, returns the best non-converged checkpoint or the
/// heuristic fallback controller with `degraded = true`.
///
/// # Errors
///
/// * [`ControlError::InvalidConfig`] for bad options or mismatched
///   dimensions — caller bugs are never retried.
/// * Non-recoverable integration errors (e.g. an invalid ODE
///   configuration).
/// * Any error from the heuristic fallback itself, if it comes to that.
pub fn optimize_guarded(
    params: &ModelParams,
    initial: &NetworkState,
    tf: f64,
    bounds: &ControlBounds,
    weights: &CostWeights,
    options: &WatchdogOptions,
) -> Result<GuardedSweep> {
    options.validate()?;
    let model = PaperSir::from_params(params, weights.c1, weights.c2)?;
    let multi_bounds = MultiControlBounds::from(*bounds);
    let y0 = initial.to_flat();
    let mut wd_span = rumor_obs::span("control.watchdog");
    let mut restarts = Vec::new();
    let mut best: Option<MultiSweepResult> = None;
    let mut relaxation = options.fbsm.relaxation;
    let mut guard_ode = options.fbsm.guard_ode.clone();

    for attempt in 0..=options.max_restarts {
        let opts = MultiFbsmOptions {
            relaxation,
            relaxation_floor: options.fbsm.relaxation_floor.min(relaxation),
            guard_ode: guard_ode.clone(),
            ..options.fbsm.clone()
        };
        match optimize_compartments_monitored(&model, &y0, tf, &multi_bounds, &opts) {
            Ok(result) if result.converged => {
                if wd_span.active() {
                    wd_span.field("restarts", restarts.len());
                    wd_span.field("degraded", false);
                }
                return Ok(GuardedSweep {
                    result,
                    source: SweepSource::Fbsm,
                    restarts,
                    degraded: false,
                });
            }
            Ok(result) => {
                let divergence = classify_divergence(&result.change_history, &result.cost_history);
                rumor_obs::event(
                    "control.watchdog_restart",
                    &[
                        ("attempt", attempt.into()),
                        ("kind", divergence.to_string().into()),
                    ],
                );
                rumor_obs::add("control.watchdog_restarts", 1);
                restarts.push(RestartEvent {
                    attempt,
                    relaxation,
                    guarded_ode: opts.guard_ode.is_some(),
                    divergence,
                    detail: format!(
                        "no convergence after {} iteration(s), last change {:.3e}",
                        result.iterations,
                        result.change_history.last().copied().unwrap_or(f64::NAN)
                    ),
                });
                let total = result.cost.total();
                if total.is_finite() && best.as_ref().is_none_or(|b| total < b.cost.total()) {
                    best = Some(result);
                }
            }
            Err(e) if matches!(&e, ControlError::Ode(ode) if ode_recoverable(ode)) => {
                rumor_obs::event(
                    "control.watchdog_restart",
                    &[
                        ("attempt", attempt.into()),
                        ("kind", DivergenceKind::BlowUp.to_string().into()),
                    ],
                );
                rumor_obs::add("control.watchdog_restarts", 1);
                restarts.push(RestartEvent {
                    attempt,
                    relaxation,
                    guarded_ode: opts.guard_ode.is_some(),
                    divergence: DivergenceKind::BlowUp,
                    detail: format!("integration failed: {e}"),
                });
                if options.guard_ode_on_retry {
                    guard_ode.get_or_insert_with(RecoveryPolicy::default);
                }
            }
            Err(e) => return Err(e),
        }
        relaxation = (relaxation * options.relaxation_shrink).max(1e-3);
    }

    // Retry budget exhausted: degrade. Prefer the best checkpoint a
    // sweep produced; fall back to the myopic heuristic controller when
    // no attempt got far enough to leave one.
    if wd_span.active() {
        wd_span.field("restarts", restarts.len());
        wd_span.field("degraded", true);
    }
    rumor_obs::add("control.watchdog_degraded", 1);
    if let Some(result) = best {
        return Ok(GuardedSweep {
            result,
            source: SweepSource::Fbsm,
            restarts,
            degraded: true,
        });
    }
    let fallback = heuristic::run(
        params,
        initial,
        tf,
        HeuristicPolicy {
            gain1: options.fallback_gain,
            gain2: options.fallback_gain,
            bounds: *bounds,
        },
        weights,
        options.fbsm.n_nodes,
    )?;
    Ok(GuardedSweep {
        result: MultiSweepResult {
            control: fallback.control,
            trajectory: fallback.trajectory,
            cost: fallback.cost,
            iterations: 0,
            converged: false,
            cost_history: Vec::new(),
            change_history: Vec::new(),
            relaxation_backoffs: 0,
            final_relaxation: relaxation,
            restored_checkpoint: false,
        },
        source: SweepSource::HeuristicFallback,
        restarts,
        degraded: true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rumor_core::functions::{AcceptanceRate, Infectivity};
    use rumor_net::degree::DegreeClasses;
    use rumor_ode::integrator::AdaptiveConfig;

    fn params() -> ModelParams {
        let classes = DegreeClasses::from_degrees(&[1, 1, 2, 2, 3, 6]).unwrap();
        ModelParams::builder(classes)
            .alpha(0.002)
            .acceptance(AcceptanceRate::LinearInDegree { lambda0: 0.02 })
            .infectivity(Infectivity::paper_default())
            .build()
            .unwrap()
    }

    fn quick_fbsm() -> MultiFbsmOptions {
        MultiFbsmOptions {
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
    fn classification_rules() {
        // Non-finite anywhere: blow-up.
        assert_eq!(
            classify_divergence(&[0.1, f64::NAN], &[1.0]),
            DivergenceKind::BlowUp
        );
        assert_eq!(
            classify_divergence(&[0.1, 0.2], &[f64::INFINITY]),
            DivergenceKind::BlowUp
        );
        // Strong growth: blow-up.
        assert_eq!(
            classify_divergence(&[0.01, 0.05, 0.3], &[1.0, 2.0, 3.0]),
            DivergenceKind::BlowUp
        );
        // Alternating changes: oscillation.
        assert_eq!(
            classify_divergence(&[0.2, 0.1, 0.2, 0.1, 0.2], &[1.0; 5]),
            DivergenceKind::Oscillation
        );
        // Flat above tolerance: stall.
        assert_eq!(
            classify_divergence(&[0.1, 0.1, 0.1, 0.1], &[1.0; 4]),
            DivergenceKind::Stall
        );
        // Too little data for a verdict: stall.
        assert_eq!(classify_divergence(&[], &[]), DivergenceKind::Stall);
    }

    #[test]
    fn healthy_sweep_is_untouched() {
        let p = params();
        let init = NetworkState::initial_uniform(p.n_classes(), 0.1).unwrap();
        let bounds = ControlBounds::new(0.6, 0.6).unwrap();
        let w = CostWeights::paper_default();
        let opts = WatchdogOptions {
            fbsm: quick_fbsm(),
            ..Default::default()
        };
        let g = optimize_guarded(&p, &init, 20.0, &bounds, &w, &opts).unwrap();
        assert!(!g.degraded);
        assert!(g.result.converged);
        assert_eq!(g.source, SweepSource::Fbsm);
        assert!(g.restarts.is_empty());
        assert!(g.summary().contains("first attempt"));
    }

    #[test]
    fn nonconverging_sweep_degrades_to_checkpoint() {
        // One iteration against a tolerance no sweep can meet: every
        // attempt ends non-converged, and the watchdog hands back the
        // best checkpoint, flagged.
        let p = params();
        let init = NetworkState::initial_uniform(p.n_classes(), 0.1).unwrap();
        let bounds = ControlBounds::new(0.6, 0.6).unwrap();
        let w = CostWeights::paper_default();
        let opts = WatchdogOptions {
            fbsm: MultiFbsmOptions {
                max_iterations: 1,
                tolerance: 1e-14,
                ..quick_fbsm()
            },
            max_restarts: 2,
            ..Default::default()
        };
        let g = optimize_guarded(&p, &init, 20.0, &bounds, &w, &opts).unwrap();
        assert!(g.degraded);
        assert!(!g.result.converged);
        assert_eq!(g.source, SweepSource::Fbsm);
        assert_eq!(g.restarts.len(), 3, "initial attempt + 2 restarts");
        assert!(g.result.cost.total().is_finite());
        // Relaxation must actually back off between attempts.
        assert!(g.restarts[1].relaxation < g.restarts[0].relaxation);
        assert!(g.summary().contains("DEGRADED"));
    }

    #[test]
    fn forced_ode_failure_degrades_to_heuristic() {
        // A 2-step budget kills every forward pass before the first
        // iteration completes, so no checkpoint ever exists; with the
        // guarded retry disabled, the watchdog must fall back to the
        // heuristic controller — flagged, not an error, never a panic.
        let p = params();
        let init = NetworkState::initial_uniform(p.n_classes(), 0.1).unwrap();
        let bounds = ControlBounds::new(0.6, 0.6).unwrap();
        let w = CostWeights::paper_default();
        let opts = WatchdogOptions {
            fbsm: MultiFbsmOptions {
                ode: AdaptiveConfig {
                    max_steps: 2,
                    ..Default::default()
                },
                ..quick_fbsm()
            },
            max_restarts: 1,
            guard_ode_on_retry: false,
            ..Default::default()
        };
        let g = optimize_guarded(&p, &init, 20.0, &bounds, &w, &opts).unwrap();
        assert!(g.degraded);
        assert!(!g.result.converged);
        assert_eq!(g.source, SweepSource::HeuristicFallback);
        assert_eq!(g.restarts.len(), 2);
        assert!(g
            .restarts
            .iter()
            .all(|r| r.divergence == DivergenceKind::BlowUp));
        assert!(g.result.cost.total().is_finite());
        assert!(g.summary().contains("heuristic"));
    }

    #[test]
    fn guarded_ode_retry_rescues_step_starved_sweep() {
        // Same starved step budget, but with the guarded retry enabled
        // the second attempt integrates under the fallback chain and the
        // sweep completes (converged or at worst checkpointed) instead
        // of losing every attempt to the integrator.
        let p = params();
        let init = NetworkState::initial_uniform(p.n_classes(), 0.1).unwrap();
        let bounds = ControlBounds::new(0.6, 0.6).unwrap();
        let w = CostWeights::paper_default();
        let opts = WatchdogOptions {
            fbsm: MultiFbsmOptions {
                ode: AdaptiveConfig {
                    max_steps: 40,
                    ..Default::default()
                },
                ..quick_fbsm()
            },
            max_restarts: 2,
            guard_ode_on_retry: true,
            ..Default::default()
        };
        let g = optimize_guarded(&p, &init, 20.0, &bounds, &w, &opts).unwrap();
        // The first attempt fails on the raw integrator…
        assert!(!g.restarts.is_empty());
        assert_eq!(g.restarts[0].divergence, DivergenceKind::BlowUp);
        // …and a later attempt runs guarded.
        assert!(g.restarts.len() < 2 || g.restarts[1].guarded_ode);
        assert_ne!(g.source, SweepSource::HeuristicFallback);
        assert!(g.result.cost.total().is_finite());
    }

    #[test]
    fn caller_bugs_are_not_retried() {
        let p = params();
        let bad_init = NetworkState::initial_uniform(2, 0.1).unwrap();
        let bounds = ControlBounds::new(0.6, 0.6).unwrap();
        let w = CostWeights::paper_default();
        let opts = WatchdogOptions::default();
        let r = optimize_guarded(&p, &bad_init, 20.0, &bounds, &w, &opts);
        assert!(matches!(r, Err(ControlError::InvalidConfig(_))));
    }

    #[test]
    fn invalid_watchdog_options_rejected() {
        let p = params();
        let init = NetworkState::initial_uniform(p.n_classes(), 0.1).unwrap();
        let bounds = ControlBounds::new(0.6, 0.6).unwrap();
        let w = CostWeights::paper_default();
        for opts in [
            WatchdogOptions {
                relaxation_shrink: 1.0,
                ..Default::default()
            },
            WatchdogOptions {
                fallback_gain: f64::NAN,
                ..Default::default()
            },
            WatchdogOptions {
                fbsm: MultiFbsmOptions {
                    relaxation_floor: 0.0,
                    ..Default::default()
                },
                ..Default::default()
            },
        ] {
            assert!(optimize_guarded(&p, &init, 10.0, &bounds, &w, &opts).is_err());
        }
    }
}
