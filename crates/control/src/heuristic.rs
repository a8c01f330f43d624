//! The heuristic (myopic feedback) countermeasure baseline.
//!
//! The paper's Fig. 4(c) compares the optimized schedule against
//! "heuristic countermeasures (that) restrain the spread of rumors just
//! based on the current infection state, i.e., there is no global
//! control". We realize that as proportional feedback: both channels
//! react to the current mean infected density,
//!
//! ```text
//! ε1(t) = clamp(g1 · Ī(t), 0, ε1max),   ε2(t) = clamp(g2 · Ī(t), 0, ε2max)
//! ```
//!
//! with `Ī = (1/n) Σ_i I_i`. [`tune`] searches the shared gain so the
//! terminal infection matches a target level, which is how the paper
//! equalizes effectiveness before comparing costs.

use crate::multi::{evaluate_compartments, MultiCostBreakdown, MultiPiecewiseControl};
use crate::{ControlBounds, ControlError, CostWeights, Result};
use rumor_compartments::model::CompartmentModel;
use rumor_compartments::paper::PaperSir;
use rumor_compartments::simulate::CompartmentTrajectory;
use rumor_core::params::ModelParams;
use rumor_core::state::NetworkState;
use rumor_ode::integrator::{Adaptive, AdaptiveConfig};
use rumor_ode::system::OdeSystem;

/// Proportional-feedback policy reacting to the mean infected density.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeuristicPolicy {
    /// Gain of the truth-spreading channel.
    pub gain1: f64,
    /// Gain of the blocking channel.
    pub gain2: f64,
    /// Saturation bounds (shared with the optimized problem for a fair
    /// comparison).
    pub bounds: ControlBounds,
}

impl HeuristicPolicy {
    /// The feedback rates at mean infected density `i_mean`.
    pub fn rates(&self, i_mean: f64) -> (f64, f64) {
        (
            (self.gain1 * i_mean).clamp(0.0, self.bounds.eps1_max),
            (self.gain2 * i_mean).clamp(0.0, self.bounds.eps2_max),
        )
    }
}

/// The rumor dynamics under state-feedback countermeasures (the control
/// depends on the state, so it cannot be expressed as a schedule).
#[derive(Debug, Clone)]
struct HeuristicModel<'p> {
    params: &'p ModelParams,
    policy: HeuristicPolicy,
}

impl OdeSystem for HeuristicModel<'_> {
    fn dim(&self) -> usize {
        3 * self.params.n_classes()
    }

    fn rhs(&self, _t: f64, y: &[f64], dydt: &mut [f64]) {
        let n = self.params.n_classes();
        let alpha = self.params.alpha();
        let lambda = self.params.lambda();
        let phi = self.params.phi();
        let mean_k = self.params.mean_degree();
        let i_mean = y[n..2 * n].iter().sum::<f64>() / n as f64;
        let (eps1, eps2) = self.policy.rates(i_mean);
        let theta: f64 = phi
            .iter()
            .zip(&y[n..2 * n])
            .map(|(p, i)| p * i)
            .sum::<f64>()
            / mean_k;
        for j in 0..n {
            let s = y[j];
            let inf = y[n + j];
            let force = lambda[j] * s * theta;
            dydt[j] = alpha - force - eps1 * s;
            dydt[n + j] = force - eps2 * inf;
            dydt[2 * n + j] = eps1 * s + eps2 * inf - alpha;
        }
    }
}

/// Outcome of a heuristic run: the realized trajectory, the control
/// signal it induced, and its cost — in the same forms the sweep
/// returns, so the watchdog's fallback needs no conversion.
#[derive(Debug, Clone)]
pub struct HeuristicRun {
    /// The policy that produced the run.
    pub policy: HeuristicPolicy,
    /// State trajectory on the output grid (`[S.., I.., R..]` per
    /// sample, negative round-off clamped to zero).
    pub trajectory: CompartmentTrajectory,
    /// The induced (recorded) two-channel control signal `[ε1, ε2]`.
    pub control: MultiPiecewiseControl,
    /// Itemized cost under the same functional as the optimized problem,
    /// evaluated on [`PaperSir`] (`terminal` is `Σ_i I_i(tf)`).
    pub cost: MultiCostBreakdown,
}

/// Simulates the feedback policy over `[0, tf]` and evaluates its cost.
///
/// # Errors
///
/// * [`ControlError::InvalidConfig`] for bad horizon/grid parameters.
/// * Propagated integration failures.
pub fn run(
    params: &ModelParams,
    initial: &NetworkState,
    tf: f64,
    policy: HeuristicPolicy,
    weights: &CostWeights,
    n_out: usize,
) -> Result<HeuristicRun> {
    if !(tf > 0.0) || n_out < 2 {
        return Err(ControlError::InvalidConfig(format!(
            "need tf > 0 and n_out >= 2, got tf = {tf}, n_out = {n_out}"
        )));
    }
    if initial.n_classes() != params.n_classes() {
        return Err(ControlError::InvalidConfig(format!(
            "initial state has {} classes, parameters have {}",
            initial.n_classes(),
            params.n_classes()
        )));
    }
    let paper = PaperSir::from_params(params, weights.c1, weights.c2)?;
    let layout = paper.layout();
    let model = HeuristicModel { params, policy };
    let cfg = AdaptiveConfig {
        rtol: 1e-7,
        atol: 1e-9,
        ..Default::default()
    };
    let sol = Adaptive::with_config(cfg).integrate(&model, 0.0, &initial.to_flat(), tf)?;
    let grid: Vec<f64> = (0..n_out)
        .map(|i| tf * i as f64 / (n_out - 1) as f64)
        .collect();
    let n = params.n_classes();
    let mut states = Vec::with_capacity(n_out);
    let mut e1 = Vec::with_capacity(n_out);
    let mut e2 = Vec::with_capacity(n_out);
    for &t in &grid {
        let mut flat = sol.sample(t)?;
        let i_mean = flat[n..2 * n].iter().sum::<f64>() / n as f64;
        let (r1, r2) = policy.rates(i_mean);
        e1.push(r1);
        e2.push(r2);
        layout.sanitize(&mut flat)?;
        states.push(flat);
    }
    let control = MultiPiecewiseControl::from_values(grid.clone(), vec![e1, e2])?;
    let trajectory = CompartmentTrajectory::from_parts(layout, grid, states);
    let cost = evaluate_compartments(&paper, &trajectory, &control)?;
    Ok(HeuristicRun {
        policy,
        trajectory,
        control,
        cost,
    })
}

/// Bisects the shared feedback gain so the run's terminal infection hits
/// `target` (within `tol_rel` relative tolerance). Both channels share
/// the gain, mirroring the paper's single-knob heuristic.
///
/// # Errors
///
/// * [`ControlError::TargetUnreachable`] if even the saturated policy
///   cannot push the terminal infection down to `target`.
/// * [`ControlError::InvalidConfig`] for a non-positive target.
pub fn tune(
    params: &ModelParams,
    initial: &NetworkState,
    tf: f64,
    bounds: &ControlBounds,
    weights: &CostWeights,
    target: f64,
    n_out: usize,
) -> Result<HeuristicRun> {
    if !(target > 0.0) {
        return Err(ControlError::InvalidConfig(format!(
            "terminal infection target must be positive, got {target}"
        )));
    }
    let mk_policy = |g: f64| HeuristicPolicy {
        gain1: g,
        gain2: g,
        bounds: *bounds,
    };
    let terminal = |g: f64| -> Result<f64> {
        Ok(run(params, initial, tf, mk_policy(g), weights, n_out)?
            .cost
            .terminal)
    };
    // Find an upper gain that reaches the target.
    let mut g_hi = 1.0;
    let mut reached = terminal(g_hi)?;
    let mut guard = 0;
    while reached > target {
        g_hi *= 4.0;
        reached = terminal(g_hi)?;
        guard += 1;
        if guard > 20 {
            return Err(ControlError::TargetUnreachable {
                target,
                best: reached,
            });
        }
    }
    // Bisect on the gain (terminal infection is monotone decreasing).
    let mut g_lo = 0.0;
    for _ in 0..60 {
        let mid = 0.5 * (g_lo + g_hi);
        if terminal(mid)? > target {
            g_lo = mid;
        } else {
            g_hi = mid;
        }
        if (g_hi - g_lo) < 1e-6 * g_hi.max(1.0) {
            break;
        }
    }
    run(params, initial, tf, mk_policy(g_hi), weights, n_out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rumor_core::functions::{AcceptanceRate, Infectivity};
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

    fn bounds() -> ControlBounds {
        ControlBounds::new(0.6, 0.6).unwrap()
    }

    #[test]
    fn policy_rates_clamp() {
        let p = HeuristicPolicy {
            gain1: 10.0,
            gain2: 0.5,
            bounds: bounds(),
        };
        let (e1, e2) = p.rates(0.2);
        assert_eq!(e1, 0.6); // saturated
        assert!((e2 - 0.1).abs() < 1e-12);
        assert_eq!(p.rates(0.0), (0.0, 0.0));
    }

    #[test]
    fn run_produces_consistent_artifacts() {
        let p = params();
        let init = NetworkState::initial_uniform(p.n_classes(), 0.1).unwrap();
        let policy = HeuristicPolicy {
            gain1: 2.0,
            gain2: 2.0,
            bounds: bounds(),
        };
        let hr = run(&p, &init, 20.0, policy, &CostWeights::paper_default(), 41).unwrap();
        assert_eq!(hr.trajectory.len(), 41);
        assert_eq!(hr.control.grid().len(), 41);
        assert!(hr.cost.total().is_finite());
        let infected: f64 = hr.trajectory.band(40, 1).iter().sum();
        assert_eq!(hr.cost.terminal, infected);
        // The recorded control must match the policy applied to the
        // recorded states.
        for (k, i_total) in hr.trajectory.total_series(1).into_iter().enumerate() {
            let (e1, _) = policy.rates(i_total / p.n_classes() as f64);
            assert!((hr.control.values(0)[k] - e1).abs() < 1e-9);
        }
    }

    #[test]
    fn stronger_gain_means_less_infection() {
        let p = params();
        let init = NetworkState::initial_uniform(p.n_classes(), 0.1).unwrap();
        let w = CostWeights::paper_default();
        let weak = run(
            &p,
            &init,
            30.0,
            HeuristicPolicy {
                gain1: 0.1,
                gain2: 0.1,
                bounds: bounds(),
            },
            &w,
            41,
        )
        .unwrap();
        let strong = run(
            &p,
            &init,
            30.0,
            HeuristicPolicy {
                gain1: 5.0,
                gain2: 5.0,
                bounds: bounds(),
            },
            &w,
            41,
        )
        .unwrap();
        assert!(strong.cost.terminal < weak.cost.terminal);
    }

    #[test]
    fn tune_hits_target() {
        let p = params();
        let init = NetworkState::initial_uniform(p.n_classes(), 0.1).unwrap();
        let w = CostWeights::paper_default();
        let target = 0.05;
        let hr = tune(&p, &init, 40.0, &bounds(), &w, target, 41).unwrap();
        let terminal = hr.cost.terminal;
        assert!(
            terminal <= target * 1.05,
            "terminal {terminal} vs target {target}"
        );
    }

    #[test]
    fn tune_unreachable_target_errors() {
        let p = params();
        let init = NetworkState::initial_uniform(p.n_classes(), 0.5).unwrap();
        let w = CostWeights::paper_default();
        // Absurdly low target over a very short horizon with weak bounds.
        let tight = ControlBounds::new(0.01, 0.01).unwrap();
        let r = tune(&p, &init, 1.0, &tight, &w, 1e-12, 21);
        assert!(matches!(r, Err(ControlError::TargetUnreachable { .. })));
    }

    #[test]
    fn validation_errors() {
        let p = params();
        let init = NetworkState::initial_uniform(p.n_classes(), 0.1).unwrap();
        let w = CostWeights::paper_default();
        let policy = HeuristicPolicy {
            gain1: 1.0,
            gain2: 1.0,
            bounds: bounds(),
        };
        assert!(run(&p, &init, 0.0, policy, &w, 41).is_err());
        assert!(run(&p, &init, 1.0, policy, &w, 1).is_err());
        let bad = NetworkState::initial_uniform(2, 0.1).unwrap();
        assert!(run(&p, &bad, 1.0, policy, &w, 41).is_err());
        assert!(tune(&p, &init, 1.0, &bounds(), &w, 0.0, 21).is_err());
    }
}
