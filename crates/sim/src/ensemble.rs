//! Ensemble averaging of stochastic runs and comparison with the
//! mean-field ODE.
//!
//! # Parallelism and determinism
//!
//! Ensembles fan their replicas out across worker threads through
//! [`rumor_par`]. Every replica is a pure function of its `(index,
//! seed)` pair — seeds follow the serial scheme `base_seed,
//! base_seed+1, …` and each replica owns its `StdRng` — and the
//! trajectories come back in replica order, after which the statistics
//! are merged **serially in replica order** into the same
//! [`RunningStats`] accumulators the serial path uses. Aggregate means,
//! standard deviations, failure records and quorum outcomes are
//! therefore bit-identical for every thread count, including 1.
//!
//! The worker count resolves through [`rumor_par::resolve_threads`]:
//! the `threads` argument every ensemble function takes, else (for
//! `None`) the process-wide override installed by the CLI's
//! `--threads` flag, else the `RUMOR_THREADS` environment variable,
//! else the machine's available parallelism.

use crate::abm::AbmConfig;
use crate::{Result, SimError, SimTrajectory};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rumor_compartments::model::CompartmentModel;
use rumor_compartments::paper::PaperSir;
use rumor_compartments::schedule::ConstantMultiControl;
use rumor_compartments::simulate::{simulate_compartments_grid, CompartmentSimOptions};
use rumor_core::params::ModelParams;
use rumor_net::graph::Graph;
use rumor_numerics::stats::RunningStats;

/// Which stochastic simulator an ensemble uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Simulator {
    /// The synchronous discrete-time ABM.
    Synchronous,
    /// The exact Gillespie SSA.
    Gillespie,
}

/// Mean ± stddev of the population-wide infected fraction over time,
/// averaged across independent runs.
#[derive(Debug, Clone, PartialEq)]
pub struct EnsembleResult {
    /// The shared record grid.
    pub times: Vec<f64>,
    /// Mean infected fraction per sample.
    pub i_mean: Vec<f64>,
    /// Standard deviation per sample.
    pub i_std: Vec<f64>,
    /// Number of runs aggregated.
    pub runs: usize,
}

/// Runs one replica of a simulator with its own freshly seeded RNG.
fn run_replica(
    graph: &Graph,
    params: &ModelParams,
    cfg: &AbmConfig,
    simulator: Simulator,
    seed: u64,
) -> Result<SimTrajectory> {
    let mut rng = StdRng::seed_from_u64(seed);
    match simulator {
        Simulator::Synchronous => crate::abm::run(graph, params, cfg, &mut rng),
        Simulator::Gillespie => crate::gillespie::run(graph, params, cfg, &mut rng),
    }
}

/// Runs `n_runs` independent stochastic simulations (seeds
/// `base_seed, base_seed+1, …`) and aggregates the infected fraction.
///
/// Replicas execute on `threads` workers (`None` resolves the process
/// default, `Some(1)` runs serially; see the module docs for the
/// resolution chain and the determinism contract); the output is
/// bit-identical to a serial run.
///
/// # Errors
///
/// * [`SimError::InvalidConfig`] if `n_runs == 0`, `cfg` is rejected
///   (checked once, before any replica runs) or runs record on different
///   grids.
/// * Propagated per-run failures.
pub fn run_ensemble(
    graph: &Graph,
    params: &ModelParams,
    cfg: &AbmConfig,
    simulator: Simulator,
    n_runs: usize,
    base_seed: u64,
    threads: Option<usize>,
) -> Result<EnsembleResult> {
    if n_runs == 0 {
        return Err(SimError::InvalidConfig("need at least one run".into()));
    }
    cfg.validate()?;
    let workers = rumor_par::resolve_threads(threads);
    let mut ens_span = rumor_obs::span("sim.ensemble");
    if ens_span.active() {
        ens_span.field("runs", n_runs);
        ens_span.field("workers", workers);
    }
    let trajectories = rumor_par::par_map_indexed(n_runs, workers, |r| {
        let mut sp = rumor_obs::span("sim.replica");
        sp.field("replica", r);
        run_replica(
            graph,
            params,
            cfg,
            simulator,
            base_seed.wrapping_add(r as u64),
        )
    });
    // Serial merge in replica order — identical to the sequential loop,
    // including its error semantics (the first failing replica's error
    // is the one reported).
    let mut stats: Vec<RunningStats> = Vec::new();
    let mut times: Vec<f64> = Vec::new();
    for (r, traj) in trajectories.into_iter().enumerate() {
        let traj = traj?;
        if r == 0 {
            times = traj.times().to_vec();
            stats = vec![RunningStats::new(); times.len()];
        } else if traj.len() != times.len() {
            return Err(SimError::InvalidConfig(format!(
                "run {r} recorded {} samples, expected {}",
                traj.len(),
                times.len()
            )));
        }
        for (slot, &v) in stats.iter_mut().zip(traj.i()) {
            slot.push(v);
        }
    }
    Ok(EnsembleResult {
        times,
        i_mean: stats.iter().map(|s| s.mean().unwrap_or(0.0)).collect(),
        i_std: stats.iter().map(|s| s.std_dev().unwrap_or(0.0)).collect(),
        runs: n_runs,
    })
}

/// One excluded replica: which run failed, with which seed, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaFailure {
    /// Zero-based replica index.
    pub replica: usize,
    /// The seed the replica ran with (for deterministic reproduction).
    pub seed: u64,
    /// The failure, rendered (source errors are not `Clone`).
    pub reason: String,
}

/// Fault-isolation policy of an ensemble run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IsolationPolicy {
    /// Fraction of replicas (in `(0, 1]`) that must succeed for the
    /// aggregate to be returned at all; below this the whole run fails
    /// with [`SimError::QuorumNotMet`].
    pub quorum: f64,
}

impl Default for IsolationPolicy {
    fn default() -> Self {
        IsolationPolicy { quorum: 0.5 }
    }
}

impl IsolationPolicy {
    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for a quorum outside `(0, 1]`.
    pub fn validate(&self) -> Result<()> {
        if !(self.quorum > 0.0 && self.quorum <= 1.0) {
            return Err(SimError::InvalidConfig(format!(
                "quorum must lie in (0, 1], got {}",
                self.quorum
            )));
        }
        Ok(())
    }

    /// Minimum number of successful replicas out of `attempted`.
    pub fn required(&self, attempted: usize) -> usize {
        ((self.quorum * attempted as f64).ceil() as usize).max(1)
    }
}

/// An ensemble aggregate that survived replica failures: the statistics
/// cover the surviving replicas only, and every exclusion is recorded.
#[derive(Debug, Clone, PartialEq)]
pub struct IsolatedEnsemble {
    /// Statistics over the surviving replicas (`result.runs` counts the
    /// survivors, not the attempts).
    pub result: EnsembleResult,
    /// One record per failed replica, in replica order.
    pub failures: Vec<ReplicaFailure>,
    /// Replicas attempted in total.
    pub attempted: usize,
}

impl IsolatedEnsemble {
    /// `true` when at least one replica had to be excluded.
    pub fn degraded(&self) -> bool {
        !self.failures.is_empty()
    }

    /// One-line human-readable summary for logs and CLI output.
    pub fn summary(&self) -> String {
        if self.failures.is_empty() {
            format!("all {} replicas succeeded", self.attempted)
        } else {
            format!(
                "DEGRADED: {}/{} replicas succeeded ({} excluded)",
                self.result.runs,
                self.attempted,
                self.failures.len()
            )
        }
    }
}

/// Runs `n_runs` replicas through `runner`, isolating per-replica
/// failures: a replica that errors — or records on a different grid than
/// the first surviving replica — is excluded and recorded instead of
/// poisoning the whole ensemble.
///
/// The runner receives `(replica_index, seed)` with seeds
/// `base_seed, base_seed+1, …`, so a failed replica can be re-run in
/// isolation. This is also the deterministic fault-injection seam the
/// tests use: a runner that fails on schedule exercises every isolation
/// path reproducibly.
///
/// Replicas execute on `threads` workers (`None` resolves the process
/// default, `Some(1)` runs serially); the runner must therefore be a
/// pure `Fn` (a function of `(index, seed)` only). Exclusion records and
/// quorum outcomes are evaluated serially in replica order and are
/// bit-identical for every thread count.
///
/// # Errors
///
/// * [`SimError::InvalidConfig`] if `n_runs == 0` or the policy is
///   invalid.
/// * [`SimError::QuorumNotMet`] if fewer than `policy.required(n_runs)`
///   replicas survive.
pub fn run_ensemble_isolated_with<F>(
    n_runs: usize,
    base_seed: u64,
    policy: &IsolationPolicy,
    threads: Option<usize>,
    runner: F,
) -> Result<IsolatedEnsemble>
where
    F: Fn(usize, u64) -> Result<SimTrajectory> + Sync,
{
    policy.validate()?;
    if n_runs == 0 {
        return Err(SimError::InvalidConfig("need at least one run".into()));
    }
    let workers = rumor_par::resolve_threads(threads);
    let mut ens_span = rumor_obs::span("sim.ensemble_isolated");
    if ens_span.active() {
        ens_span.field("runs", n_runs);
        ens_span.field("workers", workers);
    }
    let outcomes = rumor_par::par_map_indexed(n_runs, workers, |r| {
        let mut sp = rumor_obs::span("sim.replica");
        sp.field("replica", r);
        runner(r, base_seed.wrapping_add(r as u64))
    });
    // Serial merge in replica order: grid from the first *surviving*
    // replica, later grid mismatches become exclusions, stats accumulate
    // in replica order — exactly the sequential semantics.
    let mut stats: Vec<RunningStats> = Vec::new();
    let mut times: Vec<f64> = Vec::new();
    let mut failures: Vec<ReplicaFailure> = Vec::new();
    let mut succeeded = 0usize;
    for (r, outcome) in outcomes.into_iter().enumerate() {
        let seed = base_seed.wrapping_add(r as u64);
        let traj = match outcome {
            Ok(t) => t,
            Err(e) => {
                rumor_obs::event(
                    "sim.exclusion",
                    &[("replica", r.into()), ("reason", e.to_string().into())],
                );
                rumor_obs::add("sim.replicas_excluded", 1);
                failures.push(ReplicaFailure {
                    replica: r,
                    seed,
                    reason: e.to_string(),
                });
                continue;
            }
        };
        if succeeded == 0 {
            times = traj.times().to_vec();
            stats = vec![RunningStats::new(); times.len()];
        } else if traj.len() != times.len() {
            rumor_obs::event(
                "sim.exclusion",
                &[("replica", r.into()), ("reason", "grid mismatch".into())],
            );
            rumor_obs::add("sim.replicas_excluded", 1);
            failures.push(ReplicaFailure {
                replica: r,
                seed,
                reason: format!("recorded {} samples, expected {}", traj.len(), times.len()),
            });
            continue;
        }
        for (slot, &v) in stats.iter_mut().zip(traj.i()) {
            slot.push(v);
        }
        succeeded += 1;
    }
    let required = policy.required(n_runs);
    rumor_obs::event(
        "sim.quorum",
        &[
            ("succeeded", succeeded.into()),
            ("required", required.into()),
            ("attempted", n_runs.into()),
            ("met", (succeeded >= required).into()),
        ],
    );
    if ens_span.active() {
        ens_span.field("succeeded", succeeded);
        ens_span.field("excluded", failures.len());
    }
    if succeeded < required {
        rumor_obs::add("sim.quorum_failures", 1);
        return Err(SimError::QuorumNotMet {
            succeeded,
            required,
            attempted: n_runs,
        });
    }
    Ok(IsolatedEnsemble {
        result: EnsembleResult {
            times,
            i_mean: stats.iter().map(|s| s.mean().unwrap_or(0.0)).collect(),
            i_std: stats.iter().map(|s| s.std_dev().unwrap_or(0.0)).collect(),
            runs: succeeded,
        },
        failures,
        attempted: n_runs,
    })
}

/// Fault-isolated variant of [`run_ensemble`]: one failed or poisoned
/// replica is excluded and recorded, and the ensemble continues as long
/// as the quorum holds. The configuration is checked once, before any
/// replica runs.
///
/// # Errors
///
/// * [`SimError::InvalidConfig`] for a rejected `cfg`.
/// * See [`run_ensemble_isolated_with`].
#[allow(clippy::too_many_arguments)]
pub fn run_ensemble_isolated(
    graph: &Graph,
    params: &ModelParams,
    cfg: &AbmConfig,
    simulator: Simulator,
    n_runs: usize,
    base_seed: u64,
    policy: &IsolationPolicy,
    threads: Option<usize>,
) -> Result<IsolatedEnsemble> {
    cfg.validate()?;
    run_ensemble_isolated_with(n_runs, base_seed, policy, threads, |_, seed| {
        run_replica(graph, params, cfg, simulator, seed)
    })
}

/// Integrates the mean-field ODE on the ensemble's grid and returns the
/// *population-wide* infected fraction predicted by the mean field
/// (`Σ_k P(k) I_k(t)`), comparable sample-by-sample with
/// [`EnsembleResult::i_mean`].
///
/// # Errors
///
/// Propagates core-model failures.
pub fn mean_field_reference(
    params: &ModelParams,
    cfg: &AbmConfig,
    times: &[f64],
) -> Result<Vec<f64>> {
    // Cost weights only enter the FBSM objective; the paper defaults keep
    // model construction valid here.
    let model = PaperSir::from_params(params, 5.0, 10.0)?;
    let y0 = model.layout().initial_uniform(cfg.initial_infected)?;
    let traj = simulate_compartments_grid(
        &model,
        ConstantMultiControl::new(vec![cfg.eps1, cfg.eps2]),
        &y0,
        times,
        &CompartmentSimOptions::default(),
    )?;
    let probs = params.classes().probabilities();
    Ok((0..traj.len())
        .map(|k| traj.band(k, 1).iter().zip(probs).map(|(i, p)| i * p).sum())
        .collect())
}

/// Maximum absolute deviation between the ensemble mean and the
/// mean-field prediction — the headline number of the ABM-vs-ODE
/// validation experiment.
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] on grid-length mismatch.
pub fn max_deviation(ensemble: &EnsembleResult, mean_field: &[f64]) -> Result<f64> {
    if ensemble.i_mean.len() != mean_field.len() {
        return Err(SimError::InvalidConfig(format!(
            "series lengths differ: {} vs {}",
            ensemble.i_mean.len(),
            mean_field.len()
        )));
    }
    Ok(ensemble
        .i_mean
        .iter()
        .zip(mean_field)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rumor_core::functions::{AcceptanceRate, Infectivity};
    use rumor_net::degree::DegreeClasses;
    use rumor_net::generators::barabasi_albert;

    fn setup(n: usize, lambda0: f64) -> (Graph, ModelParams) {
        let mut rng = StdRng::seed_from_u64(7);
        let g = barabasi_albert(n, 3, &mut rng).unwrap();
        let classes = DegreeClasses::from_graph(&g).unwrap();
        let p = ModelParams::builder(classes)
            .alpha(0.0)
            .acceptance(AcceptanceRate::LinearInDegree { lambda0 })
            .infectivity(Infectivity::paper_default())
            .build()
            .unwrap();
        (g, p)
    }

    fn cfg() -> AbmConfig {
        AbmConfig {
            alpha: 0.0,
            dt: 0.1,
            tf: 15.0,
            eps1: 0.02,
            eps2: 0.1,
            initial_infected: 0.05,
            record_every: 10,
        }
    }

    #[test]
    fn demographic_abm_tracks_mean_field_with_inflow() {
        // α > 0: recovered users recycle into susceptibles; the endemic
        // mean-field level should be matched by the synchronous ABM.
        let (g, base) = setup(2_000, 1.0);
        let p = ModelParams::builder(base.classes().clone())
            .alpha(0.01)
            .acceptance(AcceptanceRate::LinearInDegree { lambda0: 1.0 })
            .infectivity(Infectivity::paper_default())
            .build()
            .unwrap();
        let cfg = AbmConfig {
            alpha: 0.01,
            dt: 0.1,
            tf: 80.0,
            eps1: 0.02,
            eps2: 0.1,
            initial_infected: 0.05,
            record_every: 50,
        };
        let ens = run_ensemble(&g, &p, &cfg, Simulator::Synchronous, 6, 23, None).unwrap();
        let mf = mean_field_reference(&p, &cfg, &ens.times).unwrap();
        let tail = (ens.i_mean.last().unwrap() - mf.last().unwrap()).abs();
        assert!(tail < 0.04, "tail deviation {tail}");
    }

    #[test]
    fn gillespie_demography_tracks_mean_field() {
        // Both simulators support the inflow α; the exact SSA must match
        // the endemic mean-field level too.
        let (g, base) = setup(1_500, 1.0);
        let p = ModelParams::builder(base.classes().clone())
            .alpha(0.01)
            .acceptance(AcceptanceRate::LinearInDegree { lambda0: 1.0 })
            .infectivity(Infectivity::paper_default())
            .build()
            .unwrap();
        let cfg = AbmConfig {
            alpha: 0.01,
            dt: 1.0,
            tf: 80.0,
            eps1: 0.02,
            eps2: 0.1,
            initial_infected: 0.05,
            record_every: 1,
        };
        let ens = run_ensemble(&g, &p, &cfg, Simulator::Gillespie, 5, 31, None).unwrap();
        let mf = mean_field_reference(&p, &cfg, &ens.times).unwrap();
        // Quenched-graph endemic levels sit slightly off the annealed
        // mean field; accept a modest systematic offset.
        let tail = (ens.i_mean.last().unwrap() - mf.last().unwrap()).abs();
        assert!(tail < 0.06, "tail deviation {tail}");
        // Both settle at a clearly endemic (nonzero) level.
        assert!(*ens.i_mean.last().unwrap() > 0.01);
        assert!(*mf.last().unwrap() > 0.01);
    }

    #[test]
    fn ensemble_reduces_variance() {
        let (g, p) = setup(400, 0.5);
        let small = run_ensemble(&g, &p, &cfg(), Simulator::Synchronous, 2, 0, None).unwrap();
        let large = run_ensemble(&g, &p, &cfg(), Simulator::Synchronous, 10, 0, None).unwrap();
        assert_eq!(small.times, large.times);
        assert_eq!(large.runs, 10);
        // Mean estimates exist everywhere and stddev is finite.
        assert!(large.i_std.iter().all(|v| v.is_finite()));
        assert!(large.i_mean.iter().all(|v| (0.0..=1.0).contains(v)));
    }

    #[test]
    fn zero_runs_rejected() {
        let (g, p) = setup(100, 0.5);
        assert!(run_ensemble(&g, &p, &cfg(), Simulator::Synchronous, 0, 0, None).is_err());
    }

    #[test]
    fn invalid_config_is_rejected_before_any_replica_runs() {
        let (g, p) = setup(100, 0.5);
        let bad = AbmConfig {
            initial_infected: 2.0,
            ..cfg()
        };
        let policy = IsolationPolicy::default();
        for sim in [Simulator::Synchronous, Simulator::Gillespie] {
            let err = run_ensemble_isolated(&g, &p, &bad, sim, 8, 0, &policy, None).unwrap_err();
            assert!(
                matches!(&err, SimError::InvalidConfig(m) if m.contains("initial infected")),
                "{err}"
            );
        }
    }

    #[test]
    fn mean_field_tracks_abm_ensemble() {
        // The headline validation: mean-field ODE vs ABM ensemble on a
        // BA graph. Agreement is approximate (mean field ignores degree
        // correlations and stochastic die-out), so assert a loose bound.
        let (g, p) = setup(2000, 1.0);
        let cfg = AbmConfig {
            alpha: 0.0,
            dt: 0.1,
            tf: 60.0,
            eps1: 0.01,
            eps2: 0.1,
            initial_infected: 0.05,
            record_every: 20,
        };
        let ens = run_ensemble(&g, &p, &cfg, Simulator::Synchronous, 8, 42, None).unwrap();
        let mf = mean_field_reference(&p, &cfg, &ens.times).unwrap();
        // Mean field is an annealed approximation; on a quenched BA
        // graph transient deviations of ~0.1 at the peak are expected.
        let dev = max_deviation(&ens, &mf).unwrap();
        assert!(dev < 0.2, "max deviation {dev} too large");
        // The tails must agree tightly: both decay to extinction.
        let tail_dev = (ens.i_mean.last().unwrap() - mf.last().unwrap()).abs();
        assert!(tail_dev < 0.03, "tail deviation {tail_dev}");
        assert!(ens.i_mean.last().unwrap() < &0.05);
        assert!(mf.last().unwrap() < &0.05);
    }

    #[test]
    fn gillespie_ensemble_also_tracks_mean_field() {
        let (g, p) = setup(1000, 1.0);
        let cfg = AbmConfig {
            alpha: 0.0,
            dt: 1.0,
            tf: 50.0,
            eps1: 0.01,
            eps2: 0.15,
            initial_infected: 0.05,
            record_every: 1,
        };
        let ens = run_ensemble(&g, &p, &cfg, Simulator::Gillespie, 6, 7, None).unwrap();
        let mf = mean_field_reference(&p, &cfg, &ens.times).unwrap();
        let dev = max_deviation(&ens, &mf).unwrap();
        assert!(dev < 0.2, "max deviation {dev} too large");
        let tail_dev = (ens.i_mean.last().unwrap() - mf.last().unwrap()).abs();
        assert!(tail_dev < 0.03, "tail deviation {tail_dev}");
    }

    /// Deterministic synthetic trajectory with `len` samples whose
    /// infected fraction is constant at `level`.
    fn synth_traj(len: usize, level: f64) -> SimTrajectory {
        let mut t = SimTrajectory::new(1);
        for k in 0..len {
            t.push(k as f64, 1.0 - level, level, 0.0, &[level]);
        }
        t
    }

    #[test]
    fn poisoned_replica_is_excluded_and_recorded() {
        // ISSUE acceptance criterion: one poisoned replica out of five
        // must not sink the ensemble — stats cover the four survivors
        // and the exclusion is on record with its seed.
        let policy = IsolationPolicy::default();
        let ens = run_ensemble_isolated_with(5, 100, &policy, None, |r, _| {
            if r == 2 {
                Err(SimError::Inconsistent(
                    "injected NaN in replica state".into(),
                ))
            } else {
                Ok(synth_traj(4, 0.25))
            }
        })
        .unwrap();
        assert!(ens.degraded());
        assert_eq!(ens.result.runs, 4);
        assert_eq!(ens.attempted, 5);
        assert_eq!(ens.failures.len(), 1);
        assert_eq!(ens.failures[0].replica, 2);
        assert_eq!(ens.failures[0].seed, 102);
        assert!(ens.failures[0].reason.contains("NaN"));
        assert!(ens.summary().contains("DEGRADED"));
        assert!(ens.result.i_mean.iter().all(|&m| (m - 0.25).abs() < 1e-12));
    }

    #[test]
    fn clean_run_is_not_degraded() {
        let policy = IsolationPolicy::default();
        let ens =
            run_ensemble_isolated_with(3, 0, &policy, None, |_, _| Ok(synth_traj(3, 0.1))).unwrap();
        assert!(!ens.degraded());
        assert_eq!(ens.result.runs, 3);
        assert_eq!(ens.summary(), "all 3 replicas succeeded");
    }

    #[test]
    fn mismatched_grid_counts_as_failure() {
        let policy = IsolationPolicy::default();
        let ens = run_ensemble_isolated_with(3, 0, &policy, None, |r, _| {
            Ok(synth_traj(if r == 1 { 7 } else { 4 }, 0.2))
        })
        .unwrap();
        assert_eq!(ens.result.runs, 2);
        assert_eq!(ens.failures.len(), 1);
        assert!(ens.failures[0].reason.contains("expected 4"));
    }

    #[test]
    fn quorum_violation_is_an_error() {
        // 4 of 5 fail: below the default 50% quorum → hard error that
        // carries the counts.
        let policy = IsolationPolicy::default();
        let err = run_ensemble_isolated_with(5, 0, &policy, None, |r, _| {
            if r == 0 {
                Ok(synth_traj(3, 0.2))
            } else {
                Err(SimError::Inconsistent("poisoned".into()))
            }
        })
        .unwrap_err();
        match err {
            SimError::QuorumNotMet {
                succeeded,
                required,
                attempted,
            } => {
                assert_eq!((succeeded, required, attempted), (1, 3, 5));
            }
            other => panic!("expected QuorumNotMet, got {other}"),
        }
    }

    #[test]
    fn all_replicas_failed_vs_quorum_met() {
        // All failed: even a minimal quorum cannot be met.
        let lax = IsolationPolicy { quorum: 0.01 };
        let err = run_ensemble_isolated_with(4, 0, &lax, None, |_, _| {
            Err(SimError::Inconsistent("dead".into()))
        })
        .unwrap_err();
        assert!(matches!(
            err,
            SimError::QuorumNotMet {
                succeeded: 0,
                required: 1,
                ..
            }
        ));
        // Same failure rate, but one survivor satisfies the lax quorum.
        let ens = run_ensemble_isolated_with(4, 0, &lax, None, |r, _| {
            if r == 3 {
                Ok(synth_traj(2, 0.5))
            } else {
                Err(SimError::Inconsistent("dead".into()))
            }
        })
        .unwrap();
        assert_eq!(ens.result.runs, 1);
        assert_eq!(ens.failures.len(), 3);
    }

    #[test]
    fn isolation_policy_validation() {
        assert!(IsolationPolicy { quorum: 0.0 }.validate().is_err());
        assert!(IsolationPolicy { quorum: 1.5 }.validate().is_err());
        assert!(IsolationPolicy { quorum: f64::NAN }.validate().is_err());
        assert!(IsolationPolicy::default().validate().is_ok());
        assert_eq!(IsolationPolicy { quorum: 1.0 }.required(7), 7);
        assert_eq!(IsolationPolicy { quorum: 0.5 }.required(5), 3);
        assert!(
            run_ensemble_isolated_with(0, 0, &IsolationPolicy::default(), None, |_, _| Ok(
                synth_traj(1, 0.0)
            ))
            .is_err()
        );
    }

    #[test]
    fn isolated_wrapper_matches_strict_ensemble_when_clean() {
        // With no faults the isolated wrapper must reproduce the strict
        // path exactly: same seeds, same statistics.
        let (g, p) = setup(300, 0.5);
        let strict = run_ensemble(&g, &p, &cfg(), Simulator::Synchronous, 3, 11, None).unwrap();
        let isolated = run_ensemble_isolated(
            &g,
            &p,
            &cfg(),
            Simulator::Synchronous,
            3,
            11,
            &IsolationPolicy::default(),
            None,
        )
        .unwrap();
        assert!(!isolated.degraded());
        assert_eq!(isolated.result, strict);
    }

    #[test]
    fn max_deviation_validates_lengths() {
        let e = EnsembleResult {
            times: vec![0.0, 1.0],
            i_mean: vec![0.1, 0.2],
            i_std: vec![0.0, 0.0],
            runs: 1,
        };
        assert!(max_deviation(&e, &[0.1]).is_err());
        assert!((max_deviation(&e, &[0.1, 0.1]).unwrap() - 0.1).abs() < 1e-12);
    }
}
