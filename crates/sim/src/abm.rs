//! Synchronous discrete-time agent-based SIR simulation.
//!
//! The step loop runs on the flat arenas of [`crate::arena`]: one byte
//! of state per agent (double-buffered) and a one-bit-per-node active
//! set, iterated in ascending node order. This keeps a million-node
//! replica at ~2 MB of mutable state and makes the per-step walk
//! cache-linear, while consuming the RNG in exactly the same order as
//! the historical index-vector implementation — trajectories are
//! bit-identical at equal seeds. That implementation survives as the
//! test oracle `reference::run_reference` (`abm/reference.rs`), which
//! pins [`run`] bit for bit.

use crate::arena::{BitSet, StateArena};
use crate::{NodeState, Result, SimError, SimTrajectory};
use rand::Rng;
use rumor_core::params::ModelParams;
use rumor_net::graph::Graph;

/// Configuration of a synchronous agent-based run.
#[derive(Debug, Clone, PartialEq)]
pub struct AbmConfig {
    /// Time-step size (hazards are converted to per-step probabilities
    /// as `p = 1 − exp(−rate·dt)`).
    pub dt: f64,
    /// Demographic inflow `α`: per unit time, a density `α` of each
    /// class is recycled from recovered back to susceptible, matching
    /// the mean-field model's conserving convention. Supported by both
    /// simulators.
    pub alpha: f64,
    /// Final time.
    pub tf: f64,
    /// Truth-spreading (immunization) rate `ε1`.
    pub eps1: f64,
    /// Blocking rate `ε2`.
    pub eps2: f64,
    /// Fraction of nodes infected at `t = 0` (uniformly at random).
    pub initial_infected: f64,
    /// Record every `record_every`-th step (1 = every step).
    pub record_every: usize,
}

impl Default for AbmConfig {
    fn default() -> Self {
        AbmConfig {
            alpha: 0.0,
            dt: 0.1,
            tf: 50.0,
            eps1: 0.0,
            eps2: 0.0,
            initial_infected: 0.05,
            record_every: 1,
        }
    }
}

impl AbmConfig {
    /// Checks the configuration for both simulators. The ensemble
    /// drivers call it once, before any replica runs, so a rejected
    /// configuration is reported as such rather than as every replica
    /// failing.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] unless `0 < dt <= tf` with a
    /// finite `tf`, the rates are non-negative and finite, the initial
    /// infected fraction lies in `(0, 1]` and `record_every` is positive.
    pub fn validate(&self) -> Result<()> {
        // An infinite `tf` would saturate the step count and never end.
        if !(self.dt > 0.0) || !(self.tf > 0.0) || self.dt > self.tf || !self.tf.is_finite() {
            return Err(SimError::InvalidConfig(format!(
                "need 0 < dt <= tf with a finite tf, got dt = {}, tf = {}",
                self.dt, self.tf
            )));
        }
        let rates = [self.eps1, self.eps2, self.alpha];
        if !rates.iter().all(|r| *r >= 0.0 && r.is_finite()) {
            return Err(SimError::InvalidConfig(format!(
                "rates must be non-negative and finite, got eps1 = {}, eps2 = {}, alpha = {}",
                self.eps1, self.eps2, self.alpha
            )));
        }
        if !(self.initial_infected > 0.0 && self.initial_infected <= 1.0) {
            return Err(SimError::InvalidConfig(format!(
                "initial infected fraction must lie in (0, 1], got {}",
                self.initial_infected
            )));
        }
        if self.record_every == 0 {
            return Err(SimError::InvalidConfig(
                "record_every must be positive".into(),
            ));
        }
        Ok(())
    }
}

/// Precomputed per-node rate tables shared by both simulators.
pub(crate) struct RateTables {
    /// `λ(k_u)` per node.
    pub lambda: Vec<f64>,
    /// `ω(k_v)/k_v` per node (transmission weight of an infected
    /// neighbor when contacted).
    pub omega_over_k: Vec<f64>,
    /// Degree-class index per node (`usize::MAX` for isolated nodes).
    pub class: Vec<usize>,
    /// Node count per class.
    pub class_size: Vec<usize>,
}

pub(crate) fn build_tables(graph: &Graph, params: &ModelParams) -> Result<RateTables> {
    let n = graph.node_count();
    if n == 0 {
        return Err(SimError::Inconsistent("graph has no nodes".into()));
    }
    let classes = params.classes();
    let mut lambda = vec![0.0; n];
    let mut omega_over_k = vec![0.0; n];
    let mut class = vec![usize::MAX; n];
    let mut class_size = vec![0usize; classes.len()];
    for u in 0..n {
        let k = graph.degree(u);
        if k == 0 {
            continue; // isolated nodes never participate
        }
        let Some(ci) = classes.class_of(k) else {
            return Err(SimError::Inconsistent(format!(
                "node {u} has degree {k} not present in the degree partition"
            )));
        };
        lambda[u] = params.acceptance().eval(k);
        omega_over_k[u] = params.infectivity().eval(k) / k as f64;
        class[u] = ci;
        class_size[ci] += 1;
    }
    Ok(RateTables {
        lambda,
        omega_over_k,
        class,
        class_size,
    })
}

/// Seeds the initial states: a uniformly random `initial_infected`
/// fraction of non-isolated nodes starts infected.
pub(crate) fn seed_states(graph: &Graph, frac: f64, rng: &mut impl Rng) -> Vec<NodeState> {
    (0..graph.node_count())
        .map(|u| {
            if graph.degree(u) > 0 && rng.gen_bool(frac) {
                NodeState::Infected
            } else {
                NodeState::Susceptible
            }
        })
        .collect()
}

/// Runs a synchronous discrete-time simulation of the microscopic rumor
/// process on `graph` with the mean-field parameters `params`.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use rumor_core::functions::AcceptanceRate;
/// use rumor_core::params::ModelParams;
/// use rumor_net::degree::DegreeClasses;
/// use rumor_net::generators::barabasi_albert;
/// use rumor_sim::abm::{run, AbmConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let graph = barabasi_albert(200, 3, &mut rng)?;
/// let classes = DegreeClasses::from_graph(&graph)?;
/// let params = ModelParams::builder(classes)
///     .alpha(0.0)
///     .acceptance(AcceptanceRate::LinearInDegree { lambda0: 0.5 })
///     .build()?;
/// let cfg = AbmConfig { tf: 5.0, eps2: 0.1, ..Default::default() };
/// let traj = run(&graph, &params, &cfg, &mut rng)?;
/// // Fractions always partition the population.
/// let last = traj.len() - 1;
/// assert!((traj.s()[last] + traj.i()[last] + traj.r()[last] - 1.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// * [`SimError::InvalidConfig`] for bad configuration values.
/// * [`SimError::Inconsistent`] if the graph contains a degree missing
///   from the parameter partition.
pub fn run(
    graph: &Graph,
    params: &ModelParams,
    cfg: &AbmConfig,
    rng: &mut impl Rng,
) -> Result<SimTrajectory> {
    cfg.validate()?;
    let tables = build_tables(graph, params)?;
    let mut arena = StateArena::new(seed_states(graph, cfg.initial_infected, rng));
    let n = graph.node_count();
    let active = BitSet::from_pred(n, |u| graph.degree(u) > 0);
    let active_count = active.count().max(1);

    let p_immunize = 1.0 - (-cfg.eps1 * cfg.dt).exp();
    let p_block = 1.0 - (-cfg.eps2 * cfg.dt).exp();

    let n_steps = (cfg.tf / cfg.dt).round() as usize;
    let mut traj = SimTrajectory::new(tables.class_size.len());
    record(&mut traj, 0.0, arena.current(), &tables, active_count);

    // All per-step buffers are hoisted: the loop body is allocation-free.
    let n_class = tables.class_size.len();
    let mut recovered_per_class = vec![0usize; n_class];
    let mut recycle_prob = vec![0.0_f64; n_class];
    for step in 1..=n_steps {
        // Demographic recycling: in each class, an expected density α·dt
        // of the class flows R → S, realized as an independent per-node
        // flip with probability α·size_k·dt / R_count_k.
        recycle_prob.iter_mut().for_each(|p| *p = 0.0);
        if cfg.alpha > 0.0 {
            recovered_per_class.iter_mut().for_each(|c| *c = 0);
            for u in active.iter() {
                if arena.get(u) == NodeState::Recovered {
                    recovered_per_class[tables.class[u]] += 1;
                }
            }
            for c in 0..n_class {
                if recovered_per_class[c] > 0 {
                    recycle_prob[c] = (cfg.alpha * tables.class_size[c] as f64 * cfg.dt
                        / recovered_per_class[c] as f64)
                        .min(1.0);
                }
            }
        }
        for u in active.iter() {
            match arena.get(u) {
                NodeState::Susceptible => {
                    // Immunization.
                    if p_immunize > 0.0 && rng.gen_bool(p_immunize) {
                        arena.stage(u, NodeState::Recovered);
                        continue;
                    }
                    // Contact one uniformly random neighbor.
                    let nb = graph.neighbors(u);
                    let v = nb[rng.gen_range(0..nb.len())] as usize;
                    if arena.get(v) == NodeState::Infected {
                        let hazard = tables.lambda[u] * tables.omega_over_k[v];
                        let p_inf = 1.0 - (-hazard * cfg.dt).exp();
                        if p_inf > 0.0 && rng.gen_bool(p_inf.min(1.0)) {
                            arena.stage(u, NodeState::Infected);
                        }
                    }
                }
                NodeState::Infected => {
                    if p_block > 0.0 && rng.gen_bool(p_block) {
                        arena.stage(u, NodeState::Recovered);
                    }
                }
                NodeState::Recovered => {
                    let p = recycle_prob[tables.class[u]];
                    if p > 0.0 && rng.gen_bool(p) {
                        arena.stage(u, NodeState::Susceptible);
                    }
                }
            }
        }
        arena.commit();
        if step % cfg.record_every == 0 || step == n_steps {
            record(
                &mut traj,
                step as f64 * cfg.dt,
                arena.current(),
                &tables,
                active_count,
            );
        }
    }
    Ok(traj)
}

#[cfg(test)]
mod reference;

fn record(
    traj: &mut SimTrajectory,
    t: f64,
    states: &[NodeState],
    tables: &RateTables,
    active_count: usize,
) {
    let mut s = 0usize;
    let mut i = 0usize;
    let mut r = 0usize;
    let mut class_i = vec![0usize; tables.class_size.len()];
    for (u, st) in states.iter().enumerate() {
        if tables.class[u] == usize::MAX {
            continue;
        }
        match st {
            NodeState::Susceptible => s += 1,
            NodeState::Infected => {
                i += 1;
                class_i[tables.class[u]] += 1;
            }
            NodeState::Recovered => r += 1,
        }
    }
    let class_frac: Vec<f64> = class_i
        .iter()
        .zip(&tables.class_size)
        .map(|(&c, &size)| {
            if size > 0 {
                c as f64 / size as f64
            } else {
                0.0
            }
        })
        .collect();
    traj.push(
        t,
        s as f64 / active_count as f64,
        i as f64 / active_count as f64,
        r as f64 / active_count as f64,
        &class_frac,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
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

    #[test]
    fn fractions_sum_to_one() {
        let (g, p) = setup(500, 0.2);
        let cfg = AbmConfig {
            tf: 10.0,
            eps1: 0.05,
            eps2: 0.05,
            ..Default::default()
        };
        let traj = run(&g, &p, &cfg, &mut StdRng::seed_from_u64(1)).unwrap();
        for idx in 0..traj.len() {
            let total = traj.s()[idx] + traj.i()[idx] + traj.r()[idx];
            assert!((total - 1.0).abs() < 1e-9, "t index {idx}: {total}");
        }
    }

    #[test]
    fn no_transmission_with_zero_lambda() {
        let (g, _) = setup(300, 0.2);
        let classes = DegreeClasses::from_graph(&g).unwrap();
        let p = ModelParams::builder(classes)
            .alpha(0.0)
            .acceptance(AcceptanceRate::Constant { lambda0: 1e-308 })
            .infectivity(Infectivity::paper_default())
            .build()
            .unwrap();
        let cfg = AbmConfig {
            tf: 5.0,
            eps2: 1.0,
            ..Default::default()
        };
        let traj = run(&g, &p, &cfg, &mut StdRng::seed_from_u64(2)).unwrap();
        // Infection can only shrink (blocking active, effectively no spread).
        assert!(traj.final_infected() <= traj.i()[0]);
    }

    #[test]
    fn blocking_drives_extinction() {
        let (g, p) = setup(800, 0.3);
        let cfg = AbmConfig {
            tf: 120.0,
            eps1: 0.05,
            eps2: 0.3,
            ..Default::default()
        };
        let traj = run(&g, &p, &cfg, &mut StdRng::seed_from_u64(3)).unwrap();
        assert!(
            traj.final_infected() < 0.01,
            "infection should die out, got {}",
            traj.final_infected()
        );
        // Recovered absorbed most of the population.
        assert!(*traj.r().last().unwrap() > 0.3);
    }

    #[test]
    fn epidemic_grows_without_countermeasures() {
        let (g, p) = setup(800, 5.0);
        let cfg = AbmConfig {
            tf: 30.0,
            initial_infected: 0.02,
            ..Default::default()
        };
        let traj = run(&g, &p, &cfg, &mut StdRng::seed_from_u64(4)).unwrap();
        assert!(
            traj.final_infected() > 0.3,
            "epidemic should take off, got {}",
            traj.final_infected()
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let (g, p) = setup(300, 0.5);
        let cfg = AbmConfig {
            tf: 5.0,
            ..Default::default()
        };
        let a = run(&g, &p, &cfg, &mut StdRng::seed_from_u64(9)).unwrap();
        let b = run(&g, &p, &cfg, &mut StdRng::seed_from_u64(9)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn config_validation() {
        let (g, p) = setup(100, 0.5);
        let mut rng = StdRng::seed_from_u64(0);
        for bad in [
            AbmConfig {
                dt: 0.0,
                ..Default::default()
            },
            AbmConfig {
                tf: 0.0,
                ..Default::default()
            },
            AbmConfig {
                dt: 10.0,
                tf: 1.0,
                ..Default::default()
            },
            AbmConfig {
                eps1: -1.0,
                ..Default::default()
            },
            AbmConfig {
                initial_infected: 0.0,
                ..Default::default()
            },
            AbmConfig {
                initial_infected: 1.5,
                ..Default::default()
            },
            AbmConfig {
                record_every: 0,
                ..Default::default()
            },
        ] {
            assert!(run(&g, &p, &bad, &mut rng).is_err());
        }
    }

    #[test]
    fn non_finite_horizons_and_rates_are_rejected() {
        let (g, p) = setup(100, 0.5);
        let mut rng = StdRng::seed_from_u64(0);
        for field in 0..4 {
            for value in [f64::NAN, f64::INFINITY, -1.0] {
                let mut cfg = AbmConfig::default();
                let slot = match field {
                    0 => &mut cfg.tf,
                    1 => &mut cfg.eps1,
                    2 => &mut cfg.eps2,
                    _ => &mut cfg.alpha,
                };
                *slot = value;
                assert!(
                    matches!(cfg.validate(), Err(SimError::InvalidConfig(_))),
                    "{cfg:?}"
                );
                assert!(run(&g, &p, &cfg, &mut rng).is_err(), "{cfg:?}");
            }
        }
    }

    #[test]
    fn class_mismatch_detected() {
        let (g, _) = setup(200, 0.5);
        // Partition from a different graph misses some degrees.
        let classes = DegreeClasses::from_degrees(&[1, 1, 2]).unwrap();
        let p = ModelParams::builder(classes)
            .alpha(0.0)
            .acceptance(AcceptanceRate::Constant { lambda0: 0.1 })
            .build()
            .unwrap();
        let cfg = AbmConfig::default();
        assert!(matches!(
            run(&g, &p, &cfg, &mut StdRng::seed_from_u64(0)),
            Err(SimError::Inconsistent(_))
        ));
    }
}
