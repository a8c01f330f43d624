//! Exact event-driven (Gillespie / SSA) simulation of the rumor process.
//!
//! Unlike the synchronous ABM, the SSA introduces no time-discretization
//! error: waiting times are exponential and exactly one event fires at a
//! time. Per-node event rates are kept in a Fenwick (binary indexed)
//! tree so sampling and updating are `O(log n)` per event.
//!
//! Per-node rates:
//!
//! * susceptible `u`: immunization `ε1` plus infection
//!   `λ(k_u)·(1/k_u)·Σ_{v ∈ N(u), infected} ω(k_v)/k_v`
//!   (the exact per-node form of the mean-field hazard `λ(k_u)Θ`);
//! * infected `u`: blocking `ε2`;
//! * each degree class `c` with recovered nodes: demographic recycling
//!   R→S at the class-level rate `α·size_c` (a uniformly random
//!   recovered node of the class flips), matching the mean-field
//!   conserving convention.

use crate::abm::{build_tables, seed_states, AbmConfig};
use crate::{NodeState, Result, SimTrajectory};
use rand::Rng;
use rumor_core::params::ModelParams;
use rumor_net::graph::Graph;

/// Fenwick tree over non-negative per-node rates, supporting point
/// updates and sampling an index proportionally to its rate.
#[derive(Debug, Clone)]
pub(crate) struct RateTree {
    tree: Vec<f64>,
    rates: Vec<f64>,
}

impl RateTree {
    pub fn new(n: usize) -> Self {
        RateTree {
            tree: vec![0.0; n + 1],
            rates: vec![0.0; n],
        }
    }

    pub fn total(&self) -> f64 {
        self.prefix(self.rates.len())
    }

    #[cfg(test)]
    pub fn rate(&self, i: usize) -> f64 {
        self.rates[i]
    }

    /// Sets node `i`'s rate to `r >= 0`.
    pub fn set(&mut self, i: usize, r: f64) {
        let delta = r - self.rates[i];
        if delta == 0.0 {
            return;
        }
        self.rates[i] = r;
        let mut idx = i + 1;
        while idx < self.tree.len() {
            self.tree[idx] += delta;
            idx += idx & idx.wrapping_neg();
        }
    }

    fn prefix(&self, mut i: usize) -> f64 {
        let mut s = 0.0;
        while i > 0 {
            s += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        s
    }

    /// Samples an index with probability proportional to its rate;
    /// `target` must lie in `[0, total())`.
    pub fn sample(&self, target: f64) -> usize {
        let n = self.rates.len();
        let mut idx = 0usize;
        let mut bit = n.next_power_of_two();
        let mut remaining = target;
        while bit > 0 {
            let next = idx + bit;
            if next < self.tree.len() && self.tree[next] <= remaining {
                remaining -= self.tree[next];
                idx = next;
            }
            bit >>= 1;
        }
        idx.min(n - 1)
    }
}

/// Runs an exact stochastic simulation. Reuses [`AbmConfig`] (its `dt`
/// is used only as the recording interval).
///
/// # Errors
///
/// Same as [`crate::abm::run`].
pub fn run(
    graph: &Graph,
    params: &ModelParams,
    cfg: &AbmConfig,
    rng: &mut impl Rng,
) -> Result<SimTrajectory> {
    cfg.validate()?;
    let tables = build_tables(graph, params)?;
    let n = graph.node_count();
    let mut states = seed_states(graph, cfg.initial_infected, rng);
    let active_count = (0..n).filter(|&u| graph.degree(u) > 0).count().max(1);

    // Infection pressure on u: Σ_{v ∈ N(u), infected} ω(k_v)/k_v.
    let mut pressure = vec![0.0; n];
    for u in 0..n {
        if states[u] == NodeState::Infected {
            for &v in graph.neighbors(u) {
                pressure[v as usize] += tables.omega_over_k[u];
            }
        }
    }

    let node_rate = |u: usize, st: NodeState, pressure_u: f64| -> f64 {
        match st {
            NodeState::Susceptible => {
                let k = graph.degree(u);
                if k == 0 {
                    0.0
                } else {
                    cfg.eps1 + tables.lambda[u] * pressure_u / k as f64
                }
            }
            NodeState::Infected => cfg.eps2,
            NodeState::Recovered => 0.0,
        }
    };

    // Slots 0..n hold per-node rates; slots n..n+n_class hold the
    // class-level demographic recycle rates (α·size_c while the class
    // has recovered nodes).
    let n_class = tables.class_size.len();
    let mut tree = RateTree::new(n + n_class);
    for u in 0..n {
        tree.set(u, node_rate(u, states[u], pressure[u]));
    }
    // Recovered-node pools per class for O(1) uniform sampling.
    let mut recovered_pool: Vec<Vec<usize>> = vec![Vec::new(); n_class];
    let mut pool_pos = vec![usize::MAX; n];
    let pool_insert =
        |u: usize, pools: &mut Vec<Vec<usize>>, pos: &mut Vec<usize>, tree: &mut RateTree| {
            let c = tables.class[u];
            if pools[c].is_empty() && cfg.alpha > 0.0 {
                tree.set(n + c, cfg.alpha * tables.class_size[c] as f64);
            }
            pos[u] = pools[c].len();
            pools[c].push(u);
        };
    let pool_remove = |u: usize,
                       pools: &mut Vec<Vec<usize>>,
                       pos: &mut Vec<usize>,
                       tree: &mut RateTree,
                       class: &[usize]| {
        let c = class[u];
        let idx = pos[u];
        let last = *pools[c].last().expect("pool non-empty");
        pools[c].swap_remove(idx);
        if last != u {
            pos[last] = idx;
        }
        pos[u] = usize::MAX;
        if pools[c].is_empty() {
            tree.set(n + c, 0.0);
        }
    };

    let mut traj = SimTrajectory::new(tables.class_size.len());
    let mut counts = StateCounts::from_states(&states, &tables);
    counts.record(&mut traj, 0.0, active_count);

    let mut t = 0.0;
    let mut next_record = cfg.dt;
    loop {
        let total = tree.total();
        if total <= 1e-300 {
            break;
        }
        let wait = -rng.gen_range(f64::EPSILON..1.0_f64).ln() / total;
        t += wait;
        if t > cfg.tf {
            break;
        }
        while next_record < t && next_record <= cfg.tf {
            counts.record(&mut traj, next_record, active_count);
            next_record += cfg.dt;
        }
        let slot = tree.sample(rng.gen_range(0.0..total));
        if slot >= n {
            // Demographic recycling: a uniformly random recovered node of
            // class `slot - n` becomes susceptible again.
            let c = slot - n;
            let pool = &recovered_pool[c];
            let u = pool[rng.gen_range(0..pool.len())];
            pool_remove(
                u,
                &mut recovered_pool,
                &mut pool_pos,
                &mut tree,
                &tables.class,
            );
            states[u] = NodeState::Susceptible;
            counts.transition(&tables, u, NodeState::Recovered, NodeState::Susceptible);
            tree.set(u, node_rate(u, NodeState::Susceptible, pressure[u]));
            continue;
        }
        let u = slot;
        match states[u] {
            NodeState::Susceptible => {
                // Split the rate between immunization and infection.
                let k = graph.degree(u) as f64;
                let inf_rate = tables.lambda[u] * pressure[u] / k;
                let total_u = cfg.eps1 + inf_rate;
                if rng.gen_range(0.0..total_u) < cfg.eps1 {
                    // Immunized.
                    states[u] = NodeState::Recovered;
                    counts.transition(&tables, u, NodeState::Susceptible, NodeState::Recovered);
                    tree.set(u, 0.0);
                    pool_insert(u, &mut recovered_pool, &mut pool_pos, &mut tree);
                } else {
                    // Infected: update own rate and neighbors' pressures.
                    states[u] = NodeState::Infected;
                    counts.transition(&tables, u, NodeState::Susceptible, NodeState::Infected);
                    tree.set(u, cfg.eps2);
                    for &v in graph.neighbors(u) {
                        let v = v as usize;
                        pressure[v] += tables.omega_over_k[u];
                        if states[v] == NodeState::Susceptible {
                            tree.set(v, node_rate(v, NodeState::Susceptible, pressure[v]));
                        }
                    }
                }
            }
            NodeState::Infected => {
                // Blocked.
                states[u] = NodeState::Recovered;
                counts.transition(&tables, u, NodeState::Infected, NodeState::Recovered);
                tree.set(u, 0.0);
                pool_insert(u, &mut recovered_pool, &mut pool_pos, &mut tree);
                for &v in graph.neighbors(u) {
                    let v = v as usize;
                    pressure[v] -= tables.omega_over_k[u];
                    if pressure[v] < 0.0 {
                        pressure[v] = 0.0; // numeric dust
                    }
                    if states[v] == NodeState::Susceptible {
                        tree.set(v, node_rate(v, NodeState::Susceptible, pressure[v]));
                    }
                }
            }
            NodeState::Recovered => unreachable!("recovered nodes carry zero rate"),
        }
    }
    // Flush remaining record points (process may have gone quiet early).
    while next_record <= cfg.tf + 1e-12 {
        counts.record(&mut traj, next_record.min(cfg.tf), active_count);
        next_record += cfg.dt;
    }
    Ok(traj)
}

/// Incremental aggregate counters, avoiding full rescans per record.
struct StateCounts {
    s: usize,
    i: usize,
    r: usize,
    class_i: Vec<usize>,
    class_size: Vec<usize>,
}

impl StateCounts {
    fn from_states(states: &[NodeState], tables: &crate::abm::RateTables) -> Self {
        let mut c = StateCounts {
            s: 0,
            i: 0,
            r: 0,
            class_i: vec![0; tables.class_size.len()],
            class_size: tables.class_size.clone(),
        };
        for (u, st) in states.iter().enumerate() {
            if tables.class[u] == usize::MAX {
                continue;
            }
            match st {
                NodeState::Susceptible => c.s += 1,
                NodeState::Infected => {
                    c.i += 1;
                    c.class_i[tables.class[u]] += 1;
                }
                NodeState::Recovered => c.r += 1,
            }
        }
        c
    }

    fn transition(
        &mut self,
        tables: &crate::abm::RateTables,
        u: usize,
        from: NodeState,
        to: NodeState,
    ) {
        let class = tables.class[u];
        match from {
            NodeState::Susceptible => self.s -= 1,
            NodeState::Infected => {
                self.i -= 1;
                self.class_i[class] -= 1;
            }
            NodeState::Recovered => self.r -= 1,
        }
        match to {
            NodeState::Susceptible => self.s += 1,
            NodeState::Infected => {
                self.i += 1;
                self.class_i[class] += 1;
            }
            NodeState::Recovered => self.r += 1,
        }
    }

    fn record(&self, traj: &mut SimTrajectory, t: f64, active: usize) {
        let class_frac: Vec<f64> = self
            .class_i
            .iter()
            .zip(&self.class_size)
            .map(|(&c, &n)| if n > 0 { c as f64 / n as f64 } else { 0.0 })
            .collect();
        traj.push(
            t,
            self.s as f64 / active as f64,
            self.i as f64 / active as f64,
            self.r as f64 / active as f64,
            &class_frac,
        );
    }
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
    fn rate_tree_sampling_matches_rates() {
        let mut tree = RateTree::new(4);
        tree.set(0, 1.0);
        tree.set(2, 3.0);
        assert!((tree.total() - 4.0).abs() < 1e-12);
        assert_eq!(tree.rate(2), 3.0);
        // Deterministic targets map into the correct buckets.
        assert_eq!(tree.sample(0.5), 0);
        assert_eq!(tree.sample(1.5), 2);
        assert_eq!(tree.sample(3.9), 2);
        tree.set(2, 0.0);
        assert!((tree.total() - 1.0).abs() < 1e-12);
        assert_eq!(tree.sample(0.99), 0);
    }

    #[test]
    fn rate_tree_statistical_sampling() {
        let mut tree = RateTree::new(3);
        tree.set(0, 1.0);
        tree.set(1, 2.0);
        tree.set(2, 7.0);
        let mut rng = StdRng::seed_from_u64(11);
        let mut counts = [0usize; 3];
        for _ in 0..20_000 {
            counts[tree.sample(rng.gen_range(0.0..tree.total()))] += 1;
        }
        let f2 = counts[2] as f64 / 20_000.0;
        assert!((f2 - 0.7).abs() < 0.02, "hub fraction {f2}");
    }

    #[test]
    fn extinction_under_strong_blocking() {
        let (g, p) = setup(600, 0.3);
        let cfg = AbmConfig {
            tf: 100.0,
            dt: 1.0,
            eps1: 0.05,
            eps2: 0.4,
            ..Default::default()
        };
        let traj = run(&g, &p, &cfg, &mut StdRng::seed_from_u64(5)).unwrap();
        assert!(traj.final_infected() < 0.01);
    }

    #[test]
    fn takeoff_without_countermeasures() {
        let (g, p) = setup(600, 5.0);
        let cfg = AbmConfig {
            tf: 40.0,
            dt: 1.0,
            initial_infected: 0.02,
            ..Default::default()
        };
        let traj = run(&g, &p, &cfg, &mut StdRng::seed_from_u64(6)).unwrap();
        assert!(traj.final_infected() > 0.3, "got {}", traj.final_infected());
    }

    #[test]
    fn fractions_sum_to_one_at_every_record() {
        let (g, p) = setup(400, 0.5);
        let cfg = AbmConfig {
            tf: 20.0,
            dt: 0.5,
            eps1: 0.02,
            eps2: 0.05,
            ..Default::default()
        };
        let traj = run(&g, &p, &cfg, &mut StdRng::seed_from_u64(8)).unwrap();
        for idx in 0..traj.len() {
            let total = traj.s()[idx] + traj.i()[idx] + traj.r()[idx];
            assert!((total - 1.0).abs() < 1e-9);
        }
        // Recording reaches tf.
        assert!((traj.times().last().unwrap() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn agrees_with_synchronous_abm_on_average() {
        let (g, p) = setup(800, 1.0);
        let cfg = AbmConfig {
            tf: 20.0,
            dt: 0.05,
            eps2: 0.1,
            initial_infected: 0.05,
            record_every: 20,
            ..Default::default()
        };
        // Average a few runs of each simulator and compare final R.
        let mut ssa_r = 0.0;
        let mut abm_r = 0.0;
        const RUNS: u64 = 5;
        for seed in 0..RUNS {
            ssa_r += run(&g, &p, &cfg, &mut StdRng::seed_from_u64(seed))
                .unwrap()
                .r()
                .last()
                .unwrap();
            abm_r += crate::abm::run(&g, &p, &cfg, &mut StdRng::seed_from_u64(100 + seed))
                .unwrap()
                .r()
                .last()
                .unwrap();
        }
        let (ssa_r, abm_r) = (ssa_r / RUNS as f64, abm_r / RUNS as f64);
        assert!(
            (ssa_r - abm_r).abs() < 0.1,
            "ssa {ssa_r} vs abm {abm_r} should roughly agree"
        );
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
                eps2: -1.0,
                ..Default::default()
            },
            AbmConfig {
                initial_infected: 2.0,
                ..Default::default()
            },
        ] {
            assert!(run(&g, &p, &bad, &mut rng).is_err());
        }
    }
}
