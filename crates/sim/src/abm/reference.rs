//! Test oracle: the synchronous ABM as it stood before the step loop
//! moved onto the flat arenas of [`crate::arena`] — a `Vec<usize>` of
//! active nodes, a `Vec<NodeState>` double buffer and a per-step
//! recycle-probability vector. The tests below hold [`super::run`] to
//! it bit for bit: the arena rewrite must not change a single RNG
//! draw, so at equal seeds the two consume the generator in the same
//! order and produce *identical* trajectories — not statistically
//! close, but equal to the bit. This is the contract that lets
//! large-scale numbers be compared directly with every pre-arena
//! baseline.

use super::{build_tables, record, seed_states, AbmConfig};
use crate::{NodeState, Result, SimTrajectory};
use rand::Rng;
use rumor_core::params::ModelParams;
use rumor_net::graph::Graph;

/// The pre-arena implementation of [`super::run`], retained verbatim.
fn run_reference(
    graph: &Graph,
    params: &ModelParams,
    cfg: &AbmConfig,
    rng: &mut impl Rng,
) -> Result<SimTrajectory> {
    cfg.validate()?;
    let tables = build_tables(graph, params)?;
    let mut states = seed_states(graph, cfg.initial_infected, rng);
    let n = graph.node_count();
    let active: Vec<usize> = (0..n).filter(|&u| graph.degree(u) > 0).collect();
    let active_count = active.len().max(1);

    let p_immunize = 1.0 - (-cfg.eps1 * cfg.dt).exp();
    let p_block = 1.0 - (-cfg.eps2 * cfg.dt).exp();

    let n_steps = (cfg.tf / cfg.dt).round() as usize;
    let mut traj = SimTrajectory::new(tables.class_size.len());
    record(&mut traj, 0.0, &states, &tables, active_count);

    let mut next_states = states.clone();
    let n_class = tables.class_size.len();
    let mut recovered_per_class = vec![0usize; n_class];
    for step in 1..=n_steps {
        let mut recycle_prob = vec![0.0_f64; n_class];
        if cfg.alpha > 0.0 {
            recovered_per_class.iter_mut().for_each(|c| *c = 0);
            for &u in &active {
                if states[u] == NodeState::Recovered {
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
        for &u in &active {
            match states[u] {
                NodeState::Susceptible => {
                    if p_immunize > 0.0 && rng.gen_bool(p_immunize) {
                        next_states[u] = NodeState::Recovered;
                        continue;
                    }
                    let nb = graph.neighbors(u);
                    let v = nb[rng.gen_range(0..nb.len())] as usize;
                    if states[v] == NodeState::Infected {
                        let hazard = tables.lambda[u] * tables.omega_over_k[v];
                        let p_inf = 1.0 - (-hazard * cfg.dt).exp();
                        if p_inf > 0.0 && rng.gen_bool(p_inf.min(1.0)) {
                            next_states[u] = NodeState::Infected;
                        }
                    }
                }
                NodeState::Infected => {
                    if p_block > 0.0 && rng.gen_bool(p_block) {
                        next_states[u] = NodeState::Recovered;
                    }
                }
                NodeState::Recovered => {
                    let p = recycle_prob[tables.class[u]];
                    if p > 0.0 && rng.gen_bool(p) {
                        next_states[u] = NodeState::Susceptible;
                    }
                }
            }
        }
        states.copy_from_slice(&next_states);
        if step % cfg.record_every == 0 || step == n_steps {
            record(
                &mut traj,
                step as f64 * cfg.dt,
                &states,
                &tables,
                active_count,
            );
        }
    }
    Ok(traj)
}

#[cfg(test)]
mod tests {
    use super::super::run;
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rumor_core::functions::{AcceptanceRate, Infectivity};
    use rumor_net::degree::DegreeClasses;
    use rumor_net::generators::barabasi_albert;
    use rumor_net::graph::EdgeKind;

    fn params_for(graph: &Graph, lambda0: f64, alpha: f64) -> ModelParams {
        let classes = DegreeClasses::from_graph(graph).unwrap();
        ModelParams::builder(classes)
            .alpha(alpha)
            .acceptance(AcceptanceRate::LinearInDegree { lambda0 })
            .infectivity(Infectivity::paper_default())
            .build()
            .unwrap()
    }

    fn assert_bit_identical(a: &SimTrajectory, b: &SimTrajectory) {
        assert_eq!(a.len(), b.len(), "trajectory lengths differ");
        let pairs = [(a.s(), b.s()), (a.i(), b.i()), (a.r(), b.r())];
        for (xs, ys) in pairs {
            for (idx, (x, y)) in xs.iter().zip(ys).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "index {idx}: {x} vs {y}");
            }
        }
        assert_eq!(a, b);
    }

    #[test]
    fn arena_run_is_bit_identical_to_reference_across_seeds() {
        let mut topo_rng = StdRng::seed_from_u64(7);
        let graph = barabasi_albert(600, 3, &mut topo_rng).unwrap();
        let params = params_for(&graph, 0.4, 0.0);
        let cfg = AbmConfig {
            tf: 20.0,
            eps1: 0.05,
            eps2: 0.1,
            ..Default::default()
        };
        for seed in [0u64, 1, 9, 42, 777] {
            let fast = run(&graph, &params, &cfg, &mut StdRng::seed_from_u64(seed)).unwrap();
            let slow =
                run_reference(&graph, &params, &cfg, &mut StdRng::seed_from_u64(seed)).unwrap();
            assert_bit_identical(&fast, &slow);
        }
    }

    #[test]
    fn arena_run_is_bit_identical_with_recycling_and_isolated_nodes() {
        // Isolated nodes exercise the bitset's sparse-iteration path (the
        // reference walks a filtered index vector); recycling (α > 0)
        // exercises the recovered-per-class scan and the hoisted
        // recycle-probability buffer.
        let mut topo_rng = StdRng::seed_from_u64(11);
        let core = barabasi_albert(300, 2, &mut topo_rng).unwrap();
        let mut edges: Vec<(usize, usize)> = Vec::new();
        for u in 0..core.node_count() {
            for &v in core.neighbors(u) {
                if u < v as usize {
                    edges.push((u, v as usize));
                }
            }
        }
        // Append 50 isolated nodes past the connected core.
        let graph =
            Graph::from_edges(core.node_count() + 50, &edges, EdgeKind::Undirected).unwrap();
        let params = params_for(&graph, 0.6, 0.02);
        let cfg = AbmConfig {
            tf: 30.0,
            alpha: 0.02,
            eps1: 0.02,
            eps2: 0.15,
            record_every: 3,
            ..Default::default()
        };
        for seed in [2u64, 13, 1234] {
            let fast = run(&graph, &params, &cfg, &mut StdRng::seed_from_u64(seed)).unwrap();
            let slow =
                run_reference(&graph, &params, &cfg, &mut StdRng::seed_from_u64(seed)).unwrap();
            assert_bit_identical(&fast, &slow);
        }
    }

    #[test]
    fn arena_run_is_bit_identical_on_heavy_tailed_topology() {
        // A hub-dominated graph concentrates contacts on few nodes; the
        // neighbor-sampling RNG draws must still line up one-for-one.
        let mut topo_rng = StdRng::seed_from_u64(23);
        let graph = barabasi_albert(1000, 6, &mut topo_rng).unwrap();
        let params = params_for(&graph, 1.2, 0.0);
        let cfg = AbmConfig {
            tf: 12.0,
            initial_infected: 0.01,
            eps2: 0.05,
            ..Default::default()
        };
        let fast = run(&graph, &params, &cfg, &mut StdRng::seed_from_u64(5)).unwrap();
        let slow = run_reference(&graph, &params, &cfg, &mut StdRng::seed_from_u64(5)).unwrap();
        assert_bit_identical(&fast, &slow);
    }
}
