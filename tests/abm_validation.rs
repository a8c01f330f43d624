//! Cross-crate integration tests: the agent-based simulators against the
//! mean-field ODE on generated scale-free networks (the validation layer
//! behind the reproduction, DESIGN.md §4).

// Index-based loops mirror the per-class stencils (workspace idiom).
#![allow(clippy::needless_range_loop)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use rumor_repro::net::generators::barabasi_albert;
use rumor_repro::net::metrics::largest_component_size;
use rumor_repro::prelude::*;
use rumor_repro::sim::abm::AbmConfig;
use rumor_repro::sim::ensemble::{max_deviation, mean_field_reference, run_ensemble, Simulator};

fn setup(n: usize) -> (rumor_repro::net::graph::Graph, ModelParams) {
    let mut rng = StdRng::seed_from_u64(2009);
    let g = barabasi_albert(n, 3, &mut rng).unwrap();
    let classes = DegreeClasses::from_graph(&g).unwrap();
    let params = ModelParams::builder(classes)
        .alpha(0.0)
        .acceptance(AcceptanceRate::LinearInDegree { lambda0: 1.0 })
        .infectivity(Infectivity::paper_default())
        .build()
        .unwrap();
    (g, params)
}

#[test]
fn generated_network_is_usable() {
    let (g, params) = setup(1_000);
    // BA graphs are connected by construction.
    assert_eq!(largest_component_size(&g), g.node_count());
    assert!(params.n_classes() > 10);
    assert!(params.mean_degree() > 5.0);
}

#[test]
fn both_simulators_agree_with_mean_field_in_the_tail() {
    let (g, params) = setup(1_500);
    let cfg = AbmConfig {
        alpha: 0.0,
        dt: 0.1,
        tf: 50.0,
        eps1: 0.01,
        eps2: 0.12,
        initial_infected: 0.05,
        record_every: 50,
    };
    for sim in [Simulator::Synchronous, Simulator::Gillespie] {
        let ens = run_ensemble(&g, &params, &cfg, sim, 6, 11, None).unwrap();
        let mf = mean_field_reference(&params, &cfg, &ens.times).unwrap();
        let dev = max_deviation(&ens, &mf).unwrap();
        assert!(dev < 0.25, "{sim:?}: transient deviation {dev}");
        let tail = (ens.i_mean.last().unwrap() - mf.last().unwrap()).abs();
        assert!(tail < 0.03, "{sim:?}: tail deviation {tail}");
    }
}

#[test]
fn countermeasures_shrink_outbreaks_in_the_abm() {
    let (g, params) = setup(1_000);
    let weak = AbmConfig {
        alpha: 0.0,
        dt: 0.1,
        tf: 30.0,
        eps1: 0.0,
        eps2: 0.01,
        initial_infected: 0.05,
        record_every: 100,
    };
    let strong = AbmConfig {
        eps1: 0.1,
        eps2: 0.3,
        ..weak.clone()
    };
    let weak_r = run_ensemble(&g, &params, &weak, Simulator::Synchronous, 4, 3, None).unwrap();
    let strong_r = run_ensemble(&g, &params, &strong, Simulator::Synchronous, 4, 3, None).unwrap();
    assert!(
        strong_r.i_mean.last().unwrap() < weak_r.i_mean.last().unwrap(),
        "strong countermeasures must reduce final infection"
    );
}

#[test]
fn per_class_infection_profile_matches_mean_field() {
    // Stronger than aggregate agreement: the degree-resolved structure —
    // hubs getting infected more than leaves — must match class by class.
    let (g, params) = setup(3_000);
    // Compare during the growth phase: at later times the hub classes
    // peak and decline first (susceptible depletion), which makes the
    // fixed-time profile legitimately non-monotone.
    let cfg = AbmConfig {
        alpha: 0.0,
        dt: 0.1,
        tf: 4.0,
        eps1: 0.0,
        eps2: 0.05,
        initial_infected: 0.05,
        record_every: 40,
    };
    // Average per-class terminal infected fractions over a few ABM runs.
    let mut per_class_abm = vec![0.0; params.n_classes()];
    const RUNS: u64 = 5;
    for seed in 0..RUNS {
        let mut rng = rand::rngs::StdRng::seed_from_u64(40 + seed);
        let traj = rumor_repro::sim::abm::run(&g, &params, &cfg, &mut rng).unwrap();
        for c in 0..params.n_classes() {
            per_class_abm[c] += traj.class_infected(c).unwrap().last().unwrap() / RUNS as f64;
        }
    }
    // Mean-field per-class prediction at the same time.
    let init = NetworkState::initial_uniform(params.n_classes(), cfg.initial_infected).unwrap();
    let traj = simulate_compartments(
        &PaperSir::from_params(&params, 5.0, 10.0).unwrap(),
        ConstantMultiControl::new(vec![cfg.eps1, cfg.eps2]),
        &init.to_flat(),
        cfg.tf,
        &CompartmentSimOptions::default(),
    )
    .unwrap();
    let mf_i = traj.band(traj.len() - 1, 1);
    // Compare on the well-populated classes (≥ 30 nodes): small classes
    // are dominated by sampling noise.
    let mut abm_profile = Vec::new();
    let mut ode_profile = Vec::new();
    for c in 0..params.n_classes() {
        if params.classes().count(c) < 30 {
            continue;
        }
        // During the active transient the annealed mean field runs ahead
        // of the quenched graph; bound the absolute gap loosely and pin
        // the *structure* with a correlation check below.
        let diff = (per_class_abm[c] - mf_i[c]).abs();
        assert!(
            diff < 0.25,
            "class {c} (k = {}): abm {:.4} vs ode {:.4}",
            params.classes().degree(c),
            per_class_abm[c],
            mf_i[c]
        );
        abm_profile.push(per_class_abm[c]);
        ode_profile.push(mf_i[c]);
    }
    assert!(
        abm_profile.len() >= 5,
        "need several populated classes, got {}",
        abm_profile.len()
    );
    // Individual classes are noisy; the robust structural check is on
    // coarse degree bins: group ALL classes into low/mid/high-degree
    // terciles (by population) and demand the same increasing infection
    // gradient from both descriptions.
    let bin_means = |values: &dyn Fn(usize) -> f64| -> [f64; 3] {
        let total_nodes: usize = (0..params.n_classes())
            .map(|c| params.classes().count(c))
            .sum();
        let mut bins = [0.0_f64; 3];
        let mut mass = [0.0_f64; 3];
        let mut seen = 0usize;
        for c in 0..params.n_classes() {
            let count = params.classes().count(c);
            let frac = (seen + count / 2) as f64 / total_nodes as f64;
            let b = ((frac * 3.0) as usize).min(2);
            bins[b] += values(c) * count as f64;
            mass[b] += count as f64;
            seen += count;
        }
        [bins[0] / mass[0], bins[1] / mass[1], bins[2] / mass[2]]
    };
    let abm_bins = bin_means(&|c| per_class_abm[c]);
    let ode_bins = bin_means(&|c| mf_i[c]);
    for bins in [abm_bins, ode_bins] {
        assert!(
            bins[0] < bins[1] && bins[1] < bins[2],
            "infection must rise with degree tercile: {bins:?}"
        );
    }
    // And the binned profiles agree within the annealed-vs-quenched gap.
    for b in 0..3 {
        let diff = (abm_bins[b] - ode_bins[b]).abs();
        assert!(
            diff < 0.2,
            "bin {b}: abm {:.4} vs ode {:.4}",
            abm_bins[b],
            ode_bins[b]
        );
    }
}

#[test]
fn digg_dataset_supports_abm_end_to_end() {
    // Full pipeline: synthesize dataset -> realize graph -> simulate.
    let dataset = DiggDataset::synthesize(DiggConfig {
        nodes: 1_200,
        k_max: 80,
        target_mean_degree: 10.0,
        ..DiggConfig::small()
    })
    .unwrap();
    let graph = dataset.realize_graph().unwrap();
    // The realized (erased) graph may drop a few stubs; rebuild classes
    // from the realized graph so the ABM and mean field share structure.
    let classes = DegreeClasses::from_graph(&graph).unwrap();
    let params = ModelParams::builder(classes)
        .alpha(0.0)
        .acceptance(AcceptanceRate::LinearInDegree { lambda0: 0.5 })
        .infectivity(Infectivity::paper_default())
        .build()
        .unwrap();
    let cfg = AbmConfig {
        alpha: 0.0,
        dt: 0.1,
        tf: 20.0,
        eps1: 0.02,
        eps2: 0.1,
        initial_infected: 0.05,
        record_every: 50,
    };
    let ens = run_ensemble(&graph, &params, &cfg, Simulator::Gillespie, 3, 5, None).unwrap();
    assert!(ens.i_mean.iter().all(|v| (0.0..=1.0).contains(v)));
    assert_eq!(ens.runs, 3);
}
