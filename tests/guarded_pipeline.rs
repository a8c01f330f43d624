//! End-to-end exercise of the guarded execution layer across crates:
//! fault-injected ODE integration, the FBSM watchdog, and fault-isolated
//! ensembles — all through the facade crate's prelude.

use rumor_repro::prelude::*;

fn small_params() -> ModelParams {
    let classes = DegreeClasses::from_degrees(&[2, 2, 3, 3, 4, 4, 6, 8]).unwrap();
    ModelParams::builder(classes)
        .alpha(0.01)
        .acceptance(AcceptanceRate::LinearInDegree { lambda0: 0.05 })
        .infectivity(Infectivity::paper_default())
        .build()
        .unwrap()
}

#[test]
fn nan_fault_is_recovered_with_populated_report() {
    // Acceptance criterion (1) of the guarded-execution issue: a RHS that
    // returns NaN inside a scheduled window is recovered by the fallback
    // chain, the run completes, and the report names what happened.
    let params = small_params();
    let control = ConstantControl::new(0.2, 0.05);
    let model = RumorModel::new(&params, control);
    let initial = NetworkState::initial_uniform(params.n_classes(), 0.05).unwrap();
    let y0 = initial.to_flat();

    let schedule = FaultSchedule::new().nan_at(8.0, 0.5);
    let faulty = FaultyRhs::new(&model, schedule);
    let run = Guarded::new().run(&faulty, 0.0, &y0, 30.0).unwrap();

    assert!(faulty.injections() > 0, "the fault never fired");
    assert!(run.report.completed);
    assert!(!run.report.events.is_empty(), "no fallback engaged");
    assert!(run.report.events.iter().all(|e| e.rescued_by.is_some()));
    assert!((run.solution.last_time() - 30.0).abs() < 1e-9);
    // The stitched state is still a valid (finite, bounded) SIR state.
    let last = NetworkState::from_flat(run.solution.last_state()).unwrap();
    assert!(last.total_infected().is_finite());

    // A clean reference run agrees with the faulted one outside the
    // quarantined window to within the hold-induced error.
    let clean = Guarded::new().run(&model, 0.0, &y0, 30.0).unwrap();
    assert!(clean.report.is_clean());
    let a = clean.solution.last_state()[params.n_classes()];
    let b = run.solution.last_state()[params.n_classes()];
    assert!(
        (a - b).abs() < 0.05,
        "faulted run drifted too far: {a} vs {b}"
    );
}

#[test]
fn starved_watchdog_degrades_instead_of_erroring() {
    // Acceptance criterion (2): a sweep that cannot converge (starved of
    // iterations) must not error — the watchdog returns its best
    // checkpoint with converged = false and the degradation flagged.
    let params = small_params();
    let initial = NetworkState::initial_uniform(params.n_classes(), 0.05).unwrap();
    let bounds = ControlBounds::new(0.7, 0.7).unwrap();
    let weights = CostWeights::new(5.0, 10.0).unwrap();
    let options = WatchdogOptions {
        fbsm: MultiFbsmOptions {
            n_nodes: 41,
            max_iterations: 2,
            tolerance: 1e-8,
            relaxation: 0.3,
            ..Default::default()
        },
        ..Default::default()
    };
    let sweep = optimize_guarded(&params, &initial, 20.0, &bounds, &weights, &options).unwrap();
    assert!(sweep.degraded);
    assert!(!sweep.result.converged);
    assert!(!sweep.restarts.is_empty());
    assert!(sweep.summary().contains("DEGRADED"));
    // The returned schedule is still usable: finite cost, valid bounds.
    assert!(sweep.result.cost.total().is_finite());
    assert!(sweep
        .result
        .control
        .values(0)
        .iter()
        .all(|&v| (0.0..=0.7).contains(&v)));
}

#[test]
fn isolated_ensemble_survives_a_poisoned_replica() {
    // Acceptance criterion (3), cross-crate: the public isolated-ensemble
    // API excludes a poisoned replica, keeps statistics over the
    // survivors, and records the exclusion.
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rumor_repro::sim::ensemble::run_ensemble_isolated_with;
    use rumor_repro::sim::SimError;

    let policy = IsolationPolicy::default();
    let mut rng_graph = StdRng::seed_from_u64(11);
    let graph = rumor_repro::net::generators::barabasi_albert(400, 3, &mut rng_graph).unwrap();
    let classes = DegreeClasses::from_graph(&graph).unwrap();
    let params = ModelParams::builder(classes)
        .alpha(0.0)
        .acceptance(AcceptanceRate::LinearInDegree { lambda0: 0.5 })
        .infectivity(Infectivity::paper_default())
        .build()
        .unwrap();
    let cfg = rumor_repro::sim::abm::AbmConfig {
        alpha: 0.0,
        dt: 0.1,
        tf: 10.0,
        eps1: 0.02,
        eps2: 0.1,
        initial_infected: 0.05,
        record_every: 10,
    };

    // Wrap the real ABM runner, poisoning replica 1 deterministically.
    let ens = run_ensemble_isolated_with(4, 17, &policy, None, |r, seed| {
        if r == 1 {
            return Err(SimError::Inconsistent("injected replica fault".into()));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        rumor_repro::sim::abm::run(&graph, &params, &cfg, &mut rng)
    })
    .unwrap();

    assert!(ens.degraded());
    assert_eq!(ens.attempted, 4);
    assert_eq!(ens.result.runs, 3);
    assert_eq!(ens.failures.len(), 1);
    assert_eq!(ens.failures[0].replica, 1);
    assert!(ens.failures[0].reason.contains("injected"));
    assert!(ens.result.i_mean.iter().all(|v| (0.0..=1.0).contains(v)));
}
