//! Parallel-vs-serial determinism: ensemble statistics, failure records
//! and quorum outcomes must be **bit-identical** for every thread count.
//!
//! These tests pass explicit worker counts through each function's
//! `threads` argument rather than mutating the process-wide override, so
//! they are safe under the test harness's own parallelism.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rumor_core::functions::{AcceptanceRate, Infectivity};
use rumor_core::params::ModelParams;
use rumor_net::degree::DegreeClasses;
use rumor_net::generators::barabasi_albert;
use rumor_net::graph::Graph;
use rumor_sim::abm::AbmConfig;
use rumor_sim::ensemble::{
    run_ensemble, run_ensemble_isolated, run_ensemble_isolated_with, EnsembleResult,
    IsolationPolicy, Simulator,
};
use rumor_sim::{SimError, SimTrajectory};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn setup() -> (Graph, ModelParams) {
    let mut rng = StdRng::seed_from_u64(7);
    let g = barabasi_albert(400, 3, &mut rng).unwrap();
    let classes = DegreeClasses::from_graph(&g).unwrap();
    let p = ModelParams::builder(classes)
        .alpha(0.0)
        .acceptance(AcceptanceRate::LinearInDegree { lambda0: 0.5 })
        .infectivity(Infectivity::paper_default())
        .build()
        .unwrap();
    (g, p)
}

fn cfg() -> AbmConfig {
    AbmConfig {
        alpha: 0.0,
        dt: 0.1,
        tf: 10.0,
        eps1: 0.02,
        eps2: 0.1,
        initial_infected: 0.05,
        record_every: 10,
    }
}

/// Asserts two ensemble results are bit-identical (not merely close).
fn assert_bit_identical(a: &EnsembleResult, b: &EnsembleResult, label: &str) {
    assert_eq!(a.runs, b.runs, "{label}: runs");
    let pairs = [
        (&a.times, &b.times, "times"),
        (&a.i_mean, &b.i_mean, "i_mean"),
        (&a.i_std, &b.i_std, "i_std"),
    ];
    for (xs, ys, field) in pairs {
        assert_eq!(xs.len(), ys.len(), "{label}: {field} length");
        for (i, (x, y)) in xs.iter().zip(ys.iter()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{label}: {field}[{i}] differs: {x} vs {y}"
            );
        }
    }
}

#[test]
fn abm_ensemble_bit_identical_across_thread_counts() {
    let (g, p) = setup();
    let serial = run_ensemble(&g, &p, &cfg(), Simulator::Synchronous, 8, 42, Some(1)).unwrap();
    for t in THREAD_COUNTS {
        let par = run_ensemble(&g, &p, &cfg(), Simulator::Synchronous, 8, 42, Some(t)).unwrap();
        assert_bit_identical(&serial, &par, &format!("abm, {t} threads"));
    }
}

#[test]
fn gillespie_ensemble_bit_identical_across_thread_counts() {
    let (g, p) = setup();
    let cfg = AbmConfig {
        dt: 1.0,
        tf: 20.0,
        record_every: 1,
        ..cfg()
    };
    let serial = run_ensemble(&g, &p, &cfg, Simulator::Gillespie, 6, 11, Some(1)).unwrap();
    for t in THREAD_COUNTS {
        let par = run_ensemble(&g, &p, &cfg, Simulator::Gillespie, 6, 11, Some(t)).unwrap();
        assert_bit_identical(&serial, &par, &format!("gillespie, {t} threads"));
    }
}

#[test]
fn isolated_ensemble_bit_identical_across_thread_counts() {
    let (g, p) = setup();
    let policy = IsolationPolicy::default();
    let serial = run_ensemble_isolated(
        &g,
        &p,
        &cfg(),
        Simulator::Synchronous,
        8,
        17,
        &policy,
        Some(1),
    )
    .unwrap();
    for t in THREAD_COUNTS {
        let par = run_ensemble_isolated(
            &g,
            &p,
            &cfg(),
            Simulator::Synchronous,
            8,
            17,
            &policy,
            Some(t),
        )
        .unwrap();
        assert_bit_identical(
            &serial.result,
            &par.result,
            &format!("isolated, {t} threads"),
        );
        assert_eq!(serial.failures, par.failures, "{t} threads: failures");
        assert_eq!(serial.attempted, par.attempted);
    }
}

#[test]
fn json_tracing_does_not_perturb_ensemble_output() {
    // Observability must be free of observer effects: with the JSON
    // trace sink and rollups enabled, ensemble statistics stay
    // bit-identical to the untraced baseline at every thread count.
    let (g, p) = setup();
    let baseline = run_ensemble(&g, &p, &cfg(), Simulator::Synchronous, 8, 42, Some(1)).unwrap();

    let path = std::env::temp_dir().join(format!("rumor_sim_trace_{}.jsonl", std::process::id()));
    rumor_obs::init_file(rumor_obs::LogFormat::Json, &path).expect("open trace file");
    rumor_obs::set_rollup(true);
    for t in [1usize, 4] {
        let traced = run_ensemble(&g, &p, &cfg(), Simulator::Synchronous, 8, 42, Some(t)).unwrap();
        assert_bit_identical(&baseline, &traced, &format!("traced, {t} threads"));
    }
    rumor_obs::set_rollup(false);
    rumor_obs::shutdown();

    // The sink received well-formed JSON-lines records for the runs.
    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert!(!text.is_empty(), "trace file is empty");
    for line in text.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "not a JSON object line: {line}"
        );
        assert!(line.contains("\"type\":"), "record without a type: {line}");
    }
    assert!(text.contains("\"name\":\"sim.ensemble\""));
    assert!(text.contains("\"name\":\"sim.replica\""));
    // And the rollup aggregated the replica spans (2 runs x 8 replicas,
    // plus whatever concurrently running tests contributed).
    let snap = rumor_obs::snapshot();
    assert!(
        snap.span_stat("sim.replica").map_or(0, |s| s.count) >= 16,
        "rollup missed replica spans"
    );
}

/// Two-rumor compartment model on the small-tier Digg classes (264 of
/// them, so the partitioned kernels genuinely split and the inner pool
/// dispatches instead of collapsing to the single-chunk serial path).
fn two_rumor_params() -> rumor_core::params::ModelParams {
    let dataset =
        rumor_datasets::digg::DiggDataset::synthesize(rumor_datasets::digg::DiggConfig::small())
            .expect("digg small tier");
    ModelParams::builder(dataset.classes().clone())
        .alpha(0.01)
        .acceptance(AcceptanceRate::LinearInDegree { lambda0: 0.02 })
        .infectivity(Infectivity::paper_default())
        .build()
        .expect("two-rumor params")
}

fn two_rumor_initial(n: usize, i0: f64) -> Vec<f64> {
    let mut y0 = vec![0.0; 4 * n];
    for j in 0..n {
        y0[j] = 1.0 - i0;
        y0[n + j] = i0;
    }
    y0
}

/// `simulate_compartments` of the two-rumor model under the constant
/// controls `(0.05, 0.1)` over `[0, 10]`, with `pool` bound to the ODE
/// system (`None` runs serially): the same integrator, grid and sample
/// sanitizing, so only the inner pool differs between runs.
fn two_rumor_on_pool(
    model: &rumor_models::two_rumor::TwoRumorModel,
    y0: &[f64],
    n_out: usize,
    pool: Option<std::sync::Arc<rumor_par::InnerPool>>,
) -> rumor_compartments::Result<rumor_compartments::simulate::CompartmentTrajectory> {
    use rumor_compartments::model::{CompartmentModel, CompartmentOde};
    use rumor_compartments::schedule::ConstantMultiControl;
    use rumor_compartments::simulate::{CompartmentSimOptions, CompartmentTrajectory};

    let tf = 10.0;
    let sys =
        CompartmentOde::new(model, ConstantMultiControl::new(vec![0.05, 0.1])).with_pool(pool);
    let sol = rumor_ode::integrator::Adaptive::with_config(CompartmentSimOptions::default().ode)
        .integrate(&sys, 0.0, y0, tf)?;
    let layout = model.layout();
    let times: Vec<f64> = (0..n_out)
        .map(|i| tf * i as f64 / (n_out - 1) as f64)
        .collect();
    let mut states = Vec::with_capacity(n_out);
    for &t in &times {
        let mut flat = sol.sample(t)?;
        layout.sanitize(&mut flat)?;
        states.push(flat);
    }
    Ok(CompartmentTrajectory::from_parts(layout, times, states))
}

#[test]
fn two_rumor_trajectory_bit_identical_across_inner_pool_sizes() {
    // Tentpole contract, compartment leg: the two-rumor RHS runs through
    // the same partitioned kernels as the paper model, so the full state
    // trajectory must be bit-identical with and without an inner pool,
    // at every pool size.
    use rumor_compartments::model::CompartmentModel;
    use rumor_models::two_rumor::TwoRumorModel;

    let p = two_rumor_params();
    let model = TwoRumorModel::from_params(&p, 0.03, 0.05, 0.08, 0.5, 5.0, 10.0).unwrap();
    assert!(
        rumor_core::kernels::partition_count(model.n_classes()) > 1,
        "class count must span several kernel partitions"
    );
    let y0 = two_rumor_initial(model.n_classes(), 0.1);
    let run = |pool: Option<std::sync::Arc<rumor_par::InnerPool>>| {
        two_rumor_on_pool(&model, &y0, 41, pool).unwrap()
    };
    let reference = run(None);
    for t in THREAD_COUNTS {
        let pooled = run(Some(std::sync::Arc::new(rumor_par::InnerPool::new(t))));
        assert_eq!(pooled.times(), reference.times(), "{t} inner threads");
        for (k, (a, b)) in pooled
            .states()
            .iter()
            .zip(reference.states().iter())
            .enumerate()
        {
            for (c, (x, y)) in a.iter().zip(b.iter()).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{t} inner threads: state[{k}][{c}] differs: {x} vs {y}"
                );
            }
        }
    }
}

#[test]
fn two_rumor_ensemble_bit_identical_across_outer_and_inner_threads() {
    // CI's RUMOR_INNER_THREADS axis, two-rumor leg: replica-level
    // (outer) ensemble workers each integrating the two-rumor
    // compartment ODE through their own inner pool. Merged statistics
    // must match the fully serial run bit for bit over the whole
    // {1,4} x {1,4} outer x inner matrix.
    use rumor_models::two_rumor::TwoRumorModel;

    let p = two_rumor_params();
    let n = p.n_classes();
    let policy = IsolationPolicy::default();
    let runner = |inner: usize| {
        let p = &p;
        move |_r: usize, seed: u64| -> Result<SimTrajectory, SimError> {
            let model = TwoRumorModel::from_params(p, 0.03, 0.05, 0.08, 0.5, 5.0, 10.0)
                .map_err(|e| SimError::Inconsistent(e.to_string()))?;
            // Seed-dependent initial prevalence, deterministic per replica.
            let i0 = 0.02 + (seed % 11) as f64 / 100.0;
            let pool = std::sync::Arc::new(rumor_par::InnerPool::new(inner));
            let sol = two_rumor_on_pool(&model, &two_rumor_initial(n, i0), 21, Some(pool))
                .map_err(|e| SimError::Inconsistent(e.to_string()))?;
            // Fold the 4-band trajectory into the ensemble's s/i/r shape:
            // both rumors count as "infected", the truth level rides in
            // the per-class channel so it enters the merged statistics.
            let mut traj = SimTrajectory::new(1);
            for (k, state) in sol.states().iter().enumerate() {
                let mean = |c: usize| state[c * n..(c + 1) * n].iter().sum::<f64>() / n as f64;
                let (s, i1, i2, r) = (mean(0), mean(1), mean(2), mean(3));
                traj.push(sol.times()[k], s, i1 + i2, r, &[i2]);
            }
            Ok(traj)
        }
    };
    let serial = run_ensemble_isolated_with(6, 4242, &policy, Some(1), runner(1)).unwrap();
    assert!(!serial.degraded());
    assert_eq!(serial.result.runs, 6);
    for outer in [1usize, 4] {
        for inner in [1usize, 4] {
            let par =
                run_ensemble_isolated_with(6, 4242, &policy, Some(outer), runner(inner)).unwrap();
            assert_bit_identical(
                &serial.result,
                &par.result,
                &format!("two-rumor, outer {outer} x inner {inner}"),
            );
            assert_eq!(serial.failures, par.failures);
            assert_eq!(serial.attempted, par.attempted);
        }
    }
}

/// Deterministic synthetic trajectory whose level encodes the seed, so
/// the merged statistics expose any replica-order mixup.
fn synth_traj(len: usize, seed: u64) -> SimTrajectory {
    let level = (seed % 97) as f64 / 97.0;
    let mut t = SimTrajectory::new(1);
    for k in 0..len {
        t.push(k as f64, 1.0 - level, level, 0.0, &[level]);
    }
    t
}

#[test]
fn injected_faults_produce_identical_exclusions_for_every_thread_count() {
    // Replicas 2, 5 and 8 fail; replica 6 records on the wrong grid.
    // Exclusion records (index, seed, reason) and survivor statistics
    // must match the serial run bit for bit at every thread count.
    let policy = IsolationPolicy::default();
    let runner = |r: usize, seed: u64| -> Result<SimTrajectory, SimError> {
        if r % 3 == 2 {
            Err(SimError::Inconsistent(format!("injected fault in {r}")))
        } else if r == 6 {
            Ok(synth_traj(9, seed))
        } else {
            Ok(synth_traj(5, seed))
        }
    };
    let serial = run_ensemble_isolated_with(12, 300, &policy, Some(1), runner).unwrap();
    assert!(serial.degraded());
    assert_eq!(serial.failures.len(), 5);
    assert_eq!(serial.result.runs, 7);
    for t in THREAD_COUNTS {
        let par = run_ensemble_isolated_with(12, 300, &policy, Some(t), runner).unwrap();
        assert_bit_identical(
            &serial.result,
            &par.result,
            &format!("faulted, {t} threads"),
        );
        assert_eq!(serial.failures, par.failures, "{t} threads: failures");
        assert_eq!(serial.attempted, par.attempted);
        assert_eq!(serial.summary(), par.summary());
    }
}

#[test]
fn quorum_violation_is_identical_for_every_thread_count() {
    let policy = IsolationPolicy::default();
    let runner = |r: usize, _seed: u64| -> Result<SimTrajectory, SimError> {
        if r == 0 {
            Ok(synth_traj(3, 1))
        } else {
            Err(SimError::Inconsistent("dead".into()))
        }
    };
    for t in THREAD_COUNTS {
        let err = run_ensemble_isolated_with(5, 0, &policy, Some(t), runner).unwrap_err();
        match err {
            SimError::QuorumNotMet {
                succeeded,
                required,
                attempted,
            } => assert_eq!((succeeded, required, attempted), (1, 3, 5), "{t} threads"),
            other => panic!("{t} threads: expected QuorumNotMet, got {other}"),
        }
    }
}

#[test]
fn strict_ensemble_error_matches_serial_first_failure_semantics() {
    // The strict path reports the error of the smallest failing replica
    // index regardless of which worker hit an error first.
    let (g, p) = setup();
    // A degenerate config that makes every replica fail identically:
    // zero runs is rejected before spawning, so instead drive the
    // isolated runner through the strict merge with a poisoned runner.
    let runner = |r: usize, _seed: u64| -> Result<SimTrajectory, SimError> {
        Err(SimError::Inconsistent(format!("replica {r} poisoned")))
    };
    let policy = IsolationPolicy { quorum: 0.01 };
    for t in THREAD_COUNTS {
        let err = run_ensemble_isolated_with(6, 0, &policy, Some(t), runner).unwrap_err();
        assert!(
            matches!(err, SimError::QuorumNotMet { succeeded: 0, .. }),
            "{t} threads"
        );
    }
    // And the all-success strict path still agrees with itself.
    let a = run_ensemble(&g, &p, &cfg(), Simulator::Synchronous, 4, 5, Some(8)).unwrap();
    let b = run_ensemble(&g, &p, &cfg(), Simulator::Synchronous, 4, 5, Some(1)).unwrap();
    assert_bit_identical(&a, &b, "strict self-agreement");
}
