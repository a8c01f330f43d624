//! Criterion micro-benchmarks of the computational kernels behind the
//! experiment harness: the ODE right-hand side at Digg scale, threshold
//! and equilibrium computation, single integrator steps and whole
//! adaptive runs up to the paper-scale state, the Jacobian eigenvalue
//! analysis and the paper-scale Theorem-2 check, and agent-based
//! simulation steps.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rumor_compartments::model::{CompartmentAdjoint, CompartmentOde};
use rumor_compartments::paper::PaperSir;
use rumor_control::multi::{MultiFbsmOptions, MultiPiecewiseControl};
use rumor_core::control::ConstantControl;
use rumor_core::equilibrium::{positive_equilibrium, r0, solve_theta_star, zero_equilibrium};
use rumor_core::functions::{AcceptanceRate, Infectivity};
use rumor_core::model::RumorModel;
use rumor_core::params::ModelParams;
use rumor_core::stability::{jacobian_reduced, local_stability_e0};
use rumor_core::state::NetworkState;
use rumor_datasets::digg::{DiggConfig, DiggDataset};
use rumor_net::degree::DegreeClasses;
use rumor_net::generators::barabasi_albert;
use rumor_numerics::eigen::spectral_abscissa;
use rumor_ode::integrator::Adaptive;
use rumor_ode::steppers::{Dopri5, Rk4, Stepper};
use rumor_ode::system::OdeSystem;
use rumor_sim::abm::{self, AbmConfig};
use rumor_sim::ensemble;

/// Parameter bundles at two scales: the fast test scale and the full
/// 848-class Digg scale the paper evaluates on.
fn digg_params(full: bool) -> ModelParams {
    let cfg = if full {
        DiggConfig::default()
    } else {
        DiggConfig::small()
    };
    let ds = DiggDataset::synthesize(cfg).expect("dataset");
    digg_params_on(ds.classes())
}

fn digg_params_on(classes: &DegreeClasses) -> ModelParams {
    ModelParams::builder(classes.clone())
        .alpha(0.01)
        .acceptance(AcceptanceRate::LinearInDegree { lambda0: 0.01 })
        .infectivity(Infectivity::paper_default())
        .build()
        .expect("params")
}

fn bench_rhs(c: &mut Criterion) {
    let mut group = c.benchmark_group("rumor_rhs");
    for (label, full) in [("digg_small", false), ("digg_full", true)] {
        let params = digg_params(full);
        let model = RumorModel::new(&params, ConstantControl::new(0.2, 0.05));
        let y = NetworkState::initial_uniform(params.n_classes(), 0.1)
            .expect("state")
            .to_flat();
        let mut dydt = vec![0.0; y.len()];
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| {
                model.rhs(black_box(0.0), black_box(&y), &mut dydt);
                black_box(dydt[0])
            })
        });
    }
    group.finish();
}

fn bench_threshold_and_equilibria(c: &mut Criterion) {
    let params = digg_params(false);
    c.bench_function("r0_threshold", |b| {
        b.iter(|| r0(black_box(&params), 0.2, 0.05).expect("r0"))
    });
    c.bench_function("zero_equilibrium", |b| {
        b.iter(|| zero_equilibrium(black_box(&params), 0.2, 0.05).expect("E0"))
    });
    // Supercritical setting for the fixed-point solve.
    let sup = ModelParams::builder(params.classes().clone())
        .alpha(0.002)
        .acceptance(AcceptanceRate::LinearInDegree { lambda0: 0.01 })
        .infectivity(Infectivity::paper_default())
        .build()
        .expect("params");
    assert!(r0(&sup, 0.002, 0.004).expect("r0") > 1.0);
    c.bench_function("theta_star_fixed_point", |b| {
        b.iter(|| solve_theta_star(black_box(&sup), 0.002, 0.004).expect("theta*"))
    });
    c.bench_function("positive_equilibrium", |b| {
        b.iter(|| positive_equilibrium(black_box(&sup), 0.002, 0.004).expect("E+"))
    });
}

/// The states a step is timed on: the 264-class test scale (792
/// components), the 10,000-node net behind the analyst's paper-kind
/// optimize (288 classes, 864) and the paper-scale net (848 classes,
/// 2,544).
fn step_nets() -> [ModelParams; 3] {
    let ten_k = DiggDataset::synthesize(DiggConfig {
        nodes: 10_000,
        k_min: 1,
        k_max: 300,
        target_mean_degree: 24.0,
        seed: 101,
    })
    .expect("dataset");
    [
        digg_params(false),
        digg_params_on(ten_k.classes()),
        digg_params(true),
    ]
}

fn bench_steppers(c: &mut Criterion) {
    let params = digg_params(false);
    let model = RumorModel::new(&params, ConstantControl::new(0.2, 0.05));
    let y = NetworkState::initial_uniform(params.n_classes(), 0.1)
        .expect("state")
        .to_flat();
    let mut out = vec![0.0; y.len()];
    let mut group = c.benchmark_group("stepper_single_step");
    group.bench_function("rk4", |b| {
        let mut s = Rk4::new();
        b.iter(|| {
            s.step(&model, 0.0, black_box(&y), 0.01, &mut out);
            black_box(out[0])
        })
    });
    // `step_with_error` evaluates all seven stages and writes the error
    // estimate out. The adaptive driver instead takes its first stage
    // from the step before and folds the error norm into the step;
    // `adaptive_run` times that path on the same states.
    for params in step_nets() {
        let model = RumorModel::new(&params, ConstantControl::new(0.2, 0.05));
        let y = NetworkState::initial_uniform(params.n_classes(), 0.1)
            .expect("state")
            .to_flat();
        let (mut out, mut err) = (vec![0.0; y.len()], vec![0.0; y.len()]);
        let id = BenchmarkId::new("dopri5_with_error", y.len());
        group.bench_function(id, |b| {
            let mut s = Dopri5::new();
            b.iter(|| {
                s.step_with_error(&model, 0.0, black_box(&y), 0.01, &mut out, &mut err);
                black_box(out[0])
            })
        });
    }
    group.finish();
}

fn bench_adaptive_run(c: &mut Criterion) {
    // One forward and one backward adaptive run, as in a sweep iteration,
    // under a 101-node piecewise-linear schedule, on each `step_nets`
    // state. A whole run, unlike a single step, takes the driver's path:
    // the first-same-as-last stage reuse, the error norm folded into the
    // step, and the rejected steps.
    let (tf, nodes) = (40.0, 101);
    let grid: Vec<f64> = (0..nodes)
        .map(|i| tf * i as f64 / (nodes - 1) as f64)
        .collect();
    let truth = grid.iter().map(|&t| 0.3 * (1.0 - t / tf)).collect();
    let blocking = grid.iter().map(|&t| 0.1 + 0.4 * t / tf).collect();
    let control =
        MultiPiecewiseControl::from_values(grid, vec![truth, blocking]).expect("schedule");
    let ode = MultiFbsmOptions::default().ode;
    let mut group = c.benchmark_group("adaptive_run");
    for params in step_nets() {
        let model = PaperSir::from_params(&params, 5.0, 10.0).expect("model");
        let y0 = NetworkState::initial_uniform(params.n_classes(), 0.1)
            .expect("state")
            .to_flat();
        let forward = Adaptive::with_config(ode)
            .integrate(&CompartmentOde::new(&model, &control), 0.0, &y0, tf)
            .expect("forward");
        let adjoint = CompartmentAdjoint::new(&model, &forward, &control);
        let terminal = adjoint.weighted_terminal_condition(1.0);
        group.bench_function(BenchmarkId::new("paper_forward", y0.len()), |b| {
            let mut driver = Adaptive::with_config(ode);
            b.iter(|| {
                let sys = CompartmentOde::new(&model, &control);
                driver
                    .run(&sys, 0.0, black_box(&y0), tf, None)
                    .expect("forward")
                    .accepted
            })
        });
        group.bench_function(BenchmarkId::new("paper_backward", y0.len()), |b| {
            let mut driver = Adaptive::with_config(ode);
            b.iter(|| {
                driver
                    .run(&adjoint, tf, black_box(&terminal), 0.0, None)
                    .expect("backward")
                    .accepted
            })
        });
    }
    group.finish();
}

fn bench_stability(c: &mut Criterion) {
    // Moderate class count: the eigenvalue solve is O(n^3)-ish.
    let ds = DiggDataset::synthesize(DiggConfig {
        nodes: 2_000,
        k_max: 120,
        target_mean_degree: 15.0,
        ..DiggConfig::small()
    })
    .expect("dataset");
    let params = ModelParams::builder(ds.classes().clone())
        .alpha(0.01)
        .acceptance(AcceptanceRate::LinearInDegree { lambda0: 0.01 })
        .infectivity(Infectivity::paper_default())
        .build()
        .expect("params");
    let e0 = zero_equilibrium(&params, 0.2, 0.05).expect("E0");
    c.bench_function("jacobian_assembly", |b| {
        b.iter(|| jacobian_reduced(black_box(&params), &e0, 0.2, 0.05).expect("jacobian"))
    });
    let jac = jacobian_reduced(&params, &e0, 0.2, 0.05).expect("jacobian");
    c.bench_function("jacobian_eigenvalues", |b| {
        b.iter(|| spectral_abscissa(black_box(jac.clone())).expect("abscissa"))
    });
    // The whole Theorem-2 check at the paper's 848 classes: E0, the
    // I–I block and its dense QR.
    let full = digg_params(true);
    c.bench_function("theorem2_e0", |b| {
        b.iter(|| local_stability_e0(black_box(&full), 0.2, 0.05).expect("verdict"))
    });
}

fn bench_abm(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let g = barabasi_albert(2_000, 3, &mut rng).expect("graph");
    let classes = DegreeClasses::from_graph(&g).expect("classes");
    let params = ModelParams::builder(classes)
        .alpha(0.0)
        .acceptance(AcceptanceRate::LinearInDegree { lambda0: 1.0 })
        .infectivity(Infectivity::paper_default())
        .build()
        .expect("params");
    let cfg = AbmConfig {
        alpha: 0.0,
        dt: 0.1,
        tf: 5.0,
        eps1: 0.01,
        eps2: 0.1,
        initial_infected: 0.05,
        record_every: 50,
    };
    c.bench_function("abm_sync_2k_nodes_50_steps", |b| {
        b.iter(|| {
            let mut run_rng = StdRng::seed_from_u64(1);
            abm::run(black_box(&g), &params, &cfg, &mut run_rng).expect("abm")
        })
    });
    c.bench_function("gillespie_2k_nodes_5tu", |b| {
        b.iter(|| {
            let mut run_rng = StdRng::seed_from_u64(1);
            rumor_sim::gillespie::run(black_box(&g), &params, &cfg, &mut run_rng).expect("ssa")
        })
    });
}

fn bench_theta_flat(c: &mut Criterion) {
    // The Θ contraction is the inner loop of every RHS call; since the
    // fused `ϕ_j/⟨k⟩` weight table it is a single dot product.
    let mut group = c.benchmark_group("theta_flat");
    for (label, full) in [("digg_small", false), ("digg_full", true)] {
        let params = digg_params(full);
        let model = RumorModel::new(&params, ConstantControl::new(0.2, 0.05));
        let y = NetworkState::initial_uniform(params.n_classes(), 0.1)
            .expect("state")
            .to_flat();
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| black_box(model.theta_flat(black_box(&y))))
        });
    }
    group.finish();
}

fn bench_ensemble(c: &mut Criterion) {
    // A 16-replica synchronous-ABM ensemble, serial vs. the resolved
    // worker count — the workload the parallel execution layer exists
    // for. On a single-core host both arms measure the same work.
    let mut rng = StdRng::seed_from_u64(7);
    let g = barabasi_albert(1_000, 3, &mut rng).expect("graph");
    let classes = DegreeClasses::from_graph(&g).expect("classes");
    let params = ModelParams::builder(classes)
        .alpha(0.0)
        .acceptance(AcceptanceRate::LinearInDegree { lambda0: 0.5 })
        .infectivity(Infectivity::paper_default())
        .build()
        .expect("params");
    let cfg = AbmConfig {
        alpha: 0.0,
        dt: 0.1,
        tf: 2.0,
        eps1: 0.02,
        eps2: 0.1,
        initial_infected: 0.05,
        record_every: 10,
    };
    let mut group = c.benchmark_group("ensemble_16_replicas");
    let resolved = rumor_par::resolve_threads(None);
    let mut counts = vec![1usize];
    if resolved > 1 {
        counts.push(resolved);
    }
    for threads in counts {
        group.bench_function(BenchmarkId::from_parameter(threads), |b| {
            b.iter(|| {
                ensemble::run_ensemble(
                    black_box(&g),
                    &params,
                    &cfg,
                    ensemble::Simulator::Synchronous,
                    16,
                    42,
                    Some(threads),
                )
                .expect("ensemble")
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = kernels;
    config = Criterion::default().sample_size(20);
    targets = bench_rhs, bench_theta_flat, bench_threshold_and_equilibria, bench_steppers,
        bench_adaptive_run, bench_stability, bench_abm, bench_ensemble
}
criterion_main!(kernels);
