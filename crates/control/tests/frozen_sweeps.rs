//! Frozen outputs of the forward–backward sweep on the paper model.
//!
//! The workspace used to carry a second, paper-specific copy of the
//! sweep beside the generic one, and pinned the two bit for bit. Both
//! ran the same kernels in the same order, so the copy proved nothing a
//! recording cannot: before it was deleted, its outputs were captured
//! here as FNV-1a digests of the `f64` bit patterns. Every configuration
//! below must keep reproducing them exactly — iteration counts,
//! relaxation telemetry, histories, both schedule channels and the cost.
//! A deliberate numerics change updates the constants in the same
//! commit. Two capped sweeps on the other model kinds, the competing
//! two-rumor model and the tie-strength variant, are frozen the same
//! way, so a change to the adaptive step is held on every kind.

use rumor_compartments::paper::PaperSir;
use rumor_control::multi::{
    optimize_compartments_monitored, MultiControlBounds, MultiFbsmOptions, MultiPiecewiseControl,
    MultiSweepResult,
};
use rumor_control::watchdog::{
    optimize_guarded, DivergenceKind, GuardedSweep, SweepSource, WatchdogOptions,
};
use rumor_control::{ControlBounds, CostWeights};
use rumor_core::functions::{AcceptanceRate, Infectivity};
use rumor_core::params::ModelParams;
use rumor_core::state::NetworkState;
use rumor_models::tie_strength::tie_strength_model;
use rumor_models::two_rumor::TwoRumorModel;
use rumor_net::degree::DegreeClasses;
use rumor_ode::integrator::AdaptiveConfig;

/// FNV-1a over the little-endian bit patterns of `values`.
fn fnv1a(values: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The recorded fingerprint of one sweep result.
#[derive(Debug, PartialEq, Eq)]
struct Frozen {
    iterations: usize,
    converged: bool,
    backoffs: usize,
    restored: bool,
    final_relaxation: u64,
    change_history: u64,
    cost_history: u64,
    eps1: u64,
    eps2: u64,
    /// Bits of the total objective.
    cost: u64,
    /// Digest of `[terminal, truth cost, blocking cost]`.
    cost_parts: u64,
}

fn fingerprint(r: &MultiSweepResult) -> Frozen {
    assert_eq!(r.control.n_channels(), 2);
    assert_eq!(r.cost.channel_costs.len(), 2);
    Frozen {
        iterations: r.iterations,
        converged: r.converged,
        backoffs: r.relaxation_backoffs,
        restored: r.restored_checkpoint,
        final_relaxation: r.final_relaxation.to_bits(),
        change_history: fnv1a(&r.change_history),
        cost_history: fnv1a(&r.cost_history),
        eps1: fnv1a(r.control.values(0)),
        eps2: fnv1a(r.control.values(1)),
        cost: r.cost.total().to_bits(),
        cost_parts: fnv1a(&[
            r.cost.terminal,
            r.cost.channel_costs[0],
            r.cost.channel_costs[1],
        ]),
    }
}

/// `n` classes cycling through degrees 1..=40 (so at most 40 distinct
/// classes).
fn params_for(n: usize) -> ModelParams {
    let degrees: Vec<usize> = (0..n).map(|i| 1 + i % 40).collect();
    params_from(&degrees, 0.002)
}

fn params_from(degrees: &[usize], lambda0: f64) -> ModelParams {
    let classes = DegreeClasses::from_degrees(degrees).unwrap();
    ModelParams::builder(classes)
        .alpha(0.002)
        .acceptance(AcceptanceRate::LinearInDegree { lambda0 })
        .infectivity(Infectivity::paper_default())
        .build()
        .unwrap()
}

fn options(inner_threads: usize) -> MultiFbsmOptions {
    MultiFbsmOptions {
        n_nodes: 21,
        max_iterations: 5,
        tolerance: 1e-3,
        relaxation: 0.5,
        inner_threads: Some(inner_threads),
        ..Default::default()
    }
}

fn sweep(p: &ModelParams, tf: f64, opts: &MultiFbsmOptions) -> Frozen {
    let w = CostWeights::paper_default();
    let model = PaperSir::from_params(p, w.c1, w.c2).unwrap();
    let y0 = NetworkState::initial_uniform(p.n_classes(), 0.1)
        .unwrap()
        .to_flat();
    let bounds = MultiControlBounds::new(vec![0.6, 0.6]).unwrap();
    fingerprint(&optimize_compartments_monitored(&model, &y0, tf, &bounds, opts).unwrap())
}

#[test]
fn serial_prefix_is_frozen() {
    assert_eq!(
        sweep(&params_for(30), 10.0, &options(1)),
        Frozen {
            iterations: 5,
            converged: false,
            backoffs: 0,
            restored: false,
            final_relaxation: 0x3fe0000000000000,
            change_history: 0x5dba3c3f76497184,
            cost_history: 0x55750010bf945628,
            eps1: 0x07e6f16309852cc8,
            eps2: 0x35fde05f6cf6bb77,
            cost: 0x3ffb7f60536c7bc4,
            cost_parts: 0x1a026ceba4487768,
        }
    );
}

#[test]
fn inner_thread_counts_reproduce_the_frozen_prefix() {
    // `params_for(300)`: 40 distinct classes, one kernel partition.
    let frozen_n300 = Frozen {
        iterations: 5,
        converged: false,
        backoffs: 0,
        restored: false,
        final_relaxation: 0x3fe0000000000000,
        change_history: 0x9e1adbfd6b577229,
        cost_history: 0xcd81e5bbe3ac8269,
        eps1: 0x68b2a15f7664b180,
        eps2: 0xe9a4df309cb4d3a7,
        cost: 0x400255330ecc17f4,
        cost_parts: 0x9e44a4bb17f19a39,
    };
    // 300 distinct classes span several kernel partitions, so the inner
    // pool genuinely dispatches at 2 and 4 threads.
    let frozen_pooled = Frozen {
        iterations: 5,
        converged: false,
        backoffs: 0,
        restored: false,
        final_relaxation: 0x3fe0000000000000,
        change_history: 0x5ffcc119c1358343,
        cost_history: 0x5d2e7549c7589ed6,
        eps1: 0x5971a65914753ace,
        eps2: 0x6af1d735c2b1af85,
        cost: 0x40313077741b9533,
        cost_parts: 0x85075a995f2355d3,
    };
    let distinct: Vec<usize> = (1..=300).collect();
    let pooled = params_from(&distinct, 0.002);
    assert!(rumor_core::kernels::partition_count(pooled.n_classes()) > 1);
    for threads in [1usize, 2, 4] {
        assert_eq!(
            sweep(&params_for(300), 10.0, &options(threads)),
            frozen_n300,
            "threads = {threads}"
        );
        assert_eq!(
            sweep(&pooled, 10.0, &options(threads)),
            frozen_pooled,
            "pooled, threads = {threads}"
        );
    }
}

#[test]
fn warm_started_prefix_is_frozen() {
    let prior = MultiPiecewiseControl::from_values(
        vec![0.0, 4.0, 10.0],
        vec![vec![0.5, 0.3, 0.1], vec![0.05, 0.2, 0.4]],
    )
    .unwrap();
    let opts = MultiFbsmOptions {
        initial_control: Some(prior),
        ..options(1)
    };
    assert_eq!(
        sweep(&params_for(30), 10.0, &opts),
        Frozen {
            iterations: 5,
            converged: false,
            backoffs: 0,
            restored: false,
            final_relaxation: 0x3fe0000000000000,
            change_history: 0x50188cdc60384de0,
            cost_history: 0x07911a9f5c4c70c2,
            eps1: 0x4b7393c9641cf8d8,
            eps2: 0xedf5034fa09daac8,
            cost: 0x3ff5b738b5dfdf9c,
            cost_parts: 0x513636b42fea16a6,
        }
    );
}

#[test]
fn full_convergence_is_frozen() {
    let opts = MultiFbsmOptions {
        max_iterations: 120,
        tolerance: 1e-4,
        ..options(1)
    };
    assert_eq!(
        sweep(&params_for(12), 16.0, &opts),
        Frozen {
            iterations: 28,
            converged: true,
            backoffs: 2,
            restored: false,
            final_relaxation: 0x3fc372b6ae7d566e,
            change_history: 0xef5e420a8bee7d22,
            cost_history: 0x083e314ad71a6cc5,
            eps1: 0x08be1e41de4eb7d7,
            eps2: 0xcef6d0384b1b9cac,
            cost: 0x3fb8c351057f879e,
            cost_parts: 0x4f2543043b58e1e8,
        }
    );
}

#[test]
fn restored_checkpoint_is_frozen() {
    // A budget-capped sweep whose best diagnostic cost came before its
    // last iterate: the checkpoint is restored, and its trajectory and
    // cost are re-solved rather than taken from the last pass.
    let degrees: Vec<usize> = (0..24).map(|i| 1 + i % 12).collect();
    let p = params_from(&degrees, 0.02);
    let w = CostWeights::paper_default();
    let model = PaperSir::from_params(&p, w.c1, w.c2).unwrap();
    let y0 = NetworkState::initial_uniform(p.n_classes(), 0.1)
        .unwrap()
        .to_flat();
    let opts = MultiFbsmOptions {
        n_nodes: 21,
        max_iterations: 6,
        tolerance: 1e-4,
        relaxation: 0.9,
        ode: AdaptiveConfig {
            rtol: 1e-6,
            atol: 1e-8,
            ..Default::default()
        },
        ..Default::default()
    };
    let bounds = MultiControlBounds::new(vec![0.2, 0.2]).unwrap();
    let r = optimize_compartments_monitored(&model, &y0, 20.0, &bounds, &opts).unwrap();
    assert_eq!(
        fingerprint(&r),
        Frozen {
            iterations: 6,
            converged: false,
            backoffs: 0,
            restored: true,
            final_relaxation: 0x3feccccccccccccd,
            change_history: 0x9bc8415b65e10854,
            cost_history: 0x1210f8d40f02f53c,
            eps1: 0xb0238d936f26cfb8,
            eps2: 0xa85eaaa4f8d89130,
            cost: 0x3fc19cbc0e83552f,
            cost_parts: 0x9594760f43176f36,
        }
    );
    let states: Vec<f64> = r.trajectory.states().iter().flatten().copied().collect();
    assert_eq!(fnv1a(&states), 0x42b29ebc86391021);
}

/// The capped sweep both non-paper kinds are frozen under.
fn capped_options() -> MultiFbsmOptions {
    MultiFbsmOptions {
        n_nodes: 21,
        max_iterations: 8,
        tolerance: 1e-6,
        relaxation: 0.4,
        inner_threads: Some(1),
        ..Default::default()
    }
}

#[test]
fn capped_two_rumor_sweep_is_frozen() {
    let degrees: Vec<usize> = (0..24).map(|i| 1 + i % 12).collect();
    let p = params_from(&degrees, 0.02);
    let model = TwoRumorModel::from_params(&p, 0.03, 0.05, 0.08, 0.5, 5.0, 10.0).unwrap();
    let n = p.n_classes();
    let mut y0 = vec![0.0; 4 * n];
    for j in 0..n {
        y0[j] = 0.88;
        y0[n + j] = 0.1;
        y0[2 * n + j] = 0.02;
    }
    let bounds = MultiControlBounds::new(vec![0.2, 0.2]).unwrap();
    let r = optimize_compartments_monitored(&model, &y0, 20.0, &bounds, &capped_options()).unwrap();
    assert_eq!(
        fingerprint(&r),
        Frozen {
            iterations: 8,
            converged: false,
            backoffs: 0,
            restored: false,
            final_relaxation: 0x3fd999999999999a,
            change_history: 0xe46b1663378affc1,
            cost_history: 0xf23171d86d175d35,
            eps1: 0xa7a22ea04364acf9,
            eps2: 0xcc38a2fba5e9ec04,
            cost: 0x3fb63a1824e28e00,
            cost_parts: 0x571deda38f8cefc2,
        }
    );
}

#[test]
fn capped_tie_strength_sweep_is_frozen() {
    let degrees: Vec<usize> = (0..24).map(|i| 1 + i % 12).collect();
    let p = params_from(&degrees, 0.02);
    let w = CostWeights::paper_default();
    let model = tie_strength_model(&p, 0.5, w.c1, w.c2).unwrap();
    let y0 = NetworkState::initial_uniform(p.n_classes(), 0.1)
        .unwrap()
        .to_flat();
    let bounds = MultiControlBounds::new(vec![0.6, 0.6]).unwrap();
    let r = optimize_compartments_monitored(&model, &y0, 20.0, &bounds, &capped_options()).unwrap();
    assert_eq!(
        fingerprint(&r),
        Frozen {
            iterations: 8,
            converged: false,
            backoffs: 1,
            restored: false,
            final_relaxation: 0x3fcc395810624dd4,
            change_history: 0xe655b45302f4e9d9,
            cost_history: 0x8195eeab2d362079,
            eps1: 0xf50813990041fd89,
            eps2: 0xc1a9417cbd9b3748,
            cost: 0x3ff849b4d101c6ea,
            cost_parts: 0xc427bae9d1fe1a9d,
        }
    );
}

/// One recorded watchdog restart: attempt, relaxation bits, whether the
/// attempt ran guarded, and the divergence verdict.
type Restart = (usize, u64, bool, DivergenceKind);

fn guarded(max_steps: usize, max_restarts: usize, guard_ode_on_retry: bool) -> GuardedSweep {
    let p = params_from(&[1, 1, 2, 2, 3, 6], 0.02);
    let initial = NetworkState::initial_uniform(p.n_classes(), 0.1).unwrap();
    let options = WatchdogOptions {
        fbsm: MultiFbsmOptions {
            n_nodes: 51,
            max_iterations: 80,
            tolerance: 1e-4,
            relaxation: 0.5,
            ode: AdaptiveConfig {
                max_steps,
                ..Default::default()
            },
            ..Default::default()
        },
        max_restarts,
        guard_ode_on_retry,
        ..Default::default()
    };
    optimize_guarded(
        &p,
        &initial,
        20.0,
        &ControlBounds::new(0.6, 0.6).unwrap(),
        &CostWeights::paper_default(),
        &options,
    )
    .unwrap()
}

fn restarts(g: &GuardedSweep) -> Vec<Restart> {
    g.restarts
        .iter()
        .map(|r| {
            (
                r.attempt,
                r.relaxation.to_bits(),
                r.guarded_ode,
                r.divergence,
            )
        })
        .collect()
}

#[test]
fn watchdog_guarded_retry_is_frozen() {
    // A 40-step budget kills the plain first attempt; the guarded
    // retries complete but stall, so the best checkpoint comes back.
    let g = guarded(40, 2, true);
    assert_eq!(
        restarts(&g),
        vec![
            (0, 0x3fe0000000000000, false, DivergenceKind::BlowUp),
            (1, 0x3fd0000000000000, true, DivergenceKind::Stall),
            (2, 0x3fc0000000000000, true, DivergenceKind::Stall),
        ]
    );
    assert_eq!(
        g.restarts[0].detail,
        "integration failed: ode error: exceeded 40 steps at t = 9.931130799347711"
    );
    assert_eq!(g.source, SweepSource::Fbsm);
    assert!(g.degraded);
    assert_eq!(
        fingerprint(&g.result),
        Frozen {
            iterations: 80,
            converged: false,
            backoffs: 38,
            restored: false,
            final_relaxation: 0x3f947ae147ae147b,
            change_history: 0x6353643dc30fb72c,
            cost_history: 0xc3b2ca42cf5bdae6,
            eps1: 0x10488683ba59b60d,
            eps2: 0x78dbf16f587fa30d,
            cost: 0x3fd4adb3ec70d186,
            cost_parts: 0xf3ca7589c36cddaa,
        }
    );
}

#[test]
fn watchdog_heuristic_fallback_is_frozen() {
    // A 2-step budget and no guarded retry: no attempt leaves a
    // checkpoint, so the heuristic controller is the answer.
    let g = guarded(2, 1, false);
    assert_eq!(
        restarts(&g),
        vec![
            (0, 0x3fe0000000000000, false, DivergenceKind::BlowUp),
            (1, 0x3fd0000000000000, false, DivergenceKind::BlowUp),
        ]
    );
    assert_eq!(g.source, SweepSource::HeuristicFallback);
    assert!(g.degraded);
    assert_eq!(g.result.control.grid().len(), 51);
    assert_eq!(
        fingerprint(&g.result),
        Frozen {
            iterations: 0,
            converged: false,
            backoffs: 0,
            restored: false,
            final_relaxation: 0x3fc0000000000000,
            change_history: fnv1a(&[]),
            cost_history: fnv1a(&[]),
            eps1: 0xb625a2a0ad46d7c3,
            eps2: 0xb625a2a0ad46d7c3,
            cost: 0x40079f3b3fa68056,
            cost_parts: 0x95096db1a95f3d96,
        }
    );
}
