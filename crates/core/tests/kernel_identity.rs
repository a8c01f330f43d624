//! Bit-identity of the chunked hot-path kernels against their scalar
//! references, at every class count the workloads exercise — including
//! the chunk boundary cases around `LANES = 8` and the paper's Digg
//! class counts (264 small-scale, 848 full-scale).
//!
//! These tests are the contract named in DESIGN.md § scale architecture:
//! any future kernel rewrite that changes the floating-point association
//! order fails here instead of silently shifting every trajectory.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rumor_core::control::ConstantControl;
use rumor_core::functions::{AcceptanceRate, Infectivity};
use rumor_core::kernels::{self, partition_count, LANES, PART_CHUNK};
use rumor_core::model::RumorModel;
use rumor_core::params::ModelParams;
use rumor_net::degree::DegreeClasses;
use rumor_ode::system::OdeSystem;

#[path = "support/scalar_kernels.rs"]
mod scalar;

/// Class counts under test: 1 (degenerate), 7/8/9 (chunk boundary),
/// 264 (small-scale Digg), 848 (full-scale Digg).
const CLASS_COUNTS: [usize; 6] = [1, 7, 8, 9, 264, 848];

/// Parameters with exactly `n` degree classes: one node per distinct
/// degree `1..=n` (two for odd-degree parity safety is unnecessary —
/// `DegreeClasses` takes the sequence verbatim).
fn params_with_classes(n: usize) -> ModelParams {
    let degrees: Vec<usize> = (1..=n).collect();
    let classes = DegreeClasses::from_degrees(&degrees).expect("distinct degrees");
    assert_eq!(classes.len(), n);
    ModelParams::builder(classes)
        .alpha(0.01)
        .acceptance(AcceptanceRate::LinearInDegree { lambda0: 0.02 })
        .infectivity(Infectivity::paper_default())
        .build()
        .expect("params")
}

fn random_state(n: usize, rng: &mut StdRng) -> Vec<f64> {
    // A flat [S.., I.., R..] state; entries need not lie on the simplex
    // for a pure kernel-identity check.
    (0..3 * n).map(|_| rng.gen_range(0.0..1.0)).collect()
}

#[test]
fn theta_flat_is_bit_identical_to_scalar_reference_at_every_class_count() {
    let mut rng = StdRng::seed_from_u64(0xD166);
    for &n in &CLASS_COUNTS {
        let p = params_with_classes(n);
        let model = RumorModel::new(&p, ConstantControl::new(0.2, 0.05));
        for _ in 0..10 {
            let y = random_state(n, &mut rng);
            let chunked = model.theta_flat(&y);
            // The model reduces Θ over the fixed partition plan (so the
            // association is identical with and without an inner pool);
            // the reference is the partitioned *scalar* mirror. For
            // n <= PART_CHUNK this equals the plain scalar dot.
            let reference = scalar::dot_partitioned_scalar(p.theta_weights(), &y[n..2 * n]);
            assert_eq!(
                chunked.to_bits(),
                reference.to_bits(),
                "theta mismatch at n = {n}"
            );
            if n <= PART_CHUNK {
                assert_eq!(
                    reference.to_bits(),
                    scalar::dot_scalar(p.theta_weights(), &y[n..2 * n]).to_bits(),
                    "single-partition theta must equal the plain scalar dot at n = {n}"
                );
            }
        }
    }
}

#[test]
fn model_rhs_is_bit_identical_to_scalar_reference_at_every_class_count() {
    let mut rng = StdRng::seed_from_u64(0x2009);
    for &n in &CLASS_COUNTS {
        let p = params_with_classes(n);
        let model = RumorModel::new(&p, ConstantControl::new(0.2, 0.05));
        for _ in 0..10 {
            let y = random_state(n, &mut rng);
            let mut fast = vec![0.0; 3 * n];
            model.rhs(0.0, &y, &mut fast);

            // Scalar reference path: partitioned scalar Θ reduction +
            // scalar RHS map.
            let theta = scalar::dot_partitioned_scalar(p.theta_weights(), &y[n..2 * n]);
            let mut ds = vec![0.0; n];
            let mut di = vec![0.0; n];
            let mut dr = vec![0.0; n];
            scalar::sir_rhs_scalar(
                &y[..n],
                &y[n..2 * n],
                p.lambda(),
                theta,
                p.alpha(),
                0.2,
                0.05,
                p.alpha(),
                &mut ds,
                &mut di,
                &mut dr,
            );
            for i in 0..n {
                assert_eq!(fast[i].to_bits(), ds[i].to_bits(), "dS at n = {n}, i = {i}");
                assert_eq!(
                    fast[n + i].to_bits(),
                    di[i].to_bits(),
                    "dI at n = {n}, i = {i}"
                );
                assert_eq!(
                    fast[2 * n + i].to_bits(),
                    dr[i].to_bits(),
                    "dR at n = {n}, i = {i}"
                );
            }
        }
    }
}

#[test]
fn reduction_kernels_match_their_scalar_references_on_random_data() {
    let mut rng = StdRng::seed_from_u64(7);
    for &n in &CLASS_COUNTS {
        for _ in 0..20 {
            let a: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let w: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
            let s: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
            assert_eq!(
                kernels::dot(&a, &b).to_bits(),
                scalar::dot_scalar(&a, &b).to_bits(),
                "dot at n = {n}"
            );
            assert_eq!(
                kernels::coupling_sum(&a, &b, &w, &s).to_bits(),
                scalar::coupling_sum_scalar(&a, &b, &w, &s).to_bits(),
                "coupling at n = {n}"
            );
        }
    }
}

/// Intra-parallel identity: a model driven through an [`InnerPool`] of
/// 1, 2, 4 or 8 threads must reproduce the serial model bit for bit at
/// every class count — the tentpole determinism contract. Θ reductions
/// go through per-chunk partials folded in chunk order; the RHS map
/// writes disjoint chunk slices.
#[test]
fn pooled_model_rhs_is_bit_identical_to_serial_at_every_thread_count() {
    use rumor_par::InnerPool;
    let mut rng = StdRng::seed_from_u64(0x9A8A11E1);
    for &n in &CLASS_COUNTS {
        let p = params_with_classes(n);
        let serial = RumorModel::new(&p, ConstantControl::new(0.2, 0.05));
        for threads in [1usize, 2, 4, 8] {
            let pool = std::sync::Arc::new(InnerPool::new(threads));
            let pooled = RumorModel::new(&p, ConstantControl::new(0.2, 0.05))
                .with_pool(Some(std::sync::Arc::clone(&pool)));
            for _ in 0..5 {
                let y = random_state(n, &mut rng);
                assert_eq!(
                    serial.theta_flat(&y).to_bits(),
                    pooled.theta_flat(&y).to_bits(),
                    "theta at n = {n}, threads = {threads}"
                );
                let mut d_serial = vec![0.0; 3 * n];
                let mut d_pooled = vec![0.0; 3 * n];
                serial.rhs(0.0, &y, &mut d_serial);
                pooled.rhs(0.0, &y, &mut d_pooled);
                for i in 0..3 * n {
                    assert_eq!(
                        d_serial[i].to_bits(),
                        d_pooled[i].to_bits(),
                        "rhs at n = {n}, threads = {threads}, i = {i}"
                    );
                }
            }
        }
    }
}

#[test]
fn chunked_dot_stays_within_float_noise_of_naive_sum() {
    // The chunked association differs from a naive left-fold; the gap
    // must stay at rounding-noise scale so results remain comparable
    // with pre-chunking baselines at experiment tolerances.
    let mut rng = StdRng::seed_from_u64(99);
    for &n in &CLASS_COUNTS {
        let a: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
        let b: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
        let naive: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        let chunked = kernels::dot(&a, &b);
        assert!(
            (chunked - naive).abs() <= 1e-13 * naive.abs().max(1.0),
            "n = {n}: chunked {chunked} vs naive {naive}"
        );
    }
}
