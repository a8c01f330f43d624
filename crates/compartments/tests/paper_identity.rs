//! The port's bit-identity contract against `RumorModel`.
//!
//! Same discipline as the kernel/arena identity suites: the paper model
//! on the generalized abstraction must reproduce `RumorModel` bit for
//! bit — RHS evaluations, Θ reductions, and whole adaptive trajectories,
//! serial and pooled. Both now call the same `rumor_core::model::flat_rhs`,
//! so this suite guards that they keep doing so.

use rumor_compartments::model::{CompartmentModel, CompartmentOde};
use rumor_compartments::paper::PaperSir;
use rumor_compartments::schedule::ConstantMultiControl;
use rumor_core::control::ConstantControl;
use rumor_core::functions::{AcceptanceRate, Infectivity};
use rumor_core::model::RumorModel;
use rumor_core::params::ModelParams;
use rumor_net::degree::DegreeClasses;
use rumor_ode::integrator::Adaptive;
use rumor_ode::system::OdeSystem;
use rumor_par::InnerPool;
use std::sync::Arc;

/// Class counts straddling the kernel lane width (8) and the partition
/// width (256), matching the PR 7 identity suite.
const SIZES: [usize; 6] = [1, 7, 8, 9, 264, 848];

/// Deterministic pseudo-random fill (SplitMix64 mapped into [lo, hi)).
fn fill(seed: u64, len: usize, lo: f64, hi: f64) -> Vec<f64> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            lo + (hi - lo) * (z >> 11) as f64 / (1u64 << 53) as f64
        })
        .collect()
}

fn params_for(n: usize) -> ModelParams {
    let degrees: Vec<usize> = (0..n).map(|i| 1 + i % 40).collect();
    let classes = DegreeClasses::from_degrees(&degrees).unwrap();
    ModelParams::builder(classes)
        .alpha(0.002)
        .acceptance(AcceptanceRate::LinearInDegree { lambda0: 0.01 })
        .infectivity(Infectivity::paper_default())
        .build()
        .unwrap()
}

#[test]
fn rhs_is_bit_identical_to_rumor_model() {
    for &n in &SIZES {
        let p = params_for(n);
        let n = p.n_classes();
        let ctl = ConstantControl::new(0.17, 0.06);
        let legacy = RumorModel::new(&p, ctl);
        let port = PaperSir::from_params(&p, 5.0, 10.0).unwrap();
        let y = fill(0xC0FFEE ^ n as u64, 3 * n, 0.0, 1.0);
        let mut d_legacy = vec![0.0; 3 * n];
        let mut d_port = vec![0.0; 3 * n];
        legacy.rhs(1.3, &y, &mut d_legacy);
        port.rhs(&y, &[0.17, 0.06], None, &mut d_port);
        for (a, b) in d_legacy.iter().zip(&d_port) {
            assert_eq!(a.to_bits(), b.to_bits(), "serial rhs at n = {n}");
        }
        // Θ agrees too.
        assert_eq!(
            legacy.theta_flat(&y).to_bits(),
            port.theta_flat(&y, None).to_bits(),
            "theta at n = {n}"
        );
    }
}

#[test]
fn pooled_rhs_is_bit_identical_to_rumor_model() {
    for &n in &SIZES {
        let p = params_for(n);
        let n = p.n_classes();
        let ctl = ConstantControl::new(0.17, 0.06);
        let port = PaperSir::from_params(&p, 5.0, 10.0).unwrap();
        let y = fill(0xBEEF ^ n as u64, 3 * n, 0.0, 1.0);
        for threads in [2usize, 4] {
            let pool = Arc::new(InnerPool::new(threads));
            let legacy = RumorModel::new(&p, ctl).with_pool(Some(pool.clone()));
            let mut d_legacy = vec![0.0; 3 * n];
            let mut d_port = vec![0.0; 3 * n];
            legacy.rhs(0.0, &y, &mut d_legacy);
            port.rhs(&y, &[0.17, 0.06], Some(&pool), &mut d_port);
            for (a, b) in d_legacy.iter().zip(&d_port) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "pooled rhs at n = {n}, threads = {threads}"
                );
            }
        }
    }
}

#[test]
fn adaptive_trajectories_are_bit_identical() {
    for &n in &[7usize, 264] {
        let p = params_for(n);
        let n = p.n_classes();
        let legacy = RumorModel::new(&p, ConstantControl::new(0.12, 0.05));
        let port = PaperSir::from_params(&p, 5.0, 10.0).unwrap();
        let sys = CompartmentOde::new(&port, ConstantMultiControl::new(vec![0.12, 0.05]));
        assert_eq!(sys.dim(), legacy.dim());
        let mut y0 = vec![0.0; 3 * n];
        for j in 0..n {
            y0[j] = 0.9;
            y0[n + j] = 0.1;
        }
        let a = Adaptive::new().integrate(&legacy, 0.0, &y0, 25.0).unwrap();
        let b = Adaptive::new().integrate(&sys, 0.0, &y0, 25.0).unwrap();
        assert_eq!(a.len(), b.len(), "step counts at n = {n}");
        for (ta, tb) in a.times().iter().zip(b.times()) {
            assert_eq!(ta.to_bits(), tb.to_bits(), "times at n = {n}");
        }
        for (ya, yb) in a.flat_states().iter().zip(b.flat_states()) {
            assert_eq!(ya.to_bits(), yb.to_bits(), "states at n = {n}");
        }
    }
}

#[test]
fn pooled_trajectory_matches_serial_port() {
    let p = params_for(300);
    let n = p.n_classes();
    let port = PaperSir::from_params(&p, 5.0, 10.0).unwrap();
    let ctl = ConstantMultiControl::new(vec![0.1, 0.1]);
    let mut y0 = vec![0.0; 3 * n];
    for j in 0..n {
        y0[j] = 0.85;
        y0[n + j] = 0.15;
    }
    let serial_sys = CompartmentOde::new(&port, &ctl);
    let serial = Adaptive::new()
        .integrate(&serial_sys, 0.0, &y0, 10.0)
        .unwrap();
    for threads in [2usize, 4] {
        let pool = Arc::new(InnerPool::new(threads));
        let sys = CompartmentOde::new(&port, &ctl).with_pool(Some(pool));
        let sol = Adaptive::new().integrate(&sys, 0.0, &y0, 10.0).unwrap();
        assert_eq!(sol.len(), serial.len());
        for (ya, yb) in sol.flat_states().iter().zip(serial.flat_states()) {
            assert_eq!(ya.to_bits(), yb.to_bits(), "threads = {threads}");
        }
    }
}
