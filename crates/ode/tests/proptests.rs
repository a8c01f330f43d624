//! Property-based tests of the ODE integrators against closed-form
//! solutions.

use proptest::prelude::*;
use rumor_ode::integrator::{Adaptive, AdaptiveConfig, FixedStep};
use rumor_ode::steppers::{Heun, ImplicitEuler, Rk4};
use rumor_ode::system::FnSystem;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn rk4_matches_exponential_decay(rate in 0.05..3.0_f64, y0 in 0.1..10.0_f64) {
        let sys = FnSystem::new(1, move |_t, y: &[f64], d: &mut [f64]| d[0] = -rate * y[0]);
        let sol = FixedStep::new(Rk4::new(), 0.01)
            .integrate(&sys, 0.0, &[y0], 2.0)
            .expect("integrate");
        let exact = y0 * (-rate * 2.0).exp();
        prop_assert!((sol.last_state()[0] - exact).abs() < 1e-6 * y0);
    }

    #[test]
    fn adaptive_matches_exponential_growth(rate in 0.05..1.5_f64, y0 in 0.1..5.0_f64) {
        let sys = FnSystem::new(1, move |_t, y: &[f64], d: &mut [f64]| d[0] = rate * y[0]);
        let sol = Adaptive::new().integrate(&sys, 0.0, &[y0], 2.0).expect("integrate");
        let exact = y0 * (rate * 2.0).exp();
        prop_assert!((sol.last_state()[0] - exact).abs() / exact < 1e-7);
    }

    #[test]
    fn forward_then_backward_is_identity(rate in 0.05..2.0_f64, y0 in 0.5..5.0_f64) {
        let sys = FnSystem::new(1, move |t: f64, y: &[f64], d: &mut [f64]| {
            d[0] = -rate * y[0] + t.sin()
        });
        let mut drv = Adaptive::new();
        let fwd = drv.integrate(&sys, 0.0, &[y0], 3.0).expect("fwd");
        let bwd = drv
            .integrate(&sys, 3.0, fwd.last_state(), 0.0)
            .expect("bwd");
        prop_assert!((bwd.last_state()[0] - y0).abs() < 1e-6 * y0.max(1.0));
    }

    #[test]
    fn oscillator_preserves_energy(omega in 0.3..3.0_f64, amp in 0.1..3.0_f64) {
        let sys = FnSystem::new(2, move |_t, y: &[f64], d: &mut [f64]| {
            d[0] = y[1];
            d[1] = -omega * omega * y[0];
        });
        let sol = Adaptive::with_config(AdaptiveConfig {
            rtol: 1e-10,
            atol: 1e-12,
            ..Default::default()
        })
        .integrate(&sys, 0.0, &[amp, 0.0], 10.0)
        .expect("integrate");
        let y = sol.last_state();
        // Energy E = ω²x² + v².
        let e0 = omega * omega * amp * amp;
        let ef = omega * omega * y[0] * y[0] + y[1] * y[1];
        prop_assert!((ef - e0).abs() / e0 < 1e-6, "energy drift {}", (ef - e0) / e0);
    }

    #[test]
    fn solution_sampling_is_between_node_values(rate in 0.1..2.0_f64, q in 0.0..1.0_f64) {
        // Monotone decay: any sample lies between the neighbouring values.
        let sys = FnSystem::new(1, move |_t, y: &[f64], d: &mut [f64]| d[0] = -rate * y[0]);
        let sol = FixedStep::new(Heun::new(), 0.05)
            .integrate(&sys, 0.0, &[1.0], 2.0)
            .expect("integrate");
        let v = sol.sample(q * 2.0).expect("sample")[0];
        prop_assert!(v <= 1.0 + 1e-12 && v >= sol.last_state()[0] - 1e-12);
    }

    #[test]
    fn implicit_euler_unconditionally_stable(rate in 10.0..2000.0_f64) {
        // Stiff decay with a large step must contract, never blow up.
        let sys = FnSystem::new(1, move |_t, y: &[f64], d: &mut [f64]| d[0] = -rate * y[0]);
        let mut s = ImplicitEuler::new();
        let mut y = vec![1.0];
        let mut out = vec![0.0];
        for k in 0..20 {
            s.try_step(&sys, k as f64 * 0.1, &y, 0.1, &mut out).expect("step");
            prop_assert!(out[0].abs() <= y[0].abs() + 1e-9, "must contract");
            y.copy_from_slice(&out);
        }
        // Absolute Newton tolerance can leave a ~1e-10-scale signed
        // residue once the true solution underflows toward zero.
        prop_assert!(y[0] > -1e-9);
    }

    #[test]
    fn nonautonomous_quadrature_reduction(a in -2.0..2.0_f64, b in -2.0..2.0_f64) {
        // y' = a + b t has closed form y = y0 + a t + b t²/2.
        let sys = FnSystem::new(1, move |t: f64, _y: &[f64], d: &mut [f64]| d[0] = a + b * t);
        let sol = Adaptive::new().integrate(&sys, 0.0, &[0.0], 4.0).expect("integrate");
        let exact = a * 4.0 + b * 8.0;
        prop_assert!((sol.last_state()[0] - exact).abs() < 1e-8);
    }

    #[test]
    fn grid_sampling_covers_requested_times(n_grid in 2usize..30) {
        let sys = FnSystem::new(1, |_t, y: &[f64], d: &mut [f64]| d[0] = -y[0]);
        let grid: Vec<f64> = (0..n_grid).map(|i| 2.0 * i as f64 / (n_grid - 1) as f64).collect();
        let sol = FixedStep::new(Rk4::new(), 0.01)
            .integrate(&sys, 0.0, &[1.0], 2.0)
            .expect("integrate");
        for &t in &grid {
            let s = sol.sample(t).expect("sample");
            // Linear resampling between 0.01-spaced records contributes
            // ~h^2/8 interpolation error on top of the solver error.
            prop_assert!((s[0] - (-t).exp()).abs() < 5e-5);
        }
    }
}
