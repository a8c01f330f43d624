//! The `ode.rhs_evals` rollup counts exactly the right-hand-side calls
//! the adaptive driver makes. A single test in its own binary, because
//! the rollup tables are process-wide and other tests would add to them.

use rumor_ode::integrator::{Adaptive, AdaptiveConfig};
use rumor_ode::system::FnSystem;
use std::cell::Cell;

fn rhs_evals() -> u64 {
    rumor_obs::snapshot().counter("ode.rhs_evals").unwrap_or(0)
}

#[test]
fn the_rollup_counts_every_call_the_driver_makes() {
    rumor_obs::set_rollup(true);
    let calls = Cell::new(0u64);
    let sys = FnSystem::new(2, |t: f64, y: &[f64], d: &mut [f64]| {
        calls.set(calls.get() + 1);
        d[0] = y[1];
        d[1] = -y[0] + (3.0 * t).sin().signum();
    });
    let mut driver = Adaptive::with_config(AdaptiveConfig {
        rtol: 1e-9,
        atol: 1e-11,
        ..AdaptiveConfig::default()
    });

    // A run with rejections, forward then backward.
    let before = rhs_evals();
    let fwd = driver.run(&sys, 0.0, &[1.0, 0.0], 8.0, None).unwrap();
    assert!(fwd.rejected > 0);
    let bwd = driver
        .run(&sys, 8.0, fwd.solution.last_state(), 0.0, None)
        .unwrap();
    assert_eq!(rhs_evals() - before, calls.get());
    assert_eq!(
        calls.get(),
        (6 * (fwd.accepted + fwd.rejected) + 1 + 6 * (bwd.accepted + bwd.rejected) + 1) as u64
    );

    // A failed run counts the calls it made before failing.
    calls.set(0);
    let before = rhs_evals();
    let starved = Adaptive::with_config(AdaptiveConfig {
        max_steps: 5,
        ..AdaptiveConfig::default()
    })
    .run(&sys, 0.0, &[1.0, 0.0], 8.0, None);
    assert!(starved.is_err());
    assert_eq!(calls.get(), 6 * 5 + 1);
    assert_eq!(rhs_evals() - before, calls.get());
    rumor_obs::set_rollup(false);
}
