//! Test oracle: the adaptive Dormand–Prince driver as it stood before the
//! stepper reused its first stage and formed its sums slice by slice —
//! seven right-hand-side calls per step, every sum element by element.
//! The tests below hold [`Adaptive`] to it bit for bit.

use crate::integrator::{AdaptiveConfig, Event, Run, StopReason};
use crate::solution::Solution;
use crate::system::OdeSystem;
use crate::{OdeError, Result};

const C: [f64; 7] = [0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0];
const A: [[f64; 6]; 7] = [
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1.0 / 5.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3.0 / 40.0, 9.0 / 40.0, 0.0, 0.0, 0.0, 0.0],
    [44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0, 0.0, 0.0, 0.0],
    [
        19372.0 / 6561.0,
        -25360.0 / 2187.0,
        64448.0 / 6561.0,
        -212.0 / 729.0,
        0.0,
        0.0,
    ],
    [
        9017.0 / 3168.0,
        -355.0 / 33.0,
        46732.0 / 5247.0,
        49.0 / 176.0,
        -5103.0 / 18656.0,
        0.0,
    ],
    [
        35.0 / 384.0,
        0.0,
        500.0 / 1113.0,
        125.0 / 192.0,
        -2187.0 / 6784.0,
        11.0 / 84.0,
    ],
];
const B5: [f64; 7] = [
    35.0 / 384.0,
    0.0,
    500.0 / 1113.0,
    125.0 / 192.0,
    -2187.0 / 6784.0,
    11.0 / 84.0,
    0.0,
];
const B4: [f64; 7] = [
    5179.0 / 57600.0,
    0.0,
    7571.0 / 16695.0,
    393.0 / 640.0,
    -92097.0 / 339200.0,
    187.0 / 2100.0,
    1.0 / 40.0,
];

/// The former `Dopri5::step_with_error` body: all seven stages, sums
/// formed element-outer.
#[allow(clippy::too_many_arguments)]
fn step_with_error(
    k: &mut [Vec<f64>; 7],
    tmp: &mut [f64],
    sys: &dyn OdeSystem,
    t: f64,
    y: &[f64],
    h: f64,
    out: &mut [f64],
    err: &mut [f64],
) {
    let n = sys.dim();
    sys.rhs(t, y, &mut k[0][..n]);
    for s in 1..7 {
        for i in 0..n {
            let mut acc = 0.0;
            for (j, kj) in k.iter().enumerate().take(s) {
                let a = A[s][j];
                if a != 0.0 {
                    acc += a * kj[i];
                }
            }
            tmp[i] = y[i] + h * acc;
        }
        let (_, tail) = k.split_at_mut(s);
        sys.rhs(t + C[s] * h, &tmp[..n], &mut tail[0][..n]);
    }
    for i in 0..n {
        let mut y5 = 0.0;
        let mut y4 = 0.0;
        for (s, ks) in k.iter().enumerate() {
            y5 += B5[s] * ks[i];
            y4 += B4[s] * ks[i];
        }
        out[i] = y[i] + h * y5;
        err[i] = h * (y5 - y4);
    }
}

/// The former `Adaptive::run` loop, with a fresh stepper per run.
pub(crate) fn run(
    cfg: AdaptiveConfig,
    sys: &dyn OdeSystem,
    t0: f64,
    y0: &[f64],
    tf: f64,
    mut event: Option<&mut Event<'_>>,
) -> Result<Run> {
    cfg.validate()?;
    let span = tf - t0;
    let mut solution = Solution::new();
    let mut y = y0.to_vec();
    solution.push(t0, &y);
    if span == 0.0 {
        return Ok(Run {
            solution,
            stop: StopReason::Completed,
            accepted: 0,
            rejected: 0,
        });
    }
    let dir = span.signum();
    let mut h = dir
        * cfg
            .h0
            .unwrap_or_else(|| (span.abs() / 100.0).min(cfg.h_max).max(cfg.h_min * 10.0))
            .abs();
    let n = y.len();
    let mut k: [Vec<f64>; 7] = std::array::from_fn(|_| vec![0.0; n]);
    let mut tmp = vec![0.0; n];
    let mut out = vec![0.0; n];
    let mut err = vec![0.0; n];
    let mut t = t0;
    let mut accepted = 0usize;
    let mut rejected = 0usize;
    let mut err_prev: f64 = 1.0;

    for _ in 0..cfg.max_steps {
        if (tf - t) * dir <= 0.0 {
            break;
        }
        if ((t + h) - tf) * dir > 0.0 {
            h = tf - t;
        }
        step_with_error(&mut k, &mut tmp, sys, t, &y, h, &mut out, &mut err);
        if out.iter().any(|v| !v.is_finite()) {
            return Err(OdeError::NonFiniteState { t: t + h });
        }
        let mut norm2 = 0.0;
        for i in 0..n {
            let scale = cfg.atol + cfg.rtol * y[i].abs().max(out[i].abs());
            let e = err[i] / scale;
            norm2 += e * e;
        }
        let err_norm = (norm2 / n as f64).sqrt().max(1e-16);

        if err_norm <= 1.0 {
            t += h;
            y.copy_from_slice(&out);
            solution.push(t, &y);
            accepted += 1;
            if let Some(ev) = event.as_deref_mut() {
                if ev(t, &y) {
                    return Ok(Run {
                        solution,
                        stop: StopReason::EventTriggered,
                        accepted,
                        rejected,
                    });
                }
            }
            let fac = 0.9 * err_norm.powf(-0.7 / 5.0) * err_prev.powf(0.4 / 5.0);
            let fac = fac.clamp(0.2, 5.0);
            h = (h * fac).clamp(-cfg.h_max, cfg.h_max);
            if h.abs() < cfg.h_min {
                h = cfg.h_min * dir;
            }
            err_prev = err_norm;
        } else {
            rejected += 1;
            let fac = (0.9 * err_norm.powf(-1.0 / 5.0)).clamp(0.1, 0.9);
            h *= fac;
            if h.abs() < cfg.h_min {
                return Err(OdeError::StepSizeUnderflow { t, h });
            }
        }
    }
    if (tf - t) * dir > 1e-12 * span.abs().max(1.0) {
        return Err(OdeError::TooManySteps {
            max_steps: cfg.max_steps,
            t,
        });
    }
    Ok(Run {
        solution,
        stop: StopReason::Completed,
        accepted,
        rejected,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultSchedule, FaultyRhs};
    use crate::integrator::Adaptive;
    use crate::system::FnSystem;
    use std::cell::Cell;

    /// Bitwise equality of two solutions: times and every state entry.
    fn same_bits(a: &Solution, b: &Solution) -> bool {
        a.len() == b.len()
            && a.iter().zip(b.iter()).all(|((ta, ya), (tb, yb))| {
                ta.to_bits() == tb.to_bits()
                    && ya.len() == yb.len()
                    && ya.iter().zip(yb).all(|(p, q)| p.to_bits() == q.to_bits())
            })
    }

    /// An event callback that records every accepted step's bits.
    fn record(steps: &mut Vec<(u64, u64)>) -> impl FnMut(f64, &[f64]) -> bool + '_ {
        move |t, y| {
            steps.push((t.to_bits(), y[0].to_bits()));
            false
        }
    }

    /// Runs both drivers and demands the same bits, stop reason and step
    /// counts; returns the run for further checks.
    fn assert_matches_reference(
        cfg: AdaptiveConfig,
        sys: &dyn OdeSystem,
        t0: f64,
        y0: &[f64],
        tf: f64,
    ) -> Run {
        let new = Adaptive::with_config(cfg)
            .run(sys, t0, y0, tf, None)
            .expect("adaptive run");
        let old = run(cfg, sys, t0, y0, tf, None).expect("reference run");
        assert!(same_bits(&new.solution, &old.solution), "solutions differ");
        assert_eq!(new.stop, old.stop);
        assert_eq!(new.accepted, old.accepted);
        assert_eq!(new.rejected, old.rejected);
        new
    }

    /// A 6-class S/I/R rumor system under a time-varying control: class
    /// `j` has degree `j + 1`, the infection force couples every class
    /// through `Θ`, and the two countermeasures ramp with `t`.
    fn rumor_system() -> FnSystem<impl Fn(f64, &[f64], &mut [f64])> {
        const N: usize = 6;
        FnSystem::new(3 * N, |t: f64, y: &[f64], d: &mut [f64]| {
            let (e1, e2) = (0.05 + 0.02 * (0.3 * t).sin(), 0.1 + 0.004 * t);
            let mean_k = (1..=N).sum::<usize>() as f64 / N as f64;
            let theta: f64 =
                (0..N).map(|j| (j + 1) as f64 * y[N + j]).sum::<f64>() / (N as f64 * mean_k);
            for j in 0..N {
                let (s, i) = (y[j], y[N + j]);
                let force = 0.4 * (j + 1) as f64 * s * theta;
                d[j] = 0.002 - force - e1 * s;
                d[N + j] = force - e2 * i;
                d[2 * N + j] = e1 * s + e2 * i - 0.002;
            }
        })
    }

    fn rumor_y0() -> Vec<f64> {
        let mut y = vec![0.0; 18];
        for j in 0..6 {
            y[j] = 0.9 - 0.01 * j as f64;
            y[6 + j] = 0.1;
            y[12 + j] = 0.01 * j as f64;
        }
        y
    }

    fn fbsm_tolerances() -> AdaptiveConfig {
        AdaptiveConfig {
            rtol: 1e-7,
            atol: 1e-9,
            ..AdaptiveConfig::default()
        }
    }

    #[test]
    fn forward_and_backward_runs_match_the_reference() {
        let sys = rumor_system();
        let y0 = rumor_y0();
        let fwd = assert_matches_reference(fbsm_tolerances(), &sys, 0.0, &y0, 40.0);
        assert!(fwd.accepted > 20, "{} steps", fwd.accepted);
        // Backward from the forward end state, as the co-state pass runs.
        let bwd = assert_matches_reference(
            fbsm_tolerances(),
            &sys,
            40.0,
            fwd.solution.last_state(),
            0.0,
        );
        assert!(bwd.accepted > 20, "{} steps", bwd.accepted);
        // Default tolerances and a one-ulp-off horizon as well.
        assert_matches_reference(AdaptiveConfig::default(), &sys, 0.0, &y0, 0.029);
    }

    #[test]
    fn a_run_with_many_rejections_matches_the_reference() {
        // A square-wave forcing under tight tolerances: every jump of the
        // right-hand side makes the controller overshoot and reject
        // until its step shrinks onto the discontinuity.
        let sys = FnSystem::new(2, |t: f64, y: &[f64], d: &mut [f64]| {
            d[0] = -y[0] + 10.0 * (5.0 * t).sin().signum();
            d[1] = y[0] - 0.1 * y[1];
        });
        let cfg = AdaptiveConfig {
            rtol: 1e-9,
            atol: 1e-11,
            ..AdaptiveConfig::default()
        };
        let run = assert_matches_reference(cfg, &sys, 0.0, &[1.0, 0.0], 10.0);
        assert!(run.rejected >= 100, "only {} rejections", run.rejected);
    }

    #[test]
    fn a_nan_window_fails_like_the_reference() {
        // The same NaN window stops both drivers with the same error,
        // after recording the same accepted steps.
        let cfg = AdaptiveConfig {
            h_max: 0.01,
            ..AdaptiveConfig::default()
        };
        let decay = FnSystem::new(1, |_t, y: &[f64], d: &mut [f64]| d[0] = -y[0]);
        let faulty = FaultyRhs::new(&decay, FaultSchedule::new().nan_at(1.0, 0.02));
        let (mut new_steps, mut old_steps) = (Vec::new(), Vec::new());
        let new = Adaptive::with_config(cfg).run(
            &faulty,
            0.0,
            &[1.0],
            2.0,
            Some(&mut record(&mut new_steps)),
        );
        let old = run(
            cfg,
            &faulty,
            0.0,
            &[1.0],
            2.0,
            Some(&mut record(&mut old_steps)),
        );
        let (Err(new), Err(old)) = (new, old) else {
            panic!("both runs must fail in the NaN window");
        };
        assert_eq!(new.to_string(), old.to_string());
        assert!(matches!(new, OdeError::NonFiniteState { .. }));
        assert!(new_steps.len() > 50, "{} steps", new_steps.len());
        assert_eq!(new_steps, old_steps);
    }

    #[test]
    fn exact_zeros_match_the_reference() {
        // Components that start and stay at +0 or −0, derivatives that
        // are −0 or +0 by sign, and one that reads the sign of a zero:
        // every sum meets signed zeros, and the bits must still agree.
        let sys = FnSystem::new(5, |t: f64, y: &[f64], d: &mut [f64]| {
            d[0] = 0.0 * y[0];
            d[1] = -0.0 * y[1].abs();
            d[2] = -y[2] * y[3];
            d[3] = (-y[3]).min(0.0) * t;
            d[4] = y[2] - y[4] + 0.25 * y[1].signum();
        });
        let y0 = [0.0, -0.0, 0.0, 1.0, -0.0];
        let fwd = assert_matches_reference(AdaptiveConfig::default(), &sys, 0.0, &y0, 3.0);
        assert_eq!(fwd.solution.last_state()[0].to_bits(), 0.0f64.to_bits());
        assert_matches_reference(AdaptiveConfig::default(), &sys, 3.0, &y0, 0.0);
    }

    #[test]
    fn a_smooth_run_costs_six_calls_per_step_plus_one() {
        let calls = Cell::new(0usize);
        let sys = FnSystem::new(18, |t: f64, y: &[f64], d: &mut [f64]| {
            calls.set(calls.get() + 1);
            rumor_system().rhs(t, y, d);
        });
        let run = Adaptive::with_config(fbsm_tolerances())
            .run(&sys, 0.0, &rumor_y0(), 40.0, None)
            .expect("smooth run");
        assert!(run.rejected > 0, "the count must cover a rejection too");
        assert_eq!(calls.get(), 6 * (run.accepted + run.rejected) + 1);
    }
}
