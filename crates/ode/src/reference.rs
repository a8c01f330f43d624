//! Test oracle: the adaptive Dormand–Prince driver as it stood before the
//! stepper reused its first stage and formed its sums in lane blocks —
//! seven right-hand-side calls per step, every sum element by element,
//! the error estimate stored and then folded into the norm. The tests
//! below hold [`Adaptive`] and the stepper's own step to it bit for bit,
//! at state dimensions that cover every lane-block remainder.

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
    use crate::steppers::Dopri5;
    use crate::system::FnSystem;
    use std::cell::Cell;

    /// State dimensions below, at and past the 8-component lane block,
    /// with remainders 1, 7, 0, 1 and 1, and the 864 components of a
    /// 288-class S/I/R state (a 10,000-node net).
    const DIMS: [usize; 6] = [1, 7, 8, 9, 17, 864];

    /// Bitwise equality of two solutions: times and every state entry.
    fn same_bits(a: &Solution, b: &Solution) -> bool {
        a.len() == b.len()
            && a.iter().zip(b.iter()).all(|((ta, ya), (tb, yb))| {
                ta.to_bits() == tb.to_bits()
                    && ya.len() == yb.len()
                    && ya.iter().zip(yb).all(|(p, q)| p.to_bits() == q.to_bits())
            })
    }

    /// Counts the right-hand-side calls made on `inner`.
    struct Counted<'a> {
        inner: &'a dyn OdeSystem,
        calls: Cell<usize>,
    }

    impl<'a> Counted<'a> {
        fn new(inner: &'a dyn OdeSystem) -> Self {
            Counted {
                inner,
                calls: Cell::new(0),
            }
        }
    }

    impl OdeSystem for Counted<'_> {
        fn dim(&self) -> usize {
            self.inner.dim()
        }

        fn rhs(&self, t: f64, y: &[f64], dydt: &mut [f64]) {
            self.calls.set(self.calls.get() + 1);
            self.inner.rhs(t, y, dydt);
        }
    }

    /// Every accepted step's time and full state, as bits.
    type Steps = Vec<(u64, Vec<u64>)>;

    fn record(steps: &mut Steps) -> impl FnMut(f64, &[f64]) -> bool + '_ {
        move |t, y| {
            steps.push((t.to_bits(), y.iter().map(|v| v.to_bits()).collect()));
            false
        }
    }

    /// Runs both drivers, recording every accepted step, and demands the
    /// same outcome: the same steps and solution bits, stop reason and
    /// step counts on success, the same error after the same steps on
    /// failure. The driver must make six right-hand-side calls per step
    /// plus one, where the oracle makes seven per step. Returns the
    /// driver's result and how many steps it accepted.
    fn assert_matches_reference(
        cfg: AdaptiveConfig,
        sys: &dyn OdeSystem,
        t0: f64,
        y0: &[f64],
        tf: f64,
    ) -> (Result<Run>, usize) {
        let (new_sys, old_sys) = (Counted::new(sys), Counted::new(sys));
        let (mut new_steps, mut old_steps) = (Vec::new(), Vec::new());
        let new =
            Adaptive::with_config(cfg).run(&new_sys, t0, y0, tf, Some(&mut record(&mut new_steps)));
        let old = run(cfg, &old_sys, t0, y0, tf, Some(&mut record(&mut old_steps)));
        assert_eq!(new_steps, old_steps, "accepted steps differ");
        let attempts = match (&new, &old) {
            (Ok(new), Ok(old)) => {
                assert!(same_bits(&new.solution, &old.solution), "solutions differ");
                assert_eq!(new.stop, old.stop);
                assert_eq!(new.accepted, old.accepted);
                assert_eq!(new.rejected, old.rejected);
                new.accepted + new.rejected
            }
            (Err(new), Err(old)) => {
                assert_eq!(new.to_string(), old.to_string());
                old_sys.calls.get() / 7
            }
            _ => panic!("one driver failed and the other did not: {new:?} / {old:?}"),
        };
        assert_eq!(old_sys.calls.get(), 7 * attempts);
        assert_eq!(new_sys.calls.get(), 6 * attempts + 1);
        (new, new_steps.len())
    }

    /// [`assert_matches_reference`] on a run that must succeed.
    fn assert_run_matches(
        cfg: AdaptiveConfig,
        sys: &dyn OdeSystem,
        t0: f64,
        y0: &[f64],
        tf: f64,
    ) -> Run {
        assert_matches_reference(cfg, sys, t0, y0, tf)
            .0
            .expect("adaptive run")
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

    /// An `n`-dimensional spreading system under a time-varying control:
    /// component `i` has weight `1 + i % 13`, and each feels the weighted
    /// mean `Θ` of all of them.
    fn spreading(n: usize) -> FnSystem<impl Fn(f64, &[f64], &mut [f64])> {
        let weights: Vec<f64> = (0..n).map(|i| (1 + i % 13) as f64).collect();
        let total: f64 = weights.iter().sum();
        FnSystem::new(n, move |t: f64, y: &[f64], d: &mut [f64]| {
            let theta = weights.iter().zip(y).map(|(k, y)| k * y).sum::<f64>() / total;
            let eps = 0.1 + 0.05 * (0.3 * t).sin();
            for ((d, &y), &k) in d.iter_mut().zip(y).zip(&weights) {
                *d = 0.3 * k * (1.0 - y) * theta - eps * y;
            }
        })
    }

    fn spreading_y0(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| 0.05 + 0.9 * (0.618 * i as f64).fract())
            .collect()
    }

    /// `n` components in groups of five: one that stays `±0`, one whose
    /// derivative is `−0`, one that is `−0` by sign, one that decays, and
    /// one that reads the sign of the second's zero. A group cut short by
    /// `n` reads `0.5` in place of its missing members.
    fn signed_zeros(n: usize) -> FnSystem<impl Fn(f64, &[f64], &mut [f64])> {
        FnSystem::new(n, move |t: f64, y: &[f64], d: &mut [f64]| {
            for i in 0..n {
                let base = i - i % 5;
                let at = |m: usize| y.get(base + m).copied().unwrap_or(0.5);
                d[i] = match i % 5 {
                    0 => 0.0 * y[i],
                    1 => -0.0 * y[i].abs(),
                    2 => -y[i] * at(3),
                    3 => (-y[i]).min(0.0) * t,
                    _ => at(2) - y[i] + 0.25 * at(1).signum(),
                };
            }
        })
    }

    fn signed_zeros_y0(n: usize) -> Vec<f64> {
        (0..n).map(|i| [0.0, -0.0, 0.0, 1.0, -0.0][i % 5]).collect()
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
        let fwd = assert_run_matches(fbsm_tolerances(), &sys, 0.0, &y0, 40.0);
        assert!(fwd.accepted > 20, "{} steps", fwd.accepted);
        // Backward from the forward end state, as the co-state pass runs.
        let end = fwd.solution.last_state();
        let bwd = assert_run_matches(fbsm_tolerances(), &sys, 40.0, end, 0.0);
        assert!(bwd.accepted > 20, "{} steps", bwd.accepted);
        // Default tolerances and a one-ulp-off horizon as well.
        assert_run_matches(AdaptiveConfig::default(), &sys, 0.0, &y0, 0.029);
        // Every lane-block remainder, there and back.
        for n in DIMS {
            let sys = spreading(n);
            let fwd = assert_run_matches(fbsm_tolerances(), &sys, 0.0, &spreading_y0(n), 20.0);
            assert!(fwd.accepted > 10, "n = {n}: {} steps", fwd.accepted);
            let end = fwd.solution.last_state();
            let bwd = assert_run_matches(fbsm_tolerances(), &sys, 20.0, end, 0.0);
            assert!(bwd.accepted > 10, "n = {n}: {} steps", bwd.accepted);
        }
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
        let run = assert_run_matches(cfg, &sys, 0.0, &[1.0, 0.0], 10.0);
        assert!(run.rejected >= 100, "only {} rejections", run.rejected);
        // The same wave on every lane-block remainder, coupled through
        // the spreading term.
        for n in DIMS {
            let inner = spreading(n);
            let sys = FnSystem::new(n, |t: f64, y: &[f64], d: &mut [f64]| {
                inner.rhs(t, y, d);
                let wave = (5.0 * t).sin().signum();
                for (i, d) in d.iter_mut().enumerate() {
                    *d += 0.1 * (1 + i % 3) as f64 * wave;
                }
            });
            let run = assert_run_matches(cfg, &sys, 0.0, &spreading_y0(n), 3.0);
            assert!(run.rejected >= 20, "n = {n}: {} rejections", run.rejected);
        }
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
        let spread: Vec<_> = DIMS
            .iter()
            .map(|&n| (spreading(n), spreading_y0(n)))
            .collect();
        let mut cases: Vec<(&dyn OdeSystem, &[f64])> = vec![(&decay, &[1.0])];
        cases.extend(spread.iter().map(|(s, y0)| (s as &dyn OdeSystem, &y0[..])));
        for (sys, y0) in cases {
            let faulty = FaultyRhs::new(sys, FaultSchedule::new().nan_at(1.0, 0.02));
            let (result, steps) = assert_matches_reference(cfg, &faulty, 0.0, y0, 2.0);
            let err = result.expect_err("the NaN window must stop the run");
            assert!(matches!(err, OdeError::NonFiniteState { .. }), "{err}");
            assert!(steps > 50, "{steps} steps");
        }
    }

    #[test]
    fn exact_zeros_match_the_reference() {
        // Components that start and stay at +0 or −0, derivatives that
        // are −0 or +0 by sign, and one that reads the sign of a zero:
        // every sum meets signed zeros, and the bits must still agree.
        for n in [5].into_iter().chain(DIMS) {
            let sys = signed_zeros(n);
            let y0 = signed_zeros_y0(n);
            let fwd = assert_run_matches(AdaptiveConfig::default(), &sys, 0.0, &y0, 3.0);
            let last = fwd.solution.last_state();
            assert_eq!(last[0].to_bits(), 0.0f64.to_bits());
            if n > 1 {
                // The −0 component comes out +0: every sum starts at +0.
                assert_eq!(last[1].to_bits(), 0.0f64.to_bits(), "n = {n}");
            }
            assert_run_matches(AdaptiveConfig::default(), &sys, 3.0, &y0, 0.0);
        }
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

    #[test]
    fn step_from_first_stage_matches_the_reference_step_bit_for_bit() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let tol = (fbsm_tolerances().atol, fbsm_tolerances().rtol);
        let mut stepper = Dopri5::new();
        for n in DIMS {
            let spread = spreading(n);
            let zeros = signed_zeros(n);
            let nan_stage = FnSystem::new(n, |t: f64, y: &[f64], d: &mut [f64]| {
                spread.rhs(t, y, d);
                if t > 0.5 {
                    d[n / 2] = f64::NAN;
                }
            });
            // Derivatives `−0` except `+0` at the fifth stage of the
            // `h = 0.7` step, whose weight is negative in both solutions:
            // every term of both sums is then `−0`, and only a sum started
            // at `+0` comes out `+0`.
            let stage_signs = FnSystem::new(n, |t: f64, _: &[f64], d: &mut [f64]| {
                d.fill(if (0.8..0.85).contains(&t) { 0.0 } else { -0.0 });
            });
            let cases: [(&dyn OdeSystem, Vec<f64>); 4] = [
                (&spread, spreading_y0(n)),
                (&zeros, signed_zeros_y0(n)),
                (&nan_stage, spreading_y0(n)),
                (&stage_signs, vec![-0.0; n]),
            ];
            for (sys, y) in &cases {
                for h in [0.3, -0.3, 1e-3, 0.7] {
                    let mut out = vec![0.0; n];
                    stepper.first_stage(*sys, 0.2, y);
                    let norm2 = stepper.step_from_first_stage(*sys, 0.2, y, h, tol, &mut out);
                    let mut k: [Vec<f64>; 7] = std::array::from_fn(|_| vec![0.0; n]);
                    let mut tmp = vec![0.0; n];
                    let (mut want, mut err) = (vec![0.0; n], vec![0.0; n]);
                    step_with_error(&mut k, &mut tmp, *sys, 0.2, y, h, &mut want, &mut err);
                    assert_eq!(bits(&out), bits(&want), "n = {n}, h = {h}");
                    // The oracle driver's norm: folded in index order from
                    // the stored estimate, `None` for a non-finite step.
                    let want_norm2 = want.iter().all(|v| v.is_finite()).then(|| {
                        let mut norm2 = 0.0;
                        for i in 0..n {
                            let e = err[i] / (tol.0 + tol.1 * y[i].abs().max(want[i].abs()));
                            norm2 += e * e;
                        }
                        norm2
                    });
                    assert_eq!(
                        norm2.map(f64::to_bits),
                        want_norm2.map(f64::to_bits),
                        "n = {n}, h = {h}"
                    );
                }
            }
        }
    }
}
