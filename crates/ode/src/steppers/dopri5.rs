//! The Dormand–Prince 5(4) embedded Runge–Kutta pair.
//!
//! This is the stepper behind the adaptive driver
//! [`crate::integrator::Adaptive`]: a 7-stage pair producing a 5th-order
//! solution together with a 4th-order error estimate, with the FSAL
//! (first-same-as-last) property.
//!
//! # Six right-hand-side calls per step
//!
//! A step needs `k1 = f(t, y)` and six more stages. The adaptive driver
//! evaluates `k1` only once per run: after a rejected step, `k1` already
//! holds `f(t, y)` for the unchanged `(t, y)`; after an accepted step,
//! the seventh stage is `f(t + h, y_new)`, because its coefficients
//! `A[6]` are the 5th-order weights `B5` without their zero last entry and
//! `C[6] = 1`. So the driver moves `k7` into `k1`, and every step after
//! the first costs six calls, not seven.
//!
//! The reuse is exact, not approximate. Every sum here is formed per
//! component from `+0.0`, term by term in stage order, and Rust never
//! contracts or reassociates floating-point arithmetic. The 5th-order sum
//! and the seventh stage's input add the same nonzero terms in the same
//! order; the 5th-order sum also adds the two zero-weight terms `0·k2`
//! and `0·k7`. Each of those is `±0` when the stage is finite, and adding
//! `±0` leaves a sum unchanged unless the sum is `−0`, which a sum started
//! at `+0.0` can never be. So whenever the accepted state is finite,
//! `y_new` and the seventh stage's input are the same bits. The stage
//! time `t + 1·h` is the driver's next `t`, and [`OdeSystem::rhs`] is a
//! function of `(t, y)` alone, so the reused `k1` is the one a fresh call
//! would return. (A step whose state is not finite ends the run with an
//! error, so it never hands a stage on.)

use super::{ensure_len, Stepper};
use crate::system::OdeSystem;

// Butcher tableau of DOPRI5 (Dormand & Prince, 1980).
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
/// 5th-order weights (same as the last row of `A` thanks to FSAL).
const B5: [f64; 7] = [
    35.0 / 384.0,
    0.0,
    500.0 / 1113.0,
    125.0 / 192.0,
    -2187.0 / 6784.0,
    11.0 / 84.0,
    0.0,
];
/// 4th-order (embedded) weights.
const B4: [f64; 7] = [
    5179.0 / 57600.0,
    0.0,
    7571.0 / 16695.0,
    393.0 / 640.0,
    -92097.0 / 339200.0,
    187.0 / 2100.0,
    1.0 / 40.0,
];

/// Dormand–Prince 5(4) stepper with an embedded error estimate.
///
/// [`Dopri5::step_with_error`] evaluates all seven stages. Driven by
/// [`crate::integrator::Adaptive`], every step after a run's first takes
/// its first stage from the step before — the same one after a
/// rejection, the last one after an acceptance (first same as last) —
/// and costs six right-hand-side calls, with bit-identical results.
#[derive(Debug, Clone, Default)]
pub struct Dopri5 {
    k: [Vec<f64>; 7],
    tmp: Vec<f64>,
    /// Scratch for the error estimate when driven through the plain
    /// [`Stepper::step`] interface, so that path allocates only once.
    err_scratch: Vec<f64>,
}

impl Dopri5 {
    /// Creates a new DOPRI5 stepper.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances one step and additionally writes the component-wise
    /// difference between the 5th- and 4th-order solutions into `err`,
    /// which adaptive drivers use for step-size control.
    ///
    /// # Panics
    ///
    /// Panics if `y`, `out` or `err` are shorter than `sys.dim()`.
    pub fn step_with_error(
        &mut self,
        sys: &dyn OdeSystem,
        t: f64,
        y: &[f64],
        h: f64,
        out: &mut [f64],
        err: &mut [f64],
    ) {
        self.first_stage(sys, t, y);
        self.step_from_first_stage(sys, t, y, h, out, err);
    }

    /// Sizes the stage and stage-input buffers for an `n`-dimensional
    /// system.
    fn ensure_scratch(&mut self, n: usize) {
        for k in &mut self.k {
            ensure_len(k, n);
        }
        ensure_len(&mut self.tmp, n);
    }

    /// Evaluates the first stage `k1 = f(t, y)`: one right-hand-side
    /// call.
    pub(crate) fn first_stage(&mut self, sys: &dyn OdeSystem, t: f64, y: &[f64]) {
        let n = sys.dim();
        self.ensure_scratch(n);
        sys.rhs(t, y, &mut self.k[0][..n]);
    }

    /// Completes a [`Dopri5::step_with_error`] from the first stage in
    /// hand, with six right-hand-side calls. The caller vouches that
    /// `k1` is `f(t, y)` for this very `(t, y)`: from
    /// [`Dopri5::first_stage`], from a rejected step at the same `(t, y)`,
    /// or from [`Dopri5::reuse_last_stage`].
    pub(crate) fn step_from_first_stage(
        &mut self,
        sys: &dyn OdeSystem,
        t: f64,
        y: &[f64],
        h: f64,
        out: &mut [f64],
        err: &mut [f64],
    ) {
        let n = sys.dim();
        self.ensure_scratch(n);
        let y = &y[..n];
        // Stage inputs `y + h·Σ_j a_sj·k_j`, one slice pass per nonzero
        // coefficient with the sum accumulated in `tmp`: per component the
        // same terms, in the same order, from the same `+0.0` as a scalar
        // loop over `j`.
        for s in 1..7 {
            let (done, rest) = self.k.split_at_mut(s);
            let acc = &mut self.tmp[..n];
            acc.fill(0.0);
            for (&a, kj) in A[s].iter().zip(done.iter()) {
                if a != 0.0 {
                    for (acc_i, &k_i) in acc.iter_mut().zip(&kj[..n]) {
                        *acc_i += a * k_i;
                    }
                }
            }
            for (acc_i, &y_i) in acc.iter_mut().zip(y) {
                *acc_i = y_i + h * *acc_i;
            }
            sys.rhs(t + C[s] * h, acc, &mut rest[0][..n]);
        }
        // Both solutions keep every weight, zeros included: `0·k` is NaN
        // for a non-finite stage, and that must reach `out`. `out` and
        // `err` accumulate the 5th- and 4th-order sums before becoming
        // the step and its error estimate.
        let (out, err) = (&mut out[..n], &mut err[..n]);
        out.fill(0.0);
        err.fill(0.0);
        for ((&b5, &b4), ks) in B5.iter().zip(&B4).zip(&self.k) {
            for ((y5, y4), &k_i) in out.iter_mut().zip(err.iter_mut()).zip(&ks[..n]) {
                *y5 += b5 * k_i;
                *y4 += b4 * k_i;
            }
        }
        for ((o, e), &y_i) in out.iter_mut().zip(err.iter_mut()).zip(y) {
            let (y5, y4) = (*o, *e);
            *o = y_i + h * y5;
            *e = h * (y5 - y4);
        }
    }

    /// After an accepted step to `y_new`, makes the seventh stage
    /// `f(t + h, y_new)` the next step's first stage (first same as last;
    /// see the module docs for why the bits agree).
    pub(crate) fn reuse_last_stage(&mut self, y_new: &[f64]) {
        debug_assert!(
            self.tmp
                .iter()
                .zip(y_new)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "the seventh stage input must be the accepted state, bit for bit"
        );
        self.k.swap(0, 6);
    }
}

impl Stepper for Dopri5 {
    fn step(&mut self, sys: &dyn OdeSystem, t: f64, y: &[f64], h: f64, out: &mut [f64]) {
        let n = sys.dim();
        let mut err = std::mem::take(&mut self.err_scratch);
        ensure_len(&mut err, n);
        self.step_with_error(sys, t, y, h, out, &mut err);
        self.err_scratch = err;
    }

    fn order(&self) -> usize {
        5
    }

    fn name(&self) -> &'static str {
        "dopri5"
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{decay, empirical_order, oscillator};
    use super::*;

    #[test]
    fn tableau_rows_sum_to_c() {
        // Consistency condition: Σ_j a_sj = c_s.
        for s in 0..7 {
            let row_sum: f64 = A[s].iter().sum();
            assert!((row_sum - C[s]).abs() < 1e-14, "row {s}");
        }
    }

    #[test]
    fn last_stage_is_the_fifth_order_solution() {
        // First same as last: the seventh stage is evaluated at `t + h`
        // on the 5th-order combination, minus its zero last weight.
        assert_eq!(C[6], 1.0);
        assert_eq!(B5[6], 0.0);
        for j in 0..6 {
            assert_eq!(A[6][j].to_bits(), B5[j].to_bits(), "weight {j}");
        }
    }

    #[test]
    fn weights_sum_to_one() {
        assert!((B5.iter().sum::<f64>() - 1.0).abs() < 1e-14);
        assert!((B4.iter().sum::<f64>() - 1.0).abs() < 1e-14);
    }

    #[test]
    fn fifth_order_convergence() {
        let p = empirical_order(&mut Dopri5::new(), 0.2);
        assert!(p > 4.5 && p < 5.7, "observed order {p}");
    }

    #[test]
    fn error_estimate_tracks_true_error_scale() {
        let sys = decay();
        let mut s = Dopri5::new();
        let mut out = [0.0];
        let mut err = [0.0];
        s.step_with_error(&sys, 0.0, &[1.0], 0.1, &mut out, &mut err);
        let true_err = (out[0] - (-0.1_f64).exp()).abs();
        // The estimate must be a sane magnitude: neither zero nor wildly off.
        assert!(err[0].abs() > 0.0);
        assert!(err[0].abs() < 1e-4);
        assert!(true_err < 1e-8);
    }

    #[test]
    fn single_step_oscillator_accuracy() {
        let sys = oscillator();
        let mut s = Dopri5::new();
        let mut out = [0.0; 2];
        let mut err = [0.0; 2];
        let h = 0.2;
        s.step_with_error(&sys, 0.0, &[1.0, 0.0], h, &mut out, &mut err);
        assert!((out[0] - h.cos()).abs() < 1e-7);
        assert!((out[1] + h.sin()).abs() < 1e-7);
    }
}
