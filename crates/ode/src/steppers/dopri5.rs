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
//!
//! # One pass per stage, one for the solution
//!
//! Each stage input is formed in one pass over blocks of eight
//! components: the coefficients run in the middle loop and the eight
//! lanes innermost, so a component's sum still starts at `+0.0` and adds
//! its nonzero terms in stage order. One more pass forms the 5th- and
//! 4th-order sums with every weight, writes the step, checks that it is
//! finite and folds each component's
//! `(err_i / (atol + rtol·max(|y_i|, |out_i|)))²` into the squared error
//! norm in index order, one component after the other. The error
//! estimate is never stored, and the driver no longer walks the step
//! again; an accepted step swaps its buffer with the state instead of
//! copying it. [`Dopri5::step_with_error`] runs the same stage code and
//! writes the estimate out. The `#[cfg(test)]` oracle in
//! `crate::reference` holds both to the element-by-element sums bit for
//! bit, at state dimensions that leave every lane remainder.

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

/// Components per lane block of the stage and solution passes.
///
/// The lane loops are `while` loops over indices: an unoptimized (test)
/// build then makes no call per component, where a range or zip iterator
/// makes several, and an optimized build unrolls and vectorizes them
/// just the same.
const LANES: usize = 8;

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
        self.later_stages(sys, t, y, h);
        let n = sys.dim();
        let k = self.stages(n);
        let (y, out, err) = (&y[..n], &mut out[..n], &mut err[..n]);
        let full = n - n % LANES;
        for i in (0..full).step_by(LANES) {
            solution_block::<LANES>(&k, y, h, i, out, err);
        }
        for i in full..n {
            solution_block::<1>(&k, y, h, i, out, err);
        }
    }

    /// Sizes the stage and stage-input buffers for an `n`-dimensional
    /// system.
    fn ensure_scratch(&mut self, n: usize) {
        for k in &mut self.k {
            ensure_len(k, n);
        }
        ensure_len(&mut self.tmp, n);
    }

    /// The seven stages of an `n`-dimensional system.
    fn stages(&self, n: usize) -> [&[f64]; 7] {
        std::array::from_fn(|s| &self.k[s][..n])
    }

    /// Evaluates the first stage `k1 = f(t, y)`: one right-hand-side
    /// call.
    pub(crate) fn first_stage(&mut self, sys: &dyn OdeSystem, t: f64, y: &[f64]) {
        let n = sys.dim();
        self.ensure_scratch(n);
        sys.rhs(t, y, &mut self.k[0][..n]);
    }

    /// Completes a step from the first stage in hand, with six
    /// right-hand-side calls: writes the 5th-order solution into `out`
    /// and returns the squared error norm
    /// `Σ_i (err_i / (atol + rtol·max(|y_i|, |out_i|)))²`, added in index
    /// order, or `None` when `out` is not finite. The error estimate
    /// `err_i` is the one [`Dopri5::step_with_error`] writes; it is never
    /// stored. The caller vouches that `k1` is `f(t, y)` for this very
    /// `(t, y)`: from [`Dopri5::first_stage`], from a rejected step at
    /// the same `(t, y)`, or from [`Dopri5::reuse_last_stage`].
    pub(crate) fn step_from_first_stage(
        &mut self,
        sys: &dyn OdeSystem,
        t: f64,
        y: &[f64],
        h: f64,
        tol: (f64, f64),
        out: &mut [f64],
    ) -> Option<f64> {
        self.later_stages(sys, t, y, h);
        let n = sys.dim();
        let k = self.stages(n);
        let (y, out) = (&y[..n], &mut out[..n]);
        let (mut norm2, mut finite) = (0.0, true);
        let full = n - n % LANES;
        for i in (0..full).step_by(LANES) {
            norm_block::<LANES>(&k, y, h, tol, i, out, &mut norm2, &mut finite);
        }
        for i in full..n {
            norm_block::<1>(&k, y, h, tol, i, out, &mut norm2, &mut finite);
        }
        finite.then_some(norm2)
    }

    /// Evaluates stages two to seven. Each stage input
    /// `y + h·Σ_j a_sj·k_j` is formed in one pass over lane blocks, with
    /// the stage's nonzero coefficients in the middle loop and the lanes
    /// innermost: per component the same terms, in the same order, from
    /// the same `+0.0` as a scalar loop over `j` that skips zero
    /// coefficients.
    fn later_stages(&mut self, sys: &dyn OdeSystem, t: f64, y: &[f64], h: f64) {
        let n = sys.dim();
        self.ensure_scratch(n);
        let y = &y[..n];
        for s in 1..7 {
            let (done, rest) = self.k.split_at_mut(s);
            let mut terms = [(0.0, &[][..]); 6];
            let mut count = 0;
            for (&a, k) in A[s].iter().zip(done.iter()) {
                if a != 0.0 {
                    terms[count] = (a, &k[..n]);
                    count += 1;
                }
            }
            let (terms, tmp) = (&terms[..count], &mut self.tmp[..n]);
            let full = n - n % LANES;
            for i in (0..full).step_by(LANES) {
                stage_input_block::<LANES>(terms, y, h, i, tmp);
            }
            for i in full..n {
                stage_input_block::<1>(terms, y, h, i, tmp);
            }
            sys.rhs(t + C[s] * h, tmp, &mut rest[0][..n]);
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

/// Stage input `y + h·Σ a·k` over the `(a, k)` terms, on components
/// `i..i + M`: per component from `+0.0`, in term order.
#[inline(always)]
fn stage_input_block<const M: usize>(
    terms: &[(f64, &[f64])],
    y: &[f64],
    h: f64,
    i: usize,
    tmp: &mut [f64],
) {
    let mut acc = [0.0; M];
    for &(a, k) in terms {
        let k = &k[i..i + M];
        let mut l = 0;
        while l < M {
            acc[l] += a * k[l];
            l += 1;
        }
    }
    let (y, tmp) = (&y[i..i + M], &mut tmp[i..i + M]);
    let mut l = 0;
    while l < M {
        tmp[l] = y[l] + h * acc[l];
        l += 1;
    }
}

/// The 5th- and 4th-order weighted stage sums of components
/// `i..i + M`, each from `+0.0` in stage order. Both keep every weight,
/// zeros included: `0·k` is NaN for a non-finite stage, and that must
/// reach the solution.
#[inline(always)]
fn solution_sums<const M: usize>(k: &[&[f64]; 7], i: usize) -> ([f64; M], [f64; M]) {
    let (mut y5, mut y4) = ([0.0; M], [0.0; M]);
    for s in 0..7 {
        let (b5, b4, k) = (B5[s], B4[s], &k[s][i..i + M]);
        let mut l = 0;
        while l < M {
            y5[l] += b5 * k[l];
            y4[l] += b4 * k[l];
            l += 1;
        }
    }
    (y5, y4)
}

/// [`Dopri5::step_with_error`]'s solution and error estimate on
/// components `i..i + M`.
#[inline(always)]
fn solution_block<const M: usize>(
    k: &[&[f64]; 7],
    y: &[f64],
    h: f64,
    i: usize,
    out: &mut [f64],
    err: &mut [f64],
) {
    let (y5, y4) = solution_sums::<M>(k, i);
    let (y, out, err) = (&y[i..i + M], &mut out[i..i + M], &mut err[i..i + M]);
    let mut l = 0;
    while l < M {
        out[l] = y[l] + h * y5[l];
        err[l] = h * (y5[l] - y4[l]);
        l += 1;
    }
}

/// [`Dopri5::step_from_first_stage`]'s solution on components
/// `i..i + M`; folds their finiteness into `finite` and their scaled
/// squared errors into `norm2`, one component after the other.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn norm_block<const M: usize>(
    k: &[&[f64]; 7],
    y: &[f64],
    h: f64,
    (atol, rtol): (f64, f64),
    i: usize,
    out: &mut [f64],
    norm2: &mut f64,
    finite: &mut bool,
) {
    let (y5, y4) = solution_sums::<M>(k, i);
    let (y, out) = (&y[i..i + M], &mut out[i..i + M]);
    let (mut e2, mut all_finite) = ([0.0; M], true);
    let mut l = 0;
    while l < M {
        let o = y[l] + h * y5[l];
        out[l] = o;
        all_finite &= o.is_finite();
        let e = h * (y5[l] - y4[l]) / (atol + rtol * y[l].abs().max(o.abs()));
        e2[l] = e * e;
        l += 1;
    }
    *finite &= all_finite;
    let mut l = 0;
    while l < M {
        *norm2 += e2[l];
        l += 1;
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
