//! Scalar mirrors of the chunked kernels in `rumor_core::kernels`, the
//! oracles their bit-identity tests compare against.
//!
//! Each mirror is a differently-written plain indexed loop with the
//! *same association order* as its kernel — per-lane strided sums
//! combined lane 0 → lane `LANES − 1`, then the remainder in order; the
//! partitioned mirrors fold per-`PART_CHUNK` partials in chunk order — so
//! the two must agree bit for bit on every input.
//!
//! Test code only: the kernels' unit tests and `tests/kernel_identity.rs`
//! both include this file by path, and each brings `LANES`, `PART_CHUNK`
//! and `partition_count` into its parent module's scope.

#![allow(dead_code, clippy::too_many_arguments)]

use super::{partition_count, LANES, PART_CHUNK};

/// Mirror of `dot`: per-lane strided sequential sums, combined in the
/// same fixed order.
pub fn dot_scalar(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let blocks = n / LANES;
    let mut total = 0.0;
    for j in 0..LANES {
        let mut lane = 0.0;
        let mut i = j;
        while i < blocks * LANES {
            lane += a[i] * b[i];
            i += LANES;
        }
        total += lane;
    }
    for i in blocks * LANES..n {
        total += a[i] * b[i];
    }
    total
}

/// Mirror of `coupling_sum`, strided per lane.
pub fn coupling_sum_scalar(a: &[f64], b: &[f64], w: &[f64], s: &[f64]) -> f64 {
    let n = a.len();
    let blocks = n / LANES;
    let mut total = 0.0;
    for j in 0..LANES {
        let mut lane = 0.0;
        let mut i = j;
        while i < blocks * LANES {
            lane += (a[i] - b[i]) * w[i] * s[i];
            i += LANES;
        }
        total += lane;
    }
    for i in blocks * LANES..n {
        total += (a[i] - b[i]) * w[i] * s[i];
    }
    total
}

/// Mirror of `sir_rhs`: the historical plain indexed loop.
pub fn sir_rhs_scalar(
    s: &[f64],
    inf: &[f64],
    lambda: &[f64],
    theta: f64,
    alpha: f64,
    eps1: f64,
    eps2: f64,
    recycle: f64,
    ds: &mut [f64],
    di: &mut [f64],
    dr: &mut [f64],
) {
    for i in 0..s.len() {
        let force = lambda[i] * s[i] * theta;
        ds[i] = alpha - force - eps1 * s[i];
        di[i] = force - eps2 * inf[i];
        dr[i] = eps1 * s[i] + eps2 * inf[i] - recycle;
    }
}

/// Mirror of `costate_rhs`: the plain indexed loop.
pub fn costate_rhs_scalar(
    s: &[f64],
    inf: &[f64],
    psi: &[f64],
    phi: &[f64],
    lambda: &[f64],
    theta_w: &[f64],
    theta: f64,
    coupling: f64,
    c1e1sq2: f64,
    c2e2sq2: f64,
    eps1: f64,
    eps2: f64,
    dpsi: &mut [f64],
    dphi: &mut [f64],
) {
    for i in 0..s.len() {
        dpsi[i] =
            -c1e1sq2 * s[i] + psi[i] * (lambda[i] * theta + eps1) - phi[i] * lambda[i] * theta;
        dphi[i] = -c2e2sq2 * inf[i] + theta_w[i] * coupling + phi[i] * eps2;
    }
}

/// The fixed partition plan of `n` classes: `chunk_val(lo, hi)` per
/// `PART_CHUNK`-wide chunk, folded in chunk order from the first
/// partial (`0.0` when there is none).
fn partitioned(n: usize, chunk_val: impl Fn(usize, usize) -> f64) -> f64 {
    let mut total = 0.0;
    for c in 0..partition_count(n) {
        let (lo, hi) = (c * PART_CHUNK, ((c + 1) * PART_CHUNK).min(n));
        let partial = chunk_val(lo, hi);
        total = if c == 0 { partial } else { total + partial };
    }
    total
}

/// Mirror of `dot_partitioned`: the same chunk plan over
/// [`dot_scalar`] partials.
pub fn dot_partitioned_scalar(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    partitioned(n, |lo, hi| dot_scalar(&a[lo..hi], &b[lo..hi]))
}

/// Mirror of `coupling_sum_partitioned`.
pub fn coupling_sum_partitioned_scalar(a: &[f64], b: &[f64], w: &[f64], s: &[f64]) -> f64 {
    let n = a.len();
    partitioned(n, |lo, hi| {
        coupling_sum_scalar(&a[lo..hi], &b[lo..hi], &w[lo..hi], &s[lo..hi])
    })
}
