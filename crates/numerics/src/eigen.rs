//! Eigenvalues of general real matrices.
//!
//! The implementation follows the classical dense route: reduce the matrix
//! to upper Hessenberg form with Householder similarity transformations,
//! then run the Francis implicit double-shift QR iteration with deflation.
//! Complex conjugate pairs are returned as [`Complex`] values.
//!
//! The rumor model's stability analysis (Theorem 2 of the paper) needs the
//! sign of the spectral abscissa of the Jacobian at an equilibrium; see
//! [`spectral_abscissa`].

use crate::matrix::Matrix;
use crate::{NumericsError, Result};

/// A complex number with `f64` components.
///
/// Only the tiny surface needed for eigenvalue reporting is provided; this
/// is not a general complex-arithmetic type.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Creates a complex number from real and imaginary parts.
    pub fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Creates a purely real complex number.
    pub fn real(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }
}

/// Reduces `a` to upper Hessenberg form via Householder similarity
/// transformations (the result is similar to `a`, so it has the same
/// eigenvalues). The reduction runs in place on `a`'s storage.
///
/// Memory is walked row by row. Each left reflector touches only the
/// live columns `k..n` and gathers its column dots one row at a time
/// into a reused scratch vector. Columns left of `k` hold only entries
/// below the subdiagonal there, which nothing reads again and the final
/// cleanup zeroes. Each right reflector forms its row dots four rows at
/// a time. Every surviving entry still sees the same floating-point
/// operations in the same order as the textbook column-by-column loop,
/// so `H` is bit-identical to it.
///
/// # Errors
///
/// Returns [`NumericsError::InvalidArgument`] if `a` is not square.
fn hessenberg(mut a: Matrix) -> Result<Matrix> {
    if !a.is_square() {
        return Err(NumericsError::InvalidArgument(
            "hessenberg reduction requires a square matrix".into(),
        ));
    }
    let n = a.rows();
    if n < 3 {
        return Ok(a);
    }
    let h = a.as_mut_slice();
    let mut v_buf = vec![0.0; n];
    let mut f_buf = vec![0.0; n];
    for k in 0..n - 2 {
        // Householder vector annihilating h[k+2.., k].
        let v = &mut v_buf[..n - k - 1];
        for (vi, i) in v.iter_mut().zip((k + 1)..n) {
            *vi = h[i * n + k];
        }
        let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm == 0.0 {
            continue;
        }
        v[0] -= if v[0] > 0.0 { -norm } else { norm };
        let vnorm2: f64 = v.iter().map(|x| x * x).sum();
        if vnorm2 == 0.0 {
            continue;
        }
        // H := P H P with P = I - 2 v v^T / (v^T v) acting on rows/cols k+1..n.
        // Left application (rows k+1..n, live columns k..n): column
        // dots summed over rows in row order, then factors, then the
        // rank-one update.
        let lower = &mut h[(k + 1) * n..];
        let f = &mut f_buf[..n - k];
        f.fill(0.0);
        for (row, &vi) in lower.chunks_exact(n).zip(v.iter()) {
            for (fj, &hij) in f.iter_mut().zip(&row[k..]) {
                *fj += vi * hij;
            }
        }
        for fj in f.iter_mut() {
            *fj = 2.0 * *fj / vnorm2;
        }
        for (row, &vi) in lower.chunks_exact_mut(n).zip(v.iter()) {
            for (hij, &fj) in row[k..].iter_mut().zip(f.iter()) {
                *hij -= fj * vi;
            }
        }
        // Right application (all rows, columns k+1..n).
        reflect_rows(h, n, v, vnorm2);
    }
    // Clean below the first subdiagonal.
    for (i, row) in h.chunks_exact_mut(n).enumerate().skip(2) {
        row[..i - 1].fill(0.0);
    }
    Ok(a)
}

/// Applies `P = I - 2 v v^T / vnorm2` from the right to the trailing
/// `v.len()` columns of every row of the `n`-column row-major `h`.
///
/// Rows go four at a time so the dot products run as four independent
/// chains over one pass of `v`; each row still sums its own products in
/// column order.
fn reflect_rows(h: &mut [f64], n: usize, v: &[f64], vnorm2: f64) {
    let m = v.len();
    let c0 = n - m;
    let mut quads = h.chunks_exact_mut(4 * n);
    for quad in &mut quads {
        let (r0, rest) = quad.split_at_mut(n);
        let (r1, rest) = rest.split_at_mut(n);
        let (r2, r3) = rest.split_at_mut(n);
        let (r0, r1, r2, r3) = (&mut r0[c0..], &mut r1[c0..], &mut r2[c0..], &mut r3[c0..]);
        let (mut d0, mut d1, mut d2, mut d3) = (0.0, 0.0, 0.0, 0.0);
        for j in 0..m {
            d0 += r0[j] * v[j];
            d1 += r1[j] * v[j];
            d2 += r2[j] * v[j];
            d3 += r3[j] * v[j];
        }
        let (f0, f1, f2, f3) = (
            2.0 * d0 / vnorm2,
            2.0 * d1 / vnorm2,
            2.0 * d2 / vnorm2,
            2.0 * d3 / vnorm2,
        );
        for j in 0..m {
            r0[j] -= f0 * v[j];
            r1[j] -= f1 * v[j];
            r2[j] -= f2 * v[j];
            r3[j] -= f3 * v[j];
        }
    }
    for row in quads.into_remainder().chunks_exact_mut(n) {
        let row = &mut row[c0..];
        let mut dot = 0.0;
        for (hij, vj) in row.iter().zip(v) {
            dot += hij * vj;
        }
        let factor = 2.0 * dot / vnorm2;
        for (hij, vj) in row.iter_mut().zip(v) {
            *hij -= factor * vj;
        }
    }
}

/// Householder reflection data for a 3-vector: `(v, beta)` such that
/// `(I - beta v v^T) x = ±‖x‖ e1`.
fn house3(x: f64, y: f64, z: f64) -> Option<([f64; 3], f64)> {
    let norm = (x * x + y * y + z * z).sqrt();
    if norm == 0.0 {
        return None;
    }
    let alpha = if x > 0.0 { -norm } else { norm };
    let v = [x - alpha, y, z];
    let vnorm2 = v[0] * v[0] + v[1] * v[1] + v[2] * v[2];
    if vnorm2 == 0.0 {
        return None;
    }
    Some((v, 2.0 / vnorm2))
}

/// Computes the eigenvalues of the 2×2 block `[[a, b], [c, d]]`, returning
/// a complex conjugate pair when the discriminant is negative.
fn eig2x2(a: f64, b: f64, c: f64, d: f64) -> (Complex, Complex) {
    let tr = a + d;
    let det = a * d - b * c;
    let disc = tr * tr / 4.0 - det;
    if disc >= 0.0 {
        let sq = disc.sqrt();
        // Stable computation: avoid cancellation by computing the larger
        // root first and deriving the other from the determinant.
        let r1 = tr / 2.0 + if tr >= 0.0 { sq } else { -sq };
        let r2 = if r1 != 0.0 {
            det / r1
        } else {
            tr / 2.0 - sq.copysign(tr)
        };
        (Complex::real(r1), Complex::real(r2))
    } else {
        let im = (-disc).sqrt();
        (Complex::new(tr / 2.0, im), Complex::new(tr / 2.0, -im))
    }
}

/// Computes all eigenvalues of a general real square matrix, consuming
/// it: the Hessenberg reduction reuses its storage.
///
/// Uses Hessenberg reduction followed by the Francis implicit
/// double-shift QR iteration with deflation and exceptional shifts.
///
/// # Errors
///
/// * [`NumericsError::InvalidArgument`] if `a` is not square.
/// * [`NumericsError::NoConvergence`] if the QR iteration stalls (extremely
///   rare for well-scaled matrices).
///
/// # Example
///
/// ```
/// use rumor_numerics::{eigen::eigenvalues, matrix::Matrix};
///
/// # fn main() -> Result<(), rumor_numerics::NumericsError> {
/// let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 3.0]])?;
/// let mut eigs: Vec<f64> = eigenvalues(a)?.iter().map(|c| c.re).collect();
/// eigs.sort_by(f64::total_cmp);
/// assert!((eigs[0] - 2.0).abs() < 1e-12 && (eigs[1] - 3.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn eigenvalues(a: Matrix) -> Result<Vec<Complex>> {
    hessenberg_eigenvalues(hessenberg(a)?)
}

/// The Francis QR phase of [`eigenvalues`] on an upper Hessenberg `h`.
fn hessenberg_eigenvalues(mut h: Matrix) -> Result<Vec<Complex>> {
    let n = h.rows();
    if n == 0 {
        return Ok(Vec::new());
    }
    if n == 1 {
        return Ok(vec![Complex::real(h[(0, 0)])]);
    }
    let hnorm = h.frobenius_norm().max(f64::MIN_POSITIVE);
    // Absolute deflation floor: subdiagonal entries below n·ε·‖H‖ are
    // rounding noise (e.g. from the Hessenberg reduction of a
    // rank-deficient matrix); zeroing them perturbs eigenvalues by at
    // most that amount, which is backward stable. Without this floor the
    // purely relative test stalls on blocks whose diagonal is itself
    // ~ε‖H‖ (zero eigenvalues of high multiplicity).
    let abs_floor = f64::EPSILON * hnorm * n as f64;
    let mut eigs: Vec<Complex> = Vec::with_capacity(n);

    let mut p = n - 1; // index of the bottom of the active block
    let mut iters_this_block = 0usize;
    const MAX_ITERS: usize = 100;

    loop {
        // Deflation scan: find the start `l` of the active unreduced block.
        let mut l = p;
        while l > 0 {
            let s = h[(l - 1, l - 1)].abs() + h[(l, l)].abs();
            let s = if s == 0.0 { hnorm } else { s };
            if h[(l, l - 1)].abs() <= (f64::EPSILON * s).max(abs_floor) {
                h[(l, l - 1)] = 0.0;
                break;
            }
            l -= 1;
        }

        if l == p {
            // 1×1 block has converged.
            eigs.push(Complex::real(h[(p, p)]));
            if p == 0 {
                break;
            }
            p -= 1;
            iters_this_block = 0;
            continue;
        }
        if l + 1 == p {
            // 2×2 block has converged.
            let (e1, e2) = eig2x2(h[(l, l)], h[(l, p)], h[(p, l)], h[(p, p)]);
            eigs.push(e1);
            eigs.push(e2);
            if l == 0 {
                break;
            }
            p = l - 1;
            iters_this_block = 0;
            continue;
        }

        iters_this_block += 1;
        if iters_this_block > MAX_ITERS {
            return Err(NumericsError::NoConvergence {
                algorithm: "francis qr iteration",
                iterations: MAX_ITERS,
            });
        }

        // Double-shift from the trailing 2×2 of the active block; switch to
        // an exceptional (ad hoc) shift every 10 stalled iterations.
        let (s, t) = if iters_this_block % 10 == 0 {
            let ex = h[(p, p - 1)].abs() + h[(p - 1, p - 2)].abs();
            (1.5 * ex, ex * ex)
        } else {
            (
                h[(p - 1, p - 1)] + h[(p, p)],
                h[(p - 1, p - 1)] * h[(p, p)] - h[(p - 1, p)] * h[(p, p - 1)],
            )
        };

        // First column of (H - aI)(H - bI) with a+b = s, ab = t, at row l.
        let mut x = h[(l, l)] * h[(l, l)] + h[(l, l + 1)] * h[(l + 1, l)] - s * h[(l, l)] + t;
        let mut y = h[(l + 1, l)] * (h[(l, l)] + h[(l + 1, l + 1)] - s);
        let mut z = if l + 2 <= p {
            h[(l + 2, l + 1)] * h[(l + 1, l)]
        } else {
            0.0
        };

        // Bulge chase.
        for k in l..p - 1 {
            if let Some((v, beta)) = house3(x, y, z) {
                let q0 = if k > l { k - 1 } else { l };
                // Left: rows k..k+3 (clamped to p), columns q0..=p.
                let rmax = (k + 2).min(p);
                for j in q0..=p {
                    let mut dot = 0.0;
                    for (vi, i) in (k..=rmax).enumerate() {
                        dot += v[vi] * h[(i, j)];
                    }
                    let f = beta * dot;
                    for (vi, i) in (k..=rmax).enumerate() {
                        h[(i, j)] -= f * v[vi];
                    }
                }
                // Right: columns k..k+3 (clamped), rows l..=min(k+3, p).
                let imax = (k + 3).min(p);
                for i in l..=imax {
                    let mut dot = 0.0;
                    for (vj, j) in (k..=rmax).enumerate() {
                        dot += h[(i, j)] * v[vj];
                    }
                    let f = beta * dot;
                    for (vj, j) in (k..=rmax).enumerate() {
                        h[(i, j)] -= f * v[vj];
                    }
                }
            }
            x = h[(k + 1, k)];
            y = h[(k + 2, k)];
            z = if k + 3 <= p { h[(k + 3, k)] } else { 0.0 };
        }

        // Final Givens rotation on the trailing 2-vector [x, y].
        let r = x.hypot(y);
        if r > 0.0 {
            let c = x / r;
            let sgiv = y / r;
            let k = p - 1;
            for j in (k - 1).max(l)..=p {
                let t1 = h[(k, j)];
                let t2 = h[(p, j)];
                h[(k, j)] = c * t1 + sgiv * t2;
                h[(p, j)] = -sgiv * t1 + c * t2;
            }
            for i in l..=p {
                let t1 = h[(i, k)];
                let t2 = h[(i, p)];
                h[(i, k)] = c * t1 + sgiv * t2;
                h[(i, p)] = -sgiv * t1 + c * t2;
            }
        }
    }

    debug_assert_eq!(eigs.len(), n);
    Ok(eigs)
}

/// Maximum real part over all eigenvalues (the *spectral abscissa*).
///
/// An equilibrium of a smooth ODE system is locally asymptotically stable
/// when the spectral abscissa of its Jacobian is negative.
///
/// # Errors
///
/// Propagates errors from [`eigenvalues`].
pub fn spectral_abscissa(a: Matrix) -> Result<f64> {
    Ok(eigenvalues(a)?
        .iter()
        .map(|c| c.re)
        .fold(f64::NEG_INFINITY, f64::max))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The textbook column-by-column reduction [`hessenberg`] must match
    /// bit for bit: both reflectors over every column and row through
    /// `Index`, on a copy of the input.
    fn hessenberg_reference(a: &Matrix) -> Result<Matrix> {
        if !a.is_square() {
            return Err(NumericsError::InvalidArgument(
                "hessenberg reduction requires a square matrix".into(),
            ));
        }
        let n = a.rows();
        let mut h = a.clone();
        if n < 3 {
            return Ok(h);
        }
        for k in 0..n - 2 {
            let mut norm2 = 0.0;
            for i in (k + 1)..n {
                norm2 += h[(i, k)] * h[(i, k)];
            }
            let norm = norm2.sqrt();
            if norm == 0.0 {
                continue;
            }
            let alpha = if h[(k + 1, k)] > 0.0 { -norm } else { norm };
            let mut v: Vec<f64> = ((k + 1)..n).map(|i| h[(i, k)]).collect();
            v[0] -= alpha;
            let vnorm2: f64 = v.iter().map(|x| x * x).sum();
            if vnorm2 == 0.0 {
                continue;
            }
            for j in 0..n {
                let mut dot = 0.0;
                for i in (k + 1)..n {
                    dot += v[i - k - 1] * h[(i, j)];
                }
                let factor = 2.0 * dot / vnorm2;
                for i in (k + 1)..n {
                    h[(i, j)] -= factor * v[i - k - 1];
                }
            }
            for i in 0..n {
                let mut dot = 0.0;
                for j in (k + 1)..n {
                    dot += h[(i, j)] * v[j - k - 1];
                }
                let factor = 2.0 * dot / vnorm2;
                for j in (k + 1)..n {
                    h[(i, j)] -= factor * v[j - k - 1];
                }
            }
        }
        for i in 2..n {
            for j in 0..(i - 1) {
                h[(i, j)] = 0.0;
            }
        }
        Ok(h)
    }

    /// SplitMix64 stream mapped onto [-1, 1).
    fn seeded(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        }
    }

    /// Seeded nonsymmetric test matrices of order `n`: dense, with exact
    /// zeros scattered in, with some columns already zero below the
    /// diagonal (so the reduction skips them), and block upper
    /// triangular like the Theorem-2 Jacobian at `E0`.
    fn pin_matrices(n: usize, seed: u64) -> Vec<Matrix> {
        let mut next = seeded(seed);
        let dense = Matrix::from_fn(n, n, |_, _| next());
        let sparse = Matrix::from_fn(n, n, |i, j| {
            let x = next();
            if (i * 7 + j * 3) % 5 == 0 {
                0.0
            } else {
                x * 1e3
            }
        });
        let skipped = Matrix::from_fn(n, n, |i, j| {
            let x = next();
            if i > j && j % 3 != 1 {
                0.0
            } else {
                x
            }
        });
        let half = n / 2;
        let block = Matrix::from_fn(n, n, |i, j| {
            let x = next();
            match (i < half, j < half) {
                (true, true) if i == j => -0.2,
                (true, true) | (false, true) => 0.0,
                (false, false) if i == j => x - 0.05,
                _ => x * 0.01,
            }
        });
        vec![dense, block, sparse, skipped]
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    fn eig_bits(eigs: &[Complex]) -> Vec<(u64, u64)> {
        eigs.iter()
            .map(|c| (c.re.to_bits(), c.im.to_bits()))
            .collect()
    }

    #[test]
    fn hessenberg_is_bit_identical_to_the_reference() {
        let sizes = (0..=9).chain([33, 130, 257]);
        for (s, n) in sizes.enumerate() {
            // The largest order checks only the dense and block shapes,
            // which keeps the unoptimized test build quick.
            let shapes = if n > 200 { 2 } else { 4 };
            let matrices = pin_matrices(n, 0x5EED_0000 + s as u64);
            for (m, a) in matrices.into_iter().take(shapes).enumerate() {
                let want = hessenberg_reference(&a).unwrap();
                let got = hessenberg(a.clone()).unwrap();
                assert_eq!(bits(&got), bits(&want), "H differs: n = {n}, matrix {m}");
                let want = hessenberg_eigenvalues(want).unwrap();
                let got = eigenvalues(a).unwrap();
                assert_eq!(
                    eig_bits(&got),
                    eig_bits(&want),
                    "eigenvalues differ: n = {n}, matrix {m}"
                );
            }
        }
    }

    #[test]
    fn hessenberg_rejects_non_square() {
        assert!(matches!(
            hessenberg(Matrix::zeros(2, 3)),
            Err(NumericsError::InvalidArgument(_))
        ));
    }

    fn sorted_real(eigs: &[Complex]) -> Vec<f64> {
        let mut v: Vec<f64> = eigs.iter().map(|c| c.re).collect();
        v.sort_by(f64::total_cmp);
        v
    }

    #[test]
    fn diagonal_matrix() {
        let a =
            Matrix::from_rows(&[&[3.0, 0.0, 0.0], &[0.0, -1.0, 0.0], &[0.0, 0.0, 5.0]]).unwrap();
        let eigs = eigenvalues(a).unwrap();
        assert_eq!(eigs.len(), 3);
        let re = sorted_real(&eigs);
        assert!((re[0] + 1.0).abs() < 1e-10);
        assert!((re[1] - 3.0).abs() < 1e-10);
        assert!((re[2] - 5.0).abs() < 1e-10);
        assert!(eigs.iter().all(|c| c.im.abs() < 1e-10));
    }

    #[test]
    fn upper_triangular_eigs_are_diagonal() {
        let a =
            Matrix::from_rows(&[&[1.0, 5.0, -3.0], &[0.0, 2.0, 9.0], &[0.0, 0.0, -4.0]]).unwrap();
        let re = sorted_real(&eigenvalues(a).unwrap());
        assert!((re[0] + 4.0).abs() < 1e-9);
        assert!((re[1] - 1.0).abs() < 1e-9);
        assert!((re[2] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn rotation_matrix_has_complex_pair() {
        // 90° rotation: eigenvalues ±i.
        let a = Matrix::from_rows(&[&[0.0, -1.0], &[1.0, 0.0]]).unwrap();
        let eigs = eigenvalues(a).unwrap();
        assert_eq!(eigs.len(), 2);
        for e in &eigs {
            assert!(e.re.abs() < 1e-12);
            assert!((e.im.abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn companion_matrix_roots() {
        // Companion matrix of x^3 - 6x^2 + 11x - 6 = (x-1)(x-2)(x-3).
        let a =
            Matrix::from_rows(&[&[6.0, -11.0, 6.0], &[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0]]).unwrap();
        let re = sorted_real(&eigenvalues(a).unwrap());
        assert!((re[0] - 1.0).abs() < 1e-8);
        assert!((re[1] - 2.0).abs() < 1e-8);
        assert!((re[2] - 3.0).abs() < 1e-8);
    }

    #[test]
    fn companion_with_complex_roots() {
        // x^3 - x^2 + x - 1 = (x-1)(x^2+1): roots 1, ±i.
        let a =
            Matrix::from_rows(&[&[1.0, -1.0, 1.0], &[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0]]).unwrap();
        let eigs = eigenvalues(a).unwrap();
        let n_complex = eigs.iter().filter(|c| c.im.abs() > 0.5).count();
        assert_eq!(n_complex, 2);
        let real_eig = eigs.iter().find(|c| c.im.abs() < 1e-6).unwrap();
        assert!((real_eig.re - 1.0).abs() < 1e-8);
    }

    #[test]
    fn symmetric_matrix_real_spectrum() {
        let a = Matrix::from_rows(&[
            &[4.0, 1.0, 0.0, 0.0],
            &[1.0, 4.0, 1.0, 0.0],
            &[0.0, 1.0, 4.0, 1.0],
            &[0.0, 0.0, 1.0, 4.0],
        ])
        .unwrap();
        let eigs = eigenvalues(a).unwrap();
        assert!(eigs.iter().all(|c| c.im.abs() < 1e-9));
        // Tridiagonal Toeplitz: eigenvalues 4 + 2cos(kπ/5), k = 1..4.
        let mut expect: Vec<f64> = (1..=4)
            .map(|k| 4.0 + 2.0 * (k as f64 * std::f64::consts::PI / 5.0).cos())
            .collect();
        expect.sort_by(f64::total_cmp);
        let got = sorted_real(&eigs);
        for (g, e) in got.iter().zip(&expect) {
            assert!((g - e).abs() < 1e-8, "got {g}, expect {e}");
        }
    }

    #[test]
    fn trace_and_det_consistency_random_like() {
        // Eigenvalue sums/products must match trace/det.
        let a = Matrix::from_fn(6, 6, |i, j| ((i * 5 + j * 3 + 1) % 7) as f64 - 3.0);
        let eigs = eigenvalues(a.clone()).unwrap();
        let sum_re: f64 = eigs.iter().map(|c| c.re).sum();
        let sum_im: f64 = eigs.iter().map(|c| c.im).sum();
        assert!(
            (sum_re - a.trace()).abs() < 1e-7,
            "trace mismatch: {sum_re}"
        );
        assert!(sum_im.abs() < 1e-7, "imaginary parts must cancel");
        let det = crate::lu::det(&a).unwrap();
        // Product of complex eigenvalues (real part only survives).
        let (mut pr, mut pi) = (1.0, 0.0);
        for e in &eigs {
            let (nr, ni) = (pr * e.re - pi * e.im, pr * e.im + pi * e.re);
            pr = nr;
            pi = ni;
        }
        assert!(
            (pr - det).abs() < 1e-5 * det.abs().max(1.0),
            "det mismatch: {pr} vs {det}"
        );
        assert!(pi.abs() < 1e-5 * det.abs().max(1.0));
    }

    #[test]
    fn hessenberg_preserves_eigen_relevant_structure() {
        let a = Matrix::from_fn(5, 5, |i, j| ((i * 3 + j * 7 + 2) % 11) as f64);
        let h = hessenberg(a.clone()).unwrap();
        // Zero below first subdiagonal.
        for i in 2..5 {
            for j in 0..i - 1 {
                assert_eq!(h[(i, j)], 0.0);
            }
        }
        // Similar matrices share trace.
        assert!((h.trace() - a.trace()).abs() < 1e-9);
    }

    #[test]
    fn hurwitz_classification() {
        let stable = Matrix::from_rows(&[&[-1.0, 0.5], &[0.0, -2.0]]).unwrap();
        assert!(spectral_abscissa(stable).unwrap() < 0.0);
        let unstable = Matrix::from_rows(&[&[0.1, 0.0], &[0.0, -2.0]]).unwrap();
        assert!(spectral_abscissa(unstable).unwrap() >= 0.0);
    }

    #[test]
    fn one_by_one_and_empty() {
        let a = Matrix::from_rows(&[&[7.0]]).unwrap();
        let eigs = eigenvalues(a).unwrap();
        assert_eq!(eigs.len(), 1);
        assert_eq!(eigs[0].re, 7.0);
    }

    #[test]
    fn larger_matrix_with_known_clusters() {
        // Block-diagonal: eigenvalues are union of block spectra.
        let mut a = Matrix::zeros(5, 5);
        // Block 1: rotation scaled by 2 → 2(cos45 ± i sin45).
        let th = std::f64::consts::FRAC_PI_4;
        a[(0, 0)] = 2.0 * th.cos();
        a[(0, 1)] = -2.0 * th.sin();
        a[(1, 0)] = 2.0 * th.sin();
        a[(1, 1)] = 2.0 * th.cos();
        // Block 2: diag(-1, -3, 5).
        a[(2, 2)] = -1.0;
        a[(3, 3)] = -3.0;
        a[(4, 4)] = 5.0;
        let eigs = eigenvalues(a.clone()).unwrap();
        let n_complex = eigs.iter().filter(|c| c.im.abs() > 1e-6).count();
        assert_eq!(n_complex, 2);
        assert!((spectral_abscissa(a).unwrap() - 5.0).abs() < 1e-8);
    }
}
