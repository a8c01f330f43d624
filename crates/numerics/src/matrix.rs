//! A small dense, row-major matrix type.
//!
//! [`Matrix`] is deliberately simple: `f64` elements stored contiguously in
//! row-major order. It carries the Jacobians of the implicit Euler
//! stepper (through the LU solve) and of the Theorem-2 stability analysis
//! in `rumor-core` (through the eigenvalue solver). It exists so the
//! workspace has no external numeric dependencies.

use crate::{NumericsError, Result};
use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// Dense row-major matrix of `f64`.
///
/// # Example
///
/// ```
/// use rumor_numerics::matrix::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
/// let b = Matrix::identity(2);
/// let c = a.matmul(&b).unwrap();
/// assert_eq!(c, a);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows.checked_mul(cols).expect("matrix size overflow")],
        }
    }

    /// Creates a `rows × cols` matrix filled with `value`.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows.checked_mul(cols).expect("matrix size overflow")],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a slice of rows.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::ShapeMismatch`] if the rows do not all have
    /// the same length, or [`NumericsError::InvalidArgument`] if `rows` is
    /// empty or the first row is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(NumericsError::InvalidArgument(
                "matrix must have at least one row and one column".into(),
            ));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(NumericsError::ShapeMismatch {
                    expected: format!("row of length {cols}"),
                    found: format!("row {i} of length {}", r.len()),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::ShapeMismatch`] if `data.len() != rows * cols`
    /// or if `rows * cols` overflows `usize`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        match rows.checked_mul(cols) {
            Some(len) if len == data.len() => Ok(Matrix { rows, cols, data }),
            len => Err(NumericsError::ShapeMismatch {
                expected: match len {
                    Some(len) => format!("{len} elements"),
                    None => format!("{rows} × {cols} elements (overflows usize)"),
                },
                found: format!("{} elements", data.len()),
            }),
        }
    }

    /// Creates a diagonal matrix from the given diagonal entries.
    pub fn from_diag(diag: &[f64]) -> Self {
        let mut m = Matrix::zeros(diag.len(), diag.len());
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Builds a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrows the underlying row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrows the underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix and returns the underlying row-major data.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Returns row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Returns column `j` as an owned vector.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.cols()`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "col index {j} out of bounds ({})", self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Returns the main diagonal as an owned vector.
    pub fn diag(&self) -> Vec<f64> {
        (0..self.rows.min(self.cols))
            .map(|i| self[(i, i)])
            .collect()
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Matrix multiplication `self * rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::ShapeMismatch`] if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(NumericsError::ShapeMismatch {
                expected: format!("rhs with {} rows", self.cols),
                found: format!("rhs with {} rows", rhs.rows),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += aik * rhs[(k, j)];
                }
            }
        }
        Ok(out)
    }

    /// Matrix–vector product `self * v`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::ShapeMismatch`] if `v.len() != self.cols()`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if v.len() != self.cols {
            return Err(NumericsError::ShapeMismatch {
                expected: format!("vector of length {}", self.cols),
                found: format!("vector of length {}", v.len()),
            });
        }
        Ok((0..self.rows)
            .map(|i| self.row(i).iter().zip(v).map(|(a, b)| a * b).sum())
            .collect())
    }

    /// Scales every element by `s`, in place.
    pub fn scale_mut(&mut self, s: f64) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// Returns a copy scaled by `s`.
    pub fn scaled(&self, s: f64) -> Matrix {
        let mut m = self.clone();
        m.scale_mut(s);
        m
    }

    /// Frobenius norm (square root of the sum of squared entries).
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Infinity norm (maximum absolute row sum).
    pub fn inf_norm(&self) -> f64 {
        (0..self.rows)
            .map(|i| self.row(i).iter().map(|x| x.abs()).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// One norm (maximum absolute column sum).
    pub fn one_norm(&self) -> f64 {
        (0..self.cols)
            .map(|j| (0..self.rows).map(|i| self[(i, j)].abs()).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// Trace (sum of diagonal entries).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> f64 {
        assert!(self.is_square(), "trace requires a square matrix");
        self.diag().iter().sum()
    }

    /// Returns `true` if every element differs from the corresponding
    /// element of `other` by at most `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Extracts the sub-matrix with rows `r0..r1` and columns `c0..c1`.
    ///
    /// # Panics
    ///
    /// Panics if the ranges are out of bounds or empty.
    pub fn submatrix(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> Matrix {
        assert!(r0 < r1 && r1 <= self.rows && c0 < c1 && c1 <= self.cols);
        Matrix::from_fn(r1 - r0, c1 - c0, |i, j| self[(r0 + i, c0 + j)])
    }

    /// Swaps rows `a` and `b` in place.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        assert!(a < self.rows && b < self.rows);
        if a == b {
            return;
        }
        for j in 0..self.cols {
            self.data.swap(a * self.cols + j, b * self.cols + j);
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &mut self.data[i * self.cols + j]
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "shape mismatch in add"
        );
        let mut out = self.clone();
        out += rhs;
        out
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "shape mismatch in sub"
        );
        let mut out = self.clone();
        out -= rhs;
        out
    }
}

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "shape mismatch in add"
        );
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }
}

impl SubAssign<&Matrix> for Matrix {
    fn sub_assign(&mut self, rhs: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "shape mismatch in sub"
        );
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a -= b;
        }
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, s: f64) -> Matrix {
        self.scaled(s)
    }
}

impl Neg for &Matrix {
    type Output = Matrix;

    fn neg(self) -> Matrix {
        self.scaled(-1.0)
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            write!(f, "[")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:>12.6}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

/// Vector helpers: norms, dot product, `axpy` and infinity-norm distance.
pub mod vecops {
    /// Euclidean (L2) norm of a vector.
    pub fn norm2(v: &[f64]) -> f64 {
        v.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Infinity norm (maximum absolute value) of a vector.
    pub fn norm_inf(v: &[f64]) -> f64 {
        v.iter().fold(0.0, |m, x| m.max(x.abs()))
    }

    /// Dot product of two equal-length vectors.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths.
    pub fn dot(a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(a.len(), b.len(), "dot product length mismatch");
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    /// Computes `y += alpha * x` in place.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths.
    pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), y.len(), "axpy length mismatch");
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi += alpha * xi;
        }
    }

    /// Infinity-norm distance between two equal-length vectors.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths.
    pub fn dist_inf(a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(a.len(), b.len(), "dist length mismatch");
        a.iter().zip(b).fold(0.0, |m, (x, y)| m.max((x - y).abs()))
    }
}

#[cfg(test)]
mod tests {
    use super::vecops::*;
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 3);
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i.trace(), 3.0);
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]).unwrap_err();
        assert!(matches!(err, NumericsError::ShapeMismatch { .. }));
    }

    #[test]
    fn from_rows_rejects_empty() {
        assert!(Matrix::from_rows(&[]).is_err());
    }

    #[test]
    fn from_vec_checks_len() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn from_vec_rejects_an_overflowing_shape() {
        // 2^63 × 2 wraps to 0, which an unchecked product would accept
        // for an empty buffer.
        let err = Matrix::from_vec(1 << (usize::BITS - 1), 2, Vec::new()).unwrap_err();
        assert!(matches!(err, NumericsError::ShapeMismatch { .. }));
    }

    #[test]
    #[should_panic(expected = "matrix size overflow")]
    fn filled_panics_on_an_overflowing_shape() {
        let _ = Matrix::filled(1 << (usize::BITS - 1), 2, 1.0);
    }

    #[test]
    #[should_panic(expected = "matrix size overflow")]
    fn zeros_panics_on_an_overflowing_shape() {
        // 2^63 × 2 wraps to 0, which an unchecked product would accept.
        let _ = Matrix::zeros(1 << (usize::BITS - 1), 2);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(a.matmul(&Matrix::identity(2)).unwrap(), a);
        assert_eq!(Matrix::identity(2).matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        let expect = Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]).unwrap();
        assert!(c.approx_eq(&expect, 1e-14));
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn matvec_known() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let v = a.matvec(&[1.0, 1.0]).unwrap();
        assert_eq!(v, vec![3.0, 7.0]);
        assert!(a.matvec(&[1.0]).is_err());
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn norms_match_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, -2.0], &[-3.0, 4.0]]).unwrap();
        assert!((a.frobenius_norm() - (30.0_f64).sqrt()).abs() < 1e-14);
        assert_eq!(a.inf_norm(), 7.0);
        assert_eq!(a.one_norm(), 6.0);
    }

    #[test]
    fn submatrix_extraction() {
        let a = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let s = a.submatrix(1, 3, 2, 4);
        assert_eq!(s.rows(), 2);
        assert_eq!(s[(0, 0)], 6.0);
        assert_eq!(s[(1, 1)], 11.0);
    }

    #[test]
    fn swap_rows_works() {
        let mut a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        a.swap_rows(0, 1);
        assert_eq!(a.row(0), &[3.0, 4.0]);
        a.swap_rows(1, 1);
        assert_eq!(a.row(1), &[1.0, 2.0]);
    }

    #[test]
    fn arithmetic_ops() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::identity(2);
        let sum = &a + &b;
        assert_eq!(sum[(0, 0)], 2.0);
        let diff = &sum - &b;
        assert!(diff.approx_eq(&a, 1e-15));
        let neg = -&a;
        assert_eq!(neg[(1, 1)], -4.0);
        let scaled = &a * 2.0;
        assert_eq!(scaled[(1, 0)], 6.0);
    }

    #[test]
    fn diag_and_from_diag() {
        let d = Matrix::from_diag(&[1.0, 2.0, 3.0]);
        assert_eq!(d.diag(), vec![1.0, 2.0, 3.0]);
        assert_eq!(d[(0, 1)], 0.0);
    }

    #[test]
    fn display_is_nonempty() {
        let a = Matrix::identity(2);
        assert!(!format!("{a}").is_empty());
    }

    #[test]
    fn vecops_basics() {
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
        assert_eq!(norm_inf(&[-3.0, 2.0]), 3.0);
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[1.0, 2.0], &mut y);
        assert_eq!(y, vec![3.0, 5.0]);
        assert_eq!(dist_inf(&[0.0, 1.0], &[1.0, 1.0]), 1.0);
    }
}
