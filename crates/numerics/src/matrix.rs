//! A small dense, row-major matrix type.
//!
//! [`Matrix`] is deliberately simple: `f64` elements stored contiguously in
//! row-major order. It carries the Jacobians of the implicit Euler
//! stepper (through the LU solve) and of the Theorem-2 stability analysis
//! in `rumor-core` (through the eigenvalue solver). It exists so the
//! workspace has no external numeric dependencies.

use crate::{NumericsError, Result};
use std::ops::{Index, IndexMut};

/// Dense row-major matrix of `f64`.
///
/// # Example
///
/// ```
/// use rumor_numerics::matrix::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
/// assert_eq!(a.matvec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
/// assert_eq!(a.trace(), 5.0);
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

    /// Returns the main diagonal as an owned vector.
    pub fn diag(&self) -> Vec<f64> {
        (0..self.rows.min(self.cols))
            .map(|i| self[(i, i)])
            .collect()
    }

    /// Matrix–vector product `self * v`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::ShapeMismatch`] if `v.len()` is not the
    /// column count.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if v.len() != self.cols {
            return Err(NumericsError::ShapeMismatch {
                expected: format!("vector of length {}", self.cols),
                found: format!("vector of length {}", v.len()),
            });
        }
        Ok((0..self.rows)
            .map(|i| {
                let row = &self.data[i * self.cols..(i + 1) * self.cols];
                row.iter().zip(v).map(|(a, b)| a * b).sum()
            })
            .collect())
    }

    /// Frobenius norm (square root of the sum of squared entries).
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.rows(), 2);
        assert!(!z.is_square());
        assert_eq!(z.as_slice(), &[0.0; 6]);
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
    #[should_panic(expected = "matrix size overflow")]
    fn zeros_panics_on_an_overflowing_shape() {
        // 2^63 × 2 wraps to 0, which an unchecked product would accept.
        let _ = Matrix::zeros(1 << (usize::BITS - 1), 2);
    }

    #[test]
    fn matvec_known() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let v = a.matvec(&[1.0, 1.0]).unwrap();
        assert_eq!(v, vec![3.0, 7.0]);
        assert!(a.matvec(&[1.0]).is_err());
    }

    #[test]
    fn norms_match_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, -2.0], &[-3.0, 4.0]]).unwrap();
        assert!((a.frobenius_norm() - (30.0_f64).sqrt()).abs() < 1e-14);
    }

    #[test]
    fn swap_rows_works() {
        let mut a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        a.swap_rows(0, 1);
        assert_eq!(a.as_slice(), &[3.0, 4.0, 1.0, 2.0]);
        a.swap_rows(1, 1);
        assert_eq!(a.as_slice(), &[3.0, 4.0, 1.0, 2.0]);
    }

    #[test]
    fn diag_reads_the_main_diagonal() {
        let a = Matrix::from_fn(2, 3, |i, j| (i * 3 + j) as f64);
        assert_eq!(a.diag(), vec![0.0, 4.0]);
        let mut m = Matrix::zeros(3, 3);
        m.as_mut_slice()[8] = 5.0;
        assert_eq!(m.diag(), vec![0.0, 0.0, 5.0]);
    }
}
