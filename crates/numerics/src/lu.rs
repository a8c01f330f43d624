//! LU decomposition with partial pivoting.
//!
//! The decomposition `P·A = L·U` backs the Newton solves of the implicit
//! Euler stepper in `rumor-ode`. Its determinant is the reference the
//! eigenvalue tests check eigenvalue products against.

use crate::matrix::Matrix;
use crate::{NumericsError, Result};

/// LU decomposition of a square matrix with partial (row) pivoting.
///
/// # Example
///
/// ```
/// use rumor_numerics::{lu::Lu, matrix::Matrix};
///
/// # fn main() -> Result<(), rumor_numerics::NumericsError> {
/// let a = Matrix::from_rows(&[&[4.0, 3.0], &[6.0, 3.0]])?;
/// let lu = Lu::decompose(&a)?;
/// let x = lu.solve(&[10.0, 12.0])?;
/// assert!((x[0] - 1.0).abs() < 1e-12);
/// assert!((x[1] - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Lu {
    /// Combined storage: strictly-lower part holds L (unit diagonal
    /// implied), upper part holds U.
    lu: Matrix,
    /// Row permutation: `perm[i]` is the original row now in position `i`.
    perm: Vec<usize>,
    /// Sign of the permutation (+1.0 or -1.0), used for the determinant.
    perm_sign: f64,
}

impl Lu {
    /// Computes the decomposition `P·A = L·U`.
    ///
    /// # Errors
    ///
    /// * [`NumericsError::InvalidArgument`] if `a` is not square.
    /// * [`NumericsError::SingularMatrix`] if a pivot is exactly zero.
    pub fn decompose(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(NumericsError::InvalidArgument(
                "lu decomposition requires a square matrix".into(),
            ));
        }
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut perm_sign = 1.0;

        for k in 0..n {
            // Find pivot row.
            let mut pivot_row = k;
            let mut pivot_val = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let v = lu[(i, k)].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = i;
                }
            }
            if pivot_val == 0.0 {
                return Err(NumericsError::SingularMatrix);
            }
            if pivot_row != k {
                lu.swap_rows(pivot_row, k);
                perm.swap(pivot_row, k);
                perm_sign = -perm_sign;
            }
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let factor = lu[(i, k)] / pivot;
                lu[(i, k)] = factor;
                for j in (k + 1)..n {
                    let ukj = lu[(k, j)];
                    lu[(i, j)] -= factor * ukj;
                }
            }
        }

        Ok(Lu {
            lu,
            perm,
            perm_sign,
        })
    }

    /// Solves `A·x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::ShapeMismatch`] if `b` does not match the
    /// dimension of the decomposed matrix.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.lu.rows();
        if b.len() != n {
            return Err(NumericsError::ShapeMismatch {
                expected: format!("rhs of length {n}"),
                found: format!("rhs of length {}", b.len()),
            });
        }
        // Apply permutation, then forward substitution (L has unit diagonal).
        let mut y: Vec<f64> = (0..n).map(|i| b[self.perm[i]]).collect();
        for i in 1..n {
            let mut s = y[i];
            for j in 0..i {
                s -= self.lu[(i, j)] * y[j];
            }
            y[i] = s;
        }
        // Backward substitution with U.
        for i in (0..n).rev() {
            let mut s = y[i];
            for j in (i + 1)..n {
                s -= self.lu[(i, j)] * y[j];
            }
            y[i] = s / self.lu[(i, i)];
        }
        Ok(y)
    }

    /// Determinant of the decomposed matrix.
    pub fn det(&self) -> f64 {
        self.perm_sign * self.lu.diag().iter().product::<f64>()
    }
}

/// Convenience wrapper: determinant of `a` via LU decomposition.
///
/// # Errors
///
/// Returns [`NumericsError::InvalidArgument`] if `a` is not square. A
/// singular matrix yields `Ok(0.0)`.
pub fn det(a: &Matrix) -> Result<f64> {
    match Lu::decompose(a) {
        Ok(lu) => Ok(lu.det()),
        Err(NumericsError::SingularMatrix) => Ok(0.0),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
        Lu::decompose(a)?.solve(b)
    }

    fn dist_inf(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).fold(0.0, |m, (x, y)| m.max((x - y).abs()))
    }

    #[test]
    fn solve_2x2() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]).unwrap();
        let x = solve(&a, &[3.0, 5.0]).unwrap();
        assert!(dist_inf(&x, &[0.8, 1.4]) < 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Leading zero forces a row swap.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let x = solve(&a, &[2.0, 3.0]).unwrap();
        assert!(dist_inf(&x, &[3.0, 2.0]) < 1e-14);
    }

    #[test]
    fn singular_is_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(matches!(
            Lu::decompose(&a),
            Err(NumericsError::SingularMatrix)
        ));
        assert_eq!(det(&a).unwrap(), 0.0);
    }

    #[test]
    fn non_square_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(Lu::decompose(&a).is_err());
    }

    #[test]
    fn determinant_known_values() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert!((det(&a).unwrap() + 2.0).abs() < 1e-12);
        let i = Matrix::identity(4);
        assert!((det(&i).unwrap() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn determinant_sign_tracks_permutation() {
        // This matrix needs a swap; det = -1 for the 2x2 anti-identity.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        assert!((det(&a).unwrap() + 1.0).abs() < 1e-15);
    }

    #[test]
    fn rhs_length_checked() {
        let a = Matrix::identity(3);
        let lu = Lu::decompose(&a).unwrap();
        assert!(lu.solve(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn larger_random_like_system() {
        // Deterministic "random-ish" well-conditioned system.
        let n = 12;
        let a = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                10.0 + i as f64
            } else {
                ((i * 7 + j * 13) % 5) as f64 * 0.3
            }
        });
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64) - 3.5).collect();
        let b = a.matvec(&x_true).unwrap();
        let x = solve(&a, &b).unwrap();
        assert!(dist_inf(&x, &x_true) < 1e-10);
    }
}
