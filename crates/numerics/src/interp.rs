//! Interpolation of sampled data on one-dimensional grids.
//!
//! The optimal-control solver in `rumor-control` stores the control
//! signals `ε1(t)`, `ε2(t)` on a time grid and needs to evaluate them at
//! arbitrary times requested by the adaptive ODE integrator through
//! [`LinearInterp`].

use crate::{NumericsError, Result};

/// Validates a strictly increasing grid paired with values.
fn validate_grid(xs: &[f64], ys: &[f64]) -> Result<()> {
    if xs.len() != ys.len() {
        return Err(NumericsError::ShapeMismatch {
            expected: format!("{} values", xs.len()),
            found: format!("{} values", ys.len()),
        });
    }
    if xs.len() < 2 {
        return Err(NumericsError::InvalidArgument(
            "at least two grid points are required".into(),
        ));
    }
    for i in 1..xs.len() {
        if xs[i] <= xs[i - 1] {
            return Err(NumericsError::InvalidArgument(format!(
                "grid must be strictly increasing (violated at index {i})"
            )));
        }
    }
    Ok(())
}

/// Binary search: index `i` such that `xs[i] <= x < xs[i+1]`, clamped to
/// the valid segment range.
fn segment_index(xs: &[f64], x: f64) -> usize {
    if x <= xs[0] {
        return 0;
    }
    let n = xs.len();
    if x >= xs[n - 2] {
        return n - 2;
    }
    // partition_point returns the first index where xs[i] > x.
    xs.partition_point(|&v| v <= x).saturating_sub(1)
}

/// Piecewise-linear interpolation on a strictly increasing grid.
///
/// Evaluation outside the grid clamps to the boundary values (constant
/// extrapolation), which is the conservative choice for control signals.
///
/// # Example
///
/// ```
/// use rumor_numerics::interp::LinearInterp;
///
/// # fn main() -> Result<(), rumor_numerics::NumericsError> {
/// let li = LinearInterp::new(vec![0.0, 1.0, 2.0], vec![0.0, 10.0, 0.0])?;
/// assert_eq!(li.eval(0.5), 5.0);
/// assert_eq!(li.eval(-1.0), 0.0); // clamped
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinearInterp {
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl LinearInterp {
    /// Creates an interpolant over `(xs, ys)`.
    ///
    /// # Errors
    ///
    /// See [`NumericsError::ShapeMismatch`] /
    /// [`NumericsError::InvalidArgument`]: the grids must be equal-length,
    /// strictly increasing, and contain at least two points.
    pub fn new(xs: Vec<f64>, ys: Vec<f64>) -> Result<Self> {
        validate_grid(&xs, &ys)?;
        Ok(LinearInterp { xs, ys })
    }

    /// Evaluates the interpolant at `x` (clamped outside the grid).
    pub fn eval(&self, x: f64) -> f64 {
        if x <= self.xs[0] {
            return self.ys[0];
        }
        if x >= *self.xs.last().expect("non-empty grid") {
            return *self.ys.last().expect("non-empty grid");
        }
        let i = segment_index(&self.xs, x);
        let t = (x - self.xs[i]) / (self.xs[i + 1] - self.xs[i]);
        self.ys[i] + t * (self.ys[i + 1] - self.ys[i])
    }

    /// The grid abscissae.
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// The grid values.
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }

    /// Replaces the grid values, keeping the abscissae.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::ShapeMismatch`] if the length differs from
    /// the existing grid.
    pub fn set_ys(&mut self, ys: Vec<f64>) -> Result<()> {
        if ys.len() != self.xs.len() {
            return Err(NumericsError::ShapeMismatch {
                expected: format!("{} values", self.xs.len()),
                found: format!("{} values", ys.len()),
            });
        }
        self.ys = ys;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_interp_exact_on_nodes() {
        let li = LinearInterp::new(vec![0.0, 1.0, 3.0], vec![1.0, 2.0, -1.0]).unwrap();
        assert_eq!(li.eval(0.0), 1.0);
        assert_eq!(li.eval(1.0), 2.0);
        assert_eq!(li.eval(3.0), -1.0);
    }

    #[test]
    fn linear_interp_midpoints() {
        let li = LinearInterp::new(vec![0.0, 2.0], vec![0.0, 4.0]).unwrap();
        assert_eq!(li.eval(1.0), 2.0);
        assert_eq!(li.eval(0.5), 1.0);
    }

    #[test]
    fn linear_interp_clamps_outside() {
        let li = LinearInterp::new(vec![0.0, 1.0], vec![5.0, 7.0]).unwrap();
        assert_eq!(li.eval(-10.0), 5.0);
        assert_eq!(li.eval(10.0), 7.0);
    }

    #[test]
    fn linear_interp_validation() {
        assert!(LinearInterp::new(vec![0.0], vec![1.0]).is_err());
        assert!(LinearInterp::new(vec![0.0, 0.0], vec![1.0, 2.0]).is_err());
        assert!(LinearInterp::new(vec![1.0, 0.0], vec![1.0, 2.0]).is_err());
        assert!(LinearInterp::new(vec![0.0, 1.0], vec![1.0]).is_err());
    }

    #[test]
    fn set_ys_replaces_values() {
        let mut li = LinearInterp::new(vec![0.0, 1.0], vec![0.0, 1.0]).unwrap();
        li.set_ys(vec![2.0, 4.0]).unwrap();
        assert_eq!(li.eval(0.5), 3.0);
        assert!(li.set_ys(vec![1.0]).is_err());
    }

    #[test]
    fn segment_index_boundaries() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        assert_eq!(segment_index(&xs, -1.0), 0);
        assert_eq!(segment_index(&xs, 0.5), 0);
        assert_eq!(segment_index(&xs, 1.0), 1);
        assert_eq!(segment_index(&xs, 2.5), 2);
        assert_eq!(segment_index(&xs, 99.0), 2);
    }
}
