//! Trapezoid integration of *sampled* trajectories, used to evaluate the
//! countermeasure cost functional `∫ Σ (c1 ε1² S² + c2 ε2² I²) dt` along
//! an ODE solution in `rumor-control`.

use crate::{NumericsError, Result};

/// Trapezoid integration of a *sampled* trajectory: `ts` are strictly
/// increasing sample times, `ys` the corresponding values.
///
/// # Errors
///
/// Returns [`NumericsError::ShapeMismatch`] if the slices differ in length
/// and [`NumericsError::InvalidArgument`] if fewer than two samples are
/// given or the times are not strictly increasing.
pub fn trapezoid_sampled(ts: &[f64], ys: &[f64]) -> Result<f64> {
    if ts.len() != ys.len() {
        return Err(NumericsError::ShapeMismatch {
            expected: format!("{} values", ts.len()),
            found: format!("{} values", ys.len()),
        });
    }
    if ts.len() < 2 {
        return Err(NumericsError::InvalidArgument(
            "at least two samples are required".into(),
        ));
    }
    let mut sum = 0.0;
    for i in 1..ts.len() {
        let dt = ts[i] - ts[i - 1];
        if dt <= 0.0 {
            return Err(NumericsError::InvalidArgument(format!(
                "sample times must be strictly increasing (violated at index {i})"
            )));
        }
        sum += 0.5 * dt * (ys[i] + ys[i - 1]);
    }
    Ok(sum)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trapezoid_sampled_matches_uniform() {
        let ts: Vec<f64> = (0..=100).map(|i| i as f64 * 0.01).collect();
        let ys: Vec<f64> = ts.iter().map(|&t| t * t).collect();
        let v = trapezoid_sampled(&ts, &ys).unwrap();
        assert!((v - 1.0 / 3.0).abs() < 1e-4);
    }

    #[test]
    fn trapezoid_sampled_nonuniform_grid() {
        let ts = [0.0, 0.1, 0.5, 1.0];
        let ys: Vec<f64> = ts.iter().map(|&t| 2.0 * t).collect(); // exact for linear
        let v = trapezoid_sampled(&ts, &ys).unwrap();
        assert!((v - 1.0).abs() < 1e-14);
    }

    #[test]
    fn trapezoid_sampled_validation() {
        assert!(trapezoid_sampled(&[0.0], &[1.0]).is_err());
        assert!(trapezoid_sampled(&[0.0, 1.0], &[1.0]).is_err());
        assert!(trapezoid_sampled(&[0.0, 0.0], &[1.0, 1.0]).is_err());
        assert!(trapezoid_sampled(&[1.0, 0.0], &[1.0, 1.0]).is_err());
    }

    #[test]
    fn convergence_order_of_trapezoid() {
        // Halving h should quarter the error (second-order method).
        let exact = 2.0; // ∫0^π sin = 2
        let error = |n: usize| {
            let ts: Vec<f64> = (0..=n)
                .map(|i| std::f64::consts::PI * i as f64 / n as f64)
                .collect();
            let ys: Vec<f64> = ts.iter().map(|t| t.sin()).collect();
            (trapezoid_sampled(&ts, &ys).unwrap() - exact).abs()
        };
        let ratio = error(50) / error(100);
        assert!(ratio > 3.5 && ratio < 4.5, "ratio {ratio}");
    }
}
