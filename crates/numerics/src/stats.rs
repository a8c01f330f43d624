//! Summary statistics for aggregating Monte Carlo ensembles in
//! `rumor-sim`: the streaming [`RunningStats`] accumulator, and the batch
//! [`mean`] and [`variance`] the tests hold it to.

use crate::{NumericsError, Result};

/// Arithmetic mean.
///
/// # Errors
///
/// Returns [`NumericsError::InvalidArgument`] on an empty slice.
pub fn mean(xs: &[f64]) -> Result<f64> {
    if xs.is_empty() {
        return Err(NumericsError::InvalidArgument("mean of empty slice".into()));
    }
    Ok(xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Unbiased sample variance (denominator `n − 1`).
///
/// # Errors
///
/// Returns [`NumericsError::InvalidArgument`] if fewer than two samples
/// are given.
pub fn variance(xs: &[f64]) -> Result<f64> {
    if xs.len() < 2 {
        return Err(NumericsError::InvalidArgument(
            "variance requires at least two samples".into(),
        ));
    }
    let m = mean(xs)?;
    Ok(xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64)
}

/// Running mean/variance accumulator (Welford's algorithm) for streaming
/// Monte Carlo aggregation without storing samples.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Mean of the observations so far (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.n > 0).then_some(self.mean)
    }

    /// Unbiased sample variance (`None` with fewer than two samples).
    pub fn variance(&self) -> Option<f64> {
        (self.n > 1).then(|| self.m2 / (self.n - 1) as f64)
    }

    /// Sample standard deviation (`None` with fewer than two samples).
    pub fn std_dev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_known() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs).unwrap(), 5.0);
        assert!((variance(&xs).unwrap() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_short_inputs_rejected() {
        assert!(mean(&[]).is_err());
        assert!(variance(&[1.0]).is_err());
    }

    #[test]
    fn running_stats_matches_batch() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut rs = RunningStats::new();
        for x in xs {
            rs.push(x);
        }
        assert!((rs.mean().unwrap() - mean(&xs).unwrap()).abs() < 1e-12);
        assert!((rs.variance().unwrap() - variance(&xs).unwrap()).abs() < 1e-12);
        assert!((rs.std_dev().unwrap() - variance(&xs).unwrap().sqrt()).abs() < 1e-12);
    }

    #[test]
    fn running_stats_empty_behaviour() {
        let rs = RunningStats::new();
        assert!(rs.mean().is_none());
        assert!(rs.variance().is_none());
        let mut one = RunningStats::new();
        one.push(5.0);
        assert_eq!(one.mean(), Some(5.0));
        assert!(one.variance().is_none());
        assert!(one.std_dev().is_none());
    }
}
