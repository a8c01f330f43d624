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

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.n
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

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        *self = RunningStats { n, mean, m2 };
    }
}

impl Extend<f64> for RunningStats {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for RunningStats {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut rs = RunningStats::new();
        rs.extend(iter);
        rs
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

    #[test]
    fn running_stats_merge_matches_concatenation() {
        let a: Vec<f64> = (0..10).map(|i| i as f64 * 0.7).collect();
        let b: Vec<f64> = (0..15).map(|i| 3.0 - i as f64 * 0.2).collect();
        let mut ra: RunningStats = a.iter().copied().collect();
        let rb: RunningStats = b.iter().copied().collect();
        ra.merge(&rb);
        let all: Vec<f64> = a.iter().chain(&b).copied().collect();
        assert_eq!(ra.count() as usize, all.len());
        assert!((ra.mean().unwrap() - mean(&all).unwrap()).abs() < 1e-12);
        assert!((ra.variance().unwrap() - variance(&all).unwrap()).abs() < 1e-12);
        // Merging an empty accumulator is a no-op in either direction.
        let mut empty = RunningStats::new();
        empty.merge(&ra);
        assert_eq!(empty.count(), ra.count());
        let snapshot = ra;
        ra.merge(&RunningStats::new());
        assert_eq!(ra, snapshot);
    }
}
