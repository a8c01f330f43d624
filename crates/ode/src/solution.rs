//! Recorded ODE trajectories.

use crate::OdeError;

/// A trajectory recorded by an integrator: a sequence of `(t, y)` pairs in
/// integration order (monotone increasing `t` for forward runs, monotone
/// decreasing for backward runs).
///
/// States are stored in one flat, contiguous buffer (`len × dim`,
/// row-major) rather than one heap allocation per record, so recording an
/// accepted step is a bounds-checked `memcpy` into the tail of a growing
/// vector — the integration hot path performs no per-step allocation
/// beyond the amortized growth of the buffer itself.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Solution {
    times: Vec<f64>,
    /// Flat state storage: record `i` occupies `data[i*dim .. (i+1)*dim]`.
    data: Vec<f64>,
    /// State dimension; fixed by the first [`Solution::push`].
    dim: usize,
}

impl Solution {
    /// Creates an empty solution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a solution with pre-allocated capacity for `n` records
    /// (state storage is reserved on the first push, once the dimension
    /// is known).
    pub fn with_capacity(n: usize) -> Self {
        Solution {
            times: Vec::with_capacity(n),
            data: Vec::new(),
            dim: 0,
        }
    }

    /// Appends a `(t, y)` record by copying `y` into the flat buffer.
    ///
    /// # Panics
    ///
    /// Panics if `y` is empty, or if its length differs from the
    /// dimension established by the first push.
    pub fn push(&mut self, t: f64, y: &[f64]) {
        if self.times.is_empty() {
            assert!(!y.is_empty(), "cannot record a zero-dimensional state");
            self.dim = y.len();
            // Honor a with_capacity() hint now that the dimension is known.
            if self.data.capacity() < self.times.capacity() * self.dim {
                self.data
                    .reserve(self.times.capacity() * self.dim - self.data.capacity());
            }
        } else {
            assert_eq!(y.len(), self.dim, "state dimension changed mid-trajectory");
        }
        self.times.push(t);
        self.data.extend_from_slice(y);
    }

    /// The state dimension (0 while empty).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of recorded points.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Returns `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// The recorded times.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Iterates over the recorded states in order (parallel to
    /// [`Solution::times`]), each as a `&[f64]` slice of the flat buffer.
    pub fn states(&self) -> std::slice::ChunksExact<'_, f64> {
        self.data.chunks_exact(self.dim.max(1))
    }

    /// The entire flat state buffer (`len × dim`, row-major) — the
    /// zero-copy view batch consumers and FFI-style exporters want.
    pub fn flat_states(&self) -> &[f64] {
        &self.data
    }

    /// The state at record `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn state(&self, i: usize) -> &[f64] {
        assert!(i < self.len(), "record index {i} out of bounds");
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// The final recorded time.
    ///
    /// # Panics
    ///
    /// Panics if the solution is empty.
    pub fn last_time(&self) -> f64 {
        *self.times.last().expect("empty solution")
    }

    /// The final recorded state.
    ///
    /// # Panics
    ///
    /// Panics if the solution is empty.
    pub fn last_state(&self) -> &[f64] {
        assert!(!self.is_empty(), "empty solution");
        self.state(self.len() - 1)
    }

    /// Linearly interpolates the state at time `t`.
    ///
    /// Works for both forward and backward trajectories; `t` outside the
    /// recorded range clamps to the nearest endpoint.
    ///
    /// # Errors
    ///
    /// Returns [`OdeError::InvalidStep`] if the solution is empty.
    pub fn sample(&self, t: f64) -> Result<Vec<f64>, OdeError> {
        let mut out = vec![0.0; self.dim];
        self.sample_into(t, &mut out)?;
        Ok(out)
    }

    /// Allocation-free variant of [`Solution::sample`]: interpolates the
    /// state at `t` into the caller's buffer. This is the hot-path entry
    /// used by the co-state right-hand side, which samples the forward
    /// trajectory on every RHS evaluation.
    ///
    /// # Errors
    ///
    /// Returns [`OdeError::InvalidStep`] if the solution is empty or
    /// `out.len() != dim`.
    pub fn sample_into(&self, t: f64, out: &mut [f64]) -> Result<(), OdeError> {
        if self.is_empty() {
            return Err(OdeError::InvalidStep(
                "cannot sample an empty solution".into(),
            ));
        }
        if out.len() != self.dim {
            return Err(OdeError::InvalidStep(format!(
                "sample buffer has length {}, state dimension is {}",
                out.len(),
                self.dim
            )));
        }
        if self.len() == 1 {
            out.copy_from_slice(self.state(0));
            return Ok(());
        }
        let forward = self.times[0] <= *self.times.last().expect("non-empty");
        // Normalize to a forward search by mapping times through a sign.
        let key = |x: f64| if forward { x } else { -x };
        let tq = key(t);
        if tq <= key(self.times[0]) {
            out.copy_from_slice(self.state(0));
            return Ok(());
        }
        if tq >= key(*self.times.last().expect("non-empty")) {
            out.copy_from_slice(self.last_state());
            return Ok(());
        }
        // Find segment via binary search on the (sign-normalized) times.
        let idx = self
            .times
            .partition_point(|&x| key(x) <= tq)
            .saturating_sub(1)
            .min(self.len() - 2);
        let (t0, t1) = (self.times[idx], self.times[idx + 1]);
        let w = if t1 == t0 { 0.0 } else { (t - t0) / (t1 - t0) };
        let (a, b) = (self.state(idx), self.state(idx + 1));
        for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
            *o = x + w * (y - x);
        }
        Ok(())
    }

    /// Appends every record of `other` from `from` onward (an index into
    /// `other`); used to stitch trajectory segments without re-copying
    /// through intermediate `Vec<f64>` states.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ (and both are non-empty).
    pub fn extend_from(&mut self, other: &Solution, from: usize) {
        for (t, y) in other.times.iter().zip(other.states()).skip(from) {
            self.push(*t, y);
        }
    }

    /// Iterates over `(t, state)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, &[f64])> {
        self.times.iter().copied().zip(self.states())
    }
}

impl FromIterator<(f64, Vec<f64>)> for Solution {
    fn from_iter<T: IntoIterator<Item = (f64, Vec<f64>)>>(iter: T) -> Self {
        let mut sol = Solution::new();
        for (t, y) in iter {
            sol.push(t, &y);
        }
        sol
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_solution() -> Solution {
        // y(t) = (t, 2t) sampled at t = 0, 1, 2.
        (0..3)
            .map(|i| (i as f64, vec![i as f64, 2.0 * i as f64]))
            .collect()
    }

    #[test]
    fn push_and_accessors() {
        let sol = linear_solution();
        assert_eq!(sol.len(), 3);
        assert!(!sol.is_empty());
        assert_eq!(sol.dim(), 2);
        assert_eq!(sol.last_time(), 2.0);
        assert_eq!(sol.last_state(), &[2.0, 4.0]);
        assert_eq!(sol.state(1), &[1.0, 2.0]);
        assert_eq!(sol.iter().count(), 3);
        assert_eq!(sol.states().count(), 3);
        assert_eq!(sol.flat_states(), &[0.0, 0.0, 1.0, 2.0, 2.0, 4.0]);
    }

    #[test]
    fn sample_interpolates_linearly() {
        let sol = linear_solution();
        let y = sol.sample(0.5).unwrap();
        assert_eq!(y, vec![0.5, 1.0]);
        let y = sol.sample(1.75).unwrap();
        assert!((y[0] - 1.75).abs() < 1e-15);
    }

    #[test]
    fn sample_clamps_out_of_range() {
        let sol = linear_solution();
        assert_eq!(sol.sample(-1.0).unwrap(), vec![0.0, 0.0]);
        assert_eq!(sol.sample(99.0).unwrap(), vec![2.0, 4.0]);
    }

    #[test]
    fn sample_exact_nodes() {
        let sol = linear_solution();
        assert_eq!(sol.sample(1.0).unwrap(), vec![1.0, 2.0]);
    }

    #[test]
    fn sample_into_matches_sample_without_allocating_per_call() {
        let sol = linear_solution();
        let mut buf = [0.0; 2];
        for t in [-1.0, 0.0, 0.3, 1.0, 1.9, 5.0] {
            sol.sample_into(t, &mut buf).unwrap();
            assert_eq!(buf.to_vec(), sol.sample(t).unwrap(), "t = {t}");
        }
        let mut wrong = [0.0; 3];
        assert!(sol.sample_into(0.5, &mut wrong).is_err());
    }

    #[test]
    fn sample_backward_trajectory() {
        // Times decreasing: a costate sweep from tf = 2 down to 0.
        let sol: Solution = (0..3)
            .map(|i| {
                let t = 2.0 - i as f64;
                (t, vec![t * 10.0])
            })
            .collect();
        let y = sol.sample(1.5).unwrap();
        assert!((y[0] - 15.0).abs() < 1e-12);
        assert_eq!(sol.sample(5.0).unwrap(), vec![20.0]); // clamps to t = 2 end
        assert_eq!(sol.sample(-1.0).unwrap(), vec![0.0]); // clamps to t = 0 end
    }

    #[test]
    fn sample_empty_errors() {
        let sol = Solution::new();
        assert!(sol.sample(0.0).is_err());
        assert!(sol.sample_into(0.0, &mut []).is_err());
    }

    #[test]
    fn sample_single_point() {
        let mut sol = Solution::new();
        sol.push(1.0, &[7.0]);
        assert_eq!(sol.sample(0.0).unwrap(), vec![7.0]);
        assert_eq!(sol.sample(2.0).unwrap(), vec![7.0]);
    }

    #[test]
    fn with_capacity_starts_empty() {
        let sol = Solution::with_capacity(16);
        assert!(sol.is_empty());
        assert_eq!(sol.dim(), 0);
    }

    #[test]
    fn extend_from_skips_prefix() {
        let a = linear_solution();
        let mut b = Solution::new();
        b.push(0.0, &[0.0, 0.0]);
        b.extend_from(&a, 1);
        assert_eq!(b.len(), 3);
        assert_eq!(b.state(1), &[1.0, 2.0]);
        assert_eq!(b.last_state(), &[2.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "dimension changed")]
    fn ragged_push_panics() {
        let mut sol = Solution::new();
        sol.push(0.0, &[1.0, 2.0]);
        sol.push(1.0, &[1.0]);
    }
}
