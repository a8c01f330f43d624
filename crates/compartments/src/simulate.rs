//! Grid simulation of compartment models — the one simulator of the
//! workspace. The paper model runs through it as
//! [`crate::paper::PaperSir`], beside the scenario models of
//! `rumor-models`.

use crate::layout::CompartmentLayout;
use crate::model::{CompartmentModel, CompartmentOde};
use crate::schedule::MultiControlSchedule;
use crate::{CoreError, Result};
use rumor_ode::integrator::{Adaptive, AdaptiveConfig};
use rumor_ode::solution::Solution;

/// Output grid and integrator tolerances. The defaults (201 samples,
/// `rtol = 1e-8`, `atol = 1e-10`) are the ones behind every simulated
/// figure and the `/v1/simulate` endpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct CompartmentSimOptions {
    /// Number of uniformly spaced output samples (including both ends).
    pub n_out: usize,
    /// Integrator tolerances.
    pub ode: AdaptiveConfig,
}

impl Default for CompartmentSimOptions {
    fn default() -> Self {
        CompartmentSimOptions {
            n_out: 201,
            ode: AdaptiveConfig {
                rtol: 1e-8,
                atol: 1e-10,
                ..AdaptiveConfig::default()
            },
        }
    }
}

/// A sampled trajectory of a compartment model: sanitized flat states on
/// an output grid, with band access through the model's layout.
#[derive(Debug, Clone, PartialEq)]
pub struct CompartmentTrajectory {
    layout: CompartmentLayout,
    times: Vec<f64>,
    states: Vec<Vec<f64>>,
}

impl CompartmentTrajectory {
    /// Assembles a trajectory from parts (lengths must agree and states
    /// must match the layout).
    ///
    /// # Panics
    ///
    /// Panics on mismatched lengths, an empty grid, or a state whose
    /// length differs from the layout's flat dimension.
    pub fn from_parts(layout: CompartmentLayout, times: Vec<f64>, states: Vec<Vec<f64>>) -> Self {
        assert_eq!(times.len(), states.len(), "times/states length mismatch");
        assert!(!times.is_empty(), "trajectory cannot be empty");
        assert!(
            states.iter().all(|s| s.len() == layout.flat_dim()),
            "state length must match the layout"
        );
        CompartmentTrajectory {
            layout,
            times,
            states,
        }
    }

    /// Samples `sol` at every time of `grid` and sanitizes each sample
    /// through [`CompartmentLayout::sanitize`], which clamps with the rule
    /// of `NetworkState::from_flat`.
    ///
    /// # Errors
    ///
    /// Propagates sampling failures and rejects non-finite samples.
    ///
    /// # Panics
    ///
    /// Panics if `grid` is empty.
    pub fn from_solution(layout: CompartmentLayout, sol: &Solution, grid: &[f64]) -> Result<Self> {
        let mut states = Vec::with_capacity(grid.len());
        for &t in grid {
            let mut flat = sol.sample(t)?;
            layout.sanitize(&mut flat)?;
            states.push(flat);
        }
        Ok(Self::from_parts(layout, grid.to_vec(), states))
    }

    /// Sample times.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Sampled flat states.
    pub fn states(&self) -> &[Vec<f64>] {
        &self.states
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the trajectory is empty (never true for a constructed
    /// trajectory).
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// The final flat state.
    pub fn last_state(&self) -> &[f64] {
        self.states.last().expect("non-empty trajectory")
    }

    /// Band `c` of sample `idx`.
    pub fn band(&self, idx: usize, c: usize) -> &[f64] {
        self.layout.band(&self.states[idx], c)
    }

    /// The per-sample total density of compartment `c`
    /// (`Σ_i C_{c,i}(t)`).
    pub fn total_series(&self, c: usize) -> Vec<f64> {
        self.states
            .iter()
            .map(|s| self.layout.band(s, c).iter().sum())
            .collect()
    }

    /// Per-sample infinity-norm distance to the flat state `target` over
    /// every compartment — the `Dist0(t)` / `Dist+(t)` series of Figs. 2(a)
    /// and 3(a) for `target = E0.to_flat()` or `E+.to_flat()`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimensionMismatch`] if `target` does not match
    /// the layout's flat dimension.
    pub fn dist_series(&self, target: &[f64]) -> Result<Vec<f64>> {
        if target.len() != self.layout.flat_dim() {
            return Err(CoreError::DimensionMismatch {
                expected: self.layout.flat_dim(),
                found: target.len(),
            });
        }
        Ok(self
            .states
            .iter()
            .map(|s| {
                s.iter()
                    .zip(target)
                    .fold(0.0_f64, |d, (a, b)| d.max((a - b).abs()))
            })
            .collect())
    }
}

/// Simulates a compartment model on an explicit output grid
/// (`grid[0] == 0`, non-decreasing), sampled by
/// [`CompartmentTrajectory::from_solution`]. Single solves run serially:
/// a caller that wants an inner pool binds [`CompartmentOde::with_pool`]
/// itself, with the same bits.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParameter`] for a malformed grid or
/// initial state, and propagates integration failures.
pub fn simulate_compartments_grid<M: CompartmentModel, C: MultiControlSchedule>(
    model: &M,
    control: C,
    y0: &[f64],
    grid: &[f64],
    options: &CompartmentSimOptions,
) -> Result<CompartmentTrajectory> {
    if grid.len() < 2 || grid[0] != 0.0 || grid.windows(2).any(|w| w[1] < w[0]) {
        return Err(CoreError::InvalidParameter {
            name: "grid",
            message: "output grid must start at 0 and be non-decreasing with >= 2 nodes".into(),
        });
    }
    if y0.len() != model.state_dim() {
        return Err(CoreError::DimensionMismatch {
            expected: model.state_dim(),
            found: y0.len(),
        });
    }
    let tf = *grid.last().expect("non-empty grid");
    let sys = CompartmentOde::new(model, control);
    let sol = Adaptive::with_config(options.ode).integrate(&sys, 0.0, y0, tf)?;
    CompartmentTrajectory::from_solution(model.layout(), &sol, grid)
}

/// Simulates over `[0, tf]` on a uniform `options.n_out`-point grid.
///
/// # Errors
///
/// As [`simulate_compartments_grid`], plus
/// [`CoreError::InvalidParameter`] for a non-positive horizon or fewer
/// than two output points.
pub fn simulate_compartments<M: CompartmentModel, C: MultiControlSchedule>(
    model: &M,
    control: C,
    y0: &[f64],
    tf: f64,
    options: &CompartmentSimOptions,
) -> Result<CompartmentTrajectory> {
    if !(tf > 0.0) || !tf.is_finite() {
        return Err(CoreError::InvalidParameter {
            name: "tf",
            message: format!("final time must be positive and finite, got {tf}"),
        });
    }
    if options.n_out < 2 {
        return Err(CoreError::InvalidParameter {
            name: "n_out",
            message: "need at least two output samples".into(),
        });
    }
    let grid: Vec<f64> = (0..options.n_out)
        .map(|i| tf * i as f64 / (options.n_out - 1) as f64)
        .collect();
    simulate_compartments_grid(model, control, y0, &grid, options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::PaperSir;
    use crate::schedule::ConstantMultiControl;

    fn model() -> PaperSir {
        PaperSir::from_parts(vec![0.1, 0.2, 0.4], vec![0.05, 0.1, 0.2], 0.01, 5.0, 10.0).unwrap()
    }

    fn y0() -> Vec<f64> {
        vec![0.9, 0.9, 0.9, 0.1, 0.1, 0.1, 0.0, 0.0, 0.0]
    }

    #[test]
    fn uniform_simulation_runs_and_conserves_mass() {
        let m = model();
        let traj = simulate_compartments(
            &m,
            ConstantMultiControl::new(vec![0.05, 0.02]),
            &y0(),
            10.0,
            &CompartmentSimOptions {
                n_out: 21,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(traj.len(), 21);
        assert_eq!(traj.times()[0], 0.0);
        assert_eq!(traj.times()[20], 10.0);
        assert!(!traj.is_empty());
        let last = traj.last_state();
        for j in 0..3 {
            let mass = last[j] + last[3 + j] + last[6 + j];
            assert!((mass - 1.0).abs() < 1e-6, "class {j}: mass {mass}");
        }
        // Band access agrees with the total series.
        let i_tot: f64 = traj.band(traj.len() - 1, 1).iter().sum();
        assert!((traj.total_series(1).last().unwrap() - i_tot).abs() < 1e-15);
    }

    #[test]
    fn dist_series_is_the_sup_norm_distance_per_sample() {
        let m = model();
        let traj = simulate_compartments(
            &m,
            ConstantMultiControl::new(vec![0.05, 0.02]),
            &y0(),
            10.0,
            &CompartmentSimOptions {
                n_out: 5,
                ..Default::default()
            },
        )
        .unwrap();
        let dist = traj.dist_series(&y0()).unwrap();
        assert_eq!(dist.len(), 5);
        assert_eq!(dist[0], 0.0);
        let last = traj.last_state();
        let expect = last
            .iter()
            .zip(y0())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert_eq!(dist[4], expect);
        assert!(dist[4] > 0.0);
        assert!(traj.dist_series(&[0.0; 3]).is_err());
    }

    #[test]
    fn grid_validation() {
        let m = model();
        let c = ConstantMultiControl::new(vec![0.0; 2]);
        let opts = CompartmentSimOptions::default();
        assert!(simulate_compartments_grid(&m, &c, &y0(), &[0.0], &opts).is_err());
        assert!(simulate_compartments_grid(&m, &c, &y0(), &[1.0, 2.0], &opts).is_err());
        assert!(simulate_compartments_grid(&m, &c, &y0(), &[0.0, 2.0, 1.0], &opts).is_err());
        assert!(simulate_compartments_grid(&m, &c, &[0.1; 4], &[0.0, 1.0], &opts).is_err());
        assert!(simulate_compartments(&m, &c, &y0(), 0.0, &opts).is_err());
        assert!(simulate_compartments(
            &m,
            &c,
            &y0(),
            1.0,
            &CompartmentSimOptions {
                n_out: 1,
                ..Default::default()
            }
        )
        .is_err());
    }
}
