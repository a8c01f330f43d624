//! The flat-state layout contract shared by every compartment model.
//!
//! A state is stored compartment-major: band `c` occupies
//! `flat[c·n .. (c+1)·n]` for `n = n_classes`. The paper's
//! `[S.., I.., R..]` layout is the `n_compartments = 3` special case, so
//! [`rumor_core::state::NetworkState::to_flat`] already produces this
//! shape and the generalized code paths interoperate with the legacy
//! ones without any reshuffling.

use crate::{CoreError, Result};

/// A fixed `(n_classes, n_compartments)` flat layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompartmentLayout {
    n_classes: usize,
    n_compartments: usize,
}

impl CompartmentLayout {
    /// Creates a layout.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if either dimension is
    /// zero.
    pub fn new(n_classes: usize, n_compartments: usize) -> Result<Self> {
        if n_classes == 0 {
            return Err(CoreError::InvalidParameter {
                name: "n_classes",
                message: "layout needs at least one degree class".into(),
            });
        }
        if n_compartments == 0 {
            return Err(CoreError::InvalidParameter {
                name: "n_compartments",
                message: "layout needs at least one compartment".into(),
            });
        }
        Ok(CompartmentLayout {
            n_classes,
            n_compartments,
        })
    }

    /// Number of degree classes per band.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Number of compartment bands.
    pub fn n_compartments(&self) -> usize {
        self.n_compartments
    }

    /// Length of a flat state vector: `n_classes × n_compartments`.
    pub fn flat_dim(&self) -> usize {
        self.n_classes * self.n_compartments
    }

    /// The uniform initial condition shared by every model: each class
    /// starts with `1 − i0` in band 0 (susceptible) and `i0` in band 1 (the
    /// rumor spreaders), every other band empty. On the 3-band layout this
    /// is `NetworkState::initial_uniform(n, i0).to_flat()`, under the same
    /// rule.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if `i0 ∉ (0, 1]` or the
    /// layout has fewer than two bands.
    pub fn initial_uniform(&self, i0: f64) -> Result<Vec<f64>> {
        if self.n_compartments < 2 {
            return Err(CoreError::InvalidParameter {
                name: "n_compartments",
                message: "a uniform initial condition needs a susceptible and a spreader band"
                    .into(),
            });
        }
        if !(i0 > 0.0 && i0 <= 1.0) {
            return Err(CoreError::InvalidParameter {
                name: "i0",
                message: format!("initial infection must lie in (0, 1], got {i0}"),
            });
        }
        let n = self.n_classes;
        let mut y = vec![0.0; self.flat_dim()];
        y[..n].fill(1.0 - i0);
        y[n..2 * n].fill(i0);
        Ok(y)
    }

    /// Band `c` of a flat state.
    ///
    /// # Panics
    ///
    /// Panics if `c >= n_compartments` or the slice is shorter than the
    /// layout's flat dimension.
    pub fn band<'a>(&self, flat: &'a [f64], c: usize) -> &'a [f64] {
        assert!(c < self.n_compartments, "band {c} out of range");
        &flat[c * self.n_classes..(c + 1) * self.n_classes]
    }

    /// Validates a flat state in place: length must match, values must be
    /// finite, and tiny negatives are clamped to zero with exactly the
    /// `x.max(0.0)` rule of
    /// [`rumor_core::state::NetworkState::from_flat`] — so a sanitized
    /// 3-band sample holds the same bits as that state's bands.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimensionMismatch`] on a malformed length and
    /// [`CoreError::InvalidParameter`] on non-finite values.
    pub fn sanitize(&self, flat: &mut [f64]) -> Result<()> {
        if flat.len() != self.flat_dim() {
            return Err(CoreError::DimensionMismatch {
                expected: self.flat_dim(),
                found: flat.len(),
            });
        }
        if flat.iter().any(|x| !x.is_finite()) {
            return Err(CoreError::InvalidParameter {
                name: "flat",
                message: "state contains non-finite values".into(),
            });
        }
        for x in flat.iter_mut() {
            *x = x.max(0.0);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates_dimensions() {
        assert!(CompartmentLayout::new(0, 3).is_err());
        assert!(CompartmentLayout::new(3, 0).is_err());
        let l = CompartmentLayout::new(5, 4).unwrap();
        assert_eq!(l.n_classes(), 5);
        assert_eq!(l.n_compartments(), 4);
        assert_eq!(l.flat_dim(), 20);
    }

    #[test]
    fn bands_slice_compartment_major() {
        let l = CompartmentLayout::new(2, 3).unwrap();
        let flat = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        assert_eq!(l.band(&flat, 0), &[1.0, 2.0]);
        assert_eq!(l.band(&flat, 1), &[3.0, 4.0]);
        assert_eq!(l.band(&flat, 2), &[5.0, 6.0]);
    }

    #[test]
    fn initial_uniform_fills_the_first_two_bands() {
        let l = CompartmentLayout::new(2, 4).unwrap();
        assert_eq!(
            l.initial_uniform(0.25).unwrap(),
            vec![0.75, 0.75, 0.25, 0.25, 0.0, 0.0, 0.0, 0.0]
        );
        assert_eq!(l.initial_uniform(1.0).unwrap()[..2], [0.0, 0.0]);
        for bad in [0.0, -0.2, 1.5, f64::NAN] {
            assert!(l.initial_uniform(bad).is_err(), "i0 = {bad}");
        }
        assert!(CompartmentLayout::new(2, 1)
            .unwrap()
            .initial_uniform(0.1)
            .is_err());
    }

    #[test]
    fn sanitize_clamps_negatives() {
        let l = CompartmentLayout::new(1, 3).unwrap();
        let mut flat = [-1e-12, 0.5, 0.5];
        l.sanitize(&mut flat).unwrap();
        assert_eq!(flat[0], 0.0);
        let mut short = [0.1, 0.2];
        assert!(l.sanitize(&mut short).is_err());
    }
}
