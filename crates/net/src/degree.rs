//! Degree distributions and degree classes.
//!
//! The heterogeneous SIR model partitions users into `n` groups of equal
//! social connectivity; [`DegreeClasses`] is exactly that partition: the
//! sorted list of distinct degrees `k_i` with their probabilities
//! `P(k_i)` and the induced mean degree `⟨k⟩`. It is the sole interface
//! between a network (real or synthetic) and the ODE model in
//! `rumor-core`.

use crate::graph::Graph;
use crate::{NetError, Result};

/// The distinct-degree partition of a network.
///
/// # Example
///
/// ```
/// use rumor_net::degree::DegreeClasses;
///
/// # fn main() -> Result<(), rumor_net::NetError> {
/// // Three nodes of degree 1, one node of degree 3.
/// let classes = DegreeClasses::from_degrees(&[1, 1, 1, 3])?;
/// assert_eq!(classes.len(), 2);
/// assert_eq!(classes.degree(0), 1);
/// assert!((classes.probability(0) - 0.75).abs() < 1e-12);
/// assert!((classes.mean_degree() - 1.5).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeClasses {
    degrees: Vec<usize>,
    probabilities: Vec<f64>,
    counts: Vec<usize>,
    mean_degree: f64,
}

impl DegreeClasses {
    /// Builds the partition from a raw degree sequence.
    ///
    /// Zero-degree nodes are excluded: isolated users neither receive nor
    /// spread rumors, and including `k = 0` would make the group's
    /// infection term vanish identically.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::EmptyGraph`] if no node has positive degree.
    pub fn from_degrees(degrees: &[usize]) -> Result<Self> {
        let mut histogram: std::collections::BTreeMap<usize, usize> =
            std::collections::BTreeMap::new();
        for &d in degrees {
            if d > 0 {
                *histogram.entry(d).or_insert(0) += 1;
            }
        }
        if histogram.is_empty() {
            return Err(NetError::EmptyGraph);
        }
        let total: usize = histogram.values().sum();
        let mut ks = Vec::with_capacity(histogram.len());
        let mut ps = Vec::with_capacity(histogram.len());
        let mut cs = Vec::with_capacity(histogram.len());
        let mut mean = 0.0;
        for (&k, &c) in &histogram {
            let p = c as f64 / total as f64;
            ks.push(k);
            ps.push(p);
            cs.push(c);
            mean += k as f64 * p;
        }
        Ok(DegreeClasses {
            degrees: ks,
            probabilities: ps,
            counts: cs,
            mean_degree: mean,
        })
    }

    /// Builds the partition from a graph's degree sequence.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::EmptyGraph`] if the graph has no edges.
    pub fn from_graph(graph: &Graph) -> Result<Self> {
        Self::from_degrees(&graph.degrees())
    }

    /// Number of distinct degree classes (the paper's `n`).
    pub fn len(&self) -> usize {
        self.degrees.len()
    }

    /// `true` if there are no classes (never constructed this way).
    pub fn is_empty(&self) -> bool {
        self.degrees.is_empty()
    }

    /// The degree `k_i` of class `i` (sorted ascending).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn degree(&self, i: usize) -> usize {
        self.degrees[i]
    }

    /// The probability `P(k_i)` of class `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn probability(&self, i: usize) -> f64 {
        self.probabilities[i]
    }

    /// The number of nodes in class `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn count(&self, i: usize) -> usize {
        self.counts[i]
    }

    /// All class degrees, ascending.
    pub fn degrees(&self) -> &[usize] {
        &self.degrees
    }

    /// All class probabilities (parallel to [`DegreeClasses::degrees`]).
    pub fn probabilities(&self) -> &[f64] {
        &self.probabilities
    }

    /// Mean degree `⟨k⟩ = Σ k P(k)`.
    pub fn mean_degree(&self) -> f64 {
        self.mean_degree
    }

    /// Maximum degree.
    ///
    /// # Panics
    ///
    /// Panics if the partition is empty (cannot happen via constructors).
    pub fn max_degree(&self) -> usize {
        *self.degrees.last().expect("non-empty partition")
    }

    /// Minimum degree.
    ///
    /// # Panics
    ///
    /// Panics if the partition is empty (cannot happen via constructors).
    pub fn min_degree(&self) -> usize {
        *self.degrees.first().expect("non-empty partition")
    }

    /// Iterates over `(degree, probability)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.degrees
            .iter()
            .copied()
            .zip(self.probabilities.iter().copied())
    }

    /// Finds the class index of a given degree, if present.
    pub fn class_of(&self, degree: usize) -> Option<usize> {
        self.degrees.binary_search(&degree).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{EdgeKind, Graph};

    #[test]
    fn from_degrees_basic_partition() {
        let c = DegreeClasses::from_degrees(&[1, 2, 2, 3, 3, 3]).unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.degrees(), &[1, 2, 3]);
        assert!((c.probability(2) - 0.5).abs() < 1e-12);
        assert_eq!(c.count(1), 2);
        assert!((c.probabilities().iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_degrees_excluded() {
        let c = DegreeClasses::from_degrees(&[0, 0, 1, 1]).unwrap();
        assert_eq!(c.len(), 1);
        assert_eq!(c.degree(0), 1);
        assert!((c.probability(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn all_isolated_is_error() {
        assert!(matches!(
            DegreeClasses::from_degrees(&[0, 0]),
            Err(NetError::EmptyGraph)
        ));
        assert!(DegreeClasses::from_degrees(&[]).is_err());
    }

    #[test]
    fn mean_degree_matches_hand_computation() {
        let c = DegreeClasses::from_degrees(&[1, 3]).unwrap();
        assert!((c.mean_degree() - 2.0).abs() < 1e-12);
        let first_moment: f64 = c.iter().map(|(k, p)| k as f64 * p).sum();
        assert!((first_moment - c.mean_degree()).abs() < 1e-12);
    }

    #[test]
    fn from_graph_path() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)], EdgeKind::Undirected).unwrap();
        let c = DegreeClasses::from_graph(&g).unwrap();
        assert_eq!(c.degrees(), &[1, 2]);
        assert!((c.probability(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn class_lookup() {
        let c = DegreeClasses::from_degrees(&[1, 5, 5, 9]).unwrap();
        assert_eq!(c.class_of(5), Some(1));
        assert_eq!(c.class_of(2), None);
        assert_eq!(c.min_degree(), 1);
        assert_eq!(c.max_degree(), 9);
    }

    #[test]
    fn iter_yields_pairs_in_order() {
        let c = DegreeClasses::from_degrees(&[2, 2, 7]).unwrap();
        let pairs: Vec<(usize, f64)> = c.iter().collect();
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[0].0, 2);
        assert_eq!(pairs[1].0, 7);
    }
}
