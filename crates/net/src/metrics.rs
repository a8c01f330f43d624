//! Connected components: the connectivity precondition the ABM
//! validation tests check on the graphs they simulate.

use crate::graph::Graph;

/// Connected components via breadth-first search (edges treated as
/// undirected regardless of [`crate::graph::EdgeKind`]).
///
/// Returns a vector mapping each node to a component id in `0..n_components`,
/// ids assigned in discovery order.
pub fn connected_components(graph: &Graph) -> Vec<usize> {
    let n = graph.node_count();
    // Build reverse adjacency on the fly for directed graphs.
    let mut rev: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (u, v) in graph.iter_arcs() {
        rev[v].push(u as u32);
    }
    let mut comp = vec![usize::MAX; n];
    let mut next = 0;
    let mut queue = std::collections::VecDeque::new();
    for start in 0..n {
        if comp[start] != usize::MAX {
            continue;
        }
        comp[start] = next;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for &v in graph.neighbors(u) {
                let v = v as usize;
                if comp[v] == usize::MAX {
                    comp[v] = next;
                    queue.push_back(v);
                }
            }
            for &v in &rev[u] {
                let v = v as usize;
                if comp[v] == usize::MAX {
                    comp[v] = next;
                    queue.push_back(v);
                }
            }
        }
        next += 1;
    }
    comp
}

/// Size of the largest connected component (0 for an empty graph).
pub fn largest_component_size(graph: &Graph) -> usize {
    let comp = connected_components(graph);
    let mut counts = std::collections::HashMap::new();
    for c in comp {
        *counts.entry(c).or_insert(0usize) += 1;
    }
    counts.values().copied().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{EdgeKind, Graph};

    fn path(n: usize) -> Graph {
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        Graph::from_edges(n, &edges, EdgeKind::Undirected).unwrap()
    }

    fn component_count(graph: &Graph) -> usize {
        connected_components(graph)
            .iter()
            .max()
            .map_or(0, |m| m + 1)
    }

    #[test]
    fn single_component_path() {
        let g = path(5);
        assert_eq!(component_count(&g), 1);
        assert_eq!(largest_component_size(&g), 5);
    }

    #[test]
    fn two_components() {
        let g = Graph::from_edges(5, &[(0, 1), (2, 3)], EdgeKind::Undirected).unwrap();
        let comp = connected_components(&g);
        assert_eq!(component_count(&g), 3); // {0,1}, {2,3}, {4}
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[2], comp[3]);
        assert_ne!(comp[0], comp[2]);
        assert_eq!(largest_component_size(&g), 2);
    }

    #[test]
    fn directed_components_are_weak() {
        // 0 → 1 ← 2: weakly connected as one component.
        let g = Graph::from_edges(3, &[(0, 1), (2, 1)], EdgeKind::Directed).unwrap();
        assert_eq!(component_count(&g), 1);
    }
}
