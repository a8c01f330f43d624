//! The oracle both edge-list entry points are held to:
//! `Graph::from_edges` on the edges a test rendered, with ids interned in
//! first-appearance order. It parses nothing.
//!
//! Test code only: the `streaming` unit tests and `tests/proptests.rs`
//! both include this file by path.

use rumor_net::graph::{EdgeKind, Graph};
use std::collections::HashMap;

/// The graph an edge list of `edges` must load as.
pub fn expected(edges: &[(u64, u64)], kind: EdgeKind) -> Graph {
    let mut ids = HashMap::new();
    let mut dense = |raw: u64| {
        let next = ids.len();
        *ids.entry(raw).or_insert(next)
    };
    let dense_edges: Vec<(usize, usize)> = edges
        .iter()
        .map(|&(u, v)| {
            let u = dense(u);
            (u, dense(v))
        })
        .collect();
    Graph::from_edges(ids.len(), &dense_edges, kind).expect("oracle graph")
}
