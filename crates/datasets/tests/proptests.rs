//! Property-based tests of dataset synthesis and edge-list I/O.

use proptest::prelude::*;
use rumor_datasets::digg::{analytic_mean_degree, calibrate_gamma, DiggConfig, DiggDataset};
use rumor_datasets::edgelist::{read_edge_list, write_edge_list};
use rumor_datasets::streaming::load_edge_list_path;
use rumor_net::graph::{EdgeKind, Graph};
use std::sync::atomic::{AtomicUsize, Ordering};

#[path = "support/from_edges_oracle.rs"]
mod from_edges_oracle;
use from_edges_oracle::expected;

/// Renders random edges as edge-list text with varied (but valid)
/// formatting: separator choice, optional comment and blank lines.
fn render_edge_list(edges: &[(u64, u64)], style: u64) -> String {
    let mut text = String::new();
    if style.is_multiple_of(3) {
        text.push_str("# generated fixture\n");
    }
    for (i, &(u, v)) in edges.iter().enumerate() {
        let sep = match (style as usize + i) % 4 {
            0 => " ",
            1 => "\t",
            2 => ",",
            _ => " , ",
        };
        text.push_str(&format!("{u}{sep}{v}\n"));
        if (style as usize + i).is_multiple_of(7) {
            text.push('\n');
        }
    }
    text
}

/// Writes `contents` to a unique temp file, runs `f`, removes the file.
fn with_temp_file<T>(contents: &str, f: impl FnOnce(&std::path::Path) -> T) -> T {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let path = std::env::temp_dir().join(format!(
        "rumor_dataset_prop_{}_{}.txt",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&path, contents).unwrap();
    let out = f(&path);
    let _ = std::fs::remove_file(&path);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn calibration_hits_any_achievable_mean(target in 2.0..40.0_f64) {
        let (k_min, k_max) = (1, 500);
        let gamma = calibrate_gamma(target, k_min, k_max).unwrap();
        prop_assert!(gamma > 1.0 && gamma < 6.0);
        let mean = analytic_mean_degree(gamma, k_min, k_max);
        prop_assert!((mean - target).abs() < 1e-6, "mean {mean} vs target {target}");
    }

    #[test]
    fn analytic_mean_is_monotone_decreasing_in_gamma(
        g1 in 1.1..3.0_f64,
        delta in 0.05..2.0_f64,
    ) {
        let m1 = analytic_mean_degree(g1, 1, 300);
        let m2 = analytic_mean_degree(g1 + delta, 1, 300);
        prop_assert!(m2 < m1);
    }

    #[test]
    fn synthesized_dataset_respects_bounds(seed in 0u64..500) {
        let ds = DiggDataset::synthesize(DiggConfig {
            nodes: 800,
            k_min: 1,
            k_max: 120,
            target_mean_degree: 12.0,
            seed,
        })
        .unwrap();
        let s = ds.summary();
        prop_assert_eq!(s.nodes, 800);
        prop_assert!(s.min_degree >= 1);
        prop_assert!(s.max_degree <= 120);
        // Sampled mean within 25% of target at this small scale.
        prop_assert!((s.mean_degree - 12.0).abs() < 3.0, "mean {}", s.mean_degree);
        // Degree-sum is even (configuration-model realizability).
        prop_assert_eq!(s.arcs % 2, 0);
    }

    #[test]
    fn edge_list_roundtrip_arbitrary_graphs(
        edges in proptest::collection::vec((0usize..30, 0usize..30), 1..80),
    ) {
        // Drop self-loops (the writer emits each undirected edge once in
        // canonical orientation; a self-loop would be read back once and
        // counted differently).
        let edges: Vec<(usize, usize)> = edges.into_iter().filter(|(u, v)| u != v).collect();
        prop_assume!(!edges.is_empty());
        let g = Graph::from_edges(30, &edges, EdgeKind::Undirected).unwrap();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let back = read_edge_list(buf.as_slice(), EdgeKind::Undirected).unwrap();
        // Node ids are compacted on read, so compare degree multisets.
        let mut d1: Vec<usize> = g.degrees().into_iter().filter(|&d| d > 0).collect();
        let mut d2: Vec<usize> = back.degrees().into_iter().filter(|&d| d > 0).collect();
        d1.sort_unstable();
        d2.sort_unstable();
        prop_assert_eq!(d1, d2);
        prop_assert_eq!(g.edge_count(), back.edge_count());
    }

    #[test]
    fn streaming_ingest_is_identical_to_in_memory_reader(
        edges in proptest::collection::vec((0u64..400, 0u64..400), 0..120),
        style in 0u64..24,
        directed in 0u64..2,
    ) {
        let kind = if directed == 1 { EdgeKind::Directed } else { EdgeKind::Undirected };
        let text = render_edge_list(&edges, style);
        let reference = expected(&edges, kind);
        let read = read_edge_list(text.as_bytes(), kind).unwrap();
        let (streamed, stats) = with_temp_file(&text, |p| load_edge_list_path(p, kind)).unwrap();
        // Full structural identity: same offsets, targets, kind, edge
        // count (Graph equality is CSR equality) — and, consequently,
        // identical degree histograms.
        prop_assert_eq!(&read, &reference);
        prop_assert_eq!(&streamed, &reference);
        prop_assert_eq!(streamed.degrees(), reference.degrees());
        prop_assert_eq!(stats.edges as usize, edges.len());
        prop_assert_eq!(stats.nodes as usize, reference.node_count());
        prop_assert_eq!(stats.bytes as usize, text.len());
    }

    #[test]
    fn streaming_ingest_compacts_sparse_ids_like_in_memory_reader(
        picks in proptest::collection::vec((0usize..6, 0usize..6), 1..40),
    ) {
        // Ids straddle the interner's direct-map/hash-map boundary; the
        // compaction order (first appearance) must match the oracle's.
        const SOURCES: [u64; 6] = [0, 3, 17, 40_000_000, 1 << 30, u64::MAX - 1];
        const TARGETS: [u64; 6] = [1, 9, 256, 50_000_000, 1 << 40, u64::MAX];
        let edges: Vec<(u64, u64)> = picks
            .into_iter()
            .map(|(a, b)| (SOURCES[a], TARGETS[b]))
            .collect();
        let text = render_edge_list(&edges, 1);
        let reference = expected(&edges, EdgeKind::Undirected);
        let read = read_edge_list(text.as_bytes(), EdgeKind::Undirected).unwrap();
        let (streamed, _) =
            with_temp_file(&text, |p| load_edge_list_path(p, EdgeKind::Undirected)).unwrap();
        prop_assert_eq!(&read, &reference);
        prop_assert_eq!(&streamed, &reference);
        prop_assert_eq!(streamed.degrees(), reference.degrees());
    }

    #[test]
    fn sparse_id_reservation_does_not_change_compaction(
        raw in proptest::collection::vec((0u64..4360, 0u64..4360), 400..800),
    ) {
        // Dense id runs straddling the 2^24 direct-map limit, wide
        // enough that the hash fallback crosses its first reservation
        // slab: the geometric capacity reservation must be invisible —
        // first-appearance compaction order, and therefore the CSR,
        // stays the `Graph::from_edges` oracle's. Raw draws below
        // 200 stay as small direct-mapped ids; the rest shift to a band
        // of ids around the 2^24 boundary.
        let widen = |x: u64| if x < 200 { x } else { (1u64 << 24) - 64 + (x - 200) };
        let edges: Vec<(u64, u64)> = raw.into_iter().map(|(u, v)| (widen(u), widen(v))).collect();
        let text = render_edge_list(&edges, 2);
        let reference = expected(&edges, EdgeKind::Undirected);
        let read = read_edge_list(text.as_bytes(), EdgeKind::Undirected).unwrap();
        let (streamed, stats) =
            with_temp_file(&text, |p| load_edge_list_path(p, EdgeKind::Undirected)).unwrap();
        prop_assert_eq!(&read, &reference);
        prop_assert_eq!(&streamed, &reference);
        prop_assert_eq!(streamed.degrees(), reference.degrees());
        prop_assert_eq!(stats.nodes as usize, reference.node_count());
    }

    #[test]
    fn dataset_is_deterministic(seed in 0u64..100) {
        let cfg = DiggConfig {
            nodes: 300,
            k_min: 1,
            k_max: 60,
            target_mean_degree: 8.0,
            seed,
        };
        let a = DiggDataset::synthesize(cfg.clone()).unwrap();
        let b = DiggDataset::synthesize(cfg).unwrap();
        prop_assert_eq!(a.degrees(), b.degrees());
        prop_assert_eq!(a.gamma(), b.gamma());
    }
}
