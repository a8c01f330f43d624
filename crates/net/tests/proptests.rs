//! Property-based tests of the graph substrate.

// Index-based loops mirror the per-class stencils (workspace idiom).
#![allow(clippy::needless_range_loop)]

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rumor_net::degree::DegreeClasses;
use rumor_net::generators::{
    barabasi_albert, configuration_model, powerlaw_degree_sequence, PowerlawSequenceConfig,
};
use rumor_net::graph::{EdgeKind, Graph};
use rumor_net::metrics::{connected_components, largest_component_size};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn graph_degree_sum_is_twice_edges_undirected(
        edges in proptest::collection::vec((0usize..20, 0usize..20), 0..60),
    ) {
        let g = Graph::from_edges(20, &edges, EdgeKind::Undirected).expect("graph");
        let degree_sum: usize = g.degrees().iter().sum();
        prop_assert_eq!(degree_sum, 2 * edges.len());
    }

    #[test]
    fn graph_degree_sum_equals_edges_directed(
        edges in proptest::collection::vec((0usize..20, 0usize..20), 0..60),
    ) {
        let g = Graph::from_edges(20, &edges, EdgeKind::Directed).expect("graph");
        let degree_sum: usize = g.degrees().iter().sum();
        prop_assert_eq!(degree_sum, edges.len());
    }

    #[test]
    fn simplified_graph_is_simple(
        edges in proptest::collection::vec((0usize..12, 0usize..12), 0..80),
    ) {
        let g = Graph::from_edges(12, &edges, EdgeKind::Undirected)
            .expect("graph")
            .simplified();
        for u in 0..g.node_count() {
            prop_assert!(!g.has_edge(u, u), "self loop at {u}");
            let nb = g.neighbors(u);
            for w in nb.windows(2) {
                prop_assert!(w[0] != w[1], "duplicate edge at {u}");
            }
            // Symmetry of the undirected representation.
            for &v in nb {
                prop_assert!(g.has_edge(v as usize, u));
            }
        }
    }

    #[test]
    fn degree_classes_probabilities_sum_to_one(
        degrees in proptest::collection::vec(0usize..50, 1..200),
    ) {
        prop_assume!(degrees.iter().any(|&d| d > 0));
        let c = DegreeClasses::from_degrees(&degrees).expect("classes");
        let total: f64 = c.probabilities().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-12);
        // Mean equals the first moment Σ k·P(k); degrees sorted ascending.
        let first_moment: f64 = c.iter().map(|(k, p)| k as f64 * p).sum();
        prop_assert!((c.mean_degree() - first_moment).abs() < 1e-12);
        prop_assert!(c.degrees().windows(2).all(|w| w[1] > w[0]));
        // Counts match the multiset.
        let nonzero = degrees.iter().filter(|&&d| d > 0).count();
        let counted: usize = (0..c.len()).map(|i| c.count(i)).sum();
        prop_assert_eq!(counted, nonzero);
    }

    #[test]
    fn components_partition_nodes(
        n in 2usize..80,
        raw in proptest::collection::vec((0usize..80, 0usize..80), 0..120),
    ) {
        let edges: Vec<(usize, usize)> = raw.into_iter().map(|(u, v)| (u % n, v % n)).collect();
        let g = Graph::from_edges(n, &edges, EdgeKind::Undirected).expect("graph");
        let comp = connected_components(&g);
        prop_assert_eq!(comp.len(), n);
        let n_comp = comp.iter().max().map_or(0, |m| m + 1);
        prop_assert!(largest_component_size(&g) <= n);
        prop_assert!(n_comp >= 1 && n_comp <= n);
        // Component ids are dense 0..n_comp.
        for c in 0..n_comp {
            prop_assert!(comp.contains(&c));
        }
    }

    #[test]
    fn barabasi_albert_structure(n in 5usize..120, m in 1usize..4, seed in 0u64..50) {
        prop_assume!(n > m + 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let g = barabasi_albert(n, m, &mut rng).expect("ba");
        prop_assert_eq!(g.node_count(), n);
        prop_assert!(g.min_degree() >= m);
        prop_assert_eq!(largest_component_size(&g), n, "BA graphs are connected");
        let expect_edges = (m + 1) * m / 2 + m * (n - m - 1);
        prop_assert_eq!(g.edge_count(), expect_edges);
    }

    #[test]
    fn configuration_model_respects_degree_caps(
        seed in 0u64..50,
        n in 10usize..100,
        d in 1usize..6,
    ) {
        // A d-regular-ish request: realized degrees never exceed requests.
        let mut degrees = vec![d; n];
        if (n * d) % 2 == 1 {
            degrees[0] += 1;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let g = configuration_model(&degrees, &mut rng).expect("config model");
        for u in 0..n {
            prop_assert!(g.degree(u) <= degrees[u], "node {u} over-realized");
        }
    }

    #[test]
    fn powerlaw_sequence_within_bounds_and_even(
        seed in 0u64..50,
        gamma in 1.5..3.5_f64,
        k_max in 10usize..200,
    ) {
        let cfg = PowerlawSequenceConfig {
            n: 501, // odd, to exercise the even-sum fixup
            gamma,
            k_min: 1,
            k_max,
            force_even_sum: true,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let d = powerlaw_degree_sequence(&cfg, &mut rng).expect("sequence");
        prop_assert_eq!(d.len(), 501);
        prop_assert!(d.iter().all(|&k| k >= 1 && k <= k_max));
        prop_assert_eq!(d.iter().sum::<usize>() % 2, 0);
    }

    #[test]
    fn class_of_finds_every_degree(
        degrees in proptest::collection::vec(1usize..30, 1..60),
    ) {
        let c = DegreeClasses::from_degrees(&degrees).expect("classes");
        for &d in &degrees {
            let idx = c.class_of(d).expect("present");
            prop_assert_eq!(c.degree(idx), d);
        }
        prop_assert!(c.class_of(10_000).is_none());
    }
}
