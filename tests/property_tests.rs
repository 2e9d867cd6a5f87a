//! Property-based tests (proptest) on the invariants that hold for *every*
//! graph, not just the social stand-ins: the oracle never reports a wrong
//! distance, vicinity structure matches Definition 1, serialisation
//! round-trips, and the graph substrate's builders and codecs are lossless.

use proptest::prelude::*;

use vicinity::baselines::bfs::BfsEngine;
use vicinity::baselines::PointToPoint;
use vicinity::core::config::Alpha;
use vicinity::core::stats::boundary_size;
use vicinity::core::{serialize, OracleBuilder};
use vicinity::graph::algo::bfs::{bfs_distances, bounded_bfs, BidirBfsScratch};
use vicinity::graph::builder::GraphBuilder;
use vicinity::graph::csr::CsrGraph;
use vicinity::graph::io::{binary, edge_list};
use vicinity::graph::INFINITY;

/// Strategy: a random edge list over up to `max_nodes` nodes.
fn arbitrary_graph(max_nodes: u32, max_edges: usize) -> impl Strategy<Value = CsrGraph> {
    prop::collection::vec((0..max_nodes, 0..max_nodes), 0..max_edges).prop_map(move |edges| {
        let mut builder = GraphBuilder::with_node_count(max_nodes as usize);
        for (u, v) in edges {
            builder.add_edge(u, v);
        }
        builder.build_undirected()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Whatever the graph, whatever alpha: if the oracle answers, the answer
    /// equals the BFS distance; if it says "unreachable", BFS agrees.
    #[test]
    fn oracle_never_lies(
        graph in arbitrary_graph(60, 150),
        alpha in 0.25f64..16.0,
        seed in 0u64..1000,
    ) {
        let oracle = OracleBuilder::new(Alpha::new(alpha).unwrap()).seed(seed).build(&graph);
        let mut bfs = BfsEngine::new(&graph);
        let n = graph.node_count() as u32;
        for s in (0..n).step_by(7) {
            for t in (0..n).step_by(11) {
                let reference = bfs.distance(s, t);
                match oracle.distance(s, t) {
                    vicinity::core::query::DistanceAnswer::Exact { distance, .. } => {
                        prop_assert_eq!(Some(distance), reference);
                    }
                    vicinity::core::query::DistanceAnswer::Unreachable => {
                        prop_assert_eq!(reference, None);
                    }
                    vicinity::core::query::DistanceAnswer::Miss => {}
                }
            }
        }
    }

    /// Vicinity structure matches Definition 1: members are exactly the
    /// nodes within the ball radius, the boundary computed from the graph
    /// is the subset with an escaping edge, and stored distances are exact.
    #[test]
    fn vicinity_matches_definition(
        graph in arbitrary_graph(50, 120),
        seed in 0u64..1000,
    ) {
        let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT).seed(seed).build(&graph);
        for u in 0..graph.node_count() as u32 {
            let vicinity = oracle.vicinity(u).unwrap();
            let reference = bfs_distances(&graph, u);
            if oracle.is_landmark(u) {
                prop_assert!(vicinity.is_empty());
                continue;
            }
            let radius = vicinity.radius();
            for v in 0..graph.node_count() as u32 {
                let in_vicinity = vicinity.contains(v);
                let within = reference[v as usize] != INFINITY && reference[v as usize] <= radius;
                prop_assert_eq!(in_vicinity, within, "node {} vs owner {}", v, u);
                if in_vicinity {
                    prop_assert_eq!(vicinity.distance_to(v), Some(reference[v as usize]));
                }
            }
            // The boundary, computed from the graph, is exactly the
            // members with an escaping edge.
            let escaping = (0..graph.node_count() as u32)
                .filter(|&v| {
                    vicinity.contains(v) && graph.neighbors(v).iter().any(|&w| !vicinity.contains(w))
                })
                .count();
            prop_assert_eq!(boundary_size(&vicinity, &graph), escaping);
        }
    }

    /// Snapshot format v4 round-trips on arbitrary graphs, with and without predecessor storage. The `arbitrary_graph` strategy
    /// keeps the node count fixed while edges are random, so most cases
    /// contain isolated and landmark-free nodes (empty and degenerate
    /// vicinities) alongside regular ones.
    #[test]
    fn oracle_serialization_round_trips(
        graph in arbitrary_graph(40, 100),
        seed in 0u64..1000,
        store_paths in any::<bool>(),
    ) {
        let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT)
            .seed(seed)
            .store_paths(store_paths)
            .build(&graph);
        let decoded = serialize::decode(&serialize::encode(&oracle)).unwrap();
        prop_assert_eq!(oracle, decoded);
    }

    /// A v4-decoded oracle answers every pair identically to the original
    /// (distances and paths), with and without stored paths.
    #[test]
    fn decoded_oracle_answers_all_pairs_identically(
        graph in arbitrary_graph(30, 70),
        seed in 0u64..1000,
        store_paths in any::<bool>(),
    ) {
        let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT)
            .seed(seed)
            .store_paths(store_paths)
            .build(&graph);
        let decoded = serialize::decode(&serialize::encode(&oracle)).unwrap();
        let n = graph.node_count() as u32;
        for s in 0..n {
            for t in 0..n {
                prop_assert_eq!(oracle.distance(s, t), decoded.distance(s, t), "({}, {})", s, t);
                prop_assert_eq!(oracle.path(s, t), decoded.path(s, t), "({}, {})", s, t);
            }
        }
    }

    /// The batched engine is the scalar engine with reordered memory
    /// traffic: on arbitrary graphs (any alpha, with and without stored
    /// paths, misses included) `distance_batch` and `path_batch` must
    /// produce byte-identical answers AND identical work counters.
    #[test]
    fn batched_queries_match_scalar(
        graph in arbitrary_graph(50, 120),
        alpha in 0.5f64..16.0,
        seed in 0u64..1000,
        store_paths in any::<bool>(),
    ) {
        let oracle = OracleBuilder::new(Alpha::new(alpha).unwrap())
            .seed(seed)
            .store_paths(store_paths)
            .build(&graph);
        let n = graph.node_count() as u32;
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for s in (0..n).step_by(5) {
            for t in (0..n).step_by(9) {
                pairs.push((s, t));
            }
        }
        pairs.push((0, n + 50)); // out of range stays a Miss in both engines

        let mut scalar_stats = vicinity::core::query::QueryStats::default();
        let scalar: Vec<_> = pairs
            .iter()
            .map(|&(s, t)| oracle.distance_accumulate(s, t, &mut scalar_stats))
            .collect();
        let mut batch_stats = vicinity::core::query::QueryStats::default();
        let mut batched = Vec::new();
        oracle.distance_batch_accumulate(&pairs, &mut batched, &mut batch_stats);
        prop_assert_eq!(&scalar, &batched);
        prop_assert_eq!(scalar_stats, batch_stats);

        let scalar_paths: Vec<_> = pairs.iter().map(|&(s, t)| oracle.path(s, t)).collect();
        prop_assert_eq!(&oracle.path_batch(&pairs), &scalar_paths);
        let scalar_graph_paths: Vec<_> = pairs
            .iter()
            .map(|&(s, t)| oracle.path_with_graph(&graph, s, t))
            .collect();
        prop_assert_eq!(&oracle.path_batch_with_graph(&graph, &pairs), &scalar_graph_paths);
    }

    /// Graph binary codec round-trips arbitrary graphs.
    #[test]
    fn graph_binary_round_trips(graph in arbitrary_graph(80, 300)) {
        let decoded = binary::decode(&binary::encode(&graph)).unwrap();
        prop_assert_eq!(graph, decoded);
    }

    /// Edge-list writer/parser round-trips arbitrary graphs (node count can
    /// shrink because isolated nodes are not representable in an edge list).
    #[test]
    fn edge_list_round_trips(graph in arbitrary_graph(60, 200)) {
        let mut text = Vec::new();
        edge_list::write_edge_list(&graph, &mut text).unwrap();
        let parsed = edge_list::parse_undirected(text.as_slice()).unwrap();
        prop_assert_eq!(parsed.graph.edge_count(), graph.edge_count());
        // Every written edge survives (modulo the id relabelling).
        let mut original: Vec<(u64, u64)> = graph
            .edges()
            .map(|(u, v)| (u as u64, v as u64))
            .collect();
        let mut recovered: Vec<(u64, u64)> = parsed
            .graph
            .edges()
            .map(|(u, v)| {
                let a = parsed.original_ids[u as usize];
                let b = parsed.original_ids[v as usize];
                (a.min(b), a.max(b))
            })
            .collect();
        original.sort_unstable();
        recovered.sort_unstable();
        prop_assert_eq!(original, recovered);
    }

    /// The builder's cleanup is idempotent: rebuilding from the produced
    /// edge set yields the same graph.
    #[test]
    fn builder_is_canonical(graph in arbitrary_graph(50, 200)) {
        let mut rebuilt = GraphBuilder::with_node_count(graph.node_count());
        for (u, v) in graph.edges() {
            rebuilt.add_edge(u, v);
        }
        prop_assert_eq!(rebuilt.build_undirected(), graph);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The index answers the landmark walk only when it is provably
    /// shortest. On social stand-ins and grids at small alpha, where many
    /// vicinities are disjoint, every `LandmarkWalk` distance equals BFS,
    /// the path the oracle returns for it is a shortest path, and the walk
    /// does fire.
    #[test]
    fn landmark_walk_answers_equal_bfs(
        social_seed in 0u64..1000,
        side in 8usize..16,
        alpha in 1.0f64..4.0,
        seed in 0u64..1000,
    ) {
        use vicinity::baselines::validate_path;
        use vicinity::core::query::AnswerMethod;
        use vicinity::graph::generators::{classic, social::SocialGraphConfig};

        let social = SocialGraphConfig::small_test().with_nodes(300).generate(social_seed);
        let grid = classic::grid(side, side);
        let mut walks = 0usize;
        for graph in [&social, &grid] {
            let oracle = OracleBuilder::new(Alpha::new(alpha).unwrap()).seed(seed).build(graph);
            let n = graph.node_count() as u32;
            for s in (0..n).step_by(5) {
                let reference = bfs_distances(graph, s);
                for t in 0..n {
                    let answer = oracle.distance(s, t);
                    if answer.method() != Some(AnswerMethod::LandmarkWalk) {
                        continue;
                    }
                    walks += 1;
                    let expected = reference[t as usize];
                    prop_assert_eq!(answer.exact_distance(), Some(expected));
                    let path = oracle.path_with_graph(graph, s, t);
                    let path = path.path().expect("a walk answer has a path");
                    prop_assert_eq!(validate_path(graph, s, t, path), Some(expected));
                }
            }
        }
        prop_assert!(walks > 0, "no pair was answered by the landmark walk");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The bidirectional search stays exact from any complete balls around
    /// the endpoints and any true upper bound `d`, `d + 1`, `d + 2` or
    /// none: it returns BFS's distance, reports a meeting node on a
    /// shortest path exactly when it found a path shorter than the bound,
    /// and the unseeded search's parents give a shortest path.
    #[test]
    fn bidirectional_search_equals_bfs(
        graph in arbitrary_graph(40, 70),
        s in 0u32..40,
        t in 0u32..40,
        radius_s in 0u32..4,
        radius_t in 0u32..4,
        slack in 0u32..4,
    ) {
        use vicinity::baselines::validate_path;

        let from_s = bfs_distances(&graph, s);
        let from_t = bfs_distances(&graph, t);
        let d = from_s[t as usize];
        let expected = (d != INFINITY).then_some(d);
        let upper = if d == INFINITY || slack == 3 { INFINITY } else { d + slack };
        let ball = |center, radius| {
            bounded_bfs(&graph, center, radius)
                .iter()
                .map(|v| (v.node, v.distance))
                .collect::<Vec<_>>()
        };
        let mut scratch = BidirBfsScratch::new();
        let found = scratch.distance_seeded_within(
            &graph, ball(s, radius_s), radius_s, ball(t, radius_t), radius_t, upper,
        );
        prop_assert_eq!(found, expected);
        prop_assert_eq!(scratch.last_meeting().is_some(), d < upper);
        if let Some(v) = scratch.last_meeting() {
            prop_assert_eq!(from_s[v as usize] + from_t[v as usize], d);
        }

        prop_assert_eq!(scratch.distance(&graph, s, t), expected);
        match scratch.path(&graph, s, t) {
            Some(path) => prop_assert_eq!(validate_path(&graph, s, t, &path), expected),
            None => prop_assert_eq!(expected, None),
        }
    }
}

/// Batch-vs-scalar parity on the structured workloads the proptest
/// strategy does not generate: a social stand-in (hub-heavy, intersection
/// answers dominate) and a grid at small alpha (miss/fallback pairs
/// dominate). Answers and work counters must be identical in both.
#[test]
fn batched_queries_match_scalar_on_social_and_grid() {
    use rand::SeedableRng;
    use vicinity::core::query::QueryStats;
    use vicinity::graph::generators::{classic, social::SocialGraphConfig};

    let social = SocialGraphConfig::small_test().generate(401);
    let grid = classic::grid(22, 22);
    for (graph, alpha) in [(&social, 4.0), (&grid, 2.0)] {
        let oracle = OracleBuilder::new(Alpha::new(alpha).unwrap())
            .seed(402)
            .build(graph);
        let mut rng = rand::rngs::StdRng::seed_from_u64(403);
        let pairs = vicinity::graph::algo::sampling::random_pairs(graph, 400, &mut rng);

        let mut scalar_stats = QueryStats::default();
        let scalar: Vec<_> = pairs
            .iter()
            .map(|&(s, t)| oracle.distance_accumulate(s, t, &mut scalar_stats))
            .collect();
        let mut batch_stats = QueryStats::default();
        let mut batched = Vec::new();
        oracle.distance_batch_accumulate(&pairs, &mut batched, &mut batch_stats);
        assert_eq!(scalar, batched);
        assert_eq!(scalar_stats, batch_stats);

        let scalar_paths: Vec<_> = pairs
            .iter()
            .map(|&(s, t)| oracle.path_with_graph(graph, s, t))
            .collect();
        assert_eq!(oracle.path_batch_with_graph(graph, &pairs), scalar_paths);
    }
}
