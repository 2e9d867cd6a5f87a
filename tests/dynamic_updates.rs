//! Overlay-correctness properties of the dynamic oracle: after an
//! arbitrary interleaving of `insert_edge` / `remove_edge` — across path
//! storage settings and forced compaction boundaries — the
//! [`DynamicOracle`]'s answers (distances, paths, and the answer method the
//! stats plane reports) must equal a from-scratch rebuild on the mutated
//! graph with the same (pinned) landmark set, published snapshots must
//! answer identically to the writer, and every miss must be resolved
//! exactly by the seeded fallback search over the patched vicinities.

use proptest::prelude::*;

use vicinity::core::config::Alpha;
use vicinity::core::dynamic::DynamicOracle;
use vicinity::core::fallback::fallback_distance;
use vicinity::core::OracleBuilder;
use vicinity::graph::algo::bfs::{bfs_distance_between, BidirBfsScratch};
use vicinity::graph::builder::GraphBuilder;
use vicinity::graph::csr::CsrGraph;
use vicinity::graph::NodeId;

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

/// Strategy: an update script — `(u, v, insert?)` triples; self loops and
/// no-op updates (inserting a present edge, removing an absent one) are
/// exercised deliberately and must leave the oracle untouched.
fn update_script(max_nodes: u32, max_len: usize) -> impl Strategy<Value = Vec<(u32, u32, bool)>> {
    prop::collection::vec((0..max_nodes, 0..max_nodes, any::<bool>()), 1..max_len)
}

/// All-pairs (strided) comparison of the dynamic oracle and its snapshot
/// against a pinned-landmark rebuild on the current graph.
fn assert_matches_rebuild(dynamic: &DynamicOracle, stride: usize) {
    let graph = dynamic.graph().to_csr();
    let rebuilt = OracleBuilder::from_config(dynamic.base().config().clone())
        .landmarks(dynamic.base().landmarks().nodes().to_vec())
        .build(&graph);
    let snapshot = dynamic.snapshot();
    let snapshot_csr = snapshot.graph().to_csr();
    let mut scratch = BidirBfsScratch::new();
    let n = graph.node_count() as NodeId;
    for s in (0..n).step_by(stride) {
        for t in (0..n).step_by(stride) {
            let expected = rebuilt.distance(s, t);
            prop_assert_eq!(dynamic.distance(s, t), expected, "distance ({}, {})", s, t);
            prop_assert_eq!(snapshot.distance(s, t), expected, "snapshot ({}, {})", s, t);
            // A miss is resolved by the search seeded with the patched
            // vicinities; it must agree with plain BFS on the mutated graph.
            if expected.is_miss() {
                prop_assert_eq!(
                    fallback_distance(&snapshot, snapshot.graph(), &mut scratch, s, t),
                    bfs_distance_between(&snapshot_csr, s, t),
                    "fallback ({}, {})",
                    s,
                    t
                );
            }
            prop_assert_eq!(
                dynamic.path(s, t),
                rebuilt.path_with_graph(&graph, s, t),
                "path ({}, {})",
                s,
                t
            );
        }
    }
    // The batched pipeline rides the same overlay: spot-check parity.
    let pairs: Vec<(NodeId, NodeId)> = (0..n)
        .step_by(stride.max(2))
        .flat_map(|s| (0..n).step_by(stride.max(3)).map(move |t| (s, t)))
        .collect();
    let scalar: Vec<_> = pairs.iter().map(|&(s, t)| dynamic.distance(s, t)).collect();
    prop_assert_eq!(dynamic.distance_batch(&pairs), scalar);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline overlay property: any interleaving of edge updates
    /// leaves the dynamic oracle answer-identical to a rebuild, checked
    /// after every single update (so a transiently wrong overlay cannot
    /// hide behind a later repair).
    #[test]
    fn updates_match_rebuild_at_every_step(
        graph in arbitrary_graph(36, 90),
        script in update_script(36, 10),
        alpha in 0.5f64..8.0,
        seed in 0u64..1000,
        store_paths in any::<bool>(),
    ) {
        let oracle = OracleBuilder::new(Alpha::new(alpha).unwrap())
            .seed(seed)
            .store_paths(store_paths)
            .build(&graph);
        let mut dynamic = DynamicOracle::from_parts(oracle, graph).unwrap();
        // Version 0: the empty overlay answers through its base.
        assert_matches_rebuild(&dynamic, 3);
        for (u, v, insert) in script {
            if u == v {
                prop_assert!(dynamic.insert_edge(u, v).is_err());
                continue;
            }
            let version = dynamic.version();
            let applied = if insert {
                dynamic.insert_edge(u, v).unwrap()
            } else {
                dynamic.remove_edge(u, v).unwrap()
            };
            prop_assert_eq!(dynamic.version(), version + u64::from(applied));
            assert_matches_rebuild(&dynamic, 3);
        }
    }

    /// Same property across compaction boundaries: a tiny overlay budget
    /// forces a fold after (almost) every update, so the script repeatedly
    /// crosses patch → frozen-store transitions; a final explicit compact
    /// must change nothing either.
    #[test]
    fn updates_match_rebuild_across_compactions(
        graph in arbitrary_graph(30, 70),
        script in update_script(30, 12),
        seed in 0u64..1000,
        limit in 1usize..40,
    ) {
        let oracle = OracleBuilder::new(Alpha::new(2.0).unwrap()).seed(seed).build(&graph);
        let mut dynamic = DynamicOracle::from_parts(oracle, graph)
            .unwrap()
            .with_compaction_limit(limit);
        let mut applied_any = false;
        for (u, v, insert) in script {
            if u == v {
                continue;
            }
            let applied = if insert {
                dynamic.insert_edge(u, v).unwrap()
            } else {
                dynamic.remove_edge(u, v).unwrap()
            };
            applied_any |= applied;
        }
        assert_matches_rebuild(&dynamic, 2);
        let before = dynamic.distance_batch(
            &(0..30u32).flat_map(|s| (0..30u32).map(move |t| (s, t))).collect::<Vec<_>>(),
        );
        dynamic.compact();
        prop_assert_eq!(dynamic.overlay_len(), 0);
        let after = dynamic.distance_batch(
            &(0..30u32).flat_map(|s| (0..30u32).map(move |t| (s, t))).collect::<Vec<_>>(),
        );
        prop_assert_eq!(before, after);
        assert_matches_rebuild(&dynamic, 2);
        let _ = applied_any;
    }
}
