//! Overlay-correctness properties of the dynamic oracle: after an
//! arbitrary interleaving of `insert_edge` / `remove_edge` — across path
//! storage settings and forced compaction boundaries — the
//! [`DynamicOracle`]'s answers (distances, paths, and the answer method the
//! stats plane reports) and every node's vicinity (radius, nearest
//! landmark, members, distances, predecessors, and the derived shells and
//! membership slots) must equal a from-scratch rebuild on the mutated
//! graph with the same (pinned) landmark set, published snapshots must
//! answer identically to the writer, and every miss must be resolved
//! exactly by the seeded fallback search over the patched vicinities.

use proptest::prelude::*;

use vicinity::core::config::Alpha;
use vicinity::core::dynamic::{DynamicOracle, UpdateError};
use vicinity::core::fallback::fallback_distance;
use vicinity::core::query::QueryIndex;
use vicinity::core::{OracleBuilder, VicinityOracle, VicinityRef};
use vicinity::graph::algo::bfs::{bfs_distance_between, BidirBfsScratch};
use vicinity::graph::builder::GraphBuilder;
use vicinity::graph::csr::CsrGraph;
use vicinity::graph::{Distance, NodeId};

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
/// against a pinned-landmark rebuild on the current graph, after every
/// node's vicinity is compared section by section: the updates rebuild
/// only header changes and open clusters, so this pins that every other
/// vicinity is left exactly as a rebuild would store it.
fn assert_matches_rebuild(dynamic: &DynamicOracle, stride: usize) {
    let graph = dynamic.graph().to_csr();
    let rebuilt = OracleBuilder::from_config(dynamic.base().config().clone())
        .landmarks(dynamic.base().landmarks().nodes().to_vec())
        .build(&graph);
    let snapshot = dynamic.snapshot();
    let snapshot_csr = snapshot.graph().to_csr();
    let mut scratch = BidirBfsScratch::new();
    let n = graph.node_count() as NodeId;
    for u in 0..n {
        let expected = rebuilt.vicinity(u);
        prop_assert_eq!(dynamic.vicinity_of(u), expected, "vicinity {}", u);
        prop_assert_eq!(snapshot.vicinity_of(u), expected, "snapshot vicinity {}", u);
        let expected = derived_sections(expected);
        prop_assert_eq!(
            derived_sections(dynamic.vicinity_of(u)),
            expected,
            "derived {}",
            u
        );
        prop_assert_eq!(
            derived_sections(snapshot.vicinity_of(u)),
            expected,
            "snapshot derived {}",
            u
        );
    }
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

/// The derived sections of a vicinity view, which `VicinityRef`'s
/// equality leaves out: the outermost shell distance, every shell up to
/// it, and the memory footprint, which counts the membership slot span.
fn derived_sections(v: Option<VicinityRef<'_>>) -> Option<(Distance, Vec<&[NodeId]>, usize)> {
    v.map(|v| {
        let max = v.max_shell_distance();
        (
            max,
            (0..=max).map(|d| v.shell(d)).collect(),
            v.memory_bytes(),
        )
    })
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

/// An update followed by its inverse leaves nothing in the overlay — no
/// vicinity entry, no landmark-distance patch, no adjacency patch — so the
/// next snapshot clones empty maps. Checked for a remove/re-insert pair and
/// an insert/remove pair, on a grid and on a small social graph.
#[test]
fn inverse_updates_leave_an_empty_overlay() {
    use vicinity::graph::generators::{classic, social::SocialGraphConfig};

    for (graph, stride) in [
        (classic::grid(8, 8), 1),
        (SocialGraphConfig::small_test().generate(21), 37),
    ] {
        let oracle = OracleBuilder::new(Alpha::new(2.0).unwrap())
            .seed(5)
            .build(&graph);
        // A real edge, and a friend-of-friend pair that is not one.
        let a = (0..graph.node_count() as NodeId)
            .find(|&u| graph.degree(u) >= 2)
            .unwrap();
        let b = graph.neighbors(a)[0];
        let c = graph
            .neighbors(b)
            .iter()
            .copied()
            .find(|&w| w != a && !graph.neighbors(a).contains(&w))
            .unwrap();
        let mut dynamic = DynamicOracle::from_parts(oracle, graph).unwrap();
        for (x, y, remove_first) in [(a, b, true), (a, c, false)] {
            for remove in [remove_first, !remove_first] {
                let applied = if remove {
                    dynamic.remove_edge(x, y).unwrap()
                } else {
                    dynamic.insert_edge(x, y).unwrap()
                };
                assert!(applied, "({x},{y}) remove={remove}");
                assert_matches_rebuild(&dynamic, stride);
            }
            assert_eq!(dynamic.overlay_len(), 0, "({x},{y})");
            assert_eq!(dynamic.row_patch_entries(), 0, "({x},{y})");
            assert_eq!(dynamic.graph().patched_nodes(), 0, "({x},{y})");
        }
        assert_eq!(dynamic.compactions(), 0);
    }
}

/// An edge at a landmark hub rebuilds no vicinity on the hub's side. A
/// landmark's open cluster is empty, so the update rebuilds exactly the
/// other endpoint's open cluster `{u : d(u, b) < r_u}`, taken on the graph
/// holding the edge (after an insertion, before a removal), plus the nodes
/// whose `(radius, nearest)` header changed. The hub's closed shell — the
/// nodes holding the hub at exactly their radius, whose vicinities the
/// edge cannot change — stays out of the count.
#[test]
fn landmark_hub_edges_rebuild_only_the_far_endpoint_cluster() {
    use std::collections::BTreeSet;
    use vicinity::graph::algo::bfs::bfs_distances;
    use vicinity::graph::generators::social::SocialGraphConfig;
    use vicinity::graph::{Distance, INFINITY};

    let graph = SocialGraphConfig::small_test().generate(31);
    let n = graph.node_count() as NodeId;
    let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT)
        .seed(8)
        .build(&graph);
    let hub = *oracle
        .landmarks()
        .nodes()
        .iter()
        .max_by_key(|&&l| graph.degree(l))
        .unwrap();
    let hub_distances = bfs_distances(&graph, hub);
    let radius = |u: NodeId| oracle.vicinity(u).unwrap().radius();
    let closed_shell: BTreeSet<NodeId> = (0..n)
        .filter(|&u| !oracle.is_landmark(u) && hub_distances[u as usize] == radius(u))
        .collect();
    // The far endpoint: the non-landmark farthest from the hub.
    let b = (0..n)
        .filter(|&u| !oracle.is_landmark(u) && hub_distances[u as usize] != INFINITY)
        .max_by_key(|&u| hub_distances[u as usize])
        .unwrap();
    assert!(hub_distances[b as usize] >= 3);
    let mut dynamic = DynamicOracle::from_parts(oracle, graph).unwrap();

    type Header = (Distance, Option<NodeId>);
    let headers = |d: &DynamicOracle| -> Vec<Header> {
        (0..n)
            .map(|u| {
                let v = d.vicinity_of(u).unwrap();
                (v.radius(), v.nearest_landmark())
            })
            .collect()
    };
    let open_cluster = |d: &DynamicOracle| -> BTreeSet<NodeId> {
        let from_b = bfs_distances(&d.graph().to_csr(), b);
        (0..n)
            .filter(|&u| from_b[u as usize] < d.vicinity_of(u).unwrap().radius())
            .collect()
    };
    let rebuilt = |cluster: BTreeSet<NodeId>, before: &[Header], after: &[Header]| {
        let mut expected = cluster;
        expected.extend((0..n).filter(|&u| before[u as usize] != after[u as usize]));
        expected
    };

    let before = headers(&dynamic);
    assert!(dynamic.insert_edge(hub, b).unwrap());
    let after = headers(&dynamic);
    let expected = rebuilt(open_cluster(&dynamic), &before, &after);
    let profile = dynamic.last_update_profile();
    assert_eq!(profile.affected_vicinities as usize, expected.len());
    assert!(
        closed_shell.difference(&expected).count() > 100,
        "the hub's closed shell ({} nodes) must reach beyond the rebuilt set ({} nodes)",
        closed_shell.len(),
        expected.len()
    );
    assert_matches_rebuild(&dynamic, 41);

    let cluster = open_cluster(&dynamic);
    let before = after;
    assert!(dynamic.remove_edge(hub, b).unwrap());
    let after = headers(&dynamic);
    let expected = rebuilt(cluster, &before, &after);
    assert_eq!(
        dynamic.last_update_profile().affected_vicinities as usize,
        expected.len()
    );
    assert_matches_rebuild(&dynamic, 41);
    assert_eq!(dynamic.overlay_len(), 0);
}

/// Nodes of the long paths the horizon tests run on. Their graphs hold
/// one node more, `LONG` itself, isolated until an update attaches it.
const LONG: NodeId = 66_000;

/// A pinned-landmark build for the long-path graphs: landmarks 2, n − 3
/// and one every 200 hops, so vicinities stay small while the end
/// landmarks can be pushed past the 65,534-hop horizon of the rows.
fn long_path_build(graph: &CsrGraph) -> VicinityOracle {
    let mut landmarks = vec![2, LONG - 3];
    landmarks.extend((200..LONG - 200).step_by(200));
    OracleBuilder::new(Alpha::PAPER_DEFAULT)
        .landmarks(landmarks)
        .store_paths(false)
        .build(graph)
}

/// Pairs between landmark, end, middle and spare nodes of a long-path
/// graph, both orders.
fn long_path_pairs() -> Vec<(NodeId, NodeId)> {
    let nodes = [
        0,
        1,
        2,
        200,
        5_000,
        32_999,
        33_000,
        65_900,
        LONG - 3,
        LONG - 1,
        LONG,
    ];
    nodes
        .iter()
        .flat_map(|&s| nodes.iter().map(move |&t| (s, t)))
        .collect()
}

/// Attach the spare node `LONG` to node 5, so a refusal that follows
/// meets a non-empty overlay: a patched vicinity, a patched adjacency
/// list and one row patch per landmark.
fn attach_spare(dynamic: &mut DynamicOracle) {
    assert!(dynamic.insert_edge(LONG, 5).unwrap());
    assert!(dynamic.overlay_len() > 0 && dynamic.row_patch_entries() > 0);
}

/// Detach the spare node again, an update within the horizon: it applies
/// as the second version and leaves the oracle as `built`.
fn assert_detaches_spare(dynamic: &mut DynamicOracle, built: &VicinityOracle) {
    assert!(dynamic.remove_edge(LONG, 5).unwrap());
    assert_eq!(dynamic.version(), 2);
    assert_eq!(dynamic.overlay_len() + dynamic.row_patch_entries(), 0);
    assert_answers_match(dynamic, built);
}

/// Apply `update`, which must be refused past the horizon, and check that
/// nothing changed: version, patched vicinities, row patches, patched
/// adjacency and edges, and the answers, which equal `reference`'s.
fn assert_refused(
    dynamic: &mut DynamicOracle,
    (a, b, insert): (NodeId, NodeId, bool),
    reference: &VicinityOracle,
) {
    let state = |d: &DynamicOracle| {
        (
            d.version(),
            d.overlay_len(),
            d.row_patch_entries(),
            d.graph().patched_nodes(),
            d.edge_count(),
        )
    };
    let before = state(dynamic);
    let result = if insert {
        dynamic.insert_edge(a, b)
    } else {
        dynamic.remove_edge(a, b)
    };
    assert!(
        matches!(result, Err(UpdateError::PastHorizon { .. })),
        "({a},{b}): {result:?}"
    );
    assert_eq!(state(dynamic), before, "({a},{b}) changed the oracle");
    assert_eq!(dynamic.graph().has_edge(a, b), !insert);
    assert_answers_match(dynamic, reference);
}

/// Answers on the sampled pairs equal `reference`'s.
fn assert_answers_match(dynamic: &DynamicOracle, reference: &VicinityOracle) {
    for (s, t) in long_path_pairs() {
        assert_eq!(
            dynamic.distance(s, t),
            reference.distance(s, t),
            "({s},{t})"
        );
    }
}

/// The 66,000-node path closed into a cycle: removing the closing edge
/// would put the far end 65,997 hops from landmark 2, so the removal is
/// refused and the oracle is unchanged; the next removal, detaching the
/// spare node again, applies and leaves the oracle as it was built.
#[test]
fn removal_past_the_horizon_is_refused() {
    let mut builder = GraphBuilder::with_node_count(LONG as usize + 1);
    for v in 0..LONG {
        builder.add_edge(v, (v + 1) % LONG);
    }
    let cycle = builder.build_undirected();
    let built = long_path_build(&cycle);
    let mut dynamic = DynamicOracle::from_parts(built.clone(), cycle).unwrap();
    attach_spare(&mut dynamic);
    let reference = long_path_build(&dynamic.graph().to_csr());
    assert_refused(&mut dynamic, (0, LONG - 1, false), &reference);
    assert_detaches_spare(&mut dynamic, &built);
}

/// Two 33,000-node paths: joining their ends would put the far end
/// 65,997 hops from landmark 2, so the insert is refused and the oracle
/// is unchanged; the next update, detaching the spare node again,
/// applies.
#[test]
fn insert_past_the_horizon_is_refused() {
    let half = LONG / 2;
    let mut builder = GraphBuilder::with_node_count(LONG as usize + 1);
    for v in (0..LONG - 1).filter(|&v| v != half - 1) {
        builder.add_edge(v, v + 1);
    }
    let paths = builder.build_undirected();
    let built = long_path_build(&paths);
    let mut dynamic = DynamicOracle::from_parts(built.clone(), paths).unwrap();
    attach_spare(&mut dynamic);
    let reference = long_path_build(&dynamic.graph().to_csr());
    assert_refused(&mut dynamic, (half - 1, half, true), &reference);
    assert_detaches_spare(&mut dynamic, &built);
}

/// Updates whose row repair spans several lane words. Every proptest graph
/// above holds at most 36 nodes, so no repair there packs ranks into more
/// than one 64-rank word. Here 140 pinned landmarks, every other node of
/// the first 280 of a 400-node path, make three words, and each update
/// below repairs at least 65 ranks: the cycle-closing insert seeds lanes
/// from both endpoints with a different new distance per lane, the cut of
/// the cycle orphans runs of dozens of nodes per lane, and the cut of the
/// path leaves half of every landmark's row unreachable. After each update
/// the oracle equals a pinned rebuild (answers, methods and every vicinity)
/// and every landmark row equals a BFS from its landmark.
#[test]
fn repairs_spanning_lane_words_match_rebuild() {
    use vicinity::graph::algo::bfs::bfs_distances;
    use vicinity::graph::INFINITY;

    const N: NodeId = 400;
    let mut builder = GraphBuilder::with_node_count(N as usize);
    for v in 0..N - 1 {
        builder.add_edge(v, v + 1);
    }
    // Chords in the landmark-free stretch, so its vicinities are not paths.
    for (u, v) in [(300, 330), (310, 350), (360, 395)] {
        builder.add_edge(u, v);
    }
    let graph = builder.build_undirected();
    let landmarks: Vec<NodeId> = (0..280).step_by(2).collect();
    let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT)
        .landmarks(landmarks.clone())
        .build(&graph);
    let mut dynamic = DynamicOracle::from_parts(oracle, graph).unwrap();

    let rows = |dynamic: &DynamicOracle| -> Vec<Vec<Option<u32>>> {
        landmarks
            .iter()
            .map(|&l| {
                let row = dynamic.landmark_row_of(l).unwrap();
                (0..N).map(|v| row.distance_to(v)).collect()
            })
            .collect()
    };
    for (a, b, insert) in [
        (0, N - 1, true),
        (150, 151, false),
        (150, 151, true),
        (0, N - 1, false),
        (200, 201, false),
        (200, 201, true),
    ] {
        let before = rows(&dynamic);
        let applied = if insert {
            dynamic.insert_edge(a, b).unwrap()
        } else {
            dynamic.remove_edge(a, b).unwrap()
        };
        assert!(applied, "({a},{b}) insert={insert}");
        let repaired = dynamic.last_update_profile().rows_repaired;
        assert!(repaired > 64, "({a},{b}) repaired {repaired} ranks");

        let graph = dynamic.graph().to_csr();
        let after = rows(&dynamic);
        for (rank, &l) in landmarks.iter().enumerate() {
            let bfs: Vec<Option<u32>> = bfs_distances(&graph, l)
                .into_iter()
                .map(|d| (d != INFINITY).then_some(d))
                .collect();
            assert_eq!(after[rank], bfs, "row of landmark {l} after ({a},{b})");
        }
        if (a, b, insert) == (150, 151, false) {
            let longest = before
                .iter()
                .zip(&after)
                .map(|(old, new)| old.iter().zip(new).filter(|(o, n)| o < n).count())
                .max()
                .unwrap();
            assert!(longest > 20, "largest orphan region {longest} nodes");
        }
        if insert && (a, b) == (0, N - 1) {
            let seed_values: std::collections::BTreeSet<_> =
                after.iter().map(|row| row[b as usize]).collect();
            assert!(seed_values.len() > 64, "{} seed values", seed_values.len());
        }
        assert_matches_rebuild(&dynamic, 3);
    }
}
