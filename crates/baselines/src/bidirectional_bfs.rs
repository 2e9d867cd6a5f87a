//! Bidirectional breadth-first search — the "Bidirectional BFS" column of
//! Table 3 and the paper's stand-in for the state-of-the-art point-to-point
//! algorithm of Goldberg et al. \[4\].
//!
//! The search alternates between a forward frontier from `s` and a backward
//! frontier from `t`, one level at a time, always expanding the frontier
//! whose nodes have fewer arcs in total, and stops at the first node both
//! sides reach: while the sides are disjoint, that meeting already has the
//! least length any undiscovered path can have. On unweighted undirected
//! graphs this returns exact distances while exploring O(b^(d/2)) nodes
//! instead of O(b^d).

use vicinity_graph::csr::CsrGraph;
use vicinity_graph::{Distance, NodeId};

use crate::{PathEngine, PointToPoint};

/// The search itself lives in the graph crate, shared with the oracle's
/// miss path and the serving layer; re-exported so the engine's scratch is
/// reachable next to the engine.
pub use vicinity_graph::algo::bfs::BidirBfsScratch;

/// Bidirectional BFS point-to-point engine over a borrowed graph — a thin
/// wrapper binding a [`BidirBfsScratch`] to one graph so it can implement
/// the [`PointToPoint`] / [`PathEngine`] traits.
pub struct BidirectionalBfs<'g> {
    graph: &'g CsrGraph,
    scratch: BidirBfsScratch,
}

impl<'g> BidirectionalBfs<'g> {
    /// Create an engine for `graph`. Allocates O(n) scratch space once.
    pub fn new(graph: &'g CsrGraph) -> Self {
        BidirectionalBfs {
            graph,
            scratch: BidirBfsScratch::with_node_capacity(graph.node_count()),
        }
    }
}

impl PointToPoint for BidirectionalBfs<'_> {
    fn distance(&mut self, s: NodeId, t: NodeId) -> Option<Distance> {
        self.scratch.distance(self.graph, s, t)
    }

    fn name(&self) -> &'static str {
        "Bidirectional BFS"
    }

    fn last_operations(&self) -> u64 {
        self.scratch.last_operations()
    }
}

impl PathEngine for BidirectionalBfs<'_> {
    fn path(&mut self, s: NodeId, t: NodeId) -> Option<Vec<NodeId>> {
        self.scratch.path(self.graph, s, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::BfsEngine;
    use crate::validate_path;
    use rand::SeedableRng;
    use vicinity_graph::algo::sampling::random_pairs;
    use vicinity_graph::builder::GraphBuilder;
    use vicinity_graph::generators::{classic, social::SocialGraphConfig};

    #[test]
    fn matches_bfs_on_classic_graphs() {
        for g in [
            classic::grid(7, 5),
            classic::cycle(11),
            classic::binary_tree(5),
        ] {
            let mut bi = BidirectionalBfs::new(&g);
            let mut uni = BfsEngine::new(&g);
            for s in g.nodes() {
                for t in g.nodes() {
                    assert_eq!(bi.distance(s, t), uni.distance(s, t), "pair ({s},{t})");
                }
            }
        }
    }

    #[test]
    fn matches_bfs_on_social_graph() {
        let g = SocialGraphConfig::small_test().generate(5);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut bi = BidirectionalBfs::new(&g);
        let mut uni = BfsEngine::new(&g);
        for (s, t) in random_pairs(&g, 300, &mut rng) {
            assert_eq!(bi.distance(s, t), uni.distance(s, t), "pair ({s},{t})");
        }
    }

    #[test]
    fn paths_are_valid_and_shortest() {
        let g = SocialGraphConfig::small_test().generate(6);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut bi = BidirectionalBfs::new(&g);
        for (s, t) in random_pairs(&g, 100, &mut rng) {
            if let Some(d) = bi.distance(s, t) {
                let p = bi.path(s, t).unwrap();
                assert_eq!(validate_path(&g, s, t, &p), Some(d), "pair ({s},{t})");
            }
        }
    }

    #[test]
    fn explores_fewer_nodes_than_unidirectional() {
        let g = SocialGraphConfig::small_test().generate(9);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut bi = BidirectionalBfs::new(&g);
        let mut uni = BfsEngine::new(&g);
        let mut bi_ops = 0u64;
        let mut uni_ops = 0u64;
        for (s, t) in random_pairs(&g, 50, &mut rng) {
            bi.distance(s, t);
            uni.distance(s, t);
            bi_ops += bi.last_operations();
            uni_ops += uni.last_operations();
        }
        assert!(
            bi_ops < uni_ops,
            "bidirectional ({bi_ops}) should beat unidirectional ({uni_ops})"
        );
    }

    #[test]
    fn handles_disconnected_and_degenerate_inputs() {
        let mut b = GraphBuilder::with_node_count(6);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(3, 4);
        let g = b.build_undirected();
        let mut bi = BidirectionalBfs::new(&g);
        assert_eq!(bi.distance(0, 4), None);
        assert_eq!(bi.path(0, 4), None);
        assert_eq!(bi.distance(0, 0), Some(0));
        assert_eq!(bi.path(0, 0), Some(vec![0]));
        assert_eq!(bi.distance(0, 100), None);
        assert_eq!(bi.distance(100, 0), None);
        assert_eq!(bi.name(), "Bidirectional BFS");
    }

    #[test]
    fn repeated_queries_are_consistent() {
        let g = classic::grid(10, 10);
        let mut bi = BidirectionalBfs::new(&g);
        for _ in 0..50 {
            assert_eq!(bi.distance(0, 99), Some(18));
            assert_eq!(bi.distance(5, 5), Some(0));
        }
    }

    #[test]
    fn seeded_search_matches_plain_search() {
        use vicinity_graph::algo::bfs::bounded_bfs;
        let g = SocialGraphConfig::small_test().generate(12);
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let mut scratch = BidirBfsScratch::new();
        let mut reference = BidirBfsScratch::new();
        for (radius_s, radius_t) in [(0u32, 0u32), (1, 1), (2, 1), (2, 2)] {
            for (s, t) in random_pairs(&g, 60, &mut rng) {
                let ball_s: Vec<(u32, u32)> = bounded_bfs(&g, s, radius_s)
                    .iter()
                    .map(|v| (v.node, v.distance))
                    .collect();
                let ball_t: Vec<(u32, u32)> = bounded_bfs(&g, t, radius_t)
                    .iter()
                    .map(|v| (v.node, v.distance))
                    .collect();
                let seeded = scratch.distance_seeded(&g, ball_s, radius_s, ball_t, radius_t);
                let plain = reference.distance(&g, s, t);
                assert_eq!(
                    seeded, plain,
                    "pair ({s},{t}) radii ({radius_s},{radius_t})"
                );
            }
        }
        // Disconnected seeded regions report unreachable.
        let mut b = GraphBuilder::with_node_count(6);
        b.add_edge(0, 1);
        b.add_edge(3, 4);
        let g2 = b.build_undirected();
        let seeded = scratch.distance_seeded(
            &g2,
            vec![(0u32, 0u32), (1, 1)],
            1,
            vec![(3u32, 0u32), (4, 1)],
            1,
        );
        assert_eq!(seeded, None);
    }

    #[test]
    fn scratch_is_reusable_across_graphs() {
        // One scratch allocation serves graphs of different sizes in turn,
        // growing its buffers as needed — the usage pattern of a server
        // worker session that outlives any single graph borrow.
        let small = classic::path(5);
        let large = classic::grid(12, 12);
        let mut scratch = BidirBfsScratch::new();
        assert_eq!(scratch.distance(&small, 0, 4), Some(4));
        assert_eq!(scratch.distance(&large, 0, 143), Some(22));
        assert_eq!(scratch.distance(&small, 4, 0), Some(4));
        assert!(scratch.last_meeting().is_some());
        let p = scratch.path(&large, 0, 143).unwrap();
        assert_eq!(validate_path(&large, 0, 143, &p), Some(22));
    }
}
