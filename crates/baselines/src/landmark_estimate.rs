//! Landmark-based *approximate* distance estimation.
//!
//! Represents the approximation algorithms the paper positions itself
//! against in §4 — Orion \[19\], sketch-based oracles [11, 12] and
//! landmark-BFS schemes [17, 20]. Each node stores its distance to a small
//! set of landmarks; a query returns the best upper bound
//! `min_L d(s, L) + d(L, t)` (and optionally the lower bound
//! `max_L |d(s, L) − d(L, t)|`).
//!
//! These estimates are fast (a handful of array reads) but inexact — the
//! experiments use this engine to reproduce the paper's accuracy-vs-latency
//! trade-off discussion: comparable latency to the vicinity oracle, but with
//! multi-hop absolute error, whereas the vicinity oracle is exact whenever
//! it answers.

use rand::Rng;

use vicinity_graph::algo::bfs::bfs_distances;
use vicinity_graph::algo::degree::nodes_by_degree_desc;
use vicinity_graph::csr::CsrGraph;
use vicinity_graph::{Distance, NodeId, INFINITY};

use crate::PointToPoint;

/// How landmarks are selected for the estimator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EstimatorLandmarkStrategy {
    /// Uniform random landmarks.
    Random,
    /// Highest-degree landmarks (Orion-style; best accuracy on social
    /// networks because hubs lie on many shortest paths).
    HighestDegree,
}

/// Landmark-based approximate distance oracle.
pub struct LandmarkEstimator {
    /// `tables[i][v]` = exact distance from landmark `i` to `v`.
    tables: Vec<Vec<Distance>>,
    landmarks: Vec<NodeId>,
    operations: u64,
}

impl LandmarkEstimator {
    /// Build an estimator with `k` landmarks.
    pub fn new<R: Rng>(
        graph: &CsrGraph,
        k: usize,
        strategy: EstimatorLandmarkStrategy,
        rng: &mut R,
    ) -> Self {
        let n = graph.node_count();
        let k = k.min(n);
        let landmarks: Vec<NodeId> = match strategy {
            EstimatorLandmarkStrategy::Random => {
                vicinity_graph::algo::sampling::sample_distinct_nodes(graph, k, rng)
            }
            EstimatorLandmarkStrategy::HighestDegree => {
                nodes_by_degree_desc(graph).into_iter().take(k).collect()
            }
        };
        let tables = landmarks.iter().map(|&l| bfs_distances(graph, l)).collect();
        LandmarkEstimator {
            tables,
            landmarks,
            operations: 0,
        }
    }

    /// The selected landmarks.
    pub fn landmarks(&self) -> &[NodeId] {
        &self.landmarks
    }

    /// Upper-bound estimate `min_L d(s,L) + d(L,t)`, or `None` when no
    /// landmark reaches both endpoints.
    pub fn upper_bound(&mut self, s: NodeId, t: NodeId) -> Option<Distance> {
        self.operations = 0;
        let mut best = INFINITY;
        for table in &self.tables {
            self.operations += 2;
            let (Some(&ds), Some(&dt)) = (table.get(s as usize), table.get(t as usize)) else {
                return None;
            };
            if ds == INFINITY || dt == INFINITY {
                continue;
            }
            let est = ds + dt;
            if est < best {
                best = est;
            }
        }
        (best != INFINITY).then_some(best)
    }

    /// Lower-bound estimate `max_L |d(s,L) − d(L,t)|`.
    pub fn lower_bound(&self, s: NodeId, t: NodeId) -> Option<Distance> {
        let mut best = None;
        for table in &self.tables {
            let (Some(&ds), Some(&dt)) = (table.get(s as usize), table.get(t as usize)) else {
                return None;
            };
            if ds == INFINITY || dt == INFINITY {
                continue;
            }
            let bound = ds.abs_diff(dt);
            best = Some(best.map_or(bound, |b: Distance| b.max(bound)));
        }
        best
    }
}

impl PointToPoint for LandmarkEstimator {
    fn distance(&mut self, s: NodeId, t: NodeId) -> Option<Distance> {
        if s == t {
            return Some(0);
        }
        self.upper_bound(s, t)
    }

    fn name(&self) -> &'static str {
        "Landmark estimation (Orion-style)"
    }

    fn last_operations(&self) -> u64 {
        self.operations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::BfsEngine;
    use rand::SeedableRng;
    use vicinity_graph::algo::sampling::random_pairs;
    use vicinity_graph::builder::GraphBuilder;
    use vicinity_graph::generators::{classic, social::SocialGraphConfig};

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn estimates_bracket_the_true_distance() {
        let g = SocialGraphConfig::small_test().generate(41);
        let mut est = LandmarkEstimator::new(
            &g,
            16,
            EstimatorLandmarkStrategy::HighestDegree,
            &mut rng(1),
        );
        let mut bfs = BfsEngine::new(&g);
        for (s, t) in random_pairs(&g, 200, &mut rng(2)) {
            let exact = bfs.distance(s, t).expect("connected stand-in");
            let upper = est.upper_bound(s, t).expect("landmarks reach everything");
            let lower = est.lower_bound(s, t).expect("landmarks reach everything");
            assert!(upper >= exact, "upper bound {upper} < exact {exact}");
            assert!(lower <= exact, "lower bound {lower} > exact {exact}");
        }
    }

    #[test]
    fn estimate_is_exact_through_a_landmark() {
        // Path graph with the middle node as the only landmark: estimates
        // for pairs on opposite sides pass through it and are exact.
        let g = classic::path(9);
        let mut est = LandmarkEstimator {
            tables: vec![bfs_distances(&g, 4)],
            landmarks: vec![4],
            operations: 0,
        };
        assert_eq!(est.distance(0, 8), Some(8));
        assert_eq!(est.distance(2, 6), Some(4));
        // Same-side pairs are overestimated (must go via the landmark):
        // d(0,4) + d(4,1) = 4 + 3 = 7, while the true distance is 1.
        assert_eq!(est.distance(0, 1), Some(7));
    }

    #[test]
    fn high_degree_landmarks_beat_random_on_social_graphs() {
        let g = SocialGraphConfig::small_test().generate(42);
        let mut hub =
            LandmarkEstimator::new(&g, 8, EstimatorLandmarkStrategy::HighestDegree, &mut rng(3));
        let mut rand_lm =
            LandmarkEstimator::new(&g, 8, EstimatorLandmarkStrategy::Random, &mut rng(3));
        let mut bfs = BfsEngine::new(&g);
        let mut err_hub = 0i64;
        let mut err_rand = 0i64;
        for (s, t) in random_pairs(&g, 300, &mut rng(4)) {
            let exact = bfs.distance(s, t).unwrap() as i64;
            err_hub += hub.distance(s, t).unwrap() as i64 - exact;
            err_rand += rand_lm.distance(s, t).unwrap() as i64 - exact;
        }
        assert!(
            err_hub <= err_rand,
            "hub landmarks (err {err_hub}) should not be worse than random (err {err_rand})"
        );
    }

    #[test]
    fn identical_endpoints_and_degenerate_inputs() {
        let mut b = GraphBuilder::with_node_count(4);
        b.add_edge(0, 1);
        let g = b.build_undirected();
        let mut est = LandmarkEstimator::new(&g, 2, EstimatorLandmarkStrategy::Random, &mut rng(5));
        assert_eq!(est.distance(3, 3), Some(0));
        // Node 2/3 are isolated: no landmark reaches both endpoints unless
        // the landmark *is* the endpoint; either way bounds are None or huge.
        assert_eq!(est.distance(0, 9), None);
        assert!(est.landmarks().len() <= 4);
        assert_eq!(est.name(), "Landmark estimation (Orion-style)");
    }

    use vicinity_graph::algo::bfs::bfs_distances;
}
