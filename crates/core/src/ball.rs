//! Ball radii: for every node `u`, the distance to its nearest landmark
//! `d(u, ℓ(u))` and the identity of `ℓ(u)`.
//!
//! The ball of `u` is `B(u) = { v : d(u,v) < d(u, ℓ(u)) }` (Definition 1 of
//! the paper). Computing every ball therefore needs every node's nearest
//! landmark, which a single multi-source BFS from all landmarks provides in
//! O(n + m) — this is the first step of the offline phase.

use vicinity_graph::algo::bfs::multi_source_bfs;
use vicinity_graph::csr::CsrGraph;
use vicinity_graph::{Distance, NodeId, INFINITY, INVALID_NODE};

use crate::landmarks::LandmarkSet;

/// Per-node nearest-landmark information.
///
/// Ties are broken canonically: `ℓ(u)` is the smallest-id landmark at
/// distance `d(u, L)`, so it depends only on the graph and the landmark
/// set. The dynamic oracle derives its labels from the landmark rows by
/// the same rule (the least `(distance, id)` entry of a node's column),
/// which is what makes its answers — the landmark walk's included — equal
/// a pinned-landmark rebuild's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BallRadii {
    /// `radius[u] = d(u, ℓ(u))`; `INFINITY` when no landmark is reachable
    /// from `u` (disconnected graph or empty landmark set).
    pub radius: Vec<Distance>,
    /// `nearest[u] = ℓ(u)`, the smallest-id landmark among the nearest;
    /// `INVALID_NODE` when no landmark is reachable.
    pub nearest: Vec<NodeId>,
}

impl BallRadii {
    /// Compute the nearest landmark and ball radius of every node.
    pub fn compute(graph: &CsrGraph, landmarks: &LandmarkSet) -> Self {
        let result = multi_source_bfs(graph, landmarks.nodes());
        BallRadii {
            radius: result.distances,
            nearest: result.nearest_source,
        }
    }

    /// Ball radius of `u` (`d(u, ℓ(u))`), or `None` when no landmark is
    /// reachable from `u`.
    pub fn radius_of(&self, u: NodeId) -> Option<Distance> {
        match self.radius.get(u as usize) {
            Some(&d) if d != INFINITY => Some(d),
            _ => None,
        }
    }

    /// Nearest landmark `ℓ(u)`, or `None` when no landmark is reachable.
    pub fn nearest_landmark(&self, u: NodeId) -> Option<NodeId> {
        match self.nearest.get(u as usize) {
            Some(&l) if l != INVALID_NODE => Some(l),
            _ => None,
        }
    }

    /// Average finite ball radius — the quantity plotted (per α) in
    /// Figure 2 (right) of the paper ("vicinity radius").
    pub fn average_radius(&self) -> f64 {
        let finite: Vec<Distance> = self
            .radius
            .iter()
            .copied()
            .filter(|&d| d != INFINITY)
            .collect();
        if finite.is_empty() {
            return 0.0;
        }
        finite.iter().map(|&d| d as f64).sum::<f64>() / finite.len() as f64
    }

    /// Maximum finite ball radius.
    pub fn max_radius(&self) -> Distance {
        self.radius
            .iter()
            .copied()
            .filter(|&d| d != INFINITY)
            .max()
            .unwrap_or(0)
    }

    /// Number of nodes with no reachable landmark.
    pub fn unreachable_count(&self) -> usize {
        self.radius.iter().filter(|&&d| d == INFINITY).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vicinity_graph::builder::GraphBuilder;
    use vicinity_graph::generators::classic;

    #[test]
    fn radii_on_a_path_with_one_landmark() {
        let g = classic::path(7);
        let landmarks = LandmarkSet::from_nodes(vec![0], 7);
        let b = BallRadii::compute(&g, &landmarks);
        for u in 0..7u32 {
            assert_eq!(b.radius_of(u), Some(u));
            assert_eq!(b.nearest_landmark(u), Some(0));
        }
        assert_eq!(b.max_radius(), 6);
        assert!((b.average_radius() - 3.0).abs() < 1e-12);
        assert_eq!(b.unreachable_count(), 0);
    }

    #[test]
    fn nearest_of_two_landmarks_wins() {
        let g = classic::path(10);
        let landmarks = LandmarkSet::from_nodes(vec![0, 9], 10);
        let b = BallRadii::compute(&g, &landmarks);
        assert_eq!(b.radius_of(2), Some(2));
        assert_eq!(b.nearest_landmark(2), Some(0));
        assert_eq!(b.radius_of(7), Some(2));
        assert_eq!(b.nearest_landmark(7), Some(9));
        // Landmarks themselves have radius 0.
        assert_eq!(b.radius_of(0), Some(0));
        assert_eq!(b.radius_of(9), Some(0));
    }

    #[test]
    fn unreachable_nodes_have_no_radius() {
        let mut builder = GraphBuilder::with_node_count(5);
        builder.add_edge(0, 1);
        builder.add_edge(2, 3);
        let g = builder.build_undirected();
        let landmarks = LandmarkSet::from_nodes(vec![0], 5);
        let b = BallRadii::compute(&g, &landmarks);
        assert_eq!(b.radius_of(1), Some(1));
        assert_eq!(b.radius_of(2), None);
        assert_eq!(b.nearest_landmark(3), None);
        assert_eq!(b.unreachable_count(), 3); // nodes 2, 3 and 4
    }

    #[test]
    fn empty_landmark_set_means_everything_unreachable() {
        let g = classic::cycle(5);
        let landmarks = LandmarkSet::from_nodes(vec![], 5);
        let b = BallRadii::compute(&g, &landmarks);
        assert_eq!(b.unreachable_count(), 5);
        assert_eq!(b.average_radius(), 0.0);
        assert_eq!(b.max_radius(), 0);
        assert_eq!(b.radius_of(0), None);
    }

    #[test]
    fn out_of_range_queries_return_none() {
        let g = classic::path(3);
        let landmarks = LandmarkSet::from_nodes(vec![0], 3);
        let b = BallRadii::compute(&g, &landmarks);
        assert_eq!(b.radius_of(99), None);
        assert_eq!(b.nearest_landmark(99), None);
    }
}
