//! ALT: A* search with landmark-based lower bounds.
//!
//! Representative of the goal-directed heuristics the paper cites as prior
//! state of the art (\"A* search \[3,4\]\"). A set of landmarks is chosen, the
//! exact distance from every landmark to every node is precomputed, and the
//! triangle inequality `|d(L,t) − d(L,v)| ≤ d(v,t)` provides an admissible
//! heuristic that steers the search towards the target.
//!
//! Like the techniques it represents, ALT still runs a (modified) shortest
//! path search per query — its per-query exploration shrinks relative to
//! plain Dijkstra/BFS but remains orders of magnitude above the vicinity
//! oracle's handful of hash probes, which is exactly the comparison the
//! paper draws in §4.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::Rng;

use vicinity_graph::algo::bfs::bfs_distances;
use vicinity_graph::csr::CsrGraph;
use vicinity_graph::{Distance, NodeId, INFINITY, INVALID_NODE};

use crate::{PathEngine, PointToPoint};

/// How landmarks are selected for ALT preprocessing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AltLandmarkStrategy {
    /// Uniform random nodes.
    Random,
    /// Highest-degree nodes.
    HighestDegree,
    /// Farthest-point ("avoid") selection: iteratively pick the node
    /// farthest from the already chosen landmarks.
    Farthest,
}

/// A* with landmark lower bounds on unweighted graphs.
pub struct AltEngine<'g> {
    graph: &'g CsrGraph,
    /// `landmark_dist[i][v]` = distance from landmark `i` to node `v`.
    landmark_dist: Vec<Vec<Distance>>,
    /// The chosen landmark nodes.
    landmarks: Vec<NodeId>,
    dist: Vec<Distance>,
    parent: Vec<NodeId>,
    touched: Vec<NodeId>,
    operations: u64,
}

impl<'g> AltEngine<'g> {
    /// Preprocess `graph` with `k` landmarks chosen by `strategy`.
    pub fn new<R: Rng>(
        graph: &'g CsrGraph,
        k: usize,
        strategy: AltLandmarkStrategy,
        rng: &mut R,
    ) -> Self {
        let landmarks = select_landmarks(graph, k, strategy, rng);
        let landmark_dist = landmarks.iter().map(|&l| bfs_distances(graph, l)).collect();
        let n = graph.node_count();
        AltEngine {
            graph,
            landmark_dist,
            landmarks,
            dist: vec![INFINITY; n],
            parent: vec![INVALID_NODE; n],
            touched: Vec::new(),
            operations: 0,
        }
    }

    /// The landmarks used by this engine.
    pub fn landmarks(&self) -> &[NodeId] {
        &self.landmarks
    }

    /// Bytes of memory used by the landmark distance tables.
    pub fn preprocessing_bytes(&self) -> usize {
        self.landmark_dist.len() * self.graph.node_count() * std::mem::size_of::<Distance>()
    }

    /// Admissible lower bound on `d(v, t)` from the landmark tables.
    fn lower_bound(&self, v: NodeId, t: NodeId) -> Distance {
        let mut best = 0;
        for table in &self.landmark_dist {
            let dv = table[v as usize];
            let dt = table[t as usize];
            if dv == INFINITY || dt == INFINITY {
                continue;
            }
            let diff = dv.abs_diff(dt);
            if diff > best {
                best = diff;
            }
        }
        best
    }

    fn reset(&mut self) {
        for &u in &self.touched {
            self.dist[u as usize] = INFINITY;
            self.parent[u as usize] = INVALID_NODE;
        }
        self.touched.clear();
    }

    fn search(&mut self, s: NodeId, t: NodeId) -> Option<Distance> {
        let n = self.graph.node_count();
        self.operations = 0;
        if (s as usize) >= n || (t as usize) >= n {
            return None;
        }
        if s == t {
            return Some(0);
        }
        self.reset();
        // Heap keyed by f = g + h; ties broken by node id.
        let mut heap: BinaryHeap<Reverse<(Distance, Distance, NodeId)>> = BinaryHeap::new();
        self.dist[s as usize] = 0;
        self.parent[s as usize] = s;
        self.touched.push(s);
        heap.push(Reverse((self.lower_bound(s, t), 0, s)));

        while let Some(Reverse((_f, g, u))) = heap.pop() {
            if g > self.dist[u as usize] {
                continue;
            }
            self.operations += 1;
            if u == t {
                return Some(g);
            }
            for &v in self.graph.neighbors(u) {
                let ng = g + 1;
                if ng < self.dist[v as usize] {
                    if self.dist[v as usize] == INFINITY {
                        self.touched.push(v);
                    }
                    self.dist[v as usize] = ng;
                    self.parent[v as usize] = u;
                    let f = ng.saturating_add(self.lower_bound(v, t));
                    heap.push(Reverse((f, ng, v)));
                }
            }
        }
        None
    }
}

fn select_landmarks<R: Rng>(
    graph: &CsrGraph,
    k: usize,
    strategy: AltLandmarkStrategy,
    rng: &mut R,
) -> Vec<NodeId> {
    let n = graph.node_count();
    if n == 0 || k == 0 {
        return Vec::new();
    }
    let k = k.min(n);
    match strategy {
        AltLandmarkStrategy::Random => {
            vicinity_graph::algo::sampling::sample_distinct_nodes(graph, k, rng)
        }
        AltLandmarkStrategy::HighestDegree => {
            vicinity_graph::algo::degree::nodes_by_degree_desc(graph)
                .into_iter()
                .take(k)
                .collect()
        }
        AltLandmarkStrategy::Farthest => {
            let mut landmarks = vec![rng.gen_range(0..n as NodeId)];
            while landmarks.len() < k {
                // Distance to the nearest already-chosen landmark.
                let ms = vicinity_graph::algo::bfs::multi_source_bfs(graph, &landmarks);
                let next = ms
                    .distances
                    .iter()
                    .enumerate()
                    .filter(|&(_, &d)| d != INFINITY)
                    .max_by_key(|&(_, &d)| d)
                    .map(|(i, _)| i as NodeId);
                match next {
                    Some(v) if !landmarks.contains(&v) => landmarks.push(v),
                    _ => break,
                }
            }
            landmarks
        }
    }
}

impl PointToPoint for AltEngine<'_> {
    fn distance(&mut self, s: NodeId, t: NodeId) -> Option<Distance> {
        self.search(s, t)
    }

    fn name(&self) -> &'static str {
        "ALT (A* + landmarks)"
    }

    fn last_operations(&self) -> u64 {
        self.operations
    }
}

impl PathEngine for AltEngine<'_> {
    fn path(&mut self, s: NodeId, t: NodeId) -> Option<Vec<NodeId>> {
        self.search(s, t)?;
        let mut path = vec![t];
        let mut cur = t;
        while cur != s {
            cur = self.parent[cur as usize];
            path.push(cur);
        }
        path.reverse();
        Some(path)
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

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn all_strategies_match_bfs_on_grid() {
        let g = classic::grid(6, 6);
        let mut bfs = BfsEngine::new(&g);
        for strategy in [
            AltLandmarkStrategy::Random,
            AltLandmarkStrategy::HighestDegree,
            AltLandmarkStrategy::Farthest,
        ] {
            let mut alt = AltEngine::new(&g, 4, strategy, &mut rng(1));
            for s in [0u32, 14, 35] {
                for t in g.nodes() {
                    assert_eq!(
                        alt.distance(s, t),
                        bfs.distance(s, t),
                        "{strategy:?} ({s},{t})"
                    );
                }
            }
        }
    }

    #[test]
    fn matches_bfs_on_social_graph() {
        let g = SocialGraphConfig::small_test().generate(31);
        let mut alt = AltEngine::new(&g, 8, AltLandmarkStrategy::HighestDegree, &mut rng(2));
        let mut bfs = BfsEngine::new(&g);
        for (s, t) in random_pairs(&g, 200, &mut rng(3)) {
            assert_eq!(alt.distance(s, t), bfs.distance(s, t), "pair ({s},{t})");
        }
    }

    #[test]
    fn goal_direction_reduces_exploration() {
        let g = classic::grid(30, 30);
        let mut alt = AltEngine::new(&g, 8, AltLandmarkStrategy::Farthest, &mut rng(4));
        let mut bfs = BfsEngine::new(&g);
        let mut alt_ops = 0u64;
        let mut bfs_ops = 0u64;
        for (s, t) in random_pairs(&g, 30, &mut rng(5)) {
            alt.distance(s, t);
            bfs.distance(s, t);
            alt_ops += alt.last_operations();
            bfs_ops += bfs.last_operations();
        }
        assert!(
            alt_ops < bfs_ops,
            "ALT ({alt_ops}) should explore less than BFS ({bfs_ops})"
        );
    }

    #[test]
    fn paths_are_valid_and_shortest() {
        let g = SocialGraphConfig::small_test().generate(32);
        let mut alt = AltEngine::new(&g, 4, AltLandmarkStrategy::Random, &mut rng(6));
        let mut bfs = BfsEngine::new(&g);
        for (s, t) in random_pairs(&g, 60, &mut rng(7)) {
            if let Some(d) = alt.distance(s, t) {
                assert_eq!(Some(d), bfs.distance(s, t));
                let p = alt.path(s, t).unwrap();
                assert_eq!(validate_path(&g, s, t, &p), Some(d));
            }
        }
    }

    #[test]
    fn degenerate_inputs() {
        let mut b = GraphBuilder::with_node_count(5);
        b.add_edge(0, 1);
        b.add_edge(2, 3);
        let g = b.build_undirected();
        let mut alt = AltEngine::new(&g, 2, AltLandmarkStrategy::Random, &mut rng(8));
        assert_eq!(alt.distance(0, 3), None);
        assert_eq!(alt.distance(0, 0), Some(0));
        assert_eq!(alt.distance(0, 17), None);
        assert!(alt.preprocessing_bytes() > 0);
        assert!(!alt.landmarks().is_empty());
        assert_eq!(alt.name(), "ALT (A* + landmarks)");

        // Zero landmarks degrade to plain Dijkstra-with-zero-heuristic.
        let mut no_lm = AltEngine::new(&g, 0, AltLandmarkStrategy::Random, &mut rng(9));
        assert_eq!(no_lm.distance(0, 1), Some(1));
        assert!(no_lm.landmarks().is_empty());
    }

    #[test]
    fn landmark_count_is_capped_at_node_count() {
        let g = classic::path(4);
        let alt = AltEngine::new(&g, 100, AltLandmarkStrategy::Random, &mut rng(10));
        assert!(alt.landmarks().len() <= 4);
        let alt = AltEngine::new(&g, 100, AltLandmarkStrategy::Farthest, &mut rng(10));
        assert!(alt.landmarks().len() <= 4);
    }
}
