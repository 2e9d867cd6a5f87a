//! Breadth-first search primitives.
//!
//! The vicinity oracle's offline phase is "a modified shortest path
//! algorithm that stops once all the nodes at distance `d(u, ℓ(u))` or less
//! have been visited" (§2.2) — i.e. a bounded BFS on unweighted graphs. The
//! bounded / predicate-terminated variants live here so they can be reused
//! by both the oracle and the baselines, as does the bidirectional search
//! ([`BidirBfsScratch`]) that the oracle's miss path, the serving layer and
//! the Table 3 baseline share.

use std::collections::VecDeque;

use crate::csr::CsrGraph;
use crate::{Adjacency, Distance, NodeId, INFINITY, INVALID_NODE};

/// Full single-source BFS returning only the distance array
/// (`INFINITY` where unreachable; all `INFINITY` for an out-of-range
/// source). Keeps no parents: the distance array marks visited nodes and
/// the queue is a plain vector read from its head.
pub fn bfs_distances(graph: &CsrGraph, source: NodeId) -> Vec<Distance> {
    let n = graph.node_count();
    let mut distances = vec![INFINITY; n];
    if (source as usize) >= n {
        return distances;
    }
    distances[source as usize] = 0;
    let mut queue = Vec::with_capacity(n);
    queue.push(source);
    let mut head = 0;
    while let Some(&u) = queue.get(head) {
        head += 1;
        let next = distances[u as usize] + 1;
        for &v in graph.neighbors(u) {
            if distances[v as usize] == INFINITY {
                distances[v as usize] = next;
                queue.push(v);
            }
        }
    }
    distances
}

/// Point-to-point BFS distance; stops as soon as `target` is settled.
/// Returns `None` when the target is unreachable (or either endpoint is out
/// of range).
pub fn bfs_distance_between(graph: &CsrGraph, source: NodeId, target: NodeId) -> Option<Distance> {
    let n = graph.node_count();
    if (source as usize) >= n || (target as usize) >= n {
        return None;
    }
    if source == target {
        return Some(0);
    }
    let mut distances = vec![INFINITY; n];
    let mut queue = VecDeque::new();
    distances[source as usize] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = distances[u as usize];
        for &v in graph.neighbors(u) {
            if distances[v as usize] == INFINITY {
                if v == target {
                    return Some(du + 1);
                }
                distances[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
    }
    None
}

/// A node visited by a bounded BFS, with its distance and BFS parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VisitedNode {
    /// The visited node.
    pub node: NodeId,
    /// Its distance from the BFS source.
    pub distance: Distance,
    /// Its parent in the BFS tree (`INVALID_NODE` for the source).
    pub parent: NodeId,
}

/// BFS bounded by a maximum distance: visits exactly the nodes at distance
/// `<= radius` from `source` and returns them in non-decreasing distance
/// order. This is the "modified shortest path algorithm" of Thorup–Zwick
/// used by the paper to build balls.
pub fn bounded_bfs(graph: &CsrGraph, source: NodeId, radius: Distance) -> Vec<VisitedNode> {
    bfs_until(graph, source, |visited| visited.distance > radius)
}

/// Reusable dense scratch for running many bounded BFS traversals over the
/// same graph (one per node during oracle construction).
///
/// [`bfs_until`] keeps its memory proportional to the explored region via a
/// hash map, which is the right trade-off for a one-off call — but when a
/// builder runs one bounded BFS from *every* node, per-visit hashing
/// dominates construction time. This scratch instead keeps dense
/// stamp-versioned arrays that are allocated once and reset in O(1) per
/// traversal (by bumping the stamp), making each traversal's cost purely
/// proportional to the edges it explores.
#[derive(Debug, Clone, Default)]
pub struct BoundedBfsScratch {
    stamp: Vec<u32>,
    distance: Vec<Distance>,
    parent: Vec<NodeId>,
    queue: VecDeque<NodeId>,
    current: u32,
}

impl BoundedBfsScratch {
    /// Empty scratch; buffers grow to the graph size on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Scratch pre-sized for a graph with `n` nodes.
    pub fn with_node_capacity(n: usize) -> Self {
        let mut scratch = Self::default();
        scratch.ensure_capacity(n);
        scratch
    }

    fn ensure_capacity(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.distance.resize(n, 0);
            self.parent.resize(n, INVALID_NODE);
        }
    }

    fn bump_stamp(&mut self) -> u32 {
        self.current = self.current.wrapping_add(1);
        if self.current == 0 {
            self.stamp.iter_mut().for_each(|x| *x = 0);
            self.current = 1;
        }
        self.current
    }

    /// Equivalent of [`bounded_bfs`] — visits exactly the nodes at distance
    /// `<= radius` from `source`, in non-decreasing distance order — but
    /// reusing this scratch, so repeated calls do not rehash or reallocate.
    /// Generic over [`Adjacency`] so dynamic graph overlays can rebuild
    /// vicinities through the same traversal as the frozen builders.
    pub fn bounded_bfs<G: Adjacency>(
        &mut self,
        graph: &G,
        source: NodeId,
        radius: Distance,
    ) -> Vec<VisitedNode> {
        let n = graph.node_count();
        if (source as usize) >= n {
            return Vec::new();
        }
        self.ensure_capacity(n);
        let stamp = self.bump_stamp();

        self.queue.clear();
        self.stamp[source as usize] = stamp;
        self.distance[source as usize] = 0;
        self.parent[source as usize] = INVALID_NODE;
        self.queue.push_back(source);

        let mut visited: Vec<VisitedNode> = Vec::new();
        while let Some(u) = self.queue.pop_front() {
            let du = self.distance[u as usize];
            visited.push(VisitedNode {
                node: u,
                distance: du,
                parent: self.parent[u as usize],
            });
            if du == radius {
                // Deeper neighbours would exceed the bound; skip expansion.
                continue;
            }
            for &v in graph.neighbors(u) {
                if self.stamp[v as usize] != stamp {
                    self.stamp[v as usize] = stamp;
                    self.distance[v as usize] = du + 1;
                    self.parent[v as usize] = u;
                    self.queue.push_back(v);
                }
            }
        }
        visited
    }
}

/// Reusable scratch state for bidirectional BFS, decoupled from any graph
/// borrow.
///
/// The graph is passed to [`BidirBfsScratch::distance`] per call, so a
/// long-lived owner (e.g. a server worker session holding the graph behind
/// an `Arc`) can keep one scratch allocation alive across millions of
/// queries without a self-referential borrow. All O(n) buffers — including
/// the queues of both sides — are allocated once and recycled, so
/// repeated queries perform no per-query allocation.
#[derive(Debug, Clone, Default)]
pub struct BidirBfsScratch {
    fwd: Side,
    bwd: Side,
    current_stamp: u32,
    operations: u64,
    arcs_scanned: u64,
    /// The node where the two searches met on the last query, if they met.
    last_meeting: Option<NodeId>,
}

/// One direction of a [`BidirBfsScratch`] search.
#[derive(Debug, Clone, Default)]
struct Side {
    /// `stamp[v] == current_stamp` marks `v` as reached by this side;
    /// `parent[v]` is meaningful for reached nodes, `dist[v]` for seeds.
    stamp: Vec<u32>,
    dist: Vec<Distance>,
    parent: Vec<NodeId>,
    /// Every node within `radius` hops is reached; `queue[level_start..]`
    /// holds those at exactly `radius`, the frontier this side expands
    /// next. Earlier levels stay in `queue`, so its capacity depends only
    /// on the largest search served, not on the order of searches.
    radius: Distance,
    queue: Vec<NodeId>,
    level_start: usize,
    /// Summed degree of the frontier: the neighbour entries expanding it
    /// reads.
    frontier_arcs: u64,
}

impl Side {
    /// Forget the previous search and size the buffers for `n` nodes;
    /// seeds complete the side through `radius`.
    fn reset(&mut self, n: usize, radius: Distance) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.dist.resize(n, 0);
            self.parent.resize(n, 0);
        }
        self.radius = radius;
        self.queue.clear();
        self.level_start = 0;
        self.frontier_arcs = 0;
    }

    fn frontier_is_empty(&self) -> bool {
        self.level_start == self.queue.len()
    }

    /// Reach `node` at `distance`; a node on the boundary joins the
    /// frontier. Interior nodes stay out of it, because all their
    /// neighbours lie within the radius already, so expansion costs the
    /// boundary shell only, not the whole seeded ball.
    fn seed<G: Adjacency>(&mut self, graph: &G, stamp: u32, node: NodeId, distance: Distance) {
        self.stamp[node as usize] = stamp;
        self.dist[node as usize] = distance;
        self.parent[node as usize] = node;
        if distance == self.radius {
            self.queue.push(node);
            self.frontier_arcs += graph.neighbors(node).len() as u64;
        }
    }
}

impl BidirBfsScratch {
    /// Empty scratch; buffers grow to the graph size on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Scratch pre-sized for a graph with `n` nodes.
    pub fn with_node_capacity(n: usize) -> Self {
        let mut scratch = Self::default();
        scratch.fwd.reset(n, 0);
        scratch.bwd.reset(n, 0);
        scratch
    }

    /// Frontier nodes whose neighbour list the most recent call read.
    pub fn last_operations(&self) -> u64 {
        self.operations
    }

    /// Neighbour entries read by the most recent call: the summed degree
    /// of the nodes it counted in [`BidirBfsScratch::last_operations`].
    pub fn last_arcs_scanned(&self) -> u64 {
        self.arcs_scanned
    }

    /// The node where the two sides of the most recent search met, or
    /// `None` when they did not: the endpoints are disconnected, or the
    /// answer is the caller's upper bound.
    pub fn last_meeting(&self) -> Option<NodeId> {
        self.last_meeting
    }

    /// Clear the previous query's results and state; returns the stamp
    /// that marks this query's reached nodes.
    fn begin(&mut self, n: usize, fwd_radius: Distance, bwd_radius: Distance) -> u32 {
        self.fwd.reset(n, fwd_radius);
        self.bwd.reset(n, bwd_radius);
        self.operations = 0;
        self.arcs_scanned = 0;
        self.last_meeting = None;
        self.current_stamp = self.current_stamp.wrapping_add(1);
        if self.current_stamp == 0 {
            self.fwd.stamp.iter_mut().for_each(|x| *x = 0);
            self.bwd.stamp.iter_mut().for_each(|x| *x = 0);
            self.current_stamp = 1;
        }
        self.current_stamp
    }

    /// Exact distance between `s` and `t` in `graph`, or `None` when
    /// unreachable (or either endpoint is out of range). Generic over
    /// [`Adjacency`] so the serving fallback runs on dynamic graph
    /// overlays as well as frozen CSR graphs.
    pub fn distance<G: Adjacency>(&mut self, graph: &G, s: NodeId, t: NodeId) -> Option<Distance> {
        let n = graph.node_count();
        let stamp = self.begin(n, 0, 0);
        if (s as usize) >= n || (t as usize) >= n {
            return None;
        }
        if s == t {
            self.last_meeting = Some(s);
            return Some(0);
        }
        self.fwd.seed(graph, stamp, s, 0);
        self.bwd.seed(graph, stamp, t, 0);
        self.run(graph, stamp, INFINITY)
    }

    /// Exact distance between two *seeded* search regions: a bidirectional
    /// BFS whose sides start from precomputed distance balls instead of
    /// single nodes.
    ///
    /// This is the natural fallback for a vicinity-oracle miss: the index
    /// already holds the exact ball of each endpoint, so the search can
    /// stamp the ball interiors for free and begin expansion at the ball
    /// boundaries, skipping the first `fwd_radius` / `bwd_radius` levels of
    /// re-exploration.
    ///
    /// Contract (the oracle guarantees all of this for a missed query):
    ///
    /// * `fwd_seeds` is the **complete** set of nodes within `fwd_radius`
    ///   hops of the forward endpoint, with exact distances (and likewise
    ///   for the backward side) — completeness is what makes the resumed
    ///   BFS exact;
    /// * node ids are in range for `graph`.
    ///
    /// Overlapping seed sets are handled (the overlap is treated as a set
    /// of meeting candidates), though an oracle miss implies disjoint
    /// balls. After a seeded search, [`BidirBfsScratch::last_meeting`]
    /// reports the meeting node but paths cannot be reconstructed (seed
    /// parents are unknown to the scratch).
    pub fn distance_seeded<G: Adjacency, F, B>(
        &mut self,
        graph: &G,
        fwd_seeds: F,
        fwd_radius: Distance,
        bwd_seeds: B,
        bwd_radius: Distance,
    ) -> Option<Distance>
    where
        F: IntoIterator<Item = (NodeId, Distance)>,
        B: IntoIterator<Item = (NodeId, Distance)>,
    {
        self.distance_seeded_within(
            graph, fwd_seeds, fwd_radius, bwd_seeds, bwd_radius, INFINITY,
        )
    }

    /// [`BidirBfsScratch::distance_seeded`] started from a known upper
    /// bound: the search begins with `upper` as its best distance, so it
    /// stops as soon as the two seeded radii prove nothing shorter exists
    /// (`fwd_radius + bwd_radius + 1 >= upper` stops it right after
    /// seeding) and never expands a level that could only find a longer
    /// path. The last level that could beat `upper` is only read: with
    /// `fwd_radius + bwd_radius + 2 == upper`, as behind most oracle
    /// misses, the search only asks whether an edge joins the two shells.
    ///
    /// `upper` must be the length of a real walk between the two
    /// endpoints (for example `d(s, ℓ) + d(ℓ, t)` read from one exact
    /// landmark row), or [`INFINITY`] for no bound. The answer stays exact
    /// because the search still finds every path shorter than `upper`;
    /// when none exists it returns `upper` itself and
    /// [`BidirBfsScratch::last_meeting`] is `None`, since no search met.
    pub fn distance_seeded_within<G: Adjacency, F, B>(
        &mut self,
        graph: &G,
        fwd_seeds: F,
        fwd_radius: Distance,
        bwd_seeds: B,
        bwd_radius: Distance,
        upper: Distance,
    ) -> Option<Distance>
    where
        F: IntoIterator<Item = (NodeId, Distance)>,
        B: IntoIterator<Item = (NodeId, Distance)>,
    {
        let n = graph.node_count();
        let stamp = self.begin(n, fwd_radius, bwd_radius);
        for (node, distance) in fwd_seeds {
            debug_assert!((node as usize) < n && distance <= fwd_radius);
            self.fwd.seed(graph, stamp, node, distance);
        }
        let mut best = upper;
        for (node, distance) in bwd_seeds {
            debug_assert!((node as usize) < n && distance <= bwd_radius);
            self.bwd.seed(graph, stamp, node, distance);
            if self.fwd.stamp[node as usize] == stamp {
                let total = self.fwd.dist[node as usize] + distance;
                if total < best {
                    best = total;
                    self.last_meeting = Some(node);
                }
            }
        }
        if self.last_meeting.is_some() {
            // Complete balls that overlap hold the shortest path: the
            // least total over the overlap is the distance.
            return Some(best);
        }
        self.run(graph, stamp, best)
    }

    /// Level-synchronous bidirectional expansion over seeded sides that
    /// do not overlap yet; `best` is the caller's upper bound, returned
    /// when no shorter path exists.
    ///
    /// While the sides are disjoint, a meeting found while expanding one
    /// of them has total `radius_fwd + radius_bwd + 1`, the least any
    /// unseen path can have, so the first one ends the search. A level
    /// after which the radii would prove `best` (when `radius_fwd +
    /// radius_bwd + 2 >= best`) is the last one: it is only read for a
    /// meeting, and nothing is stamped or queued. Each step expands the
    /// side whose frontier has fewer arcs, the neighbour entries the step
    /// reads.
    fn run<G: Adjacency>(&mut self, graph: &G, stamp: u32, best: Distance) -> Option<Distance> {
        while !self.fwd.frontier_is_empty() && !self.bwd.frontier_is_empty() {
            let lower = self.fwd.radius + self.bwd.radius + 1;
            if best != INFINITY && lower >= best {
                break;
            }
            let forward = self.fwd.frontier_arcs <= self.bwd.frontier_arcs;
            let last = best != INFINITY && lower + 1 >= best;
            if let Some(meeting) = self.expand_level(graph, stamp, forward, last) {
                self.last_meeting = Some(meeting);
                return Some(lower);
            }
        }
        (best != INFINITY).then_some(best)
    }

    /// Read the neighbour lists of one side's frontier until one reaches
    /// the other side, and return that meeting node. Unless this is the
    /// `last` level, every new node is reached and queued as the side's
    /// next frontier. Either way the meeting node gets its parent on this
    /// side, which is all [`BidirBfsScratch::path`] reads of it.
    fn expand_level<G: Adjacency>(
        &mut self,
        graph: &G,
        stamp: u32,
        forward: bool,
        last: bool,
    ) -> Option<NodeId> {
        let (this, other) = if forward {
            (&mut self.fwd, &self.bwd)
        } else {
            (&mut self.bwd, &self.fwd)
        };
        let level_end = this.queue.len();
        let mut next_arcs = 0u64;
        for i in this.level_start..level_end {
            let u = this.queue[i];
            self.operations += 1;
            let neighbors = graph.neighbors(u);
            self.arcs_scanned += neighbors.len() as u64;
            for &v in neighbors {
                // The sides are disjoint, so a node the other side reached
                // is new to this one.
                if other.stamp[v as usize] == stamp {
                    this.parent[v as usize] = u;
                    return Some(v);
                }
                if !last && this.stamp[v as usize] != stamp {
                    this.stamp[v as usize] = stamp;
                    this.parent[v as usize] = u;
                    this.queue.push(v);
                    next_arcs += graph.neighbors(v).len() as u64;
                }
            }
        }
        this.level_start = level_end;
        this.frontier_arcs = next_arcs;
        this.radius += 1;
        None
    }

    /// Shortest path between `s` and `t`, or `None` when unreachable. Runs
    /// a fresh search so the parent arrays are in scope for reconstruction.
    pub fn path<G: Adjacency>(&mut self, graph: &G, s: NodeId, t: NodeId) -> Option<Vec<NodeId>> {
        self.distance(graph, s, t)?;
        if s == t {
            return Some(vec![s]);
        }
        let meeting = self
            .last_meeting
            .expect("successful search records a meeting node");
        Some(self.reconstruct(s, t, meeting))
    }

    fn reconstruct(&self, s: NodeId, t: NodeId, meeting: NodeId) -> Vec<NodeId> {
        // Forward half: meeting -> s, reversed.
        let mut forward = vec![meeting];
        let mut cur = meeting;
        while cur != s {
            cur = self.fwd.parent[cur as usize];
            forward.push(cur);
        }
        forward.reverse();
        // Backward half: meeting -> t (skip the meeting node itself).
        let mut cur = meeting;
        while cur != t {
            cur = self.bwd.parent[cur as usize];
            forward.push(cur);
        }
        forward
    }
}

/// BFS that visits nodes in non-decreasing distance order and stops (without
/// recording the node) at the first node for which `stop` returns true.
/// All previously visited nodes are returned in visit order.
///
/// The stopping rule is evaluated on settled nodes, so the traversal stops
/// at a well-defined distance frontier: once a node at distance `d` triggers
/// `stop`, no node at distance `> d` is recorded, and every node at distance
/// `< d` has already been recorded.
pub fn bfs_until<F>(graph: &CsrGraph, source: NodeId, mut stop: F) -> Vec<VisitedNode>
where
    F: FnMut(&VisitedNode) -> bool,
{
    let n = graph.node_count();
    let mut visited: Vec<VisitedNode> = Vec::new();
    if (source as usize) >= n {
        return visited;
    }
    // A local hash map keeps memory proportional to the explored region, not
    // the whole graph — essential for the O(α√n) ball-construction cost.
    let mut dist: std::collections::HashMap<NodeId, Distance> = std::collections::HashMap::new();
    let mut queue: VecDeque<VisitedNode> = VecDeque::new();
    let start = VisitedNode {
        node: source,
        distance: 0,
        parent: INVALID_NODE,
    };
    dist.insert(source, 0);
    queue.push_back(start);

    while let Some(v) = queue.pop_front() {
        if stop(&v) {
            break;
        }
        visited.push(v);
        for &w in graph.neighbors(v.node) {
            if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(w) {
                e.insert(v.distance + 1);
                queue.push_back(VisitedNode {
                    node: w,
                    distance: v.distance + 1,
                    parent: v.node,
                });
            }
        }
    }
    visited
}

/// Multi-source BFS: the distance of every node to its nearest source, and
/// which source that is. Used to compute `ℓ(u)` (nearest landmark) and
/// `d(u, ℓ(u))` for every node in a single O(n + m) pass.
#[derive(Debug, Clone)]
pub struct MultiSourceBfs {
    /// Distance from each node to the closest source.
    pub distances: Vec<Distance>,
    /// The smallest-id source among the closest ones for each node
    /// (`INVALID_NODE` if unreachable). It depends only on the graph and
    /// the source set, not on the order sources are listed in.
    pub nearest_source: Vec<NodeId>,
}

/// Run a multi-source BFS from `sources`.
pub fn multi_source_bfs(graph: &CsrGraph, sources: &[NodeId]) -> MultiSourceBfs {
    let n = graph.node_count();
    let mut distances = vec![INFINITY; n];
    let mut nearest_source = vec![INVALID_NODE; n];
    let mut queue = VecDeque::new();
    for &s in sources {
        if (s as usize) < n && distances[s as usize] == INFINITY {
            distances[s as usize] = 0;
            nearest_source[s as usize] = s;
            queue.push_back(s);
        }
    }
    while let Some(u) = queue.pop_front() {
        let du = distances[u as usize];
        let su = nearest_source[u as usize];
        for &v in graph.neighbors(u) {
            if distances[v as usize] == INFINITY {
                distances[v as usize] = du + 1;
                nearest_source[v as usize] = su;
                queue.push_back(v);
            } else if distances[v as usize] == du + 1 && su < nearest_source[v as usize] {
                // Found again on the same level: every level-`du` node is
                // popped before `v`, so `v` leaves with the least label.
                nearest_source[v as usize] = su;
            }
        }
    }
    MultiSourceBfs {
        distances,
        nearest_source,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::generators::classic;

    fn path_graph(n: usize) -> CsrGraph {
        classic::path(n)
    }

    #[test]
    fn bfs_distances_on_path() {
        let g = path_graph(5);
        let d = bfs_distances(&g, 0);
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn bfs_handles_disconnected_graph() {
        let mut b = GraphBuilder::with_node_count(4);
        b.add_edge(0, 1);
        b.add_edge(2, 3);
        let g = b.build_undirected();
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, INFINITY, INFINITY]);
        assert_eq!(bfs_distances(&g, 3), vec![INFINITY, INFINITY, 1, 0]);
        assert_eq!(bfs_distance_between(&g, 0, 3), None);
    }

    #[test]
    fn bfs_distance_between_matches_full_bfs() {
        let g = classic::grid(4, 4);
        let full = bfs_distances(&g, 0);
        for v in 0..16u32 {
            assert_eq!(bfs_distance_between(&g, 0, v), Some(full[v as usize]));
        }
    }

    #[test]
    fn bfs_distance_between_source_equals_target() {
        let g = path_graph(3);
        assert_eq!(bfs_distance_between(&g, 1, 1), Some(0));
    }

    #[test]
    fn bfs_out_of_range_source_is_empty() {
        let g = path_graph(3);
        assert_eq!(bfs_distance_between(&g, 7, 0), None);
        assert_eq!(bfs_distance_between(&g, 0, 7), None);
        assert_eq!(bfs_distances(&g, 9), vec![INFINITY; 3]);
        assert!(bounded_bfs(&g, 9, 2).is_empty());
    }

    #[test]
    fn bounded_bfs_respects_radius() {
        let g = path_graph(10);
        let visited = bounded_bfs(&g, 0, 3);
        let nodes: Vec<NodeId> = visited.iter().map(|v| v.node).collect();
        assert_eq!(nodes, vec![0, 1, 2, 3]);
        assert!(visited.iter().all(|v| v.distance <= 3));
        // Distances are non-decreasing in visit order.
        assert!(visited.windows(2).all(|w| w[0].distance <= w[1].distance));
    }

    #[test]
    fn bounded_bfs_zero_radius_is_source_only() {
        let g = path_graph(5);
        let visited = bounded_bfs(&g, 2, 0);
        assert_eq!(visited.len(), 1);
        assert_eq!(visited[0].node, 2);
        assert_eq!(visited[0].parent, INVALID_NODE);
    }

    #[test]
    fn bfs_until_stop_predicate() {
        let g = classic::star(10); // hub 0 with 10 leaves
                                   // Stop as soon as we would settle a node at distance 2 (none exist,
                                   // so everything is visited).
        let all = bfs_until(&g, 0, |v| v.distance > 1);
        assert_eq!(all.len(), 11);
        // Stop after 3 visited nodes.
        let mut count = 0;
        let some = bfs_until(&g, 0, move |_| {
            count += 1;
            count > 3
        });
        assert_eq!(some.len(), 3);
    }

    #[test]
    fn bounded_bfs_parents_form_valid_tree() {
        let g = classic::grid(5, 5);
        let visited = bounded_bfs(&g, 12, 3);
        let by_node: std::collections::HashMap<NodeId, VisitedNode> =
            visited.iter().map(|v| (v.node, *v)).collect();
        for v in &visited {
            if v.node == 12 {
                assert_eq!(v.parent, INVALID_NODE);
            } else {
                let p = by_node
                    .get(&v.parent)
                    .expect("parent must be visited earlier");
                assert_eq!(p.distance + 1, v.distance);
                assert!(g.has_edge(v.parent, v.node));
            }
        }
    }

    #[test]
    fn scratch_bounded_bfs_matches_pure_function() {
        let g = classic::grid(9, 7);
        let mut scratch = BoundedBfsScratch::new();
        for source in [0u32, 13, 62] {
            for radius in 0..6 {
                assert_eq!(
                    scratch.bounded_bfs(&g, source, radius),
                    bounded_bfs(&g, source, radius),
                    "source {source} radius {radius}"
                );
            }
        }
        // Out-of-range sources and reuse across graphs of different sizes.
        assert!(scratch.bounded_bfs(&g, 1000, 3).is_empty());
        let small = classic::path(4);
        assert_eq!(scratch.bounded_bfs(&small, 0, 2), bounded_bfs(&small, 0, 2));
    }

    #[test]
    fn scratch_stamp_wraparound() {
        let g = classic::path(5);
        let mut scratch = BoundedBfsScratch::with_node_capacity(5);
        scratch.current = u32::MAX - 1;
        assert_eq!(scratch.bounded_bfs(&g, 0, 4).len(), 5);
        assert_eq!(scratch.bounded_bfs(&g, 0, 4).len(), 5);
        assert_eq!(scratch.bounded_bfs(&g, 4, 1).len(), 2);
    }

    #[test]
    fn bidir_scratch_stamp_wraparound() {
        let g = path_graph(4);
        let mut scratch = BidirBfsScratch::with_node_capacity(4);
        scratch.current_stamp = u32::MAX - 1;
        assert_eq!(scratch.distance(&g, 0, 3), Some(3));
        assert_eq!(scratch.distance(&g, 0, 3), Some(3));
        assert_eq!(scratch.distance(&g, 3, 0), Some(3));
    }

    #[test]
    fn seeded_search_within_a_bound() {
        // Path 0..=9 with balls of radius 2 around both ends: d(0, 9) = 9
        // exceeds 2 + 2 + 1, so the search has levels left to expand.
        let g = path_graph(10);
        let fwd = [(0, 0), (1, 1), (2, 2)];
        let bwd = [(9, 0), (8, 1), (7, 2)];
        let mut scratch = BidirBfsScratch::new();
        assert_eq!(scratch.distance_seeded(&g, fwd, 2, bwd, 2), Some(9));
        let unbounded = (scratch.last_operations(), scratch.last_arcs_scanned());
        assert!(unbounded.0 > 0 && unbounded.1 >= unbounded.0);
        assert!(scratch.last_meeting().is_some());
        // A tight bound is returned as is; the search still has to rule
        // out the levels between the radii and the bound.
        assert_eq!(
            scratch.distance_seeded_within(&g, fwd, 2, bwd, 2, 9),
            Some(9)
        );
        assert_eq!(scratch.last_meeting(), None);
        assert!(scratch.last_operations() <= unbounded.0);
        // A loose bound never hides the shorter path.
        assert_eq!(
            scratch.distance_seeded_within(&g, fwd, 2, bwd, 2, 12),
            Some(9)
        );
        assert!(scratch.last_meeting().is_some());
        // When the radii already prove the bound, no node is popped.
        let fwd = [(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)];
        let bwd = [(9, 0), (8, 1), (7, 2), (6, 3), (5, 4)];
        assert_eq!(
            scratch.distance_seeded_within(&g, fwd, 4, bwd, 4, 9),
            Some(9)
        );
        assert_eq!(scratch.last_operations(), 0);
        assert_eq!(scratch.last_arcs_scanned(), 0);
        assert_eq!(scratch.last_meeting(), None);
    }

    /// Seeds for `distance_seeded*`: the complete ball of `radius` hops
    /// around `center`.
    fn ball(g: &CsrGraph, center: NodeId, radius: Distance) -> Vec<(NodeId, Distance)> {
        bounded_bfs(g, center, radius)
            .iter()
            .map(|v| (v.node, v.distance))
            .collect()
    }

    #[test]
    fn first_meeting_ends_the_level() {
        // Hub 0 with leaves 1, 2, 3 against hub 10 with leaves 11..=15;
        // the only bridge is 1 - 11. The forward frontier {1, 2, 3} is
        // expanded, and the first node read meets: the other two are
        // never read.
        let mut b = GraphBuilder::with_node_count(16);
        for v in [1, 2, 3] {
            b.add_edge(0, v);
        }
        for v in 11..=15 {
            b.add_edge(10, v);
        }
        b.add_edge(1, 11);
        let g = b.build_undirected();
        let mut scratch = BidirBfsScratch::new();
        let found = scratch.distance_seeded(&g, ball(&g, 0, 1), 1, ball(&g, 10, 1), 1);
        assert_eq!(found, Some(3));
        assert_eq!(scratch.last_meeting(), Some(11));
        assert_eq!(scratch.last_operations(), 1);
        assert_eq!(scratch.last_arcs_scanned(), 2);
    }

    #[test]
    fn last_level_is_only_read() {
        // Path 0..=6 with balls of radius 2 around both ends: the shells
        // {2} and {4} share no edge, so with the bound 2 + 2 + 2 the one
        // level left is read, nothing new is reached, and the bound is
        // the answer.
        let g = path_graph(7);
        let (fwd, bwd) = (ball(&g, 0, 2), ball(&g, 6, 2));
        let mut scratch = BidirBfsScratch::new();
        assert_eq!(
            scratch.distance_seeded_within(&g, fwd.clone(), 2, bwd.clone(), 2, 6),
            Some(6)
        );
        assert_eq!(scratch.last_meeting(), None);
        assert_eq!(scratch.last_operations(), 1);
        assert_eq!(scratch.last_arcs_scanned(), 2);
        let stamp = scratch.current_stamp;
        let reached = (0..7)
            .filter(|&v| scratch.fwd.stamp[v] == stamp || scratch.bwd.stamp[v] == stamp)
            .count();
        assert_eq!(reached, fwd.len() + bwd.len(), "node 3 stays unreached");
        // The same scratch still answers exactly afterwards.
        assert_eq!(scratch.distance_seeded(&g, fwd, 2, bwd, 2), Some(6));
        assert_eq!(scratch.last_meeting(), Some(4));
        assert_eq!(scratch.path(&g, 0, 6), Some((0..7).collect()));
    }

    #[test]
    fn side_with_fewer_arcs_is_expanded() {
        // The forward side is hub 0 alone (5 arcs); the backward side is
        // the shell {6, 5} around 7 (2 + 2 arcs). Fewer nodes would pick
        // the hub; fewer arcs picks the two-node shell, and both of its
        // lists are read before 5 - 0 meets.
        let mut b = GraphBuilder::with_node_count(9);
        for v in 1..=5 {
            b.add_edge(0, v);
        }
        for (u, v) in [(5, 7), (6, 7), (6, 8)] {
            b.add_edge(u, v);
        }
        let g = b.build_undirected();
        let bwd = [(7, 0), (6, 1), (5, 1)];
        let mut scratch = BidirBfsScratch::new();
        assert_eq!(scratch.distance_seeded(&g, [(0, 0)], 0, bwd, 1), Some(2));
        assert_eq!(scratch.last_meeting(), Some(0));
        assert_eq!(scratch.last_operations(), 2);
        assert_eq!(scratch.last_arcs_scanned(), 4);
        let p = scratch.path(&g, 0, 7).expect("connected");
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn multi_source_bfs_assigns_nearest() {
        let g = path_graph(10);
        let ms = multi_source_bfs(&g, &[0, 9]);
        assert_eq!(ms.distances[0], 0);
        assert_eq!(ms.distances[9], 0);
        assert_eq!(ms.distances[4], 4);
        assert_eq!(ms.distances[5], 4);
        assert_eq!(ms.nearest_source[1], 0);
        assert_eq!(ms.nearest_source[8], 9);
    }

    #[test]
    fn multi_source_bfs_breaks_ties_by_smallest_landmark() {
        // Node 2 sits two hops from both ends of the path; whichever order
        // the sources are listed in, it is labelled with the smaller one.
        let g = path_graph(5);
        for sources in [[4, 0], [0, 4]] {
            let ms = multi_source_bfs(&g, &sources);
            assert_eq!(ms.distances[2], 2);
            assert_eq!(ms.nearest_source[2], 0, "sources {sources:?}");
            assert_eq!(ms.nearest_source[1], 0);
            assert_eq!(ms.nearest_source[3], 4);
        }
    }

    #[test]
    fn multi_source_bfs_empty_sources() {
        let g = path_graph(4);
        let ms = multi_source_bfs(&g, &[]);
        assert!(ms.distances.iter().all(|&d| d == INFINITY));
        assert!(ms.nearest_source.iter().all(|&s| s == INVALID_NODE));
    }

    #[test]
    fn multi_source_bfs_duplicate_sources() {
        let g = path_graph(4);
        let ms = multi_source_bfs(&g, &[1, 1, 1]);
        assert_eq!(ms.distances, vec![1, 0, 1, 2]);
    }
}
