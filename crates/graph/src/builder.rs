//! Incremental construction of [`CsrGraph`] values.
//!
//! Raw edge lists — whether read from disk or produced by a generator — are
//! messy: they contain duplicate edges, self loops and an unknown node
//! count. [`GraphBuilder`] collects arbitrary `(u, v)` pairs and produces a
//! clean, canonical CSR graph: self loops removed, parallel edges collapsed
//! and adjacency lists sorted.

use crate::csr::CsrGraph;
use crate::NodeId;

/// Collects edges and produces canonical CSR graphs.
///
/// ```
/// use vicinity_graph::builder::GraphBuilder;
///
/// let mut b = GraphBuilder::new();
/// b.add_edge(0, 1);
/// b.add_edge(1, 0); // duplicate of the same undirected edge
/// b.add_edge(1, 1); // self loop, dropped
/// b.add_edge(1, 2);
/// let g = b.build_undirected();
/// assert_eq!(g.node_count(), 3);
/// assert_eq!(g.edge_count(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    edges: Vec<(NodeId, NodeId)>,
    /// Explicit minimum node count (nodes may be isolated).
    min_nodes: usize,
    /// Number of self loops dropped so far (reported in build stats).
    self_loops_dropped: usize,
}

/// Summary of what [`GraphBuilder::build_undirected_with_stats`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BuildStats {
    /// Edges supplied by the caller (including duplicates / self loops).
    pub input_edges: usize,
    /// Self loops removed.
    pub self_loops_removed: usize,
    /// Duplicate (parallel) edges collapsed.
    pub duplicates_removed: usize,
    /// Undirected edges in the final graph.
    pub final_edges: usize,
}

impl GraphBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a builder that will produce a graph with at least `n` nodes,
    /// even if some of them end up isolated.
    pub fn with_node_count(n: usize) -> Self {
        GraphBuilder {
            min_nodes: n,
            ..Self::default()
        }
    }

    /// Pre-allocate space for `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        GraphBuilder {
            edges: Vec::with_capacity(m),
            min_nodes: n,
            self_loops_dropped: 0,
        }
    }

    /// Ensure the final graph has at least `n` nodes.
    pub fn ensure_nodes(&mut self, n: usize) {
        self.min_nodes = self.min_nodes.max(n);
    }

    /// Add an edge between `u` and `v`. Self loops are silently dropped.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        if u == v {
            self.self_loops_dropped += 1;
            return;
        }
        self.edges.push((u, v));
    }

    /// True if no edge has been added.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty() && self.min_nodes == 0
    }

    fn node_count(&self) -> usize {
        let max_seen = self
            .edges
            .iter()
            .map(|&(u, v)| u.max(v) as usize + 1)
            .max()
            .unwrap_or(0);
        max_seen.max(self.min_nodes)
    }

    /// Build an undirected, unweighted CSR graph: every edge is stored in
    /// both directions, self loops dropped, parallel edges collapsed and
    /// adjacency lists sorted ascending.
    pub fn build_undirected(&self) -> CsrGraph {
        self.build_undirected_with_stats().0
    }

    /// Like [`GraphBuilder::build_undirected`] but also reports cleanup
    /// statistics.
    pub fn build_undirected_with_stats(&self) -> (CsrGraph, BuildStats) {
        let n = self.node_count();
        // Canonicalise every edge as (min, max) and dedup.
        let mut canon: Vec<(NodeId, NodeId)> = self
            .edges
            .iter()
            .map(|&(u, v)| if u < v { (u, v) } else { (v, u) })
            .collect();
        canon.sort_unstable();
        let before = canon.len();
        canon.dedup();
        let duplicates = before - canon.len();

        let (offsets, targets) = assemble_symmetric(n, &canon);
        let graph = CsrGraph::from_parts(offsets, targets)
            .expect("builder produces structurally valid CSR data");
        let stats = BuildStats {
            input_edges: self.edges.len() + self.self_loops_dropped,
            self_loops_removed: self.self_loops_dropped,
            duplicates_removed: duplicates,
            final_edges: graph.edge_count(),
        };
        (graph, stats)
    }
}

/// Assemble symmetric (undirected) CSR arrays from canonical deduplicated
/// edges.
fn assemble_symmetric(n: usize, canon: &[(NodeId, NodeId)]) -> (Vec<u64>, Vec<NodeId>) {
    let mut offsets = vec![0u64; n + 1];
    for &(u, v) in canon {
        offsets[u as usize + 1] += 1;
        offsets[v as usize + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let mut targets = vec![0 as NodeId; canon.len() * 2];
    let mut cursor = offsets.clone();
    for &(u, v) in canon {
        let su = cursor[u as usize] as usize;
        targets[su] = v;
        cursor[u as usize] += 1;
        let sv = cursor[v as usize] as usize;
        targets[sv] = u;
        cursor[v as usize] += 1;
    }
    // Sort each adjacency list for deterministic iteration order.
    for u in 0..n {
        let range = offsets[u] as usize..offsets[u + 1] as usize;
        targets[range].sort_unstable();
    }
    (offsets, targets)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_and_self_loop_removal() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.add_edge(1, 0);
        b.add_edge(0, 1);
        b.add_edge(2, 2);
        b.add_edge(1, 2);
        let (g, stats) = b.build_undirected_with_stats();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(stats.self_loops_removed, 1);
        assert_eq!(stats.duplicates_removed, 2);
        assert_eq!(stats.final_edges, 2);
        assert_eq!(stats.input_edges, 5);
    }

    #[test]
    fn adjacency_lists_are_sorted() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 3);
        b.add_edge(0, 1);
        b.add_edge(0, 2);
        let g = b.build_undirected();
        assert_eq!(g.neighbors(0), &[1, 2, 3]);
    }

    #[test]
    fn with_node_count_keeps_isolated_nodes() {
        let mut b = GraphBuilder::with_node_count(10);
        b.add_edge(0, 1);
        let g = b.build_undirected();
        assert_eq!(g.node_count(), 10);
        assert_eq!(g.degree(9), 0);
    }

    #[test]
    fn ensure_nodes_expands() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.ensure_nodes(5);
        assert_eq!(b.build_undirected().node_count(), 5);
    }

    #[test]
    fn empty_builder_produces_empty_graph() {
        let b = GraphBuilder::new();
        assert!(b.is_empty());
        let g = b.build_undirected();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }
}
