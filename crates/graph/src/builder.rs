//! Incremental construction of [`CsrGraph`] / [`WeightedCsrGraph`] values.
//!
//! Raw edge lists — whether read from disk or produced by a generator — are
//! messy: they contain duplicate edges, self loops and an unknown node
//! count. [`GraphBuilder`] collects arbitrary `(u, v)` pairs and produces a
//! clean, canonical CSR graph: self loops removed, parallel edges collapsed
//! and adjacency lists sorted.

use std::collections::HashMap;

use crate::csr::CsrGraph;
use crate::weighted::WeightedCsrGraph;
use crate::{Distance, NodeId};

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
    /// Weights parallel to `edges`; empty when no weighted edge was added.
    weights: Vec<Distance>,
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
            weights: Vec::new(),
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
        if !self.weights.is_empty() {
            // Keep weights aligned if the caller mixes APIs: default weight 1.
            self.weights.push(1);
        }
    }

    /// Add a weighted edge. Mixing with [`GraphBuilder::add_edge`] is
    /// allowed; unweighted edges default to weight 1.
    pub fn add_weighted_edge(&mut self, u: NodeId, v: NodeId, w: Distance) {
        if u == v {
            self.self_loops_dropped += 1;
            return;
        }
        if self.weights.is_empty() && !self.edges.is_empty() {
            // Backfill weight 1 for edges added before the first weighted one.
            self.weights = vec![1; self.edges.len()];
        }
        self.edges.push((u, v));
        self.weights.push(w);
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

        let (offsets, targets) = assemble_symmetric(n, &canon, None);
        let graph = CsrGraph::from_parts(offsets, targets, true)
            .expect("builder produces structurally valid CSR data");
        let stats = BuildStats {
            input_edges: self.edges.len() + self.self_loops_dropped,
            self_loops_removed: self.self_loops_dropped,
            duplicates_removed: duplicates,
            final_edges: graph.edge_count(),
        };
        (graph, stats)
    }

    /// Build a directed, unweighted CSR graph: arcs are kept exactly as
    /// added (after dropping self loops and duplicate arcs).
    pub fn build_directed(&self) -> CsrGraph {
        let n = self.node_count();
        let mut arcs = self.edges.clone();
        arcs.sort_unstable();
        arcs.dedup();

        let mut offsets = vec![0u64; n + 1];
        for &(u, _) in &arcs {
            offsets[u as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut targets = vec![0 as NodeId; arcs.len()];
        let mut cursor = offsets.clone();
        for &(u, v) in &arcs {
            let slot = cursor[u as usize] as usize;
            targets[slot] = v;
            cursor[u as usize] += 1;
        }
        CsrGraph::from_parts(offsets, targets, false)
            .expect("builder produces structurally valid CSR data")
    }

    /// Build an undirected *weighted* CSR graph. When the same undirected
    /// edge was added multiple times the minimum weight wins (the natural
    /// choice for shortest-path workloads). Edges added through the
    /// unweighted API get weight 1.
    pub fn build_undirected_weighted(&self) -> WeightedCsrGraph {
        let n = self.node_count();
        let weights_of = |i: usize| -> Distance {
            if self.weights.is_empty() {
                1
            } else {
                self.weights[i]
            }
        };
        // Canonicalise and keep the minimum weight per undirected edge.
        let mut best: HashMap<(NodeId, NodeId), Distance> =
            HashMap::with_capacity(self.edges.len());
        for (i, &(u, v)) in self.edges.iter().enumerate() {
            let key = if u < v { (u, v) } else { (v, u) };
            let w = weights_of(i);
            best.entry(key)
                .and_modify(|cur| *cur = (*cur).min(w))
                .or_insert(w);
        }
        let mut canon: Vec<((NodeId, NodeId), Distance)> = best.into_iter().collect();
        canon.sort_unstable();
        let edges: Vec<(NodeId, NodeId)> = canon.iter().map(|&(e, _)| e).collect();
        let weights: Vec<Distance> = canon.iter().map(|&(_, w)| w).collect();

        let (offsets, targets, edge_weights) = {
            let (offsets, targets) = assemble_symmetric(n, &edges, Some(&weights));
            // assemble_symmetric interleaves weights into a parallel array when given.
            let edge_weights = targets
                .iter()
                .zip(interleaved_weights(n, &edges, &weights))
                .map(|(_, w)| w)
                .collect::<Vec<_>>();
            (offsets, targets, edge_weights)
        };
        WeightedCsrGraph::from_parts(offsets, targets, edge_weights, true)
            .expect("builder produces structurally valid weighted CSR data")
    }
}

/// Assemble symmetric (undirected) CSR arrays from canonical deduplicated
/// edges. Weights, when provided, are only used to keep ordering consistent
/// — the actual weight interleaving is done by [`interleaved_weights`].
fn assemble_symmetric(
    n: usize,
    canon: &[(NodeId, NodeId)],
    _weights: Option<&[Distance]>,
) -> (Vec<u64>, Vec<NodeId>) {
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

/// Produce, in CSR target order, the weight of every arc for a symmetric
/// weighted assembly of `canon`/`weights`.
fn interleaved_weights(
    n: usize,
    canon: &[(NodeId, NodeId)],
    weights: &[Distance],
) -> Vec<Distance> {
    // Build a lookup from canonical edge to weight, then walk the same
    // assembly order as `assemble_symmetric` (including the final per-list
    // sort, which we reproduce by sorting (target, weight) pairs).
    let mut offsets = vec![0u64; n + 1];
    for &(u, v) in canon {
        offsets[u as usize + 1] += 1;
        offsets[v as usize + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let mut pairs: Vec<(NodeId, Distance)> = vec![(0, 0); canon.len() * 2];
    let mut cursor = offsets.clone();
    for (i, &(u, v)) in canon.iter().enumerate() {
        let w = weights[i];
        let su = cursor[u as usize] as usize;
        pairs[su] = (v, w);
        cursor[u as usize] += 1;
        let sv = cursor[v as usize] as usize;
        pairs[sv] = (u, w);
        cursor[v as usize] += 1;
    }
    for u in 0..n {
        let range = offsets[u] as usize..offsets[u + 1] as usize;
        pairs[range].sort_unstable();
    }
    pairs.into_iter().map(|(_, w)| w).collect()
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
    fn directed_build_keeps_arc_direction() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.add_edge(2, 1);
        let g = b.build_directed();
        assert!(!g.is_undirected());
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[] as &[NodeId]);
        assert_eq!(g.neighbors(2), &[1]);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn directed_build_dedups_arcs() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.add_edge(0, 1);
        b.add_edge(1, 0);
        let g = b.build_directed();
        assert_eq!(g.edge_count(), 2); // 0->1 and 1->0 are distinct arcs
    }

    #[test]
    fn weighted_build_takes_minimum_weight() {
        let mut b = GraphBuilder::new();
        b.add_weighted_edge(0, 1, 5);
        b.add_weighted_edge(1, 0, 3);
        b.add_weighted_edge(1, 2, 7);
        let g = b.build_undirected_weighted();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.weight_between(0, 1), Some(3));
        assert_eq!(g.weight_between(1, 2), Some(7));
        assert_eq!(g.weight_between(0, 2), None);
    }

    #[test]
    fn mixed_weighted_and_unweighted_edges_default_to_one() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.add_weighted_edge(1, 2, 4);
        b.add_edge(2, 3);
        let g = b.build_undirected_weighted();
        assert_eq!(g.weight_between(0, 1), Some(1));
        assert_eq!(g.weight_between(1, 2), Some(4));
        assert_eq!(g.weight_between(2, 3), Some(1));
    }

    #[test]
    fn empty_builder_produces_empty_graph() {
        let b = GraphBuilder::new();
        assert!(b.is_empty());
        let g = b.build_undirected();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn weighted_graph_symmetry() {
        let mut b = GraphBuilder::new();
        b.add_weighted_edge(0, 1, 2);
        b.add_weighted_edge(1, 2, 9);
        b.add_weighted_edge(0, 2, 4);
        let g = b.build_undirected_weighted();
        for u in 0..3u32 {
            for (v, w) in g.neighbors(u) {
                assert_eq!(g.weight_between(v, u), Some(w), "asymmetric weight {u}-{v}");
            }
        }
    }
}
