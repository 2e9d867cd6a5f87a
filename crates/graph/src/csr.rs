//! Compressed sparse row (CSR) storage for undirected, unweighted graphs.
//!
//! The vicinity oracle only ever needs to (1) enumerate the neighbours of a
//! node and (2) read node degrees, both in tight inner loops over millions
//! of nodes. CSR gives both as contiguous slice accesses with no pointer
//! chasing, which is what the paper's "optimised implementation" relies on.

use crate::{Adjacency, GraphError, NodeId, Result};

/// An immutable undirected graph in compressed sparse row form.
///
/// Every edge `{u, v}` is stored twice, as the arc `u → v` in `u`'s
/// adjacency list and the arc `v → u` in `v`'s, and every edge has length 1.
///
/// Node identifiers are dense: a graph with `n` nodes uses ids `0..n`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    /// `offsets[u]..offsets[u+1]` is the range of `targets` holding the
    /// neighbours of `u`. Length `n + 1`.
    offsets: Vec<u64>,
    /// Concatenated adjacency lists.
    targets: Vec<NodeId>,
}

impl CsrGraph {
    /// Construct a CSR graph directly from its raw parts.
    ///
    /// `offsets` must have length `n + 1`, be non-decreasing, start at 0 and
    /// end at `targets.len()`; every target must be `< n`. These invariants
    /// are checked and violations reported as errors, so this constructor is
    /// safe to expose to deserialization code. The caller guarantees that the
    /// adjacency is symmetric (each arc's reverse is stored too);
    /// [`CsrGraph::validate`] checks it where the arrays come from outside
    /// the process.
    pub fn from_parts(offsets: Vec<u64>, targets: Vec<NodeId>) -> Result<Self> {
        if offsets.is_empty() {
            return Err(GraphError::Decode("offsets array must be non-empty".into()));
        }
        if offsets[0] != 0 {
            return Err(GraphError::Decode("offsets must start at 0".into()));
        }
        if *offsets.last().expect("non-empty") != targets.len() as u64 {
            return Err(GraphError::Decode(format!(
                "last offset {} does not match target count {}",
                offsets.last().expect("non-empty"),
                targets.len()
            )));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(GraphError::Decode("offsets must be non-decreasing".into()));
        }
        let n = offsets.len() - 1;
        if let Some(&bad) = targets.iter().find(|&&t| (t as usize) >= n) {
            return Err(GraphError::NodeOutOfRange {
                node: bad,
                node_count: n,
            });
        }
        Ok(CsrGraph { offsets, targets })
    }

    /// Number of nodes in the graph.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges: half the number of stored arcs.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.targets.len() / 2
    }

    /// Number of stored arcs (adjacency entries): `2 * edge_count()`.
    #[inline]
    pub fn arc_count(&self) -> usize {
        self.targets.len()
    }

    /// Degree (number of adjacent arcs) of `u`.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        let u = u as usize;
        (self.offsets[u + 1] - self.offsets[u]) as usize
    }

    /// Neighbours of `u` as a slice.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        let u = u as usize;
        &self.targets[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }

    /// Iterator over all node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.node_count() as NodeId
    }

    /// Iterator over every arc `(u, v)` stored in the graph: each edge
    /// appears twice, once per direction.
    pub fn arcs(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes()
            .flat_map(move |u| self.neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// Iterator over the edges as `(u, v)` with `u <= v`, each reported once.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.arcs().filter(|&(u, v)| u <= v)
    }

    /// True if node `u` exists in this graph.
    #[inline]
    pub fn contains_node(&self, u: NodeId) -> bool {
        (u as usize) < self.node_count()
    }

    /// True if there is an arc from `u` to `v`. Runs in O(deg(u)).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if !self.contains_node(u) || !self.contains_node(v) {
            return false;
        }
        self.neighbors(u).contains(&v)
    }

    /// Maximum degree over all nodes. Returns 0 for an empty graph.
    pub fn max_degree(&self) -> usize {
        self.nodes().map(|u| self.degree(u)).max().unwrap_or(0)
    }

    /// Average degree (arcs per node). Returns 0.0 for an empty graph.
    pub fn average_degree(&self) -> f64 {
        if self.node_count() == 0 {
            0.0
        } else {
            self.arc_count() as f64 / self.node_count() as f64
        }
    }

    /// Check the invariant [`CsrGraph::from_parts`] leaves to its caller:
    /// every arc `u → v` has its reverse `v → u`, counted with
    /// multiplicity. Used by property tests and after deserialization;
    /// O(n + m) plus sorting a copy of each adjacency list.
    pub fn validate(&self) -> Result<()> {
        // The transpose, filled source by source, lists each node's
        // in-neighbours in ascending order; in a symmetric graph they are
        // the node's sorted out-neighbours, in the same slots.
        let asymmetric = || {
            Err(GraphError::Decode(
                "adjacency is not symmetric: an arc has no reverse".into(),
            ))
        };
        let mut cursor = self.offsets.clone();
        let mut transpose = vec![0 as NodeId; self.targets.len()];
        for (u, v) in self.arcs() {
            let slot = &mut cursor[v as usize];
            if *slot == self.offsets[v as usize + 1] {
                return asymmetric(); // more arcs into v than out of it
            }
            transpose[*slot as usize] = u;
            *slot += 1;
        }
        let mut sorted = self.targets.clone();
        for w in self.offsets.windows(2) {
            sorted[w[0] as usize..w[1] as usize].sort_unstable();
        }
        if sorted != transpose {
            return asymmetric();
        }
        Ok(())
    }

    /// Access the raw offsets array (for serialization).
    pub(crate) fn raw_offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// Access the raw targets array (for serialization).
    pub(crate) fn raw_targets(&self) -> &[NodeId] {
        &self.targets
    }

    /// Estimated in-memory size of the structure in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u64>()
            + self.targets.len() * std::mem::size_of::<NodeId>()
            + std::mem::size_of::<Self>()
    }
}

impl Adjacency for CsrGraph {
    #[inline]
    fn node_count(&self) -> usize {
        CsrGraph::node_count(self)
    }

    #[inline]
    fn neighbors(&self, u: NodeId) -> &[NodeId] {
        CsrGraph::neighbors(self, u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn triangle() -> CsrGraph {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 0);
        b.build_undirected()
    }

    #[test]
    fn from_parts_accepts_valid_input() {
        let g = CsrGraph::from_parts(vec![0, 2, 3, 4], vec![1, 2, 0, 0]).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.arc_count(), 4);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[0]);
        assert_eq!(g.neighbors(2), &[0]);
    }

    #[test]
    fn from_parts_rejects_empty_offsets() {
        assert!(CsrGraph::from_parts(vec![], vec![]).is_err());
    }

    #[test]
    fn from_parts_rejects_bad_first_offset() {
        assert!(CsrGraph::from_parts(vec![1, 1], vec![]).is_err());
    }

    #[test]
    fn from_parts_rejects_mismatched_last_offset() {
        assert!(CsrGraph::from_parts(vec![0, 2], vec![0]).is_err());
    }

    #[test]
    fn from_parts_rejects_decreasing_offsets() {
        assert!(CsrGraph::from_parts(vec![0, 2, 1, 3], vec![0, 1, 2]).is_err());
    }

    #[test]
    fn from_parts_rejects_out_of_range_target() {
        let err = CsrGraph::from_parts(vec![0, 1], vec![5]).unwrap_err();
        assert!(matches!(
            err,
            GraphError::NodeOutOfRange {
                node: 5,
                node_count: 1
            }
        ));
    }

    #[test]
    fn triangle_counts() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.arc_count(), 6);
        for u in 0..3 {
            assert_eq!(g.degree(u), 2);
        }
        assert_eq!(g.max_degree(), 2);
        assert!((g.average_degree() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn has_edge_and_contains_node() {
        let g = triangle();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 0));
        assert!(!g.has_edge(0, 99));
        assert!(g.contains_node(2));
        assert!(!g.contains_node(3));
    }

    #[test]
    fn edges_reports_each_edge_once() {
        let g = triangle();
        let mut edges: Vec<_> = g.edges().collect();
        edges.sort_unstable();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn arcs_reports_both_directions() {
        let g = triangle();
        assert_eq!(g.arcs().count(), 6);
    }

    #[test]
    fn validate_passes_on_built_graph() {
        triangle().validate().unwrap();
    }

    #[test]
    fn validate_rejects_an_arc_without_its_reverse() {
        // 0 -> 1 and 1 -> 0, plus 0 -> 2 with no 2 -> 0: structurally fine.
        let g = CsrGraph::from_parts(vec![0, 2, 3, 3], vec![1, 2, 0]).unwrap();
        assert!(g.validate().is_err());
        // Equal degrees, wrong partners: 0 -> 1, 1 -> 2, 2 -> 0.
        let g = CsrGraph::from_parts(vec![0, 1, 2, 3], vec![1, 2, 0]).unwrap();
        assert!(g.validate().is_err());
        // Unsorted lists are symmetric all the same.
        let g = CsrGraph::from_parts(vec![0, 2, 3, 4], vec![2, 1, 0, 0]).unwrap();
        g.validate().unwrap();
    }

    #[test]
    fn memory_and_hop_bound_are_sane() {
        let g = triangle();
        assert!(g.memory_bytes() > 0);
        assert_eq!(g.hop_bound(), 2);
    }

    #[test]
    fn empty_graph_edge_cases() {
        let g = CsrGraph::from_parts(vec![0], vec![]).unwrap();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.average_degree(), 0.0);
        assert_eq!(g.hop_bound(), 0);
        assert_eq!(g.nodes().count(), 0);
    }
}
