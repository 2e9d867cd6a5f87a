//! Clustering coefficients.
//!
//! The paper's intuition (§2.1) for why degree-proportional landmark
//! sampling bounds vicinity sizes is that "a node u that has a dense
//! neighborhood is likely to have a high degree node in its neighborhood".
//! Clustering coefficients quantify that density; the dataset registry uses
//! them to check that synthetic stand-ins are social-network-like (high
//! clustering) rather than random-graph-like (vanishing clustering).

use crate::csr::CsrGraph;
use crate::NodeId;

/// Local clustering coefficient of `u`: the fraction of pairs of neighbours
/// of `u` that are themselves connected. Nodes of degree < 2 have
/// coefficient 0 by convention.
pub fn local_clustering(graph: &CsrGraph, u: NodeId) -> f64 {
    let neigh = graph.neighbors(u);
    let k = neigh.len();
    if k < 2 {
        return 0.0;
    }
    let mut links = 0usize;
    // Adjacency lists are sorted (GraphBuilder invariant), so membership can
    // be tested with binary search: O(k * avg_deg * log avg_deg).
    for (i, &a) in neigh.iter().enumerate() {
        let a_neighbors = graph.neighbors(a);
        for &b in &neigh[i + 1..] {
            if a_neighbors.binary_search(&b).is_ok() {
                links += 1;
            }
        }
    }
    2.0 * links as f64 / (k * (k - 1)) as f64
}

/// Average local clustering coefficient over all nodes (Watts–Strogatz
/// definition). Returns 0.0 for an empty graph.
pub fn average_clustering(graph: &CsrGraph) -> f64 {
    let n = graph.node_count();
    if n == 0 {
        return 0.0;
    }
    let sum: f64 = graph.nodes().map(|u| local_clustering(graph, u)).sum();
    sum / n as f64
}

/// Average local clustering estimated from a sample of nodes; exact
/// clustering is O(Σ deg²) which is too slow for the larger stand-ins.
/// `sample` node ids must be valid for the graph.
pub fn sampled_average_clustering(graph: &CsrGraph, sample: &[NodeId]) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    let sum: f64 = sample.iter().map(|&u| local_clustering(graph, u)).sum();
    sum / sample.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::generators::classic;

    #[test]
    fn triangle_has_full_clustering() {
        let g = classic::complete(3);
        assert!((local_clustering(&g, 0) - 1.0).abs() < 1e-12);
        assert!((average_clustering(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn path_has_zero_clustering() {
        let g = classic::path(5);
        assert_eq!(average_clustering(&g), 0.0);
    }

    #[test]
    fn complete_graph_triangle_count() {
        let g = classic::complete(5);
        // Each node closes every pair of its neighbours: summed over nodes,
        // c(u)·d(u)·(d(u) − 1)/2 counts each of the C(5,3) = 10 triangles
        // three times.
        let closed_pairs: f64 = g
            .nodes()
            .map(|u| {
                let d = g.degree(u) as f64;
                local_clustering(&g, u) * d * (d - 1.0) / 2.0
            })
            .sum();
        assert!((closed_pairs / 3.0 - 10.0).abs() < 1e-9);
        assert!((average_clustering(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn low_degree_nodes_have_zero_coefficient() {
        let g = classic::star(6);
        // Leaves have degree 1 -> 0; hub has no connected neighbour pairs -> 0.
        assert_eq!(local_clustering(&g, 1), 0.0);
        assert_eq!(local_clustering(&g, 0), 0.0);
    }

    #[test]
    fn mixed_graph_clustering() {
        // Triangle 0-1-2 plus a pendant 3 attached to 0.
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(0, 2);
        b.add_edge(0, 3);
        let g = b.build_undirected();
        // Node 0 has neighbours {1,2,3}; only pair (1,2) is connected: 1/3.
        assert!((local_clustering(&g, 0) - 1.0 / 3.0).abs() < 1e-12);
        assert!((local_clustering(&g, 1) - 1.0).abs() < 1e-12);
        assert_eq!(local_clustering(&g, 3), 0.0);
        let avg = average_clustering(&g);
        assert!((avg - (1.0 / 3.0 + 1.0 + 1.0 + 0.0) / 4.0).abs() < 1e-12);
    }

    #[test]
    fn sampled_clustering_matches_exact_when_sampling_everything() {
        let g = classic::complete(4);
        let all: Vec<NodeId> = g.nodes().collect();
        assert!((sampled_average_clustering(&g, &all) - average_clustering(&g)).abs() < 1e-12);
        assert_eq!(sampled_average_clustering(&g, &[]), 0.0);
    }

    #[test]
    fn empty_graph_clustering_is_zero() {
        let g = GraphBuilder::new().build_undirected();
        assert_eq!(average_clustering(&g), 0.0);
    }
}
