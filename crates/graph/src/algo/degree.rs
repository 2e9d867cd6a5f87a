//! Degree statistics and degree-distribution summaries.
//!
//! The landmark-sampling probability of the paper (§2.2) is proportional to
//! node degree, and the structural argument for why vicinities stay small
//! relies on the heavy-tailed degree distribution of social networks. The
//! helpers here expose the quantities needed to verify both: degree arrays,
//! moments and power-law tail summaries.

use crate::csr::CsrGraph;
use crate::NodeId;

/// Degree of every node, as a vector indexed by node id.
pub fn degrees(graph: &CsrGraph) -> Vec<u32> {
    graph.nodes().map(|u| graph.degree(u) as u32).collect()
}

/// Summary statistics of a graph's degree distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeStats {
    /// Minimum degree.
    pub min: u32,
    /// Maximum degree.
    pub max: u32,
    /// Mean degree.
    pub mean: f64,
    /// Median degree.
    pub median: u32,
    /// Variance of the degree distribution.
    pub variance: f64,
    /// 90th percentile degree.
    pub p90: u32,
    /// 99th percentile degree.
    pub p99: u32,
    /// Number of isolated (degree-0) nodes.
    pub isolated: usize,
}

/// Compute [`DegreeStats`] for a graph. Returns `None` for an empty graph.
pub fn degree_stats(graph: &CsrGraph) -> Option<DegreeStats> {
    let n = graph.node_count();
    if n == 0 {
        return None;
    }
    let mut degs = degrees(graph);
    degs.sort_unstable();
    let min = degs[0];
    let max = degs[n - 1];
    let sum: u64 = degs.iter().map(|&d| d as u64).sum();
    let mean = sum as f64 / n as f64;
    let variance = degs
        .iter()
        .map(|&d| {
            let diff = d as f64 - mean;
            diff * diff
        })
        .sum::<f64>()
        / n as f64;
    let pct = |p: f64| -> u32 {
        let idx = ((n as f64 - 1.0) * p).round() as usize;
        degs[idx.min(n - 1)]
    };
    let isolated = degs.iter().take_while(|&&d| d == 0).count();
    Some(DegreeStats {
        min,
        max,
        mean,
        median: pct(0.5),
        variance,
        p90: pct(0.90),
        p99: pct(0.99),
        isolated,
    })
}

/// Nodes sorted by decreasing degree (ties broken by ascending id). The
/// prefix of this ordering is the "top-degree landmark" choice used by the
/// ablation experiments.
pub fn nodes_by_degree_desc(graph: &CsrGraph) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> = graph.nodes().collect();
    nodes.sort_by_key(|&u| (std::cmp::Reverse(graph.degree(u)), u));
    nodes
}

/// Estimate of the power-law exponent of the degree tail using the
/// Hill / maximum-likelihood estimator `1 + k / Σ ln(d_i / d_min)` over all
/// degrees `>= d_min`. Returns `None` when fewer than two nodes qualify.
///
/// This is only used to report that generated stand-in graphs are
/// heavy-tailed like the paper's datasets; it is not a rigorous fit.
pub fn power_law_exponent(graph: &CsrGraph, d_min: u32) -> Option<f64> {
    let d_min = d_min.max(1);
    let tail: Vec<f64> = graph
        .nodes()
        .map(|u| graph.degree(u) as f64)
        .filter(|&d| d >= d_min as f64)
        .collect();
    if tail.len() < 2 {
        return None;
    }
    let log_sum: f64 = tail.iter().map(|&d| (d / d_min as f64).ln()).sum();
    if log_sum <= 0.0 {
        return None;
    }
    Some(1.0 + tail.len() as f64 / log_sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::generators::{barabasi_albert, classic};
    use rand::SeedableRng;

    #[test]
    fn degrees_of_star() {
        let g = classic::star(4);
        assert_eq!(degrees(&g), vec![4, 1, 1, 1, 1]);
    }

    #[test]
    fn degree_stats_on_star() {
        let g = classic::star(4);
        let s = degree_stats(&g).unwrap();
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 4);
        assert_eq!(s.median, 1);
        assert_eq!(s.isolated, 0);
        assert!((s.mean - 8.0 / 5.0).abs() < 1e-12);
        assert!(s.variance > 0.0);
        assert!(s.p99 >= s.p90);
    }

    #[test]
    fn degree_stats_empty_graph_is_none() {
        let g = GraphBuilder::new().build_undirected();
        assert!(degree_stats(&g).is_none());
    }

    #[test]
    fn degree_stats_counts_isolated_nodes() {
        let mut b = GraphBuilder::with_node_count(5);
        b.add_edge(0, 1);
        let g = b.build_undirected();
        let s = degree_stats(&g).unwrap();
        assert_eq!(s.isolated, 3);
        assert_eq!(s.min, 0);
    }

    #[test]
    fn nodes_by_degree_desc_ordering() {
        let g = classic::star(5);
        let order = nodes_by_degree_desc(&g);
        assert_eq!(order[0], 0); // hub first
        assert_eq!(order.len(), 6);
        // Remaining nodes all have degree 1 and are ordered by id.
        assert_eq!(&order[1..], &[1, 2, 3, 4, 5]);
    }

    #[test]
    fn power_law_exponent_on_heavy_tailed_graph() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let g = barabasi_albert::generate(3000, 4, &mut rng);
        let gamma = power_law_exponent(&g, 4).unwrap();
        // Barabási–Albert graphs have exponent ~3 asymptotically; accept a
        // broad range since the graph is small.
        assert!(gamma > 1.5 && gamma < 5.0, "gamma = {gamma}");
    }

    #[test]
    fn power_law_exponent_degenerate_cases() {
        let g = classic::path(2);
        // All degrees equal: log-sum is zero -> None.
        assert!(power_law_exponent(&g, 1).is_none());
        let empty = GraphBuilder::new().build_undirected();
        assert!(power_law_exponent(&empty, 1).is_none());
    }
}
