//! Whole-graph property reports.
//!
//! [`GraphProperties`] bundles the statistics the experiment harness prints
//! for each dataset (Table 2 of the paper plus the structural properties the
//! vicinity argument relies on: degree skew, clustering, diameter).

use rand::Rng;

use crate::algo::{clustering, components, degree, diameter, sampling};
use crate::csr::CsrGraph;

/// Summary of a graph's structural properties.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphProperties {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of undirected edges.
    pub undirected_edges: usize,
    /// Number of stored arcs (2 × edges for undirected graphs) — the
    /// "directed links" column of Table 2.
    pub directed_links: usize,
    /// Average degree.
    pub average_degree: f64,
    /// Maximum degree.
    pub max_degree: usize,
    /// Number of connected components.
    pub components: usize,
    /// Fraction of nodes in the largest connected component.
    pub largest_component_fraction: f64,
    /// Sampled average local clustering coefficient.
    pub clustering: f64,
    /// Double-sweep diameter estimate (lower bound).
    pub diameter_estimate: u32,
    /// Hill estimate of the degree-tail power-law exponent (if defined).
    pub power_law_exponent: Option<f64>,
}

/// Number of nodes to sample when estimating clustering.
const CLUSTERING_SAMPLE: usize = 500;
/// Number of double-sweep iterations for the diameter estimate.
const DIAMETER_SWEEPS: usize = 2;

/// Compute a property report for a graph. Costs a handful of BFS traversals
/// plus a sampled clustering pass, so it is safe to call on graphs with
/// hundreds of thousands of nodes.
pub fn analyze<R: Rng>(graph: &CsrGraph, rng: &mut R) -> GraphProperties {
    let comps = components::connected_components(graph);
    let n = graph.node_count();
    let sample = sampling::sample_distinct_nodes(graph, CLUSTERING_SAMPLE.min(n), rng);
    GraphProperties {
        nodes: n,
        undirected_edges: graph.edge_count(),
        directed_links: graph.arc_count(),
        average_degree: graph.average_degree(),
        max_degree: graph.max_degree(),
        components: comps.count(),
        largest_component_fraction: if n == 0 {
            0.0
        } else {
            comps.largest_size() as f64 / n as f64
        },
        clustering: clustering::sampled_average_clustering(graph, &sample),
        diameter_estimate: diameter::double_sweep_diameter(graph, DIAMETER_SWEEPS, rng)
            .unwrap_or(0),
        power_law_exponent: degree::power_law_exponent(graph, 5),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::generators::{classic, social::SocialGraphConfig};
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(77)
    }

    #[test]
    fn properties_of_complete_graph() {
        let g = classic::complete(20);
        let p = analyze(&g, &mut rng());
        assert_eq!(p.nodes, 20);
        assert_eq!(p.undirected_edges, 190);
        assert_eq!(p.directed_links, 380);
        assert_eq!(p.components, 1);
        assert!((p.largest_component_fraction - 1.0).abs() < 1e-12);
        assert!((p.clustering - 1.0).abs() < 1e-12);
        assert_eq!(p.diameter_estimate, 1);
        assert_eq!(p.max_degree, 19);
    }

    #[test]
    fn properties_of_disconnected_graph() {
        let mut b = GraphBuilder::with_node_count(10);
        b.add_edge(0, 1);
        b.add_edge(2, 3);
        let g = b.build_undirected();
        let p = analyze(&g, &mut rng());
        assert_eq!(p.components, 8);
        assert!((p.largest_component_fraction - 0.2).abs() < 1e-12);
    }

    #[test]
    fn properties_of_empty_graph() {
        let g = GraphBuilder::new().build_undirected();
        let p = analyze(&g, &mut rng());
        assert_eq!(p.nodes, 0);
        assert_eq!(p.largest_component_fraction, 0.0);
        assert_eq!(p.diameter_estimate, 0);
    }

    #[test]
    fn social_graph_properties_look_social() {
        let g = SocialGraphConfig::small_test().generate(3);
        let p = analyze(&g, &mut rng());
        assert_eq!(p.components, 1);
        assert!(p.max_degree as f64 > 3.0 * p.average_degree);
        assert!(p.diameter_estimate <= 15);
        assert!(p.clustering > 0.0);
    }
}
