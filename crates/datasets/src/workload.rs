//! Query workloads.
//!
//! §2.3 of the paper: "we […] sampled 1000 random nodes; and checked for
//! every pair of sampled nodes (resulting in 1 million source-destination
//! pairs per experiment) […] we repeated the experiment 10 times, resulting
//! in roughly 10 million unbiased samples."
//!
//! [`PairWorkload::paper_sampling`] reproduces that workload (with
//! configurable sizes); [`PairWorkload::uniform_random`] produces the
//! simpler fixed-size random-pair workloads used for latency measurements.

use rand::rngs::StdRng;
use rand::SeedableRng;

use vicinity_graph::algo::sampling::{all_distinct_pairs, random_pairs, sample_distinct_nodes};
use vicinity_graph::csr::CsrGraph;
use vicinity_graph::NodeId;

/// A reusable list of source–destination pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairWorkload {
    pairs: Vec<(NodeId, NodeId)>,
    description: String,
}

impl PairWorkload {
    /// The §2.3 workload: `runs` independent samples of `sample_nodes`
    /// random nodes, each expanded to all ordered distinct pairs.
    pub fn paper_sampling(
        graph: &CsrGraph,
        sample_nodes: usize,
        runs: usize,
        seed: u64,
    ) -> PairWorkload {
        let mut pairs = Vec::new();
        for run in 0..runs {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(run as u64));
            let nodes = sample_distinct_nodes(graph, sample_nodes, &mut rng);
            pairs.extend(all_distinct_pairs(&nodes));
        }
        PairWorkload {
            pairs,
            description: format!("paper-sampling({sample_nodes} nodes x {runs} runs, seed {seed})"),
        }
    }

    /// `count` uniformly random pairs with distinct endpoints.
    pub fn uniform_random(graph: &CsrGraph, count: usize, seed: u64) -> PairWorkload {
        let mut rng = StdRng::seed_from_u64(seed);
        PairWorkload {
            pairs: random_pairs(graph, count, &mut rng),
            description: format!("uniform-random({count} pairs, seed {seed})"),
        }
    }

    /// The pairs.
    pub fn pairs(&self) -> &[(NodeId, NodeId)] {
        &self.pairs
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when the workload contains no pairs.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Human-readable description (printed in experiment output).
    pub fn description(&self) -> &str {
        &self.description
    }

    /// Iterate over the pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.pairs.iter().copied()
    }

    /// A truncated copy with at most `limit` pairs (keeps the prefix), used
    /// to bound expensive baseline measurements (a full BFS per pair).
    pub fn truncated(&self, limit: usize) -> PairWorkload {
        PairWorkload {
            pairs: self.pairs.iter().copied().take(limit).collect(),
            description: format!("{} (truncated to {limit})", self.description),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vicinity_graph::generators::classic;

    #[test]
    fn paper_sampling_pair_count() {
        let g = classic::complete(50);
        let w = PairWorkload::paper_sampling(&g, 10, 3, 1);
        assert_eq!(w.len(), 3 * 10 * 9);
        assert!(!w.is_empty());
        assert!(w.pairs().iter().all(|&(s, t)| s != t && s < 50 && t < 50));
        assert!(w.description().contains("10 nodes"));
    }

    #[test]
    fn paper_sampling_caps_at_node_count() {
        let g = classic::complete(5);
        let w = PairWorkload::paper_sampling(&g, 100, 1, 1);
        assert_eq!(w.len(), 5 * 4);
    }

    #[test]
    fn uniform_random_properties() {
        let g = classic::complete(30);
        let w = PairWorkload::uniform_random(&g, 200, 9);
        assert_eq!(w.len(), 200);
        assert!(w.iter().all(|(s, t)| s != t));
        // Deterministic per seed.
        assert_eq!(w, PairWorkload::uniform_random(&g, 200, 9));
        assert_ne!(w, PairWorkload::uniform_random(&g, 200, 10));
    }

    #[test]
    fn truncation_and_explicit_pairs() {
        let w = PairWorkload {
            pairs: vec![(0, 1), (1, 2), (2, 3)],
            description: "manual".to_string(),
        };
        assert_eq!(w.len(), 3);
        let t = w.truncated(2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.pairs(), &[(0, 1), (1, 2)]);
        assert!(t.description().contains("truncated"));
        let t = w.truncated(100);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn empty_graph_workloads_are_empty() {
        let g = vicinity_graph::builder::GraphBuilder::new().build_undirected();
        assert!(PairWorkload::paper_sampling(&g, 10, 2, 1).is_empty());
        assert!(PairWorkload::uniform_random(&g, 10, 1).is_empty());
    }
}
