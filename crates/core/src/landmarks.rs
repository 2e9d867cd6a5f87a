//! Landmark-set selection (the set `L` of the paper).
//!
//! The paper samples each node `u` into `L` with probability proportional
//! to its degree: `p_s(u) = (m / (α·n·√n)) · (2n/m) · deg(u) = 2·deg(u)/(α·√n)`
//! (§2.2). High-degree nodes are therefore very likely to be landmarks,
//! which is what stops dense neighbourhoods from producing huge vicinities:
//! the ball of a node stops growing as soon as it reaches its nearest
//! landmark, and dense neighbourhoods contain hubs.
//!
//! Two alternative strategies (uniform sampling and deterministic top-degree
//! selection) are provided for the ablation experiments.

use rand::rngs::StdRng;
use rand::SeedableRng;

use vicinity_graph::algo::degree::nodes_by_degree_desc;
use vicinity_graph::algo::sampling;
use vicinity_graph::csr::CsrGraph;
use vicinity_graph::NodeId;

use crate::config::{OracleConfig, SamplingStrategy};

/// Marks a node that is not a landmark in [`LandmarkSet`]'s rank map.
const NO_RANK: u32 = u32::MAX;

/// The selected landmark set, with O(1) membership and rank lookups.
///
/// A landmark's **rank** is its position in ascending id order; it is the
/// landmark's offset inside every node's column of the node-major distance
/// slab ([`crate::index::LandmarkDistances`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LandmarkSet {
    /// Landmark node ids in ascending order (rank order).
    nodes: Vec<NodeId>,
    /// Dense id → rank map (`NO_RANK` for non-landmarks).
    ranks: Vec<u32>,
}

impl LandmarkSet {
    /// Build a landmark set from an explicit list of nodes (deduplicated).
    pub fn from_nodes(mut nodes: Vec<NodeId>, node_count: usize) -> Self {
        nodes.sort_unstable();
        nodes.dedup();
        nodes.retain(|&u| (u as usize) < node_count);
        let mut ranks = vec![NO_RANK; node_count];
        for (rank, &u) in nodes.iter().enumerate() {
            ranks[u as usize] = rank as u32;
        }
        LandmarkSet { nodes, ranks }
    }

    /// Select landmarks for `graph` according to `config`.
    pub fn select(graph: &CsrGraph, config: &OracleConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let n = graph.node_count();
        let alpha = config.alpha.value();
        let nodes = match config.sampling {
            SamplingStrategy::DegreeProportional => {
                sampling::sample_landmarks_degree_proportional(graph, alpha, &mut rng)
            }
            SamplingStrategy::Uniform => {
                // Match the expected count of the degree-proportional scheme.
                let expected = sampling::expected_landmark_count(graph, alpha).round() as usize;
                let expected = expected.clamp(usize::from(n > 0), n);
                sampling::sample_distinct_nodes(graph, expected, &mut rng)
            }
            SamplingStrategy::TopDegree => {
                let expected = sampling::expected_landmark_count(graph, alpha).round() as usize;
                let expected = expected.clamp(usize::from(n > 0), n);
                nodes_by_degree_desc(graph)
                    .into_iter()
                    .take(expected)
                    .collect()
            }
        };
        Self::from_nodes(nodes, n)
    }

    /// Whether `u` is a landmark.
    #[inline]
    pub fn contains(&self, u: NodeId) -> bool {
        self.rank(u).is_some()
    }

    /// The rank of landmark `u` (its position in [`LandmarkSet::nodes`]),
    /// or `None` when `u` is not a landmark.
    #[inline]
    pub fn rank(&self, u: NodeId) -> Option<usize> {
        match self.ranks.get(u as usize) {
            Some(&rank) if rank != NO_RANK => Some(rank as usize),
            _ => None,
        }
    }

    /// The landmark nodes in ascending order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Number of landmarks.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no landmark was selected.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of nodes in the underlying graph (size of the rank map).
    pub fn node_count(&self) -> usize {
        self.ranks.len()
    }

    /// Memory use of the landmark set itself (ids and rank map), in bytes.
    pub fn memory_bytes(&self) -> usize {
        (self.nodes.len() + self.ranks.len()) * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Alpha;
    use vicinity_graph::generators::{classic, social::SocialGraphConfig};

    fn config(strategy: SamplingStrategy, alpha: f64, seed: u64) -> OracleConfig {
        OracleConfig {
            alpha: Alpha::new(alpha).unwrap(),
            sampling: strategy,
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn from_nodes_dedups_and_filters() {
        let set = LandmarkSet::from_nodes(vec![3, 1, 3, 99, 1], 5);
        assert_eq!(set.nodes(), &[1, 3]);
        assert_eq!(set.len(), 2);
        assert!(set.contains(1));
        assert!(set.contains(3));
        assert!(!set.contains(0));
        assert!(!set.contains(99));
        assert_eq!(
            (set.rank(1), set.rank(3), set.rank(0)),
            (Some(0), Some(1), None)
        );
        assert_eq!(set.node_count(), 5);
        assert!(set.memory_bytes() > 0);
    }

    #[test]
    fn empty_set() {
        let set = LandmarkSet::from_nodes(vec![], 10);
        assert!(set.is_empty());
        assert_eq!(set.len(), 0);
        assert!(!set.contains(0));
    }

    #[test]
    fn degree_proportional_selection_is_deterministic_per_seed() {
        let g = SocialGraphConfig::small_test().generate(50);
        let a = LandmarkSet::select(&g, &config(SamplingStrategy::DegreeProportional, 4.0, 7));
        let b = LandmarkSet::select(&g, &config(SamplingStrategy::DegreeProportional, 4.0, 7));
        let c = LandmarkSet::select(&g, &config(SamplingStrategy::DegreeProportional, 4.0, 8));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(!a.is_empty());
    }

    #[test]
    fn smaller_alpha_gives_more_landmarks() {
        let g = SocialGraphConfig::small_test().generate(51);
        let few = LandmarkSet::select(&g, &config(SamplingStrategy::DegreeProportional, 16.0, 1));
        let many = LandmarkSet::select(&g, &config(SamplingStrategy::DegreeProportional, 0.25, 1));
        assert!(
            many.len() > few.len(),
            "{} should exceed {}",
            many.len(),
            few.len()
        );
    }

    #[test]
    fn uniform_and_top_degree_match_expected_count() {
        let g = SocialGraphConfig::small_test().generate(52);
        let expected =
            vicinity_graph::algo::sampling::expected_landmark_count(&g, 4.0).round() as usize;
        let uniform = LandmarkSet::select(&g, &config(SamplingStrategy::Uniform, 4.0, 3));
        let top = LandmarkSet::select(&g, &config(SamplingStrategy::TopDegree, 4.0, 3));
        assert_eq!(uniform.len(), expected);
        assert_eq!(top.len(), expected);
        // Top-degree landmarks are exactly the highest-degree nodes.
        let by_degree = nodes_by_degree_desc(&g);
        for &l in top.nodes() {
            assert!(by_degree[..expected].contains(&l));
        }
    }

    #[test]
    fn top_degree_prefers_hubs() {
        let g = classic::star(100);
        let set = LandmarkSet::select(&g, &config(SamplingStrategy::TopDegree, 4.0, 1));
        assert!(set.contains(0), "the hub must be a top-degree landmark");
    }

    #[test]
    fn selection_on_empty_graph_is_empty() {
        let g = vicinity_graph::builder::GraphBuilder::new().build_undirected();
        for strategy in [
            SamplingStrategy::DegreeProportional,
            SamplingStrategy::Uniform,
            SamplingStrategy::TopDegree,
        ] {
            let set = LandmarkSet::select(&g, &config(strategy, 4.0, 1));
            assert!(set.is_empty());
        }
    }
}
