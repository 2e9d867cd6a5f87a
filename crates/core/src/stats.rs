//! Experiment drivers for the vicinity-property measurements of §2.4
//! (Figure 2 of the paper).
//!
//! * [`intersection_experiment`] — Figure 2 (left): fraction of sampled
//!   source–destination pairs whose queries are answered by the index (the
//!   four shortcut cases or a non-empty vicinity intersection) as α varies.
//! * [`boundary_cdf`] — Figure 2 (center): CDF of boundary size as a
//!   fraction of the network size, at a fixed α. The index stores no
//!   boundary, so [`boundary_size`] computes `∂Γ(u)` from the graph.
//! * [`radius_experiment`] — Figure 2 (right): average vicinity radius as α
//!   varies, with each α's build time.
//!
//! The workload matches §2.3: sample `k` random nodes, take all ordered
//! pairs, repeat over several runs with different seeds.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use vicinity_graph::algo::sampling::{all_distinct_pairs, sample_distinct_nodes};
use vicinity_graph::csr::CsrGraph;

use crate::build::OracleBuilder;
use crate::config::{Alpha, OracleConfig};
use crate::index::VicinityOracle;
use crate::vicinity::VicinityRef;

/// Workload parameters for the §2.3 experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentWorkload {
    /// Number of random nodes sampled per run (the paper uses 1000).
    pub sample_nodes: usize,
    /// Number of independent runs (the paper uses 10).
    pub runs: usize,
    /// Base RNG seed; run `i` uses `seed + i`.
    pub seed: u64,
}

impl Default for ExperimentWorkload {
    fn default() -> Self {
        // Scaled down from the paper's 1000 nodes × 10 runs so the full α
        // sweep completes in seconds on a laptop; the binaries accept
        // environment overrides for a full-scale run.
        ExperimentWorkload {
            sample_nodes: 100,
            runs: 3,
            seed: 2012,
        }
    }
}

/// One row of the Figure 2 (left) experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntersectionPoint {
    /// The α value.
    pub alpha: f64,
    /// Fraction of sampled pairs answered by the index.
    pub answered_fraction: f64,
    /// Fraction answered specifically via vicinity intersection (excluding
    /// the four shortcut cases).
    pub intersection_fraction: f64,
    /// Average vicinity size |Γ(u)| at this α.
    pub average_vicinity_size: f64,
    /// Number of pairs evaluated.
    pub pairs: u64,
}

/// Figure 2 (left): answered fraction vs α.
///
/// For every α in `alphas`, builds an oracle (with `base_config`'s
/// sampling strategy and the workload's seed) and evaluates the §2.3 random
/// pair workload against it.
pub fn intersection_experiment(
    graph: &CsrGraph,
    alphas: &[Alpha],
    base_config: &OracleConfig,
    workload: &ExperimentWorkload,
) -> Vec<IntersectionPoint> {
    alphas
        .iter()
        .map(|&alpha| {
            let config = OracleConfig {
                alpha,
                ..base_config.clone()
            };
            let oracle = OracleBuilder::from_config(config).build(graph);
            let (answered, by_intersection, pairs) = evaluate_workload(graph, &oracle, workload);
            IntersectionPoint {
                alpha: alpha.value(),
                answered_fraction: ratio(answered, pairs),
                intersection_fraction: ratio(by_intersection, pairs),
                average_vicinity_size: oracle.average_vicinity_size(),
                pairs,
            }
        })
        .collect()
}

/// Evaluate the §2.3 workload against an already-built oracle. Returns
/// `(answered_pairs, intersection_answered_pairs, total_pairs)`.
pub fn evaluate_workload(
    graph: &CsrGraph,
    oracle: &VicinityOracle,
    workload: &ExperimentWorkload,
) -> (u64, u64, u64) {
    let mut answered = 0u64;
    let mut by_intersection = 0u64;
    let mut pairs = 0u64;
    for run in 0..workload.runs {
        let mut rng = StdRng::seed_from_u64(workload.seed.wrapping_add(run as u64));
        let nodes = sample_distinct_nodes(graph, workload.sample_nodes, &mut rng);
        for (s, t) in all_distinct_pairs(&nodes) {
            pairs += 1;
            let answer = oracle.distance(s, t);
            if answer.is_answered() || answer.is_unreachable() {
                answered += 1;
                if answer.method() == Some(crate::query::AnswerMethod::VicinityIntersection) {
                    by_intersection += 1;
                }
            }
        }
    }
    (answered, by_intersection, pairs)
}

/// The boundary size `|∂Γ(u)|` by its definition: the members of
/// `vicinity` with a neighbour in `graph` outside the vicinity. Only the
/// outer shell can hold one — a member closer than the radius has every
/// neighbour inside the ball — so only it is scanned.
pub fn boundary_size(vicinity: &VicinityRef<'_>, graph: &CsrGraph) -> usize {
    vicinity
        .outer_shell()
        .iter()
        .filter(|&&w| graph.neighbors(w).iter().any(|&x| !vicinity.contains(x)))
        .count()
}

/// Average boundary size `|∂Γ(u)|` over all nodes of `oracle` (landmarks
/// included, with their empty vicinities), computed from `graph`, the
/// graph the oracle indexes.
pub fn average_boundary_size(oracle: &VicinityOracle, graph: &CsrGraph) -> f64 {
    let n = oracle.node_count();
    if n == 0 {
        return 0.0;
    }
    let total: usize = oracle
        .store()
        .iter()
        .map(|v| boundary_size(&v, graph))
        .sum();
    total as f64 / n as f64
}

/// Figure 2 (center): the CDF of boundary size as a fraction of the number
/// of nodes, over all non-landmark nodes of an oracle built over `graph`.
/// Returns `(x, y)` pairs where `y` is the fraction of nodes whose
/// boundary is at most `x` (as a fraction of `n`), sampled at `points`
/// evenly spaced quantiles.
pub fn boundary_cdf(oracle: &VicinityOracle, graph: &CsrGraph, points: usize) -> Vec<(f64, f64)> {
    let n = oracle.node_count();
    if n == 0 || points == 0 {
        return Vec::new();
    }
    let mut sizes: Vec<f64> = (0..n as u32)
        .filter(|&u| !oracle.is_landmark(u))
        .filter_map(|u| oracle.vicinity(u))
        .map(|v| boundary_size(&v, graph) as f64 / n as f64)
        .collect();
    if sizes.is_empty() {
        return Vec::new();
    }
    sizes.sort_by(|a, b| a.partial_cmp(b).expect("boundary fractions are finite"));
    let count = sizes.len();
    (1..=points)
        .map(|i| {
            let quantile = i as f64 / points as f64;
            let idx = ((count as f64 * quantile).ceil() as usize).clamp(1, count) - 1;
            (sizes[idx], quantile)
        })
        .collect()
}

/// One row of the Figure 2 (right) experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadiusPoint {
    /// The α value.
    pub alpha: f64,
    /// Average vicinity radius `d(u, ℓ(u))` over non-landmark nodes.
    pub average_radius: f64,
    /// Maximum vicinity radius observed.
    pub max_radius: u32,
    /// Wall-clock seconds the oracle build at this α took.
    pub build_s: f64,
}

/// Figure 2 (right): average vicinity radius vs α.
pub fn radius_experiment(
    graph: &CsrGraph,
    alphas: &[Alpha],
    base_config: &OracleConfig,
) -> Vec<RadiusPoint> {
    alphas
        .iter()
        .map(|&alpha| {
            let config = OracleConfig {
                alpha,
                ..base_config.clone()
            };
            let start = Instant::now();
            let oracle = OracleBuilder::from_config(config).build(graph);
            let build_s = start.elapsed().as_secs_f64();
            let max_radius = (0..oracle.node_count() as u32)
                .filter_map(|u| oracle.vicinity(u))
                .map(|v| v.radius())
                .max()
                .unwrap_or(0);
            RadiusPoint {
                alpha: alpha.value(),
                average_radius: oracle.average_vicinity_radius(),
                max_radius,
                build_s,
            }
        })
        .collect()
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vicinity_graph::generators::social::SocialGraphConfig;

    fn tiny_workload() -> ExperimentWorkload {
        ExperimentWorkload {
            sample_nodes: 25,
            runs: 2,
            seed: 7,
        }
    }

    #[test]
    fn intersection_fraction_increases_with_alpha() {
        // On the ~2000-node test graph the interesting part of the curve is
        // shifted to larger alpha (hop quantisation); the monotone rise of
        // the answered fraction with alpha is what Figure 2 (left) shows.
        let g = SocialGraphConfig::small_test().generate(121);
        let alphas = [
            Alpha::new(4.0).unwrap(),
            Alpha::new(16.0).unwrap(),
            Alpha::new(64.0).unwrap(),
        ];
        let points =
            intersection_experiment(&g, &alphas, &OracleConfig::default(), &tiny_workload());
        assert_eq!(points.len(), 3);
        assert!(points[0].answered_fraction <= points[1].answered_fraction + 0.05);
        assert!(points[1].answered_fraction <= points[2].answered_fraction + 0.05);
        // At the top of the sweep nearly everything is answered.
        assert!(
            points[2].answered_fraction > 0.9,
            "got {}",
            points[2].answered_fraction
        );
        // Vicinity sizes grow with alpha.
        assert!(points[0].average_vicinity_size < points[2].average_vicinity_size);
        // Pair counts match the workload: runs * k * (k-1).
        assert_eq!(points[0].pairs, 2 * 25 * 24);
        // Fractions are valid probabilities, and intersection answers are a
        // subset of all answers.
        for p in &points {
            assert!(p.answered_fraction >= 0.0 && p.answered_fraction <= 1.0);
            assert!(p.intersection_fraction <= p.answered_fraction);
        }
    }

    #[test]
    fn boundary_cdf_is_monotone_and_bounded() {
        let g = SocialGraphConfig::small_test().generate(122);
        let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT).seed(1).build(&g);
        let cdf = boundary_cdf(&oracle, &g, 20);
        assert_eq!(cdf.len(), 20);
        for window in cdf.windows(2) {
            assert!(window[0].0 <= window[1].0, "x must be non-decreasing");
            assert!(window[0].1 <= window[1].1, "y must be non-decreasing");
        }
        let (max_fraction, last_q) = *cdf.last().unwrap();
        assert!((last_q - 1.0).abs() < 1e-12);
        // Boundary sizes are a small fraction of the network (paper: <0.4%
        // for the real datasets; allow a loose bound for small stand-ins).
        assert!(
            max_fraction < 0.25,
            "boundary fraction too large: {max_fraction}"
        );
    }

    #[test]
    fn boundary_cdf_degenerate_inputs() {
        let g = vicinity_graph::builder::GraphBuilder::new().build_undirected();
        let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT).build(&g);
        assert!(boundary_cdf(&oracle, &g, 10).is_empty());
        assert_eq!(average_boundary_size(&oracle, &g), 0.0);
        let g = SocialGraphConfig::small_test().generate(123);
        let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT).seed(2).build(&g);
        assert!(boundary_cdf(&oracle, &g, 0).is_empty());
    }

    #[test]
    fn boundary_size_matches_brute_force() {
        // ∂Γ(u) from a full BFS per node: the nodes within the radius with
        // a neighbour beyond it; a landmark's vicinity is empty.
        // Landmark-free nodes (an extra component without a landmark)
        // hold their whole component, so they have none.
        let mut builder = vicinity_graph::builder::GraphBuilder::new();
        let g = SocialGraphConfig::small_test()
            .with_nodes(400)
            .generate(125);
        for (u, v) in g.edges() {
            builder.add_edge(u, v);
        }
        builder.add_edge(400, 401);
        builder.add_edge(401, 402);
        let g = builder.build_undirected();
        let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT)
            .seed(3)
            .sampling(crate::config::SamplingStrategy::TopDegree)
            .build(&g);
        let mut total = 0usize;
        for v in oracle.store().iter() {
            let reference = vicinity_graph::algo::bfs::bfs_distances(&g, v.owner());
            let within = |x: u32| reference[x as usize] <= v.radius();
            let expected = if oracle.is_landmark(v.owner()) {
                0
            } else {
                g.nodes()
                    .filter(|&x| within(x) && g.neighbors(x).iter().any(|&w| !within(w)))
                    .count()
            };
            assert_eq!(boundary_size(&v, &g), expected, "node {}", v.owner());
            total += expected;
        }
        assert!(total > 0);
        assert!(oracle.vicinity(401).unwrap().nearest_landmark().is_none());
        assert_eq!(boundary_size(&oracle.vicinity(401).unwrap(), &g), 0);
        let average = average_boundary_size(&oracle, &g);
        assert!((average - total as f64 / g.node_count() as f64).abs() < 1e-12);
        assert!(average <= oracle.average_vicinity_size());
    }

    #[test]
    fn radius_grows_with_alpha() {
        let g = SocialGraphConfig::small_test().generate(124);
        let alphas = [Alpha::new(1.0).unwrap(), Alpha::new(16.0).unwrap()];
        let points = radius_experiment(&g, &alphas, &OracleConfig::default());
        assert_eq!(points.len(), 2);
        assert!(points[1].average_radius >= points[0].average_radius);
        assert!(points[1].max_radius >= points[0].max_radius);
        assert!(points.iter().all(|p| p.build_s > 0.0));
        // Social-network radii stay small (paper: < 3.5 hops at alpha = 4;
        // our stand-ins are much smaller so allow some slack above that).
        assert!(points[1].average_radius < 8.0);
    }
}
