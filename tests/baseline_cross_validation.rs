//! Cross-validation of every point-to-point engine in the workspace: on the
//! same graph and the same workload, all exact engines must agree with each
//! other, the approximate engines must bracket the exact answer, and the
//! oracle must agree whenever it answers.

use rand::SeedableRng;

use vicinity::baselines::alt::{AltEngine, AltLandmarkStrategy};
use vicinity::baselines::apsp::ApspTable;
use vicinity::baselines::bfs::BfsEngine;
use vicinity::baselines::bidirectional_bfs::BidirectionalBfs;
use vicinity::baselines::landmark_estimate::{EstimatorLandmarkStrategy, LandmarkEstimator};
use vicinity::baselines::PointToPoint;
use vicinity::core::config::Alpha;
use vicinity::core::OracleBuilder;
use vicinity::graph::algo::sampling::random_pairs;
use vicinity::graph::generators::social::SocialGraphConfig;

#[test]
fn all_engines_agree_on_a_social_graph() {
    let graph = SocialGraphConfig::small_test()
        .with_nodes(1200)
        .generate(2024);
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);

    let apsp = ApspTable::build(&graph).expect("graph is small enough for APSP");
    let mut bfs = BfsEngine::new(&graph);
    let mut bidir = BidirectionalBfs::new(&graph);
    let mut alt = AltEngine::new(&graph, 6, AltLandmarkStrategy::Farthest, &mut rng);
    let mut estimator = LandmarkEstimator::new(
        &graph,
        12,
        EstimatorLandmarkStrategy::HighestDegree,
        &mut rng,
    );
    let oracle = OracleBuilder::new(Alpha::new(16.0).unwrap())
        .seed(7)
        .build(&graph);

    for (s, t) in random_pairs(&graph, 250, &mut rng) {
        let reference = apsp.distance(s, t);
        assert_eq!(bfs.distance(s, t), reference, "BFS disagrees on ({s},{t})");
        assert_eq!(
            bidir.distance(s, t),
            reference,
            "BiBFS disagrees on ({s},{t})"
        );
        assert_eq!(alt.distance(s, t), reference, "ALT disagrees on ({s},{t})");

        if let Some(exact) = reference {
            if let Some(estimate) = estimator.distance(s, t) {
                assert!(estimate >= exact, "estimator underestimates ({s},{t})");
            }
            if let Some(lower) = estimator.lower_bound(s, t) {
                assert!(lower <= exact, "estimator lower bound too high ({s},{t})");
            }
            if let Some(d) = oracle.distance(s, t).exact_distance() {
                assert_eq!(d, exact, "oracle disagrees on ({s},{t})");
            }
            if let Some(upper) = oracle.landmark_estimate(s, t) {
                assert!(
                    upper >= exact,
                    "oracle landmark estimate underestimates ({s},{t})"
                );
            }
        }
    }
}

#[test]
fn exploration_cost_ordering_matches_table3_narrative() {
    // The paper's Table 3 narrative: the oracle does a few thousand hash
    // probes while BFS-style searches settle large fractions of the graph,
    // and bidirectional BFS settles far fewer nodes than plain BFS.
    let graph = SocialGraphConfig::small_test()
        .with_nodes(1500)
        .generate(77);
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let pairs = random_pairs(&graph, 150, &mut rng);

    let mut bfs = BfsEngine::new(&graph);
    let mut bidir = BidirectionalBfs::new(&graph);
    let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT)
        .seed(5)
        .build(&graph);

    let mut bfs_ops = 0u64;
    let mut bidir_ops = 0u64;
    let mut oracle_probes = 0u64;
    for &(s, t) in &pairs {
        bfs.distance(s, t);
        bfs_ops += bfs.last_operations();
        bidir.distance(s, t);
        bidir_ops += bidir.last_operations();
        oracle_probes += oracle.distance_with_stats(s, t).1.lookups;
    }
    assert!(
        bidir_ops < bfs_ops,
        "bidirectional BFS should settle fewer nodes ({bidir_ops} vs {bfs_ops})"
    );
    // On a ~1500-node graph both searches terminate after a handful of hops,
    // so the oracle's advantage over *bidirectional* BFS only materialises at
    // the experiment scale (see the table3_query_time binary); here we check
    // the unambiguous part of the ordering: probes ≪ plain BFS work.
    assert!(
        oracle_probes < bfs_ops / 2,
        "oracle probes ({oracle_probes}) should be far below BFS work ({bfs_ops})"
    );
}
