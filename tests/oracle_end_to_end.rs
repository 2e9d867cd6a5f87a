//! End-to-end integration tests spanning the dataset registry, the graph
//! substrate, the vicinity oracle and the baselines.

use vicinity::baselines::bfs::BfsEngine;
use vicinity::baselines::PointToPoint;
use vicinity::core::config::{Alpha, SamplingStrategy};
use vicinity::core::fallback::QueryWithFallback;
use vicinity::core::memory::MemoryReport;
use vicinity::core::query::{DistanceAnswer, PathAnswer};
use vicinity::core::stats::average_boundary_size;
use vicinity::core::{serialize, OracleBuilder};
use vicinity::datasets::registry::{Dataset, Scale, StandIn};
use vicinity::datasets::workload::PairWorkload;
use vicinity::graph::algo::components::connected_components;

/// Build each stand-in at tiny scale and cross-validate every oracle answer
/// against BFS on the §2.3 workload.
#[test]
fn every_stand_in_answers_exactly() {
    for stand_in in StandIn::all() {
        let dataset = Dataset::generate_uncached(stand_in, Scale::Tiny);
        let graph = &dataset.graph;
        assert!(
            connected_components(graph).is_connected(),
            "{} stand-in must be connected",
            dataset.name
        );

        let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT)
            .seed(1)
            .build(graph);
        let workload = PairWorkload::paper_sampling(graph, 25, 1, 5);
        let mut bfs = BfsEngine::new(graph);
        let mut answered = 0u64;
        for (s, t) in workload.iter() {
            match oracle.distance(s, t) {
                DistanceAnswer::Exact { distance, .. } => {
                    answered += 1;
                    assert_eq!(
                        Some(distance),
                        bfs.distance(s, t),
                        "{}: wrong d({s},{t})",
                        dataset.name
                    );
                }
                DistanceAnswer::Unreachable => {
                    assert_eq!(
                        None,
                        bfs.distance(s, t),
                        "{}: bogus unreachable ({s},{t})",
                        dataset.name
                    );
                }
                DistanceAnswer::Miss => {}
            }
        }
        assert!(
            answered > workload.len() as u64 / 10,
            "{}: implausibly low hit count {answered}/{}",
            dataset.name,
            workload.len()
        );
    }
}

/// Paths returned by the oracle are valid shortest paths on every stand-in.
#[test]
fn paths_are_valid_on_stand_ins() {
    let dataset = Dataset::generate_uncached(StandIn::Flickr, Scale::Tiny);
    let graph = &dataset.graph;
    let oracle = OracleBuilder::new(Alpha::new(16.0).unwrap())
        .seed(2)
        .build(graph);
    let workload = PairWorkload::uniform_random(graph, 300, 11);
    let mut bfs = BfsEngine::new(graph);
    let mut answered = 0;
    for (s, t) in workload.iter() {
        if let PathAnswer::Exact { path, distance, .. } = oracle.path_with_graph(graph, s, t) {
            answered += 1;
            assert_eq!(
                vicinity::baselines::validate_path(graph, s, t, &path),
                Some(distance),
                "invalid path for ({s},{t})"
            );
            assert_eq!(
                Some(distance),
                bfs.distance(s, t),
                "non-shortest path for ({s},{t})"
            );
        }
    }
    assert!(answered > 100, "too few path answers: {answered}/300");
}

/// The oracle + exact fallback answers every query, and the answers agree
/// with BFS on all of them.
#[test]
fn fallback_completes_every_query() {
    let dataset = Dataset::generate_uncached(StandIn::Dblp, Scale::Tiny);
    let graph = &dataset.graph;
    let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT)
        .seed(3)
        .build(graph);
    let mut combined = QueryWithFallback::new(&oracle, graph);
    let mut bfs = BfsEngine::new(graph);
    let workload = PairWorkload::uniform_random(graph, 500, 13);
    for (s, t) in workload.iter() {
        assert_eq!(
            combined.distance(s, t).value(),
            bfs.distance(s, t),
            "pair ({s},{t})"
        );
    }
    assert_eq!(combined.oracle_hits + combined.fallback_hits, 500);
}

/// Increasing alpha monotonically increases vicinity size, decreases the
/// landmark count and increases the fraction of queries answered from the
/// index — the qualitative content of Figure 2 (left)/(right).
#[test]
fn alpha_sweep_shapes_match_figure2() {
    let dataset = Dataset::generate_uncached(StandIn::LiveJournal, Scale::Tiny);
    let graph = &dataset.graph;
    let workload = PairWorkload::uniform_random(graph, 400, 17);

    let mut landmark_counts = Vec::new();
    let mut vicinity_sizes = Vec::new();
    let mut radii = Vec::new();
    let mut hit_rates = Vec::new();
    for alpha in [1.0, 8.0, 64.0] {
        let oracle = OracleBuilder::new(Alpha::new(alpha).unwrap())
            .seed(4)
            .build(graph);
        landmark_counts.push(oracle.landmarks().len());
        vicinity_sizes.push(oracle.average_vicinity_size());
        radii.push(oracle.average_vicinity_radius());
        let answered = workload
            .iter()
            .filter(|&(s, t)| oracle.distance(s, t).is_answered())
            .count();
        hit_rates.push(answered as f64 / workload.len() as f64);
    }
    assert!(landmark_counts[0] > landmark_counts[1] && landmark_counts[1] > landmark_counts[2]);
    assert!(vicinity_sizes[0] < vicinity_sizes[1] && vicinity_sizes[1] < vicinity_sizes[2]);
    assert!(radii[0] <= radii[1] && radii[1] <= radii[2]);
    assert!(
        hit_rates[0] <= hit_rates[2] + 0.02 && hit_rates[1] <= hit_rates[2] + 0.02,
        "hit rate should peak at the largest alpha: {hit_rates:?}"
    );
    assert!(
        hit_rates[2] > 0.85,
        "alpha=64 should answer most queries: {hit_rates:?}"
    );
}

/// Memory accounting: larger alpha costs more entries; the savings factor
/// relative to all-pairs storage stays above 1 and the boundary is a small
/// fraction of the graph (Figure 2 center, §3.2).
#[test]
fn memory_and_boundary_claims() {
    let dataset = Dataset::generate_uncached(StandIn::Orkut, Scale::Tiny);
    let graph = &dataset.graph;
    let small = OracleBuilder::new(Alpha::new(1.0).unwrap())
        .seed(5)
        .build(graph);
    let large = OracleBuilder::new(Alpha::new(16.0).unwrap())
        .seed(5)
        .build(graph);
    let report_small = MemoryReport::measure(&small);
    let report_large = MemoryReport::measure(&large);
    assert!(report_small.vicinity_entries < report_large.vicinity_entries);
    assert!(report_small.entry_savings_factor > report_large.entry_savings_factor);
    assert!(report_large.entry_savings_factor > 1.0);

    let n = graph.node_count() as f64;
    let boundary_fraction = average_boundary_size(&large, graph) / n;
    assert!(
        boundary_fraction < 0.2,
        "average boundary should be a small fraction of n, got {boundary_fraction}"
    );
}

/// Serialisation round-trips a full oracle built over a stand-in, and the
/// loaded oracle answers queries identically.
#[test]
fn persistence_round_trip_on_stand_in() {
    let dataset = Dataset::generate_uncached(StandIn::Dblp, Scale::Tiny);
    let graph = &dataset.graph;
    let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT)
        .seed(6)
        .sampling(SamplingStrategy::DegreeProportional)
        .build(graph);
    let bytes = serialize::encode(&oracle);
    let restored = serialize::decode(&bytes).expect("round trip");
    assert_eq!(oracle, restored);
    let workload = PairWorkload::uniform_random(graph, 100, 23);
    for (s, t) in workload.iter() {
        assert_eq!(oracle.distance(s, t), restored.distance(s, t));
    }
}

/// The prelude exposes the public API advertised in the README.
#[test]
fn prelude_is_usable() {
    use vicinity::prelude::*;
    let graph = SocialGraphConfig::small_test().with_nodes(800).generate(9);
    let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT)
        .seed(1)
        .build(&graph);
    let answer = oracle.distance(0, (graph.node_count() / 2) as u32);
    assert!(answer.is_answered() || answer.is_miss() || answer.is_unreachable());
    let stats: QueryStats = oracle.distance_with_stats(0, 1).1;
    let _ = stats.lookups;
    let workload = PairWorkload::uniform_random(&graph, 10, 3);
    assert_eq!(workload.len(), 10);
    let engine = BfsEngine::new(&graph);
    drop(engine);
    let _bidir = BidirectionalBfs::new(&graph);
}
