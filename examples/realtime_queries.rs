//! Latency-budgeted query serving.
//!
//! The paper's motivation is interactive use: "it is desirable to answer
//! queries within tens of milliseconds since higher latencies can be
//! perceived by the users". This example simulates an online service: a
//! stream of distance queries is answered under a per-query latency budget,
//! using the oracle first, the landmark-based approximation when the oracle
//! misses and the budget is tight, and the exact fallback search (seeded
//! with both endpoints' vicinities) when there is budget to spare. It then
//! prints the latency distribution.
//!
//! ```bash
//! cargo run --release --example realtime_queries
//! ```

use std::time::{Duration, Instant};

use vicinity::core::fallback::fallback_distance;
use vicinity::graph::algo::bfs::BidirBfsScratch;
use vicinity::prelude::*;

/// Per-query latency budget for the simulated service.
const BUDGET: Duration = Duration::from_millis(10);

fn main() {
    let dataset = Dataset::stand_in(
        StandIn::LiveJournal,
        vicinity::datasets::registry::Scale::Small,
    );
    let graph = &dataset.graph;
    println!(
        "serving distance queries on {}: {} nodes, {} edges (budget {:?}/query)",
        dataset.name,
        graph.node_count(),
        graph.edge_count(),
        BUDGET
    );

    let build = Instant::now();
    let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT)
        .seed(2012)
        .build(graph);
    println!("oracle ready in {:.2?}", build.elapsed());

    let workload = PairWorkload::uniform_random(graph, 5_000, 777);
    let mut scratch = BidirBfsScratch::with_node_capacity(graph.node_count());

    let mut latencies: Vec<Duration> = Vec::with_capacity(workload.len());
    let mut exact_from_index = 0u64;
    let mut exact_from_fallback = 0u64;
    let mut approximate = 0u64;
    let mut over_budget = 0u64;

    for (s, t) in workload.iter() {
        let start = Instant::now();
        let answer = oracle.distance(s, t);
        let resolved: Option<u32> = match answer {
            DistanceAnswer::Exact { distance, .. } => {
                exact_from_index += 1;
                Some(distance)
            }
            DistanceAnswer::Unreachable => {
                exact_from_index += 1;
                None
            }
            DistanceAnswer::Miss => {
                // Decide how to spend the remaining budget: cheap approximate
                // answer if we are already close to the deadline, exact
                // search otherwise.
                if start.elapsed() > BUDGET / 2 {
                    approximate += 1;
                    oracle.landmark_estimate(s, t)
                } else {
                    exact_from_fallback += 1;
                    fallback_distance(&oracle, graph, &mut scratch, s, t)
                }
            }
        };
        std::hint::black_box(resolved);
        let elapsed = start.elapsed();
        if elapsed > BUDGET {
            over_budget += 1;
        }
        latencies.push(elapsed);
    }

    latencies.sort();
    let total = latencies.len();
    let at = |p: f64| latencies[((total as f64 - 1.0) * p) as usize];
    let mean: Duration = latencies.iter().sum::<Duration>() / total as u32;
    let sub_ms = latencies.iter().filter(|d| d.as_micros() < 1000).count();

    println!("\nserved {total} queries:");
    println!("  exact from the index      {exact_from_index:>8}");
    println!("  exact via fallback search {exact_from_fallback:>8}");
    println!("  approximate (landmark)    {approximate:>8}");
    println!(
        "\nlatency: mean {:.1?}  p50 {:.1?}  p99 {:.1?}  p99.9 {:.1?}  max {:.1?}",
        mean,
        at(0.50),
        at(0.99),
        at(0.999),
        latencies[total - 1]
    );
    println!(
        "  answered in under a millisecond: {:.2}%   over the {:?} budget: {}",
        100.0 * sub_ms as f64 / total as f64,
        BUDGET,
        over_budget
    );
}
