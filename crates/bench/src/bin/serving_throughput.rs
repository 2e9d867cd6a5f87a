//! Serving-throughput experiment: `QueryService` batch throughput and
//! latency percentiles across thread counts and cache configurations, on
//! each stand-in dataset.
//!
//! This is the serving-layer companion of `table3_query_time`: instead of
//! single-threaded per-query latency, it measures what one machine
//! sustains when the immutable index is shared by several workers
//! (ROADMAP: "serves heavy traffic from millions of users").
//!
//! Honours `VICINITY_SCALE`, `VICINITY_DATASETS` and
//! `VICINITY_SERVE_QUERIES` (default 100000 queries per configuration).
//! Every configuration's answers are checked against BFS on a seeded
//! sample of the pairs; any mismatch fails the run (exit code 1). The
//! fallback columns report the search's frontier nodes read, neighbour
//! entries read and time per index miss, from the service's own counters.
//! Results are also written as the `serving_throughput` section of
//! `BENCH_query.json` (see `vicinity_bench::bench_json`) so serving-layer
//! throughput is tracked across PRs alongside the `query_batch` numbers.

use rand::{Rng, SeedableRng};

use vicinity_baselines::bfs::BfsEngine;
use vicinity_baselines::PointToPoint;
use vicinity_bench::bench_json::{bench_json_path, write_bench_section};
use vicinity_bench::{print_header, timed, ExperimentEnv};
use vicinity_core::config::Alpha;
use vicinity_core::OracleBuilder;
use vicinity_graph::algo::sampling::random_pairs;
use vicinity_graph::Distance;
use vicinity_server::QueryService;

/// Served answers checked against BFS per dataset and configuration.
const CHECKED_PAIRS: usize = 1_000;

fn main() {
    let env = ExperimentEnv::from_env();
    print_header("serving throughput (QueryService)", &env);
    let mut json_rows: Vec<String> = Vec::new();

    let queries: usize = std::env::var("VICINITY_SERVE_QUERIES")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(100_000);
    let mut mismatches = 0usize;

    println!(
        "{:<12} {:>8} {:>7} {:>9} {:>12} {:>10} {:>10} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "dataset",
        "threads",
        "cache",
        "queries",
        "throughput",
        "p50",
        "p99",
        "fallback",
        "pops/miss",
        "arcs/miss",
        "us/miss",
        "cachehit"
    );

    for dataset in env.datasets() {
        let graph = dataset.graph.clone();
        let (oracle, build_time) = timed(|| {
            OracleBuilder::new(Alpha::PAPER_DEFAULT)
                .seed(2012)
                .store_paths(false)
                .build(&graph)
        });
        println!(
            "# {}: {} nodes, {} edges, index built in {:.1?}",
            dataset.name,
            graph.node_count(),
            graph.edge_count(),
            build_time
        );

        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let pairs = random_pairs(&graph, queries, &mut rng);
        // The BFS reference for a fixed sample of positions, shared by
        // every configuration below.
        let mut bfs = BfsEngine::new(&graph);
        let checks: Vec<(usize, Option<Distance>)> = (0..CHECKED_PAIRS.min(pairs.len()))
            .map(|_| {
                let i = rng.gen_range(0..pairs.len());
                (i, bfs.distance(pairs[i].0, pairs[i].1))
            })
            .collect();

        for threads in [1usize, 4] {
            for cache_capacity in [0usize, 1 << 16] {
                let service = QueryService::builder(oracle.clone(), graph.clone())
                    .threads(threads)
                    .cache_capacity(cache_capacity)
                    .build()
                    .expect("oracle and graph agree");
                let answers = service.serve_batch(&pairs);
                assert_eq!(answers.len(), pairs.len());
                for &(i, expected) in &checks {
                    if answers[i].distance() != expected {
                        eprintln!(
                            "FAIL: {} threads={threads} cache={cache_capacity}: served {:?} = \
                             {:?}, BFS says {expected:?}",
                            dataset.name, pairs[i], answers[i]
                        );
                        mismatches += 1;
                    }
                }
                let stats = service.stats();
                let (pops, arcs) = stats.fallback_work_per_miss();
                let fallback_us = stats.fallback_us_per_miss();
                println!(
                    "{:<12} {:>8} {:>7} {:>9} {:>9.0}q/s {:>10.2?} {:>10.2?} {:>8.2}% {:>9.2} {:>9.1} {:>9.2} {:>8.2}%",
                    dataset.name,
                    threads,
                    cache_capacity,
                    stats.queries,
                    stats.throughput_qps(),
                    stats.latency.percentile(50.0),
                    stats.latency.percentile(99.0),
                    stats.fallback_rate() * 100.0,
                    pops,
                    arcs,
                    fallback_us,
                    stats.cache_hit_rate() * 100.0,
                );
                json_rows.push(format!(
                    "{{\"graph\": \"{}\", \"nodes\": {}, \"alpha\": {}, \"threads\": {threads}, \
                     \"cache\": {cache_capacity}, \"queries\": {}, \"qps\": {:.0}, \
                     \"p50_us\": {:.3}, \"p99_us\": {:.3}, \"fallback_pct\": {:.3}, \
                     \"fallback_pops_per_miss\": {pops:.3}, \"fallback_arcs_per_miss\": {arcs:.1}, \
                     \"fallback_us_per_miss\": {fallback_us:.3}, \
                     \"cache_hit_pct\": {:.3}}}",
                    dataset.name,
                    graph.node_count(),
                    Alpha::PAPER_DEFAULT.value(),
                    stats.queries,
                    stats.throughput_qps(),
                    stats.latency.percentile(50.0).as_secs_f64() * 1e6,
                    stats.latency.percentile(99.0).as_secs_f64() * 1e6,
                    stats.fallback_rate() * 100.0,
                    stats.cache_hit_rate() * 100.0,
                ));
            }
        }
        println!();
    }

    if mismatches > 0 {
        eprintln!("serving_throughput: {mismatches} served answer(s) disagree with BFS");
        std::process::exit(1);
    }

    // Reduced scales (tiny/small) are quick-iteration modes; only
    // full-scale runs may update the tracked perf numbers, so a toy run
    // never clobbers the checked-in BENCH_query.json. A write failure
    // (e.g. read-only checkout) is reported but does not fail the bench —
    // the measurements above already printed.
    if matches!(
        env.scale,
        vicinity_datasets::registry::Scale::Default | vicinity_datasets::registry::Scale::Large
    ) {
        let path = bench_json_path();
        let payload = format!("[\n    {}\n  ]", json_rows.join(",\n    "));
        match write_bench_section(&path, "serving_throughput", &payload) {
            Ok(()) => println!("wrote serving_throughput section to {}", path.display()),
            Err(e) => eprintln!(
                "serving_throughput: could not write {} ({e}); skipping the JSON update",
                path.display()
            ),
        }
    } else {
        println!(
            "skipping BENCH_query.json update at scale '{}' (full-scale runs only)",
            env.scale.name()
        );
    }
}
