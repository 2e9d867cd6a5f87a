//! Table 3 — query time comparison at α = 4.
//!
//! For every dataset: build the oracle at α = 4, run the §2.3 workload and
//! report (a) average and worst-case membership look-ups per query, (b) the
//! average query time of the vicinity oracle, and (c) the average query
//! time of BFS and bidirectional BFS on a (capped) subset of the same
//! workload, together with the resulting speed-up — the same columns as
//! Table 3 of the paper, printed next to the paper's own numbers. The same
//! subset also times the §4 related-work engines: ALT (A* with 8
//! highest-degree landmarks, exact) and landmark estimation (16
//! highest-degree landmarks, an upper bound, not exact). Each baseline's
//! time is followed by its mean work per query (`ops`,
//! `PointToPoint::last_operations`), as the paper puts look-ups beside
//! time, and a closing line says on which datasets ALT settles fewer nodes
//! than BFS.

use std::time::Duration;

use rand::SeedableRng;

use vicinity_baselines::alt::{AltEngine, AltLandmarkStrategy};
use vicinity_baselines::bfs::BfsEngine;
use vicinity_baselines::bidirectional_bfs::BidirectionalBfs;
use vicinity_baselines::landmark_estimate::{EstimatorLandmarkStrategy, LandmarkEstimator};
use vicinity_baselines::PointToPoint;
use vicinity_bench::{mean_ms, print_header, timed, ExperimentEnv};
use vicinity_core::config::Alpha;
use vicinity_core::OracleBuilder;
use vicinity_datasets::workload::PairWorkload;

/// Mean milliseconds and mean operations (`last_operations`) per query of
/// `engine` over `workload`, each query timed on its own.
fn mean_query_cost(engine: &mut impl PointToPoint, workload: &PairWorkload) -> (f64, f64) {
    let mut operations = 0u64;
    let times: Vec<Duration> = workload
        .iter()
        .map(|(s, t)| {
            let elapsed = timed(|| engine.distance(s, t)).1;
            operations += engine.last_operations();
            elapsed
        })
        .collect();
    (
        mean_ms(&times),
        operations as f64 / workload.len().max(1) as f64,
    )
}

fn main() {
    let env = ExperimentEnv::from_env();
    print_header("Table 3: query time results (alpha = 4)", &env);

    println!(
        "{:<14} {:>12} {:>12} {:>10} {:>10} {:>7} {:>12} {:>7} {:>10} {:>7} {:>27} {:>7} {:>10} | {:>10} {:>12}",
        "Dataset",
        "avg lookups",
        "worst",
        "ours (ms)",
        "BFS (ms)",
        "ops",
        "bidir (ms)",
        "ops",
        "ALT (ms)",
        "ops",
        "landmark est. (ms, approx.)",
        "ops",
        "speed-up",
        "hit rate",
        "paper spdup"
    );
    // Datasets run, and those where ALT settles fewer nodes than BFS.
    let mut datasets = 0usize;
    let mut alt_fewer: Vec<String> = Vec::new();

    for dataset in env.datasets() {
        let graph = &dataset.graph;
        let (oracle, build_time) = timed(|| {
            OracleBuilder::new(Alpha::PAPER_DEFAULT)
                .seed(2012)
                .build(graph)
        });

        let workload = PairWorkload::paper_sampling(graph, env.sample_nodes, env.runs, 2012);

        // Oracle pass: time every query individually, record look-ups.
        let mut lookups_total = 0u64;
        let mut lookups_worst = 0u64;
        let mut answered = 0u64;
        let mut oracle_times: Vec<Duration> = Vec::with_capacity(workload.len());
        for (s, t) in workload.iter() {
            let (result, elapsed) = timed(|| oracle.distance_with_stats(s, t));
            let (answer, stats) = result;
            oracle_times.push(elapsed);
            lookups_total += stats.lookups;
            lookups_worst = lookups_worst.max(stats.lookups);
            if answer.is_answered() || answer.is_unreachable() {
                answered += 1;
            }
        }
        let queries = workload.len().max(1) as f64;
        let avg_lookups = lookups_total as f64 / queries;
        let hit_rate = answered as f64 / queries;
        let ours_ms = mean_ms(&oracle_times);

        // Baseline pass on a capped subset (a BFS per pair is expensive).
        let baseline_workload = workload.truncated(env.baseline_pairs);
        let (bfs_ms, bfs_ops) = mean_query_cost(&mut BfsEngine::new(graph), &baseline_workload);
        let (bidir_ms, bidir_ops) =
            mean_query_cost(&mut BidirectionalBfs::new(graph), &baseline_workload);
        // Highest-degree selection draws nothing from the RNG.
        let mut rng = rand::rngs::StdRng::seed_from_u64(2012);
        let mut alt = AltEngine::new(graph, 8, AltLandmarkStrategy::HighestDegree, &mut rng);
        let (alt_ms, alt_ops) = mean_query_cost(&mut alt, &baseline_workload);
        let mut estimator = LandmarkEstimator::new(
            graph,
            16,
            EstimatorLandmarkStrategy::HighestDegree,
            &mut rng,
        );
        let (estimate_ms, estimate_ops) = mean_query_cost(&mut estimator, &baseline_workload);
        let speedup = if ours_ms > 0.0 {
            bidir_ms / ours_ms
        } else {
            0.0
        };
        let paper = dataset.stand_in.map(|s| s.paper_table3());

        println!(
            "{:<14} {:>12.1} {:>12} {:>10.4} {:>10.3} {:>7.1} {:>12.3} {:>7.1} {:>10.3} {:>7.1} {:>27.4} {:>7.1} {:>9.0}x | {:>9.1}% {:>11}",
            dataset.name,
            avg_lookups,
            lookups_worst,
            ours_ms,
            bfs_ms,
            bfs_ops,
            bidir_ms,
            bidir_ops,
            alt_ms,
            alt_ops,
            estimate_ms,
            estimate_ops,
            speedup,
            hit_rate * 100.0,
            paper.map_or("-".to_string(), |p| format!("{:.0}x", p.speedup)),
        );
        eprintln!(
            "  [{}] oracle built in {:.1?}; {} oracle queries, {} baseline queries",
            dataset.name,
            build_time,
            workload.len(),
            baseline_workload.len()
        );
        datasets += 1;
        if alt_ops < bfs_ops {
            alt_fewer.push(dataset.name.to_string());
        }
    }

    println!();
    println!("Columns mirror Table 3 of the paper. 'hit rate' is the fraction of queries");
    println!("answered by the index alone (the paper reports >99.9% on the full-size");
    println!("datasets; the scaled stand-ins are lower — see EXPERIMENTS.md). Times are");
    println!("wall-clock per query on this machine; compare the *ratios*, not the values.");
    println!("ALT is exact; 'landmark est.' returns min over landmarks of d(s,L) + d(L,t),");
    println!("an upper bound on the distance (the §4 approximation schemes).");
    println!("'ops' is the mean work per query: nodes settled by BFS, bidirectional BFS");
    println!("and ALT, landmark-table reads by the estimator.");
    println!(
        "ALT settles fewer nodes per query than BFS on {} of {datasets} datasets ({}).",
        alt_fewer.len(),
        alt_fewer.join(", ")
    );
}
