//! Batched query-engine experiment: scalar per-pair execution vs the
//! staged software-prefetch pipeline (`VicinityOracle::distance_batch`).
//!
//! Builds oracles over a generated social graph (100k nodes by default, a
//! small graph with `--smoke`) for α ∈ {4, 32, 128} and, for each batch
//! size in {1, 8, 64, 512}, measures p50/p99 per-query latency (batch
//! time divided over the batch) and sustained throughput against the
//! scalar baseline on the same workload.
//!
//! The binary doubles as a correctness gate and exits non-zero when:
//!
//! * batched answers are not byte-identical to scalar answers, or the
//!   accumulated `QueryStats` differ (the pipeline must only reorder
//!   memory traffic, never the work) — checked in every mode, and what
//!   CI's `query_batch --smoke` run enforces;
//! * the workload did not send shell pairs through *both* intersection
//!   strategies (galloping merge and membership-slot probe), so the
//!   parity check above would leave one of them unexercised — every mode;
//! * the scalar run answered no pair with the landmark walk
//!   (`AnswerMethod::LandmarkWalk`), which would leave that branch outside
//!   the parity check too — every mode;
//! * in full mode, the α = 4 run shows < 1.5× batched-over-scalar
//!   throughput at batch ≥ 64 — the headline claim this experiment
//!   exists to defend.
//!
//! Full-mode results are also written as the `query_batch` section of
//! `BENCH_query.json` (path overridable via `VICINITY_BENCH_JSON`) so the
//! perf trajectory is tracked across PRs; smoke runs gate correctness
//! only and leave the tracked numbers untouched. Honours
//! `VICINITY_BATCH_QUERIES` (workload size per configuration, default
//! 20000 / 4000 smoke).

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use rand::SeedableRng;
use vicinity_bench::bench_json::{bench_json_path, write_bench_section};
use vicinity_bench::{percentile_ms, timed};
use vicinity_core::config::Alpha;
use vicinity_core::query::{AnswerMethod, DistanceAnswer, QueryStats};
use vicinity_core::{OracleBuilder, VicinityOracle};
use vicinity_graph::algo::sampling::random_pairs;
use vicinity_graph::generators::social::SocialGraphConfig;
use vicinity_graph::NodeId;

const BATCH_SIZES: [usize; 4] = [1, 8, 64, 512];
/// Throughput a batch ≥ 64 run must reach relative to scalar at α = 4
/// (full mode only).
const SPEEDUP_GATE: f64 = 1.5;

struct RunMeasurement {
    answers: Vec<DistanceAnswer>,
    stats: QueryStats,
    p50_us: f64,
    p99_us: f64,
    qps: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let nodes = if smoke { 4_000 } else { 100_000 };
    let alphas: &[f64] = if smoke { &[4.0] } else { &[4.0, 32.0, 128.0] };
    let queries: usize = std::env::var("VICINITY_BATCH_QUERIES")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(if smoke { 4_000 } else { 20_000 });

    println!("=== Batched query engine: scalar vs software-prefetch pipeline ===");
    println!(
        "mode={} nodes={nodes} queries={queries} batches={BATCH_SIZES:?} seed=2012",
        if smoke { "smoke" } else { "full" },
    );
    println!();

    let graph = SocialGraphConfig::default()
        .with_nodes(nodes)
        .generate(2012);
    let graph_label = format!("social-{nodes}");
    let mut failures = 0u32;
    let mut json_rows: Vec<String> = Vec::new();

    for &alpha in alphas {
        let (oracle, build_time) = timed(|| {
            OracleBuilder::new(Alpha::new(alpha).expect("static alpha"))
                .seed(2012)
                .store_paths(false)
                .build(&graph)
        });
        println!(
            "# alpha={alpha}: {} nodes / {} edges, index built in {build_time:.1?}",
            graph.node_count(),
            graph.edge_count()
        );
        println!(
            "{:<10} {:>7} {:>12} {:>10} {:>10} {:>9}",
            "engine", "batch", "throughput", "p50", "p99", "speedup"
        );

        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let pairs = random_pairs(&graph, queries, &mut rng);
        // Warm the allocator and branch predictors once; the index itself
        // (far larger than cache at full scale) stays naturally cold-ish
        // for both engines since the workload sweep touches it randomly.
        for &(s, t) in pairs.iter().take(200) {
            std::hint::black_box(oracle.distance(s, t));
        }

        let scalar = measure(&oracle, &pairs, 1, false);
        print_row("scalar", 1, &scalar, None);
        let (merges, probes) = (
            scalar.stats.merge_intersections,
            scalar.stats.probe_intersections,
        );
        if merges == 0 || probes == 0 {
            eprintln!(
                "FAIL: alpha={alpha}: a strategy never fired ({merges} merge, {probes} probe)"
            );
            failures += 1;
        }
        let walks = scalar
            .answers
            .iter()
            .filter(|a| a.method() == Some(AnswerMethod::LandmarkWalk))
            .count();
        if walks == 0 {
            eprintln!("FAIL: alpha={alpha}: no pair was answered by the landmark walk");
            failures += 1;
        }
        json_rows.push(json_row(
            &graph_label,
            nodes,
            alpha,
            "scalar",
            1,
            &scalar,
            None,
        ));

        for &batch in &BATCH_SIZES {
            let batched = measure(&oracle, &pairs, batch, true);
            let speedup = batched.qps / scalar.qps.max(1e-9);
            print_row("batched", batch, &batched, Some(speedup));
            json_rows.push(json_row(
                &graph_label,
                nodes,
                alpha,
                "batched",
                batch,
                &batched,
                Some(speedup),
            ));

            if batched.answers != scalar.answers {
                eprintln!("FAIL: alpha={alpha} batch={batch}: batched answers differ from scalar");
                failures += 1;
            }
            if batched.stats != scalar.stats {
                eprintln!(
                    "FAIL: alpha={alpha} batch={batch}: batched QueryStats differ from scalar \
                     ({:?} vs {:?})",
                    batched.stats, scalar.stats
                );
                failures += 1;
            }
            if !smoke && alpha == 4.0 && batch >= 64 && speedup < SPEEDUP_GATE {
                eprintln!(
                    "FAIL: alpha=4 batch={batch}: speedup {speedup:.2}x below the \
                     {SPEEDUP_GATE}x gate"
                );
                failures += 1;
            }
        }
        println!();
    }

    // Smoke runs are correctness gates on a toy graph; only full runs
    // update the tracked perf numbers (the checked-in BENCH_query.json
    // must always hold 100k-node measurements).
    if !smoke {
        let path = bench_json_path();
        let payload = format!("[\n    {}\n  ]", json_rows.join(",\n    "));
        match write_bench_section(&path, "query_batch", &payload) {
            Ok(()) => println!("wrote query_batch section to {}", path.display()),
            Err(e) => {
                eprintln!("FAIL: could not write {}: {e}", path.display());
                failures += 1;
            }
        }
    }

    if failures > 0 {
        eprintln!("query_batch: {failures} check(s) FAILED");
        std::process::exit(1);
    }
    println!("query_batch: all checks passed");
}

/// Run the workload through one engine configuration. `batch == 1` with
/// `batched == false` is the scalar baseline (per-pair calls); otherwise
/// pairs are fed to `distance_batch_accumulate` in `batch`-sized chunks.
/// Latency samples are chunk wall time divided over the chunk, so scalar
/// samples are true per-query latencies and batched samples are the
/// batch-amortised figure a serving layer would observe.
fn measure(
    oracle: &VicinityOracle,
    pairs: &[(NodeId, NodeId)],
    batch: usize,
    batched: bool,
) -> RunMeasurement {
    // Priming pass, untimed: run the identical workload once so every
    // configuration is measured at the same steady-state cache warmth —
    // otherwise whichever engine runs first pays the cold lines and the
    // comparison becomes an artifact of run order.
    {
        let mut answers: Vec<DistanceAnswer> = Vec::with_capacity(pairs.len());
        let mut stats = QueryStats::default();
        if batched {
            for chunk in pairs.chunks(batch) {
                oracle.distance_batch_accumulate(chunk, &mut answers, &mut stats);
            }
        } else {
            for &(s, t) in pairs {
                answers.push(oracle.distance_accumulate(s, t, &mut stats));
            }
        }
        std::hint::black_box(&answers);
    }

    let mut answers: Vec<DistanceAnswer> = Vec::with_capacity(pairs.len());
    let mut stats = QueryStats::default();
    let mut samples: Vec<Duration> = Vec::with_capacity(pairs.len() / batch + 1);
    let started = Instant::now();
    if batched {
        for chunk in pairs.chunks(batch) {
            let chunk_start = Instant::now();
            oracle.distance_batch_accumulate(chunk, &mut answers, &mut stats);
            samples.push(chunk_start.elapsed() / chunk.len() as u32);
        }
    } else {
        for &(s, t) in pairs {
            let chunk_start = Instant::now();
            answers.push(oracle.distance_accumulate(s, t, &mut stats));
            samples.push(chunk_start.elapsed());
        }
    }
    let total = started.elapsed();
    RunMeasurement {
        answers,
        stats,
        p50_us: percentile_ms(&samples, 50.0) * 1e3,
        p99_us: percentile_ms(&samples, 99.0) * 1e3,
        qps: pairs.len() as f64 / total.as_secs_f64().max(1e-12),
    }
}

fn print_row(engine: &str, batch: usize, m: &RunMeasurement, speedup: Option<f64>) {
    println!(
        "{engine:<10} {batch:>7} {:>9.0}q/s {:>8.2}us {:>8.2}us {:>9}",
        m.qps,
        m.p50_us,
        m.p99_us,
        speedup.map_or_else(|| "-".to_string(), |s| format!("{s:.2}x")),
    );
}

#[allow(clippy::too_many_arguments)]
fn json_row(
    graph: &str,
    nodes: usize,
    alpha: f64,
    mode: &str,
    batch: usize,
    m: &RunMeasurement,
    speedup: Option<f64>,
) -> String {
    let mut row = format!(
        "{{\"graph\": \"{graph}\", \"nodes\": {nodes}, \"alpha\": {alpha}, \
         \"mode\": \"{mode}\", \"batch\": {batch}, \"p50_us\": {:.3}, \
         \"p99_us\": {:.3}, \"qps\": {:.0}",
        m.p50_us, m.p99_us, m.qps
    );
    if let Some(s) = speedup {
        let _ = write!(row, ", \"speedup_vs_scalar\": {s:.3}");
    }
    row.push('}');
    row
}
