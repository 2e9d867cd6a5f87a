//! Flat-store layout experiment: the arena-backed vicinity store against
//! the modeled cost of the retired per-node layout.
//!
//! Builds the α = 4 oracle over a generated social graph (100k nodes by
//! default, a small graph with `--smoke`) and reports:
//!
//! * index memory — the flat store's exact bytes (`memory.rs` accounting)
//!   against the modeled cost of the retired one-`NodeVicinity`-per-node
//!   layout;
//! * snapshot (format v4) size, encode time and cold-process load time;
//! * p50/p99 single-thread query latency over random pairs.
//!
//! The binary doubles as a correctness gate: it exits non-zero if decoding
//! a freshly encoded snapshot does not reproduce the oracle, or if the flat
//! store costs more memory than the per-node model. With `--smoke` it also
//! builds the index on one and on two workers and checks every landmark's
//! full row against a plain BFS from that landmark, an independent
//! reference for the builder's bit-parallel searches. CI runs
//! `store_layout -- --smoke` so neither the binary, the snapshot decode
//! path nor the landmark rows can bit-rot.

use std::time::{Duration, Instant};

use rand::SeedableRng;
use vicinity_bench::{percentile_ms, timed};
use vicinity_core::config::Alpha;
use vicinity_core::memory::MemoryReport;
use vicinity_core::{serialize, OracleBuilder, VicinityOracle};
use vicinity_graph::algo::bfs::bfs_distances;
use vicinity_graph::algo::sampling::random_pairs;
use vicinity_graph::csr::CsrGraph;
use vicinity_graph::generators::social::SocialGraphConfig;
use vicinity_graph::{NodeId, INFINITY};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    // Hidden child mode: `--measure-decode <file>` decodes the snapshot
    // once in a fresh process and prints the nanoseconds. Cold-process
    // timing is the honest definition of snapshot load time: it includes
    // every first-touch allocation the load causes.
    if let Some(i) = args.iter().position(|a| a == "--measure-decode") {
        measure_decode_child(&args[i + 1]);
        return;
    }

    let smoke = args.iter().any(|a| a == "--smoke");
    let nodes = if smoke { 4_000 } else { 100_000 };
    let query_pairs = if smoke { 2_000 } else { 20_000 };

    println!("=== Store layout: per-node vs flat vicinity storage ===");
    println!(
        "mode={} nodes={nodes} alpha={} seed=2012",
        if smoke { "smoke" } else { "full" },
        Alpha::PAPER_DEFAULT.value()
    );
    println!();

    let graph = SocialGraphConfig::default()
        .with_nodes(nodes)
        .generate(2012);
    let (oracle, build_time) = timed(|| {
        OracleBuilder::new(Alpha::PAPER_DEFAULT)
            .seed(2012)
            .build(&graph)
    });
    eprintln!(
        "  built oracle over {} nodes / {} edges in {build_time:.1?}",
        graph.node_count(),
        graph.edge_count()
    );

    let mut failures = 0u32;

    // ------------------------------------------------------------------
    // Landmark rows against an independent BFS (smoke only: one BFS per
    // landmark over the whole graph).
    if smoke {
        println!("-- landmark rows vs BFS --");
        for threads in [1, 2] {
            let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT)
                .seed(2012)
                .threads(threads)
                .build(&graph);
            let mismatches = check_landmark_rows(&graph, &oracle);
            println!(
                "threads={threads}  {} landmarks x {} nodes, {mismatches} mismatched rows",
                oracle.landmarks().len(),
                graph.node_count()
            );
            failures += mismatches;
        }
        println!();
    }

    // ------------------------------------------------------------------
    // Memory: flat store (exact) vs per-node layout (model).
    let report = MemoryReport::measure(&oracle);
    let ratio = report.per_node_layout_bytes as f64 / report.vicinity_bytes.max(1) as f64;
    println!("-- index memory --");
    println!(
        "vicinity entries          {:>14}  ({:.1} per node)",
        report.vicinity_entries, report.entries_per_node
    );
    println!(
        "flat store bytes          {:>14}  ({:.1} MiB)",
        report.vicinity_bytes,
        report.vicinity_bytes as f64 / (1 << 20) as f64
    );
    println!(
        "per-node layout bytes     {:>14}  ({:.1} MiB, modeled)",
        report.per_node_layout_bytes,
        report.per_node_layout_bytes as f64 / (1 << 20) as f64
    );
    println!("per-node / flat           {ratio:>14.2}x");
    if report.vicinity_bytes > report.per_node_layout_bytes {
        eprintln!("FAIL: flat store costs more than the per-node layout");
        failures += 1;
    }

    // ------------------------------------------------------------------
    // Snapshot encode/decode (format v4). The measured encode runs on a
    // warm heap (one unmeasured pass first, result dropped), so it captures
    // the codec rather than first-touch page faults on fresh allocations.
    println!();
    println!("-- snapshot format --");
    drop(serialize::encode(&oracle));
    let (bytes, encode_time) = timed(|| serialize::encode(&oracle));
    failures += check_roundtrip(&oracle, &serialize::decode(&bytes).expect("decode"));

    // Load time, taken in fresh child processes (see
    // `measure_decode_child`): a snapshot load happens at process start, on
    // a cold heap, so first-touch allocation cost is part of the
    // measurement. Best of N children.
    let dir = std::env::temp_dir().join("vicinity_store_layout");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("oracle.vor");
    std::fs::write(&path, &bytes).expect("write snapshot");
    let rounds = if smoke { 1 } else { 3 };
    let load_time = cold_decode_time(&path, rounds);
    std::fs::remove_file(&path).ok();
    println!(
        "v4 (flat sections) {:>10.1} MiB  encode {encode_time:>9.1?}  cold load {load_time:>9.1?}",
        bytes.len() as f64 / (1 << 20) as f64
    );

    // ------------------------------------------------------------------
    // Query latency on the flat store.
    println!();
    println!("-- query latency (single thread, index-only) --");
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let pairs = random_pairs(&graph, query_pairs, &mut rng);
    // Warm up once so the first measured query is not paying cold caches.
    for &(s, t) in pairs.iter().take(200) {
        std::hint::black_box(oracle.distance(s, t));
    }
    let mut samples: Vec<Duration> = Vec::with_capacity(pairs.len());
    let mut answered = 0usize;
    for &(s, t) in &pairs {
        let started = Instant::now();
        let answer = oracle.distance(s, t);
        samples.push(started.elapsed());
        if answer.is_answered() || answer.is_unreachable() {
            answered += 1;
        }
    }
    println!(
        "pairs                     {:>14}  (answered by index: {:.1}%)",
        pairs.len(),
        100.0 * answered as f64 / pairs.len() as f64
    );
    println!(
        "p50 latency               {:>14.1} us",
        percentile_ms(&samples, 50.0) * 1e3
    );
    println!(
        "p99 latency               {:>14.1} us",
        percentile_ms(&samples, 99.0) * 1e3
    );

    println!();
    if failures > 0 {
        eprintln!("store_layout: {failures} check(s) FAILED");
        std::process::exit(1);
    }
    println!("store_layout: all checks passed");
}

/// Child-process entry for `--measure-decode`: read the snapshot, decode
/// it once on this process's cold heap, print the elapsed nanoseconds.
fn measure_decode_child(path: &str) {
    let data = std::fs::read(path).expect("read snapshot file");
    let (decoded, elapsed) = timed(|| serialize::decode(&data).expect("decode"));
    std::hint::black_box(&decoded);
    println!("{}", elapsed.as_nanos());
}

/// Spawn `rounds` fresh child processes decoding `path` and return the
/// fastest run.
fn cold_decode_time(path: &std::path::Path, rounds: usize) -> Duration {
    let exe = std::env::current_exe().expect("current exe");
    let mut best: Option<Duration> = None;
    for _ in 0..rounds.max(1) {
        let output = std::process::Command::new(&exe)
            .arg("--measure-decode")
            .arg(path)
            .output()
            .expect("spawn decode child");
        assert!(
            output.status.success(),
            "decode child failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        let nanos: u64 = String::from_utf8_lossy(&output.stdout)
            .trim()
            .parse()
            .expect("child printed nanoseconds");
        let elapsed = Duration::from_nanos(nanos);
        best = Some(best.map_or(elapsed, |b| b.min(elapsed)));
    }
    best.expect("at least one round")
}

/// The number of landmark rows that differ from a single-source BFS from
/// their landmark, entry by entry (`None` where BFS never arrives).
fn check_landmark_rows(graph: &CsrGraph, oracle: &VicinityOracle) -> u32 {
    let mut mismatches = 0;
    for &l in oracle.landmarks().nodes() {
        let row = oracle.landmark_row(l).expect("a landmark has a row");
        let wrong = bfs_distances(graph, l)
            .into_iter()
            .enumerate()
            .find(|&(v, d)| row.distance_to(v as NodeId) != (d != INFINITY).then_some(d));
        if let Some((v, d)) = wrong {
            eprintln!(
                "FAIL: landmark {l}'s row holds {:?} for node {v}, BFS says {d}",
                row.distance_to(v as NodeId)
            );
            mismatches += 1;
        }
    }
    mismatches
}

/// Exact-equality gate between the in-memory oracle and a decoded snapshot,
/// plus a spot check that both answer identically.
fn check_roundtrip(original: &VicinityOracle, decoded: &VicinityOracle) -> u32 {
    if original != decoded {
        eprintln!("FAIL: v4 decode does not reproduce the oracle");
        return 1;
    }
    let n = original.node_count() as u32;
    for probe in 0..200u32 {
        let (s, t) = (probe * 131 % n, probe * 977 % n);
        if original.distance(s, t) != decoded.distance(s, t) {
            eprintln!("FAIL: v4 decoded oracle answers ({s},{t}) differently");
            return 1;
        }
    }
    0
}
