//! Dynamic-update churn experiment: interleaved edge updates and batched
//! queries against an updatable [`QueryService`].
//!
//! Builds the 100k-node social stand-in (4k with `--smoke`), wraps it in
//! `QueryService::build_updatable`, and drives an update stream — removals
//! of sampled real edges, re-insertions, plus insert/remove churn of novel
//! edges — through the [`OracleWriter`](vicinity_server::OracleWriter) while batched queries are served
//! between updates. Reports per-update latency percentiles (insert and
//! remove separately), the mean time per update of each writer phase
//! (`UpdateProfile`'s labels, rows, cluster and rebuild, plus the publish
//! remainder), over all updates and split by operation (insert, remove),
//! with the rows repaired per update, compaction counts, and
//! post-churn batched query throughput against the frozen pre-churn
//! oracle, the two timed alternately ([`QPS_PASSES`] passes each).
//!
//! The binary doubles as a correctness gate and exits non-zero when:
//!
//! * any served answer after churn disagrees with reference BFS on the
//!   mutated graph (fallback enabled ⇒ every pair must resolve exactly) —
//!   checked in every mode, and what CI's `update_churn --smoke` enforces;
//! * in `--smoke` mode, the oracle differs from a from-scratch rebuild
//!   with the same pinned landmark set: in any node's vicinity (its
//!   `(radius, nearest landmark)` header and every section), or in the
//!   checked pairs' answers (including misses and methods). This is
//!   checked twice: once mid-stream, right after the middle update (an odd
//!   count, so the stream stands inside an update/inverse cycle and the
//!   overlay is not empty — the check fails if it is), and once after the
//!   churn, whose whole cycles leave the graph and an empty overlay as
//!   they found them;
//! * in full mode, the median single-edge update exceeds 1 ms — the
//!   headline claim of the dynamic overlay (vs a full rebuild) — or the
//!   median ratio of post-churn to frozen batched throughput, over the
//!   alternating pass pairs, falls below 0.75.
//!
//! Full-mode results are written as the `update_churn` section of
//! `BENCH_query.json` (path overridable via `VICINITY_BENCH_JSON`).
//! Honours `VICINITY_CHURN_UPDATES` (update count, default 2000 / 200
//! smoke).

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::{Rng, SeedableRng};
use vicinity_bench::bench_json::{bench_json_path, write_bench_section};
use vicinity_bench::{percentile_ms, timed};
use vicinity_core::config::Alpha;
use vicinity_core::dynamic::DynamicOracle;
use vicinity_core::query::QueryIndex;
use vicinity_core::OracleBuilder;
use vicinity_graph::algo::sampling::random_pairs;
use vicinity_graph::generators::social::SocialGraphConfig;
use vicinity_graph::NodeId;
use vicinity_server::QueryService;

/// Timed batched passes over the query pairs, per side, after the churn:
/// frozen and post-churn passes alternate, so host noise lands on both.
const QPS_PASSES: usize = 5;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let nodes = if smoke { 4_000 } else { 100_000 };
    let updates: usize = std::env::var("VICINITY_CHURN_UPDATES")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(if smoke { 200 } else { 2_000 });
    let alpha = 4.0;

    println!("=== Dynamic edge-update churn: delta-overlay oracle under load ===");
    println!(
        "mode={} nodes={nodes} alpha={alpha} updates={updates} seed=2012",
        if smoke { "smoke" } else { "full" },
    );
    println!();

    let graph = SocialGraphConfig::default()
        .with_nodes(nodes)
        .generate(2012);
    let (oracle, build_time) = timed(|| {
        OracleBuilder::new(Alpha::new(alpha).expect("static alpha"))
            .seed(2012)
            .store_paths(false)
            .build(&graph)
    });
    let landmarks = oracle.landmarks().nodes().to_vec();
    println!(
        "index: {} nodes / {} edges, built in {build_time:.1?} (the cost one update amortises away)",
        graph.node_count(),
        graph.edge_count()
    );

    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let query_pairs = random_pairs(&graph, if smoke { 4_000 } else { 20_000 }, &mut rng);

    // The pre-churn oracle stays shared with the service, so the frozen
    // passes after the churn read the index the churn started from.
    let frozen = Arc::new(oracle);
    let (service, mut writer) =
        QueryService::builder_from_arcs(Arc::clone(&frozen), Arc::new(graph.clone()))
            .cache_capacity(65_536)
            .build_updatable()
            .expect("oracle and graph agree");

    // Update stream: alternate removing a sampled real edge with
    // re-inserting it, interleaved with novel-edge insert/remove churn and
    // a served query batch every few updates.
    let stride = (graph.edge_count() / (updates / 2 + 1)).max(1);
    let real_edges: Vec<(NodeId, NodeId)> = graph.edges().step_by(stride).collect();
    let mut novel_rng = rand::rngs::StdRng::seed_from_u64(2013);
    let n = graph.node_count() as NodeId;

    let mut insert_samples: Vec<Duration> = Vec::with_capacity(updates / 2 + 1);
    let mut remove_samples: Vec<Duration> = Vec::with_capacity(updates / 2 + 1);
    // labels, rows, cluster, rebuild, publish (ns), per operation (insert,
    // remove); publish is the writer call minus the profiled phases.
    let mut phase_totals = [[0u64; 5]; 2];
    let mut rows_repaired_total = 0u64;
    let mut vicinities_rebuilt_total = 0u64;
    let mut applied = 0usize;
    let mut edge_cursor = 0usize;
    let mut pending_reinsert: Option<(NodeId, NodeId)> = None;
    let mut pending_remove_novel: Option<(NodeId, NodeId)> = None;
    let mut failures = 0u32;
    // The smoke run's mid-stream rebuild check follows this many updates:
    // odd, so it lands inside an update/inverse cycle.
    let checkpoint = (updates / 2) | 1;

    while applied < updates {
        // One churn step: remove real edge → re-insert it → insert novel →
        // remove novel, each individually timed through the writer (the
        // timing therefore includes snapshot publication).
        let op = applied % 4;
        let (pair, insert) = match op {
            0 => {
                let pair = real_edges[edge_cursor % real_edges.len()];
                edge_cursor += 1;
                pending_reinsert = Some(pair);
                (pair, false)
            }
            1 => (pending_reinsert.take().expect("op 0 precedes"), true),
            2 => {
                let pair = loop {
                    let u = novel_rng.gen_range(0..n);
                    let v = novel_rng.gen_range(0..n);
                    if u != v && !writer.oracle().graph().has_edge(u, v) {
                        break (u, v);
                    }
                };
                pending_remove_novel = Some(pair);
                (pair, true)
            }
            _ => (pending_remove_novel.take().expect("op 2 precedes"), false),
        };
        let start = Instant::now();
        let ok = if insert {
            writer.insert_edge(pair.0, pair.1)
        } else {
            writer.remove_edge(pair.0, pair.1)
        };
        let elapsed = start.elapsed();
        match ok {
            Ok(true) => {
                if insert {
                    insert_samples.push(elapsed);
                } else {
                    remove_samples.push(elapsed);
                }
                let profile = writer.oracle().last_update_profile();
                let phases = [
                    profile.labels_ns,
                    profile.rows_ns,
                    profile.cluster_ns,
                    profile.rebuild_ns,
                ];
                let publish = (elapsed.as_nanos() as u64).saturating_sub(phases.iter().sum());
                let totals = &mut phase_totals[usize::from(!insert)];
                for (total, ns) in totals.iter_mut().zip(phases.into_iter().chain([publish])) {
                    *total += ns;
                }
                rows_repaired_total += u64::from(profile.rows_repaired);
                vicinities_rebuilt_total += u64::from(profile.affected_vicinities);
                applied += 1;
                if smoke && applied == checkpoint {
                    let oracle = writer.oracle();
                    let overlay = oracle.overlay_len() + oracle.row_patch_entries();
                    println!("mid-stream check after {applied} updates: overlay {overlay} entries");
                    if overlay == 0 {
                        eprintln!("FAIL: the mid-stream check would compare an empty overlay");
                        failures += 1;
                    }
                    let mut mid_rng = rand::rngs::StdRng::seed_from_u64(13);
                    let pairs = random_pairs(&oracle.graph().to_csr(), 300, &mut mid_rng);
                    failures += rebuild_mismatches(oracle, alpha, &landmarks, &pairs);
                }
            }
            Ok(false) => {}
            Err(e) => {
                eprintln!("FAIL: update ({}, {}) errored: {e}", pair.0, pair.1);
                failures += 1;
                break;
            }
        }
        // Interleave serving so updates land under live read traffic.
        if applied.is_multiple_of(8) {
            let base = (applied * 37) % query_pairs.len().saturating_sub(64).max(1);
            let _ = service.serve_batch(&query_pairs[base..(base + 64).min(query_pairs.len())]);
        }
    }
    assert_eq!(service.epoch_id(), writer.version());

    let all_samples: Vec<Duration> = insert_samples
        .iter()
        .chain(remove_samples.iter())
        .copied()
        .collect();
    let update_p50_us = percentile_ms(&all_samples, 50.0) * 1e3;
    let update_p99_us = percentile_ms(&all_samples, 99.0) * 1e3;
    println!();
    println!("{:<10} {:>8} {:>10} {:>10}", "op", "applied", "p50", "p99");
    for (label, samples) in [("insert", &insert_samples), ("remove", &remove_samples)] {
        println!(
            "{label:<10} {:>8} {:>8.1}us {:>8.1}us",
            samples.len(),
            percentile_ms(samples, 50.0) * 1e3,
            percentile_ms(samples, 99.0) * 1e3,
        );
    }
    println!(
        "{:<10} {:>8} {update_p50_us:>8.1}us {update_p99_us:>8.1}us   (compactions: {}, overlay: {} entries)",
        "all",
        all_samples.len(),
        writer.oracle().compactions(),
        writer.oracle().overlay_len(),
    );
    let per_update = |total: u64| total as f64 / applied.max(1) as f64;
    let rows_repaired = per_update(rows_repaired_total);
    let vicinities_rebuilt = per_update(vicinities_rebuilt_total);
    // Mean µs per update of each phase: over all updates, then over each
    // operation's own updates.
    let mean_us =
        |totals: [u64; 5], count: usize| totals.map(|ns| ns as f64 / count.max(1) as f64 / 1e3);
    let phase_us = mean_us(
        std::array::from_fn(|i| phase_totals[0][i] + phase_totals[1][i]),
        applied,
    );
    let insert_phase_us = mean_us(phase_totals[0], insert_samples.len());
    let remove_phase_us = mean_us(phase_totals[1], remove_samples.len());
    for (label, us) in [
        ("all", phase_us),
        ("insert", insert_phase_us),
        ("remove", remove_phase_us),
    ] {
        println!(
            "mean per update ({label}): labels {:.1}us rows {:.1}us clusters {:.1}us \
             rebuild {:.1}us publish {:.1}us",
            us[0], us[1], us[2], us[3], us[4]
        );
    }
    println!(
        "({rows_repaired:.1} rows repaired, {vicinities_rebuilt:.1} vicinities rebuilt per update)"
    );

    // Batched throughput: the frozen pre-churn oracle against the
    // post-churn dynamic oracle (overlay resident), same workload, timed
    // in alternating passes; the gate reads the median per-pair ratio.
    let mut frozen_runs = Vec::with_capacity(QPS_PASSES);
    let mut dynamic_runs = Vec::with_capacity(QPS_PASSES);
    let mut ratios = Vec::with_capacity(QPS_PASSES);
    for _ in 0..QPS_PASSES {
        let frozen_qps = batched_qps(
            |pairs, out| {
                let mut stats = vicinity_core::query::QueryStats::default();
                frozen.distance_batch_accumulate(pairs, out, &mut stats);
            },
            &query_pairs,
        );
        let dynamic_qps = batched_qps(
            |pairs, out| {
                let mut stats = vicinity_core::query::QueryStats::default();
                writer
                    .oracle()
                    .distance_batch_accumulate(pairs, out, &mut stats);
            },
            &query_pairs,
        );
        frozen_runs.push(frozen_qps);
        dynamic_runs.push(dynamic_qps);
        ratios.push(dynamic_qps / frozen_qps.max(1e-9));
    }
    let (frozen_qps, dynamic_qps, ratio) =
        (median(frozen_runs), median(dynamic_runs), median(ratios));
    println!();
    println!(
        "batched query throughput, median of {QPS_PASSES} alternating passes: frozen \
         {frozen_qps:>9.0} q/s -> post-churn overlay {dynamic_qps:>9.0} q/s ({ratio:.2}x median ratio)"
    );

    // Correctness gate: every served answer on the mutated graph must
    // match reference BFS (fallback on ⇒ nothing may go unanswered).
    let mutated = writer.oracle().graph().to_csr();
    let mut check_rng = rand::rngs::StdRng::seed_from_u64(11);
    let check_pairs = random_pairs(&mutated, if smoke { 300 } else { 120 }, &mut check_rng);
    let answers = service.serve_batch(&check_pairs);
    let mut bfs = vicinity_baselines::bfs::BfsEngine::new(&mutated);
    use vicinity_baselines::PointToPoint;
    for (&(s, t), answer) in check_pairs.iter().zip(&answers) {
        if answer.distance() != bfs.distance(s, t) {
            eprintln!(
                "FAIL: served ({s},{t}) = {:?}, BFS says {:?}",
                answer.distance(),
                bfs.distance(s, t)
            );
            failures += 1;
        }
    }

    // Smoke: pin every node's vicinity, header included, and full answer
    // equality (misses and methods included) against a pinned-landmark
    // rebuild on the mutated graph.
    if smoke {
        failures += rebuild_mismatches(writer.oracle(), alpha, &landmarks, &check_pairs);
    }

    if !smoke {
        if update_p50_us >= 1_000.0 {
            eprintln!(
                "FAIL: median update {update_p50_us:.1}us breaches the 1 ms target \
                 (full rebuild: {build_time:.1?})"
            );
            failures += 1;
        }
        if ratio < 0.75 {
            eprintln!("FAIL: median post-churn throughput ratio {ratio:.2}x below the 0.75x floor");
            failures += 1;
        }
        let path = bench_json_path();
        let payload = format!(
            "[\n    {{\"graph\": \"social-{nodes}\", \"nodes\": {nodes}, \"alpha\": {alpha}, \
             \"updates\": {}, \"insert_p50_us\": {:.1}, \"insert_p99_us\": {:.1}, \
             \"remove_p50_us\": {:.1}, \"remove_p99_us\": {:.1}, \"update_p50_us\": {update_p50_us:.1}, \
             \"update_p99_us\": {update_p99_us:.1}, \"compactions\": {}, \
             \"frozen_qps\": {frozen_qps:.0}, \"post_churn_qps\": {dynamic_qps:.0}, \
             \"qps_ratio\": {ratio:.3}, \"full_rebuild_s\": {:.1}, \"labels_us\": {:.1}, \
             \"rows_us\": {:.1}, \"cluster_us\": {:.1}, \"rebuild_us\": {:.1}, \"publish_us\": {:.1}, \
             \"rows_repaired_per_update\": {rows_repaired:.3}, \
             \"vicinities_rebuilt_per_update\": {vicinities_rebuilt:.3}, \
             \"insert_phase_us\": {}, \"remove_phase_us\": {}}}\n  ]",
            all_samples.len(),
            percentile_ms(&insert_samples, 50.0) * 1e3,
            percentile_ms(&insert_samples, 99.0) * 1e3,
            percentile_ms(&remove_samples, 50.0) * 1e3,
            percentile_ms(&remove_samples, 99.0) * 1e3,
            writer.oracle().compactions(),
            build_time.as_secs_f64(),
            phase_us[0],
            phase_us[1],
            phase_us[2],
            phase_us[3],
            phase_us[4],
            phase_json(&insert_phase_us),
            phase_json(&remove_phase_us),
        );
        match write_bench_section(&path, "update_churn", &payload) {
            Ok(()) => println!("wrote update_churn section to {}", path.display()),
            Err(e) => {
                eprintln!("FAIL: could not write {}: {e}", path.display());
                failures += 1;
            }
        }
    }

    if failures > 0 {
        eprintln!("update_churn: {failures} check(s) FAILED");
        std::process::exit(1);
    }
    println!("update_churn: all checks passed");
}

/// Compare `oracle` against a from-scratch rebuild of its current graph
/// with the same landmarks: every node's vicinity, header included, and
/// the answers to `pairs` (misses and methods included). Prints each
/// mismatch and returns their count.
fn rebuild_mismatches(
    oracle: &DynamicOracle,
    alpha: f64,
    landmarks: &[NodeId],
    pairs: &[(NodeId, NodeId)],
) -> u32 {
    let graph = oracle.graph().to_csr();
    let rebuilt = OracleBuilder::new(Alpha::new(alpha).expect("static alpha"))
        .seed(2012)
        .store_paths(false)
        .landmarks(landmarks.to_vec())
        .build(&graph);
    let mut failures = 0;
    for u in 0..graph.node_count() as NodeId {
        let (dynamic_vicinity, rebuilt_vicinity) = (oracle.vicinity_of(u), rebuilt.vicinity(u));
        if dynamic_vicinity != rebuilt_vicinity {
            let header = |v: Option<vicinity_core::VicinityRef<'_>>| {
                v.map(|v| (v.radius(), v.nearest_landmark(), v.len()))
            };
            eprintln!(
                "FAIL: overlay vicinity of {u} (radius, nearest, members) = {:?}, \
                 rebuild says {:?}",
                header(dynamic_vicinity),
                header(rebuilt_vicinity)
            );
            failures += 1;
        }
    }
    for &(s, t) in pairs {
        let (dynamic_answer, rebuilt_answer) = (oracle.distance(s, t), rebuilt.distance(s, t));
        if dynamic_answer != rebuilt_answer {
            eprintln!(
                "FAIL: overlay ({s},{t}) = {dynamic_answer:?}, rebuild says {rebuilt_answer:?}"
            );
            failures += 1;
        }
    }
    failures
}

/// Mean µs per phase as a JSON object, keyed as in the flat fields.
fn phase_json(us: &[f64; 5]) -> String {
    format!(
        "{{\"labels_us\": {:.1}, \"rows_us\": {:.1}, \"cluster_us\": {:.1}, \
         \"rebuild_us\": {:.1}, \"publish_us\": {:.1}}}",
        us[0], us[1], us[2], us[3], us[4]
    )
}

/// The median of `values` (the upper one of an even count).
fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// Steady-state batched throughput of `run` over `pairs` in 64-pair
/// blocks: one untimed priming pass, then one timed pass.
fn batched_qps(
    mut run: impl FnMut(&[(NodeId, NodeId)], &mut Vec<vicinity_core::query::DistanceAnswer>),
    pairs: &[(NodeId, NodeId)],
) -> f64 {
    let mut out = Vec::with_capacity(pairs.len());
    for chunk in pairs.chunks(64) {
        run(chunk, &mut out);
    }
    std::hint::black_box(&out);
    out.clear();
    let started = Instant::now();
    for chunk in pairs.chunks(64) {
        run(chunk, &mut out);
    }
    let elapsed = started.elapsed();
    std::hint::black_box(&out);
    pairs.len() as f64 / elapsed.as_secs_f64().max(1e-12)
}
