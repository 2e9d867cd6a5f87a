//! One benchmark run: set up, warm up, drive the service from one
//! closed-loop thread for the measured phase, check answers, and (traced)
//! replay every call layer by layer.

use std::sync::Arc;
use std::time::Instant;

use vicinity_baselines::bfs::BfsEngine;
use vicinity_baselines::PointToPoint;
use vicinity_core::dynamic::UpdateProfile;
use vicinity_core::memory::MemoryReport;
use vicinity_graph::csr::CsrGraph;
use vicinity_graph::NodeId;
use vicinity_server::{OracleWriter, ServedAnswer, ServedMethod, ServerStats};

use crate::machine::{thread_cpu_ns, CpuTimes, Machine};
use crate::replay::{Replayer, SpanSink, View};
use crate::setup::{self, SetupTimes};
use crate::trace::{Layer, LayerTotals, Tracer, NO_PARENT};
use crate::workload::{CheckPicker, PairSource, Update, UpdateStream, Workload};

/// Updates of the write phase of the workloads that do not interleave
/// updates with their calls: ten samples beyond p99.
pub const WRITE_PHASE_UPDATES: usize = 1_000;

/// The write phase runs in this many slices, spread evenly over the
/// measured phase between calls (one every 1.5 s of a 30 s run). In one
/// block after the reads, its ~1 s of samples caught whatever speed the
/// machine had in that second, and its median moved by more than the bound
/// between runs of the same code.
pub const WRITE_SLICES: usize = 20;

/// Seed of the write phase's update stream. It is fixed, unlike the churn
/// workload's: update costs are heavy-tailed, and a fresh draw of 1,000
/// updates per seed moved the write phase's median by more than the bound
/// between runs of the same code, so the write phase measures the same
/// updates every run.
pub const WRITE_PHASE_SEED: u64 = 0x3A17_E5EE;

/// What one run does.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The traffic mix.
    pub workload: Workload,
    /// Seed of the query pairs and the update stream.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Replay and time every call layer by layer.
    pub trace: bool,
    /// Nodes of the graph.
    pub nodes: usize,
    /// Set-ups per run (the median is reported, the last one serves).
    pub setup_repeats: usize,
    /// Warm-up calls.
    pub warmup_calls: usize,
    /// Calls whose work counts a traced run reports; every run makes at
    /// least this many.
    pub count_window: usize,
    /// Updates in the write phase of the read workloads.
    pub write_phase_updates: usize,
}

impl RunConfig {
    /// The benchmark's configuration for `workload`.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Self {
        RunConfig {
            workload,
            seed,
            seconds,
            trace,
            nodes: setup::GRAPH_NODES,
            setup_repeats: setup::SETUP_REPEATS,
            warmup_calls: workload.warmup_calls(),
            count_window: workload.count_window(),
            write_phase_updates: WRITE_PHASE_UPDATES,
        }
    }
}

/// End-to-end figures of a run. Times are on the load thread's CPU clock
/// (`machine::thread_cpu_ns`); `wall` holds the same figures on the wall
/// clock.
#[derive(Debug, Clone, Default)]
pub struct EndToEnd {
    /// Queries answered per second of CPU time inside `serve_batch`.
    pub qps: f64,
    /// Median latency of one `serve_batch` call, µs.
    pub call_p50_us: f64,
    /// 90th-percentile latency of one call, µs.
    pub call_p90_us: f64,
    /// 99th-percentile latency of one call, µs.
    pub call_p99_us: f64,
    /// Median latency of one writer update, µs.
    pub update_p50_us: f64,
    /// 90th-percentile latency of one writer update, µs.
    pub update_p90_us: f64,
    /// 99th-percentile latency of one writer update, µs.
    pub update_p99_us: f64,
    /// Size of the served index, MiB.
    pub index_mib: f64,
    /// Median set-up time, s.
    pub setup_s: f64,
    /// Share of attempted operations that failed, %.
    pub failed_pct: f64,
    /// Calls measured.
    pub calls: usize,
    /// Updates measured.
    pub updates: usize,
    /// `qps`, `call_p50_us`, `call_p90_us`, `update_p50_us` and
    /// `update_p90_us` on the wall clock, which counts steal.
    pub wall: [f64; 5],
}

/// Exact work counts over the count window; they repeat for a seed.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkCounts {
    /// Served answers by method.
    pub methods: Vec<(&'static str, u64)>,
    /// Counts of the window, with the replay's times, which do not repeat.
    pub totals: LayerTotals,
    /// Overlay entries live at the end of the window.
    pub overlay_entries: u64,
    /// Compactions up to the end of the window.
    pub compactions: u64,
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The configuration run.
    pub config: RunConfig,
    /// Every checked answer equalled BFS and every replayed answer the
    /// served one.
    pub correct: bool,
    /// The first few disagreements, for the log.
    pub mismatches: Vec<String>,
    /// Queries plus updates attempted in the measured phase and the write
    /// phase.
    pub attempted: u64,
    /// `Miss` answers plus updates that did not apply.
    pub failed: u64,
    /// Served answers checked against BFS.
    pub checked: u64,
    /// End-to-end figures (for a traced run: measured while tracing).
    pub e2e: EndToEnd,
    /// Median set-up phase times.
    pub setup: SetupTimes,
    /// Per-layer metrics `(name, unit, value)`; filled by a traced run.
    pub per_layer: Vec<(&'static str, &'static str, f64)>,
    /// Work counts of the count window; filled by a traced run.
    pub counts: Option<WorkCounts>,
    /// The trace; filled by a traced run.
    pub tracer: Option<Tracer>,
    /// The machine.
    pub machine: Machine,
    /// CPU steal over the measured phase, %.
    pub steal_pct: f64,
}

/// Run the benchmark once.
pub fn run(config: RunConfig) -> RunReport {
    let machine = Machine::detect();
    let workload = config.workload;
    let graph = setup::graph(config.nodes);

    // Set up several times; serve from the last, report the median.
    let mut times = Vec::with_capacity(config.setup_repeats);
    let mut served = None;
    for _ in 0..config.setup_repeats.max(1) {
        drop(served.take());
        let (s, t) = setup::set_up(&graph, workload);
        times.push(t);
        served = Some(s);
    }
    let served = served.expect("at least one set-up ran");
    let setup = median_setup(&times);
    let index_mib = MemoryReport::measure(&served.oracle).total_bytes as f64 / MIB;
    let service = &served.service;
    let mut writer = served.writer;
    let oracle = Arc::clone(&served.oracle);

    let mut replayer = config
        .trace
        .then(|| Replayer::new(workload.cache_capacity()));
    let mut report = RunReport {
        config: config.clone(),
        correct: true,
        mismatches: Vec::new(),
        attempted: 0,
        failed: 0,
        checked: 0,
        e2e: EndToEnd::default(),
        setup,
        per_layer: Vec::new(),
        counts: None,
        tracer: None,
        machine,
        steal_pct: 0.0,
    };

    // Warm-up, from its own stream; the replay's cache sees it too.
    let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
    let mut warm = PairSource::warmup(workload, &graph, config.seed);
    for _ in 0..config.warmup_calls {
        warm.next_call(&graph, &mut pairs);
        let answers = service.serve_batch(&pairs);
        if let Some(replayer) = replayer.as_mut() {
            let view = view_of(&oracle, &graph, writer.as_ref());
            let (_, same) = replayer.replay(view, service.epoch_id(), &pairs, &answers, None);
            report.note(same, || {
                "warm-up replay differs from the served answers".into()
            });
        }
    }
    service.reset_stats();

    let mut source = PairSource::measured(workload, &graph, config.seed);
    let mut updates = UpdateStream::new(config.seed);
    let mut picker = CheckPicker::new(config.seed, check_every(workload));
    let mut reference = Reference::new(&graph);
    let mut tracer = config.trace.then(|| Tracer::new(Instant::now()));
    let mut window = LayerTotals::default();
    let mut all = LayerTotals::default();
    let mut window_methods = ServerStats::default();
    let mut window_state = (0u64, 0u64);
    // Per call and per update: (CPU ns, wall ns).
    let mut call_ns: Vec<(u64, u64)> = Vec::new();
    let mut update_ns: Vec<(u64, u64)> = Vec::new();

    // The read workloads apply their updates to a second, updatable service
    // over the same index, in slices between calls: no update runs while a
    // call is served, and the update samples span the measured phase as the
    // calls do.
    let mut write_phase = writer.is_none().then(|| {
        (
            setup::write_phase_writer(&oracle, &graph),
            UpdateStream::new(WRITE_PHASE_SEED),
        )
    });
    let slice_updates = config.write_phase_updates.div_ceil(WRITE_SLICES);
    let mut slices_done = 0;
    let mut write_seq = 0u32;

    let cpu_start = CpuTimes::now();
    let start = Instant::now();
    let mut call = 0usize;
    while call < config.count_window
        || start.elapsed().as_secs_f64() < config.seconds
        || (write_phase.is_some() && slices_done < WRITE_SLICES)
    {
        let in_window = call < config.count_window;
        if let Some(writer) = writer.as_mut() {
            let update = updates.next_update(writer.oracle().graph());
            let (totals, cpu_ns, ok) = apply_update(writer, update, call as u32, tracer.as_mut());
            update_ns.push((cpu_ns, totals.update_ns));
            report.count_update(ok, update);
            all.add(&totals);
            if in_window {
                window.add(&totals);
            }
        }

        source.next_call(&graph, &mut pairs);
        let cpu_before = thread_cpu_ns();
        let before = Instant::now();
        let answers = service.serve_batch(&pairs);
        let after = Instant::now();
        let cpu_ns = thread_cpu_ns() - cpu_before;
        let ns = after.duration_since(before).as_nanos() as u64;
        call_ns.push((cpu_ns, ns));
        report.attempted += answers.len() as u64;
        report.failed += answers.iter().filter(|a| a.is_miss()).count() as u64;

        if let Some(replayer) = replayer.as_mut() {
            let view = view_of(&oracle, &graph, writer.as_ref());
            let sink = tracer.as_mut().map(|tracer| {
                let (a, b) = (tracer.offset(before), tracer.offset(after));
                let root = tracer.push(
                    NO_PARENT,
                    call as u32,
                    Layer::Request,
                    a,
                    b,
                    pairs.len() as u64,
                );
                tracer.push(root, call as u32, Layer::Serve, a, b, pairs.len() as u64);
                SpanSink {
                    tracer,
                    root,
                    call: call as u32,
                }
            });
            let root = sink.as_ref().map(|sink| sink.root);
            let (mut totals, same) =
                replayer.replay(view, service.epoch_id(), &pairs, &answers, sink);
            if let (Some(tracer), Some(root)) = (tracer.as_mut(), root) {
                tracer.extend_to(root, Instant::now());
            }
            report.note(same, || {
                format!("call {call}: replayed answers differ from the served answers")
            });
            totals.calls = 1;
            totals.serve_ns = ns;
            all.add(&totals);
            if in_window {
                window.add(&totals);
                for answer in &answers {
                    window_methods.record(method_of(answer), None);
                }
            }
        }

        if let Some(slot) = picker.pick() {
            let (s, t) = pairs[slot];
            let expected = reference.distance(writer.as_ref(), s, t);
            report.checked += 1;
            let got = answers[slot].distance();
            report.note(got == expected, || {
                format!("call {call}: ({s},{t}) served {got:?}, BFS says {expected:?}")
            });
        }

        call += 1;
        if call == config.count_window {
            window_state = writer.as_ref().map_or((0, 0), dynamic_state);
        }

        if let Some((writer, stream)) = write_phase.as_mut() {
            let due = (slices_done as f64 + 0.5) * config.seconds / WRITE_SLICES as f64;
            if slices_done < WRITE_SLICES && start.elapsed().as_secs_f64() >= due {
                for _ in 0..slice_updates {
                    let update = stream.next_update(writer.oracle().graph());
                    let (totals, cpu_ns, ok) =
                        apply_update(writer, update, write_seq, tracer.as_mut());
                    write_seq += 1;
                    update_ns.push((cpu_ns, totals.update_ns));
                    report.count_update(ok, update);
                    all.add(&totals);
                    window.add(&totals);
                }
                slices_done += 1;
            }
        }
    }
    report.steal_pct = cpu_start.steal_pct_until(&CpuTimes::now());
    if let Some((writer, _)) = &write_phase {
        window_state = dynamic_state(writer);
    }

    report.e2e = end_to_end(&call_ns, &update_ns, index_mib, setup.total_s, &report);
    if config.trace {
        report.per_layer = per_layer(&report.setup, &window, &all, window_state);
        report.counts = Some(WorkCounts {
            methods: window_methods.method_histogram(),
            totals: window,
            overlay_entries: window_state.0,
            compactions: window_state.1,
        });
    }
    report.tracer = tracer;
    report
}

const MIB: f64 = 1024.0 * 1024.0;

impl RunReport {
    /// Record a check outcome; keep the first few disagreements.
    fn note(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        if !ok {
            self.correct = false;
            if self.mismatches.len() < 8 {
                self.mismatches.push(describe());
            }
        }
    }

    /// Account one update: it fails unless it applied.
    fn count_update(&mut self, ok: bool, update: Update) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.mismatches.len() < 8 {
                self.mismatches
                    .push(format!("update {update:?} did not apply"));
            }
        }
    }
}

/// The served index state, for the replay.
fn view_of<'a>(
    oracle: &'a vicinity_core::VicinityOracle,
    graph: &'a CsrGraph,
    writer: Option<&'a OracleWriter>,
) -> View<'a> {
    match writer {
        Some(writer) => View::Dynamic(writer.oracle()),
        None => View::Frozen(oracle, graph),
    }
}

/// `(overlay entries, compactions)` of a writer's oracle.
fn dynamic_state(writer: &OracleWriter) -> (u64, u64) {
    (
        writer.oracle().overlay_len() as u64,
        writer.oracle().compactions(),
    )
}

/// Apply one update through the writer; return its wall time and profile,
/// its CPU time, and whether it applied. Traced, it records an `update` span whose children
/// are the profiled phases, laid end to end in the order the writer runs
/// them, and the publish remainder.
fn apply_update(
    writer: &mut OracleWriter,
    update: Update,
    seq: u32,
    tracer: Option<&mut Tracer>,
) -> (LayerTotals, u64, bool) {
    let cpu_before = thread_cpu_ns();
    let before = Instant::now();
    let result = match update {
        Update::Insert(a, b) => writer.insert_edge(a, b),
        Update::Remove(a, b) => writer.remove_edge(a, b),
    };
    let after = Instant::now();
    let cpu_ns = thread_cpu_ns() - cpu_before;
    let ok = matches!(result, Ok(true));
    let ns = after.duration_since(before).as_nanos() as u64;
    // An update that did not apply leaves the previous update's profile.
    let p = if ok {
        writer.oracle().last_update_profile()
    } else {
        UpdateProfile::default()
    };
    let totals = LayerTotals {
        updates: 1,
        update_ns: ns,
        labels_ns: p.labels_ns,
        rows_ns: p.rows_ns,
        cluster_ns: p.cluster_ns,
        rebuild_ns: p.rebuild_ns,
        rows_repaired: p.rows_repaired as u64,
        vicinities_rebuilt: p.affected_vicinities as u64,
        ..LayerTotals::default()
    };
    if let Some(tracer) = tracer {
        let (a, b) = (tracer.offset(before), tracer.offset(after));
        let root = tracer.push(NO_PARENT, seq, Layer::Update, a, b, 1);
        let phases = match update {
            Update::Insert(..) => [
                (Layer::UpdateLabels, p.labels_ns, p.header_changes as u64),
                (Layer::UpdateRows, p.rows_ns, p.rows_repaired as u64),
                (Layer::UpdateCluster, p.cluster_ns, 0),
                (
                    Layer::UpdateRebuild,
                    p.rebuild_ns,
                    p.affected_vicinities as u64,
                ),
            ],
            Update::Remove(..) => [
                (Layer::UpdateCluster, p.cluster_ns, 0),
                (Layer::UpdateLabels, p.labels_ns, p.header_changes as u64),
                (Layer::UpdateRows, p.rows_ns, p.rows_repaired as u64),
                (
                    Layer::UpdateRebuild,
                    p.rebuild_ns,
                    p.affected_vicinities as u64,
                ),
            ],
        };
        let mut at = a;
        for (layer, len, count) in phases {
            tracer.push(root, seq, layer, at, at + len, count);
            at += len;
        }
        tracer.push(root, seq, Layer::UpdatePublish, at.min(b), b, 0);
    }
    (totals, cpu_ns, ok)
}

/// Method of a served answer, as the server's statistics file it.
fn method_of(answer: &ServedAnswer) -> ServedMethod {
    match *answer {
        ServedAnswer::Exact { method, .. } => method,
        ServedAnswer::Unreachable => ServedMethod::Unreachable,
        ServedAnswer::Miss => ServedMethod::Miss,
    }
}

/// Calls between answer checks. Checks run outside the timed calls; the
/// interval keeps their cost to a small share of the measured phase.
fn check_every(workload: Workload) -> usize {
    match workload {
        Workload::Fof => 256,
        Workload::Uniform | Workload::Zipf => 32,
        Workload::Churn => 64,
    }
}

/// Plain BFS on the graph as it stands: the base graph, or under churn the
/// writer's current graph materialised with `OverlayGraph::to_csr`.
struct Reference<'g> {
    base: BfsEngine<'g>,
}

impl<'g> Reference<'g> {
    fn new(graph: &'g CsrGraph) -> Self {
        Reference {
            base: BfsEngine::new(graph),
        }
    }

    fn distance(&mut self, writer: Option<&OracleWriter>, s: NodeId, t: NodeId) -> Option<u32> {
        match writer {
            Some(writer) => {
                let current = writer.oracle().graph().to_csr();
                BfsEngine::new(&current).distance(s, t)
            }
            None => self.base.distance(s, t),
        }
    }
}

/// Nearest-rank percentile of sorted values.
fn percentile(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorted times of one clock: `.0` (CPU) or `.1` (wall) of each sample.
fn sorted(samples: &[(u64, u64)], clock: fn(&(u64, u64)) -> u64) -> Vec<u64> {
    let mut v: Vec<u64> = samples.iter().map(clock).collect();
    v.sort_unstable();
    v
}

/// Queries per second of the summed call times.
fn throughput(calls: &[u64]) -> f64 {
    let served_ns: u64 = calls.iter().sum();
    let queries = calls.len() as f64 * crate::workload::PAIRS_PER_CALL as f64;
    if served_ns == 0 {
        0.0
    } else {
        queries / (served_ns as f64 / 1e9)
    }
}

fn end_to_end(
    call_ns: &[(u64, u64)],
    update_ns: &[(u64, u64)],
    index_mib: f64,
    setup_s: f64,
    report: &RunReport,
) -> EndToEnd {
    let us = |sorted: &[u64], pct: f64| percentile(sorted, pct) as f64 / 1e3;
    let calls = sorted(call_ns, |s| s.0);
    let updates = sorted(update_ns, |s| s.0);
    let wall_calls = sorted(call_ns, |s| s.1);
    let wall_updates = sorted(update_ns, |s| s.1);
    EndToEnd {
        qps: throughput(&calls),
        call_p50_us: us(&calls, 50.0),
        call_p90_us: us(&calls, 90.0),
        call_p99_us: us(&calls, 99.0),
        update_p50_us: us(&updates, 50.0),
        update_p90_us: us(&updates, 90.0),
        update_p99_us: us(&updates, 99.0),
        index_mib,
        setup_s,
        failed_pct: if report.attempted == 0 {
            0.0
        } else {
            100.0 * report.failed as f64 / report.attempted as f64
        },
        calls: calls.len(),
        updates: updates.len(),
        wall: [
            throughput(&wall_calls),
            us(&wall_calls, 50.0),
            us(&wall_calls, 90.0),
            us(&wall_updates, 50.0),
            us(&wall_updates, 90.0),
        ],
    }
}

fn median_setup(times: &[SetupTimes]) -> SetupTimes {
    let median = |f: fn(&SetupTimes) -> f64| {
        let mut v: Vec<f64> = times.iter().map(f).collect();
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    SetupTimes {
        build_s: median(|t| t.build_s),
        encode_s: median(|t| t.encode_s),
        decode_s: median(|t| t.decode_s),
        total_s: median(|t| t.total_s),
        snapshot_bytes: times.last().map_or(0, |t| t.snapshot_bytes),
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer metrics: counts from the count window `w` (they repeat
/// for a seed), times from every traced call and update `a` (more samples).
fn per_layer(
    setup: &SetupTimes,
    w: &LayerTotals,
    a: &LayerTotals,
    (overlay, compactions): (u64, u64),
) -> Vec<(&'static str, &'static str, f64)> {
    let f = |x: u64| x as f64;
    let replayed = a.cache_ns + a.index_ns + a.fallback_ns;
    let update_phases = a.labels_ns + a.rows_ns + a.cluster_ns + a.rebuild_ns;
    vec![
        ("build.s", "s", setup.build_s),
        ("snapshot.encode_s", "s", setup.encode_s),
        ("snapshot.decode_s", "s", setup.decode_s),
        ("snapshot.mib", "MiB", setup.snapshot_bytes as f64 / MIB),
        (
            "index.ns_per_query",
            "ns",
            ratio(f(a.index_ns), f(a.index_queries)),
        ),
        (
            "index.lookups_per_query",
            "count",
            ratio(f(w.index_lookups), f(w.index_queries)),
        ),
        (
            "index.hit_pct",
            "%",
            100.0 * ratio(f(w.index_hits), f(w.index_queries)),
        ),
        (
            "fallback.miss_pct",
            "%",
            100.0 * ratio(f(w.misses), f(w.pairs)),
        ),
        (
            "fallback.us_per_miss",
            "us",
            ratio(f(a.fallback_ns), f(a.misses)) / 1e3,
        ),
        (
            "fallback.ops_per_miss",
            "count",
            ratio(f(w.fallback_ops), f(w.misses)),
        ),
        (
            "server.us_per_call",
            "us",
            ratio(f(a.serve_ns.saturating_sub(replayed)), f(a.calls)) / 1e3,
        ),
        (
            "server.dedup_pct",
            "%",
            100.0 * ratio(f(w.duplicates), f(w.pairs)),
        ),
        (
            "cache.hit_pct",
            "%",
            100.0 * ratio(f(w.cache_hits), f(w.cache_gets)),
        ),
        (
            "cache.ns_per_op",
            "ns",
            ratio(f(a.cache_ns), f(a.cache_gets + a.cache_inserts)),
        ),
        (
            "update.labels_us",
            "us",
            ratio(f(a.labels_ns), f(a.updates)) / 1e3,
        ),
        (
            "update.rows_us",
            "us",
            ratio(f(a.rows_ns), f(a.updates)) / 1e3,
        ),
        (
            "update.cluster_us",
            "us",
            ratio(f(a.cluster_ns), f(a.updates)) / 1e3,
        ),
        (
            "update.rebuild_us",
            "us",
            ratio(f(a.rebuild_ns), f(a.updates)) / 1e3,
        ),
        (
            "update.publish_us",
            "us",
            ratio(f(a.update_ns.saturating_sub(update_phases)), f(a.updates)) / 1e3,
        ),
        (
            "update.rows_repaired",
            "count",
            ratio(f(w.rows_repaired), f(w.updates)),
        ),
        (
            "update.vicinities_rebuilt",
            "count",
            ratio(f(w.vicinities_rebuilt), f(w.updates)),
        ),
        ("dynamic.overlay_entries", "count", f(overlay)),
        ("dynamic.compactions", "count", f(compactions)),
    ]
}
