//! Replay of one served call through the entry points the server itself
//! uses, each timed in its own span. The replay must reproduce the served
//! answers exactly; its times are estimates (it runs right after the
//! served call, on warm caches), its counts are exact.

use std::time::Instant;

use vicinity_baselines::bidirectional_bfs::BidirBfsScratch;
use vicinity_core::query::{DistanceAnswer, QueryIndex, QueryStats};
use vicinity_core::{DynamicOracle, VicinityOracle};
use vicinity_graph::csr::CsrGraph;
use vicinity_graph::fast_hash::FastMap;
use vicinity_graph::{Adjacency, Distance, NodeId};
use vicinity_server::{CachedAnswer, QueryCache, ServedAnswer, ServedMethod};

use crate::trace::{Layer, LayerTotals, Tracer};

/// The index state a call was served from.
#[derive(Clone, Copy)]
pub enum View<'a> {
    /// A frozen service: the decoded oracle over the base graph.
    Frozen(&'a VicinityOracle, &'a CsrGraph),
    /// An updatable service: the writer's oracle, which is exactly the
    /// state the last publish handed to the service.
    Dynamic(&'a DynamicOracle),
}

impl View<'_> {
    fn distance_batch(
        &self,
        pairs: &[(NodeId, NodeId)],
        out: &mut Vec<DistanceAnswer>,
        stats: &mut QueryStats,
    ) {
        match self {
            View::Frozen(oracle, _) => oracle.distance_batch_accumulate(pairs, out, stats),
            View::Dynamic(oracle) => oracle.distance_batch_accumulate(pairs, out, stats),
        }
    }

    fn fallback(&self, scratch: &mut BidirBfsScratch, s: NodeId, t: NodeId) -> Option<Distance> {
        match self {
            View::Frozen(oracle, graph) => seeded(*oracle, *graph, scratch, s, t),
            View::Dynamic(oracle) => seeded(*oracle, oracle.graph(), scratch, s, t),
        }
    }
}

/// The server's miss path: a bidirectional BFS seeded with both endpoints'
/// stored vicinities, or a plain one when either has none.
fn seeded<Q: QueryIndex, G: Adjacency>(
    index: &Q,
    graph: &G,
    scratch: &mut BidirBfsScratch,
    s: NodeId,
    t: NodeId,
) -> Option<Distance> {
    match (index.vicinity_of(s), index.vicinity_of(t)) {
        (Some(vs), Some(vt)) if !vs.is_empty() && !vt.is_empty() => {
            scratch.distance_seeded(graph, vs.iter(), vs.radius(), vt.iter(), vt.radius())
        }
        _ => scratch.distance(graph, s, t),
    }
}

/// Replays calls; owns a standalone cache fed the same sequence as the
/// served one, and reusable buffers.
pub struct Replayer {
    cache: Option<QueryCache>,
    scratch: BidirBfsScratch,
    seen: FastMap<u64, u32>,
    unique: Vec<(NodeId, NodeId)>,
    slots: Vec<u32>,
    resolved: Vec<ServedAnswer>,
    pending: Vec<u32>,
    pending_pairs: Vec<(NodeId, NodeId)>,
    index_answers: Vec<DistanceAnswer>,
    replayed: Vec<ServedAnswer>,
}

/// Spans of one replay: where to record them, under which root.
pub struct SpanSink<'t> {
    /// The tracer.
    pub tracer: &'t mut Tracer,
    /// The call's root span.
    pub root: u32,
    /// The call's sequence number.
    pub call: u32,
}

impl Replayer {
    /// A replayer for a service with a result cache of `cache_capacity`
    /// answers (0 = none). The cache is sharded as the service's is.
    pub fn new(cache_capacity: usize) -> Self {
        Replayer {
            cache: (cache_capacity > 0).then(|| QueryCache::new(cache_capacity, 16)),
            scratch: BidirBfsScratch::new(),
            seen: FastMap::default(),
            unique: Vec::new(),
            slots: Vec::new(),
            resolved: Vec::new(),
            pending: Vec::new(),
            pending_pairs: Vec::new(),
            index_answers: Vec::new(),
            replayed: Vec::new(),
        }
    }

    /// Replay `pairs`, served as `served` at cache epoch `epoch`, against
    /// `view`. Returns the call's counts and layer times, and whether the
    /// replayed answers equal the served ones. Records spans into `sink`.
    pub fn replay(
        &mut self,
        view: View<'_>,
        epoch: u64,
        pairs: &[(NodeId, NodeId)],
        served: &[ServedAnswer],
        mut sink: Option<SpanSink<'_>>,
    ) -> (LayerTotals, bool) {
        let mut totals = LayerTotals {
            pairs: pairs.len() as u64,
            ..LayerTotals::default()
        };

        // Duplicate collapsing, as `serve_batch` does before serving.
        self.seen.clear();
        self.unique.clear();
        self.slots.clear();
        for &(s, t) in pairs {
            let next = self.unique.len() as u32;
            let slot = *self.seen.entry(QueryCache::key(s, t)).or_insert(next);
            if slot == next {
                self.unique.push((s, t));
            }
            self.slots.push(slot);
        }
        totals.duplicates = (pairs.len() - self.unique.len()) as u64;

        // Cache peel-off.
        self.resolved.clear();
        self.pending.clear();
        self.pending_pairs.clear();
        let start = Instant::now();
        for (i, &(s, t)) in self.unique.iter().enumerate() {
            let hit = self.cache.as_ref().and_then(|c| c.get(s, t, epoch));
            self.resolved.push(match hit {
                Some(CachedAnswer::Exact(distance)) => ServedAnswer::Exact {
                    distance,
                    method: ServedMethod::Cache,
                },
                Some(CachedAnswer::Unreachable) => ServedAnswer::Unreachable,
                None => {
                    self.pending.push(i as u32);
                    self.pending_pairs.push((s, t));
                    ServedAnswer::Miss
                }
            });
        }
        if self.cache.is_some() {
            totals.cache_gets = self.unique.len() as u64;
            totals.cache_hits = (self.unique.len() - self.pending.len()) as u64;
            totals.cache_ns += span(&mut sink, Layer::CacheGet, start, totals.cache_hits);
        }

        // Batched index pipeline.
        let start = Instant::now();
        let mut stats = QueryStats::default();
        self.index_answers.clear();
        view.distance_batch(&self.pending_pairs, &mut self.index_answers, &mut stats);
        totals.index_queries = self.pending_pairs.len() as u64;
        totals.index_lookups = stats.lookups;
        totals.index_ns = span(&mut sink, Layer::Index, start, stats.lookups);

        // Fallback for index misses.
        for (k, &i) in self.pending.iter().enumerate() {
            let (s, t) = self.pending_pairs[k];
            self.resolved[i as usize] = match self.index_answers[k] {
                DistanceAnswer::Exact { distance, method } => {
                    totals.index_hits += 1;
                    ServedAnswer::Exact {
                        distance,
                        method: ServedMethod::Index(method),
                    }
                }
                DistanceAnswer::Unreachable => {
                    totals.index_hits += 1;
                    ServedAnswer::Unreachable
                }
                DistanceAnswer::Miss => {
                    let start = Instant::now();
                    let found = view.fallback(&mut self.scratch, s, t);
                    let ops = self.scratch.last_operations();
                    totals.misses += 1;
                    totals.fallback_ops += ops;
                    totals.fallback_ns += span(&mut sink, Layer::Fallback, start, ops);
                    match found {
                        Some(distance) => ServedAnswer::Exact {
                            distance,
                            method: ServedMethod::Fallback,
                        },
                        None => ServedAnswer::Unreachable,
                    }
                }
            };
        }

        // Cache write-back of the definitive answers, in resolution order.
        if let Some(cache) = &self.cache {
            let start = Instant::now();
            for (k, &i) in self.pending.iter().enumerate() {
                let (s, t) = self.pending_pairs[k];
                let answer = match self.resolved[i as usize] {
                    ServedAnswer::Exact { distance, .. } => CachedAnswer::Exact(distance),
                    ServedAnswer::Unreachable => CachedAnswer::Unreachable,
                    ServedAnswer::Miss => continue,
                };
                cache.insert(s, t, epoch, answer);
                totals.cache_inserts += 1;
            }
            totals.cache_ns += span(&mut sink, Layer::CacheInsert, start, totals.cache_inserts);
        }

        // Duplicates adopt the first occurrence's answer; with a cache an
        // exact repeat is reported as cache-served, as the server does.
        self.replayed.clear();
        let mut first_seen = 0u32;
        for &slot in &self.slots {
            let answer = self.resolved[slot as usize];
            let repeat = slot < first_seen;
            first_seen = first_seen.max(slot + 1);
            self.replayed.push(match answer {
                ServedAnswer::Exact { distance, .. } if repeat && self.cache.is_some() => {
                    ServedAnswer::Exact {
                        distance,
                        method: ServedMethod::Cache,
                    }
                }
                other => other,
            });
        }
        (totals, self.replayed == served)
    }
}

/// Close a replay span that started at `start`: record it when tracing and
/// return its length in ns.
fn span(sink: &mut Option<SpanSink<'_>>, layer: Layer, start: Instant, count: u64) -> u64 {
    let end = Instant::now();
    if let Some(sink) = sink {
        let (a, b) = (sink.tracer.offset(start), sink.tracer.offset(end));
        sink.tracer.push(sink.root, sink.call, layer, a, b, count);
    }
    end.duration_since(start).as_nanos() as u64
}
