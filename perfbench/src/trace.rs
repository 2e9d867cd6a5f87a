//! In-memory spans recorded around calls into each layer, and the totals
//! the per-layer metrics are computed from.
//!
//! Spans are recorded by the benchmark around public entry points, not by
//! the program: a `request` root per call holds the `serve` span (the
//! `serve_batch` call itself) and the replay spans (`cache.get`, `index`,
//! `fallback`, `cache.insert`). Updates get an `update` root whose children
//! are the phases `UpdateProfile` reports, laid end to end from the start
//! of the call in the order the writer runs them.

use std::io::{self, Write};
use std::time::Instant;

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One call: `serve_batch` plus its replay.
    Request,
    /// `QueryService::serve_batch`.
    Serve,
    /// `QueryCache::get` for every unique pair of the call.
    CacheGet,
    /// `distance_batch_accumulate` over the pairs the cache did not answer.
    Index,
    /// `BidirBfsScratch::distance_seeded` for one index miss.
    Fallback,
    /// `QueryCache::insert` of the call's definitive answers.
    CacheInsert,
    /// One `OracleWriter::insert_edge` / `remove_edge` call.
    Update,
    /// `UpdateProfile::labels_ns`.
    UpdateLabels,
    /// `UpdateProfile::rows_ns`.
    UpdateRows,
    /// `UpdateProfile::cluster_ns`.
    UpdateCluster,
    /// `UpdateProfile::rebuild_ns`.
    UpdateRebuild,
    /// The writer call minus the profiled phases: snapshot publish, plus
    /// compaction when the update triggers one.
    UpdatePublish,
}

impl Layer {
    /// The span name written to the span file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Request => "request",
            Layer::Serve => "serve",
            Layer::CacheGet => "cache.get",
            Layer::Index => "index",
            Layer::Fallback => "fallback",
            Layer::CacheInsert => "cache.insert",
            Layer::Update => "update",
            Layer::UpdateLabels => "update.labels",
            Layer::UpdateRows => "update.rows",
            Layer::UpdateCluster => "update.cluster",
            Layer::UpdateRebuild => "update.rebuild",
            Layer::UpdatePublish => "update.publish",
        }
    }
}

/// Parent id of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Span id, its index in the tracer.
    pub id: u32,
    /// Id of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// Call (or update) sequence number; the spans of one request share it.
    pub call: u32,
    /// What the span covers.
    pub layer: Layer,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Work counted at this boundary: pairs, look-ups, BFS operations,
    /// cache hits or rows repaired, depending on the layer.
    pub count: u64,
}

/// Collects spans in memory; they are written out once the run ends.
#[derive(Debug, Clone)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the origin of `at`.
    pub fn offset(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a span and return its id.
    pub fn push(
        &mut self,
        parent: u32,
        call: u32,
        layer: Layer,
        start_ns: u64,
        end_ns: u64,
        count: u64,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            call,
            layer,
            start_ns,
            end_ns,
            count,
        });
        id
    }

    /// Move the end of span `id` to `at`.
    pub fn extend_to(&mut self, id: u32, at: Instant) {
        let end = self.offset(at);
        self.spans[id as usize].end_ns = end;
    }

    /// Write the spans of calls below `calls` as CSV.
    pub fn write_csv<W: Write>(&self, calls: u32, out: &mut W) -> io::Result<()> {
        writeln!(out, "id,parent,call,span,start_ns,end_ns,count")?;
        for s in self.spans.iter().filter(|s| s.call < calls) {
            let parent = if s.parent == NO_PARENT {
                String::new()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{},{},{},{},{},{},{}",
                s.id,
                parent,
                s.call,
                s.layer.name(),
                s.start_ns,
                s.end_ns,
                s.count
            )?;
        }
        out.flush()
    }
}

/// Work counts and replayed layer times summed over a set of calls and
/// updates. Counts are exact; times are the replay's estimates.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// `serve_batch` calls.
    pub calls: u64,
    /// Pairs in those calls.
    pub pairs: u64,
    /// Pairs whose normalised key already appeared earlier in their call.
    pub duplicates: u64,
    /// Time inside `serve_batch`, ns.
    pub serve_ns: u64,
    /// Cache probes.
    pub cache_gets: u64,
    /// Cache probes that hit.
    pub cache_hits: u64,
    /// Cache inserts.
    pub cache_inserts: u64,
    /// Time in cache probes and inserts, ns.
    pub cache_ns: u64,
    /// Pairs sent to the batched index pipeline.
    pub index_queries: u64,
    /// Those the index answered (exact or unreachable).
    pub index_hits: u64,
    /// Membership probes of the index pipeline.
    pub index_lookups: u64,
    /// Time in the index pipeline, ns.
    pub index_ns: u64,
    /// Index misses sent to the fallback search.
    pub misses: u64,
    /// Queue pops of the fallback search.
    pub fallback_ops: u64,
    /// Time in the fallback search, ns.
    pub fallback_ns: u64,
    /// Edge updates.
    pub updates: u64,
    /// Time inside the writer calls, ns.
    pub update_ns: u64,
    /// `UpdateProfile::labels_ns` summed.
    pub labels_ns: u64,
    /// `UpdateProfile::rows_ns` summed.
    pub rows_ns: u64,
    /// `UpdateProfile::cluster_ns` summed.
    pub cluster_ns: u64,
    /// `UpdateProfile::rebuild_ns` summed.
    pub rebuild_ns: u64,
    /// `UpdateProfile::rows_repaired` summed.
    pub rows_repaired: u64,
    /// `UpdateProfile::affected_vicinities` summed.
    pub vicinities_rebuilt: u64,
}

impl LayerTotals {
    /// Add `other` into `self`.
    pub fn add(&mut self, other: &LayerTotals) {
        self.calls += other.calls;
        self.pairs += other.pairs;
        self.duplicates += other.duplicates;
        self.serve_ns += other.serve_ns;
        self.cache_gets += other.cache_gets;
        self.cache_hits += other.cache_hits;
        self.cache_inserts += other.cache_inserts;
        self.cache_ns += other.cache_ns;
        self.index_queries += other.index_queries;
        self.index_hits += other.index_hits;
        self.index_lookups += other.index_lookups;
        self.index_ns += other.index_ns;
        self.misses += other.misses;
        self.fallback_ops += other.fallback_ops;
        self.fallback_ns += other.fallback_ns;
        self.updates += other.updates;
        self.update_ns += other.update_ns;
        self.labels_ns += other.labels_ns;
        self.rows_ns += other.rows_ns;
        self.cluster_ns += other.cluster_ns;
        self.rebuild_ns += other.rebuild_ns;
        self.rows_repaired += other.rows_repaired;
        self.vicinities_rebuilt += other.vicinities_rebuilt;
    }
}
