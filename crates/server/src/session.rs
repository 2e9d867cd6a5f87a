//! Per-worker session state: the full query pipeline with reusable scratch.
//!
//! A [`WorkerSession`] is the unit of serving concurrency. Each session
//! shares the service's *epoch slot* — an `Arc` pointer to the current
//! immutable oracle version — and checks out of the service's pool a
//! worker state holding everything mutable it needs: the fallback search
//! scratch, the batched-pipeline staging buffers (the dedup map included)
//! and its statistics. The query hot path takes no locks beyond one
//! epoch-pointer read per block, no matter how many sessions run in
//! parallel. The only shared mutable structure is the (optional) result
//! cache, a lock-free table of seqlocked sets.
//!
//! ## Epochs
//!
//! An epoch is one published [`DynamicSnapshot`], identified by its
//! update version. Every service starts from the empty-overlay snapshot
//! of its oracle (version 0), which answers through the frozen base
//! directly. An updatable service (see
//! `QueryServiceBuilder::build_updatable`) lets a writer thread apply edge
//! updates to a `DynamicOracle` and publish a new snapshot per applied
//! update; a service from `build()` has no writer and keeps version 0
//! forever. Sessions pick up the current epoch at the start of every
//! served block, so each block is answered against one consistent oracle
//! version end to end. Cache entries are stamped with the version that
//! produced them and validated against the reading session's epoch, so
//! once a session observes a post-update epoch it can never be served a
//! pre-update cached answer.
//!
//! Batches go through [`WorkerSession::serve_into`], which stages the
//! work instead of looping over [`WorkerSession::serve_one`]: bad requests
//! are peeled off first, repeated pairs collapse onto one resolution
//! across the whole call (a repeat adopts an answer only from a block
//! that read the same epoch), cache hits are peeled off next, the
//! remaining pairs run through the oracle's software-prefetch batch
//! engine, and only index misses fall back to the per-session
//! bidirectional BFS (which runs on the epoch's overlay graph view through
//! the shared [`Adjacency`] abstraction).
//! Latency recorded by `serve_into` is **batch-amortised** (the block's
//! wall time divided over its queries) rather than per-query — the honest
//! number for a batched engine, and the one `serving_throughput` reports.
//!
//! Worker states outlive sessions: a dropped session, and every
//! `serve_batch` call at its end, returns its state to the pool, and the
//! next one reuses it. So steady-state serving allocates nothing: once
//! warmed, a `serve_batch` call allocates only the vector it returns.
//! Statistics stay in the pooled states; `QueryService::stats` folds them
//! when read.
//!
//! [`Adjacency`]: vicinity_graph::Adjacency

use std::collections::hash_map::Entry;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};
use std::time::Instant;

use vicinity_core::dynamic::DynamicSnapshot;
use vicinity_core::fallback::fallback_distance;
use vicinity_core::query::{DistanceAnswer, QueryIndex};
use vicinity_graph::algo::bfs::BidirBfsScratch;
use vicinity_graph::fast_hash::FastMap;
use vicinity_graph::{Distance, NodeId};

use crate::cache::{CachedAnswer, QueryCache};
use crate::stats::{ServedMethod, ServerStats};

/// Queries per staged block of [`WorkerSession::serve_into`]. Large enough
/// to amortise the pipeline's staging sweeps and keep plenty of
/// independent misses in flight, small enough that cache write-backs from
/// one block are visible to the next (and to concurrently serving
/// sessions) at fine granularity — and that epoch swaps published by a
/// writer thread are observed promptly mid-batch.
const SERVE_BLOCK: usize = 64;

/// Result of one served query.
///
/// Mirrors [`DistanceAnswer`] but carries the serving-level provenance
/// ([`ServedMethod`]): whether the answer came from the oracle index (and
/// which case of Algorithm 1), the result cache, or the fallback search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedAnswer {
    /// An exact shortest-path distance.
    Exact {
        /// Distance in hops.
        distance: Distance,
        /// How the answer was produced.
        method: ServedMethod,
    },
    /// The endpoints are provably disconnected.
    Unreachable,
    /// The query was not answered: an endpoint id is unknown to the index.
    Miss,
}

impl ServedAnswer {
    /// The numeric distance, when one is available.
    pub fn distance(&self) -> Option<Distance> {
        match self {
            ServedAnswer::Exact { distance, .. } => Some(*distance),
            _ => None,
        }
    }

    /// True when an exact distance was produced.
    pub fn is_exact(&self) -> bool {
        matches!(self, ServedAnswer::Exact { .. })
    }

    /// True when the endpoints are provably disconnected.
    pub fn is_unreachable(&self) -> bool {
        matches!(self, ServedAnswer::Unreachable)
    }

    /// True when the query went unanswered.
    pub fn is_miss(&self) -> bool {
        matches!(self, ServedAnswer::Miss)
    }

    /// Serving provenance, when an exact distance was produced.
    pub fn method(&self) -> Option<ServedMethod> {
        match self {
            ServedAnswer::Exact { method, .. } => Some(*method),
            _ => None,
        }
    }

    /// The slot the statistics file this answer under.
    pub(crate) fn served_method(&self) -> ServedMethod {
        match *self {
            ServedAnswer::Exact { method, .. } => method,
            ServedAnswer::Unreachable => ServedMethod::Unreachable,
            ServedAnswer::Miss => ServedMethod::Miss,
        }
    }
}

/// Everything a session shares with its parent service.
pub(crate) struct SharedState {
    /// The current oracle version. Readers clone the inner `Arc` once per
    /// block; a writer thread replaces it on every applied update.
    pub(crate) epoch: Arc<RwLock<Arc<DynamicSnapshot>>>,
    pub(crate) cache: Option<QueryCache>,
    /// Idle worker states. Sessions and `serve_batch` calls check one out
    /// and hand it back, statistics included. A stack, so a service used
    /// from one thread keeps reusing one warm state.
    pool: Mutex<Vec<WorkerState>>,
}

impl SharedState {
    pub(crate) fn new(epoch: Arc<RwLock<Arc<DynamicSnapshot>>>, cache: Option<QueryCache>) -> Self {
        SharedState {
            epoch,
            cache,
            pool: Mutex::new(Vec::new()),
        }
    }

    #[inline]
    pub(crate) fn current_epoch(&self) -> Arc<DynamicSnapshot> {
        // The slot only ever holds a whole `Arc`, so a poisoned slot is
        // still a consistent one.
        self.epoch
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    fn pool(&self) -> MutexGuard<'_, Vec<WorkerState>> {
        // Only a push or a pop runs under the lock, so a poisoned pool is
        // still a consistent one.
        self.pool.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The statistics of every idle worker state, folded.
    pub(crate) fn stats(&self) -> ServerStats {
        let mut total = ServerStats::default();
        for state in self.pool().iter() {
            total.merge(&state.stats);
        }
        total
    }

    /// Zero the statistics of every idle worker state.
    pub(crate) fn reset_stats(&self) {
        for state in self.pool().iter_mut() {
            state.stats = ServerStats::default();
        }
    }
}

/// Everything mutable one worker needs. It lives in the service's pool
/// between uses, so its buffers keep their capacity and its statistics
/// keep counting across sessions and `serve_batch` calls.
#[derive(Default)]
struct WorkerState {
    /// Fallback search scratch; grows to the graph size on the first miss.
    scratch: BidirBfsScratch,
    batch: BatchScratch,
    stats: ServerStats,
}

/// A `seen` map above this many slots is dropped after its call instead of
/// kept: clearing it would cost every later call time proportional to its
/// capacity, not to that call's size.
const SEEN_RETAIN: usize = 4096;

/// Reusable staging buffers for the batched serving pipeline. Positions
/// are indices into the caller's output vector.
#[derive(Default)]
struct BatchScratch {
    /// Output positions of the pairs forwarded to the batch engine.
    pending_pos: Vec<usize>,
    /// The forwarded pairs themselves, parallel to `pending_pos`.
    pending_pairs: Vec<(NodeId, NodeId)>,
    /// `(position, first position)` of repeats: pairs whose normalised key
    /// already appeared earlier in the call, under the same epoch.
    duplicates: Vec<(usize, usize)>,
    /// Normalised key → output position of its first occurrence in the
    /// call.
    seen: FastMap<u64, usize>,
    /// Batch-engine answers, parallel to `pending_pairs`.
    index_answers: Vec<DistanceAnswer>,
}

/// The blocks of one call that read the same epoch in a row. A repeat
/// adopts an earlier answer only from inside the run, so every answer of a
/// block comes from the one version that block read.
struct EpochRun {
    id: Option<u64>,
    /// Output position of the run's first answer.
    start: usize,
}

/// A worker's serving handle. Create one per thread with
/// [`crate::QueryService::session`]; it is `Send`, so it can be moved into
/// a worker thread and used for any number of queries. It checks a worker
/// state out of the service's pool and returns it when dropped.
pub struct WorkerSession {
    shared: Arc<SharedState>,
    state: WorkerState,
}

impl WorkerSession {
    pub(crate) fn new(shared: Arc<SharedState>) -> Self {
        let state = shared.pool().pop().unwrap_or_default();
        WorkerSession { shared, state }
    }

    /// Serve one query through the full pipeline: result cache, oracle
    /// index, then (for index misses) the session's allocation-free
    /// bidirectional-BFS fallback. Definitive answers are written back to
    /// the cache, stamped with the observed epoch.
    pub fn serve_one(&mut self, s: NodeId, t: NodeId) -> ServedAnswer {
        let epoch = self.shared.current_epoch();
        let start = Instant::now();
        let answer = self.resolve(&epoch, s, t);
        self.state
            .stats
            .record(answer.served_method(), Some(start.elapsed()));
        answer
    }

    fn resolve(&mut self, epoch: &DynamicSnapshot, s: NodeId, t: NodeId) -> ServedAnswer {
        // Unknown node ids are a bad request, not a provable
        // disconnection: report a miss (never cached) instead of letting
        // the fallback's out-of-range guard masquerade as "unreachable".
        if !epoch.covers(s) || !epoch.covers(t) {
            return ServedAnswer::Miss;
        }
        if let Some(answer) = self.cache_get(epoch, s, t) {
            return answer;
        }
        let answer = epoch.distance_accumulate(s, t, &mut self.state.stats.index_work);
        self.resolve_index_answer(epoch, s, t, answer)
    }

    /// Probe the result cache under `epoch`. A cached "unreachable" is
    /// recorded under `unreachable` (not `cache_hits`) so the
    /// definitive-answer accounting stays exact.
    #[inline]
    fn cache_get(&self, epoch: &DynamicSnapshot, s: NodeId, t: NodeId) -> Option<ServedAnswer> {
        match self.shared.cache.as_ref()?.get(s, t, epoch.version())? {
            CachedAnswer::Exact(distance) => Some(ServedAnswer::Exact {
                distance,
                method: ServedMethod::Cache,
            }),
            CachedAnswer::Unreachable => Some(ServedAnswer::Unreachable),
        }
    }

    /// Turn a raw index answer into a served answer: write definitive
    /// results back to the cache and resolve misses with the fallback
    /// search. Shared by the scalar path and the batched pipeline so their
    /// serving semantics cannot drift apart.
    fn resolve_index_answer(
        &mut self,
        epoch: &DynamicSnapshot,
        s: NodeId,
        t: NodeId,
        answer: DistanceAnswer,
    ) -> ServedAnswer {
        match answer {
            DistanceAnswer::Exact { distance, method } => {
                self.cache_store(epoch, s, t, CachedAnswer::Exact(distance));
                ServedAnswer::Exact {
                    distance,
                    method: ServedMethod::Index(method),
                }
            }
            DistanceAnswer::Unreachable => {
                self.cache_store(epoch, s, t, CachedAnswer::Unreachable);
                ServedAnswer::Unreachable
            }
            DistanceAnswer::Miss => {
                let state = &mut self.state;
                let start = Instant::now();
                let found = fallback_distance(epoch, epoch.graph(), &mut state.scratch, s, t);
                state.stats.fallback_time += start.elapsed();
                state.stats.fallback_searches += 1;
                state.stats.fallback_pops += state.scratch.last_operations();
                state.stats.fallback_arcs += state.scratch.last_arcs_scanned();
                match found {
                    Some(distance) => {
                        self.cache_store(epoch, s, t, CachedAnswer::Exact(distance));
                        ServedAnswer::Exact {
                            distance,
                            method: ServedMethod::Fallback,
                        }
                    }
                    None => {
                        self.cache_store(epoch, s, t, CachedAnswer::Unreachable);
                        ServedAnswer::Unreachable
                    }
                }
            }
        }
    }

    #[inline]
    fn cache_store(&self, epoch: &DynamicSnapshot, s: NodeId, t: NodeId, answer: CachedAnswer) {
        if let Some(cache) = &self.shared.cache {
            cache.insert(s, t, epoch.version(), answer);
        }
    }

    /// Serve a slice of queries, appending the answers to `out` in input
    /// order. Callers driving their own threads can equally loop over
    /// [`WorkerSession::serve_one`].
    ///
    /// This is the batched fast path: bad requests are peeled off up
    /// front, repeated pairs collapse onto one resolution across the whole
    /// call, cache hits are peeled off next, and everything else runs
    /// through the oracle's staged software-prefetch engine before misses
    /// reach the fallback search. A repeat adopts the first occurrence's
    /// answer when both were read under the same epoch: with a result
    /// cache an exact repeat is reported as cache-served (by the time it
    /// is answered, the answer *is* in the cache); without one it keeps
    /// the first occurrence's method. Answers are identical to a
    /// [`WorkerSession::serve_one`] loop; recorded latency is
    /// batch-amortised (block wall time over block size).
    ///
    /// Once warmed on calls of this size, a call allocates nothing but
    /// `out`'s growth: feeding same-sized batches through one session
    /// reallocates neither the output vector (when the caller clears it
    /// between batches) nor the internal staging buffers.
    pub fn serve_into(&mut self, pairs: &[(NodeId, NodeId)], out: &mut Vec<ServedAnswer>) {
        if pairs.is_empty() {
            return;
        }
        out.reserve(pairs.len());
        let mut batch = std::mem::take(&mut self.state.batch);
        batch.seen.clear();
        batch.seen.reserve(pairs.len());
        let mut run = EpochRun {
            id: None,
            start: out.len(),
        };
        // Blocks, not one monolithic sweep: a block's cache probes run
        // after every earlier block has resolved and written back, so a
        // pair served concurrently by another session still finds the
        // cache populated — the same behaviour a serve_one loop has, at
        // block granularity. Blocks also bound the staging buffers, keep
        // `out` writes cache-resident, and bound how long a call can keep
        // answering from a superseded epoch.
        for block_pairs in pairs.chunks(SERVE_BLOCK) {
            self.serve_block(&mut batch, block_pairs, out, &mut run);
        }
        if batch.seen.capacity() > SEEN_RETAIN {
            batch.seen = FastMap::default();
        }
        self.state.batch = batch;
    }

    /// One staged block of [`WorkerSession::serve_into`], answered against
    /// a single consistent epoch.
    fn serve_block(
        &mut self,
        batch: &mut BatchScratch,
        pairs: &[(NodeId, NodeId)],
        out: &mut Vec<ServedAnswer>,
        run: &mut EpochRun,
    ) {
        let epoch = self.shared.current_epoch();
        let base = out.len();
        let busy_start = Instant::now();
        if run.id != Some(epoch.version()) {
            *run = EpochRun {
                id: Some(epoch.version()),
                start: base,
            };
        }
        batch.pending_pos.clear();
        batch.pending_pairs.clear();
        batch.duplicates.clear();
        batch.index_answers.clear();

        // Stage 0: hint every cache set of the block, so the probes below
        // overlap their line fetches instead of paying them one by one.
        if let Some(cache) = &self.shared.cache {
            for &(s, t) in pairs {
                cache.prefetch(s, t);
            }
        }

        // Stage 1: peel off bad requests; collapse repeats of a pair first
        // seen under this epoch onto that first occurrence (cacheless
        // services dedup too, so duplicate-heavy calls never pay the index
        // twice for one pair); peel off cache hits; placeholder-fill `out`
        // so later stages can write answers by position.
        for (pos, &(s, t)) in (base..).zip(pairs) {
            if !epoch.covers(s) || !epoch.covers(t) {
                out.push(ServedAnswer::Miss);
                continue;
            }
            match batch.seen.entry(QueryCache::key(s, t)) {
                Entry::Occupied(first) if *first.get() >= run.start => {
                    batch.duplicates.push((pos, *first.get()));
                    out.push(ServedAnswer::Miss); // placeholder, overwritten below
                    continue;
                }
                // First seen under an earlier epoch: start over here.
                Entry::Occupied(mut first) => {
                    first.insert(pos);
                }
                Entry::Vacant(slot) => {
                    slot.insert(pos);
                }
            }
            if let Some(answer) = self.cache_get(&epoch, s, t) {
                out.push(answer);
                continue;
            }
            batch.pending_pos.push(pos);
            batch.pending_pairs.push((s, t));
            out.push(ServedAnswer::Miss); // placeholder, overwritten below
        }

        // Stage 2: resolve the unique uncached pairs of the block through
        // the staged batch engine (header prefetch → span/landmark-row
        // prefetch → warm-line resolution).
        epoch.distance_batch_accumulate(
            &batch.pending_pairs,
            &mut batch.index_answers,
            &mut self.state.stats.index_work,
        );

        // Stage 3: classify index answers, run the fallback for misses,
        // write definitive answers back to the cache and into `out`.
        for (idx, &(s, t)) in batch.pending_pairs.iter().enumerate() {
            let answer = self.resolve_index_answer(&epoch, s, t, batch.index_answers[idx]);
            out[batch.pending_pos[idx]] = answer;
        }

        // Stage 4: repeats adopt the first occurrence's answer, which is
        // final by now. With a result cache, exact answers are
        // cache-served by now and are reported as such; without one, the
        // repeat is the same answer the first occurrence got, method
        // included — exactly what a serve_one loop would have recomputed.
        let report_cache = self.shared.cache.is_some();
        for &(pos, first) in &batch.duplicates {
            out[pos] = match out[first] {
                ServedAnswer::Exact { distance, .. } if report_cache => ServedAnswer::Exact {
                    distance,
                    method: ServedMethod::Cache,
                },
                other => other,
            };
        }

        // Stage 5: account every query, with block-amortised latency.
        let elapsed = busy_start.elapsed();
        let per_query = Some(elapsed / pairs.len() as u32);
        let stats = &mut self.state.stats;
        for answer in &out[base..] {
            stats.record(answer.served_method(), per_query);
        }
        stats.busy_time += elapsed;
    }

    /// The statistics of this session's worker state: every query served
    /// through that state since the last
    /// [`crate::QueryService::reset_stats`], including by earlier sessions
    /// and `serve_batch` calls that checked out the same state. They count
    /// in [`crate::QueryService::stats`] once the session drops.
    pub fn stats(&self) -> &ServerStats {
        &self.state.stats
    }
}

impl Drop for WorkerSession {
    fn drop(&mut self) {
        // Hand the worker state, buffers and statistics, back to the pool.
        let state = std::mem::take(&mut self.state);
        self.shared.pool().push(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QueryService;
    use vicinity_core::config::Alpha;
    use vicinity_core::OracleBuilder;
    use vicinity_graph::generators::classic;

    #[test]
    fn repeats_adopt_answers_only_from_the_same_epoch() {
        // Blocks of one call, served one at a time so the writer can
        // publish between two of them.
        let graph = classic::path(10);
        let oracle = OracleBuilder::new(Alpha::new(2.0).unwrap())
            .seed(5)
            .build(&graph);
        let (service, mut writer) = QueryService::builder(oracle, graph)
            .build_updatable()
            .unwrap();
        let mut session = service.session();
        let mut batch = BatchScratch::default();
        let mut out = Vec::new();
        let mut run = EpochRun { id: None, start: 0 };
        let mut block = |session: &mut WorkerSession, pair, out: &mut Vec<ServedAnswer>| {
            session.serve_block(&mut batch, &[pair], out, &mut run);
            out.last().copied().unwrap()
        };

        assert_eq!(block(&mut session, (0, 9), &mut out).distance(), Some(9));
        let work = session.stats().index_work;
        assert_eq!(block(&mut session, (9, 0), &mut out), out[0]);
        assert_eq!(
            session.stats().index_work,
            work,
            "a repeat under the same epoch adopts the earlier answer"
        );

        assert!(writer.insert_edge(0, 9).unwrap());
        assert_eq!(
            block(&mut session, (0, 9), &mut out).distance(),
            Some(1),
            "a repeat must not adopt an answer read under an earlier epoch"
        );
        assert_ne!(session.stats().index_work, work);
        assert_eq!(block(&mut session, (9, 0), &mut out), out[2]);
    }
}
