//! Per-worker session state: the full query pipeline with reusable scratch.
//!
//! A [`WorkerSession`] is the unit of serving concurrency. Each session
//! shares the service's *epoch slot* — an `Arc` pointer to the current
//! immutable oracle version — and owns everything mutable it needs: the
//! fallback search scratch, the batched-pipeline staging buffers, and its
//! private statistics. The query hot path takes no locks beyond one
//! epoch-pointer read per block and performs no steady-state allocation,
//! no matter how many sessions run in parallel. The only shared mutable
//! structure is the (optional) result cache, which is internally sharded.
//!
//! ## Epochs
//!
//! A static service keeps one frozen [`Epoch`] forever (id 0). An
//! updatable service (see `QueryServiceBuilder::build_updatable`) lets a
//! writer thread apply edge updates to a `DynamicOracle` and publish a new
//! [`DynamicSnapshot`] per applied update; sessions pick up the current
//! epoch at the start of every served block, so each block is answered
//! against one consistent oracle version end to end. Cache entries are
//! stamped with the epoch that produced them and validated against the
//! reading session's epoch, so once a session observes a post-update
//! epoch it can never be served a pre-update cached answer.
//!
//! Batches go through [`WorkerSession::serve_into`], which stages the
//! work instead of looping over [`WorkerSession::serve_one`]: bad requests
//! and cache hits are peeled off first, duplicate pairs inside the batch
//! collapse onto one resolution, the remaining pairs run through the
//! oracle's software-prefetch batch engine, and only index misses fall
//! back to the per-session bidirectional BFS (which runs on the epoch's
//! graph view — frozen CSR or dynamic overlay — through the shared
//! [`Adjacency`] abstraction). Latency recorded by `serve_into` is
//! **batch-amortised** (the batch's wall time divided over its queries)
//! rather than per-query — the honest number for a batched engine, and
//! the one `serving_throughput` reports.
//!
//! Sessions return their scratch buffers to the service's pool and merge
//! their statistics into the service aggregate when dropped, so repeated
//! batches reuse allocations instead of growing new ones.
//!
//! [`Adjacency`]: vicinity_graph::Adjacency

use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use vicinity_core::dynamic::DynamicSnapshot;
use vicinity_core::fallback::fallback_distance;
use vicinity_core::index::VicinityOracle;
use vicinity_core::query::{DistanceAnswer, QueryStats};
use vicinity_graph::algo::bfs::BidirBfsScratch;
use vicinity_graph::csr::CsrGraph;
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

/// One published oracle version: everything a session needs to answer
/// queries consistently — the index view and the matching graph for the
/// fallback search — plus the epoch id cache entries are stamped with.
pub(crate) struct Epoch {
    /// Version stamp for cache validation. Static services stay at 0;
    /// updatable services use the dynamic oracle's update version.
    pub(crate) id: u64,
    pub(crate) oracle: EpochOracle,
}

/// The two oracle forms an epoch can carry. Static services keep the
/// frozen pair (zero per-query overlay overhead); updatable services
/// publish overlay snapshots.
pub(crate) enum EpochOracle {
    /// An immutable oracle build and the graph it was built over.
    Frozen {
        /// The shared index.
        oracle: Arc<VicinityOracle>,
        /// The build graph (fallback search substrate).
        graph: Arc<CsrGraph>,
    },
    /// A published dynamic-overlay snapshot (carries its own graph view).
    Dynamic(DynamicSnapshot),
}

impl Epoch {
    pub(crate) fn frozen(oracle: Arc<VicinityOracle>, graph: Arc<CsrGraph>) -> Arc<Self> {
        Arc::new(Epoch {
            id: 0,
            oracle: EpochOracle::Frozen { oracle, graph },
        })
    }

    pub(crate) fn dynamic(snapshot: DynamicSnapshot) -> Arc<Self> {
        Arc::new(Epoch {
            id: snapshot.version(),
            oracle: EpochOracle::Dynamic(snapshot),
        })
    }
}

impl EpochOracle {
    #[inline]
    pub(crate) fn node_count(&self) -> usize {
        match self {
            EpochOracle::Frozen { oracle, .. } => oracle.node_count(),
            EpochOracle::Dynamic(snapshot) => snapshot.node_count(),
        }
    }

    #[inline]
    fn contains_node(&self, u: NodeId) -> bool {
        (u as usize) < self.node_count()
    }

    #[inline]
    fn distance_accumulate(
        &self,
        s: NodeId,
        t: NodeId,
        accumulator: &mut QueryStats,
    ) -> DistanceAnswer {
        match self {
            EpochOracle::Frozen { oracle, .. } => oracle.distance_accumulate(s, t, accumulator),
            EpochOracle::Dynamic(snapshot) => snapshot.distance_accumulate(s, t, accumulator),
        }
    }

    #[inline]
    fn distance_batch_accumulate(
        &self,
        pairs: &[(NodeId, NodeId)],
        out: &mut Vec<DistanceAnswer>,
        accumulator: &mut QueryStats,
    ) {
        match self {
            EpochOracle::Frozen { oracle, .. } => {
                oracle.distance_batch_accumulate(pairs, out, accumulator)
            }
            EpochOracle::Dynamic(snapshot) => {
                snapshot.distance_batch_accumulate(pairs, out, accumulator)
            }
        }
    }

    /// Exact fallback for an index miss, on this epoch's graph view: the
    /// seeded bidirectional BFS of [`fallback_distance`].
    fn fallback_distance(
        &self,
        scratch: &mut BidirBfsScratch,
        s: NodeId,
        t: NodeId,
    ) -> Option<Distance> {
        match self {
            EpochOracle::Frozen { oracle, graph } => {
                fallback_distance(oracle.as_ref(), graph.as_ref(), scratch, s, t)
            }
            EpochOracle::Dynamic(snapshot) => {
                fallback_distance(snapshot, snapshot.graph(), scratch, s, t)
            }
        }
    }
}

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
    /// The query was not answered: an endpoint id is unknown to the index,
    /// or the index missed and no fallback is configured.
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
}

/// Everything a session shares with its parent service.
#[derive(Clone)]
pub(crate) struct SharedState {
    /// The current oracle version. Readers clone the inner `Arc` once per
    /// block; a writer thread replaces it on every applied update.
    pub(crate) epoch: Arc<RwLock<Arc<Epoch>>>,
    pub(crate) cache: Option<Arc<QueryCache>>,
    pub(crate) fallback: bool,
    pub(crate) record_latency: bool,
    pub(crate) aggregate: Arc<Mutex<ServerStats>>,
    pub(crate) scratch_pool: Arc<Mutex<Vec<BidirBfsScratch>>>,
}

impl SharedState {
    #[inline]
    pub(crate) fn current_epoch(&self) -> Arc<Epoch> {
        self.epoch.read().expect("epoch slot poisoned").clone()
    }
}

/// Reusable staging buffers for the batched serving pipeline. Owned by the
/// session so repeated `serve_into` calls allocate nothing once the
/// high-water mark is reached.
#[derive(Default)]
struct BatchScratch {
    /// Input positions of the pairs forwarded to the batch engine.
    pending_pos: Vec<u32>,
    /// The forwarded pairs themselves, parallel to `pending_pos`.
    pending_pairs: Vec<(NodeId, NodeId)>,
    /// `(input position, pending index)` of intra-batch duplicates: pairs
    /// whose normalised key already appeared earlier in the same batch.
    duplicates: Vec<(u32, u32)>,
    /// Normalised key → pending index, for duplicate collapsing.
    seen: FastMap<u64, u32>,
    /// Batch-engine answers, parallel to `pending_pairs`.
    index_answers: Vec<DistanceAnswer>,
}

impl BatchScratch {
    fn clear(&mut self) {
        self.pending_pos.clear();
        self.pending_pairs.clear();
        self.duplicates.clear();
        self.seen.clear();
        self.index_answers.clear();
    }
}

/// A worker's private serving state. Create one per thread with
/// [`crate::QueryService::session`]; it is `Send`, so it can be moved into
/// a worker thread and used for any number of queries.
pub struct WorkerSession {
    shared: SharedState,
    scratch: BidirBfsScratch,
    batch: BatchScratch,
    stats: ServerStats,
}

impl WorkerSession {
    pub(crate) fn new(shared: SharedState) -> Self {
        let node_count = shared.current_epoch().oracle.node_count();
        let scratch = shared
            .scratch_pool
            .lock()
            .expect("scratch pool poisoned")
            .pop()
            .unwrap_or_else(|| BidirBfsScratch::with_node_capacity(node_count));
        WorkerSession {
            shared,
            scratch,
            batch: BatchScratch::default(),
            stats: ServerStats::default(),
        }
    }

    /// Serve one query through the full pipeline: result cache, oracle
    /// index, then (for index misses) the session's allocation-free
    /// bidirectional-BFS fallback. Definitive answers are written back to
    /// the cache, stamped with the observed epoch.
    pub fn serve_one(&mut self, s: NodeId, t: NodeId) -> ServedAnswer {
        let epoch = self.shared.current_epoch();
        let start = self.shared.record_latency.then(Instant::now);

        let answer = self.resolve(&epoch, s, t);

        let latency = start.map(|st| st.elapsed());
        let method = match answer {
            ServedAnswer::Exact { method, .. } => method,
            ServedAnswer::Unreachable => ServedMethod::Unreachable,
            ServedAnswer::Miss => ServedMethod::Miss,
        };
        self.stats.record(method, latency);
        answer
    }

    fn resolve(&mut self, epoch: &Epoch, s: NodeId, t: NodeId) -> ServedAnswer {
        // Unknown node ids are a bad request, not a provable
        // disconnection: report a miss (never cached) instead of letting
        // the fallback's out-of-range guard masquerade as "unreachable".
        if !epoch.oracle.contains_node(s) || !epoch.oracle.contains_node(t) {
            return ServedAnswer::Miss;
        }
        if let Some(cache) = &self.shared.cache {
            match cache.get(s, t, epoch.id) {
                Some(CachedAnswer::Exact(d)) => {
                    return ServedAnswer::Exact {
                        distance: d,
                        method: ServedMethod::Cache,
                    }
                }
                // A cached "unreachable" is recorded under `unreachable`
                // (not `cache_hits`) so the definitive-answer accounting
                // stays exact; the internal cache counters still see the
                // probe hit.
                Some(CachedAnswer::Unreachable) => return ServedAnswer::Unreachable,
                None => {}
            }
        }

        let answer = epoch
            .oracle
            .distance_accumulate(s, t, &mut self.stats.index_work);
        self.resolve_index_answer(epoch, s, t, answer)
    }

    /// Turn a raw index answer into a served answer: write definitive
    /// results back to the cache and resolve misses with the fallback
    /// search (when configured). Shared by the scalar path and the batched
    /// pipeline so their serving semantics cannot drift apart.
    fn resolve_index_answer(
        &mut self,
        epoch: &Epoch,
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
            DistanceAnswer::Miss if self.shared.fallback => {
                let found = epoch.oracle.fallback_distance(&mut self.scratch, s, t);
                self.stats.fallback_searches += 1;
                self.stats.fallback_pops += self.scratch.last_operations();
                self.stats.fallback_arcs += self.scratch.last_arcs_scanned();
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
            DistanceAnswer::Miss => ServedAnswer::Miss,
        }
    }

    #[inline]
    fn cache_store(&self, epoch: &Epoch, s: NodeId, t: NodeId, answer: CachedAnswer) {
        if let Some(cache) = &self.shared.cache {
            cache.insert(s, t, epoch.id, answer);
        }
    }

    /// Serve a slice of queries, appending the answers to `out` in input
    /// order. Used by `serve_batch` workers; callers driving their own
    /// threads can equally loop over [`WorkerSession::serve_one`].
    ///
    /// This is the batched fast path: cache hits and bad requests are
    /// peeled off up front, duplicate pairs within the batch always
    /// collapse onto a single resolution (with a result cache the repeats
    /// are reported as cache-served — by the time they are answered, the
    /// answer *is* in the cache; without one they adopt the first
    /// occurrence's answer and method verbatim), and everything else runs
    /// through the oracle's staged software-prefetch engine before misses
    /// reach the fallback search. Answers and caching semantics are
    /// identical to a [`WorkerSession::serve_one`] loop; recorded latency
    /// is batch-amortised (batch wall time over batch size).
    ///
    /// `out` keeps its capacity across calls: feeding same-sized batches
    /// through one session reallocates neither the output vector (when the
    /// caller clears it between batches) nor the internal staging buffers.
    pub fn serve_into(&mut self, pairs: &[(NodeId, NodeId)], out: &mut Vec<ServedAnswer>) {
        if pairs.is_empty() {
            return;
        }
        out.reserve(pairs.len());
        // Blocks, not one monolithic sweep: a block's cache probes run
        // after every earlier block has resolved and written back, so a
        // repeat later in the batch (or served concurrently by another
        // session) still finds the cache populated — the same behaviour a
        // serve_one loop has, at block granularity. Blocks also bound the
        // staging buffers, keep `out` writes cache-resident, and bound how
        // long a batch can keep answering from a superseded epoch.
        for block_pairs in pairs.chunks(SERVE_BLOCK) {
            self.serve_block(block_pairs, out);
        }
    }

    /// One staged block of [`WorkerSession::serve_into`], answered against
    /// a single consistent epoch.
    fn serve_block(&mut self, pairs: &[(NodeId, NodeId)], out: &mut Vec<ServedAnswer>) {
        let epoch = self.shared.current_epoch();
        let base = out.len();
        let busy_start = Instant::now();

        // Stage 1: peel off bad requests and cache hits; collapse
        // intra-block duplicates onto one resolution (cacheless services
        // dedup too — the repeat adopts the first occurrence's answer, so
        // duplicate-heavy batches never pay the index twice for the same
        // pair); placeholder-fill `out` so later stages can write answers
        // by input position.
        let mut batch = std::mem::take(&mut self.batch);
        batch.clear();
        for (i, &(s, t)) in pairs.iter().enumerate() {
            if !epoch.oracle.contains_node(s) || !epoch.oracle.contains_node(t) {
                out.push(ServedAnswer::Miss);
                continue;
            }
            if let Some(cache) = &self.shared.cache {
                match cache.get(s, t, epoch.id) {
                    Some(CachedAnswer::Exact(d)) => {
                        out.push(ServedAnswer::Exact {
                            distance: d,
                            method: ServedMethod::Cache,
                        });
                        continue;
                    }
                    Some(CachedAnswer::Unreachable) => {
                        out.push(ServedAnswer::Unreachable);
                        continue;
                    }
                    None => {}
                }
            }
            let key = QueryCache::key(s, t);
            if let Some(&first) = batch.seen.get(&key) {
                batch.duplicates.push((i as u32, first));
                out.push(ServedAnswer::Miss); // placeholder, overwritten below
                continue;
            }
            batch.seen.insert(key, batch.pending_pos.len() as u32);
            batch.pending_pos.push(i as u32);
            batch.pending_pairs.push((s, t));
            out.push(ServedAnswer::Miss); // placeholder, overwritten below
        }

        // Stage 2: resolve the unique uncached pairs of the block through
        // the staged batch engine (header prefetch → span/landmark-row
        // prefetch → warm-line resolution).
        epoch.oracle.distance_batch_accumulate(
            &batch.pending_pairs,
            &mut batch.index_answers,
            &mut self.stats.index_work,
        );

        // Stage 3: classify index answers, run the fallback for misses,
        // write definitive answers back to the cache and into `out`.
        for idx in 0..batch.pending_pairs.len() {
            let (s, t) = batch.pending_pairs[idx];
            let answer = self.resolve_index_answer(&epoch, s, t, batch.index_answers[idx]);
            out[base + batch.pending_pos[idx] as usize] = answer;
        }

        // Stage 4: duplicates adopt the first occurrence's answer. With a
        // result cache, exact answers are cache-served by now and are
        // reported as such; without one, the duplicate is the same answer
        // the index (or fallback) just produced, method included —
        // exactly what a serve_one loop would have recomputed.
        let report_cache = self.shared.cache.is_some();
        for &(pos, first) in &batch.duplicates {
            let source = out[base + batch.pending_pos[first as usize] as usize];
            out[base + pos as usize] = match source {
                ServedAnswer::Exact { distance, .. } if report_cache => ServedAnswer::Exact {
                    distance,
                    method: ServedMethod::Cache,
                },
                other => other,
            };
        }
        self.batch = batch;

        // Stage 5: account every query, with block-amortised latency.
        let elapsed = busy_start.elapsed();
        let per_query = self
            .shared
            .record_latency
            .then(|| elapsed / pairs.len() as u32);
        for answer in &out[base..] {
            let method = match *answer {
                ServedAnswer::Exact { method, .. } => method,
                ServedAnswer::Unreachable => ServedMethod::Unreachable,
                ServedAnswer::Miss => ServedMethod::Miss,
            };
            self.stats.record(method, per_query);
        }
        self.stats.busy_time += elapsed;
    }

    /// This session's private statistics (merged into the service aggregate
    /// when the session drops).
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }
}

impl Drop for WorkerSession {
    fn drop(&mut self) {
        // Merge the session's statistics into the service aggregate and
        // hand the scratch buffers back for reuse by the next session.
        if let Ok(mut aggregate) = self.shared.aggregate.lock() {
            aggregate.merge(&self.stats);
        }
        let scratch = std::mem::take(&mut self.scratch);
        if let Ok(mut pool) = self.shared.scratch_pool.lock() {
            pool.push(scratch);
        }
    }
}
