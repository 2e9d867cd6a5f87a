//! The [`QueryService`]: one oracle version shared by N workers, swapped
//! atomically by epoch when edge updates apply.

use std::sync::{Arc, RwLock};
use std::time::Instant;

use vicinity_core::dynamic::{DynamicOracle, DynamicSnapshot, UpdateError};
use vicinity_core::index::VicinityOracle;
use vicinity_graph::csr::CsrGraph;
use vicinity_graph::fast_hash::FastMap;
use vicinity_graph::NodeId;

use crate::cache::QueryCache;
use crate::session::{ServedAnswer, SharedState, WorkerSession};
use crate::stats::{ServedMethod, ServerStats};

/// Independently locked shards of the result cache.
const CACHE_SHARDS: usize = 16;

/// Errors raised when assembling a [`QueryService`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerError {
    /// The oracle was built over a different graph than the one provided
    /// (node counts disagree), so fallback answers would be meaningless.
    GraphMismatch {
        /// Nodes in the oracle's indexed graph.
        oracle_nodes: usize,
        /// Nodes in the provided graph.
        graph_nodes: usize,
    },
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::GraphMismatch {
                oracle_nodes,
                graph_nodes,
            } => write!(
                f,
                "oracle indexes {oracle_nodes} nodes but the graph has {graph_nodes}; \
                 the service must be built from the same graph the oracle was built over"
            ),
        }
    }
}

impl std::error::Error for ServerError {}

/// Builder for [`QueryService`].
pub struct QueryServiceBuilder {
    oracle: Arc<VicinityOracle>,
    graph: Arc<CsrGraph>,
    threads: usize,
    cache_capacity: usize,
}

impl QueryServiceBuilder {
    fn new(oracle: Arc<VicinityOracle>, graph: Arc<CsrGraph>) -> Self {
        QueryServiceBuilder {
            oracle,
            graph,
            threads: 0,
            cache_capacity: 0,
        }
    }

    /// Worker threads used by [`QueryService::serve_batch`]
    /// (`0` = all available parallelism).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Enable a bounded LRU result cache holding up to `capacity` answers
    /// (`0` disables caching, the default).
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Assemble the service, verifying the oracle and graph agree: an
    /// updatable service that hands out no writer. It serves the oracle's
    /// empty-overlay snapshot (epoch 0) forever, which answers through the
    /// frozen oracle directly; use
    /// [`QueryServiceBuilder::build_updatable`] for live edge updates.
    pub fn build(self) -> Result<QueryService, ServerError> {
        let (service, _) = self.build_updatable()?;
        Ok(service)
    }

    /// Assemble an *updatable* service: returns the service plus an
    /// [`OracleWriter`] owning a [`DynamicOracle`] over the same oracle
    /// and graph. Edge updates applied through the writer (typically from
    /// a dedicated writer thread) publish a new epoch that every worker
    /// session picks up at its next block; epoch-stamped result-cache
    /// entries from older versions stop being served the moment the new
    /// epoch is observed.
    pub fn build_updatable(self) -> Result<(QueryService, OracleWriter), ServerError> {
        let dynamic = DynamicOracle::new(Arc::clone(&self.oracle), Arc::clone(&self.graph))
            .map_err(|e| match e {
                UpdateError::GraphMismatch {
                    oracle_nodes,
                    graph_nodes,
                } => ServerError::GraphMismatch {
                    oracle_nodes,
                    graph_nodes,
                },
                other => unreachable!("construction can only fail on mismatch: {other}"),
            })?;
        let epoch = Arc::new(RwLock::new(Arc::new(dynamic.snapshot())));
        let cache =
            (self.cache_capacity > 0).then(|| QueryCache::new(self.cache_capacity, CACHE_SHARDS));
        let service = QueryService {
            shared: Arc::new(SharedState::new(Arc::clone(&epoch), cache)),
            oracle: self.oracle,
            graph: self.graph,
            threads: self.threads,
        };
        let writer = OracleWriter { dynamic, epoch };
        Ok((service, writer))
    }
}

/// The single-writer handle of an updatable [`QueryService`]: owns the
/// [`DynamicOracle`] and the right to publish epochs. Move it to a writer
/// thread; readers keep serving concurrently and adopt each published
/// version at their next block boundary.
///
/// Publishing order guarantees: an update is fully applied to the dynamic
/// oracle *before* its snapshot is published, and cache entries are
/// validated against the reading session's epoch — so no session observing
/// epoch `E` can ever be served an answer computed (or cached) under an
/// earlier epoch.
pub struct OracleWriter {
    dynamic: DynamicOracle,
    epoch: Arc<RwLock<Arc<DynamicSnapshot>>>,
}

impl OracleWriter {
    /// Insert the undirected edge `{a, b}` and, if it was applied, publish
    /// the new oracle version to the service. Returns whether the edge was
    /// actually inserted (`Ok(false)` = already present, nothing
    /// published).
    pub fn insert_edge(&mut self, a: NodeId, b: NodeId) -> Result<bool, UpdateError> {
        let applied = self.dynamic.insert_edge(a, b)?;
        if applied {
            self.publish();
        }
        Ok(applied)
    }

    /// Remove the undirected edge `{a, b}` and, if it was applied, publish
    /// the new oracle version to the service.
    pub fn remove_edge(&mut self, a: NodeId, b: NodeId) -> Result<bool, UpdateError> {
        let applied = self.dynamic.remove_edge(a, b)?;
        if applied {
            self.publish();
        }
        Ok(applied)
    }

    /// Fold the overlay into a fresh frozen base and publish the compacted
    /// version. Answers (and the epoch id, hence cached entries) are
    /// unchanged; subsequent snapshots get cheaper.
    pub fn compact(&mut self) {
        self.dynamic.compact();
        self.publish();
    }

    /// Publish the writer's current state as the service's epoch.
    fn publish(&mut self) {
        let snapshot = self.dynamic.snapshot();
        *self.epoch.write().expect("epoch slot poisoned") = Arc::new(snapshot);
    }

    /// The wrapped dynamic oracle (e.g. for direct queries on the writer
    /// thread or overlay introspection).
    pub fn oracle(&self) -> &DynamicOracle {
        &self.dynamic
    }

    /// The epoch id readers currently observe from this writer's updates.
    pub fn version(&self) -> u64 {
        self.dynamic.version()
    }
}

/// A concurrent, batched query-serving frontend over one immutable
/// [`VicinityOracle`] build.
///
/// §5 of the paper lists parallelisation as an open challenge: "shortest
/// path queries are notoriously hard to parallelize, requiring either
/// large memory at each machine (to replicate the input network across
/// each machine) or large amounts of data transfer. Is it possible to
/// parallelize our technique without replicating the data structure?"
/// Within one machine this type is the answer: the index is immutable
/// after construction, so the oracle and graph live behind `Arc`s and
/// any number of worker sessions share them without replication and
/// without synchronisation on the hot path. `serve_batch` shards a batch
/// over scoped threads; each session runs its shard through the batched
/// prefetch pipeline and resolves misses with its own O(n) search scratch
/// (never a copy of the index) through
/// [`vicinity_core::fallback::fallback_distance`]. Repeated pairs are
/// served by a sharded LRU result cache, and every query feeds the
/// latency/method/work statistics of the worker state that served it;
/// [`QueryService::stats`] folds them.
///
/// ```
/// use std::sync::Arc;
/// use vicinity_core::{config::Alpha, OracleBuilder};
/// use vicinity_graph::generators::social::SocialGraphConfig;
/// use vicinity_server::QueryService;
///
/// let graph = SocialGraphConfig::small_test().generate(7);
/// let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT).seed(7).build(&graph);
/// let service = QueryService::builder(oracle, graph)
///     .threads(4)
///     .cache_capacity(10_000)
///     .build()
///     .unwrap();
/// let answers = service.serve_batch(&[(0, 42), (1, 99), (42, 0)]);
/// assert_eq!(answers.len(), 3);
/// assert!(answers.iter().all(|a| a.is_exact() || a.is_unreachable()));
/// ```
pub struct QueryService {
    shared: Arc<SharedState>,
    /// Construction-time handles, kept for [`QueryService::oracle`] /
    /// [`QueryService::graph`]. For an updatable service these are the
    /// *initial* base; the currently served version lives in the epoch
    /// slot.
    oracle: Arc<VicinityOracle>,
    graph: Arc<CsrGraph>,
    threads: usize,
}

impl std::fmt::Debug for QueryService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryService")
            .field("nodes", &self.oracle.node_count())
            .field("epoch", &self.epoch_id())
            .field("threads", &self.threads)
            .field("cache", &self.shared.cache.is_some())
            .finish()
    }
}

impl QueryService {
    /// Start building a service from an owned oracle and graph.
    pub fn builder(oracle: VicinityOracle, graph: CsrGraph) -> QueryServiceBuilder {
        QueryServiceBuilder::new(Arc::new(oracle), Arc::new(graph))
    }

    /// Start building a service from already-shared handles (e.g. when the
    /// caller keeps its own `Arc` to the graph for other subsystems).
    pub fn builder_from_arcs(
        oracle: Arc<VicinityOracle>,
        graph: Arc<CsrGraph>,
    ) -> QueryServiceBuilder {
        QueryServiceBuilder::new(oracle, graph)
    }

    /// The construction-time oracle build. For an updatable service this
    /// is the initial base version; live traffic is answered from the
    /// current epoch (see [`QueryService::epoch_id`]).
    pub fn oracle(&self) -> &Arc<VicinityOracle> {
        &self.oracle
    }

    /// The construction-time graph (initial base for updatable services).
    pub fn graph(&self) -> &Arc<CsrGraph> {
        &self.graph
    }

    /// The epoch id (oracle update version) currently being served.
    pub fn epoch_id(&self) -> u64 {
        self.shared.current_epoch().version()
    }

    /// Number of answers currently held by the result cache (0 when caching
    /// is disabled).
    pub fn cached_answers(&self) -> usize {
        self.shared.cache.as_ref().map_or(0, |c| c.len())
    }

    /// Effective worker-thread count for a batch of `work_items` queries.
    pub fn effective_threads(&self, work_items: usize) -> usize {
        vicinity_core::parallel::resolve_worker_threads(self.threads, work_items)
    }

    /// Open a worker session. The session is `Send` and lock-free on its
    /// hot path; create one per worker thread and feed it queries with
    /// [`WorkerSession::serve_one`] or [`WorkerSession::serve_into`]. It
    /// checks a worker state (search scratch, staging buffers, statistics)
    /// out of the service's pool and returns it when dropped, so
    /// [`QueryService::stats`] counts its queries from then on.
    pub fn session(&self) -> WorkerSession {
        WorkerSession::new(Arc::clone(&self.shared))
    }

    /// Answer a batch of queries, sharded over the configured number of
    /// worker threads. Answers are returned in input order.
    ///
    /// With one effective worker the batch goes straight to
    /// [`WorkerSession::serve_into`] on a pooled worker state, so the whole
    /// path is batched end to end: duplicate collapsing across the batch,
    /// cache peel-off, the oracle's software-prefetch pipeline, and
    /// fallback only for true misses. Once warmed, such a call allocates
    /// only the vector it returns. With more workers, one dedup pass runs
    /// before sharding and each worker serves its share of the unique
    /// pairs. Latency samples recorded by batch serving are
    /// batch-amortised (see `crate::session`); the call's wall time and
    /// its statistics stay in the pooled states until
    /// [`QueryService::stats`] folds them.
    pub fn serve_batch(&self, pairs: &[(NodeId, NodeId)]) -> Vec<ServedAnswer> {
        if pairs.is_empty() {
            return Vec::new();
        }
        let wall_start = Instant::now();
        let mut lead = self.session();
        let mut answers = Vec::new();
        if self.effective_threads(pairs.len()) == 1 {
            lead.serve_into(pairs, &mut answers);
        } else {
            answers = self.serve_sharded(&mut lead, pairs);
        }
        lead.stats_mut().wall_time += wall_start.elapsed();
        answers
    }

    /// The multi-worker path of [`QueryService::serve_batch`]. The batch is
    /// deduplicated once before sharding, cache or no cache: every
    /// repeated (normalised) pair resolves once, and the repeats are
    /// filled in afterwards and accounted on `lead`. With a result cache
    /// the repeats are reported as cache-served — which they are, the
    /// write-back having completed before the fill; without one they
    /// adopt the first occurrence's answer and method verbatim. Either
    /// way duplicate handling is a *deterministic* property of a batch
    /// instead of a cross-worker timing race, and no two workers resolve
    /// the same pair.
    fn serve_sharded(
        &self,
        lead: &mut WorkerSession,
        pairs: &[(NodeId, NodeId)],
    ) -> Vec<ServedAnswer> {
        let mut seen: FastMap<u64, u32> =
            FastMap::with_capacity_and_hasher(pairs.len(), Default::default());
        let mut unique: Vec<(NodeId, NodeId)> = Vec::with_capacity(pairs.len());
        let mut slots: Vec<u32> = Vec::with_capacity(pairs.len());
        for &(s, t) in pairs {
            let next = unique.len() as u32;
            let slot = *seen.entry(QueryCache::key(s, t)).or_insert(next);
            if slot == next {
                unique.push((s, t));
            }
            slots.push(slot);
        }

        let mut unique_answers = Vec::with_capacity(unique.len());
        let threads = self.effective_threads(unique.len());
        if threads == 1 {
            lead.serve_into(&unique, &mut unique_answers);
        } else {
            let chunk_size = unique.len().div_ceil(threads);
            std::thread::scope(|scope| {
                let handles: Vec<_> = unique
                    .chunks(chunk_size)
                    .map(|chunk| {
                        let mut session = self.session();
                        scope.spawn(move || {
                            let mut chunk_answers = Vec::new();
                            session.serve_into(chunk, &mut chunk_answers);
                            chunk_answers
                        })
                    })
                    .collect();
                for handle in handles {
                    unique_answers.extend(handle.join().expect("serving worker panicked"));
                }
            });
        }
        if unique.len() == pairs.len() {
            return unique_answers;
        }

        // Slots are handed out in order of first occurrence, so a slot
        // below `firsts` is a repeat. Repeats cost only the fill-in: no
        // latency sample.
        let report_cache = self.shared.cache.is_some();
        let mut answers = Vec::with_capacity(pairs.len());
        let mut firsts = 0;
        for &slot in &slots {
            let resolved = unique_answers[slot as usize];
            if slot == firsts {
                firsts += 1;
                answers.push(resolved);
                continue;
            }
            let answer = match resolved {
                ServedAnswer::Exact { distance, .. } if report_cache => ServedAnswer::Exact {
                    distance,
                    method: ServedMethod::Cache,
                },
                other => other,
            };
            lead.stats_mut().record(answer.served_method(), None);
            answers.push(answer);
        }
        answers
    }

    /// Aggregate serving statistics, folded on read from the service's
    /// pooled worker states: every completed `serve_batch` call and every
    /// dropped session since the last [`QueryService::reset_stats`].
    /// Sessions still open are not counted yet.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// Reset the aggregate statistics (e.g. after a warm-up phase): zeroes
    /// the statistics of every pooled worker state. A session open across
    /// the reset keeps its earlier counts and brings them back when it
    /// drops.
    pub fn reset_stats(&self) {
        self.shared.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::ServedMethod;
    use rand::SeedableRng;
    use vicinity_baselines::bfs::BfsEngine;
    use vicinity_baselines::PointToPoint;
    use vicinity_core::config::Alpha;
    use vicinity_core::OracleBuilder;
    use vicinity_graph::algo::sampling::random_pairs;
    use vicinity_graph::builder::GraphBuilder;
    use vicinity_graph::generators::{classic, social::SocialGraphConfig};

    fn small_service(seed: u64, cache: usize, threads: usize) -> QueryService {
        let graph = SocialGraphConfig::small_test().generate(seed);
        let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT)
            .seed(seed)
            .build(&graph);
        QueryService::builder(oracle, graph)
            .threads(threads)
            .cache_capacity(cache)
            .build()
            .expect("graph and oracle agree")
    }

    #[test]
    fn batch_answers_match_reference_bfs() {
        let service = small_service(21, 0, 2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let pairs = random_pairs(service.graph(), 400, &mut rng);
        let answers = service.serve_batch(&pairs);
        assert_eq!(answers.len(), pairs.len());
        let mut bfs = BfsEngine::new(service.graph());
        for (&(s, t), answer) in pairs.iter().zip(&answers) {
            assert_eq!(answer.distance(), bfs.distance(s, t), "pair ({s},{t})");
            assert!(answer.is_exact() || answer.is_unreachable());
        }
        let stats = service.stats();
        assert_eq!(stats.queries, 400);
        assert!(stats.throughput_qps() > 0.0);
        assert_eq!(
            stats.misses, 0,
            "fallback is enabled, no query goes unanswered"
        );
        // One search per unique miss; a duplicate adopts its answer.
        assert!(stats.fallback_searches > 0);
        assert!(stats.fallback_searches <= stats.fallbacks + stats.unreachable);
        assert!(stats.fallback_arcs >= stats.fallback_pops);
    }

    #[test]
    fn thread_count_does_not_change_answers() {
        let graph = SocialGraphConfig::small_test().generate(22);
        let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT)
            .seed(22)
            .build(&graph);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let pairs = random_pairs(&graph, 300, &mut rng);

        let single = QueryService::builder(oracle.clone(), graph.clone())
            .threads(1)
            .build()
            .unwrap()
            .serve_batch(&pairs);
        let four = QueryService::builder(oracle, graph)
            .threads(4)
            .build()
            .unwrap()
            .serve_batch(&pairs);
        assert_eq!(
            single, four,
            "answers must be order-stable and thread-invariant"
        );
    }

    #[test]
    fn cache_serves_repeated_pairs() {
        let service = small_service(23, 4096, 1);
        let pairs: Vec<(NodeId, NodeId)> = vec![(1, 900), (2, 800), (900, 1), (1, 900)];
        let answers = service.serve_batch(&pairs);
        // (900,1) normalises to the same key as (1,900): second and third
        // occurrences must come from the cache with identical distances.
        assert_eq!(answers[0].distance(), answers[2].distance());
        assert_eq!(answers[0].distance(), answers[3].distance());
        assert_eq!(answers[2].method(), Some(ServedMethod::Cache));
        assert_eq!(answers[3].method(), Some(ServedMethod::Cache));
        let stats = service.stats();
        assert_eq!(stats.cache_hits, 2);
        assert!((stats.cache_hit_rate() - 0.5).abs() < 1e-12);
        assert!(service.cached_answers() >= 2);
    }

    #[test]
    fn cacheless_batches_do_not_fake_cache_hits() {
        // Without a result cache there is nothing to serve repeats from:
        // every occurrence must resolve through the index (exactly like a
        // serve_one loop) and no answer may claim cache provenance.
        let service = small_service(28, 0, 1);
        let pairs: Vec<(NodeId, NodeId)> = vec![(1, 900), (2, 800), (900, 1), (1, 900)];
        let answers = service.serve_batch(&pairs);
        assert_eq!(answers[0].distance(), answers[2].distance());
        assert_eq!(answers[0].distance(), answers[3].distance());
        assert!(answers
            .iter()
            .all(|a| a.method() != Some(ServedMethod::Cache)));
        let stats = service.stats();
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.queries, 4);
    }

    #[test]
    fn unreachable_pairs_are_definitive() {
        let mut b = GraphBuilder::with_node_count(10);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(5, 6);
        let graph = b.build_undirected();
        let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT)
            .seed(4)
            .build(&graph);
        let service = QueryService::builder(oracle, graph)
            .cache_capacity(64)
            .build()
            .unwrap();
        let answers = service.serve_batch(&[(0, 6), (0, 6), (2, 0)]);
        assert!(answers[0].is_unreachable());
        assert!(
            answers[1].is_unreachable(),
            "second ask may come from cache, still unreachable"
        );
        assert_eq!(answers[2].distance(), Some(2));
    }

    #[test]
    fn builder_rejects_mismatched_graph() {
        let graph = classic::path(10);
        let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT).build(&graph);
        let other = classic::path(11);
        let err = QueryService::builder(oracle, other).build().unwrap_err();
        assert_eq!(
            err,
            ServerError::GraphMismatch {
                oracle_nodes: 10,
                graph_nodes: 11
            }
        );
        assert!(err.to_string().contains("10"));
    }

    #[test]
    fn sessions_pool_scratch_and_merge_stats() {
        let service = small_service(24, 0, 1);
        {
            let mut session = service.session();
            session.serve_one(0, 500);
            session.serve_one(3, 700);
            assert_eq!(session.stats().queries, 2);
            // An open session's queries are not folded in yet.
            assert_eq!(service.stats().queries, 0);
        } // drop returns the state, statistics included
        assert_eq!(service.stats().queries, 2);
        // The next session reuses the pooled state: its scratch, and its
        // statistics, which keep counting.
        {
            let mut session = service.session();
            session.serve_one(9, 100);
            assert_eq!(session.stats().queries, 3);
        }
        let stats = service.stats();
        assert_eq!(stats.queries, 3);
        assert!(stats.latency.count() > 0);
        service.reset_stats();
        assert_eq!(service.stats().queries, 0);
    }

    #[test]
    fn stats_count_completed_batches_while_a_session_is_open() {
        for threads in [1, 2] {
            let service = small_service(24, 0, threads);
            let mut open = service.session();
            open.serve_one(0, 500);
            let batch = [(1, 900), (2, 800), (1, 900), (3, 700)];
            service.serve_batch(&batch);
            service.serve_batch(&batch[..2]);
            let stats = service.stats();
            assert_eq!(stats.queries, 6, "threads {threads}");
            assert!(stats.wall_time > std::time::Duration::ZERO);

            // The reset clears the pooled states: the next batch is all
            // that counts.
            service.reset_stats();
            let cleared = service.stats();
            assert_eq!(cleared.queries, 0);
            assert_eq!(cleared.index_work, Default::default());
            assert_eq!(cleared.wall_time, std::time::Duration::ZERO);
            service.serve_batch(&batch[..3]);
            assert_eq!(service.stats().queries, 3, "threads {threads}");

            // The open session brings its own count back when it drops.
            drop(open);
            assert_eq!(service.stats().queries, 4, "threads {threads}");
        }
    }

    #[test]
    fn repeats_across_blocks_resolve_once() {
        // More than one 64-pair block, and a pair of the first block
        // repeated (reversed) in the second: the repeat must adopt the
        // first occurrence's answer and method, and the index must see
        // the pair once, on one worker or sharded.
        let graph = SocialGraphConfig::small_test().generate(33);
        let mut rng = rand::rngs::StdRng::seed_from_u64(33);
        let mut keys = std::collections::HashSet::new();
        let unique: Vec<(NodeId, NodeId)> = random_pairs(&graph, 120, &mut rng)
            .into_iter()
            .filter(|&(s, t)| keys.insert(QueryCache::key(s, t)))
            .take(100)
            .collect();
        assert_eq!(unique.len(), 100);
        let (s, t) = unique[3];
        let mut pairs = unique.clone();
        pairs.insert(90, (t, s));

        let reference = small_service(33, 0, 1);
        let unique_answers = reference.serve_batch(&unique);
        for threads in [1, 2] {
            let service = small_service(33, 0, threads);
            let answers = service.serve_batch(&pairs);
            assert_eq!(answers[90], answers[3], "threads {threads}");
            assert_eq!(answers[3], unique_answers[3], "threads {threads}");
            let stats = service.stats();
            assert_eq!(stats.queries, 101);
            assert_eq!(
                stats.index_work,
                reference.stats().index_work,
                "threads {threads}: the repeat must not pay index work"
            );
            assert_eq!(stats.fallback_searches, reference.stats().fallback_searches);
        }
    }

    #[test]
    fn served_index_work_equals_the_frozen_oracles() {
        // A build() service answers through its empty-overlay snapshot:
        // over more than one block of unique pairs, the index work it
        // reports must be exactly what the frozen oracle does on the same
        // pairs, and every answer must be exact.
        let graph = SocialGraphConfig::small_test().generate(34);
        let mut rng = rand::rngs::StdRng::seed_from_u64(34);
        let mut keys = std::collections::HashSet::new();
        let pairs: Vec<(NodeId, NodeId)> = random_pairs(&graph, 220, &mut rng)
            .into_iter()
            .filter(|&(s, t)| keys.insert(QueryCache::key(s, t)))
            .take(200)
            .collect();
        assert_eq!(pairs.len(), 200);
        for threads in [1, 2] {
            let service = small_service(34, 0, threads);
            let answers = service.serve_batch(&pairs);
            let mut expected = vicinity_core::QueryStats::default();
            service
                .oracle()
                .distance_batch_accumulate(&pairs, &mut Vec::new(), &mut expected);
            assert_eq!(service.stats().index_work, expected, "threads {threads}");
            let mut bfs = BfsEngine::new(service.graph());
            for (&(s, t), answer) in pairs.iter().zip(&answers) {
                assert_eq!(answer.distance(), bfs.distance(s, t), "pair ({s},{t})");
            }
        }
    }

    #[test]
    fn out_of_range_ids_are_misses_not_unreachable() {
        let service = small_service(27, 64, 1);
        let bogus = 10_000_000u32;
        let answers = service.serve_batch(&[(0, bogus), (bogus, 0), (bogus, bogus)]);
        assert!(
            answers.iter().all(|a| a.is_miss()),
            "unknown ids must be misses, got {answers:?}"
        );
        assert_eq!(
            service.cached_answers(),
            0,
            "bad requests must not be cached"
        );
        assert_eq!(service.stats().misses, 3);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let service = small_service(25, 0, 4);
        assert!(service.serve_batch(&[]).is_empty());
        assert_eq!(service.stats().queries, 0);
    }

    #[test]
    fn cacheless_serve_batch_dedups_duplicates() {
        // The dedup satellite: without a result cache, duplicate-heavy
        // batches must still resolve each unique pair once. Pin it by
        // comparing index work against an identical service fed only the
        // unique pairs — and pin the cached configuration alongside.
        let duplicate_heavy: Vec<(NodeId, NodeId)> =
            vec![(1, 900), (1, 900), (900, 1), (2, 800), (1, 900), (2, 800)];
        let unique: Vec<(NodeId, NodeId)> = vec![(1, 900), (2, 800)];

        let cacheless = small_service(31, 0, 1);
        let reference = small_service(31, 0, 1);
        let answers = cacheless.serve_batch(&duplicate_heavy);
        let unique_answers = reference.serve_batch(&unique);
        // Duplicates adopt the first occurrence's answer *and method*
        // verbatim — no fake cache provenance.
        assert_eq!(answers[0], unique_answers[0]);
        assert_eq!(answers[1], answers[0]);
        assert_eq!(answers[2], answers[0]);
        assert_eq!(answers[3], unique_answers[1]);
        assert_eq!(answers[4], answers[0]);
        assert_eq!(answers[5], answers[3]);
        assert!(answers
            .iter()
            .all(|a| a.method() != Some(ServedMethod::Cache)));
        let stats = cacheless.stats();
        assert_eq!(stats.queries, 6, "every occurrence is accounted");
        assert_eq!(
            stats.index_work,
            reference.stats().index_work,
            "duplicates must not pay index work beyond the unique set"
        );

        // Cached configuration: same answers, duplicates reported as
        // cache-served.
        let cached = small_service(31, 1024, 1);
        let cached_answers = cached.serve_batch(&duplicate_heavy);
        assert_eq!(
            cached_answers
                .iter()
                .map(|a| a.distance())
                .collect::<Vec<_>>(),
            answers.iter().map(|a| a.distance()).collect::<Vec<_>>()
        );
        assert_eq!(cached_answers[1].method(), Some(ServedMethod::Cache));
        assert_eq!(cached.stats().index_work, reference.stats().index_work);
    }

    #[test]
    fn updatable_service_swaps_epochs_and_invalidates_cache() {
        // A long path: distance(0, 9) = 9. Insert a shortcut, serve, then
        // remove it again — each published epoch must be reflected
        // immediately, and the epoch-stamped cache must never serve a
        // pre-update answer (this is exactly the workload that would leak
        // a stale cached 9 after the insert, or a stale 1 after the
        // removal).
        let graph = classic::path(10);
        let oracle = OracleBuilder::new(Alpha::new(2.0).unwrap())
            .seed(5)
            .build(&graph);
        let (service, mut writer) = QueryService::builder(oracle, graph)
            .threads(1)
            .cache_capacity(1024)
            .build_updatable()
            .unwrap();

        let answers = service.serve_batch(&[(0, 9), (0, 9)]);
        assert_eq!(answers[0].distance(), Some(9));
        assert_eq!(answers[1].distance(), Some(9));
        assert_eq!(service.epoch_id(), 0);

        assert!(writer.insert_edge(0, 9).unwrap());
        assert_eq!(service.epoch_id(), 1);
        let answers = service.serve_batch(&[(0, 9), (1, 9)]);
        assert_eq!(
            answers[0].distance(),
            Some(1),
            "post-insert epoch must not serve the cached pre-insert answer"
        );
        assert_eq!(answers[1].distance(), Some(2));

        assert!(writer.remove_edge(0, 9).unwrap());
        assert_eq!(service.epoch_id(), 2);
        let answers = service.serve_batch(&[(0, 9)]);
        assert_eq!(
            answers[0].distance(),
            Some(9),
            "post-removal epoch must not serve the cached shortcut answer"
        );

        // Compaction keeps the epoch (answers unchanged ⇒ cached entries
        // stay valid) and keeps serving correct.
        writer.compact();
        assert_eq!(service.epoch_id(), 2);
        assert_eq!(writer.oracle().overlay_len(), 0);
        assert_eq!(service.serve_batch(&[(0, 9)])[0].distance(), Some(9));
    }

    #[test]
    fn updatable_service_with_concurrent_readers() {
        // Readers hammer the service from worker threads while the writer
        // applies updates; every answer must be exact for *some* published
        // graph version — concretely, the only distances (0, n-1) can take
        // on a path graph with an optional shortcut are 1 and n-1.
        let graph = classic::path(64);
        let oracle = OracleBuilder::new(Alpha::new(2.0).unwrap())
            .seed(6)
            .build(&graph);
        let (service, mut writer) = QueryService::builder(oracle, graph)
            .threads(2)
            .cache_capacity(256)
            .build_updatable()
            .unwrap();
        std::thread::scope(|scope| {
            let service = &service;
            let reader = scope.spawn(move || {
                for _ in 0..200 {
                    let answers = service.serve_batch(&[(0, 63), (5, 40), (0, 63)]);
                    for (i, answer) in answers.iter().enumerate() {
                        let d = answer.distance().expect("path graph is connected");
                        // Per-pair bounds, so an answer swapped between
                        // slots (or a stale cached value) cannot pass:
                        // (0,63) is 63 or 1 (via the shortcut); (5,40) is
                        // 35 or 29 (5→0, shortcut, 63→40).
                        let valid = match i {
                            1 => d == 35 || d == 29,
                            _ => d == 63 || d == 1,
                        };
                        assert!(valid, "impossible distance {d} served for pair {i}");
                    }
                }
            });
            for _ in 0..50 {
                assert!(writer.insert_edge(0, 63).unwrap());
                assert!(writer.remove_edge(0, 63).unwrap());
            }
            reader.join().expect("reader panicked");
        });
        assert_eq!(writer.version(), 100);
        assert_eq!(service.epoch_id(), 100);
        // Final state: the shortcut is removed again.
        assert_eq!(service.serve_batch(&[(0, 63)])[0].distance(), Some(63));
    }

    #[test]
    fn effective_threads_clamps_to_work() {
        let service = small_service(26, 0, 8);
        assert_eq!(service.effective_threads(3), 3);
        assert_eq!(service.effective_threads(100), 8);
        assert_eq!(service.effective_threads(0), 1);
    }
}
