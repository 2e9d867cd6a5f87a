//! # vicinity-server
//!
//! A concurrent, batched query-serving subsystem on top of the vicinity
//! oracle ([`vicinity_core`]).
//!
//! The oracle answers point-to-point queries in microseconds, but a real
//! deployment needs more than a data structure: the index must be shared
//! across worker threads without replication, the <0.1 % of queries whose
//! vicinities do not intersect need a fallback path that never allocates
//! per query, repeated (hot-pair) traffic should be absorbed by a cache,
//! and operators need latency percentiles and answer-method breakdowns.
//! This crate provides exactly that serving layer:
//!
//! * [`QueryService`] — serves one `Arc`-shared oracle build and its graph
//!   through an epoch slot holding the current `DynamicSnapshot`: the
//!   empty-overlay snapshot of the build, which answers through the frozen
//!   oracle directly, until an [`OracleWriter`] publishes an update. Any
//!   number of workers query the same index concurrently with no
//!   synchronisation on the hot path beyond one epoch read per block (the
//!   §5 "parallelise without replicating" question, answered within one
//!   machine).
//! * [`WorkerSession`] — a worker's handle on a pooled worker state: a
//!   reusable, allocation-free bidirectional-BFS scratch for index misses,
//!   the batch staging buffers and the worker's statistics. Sessions and
//!   `serve_batch` calls check states out of the service's pool and
//!   return them, so steady-state serving performs no per-query
//!   allocation at all. Each client thread holds its own session: that is
//!   how serving runs in parallel.
//! * [`QueryService::serve_batch`] — batch execution on the calling
//!   thread through one pooled session, answers in input order.
//! * [`QueryCache`] — a bounded, lock-free, set-associative table over
//!   normalised `(min, max)` pairs caching definitive answers only: one
//!   seqlocked cache line per operation, prefetched a block ahead.
//! * [`ServerStats`] — query counts, busy time, latency histogram
//!   (p50/p99/max), answer-method histogram, cache hit rate and fallback
//!   rate.
//!
//! ## Quick start
//!
//! ```
//! use vicinity_core::{config::Alpha, OracleBuilder};
//! use vicinity_graph::generators::social::SocialGraphConfig;
//! use vicinity_server::QueryService;
//!
//! let graph = SocialGraphConfig::small_test().generate(1);
//! let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT).seed(1).build(&graph);
//!
//! let service = QueryService::builder(oracle, graph)
//!     .cache_capacity(100_000)
//!     .build()
//!     .unwrap();
//!
//! let answers = service.serve_batch(&[(0, 100), (7, 1500)]);
//! assert!(answers.iter().all(|a| a.is_exact() || a.is_unreachable()));
//!
//! // Parallel clients: one session per thread, all sharing the index.
//! std::thread::scope(|scope| {
//!     for client in 0..2u32 {
//!         let mut session = service.session();
//!         scope.spawn(move || session.serve_one(client, 1500));
//!     }
//! });
//! println!("{}", service.stats().report());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod service;
pub mod session;
pub mod stats;

pub use cache::{CachedAnswer, QueryCache};
pub use service::{OracleWriter, QueryService, QueryServiceBuilder, ServerError};
pub use session::{ServedAnswer, WorkerSession};
pub use stats::{LatencyHistogram, ServedMethod, ServerStats};

// Compile-time audit that the serving stack is shareable/movable across
// threads: the service (and the cache inside it) must be `Send + Sync`,
// and sessions must at least be `Send` so they can move into worker
// threads. A future change that introduces non-thread-safe state fails
// here instead of at a distant use site.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    const fn assert_send<T: Send>() {}
    assert_send_sync::<QueryService>();
    assert_send_sync::<QueryCache>();
    assert_send_sync::<ServerStats>();
    assert_send::<WorkerSession>();
    // The writer must be movable to a dedicated update thread.
    assert_send::<OracleWriter>();
};
