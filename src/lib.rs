//! # vicinity
//!
//! Umbrella crate re-exporting the full vicinity-oracle stack: the graph
//! substrate ([`vicinity_graph`]), the vicinity-intersection oracle
//! ([`vicinity_core`]), exact and approximate baselines
//! ([`vicinity_baselines`]), dataset/workload helpers
//! ([`vicinity_datasets`]) and the concurrent query-serving subsystem
//! ([`vicinity_server`]).
//!
//! This is a reproduction of *Shortest Paths in Less Than a Millisecond*
//! (Agarwal, Caesar, Godfrey, Zhao — WOSN/SIGCOMM 2012).
//!
//! ```
//! use vicinity::prelude::*;
//!
//! let graph = SocialGraphConfig::small_test().generate(7);
//! let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT).build(&graph);
//! let answer = oracle.distance(0, 1.min(graph.node_count() as u32 - 1));
//! assert!(answer.is_answered() || answer.is_unreachable() || answer.is_miss());
//! ```

pub use vicinity_baselines as baselines;
pub use vicinity_core as core;
pub use vicinity_datasets as datasets;
pub use vicinity_graph as graph;
pub use vicinity_server as server;

/// Convenience re-exports of the most frequently used items.
pub mod prelude {
    pub use vicinity_baselines::{bfs::BfsEngine, bidirectional_bfs::BidirectionalBfs};
    pub use vicinity_core::{
        config::{Alpha, OracleConfig, SamplingStrategy},
        dynamic::{DynamicOracle, DynamicSnapshot},
        index::VicinityOracle,
        query::{DistanceAnswer, PathAnswer, QueryStats},
        OracleBuilder,
    };
    pub use vicinity_datasets::{
        registry::{Dataset, StandIn},
        workload::PairWorkload,
    };
    pub use vicinity_graph::{csr::CsrGraph, generators::social::SocialGraphConfig, NodeId};
    pub use vicinity_server::{
        OracleWriter, QueryService, ServedAnswer, ServedMethod, ServerStats, WorkerSession,
    };
}
