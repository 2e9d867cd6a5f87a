//! # vicinity-graph
//!
//! Graph substrate for the vicinity shortest-path oracle: compressed
//! sparse-row (CSR) storage, graph builders, random-graph generators,
//! edge-list I/O and the traversal / statistics algorithms the oracle and
//! the experiment harness rely on.
//!
//! The crate is intentionally self-contained — the paper's data structures
//! only need adjacency iteration, degrees and breadth-first style
//! traversals, so everything is built on a compact [`csr::CsrGraph`] with
//! `u32` node identifiers.
//!
//! ## Quick tour
//!
//! ```
//! use vicinity_graph::builder::GraphBuilder;
//! use vicinity_graph::algo::bfs;
//!
//! // Build a small undirected graph: a 5-cycle.
//! let mut b = GraphBuilder::new();
//! for i in 0u32..5 {
//!     b.add_edge(i, (i + 1) % 5);
//! }
//! let g = b.build_undirected();
//!
//! assert_eq!(g.node_count(), 5);
//! assert_eq!(g.edge_count(), 5);
//! let dist = bfs::bfs_distances(&g, 0);
//! assert_eq!(dist[2], 2);
//! assert_eq!(dist[3], 2);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod algo;
pub mod builder;
pub mod csr;
pub mod fast_hash;
pub mod generators;
pub mod io;
pub mod properties;

/// Identifier of a node. Graphs are limited to `u32::MAX - 1` nodes which is
/// ample for the social networks targeted by the paper (the largest dataset,
/// LiveJournal, has ~4.85 million nodes).
pub type NodeId = u32;

/// Length of a path: its number of hops (every edge has length 1).
pub type Distance = u32;

/// Sentinel distance meaning "unreachable" / "not yet visited".
pub const INFINITY: Distance = Distance::MAX;

/// Sentinel node id meaning "no node".
pub const INVALID_NODE: NodeId = NodeId::MAX;

/// Read-only adjacency access — the minimal graph surface the traversal
/// algorithms need.
///
/// [`csr::CsrGraph`] is the canonical (frozen) implementation; dynamic
/// overlays that patch a frozen graph's adjacency lists in memory implement
/// the same trait so BFS scratches and fallback searches run unchanged on
/// either. Implementations must present each node's neighbours as a slice
/// (traversals rely on slice iteration being allocation-free) and should
/// keep the lists sorted by node id, matching what the canonical builder
/// produces, so traversal tie-breaking is representation-independent.
pub trait Adjacency {
    /// Number of nodes; ids are dense in `0..node_count()`.
    fn node_count(&self) -> usize;

    /// Neighbours of `u` as a slice. May panic when `u` is out of range
    /// (callers bounds-check through [`Adjacency::node_count`]).
    fn neighbors(&self, u: NodeId) -> &[NodeId];

    /// A finite upper bound on any shortest-path length: `n - 1` hops.
    fn hop_bound(&self) -> Distance {
        self.node_count().saturating_sub(1) as Distance
    }
}

/// Errors produced by the graph substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge referenced a node id outside the declared node range.
    NodeOutOfRange {
        /// The offending node id.
        node: NodeId,
        /// Number of nodes in the graph.
        node_count: usize,
    },
    /// A parse error while reading an edge list, with 1-based line number.
    Parse {
        /// Line at which the error occurred (1-based).
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// An I/O error (message form, to keep the error type `Clone + Eq`).
    Io(String),
    /// A binary-format decoding error.
    Decode(String),
    /// The requested operation needs a non-empty graph.
    EmptyGraph,
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, node_count } => {
                write!(
                    f,
                    "node id {node} out of range for graph with {node_count} nodes"
                )
            }
            GraphError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            GraphError::Io(msg) => write!(f, "i/o error: {msg}"),
            GraphError::Decode(msg) => write!(f, "decode error: {msg}"),
            GraphError::EmptyGraph => write!(f, "operation requires a non-empty graph"),
        }
    }
}

impl std::error::Error for GraphError {}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e.to_string())
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, GraphError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = GraphError::NodeOutOfRange {
            node: 7,
            node_count: 5,
        };
        assert!(e.to_string().contains('7'));
        assert!(e.to_string().contains('5'));

        let e = GraphError::Parse {
            line: 3,
            message: "bad token".into(),
        };
        assert!(e.to_string().contains("line 3"));

        let e = GraphError::Io("disk on fire".into());
        assert!(e.to_string().contains("disk on fire"));

        let e = GraphError::Decode("truncated".into());
        assert!(e.to_string().contains("truncated"));

        assert!(GraphError::EmptyGraph.to_string().contains("non-empty"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "missing");
        let e: GraphError = io.into();
        assert!(matches!(e, GraphError::Io(_)));
    }

    #[test]
    fn sentinels_are_extreme_values() {
        assert_eq!(INFINITY, u32::MAX);
        assert_eq!(INVALID_NODE, u32::MAX);
    }
}
