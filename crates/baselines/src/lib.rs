//! # vicinity-baselines
//!
//! Exact and approximate shortest-path baselines that the paper's
//! evaluation (Table 3) and related-work discussion (§4) compare against:
//!
//! * [`bfs`] — plain breadth-first search, the "BFS" column of Table 3.
//! * [`bidirectional_bfs`] — alternating bidirectional BFS, the
//!   "Bidirectional BFS" column (the paper's stand-in for the
//!   state-of-the-art point-to-point algorithm of Goldberg et al. \[4\]).
//! * [`alt`] — A* with landmark lower bounds (ALT), representative of the
//!   goal-directed heuristics in [3, 4].
//! * [`landmark_estimate`] — landmark/sketch-based *approximate* distances,
//!   representative of Orion \[19\] and related sketches [11, 12, 20].
//! * [`apsp`] — all-pairs shortest paths for ground truth on small graphs
//!   and for the §3.2 memory comparison.
//!
//! All point-to-point engines implement the common [`PointToPoint`] trait so
//! the experiment harness can swap them uniformly.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod alt;
pub mod apsp;
pub mod bfs;
pub mod bidirectional_bfs;
pub mod landmark_estimate;

use vicinity_graph::{Distance, NodeId};

/// A point-to-point distance engine.
///
/// Engines may keep per-query scratch buffers internally, so queries take
/// `&mut self`; construction (if any preprocessing is required) happens in
/// the engine's constructor.
pub trait PointToPoint {
    /// Distance between `s` and `t`, or `None` when `t` is unreachable from
    /// `s` (or either endpoint is invalid).
    fn distance(&mut self, s: NodeId, t: NodeId) -> Option<Distance>;

    /// Human-readable name used in experiment output tables.
    fn name(&self) -> &'static str;

    /// Number of graph-exploration operations (node settles / queue pops)
    /// performed by the most recent `distance` call. Used to report the
    /// "work per query" comparison of Table 3.
    fn last_operations(&self) -> u64 {
        0
    }
}

/// A point-to-point engine that can also return the corresponding path.
pub trait PathEngine: PointToPoint {
    /// The shortest path from `s` to `t` (inclusive of both endpoints), or
    /// `None` when unreachable.
    fn path(&mut self, s: NodeId, t: NodeId) -> Option<Vec<NodeId>>;
}

/// Verify that `path` is a valid path from `s` to `t` in `graph` and return
/// its length in hops. Used by tests and by the experiment harness to
/// cross-check every engine against every other.
pub fn validate_path(
    graph: &vicinity_graph::csr::CsrGraph,
    s: NodeId,
    t: NodeId,
    path: &[NodeId],
) -> Option<Distance> {
    if path.is_empty() || path[0] != s || *path.last().expect("non-empty") != t {
        return None;
    }
    for w in path.windows(2) {
        if !graph.has_edge(w[0], w[1]) {
            return None;
        }
    }
    Some((path.len() - 1) as Distance)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vicinity_graph::generators::classic;

    #[test]
    fn validate_path_accepts_valid_paths() {
        let g = classic::path(5);
        assert_eq!(validate_path(&g, 0, 3, &[0, 1, 2, 3]), Some(3));
        assert_eq!(validate_path(&g, 2, 2, &[2]), Some(0));
    }

    #[test]
    fn validate_path_rejects_invalid_paths() {
        let g = classic::path(5);
        // Wrong endpoints.
        assert_eq!(validate_path(&g, 0, 3, &[1, 2, 3]), None);
        assert_eq!(validate_path(&g, 0, 3, &[0, 1, 2]), None);
        // Non-adjacent hop.
        assert_eq!(validate_path(&g, 0, 3, &[0, 2, 3]), None);
        // Empty path.
        assert_eq!(validate_path(&g, 0, 3, &[]), None);
    }
}
