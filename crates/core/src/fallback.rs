//! Fallbacks for queries the oracle cannot answer from its index.
//!
//! Footnote 1 of the paper: "For source-destination pairs whose vicinities
//! do not intersect, it is possible to combine our technique with those for
//! computing exact \[3,4\] or approximate \[5,12,17,20\] paths." This module
//! provides both combinations:
//!
//! * [`fallback_distance`] — the exact miss path: a bidirectional BFS
//!   ([`BidirBfsScratch`], from the graph crate) seeded with both
//!   endpoints' stored vicinities and started at the walk through either
//!   endpoint's nearest landmark, `r_s + d(ℓ(s), t)`. The index itself
//!   answers pairs whose walk is provably shortest
//!   ([`crate::query::AnswerMethod::LandmarkWalk`]), so the search sees
//!   only the residual misses: disjoint vicinities and a walk longer than
//!   `r_s + r_t + 1`. Starting at the walk, it never expands past it, and
//!   the level that could only match the walk is read, not expanded.
//!   Behind almost every miss the walk is `r_s + r_t + 2` long, so the
//!   whole search reads the neighbour lists of one boundary shell (the one
//!   with fewer arcs) until an edge reaches the other shell. It is the one
//!   place the seeding and bounding decisions are made; the serving layer,
//!   [`QueryWithFallback`] and the examples all resolve misses through it.
//! * Landmark-estimate fallback — an *approximate* answer computed from the
//!   landmark rows the oracle already stores: `min_{ℓ ∈ L} d(s,ℓ) + d(ℓ,t)`
//!   is an upper bound on the true distance at the cost of |L| row probes.

use vicinity_graph::algo::bfs::BidirBfsScratch;
use vicinity_graph::csr::CsrGraph;
use vicinity_graph::{Adjacency, Distance, NodeId};

use crate::index::VicinityOracle;
use crate::query::{landmark_bounds, DistanceAnswer, QueryIndex};

/// Exact distance between `s` and `t` — the answer to a query the index
/// missed — or `None` when they are disconnected (or either id is out of
/// range).
///
/// `graph` must be the graph `index` describes: the build graph of a
/// frozen oracle, or the overlay view of a dynamic one. When both
/// endpoints have non-empty vicinities the search is *seeded* with them:
/// the index already holds each endpoint's complete distance ball with
/// exact distances (the seeding contract), so the search stamps the ball
/// interiors and resumes from the ball boundaries. Under the dynamic
/// overlay the balls consulted are the patched ones, so seeding stays
/// exact across updates. Balls that overlap, which a pair the index could
/// answer presents, are handled as meeting candidates. The seeded search
/// starts with the length of the walk through `ℓ(s)` or `ℓ(t)` (the same
/// walk the index reads, [`crate::query`]'s `landmark_bounds`) as its
/// best distance. The index already answers every miss whose walk has
/// length `r_s + r_t + 1`, so a search behind a real miss starts from a
/// longer walk and looks for a bypass; called on such a pair anyway, it
/// does no work past the radii, answers the walk's length and leaves
/// `scratch.last_meeting()` at `None`. A walk of `r_s + r_t + 2`, the
/// usual case, leaves one question: does an edge join the two boundary
/// shells? The search reads the lists of the shell with fewer arcs, stops
/// at the first such edge with `r_s + r_t + 1`, and otherwise answers the
/// walk, stamping nothing new. Longer walks expand full levels, still
/// from the side with fewer arcs, until the first meeting. When either
/// vicinity is empty, a plain unbounded search starts from the endpoints
/// themselves.
pub fn fallback_distance<Q: QueryIndex, G: Adjacency>(
    index: &Q,
    graph: &G,
    scratch: &mut BidirBfsScratch,
    s: NodeId,
    t: NodeId,
) -> Option<Distance> {
    match (index.vicinity_of(s), index.vicinity_of(t)) {
        (Some(vs), Some(vt)) if !vs.is_empty() && !vt.is_empty() => {
            let upper = landmark_bounds(index, &vs, &vt, s, t).walk;
            scratch.distance_seeded_within(
                graph,
                vs.iter(),
                vs.radius(),
                vt.iter(),
                vt.radius(),
                upper,
            )
        }
        _ => scratch.distance(graph, s, t),
    }
}

/// Outcome of a query answered through [`QueryWithFallback`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolvedDistance {
    /// Answered exactly by the oracle's index.
    OracleExact(Distance),
    /// Answered exactly by the fallback search.
    FallbackExact(Distance),
    /// The endpoints are not connected.
    Unreachable,
}

impl ResolvedDistance {
    /// The numeric distance, when one is available.
    pub fn value(&self) -> Option<Distance> {
        match self {
            ResolvedDistance::OracleExact(d) | ResolvedDistance::FallbackExact(d) => Some(*d),
            ResolvedDistance::Unreachable => None,
        }
    }

    /// True when a distance was found (by the oracle or the fallback).
    pub fn is_exact(&self) -> bool {
        !matches!(self, ResolvedDistance::Unreachable)
    }
}

/// Combines an oracle with the exact fallback so every query gets an
/// answer; a thin wrapper over [`fallback_distance`] with its own scratch.
pub struct QueryWithFallback<'o, 'g> {
    oracle: &'o VicinityOracle,
    graph: &'g CsrGraph,
    scratch: BidirBfsScratch,
    /// Count of queries answered by the oracle index.
    pub oracle_hits: u64,
    /// Count of queries that needed the fallback search.
    pub fallback_hits: u64,
}

impl<'o, 'g> QueryWithFallback<'o, 'g> {
    /// Create a combined engine. The graph must be the one the oracle was
    /// built over.
    pub fn new(oracle: &'o VicinityOracle, graph: &'g CsrGraph) -> Self {
        QueryWithFallback {
            oracle,
            graph,
            scratch: BidirBfsScratch::with_node_capacity(graph.node_count()),
            oracle_hits: 0,
            fallback_hits: 0,
        }
    }

    /// Exact distance for every pair: the oracle answers when it can, the
    /// seeded bidirectional-BFS fallback otherwise.
    pub fn distance(&mut self, s: NodeId, t: NodeId) -> ResolvedDistance {
        match self.oracle.distance(s, t) {
            DistanceAnswer::Exact { distance, .. } => {
                self.oracle_hits += 1;
                ResolvedDistance::OracleExact(distance)
            }
            DistanceAnswer::Unreachable => {
                self.oracle_hits += 1;
                ResolvedDistance::Unreachable
            }
            DistanceAnswer::Miss => {
                self.fallback_hits += 1;
                match fallback_distance(self.oracle, self.graph, &mut self.scratch, s, t) {
                    Some(d) => ResolvedDistance::FallbackExact(d),
                    None => ResolvedDistance::Unreachable,
                }
            }
        }
    }

    /// Fraction of queries answered by the oracle index so far.
    pub fn oracle_hit_rate(&self) -> f64 {
        let total = self.oracle_hits + self.fallback_hits;
        if total == 0 {
            return 0.0;
        }
        self.oracle_hits as f64 / total as f64
    }
}

impl VicinityOracle {
    /// Approximate upper bound on `d(s, t)` from the stored landmark rows:
    /// `min_{ℓ ∈ L} d(ℓ, s) + d(ℓ, t)`. Costs two probes per landmark.
    /// Returns `None` when no landmark reaches both endpoints.
    pub fn landmark_estimate(&self, s: NodeId, t: NodeId) -> Option<Distance> {
        if s == t && self.contains_node(s) {
            return Some(0);
        }
        let mut best: Option<Distance> = None;
        for table in self.landmark_tables.values() {
            let (Some(ds), Some(dt)) = (table.distance_to(s), table.distance_to(t)) else {
                continue;
            };
            let est = ds + dt;
            if best.is_none_or(|b| est < b) {
                best = Some(est);
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::OracleBuilder;
    use crate::config::Alpha;
    use crate::query::AnswerMethod;
    use rand::SeedableRng;
    use vicinity_baselines::bfs::BfsEngine;
    use vicinity_baselines::PointToPoint;
    use vicinity_graph::algo::sampling::random_pairs;
    use vicinity_graph::builder::GraphBuilder;
    use vicinity_graph::generators::{classic, social::SocialGraphConfig};
    use vicinity_graph::INFINITY;

    /// Length of the walk `fallback_distance` starts the search from.
    fn walk(oracle: &VicinityOracle, s: NodeId, t: NodeId) -> Distance {
        let (vs, vt) = (oracle.vicinity(s).unwrap(), oracle.vicinity(t).unwrap());
        landmark_bounds(oracle, &vs, &vt, s, t).walk
    }

    #[test]
    fn exact_fallback_matches_bfs() {
        // Every pair, hit or miss: seeding must stay exact even where the
        // two vicinities overlap, which a real miss never presents.
        let g = SocialGraphConfig::small_test().generate(101);
        let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT).seed(6).build(&g);
        let mut scratch = BidirBfsScratch::new();
        let mut bfs = BfsEngine::new(&g);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for (s, t) in random_pairs(&g, 200, &mut rng) {
            assert_eq!(
                fallback_distance(&oracle, &g, &mut scratch, s, t),
                bfs.distance(s, t),
                "pair ({s},{t})"
            );
        }
        assert_eq!(fallback_distance(&oracle, &g, &mut scratch, 3, 3), Some(0));
        assert_eq!(
            fallback_distance(&oracle, &g, &mut scratch, 0, 999_999),
            None
        );
    }

    #[test]
    fn exact_fallback_handles_disconnected_graph() {
        let mut b = GraphBuilder::with_node_count(6);
        b.add_edge(0, 1);
        b.add_edge(2, 3);
        let g = b.build_undirected();
        let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT).seed(7).build(&g);
        let mut scratch = BidirBfsScratch::new();
        assert_eq!(fallback_distance(&oracle, &g, &mut scratch, 0, 1), Some(1));
        assert_eq!(fallback_distance(&oracle, &g, &mut scratch, 0, 3), None);
        assert_eq!(fallback_distance(&oracle, &g, &mut scratch, 4, 5), None);
    }

    #[test]
    fn tight_landmark_walk_ends_the_search_after_seeding() {
        // Path 0..=7 with landmarks 3 and 4: Γ(0) and Γ(7) are the two
        // halves, so their intersection is empty, and the walk 0 → 3 → 7
        // has length r_0 + r_7 + 1 = 7, the least disjoint balls allow.
        // The index answers it as a walk; called anyway, the search pops
        // nothing.
        let g = classic::path(8);
        let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT)
            .landmarks(vec![3, 4])
            .build(&g);
        assert_eq!(
            oracle.distance(0, 7),
            DistanceAnswer::Exact {
                distance: 7,
                method: AnswerMethod::LandmarkWalk,
            }
        );
        let mut scratch = BidirBfsScratch::new();
        assert_eq!(fallback_distance(&oracle, &g, &mut scratch, 0, 7), Some(7));
        assert_eq!(scratch.last_operations(), 0);
        assert_eq!(scratch.last_arcs_scanned(), 0);
        assert_eq!(scratch.last_meeting(), None);
    }

    #[test]
    fn loose_landmark_walk_still_finds_the_bypass() {
        // 0 - 1 - 2 - 3 - 4 - 5 is the short way; each endpoint hangs its
        // landmark off a two-hop spur (0 - 6 - 7, 5 - 8 - 9), so either
        // walk through a nearest landmark takes 2 + 7 = 9 hops.
        let mut b = GraphBuilder::with_node_count(10);
        for (u, v) in [
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 5),
            (0, 6),
            (6, 7),
            (5, 8),
            (8, 9),
        ] {
            b.add_edge(u, v);
        }
        let g = b.build_undirected();
        let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT)
            .landmarks(vec![7, 9])
            .build(&g);
        assert!(oracle.distance(0, 5).is_miss());
        assert_eq!(walk(&oracle, 0, 5), 9);
        let mut scratch = BidirBfsScratch::new();
        let mut bfs = BfsEngine::new(&g);
        assert_eq!(fallback_distance(&oracle, &g, &mut scratch, 0, 5), Some(5));
        assert_eq!(bfs.distance(0, 5), Some(5));
        assert!(scratch.last_meeting().is_some());
    }

    #[test]
    fn saturated_rows_give_no_bound() {
        // A 66,000-node path: both endpoints' nearest landmarks sit two
        // hops in, so each nearest-landmark row reaches the far endpoint
        // only past the 16-bit horizon. Interior landmarks every 200 hops
        // keep the vicinities (and this build) small.
        let n: NodeId = 66_000;
        let g = classic::path(n as usize);
        let mut landmarks = vec![2, n - 3];
        landmarks.extend((200..n - 200).step_by(200));
        let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT)
            .landmarks(landmarks)
            .store_paths(false)
            .build(&g);
        let (s, t) = (0, n - 1);
        assert!(oracle.distance(s, t).is_miss());
        assert_eq!(walk(&oracle, s, t), INFINITY);
        let mut scratch = BidirBfsScratch::new();
        assert_eq!(
            fallback_distance(&oracle, &g, &mut scratch, s, t),
            BfsEngine::new(&g).distance(s, t)
        );
        assert!(scratch.last_meeting().is_some());
    }

    #[test]
    fn combined_engine_always_answers_connected_pairs() {
        // A grid has no hubs and long distances, so at moderate alpha many
        // pairs have non-intersecting vicinities and the fallback fires.
        let g = classic::grid(30, 30);
        let oracle = OracleBuilder::new(Alpha::new(8.0).unwrap())
            .seed(3)
            .build(&g);
        let mut combined = QueryWithFallback::new(&oracle, &g);
        let mut bfs = BfsEngine::new(&g);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        for (s, t) in random_pairs(&g, 150, &mut rng) {
            let resolved = combined.distance(s, t);
            assert_eq!(resolved.value(), bfs.distance(s, t), "pair ({s},{t})");
            assert!(resolved.is_exact());
        }
        assert!(
            combined.fallback_hits > 0,
            "grid queries should produce misses"
        );
        assert!(combined.oracle_hit_rate() < 1.0);
        assert!(combined.oracle_hits + combined.fallback_hits == 150);
    }

    #[test]
    fn combined_engine_on_social_graph_rarely_falls_back() {
        // On the small test graph, alpha = 32 plays the role alpha = 4 plays
        // on the paper's million-node graphs (hop quantisation shrinks
        // vicinities at small n); most queries should hit the index.
        let g = SocialGraphConfig::small_test().generate(102);
        let oracle = OracleBuilder::new(Alpha::new(32.0).unwrap())
            .seed(4)
            .build(&g);
        let mut combined = QueryWithFallback::new(&oracle, &g);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for (s, t) in random_pairs(&g, 300, &mut rng) {
            combined.distance(s, t);
        }
        assert!(
            combined.oracle_hit_rate() > 0.7,
            "social graph at alpha=32 should mostly hit, rate = {}",
            combined.oracle_hit_rate()
        );
    }

    #[test]
    fn landmark_estimate_is_an_upper_bound() {
        let g = SocialGraphConfig::small_test().generate(103);
        let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT).seed(5).build(&g);
        let mut bfs = BfsEngine::new(&g);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        for (s, t) in random_pairs(&g, 100, &mut rng) {
            let exact = bfs.distance(s, t).unwrap();
            let est = oracle
                .landmark_estimate(s, t)
                .expect("landmarks reach the whole component");
            assert!(
                est >= exact,
                "estimate {est} below exact {exact} for ({s},{t})"
            );
        }
        assert_eq!(oracle.landmark_estimate(7, 7), Some(0));
    }

    #[test]
    fn resolved_distance_accessors() {
        assert_eq!(ResolvedDistance::OracleExact(3).value(), Some(3));
        assert!(ResolvedDistance::OracleExact(3).is_exact());
        assert!(ResolvedDistance::FallbackExact(4).is_exact());
        assert_eq!(ResolvedDistance::FallbackExact(4).value(), Some(4));
        assert_eq!(ResolvedDistance::Unreachable.value(), None);
        assert!(!ResolvedDistance::Unreachable.is_exact());
    }
}
