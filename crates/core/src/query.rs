//! Online phase: distance and path queries (Algorithm 1 of the paper).
//!
//! For a query `(s, t)` the oracle answers from stored tables whenever one
//! of the four shortcut conditions holds — `s ∈ L`, `t ∈ L`, `t ∈ Γ(s)` or
//! `s ∈ Γ(t)` — and otherwise performs **vicinity intersection**, the
//! minimum of `d(s,w) + d(w,t)` over common members `w`. The paper scans
//! the boundary `∂Γ(s)` and probes each node against `Γ(t)`; this
//! implementation stores each vicinity grouped into per-distance shells
//! and, for distances, intersects shell `a` of `Γ(s)` with shell
//! `total − a` of `Γ(t)` for increasing `total`, so the first non-empty
//! pair is the answer. Path queries need the witness as well: they scan
//! the outermost shell of one vicinity against the other's members.
//!
//! **Correctness** (Theorem 1 / Lemma 1 of the paper): if `Γ(s) ∩ Γ(t)` is
//! non-empty then some node of the intersection lies on a shortest s–t
//! path, so the minimum sum over the intersection is the exact distance.
//! For the path scan: `t ∉ Γ(s)`, so a shortest s–t path passes a node `w`
//! at distance exactly `r_s` from `s`, which lies in the outermost shell;
//! when the balls meet, `d(s,t) ≤ r_s + r_t`, so `d(w,t) ≤ r_t` and `w` is
//! in `Γ(t)` too. The outer shell contains `∂Γ(s)` (every escaping member
//! sits at the radius), so Lemma 1's argument carries over unchanged.
//!
//! A fifth way to answer comes from the two nearest-landmark rows the
//! query reads anyway: the **landmark walk** `s → ℓ(s) → t` (or through
//! `ℓ(t)`) has length `r_s + d(ℓ(s), t)`, an upper bound on `d(s, t)`.
//! When it equals a lower bound the query has already proven — the
//! triangle bound before the scan, or `r_s + r_t + 1` after a scan that
//! finds the balls disjoint — the walk is a shortest path and the oracle
//! answers [`AnswerMethod::LandmarkWalk`]. Only when no proven bound meets
//! the walk does it report a [`DistanceAnswer::Miss`], and the caller may
//! fall back to an exact or approximate engine ([`crate::fallback`]).

use vicinity_graph::{Adjacency, Distance, NodeId, INFINITY};

use crate::dynamic::RowPatches;
use crate::index::{decode_distance, LandmarkDistances, VicinityOracle};
use crate::vicinity::VicinityRef;

/// A borrowed view of one landmark's row: entry `rank` of every node's
/// column in the node-major slab ([`LandmarkDistances`]), optionally
/// overlaid with the dynamic oracle's node-keyed patches of repaired
/// `(rank, u16)` entries (an edge update touching a handful of entries
/// must not copy a slab). Reading an entry costs one patch-map probe when
/// patches are present and one slab cache line otherwise. All query-time
/// row reads go through this view, so frozen and dynamic indexes serve
/// identical answers.
#[derive(Debug, Clone, Copy)]
pub struct RowRef<'a> {
    distances: &'a LandmarkDistances,
    rank: usize,
    patches: Option<&'a RowPatches>,
}

impl<'a> RowRef<'a> {
    /// The row of landmark rank `rank`, read through `patches` when given.
    #[inline]
    pub(crate) fn new(
        distances: &'a LandmarkDistances,
        rank: usize,
        patches: Option<&'a RowPatches>,
    ) -> Self {
        RowRef {
            distances,
            rank,
            patches,
        }
    }

    /// Distance from the landmark to `v`, or `None` when unreachable or
    /// out of range.
    #[inline]
    pub fn distance_to(&self, v: NodeId) -> Option<Distance> {
        let patched = self
            .patches
            .and_then(|patches| patches.get(&v))
            .and_then(|column| column.get(self.rank));
        decode_distance(patched.unwrap_or_else(|| self.distances.raw(self.rank, v)))
    }

    /// Stage-2 prefetch hint for the entry of `v`: the one slab line
    /// holding it (patches are small and hot).
    #[inline]
    pub(crate) fn prefetch_entry(&self, v: NodeId) {
        self.distances.prefetch(self.rank, v);
    }
}

/// Pairs per pipeline block of the batched engine. Sized so one block's
/// hinted lines (~20 per pair) fit comfortably in L1/L2 while still
/// putting enough independent misses in flight to use all of the core's
/// memory-level parallelism.
const BATCH_BLOCK: usize = 16;

/// How a query was answered. Mirrors the cases of Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnswerMethod {
    /// `s == t`.
    SameNode,
    /// `s ∈ L`: answered from the source's landmark row.
    SourceLandmark,
    /// `t ∈ L`: answered from the target's landmark row.
    TargetLandmark,
    /// `t ∈ Γ(s)`: answered from the source's vicinity table.
    TargetInSourceVicinity,
    /// `s ∈ Γ(t)`: answered from the target's vicinity table.
    SourceInTargetVicinity,
    /// Answered by intersecting the two vicinities.
    VicinityIntersection,
    /// The walk through `ℓ(s)` or `ℓ(t)` met a proven lower bound: the
    /// vicinities did not certify a shorter path, so the walk is exact.
    LandmarkWalk,
}

/// Statistics of a single query — most importantly the number of membership
/// probes ("hash-table look-ups" in Table 3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryStats {
    /// Membership / distance probes against stored tables.
    pub lookups: u64,
    /// Intersection steps (merge iterations and shell-member probes) spent
    /// during vicinity intersection; the name is the paper's, whose scan
    /// walks the boundary.
    pub boundary_scanned: u64,
    /// Number of intersection witnesses found (nodes in both vicinities).
    pub intersection_size: u64,
    /// Shell pairs the adaptive intersection kernel resolved with the
    /// galloping sorted merge.
    pub merge_intersections: u64,
    /// Shell pairs the adaptive kernel resolved by hash-probing the
    /// smaller shell into the larger vicinity's membership slots.
    pub probe_intersections: u64,
}

impl QueryStats {
    /// Fold `other` into `self`. Lets long-running callers (batch engines,
    /// the query server) accumulate per-query work counters in place.
    #[inline]
    pub fn merge(&mut self, other: &QueryStats) {
        self.lookups += other.lookups;
        self.boundary_scanned += other.boundary_scanned;
        self.intersection_size += other.intersection_size;
        self.merge_intersections += other.merge_intersections;
        self.probe_intersections += other.probe_intersections;
    }
}

/// Result of a distance query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistanceAnswer {
    /// The exact shortest-path distance, and how it was obtained.
    Exact {
        /// Shortest-path distance in hops.
        distance: Distance,
        /// Which case of Algorithm 1 produced the answer.
        method: AnswerMethod,
    },
    /// The two endpoints are provably disconnected: an endpoint is a
    /// landmark, or is reached by its nearest landmark, whose row shows no
    /// entry for the other endpoint.
    Unreachable,
    /// The vicinities do not intersect and the landmark walk is not proven
    /// shortest: the oracle cannot answer this query from its index alone.
    /// Use a fallback (see [`crate::fallback`]).
    Miss,
}

impl DistanceAnswer {
    /// The exact distance, if the query was answered.
    pub fn exact_distance(&self) -> Option<Distance> {
        match self {
            DistanceAnswer::Exact { distance, .. } => Some(*distance),
            _ => None,
        }
    }

    /// True when the oracle produced an exact answer.
    pub fn is_answered(&self) -> bool {
        matches!(self, DistanceAnswer::Exact { .. })
    }

    /// True when the endpoints are provably unreachable from each other.
    pub fn is_unreachable(&self) -> bool {
        matches!(self, DistanceAnswer::Unreachable)
    }

    /// True when the oracle could not answer (vicinities do not intersect).
    pub fn is_miss(&self) -> bool {
        matches!(self, DistanceAnswer::Miss)
    }

    /// The method used, if the query was answered.
    pub fn method(&self) -> Option<AnswerMethod> {
        match self {
            DistanceAnswer::Exact { method, .. } => Some(*method),
            _ => None,
        }
    }
}

/// Result of a path query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathAnswer {
    /// An exact shortest path (inclusive of both endpoints).
    Exact {
        /// The node sequence from source to target.
        path: Vec<NodeId>,
        /// Its length in hops (`path.len() - 1`).
        distance: Distance,
        /// Which case of Algorithm 1 produced the answer.
        method: AnswerMethod,
    },
    /// The endpoints are provably disconnected.
    Unreachable,
    /// The vicinities do not intersect (or the oracle was built without
    /// path storage); use a fallback.
    Miss,
}

impl PathAnswer {
    /// The path, if the query was answered.
    pub fn path(&self) -> Option<&[NodeId]> {
        match self {
            PathAnswer::Exact { path, .. } => Some(path),
            _ => None,
        }
    }

    /// The exact distance, if the query was answered.
    pub fn exact_distance(&self) -> Option<Distance> {
        match self {
            PathAnswer::Exact { distance, .. } => Some(*distance),
            _ => None,
        }
    }

    /// True when the oracle produced an exact path.
    pub fn is_answered(&self) -> bool {
        matches!(self, PathAnswer::Exact { .. })
    }
}

/// Read-only probe surface of a queryable index: everything Algorithm 1
/// dereferences, abstracted so the *same* query implementation serves both
/// the frozen [`VicinityOracle`] and overlay-backed dynamic views
/// ([`crate::dynamic::DynamicOracle`]). Because every probe path — vicinity
/// reads, shell intersection, landmark bounds, and the batched pipeline —
/// goes through this trait, an implementation that consults a delta overlay
/// is automatically consulted on all of them; answer and
/// [`AnswerMethod`] parity across implementations holds by construction.
///
/// The `hint_*` methods are software-prefetch staging hooks used by the
/// batched pipeline; they must be semantic no-ops (the defaults do
/// nothing), so implementations may skip them wherever prefetching is not
/// worthwhile.
pub trait QueryIndex {
    /// True when `u` is a valid node id for this index.
    fn covers(&self, u: NodeId) -> bool;

    /// Borrowed view of `Γ(u)`, or `None` when `u` is out of range.
    fn vicinity_of(&self, u: NodeId) -> Option<VicinityRef<'_>>;

    /// A view of landmark `u`'s distances to every node (its row), if `u`
    /// is a landmark.
    fn landmark_row_of(&self, u: NodeId) -> Option<RowRef<'_>>;

    /// Nearest landmark of `u` from its header data, if any is reachable.
    fn nearest_landmark_of(&self, u: NodeId) -> Option<NodeId>;

    /// Whether shortest-path predecessors are stored.
    fn stores_path_data(&self) -> bool;

    /// Stage-1 prefetch hint: warm `u`'s header rows.
    #[inline]
    fn hint_header(&self, _u: NodeId) {}

    /// Stage-2 prefetch hint: warm the pool spans a `(u, probe)` query
    /// dereferences.
    #[inline]
    fn hint_query_spans(&self, _u: NodeId, _probe: NodeId, _want_paths: bool) {}
}

/// Algorithm 1 over any [`QueryIndex`] view; the single implementation
/// behind [`VicinityOracle::distance_with_stats`] and the dynamic-oracle
/// query methods.
pub(crate) fn distance_with_stats_on<I: QueryIndex + ?Sized>(
    index: &I,
    s: NodeId,
    t: NodeId,
) -> (DistanceAnswer, QueryStats) {
    let mut stats = QueryStats::default();
    if !index.covers(s) || !index.covers(t) {
        return (DistanceAnswer::Miss, stats);
    }
    if s == t {
        return (
            DistanceAnswer::Exact {
                distance: 0,
                method: AnswerMethod::SameNode,
            },
            stats,
        );
    }

    // Cases 1 and 2: an endpoint is a landmark — answer from its dense
    // row.
    for (landmark, other, method) in [
        (s, t, AnswerMethod::SourceLandmark),
        (t, s, AnswerMethod::TargetLandmark),
    ] {
        stats.lookups += 1;
        if let Some(table) = index.landmark_row_of(landmark) {
            stats.lookups += 1;
            return match table.distance_to(other) {
                Some(distance) => (DistanceAnswer::Exact { distance, method }, stats),
                None => (DistanceAnswer::Unreachable, stats),
            };
        }
    }

    let vs = index.vicinity_of(s).expect("checked in-range");
    let vt = index.vicinity_of(t).expect("checked in-range");

    // Case 3: t ∈ Γ(s).
    stats.lookups += 1;
    if let Some(d) = vs.distance_to(t) {
        return (
            DistanceAnswer::Exact {
                distance: d,
                method: AnswerMethod::TargetInSourceVicinity,
            },
            stats,
        );
    }
    // Case 4: s ∈ Γ(t).
    stats.lookups += 1;
    if let Some(d) = vt.distance_to(s) {
        return (
            DistanceAnswer::Exact {
                distance: d,
                method: AnswerMethod::SourceInTargetVicinity,
            },
            stats,
        );
    }

    // Exact pruning from structure already in memory, all O(1) probes
    // (see `landmark_bounds`): a lower bound on `d(s,t)` from cases 3
    // and 4 failing and the triangle inequality, and the walk through
    // `ℓ(s)` or `ℓ(t)` as an upper bound. When the walk meets the lower
    // bound it is a shortest path, and no scan is needed. When the lower
    // bound exceeds `r_s + r_t` the balls provably do not intersect
    // (certified miss, no scan at all). Otherwise the intersection scan
    // can stop at the first witness attaining the bound — on social
    // graphs most shortest paths run through early-scanned hub
    // witnesses, so this usually ends the scan after a handful of merge
    // steps — and it need not look at sums the walk already achieves.
    let bounds = landmark_bounds(index, &vs, &vt, s, t);
    stats.lookups += bounds.rows_read;
    if bounds.disconnected {
        return (DistanceAnswer::Unreachable, stats);
    }
    let lower_bound = bounds.lower;
    let walk = DistanceAnswer::Exact {
        distance: bounds.walk,
        method: AnswerMethod::LandmarkWalk,
    };
    if bounds.walk == lower_bound {
        return (walk, stats);
    }
    if lower_bound > vs.radius() + vt.radius() {
        return (DistanceAnswer::Miss, stats);
    }

    // Vicinity intersection by distance level (Theorem 1: any common
    // member `w` certifies `d(s,t) ≤ d(s,w) + d(w,t)`, and when the
    // balls intersect the minimum such sum *is* `d(s,t)`). Each
    // vicinity stores its members grouped into per-distance shells, so
    // candidate sums are probed in increasing order: for `total = lb,
    // lb+1, …` intersect shell `a` of `Γ(s)` with shell `total − a` of
    // `Γ(t)`. The first non-empty shell pair proves `d(s,t) = total`
    // exactly — no minimum tracking, no scan past the answer — and
    // exhausting `total ≤ r_s + r_t` proves the balls disjoint.
    // Each shell pair goes through the adaptive kernel: a galloping
    // sorted merge by default, hash probes of the smaller shell when
    // the pair is lopsided (see `VicinityRef::shell_intersect_adaptive`).
    // Bound the scan by the *populated* shell extents rather than the
    // nominal radii: a landmark-free vicinity's radius degenerates to
    // the graph's hop bound, which would turn the loop below into an
    // O(n²) sweep over empty shells. Sums from the walk's length up are
    // not scanned: the walk already achieves them.
    let (vs_extent, vt_extent) = (vs.max_shell_distance(), vt.max_shell_distance());
    let max_sum = (vs_extent + vt_extent).min(bounds.walk - 1);
    let mut counters = crate::vicinity::IntersectCounters::default();
    let mut answer = None;
    'levels: for total in lower_bound..=max_sum {
        let a_low = total.saturating_sub(vt_extent);
        let a_high = total.min(vs_extent);
        for a in a_low..=a_high {
            if vs.shell_intersect_adaptive(a, &vt, total - a, &mut counters) {
                answer = Some(total);
                break 'levels;
            }
        }
    }
    stats.boundary_scanned += counters.steps;
    stats.lookups += counters.steps;
    stats.merge_intersections += counters.merge_calls;
    stats.probe_intersections += counters.probe_calls;
    match answer {
        Some(distance) => {
            stats.intersection_size += 1;
            (
                DistanceAnswer::Exact {
                    distance,
                    method: AnswerMethod::VicinityIntersection,
                },
                stats,
            )
        }
        // An empty scan proves `d(s,t) ≥ min(walk, r_s + r_t + 1)`: any
        // shorter distance has a witness in both balls at a scanned sum.
        None if bounds.walk <= vs.radius() + vt.radius() + 1 => (walk, stats),
        None => (DistanceAnswer::Miss, stats),
    }
}

/// What the two nearest-landmark rows prove about `d(s, t)`; see
/// [`landmark_bounds`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct LandmarkBounds {
    /// A lower bound on `d(s, t)`, valid once cases 3 and 4 of
    /// Algorithm 1 have failed: `max(r_s, r_t) + 1`, raised by the
    /// triangle bound `|d(ℓ, u) − d(ℓ, v)| ≤ d(u, v)` of either row.
    pub(crate) lower: Distance,
    /// Length of the shorter walk `s → ℓ → t` through `ℓ(s)` or `ℓ(t)`
    /// (an upper bound on `d(s, t)`), or `INFINITY` when neither row
    /// holds an exact entry for the other endpoint.
    pub(crate) walk: Distance,
    /// True when the walk passes through `ℓ(s)`, false for `ℓ(t)`.
    pub(crate) via_source: bool,
    /// True when a row proves `s` and `t` disconnected: `ℓ(u)` reaches
    /// `u`, so an unreachable entry for the other endpoint puts it in
    /// another component. The other fields are then meaningless.
    pub(crate) disconnected: bool,
    /// Landmark rows read (one look-up each).
    pub(crate) rows_read: u64,
}

/// Bounds on `d(s, t)` from one entry of each endpoint's nearest-landmark
/// row: `row_ℓ(s)[t]` and `row_ℓ(t)[s]`. Each entry gives both a triangle
/// lower bound and a walk `r_u + row_ℓ(u)[other]`, which is a real walk
/// because `d(u, ℓ(u)) == r_u` (an index invariant: the builder and the
/// dynamic repair keep it, and decoding checks it). The same invariant
/// makes an unreachable entry a proof that the endpoints are disconnected.
/// The index, path splicing and the fallback search all read the walk from
/// here.
#[inline]
pub(crate) fn landmark_bounds<I: QueryIndex + ?Sized>(
    index: &I,
    vs: &VicinityRef<'_>,
    vt: &VicinityRef<'_>,
    s: NodeId,
    t: NodeId,
) -> LandmarkBounds {
    let mut bounds = LandmarkBounds {
        lower: vs.radius().max(vt.radius()) + 1,
        walk: INFINITY,
        via_source: true,
        disconnected: false,
        rows_read: 0,
    };
    for (vicinity, other_endpoint, via_source) in [(vs, t, true), (vt, s, false)] {
        let Some(landmark) = vicinity.nearest_landmark() else {
            continue;
        };
        bounds.rows_read += 1;
        let Some(row) = index.landmark_row_of(landmark) else {
            continue;
        };
        let Some(d_other) = row.distance_to(other_endpoint) else {
            bounds.disconnected = true;
            return bounds;
        };
        let radius = vicinity.radius();
        bounds.lower = bounds.lower.max(radius.abs_diff(d_other));
        if radius + d_other < bounds.walk {
            bounds.walk = radius + d_other;
            bounds.via_source = via_source;
        }
    }
    bounds
}

/// The staged software-prefetch batch pipeline over any [`QueryIndex`]:
/// header hints, span/landmark-row hints, then warm-line resolution, in
/// [`BATCH_BLOCK`]-pair blocks. Byte-identical answers and stats to the
/// scalar loop.
pub(crate) fn distance_batch_accumulate_on<I: QueryIndex + ?Sized>(
    index: &I,
    pairs: &[(NodeId, NodeId)],
    out: &mut Vec<DistanceAnswer>,
    accumulator: &mut QueryStats,
) {
    out.reserve(pairs.len());
    for block in pairs.chunks(BATCH_BLOCK) {
        for &(s, t) in block {
            index.hint_header(s);
            index.hint_header(t);
        }
        for &(s, t) in block {
            index.hint_query_spans(s, t, false);
            index.hint_query_spans(t, s, false);
            hint_landmark_rows(index, s, t);
        }
        for &(s, t) in block {
            let (answer, stats) = distance_with_stats_on(index, s, t);
            accumulator.merge(&stats);
            out.push(answer);
        }
    }
}

/// Stage-2 landmark-row hints for one pair: the case-1/2 rows (when an
/// endpoint is itself a landmark) and the nearest-landmark rows
/// [`landmark_bounds`] reads. Each entry is one random access into the
/// node-major slab (one line of the other endpoint's column) — exactly
/// the loads worth overlapping across a batch.
#[inline]
fn hint_landmark_rows<I: QueryIndex + ?Sized>(index: &I, s: NodeId, t: NodeId) {
    if let Some(table) = index.landmark_row_of(s) {
        table.prefetch_entry(t);
    }
    if let Some(table) = index.landmark_row_of(t) {
        table.prefetch_entry(s);
    }
    for (u, other) in [(s, t), (t, s)] {
        if let Some(landmark) = index.nearest_landmark_of(u) {
            if let Some(table) = index.landmark_row_of(landmark) {
                table.prefetch_entry(other);
            }
        }
    }
}

/// Path queries (Algorithm 1 + predecessor splicing) over any
/// [`QueryIndex`], with optional graph access for landmark-endpoint
/// greedy descent.
pub(crate) fn path_on<I: QueryIndex + ?Sized, G: Adjacency + ?Sized>(
    index: &I,
    graph: Option<&G>,
    s: NodeId,
    t: NodeId,
) -> PathAnswer {
    if !index.covers(s) || !index.covers(t) {
        return PathAnswer::Miss;
    }
    if s == t {
        return PathAnswer::Exact {
            path: vec![s],
            distance: 0,
            method: AnswerMethod::SameNode,
        };
    }

    // Landmark endpoints: need the graph for greedy descent.
    if let Some(table) = index.landmark_row_of(s) {
        return match (graph, table.distance_to(t)) {
            (_, None) => PathAnswer::Unreachable,
            (Some(g), Some(_)) => match landmark_path_on(index, g, s, t) {
                Some(path) => PathAnswer::Exact {
                    distance: (path.len() - 1) as Distance,
                    path,
                    method: AnswerMethod::SourceLandmark,
                },
                None => PathAnswer::Miss,
            },
            (None, Some(_)) => PathAnswer::Miss,
        };
    }
    if let Some(table) = index.landmark_row_of(t) {
        return match (graph, table.distance_to(s)) {
            (_, None) => PathAnswer::Unreachable,
            (Some(g), Some(_)) => match landmark_path_on(index, g, t, s) {
                Some(mut path) => {
                    path.reverse();
                    PathAnswer::Exact {
                        distance: (path.len() - 1) as Distance,
                        path,
                        method: AnswerMethod::TargetLandmark,
                    }
                }
                None => PathAnswer::Miss,
            },
            (None, Some(_)) => PathAnswer::Miss,
        };
    }

    if !index.stores_path_data() {
        return PathAnswer::Miss;
    }

    let vs = index.vicinity_of(s).expect("checked in-range");
    let vt = index.vicinity_of(t).expect("checked in-range");

    // t ∈ Γ(s): chase predecessors inside Γ(s).
    if let Some(path) = vs.path_to(t) {
        return PathAnswer::Exact {
            distance: (path.len() - 1) as Distance,
            path,
            method: AnswerMethod::TargetInSourceVicinity,
        };
    }
    // s ∈ Γ(t): chase predecessors inside Γ(t) and reverse.
    if let Some(mut path) = vt.path_to(s) {
        path.reverse();
        return PathAnswer::Exact {
            distance: (path.len() - 1) as Distance,
            path,
            method: AnswerMethod::SourceInTargetVicinity,
        };
    }

    // Vicinity intersection: scan the smaller outer shell for the witness
    // minimising the sum, then splice the two half-paths at the witness.
    let (scan, probe, scanning_source) = if vs.outer_shell().len() <= vt.outer_shell().len() {
        (vs, vt, true)
    } else {
        (vt, vs, false)
    };
    let Some((distance, witness)) = scan.min_outer_shell_sum(&probe) else {
        // Disjoint vicinities: no path when a row proves the endpoints
        // disconnected, else the landmark walk, when it is provably
        // shortest and the graph is at hand for its landmark half.
        let bounds = landmark_bounds(index, &vs, &vt, s, t);
        if bounds.disconnected {
            return PathAnswer::Unreachable;
        }
        let walk = graph.and_then(|g| landmark_walk_path(index, g, &vs, &vt, s, t, &bounds));
        return match walk {
            Some(path) => PathAnswer::Exact {
                distance: (path.len() - 1) as Distance,
                path,
                method: AnswerMethod::LandmarkWalk,
            },
            None => PathAnswer::Miss,
        };
    };
    let (path_from_s, path_from_t) = if scanning_source {
        (scan.path_to(witness), probe.path_to(witness))
    } else {
        (probe.path_to(witness), scan.path_to(witness))
    };
    let (Some(mut path_from_s), Some(path_from_t)) = (path_from_s, path_from_t) else {
        return PathAnswer::Miss;
    };
    // path_from_s = s..=witness ; path_from_t = t..=witness. Append the
    // reversed target half without repeating the witness.
    path_from_s.extend(path_from_t.into_iter().rev().skip(1));
    PathAnswer::Exact {
        distance,
        path: path_from_s,
        method: AnswerMethod::VicinityIntersection,
    }
}

/// The walk through `ℓ(s)` or `ℓ(t)` that `bounds` holds, as a path, for
/// a pair whose vicinities are disjoint, or `None` when the walk is not
/// provably shortest. Disjoint balls prove `d(s, t) ≥ r_s + r_t + 1`, so
/// the walk is exact when it meets that or the rows' own lower bound — the
/// same condition under which [`distance_with_stats_on`] answers
/// [`AnswerMethod::LandmarkWalk`]. The vicinity's predecessors give the
/// endpoint's half, greedy descent on the landmark's row the other.
fn landmark_walk_path<I: QueryIndex + ?Sized, G: Adjacency + ?Sized>(
    index: &I,
    graph: &G,
    vs: &VicinityRef<'_>,
    vt: &VicinityRef<'_>,
    s: NodeId,
    t: NodeId,
    bounds: &LandmarkBounds,
) -> Option<Vec<NodeId>> {
    if bounds.walk != bounds.lower.max(vs.radius() + vt.radius() + 1) {
        return None;
    }
    let (near, far) = if bounds.via_source { (vs, t) } else { (vt, s) };
    let landmark = near.nearest_landmark()?;
    // near ..= ℓ, then ℓ ..= far without repeating ℓ.
    let mut path = near.path_to(landmark)?;
    path.extend(
        landmark_path_on(index, graph, landmark, far)?
            .into_iter()
            .skip(1),
    );
    if !bounds.via_source {
        path.reverse();
    }
    Some(path)
}

/// Batched path queries through the same staged prefetch pipeline as
/// [`distance_batch_accumulate_on`] (additionally warming the predecessor
/// segments).
pub(crate) fn path_batch_on<I: QueryIndex + ?Sized, G: Adjacency + ?Sized>(
    index: &I,
    graph: Option<&G>,
    pairs: &[(NodeId, NodeId)],
) -> Vec<PathAnswer> {
    let mut out = Vec::with_capacity(pairs.len());
    for block in pairs.chunks(BATCH_BLOCK) {
        for &(s, t) in block {
            index.hint_header(s);
            index.hint_header(t);
        }
        for &(s, t) in block {
            index.hint_query_spans(s, t, true);
            index.hint_query_spans(t, s, true);
            hint_landmark_rows(index, s, t);
        }
        for &(s, t) in block {
            out.push(path_on(index, graph, s, t));
        }
    }
    out
}

/// Greedy-descent path from `landmark` to `target` over any graph view:
/// from `target`, repeatedly step to any neighbour whose stored row
/// distance is exactly one less. Returns the path from the landmark to the
/// target (inclusive), or `None` when `target` is unreachable or
/// `landmark` has no row.
pub(crate) fn landmark_path_on<I: QueryIndex + ?Sized, G: Adjacency + ?Sized>(
    index: &I,
    graph: &G,
    landmark: NodeId,
    target: NodeId,
) -> Option<Vec<NodeId>> {
    let table = index.landmark_row_of(landmark)?;
    let mut dist = table.distance_to(target)?;
    let mut path = vec![target];
    let mut current = target;
    while dist > 0 {
        let next = graph
            .neighbors(current)
            .iter()
            .copied()
            .find(|&w| table.distance_to(w) == Some(dist - 1))?;
        path.push(next);
        current = next;
        dist -= 1;
    }
    path.reverse();
    Some(path)
}

impl QueryIndex for VicinityOracle {
    #[inline]
    fn covers(&self, u: NodeId) -> bool {
        self.contains_node(u)
    }

    #[inline]
    fn vicinity_of(&self, u: NodeId) -> Option<VicinityRef<'_>> {
        self.store.get(u)
    }

    #[inline]
    fn landmark_row_of(&self, u: NodeId) -> Option<RowRef<'_>> {
        self.landmark_row(u)
    }

    #[inline]
    fn nearest_landmark_of(&self, u: NodeId) -> Option<NodeId> {
        self.store.nearest_of(u)
    }

    #[inline]
    fn stores_path_data(&self) -> bool {
        self.stores_paths()
    }

    #[inline]
    fn hint_header(&self, u: NodeId) {
        self.store.prefetch_header(u);
    }

    #[inline]
    fn hint_query_spans(&self, u: NodeId, probe: NodeId, want_paths: bool) {
        self.store.prefetch_query_spans(u, probe, want_paths);
    }
}

impl VicinityOracle {
    /// Exact shortest-path distance between `s` and `t` (Algorithm 1).
    pub fn distance(&self, s: NodeId, t: NodeId) -> DistanceAnswer {
        self.distance_with_stats(s, t).0
    }

    /// Like [`VicinityOracle::distance`], folding per-query work into a
    /// caller-owned accumulator instead of returning a fresh [`QueryStats`].
    /// This is the cheap by-reference entry point used by serving loops that
    /// track aggregate work across millions of queries.
    #[inline]
    pub fn distance_accumulate(
        &self,
        s: NodeId,
        t: NodeId,
        accumulator: &mut QueryStats,
    ) -> DistanceAnswer {
        let (answer, stats) = self.distance_with_stats(s, t);
        accumulator.merge(&stats);
        answer
    }

    /// Like [`VicinityOracle::distance`] but also reports per-query work.
    pub fn distance_with_stats(&self, s: NodeId, t: NodeId) -> (DistanceAnswer, QueryStats) {
        distance_with_stats_on(self, s, t)
    }

    /// Answer a batch of distance queries, in input order.
    ///
    /// Semantically identical to calling [`VicinityOracle::distance`] per
    /// pair — byte-identical answers, identical work counters — but
    /// executed as a staged software-prefetch pipeline: for each block of
    /// pairs the engine first touches every endpoint's header rows, then
    /// (headers warm) computes pool spans and hints the member / distance
    /// / shell segments, the exact membership slots, and the landmark-row
    /// entries the query will dereference, and only then runs the
    /// resolution loop over already-warm cache lines. On indexes much
    /// larger than the last-level cache this overlaps the random DRAM
    /// latency of many queries instead of paying it serially per query.
    pub fn distance_batch(&self, pairs: &[(NodeId, NodeId)]) -> Vec<DistanceAnswer> {
        let mut out = Vec::with_capacity(pairs.len());
        let mut stats = QueryStats::default();
        self.distance_batch_accumulate(pairs, &mut out, &mut stats);
        out
    }

    /// Like [`VicinityOracle::distance_batch`], appending answers to a
    /// caller-owned vector (so serving loops reuse its capacity across
    /// batches) and folding per-query work into `accumulator`.
    pub fn distance_batch_accumulate(
        &self,
        pairs: &[(NodeId, NodeId)],
        out: &mut Vec<DistanceAnswer>,
        accumulator: &mut QueryStats,
    ) {
        distance_batch_accumulate_on(self, pairs, out, accumulator);
    }

    /// Answer a batch of path queries, in input order, through the same
    /// staged prefetch pipeline as [`VicinityOracle::distance_batch`]
    /// (additionally warming the predecessor segments the path-splicing
    /// walk reads). Identical answers to per-pair
    /// [`VicinityOracle::path`] calls.
    pub fn path_batch(&self, pairs: &[(NodeId, NodeId)]) -> Vec<PathAnswer> {
        path_batch_on::<_, vicinity_graph::csr::CsrGraph>(self, None, pairs)
    }

    /// Like [`VicinityOracle::path_batch`], with graph access so
    /// landmark-endpoint queries can also return a path (the batched
    /// analogue of [`VicinityOracle::path_with_graph`]).
    pub fn path_batch_with_graph(
        &self,
        graph: &vicinity_graph::csr::CsrGraph,
        pairs: &[(NodeId, NodeId)],
    ) -> Vec<PathAnswer> {
        path_batch_on(self, Some(graph), pairs)
    }

    /// Exact shortest path between `s` and `t`, when the oracle can produce
    /// one from its stored tables. Requires the oracle to have been built
    /// with `store_paths = true` (except for landmark-endpoint queries,
    /// which reconstruct the path by greedy descent and therefore need the
    /// graph; see [`VicinityOracle::path_with_graph`]).
    pub fn path(&self, s: NodeId, t: NodeId) -> PathAnswer {
        path_on::<_, vicinity_graph::csr::CsrGraph>(self, None, s, t)
    }

    /// Like [`VicinityOracle::path`], but with access to the graph so that
    /// queries whose endpoint is a landmark can also return a path
    /// (reconstructed by greedy descent on the landmark's distance row).
    pub fn path_with_graph(
        &self,
        graph: &vicinity_graph::csr::CsrGraph,
        s: NodeId,
        t: NodeId,
    ) -> PathAnswer {
        path_on(self, Some(graph), s, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::OracleBuilder;
    use crate::config::{Alpha, SamplingStrategy};
    use rand::SeedableRng;
    use vicinity_baselines::bfs::BfsEngine;
    use vicinity_baselines::{validate_path, PointToPoint};
    use vicinity_graph::algo::sampling::random_pairs;
    use vicinity_graph::builder::GraphBuilder;
    use vicinity_graph::csr::CsrGraph;
    use vicinity_graph::generators::{classic, social::SocialGraphConfig};

    fn social_graph(seed: u64) -> CsrGraph {
        SocialGraphConfig::small_test().generate(seed)
    }

    /// Every answer the oracle gives must agree with BFS; `min_fraction` is
    /// the required hit rate. On the ~2000-node test graphs hop quantisation
    /// keeps vicinities (and therefore hit rates) well below the paper's
    /// \>99.9 % large-graph numbers — the large-graph behaviour is exercised
    /// by the integration tests and the experiment harness.
    fn check_against_bfs(
        graph: &CsrGraph,
        oracle: &crate::VicinityOracle,
        pairs: usize,
        seed: u64,
        min_fraction: f64,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut bfs = BfsEngine::new(graph);
        let mut answered = 0usize;
        for (s, t) in random_pairs(graph, pairs, &mut rng) {
            let exact = bfs.distance(s, t);
            match oracle.distance(s, t) {
                DistanceAnswer::Exact { distance, .. } => {
                    answered += 1;
                    assert_eq!(Some(distance), exact, "wrong distance for ({s},{t})");
                }
                DistanceAnswer::Unreachable => {
                    assert_eq!(
                        exact, None,
                        "({s},{t}) reported unreachable but BFS disagrees"
                    );
                }
                DistanceAnswer::Miss => {
                    // A miss is allowed: the vicinities did not intersect.
                }
            }
        }
        assert!(
            answered as f64 >= pairs as f64 * min_fraction,
            "too many misses: only {answered}/{pairs} answered"
        );
    }

    #[test]
    fn exactness_on_social_graph_alpha4() {
        let g = social_graph(81);
        let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT).seed(4).build(&g);
        check_against_bfs(&g, &oracle, 400, 91, 0.25);
    }

    #[test]
    fn exactness_and_high_hit_rate_at_alpha32() {
        // With alpha = 32 the vicinities on the ~2000-node test graph are
        // large enough that most pairs intersect, mirroring the paper's
        // "alpha = 16 suffices for every pair" observation scaled down.
        let g = social_graph(81);
        let oracle = OracleBuilder::new(Alpha::new(32.0).unwrap())
            .seed(4)
            .build(&g);
        check_against_bfs(&g, &oracle, 400, 91, 0.75);
    }

    #[test]
    fn exactness_with_uniform_sampling() {
        let g = social_graph(82);
        let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT)
            .seed(5)
            .sampling(SamplingStrategy::Uniform)
            .build(&g);
        check_against_bfs(&g, &oracle, 300, 92, 0.2);
    }

    #[test]
    fn exactness_on_grid() {
        // A grid is the adversarial case for the intersection rate (no hubs),
        // but every answered query must still be exact.
        let g = classic::grid(20, 20);
        let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT).seed(6).build(&g);
        let mut bfs = BfsEngine::new(&g);
        for s in (0..400u32).step_by(37) {
            for t in (0..400u32).step_by(41) {
                if let DistanceAnswer::Exact { distance, .. } = oracle.distance(s, t) {
                    assert_eq!(Some(distance), bfs.distance(s, t), "pair ({s},{t})");
                }
            }
        }
    }

    #[test]
    fn same_node_queries() {
        let g = social_graph(83);
        let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT).seed(7).build(&g);
        let (answer, stats) = oracle.distance_with_stats(5, 5);
        assert_eq!(answer.exact_distance(), Some(0));
        assert_eq!(answer.method(), Some(AnswerMethod::SameNode));
        assert_eq!(stats.lookups, 0);
        match oracle.path(5, 5) {
            PathAnswer::Exact { path, distance, .. } => {
                assert_eq!(path, vec![5]);
                assert_eq!(distance, 0);
            }
            other => panic!("expected exact path, got {other:?}"),
        }
    }

    #[test]
    fn out_of_range_queries_miss() {
        let g = classic::path(4);
        let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT).build(&g);
        assert!(oracle.distance(0, 100).is_miss());
        assert!(oracle.distance(100, 0).is_miss());
        assert_eq!(oracle.path(0, 100), PathAnswer::Miss);
    }

    #[test]
    fn landmark_shortcuts_are_used() {
        let g = social_graph(84);
        let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT).seed(8).build(&g);
        let landmark = oracle.landmarks().nodes()[0];
        let other = (0..g.node_count() as NodeId)
            .find(|&u| !oracle.is_landmark(u) && u != landmark)
            .unwrap();
        let (answer, _) = oracle.distance_with_stats(landmark, other);
        assert_eq!(answer.method(), Some(AnswerMethod::SourceLandmark));
        let (answer, _) = oracle.distance_with_stats(other, landmark);
        assert_eq!(answer.method(), Some(AnswerMethod::TargetLandmark));
    }

    #[test]
    fn vicinity_shortcut_for_adjacent_nodes() {
        let g = social_graph(85);
        let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT).seed(9).build(&g);
        // Find an edge between two non-landmark nodes.
        let (u, v) = g
            .edges()
            .find(|&(u, v)| !oracle.is_landmark(u) && !oracle.is_landmark(v))
            .expect("some edge between non-landmarks");
        let answer = oracle.distance(u, v);
        assert_eq!(answer.exact_distance(), Some(1));
        assert!(matches!(
            answer.method().unwrap(),
            AnswerMethod::TargetInSourceVicinity | AnswerMethod::SourceInTargetVicinity
        ));
    }

    #[test]
    fn landmark_free_components_answer_quickly() {
        // Nodes unreachable from every landmark get degenerate vicinities
        // whose nominal radius is the graph's hop bound. Queries touching
        // them must stay proportional to the *populated* shells (a handful
        // of entries), not loop over ~n² empty ones, and the shell index
        // itself must not allocate O(n) per isolated node.
        let mut b = GraphBuilder::with_node_count(50_000);
        for i in 0..10u32 {
            b.add_edge(i, (i + 1) % 10);
        }
        let g = b.build_undirected();
        let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT).seed(4).build(&g);
        let started = std::time::Instant::now();
        for probe in [(49_000u32, 49_999u32), (49_999, 3), (2, 49_001)] {
            let answer = oracle.distance(probe.0, probe.1);
            assert!(
                answer.is_miss() || answer.is_unreachable(),
                "cross-component pair {probe:?} got {answer:?}"
            );
        }
        assert!(
            started.elapsed() < std::time::Duration::from_secs(2),
            "landmark-free queries took {:?}",
            started.elapsed()
        );
        let isolated = oracle.vicinity(49_000).unwrap();
        assert!(
            isolated.memory_bytes() < 1024,
            "isolated vicinity uses {} bytes",
            isolated.memory_bytes()
        );
    }

    #[test]
    fn unreachable_is_reported_via_landmark() {
        // Two components; force a landmark in the large one by top-degree
        // sampling, then query across components from/to that landmark.
        let mut b = GraphBuilder::with_node_count(8);
        b.add_edge(0, 1);
        b.add_edge(0, 2);
        b.add_edge(0, 3);
        b.add_edge(1, 2);
        b.add_edge(5, 6);
        let g = b.build_undirected();
        let oracle = OracleBuilder::new(Alpha::new(0.25).unwrap())
            .sampling(SamplingStrategy::TopDegree)
            .seed(1)
            .build(&g);
        let landmark = oracle.landmarks().nodes()[0];
        assert_eq!(landmark, 0, "node 0 has the highest degree");
        assert!(oracle.distance(landmark, 6).is_unreachable());
        assert!(oracle.distance(6, landmark).is_unreachable());
    }

    #[test]
    fn nearest_landmark_rows_prove_disconnection() {
        // Two 5-node paths, 0–4 and 5–9, with landmarks 2 and 7 pinned:
        // ℓ(0) = 2 reaches 0 but not 9, so (0, 9) is disconnected, and no
        // endpoint of these pairs is a landmark.
        let mut b = GraphBuilder::with_node_count(10);
        for v in [0, 1, 2, 3, 5, 6, 7, 8] {
            b.add_edge(v, v + 1);
        }
        let g = b.build_undirected();
        let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT)
            .landmarks(vec![2, 7])
            .build(&g);
        let pairs = [(0, 9), (1, 8), (9, 0), (4, 5), (0, 4)];
        let mut scalar_stats = QueryStats::default();
        let scalar: Vec<DistanceAnswer> = pairs
            .iter()
            .map(|&(s, t)| oracle.distance_accumulate(s, t, &mut scalar_stats))
            .collect();
        for (&(s, t), answer) in pairs[..4].iter().zip(&scalar) {
            assert_eq!(*answer, DistanceAnswer::Unreachable, "({s},{t})");
            assert_eq!(oracle.path_with_graph(&g, s, t), PathAnswer::Unreachable);
        }
        assert_eq!(scalar[4].exact_distance(), Some(4));

        let mut batch_stats = QueryStats::default();
        let mut batched = Vec::new();
        oracle.distance_batch_accumulate(&pairs, &mut batched, &mut batch_stats);
        assert_eq!(batched, scalar);
        assert_eq!(batch_stats, scalar_stats);
        let scalar_paths: Vec<PathAnswer> = pairs
            .iter()
            .map(|&(s, t)| oracle.path_with_graph(&g, s, t))
            .collect();
        assert_eq!(oracle.path_batch_with_graph(&g, &pairs), scalar_paths);
    }

    #[test]
    fn paths_are_valid_shortest_paths() {
        let g = social_graph(86);
        let oracle = OracleBuilder::new(Alpha::new(16.0).unwrap())
            .seed(10)
            .build(&g);
        let mut rng = rand::rngs::StdRng::seed_from_u64(44);
        let mut bfs = BfsEngine::new(&g);
        let mut answered = 0;
        for (s, t) in random_pairs(&g, 200, &mut rng) {
            match oracle.path_with_graph(&g, s, t) {
                PathAnswer::Exact { path, distance, .. } => {
                    answered += 1;
                    assert_eq!(validate_path(&g, s, t, &path), Some(distance), "({s},{t})");
                    assert_eq!(Some(distance), bfs.distance(s, t), "({s},{t}) not shortest");
                }
                PathAnswer::Unreachable => panic!("stand-in graph is connected"),
                PathAnswer::Miss => {}
            }
        }
        assert!(answered >= 100, "too many path misses: {answered}/200");
    }

    #[test]
    fn path_and_distance_agree() {
        let g = social_graph(87);
        let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT).seed(11).build(&g);
        let mut rng = rand::rngs::StdRng::seed_from_u64(45);
        for (s, t) in random_pairs(&g, 150, &mut rng) {
            let d = oracle.distance(s, t);
            let p = oracle.path_with_graph(&g, s, t);
            match (d, &p) {
                (
                    DistanceAnswer::Exact { distance, .. },
                    PathAnswer::Exact { distance: pd, .. },
                ) => {
                    assert_eq!(distance, *pd, "({s},{t})");
                }
                (DistanceAnswer::Miss, PathAnswer::Miss) => {}
                (DistanceAnswer::Unreachable, PathAnswer::Unreachable) => {}
                other => panic!("distance/path disagree for ({s},{t}): {other:?}"),
            }
        }
    }

    #[test]
    fn path_without_graph_misses_on_landmark_endpoints() {
        let g = social_graph(88);
        let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT).seed(12).build(&g);
        let landmark = oracle.landmarks().nodes()[0];
        let other = (0..g.node_count() as NodeId)
            .find(|&u| !oracle.is_landmark(u))
            .unwrap();
        assert_eq!(oracle.path(landmark, other), PathAnswer::Miss);
        // With the graph available the same query succeeds.
        assert!(oracle.path_with_graph(&g, landmark, other).is_answered());
    }

    #[test]
    fn oracle_without_path_storage_still_answers_distances() {
        let g = social_graph(89);
        let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT)
            .seed(13)
            .store_paths(false)
            .build(&g);
        check_against_bfs(&g, &oracle, 150, 93, 0.2);
        // Path queries between non-landmark nodes miss.
        let non_landmarks: Vec<NodeId> = (0..g.node_count() as NodeId)
            .filter(|&u| !oracle.is_landmark(u))
            .take(2)
            .collect();
        assert_eq!(
            oracle.path(non_landmarks[0], non_landmarks[1]),
            PathAnswer::Miss
        );
    }

    #[test]
    fn query_stats_count_lookups() {
        let g = social_graph(90);
        let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT).seed(14).build(&g);
        let mut rng = rand::rngs::StdRng::seed_from_u64(46);
        let mut intersection_seen = false;
        for (s, t) in random_pairs(&g, 100, &mut rng) {
            let (answer, stats) = oracle.distance_with_stats(s, t);
            if answer.method() == Some(AnswerMethod::VicinityIntersection) {
                intersection_seen = true;
                assert!(stats.boundary_scanned > 0);
                assert!(stats.lookups >= stats.boundary_scanned);
                assert!(stats.intersection_size > 0);
            }
        }
        assert!(
            intersection_seen,
            "expected at least one intersection-answered query"
        );
    }

    #[test]
    fn distance_batch_is_identical_to_scalar() {
        // Answers AND work counters must match the scalar path exactly —
        // the batched engine only reorders memory traffic.
        let g = social_graph(94);
        let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT).seed(15).build(&g);
        let mut rng = rand::rngs::StdRng::seed_from_u64(47);
        let mut pairs = random_pairs(&g, 300, &mut rng);
        pairs.push((5, 5));
        pairs.push((0, 10_000_000)); // out of range -> Miss
        let mut scalar_stats = QueryStats::default();
        let scalar: Vec<DistanceAnswer> = pairs
            .iter()
            .map(|&(s, t)| oracle.distance_accumulate(s, t, &mut scalar_stats))
            .collect();
        let mut batch_stats = QueryStats::default();
        let mut batched = Vec::new();
        oracle.distance_batch_accumulate(&pairs, &mut batched, &mut batch_stats);
        assert_eq!(scalar, batched);
        assert_eq!(scalar_stats, batch_stats);
        assert_eq!(oracle.distance_batch(&pairs), batched);
        assert!(batch_stats.lookups > 0);
    }

    #[test]
    fn distance_batch_parity_includes_misses() {
        // A grid at small alpha produces misses; batched answers must
        // still be byte-identical, including every Miss.
        let g = classic::grid(25, 25);
        let oracle = OracleBuilder::new(Alpha::new(2.0).unwrap())
            .seed(16)
            .build(&g);
        let mut rng = rand::rngs::StdRng::seed_from_u64(48);
        let pairs = random_pairs(&g, 250, &mut rng);
        let scalar: Vec<DistanceAnswer> =
            pairs.iter().map(|&(s, t)| oracle.distance(s, t)).collect();
        let batched = oracle.distance_batch(&pairs);
        assert_eq!(scalar, batched);
        assert!(
            batched.iter().any(|a| a.is_miss()),
            "grid at alpha=2 must produce misses"
        );
    }

    #[test]
    fn path_batch_is_identical_to_scalar() {
        let g = social_graph(95);
        let oracle = OracleBuilder::new(Alpha::new(16.0).unwrap())
            .seed(17)
            .build(&g);
        let mut rng = rand::rngs::StdRng::seed_from_u64(49);
        let mut pairs = random_pairs(&g, 200, &mut rng);
        let landmark = oracle.landmarks().nodes()[0];
        pairs.push((landmark, 3));
        pairs.push((3, landmark));
        let scalar_no_graph: Vec<PathAnswer> =
            pairs.iter().map(|&(s, t)| oracle.path(s, t)).collect();
        assert_eq!(oracle.path_batch(&pairs), scalar_no_graph);
        let scalar_graph: Vec<PathAnswer> = pairs
            .iter()
            .map(|&(s, t)| oracle.path_with_graph(&g, s, t))
            .collect();
        assert_eq!(oracle.path_batch_with_graph(&g, &pairs), scalar_graph);
        assert!(scalar_graph.iter().filter(|a| a.is_answered()).count() > 100);
    }

    #[test]
    fn empty_and_single_pair_batches() {
        let g = classic::path(6);
        let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT).seed(18).build(&g);
        assert!(oracle.distance_batch(&[]).is_empty());
        assert!(oracle.path_batch(&[]).is_empty());
        let single = oracle.distance_batch(&[(0, 3)]);
        assert_eq!(single.len(), 1);
        assert_eq!(single[0], oracle.distance(0, 3));
    }

    #[test]
    fn adaptive_strategy_counters_are_recorded() {
        let g = social_graph(96);
        let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT).seed(19).build(&g);
        let mut rng = rand::rngs::StdRng::seed_from_u64(50);
        let pairs = random_pairs(&g, 400, &mut rng);
        let mut stats = QueryStats::default();
        let mut answers = Vec::new();
        oracle.distance_batch_accumulate(&pairs, &mut answers, &mut stats);
        // Intersection-answered workloads must dispatch through the
        // kernel; on social graphs the merge strategy dominates.
        assert!(
            stats.merge_intersections + stats.probe_intersections > 0,
            "no shell pair went through the adaptive kernel"
        );
    }

    #[test]
    fn answer_accessors() {
        let exact = DistanceAnswer::Exact {
            distance: 3,
            method: AnswerMethod::SameNode,
        };
        assert!(exact.is_answered());
        assert!(!exact.is_miss());
        assert!(!exact.is_unreachable());
        assert_eq!(exact.exact_distance(), Some(3));
        assert!(DistanceAnswer::Miss.is_miss());
        assert!(DistanceAnswer::Unreachable.is_unreachable());
        assert_eq!(DistanceAnswer::Miss.exact_distance(), None);
        assert_eq!(DistanceAnswer::Miss.method(), None);

        let p = PathAnswer::Exact {
            path: vec![1, 2],
            distance: 1,
            method: AnswerMethod::SameNode,
        };
        assert!(p.is_answered());
        assert_eq!(p.exact_distance(), Some(1));
        assert_eq!(p.path(), Some(&[1, 2][..]));
        assert_eq!(PathAnswer::Miss.path(), None);
        assert!(!PathAnswer::Unreachable.is_answered());
    }
}
