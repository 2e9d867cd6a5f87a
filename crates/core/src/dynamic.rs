//! Dynamic edge updates: a delta-overlay oracle over the frozen flat store.
//!
//! The flat [`VicinityStore`](crate::VicinityStore) is immutable by design
//! — its pools are packed CSR spans, so editing one node's vicinity in
//! place would mean splicing every pool. Instead, [`DynamicOracle`] wraps
//! a frozen base oracle with a **delta overlay**:
//!
//! * **patched vicinity entries** — per-node owned vicinity replacements
//!   (same sections as a store span, including the derived shells and
//!   membership slots) for every node whose vicinity an update changed;
//! * **tombstones** — overlay entries marking a node whose repaired
//!   vicinity matched the frozen base again (an insert followed by the
//!   matching remove, say), superseding an earlier patch and redirecting
//!   reads back to the base without storing a copy;
//! * **refreshed landmark rows** — copy-on-write replacements for the dense
//!   distance rows of landmarks whose single-source distances changed.
//!
//! Every probe path consults the overlay: the [`QueryIndex`] implementation
//! resolves `vicinity_of` / `landmark_row_of` / `nearest_landmark_of`
//! through the overlay maps, and because the scalar query loop, the shell
//! intersection, the landmark bounds and the batched prefetch pipeline are
//! all generic over [`QueryIndex`] (see [`crate::query`]), the overlay is
//! consulted on all of them by construction. While no vicinity and no row
//! is patched (at construction and after every compaction), distance
//! queries skip the overlay and run on the base oracle directly, so an
//! unpatched snapshot answers at the frozen oracle's speed.
//!
//! ## Incremental maintenance
//!
//! [`DynamicOracle::insert_edge`] / [`DynamicOracle::remove_edge`] keep
//! three structures exact, each by a bounded repair proportional to the
//! affected region rather than the graph:
//!
//! 1. **Nearest-landmark labels** `(d(u, L), ℓ(u))` — an incremental
//!    improve-BFS on insertion; on deletion, the affected region `D`
//!    (nodes reachable from the deeper endpoint along `+1`-level edges —
//!    an overapproximation of every node whose distance *or* label support
//!    could have run through the edge) is recomputed from its boundary by
//!    a unit-weight Dijkstra. The label invariant maintained is the one
//!    the query pruning relies on: `d(u, ℓ(u)) == radius(u)` exactly.
//! 2. **Landmark rows** — per landmark, an O(1) check (`|row[a] − row[b]|`
//!    in the row's monotone clamped `u16` encoding) proves most rows
//!    untouched; the rest take the same incremental/decremental repair in
//!    the clamped domain. Rows containing saturated entries ("finite but
//!    ≥ 2¹⁶−2") are opaque to decremental repair and are recomputed
//!    wholesale when touched — a path that only fires on graphs whose
//!    diameter exceeds the 16-bit horizon. One documented divergence
//!    remains there: deleting an edge *strictly inside* the saturated
//!    horizon keeps entries saturated (reported as [`DistanceAnswer::Miss`],
//!    resolved by any exact fallback) where a from-scratch rebuild of a
//!    now-disconnected row would report unreachable.
//! 3. **Vicinities** — the affected set is `R ∪ C̄(a) ∪ C̄(b)`: nodes whose
//!    `(radius, ℓ)` header changed, plus the *closed clusters*
//!    `C̄(x) = { u : d(u, x) ≤ radius(u) }` of both endpoints (computed on
//!    the post-update state for insertions, pre-update for deletions).
//!    Clusters admit pruned-BFS enumeration in output-sensitive time — a
//!    Thorup–Zwick argument: any node on a shortest `x`–`u` path of a
//!    cluster member is itself a member. Each affected vicinity is rebuilt
//!    by the same bounded truncated BFS the offline builder runs
//!    ([`VicinityChunk::push_node`]'s logic, sharing its helpers), so a
//!    patched span is bit-compatible with what a rebuild would store.
//!
//! When the overlay outgrows its budget, [`DynamicOracle::compact`] folds
//! it back into a fresh frozen store (pool concatenation, no per-node
//! rebuilds except the derived sections) and a fresh CSR graph, after which
//! snapshots are as cheap as at construction.
//!
//! ## Snapshots
//!
//! Readers never see a half-applied update: the writer owns the
//! `DynamicOracle`, and [`DynamicOracle::snapshot`] publishes an immutable
//! [`DynamicSnapshot`] (Arc-shared overlay entries, rows and adjacency—
//! cloning is O(overlay size) pointer copies, independent of the graph).
//! The serving layer (`vicinity-server`) swaps snapshots behind an epoch
//! pointer so queries ride a consistent version end to end.
//!
//! [`VicinityChunk::push_node`]: crate::vicinity::VicinityChunk::push_node

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

use vicinity_graph::algo::bfs::BoundedBfsScratch;
use vicinity_graph::csr::CsrGraph;
use vicinity_graph::fast_hash::FastMap;
use vicinity_graph::{Adjacency, Distance, NodeId, INFINITY, INVALID_NODE};

use crate::index::{LandmarkEntry, LandmarkTable, VicinityOracle, SATURATED_U16, UNREACHABLE_U16};
use crate::query::{
    distance_batch_accumulate_on, distance_with_stats_on, path_batch_on, path_on, DistanceAnswer,
    PathAnswer, QueryIndex, QueryStats, RowRef,
};
use crate::vicinity::{fill_hash_slots, node_shell_sections, slot_count, VicinityRef};

/// Errors raised by dynamic-update operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateError {
    /// An endpoint id is outside the oracle's fixed node range (the node
    /// set is fixed at construction; only edges are dynamic).
    NodeOutOfRange {
        /// The offending node id.
        node: NodeId,
        /// Number of nodes in the indexed graph.
        node_count: usize,
    },
    /// Both endpoints are the same node; self loops never change distances
    /// and the canonical builders drop them, so accepting one silently
    /// would desynchronise the overlay graph from a rebuilt one.
    SelfLoop {
        /// The node in question.
        node: NodeId,
    },
    /// The oracle was built over a different graph than the one provided.
    GraphMismatch {
        /// Nodes in the oracle's indexed graph.
        oracle_nodes: usize,
        /// Nodes in the provided graph.
        graph_nodes: usize,
    },
}

impl std::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateError::NodeOutOfRange { node, node_count } => write!(
                f,
                "node id {node} out of range for an oracle over {node_count} nodes \
                 (the node set is fixed; only edges are dynamic)"
            ),
            UpdateError::SelfLoop { node } => {
                write!(f, "self loop ({node}, {node}) rejected")
            }
            UpdateError::GraphMismatch {
                oracle_nodes,
                graph_nodes,
            } => write!(
                f,
                "oracle indexes {oracle_nodes} nodes but the graph has {graph_nodes}"
            ),
        }
    }
}

impl std::error::Error for UpdateError {}

/// A mutable adjacency view: a frozen CSR base plus per-node patched
/// neighbour lists (kept sorted, like the canonical builder's output, so
/// traversal tie-breaking matches a rebuilt graph exactly).
///
/// Patched lists sit behind `Arc`s, so snapshotting the graph is a map of
/// pointer clones and the writer's next mutation copies-on-write only the
/// lists a published snapshot still shares.
#[derive(Debug, Clone)]
pub struct OverlayGraph {
    base: Arc<CsrGraph>,
    patched: FastMap<NodeId, Arc<Vec<NodeId>>>,
    edge_count: usize,
}

impl OverlayGraph {
    /// An overlay with no patches over `base`.
    pub fn new(base: Arc<CsrGraph>) -> Self {
        let edge_count = base.edge_count();
        OverlayGraph {
            base,
            patched: FastMap::default(),
            edge_count,
        }
    }

    /// The frozen base graph.
    pub fn base(&self) -> &Arc<CsrGraph> {
        &self.base
    }

    /// Current number of undirected edges (base plus net insertions).
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Number of nodes with a patched adjacency list.
    pub fn patched_nodes(&self) -> usize {
        self.patched.len()
    }

    /// True when the undirected edge `{u, v}` is currently present.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        (u as usize) < self.node_count()
            && (v as usize) < self.node_count()
            && self.neighbors(u).binary_search(&v).is_ok()
    }

    fn adjacency_mut(&mut self, u: NodeId) -> &mut Vec<NodeId> {
        let base = &self.base;
        Arc::make_mut(
            self.patched
                .entry(u)
                .or_insert_with(|| Arc::new(base.neighbors(u).to_vec())),
        )
    }

    /// Insert the undirected edge `{u, v}` (both arcs). Caller guarantees
    /// absence.
    fn insert_edge(&mut self, u: NodeId, v: NodeId) {
        for (x, y) in [(u, v), (v, u)] {
            let adj = self.adjacency_mut(x);
            let pos = adj.binary_search(&y).expect_err("edge must be absent");
            adj.insert(pos, y);
        }
        self.edge_count += 1;
    }

    /// Remove the undirected edge `{u, v}` (both arcs). Caller guarantees
    /// presence.
    fn remove_edge(&mut self, u: NodeId, v: NodeId) {
        for (x, y) in [(u, v), (v, u)] {
            let adj = self.adjacency_mut(x);
            let pos = adj.binary_search(&y).expect("edge must be present");
            adj.remove(pos);
        }
        self.edge_count -= 1;
    }

    /// Materialise the current adjacency as a fresh frozen CSR graph.
    pub fn to_csr(&self) -> CsrGraph {
        let n = self.node_count();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u64);
        let mut targets = Vec::with_capacity(self.edge_count * 2);
        for u in 0..n as NodeId {
            targets.extend_from_slice(self.neighbors(u));
            offsets.push(targets.len() as u64);
        }
        CsrGraph::from_parts(offsets, targets, true)
            .expect("overlay adjacency is structurally valid")
    }
}

impl Adjacency for OverlayGraph {
    #[inline]
    fn node_count(&self) -> usize {
        self.base.node_count()
    }

    #[inline]
    fn neighbors(&self, u: NodeId) -> &[NodeId] {
        match self.patched.get(&u) {
            Some(adj) => adj.as_slice(),
            None => self.base.neighbors(u),
        }
    }
}

/// One patched vicinity: the same sections a store span holds (primary and
/// derived), owned, so the overlay can serve it through a borrowed
/// [`VicinityRef`] with the exact probe API and probe *behaviour* (same
/// shells, same membership slots) as the frozen store.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct OwnedVicinity {
    /// Header radius in store encoding (the hop bound for landmark-free
    /// vicinities, matching `VicinityChunk::push_node`).
    radius: Distance,
    /// Header nearest landmark (`INVALID_NODE` = none reachable).
    nearest: NodeId,
    members: Vec<NodeId>,
    distances: Vec<Distance>,
    predecessors: Vec<NodeId>,
    boundary: Vec<u32>,
    shell_offsets: Vec<u32>,
    shell_data: Vec<NodeId>,
    hash_slots: Vec<u32>,
}

impl OwnedVicinity {
    /// Build `owner`'s vicinity on `graph` exactly as the offline builder
    /// would: one bounded BFS, id-sorted entries, boundary by escape
    /// probes, then the derived shell and membership-slot sections through
    /// the same helpers the store-wide rebuild uses.
    fn build<G: Adjacency>(
        graph: &G,
        owner: NodeId,
        radius: Option<Distance>,
        nearest: Option<NodeId>,
        store_paths: bool,
        scratch: &mut BoundedBfsScratch,
    ) -> Self {
        let nearest = nearest.unwrap_or(INVALID_NODE);
        // A landmark (radius 0) has an empty vicinity by Definition 1.
        if radius == Some(0) {
            return OwnedVicinity {
                radius: 0,
                nearest,
                members: Vec::new(),
                distances: Vec::new(),
                predecessors: Vec::new(),
                boundary: Vec::new(),
                shell_offsets: Vec::new(),
                shell_data: Vec::new(),
                hash_slots: Vec::new(),
            };
        }
        let effective_radius = radius.unwrap_or_else(|| graph.hop_bound());
        let visited = scratch.bounded_bfs(graph, owner, effective_radius);
        let mut members = Vec::with_capacity(visited.len());
        let mut distances = Vec::with_capacity(visited.len());
        let mut predecessors = Vec::with_capacity(if store_paths { visited.len() } else { 0 });
        let mut boundary = Vec::new();
        crate::vicinity::append_vicinity_sections(
            graph,
            &visited,
            store_paths,
            &mut members,
            &mut distances,
            &mut predecessors,
            &mut boundary,
        );

        let mut shell_offsets = Vec::new();
        let mut shell_data = vec![0 as NodeId; members.len()];
        if !members.is_empty() {
            let mut counts = Vec::new();
            node_shell_sections(
                &members,
                &distances,
                &mut counts,
                &mut shell_offsets,
                &mut shell_data,
            );
        }
        let mut hash_slots = vec![0u32; slot_count(members.len())];
        fill_hash_slots(&members, &mut hash_slots);

        OwnedVicinity {
            radius: effective_radius,
            nearest,
            members,
            distances,
            predecessors,
            boundary,
            shell_offsets,
            shell_data,
            hash_slots,
        }
    }

    /// Borrow as the standard probe view.
    fn as_ref(&self, owner: NodeId) -> VicinityRef<'_> {
        VicinityRef::from_raw_parts(
            owner,
            self.radius,
            self.nearest,
            &self.members,
            &self.distances,
            &self.predecessors,
            &self.boundary,
            &self.shell_offsets,
            &self.shell_data,
            &self.hash_slots,
        )
    }

    /// True when this rebuilt vicinity is identical to the frozen base
    /// span (primary sections and header) — the tombstone condition.
    fn matches_base(&self, base: &VicinityRef<'_>) -> bool {
        self.radius == base.radius()
            && self.nearest == base.raw_nearest()
            && self.members == base.members()
            && self.distances == base.raw_distances()
            && self.predecessors == base.raw_predecessors()
            && self.boundary == base.raw_boundary()
    }

    /// Overlay budget charge: one entry plus its members.
    fn budget_cost(&self) -> usize {
        self.members.len() + 1
    }
}

/// One overlay slot for a node.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum OverlayEntry {
    /// The node's vicinity differs from the frozen base; serve this copy.
    Patched(OwnedVicinity),
    /// The node was repaired and found identical to the base again; reads
    /// fall through to the frozen store. Supersedes any earlier patch.
    Tombstone,
}

/// One refreshed landmark row in the overlay.
#[derive(Debug, Clone)]
pub(crate) enum RowPatch {
    /// Sparse repaired entries over the frozen base row — the normal
    /// case: one edge update touches a handful of entries, and copying a
    /// dense row per touched landmark would dominate update cost.
    Delta(FastMap<NodeId, u16>),
    /// A wholesale replacement (the saturated-row recompute path).
    Full(LandmarkTable),
}

type OverlayMap = FastMap<NodeId, Arc<OverlayEntry>>;
type RowMap = FastMap<NodeId, Arc<RowPatch>>;

/// Resolve a vicinity through the overlay, falling back to the base store.
fn view_vicinity<'a>(
    base: &'a VicinityOracle,
    overlay: &'a OverlayMap,
    u: NodeId,
) -> Option<VicinityRef<'a>> {
    match overlay.get(&u).map(Arc::as_ref) {
        Some(OverlayEntry::Patched(v)) => Some(v.as_ref(u)),
        Some(OverlayEntry::Tombstone) | None => base.vicinity(u),
    }
}

/// Resolve a landmark row through the overlay, falling back to the base.
fn view_row<'a>(base: &'a VicinityOracle, rows: &'a RowMap, u: NodeId) -> Option<RowRef<'a>> {
    match rows.get(&u).map(Arc::as_ref) {
        Some(RowPatch::Full(table)) => Some(RowRef::Flat(table)),
        Some(RowPatch::Delta(delta)) => Some(RowRef::Overlay {
            base: base.landmark_table(u)?,
            delta,
        }),
        None => base.landmark_table(u).map(RowRef::Flat),
    }
}

/// Resolve a node's nearest-landmark header through the overlay.
fn view_nearest(base: &VicinityOracle, overlay: &OverlayMap, u: NodeId) -> Option<NodeId> {
    match overlay.get(&u).map(Arc::as_ref) {
        Some(OverlayEntry::Patched(v)) => (v.nearest != INVALID_NODE).then_some(v.nearest),
        Some(OverlayEntry::Tombstone) | None => base.store().nearest_of(u),
    }
}

/// Implements [`QueryIndex`] plus the user-facing query methods for a type
/// holding `base` / `overlay` / `rows` fields — shared verbatim between the
/// writer-owned [`DynamicOracle`] and the published [`DynamicSnapshot`], so
/// their answers cannot drift.
macro_rules! impl_overlay_queries {
    ($ty:ty) => {
        impl QueryIndex for $ty {
            #[inline]
            fn covers(&self, u: NodeId) -> bool {
                (u as usize) < self.base.node_count()
            }

            #[inline]
            fn vicinity_of(&self, u: NodeId) -> Option<VicinityRef<'_>> {
                view_vicinity(&self.base, &self.overlay, u)
            }

            #[inline]
            fn landmark_row_of(&self, u: NodeId) -> Option<RowRef<'_>> {
                view_row(&self.base, &self.rows, u)
            }

            #[inline]
            fn nearest_landmark_of(&self, u: NodeId) -> Option<NodeId> {
                view_nearest(&self.base, &self.overlay, u)
            }

            #[inline]
            fn stores_path_data(&self) -> bool {
                self.base.stores_paths()
            }

            // Prefetch hints delegate to the frozen store unconditionally:
            // for the (few) patched nodes the hinted base lines are stale
            // but hints are semantic no-ops, and probing the overlay map
            // per hint would cost more than the wasted prefetch.
            #[inline]
            fn hint_header(&self, u: NodeId) {
                self.base.store().prefetch_header(u);
            }

            #[inline]
            fn hint_query_spans(&self, u: NodeId, probe: NodeId, want_paths: bool) {
                self.base.store().prefetch_query_spans(u, probe, want_paths);
            }
        }

        impl $ty {
            /// Exact shortest-path distance between `s` and `t` on the
            /// *current* graph (Algorithm 1 over the overlay).
            pub fn distance(&self, s: NodeId, t: NodeId) -> DistanceAnswer {
                self.distance_with_stats(s, t).0
            }

            /// Like `distance`, also reporting per-query work.
            pub fn distance_with_stats(
                &self,
                s: NodeId,
                t: NodeId,
            ) -> (DistanceAnswer, QueryStats) {
                if self.overlay_is_empty() {
                    return self.base.distance_with_stats(s, t);
                }
                distance_with_stats_on(self, s, t)
            }

            /// Like `distance`, folding work counters into `accumulator`.
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

            /// Batched distances through the staged software-prefetch
            /// pipeline; answers and stats identical to per-pair calls.
            pub fn distance_batch(&self, pairs: &[(NodeId, NodeId)]) -> Vec<DistanceAnswer> {
                let mut out = Vec::with_capacity(pairs.len());
                let mut stats = QueryStats::default();
                self.distance_batch_accumulate(pairs, &mut out, &mut stats);
                out
            }

            /// Batched distances appending into caller-owned buffers.
            pub fn distance_batch_accumulate(
                &self,
                pairs: &[(NodeId, NodeId)],
                out: &mut Vec<DistanceAnswer>,
                accumulator: &mut QueryStats,
            ) {
                if self.overlay_is_empty() {
                    return self.base.distance_batch_accumulate(pairs, out, accumulator);
                }
                distance_batch_accumulate_on(self, pairs, out, accumulator);
            }

            /// True when no vicinity or landmark row is patched, so every
            /// index read resolves to the base: distance queries then go
            /// straight to it instead of probing empty overlay maps. The
            /// graph may still differ from the base graph; distances read
            /// only the index.
            #[inline]
            fn overlay_is_empty(&self) -> bool {
                self.overlay.is_empty() && self.rows.is_empty()
            }

            /// Exact shortest path between `s` and `t` on the current
            /// graph. The dynamic oracle always owns its graph, so
            /// landmark-endpoint queries reconstruct paths by greedy
            /// descent (the frozen oracle needs `path_with_graph` for
            /// those).
            pub fn path(&self, s: NodeId, t: NodeId) -> PathAnswer {
                path_on(self, Some(&self.graph), s, t)
            }

            /// Batched path queries; identical answers to per-pair
            /// [`Self::path`] calls.
            pub fn path_batch(&self, pairs: &[(NodeId, NodeId)]) -> Vec<PathAnswer> {
                path_batch_on(self, Some(&self.graph), pairs)
            }

            /// Number of nodes in the indexed graph (fixed).
            pub fn node_count(&self) -> usize {
                self.base.node_count()
            }

            /// Number of undirected edges in the current graph.
            pub fn edge_count(&self) -> usize {
                self.graph.edge_count()
            }

            /// The frozen base oracle the overlay currently patches.
            pub fn base(&self) -> &Arc<VicinityOracle> {
                &self.base
            }

            /// The current graph view.
            pub fn graph(&self) -> &OverlayGraph {
                &self.graph
            }

            /// Nodes currently carrying an overlay entry (patch or
            /// tombstone).
            pub fn overlay_len(&self) -> usize {
                self.overlay.len()
            }

            /// Landmark rows currently refreshed in the overlay.
            pub fn refreshed_rows(&self) -> usize {
                self.rows.len()
            }
        }
    };
}

/// An immutable, epoch-publishable view of a [`DynamicOracle`]: shares the
/// base oracle, overlay entries, refreshed rows and adjacency by `Arc`, so
/// producing one is O(overlay size) pointer copies. Implements the same
/// query surface as the writer (one shared implementation — see
/// [`QueryIndex`]).
#[derive(Debug, Clone)]
pub struct DynamicSnapshot {
    base: Arc<VicinityOracle>,
    overlay: OverlayMap,
    rows: RowMap,
    graph: OverlayGraph,
    version: u64,
}

impl_overlay_queries!(DynamicSnapshot);

impl DynamicSnapshot {
    /// The update version this snapshot reflects (one increment per
    /// applied edge update; compaction does not change answers and keeps
    /// the version).
    pub fn version(&self) -> u64 {
        self.version
    }
}

/// Phase breakdown of the most recent applied update: where the repair
/// time went and how large the affected sets were. Exposed for
/// benchmarking (`update_churn` reports aggregates) and operational
/// introspection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateProfile {
    /// Nanoseconds spent repairing nearest-landmark labels.
    pub labels_ns: u64,
    /// Nanoseconds spent repairing landmark rows.
    pub rows_ns: u64,
    /// Nanoseconds spent enumerating the affected-vicinity clusters.
    pub cluster_ns: u64,
    /// Nanoseconds spent rebuilding and folding affected vicinities.
    pub rebuild_ns: u64,
    /// Landmark rows actually repaired (the rest passed the O(1) check).
    pub rows_repaired: u32,
    /// Nodes whose `(radius, nearest)` header changed.
    pub header_changes: u32,
    /// Vicinities rebuilt (header changes plus endpoint clusters).
    pub affected_vicinities: u32,
}

/// The writer-side dynamic oracle: a frozen [`VicinityOracle`] base plus
/// the mutable delta overlay, with `insert_edge` / `remove_edge`
/// incremental maintenance and overlay compaction. See the module docs for
/// the design; see [`DynamicOracle::snapshot`] for the reader side.
///
/// The landmark set `L` is fixed at construction (it came from the base
/// oracle). A from-scratch rebuild over the mutated graph with the *same*
/// landmark set (pin it with [`crate::OracleBuilder::landmarks`]) produces
/// identical answers — distances, paths and answer methods — which is the
/// property the `dynamic_updates` proptests pin.
#[derive(Debug)]
pub struct DynamicOracle {
    base: Arc<VicinityOracle>,
    graph: OverlayGraph,
    overlay: OverlayMap,
    rows: RowMap,
    /// Exact `d(u, L)` per node (`INFINITY` = no landmark reachable).
    radius: Vec<Distance>,
    /// The smallest-id landmark attaining `radius[u]` — the builder's
    /// canonical tie rule ([`crate::ball::BallRadii`]) — supported by a
    /// neighbour chain (`INVALID_NODE` when unreachable). The query
    /// bounds rely on `d(u, nearest[u]) == radius[u]` being exact, and
    /// the canonical choice makes the landmark walk, and so every answer
    /// method, match a pinned rebuild's.
    nearest: Vec<NodeId>,
    /// Cached `has_saturated` per landmark row, computed lazily on the
    /// first decremental repair touching the row.
    row_saturated: FastMap<NodeId, bool>,
    /// The fixed landmark ids (a copy of the base's set, so repair loops
    /// do not borrow `base` while mutating the overlay).
    landmark_ids: Vec<NodeId>,
    version: u64,
    compaction_limit: usize,
    /// Σ `budget_cost` over live patches (tombstones are free).
    overlay_budget: usize,
    /// Σ delta entries over refreshed rows (counts toward compaction).
    row_budget: usize,
    compactions: u64,
    last_profile: UpdateProfile,
    bfs: BoundedBfsScratch,
    /// Stamp-versioned visit marks for cluster / region traversals.
    stamp: Vec<u32>,
    stamp_version: u32,
    /// Per-node distances for the stamped traversals, valid where stamped.
    stamp_dist: Vec<Distance>,
}

impl_overlay_queries!(DynamicOracle);

impl DynamicOracle {
    /// Wrap a frozen oracle and the graph it was built over. The graph
    /// must be the exact build graph (node counts are verified; adjacency
    /// is trusted, as with [`crate::fallback::QueryWithFallback`]).
    pub fn new(base: Arc<VicinityOracle>, graph: Arc<CsrGraph>) -> Result<Self, UpdateError> {
        if base.node_count() != graph.node_count() {
            return Err(UpdateError::GraphMismatch {
                oracle_nodes: base.node_count(),
                graph_nodes: graph.node_count(),
            });
        }
        let n = base.node_count();
        let (radii, nearest_raw) = {
            let s = base.store().raw_sections();
            (s.0, s.1)
        };
        // Reconstruct full-width labels from the store headers: the store
        // encodes landmark-free nodes as (hop_bound, INVALID_NODE).
        let mut radius = Vec::with_capacity(n);
        let mut nearest = Vec::with_capacity(n);
        for u in 0..n {
            if nearest_raw[u] == INVALID_NODE {
                radius.push(INFINITY);
                nearest.push(INVALID_NODE);
            } else {
                radius.push(radii[u]);
                nearest.push(nearest_raw[u]);
            }
        }
        // Default budget: an eighth of the base store before folding.
        let compaction_limit = (base.store().total_entries() as usize / 8).max(4 * 1024);
        let landmark_ids = base.landmarks().nodes().to_vec();
        Ok(DynamicOracle {
            base,
            graph: OverlayGraph::new(graph),
            overlay: FastMap::default(),
            rows: FastMap::default(),
            radius,
            nearest,
            row_saturated: FastMap::default(),
            landmark_ids,
            version: 0,
            compaction_limit,
            overlay_budget: 0,
            row_budget: 0,
            compactions: 0,
            last_profile: UpdateProfile::default(),
            bfs: BoundedBfsScratch::with_node_capacity(n),
            stamp: vec![0; n],
            stamp_version: 0,
            stamp_dist: vec![0; n],
        })
    }

    /// Convenience constructor from owned parts.
    pub fn from_parts(base: VicinityOracle, graph: CsrGraph) -> Result<Self, UpdateError> {
        Self::new(Arc::new(base), Arc::new(graph))
    }

    /// Override the overlay budget (total patched vicinity entries) above
    /// which updates trigger an automatic [`DynamicOracle::compact`].
    pub fn with_compaction_limit(mut self, limit: usize) -> Self {
        self.compaction_limit = limit.max(1);
        self
    }

    /// Monotone update counter: one increment per *applied* edge update.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of compaction folds performed so far.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Phase breakdown of the most recent applied update.
    pub fn last_update_profile(&self) -> UpdateProfile {
        self.last_profile
    }

    /// Publish an immutable snapshot of the current state.
    pub fn snapshot(&self) -> DynamicSnapshot {
        DynamicSnapshot {
            base: Arc::clone(&self.base),
            overlay: self.overlay.clone(),
            rows: self.rows.clone(),
            graph: self.graph.clone(),
            version: self.version,
        }
    }

    fn check_ids(&self, a: NodeId, b: NodeId) -> Result<(), UpdateError> {
        let n = self.base.node_count();
        for node in [a, b] {
            if node as usize >= n {
                return Err(UpdateError::NodeOutOfRange {
                    node,
                    node_count: n,
                });
            }
        }
        if a == b {
            return Err(UpdateError::SelfLoop { node: a });
        }
        Ok(())
    }

    /// Insert the undirected edge `{a, b}`. Returns `Ok(false)` (a no-op)
    /// when the edge already exists. On success the index is exact for the
    /// new graph before the call returns.
    pub fn insert_edge(&mut self, a: NodeId, b: NodeId) -> Result<bool, UpdateError> {
        self.check_ids(a, b)?;
        if self.graph.has_edge(a, b) {
            return Ok(false);
        }
        self.graph.insert_edge(a, b);
        let mut profile = UpdateProfile::default();

        // 1. Nearest-landmark labels: distances only improve; flood the
        //    improvement from the side the new edge shortcuts.
        let mut affected: Vec<(NodeId, bool)> = Vec::new();
        let phase = std::time::Instant::now();
        self.improve_labels(a, b, &mut affected);
        profile.labels_ns = phase.elapsed().as_nanos() as u64;
        profile.header_changes = affected.len() as u32;

        // 2. Landmark rows, each in its clamped u16 domain.
        let phase = std::time::Instant::now();
        profile.rows_repaired = self.repair_rows_insert(a, b);
        profile.rows_ns = phase.elapsed().as_nanos() as u64;

        // 3. Vicinities: header changes plus both endpoint clusters on the
        //    new state.
        let phase = std::time::Instant::now();
        self.collect_cluster(a, &mut affected);
        self.collect_cluster(b, &mut affected);
        dedup_affected(&mut affected);
        profile.cluster_ns = phase.elapsed().as_nanos() as u64;
        profile.affected_vicinities = affected.len() as u32;
        let phase = std::time::Instant::now();
        self.rebuild_vicinities(&affected, a, b);
        profile.rebuild_ns = phase.elapsed().as_nanos() as u64;
        self.last_profile = profile;

        self.version += 1;
        if self.overlay_budget + self.row_budget > self.compaction_limit {
            self.compact();
        }
        Ok(true)
    }

    /// Remove the undirected edge `{a, b}`. Returns `Ok(false)` (a no-op)
    /// when the edge is not present. On success the index is exact for the
    /// new graph before the call returns.
    pub fn remove_edge(&mut self, a: NodeId, b: NodeId) -> Result<bool, UpdateError> {
        self.check_ids(a, b)?;
        if !self.graph.has_edge(a, b) {
            return Ok(false);
        }
        let mut profile = UpdateProfile::default();
        // Pre-update clusters: the affected-vicinity argument runs on the
        // state in which the edge still exists (post-update distances only
        // grow, so post-update clusters are subsets of these plus the
        // header-changed set).
        let mut affected: Vec<(NodeId, bool)> = Vec::new();
        let phase = std::time::Instant::now();
        self.collect_cluster(a, &mut affected);
        self.collect_cluster(b, &mut affected);
        profile.cluster_ns = phase.elapsed().as_nanos() as u64;

        self.graph.remove_edge(a, b);

        // 1. Nearest-landmark labels (decremental, label-aware).
        let phase = std::time::Instant::now();
        let cluster_nodes = affected.len();
        self.decrement_labels(a, b, &mut affected);
        profile.labels_ns = phase.elapsed().as_nanos() as u64;
        profile.header_changes = (affected.len() - cluster_nodes) as u32;

        // 2. Landmark rows.
        let phase = std::time::Instant::now();
        profile.rows_repaired = self.repair_rows_remove(a, b);
        profile.rows_ns = phase.elapsed().as_nanos() as u64;

        // 3. Vicinities.
        let phase = std::time::Instant::now();
        dedup_affected(&mut affected);
        profile.affected_vicinities = affected.len() as u32;
        self.rebuild_vicinities(&affected, a, b);
        profile.rebuild_ns = phase.elapsed().as_nanos() as u64;
        self.last_profile = profile;

        self.version += 1;
        if self.overlay_budget + self.row_budget > self.compaction_limit {
            self.compact();
        }
        Ok(true)
    }

    /// Fold the overlay back into a fresh frozen base: a new CSR graph, a
    /// new flat store (patched spans spliced over base spans), and the
    /// refreshed landmark rows adopted by Arc move. Answers are unchanged,
    /// so the version (and any epoch-stamped cache entries keyed on it)
    /// stays valid.
    pub fn compact(&mut self) {
        if self.overlay.is_empty() && self.rows.is_empty() && self.graph.patched.is_empty() {
            return;
        }
        let csr = self.graph.to_csr();
        let n = self.base.node_count();
        let store_paths = self.base.stores_paths();
        let (
            b_radii,
            b_nearest,
            b_offsets,
            b_members,
            b_distances,
            b_preds,
            b_boundary_offsets,
            b_boundary,
        ) = self.base.store().raw_sections();

        let mut radii = Vec::with_capacity(n);
        let mut nearest = Vec::with_capacity(n);
        let mut offsets = Vec::with_capacity(n + 1);
        let mut members: Vec<NodeId> = Vec::with_capacity(b_members.len());
        let mut distances: Vec<Distance> = Vec::with_capacity(b_distances.len());
        let mut predecessors: Vec<NodeId> = Vec::with_capacity(b_preds.len());
        let mut boundary_offsets = Vec::with_capacity(n + 1);
        let mut boundary: Vec<u32> = Vec::with_capacity(b_boundary.len());
        offsets.push(0u64);
        boundary_offsets.push(0u64);

        for u in 0..n {
            match self.overlay.get(&(u as NodeId)).map(Arc::as_ref) {
                Some(OverlayEntry::Patched(v)) => {
                    radii.push(v.radius);
                    nearest.push(v.nearest);
                    members.extend_from_slice(&v.members);
                    distances.extend_from_slice(&v.distances);
                    predecessors.extend_from_slice(&v.predecessors);
                    boundary.extend_from_slice(&v.boundary);
                }
                Some(OverlayEntry::Tombstone) | None => {
                    let (start, end) = (b_offsets[u] as usize, b_offsets[u + 1] as usize);
                    let (bs, be) = (
                        b_boundary_offsets[u] as usize,
                        b_boundary_offsets[u + 1] as usize,
                    );
                    radii.push(b_radii[u]);
                    nearest.push(b_nearest[u]);
                    members.extend_from_slice(&b_members[start..end]);
                    distances.extend_from_slice(&b_distances[start..end]);
                    if store_paths && !b_preds.is_empty() {
                        predecessors.extend_from_slice(&b_preds[start..end]);
                    }
                    boundary.extend_from_slice(&b_boundary[bs..be]);
                }
            }
            offsets.push(members.len() as u64);
            boundary_offsets.push(boundary.len() as u64);
        }

        let store = crate::vicinity::VicinityStore::from_raw(
            radii,
            nearest,
            offsets,
            members,
            distances,
            predecessors,
            boundary_offsets,
            boundary,
        );

        let mut landmark_tables = self.base.landmark_tables.clone();
        for (l, patch) in self.rows.drain() {
            let owned = Arc::try_unwrap(patch).unwrap_or_else(|shared| (*shared).clone());
            let fresh = match owned {
                RowPatch::Full(table) => table,
                RowPatch::Delta(delta) => {
                    // Materialise the delta over a copy of the base row —
                    // the one place a dense row copy is paid, amortised
                    // over the whole overlay lifetime.
                    let mut table = landmark_tables
                        .get(&l)
                        .expect("patched landmark has a base row")
                        .as_ref()
                        .clone();
                    for (v, value) in delta {
                        table.raw_mut()[v as usize] = value;
                    }
                    table
                }
            };
            landmark_tables.insert(l, Arc::new(fresh));
        }
        self.row_budget = 0;

        let oracle = VicinityOracle {
            config: self.base.config().clone(),
            node_count: n,
            edge_count: csr.edge_count(),
            landmarks: self.base.landmarks().clone(),
            store,
            landmark_tables,
        };
        self.base = Arc::new(oracle);
        self.graph = OverlayGraph::new(Arc::new(csr));
        // `rows` was emptied by the drain above (its budget zeroed with it).
        self.overlay.clear();
        self.overlay_budget = 0;
        self.compactions += 1;
    }

    /// Next stamp version for a traversal over `self.stamp`.
    fn bump_stamp(&mut self) -> u32 {
        self.stamp_version = self.stamp_version.wrapping_add(1);
        if self.stamp_version == 0 {
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.stamp_version = 1;
        }
        self.stamp_version
    }

    /// Incremental (insert-side) label repair: flood strictly smaller
    /// `(distance, label)` pairs, compared lexicographically, from
    /// whichever endpoint the new edge shortcuts. On insertion distances
    /// only shrink and, at an unchanged distance, the least landmark can
    /// only get smaller, so flooding improvements reaches the canonical
    /// labels: an equal-length route to a smaller-id landmark changes the
    /// label too. Nodes whose header changed are appended to `changed`.
    fn improve_labels(&mut self, a: NodeId, b: NodeId, changed: &mut Vec<(NodeId, bool)>) {
        let graph = &self.graph;
        let radius = &mut self.radius;
        let nearest = &mut self.nearest;
        let label_of = |u: NodeId| (radius[u as usize], nearest[u as usize]);
        let via = |u: NodeId| (radius[u as usize].saturating_add(1), nearest[u as usize]);
        let (seed, from) = if via(a) < label_of(b) {
            (b, a)
        } else if via(b) < label_of(a) {
            (a, b)
        } else {
            return;
        };
        let mut queue: VecDeque<(NodeId, Distance, NodeId)> = VecDeque::new();
        queue.push_back((seed, radius[from as usize] + 1, nearest[from as usize]));
        while let Some((v, d, label)) = queue.pop_front() {
            if (d, label) >= (radius[v as usize], nearest[v as usize]) {
                continue;
            }
            radius[v as usize] = d;
            nearest[v as usize] = label;
            changed.push((v, true));
            for &w in graph.neighbors(v) {
                if (d + 1, label) < (radius[w as usize], nearest[w as usize]) {
                    queue.push_back((w, d + 1, label));
                }
            }
        }
    }

    /// Decremental (remove-side) label repair, support-aware. The removed
    /// edge can only have carried label support from `lo` up to the deeper
    /// endpoint `hi`; if `hi` still has a same-label supporter one level
    /// down, nothing changed at all (the overwhelmingly common case on
    /// dense graphs). Otherwise the **orphan set** `A` is computed by the
    /// classic two-phase decremental scheme — a node joins `A` when every
    /// same-label supporter it has sits in `A` itself, and joining re-
    /// queues its same-label dependents — and exactly `A` is recomputed
    /// from its boundary by a unit-weight Dijkstra carrying labels. Nodes
    /// outside `A` keep valid `(distance, label)` pairs by the fixpoint
    /// argument: their support chains stay outside `A` all the way down.
    /// They stay canonical too: on deletion distances only grow and, at
    /// an unchanged distance, the least landmark can only get larger, so a
    /// label that keeps its support is still the smallest.
    fn decrement_labels(&mut self, a: NodeId, b: NodeId, changed: &mut Vec<(NodeId, bool)>) {
        let (ra, rb) = (self.radius[a as usize], self.radius[b as usize]);
        if ra == INFINITY && rb == INFINITY {
            return;
        }
        // Both finite (they were adjacent); the edge can only carry
        // support across a one-level step.
        let hi = if ra == rb.saturating_add(1) {
            a
        } else if rb == ra.saturating_add(1) {
            b
        } else {
            return;
        };

        // Phase 1: the orphan set.
        let stamp = self.bump_stamp();
        let graph = &self.graph;
        let radius = &self.radius;
        let nearest = &self.nearest;
        let stamps = &mut self.stamp;
        let mut region: Vec<NodeId> = Vec::new();
        let mut candidates: VecDeque<NodeId> = VecDeque::new();
        candidates.push_back(hi);
        while let Some(v) = candidates.pop_front() {
            if stamps[v as usize] == stamp {
                continue; // already an orphan
            }
            let (vv, vl) = (radius[v as usize], nearest[v as usize]);
            let supported = graph.neighbors(v).iter().any(|&x| {
                stamps[x as usize] != stamp
                    && radius[x as usize] == vv - 1
                    && nearest[x as usize] == vl
            });
            if supported {
                continue;
            }
            stamps[v as usize] = stamp;
            region.push(v);
            // Same-label dependents one level up must re-examine their
            // support (including ones that passed an earlier check on the
            // strength of `v`).
            for &w in graph.neighbors(v) {
                if stamps[w as usize] != stamp
                    && radius[w as usize] != INFINITY
                    && radius[w as usize] == vv + 1
                    && nearest[w as usize] == vl
                {
                    candidates.push_back(w);
                }
            }
        }
        if region.is_empty() {
            return;
        }

        // Phase 2: recompute the orphans from the region boundary, taking
        // the lexicographically least `(distance, label)` pair, so every
        // orphan ends with the canonical smallest-id nearest landmark.
        let mut heap: BinaryHeap<Reverse<(Distance, NodeId, NodeId)>> = BinaryHeap::new();
        let mut new_label: FastMap<NodeId, NodeId> = FastMap::default();
        for &v in &region {
            let mut best = (INFINITY, INVALID_NODE);
            for &w in graph.neighbors(v) {
                if stamps[w as usize] != stamp && radius[w as usize] != INFINITY {
                    best = best.min((radius[w as usize] + 1, nearest[w as usize]));
                }
            }
            self.stamp_dist[v as usize] = best.0;
            if best.0 != INFINITY {
                new_label.insert(v, best.1);
                heap.push(Reverse((best.0, best.1, v)));
            }
        }
        let mut settled: FastMap<NodeId, ()> = FastMap::default();
        while let Some(Reverse((d, label, v))) = heap.pop() {
            if settled.contains_key(&v) || (d, label) > (self.stamp_dist[v as usize], new_label[&v])
            {
                continue;
            }
            settled.insert(v, ());
            for &w in graph.neighbors(v) {
                if stamps[w as usize] != stamp || settled.contains_key(&w) {
                    continue;
                }
                let current = (
                    self.stamp_dist[w as usize],
                    new_label.get(&w).copied().unwrap_or(INVALID_NODE),
                );
                if (d + 1, label) < current {
                    self.stamp_dist[w as usize] = d + 1;
                    new_label.insert(w, label);
                    heap.push(Reverse((d + 1, label, w)));
                }
            }
        }
        for &v in &region {
            let new_radius = self.stamp_dist[v as usize];
            let new_nearest = if new_radius == INFINITY {
                INVALID_NODE
            } else {
                *new_label.get(&v).expect("finite node carries a label")
            };
            if new_radius != self.radius[v as usize] || new_nearest != self.nearest[v as usize] {
                self.radius[v as usize] = new_radius;
                self.nearest[v as usize] = new_nearest;
                changed.push((v, true));
            }
        }
    }

    /// Enumerate the closed cluster `C̄(x) = { u : d(u, x) ≤ radius(u) }`
    /// by pruned BFS (nodes on shortest `x`–`u` paths of members are
    /// members, so pruning non-members is exact), classifying each member:
    /// `true` when `d(u, x) < radius(u)` — the open-cluster members whose
    /// vicinity *content* the edge can change — and `false` for the
    /// closed-shell members (`d(u, x) == radius(u)` exactly), where the
    /// only possible change is the endpoint's own boundary bit.
    /// Landmark-free nodes (`radius == INFINITY`) admit everything in
    /// their component, matching their degenerate whole-component
    /// vicinities.
    fn collect_cluster(&mut self, x: NodeId, out: &mut Vec<(NodeId, bool)>) {
        let stamp = self.bump_stamp();
        let graph = &self.graph;
        let radius = &self.radius;
        let mut queue: VecDeque<(NodeId, Distance)> = VecDeque::new();
        self.stamp[x as usize] = stamp;
        queue.push_back((x, 0));
        out.push((x, radius[x as usize] > 0));
        while let Some((v, d)) = queue.pop_front() {
            for &w in graph.neighbors(v) {
                if self.stamp[w as usize] != stamp && d < radius[w as usize] {
                    self.stamp[w as usize] = stamp;
                    queue.push_back((w, d + 1));
                    out.push((w, d + 1 < radius[w as usize]));
                }
            }
        }
    }

    /// Rebuild the vicinities of `affected` (sorted, deduplicated, each
    /// tagged full vs shell) on the current graph and fold the results
    /// into the overlay. Full entries take the bounded truncated-BFS
    /// rebuild; shell entries — nodes holding an update endpoint at
    /// exactly their ball radius — can only have that endpoint's boundary
    /// bit change, so they take a probe-and-copy fast path that usually
    /// turns out to be a no-op.
    fn rebuild_vicinities(&mut self, affected: &[(NodeId, bool)], a: NodeId, b: NodeId) {
        let store_paths = self.base.stores_paths();
        for &(u, full) in affected {
            if self.base.is_landmark(u) {
                // Landmarks keep their empty vicinity (radius 0) forever.
                continue;
            }
            if !full {
                self.patch_boundary_bits(u, a, b);
                continue;
            }
            let radius_opt =
                (self.radius[u as usize] != INFINITY).then_some(self.radius[u as usize]);
            let nearest_opt =
                (self.nearest[u as usize] != INVALID_NODE).then_some(self.nearest[u as usize]);
            let owned = OwnedVicinity::build(
                &self.graph,
                u,
                radius_opt,
                nearest_opt,
                store_paths,
                &mut self.bfs,
            );
            self.fold_patch(u, owned);
        }
    }

    /// Shell fast path: `u` holds an update endpoint at exactly its ball
    /// radius, so no distance or membership changed — only the escape bit
    /// of the endpoint member(s) can have flipped. Recompute those bits by
    /// membership probes; patch only when a bit actually flipped.
    fn patch_boundary_bits(&mut self, u: NodeId, a: NodeId, b: NodeId) {
        let current =
            view_vicinity(&self.base, &self.overlay, u).expect("affected nodes are in range");
        let mut flips: Vec<(u32, bool)> = Vec::new();
        for endpoint in [a, b] {
            let Ok(idx) = current.members().binary_search(&endpoint) else {
                continue;
            };
            let stored = current.raw_boundary().binary_search(&(idx as u32)).is_ok();
            let escapes = self
                .graph
                .neighbors(endpoint)
                .iter()
                .any(|&w| !current.contains(w));
            if stored != escapes {
                flips.push((idx as u32, escapes));
            }
        }
        if flips.is_empty() {
            return;
        }
        let mut boundary = current.raw_boundary().to_vec();
        for (idx, escapes) in flips {
            match boundary.binary_search(&idx) {
                Ok(pos) if !escapes => {
                    boundary.remove(pos);
                }
                Err(pos) if escapes => {
                    boundary.insert(pos, idx);
                }
                _ => {}
            }
        }
        let owned = OwnedVicinity {
            radius: current.radius(),
            nearest: current.raw_nearest(),
            members: current.members().to_vec(),
            distances: current.raw_distances().to_vec(),
            predecessors: current.raw_predecessors().to_vec(),
            boundary,
            shell_offsets: current.raw_shell_offsets().to_vec(),
            shell_data: current.raw_shell_data().to_vec(),
            hash_slots: current.raw_hash_slots().to_vec(),
        };
        self.fold_patch(u, owned);
    }

    /// Fold one rebuilt vicinity into the overlay: identical-to-base
    /// becomes a tombstone (or no entry), anything else a patch; the
    /// overlay budget tracks live patch sizes.
    fn fold_patch(&mut self, u: NodeId, owned: OwnedVicinity) {
        let base_ref = self.base.vicinity(u).expect("in range");
        let old_cost = match self.overlay.get(&u).map(Arc::as_ref) {
            Some(OverlayEntry::Patched(v)) => v.budget_cost(),
            _ => 0,
        };
        if owned.matches_base(&base_ref) {
            if self.overlay.contains_key(&u) {
                self.overlay.insert(u, Arc::new(OverlayEntry::Tombstone));
            }
            self.overlay_budget -= old_cost;
        } else {
            self.overlay_budget = self.overlay_budget - old_cost + owned.budget_cost();
            self.overlay
                .insert(u, Arc::new(OverlayEntry::Patched(owned)));
        }
    }

    /// Take landmark `l`'s working row patch out of the overlay (empty
    /// delta on first touch). `Arc::try_unwrap` avoids cloning whenever no
    /// published snapshot still shares the patch — and the patch is a
    /// sparse delta, so even the shared case copies entries, not rows.
    fn take_row_patch(&mut self, l: NodeId) -> RowPatch {
        match self.rows.remove(&l) {
            Some(arc) => {
                let patch = Arc::try_unwrap(arc).unwrap_or_else(|shared| (*shared).clone());
                if let RowPatch::Delta(delta) = &patch {
                    self.row_budget -= delta.len();
                }
                patch
            }
            None => RowPatch::Delta(FastMap::default()),
        }
    }

    /// Put a working row patch back (dropping empty deltas) and account
    /// its entries toward the compaction budget.
    fn store_row_patch(&mut self, l: NodeId, patch: RowPatch) {
        if let RowPatch::Delta(delta) = &patch {
            if delta.is_empty() {
                return;
            }
            self.row_budget += delta.len();
        }
        self.rows.insert(l, Arc::new(patch));
    }

    /// Insert-side repair of every landmark row. The row encoding is
    /// monotone (`exact < SATURATED < UNREACHABLE`), so a clamped
    /// improve-BFS in the raw `u16` domain is exact: improvements clamp at
    /// the saturation sentinel exactly as a rebuild's encoder would.
    /// Repairs write sparse delta entries — the touched region, not the
    /// row — so a single-entry improvement costs a map insert.
    fn repair_rows_insert(&mut self, a: NodeId, b: NodeId) -> u32 {
        let mut repaired = 0u32;
        let base = Arc::clone(&self.base);
        let landmark_ids = std::mem::take(&mut self.landmark_ids);
        for &l in &landmark_ids {
            let Some(row) = view_row(&base, &self.rows, l) else {
                continue;
            };
            let (raw_a, raw_b) = (row_raw(&row, a), row_raw(&row, b));
            let (seed, seed_val, other) = if clamped_step(raw_a) < raw_b {
                (b, clamped_step(raw_a), raw_b)
            } else if clamped_step(raw_b) < raw_a {
                (a, clamped_step(raw_b), raw_a)
            } else {
                continue;
            };
            if seed_val >= SATURATED_U16 {
                // The improvement is not representable below the
                // saturation sentinel. Saturated-over-saturated stays
                // saturated (sound to skip), but saturated-over-
                // unreachable means a previously disconnected region just
                // connected beyond the 16-bit horizon — recompute so the
                // row does not keep claiming (definitive) unreachability.
                if other == UNREACHABLE_U16 {
                    self.recompute_row(l);
                    repaired += 1;
                }
                continue;
            }
            repaired += 1;
            let mut patch = self.take_row_patch(l);
            let base_raw = base.landmark_table(l).expect("landmark has a row").raw();
            let mut wrote_saturated = false;
            {
                let graph = &self.graph;
                let mut queue: VecDeque<(NodeId, u16)> = VecDeque::new();
                queue.push_back((seed, seed_val));
                while let Some((v, d)) = queue.pop_front() {
                    if d >= patch_value(base_raw, &patch, v) {
                        continue;
                    }
                    patch_write(&mut patch, v, d);
                    if d == SATURATED_U16 {
                        wrote_saturated = true;
                    }
                    let next = clamped_step(d);
                    for &w in graph.neighbors(v) {
                        if next < patch_value(base_raw, &patch, w) {
                            queue.push_back((w, next));
                        }
                    }
                }
            }
            if wrote_saturated {
                self.row_saturated.insert(l, true);
            }
            self.store_row_patch(l, patch);
        }
        self.landmark_ids = landmark_ids;
        repaired
    }

    /// Remove-side repair of every landmark row: the O(1) level check
    /// proves most rows untouched, a support probe on the deeper endpoint
    /// dismisses nearly all of the rest, rows with saturated entries are
    /// recomputed wholesale (clamped decremental repair cannot see through
    /// "unknown large" values), and only genuinely orphaned regions take
    /// the decremental recompute.
    fn repair_rows_remove(&mut self, a: NodeId, b: NodeId) -> u32 {
        let mut repaired = 0u32;
        let base = Arc::clone(&self.base);
        let landmark_ids = std::mem::take(&mut self.landmark_ids);
        for &l in &landmark_ids {
            let Some(row) = view_row(&base, &self.rows, l) else {
                continue;
            };
            let (raw_a, raw_b) = (row_raw(&row, a), row_raw(&row, b));
            if raw_a == UNREACHABLE_U16 && raw_b == UNREACHABLE_U16 {
                continue;
            }
            // Pre-removal adjacency bounds |row[a] - row[b]| by one; only
            // a one-level edge can carry shortest paths.
            let hi = if raw_a == clamped_step(raw_b) && raw_a != raw_b {
                a
            } else if raw_b == clamped_step(raw_a) && raw_a != raw_b {
                b
            } else {
                continue;
            };
            let saturated = match self.row_saturated.get(&l) {
                Some(&flag) => flag,
                None => {
                    let flag = row_has_saturated(&base, &self.rows, l);
                    self.row_saturated.insert(l, flag);
                    flag
                }
            };
            if saturated {
                self.recompute_row(l);
                repaired += 1;
                continue;
            }
            if self.decrement_row(&base, l, hi) {
                repaired += 1;
            }
        }
        self.landmark_ids = landmark_ids;
        repaired
    }

    /// Support-aware decremental repair of landmark `l`'s row from the
    /// deeper endpoint `hi`, in the clamped `u16` domain (exact here: the
    /// row carries no saturated entries). Returns whether anything
    /// changed. The orphan set — nodes whose every supporter is itself an
    /// orphan — is exactly the set of entries that increase, so the usual
    /// case (`hi` still supported) costs one neighbour scan.
    fn decrement_row(&mut self, base: &Arc<VicinityOracle>, l: NodeId, hi: NodeId) -> bool {
        let base_raw = base.landmark_table(l).expect("landmark has a row").raw();
        // A cheap Arc clone keeps the read closure free of `self` borrows
        // (it is dropped before the working patch is taken out).
        let patch_arc: Option<Arc<RowPatch>> = self.rows.get(&l).cloned();
        let value_now = |v: NodeId| -> u16 {
            match patch_arc.as_deref() {
                Some(patch) => patch_value(base_raw, patch, v),
                None => base_raw[v as usize],
            }
        };
        // Phase 0: the deleted edge mattered only if it was `hi`'s last
        // support.
        let hv = value_now(hi);
        debug_assert!(hv < SATURATED_U16, "flagged rows take the recompute path");
        if self
            .graph
            .neighbors(hi)
            .iter()
            .any(|&x| value_now(x) == hv - 1)
        {
            return false;
        }

        // Phase 1: orphan propagation.
        let stamp = self.bump_stamp();
        let stamps = &mut self.stamp;
        let graph = &self.graph;
        let mut region: Vec<NodeId> = Vec::new();
        let mut candidates: VecDeque<NodeId> = VecDeque::new();
        candidates.push_back(hi);
        while let Some(v) = candidates.pop_front() {
            if stamps[v as usize] == stamp {
                continue;
            }
            let vv = value_now(v);
            let supported = graph
                .neighbors(v)
                .iter()
                .any(|&x| stamps[x as usize] != stamp && value_now(x) == vv - 1);
            if supported {
                continue;
            }
            stamps[v as usize] = stamp;
            region.push(v);
            for &w in graph.neighbors(v) {
                if stamps[w as usize] != stamp && value_now(w) == vv + 1 {
                    candidates.push_back(w);
                }
            }
        }

        // Phase 2: boundary-seeded unit Dijkstra over the orphans (u32
        // domain, encoded back clamped).
        let mut heap: BinaryHeap<Reverse<(Distance, NodeId)>> = BinaryHeap::new();
        for &v in &region {
            let mut best = INFINITY;
            for &w in graph.neighbors(v) {
                if stamps[w as usize] != stamp {
                    let raw = value_now(w);
                    if raw != UNREACHABLE_U16 {
                        best = best.min(raw as Distance + 1);
                    }
                }
            }
            self.stamp_dist[v as usize] = best;
            if best != INFINITY {
                heap.push(Reverse((best, v)));
            }
        }
        let mut settled: FastMap<NodeId, ()> = FastMap::default();
        while let Some(Reverse((d, v))) = heap.pop() {
            if settled.contains_key(&v) || d > self.stamp_dist[v as usize] {
                continue;
            }
            settled.insert(v, ());
            for &w in graph.neighbors(v) {
                if stamps[w as usize] == stamp
                    && !settled.contains_key(&w)
                    && d + 1 < self.stamp_dist[w as usize]
                {
                    self.stamp_dist[w as usize] = d + 1;
                    heap.push(Reverse((d + 1, w)));
                }
            }
        }
        drop(patch_arc);
        let mut patch = self.take_row_patch(l);
        let mut wrote_saturated = false;
        for &v in &region {
            let d = self.stamp_dist[v as usize];
            let encoded = if d == INFINITY {
                UNREACHABLE_U16
            } else if d >= SATURATED_U16 as Distance {
                wrote_saturated = true;
                SATURATED_U16
            } else {
                d as u16
            };
            patch_write(&mut patch, v, encoded);
        }
        if wrote_saturated {
            self.row_saturated.insert(l, true);
        }
        self.store_row_patch(l, patch);
        true
    }

    /// Recompute landmark `l`'s row wholesale by one full BFS on the
    /// current graph — the fallback for rows whose saturated entries make
    /// incremental repair unsound. O(n + m); only reachable on graphs with
    /// >2¹⁶−2-hop distances.
    fn recompute_row(&mut self, l: NodeId) {
        let visited = self.bfs.bounded_bfs(&self.graph, l, self.graph.hop_bound());
        let mut distances = vec![INFINITY; self.graph.node_count()];
        for v in &visited {
            distances[v.node as usize] = v.distance;
        }
        let fresh = LandmarkTable::from_distances(&distances);
        self.row_saturated.insert(l, fresh.has_saturated());
        let _ = self.take_row_patch(l); // release any delta budget
        self.rows.insert(l, Arc::new(RowPatch::Full(fresh)));
    }
}

/// Sort-and-dedup a classified affected set: per node, a full-rebuild tag
/// wins over a shell (boundary-bit) tag.
fn dedup_affected(affected: &mut Vec<(NodeId, bool)>) {
    affected.sort_unstable_by_key(|&(u, full)| (u, !full));
    affected.dedup_by(|a, b| a.0 == b.0);
}

/// Whether landmark `l`'s *current* row (base plus any patch) carries a
/// saturation sentinel.
fn row_has_saturated(base: &VicinityOracle, rows: &RowMap, l: NodeId) -> bool {
    match rows.get(&l).map(Arc::as_ref) {
        Some(RowPatch::Full(table)) => table.has_saturated(),
        Some(RowPatch::Delta(delta)) => {
            delta.values().any(|&v| v == SATURATED_U16)
                || base
                    .landmark_table(l)
                    .is_some_and(LandmarkTable::has_saturated)
        }
        None => base
            .landmark_table(l)
            .is_some_and(LandmarkTable::has_saturated),
    }
}

/// Raw row value of `v` (monotone encoding: exact < saturated <
/// unreachable).
#[inline]
fn row_raw(row: &RowRef<'_>, v: NodeId) -> u16 {
    match row.entry(v) {
        LandmarkEntry::Exact(d) => d as u16,
        LandmarkEntry::Saturated => SATURATED_U16,
        LandmarkEntry::Unreachable => UNREACHABLE_U16,
    }
}

/// Raw row value through a working patch, falling back to the base row.
#[inline]
fn patch_value(base_raw: &[u16], patch: &RowPatch, v: NodeId) -> u16 {
    match patch {
        RowPatch::Full(table) => table.raw()[v as usize],
        RowPatch::Delta(delta) => match delta.get(&v) {
            Some(&raw) => raw,
            None => base_raw[v as usize],
        },
    }
}

/// Write one raw row value into a working patch.
#[inline]
fn patch_write(patch: &mut RowPatch, v: NodeId, value: u16) {
    match patch {
        RowPatch::Full(table) => table.raw_mut()[v as usize] = value,
        RowPatch::Delta(delta) => {
            delta.insert(v, value);
        }
    }
}

/// `value + 1` in the clamped row domain: exact values step by one and
/// clamp into the saturation sentinel; saturated and unreachable values
/// propagate as saturated (a hop beyond an "unknown large" distance is
/// still unknown large; a hop beyond unreachable never occurs — callers
/// skip unreachable seeds).
#[inline]
fn clamped_step(value: u16) -> u16 {
    if value >= SATURATED_U16 {
        SATURATED_U16
    } else {
        (value + 1).min(SATURATED_U16)
    }
}

// Compile-time audit: snapshots are shared across serving threads; the
// writer moves between threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    const fn assert_send<T: Send>() {}
    assert_send_sync::<DynamicSnapshot>();
    assert_send_sync::<OverlayGraph>();
    assert_send::<DynamicOracle>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Alpha;
    use crate::OracleBuilder;
    use vicinity_graph::builder::GraphBuilder;
    use vicinity_graph::generators::classic;

    fn dynamic_over(graph: &CsrGraph, alpha: f64, seed: u64) -> DynamicOracle {
        let oracle = OracleBuilder::new(Alpha::new(alpha).unwrap())
            .seed(seed)
            .build(graph);
        DynamicOracle::from_parts(oracle, graph.clone()).unwrap()
    }

    /// All-pairs answer equality against a from-scratch rebuild with the
    /// same (pinned) landmark set on the mutated graph.
    fn assert_matches_rebuild(dynamic: &DynamicOracle) {
        let graph = dynamic.graph().to_csr();
        let rebuilt = OracleBuilder::from_config(dynamic.base().config().clone())
            .landmarks(dynamic.base().landmarks().nodes().to_vec())
            .build(&graph);
        let n = graph.node_count() as NodeId;
        for s in 0..n {
            for t in 0..n {
                assert_eq!(
                    dynamic.distance(s, t),
                    rebuilt.distance(s, t),
                    "distance ({s},{t})"
                );
                assert_eq!(
                    dynamic.path(s, t),
                    rebuilt.path_with_graph(&graph, s, t),
                    "path ({s},{t})"
                );
            }
        }
    }

    #[test]
    fn insert_shortcut_on_path_graph() {
        let g = classic::path(12);
        let mut dynamic = dynamic_over(&g, 2.0, 3);
        assert!(dynamic.insert_edge(0, 11).unwrap());
        assert_eq!(dynamic.version(), 1);
        assert_matches_rebuild(&dynamic);
        // Duplicate insert is a no-op.
        assert!(!dynamic.insert_edge(11, 0).unwrap());
        assert_eq!(dynamic.version(), 1);
    }

    #[test]
    fn remove_edge_splits_component() {
        let g = classic::path(10);
        let mut dynamic = dynamic_over(&g, 2.0, 5);
        assert!(dynamic.remove_edge(4, 5).unwrap());
        assert_matches_rebuild(&dynamic);
        assert!(
            dynamic.distance(0, 9).is_miss() || dynamic.distance(0, 9).is_unreachable(),
            "split components must not report a finite distance"
        );
        // Removing again is a no-op.
        assert!(!dynamic.remove_edge(4, 5).unwrap());
        // Re-inserting restores the original answers.
        assert!(dynamic.insert_edge(4, 5).unwrap());
        assert_matches_rebuild(&dynamic);
    }

    #[test]
    fn interleaved_updates_on_grid_match_rebuild() {
        let g = classic::grid(5, 5);
        let mut dynamic = dynamic_over(&g, 2.0, 7);
        let updates: &[(NodeId, NodeId, bool)] = &[
            (0, 24, true),
            (2, 3, false),
            (0, 24, false),
            (7, 18, true),
            (12, 13, false),
            (6, 19, true),
        ];
        for &(u, v, insert) in updates {
            let applied = if insert {
                dynamic.insert_edge(u, v).unwrap()
            } else {
                dynamic.remove_edge(u, v).unwrap()
            };
            assert!(applied, "scripted update ({u},{v},{insert}) must apply");
            assert_matches_rebuild(&dynamic);
        }
    }

    #[test]
    fn compaction_preserves_answers_and_resets_overlay() {
        let g = classic::grid(4, 6);
        let mut dynamic = dynamic_over(&g, 2.0, 9);
        dynamic.insert_edge(0, 23).unwrap();
        dynamic.remove_edge(5, 6).unwrap();
        assert!(dynamic.overlay_len() > 0);
        let before: Vec<DistanceAnswer> = (0..24)
            .flat_map(|s| (0..24).map(move |t| (s, t)))
            .map(|(s, t)| dynamic.distance(s, t))
            .collect();
        let version = dynamic.version();
        dynamic.compact();
        assert_eq!(dynamic.overlay_len(), 0);
        assert_eq!(dynamic.refreshed_rows(), 0);
        assert_eq!(dynamic.version(), version, "compaction keeps the version");
        assert_eq!(dynamic.compactions(), 1);
        let after: Vec<DistanceAnswer> = (0..24)
            .flat_map(|s| (0..24).map(move |t| (s, t)))
            .map(|(s, t)| dynamic.distance(s, t))
            .collect();
        assert_eq!(before, after);
        assert_matches_rebuild(&dynamic);
        // Further updates on the compacted base stay exact.
        dynamic.insert_edge(1, 22).unwrap();
        assert_matches_rebuild(&dynamic);
    }

    #[test]
    fn auto_compaction_fires_past_the_budget() {
        let g = classic::grid(5, 5);
        let oracle = OracleBuilder::new(Alpha::new(2.0).unwrap())
            .seed(11)
            .build(&g);
        let mut dynamic = DynamicOracle::from_parts(oracle, g)
            .unwrap()
            .with_compaction_limit(1);
        dynamic.insert_edge(0, 24).unwrap();
        assert!(
            dynamic.compactions() >= 1,
            "budget of 1 must trigger a fold"
        );
        assert_eq!(dynamic.overlay_len(), 0);
        assert_matches_rebuild(&dynamic);
    }

    #[test]
    fn update_errors() {
        let g = classic::path(4);
        let mut dynamic = dynamic_over(&g, 2.0, 1);
        assert_eq!(
            dynamic.insert_edge(0, 9),
            Err(UpdateError::NodeOutOfRange {
                node: 9,
                node_count: 4
            })
        );
        assert_eq!(
            dynamic.insert_edge(2, 2),
            Err(UpdateError::SelfLoop { node: 2 })
        );
        assert!(UpdateError::SelfLoop { node: 2 }.to_string().contains("2"));
        let mismatch = DynamicOracle::from_parts(
            OracleBuilder::new(Alpha::PAPER_DEFAULT).build(&classic::path(4)),
            classic::path(5),
        );
        assert_eq!(
            mismatch.err(),
            Some(UpdateError::GraphMismatch {
                oracle_nodes: 4,
                graph_nodes: 5
            })
        );
    }

    #[test]
    fn snapshot_is_stable_under_later_writes() {
        let g = classic::grid(4, 4);
        let mut dynamic = dynamic_over(&g, 2.0, 13);
        dynamic.insert_edge(0, 15).unwrap();
        let snapshot = dynamic.snapshot();
        let frozen_answer = snapshot.distance(0, 15);
        assert_eq!(frozen_answer.exact_distance(), Some(1));
        // Mutate after publishing: the snapshot must keep its version's
        // answers while the writer moves on.
        dynamic.remove_edge(0, 15).unwrap();
        assert_eq!(snapshot.distance(0, 15), frozen_answer);
        assert_eq!(snapshot.version(), 1);
        assert_eq!(dynamic.version(), 2);
        assert_ne!(
            dynamic.distance(0, 15).exact_distance(),
            Some(1),
            "writer sees the removal"
        );
    }

    #[test]
    fn reconnecting_landmark_free_component() {
        // Nodes 5..8 form a separate component with no landmark; insert an
        // edge bridging the components, then remove it again.
        let mut b = GraphBuilder::with_node_count(8);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 3);
        b.add_edge(0, 3);
        b.add_edge(5, 6);
        b.add_edge(6, 7);
        let g = b.build_undirected();
        let mut dynamic = dynamic_over(&g, 1.0, 2);
        assert_matches_rebuild(&dynamic);
        dynamic.insert_edge(3, 5).unwrap();
        assert_matches_rebuild(&dynamic);
        dynamic.remove_edge(3, 5).unwrap();
        assert_matches_rebuild(&dynamic);
    }

    #[test]
    fn equal_length_route_to_smaller_landmark_relabels() {
        // Landmarks 0 and 9. Node 5 starts three hops from 9 (5-3-8-9)
        // with 0's component detached. Inserting 5-7 gives it an equally
        // long route to 0 (5-7-1-0): its radius stays 3 and the canonical
        // label becomes the smaller landmark, as a rebuild would choose.
        // A shortcut 5-6 to 9 and its removal then exercise the repair in
        // both directions; after the removal, the neighbour leading to 9
        // (node 3) comes before the one leading to 0 (node 7).
        let mut b = GraphBuilder::with_node_count(10);
        for (u, v) in [
            (0, 1),
            (1, 7),
            (1, 2),
            (9, 8),
            (8, 3),
            (8, 4),
            (3, 5),
            (9, 6),
        ] {
            b.add_edge(u, v);
        }
        let g = b.build_undirected();
        let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT)
            .landmarks(vec![0, 9])
            .build(&g);
        let mut dynamic = DynamicOracle::from_parts(oracle, g).unwrap();
        let header = |d: &DynamicOracle| (d.radius[5], d.nearest_landmark_of(5));
        assert_eq!(header(&dynamic), (3, Some(9)));
        for (u, v, insert, expected) in [
            (5, 7, true, (3, Some(0))),
            (5, 6, true, (2, Some(9))),
            (5, 6, false, (3, Some(0))),
        ] {
            let applied = if insert {
                dynamic.insert_edge(u, v).unwrap()
            } else {
                dynamic.remove_edge(u, v).unwrap()
            };
            assert!(applied);
            assert_eq!(header(&dynamic), expected, "after ({u},{v},{insert})");
            assert_matches_rebuild(&dynamic);
        }
    }
}
