//! Dynamic edge updates: a delta-overlay oracle over the frozen flat store.
//!
//! The flat [`VicinityStore`](crate::VicinityStore) is immutable by design
//! — its pools are packed CSR spans, so editing one node's vicinity in
//! place would mean splicing every pool. Instead, [`DynamicOracle`] wraps
//! a frozen base oracle with a **delta overlay**:
//!
//! * **patched vicinity entries** — per-node owned vicinity replacements
//!   (same sections as a store span, including the derived shells and
//!   membership slots) for every node whose vicinity differs from the
//!   frozen base;
//! * **landmark-distance patches** — per node, the `(rank, u16)` entries
//!   of its column of the node-major landmark slab ([`LandmarkDistances`])
//!   that differ from the base;
//! * **patched adjacency lists** in the [`OverlayGraph`].
//!
//! The overlay keeps only what differs from the base: a vicinity repaired
//! back to its base span loses its entry, an entry repaired back to its
//! base value is dropped, and a list edited back to its base list is
//! forgotten. An update followed by its inverse leaves an empty overlay,
//! so snapshots stay small under churn that returns to the base graph.
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
//! 1. **Landmark rows** — the ranks are cut into lane words of 64
//!    consecutive ranks, one `u64` bit per rank, whose entries in a column
//!    are 128 contiguous bytes. One pass over the two endpoint
//!    columns, a word at a time, checks every landmark at once
//!    (`|d(ℓ, a) − d(ℓ, b)|` in the `u16` encoding, where unreachable
//!    sorts above every distance) and proves most rows untouched. On
//!    removal, the candidates of the deeper endpoint `hi` are tested for
//!    support against one neighbour column at a time, stopping once every
//!    candidate has a neighbour one level closer. Each word with a rank
//!    left is repaired by one bit-parallel search over the node-major
//!    columns (MS-BFS, Then et al., VLDB 2014; Hayashi, Akiba and
//!    Kawarabayashi, CIKM 2016, keep such landmark trees exact under both
//!    update kinds): a node the search looks at costs one patch-map probe
//!    and one read of its column for all of its active lanes. An insert
//!    runs one pruned BFS in which every lane starts at its own shortcut
//!    endpoint with its own new distance there; a removal propagates the
//!    orphans of all its lanes at once, carrying a lane mask per node, and
//!    re-settles them with a bucket queue by distance. A rank never
//!    reads another rank's entries, so every repair reads the pre-update
//!    rows and its writes are collected first and committed together, one
//!    merge per node's column patch — or, if one would be a distance of
//!    [`HOP_HORIZON`] hops or more, none is: the update is refused with
//!    [`UpdateError::PastHorizon`] and the graph edit reverted, leaving the
//!    oracle exactly as it was.
//! 2. **Nearest-landmark labels** `(d(u, L), ℓ(u))` are a function of the
//!    rows: the least `(distance, landmark)` entry of `u`'s column, rank
//!    order being id order. They are re-derived from the committed row
//!    writes alone — a write below a label replaces it, a write raising
//!    the entry of `ℓ(u)` itself rescans `u`'s column once — so the
//!    labels match a rebuild's canonical smallest-id choice and the
//!    invariant the query pruning relies on, `d(u, ℓ(u)) == radius(u)`,
//!    holds exactly.
//! 3. **Vicinities** — the affected set is `R ∪ C(a) ∪ C(b)`: nodes whose
//!    `(radius, ℓ)` header changed, plus the *open clusters*
//!    `C(x) = { u : d(u, x) < radius(u) }` of both endpoints (computed on
//!    the post-update state for insertions, pre-update for deletions). A
//!    vicinity's bounded BFS expands only nodes closer than the radius, so
//!    an edge whose endpoints both sit at or beyond `u`'s radius is never
//!    read by it: members, distances and predecessors of every other node
//!    stay as they were. A landmark's open cluster is empty. Clusters
//!    admit pruned-BFS enumeration in output-sensitive time — a
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
//! [`DynamicSnapshot`] (Arc-shared vicinity entries, column patches and
//! adjacency lists — cloning is O(overlay size) pointer copies,
//! independent of the graph).
//! The serving layer (`vicinity-server`) swaps snapshots behind an epoch
//! pointer so queries ride a consistent version end to end.
//!
//! [`VicinityChunk::push_node`]: crate::vicinity::VicinityChunk::push_node

use std::collections::VecDeque;
use std::sync::Arc;

use vicinity_graph::algo::bfs::BoundedBfsScratch;
use vicinity_graph::csr::CsrGraph;
use vicinity_graph::fast_hash::FastMap;
use vicinity_graph::{Adjacency, Distance, NodeId, INFINITY, INVALID_NODE};

use crate::build::{lanes, LANES};
use crate::index::{
    decode_distance, encode_distance, LandmarkDistances, VicinityOracle, HOP_HORIZON,
    UNREACHABLE_U16,
};
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
    /// The update would put a node [`HOP_HORIZON`] hops or more from a
    /// landmark, past what the 16-bit landmark rows hold. It was not
    /// applied: the graph and the index are as they were.
    PastHorizon {
        /// The landmark whose row the update would have pushed past the
        /// horizon.
        landmark: NodeId,
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
            UpdateError::PastHorizon { landmark } => write!(
                f,
                "update refused: a node would be {HOP_HORIZON} or more hops from \
                 landmark {landmark}, past what the 16-bit landmark rows hold"
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

    /// Forget `x`'s patched list once it equals the base list again.
    fn drop_patch_if_base(&mut self, x: NodeId) {
        if self
            .patched
            .get(&x)
            .is_some_and(|adj| adj.as_slice() == self.base.neighbors(x))
        {
            self.patched.remove(&x);
        }
    }

    /// Insert the undirected edge `{u, v}` (both arcs). Caller guarantees
    /// absence.
    fn insert_edge(&mut self, u: NodeId, v: NodeId) {
        for (x, y) in [(u, v), (v, u)] {
            let adj = self.adjacency_mut(x);
            let pos = adj.binary_search(&y).expect_err("edge must be absent");
            adj.insert(pos, y);
            self.drop_patch_if_base(x);
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
            self.drop_patch_if_base(x);
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
        CsrGraph::from_parts(offsets, targets).expect("overlay adjacency is structurally valid")
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
    shell_offsets: Vec<u32>,
    shell_data: Vec<NodeId>,
    hash_slots: Vec<u32>,
}

impl OwnedVicinity {
    /// Build `owner`'s vicinity on `graph` exactly as the offline builder
    /// would: one bounded BFS, id-sorted entries, then the derived shell
    /// and membership-slot sections through the same helpers the
    /// store-wide rebuild uses.
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
        crate::vicinity::append_vicinity_sections(
            &visited,
            store_paths,
            &mut members,
            &mut distances,
            &mut predecessors,
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
            shell_offsets,
            shell_data,
            hash_slots,
        }
    }

    /// Borrow as the standard probe view.
    fn view(&self, owner: NodeId) -> VicinityRef<'_> {
        VicinityRef::from_raw_parts(
            owner,
            self.radius,
            self.nearest,
            &self.members,
            &self.distances,
            &self.predecessors,
            &self.shell_offsets,
            &self.shell_data,
            &self.hash_slots,
        )
    }

    /// True when this rebuilt vicinity is identical to the frozen base
    /// span (primary sections and header), so it needs no overlay entry.
    fn matches_base(&self, base: &VicinityRef<'_>) -> bool {
        self.radius == base.radius()
            && self.nearest == base.raw_nearest()
            && self.members == base.members()
            && self.distances == base.raw_distances()
            && self.predecessors == base.raw_predecessors()
    }

    /// Overlay budget charge: one entry plus its members.
    fn budget_cost(&self) -> usize {
        self.members.len() + 1
    }
}

/// The repaired landmark distances of one node: the entries of its
/// column that differ from the frozen base slab, as `(rank, value)` pairs
/// sorted by rank (compact `u16` encoding, the slab's clamped domain).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct ColumnPatch {
    entries: Vec<(u32, u16)>,
}

impl ColumnPatch {
    /// The repaired value of landmark rank `rank`, if patched.
    #[inline]
    pub(crate) fn get(&self, rank: usize) -> Option<u16> {
        self.position(rank).ok().map(|i| self.entries[i].1)
    }

    #[inline]
    fn position(&self, rank: usize) -> Result<usize, usize> {
        self.entries
            .binary_search_by_key(&(rank as u32), |&(r, _)| r)
    }
}

/// Merge one node's writes, `(node, rank, value)` sorted by rank with each
/// rank once, over its patch entries `old` into `merged`: a written value
/// replaces the entry of its rank, and an entry equal to the node's base
/// column `base` is dropped.
fn merge_column_writes(
    old: &[(u32, u16)],
    writes: &[(NodeId, u32, u16)],
    base: &[u16],
    merged: &mut Vec<(u32, u16)>,
) {
    merged.clear();
    let mut old = old.iter().copied().peekable();
    for &(_, rank, raw) in writes {
        while let Some(entry) = old.next_if(|&(r, _)| r < rank) {
            merged.push(entry);
        }
        old.next_if(|&(r, _)| r == rank);
        if raw != base[rank as usize] {
            merged.push((rank, raw));
        }
    }
    merged.extend(old);
}

/// The current landmark distances, read one column at a time: the base
/// slab's columns through the column patches.
#[derive(Clone, Copy)]
struct Columns<'a> {
    slab: &'a LandmarkDistances,
    rows: &'a RowPatches,
}

impl<'a> Columns<'a> {
    /// `v`'s current column: one patch-map probe, while any patch exists.
    #[inline]
    fn of(self, v: NodeId) -> CurrentColumn<'a> {
        CurrentColumn {
            base: self.slab.column(v),
            patch: if self.rows.is_empty() {
                None
            } else {
                self.rows.get(&v).map(|patch| &**patch)
            },
        }
    }
}

/// One node's current column: its base slab column and its patch, if any.
#[derive(Clone, Copy)]
struct CurrentColumn<'a> {
    base: &'a [u16],
    patch: Option<&'a ColumnPatch>,
}

impl CurrentColumn<'_> {
    /// The compact distances of ranks `first..first + 64`, one lane word:
    /// 128 contiguous bytes of the slab, with the patch entries in the word
    /// written over them. Ranks past the column read unreachable.
    #[inline]
    fn block(&self, first: u32) -> [u16; LANES] {
        let first = first as usize;
        let end = (first + LANES).min(self.base.len());
        let mut block = [UNREACHABLE_U16; LANES];
        block[..end - first].copy_from_slice(&self.base[first..end]);
        if let Some(patch) = self.patch {
            let start = patch
                .entries
                .partition_point(|&(rank, _)| (rank as usize) < first);
            for &(rank, raw) in &patch.entries[start..] {
                if rank as usize >= end {
                    break;
                }
                block[rank as usize - first] = raw;
            }
        }
        block
    }

    /// The compact distance of landmark rank `rank`.
    #[inline]
    fn get(&self, rank: u32) -> u16 {
        let base = self.base[rank as usize];
        match self.patch {
            Some(patch) => patch.get(rank as usize).unwrap_or(base),
            None => base,
        }
    }

    /// The entries of the lanes in `mask`, in the word starting at rank
    /// `first`; the other lanes read unreachable, or their own entries
    /// when the mask is not [`sparse`].
    #[inline]
    fn entries(&self, first: u32, mask: u64) -> [u16; LANES] {
        if !sparse(mask) {
            return self.block(first);
        }
        let mut entries = [UNREACHABLE_U16; LANES];
        for lane in lanes(mask) {
            entries[lane] = self.get(first + lane as u32);
        }
        entries
    }

    /// The lanes of `mask`, in the word starting at rank `first`, whose
    /// entry here passes `pred(lane, entry)`: a [`sparse`] mask reads its
    /// lanes one at a time, a denser one the word's block, testing all 64
    /// lanes at once.
    #[inline]
    fn select(&self, first: u32, mask: u64, pred: impl Fn(usize, u16) -> bool) -> u64 {
        if !sparse(mask) {
            let block = self.block(first);
            return mask & lane_flags(|lane| pred(lane, block[lane]));
        }
        let mut selected = 0;
        for lane in lanes(mask) {
            selected |= u64::from(pred(lane, self.get(first + lane as u32))) << lane;
        }
        selected
    }
}

/// The lanes `i` of a word for which `pred(i)` holds, as a mask. The test
/// fills one byte per lane, which the compiler vectorises, and each eight
/// bytes are packed at once: a multiply moves byte `k`'s low bit to bit
/// `56 + k`, with no carries between the partial products.
#[inline]
fn lane_flags(pred: impl Fn(usize) -> bool) -> u64 {
    let mut flags = [0u8; LANES];
    for (lane, flag) in flags.iter_mut().enumerate() {
        *flag = u8::from(pred(lane));
    }
    flags
        .chunks_exact(8)
        .enumerate()
        .fold(0, |mask, (j, bytes)| {
            let bytes = u64::from_le_bytes(bytes.try_into().expect("eight bytes"));
            mask | (bytes.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * j)
        })
}

/// True when `mask` has at most 4 lanes: clearing the lowest lane four
/// times empties it. Most reads are of one lane (on the benchmark's write
/// phase, 98 % of the searches' column reads); the few with more lanes —
/// the removals that repair hundreds of ranks — read faster as one block.
#[inline]
fn sparse(mask: u64) -> bool {
    (0..4).fold(mask, |rest, _| rest & rest.wrapping_sub(1)) == 0
}

/// Node → its column patch; every node absent reads its base column.
pub(crate) type RowPatches = FastMap<NodeId, Arc<ColumnPatch>>;

type OverlayMap = FastMap<NodeId, Arc<OwnedVicinity>>;

/// Resolve a vicinity through the overlay, falling back to the base store.
fn view_vicinity<'a>(
    base: &'a VicinityOracle,
    overlay: &'a OverlayMap,
    u: NodeId,
) -> Option<VicinityRef<'a>> {
    match overlay.get(&u) {
        Some(v) => Some(v.view(u)),
        None => base.vicinity(u),
    }
}

/// Resolve a landmark row: the base slab, read through the column patches
/// while any exist.
fn view_row<'a>(base: &'a VicinityOracle, rows: &'a RowPatches, u: NodeId) -> Option<RowRef<'a>> {
    let rank = base.landmarks().rank(u)?;
    Some(RowRef::new(
        base.landmark_distances(),
        rank,
        (!rows.is_empty()).then_some(rows),
    ))
}

/// Resolve a node's nearest-landmark header through the overlay.
fn view_nearest(base: &VicinityOracle, overlay: &OverlayMap, u: NodeId) -> Option<NodeId> {
    match overlay.get(&u) {
        Some(v) => (v.nearest != INVALID_NODE).then_some(v.nearest),
        None => base.store().nearest_of(u),
    }
}

/// `v`'s nearest-landmark label read off its current column: the least
/// `(distance, rank)` entry, ranks being in id order, and `(INFINITY,
/// INVALID_NODE)` when no landmark is reachable.
fn column_label(
    base: &LandmarkDistances,
    rows: &RowPatches,
    landmarks: &[NodeId],
    v: NodeId,
) -> (Distance, NodeId) {
    let patch = rows.get(&v).map_or(&[][..], |patch| &patch.entries[..]);
    let mut patched = patch.iter().peekable();
    let least = base
        .column(v)
        .iter()
        .enumerate()
        .map(|(rank, &raw)| {
            let raw = patched
                .next_if(|&&(r, _)| r as usize == rank)
                .map_or(raw, |&(_, patched_raw)| patched_raw);
            (raw, rank)
        })
        .min();
    least
        .and_then(|(raw, rank)| Some((decode_distance(raw)?, landmarks[rank])))
        .unwrap_or((INFINITY, INVALID_NODE))
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

            /// Nodes whose vicinity currently differs from the base (one
            /// overlay entry each).
            pub fn overlay_len(&self) -> usize {
                self.overlay.len()
            }

            /// Landmark-distance entries currently differing from the
            /// base slab, summed over every node's column patch.
            pub fn row_patch_entries(&self) -> usize {
                self.rows.values().map(|patch| patch.entries.len()).sum()
            }
        }
    };
}

/// An immutable, epoch-publishable view of a [`DynamicOracle`]: shares the
/// base oracle, overlay entries, column patches and adjacency by `Arc`, so
/// producing one is O(overlay size) pointer copies. Implements the same
/// query surface as the writer (one shared implementation — see
/// [`QueryIndex`]).
#[derive(Debug, Clone)]
pub struct DynamicSnapshot {
    base: Arc<VicinityOracle>,
    overlay: OverlayMap,
    rows: RowPatches,
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
    /// Nanoseconds spent re-deriving nearest-landmark labels from the
    /// update's row writes.
    pub labels_ns: u64,
    /// Nanoseconds spent repairing landmark rows.
    pub rows_ns: u64,
    /// Nanoseconds spent enumerating the endpoints' open clusters.
    pub cluster_ns: u64,
    /// Nanoseconds spent rebuilding and folding affected vicinities.
    pub rebuild_ns: u64,
    /// Landmark rows actually repaired (the rest passed the O(1) check).
    /// It counts ranks, not searches: one lane-parallel search repairs up
    /// to 64 of them.
    pub rows_repaired: u32,
    /// Distinct nodes whose `(radius, nearest)` header changed.
    pub header_changes: u32,
    /// Vicinities rebuilt: the union of the header changes and both
    /// endpoints' open clusters.
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
    /// Landmark-distance patches, keyed by node.
    rows: RowPatches,
    /// Exact `d(u, L)` per node (`INFINITY` = no landmark reachable): the
    /// least distance in `u`'s current column.
    radius: Vec<Distance>,
    /// The smallest-id landmark attaining `radius[u]` — the least entry
    /// of `u`'s column, the builder's canonical tie rule (step 2 of
    /// [`crate::build`]) — or `INVALID_NODE` when unreachable.
    /// The query bounds rely on `d(u, nearest[u]) == radius[u]` being
    /// exact, and the canonical choice makes the landmark walk, and so
    /// every answer method, match a pinned rebuild's.
    nearest: Vec<NodeId>,
    version: u64,
    compaction_limit: usize,
    /// Σ `budget_cost` over patched vicinities.
    overlay_budget: usize,
    /// Σ entries over column patches (counts toward compaction).
    row_budget: usize,
    compactions: u64,
    last_profile: UpdateProfile,
    bfs: BoundedBfsScratch,
    /// Stamp-versioned visit marks for the cluster traversals and
    /// relabelling.
    stamp: Vec<u32>,
    stamp_version: u32,
    /// The lane-parallel row repair's scratch and the current update's
    /// row writes.
    repair: RowRepair,
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
        Ok(DynamicOracle {
            base,
            graph: OverlayGraph::new(graph),
            overlay: FastMap::default(),
            rows: FastMap::default(),
            radius,
            nearest,
            version: 0,
            compaction_limit,
            overlay_budget: 0,
            row_budget: 0,
            compactions: 0,
            last_profile: UpdateProfile::default(),
            bfs: BoundedBfsScratch::with_node_capacity(n),
            stamp: vec![0; n],
            stamp_version: 0,
            repair: RowRepair::new(n),
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
    /// new graph before the call returns. An edge that would bring a node
    /// into a landmark's reach at [`HOP_HORIZON`] hops or more is refused
    /// with [`UpdateError::PastHorizon`], leaving the oracle unchanged.
    pub fn insert_edge(&mut self, a: NodeId, b: NodeId) -> Result<bool, UpdateError> {
        self.check_ids(a, b)?;
        if self.graph.has_edge(a, b) {
            return Ok(false);
        }
        self.graph.insert_edge(a, b);
        let mut profile = UpdateProfile::default();

        // 1. Landmark rows, first: the one phase that can refuse.
        let phase = std::time::Instant::now();
        profile.rows_repaired = self
            .repair_rows_insert(a, b)
            .inspect_err(|_| self.graph.remove_edge(a, b))?;
        profile.rows_ns = phase.elapsed().as_nanos() as u64;

        // 2. Nearest-landmark labels, read off the written rows.
        let mut affected: Vec<NodeId> = Vec::new();
        let phase = std::time::Instant::now();
        self.relabel(&mut affected);
        profile.labels_ns = phase.elapsed().as_nanos() as u64;
        profile.header_changes = affected.len() as u32;

        // 3. Vicinities: header changes plus both endpoints' open clusters
        //    on the new state.
        let phase = std::time::Instant::now();
        self.collect_open_cluster(a, &mut affected);
        self.collect_open_cluster(b, &mut affected);
        affected.sort_unstable();
        affected.dedup();
        profile.cluster_ns = phase.elapsed().as_nanos() as u64;
        profile.affected_vicinities = affected.len() as u32;
        let phase = std::time::Instant::now();
        self.rebuild_vicinities(&affected);
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
    /// new graph before the call returns. A removal that would leave a
    /// node [`HOP_HORIZON`] hops or more from a landmark is refused with
    /// [`UpdateError::PastHorizon`], leaving the oracle unchanged.
    pub fn remove_edge(&mut self, a: NodeId, b: NodeId) -> Result<bool, UpdateError> {
        self.check_ids(a, b)?;
        if !self.graph.has_edge(a, b) {
            return Ok(false);
        }
        let mut profile = UpdateProfile::default();
        // Pre-update clusters: the affected-vicinity argument runs on the
        // state in which the edge still exists (a vicinity whose BFS never
        // expanded an endpoint there did not read the edge).
        let mut affected: Vec<NodeId> = Vec::new();
        let phase = std::time::Instant::now();
        self.collect_open_cluster(a, &mut affected);
        self.collect_open_cluster(b, &mut affected);
        profile.cluster_ns = phase.elapsed().as_nanos() as u64;

        self.graph.remove_edge(a, b);

        // 1. Landmark rows, first: the one phase that can refuse.
        let phase = std::time::Instant::now();
        profile.rows_repaired = self
            .repair_rows_remove(a, b)
            .inspect_err(|_| self.graph.insert_edge(a, b))?;
        profile.rows_ns = phase.elapsed().as_nanos() as u64;

        // 2. Nearest-landmark labels, read off the written rows.
        let phase = std::time::Instant::now();
        let cluster_nodes = affected.len();
        self.relabel(&mut affected);
        profile.labels_ns = phase.elapsed().as_nanos() as u64;
        profile.header_changes = (affected.len() - cluster_nodes) as u32;

        // 3. Vicinities.
        let phase = std::time::Instant::now();
        affected.sort_unstable();
        affected.dedup();
        profile.affected_vicinities = affected.len() as u32;
        self.rebuild_vicinities(&affected);
        profile.rebuild_ns = phase.elapsed().as_nanos() as u64;
        self.last_profile = profile;

        self.version += 1;
        if self.overlay_budget + self.row_budget > self.compaction_limit {
            self.compact();
        }
        Ok(true)
    }

    /// Fold the overlay back into a fresh frozen base: a new CSR graph, a
    /// new flat store (patched spans spliced over base spans), and a copy
    /// of the landmark slab with the column patches written in. Answers
    /// are unchanged, so the version (and any epoch-stamped cache entries
    /// keyed on it) stays valid.
    pub fn compact(&mut self) {
        if self.overlay.is_empty() && self.rows.is_empty() && self.graph.patched.is_empty() {
            return;
        }
        let csr = self.graph.to_csr();
        let n = self.base.node_count();
        let store_paths = self.base.stores_paths();
        let (b_radii, b_nearest, b_offsets, b_members, b_distances, b_preds) =
            self.base.store().raw_sections();

        let mut radii = Vec::with_capacity(n);
        let mut nearest = Vec::with_capacity(n);
        let mut offsets = Vec::with_capacity(n + 1);
        let mut members: Vec<NodeId> = Vec::with_capacity(b_members.len());
        let mut distances: Vec<Distance> = Vec::with_capacity(b_distances.len());
        let mut predecessors: Vec<NodeId> = Vec::with_capacity(b_preds.len());
        offsets.push(0u64);

        for u in 0..n {
            match self.overlay.get(&(u as NodeId)) {
                Some(v) => {
                    radii.push(v.radius);
                    nearest.push(v.nearest);
                    members.extend_from_slice(&v.members);
                    distances.extend_from_slice(&v.distances);
                    predecessors.extend_from_slice(&v.predecessors);
                }
                None => {
                    let (start, end) = (b_offsets[u] as usize, b_offsets[u + 1] as usize);
                    radii.push(b_radii[u]);
                    nearest.push(b_nearest[u]);
                    members.extend_from_slice(&b_members[start..end]);
                    distances.extend_from_slice(&b_distances[start..end]);
                    if store_paths && !b_preds.is_empty() {
                        predecessors.extend_from_slice(&b_preds[start..end]);
                    }
                }
            }
            offsets.push(members.len() as u64);
        }

        let store = crate::vicinity::VicinityStore::from_raw(
            radii,
            nearest,
            offsets,
            members,
            distances,
            predecessors,
        );

        let mut landmark_distances = self.base.landmark_distances().clone();
        for (v, patch) in self.rows.drain() {
            for &(rank, raw) in &patch.entries {
                landmark_distances.set(rank as usize, v, raw);
            }
        }
        self.row_budget = 0;

        let oracle = VicinityOracle {
            config: self.base.config().clone(),
            node_count: n,
            edge_count: csr.edge_count(),
            landmarks: self.base.landmarks().clone(),
            store,
            landmark_distances,
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

    /// Re-derive the nearest-landmark labels from the update's committed
    /// row writes. A label is the least `(distance, landmark)` entry of its
    /// node's column, so a write below the label replaces it, a write
    /// raising the entry of the label's own landmark sends the node to one
    /// rescan of its column, and any other write leaves the label as it
    /// is: an unwritten entry kept its value, so the least entry can only
    /// move to a written one or away from a raised label entry. A rescan
    /// reads the committed column, so the node's later writes leave its
    /// label as it is. Nodes whose label changed are appended to
    /// `changed`, once each.
    fn relabel(&mut self, changed: &mut Vec<NodeId>) {
        let stamp = self.bump_stamp();
        let slab = self.base.landmark_distances();
        let landmarks = self.base.landmarks().nodes();
        for &(v, rank, raw) in &self.repair.writes {
            let u = v as usize;
            let label = (self.radius[u], self.nearest[u]);
            let written = (
                decode_distance(raw).unwrap_or(INFINITY),
                landmarks[rank as usize],
            );
            let new_label = if written.0 != INFINITY && written < label {
                written
            } else if written.1 == label.1 && written.0 > label.0 {
                column_label(slab, &self.rows, landmarks, v)
            } else {
                continue;
            };
            (self.radius[u], self.nearest[u]) = new_label;
            if self.stamp[u] != stamp {
                self.stamp[u] = stamp;
                changed.push(v);
            }
        }
    }

    /// Enumerate the open cluster `C(x) = { u : d(u, x) < radius(u) }` by
    /// pruned BFS. `radius` drops by at most one per hop, so every node on
    /// a shortest `x`–`u` path of a member is a member and pruning
    /// non-members is exact; in particular the cluster is empty unless `x`
    /// is its own member, which a landmark (radius 0) never is.
    /// Landmark-free nodes (`radius == INFINITY`) admit everything in
    /// their component, matching their whole-component vicinities.
    fn collect_open_cluster(&mut self, x: NodeId, out: &mut Vec<NodeId>) {
        if self.radius[x as usize] == 0 {
            return;
        }
        let stamp = self.bump_stamp();
        let graph = &self.graph;
        let radius = &self.radius;
        let mut queue: VecDeque<(NodeId, Distance)> = VecDeque::new();
        self.stamp[x as usize] = stamp;
        queue.push_back((x, 0));
        out.push(x);
        while let Some((v, d)) = queue.pop_front() {
            for &w in graph.neighbors(v) {
                if self.stamp[w as usize] != stamp && d + 1 < radius[w as usize] {
                    self.stamp[w as usize] = stamp;
                    queue.push_back((w, d + 1));
                    out.push(w);
                }
            }
        }
    }

    /// Rebuild the vicinities of `affected` (sorted, deduplicated) on the
    /// current graph by the bounded truncated BFS and fold the results into
    /// the overlay.
    fn rebuild_vicinities(&mut self, affected: &[NodeId]) {
        let store_paths = self.base.stores_paths();
        for &u in affected {
            if self.base.is_landmark(u) {
                // Landmarks keep their empty vicinity (radius 0) forever.
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

    /// Fold one rebuilt vicinity into the overlay: identical-to-base
    /// drops the node's entry, anything else becomes its patch; the
    /// overlay budget tracks live patch sizes.
    fn fold_patch(&mut self, u: NodeId, owned: OwnedVicinity) {
        let base_ref = self.base.vicinity(u).expect("in range");
        self.overlay_budget -= self.overlay.get(&u).map_or(0, |v| v.budget_cost());
        if owned.matches_base(&base_ref) {
            self.overlay.remove(&u);
        } else {
            self.overlay_budget += owned.budget_cost();
            self.overlay.insert(u, Arc::new(owned));
        }
    }

    /// Insert-side repair of every landmark row. One pass over the two
    /// endpoint columns, a lane word at a time, finds the landmarks the new
    /// edge shortcuts: every rank improved through `a` has the seed `b`,
    /// at one hop past `a`'s entry, and the reverse. Each word with such a
    /// rank takes one lane-parallel BFS ([`LaneRepair::improve`]) that
    /// collects the entries that drop;
    /// [`DynamicOracle::commit_row_writes`] makes the writes only once
    /// every word has been repaired within the horizon. Returns the rows
    /// repaired.
    fn repair_rows_insert(&mut self, a: NodeId, b: NodeId) -> Result<u32, UpdateError> {
        let base = Arc::clone(&self.base);
        let columns = Columns {
            slab: base.landmark_distances(),
            rows: &self.rows,
        };
        let RowRepair {
            search,
            words,
            writes,
            ..
        } = &mut self.repair;
        let (column_a, column_b) = (columns.of(a), columns.of(b));
        words.clear();
        writes.clear();
        for first in (0..base.landmarks().len() as u32).step_by(LANES) {
            let (block_a, block_b) = (column_a.block(first), column_b.block(first));
            // One hop past an entry; unreachable stays unreachable.
            let into_b = lane_flags(|lane| block_a[lane].saturating_add(1) < block_b[lane]);
            let into_a = lane_flags(|lane| block_b[lane].saturating_add(1) < block_a[lane]);
            if into_a | into_b == 0 {
                continue;
            }
            let mut value = [0; LANES];
            for ((value, &x), &y) in value.iter_mut().zip(&block_a).zip(&block_b) {
                *value = x.min(y).saturating_add(1);
            }
            words.push(Word {
                first,
                seeds: [(a, into_a), (b, into_b)],
                value,
            });
        }
        for word in words.iter() {
            search
                .improve(&self.graph, columns, word, writes)
                .map_err(|rank| past_horizon(&base, rank))?;
        }
        let repaired = words.iter().map(Word::lane_count).sum();
        self.commit_row_writes();
        Ok(repaired)
    }

    /// Remove-side repair of every landmark row. One pass over the two
    /// endpoint columns, a lane word at a time, finds the candidate
    /// landmarks, those for which the edge steps one level down from the
    /// deeper endpoint `hi`. A support probe then reads one neighbour
    /// column of `hi` at a time and drops every candidate with a neighbour
    /// one level closer, stopping once none is left; it reads only the
    /// candidates' entries, so its cost follows the candidates, not the
    /// words they sit in. Each word with an unsupported rank takes one
    /// lane-parallel decremental repair
    /// ([`LaneRepair::resettle`]); its writes are committed only once
    /// every word has been repaired within the horizon. Returns the rows
    /// repaired.
    fn repair_rows_remove(&mut self, a: NodeId, b: NodeId) -> Result<u32, UpdateError> {
        let base = Arc::clone(&self.base);
        let columns = Columns {
            slab: base.landmark_distances(),
            rows: &self.rows,
        };
        let RowRepair {
            search,
            words,
            open,
            writes,
            ..
        } = &mut self.repair;
        let (column_a, column_b) = (columns.of(a), columns.of(b));
        words.clear();
        writes.clear();
        for first in (0..base.landmarks().len() as u32).step_by(LANES) {
            let (block_a, block_b) = (column_a.block(first), column_b.block(first));
            // Pre-removal adjacency bounds |d(ℓ, a) − d(ℓ, b)| by one; only
            // a one-level edge can carry shortest paths. A lane's value is
            // its entry at `hi`.
            let one_below = |other: u16, raw: u16| other != UNREACHABLE_U16 && other + 1 == raw;
            let below_a = lane_flags(|lane| one_below(block_b[lane], block_a[lane]));
            let below_b = lane_flags(|lane| one_below(block_a[lane], block_b[lane]));
            if below_a | below_b == 0 {
                continue;
            }
            let mut value = block_a;
            for lane in lanes(below_b) {
                value[lane] = block_b[lane];
            }
            words.push(Word {
                first,
                seeds: [(a, below_a), (b, below_b)],
                value,
            });
        }
        // Support probe: the deleted edge mattered to a landmark only if it
        // was `hi`'s last neighbour one level closer to it.
        for side in 0..2 {
            open.clear();
            for (index, word) in words.iter_mut().enumerate() {
                for lane in lanes(std::mem::take(&mut word.seeds[side].1)) {
                    open.push((index as u32, word.first + lane as u32, word.value[lane]));
                }
            }
            for &x in self.graph.neighbors([a, b][side]) {
                if open.is_empty() {
                    break;
                }
                let column = columns.of(x);
                open.retain(|&(_, rank, value)| column.get(rank).wrapping_add(1) != value);
            }
            for &(index, rank, _) in open.iter() {
                let word = &mut words[index as usize];
                word.seeds[side].1 |= 1 << (rank - word.first);
            }
        }
        for word in words.iter().filter(|word| word.lane_count() != 0) {
            search
                .resettle(&self.graph, columns, word, writes)
                .map_err(|rank| past_horizon(&base, rank))?;
        }
        let repaired = words.iter().map(Word::lane_count).sum();
        self.commit_row_writes();
        Ok(repaired)
    }

    /// Write the update's collected landmark-distance writes into the
    /// column patches: the writes are sorted by node and rank, and each
    /// node's are merged into its patch in one pass — one map lookup and
    /// at most one new patch per node. A value equal to the base slab's
    /// drops its entry, and a patch left empty is removed.
    fn commit_row_writes(&mut self) {
        let slab = self.base.landmark_distances();
        let RowRepair { writes, merged, .. } = &mut self.repair;
        writes.sort_unstable_by_key(|&(v, rank, _)| (v, rank));
        for group in writes.chunk_by(|x, y| x.0 == y.0) {
            let v = group[0].0;
            let patch = self.rows.get_mut(&v);
            let old = patch.as_ref().map_or(&[][..], |patch| &patch.entries[..]);
            let old_len = old.len();
            merge_column_writes(old, group, slab.column(v), merged);
            self.row_budget = self.row_budget + merged.len() - old_len;
            match patch {
                None if merged.is_empty() => {}
                None => {
                    self.rows.insert(
                        v,
                        Arc::new(ColumnPatch {
                            entries: merged.clone(),
                        }),
                    );
                }
                Some(_) if merged.is_empty() => {
                    self.rows.remove(&v);
                }
                Some(patch) => match Arc::get_mut(patch) {
                    Some(patch) => {
                        patch.entries.clear();
                        patch.entries.extend_from_slice(merged);
                    }
                    None => {
                        *patch = Arc::new(ColumnPatch {
                            entries: merged.clone(),
                        })
                    }
                },
            }
        }
    }
}

/// The error for an update whose repair of landmark rank `rank` would
/// write a distance of [`HOP_HORIZON`] hops or more.
fn past_horizon(base: &VicinityOracle, rank: u32) -> UpdateError {
    UpdateError::PastHorizon {
        landmark: base.landmarks().nodes()[rank as usize],
    }
}

/// One lane word of an update's row repair: the landmark ranks
/// `first..first + 64`, bit `i` of a mask being rank `first + i`, so the
/// word's entries in a node's column are 128 contiguous bytes.
#[derive(Debug, Clone)]
struct Word {
    first: u32,
    /// The lanes repaired from each endpoint: an insert's start at their
    /// shortcut endpoint, a removal's at their deeper endpoint `hi`.
    seeds: [(NodeId, u64); 2],
    /// Each lane's entry at its seed: its new distance there (insert), its
    /// pre-update distance (removal).
    value: [u16; LANES],
}

impl Word {
    /// Landmark rows the word repairs.
    fn lane_count(&self) -> u32 {
        (self.seeds[0].1 | self.seeds[1].1).count_ones()
    }
}

/// The writer's row-repair state, kept across updates.
#[derive(Debug)]
struct RowRepair {
    search: LaneRepair,
    /// The current update's lane words, in rank order.
    words: Vec<Word>,
    /// The support probe's candidates not yet supported on the side being
    /// probed: `(word index, rank, entry at hi)`.
    open: Vec<(u32, u32, u16)>,
    /// The current update's landmark-distance writes, `(node, rank,
    /// value)`, collected before any is committed.
    writes: Vec<(NodeId, u32, u16)>,
    /// One node's merged patch entries while the writes are committed.
    merged: Vec<(u32, u16)>,
}

impl RowRepair {
    fn new(n: usize) -> Self {
        RowRepair {
            search: LaneRepair::new(n),
            words: Vec::new(),
            open: Vec::new(),
            writes: Vec::new(),
            merged: Vec::new(),
        }
    }
}

/// The lane-parallel repair of one [`Word`]: bit `i` of a node's masks is
/// the word's lane `i`, and a node the search looks at costs one
/// patch-map probe and one read of its column for all of its lanes
/// ([`CurrentColumn::select`]). The per-node masks are all clear between
/// searches, each search clearing only the masks the last one set, so
/// starting one costs nothing n-sized and a node it looks at but never
/// reaches costs one 8-byte mask read.
#[derive(Debug)]
struct LaneRepair {
    /// Per node, the lanes that reached it (insert), or orphaned it and
    /// are not settled yet (removal).
    reached: Vec<u64>,
    /// The nodes whose mask the last search set, to clear when the next
    /// starts.
    marked: Vec<NodeId>,
    /// The next level's nodes and the lanes that lowered them (insert).
    frontier: Vec<(NodeId, u64)>,
    /// The level being expanded (insert).
    level: Vec<(NodeId, u64)>,
    /// The nodes to test and the lanes to test each in, in queue order
    /// (removal); a node may be queued more than once.
    queue: VecDeque<(NodeId, u64)>,
    /// Nodes orphaned in some lane (removal), once each.
    region: Vec<NodeId>,
    /// Orphans' distances through the region's boundary, `(distance,
    /// node, lanes)` (removal).
    seeds: Vec<(u32, NodeId, u64)>,
    /// Bucket queue by distance (removal): bucket `i` holds the `(node,
    /// lanes)` reached at the least seed distance plus `i`.
    buckets: Vec<Vec<(NodeId, u64)>>,
}

impl LaneRepair {
    fn new(n: usize) -> Self {
        LaneRepair {
            reached: vec![0; n],
            marked: Vec::new(),
            frontier: Vec::new(),
            level: Vec::new(),
            queue: VecDeque::new(),
            region: Vec::new(),
            seeds: Vec::new(),
            buckets: Vec::new(),
        }
    }

    /// Start a search: clear the masks the last one set.
    fn reset(&mut self) {
        for &v in &self.marked {
            self.reached[v as usize] = 0;
        }
        self.marked.clear();
        self.frontier.clear();
        self.level.clear();
        self.queue.clear();
        self.region.clear();
        self.seeds.clear();
    }

    /// The lanes that reached `v` in the current search.
    #[inline]
    fn reached(&self, v: NodeId) -> u64 {
        self.reached[v as usize]
    }

    /// Add `lanes` to the lanes that reached `v`; returns whether none had.
    #[inline]
    fn reach_lanes(&mut self, v: NodeId, lanes: u64) -> bool {
        let reached = &mut self.reached[v as usize];
        let fresh = *reached == 0;
        if fresh {
            self.marked.push(v);
        }
        *reached |= lanes;
        fresh
    }

    /// Insert repair of `word` on the graph holding the new edge: one
    /// pruned BFS in which every lane starts at its seed with its new
    /// distance there and advances a hop a level. A frontier node's lanes
    /// are tested at each neighbour against one read of its column: a lane
    /// reaches `w` only while its distance is below `w`'s current entry,
    /// and then writes it. Every entry that drops is appended to `writes`;
    /// `Err(rank)` when one would be [`HOP_HORIZON`] hops or more.
    fn improve(
        &mut self,
        graph: &OverlayGraph,
        columns: Columns<'_>,
        word: &Word,
        writes: &mut Vec<(NodeId, u32, u16)>,
    ) -> Result<(), u32> {
        self.reset();
        // A lane lowers its seed's entry: that is what made it a lane.
        for (seed, lowered) in word.seeds {
            self.reach(word, seed, lowered, 0, writes)?;
        }
        // A lane writes at most 65,533 hops past its seed value before one
        // is refused, so the hop count fits the entries' width.
        let mut hop = 0u16;
        while !self.frontier.is_empty() {
            hop += 1;
            std::mem::swap(&mut self.frontier, &mut self.level);
            for k in 0..self.level.len() {
                let (v, live) = self.level[k];
                for &w in graph.neighbors(v) {
                    let fresh = live & !self.reached(w);
                    if fresh == 0 {
                        continue;
                    }
                    let lowered = columns.of(w).select(word.first, fresh, |lane, raw| {
                        word.value[lane].saturating_add(hop) < raw
                    });
                    self.reach(word, w, lowered, hop, writes)?;
                }
            }
            self.level.clear();
        }
        Ok(())
    }

    /// `lanes` reach `v` at `hop` hops past their seeds, lowering its
    /// entries: write them, and put `(v, lanes)` on the next level.
    #[inline]
    fn reach(
        &mut self,
        word: &Word,
        v: NodeId,
        lowered: u64,
        hop: u16,
        writes: &mut Vec<(NodeId, u32, u16)>,
    ) -> Result<(), u32> {
        if lowered == 0 {
            return Ok(());
        }
        for lane in lanes(lowered) {
            let rank = word.first + lane as u32;
            let distance = Distance::from(word.value[lane]) + Distance::from(hop);
            writes.push((v, rank, encode_distance(distance).ok_or(rank)?));
        }
        self.reach_lanes(v, lowered);
        self.frontier.push((v, lowered));
        Ok(())
    }

    /// Decremental repair of `word` on the graph without the removed edge,
    /// after each lane's seed lost its last supporter (the support probe
    /// proved it).
    ///
    /// 1. Orphan propagation, all lanes at once: a node is an orphan of a
    ///    lane when none of its neighbours one level closer is still
    ///    supported in that lane. An orphan queues the neighbours one level
    ///    deeper in the lanes it lost, and a node is queued and tested
    ///    again whenever a parent is orphaned, so each lane's orphan set —
    ///    exactly its entries that increase — does not depend on the order.
    ///    A queue entry carries its lanes, so lanes orphaned together are
    ///    tested together.
    /// 2. Re-settling: each orphan's distance through a non-orphan
    ///    neighbour seeds a bucket queue by distance of `(node, lanes)`
    ///    entries, which spreads a hop a bucket inside the orphan region;
    ///    the first bucket to settle a lane at a node holds its new
    ///    distance, and an orphan no bucket settles is unreachable.
    ///
    /// Every new value is appended to `writes`; `Err(rank)` when one would
    /// be a distance of [`HOP_HORIZON`] hops or more.
    fn resettle(
        &mut self,
        graph: &OverlayGraph,
        columns: Columns<'_>,
        word: &Word,
        writes: &mut Vec<(NodeId, u32, u16)>,
    ) -> Result<(), u32> {
        self.reset();
        // Each seed is the first orphan of its lanes: the probe proved it
        // unsupported, so it is not tested again.
        for (seed, lost) in word.seeds {
            if lost != 0 {
                let entries = columns.of(seed).entries(word.first, lost);
                self.orphan(graph, columns, word.first, seed, lost, &entries);
            }
        }
        while let Some((v, lanes)) = self.queue.pop_front() {
            let open = lanes & !self.reached(v);
            if open == 0 {
                continue;
            }
            let entries = columns.of(v).entries(word.first, open);
            let mut orphaned = open;
            for &x in graph.neighbors(v) {
                if orphaned == 0 {
                    break;
                }
                // Every neighbour is read in the node's open lanes, orphans
                // too, and its orphan lanes are dropped after: the read's
                // address waits on no mask, so consecutive misses overlap.
                let parents = columns.of(x).select(word.first, open, |lane, raw| {
                    raw.wrapping_add(1) == entries[lane]
                });
                orphaned &= !(parents & !self.reached(x));
            }
            if orphaned != 0 {
                self.orphan(graph, columns, word.first, v, orphaned, &entries);
            }
        }

        let mut best = [u32::MAX; LANES];
        for k in 0..self.region.len() {
            let v = self.region[k];
            let orphan = self.reached(v);
            for &w in graph.neighbors(v) {
                if orphan == 0 {
                    break;
                }
                let outside = orphan & !self.reached(w);
                if outside == 0 {
                    continue;
                }
                let column = columns.of(w);
                for lane in lanes(outside) {
                    let raw = column.get(word.first + lane as u32);
                    if raw != UNREACHABLE_U16 {
                        best[lane] = best[lane].min(u32::from(raw) + 1);
                    }
                }
            }
            for lane in lanes(self.reached(v)) {
                let distance = std::mem::replace(&mut best[lane], u32::MAX);
                if distance == u32::MAX {
                    continue;
                }
                match self.seeds.last_mut() {
                    Some((d, u, mask)) if (*d, *u) == (distance, v) => *mask |= 1 << lane,
                    _ => self.seeds.push((distance, v, 1 << lane)),
                }
            }
        }
        let least = self.seeds.iter().map(|&(distance, ..)| distance).min();
        let least = least.unwrap_or(0);
        let mut end = 0;
        for &(distance, v, mask) in &self.seeds {
            let level = (distance - least) as usize;
            end = end.max(push_bucket(&mut self.buckets, level, (v, mask)));
        }
        let mut level = 0;
        while level < end {
            let mut bucket = std::mem::take(&mut self.buckets[level]);
            let distance = least + level as u32;
            for &(v, mask) in &bucket {
                let settle = mask & self.reached(v);
                if settle == 0 {
                    continue;
                }
                let Some(raw) = encode_distance(distance) else {
                    self.buckets.clear();
                    return Err(word.first + settle.trailing_zeros());
                };
                self.reached[v as usize] &= !settle;
                for lane in lanes(settle) {
                    writes.push((v, word.first + lane as u32, raw));
                }
                for &w in graph.neighbors(v) {
                    let next = settle & self.reached(w);
                    if next != 0 {
                        end = end.max(push_bucket(&mut self.buckets, level + 1, (w, next)));
                    }
                }
            }
            bucket.clear();
            self.buckets[level] = bucket;
            level += 1;
        }
        for &v in &self.region {
            for lane in lanes(self.reached(v)) {
                writes.push((v, word.first + lane as u32, UNREACHABLE_U16));
            }
        }
        Ok(())
    }

    /// Make `v`, whose entries in the word are `entries`, an orphan of
    /// `lost`, and queue each neighbour that is not an orphan yet in the
    /// lanes in which it sits one level deeper.
    fn orphan(
        &mut self,
        graph: &OverlayGraph,
        columns: Columns<'_>,
        first: u32,
        v: NodeId,
        lost: u64,
        entries: &[u16; LANES],
    ) {
        if self.reach_lanes(v, lost) {
            self.region.push(v);
        }
        for &w in graph.neighbors(v) {
            let children = columns.of(w).select(first, lost, |lane, raw| {
                raw == entries[lane].wrapping_add(1)
            });
            self.enqueue(w, children & !self.reached(w));
        }
    }

    /// Queue `v` to be tested in `lanes`.
    #[inline]
    fn enqueue(&mut self, v: NodeId, lanes: u64) {
        if lanes != 0 {
            self.queue.push_back((v, lanes));
        }
    }
}

/// Append `entry` to bucket `level`, growing the queue as needed; returns
/// one past `level`.
fn push_bucket(buckets: &mut Vec<Vec<(NodeId, u64)>>, level: usize, entry: (NodeId, u64)) -> usize {
    if buckets.len() <= level {
        buckets.resize_with(level + 1, Vec::new);
    }
    buckets[level].push(entry);
    level + 1
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
        assert_eq!(dynamic.row_patch_entries(), 0);
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
    fn labels_are_the_least_entries_of_the_columns() {
        // After every update each label equals its column's least
        // `(distance, id)` entry, and `header_changes` counts the distinct
        // nodes whose label moved, down to a node cut off from every
        // landmark and back.
        let g = classic::grid(5, 5);
        let oracle = OracleBuilder::new(Alpha::new(2.0).unwrap())
            .landmarks(vec![6, 18])
            .build(&g);
        let mut dynamic = DynamicOracle::from_parts(oracle, g).unwrap();
        let labels = |d: &DynamicOracle| -> Vec<(Distance, NodeId)> {
            (0..d.node_count())
                .map(|u| (d.radius[u], d.nearest[u]))
                .collect()
        };
        for (u, v, insert) in [
            (0, 24, true),
            (0, 1, false),
            (0, 5, false),
            (0, 24, false),
            (0, 12, true),
            (7, 8, false),
        ] {
            let before = labels(&dynamic);
            let applied = if insert {
                dynamic.insert_edge(u, v).unwrap()
            } else {
                dynamic.remove_edge(u, v).unwrap()
            };
            assert!(applied);
            let after = labels(&dynamic);
            let slab = dynamic.base.landmark_distances();
            let landmarks = dynamic.base.landmarks().nodes();
            for x in 0..dynamic.node_count() as NodeId {
                assert_eq!(
                    after[x as usize],
                    column_label(slab, &dynamic.rows, landmarks, x),
                    "label of {x} after ({u},{v},{insert})"
                );
            }
            let moved = before.iter().zip(&after).filter(|(b, a)| b != a).count();
            assert_eq!(
                dynamic.last_update_profile().header_changes as usize,
                moved,
                "header changes after ({u},{v},{insert})"
            );
            assert_matches_rebuild(&dynamic);
        }
        assert_eq!((dynamic.radius[0], dynamic.nearest[0]), (3, 6));
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
