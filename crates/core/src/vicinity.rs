//! The flat, arena-backed vicinity store: `Γ(u) = B(u) ∪ N(B(u))` for every
//! node, with distances and shortest-path predecessors, laid out as
//! struct-of-arrays pools instead of one heap object per node.
//!
//! For unweighted graphs (the paper's evaluation setting) the vicinity has a
//! convenient closed form: every node in `N(B(u))` is at distance exactly
//! `d(u, ℓ(u))` from `u` (its BFS parent lies in the ball), so
//!
//! ```text
//! Γ(u) = { v : d(u, v) ≤ d(u, ℓ(u)) }        when u ∉ L,
//! Γ(u) = ∅                                    when u ∈ L (radius 0).
//! ```
//!
//! Construction is a single bounded BFS per node (the "modified shortest
//! path algorithm \[16\]\" of §2.2, with cost proportional to the vicinity
//! size, `O(α·√n)` in expectation). Workers append their nodes into private
//! [`VicinityChunk`] arenas which are spliced — plain `Vec` concatenations,
//! no per-node re-hashing — into one [`VicinityStore`].
//!
//! The same builder makes the dynamic overlay's patches
//! ([`crate::dynamic`]): a patched vicinity is a one-node store whose
//! chunk starts at its node, so the frozen index and every patch share one
//! layout, one assembly path and one derivation of shells and slots.
//!
//! ## Why flat?
//!
//! The previous layout stored one `NodeVicinity` per node, six private
//! `Vec`s each: millions of small allocations that queries chased pointers
//! through and snapshots re-decoded node by node. The store keeps a single
//! CSR-style `offsets` array into shared `members` / `distances` /
//! `predecessors` / shell pools, so
//!
//! * a query touches contiguous, prefetchable cache lines,
//! * the whole index serializes as a handful of raw-array sections
//!   (snapshot format v4 in [`crate::serialize`]), and
//! * derived structures (per-distance shells, membership hash slots) are
//!   rebuilt in one pass at load instead of being stored.
//!
//! The boundary `∂Γ(u)` (members with a neighbour outside the ball) is not
//! stored. Every member that escapes sits in the outermost shell, so path
//! splicing scans that shell instead, and distance queries intersect shells
//! level by level; [`crate::stats`] computes `∂Γ(u)` from the graph where
//! the paper's Figure 2 needs it.
//!
//! Queries never touch the store directly; they borrow a [`VicinityRef`]
//! view with the same probe API (`contains` / `distance_to` / shells /
//! `min_outer_shell_sum`) the per-node objects used to expose.

use vicinity_graph::algo::bfs::BoundedBfsScratch;
use vicinity_graph::{Adjacency, Distance, NodeId, INVALID_NODE};

use crate::parallel::map_parts;
use crate::prefetch::{prefetch_read, prefetch_slice};

#[inline]
pub(crate) fn hash_id(v: NodeId) -> usize {
    // The FxHash mixing the per-node hash maps used to apply; the high
    // half carries the entropy, which is what the power-of-two slot
    // masks consume.
    (vicinity_graph::fast_hash::fx_hash_u32(v) >> 32) as usize
}

/// Number of open-addressing slots for a vicinity of `len` members: the
/// next power of two at or above `2·len`, capping the load factor at 50 %
/// so linear probes stay short.
#[inline]
fn slot_count(len: usize) -> usize {
    if len == 0 {
        0
    } else {
        (len * 2).next_power_of_two()
    }
}

/// Arena-backed struct-of-arrays storage for the vicinities of a node
/// range `first .. first + node_count`: every node for an oracle's index
/// (`first == 0`), one node for a dynamic-overlay patch.
///
/// Per-node data lives in shared pools addressed through CSR-style offset
/// arrays; the only per-node storage is one header row (radius + nearest
/// landmark). Access goes through [`VicinityStore::get`], which hands out a
/// borrowed [`VicinityRef`] view.
///
/// The `shell_*` and `hash_*` fields are derived from the primary pools
/// (never serialized — snapshot decode rebuilds them in one pass).
#[derive(Debug, Clone, PartialEq)]
pub struct VicinityStore {
    /// The first node covered; row `i` of every per-node array is node
    /// `first + i`.
    first: NodeId,
    node_count: usize,
    /// Ball radius `d(u, ℓ(u))` per node; `0` for landmarks.
    radii: Vec<Distance>,
    /// Nearest landmark `ℓ(u)` per node, `INVALID_NODE` when unreachable.
    nearest: Vec<NodeId>,
    /// `offsets[u] .. offsets[u + 1]` is node `u`'s span in the member
    /// pools (`members`, `distances`, `predecessors`, `shell_data`).
    offsets: Vec<u64>,
    /// Vicinity members, sorted by node id within each span.
    members: Vec<NodeId>,
    /// `distances[i] = d(owner, members[i])`.
    distances: Vec<Distance>,
    /// BFS parents parallel to `members`; empty when paths are not stored.
    predecessors: Vec<NodeId>,
    /// `shell_index[u] .. shell_index[u + 1]` spans `shell_offsets`.
    shell_index: Vec<u64>,
    /// Per-node level offsets (span-local, one per populated distance level
    /// `0..=max` plus a trailing end), derived from `distances`.
    shell_offsets: Vec<u32>,
    /// Member ids grouped by distance within each node span (a permutation
    /// of that span of `members`; each group sorted ascending).
    shell_data: Vec<NodeId>,
    /// `hash_offsets[u] .. hash_offsets[u + 1]` spans `hash_slots`; a
    /// span is empty exactly when the node's vicinity is.
    hash_offsets: Vec<u64>,
    /// Flat open-addressing membership tables: each span is a power-of-two
    /// number of slots holding `local_index + 1` (0 = empty), probed with
    /// the FxHash mix and linear stepping. Replaces one heap-allocated hash
    /// map per node.
    hash_slots: Vec<u32>,
}

impl VicinityStore {
    /// An empty store over `node_count` nodes (every vicinity empty). Used
    /// by degenerate builds; real construction goes through chunks.
    pub fn empty(node_count: usize) -> Self {
        Self::from_raw(
            vec![0; node_count],
            vec![INVALID_NODE; node_count],
            vec![0; node_count + 1],
            Vec::new(),
            Vec::new(),
            Vec::new(),
        )
    }

    /// Splice chunk arenas (covering consecutive node ranges in order,
    /// without gaps) into one store covering their union. Pool contents are
    /// appended verbatim onto the first chunk's — no per-node work, no
    /// re-hashing, and no copy at all for a single chunk — and the derived
    /// shell and hash-slot sections are then built in one pass over the
    /// pools.
    pub fn from_chunks(chunks: impl IntoIterator<Item = VicinityChunk>) -> Self {
        let mut chunks = chunks.into_iter();
        let Some(mut all) = chunks.next() else {
            return Self::empty(0);
        };
        let rest: Vec<VicinityChunk> = chunks.collect();
        let more_nodes: usize = rest.iter().map(|c| c.len()).sum();
        let more_members: usize = rest.iter().map(|c| c.members.len()).sum();
        all.radii.reserve_exact(more_nodes);
        all.nearest.reserve_exact(more_nodes);
        all.offsets.reserve_exact(more_nodes);
        all.members.reserve_exact(more_members);
        all.distances.reserve_exact(more_members);
        if all.store_paths {
            all.predecessors.reserve_exact(more_members);
        }
        for chunk in rest {
            assert_eq!(
                chunk.start,
                all.next_node(),
                "vicinity chunks must be spliced in contiguous node order"
            );
            let member_base = all.members.len() as u64;
            all.radii.extend_from_slice(&chunk.radii);
            all.nearest.extend_from_slice(&chunk.nearest);
            all.offsets
                .extend(chunk.offsets[1..].iter().map(|&o| o + member_base));
            all.members.extend_from_slice(&chunk.members);
            all.distances.extend_from_slice(&chunk.distances);
            all.predecessors.extend_from_slice(&chunk.predecessors);
        }
        // A lone chunk keeps the growth slack of its pushes; the store is
        // built once and read for its lifetime, so drop it.
        all.members.shrink_to_fit();
        all.distances.shrink_to_fit();
        all.predecessors.shrink_to_fit();
        let VicinityChunk {
            start,
            radii,
            nearest,
            offsets,
            members,
            distances,
            predecessors,
            ..
        } = all;
        let mut store = Self::from_raw(radii, nearest, offsets, members, distances, predecessors);
        store.first = start;
        store
    }

    /// Assemble a store over nodes `0..radii.len()` from its primary pools
    /// (the exact sections snapshot format v4 persists), deriving the shell
    /// and hash sections: the one place either is built. Member spans must
    /// already be sorted by node id; the decoder checks this with
    /// [`spans_sorted`] before calling.
    pub(crate) fn from_raw(
        radii: Vec<Distance>,
        nearest: Vec<NodeId>,
        offsets: Vec<u64>,
        members: Vec<NodeId>,
        distances: Vec<Distance>,
        predecessors: Vec<NodeId>,
    ) -> Self {
        let node_count = radii.len();
        debug_assert_eq!(offsets.len(), node_count + 1);
        debug_assert_eq!(members.len(), distances.len());
        let mut store = VicinityStore {
            first: 0,
            node_count,
            radii,
            nearest,
            offsets,
            members,
            distances,
            predecessors,
            shell_index: Vec::new(),
            shell_offsets: Vec::new(),
            shell_data: Vec::new(),
            hash_offsets: Vec::new(),
            hash_slots: Vec::new(),
        };
        store.build_shells(derived_rebuild_threads(store.members.len()));
        store.hash_offsets = slot_offsets(&store.offsets);
        let slots = store.hash_offsets[node_count] as usize;
        store.build_hash_slots(derived_rebuild_threads(slots));
        debug_assert!(
            spans_sorted(&store.offsets, &store.members),
            "member pools must be sorted by node id within each span"
        );
        store
    }

    /// Group each node's members by distance (counting sort per span).
    /// Members are id-sorted within a span, so every shell comes out
    /// id-sorted too. Node spans are independent, so large stores fan the
    /// work out over up to `threads` scoped workers, each writing the
    /// `shell_data` window its node range owns; the result is identical for
    /// any thread count.
    fn build_shells(&mut self, threads: usize) {
        self.shell_data = vec![0 as NodeId; self.members.len()];
        let ranges = partition_by_offsets(&self.offsets, threads);
        let (offsets, members, distances) = (&self.offsets, &self.members, &self.distances);
        let parts = map_parts(
            range_windows(&mut self.shell_data, offsets, &ranges),
            |index, window| shells_for_range(offsets, members, distances, ranges[index], window),
        );
        let mut parts = parts.into_iter();
        (self.shell_offsets, self.shell_index) = parts.next().expect("at least one range");
        for (pool, index) in parts {
            let base = self.shell_offsets.len() as u64;
            self.shell_index
                .extend(index.iter().skip(1).map(|&i| i + base));
            self.shell_offsets.extend_from_slice(&pool);
        }
        debug_assert_eq!(self.shell_index.len(), self.node_count + 1);
    }

    /// Fill the flat membership slot arena laid out by `hash_offsets`, with
    /// the same disjoint-window fan-out as [`VicinityStore::build_shells`].
    fn build_hash_slots(&mut self, threads: usize) {
        let hash_offsets = &self.hash_offsets;
        self.hash_slots = vec![0u32; hash_offsets[self.node_count] as usize];
        let ranges = partition_by_offsets(hash_offsets, threads);
        let (offsets, members) = (&self.offsets, &self.members);
        map_parts(
            range_windows(&mut self.hash_slots, hash_offsets, &ranges),
            |index, window| {
                hash_slots_for_range(offsets, hash_offsets, members, ranges[index], window)
            },
        );
    }

    /// Row of node `u` in the per-node arrays, or `None` when the store
    /// does not cover it.
    #[inline]
    fn row(&self, u: NodeId) -> Option<usize> {
        let i = u.wrapping_sub(self.first) as usize;
        (i < self.node_count).then_some(i)
    }

    /// Nearest landmark of `u` from its header row, or `None` when none is
    /// reachable (or `u` is out of range). Header-row read used by the
    /// batched pipeline to locate the landmark rows worth prefetching.
    #[inline]
    pub(crate) fn nearest_of(&self, u: NodeId) -> Option<NodeId> {
        let nearest = self.nearest[self.row(u)?];
        (nearest != INVALID_NODE).then_some(nearest)
    }

    /// Number of nodes covered by the store.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Total stored vicinity entries, `Σ_u |Γ(u)|`.
    pub fn total_entries(&self) -> u64 {
        self.members.len() as u64
    }

    /// Whether shortest-path predecessors are stored.
    pub fn stores_paths(&self) -> bool {
        !self.predecessors.is_empty() || self.members.is_empty()
    }

    /// Borrow the vicinity view of node `u`, or `None` when out of range.
    #[inline]
    pub fn get(&self, u: NodeId) -> Option<VicinityRef<'_>> {
        let i = self.row(u)?;
        let (start, end) = (self.offsets[i] as usize, self.offsets[i + 1] as usize);
        let (s_start, s_end) = (
            self.shell_index[i] as usize,
            self.shell_index[i + 1] as usize,
        );
        let (h_start, h_end) = (
            self.hash_offsets[i] as usize,
            self.hash_offsets[i + 1] as usize,
        );
        Some(VicinityRef {
            owner: u,
            radius: self.radii[i],
            nearest_landmark: self.nearest[i],
            members: &self.members[start..end],
            distances: &self.distances[start..end],
            predecessors: if self.predecessors.is_empty() {
                &[]
            } else {
                &self.predecessors[start..end]
            },
            shell_offsets: &self.shell_offsets[s_start..s_end],
            shell_data: &self.shell_data[start..end],
            hash_slots: &self.hash_slots[h_start..h_end],
        })
    }

    /// Iterator over every covered node's vicinity view, in node order.
    pub fn iter(&self) -> impl Iterator<Item = VicinityRef<'_>> + '_ {
        let nodes = self.first..self.first + self.node_count as NodeId;
        nodes.map(move |u| self.get(u).expect("in range"))
    }

    /// Stage-1 hint of the batched query pipeline: touch node `u`'s header
    /// rows (radius, nearest landmark, and every per-node offset array) so
    /// the stage-2 span computations read warm lines. Out-of-range ids are
    /// ignored — hints must never fail.
    #[inline]
    pub(crate) fn prefetch_header(&self, u: NodeId) {
        let Some(i) = self.row(u) else {
            return;
        };
        prefetch_read(&self.radii[i]);
        prefetch_read(&self.nearest[i]);
        prefetch_read(&self.offsets[i]);
        prefetch_read(&self.shell_index[i]);
        prefetch_read(&self.hash_offsets[i]);
    }

    /// Stage-2 hint: with `u`'s header rows warm, hint the pool segments a
    /// distance query over `(u, probe)` dereferences — the opening lines
    /// of the member/distance/shell pools, the span's level offsets, and
    /// the *exact* membership slot the `distance_to(probe)` shortcut will
    /// hash to. `want_paths` additionally warms the predecessor segment
    /// the path-splicing walk reads.
    #[inline]
    pub(crate) fn prefetch_query_spans(&self, u: NodeId, probe: NodeId, want_paths: bool) {
        let Some(i) = self.row(u) else {
            return;
        };
        let (start, end) = (self.offsets[i] as usize, self.offsets[i + 1] as usize);
        if start == end {
            return;
        }
        prefetch_slice(&self.members[start..end], 2);
        prefetch_slice(&self.distances[start..end], 2);
        prefetch_slice(&self.shell_data[start..end], 2);
        let (s_start, s_end) = (
            self.shell_index[i] as usize,
            self.shell_index[i + 1] as usize,
        );
        prefetch_slice(&self.shell_offsets[s_start..s_end], 2);
        let (h_start, h_end) = (
            self.hash_offsets[i] as usize,
            self.hash_offsets[i + 1] as usize,
        );
        // A non-empty span has a power-of-two slot span: hint the line the
        // membership probe for `probe` will land on first.
        let mask = (h_end - h_start) - 1;
        prefetch_read(&self.hash_slots[h_start + (hash_id(probe) & mask)]);
        if want_paths && !self.predecessors.is_empty() {
            prefetch_slice(&self.predecessors[start..end], 2);
        }
    }

    /// Raw primary sections, in snapshot order: `(radii, nearest, offsets,
    /// members, distances, predecessors)`. The derived shell/hash sections
    /// are intentionally absent — they are rebuilt, never persisted.
    #[allow(clippy::type_complexity)]
    pub(crate) fn raw_sections(
        &self,
    ) -> (
        &[Distance],
        &[NodeId],
        &[u64],
        &[NodeId],
        &[Distance],
        &[NodeId],
    ) {
        (
            &self.radii,
            &self.nearest,
            &self.offsets,
            &self.members,
            &self.distances,
            &self.predecessors,
        )
    }

    /// Exact memory footprint of the store in bytes: every pool's length
    /// times its element size, plus the fixed struct header. There is no
    /// per-node allocator slack to estimate — that is the point.
    pub fn memory_bytes(&self) -> usize {
        self.radii.len() * std::mem::size_of::<Distance>()
            + self.nearest.len() * std::mem::size_of::<NodeId>()
            + self.offsets.len() * std::mem::size_of::<u64>()
            + self.members.len() * std::mem::size_of::<NodeId>()
            + self.distances.len() * std::mem::size_of::<Distance>()
            + self.predecessors.len() * std::mem::size_of::<NodeId>()
            + self.shell_index.len() * std::mem::size_of::<u64>()
            + self.shell_offsets.len() * std::mem::size_of::<u32>()
            + self.shell_data.len() * std::mem::size_of::<NodeId>()
            + self.hash_offsets.len() * std::mem::size_of::<u64>()
            + self.hash_slots.len() * std::mem::size_of::<u32>()
            + std::mem::size_of::<Self>()
    }

    /// Modeled footprint of the retired one-object-per-node layout for the
    /// same index: per node, five private `Vec`s (members, distances,
    /// predecessors, shell data, shell offsets), the struct
    /// header, and a private hash map charged at its bucket count (next power of two at ⅞ load) times twice the
    /// key/value payload, exactly the accounting the old
    /// `NodeVicinity::memory_bytes` used. Kept so the `store_layout`
    /// benchmark can report the flat-vs-per-node delta without rebuilding
    /// the old representation.
    pub fn per_node_layout_bytes(&self) -> u64 {
        // 3 header fields + 5 Vec headers (24 bytes each) + Option<FastMap>.
        const PER_NODE_STRUCT: u64 = 184;
        let mut total = 0u64;
        for u in 0..self.node_count {
            let len = (self.offsets[u + 1] - self.offsets[u]) as usize;
            let shell_levels = (self.shell_index[u + 1] - self.shell_index[u]) as usize;
            let preds = if self.stores_paths() && len > 0 {
                len
            } else {
                0
            };
            let payload = (len * 2 + preds + len/* shell data */) * 4 + shell_levels * 4;
            let hash = if len > 0 {
                let buckets = (len * 8 / 7 + 1).next_power_of_two();
                buckets * 2 * std::mem::size_of::<(NodeId, u32)>()
            } else {
                0
            };
            total += payload as u64 + hash as u64 + PER_NODE_STRUCT;
        }
        total
    }
}

/// Size imbalance at which the adaptive shell-intersection kernel stops
/// merging and instead probes the smaller shell's ids into the larger
/// vicinity's membership slots. Galloping keeps the merge sub-linear in
/// the large side, so probing only wins once the slices are clearly
/// lopsided; 8× measures well on the bench graphs and errs toward the
/// sequential (prefetchable) strategy.
pub const PROBE_SIZE_RATIO: usize = 8;

/// Work counters reported by [`VicinityRef::shell_intersect_adaptive`]:
/// how often each strategy fired and how many per-element steps (merge
/// iterations + hash probes) were spent. Folded into
/// [`crate::query::QueryStats`] by the distance query.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IntersectCounters {
    /// Merge iterations plus membership probes across all calls.
    pub steps: u64,
    /// Shell pairs intersected by the galloping sorted merge.
    pub merge_calls: u64,
    /// Shell pairs intersected by hash-probing the smaller side.
    pub probe_calls: u64,
}

/// Borrowed view of one node's vicinity inside a [`VicinityStore`].
///
/// Carries the same probe API the retired per-node `NodeVicinity` objects
/// exposed — membership probes (`contains` / `distance_to`) are the unit of
/// work the paper counts as "hash-table look-ups" in Table 3 — but every
/// accessor resolves to a contiguous slice of the shared pools.
#[derive(Debug, Clone, Copy)]
pub struct VicinityRef<'a> {
    owner: NodeId,
    radius: Distance,
    nearest_landmark: NodeId,
    members: &'a [NodeId],
    distances: &'a [Distance],
    predecessors: &'a [NodeId],
    shell_offsets: &'a [u32],
    shell_data: &'a [NodeId],
    hash_slots: &'a [u32],
}

impl PartialEq for VicinityRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        // Derived sections (shells, hash slots) follow from the primary
        // ones, so semantic equality compares only the primary data.
        self.owner == other.owner
            && self.radius == other.radius
            && self.nearest_landmark == other.nearest_landmark
            && self.members == other.members
            && self.distances == other.distances
            && self.predecessors == other.predecessors
    }
}

impl<'a> VicinityRef<'a> {
    /// The node this vicinity belongs to.
    pub fn owner(&self) -> NodeId {
        self.owner
    }

    /// Ball radius `d(u, ℓ(u))` used to build this vicinity.
    pub fn radius(&self) -> Distance {
        self.radius
    }

    /// The nearest landmark, or `None` when no landmark was reachable.
    pub fn nearest_landmark(&self) -> Option<NodeId> {
        (self.nearest_landmark != INVALID_NODE).then_some(self.nearest_landmark)
    }

    /// Number of vicinity members (|Γ(u)|).
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the vicinity is empty (the owner is a landmark).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Vicinity members, sorted by node id.
    pub fn members(&self) -> &'a [NodeId] {
        self.members
    }

    /// Iterator over `(member, distance)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, Distance)> + 'a {
        self.members
            .iter()
            .copied()
            .zip(self.distances.iter().copied())
    }

    /// Member ids at exactly distance `d` from the owner, sorted ascending.
    /// Empty for `d > radius` (and for landmark vicinities).
    #[inline]
    pub fn shell(&self, d: Distance) -> &'a [NodeId] {
        let d = d as usize;
        if d + 1 >= self.shell_offsets.len() {
            return &[];
        }
        let start = self.shell_offsets[d] as usize;
        let end = self.shell_offsets[d + 1] as usize;
        &self.shell_data[start..end]
    }

    /// Largest distance with a non-empty shell — the true extent of the
    /// stored ball. Usually equals [`VicinityRef::radius`], but stays
    /// small when the nominal radius degenerates (landmark-free
    /// vicinities use the graph's hop bound as their radius).
    #[inline]
    pub fn max_shell_distance(&self) -> Distance {
        (self.shell_offsets.len().saturating_sub(2)) as Distance
    }

    /// The outermost non-empty shell, `shell(max_shell_distance())`. It
    /// holds every member with a neighbour outside the ball (`∂Γ(u)`): a
    /// member closer than the radius has all its neighbours inside.
    #[inline]
    pub fn outer_shell(&self) -> &'a [NodeId] {
        self.shell(self.max_shell_distance())
    }

    /// Adaptive intersection of this vicinity's shell at `d_self` with
    /// `other`'s shell at `d_other`: non-empty intersection iff the query
    /// distance `d_self + d_other` is achieved through these levels.
    ///
    /// Two strategies, chosen by size ratio:
    ///
    /// * **merge** — the galloping sorted-merge of `sorted_ids_intersect`
    ///   over the two id-sorted shell slices. Linear, forward-only,
    ///   prefetch-friendly; the default.
    /// * **probe** — when one shell is at least [`PROBE_SIZE_RATIO`]×
    ///   smaller, hash each id of the small shell into the larger
    ///   vicinity's membership slots and compare the stored distance
    ///   against its level. Constant work per id regardless of how large
    ///   the other shell is, which beats even a galloping merge once the
    ///   slices are sufficiently lopsided.
    ///
    /// Both strategies are exact over sorted pools (the build-time
    /// invariant snapshot v4 headers record); `counters` reports per-strategy
    /// dispatch counts and total per-element steps so callers can fold the
    /// work into [`crate::query::QueryStats`].
    pub fn shell_intersect_adaptive(
        &self,
        d_self: Distance,
        other: &VicinityRef<'_>,
        d_other: Distance,
        counters: &mut IntersectCounters,
    ) -> bool {
        let a = self.shell(d_self);
        let b = other.shell(d_other);
        if a.is_empty() || b.is_empty() {
            return false;
        }
        // Probe the smaller shell into the larger side's hash slots when
        // the imbalance pays for the random accesses.
        if b.len() >= PROBE_SIZE_RATIO * a.len() {
            counters.probe_calls += 1;
            for &id in a {
                counters.steps += 1;
                if other.distance_to(id) == Some(d_other) {
                    return true;
                }
            }
            return false;
        }
        if a.len() >= PROBE_SIZE_RATIO * b.len() {
            counters.probe_calls += 1;
            for &id in b {
                counters.steps += 1;
                if self.distance_to(id) == Some(d_self) {
                    return true;
                }
            }
            return false;
        }
        counters.merge_calls += 1;
        sorted_ids_intersect(a, b, &mut counters.steps)
    }

    /// Minimum of `d(owner, w) + d(probe_owner, w)` over the witnesses
    /// `w` of this vicinity's outer shell that `probe` also holds, with the
    /// minimising witness (the smallest id among ties). Every shortest
    /// path from the owner to a node outside the ball crosses the outer
    /// shell, so when the balls meet this is `d(owner, probe_owner)`
    /// (Lemma 1 of the paper, with the outer shell standing in for the
    /// boundary it contains).
    ///
    /// Shells and members are both id-sorted, so the intersection is a
    /// sequential merge that gallops through the probe's members rather
    /// than a hash probe per shell node.
    pub fn min_outer_shell_sum(&self, probe: &VicinityRef<'_>) -> Option<(Distance, NodeId)> {
        let d_self = self.max_shell_distance();
        let probe_members = probe.members;
        let mut best: Option<(Distance, NodeId)> = None;
        let mut j = 0usize;
        for &w in self.outer_shell() {
            // Advance the probe cursor to the first member >= w. Galloping
            // (doubling) hops keep the merge near O(|shell| · log gap) when
            // the probe side is much larger than the shell.
            let mut step = 1usize;
            while j + step < probe_members.len() && probe_members[j + step] < w {
                j += step;
                step <<= 1;
            }
            while j < probe_members.len() && probe_members[j] < w {
                j += 1;
            }
            if j == probe_members.len() {
                break;
            }
            if probe_members[j] == w {
                let total = d_self + probe.distances[j];
                if best.is_none_or(|(b, _)| total < b) {
                    best = Some((total, w));
                }
            }
        }
        best
    }

    /// Position of `v` in the member span, if present: one linear probe of
    /// the flat membership slots. Only an empty vicinity has no slots.
    #[inline]
    fn position(&self, v: NodeId) -> Option<usize> {
        let mask = self.hash_slots.len().checked_sub(1)?;
        let mut i = hash_id(v) & mask;
        loop {
            match self.hash_slots[i] {
                0 => return None,
                slot => {
                    let local = (slot - 1) as usize;
                    if self.members[local] == v {
                        return Some(local);
                    }
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Whether `v` lies in this vicinity.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        self.position(v).is_some()
    }

    /// Exact distance from the owner to `v`, if `v` is in the vicinity.
    #[inline]
    pub fn distance_to(&self, v: NodeId) -> Option<Distance> {
        self.position(v).map(|i| self.distances[i])
    }

    /// Shortest-path predecessor of `v` (its neighbour on a shortest path
    /// from the owner), if `v` is in the vicinity and paths are stored.
    /// Returns `None` for the owner itself.
    pub fn predecessor_of(&self, v: NodeId) -> Option<NodeId> {
        if self.predecessors.is_empty() {
            return None;
        }
        let i = self.position(v)?;
        let p = self.predecessors[i];
        (p != INVALID_NODE).then_some(p)
    }

    /// Whether shortest-path predecessors are stored.
    pub fn stores_paths(&self) -> bool {
        !self.predecessors.is_empty() || self.members.is_empty()
    }

    /// Reconstruct the shortest path from the owner to `v` (inclusive), by
    /// chasing stored predecessors. Every intermediate node lies in the ball
    /// and therefore in the vicinity, so the chase never leaves the span.
    /// Returns `None` when `v` is not a member or paths are not stored.
    pub fn path_to(&self, v: NodeId) -> Option<Vec<NodeId>> {
        if self.predecessors.is_empty() && v != self.owner {
            return None;
        }
        self.position(v)?;
        let mut path = vec![v];
        let mut current = v;
        while current != self.owner {
            let pred = self.predecessor_of(current)?;
            path.push(pred);
            current = pred;
        }
        path.reverse();
        Some(path)
    }

    /// This node's share of the store, in bytes: its pool spans plus its
    /// flat hash slots. Per-node object overhead is zero by construction.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of_val(self.members)
            + std::mem::size_of_val(self.distances)
            + std::mem::size_of_val(self.predecessors)
            + std::mem::size_of_val(self.shell_data)
            + std::mem::size_of_val(self.shell_offsets)
            + std::mem::size_of_val(self.hash_slots)
    }

    /// Number of stored table entries (one per vicinity member), the unit
    /// the paper uses for its memory comparison.
    pub fn entry_count(&self) -> usize {
        self.members.len()
    }
}

/// A worker-local arena covering a contiguous node range `[start, start+k)`.
///
/// Construction workers append one node at a time with
/// [`VicinityChunk::push_node`]; the chunks are then spliced into a
/// [`VicinityStore`] by plain pool concatenation (`from_chunks`). Chunks
/// hold only the primary sections — shells and hash slots are built once,
/// on the assembled store.
#[derive(Debug, Clone)]
pub struct VicinityChunk {
    start: NodeId,
    store_paths: bool,
    radii: Vec<Distance>,
    nearest: Vec<NodeId>,
    /// Chunk-local CSR offsets (leading 0, one entry per pushed node).
    offsets: Vec<u64>,
    members: Vec<NodeId>,
    distances: Vec<Distance>,
    predecessors: Vec<NodeId>,
}

impl VicinityChunk {
    /// An empty chunk whose first pushed node is `start`.
    pub fn new(start: NodeId, store_paths: bool) -> Self {
        VicinityChunk {
            start,
            store_paths,
            radii: Vec::new(),
            nearest: Vec::new(),
            offsets: vec![0],
            members: Vec::new(),
            distances: Vec::new(),
            predecessors: Vec::new(),
        }
    }

    /// Number of nodes pushed so far.
    pub fn len(&self) -> usize {
        self.radii.len()
    }

    /// True when no nodes have been pushed.
    pub fn is_empty(&self) -> bool {
        self.radii.is_empty()
    }

    /// The node id the next `push_node` call will build.
    pub fn next_node(&self) -> NodeId {
        self.start + self.radii.len() as NodeId
    }

    /// Build and append the vicinity of the chunk's next node, given its
    /// ball radius (`None` when no landmark is reachable — the vicinity then
    /// covers the node's whole connected component, which only happens in
    /// degenerate inputs). One bounded BFS through the shared scratch.
    pub fn push_node<G: Adjacency>(
        &mut self,
        graph: &G,
        radius: Option<Distance>,
        nearest_landmark: Option<NodeId>,
        scratch: &mut BoundedBfsScratch,
    ) {
        let owner = self.next_node();
        let nearest = nearest_landmark.unwrap_or(INVALID_NODE);
        // A landmark (radius 0) has an empty vicinity by Definition 1.
        if radius == Some(0) {
            self.radii.push(0);
            self.nearest.push(nearest);
            self.offsets.push(self.members.len() as u64);
            return;
        }
        // No reachable landmark: explore the entire component (bounded by
        // the hop bound so the BFS terminates naturally).
        let effective_radius = radius.unwrap_or_else(|| graph.hop_bound());
        let visited = scratch.bounded_bfs(graph, owner, effective_radius);
        append_vicinity_sections(
            &visited,
            self.store_paths,
            &mut self.members,
            &mut self.distances,
            &mut self.predecessors,
        );
        self.radii.push(effective_radius);
        self.nearest.push(nearest);
        self.offsets.push(self.members.len() as u64);
    }

    /// Append the primary sections of `view` (node [`Self::next_node`]'s
    /// current vicinity, header included) as they are: the dynamic
    /// overlay's compaction packs base spans and patches into one chunk.
    pub(crate) fn push_view(&mut self, view: VicinityRef<'_>) {
        debug_assert_eq!(view.owner, self.next_node());
        self.radii.push(view.radius);
        self.nearest.push(view.nearest_landmark);
        self.members.extend_from_slice(view.members);
        self.distances.extend_from_slice(view.distances);
        self.predecessors.extend_from_slice(view.predecessors);
        self.offsets.push(self.members.len() as u64);
    }

    /// Whether the chunk holds exactly `view`'s vicinity: one node, the
    /// view's owner, with the view's primary sections and header — what
    /// [`VicinityRef`]'s equality compares. The dynamic overlay asks this
    /// of a rebuilt vicinity before deriving anything from it, so a rebuild
    /// back to the base builds no store.
    pub(crate) fn holds(&self, view: &VicinityRef<'_>) -> bool {
        self.start == view.owner
            && self.radii == [view.radius]
            && self.nearest == [view.nearest_landmark]
            && self.members == view.members
            && self.distances == view.distances
            && self.predecessors == view.predecessors
    }
}

/// Assemble one vicinity's primary sections from its bounded-BFS visit
/// list, appending to the given pools: id-sorted members and distances,
/// plus BFS parents when `store_paths`. Only [`VicinityChunk::push_node`]
/// calls it, for the offline build and the overlay's patches alike.
fn append_vicinity_sections(
    visited: &[vicinity_graph::algo::bfs::VisitedNode],
    store_paths: bool,
    members: &mut Vec<NodeId>,
    distances: &mut Vec<Distance>,
    predecessors: &mut Vec<NodeId>,
) {
    let mut entries: Vec<(NodeId, Distance, NodeId)> = visited
        .iter()
        .map(|v| (v.node, v.distance, v.parent))
        .collect();
    entries.sort_unstable_by_key(|&(node, _, _)| node);
    members.reserve(entries.len());
    distances.reserve(entries.len());
    if store_paths {
        predecessors.reserve(entries.len());
    }
    for (node, distance, parent) in entries {
        members.push(node);
        distances.push(distance);
        if store_paths {
            predecessors.push(parent);
        }
    }
}

/// Worker count for derived-section rebuilds: one per available core,
/// engaged only past a pool size where the fan-out pays for itself.
fn derived_rebuild_threads(pool_entries: usize) -> usize {
    const MIN_ENTRIES_PER_WORKER: usize = 1 << 16;
    crate::parallel::resolve_worker_threads(0, pool_entries / MIN_ENTRIES_PER_WORKER)
}

/// Split `0 .. offsets.len() - 1` into at most `parts` contiguous node
/// ranges carrying roughly equal pool mass (by `offsets`). Empty ranges are
/// dropped; the concatenation of the result always covers every node.
fn partition_by_offsets(offsets: &[u64], parts: usize) -> Vec<(usize, usize)> {
    let n = offsets.len() - 1;
    let total = offsets[n];
    if parts <= 1 || n == 0 || total == 0 {
        return vec![(0, n)];
    }
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0usize;
    for part in 1..=parts {
        let target = total * part as u64 / parts as u64;
        let mut end = start;
        while end < n && offsets[end + 1] <= target {
            end += 1;
        }
        if part == parts {
            end = n; // trailing zero-mass nodes belong to the last range
        }
        if end > start {
            ranges.push((start, end));
            start = end;
        }
    }
    debug_assert_eq!(ranges.first().map(|r| r.0), Some(0));
    debug_assert_eq!(ranges.last().map(|r| r.1), Some(n));
    ranges
}

/// The windows of `pool` that `ranges` own, a node range `(start, end)`
/// owning `offsets[start] .. offsets[end]`, for [`map_parts`]. The ranges
/// are consecutive from node 0, as [`partition_by_offsets`] returns them.
fn range_windows<'a, T>(
    mut pool: &'a mut [T],
    offsets: &'a [u64],
    ranges: &'a [(usize, usize)],
) -> impl ExactSizeIterator<Item = &'a mut [T]> + 'a {
    ranges.iter().map(move |&(start, end)| {
        let size = (offsets[end] - offsets[start]) as usize;
        let (window, rest) = std::mem::take(&mut pool).split_at_mut(size);
        pool = rest;
        window
    })
}

/// CSR offsets of the membership slot spans: [`slot_count`] slots per
/// node, laid out in node order.
fn slot_offsets(offsets: &[u64]) -> Vec<u64> {
    let mut running = 0u64;
    let mut hash_offsets = Vec::with_capacity(offsets.len());
    hash_offsets.push(0);
    for span in offsets.windows(2) {
        running += slot_count((span[1] - span[0]) as usize) as u64;
        hash_offsets.push(running);
    }
    hash_offsets
}

/// Counting-sort the members of nodes `range` into their shell order,
/// writing grouped ids into `out` (the `shell_data` window owned by the
/// range) and returning the range's level-offset pool plus its per-node
/// CSR index into it (leading 0, then one end per node).
fn shells_for_range(
    offsets: &[u64],
    members: &[NodeId],
    distances: &[Distance],
    range: (usize, usize),
    out: &mut [NodeId],
) -> (Vec<u32>, Vec<u64>) {
    let (start_node, end_node) = range;
    let base = offsets[start_node] as usize;
    let mut pool: Vec<u32> = Vec::new();
    let mut index: Vec<u64> = Vec::with_capacity(end_node - start_node + 1);
    index.push(0);
    // Reusable per-node counting-sort scratch, sized by the *populated*
    // levels of each node (a landmark-free vicinity's nominal radius
    // degenerates to the hop bound; sizing by it would cost O(n) here).
    let mut counts: Vec<u32> = Vec::new();
    for u in start_node..end_node {
        let (start, end) = (offsets[u] as usize, offsets[u + 1] as usize);
        if start == end {
            index.push(pool.len() as u64);
            continue;
        }
        node_shell_sections(
            &members[start..end],
            &distances[start..end],
            &mut counts,
            &mut pool,
            &mut out[start - base..end - base],
        );
        index.push(pool.len() as u64);
    }
    (pool, index)
}

/// Counting-sort one (non-empty) node span into its shell order: append the
/// span-local level offsets (one per populated level `0..=max` plus a
/// trailing end) to `pool` and write the grouped member ids into `out`,
/// which must be exactly the node's `shell_data` window. `counts` is
/// reusable scratch.
fn node_shell_sections(
    members: &[NodeId],
    distances: &[Distance],
    counts: &mut Vec<u32>,
    pool: &mut Vec<u32>,
    out: &mut [NodeId],
) {
    let levels = distances.iter().copied().max().unwrap_or(0) as usize + 1;
    counts.clear();
    counts.resize(levels + 1, 0);
    for &d in distances {
        counts[d as usize + 1] += 1;
    }
    for level in 0..levels {
        counts[level + 1] += counts[level];
    }
    pool.extend_from_slice(counts);
    // `counts` now holds the level offsets; reuse it as the counting-sort
    // cursors (it is rebuilt for the next span).
    for (local, &d) in distances.iter().enumerate() {
        let slot = counts[d as usize] as usize;
        out[slot] = members[local];
        counts[d as usize] += 1;
    }
}

/// Fill the flat membership slots of nodes `range` inside `out` (the
/// `hash_slots` window owned by the range).
fn hash_slots_for_range(
    offsets: &[u64],
    hash_offsets: &[u64],
    members: &[NodeId],
    range: (usize, usize),
    out: &mut [u32],
) {
    let (start_node, end_node) = range;
    let base = hash_offsets[start_node] as usize;
    for u in start_node..end_node {
        let (start, end) = (offsets[u] as usize, offsets[u + 1] as usize);
        let (slot_start, slot_end) = (
            hash_offsets[u] as usize - base,
            hash_offsets[u + 1] as usize - base,
        );
        fill_hash_slots(&members[start..end], &mut out[slot_start..slot_end]);
    }
}

/// Fill one node's power-of-two open-addressing slot span (zeroed on entry)
/// from its member list: each slot holds `local_index + 1`, 0 meaning
/// empty, linear probing from the FxHash mix. An empty vicinity has an
/// empty span.
fn fill_hash_slots(members: &[NodeId], span: &mut [u32]) {
    let Some(mask) = span.len().checked_sub(1) else {
        return;
    };
    for (local, &member) in members.iter().enumerate() {
        let mut i = hash_id(member) & mask;
        while span[i] != 0 {
            i = (i + 1) & mask;
        }
        span[i] = local as u32 + 1;
    }
}

/// True when every node span of `members` is strictly ascending — the
/// sorted-pool invariant every builder upholds and snapshot v4 headers
/// record (see `crate::serialize`, which rejects a snapshot whose spans
/// fail this check). Queries rely on it for the galloping merges of
/// [`sorted_ids_intersect`] and [`VicinityRef::min_outer_shell_sum`].
pub(crate) fn spans_sorted(offsets: &[u64], members: &[NodeId]) -> bool {
    offsets.windows(2).all(|w| {
        members[w[0] as usize..w[1] as usize]
            .windows(2)
            .all(|m| m[0] < m[1])
    })
}

/// Whether two ascending id slices share an element. Scans the smaller
/// slice and gallops through the larger one; both access patterns are
/// forward-only, so the loop stays prefetch-friendly. `steps` counts loop
/// iterations for work accounting.
pub(crate) fn sorted_ids_intersect(a: &[NodeId], b: &[NodeId], steps: &mut u64) -> bool {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut j = 0usize;
    for &id in small {
        *steps += 1;
        let mut hop = 1usize;
        while j + hop < large.len() && large[j + hop] < id {
            j += hop;
            hop <<= 1;
        }
        while j < large.len() && large[j] < id {
            j += 1;
        }
        if j == large.len() {
            return false;
        }
        if large[j] == id {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use vicinity_graph::algo::bfs::bfs_distances;
    use vicinity_graph::builder::GraphBuilder;
    use vicinity_graph::csr::CsrGraph;
    use vicinity_graph::generators::{classic, social::SocialGraphConfig};

    /// Build a store where every node uses the same fixed radius and
    /// nearest landmark — the direct replacement for constructing
    /// standalone per-node vicinities in the old layout's tests.
    fn store_with_radius(
        graph: &CsrGraph,
        radius: Distance,
        nearest: NodeId,
        store_paths: bool,
    ) -> VicinityStore {
        let mut scratch = BoundedBfsScratch::with_node_capacity(graph.node_count());
        let mut chunk = VicinityChunk::new(0, store_paths);
        for _ in 0..graph.node_count() {
            chunk.push_node(graph, Some(radius), Some(nearest), &mut scratch);
        }
        VicinityStore::from_chunks([chunk])
    }

    /// Reference implementation of the merge intersection: one membership
    /// probe per outer-shell node.
    fn probe_min_outer_shell_sum(
        scan: &VicinityRef<'_>,
        probe: &VicinityRef<'_>,
    ) -> Option<(Distance, NodeId)> {
        let mut best: Option<(Distance, NodeId)> = None;
        for &w in scan.outer_shell() {
            if let Some(d_probe) = probe.distance_to(w) {
                let total = scan.distance_to(w).unwrap() + d_probe;
                if best.is_none_or(|(b, _)| total < b) {
                    best = Some((total, w));
                }
            }
        }
        best
    }

    #[test]
    fn merge_intersection_matches_probe_loop() {
        let g = SocialGraphConfig::small_test().generate(61);
        let store = store_with_radius(&g, 2, 0, true);
        let owners: Vec<NodeId> = (0..40u32).map(|u| u * 7 % g.node_count() as u32).collect();
        let mut intersections = 0;
        for &ua in &owners {
            for &ub in &owners {
                if ua == ub {
                    continue;
                }
                let a = store.get(ua).unwrap();
                let b = store.get(ub).unwrap();
                let merged = a.min_outer_shell_sum(&b);
                // Both keep the smallest-id witness among ties.
                assert_eq!(
                    merged,
                    probe_min_outer_shell_sum(&a, &b),
                    "pair ({ua}, {ub})"
                );
                if merged.is_some() {
                    intersections += 1;
                }
            }
        }
        assert!(
            intersections > 0,
            "test graph must produce some intersections"
        );
    }

    #[test]
    fn adaptive_shell_intersection_matches_naive() {
        // Every shell pair: the adaptive kernel must agree with a naive set
        // intersection, and the lopsided pairs must exercise the probe
        // strategy.
        let g = SocialGraphConfig::small_test().generate(66);
        let store = store_with_radius(&g, 3, 0, false);
        let mut counters = IntersectCounters::default();
        for ua in (0..g.node_count() as NodeId).step_by(29) {
            for ub in (0..g.node_count() as NodeId).step_by(31) {
                let a = store.get(ua).unwrap();
                let b = store.get(ub).unwrap();
                for da in 0..=a.max_shell_distance() {
                    for db in 0..=b.max_shell_distance() {
                        let naive = a.shell(da).iter().any(|m| b.shell(db).contains(m));
                        assert_eq!(
                            a.shell_intersect_adaptive(da, &b, db, &mut counters),
                            naive,
                            "pair ({ua},{ub}) shells ({da},{db})"
                        );
                    }
                }
            }
        }
        assert!(counters.merge_calls > 0, "merge strategy must fire");
        assert!(
            counters.probe_calls > 0,
            "lopsided pairs must dispatch to the probe strategy"
        );
        assert!(counters.steps > 0);
    }

    #[test]
    fn spans_sorted_detects_order() {
        let offsets = [0u64, 3, 3, 5];
        assert!(spans_sorted(&offsets, &[1, 2, 9, 4, 5]));
        assert!(!spans_sorted(&offsets, &[1, 2, 2, 4, 5]), "duplicate id");
        assert!(!spans_sorted(&offsets, &[1, 9, 2, 4, 5]));
        // Order across span boundaries is irrelevant.
        assert!(spans_sorted(&offsets, &[7, 8, 9, 0, 1]));
    }

    #[test]
    fn vicinity_on_path_graph() {
        let g = classic::path(10);
        let store = store_with_radius(&g, 2, 0, true);
        let v = store.get(5).unwrap();
        // Members: nodes at distance <= 2 from node 5.
        assert_eq!(v.members(), &[3, 4, 5, 6, 7]);
        assert_eq!(v.len(), 5);
        assert_eq!(v.distance_to(5), Some(0));
        assert_eq!(v.distance_to(3), Some(2));
        assert_eq!(v.distance_to(8), None);
        assert!(v.contains(7));
        assert!(!v.contains(2));
        assert_eq!(v.radius(), 2);
        assert_eq!(v.owner(), 5);
        assert_eq!(v.nearest_landmark(), Some(0));
    }

    #[test]
    fn boundary_on_path_graph() {
        let g = classic::path(10);
        let store = store_with_radius(&g, 2, 0, true);
        let v = store.get(5).unwrap();
        // Nodes 3 and 7 have neighbours (2 and 8) outside the vicinity;
        // they are the outer shell, at the full radius.
        assert_eq!(v.outer_shell(), &[3, 7]);
        assert_eq!(v.max_shell_distance(), 2);
        assert_eq!(crate::stats::boundary_size(&v, &g), 2);
        // At node 2 the shell also holds node 0, the path's end, whose one
        // neighbour is inside the ball: the shell is a superset.
        let v = store.get(2).unwrap();
        assert_eq!(v.outer_shell(), &[0, 4]);
        assert_eq!(crate::stats::boundary_size(&v, &g), 1);
    }

    #[test]
    fn landmark_vicinity_is_empty() {
        let g = classic::path(5);
        let store = store_with_radius(&g, 0, 2, true);
        let v = store.get(2).unwrap();
        assert!(v.is_empty());
        assert_eq!(v.len(), 0);
        assert!(v.outer_shell().is_empty());
        assert!(!v.contains(2));
        assert_eq!(v.distance_to(2), None);
        assert_eq!(v.path_to(2), None);
    }

    #[test]
    fn paths_chase_predecessors_correctly() {
        let g = classic::grid(5, 5);
        let store = store_with_radius(&g, 3, 0, true);
        let v = store.get(12).unwrap();
        for (member, dist) in v.iter() {
            let path = v.path_to(member).expect("member path must exist");
            assert_eq!(path.len() as Distance, dist + 1);
            assert_eq!(path[0], 12);
            assert_eq!(*path.last().unwrap(), member);
            for w in path.windows(2) {
                assert!(g.has_edge(w[0], w[1]), "non-edge {w:?} in path");
            }
        }
        assert!(v.stores_paths());
    }

    #[test]
    fn without_path_storage_no_predecessors() {
        let g = classic::grid(4, 4);
        let store = store_with_radius(&g, 2, 0, false);
        let v = store.get(5).unwrap();
        assert!(!v.stores_paths());
        assert_eq!(v.predecessor_of(6), None);
        assert_eq!(v.path_to(6), None);
        // Distances still work.
        assert_eq!(v.distance_to(6), Some(1));
        assert!(!store.stores_paths());
    }

    #[test]
    fn distances_match_reference_bfs() {
        let g = SocialGraphConfig::small_test().generate(62);
        let reference = bfs_distances(&g, 0);
        let store = store_with_radius(&g, 3, 7, true);
        let v = store.get(0).unwrap();
        for (member, dist) in v.iter() {
            assert_eq!(dist, reference[member as usize], "member {member}");
        }
        // Everything at distance <= 3 is a member.
        for node in g.nodes() {
            if reference[node as usize] <= 3 {
                assert!(v.contains(node), "node {node} should be in the vicinity");
            } else {
                assert!(!v.contains(node));
            }
        }
    }

    #[test]
    fn no_reachable_landmark_covers_component() {
        let mut b = GraphBuilder::with_node_count(6);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(3, 4);
        let g = b.build_undirected();
        let mut scratch = BoundedBfsScratch::with_node_capacity(6);
        let mut chunk = VicinityChunk::new(0, true);
        for _ in 0..6 {
            chunk.push_node(&g, None, None, &mut scratch);
        }
        let store = VicinityStore::from_chunks([chunk]);
        let v = store.get(0).unwrap();
        assert_eq!(v.members(), &[0, 1, 2]);
        assert_eq!(v.nearest_landmark(), None);
        // The whole component is inside, so there is no boundary.
        assert_eq!(v.outer_shell(), &[2]);
        assert_eq!(crate::stats::boundary_size(&v, &g), 0);
    }

    #[test]
    fn entry_count_and_memory() {
        let g = classic::complete(10);
        let store = store_with_radius(&g, 1, 0, true);
        let v = store.get(0).unwrap();
        assert_eq!(v.entry_count(), 10);
        assert!(v.memory_bytes() > 0);
        assert_eq!(store.total_entries(), 100);
        assert!(store.memory_bytes() > 0);
        // The flat layout beats the modeled per-node layout.
        assert!((store.memory_bytes() as u64) < store.per_node_layout_bytes());
    }

    #[test]
    fn chunk_splicing_matches_single_chunk_build() {
        let g = SocialGraphConfig::small_test().generate(63);
        let n = g.node_count();
        let single = store_with_radius(&g, 2, 0, true);

        // Same store assembled from three uneven worker chunks.
        let mut scratch = BoundedBfsScratch::with_node_capacity(n);
        let mut chunks = Vec::new();
        let bounds = [0usize, n / 3, n / 2, n];
        for w in bounds.windows(2) {
            let mut chunk = VicinityChunk::new(w[0] as NodeId, true);
            for _ in w[0]..w[1] {
                chunk.push_node(&g, Some(2), Some(0), &mut scratch);
            }
            chunks.push(chunk);
        }
        let spliced = VicinityStore::from_chunks(chunks);
        assert_eq!(single, spliced);
        for u in (0..n as NodeId).step_by(17) {
            assert_eq!(single.get(u), spliced.get(u));
        }
    }

    #[test]
    fn one_node_store_is_its_span_of_the_full_store() {
        let g = SocialGraphConfig::small_test().generate(65);
        let full = store_with_radius(&g, 2, 7, false);
        let mut scratch = BoundedBfsScratch::with_node_capacity(g.node_count());
        for u in (0..g.node_count() as NodeId).step_by(11) {
            let mut chunk = VicinityChunk::new(u, false);
            chunk.push_node(&g, Some(2), Some(7), &mut scratch);
            let patch = VicinityStore::from_chunks([chunk]);
            let (one, all) = (patch.get(u).unwrap(), full.get(u).unwrap());
            assert_eq!(one, all);
            assert_eq!(one.max_shell_distance(), all.max_shell_distance());
            for d in 0..=all.max_shell_distance() {
                assert_eq!(one.shell(d), all.shell(d), "node {u} shell {d}");
            }
            assert_eq!(one.memory_bytes(), all.memory_bytes());
            assert!(all.members().iter().all(|&m| one.contains(m)));
            assert_eq!(patch.nearest_of(u), Some(7));
            assert!(patch.get(u + 1).is_none() && patch.nearest_of(u + 1).is_none());
            assert!(u == 0 || patch.get(u - 1).is_none());
            assert_eq!(patch.iter().map(|v| v.owner()).collect::<Vec<_>>(), [u]);
            assert_eq!(patch.total_entries() as usize, all.len());
        }
    }

    #[test]
    fn chunk_holds_only_an_equal_view() {
        let g = SocialGraphConfig::small_test().generate(65);
        let full = store_with_radius(&g, 2, 7, false);
        let mut scratch = BoundedBfsScratch::with_node_capacity(g.node_count());
        for u in (1..g.node_count() as NodeId).step_by(13) {
            let view = full.get(u).unwrap();
            let mut chunk = VicinityChunk::new(u, false);
            chunk.push_node(&g, Some(2), Some(7), &mut scratch);
            assert!(chunk.holds(&view), "node {u}");
            assert!(
                !chunk.holds(&full.get(u - 1).unwrap()),
                "node {u}'s neighbour id"
            );
            let mut other = chunk.clone();
            other.nearest[0] = 8;
            assert!(!other.holds(&view), "node {u} nearest landmark");
            if let Some(d) = chunk.distances.last_mut() {
                *d += 1;
                assert!(!chunk.holds(&view), "node {u} distances");
            }
            chunk.push_node(&g, Some(2), Some(7), &mut scratch);
            assert!(!chunk.holds(&view), "two nodes");
        }
    }

    #[test]
    fn derived_sections_do_not_depend_on_the_thread_count() {
        let g = SocialGraphConfig::small_test().generate(66);
        let store = store_with_radius(&g, 2, 0, false);
        for threads in 1..=3 {
            let mut rebuilt = store.clone();
            rebuilt.build_shells(threads);
            rebuilt.build_hash_slots(threads);
            assert_eq!(rebuilt, store, "{threads} threads");
        }
    }

    #[test]
    fn empty_store() {
        let store = VicinityStore::empty(4);
        assert_eq!(store.node_count(), 4);
        assert_eq!(store.total_entries(), 0);
        let v = store.get(3).unwrap();
        assert!(v.is_empty());
        assert!(!v.contains(3));
        assert!(store.get(4).is_none());
        assert!(store.stores_paths(), "vacuously true with no members");
    }

    #[test]
    fn raw_sections_round_trip_through_from_raw() {
        let g = classic::grid(4, 4);
        let store = store_with_radius(&g, 2, 0, true);
        let (radii, nearest, offsets, members, distances, preds) = store.raw_sections();
        let rebuilt = VicinityStore::from_raw(
            radii.to_vec(),
            nearest.to_vec(),
            offsets.to_vec(),
            members.to_vec(),
            distances.to_vec(),
            preds.to_vec(),
        );
        assert_eq!(store, rebuilt);
    }

    #[test]
    fn shells_partition_members_by_distance() {
        let g = SocialGraphConfig::small_test().generate(64);
        let store = store_with_radius(&g, 3, 0, false);
        for u in (0..g.node_count() as NodeId).step_by(13) {
            let v = store.get(u).unwrap();
            let mut from_shells: Vec<(NodeId, Distance)> = Vec::new();
            for d in 0..=v.max_shell_distance() {
                let shell = v.shell(d);
                assert!(shell.windows(2).all(|w| w[0] < w[1]), "shell sorted");
                from_shells.extend(shell.iter().map(|&m| (m, d)));
            }
            let mut expected: Vec<(NodeId, Distance)> = v.iter().collect();
            from_shells.sort_unstable();
            expected.sort_unstable();
            assert_eq!(from_shells, expected, "node {u}");
            assert!(v.shell(v.max_shell_distance() + 1).is_empty());
        }
    }
}
