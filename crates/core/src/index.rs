//! The query-time data structure: per-node vicinities plus landmark
//! distances.
//!
//! This mirrors §3.1 of the paper: "Our data structure stores, for each node
//! u, a hash table containing the exact distance to each node v ∈ Γ(u). In
//! addition, if u ∈ L, the data structure stores a hash table containing the
//! exact distance from u to each other node v ∈ V."
//!
//! The landmark tables are stored **node-major** as one dense `u16` slab
//! ([`LandmarkDistances`]) rather than one hash table per landmark: node
//! `v`'s distances to all `|L|` landmarks, ordered by landmark rank (see
//! [`LandmarkSet::rank`]), form one contiguous column. A query still reads
//! one entry per landmark row it consults (one cache line), while an edge
//! update `{a, b}` checks every landmark at once from the two contiguous
//! columns of `a` and `b` instead of two entries in each of `|L|` rows.
//! 16-bit distances are ample for social networks (diameters of tens of
//! hops): an entry is an exact distance of at most 65,533 hops or the
//! unreachable sentinel, and a graph in which a landmark distance reaches
//! [`HOP_HORIZON`] hops is refused by the build, the snapshot decoder and
//! the edge updates alike. Paths from a landmark are reconstructed by greedy descent on its
//! distances, so no predecessor storage is needed for landmarks.

use vicinity_graph::{Distance, NodeId, INFINITY};

use crate::config::OracleConfig;
use crate::landmarks::LandmarkSet;
use crate::parallel::map_parts;
use crate::prefetch::prefetch_read;
use crate::query::RowRef;
use crate::vicinity::{VicinityRef, VicinityStore};

/// Sentinel for "unreachable" in the compact landmark distances.
pub(crate) const UNREACHABLE_U16: u16 = u16::MAX;

/// The first hop count a landmark distance cannot take: the one value
/// below the sentinel is reserved, so rows hold 0–65,533 hops exactly and
/// nothing else. A build, a snapshot or an edge update that would store a
/// finite distance of this many hops or more is refused.
pub const HOP_HORIZON: u16 = u16::MAX - 1;

/// Compact `u16` encoding of a full-width BFS distance: `INFINITY` maps to
/// the unreachable sentinel, a finite distance to itself; `None` when it is
/// [`HOP_HORIZON`] hops or more.
#[inline]
pub(crate) fn encode_distance(d: Distance) -> Option<u16> {
    if d == INFINITY {
        Some(UNREACHABLE_U16)
    } else {
        u16::try_from(d).ok().filter(|&raw| raw < HOP_HORIZON)
    }
}

/// The distance a compact entry holds, `None` when unreachable.
#[inline]
pub(crate) fn decode_distance(raw: u16) -> Option<Distance> {
    (raw != UNREACHABLE_U16).then_some(Distance::from(raw))
}

/// Every landmark's distance to every node, node-major: the compact
/// distances from the `width` landmarks to node `v`, ordered by landmark
/// rank, are the contiguous column `slab[v·width .. (v+1)·width]`.
///
/// Landmark `ℓ`'s classic "row" is the strided sequence of entry
/// `rank(ℓ)` across all columns; [`RowRef`] views it one entry at a time.
/// The builder writes blocks of whole columns, and snapshots store the
/// slab in this same layout, so encode and decode are straight copies.
/// Every entry is an exact distance below [`HOP_HORIZON`] or the
/// unreachable sentinel.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LandmarkDistances {
    /// Landmarks per column, `|L|`.
    width: usize,
    /// `width · n` compact distances.
    slab: Vec<u16>,
}

impl LandmarkDistances {
    /// A slab for `width` landmarks over `node_count` nodes, every entry
    /// zero until a writer fills it: the builder's
    /// [`LandmarkDistances::fill_column_blocks`] or a snapshot decode's
    /// [`LandmarkDistances::from_le`]. The zeroed allocation comes from the
    /// allocator's zeroed pages, so the writers' workers fault them in,
    /// not a serial fill.
    pub(crate) fn zeroed(width: usize, node_count: usize) -> Self {
        LandmarkDistances {
            width,
            slab: vec![0; width * node_count],
        }
    }

    /// Landmarks per column.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Node `v`'s compact distances to every landmark, in rank order
    /// (empty when `v` is out of range).
    #[inline]
    pub fn column(&self, v: NodeId) -> &[u16] {
        let start = v as usize * self.width;
        self.slab.get(start..start + self.width).unwrap_or(&[])
    }

    /// The compact distance from the landmark of rank `rank` to `v`
    /// (unreachable when out of range).
    #[inline]
    pub(crate) fn raw(&self, rank: usize, v: NodeId) -> u16 {
        debug_assert!(rank < self.width);
        self.slab
            .get(v as usize * self.width + rank)
            .copied()
            .unwrap_or(UNREACHABLE_U16)
    }

    /// Hint that entry `(rank, v)` will be read soon — one cache line.
    #[inline]
    pub(crate) fn prefetch(&self, rank: usize, v: NodeId) {
        if let Some(entry) = self.slab.get(v as usize * self.width + rank) {
            prefetch_read(entry);
        }
    }

    /// Memory used by the slab, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.slab.len() * std::mem::size_of::<u16>()
    }

    /// Overwrite the entry of rank `rank` for node `v` (the dynamic
    /// overlay's compaction fold).
    pub(crate) fn set(&mut self, rank: usize, v: NodeId, raw: u16) {
        self.slab[v as usize * self.width + rank] = raw;
    }

    /// Write blocks of whole columns: block `i` is node-major over every
    /// node, `k_i = blocks[i].len() / n` entries per node, and fills ranks
    /// `first_rank + k_0 + … + k_{i−1}` onward of each column. The node
    /// range is split over `threads` workers, each copying a disjoint run
    /// of columns.
    pub(crate) fn fill_column_blocks(
        &mut self,
        first_rank: usize,
        blocks: &[&[u16]],
        threads: usize,
    ) {
        let width = self.width;
        if width == 0 || blocks.is_empty() || self.slab.is_empty() {
            return;
        }
        let n = self.slab.len() / width;
        debug_assert!(first_rank + blocks.iter().map(|b| b.len() / n).sum::<usize>() <= width);
        let nodes_per_part = n.div_ceil(threads.clamp(1, n));
        map_parts(
            self.slab.chunks_mut(nodes_per_part * width),
            |index, part| {
                let first_node = index * nodes_per_part;
                for (i, column) in part.chunks_exact_mut(width).enumerate() {
                    let v = first_node + i;
                    let mut rank = first_rank;
                    for block in blocks {
                        let k = block.len() / n;
                        column[rank..rank + k].copy_from_slice(&block[v * k..(v + 1) * k]);
                        rank += k;
                    }
                }
            },
        );
    }

    /// The slab held in `raw`: `width · node_count` little-endian entries,
    /// node-major as [`LandmarkDistances::write_le`] writes them (the
    /// snapshot layout), or `None` when an entry is [`HOP_HORIZON`]. The
    /// node range is split over `threads` workers, each converting a
    /// disjoint run of columns and checking it a word at a time.
    pub(crate) fn from_le(
        width: usize,
        node_count: usize,
        raw: &[[u8; 2]],
        threads: usize,
    ) -> Option<Self> {
        let mut table = Self::zeroed(width, node_count);
        if table.slab.is_empty() {
            return Some(table);
        }
        debug_assert_eq!(raw.len(), table.slab.len());
        let part_len = node_count.div_ceil(threads.clamp(1, node_count)) * width;
        let refused = map_parts(table.slab.chunks_mut(part_len), |index, part| {
            let source = &raw[index * part_len..][..part.len()];
            for (entry, &bytes) in part.iter_mut().zip(source) {
                *entry = u16::from_le_bytes(bytes);
            }
            holds_horizon(source)
        });
        (!refused.contains(&true)).then_some(table)
    }

    /// Write the slab into `out` (exactly two bytes per entry) as it is
    /// held, node-major, each entry little-endian. The entries are split
    /// over `threads` workers, each writing a disjoint run.
    pub(crate) fn write_le(&self, out: &mut [u8], threads: usize) {
        debug_assert_eq!(out.len(), 2 * self.slab.len());
        if self.slab.is_empty() {
            return;
        }
        let part_len = self.slab.len().div_ceil(threads.clamp(1, self.slab.len()));
        map_parts(out.chunks_mut(2 * part_len), |index, part| {
            let entries = &self.slab[index * part_len..];
            for (bytes, &entry) in part.as_chunks_mut::<2>().0.iter_mut().zip(entries) {
                *bytes = entry.to_le_bytes();
            }
        });
    }
}

/// Whether any of the little-endian entries is [`HOP_HORIZON`], four
/// entries per 64-bit word: a 16-bit lane of `x = word ^ H` is zero
/// exactly where an entry is the horizon, and
/// `(x − 0x0001…) & !x & 0x8000…` is non-zero iff some lane of `x` is.
fn holds_horizon(raw: &[[u8; 2]]) -> bool {
    const LOW: u64 = 0x0001_0001_0001_0001;
    const HIGH: u64 = 0x8000_8000_8000_8000;
    const H: u64 = HOP_HORIZON as u64 * LOW;
    let (words, _) = raw.as_flattened().as_chunks::<8>();
    let lanes = words.iter().fold(0, |any, word| {
        let x = u64::from_le_bytes(*word) ^ H;
        any | (x.wrapping_sub(LOW) & !x & HIGH)
    });
    lanes != 0 || raw[4 * words.len()..].contains(&HOP_HORIZON.to_le_bytes())
}

/// The vicinity-intersection shortest-path oracle.
///
/// Construct one with [`crate::OracleBuilder`]; query it with the methods in
/// [`crate::query`] (`distance`, `path`, `distance_with_stats`, …).
#[derive(Debug, Clone, PartialEq)]
pub struct VicinityOracle {
    pub(crate) config: OracleConfig,
    pub(crate) node_count: usize,
    pub(crate) edge_count: usize,
    pub(crate) landmarks: LandmarkSet,
    /// Arena-backed flat storage of every node's vicinity.
    pub(crate) store: VicinityStore,
    /// Every landmark's distance to every node, node-major (columns
    /// ordered by landmark rank).
    pub(crate) landmark_distances: LandmarkDistances,
}

impl VicinityOracle {
    /// Number of nodes in the indexed graph.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of undirected edges in the indexed graph.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// The configuration the oracle was built with.
    pub fn config(&self) -> &OracleConfig {
        &self.config
    }

    /// The landmark set `L`.
    pub fn landmarks(&self) -> &LandmarkSet {
        &self.landmarks
    }

    /// True when `u` is a landmark.
    pub fn is_landmark(&self, u: NodeId) -> bool {
        self.landmarks.contains(u)
    }

    /// A borrowed view of the vicinity `Γ(u)`, or `None` when `u` is out
    /// of range.
    pub fn vicinity(&self, u: NodeId) -> Option<VicinityRef<'_>> {
        self.store.get(u)
    }

    /// The flat vicinity store backing this oracle (memory accounting,
    /// serialization and layout benchmarks read it directly).
    pub fn store(&self) -> &VicinityStore {
        &self.store
    }

    /// A view of landmark `u`'s distances to every node, if `u` is a
    /// landmark.
    pub fn landmark_row(&self, u: NodeId) -> Option<RowRef<'_>> {
        let rank = self.landmarks.rank(u)?;
        Some(RowRef::new(&self.landmark_distances, rank, None))
    }

    /// The node-major landmark distances (memory accounting,
    /// serialization and the landmark estimate read them directly).
    pub fn landmark_distances(&self) -> &LandmarkDistances {
        &self.landmark_distances
    }

    /// Whether the oracle stores shortest-path predecessors (and can
    /// therefore answer path queries, not just distance queries).
    pub fn stores_paths(&self) -> bool {
        self.config.store_paths
    }

    /// True when `u` is a valid node id for this oracle.
    pub fn contains_node(&self, u: NodeId) -> bool {
        (u as usize) < self.node_count
    }

    /// Average vicinity size `|Γ(u)|` over all nodes (landmarks included,
    /// with their empty vicinities).
    pub fn average_vicinity_size(&self) -> f64 {
        if self.store.node_count() == 0 {
            return 0.0;
        }
        self.store.total_entries() as f64 / self.store.node_count() as f64
    }

    /// Average vicinity radius `d(u, ℓ(u))` over non-landmark nodes — the
    /// quantity of Figure 2 (right).
    pub fn average_vicinity_radius(&self) -> f64 {
        let (mut sum, mut count) = (0.0f64, 0usize);
        for v in self.store.iter() {
            if !self.is_landmark(v.owner()) {
                sum += v.radius() as f64;
                count += 1;
            }
        }
        if count == 0 {
            0.0
        } else {
            sum / count as f64
        }
    }

    /// Total number of stored vicinity entries, `Σ_u |Γ(u)|`.
    pub fn total_vicinity_entries(&self) -> u64 {
        self.store.total_entries()
    }
}

// Compile-time audit that the whole index is shareable across worker
// threads: one immutable build behind an `Arc` may be queried concurrently
// (the serving subsystem in `vicinity-server` relies on this). If a future
// refactor introduces interior mutability (`Cell`, `Rc`, raw pointers, …)
// into any stored component, this stops compiling rather than silently
// making the server unsound.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<VicinityOracle>();
    assert_send_sync::<VicinityStore>();
    assert_send_sync::<LandmarkDistances>();
};

#[cfg(test)]
mod tests {
    use super::*;

    /// The node-major little-endian image of `rows[r]` as the row of
    /// landmark rank `r`, as a snapshot stores it.
    fn node_major_le(rows: &[Vec<u16>], node_count: usize) -> Vec<[u8; 2]> {
        (0..node_count)
            .flat_map(|v| rows.iter().map(move |row| row[v].to_le_bytes()))
            .collect()
    }

    /// A slab holding `rows[r]` as the row of landmark rank `r`.
    fn from_rows(rows: &[Vec<u16>], node_count: usize) -> LandmarkDistances {
        LandmarkDistances::from_le(rows.len(), node_count, &node_major_le(rows, node_count), 1)
            .expect("rows below the horizon")
    }

    #[test]
    fn landmark_table_round_trips_distances() {
        let last = HOP_HORIZON - 1;
        let t = from_rows(&[vec![0, 3, UNREACHABLE_U16, last, 12]], 5);
        let row = RowRef::new(&t, 0, None);
        assert_eq!(row.distance_to(0), Some(0));
        assert_eq!(row.distance_to(1), Some(3));
        assert_eq!(row.distance_to(2), None, "the sentinel reads unreachable");
        assert_eq!(row.distance_to(3), Some(Distance::from(last)));
        assert_eq!(row.distance_to(4), Some(12));
        assert_eq!(row.distance_to(99), None);
        assert_eq!(t.width(), 1);
        assert_eq!(t.memory_bytes(), 10, "five entries");
        // The encoder holds every distance below the horizon and none past.
        assert_eq!(encode_distance(INFINITY), Some(UNREACHABLE_U16));
        assert_eq!(encode_distance(Distance::from(last)), Some(last));
        for far in [HOP_HORIZON as Distance, u16::MAX as Distance, 70_000] {
            assert_eq!(encode_distance(far), None, "{far} hops");
        }
    }

    #[test]
    fn landmark_table_raw_round_trip() {
        // Node-major: a column holds one node's distances to every
        // landmark, in rank order. The little-endian image round-trips on
        // any split of the work, and the builder's column blocks write the
        // same slab (here, batches of 64 and 6 ranks).
        let (width, n) = (70, 131);
        let rows: Vec<Vec<u16>> = (0..width)
            .map(|r| (0..n).map(|v| ((r * 7 + v * 3) % 500) as u16).collect())
            .collect();
        let t = from_rows(&rows, n);
        assert_eq!(t.column(5)[..3], [15, 22, 29]);
        assert!(t.column(n as NodeId).is_empty());
        let image = node_major_le(&rows, n);
        for threads in [1, 2, 3] {
            assert_eq!(
                LandmarkDistances::from_le(width, n, &image, threads),
                Some(t.clone()),
                "from_le on {threads} threads"
            );
            let mut out = vec![0u8; 2 * width * n];
            t.write_le(&mut out, threads);
            assert_eq!(out, image.as_flattened(), "write_le on {threads} threads");
            let mut from_blocks = LandmarkDistances::zeroed(width, n);
            let (low, high) = rows.split_at(64);
            let blocks: Vec<Vec<u16>> = [low, high]
                .iter()
                .map(|block| {
                    (0..n)
                        .flat_map(|v| block.iter().map(move |row| row[v]))
                        .collect()
                })
                .collect();
            let blocks: Vec<&[u16]> = blocks.iter().map(Vec::as_slice).collect();
            from_blocks.fill_column_blocks(0, &blocks[..1], threads);
            from_blocks.fill_column_blocks(64, &blocks[1..], threads);
            assert_eq!(from_blocks, t, "fill_column_blocks on {threads} threads");
            from_blocks.fill_column_blocks(0, &blocks, threads);
            assert_eq!(from_blocks, t, "two blocks in one call");
        }
    }

    #[test]
    fn empty_landmark_table() {
        let t = from_rows(&[], 4);
        assert_eq!(t.width(), 0);
        assert!(t.column(0).is_empty());
        assert_eq!(t.memory_bytes(), 0);
    }

    #[test]
    fn decode_refuses_horizon_entries_on_any_split() {
        // One horizon entry in any column refuses the whole slab, on any
        // split of the node range; its neighbours on either side decode.
        let rows = vec![
            vec![0, 1, 2, 3],
            vec![1, HOP_HORIZON - 1, UNREACHABLE_U16, 2],
            vec![UNREACHABLE_U16; 4],
        ];
        for threads in [1, 2, 3] {
            assert!(LandmarkDistances::from_le(3, 4, &node_major_le(&rows, 4), threads).is_some());
            for (rank, v) in [(0, 0), (1, 1), (2, 3)] {
                let mut far = rows.clone();
                far[rank][v] = HOP_HORIZON;
                let image = node_major_le(&far, 4);
                assert_eq!(
                    LandmarkDistances::from_le(3, 4, &image, threads),
                    None,
                    "rank {rank}, node {v}, {threads} threads"
                );
            }
        }
    }

    #[test]
    fn horizon_check_sees_every_position() {
        // Word-at-a-time: one horizon entry in any lane of any word, or in
        // the tail, is found; values one bit away from it are not.
        let le = |v: u16| v.to_le_bytes();
        for len in [0, 1, 3, 4, 5, 9, 32] {
            let mut raw = vec![le(7); len];
            assert!(!holds_horizon(&raw), "len {len}");
            for near in [0xFFFF, 0xFFFC, 0x7FFE, 0xFEFF, 0] {
                raw.fill(le(near));
                assert!(!holds_horizon(&raw), "len {len}, {near:#x}");
            }
            for at in 0..len {
                raw.fill(le(UNREACHABLE_U16));
                raw[at] = le(HOP_HORIZON);
                assert!(holds_horizon(&raw), "len {len}, at {at}");
            }
        }
    }

    // Oracle-level behaviour is exercised in `build.rs`, `query.rs` and the
    // integration tests; this module only tests the landmark slab directly.
}
