//! Versioned binary persistence of a [`VicinityOracle`].
//!
//! A snapshot hands an oracle from the offline build to the in-memory
//! server: [`encode`] writes one, [`decode`] turns it back into the
//! identical oracle. The format mirrors the graph format of
//! `vicinity-graph::io::binary`: a magic number, a version byte,
//! little-endian sections and a trailing byte-sum checksum so corrupt
//! snapshots are rejected rather than silently producing wrong answers.
//!
//! ## Format v4
//!
//! Sectioned raw-array dumps, in the layout the program holds them:
//!
//! * the header: config (α, sampling, seed, paths flag), graph summary
//!   (node and edge counts) and the landmark set (count, ascending ids);
//! * the landmark slab ([`LandmarkDistances`]), node-major: node `v`'s
//!   little-endian `u16` distances to every landmark in rank order, for
//!   `v = 0..n`;
//! * the vicinity store: a store-flags byte followed by the contiguous
//!   little-endian arrays of the flat [`VicinityStore`] — per-node radii
//!   and nearest landmarks, CSR offsets, the member and distance pools, a
//!   byte saying whether predecessors follow, and the predecessor pool.
//!
//! Bit 0 of the flags byte ([`STORE_FLAG_SORTED_MEMBERS`]) records the
//! build-time invariant that member pools are sorted by node id within
//! each span. [`decode`] reads only v4 snapshots that carry the flag, and
//! checks that every span is strictly ascending and that every
//! member is a node of the graph, so queries can rely on both
//! unconditionally. It refuses a slab entry of [`HOP_HORIZON`], which no
//! accepted graph stores, and a predecessor chain that does not step one
//! hop closer to its owner within the span. Any other version byte is
//! rejected with an error naming v4. Encode and decode move whole sections with bulk conversions
//! instead of per-node loops (the slab as a parallel straight copy), so
//! load time is O(bytes); the derived shell indexes and membership hash
//! slots are rebuilt at load, never stored.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use vicinity_graph::{NodeId, INVALID_NODE};

use crate::config::{Alpha, OracleConfig, SamplingStrategy};
use crate::index::{decode_distance, LandmarkDistances, VicinityOracle, HOP_HORIZON};
use crate::landmarks::LandmarkSet;
use crate::vicinity::VicinityStore;
use crate::{OracleError, Result};

const MAGIC: &[u8; 4] = b"VOR1";
/// The snapshot format version [`encode`] writes and [`decode`] reads:
/// a node-major landmark slab and flat-store sections with a store-flags
/// byte.
pub const FORMAT_VERSION: u8 = 4;

/// Bit 0 of the v4 store-flags byte: member pools are sorted by node id
/// within each node span (the build-time invariant the galloping merge
/// intersections rely on).
/// [`decode`] rejects a snapshot without this bit.
pub const STORE_FLAG_SORTED_MEMBERS: u8 = 1;

// ---------------------------------------------------------------------------
// Checksum. The trailing checksum is the plain sum of every body byte,
// computed as a SWAR sum over u64 words and fanned out across worker
// threads for multi-megabyte snapshots.

/// Sum of all bytes of `data`, widened to u64.
fn byte_sum(data: &[u8]) -> u64 {
    const PARALLEL_MIN: usize = 4 << 20;
    if data.len() < PARALLEL_MIN {
        return byte_sum_serial(data);
    }
    let parts = crate::parallel::resolve_worker_threads(0, data.len() / PARALLEL_MIN);
    let chunk_size = data.len().div_ceil(parts);
    std::thread::scope(|scope| {
        let handles: Vec<_> = data
            .chunks(chunk_size)
            .map(|chunk| scope.spawn(move || byte_sum_serial(chunk)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("checksum worker panicked"))
            .sum()
    })
}

fn byte_sum_serial(data: &[u8]) -> u64 {
    let mut chunks = data.chunks_exact(8);
    let mut total = 0u64;
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        // Pairwise-widen the eight byte lanes; exact for a single word.
        let pairs = (word & 0x00FF_00FF_00FF_00FF) + ((word >> 8) & 0x00FF_00FF_00FF_00FF);
        let quads = (pairs & 0x0000_FFFF_0000_FFFF) + ((pairs >> 16) & 0x0000_FFFF_0000_FFFF);
        total += (quads & 0xFFFF_FFFF) + (quads >> 32);
    }
    total + chunks.remainder().iter().map(|&b| b as u64).sum::<u64>()
}

// ---------------------------------------------------------------------------
// Bulk little-endian array helpers. On little-endian targets the per-element
// conversions below compile down to straight copies; either way they touch
// each section once, with no per-node framing in between.

/// Elements converted per staging block by the `put_*s` writers: large
/// enough that the bulk `put_slice` dominates, small enough (≤64 KiB of
/// staging) that a multi-MiB section never needs a second full-size copy
/// in flight.
const PUT_BLOCK: usize = 8 << 10;

fn put_u32s(buf: &mut BytesMut, values: &[u32]) {
    let mut raw = [0u8; PUT_BLOCK * 4];
    for block in values.chunks(PUT_BLOCK) {
        let staged = &mut raw[..block.len() * 4];
        for (chunk, v) in staged.chunks_exact_mut(4).zip(block) {
            chunk.copy_from_slice(&v.to_le_bytes());
        }
        buf.put_slice(staged);
    }
}

fn put_u64s(buf: &mut BytesMut, values: &[u64]) {
    let mut raw = [0u8; PUT_BLOCK * 8];
    for block in values.chunks(PUT_BLOCK) {
        let staged = &mut raw[..block.len() * 8];
        for (chunk, v) in staged.chunks_exact_mut(8).zip(block) {
            chunk.copy_from_slice(&v.to_le_bytes());
        }
        buf.put_slice(staged);
    }
}

fn get_u32s(cur: &mut &[u8], len: usize) -> Result<Vec<u32>> {
    ensure(cur, len * 4)?;
    let (head, tail) = cur.split_at(len * 4);
    let out = head
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
        .collect();
    *cur = tail;
    Ok(out)
}

fn get_u64s(cur: &mut &[u8], len: usize) -> Result<Vec<u64>> {
    ensure(cur, len * 8)?;
    let (head, tail) = cur.split_at(len * 8);
    let out = head
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect();
    *cur = tail;
    Ok(out)
}

/// Like [`get_u32s`], but fanning the conversion of multi-megabyte
/// sections out over worker threads writing disjoint output windows.
fn get_u32s_parallel(cur: &mut &[u8], len: usize) -> Result<Vec<u32>> {
    const PARALLEL_MIN: usize = 1 << 20; // elements
    if len < PARALLEL_MIN {
        return get_u32s(cur, len);
    }
    ensure(cur, len * 4)?;
    let (head, tail) = cur.split_at(len * 4);
    let mut out = vec![0u32; len];
    let threads = crate::parallel::resolve_worker_threads(0, len / PARALLEL_MIN);
    let chunk = len.div_ceil(threads);
    std::thread::scope(|scope| {
        for (window, raw) in out.chunks_mut(chunk).zip(head.chunks(chunk * 4)) {
            scope.spawn(move || {
                for (slot, bytes) in window.iter_mut().zip(raw.chunks_exact(4)) {
                    *slot = u32::from_le_bytes(bytes.try_into().expect("4-byte chunk"));
                }
            });
        }
    });
    *cur = tail;
    Ok(out)
}

// ---------------------------------------------------------------------------
// Header: config, graph summary, landmark set and landmark slab.

/// Landmark-slab bytes per worker thread of the parallel copies.
const SLAB_BYTES_PER_THREAD: usize = 4 << 20;

fn encode_header(buf: &mut BytesMut, oracle: &VicinityOracle) {
    buf.put_slice(MAGIC);
    buf.put_u8(FORMAT_VERSION);

    // Configuration.
    buf.put_f64_le(oracle.config.alpha.value());
    buf.put_u8(match oracle.config.sampling {
        SamplingStrategy::DegreeProportional => 0,
        SamplingStrategy::Uniform => 1,
        SamplingStrategy::TopDegree => 2,
    });
    buf.put_u64_le(oracle.config.seed);
    buf.put_u8(u8::from(oracle.config.store_paths));

    // Graph summary.
    buf.put_u64_le(oracle.node_count as u64);
    buf.put_u64_le(oracle.edge_count as u64);

    // Landmark set; the node-major slab follows.
    let landmark_nodes = oracle.landmarks.nodes();
    buf.put_u64_le(landmark_nodes.len() as u64);
    put_u32s(buf, landmark_nodes);
}

/// Bytes the landmark slab takes in a snapshot of `oracle`.
fn landmark_slab_len(oracle: &VicinityOracle) -> usize {
    2 * oracle.landmarks.len() * oracle.node_count
}

/// Everything the header carries, short of the vicinity sections.
struct DecodedHeader {
    config: OracleConfig,
    node_count: usize,
    edge_count: usize,
    landmarks: LandmarkSet,
    landmark_distances: LandmarkDistances,
}

/// Decode the header.
fn decode_header(cur: &mut &[u8]) -> Result<DecodedHeader> {
    ensure(cur, 8 + 1 + 8 + 1 + 16)?;
    let alpha =
        Alpha::new(cur.get_f64_le()).map_err(|e| OracleError::Decode(format!("bad alpha: {e}")))?;
    let sampling = match cur.get_u8() {
        0 => SamplingStrategy::DegreeProportional,
        1 => SamplingStrategy::Uniform,
        2 => SamplingStrategy::TopDegree,
        other => {
            return Err(OracleError::Decode(format!(
                "unknown sampling strategy {other}"
            )))
        }
    };
    let seed = cur.get_u64_le();
    let store_paths = cur.get_u8() != 0;
    let node_count = cur.get_u64_le() as usize;
    let edge_count = cur.get_u64_le() as usize;
    // Radii and nearest landmarks alone take 8 bytes per node, so a node
    // count the input cannot hold is refused before anything is sized by it.
    if node_count > cur.remaining() / 8 {
        return Err(OracleError::Decode(format!(
            "node count {node_count} exceeds what the {} remaining bytes can hold",
            cur.remaining()
        )));
    }

    // Landmark set: strictly ascending ids of nodes of the graph, so rank
    // order is id order, as in every built oracle.
    ensure(cur, 8)?;
    let landmark_count = cur.get_u64_le() as usize;
    if landmark_count > node_count {
        return Err(OracleError::Decode(format!(
            "landmark count {landmark_count} exceeds the node count {node_count}"
        )));
    }
    let landmark_nodes = get_u32s(cur, landmark_count)?;
    if landmark_nodes.windows(2).any(|w| w[0] >= w[1])
        || landmark_nodes
            .last()
            .is_some_and(|&l| l as usize >= node_count)
    {
        return Err(OracleError::Decode(
            "landmark set is not strictly ascending node ids".into(),
        ));
    }
    let landmarks = LandmarkSet::from_nodes(landmark_nodes, node_count);

    // The landmark slab — the bulk of a snapshot's bytes — node-major, as
    // the program holds it: one straight parallel copy.
    let slab_len = landmark_count.saturating_mul(node_count).saturating_mul(2);
    ensure(cur, slab_len)?;
    let (slab, tail) = cur.split_at(slab_len);
    *cur = tail;
    let threads = crate::parallel::resolve_worker_threads(0, slab_len / SLAB_BYTES_PER_THREAD);
    let landmark_distances =
        LandmarkDistances::from_le(landmark_count, node_count, slab.as_chunks::<2>().0, threads)
            .ok_or_else(|| {
                OracleError::Decode(format!(
                    "landmark slab holds the reserved value {HOP_HORIZON}: \
                     rows hold distances below {HOP_HORIZON} hops"
                ))
            })?;
    // Each landmark is at distance 0 from itself: a column that does not
    // say so belongs to another landmark set.
    for (rank, &l) in landmarks.nodes().iter().enumerate() {
        if landmark_distances.raw(rank, l) != 0 {
            return Err(OracleError::Decode(format!(
                "landmark slab does not hold landmark {l} at distance 0 from itself"
            )));
        }
    }

    Ok(DecodedHeader {
        config: OracleConfig {
            alpha,
            sampling,
            seed,
            store_paths,
            threads: 0,
        },
        node_count,
        edge_count,
        landmarks,
        landmark_distances,
    })
}

// ---------------------------------------------------------------------------
// Vicinity sections.

/// Serialize an oracle to bytes (format v4).
pub fn encode(oracle: &VicinityOracle) -> Bytes {
    let (radii, nearest, offsets, members, distances, predecessors) = oracle.store.raw_sections();
    let mut header = BytesMut::new();
    encode_header(&mut header, oracle);
    // The landmark slab is the bulk of a snapshot: it goes into zeroed
    // memory whose pages the copy's workers fault in, rather than behind
    // a serial fill; the store sections are appended after.
    let slab_len = landmark_slab_len(oracle);
    let mut buf = BytesMut::zeroed(header.len() + slab_len);
    buf[..header.len()].copy_from_slice(&header);
    let threads = crate::parallel::resolve_worker_threads(0, slab_len / SLAB_BYTES_PER_THREAD);
    oracle
        .landmark_distances
        .write_le(&mut buf[header.len()..], threads);
    buf.reserve(
        2 + 8
            + (radii.len() + nearest.len()) * 4
            + offsets.len() * 8
            + (members.len() + distances.len() + predecessors.len()) * 4,
    );

    // Store-flags byte: every builder sorts member spans by node id, so
    // every snapshot records the invariant.
    buf.put_u8(STORE_FLAG_SORTED_MEMBERS);
    put_u32s(&mut buf, radii);
    put_u32s(&mut buf, nearest);
    put_u64s(&mut buf, offsets);
    put_u32s(&mut buf, members);
    put_u32s(&mut buf, distances);
    buf.put_u8(u8::from(!predecessors.is_empty()));
    put_u32s(&mut buf, predecessors);

    let checksum = byte_sum(&buf);
    buf.put_u64_le(checksum);
    buf.freeze()
}

fn decode_sections(cur: &mut &[u8], header: DecodedHeader) -> Result<VicinityOracle> {
    let n = header.node_count;
    ensure(cur, 1)?;
    if cur.get_u8() & STORE_FLAG_SORTED_MEMBERS == 0 {
        return Err(OracleError::Decode(
            "snapshot does not record sorted member spans (store flag bit 0 clear); \
             only v4 snapshots carrying the flag are supported"
                .into(),
        ));
    }
    let radii = get_u32s(cur, n)?;
    let nearest = get_u32s(cur, n)?;
    let offsets = get_u64s(cur, n + 1)?;
    if offsets.first() != Some(&0) || offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(OracleError::Decode(
            "vicinity offsets are not monotonically non-decreasing from 0".into(),
        ));
    }
    let total = offsets[n] as usize;
    let members = get_u32s_parallel(cur, total)?;
    let distances = get_u32s_parallel(cur, total)?;
    ensure(cur, 1)?;
    let has_preds = cur.get_u8() != 0;
    let predecessors = if has_preds {
        get_u32s_parallel(cur, total)?
    } else {
        Vec::new()
    };
    // The flag is never trusted blindly: the trailing byte-sum checksum is
    // order-invariant, so a transposed (or duplicated) member span can reach
    // this point checksum-valid, and a store built from it would make merges
    // and probes silently return wrong answers.
    if !crate::vicinity::spans_sorted(&offsets, &members) {
        return Err(OracleError::Decode(
            "snapshot claims sorted member spans but a span is out of order or \
             lists a member twice"
                .into(),
        ));
    }
    // Spans are strictly ascending, so each span's last member bounds all of
    // it: one look per node keeps every member id a valid index into the
    // graph the oracle is served with. Radii stay below n (a landmark-free
    // node stores the hop bound n - 1) and no member lies beyond its
    // node's radius: the shell index is sized by the largest distance, so
    // an unchecked one would both answer wrongly and allocate without bound.
    for u in 0..n {
        let (start, end) = (offsets[u] as usize, offsets[u + 1] as usize);
        if end > start && members[end - 1] as usize >= n {
            return Err(OracleError::Decode(format!(
                "member id {} of node {u} is out of range for {n} nodes",
                members[end - 1]
            )));
        }
        let radius = radii[u];
        if radius as usize >= n {
            return Err(OracleError::Decode(format!(
                "radius {radius} of node {u} is out of range for {n} nodes"
            )));
        }
        if let Some(&d) = distances[start..end].iter().find(|&&d| d > radius) {
            return Err(OracleError::Decode(format!(
                "member distance {d} of node {u} exceeds its radius {radius}"
            )));
        }
        // `path_to` chases predecessors until it reaches the owner, so
        // every chain must step one hop closer within the span: the owner
        // at distance 0 has none, and any other member's predecessor is a
        // member of the same span one hop closer. No chain can then cycle.
        if !predecessors.is_empty() {
            let (span, levels) = (&members[start..end], &distances[start..end]);
            for (i, &p) in predecessors[start..end].iter().enumerate() {
                let linked = match levels[i] {
                    0 => span[i] == u as NodeId && p == INVALID_NODE,
                    d => span.binary_search(&p).is_ok_and(|j| levels[j] == d - 1),
                };
                if !linked {
                    return Err(OracleError::Decode(format!(
                        "predecessor {p} of member {} of node {u} is not a member one hop closer",
                        span[i]
                    )));
                }
            }
        }
        // Queries answer the walk `r_u + d(ℓ(u), t)` as exact, so `ℓ(u)`
        // must be a landmark whose row holds `u` at exactly its radius.
        let landmark = nearest[u];
        if landmark != INVALID_NODE {
            let attained = header.landmarks.rank(landmark).is_some_and(|rank| {
                decode_distance(header.landmark_distances.raw(rank, u as NodeId)) == Some(radius)
            });
            if !attained {
                return Err(OracleError::Decode(format!(
                    "nearest landmark {landmark} of node {u} is not a landmark at its radius {radius}"
                )));
            }
        }
    }
    let store = VicinityStore::from_raw(radii, nearest, offsets, members, distances, predecessors);
    Ok(VicinityOracle {
        config: header.config,
        node_count: header.node_count,
        edge_count: header.edge_count,
        landmarks: header.landmarks,
        store,
        landmark_distances: header.landmark_distances,
    })
}

// ---------------------------------------------------------------------------
// Entry points.

/// Deserialize an oracle from bytes produced by [`encode`]. Only format v4
/// with [`STORE_FLAG_SORTED_MEMBERS`] set is accepted; any other version,
/// a cleared flag, a failed checksum or a structurally invalid section is
/// an [`OracleError::Decode`].
pub fn decode(data: &[u8]) -> Result<VicinityOracle> {
    if data.len() < MAGIC.len() + 1 + 8 {
        return Err(OracleError::Decode("input too short".into()));
    }
    let (body, checksum_bytes) = data.split_at(data.len() - 8);
    let stored = u64::from_le_bytes(
        checksum_bytes
            .try_into()
            .map_err(|_| OracleError::Decode("bad checksum".into()))?,
    );
    let computed = byte_sum(body);
    if stored != computed {
        return Err(OracleError::Decode(format!(
            "checksum mismatch (stored {stored}, computed {computed})"
        )));
    }

    let mut cur = body;
    let mut magic = [0u8; 4];
    ensure(&cur, 5)?;
    cur.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(OracleError::Decode("bad magic number".into()));
    }
    let version = cur.get_u8();
    if version != FORMAT_VERSION {
        return Err(OracleError::Decode(format!(
            "unsupported snapshot format version {version}: this build reads only \
             v{FORMAT_VERSION} (flat-store sections with sorted member spans)"
        )));
    }

    let header = decode_header(&mut cur)?;
    decode_sections(&mut cur, header)
}

/// Write an oracle to a file (format v4).
pub fn save<P: AsRef<std::path::Path>>(oracle: &VicinityOracle, path: P) -> Result<()> {
    std::fs::write(path, encode(oracle))?;
    Ok(())
}

/// Read an oracle from a file written by [`save`]; see [`decode`] for
/// what is accepted.
pub fn load<P: AsRef<std::path::Path>>(path: P) -> Result<VicinityOracle> {
    let data = std::fs::read(path)?;
    decode(&data)
}

fn ensure(cur: &&[u8], needed: usize) -> Result<()> {
    if cur.remaining() < needed {
        return Err(OracleError::Decode(format!(
            "truncated input: need {needed} bytes, have {}",
            cur.remaining()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::OracleBuilder;
    use crate::query::DistanceAnswer;
    use vicinity_graph::generators::{classic, social::SocialGraphConfig};
    use vicinity_graph::Distance;

    /// Bytes from the magic number to the node count: magic, version, α,
    /// sampling byte, seed and paths flag.
    const NODE_COUNT_POS: usize = 4 + 1 + 8 + 1 + 8 + 1;

    fn sample_oracle(seed: u64, store_paths: bool) -> VicinityOracle {
        let g = SocialGraphConfig::small_test()
            .with_nodes(600)
            .generate(seed);
        OracleBuilder::new(Alpha::PAPER_DEFAULT)
            .seed(seed)
            .store_paths(store_paths)
            .build(&g)
    }

    #[test]
    fn round_trip_preserves_oracle() {
        let oracle = sample_oracle(131, true);
        let decoded = decode(&encode(&oracle)).unwrap();
        assert_eq!(oracle, decoded);
    }

    #[test]
    fn round_trip_without_paths() {
        let oracle = sample_oracle(132, false);
        let decoded = decode(&encode(&oracle)).unwrap();
        assert_eq!(oracle, decoded);
    }

    #[test]
    fn decoded_oracle_answers_queries_identically() {
        let g = SocialGraphConfig::small_test()
            .with_nodes(600)
            .generate(133);
        let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT).seed(133).build(&g);
        let decoded = decode(&encode(&oracle)).unwrap();
        for (s, t) in [(0u32, 5u32), (1, 50), (10, 200), (3, 3)] {
            let a = oracle.distance(s, t);
            let b = decoded.distance(s, t);
            assert_eq!(a, b);
            if let DistanceAnswer::Exact { .. } = a {
                assert_eq!(oracle.path(s, t), decoded.path(s, t));
            }
        }
    }

    #[test]
    fn horizon_entries_are_refused() {
        // A slab entry of 65,533 hops decodes; the reserved value 65,534
        // is refused even with the checksum fixed. The entries go on a
        // node whose nearest landmark is another one, so its header still
        // names a landmark at its radius.
        let oracle = sample_oracle(134, true);
        let bytes = encode(&oracle);
        let landmark = oracle.landmarks.nodes()[0];
        let far = (0..oracle.node_count as NodeId)
            .find(|&v| oracle.vicinity(v).unwrap().nearest_landmark() != Some(landmark))
            .unwrap();
        let slab_pos = NODE_COUNT_POS + 16 + 8 + 4 * oracle.landmarks.len();
        let pos = slab_pos + 2 * far as usize * oracle.landmarks.len();
        for (raw, accepted) in [(HOP_HORIZON - 1, true), (HOP_HORIZON, false)] {
            let mut corrupt = bytes.to_vec();
            corrupt[pos..pos + 2].copy_from_slice(&raw.to_le_bytes());
            fix_checksum(&mut corrupt);
            match decode(&corrupt) {
                Ok(decoded) => {
                    assert!(accepted, "{raw} must be refused");
                    let row = decoded.landmark_row(landmark).unwrap();
                    assert_eq!(row.distance_to(far), Some(Distance::from(raw)));
                }
                Err(err) => {
                    assert!(!accepted, "{raw}: {err}");
                    assert!(err.to_string().contains("reserved value 65534"), "{err}");
                }
            }
        }
    }

    #[test]
    fn predecessor_chains_must_step_one_hop_closer() {
        // `path_to` chases predecessors until it reaches the owner: two
        // members naming each other would loop it forever, so decode must
        // refuse them. So too an owner with a predecessor, and a member
        // whose predecessor is not in the span.
        let oracle = sample_oracle(139, true);
        let bytes = encode(&oracle);
        let n = oracle.node_count();
        let (_, _, offsets, members, distances, _) = oracle.store().raw_sections();
        let total = oracle.store().total_entries() as usize;
        let preds_pos =
            flags_byte_position(&bytes, &oracle) + 1 + 8 * n + 8 * (n + 1) + 8 * total + 1;
        // Two members of one span at the same distance d ≥ 1.
        let (u, i, j) = (0..n)
            .find_map(|u| {
                let (start, end) = (offsets[u] as usize, offsets[u + 1] as usize);
                (start..end).find_map(|i| {
                    (i + 1..end)
                        .find(|&j| distances[i] >= 1 && distances[j] == distances[i])
                        .map(|j| (u, i, j))
                })
            })
            .expect("some span holds two members at one distance");
        let owner = (offsets[u] as usize..offsets[u + 1] as usize)
            .find(|&k| members[k] == u as NodeId)
            .unwrap();
        let set = |corrupt: &mut Vec<u8>, k: usize, pred: NodeId| {
            let at = preds_pos + 4 * k;
            corrupt[at..at + 4].copy_from_slice(&pred.to_le_bytes());
        };
        let mut cycle = bytes.to_vec();
        set(&mut cycle, i, members[j]);
        set(&mut cycle, j, members[i]);
        let mut rooted = bytes.to_vec();
        set(&mut rooted, owner, members[i]);
        let mut outside = bytes.to_vec();
        set(&mut outside, i, n as NodeId + 5);
        for mut corrupt in [cycle, rooted, outside] {
            fix_checksum(&mut corrupt);
            let err = decode(&corrupt).unwrap_err();
            assert!(matches!(err, OracleError::Decode(_)), "{err}");
            assert!(err.to_string().contains("predecessor"), "{err}");
        }
    }

    #[test]
    fn landmark_slab_keeps_the_node_major_v4_layout() {
        // After the ascending landmark ids, a snapshot stores the slab as
        // the program holds it: node by node, each node's distances to
        // every landmark in rank order as little-endian u16s.
        let oracle = sample_oracle(138, false);
        let bytes = encode(&oracle);
        let n = oracle.node_count();
        let landmarks = oracle.landmarks().nodes();
        let mut pos = NODE_COUNT_POS + 16;
        assert_eq!(
            u64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap()),
            landmarks.len() as u64
        );
        pos += 8;
        for &l in landmarks {
            assert_eq!(
                u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()),
                l
            );
            pos += 4;
        }
        for v in 0..n as NodeId {
            for &l in landmarks {
                let raw = u16::from_le_bytes([bytes[pos], bytes[pos + 1]]);
                assert_eq!(
                    decode_distance(raw),
                    oracle.landmark_row(l).unwrap().distance_to(v)
                );
                pos += 2;
            }
        }
        assert_eq!(pos, flags_byte_position(&bytes, &oracle));
        assert_eq!(bytes[pos], STORE_FLAG_SORTED_MEMBERS);
    }

    #[test]
    fn landmark_rows_must_match_the_landmark_set() {
        // Slab columns are read by rank, so a snapshot whose landmark set
        // does not match its slab — an id out of order, an id whose
        // column entry is not 0, more landmarks than nodes — is refused
        // rather than served with shifted rows.
        let oracle = sample_oracle(140, false);
        let bytes = encode(&oracle);
        let n = oracle.node_count() as u64;
        let count_pos = NODE_COUNT_POS + 16;
        let first_id = count_pos + 8;
        // A node count the input cannot hold must not size the rank map
        // or the slab.
        let corruptions: [(usize, u64, &str); 2] = [
            (count_pos, n + 1, "landmark count"),
            (NODE_COUNT_POS, 1 << 40, "node count"),
        ];
        for (pos, value, expected) in corruptions {
            let mut corrupt = bytes.to_vec();
            corrupt[pos..pos + 8].copy_from_slice(&value.to_le_bytes());
            fix_checksum(&mut corrupt);
            let err = decode(&corrupt).unwrap_err();
            assert!(err.to_string().contains(expected), "{err}");
        }
        let landmarks = oracle.landmarks().nodes();
        let non_landmark = (0..landmarks[1])
            .find(|&u| !oracle.is_landmark(u))
            .expect("a non-landmark below the second landmark");
        for (id, expected) in [
            (non_landmark, "distance 0 from itself"),
            (landmarks[1], "strictly ascending"),
            (n as NodeId + 5, "strictly ascending"),
        ] {
            let mut wrong_id = bytes.to_vec();
            wrong_id[first_id..first_id + 4].copy_from_slice(&id.to_le_bytes());
            fix_checksum(&mut wrong_id);
            let err = decode(&wrong_id).unwrap_err();
            assert!(err.to_string().contains(expected), "{id}: {err}");
        }
    }

    #[test]
    fn v4_snapshots_record_the_sorted_invariant() {
        let oracle = sample_oracle(137, true);
        let bytes = encode(&oracle);
        assert_eq!(bytes[4], FORMAT_VERSION);
        assert_eq!(FORMAT_VERSION, 4);
        // A snapshot without the flag is refused, even though its spans
        // are in fact sorted and its checksum is valid.
        let mut unflagged = bytes.to_vec();
        let flag_pos = flags_byte_position(&bytes, &oracle);
        assert_eq!(unflagged[flag_pos] & STORE_FLAG_SORTED_MEMBERS, 1);
        unflagged[flag_pos] = 0;
        fix_checksum(&mut unflagged);
        let err = decode(&unflagged).unwrap_err();
        assert!(matches!(err, OracleError::Decode(_)));
        assert!(err.to_string().contains("sorted member spans"), "{err}");
    }

    #[test]
    fn flagged_snapshots_with_unsorted_spans_are_rejected() {
        // The byte-sum checksum is order-invariant, so transposing two
        // members inside a span survives it. The decoder must not trust
        // the sorted flag blindly: the claimed-but-violated invariant has
        // to surface as a decode error, never a silently wrong store.
        let oracle = sample_oracle(139, true);
        let bytes = encode(&oracle);
        let (_, a, _) = first_multi_member_span(&bytes, &oracle);
        let mut transposed = bytes.to_vec();
        for i in 0..4 {
            transposed.swap(a + i, a + 4 + i); // transpose two adjacent members
        }
        // Checksum unchanged by the transposition — no fix_checksum needed.
        let err = decode(&transposed).unwrap_err();
        assert!(err.to_string().contains("sorted member spans"), "{err}");

        // A member overwritten with its left neighbour: the span lists
        // that member twice.
        let mut duplicated = bytes.to_vec();
        duplicated.copy_within(a..a + 4, a + 4);
        fix_checksum(&mut duplicated);
        let err = decode(&duplicated).unwrap_err();
        assert!(matches!(err, OracleError::Decode(_)));
        assert!(err.to_string().contains("member twice"), "{err}");
    }

    #[test]
    fn out_of_range_member_ids_are_rejected() {
        // Raising a span's last member past the node count keeps the span
        // sorted; once the checksum is fixed only the range check can catch
        // it, and a query would otherwise index past the graph.
        let oracle = sample_oracle(139, true);
        let bytes = encode(&oracle);
        let n = oracle.node_count();
        let (_, _, last) = first_multi_member_span(&bytes, &oracle);
        let mut corrupt = bytes.to_vec();
        corrupt[last..last + 4].copy_from_slice(&(n as u32 + 1000).to_le_bytes());
        fix_checksum(&mut corrupt);
        let err = decode(&corrupt).unwrap_err();
        assert!(matches!(err, OracleError::Decode(_)));
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn distances_beyond_the_radius_are_rejected() {
        // A member distance above its node's radius leaves the spans sorted
        // and in range. Unchecked, it answers a wrong `Exact` distance, and
        // a huge one sizes the node's shell index by its value. A radius of
        // n or more is just as impossible (the hop bound is n - 1).
        let oracle = sample_oracle(139, true);
        let bytes = encode(&oracle);
        let n = oracle.node_count();
        let (u, _, last) = first_multi_member_span(&bytes, &oracle);
        let radius = oracle.vicinity(u).unwrap().radius();
        // The distance pool directly follows the member pool.
        let last_distance = last + oracle.store().total_entries() as usize * 4;
        let radius_pos = flags_byte_position(&bytes, &oracle) + 1 + u as usize * 4;
        for (pos, value) in [
            (last_distance, radius + 1),
            (last_distance, 20_000_000),
            (radius_pos, n as Distance),
        ] {
            let mut corrupt = bytes.to_vec();
            corrupt[pos..pos + 4].copy_from_slice(&value.to_le_bytes());
            fix_checksum(&mut corrupt);
            let err = decode(&corrupt).unwrap_err();
            assert!(matches!(err, OracleError::Decode(_)), "{value}: {err}");
        }
    }

    #[test]
    fn nearest_landmark_must_attain_the_radius() {
        // Queries answer the walk through a node's nearest landmark as an
        // exact distance, so a header naming a landmark at any other
        // distance — or no landmark at all — would answer wrongly. Each
        // such corruption keeps every other section valid and the checksum
        // fixed, so only the nearest-landmark check can catch it.
        let oracle = sample_oracle(139, true);
        let bytes = encode(&oracle);
        let n = oracle.node_count();
        let u: NodeId = (0..n as NodeId)
            .find(|&u| !oracle.is_landmark(u))
            .expect("some node is not a landmark");
        let radius = oracle.vicinity(u).unwrap().radius();
        let nearest_pos = flags_byte_position(&bytes, &oracle) + 1 + n * 4 + u as usize * 4;
        let original = oracle.vicinity(u).unwrap().nearest_landmark().unwrap();
        assert_eq!(
            u32::from_le_bytes(bytes[nearest_pos..nearest_pos + 4].try_into().unwrap()),
            original,
            "nearest-section offset arithmetic must line up"
        );
        let mut wrong: Vec<NodeId> = oracle
            .landmarks()
            .nodes()
            .iter()
            .copied()
            .filter(|&l| oracle.landmark_row(l).unwrap().distance_to(u) != Some(radius))
            .collect();
        assert!(
            !wrong.is_empty(),
            "some landmark is farther than the radius"
        );
        // `u` itself is no landmark, and `n + 7` is no node at all.
        wrong.extend([u, n as NodeId + 7]);
        for landmark in wrong {
            let mut corrupt = bytes.to_vec();
            corrupt[nearest_pos..nearest_pos + 4].copy_from_slice(&landmark.to_le_bytes());
            fix_checksum(&mut corrupt);
            let err = decode(&corrupt).unwrap_err();
            assert!(matches!(err, OracleError::Decode(_)), "{landmark}: {err}");
            assert!(err.to_string().contains("nearest landmark"), "{err}");
        }
    }

    /// Byte positions, in an encoded snapshot of `oracle`, of the first and
    /// last member of the first span with at least two members, after the
    /// node that owns the span.
    fn first_multi_member_span(bytes: &[u8], oracle: &VicinityOracle) -> (NodeId, usize, usize) {
        let n = oracle.node_count();
        // Section layout after the flags byte: radii (n u32), nearest
        // (n u32), offsets (n+1 u64), then the member pool.
        let members_pos = flags_byte_position(bytes, oracle) + 1 + n * 4 + n * 4 + (n + 1) * 8;
        let (_, _, offsets, members, ..) = oracle.store().raw_sections();
        let u = (0..n)
            .find(|&u| offsets[u + 1] - offsets[u] >= 2)
            .expect("some node has at least two members");
        let (start, end) = (offsets[u] as usize, offsets[u + 1] as usize);
        let first = members_pos + start * 4;
        assert_eq!(
            u32::from_le_bytes(bytes[first..first + 4].try_into().unwrap()),
            members[start],
            "member-section offset arithmetic must line up"
        );
        (u as NodeId, first, members_pos + (end - 1) * 4)
    }

    /// Locate the v4 store-flags byte by re-encoding the shared header.
    fn flags_byte_position(bytes: &[u8], oracle: &VicinityOracle) -> usize {
        let mut header = BytesMut::new();
        encode_header(&mut header, oracle);
        assert_eq!(&bytes[..header.len()], &header[..], "header mismatch");
        header.len() + landmark_slab_len(oracle)
    }

    #[test]
    fn corruption_is_detected() {
        let oracle = sample_oracle(134, true);
        let mut bytes = encode(&oracle).to_vec();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x5A;
        assert!(matches!(decode(&bytes), Err(OracleError::Decode(_))));
    }

    #[test]
    fn truncation_is_detected() {
        let oracle = sample_oracle(135, true);
        let bytes = encode(&oracle);
        for len in [0usize, 3, 12, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode(&bytes[..len]).is_err(), "length {len} must fail");
        }
    }

    /// Recompute the trailing byte-sum checksum after a deliberate header
    /// mutation, so only the targeted validation fires.
    fn fix_checksum(bytes: &mut [u8]) {
        let body_len = bytes.len() - 8;
        let checksum: u64 = bytes[..body_len].iter().map(|&b| b as u64).sum();
        bytes[body_len..].copy_from_slice(&checksum.to_le_bytes());
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let oracle = sample_oracle(136, true);
        let bytes = encode(&oracle).to_vec();

        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        fix_checksum(&mut bad_magic);
        let err = decode(&bad_magic).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");

        // The sampling byte (after magic, version and alpha) names one of
        // three strategies.
        let mut bad_sampling = bytes.clone();
        bad_sampling[13] = 7;
        fix_checksum(&mut bad_sampling);
        let err = decode(&bad_sampling).unwrap_err();
        assert!(err.to_string().contains("sampling strategy 7"), "{err}");

        // Versions 1 to 3 (formats this build no longer reads) and an
        // unknown one alike: the rejection names the offending version and
        // v4, the only format read — no silent checksum-style failure.
        for version in [1u8, 2, 3, 99] {
            let mut bad_version = bytes.clone();
            bad_version[4] = version;
            fix_checksum(&mut bad_version);
            let err = decode(&bad_version).unwrap_err();
            assert!(matches!(err, OracleError::Decode(_)));
            let message = err.to_string();
            assert!(
                message.contains(&format!("version {version}:")),
                "{message}"
            );
            assert!(message.contains("v4"), "{message}");
        }
    }

    #[test]
    fn file_round_trip() {
        let g = classic::grid(8, 8);
        let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT).seed(9).build(&g);
        let dir = std::env::temp_dir().join("vicinity_core_serialize_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("oracle.vor");
        save(&oracle, &path).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(oracle, loaded);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_missing_file_errors() {
        assert!(matches!(
            load("/no/such/oracle.vor"),
            Err(OracleError::Io(_))
        ));
    }
}
