//! Compact binary graph format.
//!
//! Generated stand-in graphs for the larger experiments take tens of seconds
//! to build; the experiment harness caches them on disk in this format so
//! repeated runs are fast. The format is deliberately simple: a magic
//! number, a version byte, the CSR arrays as little-endian integers and a
//! trailing checksum.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! [0..4]   magic  b"VGR1"
//! [4]      flags  bit0 = undirected, required (always written)
//! [5..13]  node count (u64)
//! [13..21] arc count  (u64)
//! ...      offsets    ((n + 1) * u64)
//! ...      targets    (arcs * u32)
//! [last 8] checksum: sum of all preceding bytes as u64
//! ```
//!
//! Every graph is undirected, so decode refuses a cleared flag and an
//! adjacency in which some arc has no reverse.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::csr::CsrGraph;
use crate::{GraphError, NodeId, Result};

const MAGIC: &[u8; 4] = b"VGR1";

/// Serialize a graph to its binary representation.
pub fn encode(graph: &CsrGraph) -> Bytes {
    let n = graph.node_count();
    let arcs = graph.arc_count();
    let mut buf = BytesMut::with_capacity(4 + 1 + 16 + (n + 1) * 8 + arcs * 4 + 8);
    buf.put_slice(MAGIC);
    buf.put_u8(1);
    buf.put_u64_le(n as u64);
    buf.put_u64_le(arcs as u64);
    for &o in graph.raw_offsets() {
        buf.put_u64_le(o);
    }
    for &t in graph.raw_targets() {
        buf.put_u32_le(t);
    }
    let checksum: u64 = buf.iter().map(|&b| b as u64).sum();
    buf.put_u64_le(checksum);
    buf.freeze()
}

/// Deserialize a graph from its binary representation.
pub fn decode(mut data: &[u8]) -> Result<CsrGraph> {
    let total_len = data.len();
    if total_len < 4 + 1 + 16 + 8 {
        return Err(GraphError::Decode("input too short".into()));
    }
    // Verify checksum first.
    let body = &data[..total_len - 8];
    let expected: u64 = body.iter().map(|&b| b as u64).sum();
    let stored = u64::from_le_bytes(
        data[total_len - 8..]
            .try_into()
            .map_err(|_| GraphError::Decode("bad checksum field".into()))?,
    );
    if expected != stored {
        return Err(GraphError::Decode(format!(
            "checksum mismatch: stored {stored}, computed {expected}"
        )));
    }

    let mut magic = [0u8; 4];
    data.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(GraphError::Decode("bad magic number".into()));
    }
    if data.get_u8() & 1 == 0 {
        return Err(GraphError::Decode(
            "directed graph: only undirected graphs are supported".into(),
        ));
    }
    let n = data.get_u64_le() as usize;
    let arcs = data.get_u64_le() as usize;

    // In u128, so that counts near u64::MAX cannot overflow the sum.
    let need = (n as u128 + 1) * 8 + arcs as u128 * 4 + 8;
    if (data.remaining() as u128) < need {
        return Err(GraphError::Decode(format!(
            "truncated input: need {need} more bytes, have {}",
            data.remaining()
        )));
    }
    let mut offsets = Vec::with_capacity(n + 1);
    for _ in 0..=n {
        offsets.push(data.get_u64_le());
    }
    let mut targets: Vec<NodeId> = Vec::with_capacity(arcs);
    for _ in 0..arcs {
        targets.push(data.get_u32_le());
    }
    let graph = CsrGraph::from_parts(offsets, targets)?;
    graph.validate()?;
    Ok(graph)
}

/// Write a graph to a file in binary format.
pub fn save<P: AsRef<std::path::Path>>(graph: &CsrGraph, path: P) -> Result<()> {
    std::fs::write(path, encode(graph))?;
    Ok(())
}

/// Read a graph from a binary-format file.
pub fn load<P: AsRef<std::path::Path>>(path: P) -> Result<CsrGraph> {
    let data = std::fs::read(path)?;
    decode(&data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{classic, erdos_renyi};
    use rand::SeedableRng;

    #[test]
    fn round_trip_small_graph() {
        let g = classic::grid(5, 7);
        let encoded = encode(&g);
        let decoded = decode(&encoded).unwrap();
        assert_eq!(g, decoded);
    }

    #[test]
    fn round_trip_random_graph() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let g = erdos_renyi::gnm(500, 2000, &mut rng);
        let decoded = decode(&encode(&g)).unwrap();
        assert_eq!(g, decoded);
    }

    #[test]
    fn round_trip_empty_graph() {
        let g = crate::builder::GraphBuilder::new().build_undirected();
        let decoded = decode(&encode(&g)).unwrap();
        assert_eq!(g, decoded);
    }

    #[test]
    fn decode_rejects_truncated_input() {
        let g = classic::path(10);
        let encoded = encode(&g);
        for len in [0, 3, 10, encoded.len() - 1] {
            assert!(decode(&encoded[..len]).is_err(), "len {len} should fail");
        }
        // A sealed header whose node count would overflow the size sum.
        let mut bytes = encoded.to_vec();
        bytes[5..13].copy_from_slice(&u64::MAX.to_le_bytes());
        reseal(&mut bytes);
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn decode_rejects_corrupted_magic() {
        let g = classic::path(10);
        let mut bytes = encode(&g).to_vec();
        bytes[0] = b'X';
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn decode_rejects_flipped_payload_byte() {
        let g = classic::path(10);
        let mut bytes = encode(&g).to_vec();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        assert!(
            decode(&bytes).is_err(),
            "checksum must catch payload corruption"
        );
    }

    /// Recompute the trailing checksum after editing an encoded graph.
    fn reseal(bytes: &mut [u8]) {
        let body = bytes.len() - 8;
        let checksum: u64 = bytes[..body].iter().map(|&b| b as u64).sum();
        bytes[body..].copy_from_slice(&checksum.to_le_bytes());
    }

    #[test]
    fn decode_rejects_a_cleared_undirected_flag() {
        let mut bytes = encode(&classic::path(4)).to_vec();
        assert_eq!(bytes[4], 1, "encode always writes the undirected flag");
        bytes[4] = 0;
        reseal(&mut bytes);
        let err = decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("undirected"), "{err}");
    }

    #[test]
    fn decode_rejects_an_asymmetric_adjacency() {
        // Path 0 - 1 - 2: targets [1, 0, 2, 1]. Rewrite node 2's arc 2 -> 1
        // as 2 -> 0, so 0 -> 2 is missing and 1 -> 2 has no reverse.
        let g = classic::path(3);
        let mut bytes = encode(&g).to_vec();
        let last_target = bytes.len() - 8 - 4;
        assert_eq!(bytes[last_target..last_target + 4], 1u32.to_le_bytes());
        bytes[last_target..last_target + 4].copy_from_slice(&0u32.to_le_bytes());
        reseal(&mut bytes);
        let err = decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("symmetric"), "{err}");
    }

    #[test]
    fn file_round_trip() {
        let g = classic::complete(8);
        let dir = std::env::temp_dir().join("vicinity_graph_binary_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("complete8.vgr");
        save(&g, &path).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(g, loaded);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_missing_file_errors() {
        assert!(load("/does/not/exist.vgr").is_err());
    }
}
