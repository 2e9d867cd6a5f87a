//! A fast, deterministic hasher for the oracle's hot-path tables.
//!
//! The vicinity oracle's query cost is dominated by hash-table membership
//! probes (thousands per intersection query), so `std`'s DoS-resistant
//! SipHash is a poor fit: the keys are internal `u32` node ids, never
//! attacker-controlled, and every nanosecond per probe is multiplied by
//! Table 3's look-up counts. This multiply-xor hasher (the FxHash /
//! rustc-hash construction) hashes a `u32` in a couple of cycles and is
//! deterministic across runs, which also keeps serialized-index comparisons
//! and experiment reruns stable.

use std::hash::{BuildHasherDefault, Hasher};

/// 64-bit multiply-xor hasher (FxHash construction).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    state: u64,
}

/// Golden-ratio multiplier used by the FxHash construction.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.mix(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u32(&mut self, value: u32) {
        self.mix(value as u64);
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        self.mix(value);
    }

    #[inline]
    fn write_usize(&mut self, value: usize) {
        self.mix(value as u64);
    }
}

/// Hash a single `u32` exactly as [`FxHasher`] does for one `write_u32`
/// (a fresh hasher's state collapses to one multiply). Exported so flat
/// probe tables elsewhere in the stack share the hasher's distribution by
/// construction instead of duplicating the constant.
#[inline]
pub fn fx_hash_u32(value: u32) -> u64 {
    (value as u64).wrapping_mul(SEED)
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using the fast deterministic hasher.
pub type FastMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn deterministic_across_hasher_instances() {
        let build = FxBuildHasher::default();
        let a = build.hash_one(42u32);
        let b = build.hash_one(42u32);
        assert_eq!(a, b);
        assert_ne!(build.hash_one(42u32), build.hash_one(43u32));
    }

    #[test]
    fn distributes_sequential_keys() {
        // Sequential node ids (the common case) must not collide in the low
        // bits, which is what HashMap buckets use.
        let build = FxBuildHasher::default();
        let mut low_bits: Vec<u64> = (0u32..1024).map(|k| build.hash_one(k) & 0xFF).collect();
        low_bits.sort_unstable();
        low_bits.dedup();
        assert!(
            low_bits.len() > 200,
            "only {} distinct low bytes",
            low_bits.len()
        );
    }

    #[test]
    fn map_round_trip() {
        let mut map: FastMap<u32, u32> = FastMap::default();
        for k in 0..10_000u32 {
            map.insert(k, k * 2);
        }
        assert_eq!(map.len(), 10_000);
        for k in 0..10_000u32 {
            assert_eq!(map.get(&k), Some(&(k * 2)));
        }
    }

    #[test]
    fn arbitrary_byte_writes() {
        let build = FxBuildHasher::default();
        assert_ne!(build.hash_one("abc"), build.hash_one("abd"));
        assert_ne!(build.hash_one([1u8; 9]), build.hash_one([1u8; 10]));
    }
}
