//! A small seeded generator, so the benchmark's inputs depend only on the
//! seed and on nothing outside this package.

/// SplitMix64: one 64-bit state word, full period, good enough mixing for
/// drawing query pairs and update edges.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for one named stream of one seed. Different `stream`
    /// values give independent sequences for the same seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut mixer = SplitMix64(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        mixer.next_u64();
        mixer
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..bound` (`bound > 0`), by the multiply-shift map.
    pub fn below(&mut self, bound: usize) -> usize {
        debug_assert!(bound > 0);
        ((self.next_u64() as u128 * bound as u128) >> 64) as usize
    }

    /// A value in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}
