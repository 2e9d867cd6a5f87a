//! Offline stand-in for the `bytes` crate.
//!
//! Provides [`Bytes`], [`BytesMut`] and the [`Buf`] / [`BufMut`] accessor
//! traits with the exact little-endian surface the binary codecs in this
//! workspace use. Backed by plain `Vec<u8>` / `&[u8]` — no reference-counted
//! slicing — which is sufficient because the codecs only ever append and
//! then consume front-to-back. Like the real crate, the readers panic when
//! the buffer underflows.

use std::ops::{Deref, DerefMut};

/// Immutable byte buffer.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Bytes {
    data: Vec<u8>,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes { data: Vec::new() }
    }

    /// Copy the contents into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.data.clone()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Self {
        Bytes { data }
    }
}

/// Growable byte buffer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        BytesMut { data: Vec::new() }
    }

    /// An empty buffer with reserved capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(capacity),
        }
    }

    /// Convert into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes { data: self.data }
    }

    /// A buffer of `len` zero bytes, from zeroed memory (no fill pass).
    pub fn zeroed(len: usize) -> Self {
        BytesMut { data: vec![0; len] }
    }

    /// Reserve room for at least `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.data.reserve(additional);
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

/// Read cursor over a byte source. Implemented for `&[u8]`, which advances
/// the slice itself as values are consumed.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;

    /// Consume `dst.len()` bytes into `dst`. Panics on underflow.
    fn copy_to_slice(&mut self, dst: &mut [u8]);

    /// Consume one byte.
    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    /// Consume a little-endian `u16`.
    fn get_u16_le(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_le_bytes(b)
    }

    /// Consume a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }

    /// Consume a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }

    /// Consume a little-endian `f64`.
    fn get_f64_le(&mut self) -> f64 {
        f64::from_bits(self.get_u64_le())
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(
            dst.len() <= self.len(),
            "buffer underflow: need {}, have {}",
            dst.len(),
            self.len()
        );
        let (head, tail) = self.split_at(dst.len());
        dst.copy_from_slice(head);
        *self = tail;
    }
}

/// Append-only writer. Implemented for [`BytesMut`].
pub trait BufMut {
    /// Append raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Append a little-endian `u16`.
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `f64`.
    fn put_f64_le(&mut self, v: f64) {
        self.put_u64_le(v.to_bits());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_widths() {
        let mut buf = BytesMut::with_capacity(32);
        buf.put_u8(0xAB);
        buf.put_u16_le(0xBEEF);
        buf.put_u32_le(0xDEAD_BEEF);
        buf.put_u64_le(0x0123_4567_89AB_CDEF);
        buf.put_f64_le(1.25);
        buf.put_slice(b"xyz");
        let frozen = buf.freeze();
        assert_eq!(frozen.len(), 1 + 2 + 4 + 8 + 8 + 3);

        let mut cur: &[u8] = &frozen;
        assert_eq!(cur.get_u8(), 0xAB);
        assert_eq!(cur.get_u16_le(), 0xBEEF);
        assert_eq!(cur.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(cur.get_u64_le(), 0x0123_4567_89AB_CDEF);
        assert_eq!(cur.get_f64_le(), 1.25);
        assert_eq!(cur.remaining(), 3);
        let mut tail = [0u8; 3];
        cur.copy_to_slice(&mut tail);
        assert_eq!(&tail, b"xyz");
        assert_eq!(cur.remaining(), 0);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn underflow_panics() {
        let mut cur: &[u8] = &[1, 2];
        let _ = cur.get_u32_le();
    }

    #[test]
    fn bytes_conversions() {
        let b = Bytes::from(vec![1u8, 2, 3]);
        assert_eq!(b.to_vec(), vec![1, 2, 3]);
        assert_eq!(b.as_ref(), &[1, 2, 3]);
        assert_eq!(&b[1..], &[2, 3]);
        assert!(Bytes::new().is_empty());
        assert!(BytesMut::new().is_empty());
        let mut grown = BytesMut::zeroed(3);
        grown[0] = 7;
        grown.reserve(16);
        grown.put_u8(9);
        assert_eq!(&grown[..], &[7, 0, 0, 9]);
    }
}
