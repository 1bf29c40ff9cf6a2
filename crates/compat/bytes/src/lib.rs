//! Offline stand-in for the `bytes` crate.
//!
//! The rule: a **strict API subset of upstream `bytes`, with the same
//! complexity contracts**. Every item here exists upstream under the same
//! name with the same meaning, and costs what it costs there: [`Bytes`] is a
//! shared, ranged view of one reference-counted allocation, so `clone`,
//! [`Bytes::slice`], [`Buf::copy_to_bytes`] and `From<Vec<u8>>` are O(1) and
//! copy no payload; reading advances the view's start. [`BytesMut`] is a
//! growable write buffer ([`BufMut`]) frozen into a [`Bytes`] without a
//! copy. Little-endian accessors only, matching the wire format.
//!
//! Message bodies cross sockets, the journal and the core mutex as `Bytes`
//! (`fleet-transport`, `fleet-durability`), so those contracts are what keeps
//! a body from being copied at every hand-off. Nothing upstream lacks may be
//! added — bulk codec helpers live with the codec in `fleet_server::wire` —
//! so swapping the workspace's `bytes` line back to crates.io stays a
//! one-line change.

#![forbid(unsafe_code)]

use std::ops::{Deref, Range};
use std::sync::Arc;

/// Read access to a byte cursor. Getters consume from the front.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;

    /// The unread bytes as one contiguous slice (for [`Bytes`], all of
    /// them).
    fn chunk(&self) -> &[u8];

    /// Consumes `cnt` bytes without looking at them.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `cnt` bytes remain.
    fn advance(&mut self, cnt: usize);

    /// Reads one byte.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is exhausted (callers check [`Buf::remaining`]).
    fn get_u8(&mut self) -> u8;

    /// Reads a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32;

    /// Reads a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64;

    /// Reads a little-endian `f32`.
    fn get_f32_le(&mut self) -> f32;

    /// Consumes `len` bytes, returning them as a [`Bytes`] sharing this
    /// buffer's allocation.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `len` bytes remain.
    fn copy_to_bytes(&mut self, len: usize) -> Bytes;
}

/// Write access to a growable byte buffer.
pub trait BufMut {
    /// Appends one byte.
    fn put_u8(&mut self, v: u8);

    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32);

    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64);

    /// Appends a little-endian `f32`.
    fn put_f32_le(&mut self, v: f32);

    /// Appends a raw byte slice.
    fn put_slice(&mut self, src: &[u8]);
}

/// An immutable, cheaply cloneable view of a shared byte buffer. Reading
/// through [`Buf`] narrows the view from the front.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    range: Range<usize>,
}

impl Bytes {
    /// Returns the sub-range `range` of the *unread* portion, sharing the
    /// allocation.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: Range<usize>) -> Bytes {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "range {range:?} out of bounds of {} bytes",
            self.len()
        );
        Bytes {
            data: Arc::clone(&self.data),
            range: self.range.start + range.start..self.range.start + range.end,
        }
    }

    /// Total length of the unread portion (alias of [`Buf::remaining`]).
    pub fn len(&self) -> usize {
        self.range.len()
    }

    /// Whether no unread bytes remain.
    pub fn is_empty(&self) -> bool {
        self.range.is_empty()
    }

    fn take<const N: usize>(&mut self) -> [u8; N] {
        let head = self
            .first_chunk::<N>()
            .copied()
            .unwrap_or_else(|| panic!("buffer underflow: {} < {N}", self.len()));
        self.range.start += N;
        head
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data[self.range.clone()]
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        **self == **other
    }
}

impl Eq for Bytes {}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Self {
        Bytes {
            range: 0..data.len(),
            data: Arc::new(data),
        }
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, cnt: usize) {
        assert!(
            cnt <= self.len(),
            "buffer underflow: {} < {cnt}",
            self.len()
        );
        self.range.start += cnt;
    }

    fn get_u8(&mut self) -> u8 {
        self.take::<1>()[0]
    }

    fn get_u32_le(&mut self) -> u32 {
        u32::from_le_bytes(self.take())
    }

    fn get_u64_le(&mut self) -> u64 {
        u64::from_le_bytes(self.take())
    }

    fn get_f32_le(&mut self) -> f32 {
        f32::from_le_bytes(self.take())
    }

    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        let head = self.slice(0..len);
        self.range.start += len;
        head
    }
}

/// A growable write buffer, frozen into [`Bytes`] when complete.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty buffer with `cap` bytes pre-allocated.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            data: Vec::with_capacity(cap),
        }
    }

    /// Converts the buffer into an immutable [`Bytes`] without copying.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }
}

impl Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl BufMut for BytesMut {
    fn put_u8(&mut self, v: u8) {
        self.data.push(v);
    }

    fn put_u32_le(&mut self, v: u32) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u64_le(&mut self, v: u64) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }

    fn put_f32_le(&mut self, v: f32) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }

    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        let mut w = BytesMut::new();
        w.put_u8(7);
        w.put_u32_le(0xDEAD_BEEF);
        w.put_u64_le(42);
        w.put_f32_le(1.5);
        w.put_slice(b"ab");
        let mut r = w.freeze();
        assert_eq!(r.remaining(), 1 + 4 + 8 + 4 + 2);
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64_le(), 42);
        assert_eq!(r.get_f32_le(), 1.5);
        assert_eq!(r.get_u8(), b'a');
        assert_eq!(r.get_u8(), b'b');
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn slice_is_relative_to_cursor() {
        let mut b = Bytes::from(vec![0, 1, 2, 3, 4]);
        assert_eq!(b.get_u8(), 0);
        let s = b.slice(1..3);
        assert_eq!(s.to_vec(), vec![2, 3]);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn underflow_panics() {
        let mut b = Bytes::from(vec![1]);
        let _ = b.get_u32_le();
    }

    #[test]
    fn views_share_one_allocation_and_compare_by_content() {
        let whole = Bytes::from((0u8..32).collect::<Vec<_>>());
        let mut cursor = whole.clone();
        let head = cursor.copy_to_bytes(8);
        let tail = whole.slice(8..32);
        for view in [&cursor, &head, &tail] {
            assert!(Arc::ptr_eq(&view.data, &whole.data));
        }
        assert_eq!(&*head, &whole[..8]);
        // Equality is over the visible bytes, not over how the view got there.
        assert_eq!(cursor, tail);
        assert_eq!(cursor.chunk(), &whole[8..]);
        cursor.advance(20);
        assert_eq!(cursor, Bytes::from(vec![28, 29, 30, 31]));
        // An empty slice at the end is in bounds; one past it is not.
        assert!(whole.slice(32..32).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_past_the_view_panics() {
        let mut b = Bytes::from(vec![0, 1, 2, 3]);
        b.advance(2);
        let _ = b.slice(0..3);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn advance_past_the_end_panics() {
        Bytes::from(vec![1, 2]).advance(3);
    }
}
