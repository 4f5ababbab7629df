//! A cheaply-cloneable, immutable shared byte buffer.
//!
//! Replaces the `bytes` crate for the message-passing substrate: an
//! owned `Vec<u8>` moves in behind an `Arc` without being copied
//! ([`Bytes::from`]), a borrowed slice is copied once
//! ([`Bytes::copy_from_slice`]), and after that every hand-off between
//! threads — including `slice` views taken when unframing gathered
//! messages — is a reference-count bump, the same property
//! `bytes::Bytes` provided.

use std::ops::{Deref, Range};
use std::sync::Arc;

/// An immutable, reference-counted byte buffer (optionally a view into a
/// shared parent allocation).
#[derive(Debug, Clone, Default)]
pub struct Bytes {
    // The `Vec` itself sits behind the `Arc`: `Arc<[u8]>::from(Vec)`
    // would reallocate and memcpy the payload.
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Copies `src` into a new shared buffer.
    pub fn copy_from_slice(src: &[u8]) -> Self {
        Bytes::from(src.to_vec())
    }

    /// Buffer length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A zero-copy view of `range` within this buffer; shares the
    /// underlying allocation. Panics when the range is out of bounds.
    pub fn slice(&self, range: Range<usize>) -> Self {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "slice range {}..{} out of bounds for Bytes of length {}",
            range.start,
            range.end,
            self.len()
        );
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }

    /// Takes the underlying allocation back — the whole parent buffer,
    /// whatever this view covered — when no other handle shares it, so
    /// a consumed message can carry the next one instead of being freed.
    pub fn into_unique_vec(self) -> Option<Vec<u8>> {
        Arc::try_unwrap(self.data).ok()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_ref() == other.as_ref()
    }
}

impl Eq for Bytes {}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_ref().hash(state);
    }
}

impl From<Vec<u8>> for Bytes {
    /// Takes ownership of `v`'s allocation; no byte is copied.
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            data: Arc::new(v),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Self {
        Bytes::copy_from_slice(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_views() {
        let b = Bytes::copy_from_slice(&[1, 2, 3]);
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        assert_eq!(&b[..], &[1, 2, 3]);
        assert_eq!(b.as_ref(), &[1, 2, 3]);
        assert!(Bytes::new().is_empty());
    }

    #[test]
    fn clone_shares_storage() {
        let b = Bytes::from(vec![9u8; 1024]);
        let c = b.clone();
        assert_eq!(b, c);
        // Same allocation: the Arc data pointers match.
        assert!(std::ptr::eq(b.as_ref(), c.as_ref()));
    }

    #[test]
    fn slice_is_a_zero_copy_view() {
        let b = Bytes::from((0u8..32).collect::<Vec<_>>());
        let s = b.slice(4..12);
        assert_eq!(s.len(), 8);
        assert_eq!(&s[..], &[4, 5, 6, 7, 8, 9, 10, 11]);
        assert!(std::ptr::eq(s.as_ref(), &b.as_ref()[4..12]));
        // Nested slices compose against the parent view.
        let t = s.slice(2..5);
        assert_eq!(&t[..], &[6, 7, 8]);
        let empty = b.slice(32..32);
        assert!(empty.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        let b = Bytes::from(vec![0u8; 4]);
        let _ = b.slice(2..6);
    }

    #[test]
    fn equality_ignores_view_offsets() {
        let b = Bytes::from(vec![7u8, 8, 9, 7, 8, 9]);
        assert_eq!(b.slice(0..3), b.slice(3..6));
    }

    #[test]
    fn from_vec_does_not_copy() {
        let v = vec![5u8; 16];
        let allocation = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.len(), 16);
        assert!(b.iter().all(|&x| x == 5));
        assert!(
            std::ptr::eq(b.as_ptr(), allocation),
            "payload was reallocated"
        );
    }

    #[test]
    fn the_last_handle_gets_the_allocation_back() {
        let b = Bytes::from(vec![5u8; 16]);
        let allocation = b.as_ptr();
        let view = b.slice(4..8);
        assert!(b.into_unique_vec().is_none(), "a view still shares it");
        // The whole parent buffer comes back, not the four-byte view.
        let v = view.into_unique_vec().expect("last handle");
        assert_eq!(v.len(), 16);
        assert!(std::ptr::eq(v.as_ptr(), allocation));
    }
}
