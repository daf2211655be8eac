//! A cheaply cloneable byte slice backed by a shared buffer.
//!
//! [`SharedBytes`] wraps an `Arc<[u8]>`: the bus encodes a delivery frame
//! once and hands the same allocation to every subscriber's channel, so
//! the per-recipient cost of sharing is a reference-count bump, never a
//! copy — and a sender can pass a `Vec<u8>`, an `Arc<[u8]>` or a slice
//! without caring which.

use std::ops::Deref;
use std::sync::Arc;

/// An immutable byte slice that shares ownership of its backing buffer.
///
/// ```
/// use smc_types::SharedBytes;
///
/// let frame = SharedBytes::from(vec![1u8, 2, 3]);
/// let for_another_peer = frame.clone();
/// assert_eq!(&for_another_peer[..], &[1, 2, 3]);
/// ```
#[derive(Clone)]
pub struct SharedBytes {
    buf: Arc<[u8]>,
}

impl SharedBytes {
    /// Wraps a whole shared buffer.
    pub fn new(buf: Arc<[u8]>) -> Self {
        SharedBytes { buf }
    }

    /// The bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns `true` if there are no bytes.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

impl Deref for SharedBytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for SharedBytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Arc<[u8]>> for SharedBytes {
    fn from(buf: Arc<[u8]>) -> Self {
        SharedBytes::new(buf)
    }
}

impl From<Vec<u8>> for SharedBytes {
    fn from(v: Vec<u8>) -> Self {
        SharedBytes::new(Arc::from(v))
    }
}

impl From<&[u8]> for SharedBytes {
    fn from(v: &[u8]) -> Self {
        SharedBytes::new(Arc::from(v))
    }
}

impl PartialEq for SharedBytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for SharedBytes {}

impl std::fmt::Debug for SharedBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SharedBytes({} bytes)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whole_buffer_round_trip() {
        let s = SharedBytes::from(vec![1u8, 2, 3]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(&s[..], &[1, 2, 3]);
        assert_eq!(s.as_ref(), &[1, 2, 3]);
    }

    #[test]
    fn equality_is_by_content() {
        let a = SharedBytes::from(vec![7u8, 8]);
        let b = SharedBytes::from(vec![7u8, 8]);
        assert_eq!(a, b);
        assert_eq!(a, a.clone());
    }

    #[test]
    fn empty_is_fine() {
        let s = SharedBytes::from(Vec::new());
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }
}
