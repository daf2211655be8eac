//! A cheaply cloneable message on its way to a channel.
//!
//! [`SharedBytes`] is a message's bytes held one of two ways: a whole
//! `Arc<[u8]>`, or an event under a packet tag — a `Publish` or a
//! `Deliver` that is never written out, because its bytes are the
//! event's own body with a tag, a stamp and a trace id around it. Either
//! way a clone is a reference-count bump: the bus hands one delivery to
//! every subscriber's channel without a copy, and a channel writes each
//! fragment's bytes straight into the frame it sends ([`put_range`]).
//!
//! [`put_range`]: SharedBytes::put_range

use std::ops::Range;
use std::sync::Arc;

use bytes::BufMut;

use crate::buffer::MessageBuf;
use crate::event::Event;
use crate::trace::TraceId;

/// An immutable message that shares ownership of what it is made of.
///
/// ```
/// use smc_types::SharedBytes;
///
/// let frame = SharedBytes::from(vec![1u8, 2, 3]);
/// let for_another_peer = frame.clone();
/// assert_eq!(for_another_peer.to_vec(), vec![1, 2, 3]);
/// let mut fragment = Vec::new();
/// frame.put_range(1..3, &mut fragment);
/// assert_eq!(fragment, vec![2, 3]);
/// ```
#[derive(Clone)]
pub struct SharedBytes(Repr);

#[derive(Clone)]
enum Repr {
    /// Bytes in a buffer of their own.
    Buf(Arc<[u8]>),
    /// The bytes `Packet`'s encoder writes for an event packet — `tag`,
    /// the event's encoding, `trace` if there is one — with the event's
    /// body shared rather than copied.
    Event {
        tag: u8,
        event: Event,
        trace: TraceId,
    },
}

impl SharedBytes {
    /// Wraps a whole shared buffer.
    pub fn new(buf: Arc<[u8]>) -> Self {
        SharedBytes(Repr::Buf(buf))
    }

    /// The event packet `tag ‖ event ‖ trace`, held as the event.
    pub(crate) fn event_packet(tag: u8, event: Event, trace: TraceId) -> Self {
        SharedBytes(Repr::Event { tag, event, trace })
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Buf(buf) => buf.len(),
            Repr::Event { event, trace, .. } => {
                1 + event.encoded_len() + if trace.is_some() { 8 } else { 0 }
            }
        }
    }

    /// Returns `true` if there are no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends bytes `range` of the message to `out`.
    ///
    /// # Panics
    ///
    /// Panics if `range` does not lie within `0..self.len()`, as slicing
    /// would.
    pub fn put_range(&self, range: Range<usize>, out: &mut impl BufMut) {
        let len = self.len();
        assert!(
            range.start <= range.end && range.end <= len,
            "range {range:?} out of a {len}-byte message"
        );
        let (mut start, mut end) = (range.start, range.end);
        self.with_runs(|runs| {
            for run in runs {
                if end == 0 {
                    break;
                }
                if start < run.len() {
                    out.put_slice(&run[start..end.min(run.len())]);
                }
                start = start.saturating_sub(run.len());
                end = end.saturating_sub(run.len());
            }
        });
    }

    /// The bytes, copied into a vector of exactly their length.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len());
        self.put_range(0..self.len(), &mut out);
        out
    }

    /// Runs `f` on the message's bytes as consecutive runs.
    fn with_runs<R>(&self, f: impl FnOnce(&[&[u8]]) -> R) -> R {
        match &self.0 {
            Repr::Buf(buf) => f(&[buf]),
            Repr::Event { tag, event, trace } => {
                let (head, stamp, tail) = event.encoding_runs();
                // A trailing optional: absent when untraced.
                let trace_bytes = trace.raw().to_le_bytes();
                let trace_len = if trace.is_some() { 8 } else { 0 };
                f(&[&[*tag], head, &stamp, tail, &trace_bytes[..trace_len]])
            }
        }
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

impl From<MessageBuf> for SharedBytes {
    /// A copy of the bytes; the buffer goes home.
    fn from(v: MessageBuf) -> Self {
        SharedBytes::new(Arc::from(&v[..]))
    }
}

impl From<&[u8]> for SharedBytes {
    fn from(v: &[u8]) -> Self {
        SharedBytes::new(Arc::from(v))
    }
}

impl PartialEq for SharedBytes {
    /// Equal when the bytes are, however each side holds them.
    fn eq(&self, other: &Self) -> bool {
        let bytes = |runs: &[&[u8]]| runs.concat();
        self.len() == other.len() && self.with_runs(bytes) == other.with_runs(bytes)
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
        assert_eq!(s.to_vec(), vec![1, 2, 3]);
        let mut out = vec![9];
        s.put_range(0..2, &mut out);
        assert_eq!(out, vec![9, 1, 2]);
    }

    #[test]
    fn equality_is_by_content() {
        let a = SharedBytes::from(vec![7u8, 8]);
        let b = SharedBytes::from(vec![7u8, 8]);
        assert_eq!(a, b);
        assert_eq!(a, a.clone());
        assert_ne!(a, SharedBytes::from(vec![7u8, 9]));
    }

    #[test]
    fn empty_is_fine() {
        let s = SharedBytes::from(Vec::new());
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        let mut out = Vec::new();
        s.put_range(0..0, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of a 3-byte message")]
    fn a_range_past_the_end_panics() {
        SharedBytes::from(vec![1u8, 2, 3]).put_range(1..4, &mut Vec::new());
    }
}
