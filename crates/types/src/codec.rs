//! Hand-rolled binary wire format.
//!
//! The paper deliberately passes **byte arrays** through its transport layer
//! instead of relying on Java serialisation, so that SMC services can be
//! written in any language. This module is the Rust equivalent: a small,
//! explicit, length-prefixed little-endian encoding with no reflection and
//! no schema compiler.
//!
//! All multi-byte integers are little-endian. Strings are UTF-8 with a
//! `u16` length prefix; byte arrays carry a `u32` length prefix. Decoders
//! enforce sanity limits so a corrupt length prefix cannot trigger huge
//! allocations.

use std::cell::RefCell;

use bytes::BufMut;
/// The buffer [`Encode`] writes into, re-exported so a crate that only
/// hands one through ([`with_scratch`]) need not depend on `bytes`.
pub use bytes::BytesMut;

use crate::error::CodecError;
use crate::event::AttributeSet;
use crate::filter::{Constraint, Filter, Op, Subscription};
use crate::id::{CellId, EventId, ServiceId, SubscriptionId};
use crate::shared::SharedBytes;
use crate::value::AttributeValue;

/// Maximum length accepted for a string field.
pub const MAX_STR_LEN: usize = u16::MAX as usize;
/// Maximum length accepted for a byte-array field (16 MiB).
pub const MAX_BYTES_LEN: usize = 16 * 1024 * 1024;
/// Maximum number of attributes or constraints in one collection.
pub const MAX_COLLECTION_LEN: usize = 4096;

/// Types that can be written to the wire.
pub trait Encode {
    /// Appends the canonical encoding of `self` to `buf`.
    fn encode(&self, buf: &mut BytesMut);
}

/// Types that can be read back from the wire.
pub trait Decode: Sized {
    /// Decodes one value from the reader, consuming exactly its bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] if the input is truncated or malformed.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError>;
}

/// Capacity a thread's encode scratch keeps between calls. A rare larger
/// encoding (a snapshot) gets its buffer freed again.
const SCRATCH_KEEP: usize = 64 * 1024;

thread_local! {
    static SCRATCH: RefCell<BytesMut> = const { RefCell::new(BytesMut::new()) };
}

/// Runs `f` on this thread's encode scratch, handed over empty.
///
/// An encoder does not know an encoding's length until it has written
/// it, so everything is written here first — the buffer has long since
/// grown to working size — and whoever needs the bytes afterwards takes
/// one exact-size copy ([`to_shared`], [`to_bytes`]) or none at all (a
/// datagram handed to a socket, a record appended to a log). The
/// contents do not survive the call.
///
/// `f` may itself end up back here (a transport or log backend that
/// encodes something of its own): the inner call gets a fresh buffer.
pub fn with_scratch<R>(f: impl FnOnce(&mut BytesMut) -> R) -> R {
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut buf) => {
            buf.clear();
            let out = f(&mut buf);
            if buf.capacity() > SCRATCH_KEEP {
                *buf = BytesMut::new();
            }
            out
        }
        Err(_) => f(&mut BytesMut::new()),
    })
}

/// Encodes a value into a byte vector of exactly its length.
pub fn to_bytes<T: Encode + ?Sized>(value: &T) -> Vec<u8> {
    with_scratch(|buf| {
        value.encode(buf);
        buf.to_vec()
    })
}

/// Encodes a value into a shared buffer of exactly its length — the
/// call's one heap request. This is the form a
/// `ReliableChannel::send` enqueues without copying, so it is how a
/// message on its way to a channel is encoded — all but an event packet,
/// which [`Packet::into_shared`](crate::Packet::into_shared) sends as the
/// event's own body under a tag, asking the heap for nothing.
pub fn to_shared<T: Encode + ?Sized>(value: &T) -> SharedBytes {
    with_scratch(|buf| {
        value.encode(buf);
        SharedBytes::from(&buf[..])
    })
}

/// Decodes a value from a byte slice, requiring the slice to be consumed
/// exactly.
///
/// # Errors
///
/// Returns a [`CodecError`] if the input is truncated, malformed, or has
/// trailing bytes.
pub fn from_bytes<T: Decode>(bytes: &[u8]) -> Result<T, CodecError> {
    let mut r = Reader::new(bytes);
    let v = T::decode(&mut r)?;
    if !r.is_empty() {
        return Err(CodecError::TrailingBytes(r.remaining()));
    }
    Ok(v)
}

/// A bounds-checked cursor over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Returns `true` if all bytes have been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Bytes consumed so far.
    pub(crate) fn position(&self) -> usize {
        self.pos
    }

    /// The bytes not yet consumed.
    pub(crate) fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// Consumes `n` bytes unread.
    pub(crate) fn skip(&mut self, n: usize) -> Result<(), CodecError> {
        self.take(n).map(|_| ())
    }

    /// Reads `n` bytes without copying them out of the input.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEnd {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(
            b.try_into().expect("take returned 8 bytes"),
        ))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(self.u64()? as i64)
    }

    /// Reads a little-endian `f64`.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a boolean encoded as one byte (0 or 1).
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(CodecError::BadTag {
                what: "bool",
                tag: t,
            }),
        }
    }

    /// Reads a `u16`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CodecError> {
        Ok(self.str_ref()?.to_owned())
    }

    /// Reads a `u16`-length-prefixed UTF-8 string without copying it out
    /// of the input: the bytes are checked where they lie.
    pub(crate) fn str_ref(&mut self) -> Result<&'a str, CodecError> {
        let len = self.u16()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|_| CodecError::BadUtf8)
    }

    /// Reads a `u32`-length-prefixed byte array.
    pub fn bytes(&mut self) -> Result<Vec<u8>, CodecError> {
        Ok(self.bytes_ref()?.to_vec())
    }

    /// Reads a `u32`-length-prefixed byte array without copying it out
    /// of the input.
    pub fn bytes_ref(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.u32()? as usize;
        if len > MAX_BYTES_LEN {
            return Err(CodecError::LengthOverflow {
                declared: len,
                limit: MAX_BYTES_LEN,
            });
        }
        self.take(len)
    }

    /// Reads a collection length prefix, enforcing [`MAX_COLLECTION_LEN`].
    pub fn collection_len(&mut self) -> Result<usize, CodecError> {
        let len = self.u16()? as usize;
        if len > MAX_COLLECTION_LEN {
            return Err(CodecError::LengthOverflow {
                declared: len,
                limit: MAX_COLLECTION_LEN,
            });
        }
        Ok(len)
    }
}

/// Writer-side helpers mirroring [`Reader`].
pub trait WriteExt {
    /// Writes a `u16`-length-prefixed UTF-8 string.
    ///
    /// # Panics
    ///
    /// Panics if the string exceeds [`MAX_STR_LEN`]; encoders construct
    /// such strings only from validated inputs.
    fn put_str(&mut self, s: &str);
    /// Writes a `u32`-length-prefixed byte array.
    fn put_bytes_field(&mut self, b: &[u8]);
    /// Writes the length prefix of a byte array whose `len` bytes the
    /// caller appends next ([`SharedBytes::put_range`]).
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds [`MAX_BYTES_LEN`].
    fn put_bytes_len(&mut self, len: usize);
    /// Writes a boolean as one byte.
    fn put_bool(&mut self, b: bool);
}

impl WriteExt for BytesMut {
    fn put_str(&mut self, s: &str) {
        assert!(
            s.len() <= MAX_STR_LEN,
            "string field exceeds {MAX_STR_LEN} bytes"
        );
        self.put_u16_le(s.len() as u16);
        self.put_slice(s.as_bytes());
    }

    fn put_bytes_field(&mut self, b: &[u8]) {
        self.put_bytes_len(b.len());
        self.put_slice(b);
    }

    fn put_bytes_len(&mut self, len: usize) {
        assert!(
            len <= MAX_BYTES_LEN,
            "byte field exceeds {MAX_BYTES_LEN} bytes"
        );
        self.put_u32_le(len as u32);
    }

    fn put_bool(&mut self, b: bool) {
        self.put_u8(u8::from(b));
    }
}

// --- identifiers -----------------------------------------------------------

impl Encode for ServiceId {
    fn encode(&self, buf: &mut BytesMut) {
        // 48-bit id encoded in 6 bytes, little-endian.
        let raw = self.raw();
        buf.put_slice(&raw.to_le_bytes()[..6]);
    }
}

impl Decode for ServiceId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let b = r.take(6)?;
        let mut raw = [0u8; 8];
        raw[..6].copy_from_slice(b);
        Ok(ServiceId::from_raw(u64::from_le_bytes(raw)))
    }
}

impl Encode for CellId {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u64_le(self.raw());
    }
}

impl Decode for CellId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(CellId::from_raw(r.u64()?))
    }
}

impl Encode for SubscriptionId {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u64_le(self.0);
    }
}

impl Decode for SubscriptionId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(SubscriptionId(r.u64()?))
    }
}

impl Encode for EventId {
    fn encode(&self, buf: &mut BytesMut) {
        self.publisher.encode(buf);
        buf.put_u64_le(self.seq);
    }
}

impl Decode for EventId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(EventId {
            publisher: ServiceId::decode(r)?,
            seq: r.u64()?,
        })
    }
}

// --- values ----------------------------------------------------------------

const VAL_BOOL: u8 = 0;
const VAL_INT: u8 = 1;
const VAL_DOUBLE: u8 = 2;
const VAL_STR: u8 = 3;
const VAL_BYTES: u8 = 4;

impl Encode for AttributeValue {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            AttributeValue::Bool(b) => {
                buf.put_u8(VAL_BOOL);
                buf.put_bool(*b);
            }
            AttributeValue::Int(i) => {
                buf.put_u8(VAL_INT);
                buf.put_u64_le(*i as u64);
            }
            AttributeValue::Double(d) => {
                buf.put_u8(VAL_DOUBLE);
                buf.put_u64_le(d.to_bits());
            }
            AttributeValue::Str(s) => {
                buf.put_u8(VAL_STR);
                buf.put_str(s);
            }
            AttributeValue::Bytes(b) => {
                buf.put_u8(VAL_BYTES);
                buf.put_bytes_field(b);
            }
        }
    }
}

impl Decode for AttributeValue {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            VAL_BOOL => Ok(AttributeValue::Bool(r.bool()?)),
            VAL_INT => Ok(AttributeValue::Int(r.i64()?)),
            VAL_DOUBLE => Ok(AttributeValue::Double(r.f64()?)),
            VAL_STR => Ok(AttributeValue::Str(r.str()?)),
            VAL_BYTES => Ok(AttributeValue::Bytes(r.bytes()?)),
            t => Err(CodecError::BadTag {
                what: "attribute value",
                tag: t,
            }),
        }
    }
}

impl Encode for AttributeSet {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u16_le(self.len() as u16);
        for (name, value) in self.iter() {
            buf.put_str(name);
            value.encode(buf);
        }
    }
}

/// The shortest attribute on the wire: an empty name (2) and a boolean
/// (tag + byte).
pub(crate) const MIN_ATTRIBUTE_LEN: usize = 4;

impl Decode for AttributeSet {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = r.collection_len()?;
        // The count is the sender's claim; reserve only what the bytes
        // that are left can actually hold.
        let mut entries = Vec::with_capacity(len.min(r.remaining() / MIN_ATTRIBUTE_LEN));
        for _ in 0..len {
            entries.push((r.str()?, AttributeValue::decode(r)?));
        }
        // Senders write names in ascending order, which costs nothing to
        // confirm; anything else is sorted once, last duplicate winning.
        Ok(AttributeSet::from_entries(entries))
    }
}

// --- events ----------------------------------------------------------------
//
// `Encode` and `Decode for Event` are in `crate::event`, beside the event's
// body: the body is the encoding.

// --- filters ----------------------------------------------------------------

impl Encode for Constraint {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_str(&self.name);
        buf.put_u8(self.op.tag());
        self.value.encode(buf);
    }
}

impl Decode for Constraint {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let name = r.str()?;
        let tag = r.u8()?;
        let op = Op::from_tag(tag).ok_or(CodecError::BadTag {
            what: "operator",
            tag,
        })?;
        let value = AttributeValue::decode(r)?;
        Ok(Constraint { name, op, value })
    }
}

impl Encode for Filter {
    fn encode(&self, buf: &mut BytesMut) {
        match self.event_type() {
            Some(t) => {
                buf.put_bool(true);
                buf.put_str(t);
            }
            None => buf.put_bool(false),
        }
        buf.put_u16_le(self.constraints().len() as u16);
        for c in self.constraints() {
            c.encode(buf);
        }
    }
}

impl Decode for Filter {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let mut filter = if r.bool()? {
            Filter::for_type(r.str()?)
        } else {
            Filter::any()
        };
        let len = r.collection_len()?;
        for _ in 0..len {
            filter.push(Constraint::decode(r)?);
        }
        Ok(filter)
    }
}

impl Encode for Subscription {
    fn encode(&self, buf: &mut BytesMut) {
        self.id.encode(buf);
        self.subscriber.encode(buf);
        self.filter.encode(buf);
    }
}

impl Decode for Subscription {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Subscription {
            id: SubscriptionId::decode(r)?,
            subscriber: ServiceId::decode(r)?,
            filter: Filter::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    fn round_trip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: &T) {
        let bytes = to_bytes(v);
        let back: T = from_bytes(&bytes).expect("decode");
        assert_eq!(&back, v);
    }

    #[test]
    fn service_id_six_bytes() {
        let id = ServiceId::from_raw(0x1234_5678_9ABC);
        assert_eq!(to_bytes(&id).len(), 6);
        round_trip(&id);
    }

    #[test]
    fn ids_round_trip() {
        round_trip(&CellId(42));
        round_trip(&SubscriptionId(7));
        round_trip(&EventId::new(ServiceId::from_raw(9), 123));
    }

    #[test]
    fn values_round_trip() {
        round_trip(&AttributeValue::Bool(true));
        round_trip(&AttributeValue::Int(-42));
        round_trip(&AttributeValue::Double(3.5));
        round_trip(&AttributeValue::Str("héllo".into()));
        round_trip(&AttributeValue::Bytes(vec![0, 1, 255]));
    }

    #[test]
    fn event_round_trip() {
        let e = Event::builder("smc.sensor.reading")
            .attr("bpm", 72i64)
            .attr("sensor", "hr")
            .attr("ok", true)
            .attr("t", 36.6f64)
            .publisher(ServiceId::from_raw(0xAB))
            .seq(17)
            .timestamp_micros(1_000_000)
            .payload(vec![9u8; 100])
            .build();
        round_trip(&e);
    }

    #[test]
    fn filter_round_trip() {
        let f =
            Filter::for_type("r")
                .with(("bpm", Op::Gt, 100i64))
                .with(("sensor", Op::Prefix, "hr"));
        round_trip(&f);
        round_trip(&Filter::any());
    }

    #[test]
    fn subscription_round_trip() {
        round_trip(&Subscription::new(
            SubscriptionId(1),
            ServiceId::from_raw(2),
            Filter::for_type("x").with(("a", Op::Exists, 0i64)),
        ));
    }

    #[test]
    fn truncated_input_errors() {
        let e = Event::new("t");
        let bytes = to_bytes(&e);
        for cut in 0..bytes.len() {
            let err = from_bytes::<Event>(&bytes[..cut]);
            assert!(err.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = to_bytes(&AttributeValue::Bool(true));
        bytes.push(0);
        assert_eq!(
            from_bytes::<AttributeValue>(&bytes),
            Err(CodecError::TrailingBytes(1))
        );
    }

    #[test]
    fn bad_tags_rejected() {
        assert!(matches!(
            from_bytes::<AttributeValue>(&[99]),
            Err(CodecError::BadTag {
                what: "attribute value",
                tag: 99
            })
        ));
        // bool with tag 2
        let mut r = Reader::new(&[2]);
        assert!(matches!(
            r.bool(),
            Err(CodecError::BadTag {
                what: "bool",
                tag: 2
            })
        ));
    }

    #[test]
    fn bad_utf8_rejected() {
        // VAL_STR, len 1, invalid byte.
        let bytes = [VAL_STR, 1, 0, 0xFF];
        assert_eq!(
            from_bytes::<AttributeValue>(&bytes),
            Err(CodecError::BadUtf8)
        );
    }

    #[test]
    fn oversize_byte_len_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(VAL_BYTES);
        buf.put_u32_le(u32::MAX);
        let err = from_bytes::<AttributeValue>(&buf);
        assert!(matches!(err, Err(CodecError::LengthOverflow { .. })));
    }

    #[test]
    fn oversize_collection_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u16_le(u16::MAX); // attribute count
        let err = AttributeSet::decode(&mut Reader::new(&buf));
        assert!(matches!(err, Err(CodecError::LengthOverflow { .. })));
    }

    /// What a hostile sender can do to the attribute table: the largest
    /// collection, names descending, one of them twice. One sort, the
    /// later duplicate standing.
    #[test]
    fn descending_and_duplicate_names_are_sorted_once_last_wins() {
        let mut buf = BytesMut::new();
        buf.put_u16_le(MAX_COLLECTION_LEN as u16);
        for i in (1..MAX_COLLECTION_LEN as i64).rev() {
            buf.put_str(&format!("n{i:04}"));
            AttributeValue::Int(i).encode(&mut buf);
        }
        buf.put_str("n0007");
        AttributeValue::Int(-7).encode(&mut buf);
        let set: AttributeSet = from_bytes(&buf).unwrap();
        assert_eq!(set.len(), MAX_COLLECTION_LEN - 1);
        assert!(set.iter().map(|(n, _)| n).is_sorted());
        assert_eq!(set.get("n0007"), Some(&AttributeValue::Int(-7)));
        assert_eq!(set.get("n4095"), Some(&AttributeValue::Int(4095)));
        // And what every honest sender writes comes back as it was.
        assert_eq!(from_bytes::<AttributeSet>(&to_bytes(&set)).unwrap(), set);
    }

    #[test]
    fn nan_payload_round_trips_bitwise() {
        let v = AttributeValue::Double(f64::NAN);
        let bytes = to_bytes(&v);
        let back: AttributeValue = from_bytes(&bytes).unwrap();
        match back {
            AttributeValue::Double(d) => assert!(d.is_nan()),
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn reader_primitives() {
        let mut buf = BytesMut::new();
        buf.put_u8(1);
        buf.put_u16_le(2);
        buf.put_u32_le(3);
        buf.put_u64_le(4);
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 1);
        assert_eq!(r.u16().unwrap(), 2);
        assert_eq!(r.u32().unwrap(), 3);
        assert_eq!(r.u64().unwrap(), 4);
        assert!(r.is_empty());
        assert!(r.u8().is_err());
    }
}
