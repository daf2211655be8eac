//! Events: the unit of communication on the SMC event bus.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use bytes::{BufMut, BytesMut};

use crate::codec::{with_scratch, Decode, Encode, Reader, WriteExt, MIN_ATTRIBUTE_LEN};
use crate::error::CodecError;
use crate::id::{EventId, ServiceId};
use crate::value::AttributeValue;

/// An ordered, name-unique set of attributes.
///
/// Attributes are kept sorted by name, which gives a canonical wire encoding
/// and lets lookups binary-search. Inserting an existing name replaces its
/// value.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AttributeSet {
    entries: Vec<(String, AttributeValue)>,
}

impl AttributeSet {
    /// Creates an empty attribute set.
    pub fn new() -> Self {
        AttributeSet::default()
    }

    /// The set holding `entries`, given in any order; the last of several
    /// entries with one name stands.
    pub(crate) fn from_entries(mut entries: Vec<(String, AttributeValue)>) -> Self {
        sort_last_wins(&mut entries, |a, b| a.0.cmp(&b.0));
        AttributeSet { entries }
    }

    /// Inserts or replaces the attribute `name`, returning the previous
    /// value if one was present.
    pub fn insert(
        &mut self,
        name: impl Into<String>,
        value: impl Into<AttributeValue>,
    ) -> Option<AttributeValue> {
        let name = name.into();
        let value = value.into();
        match self
            .entries
            .binary_search_by(|(n, _)| n.as_str().cmp(&name))
        {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (name, value));
                None
            }
        }
    }

    /// Returns the value of attribute `name`, if present.
    pub fn get(&self, name: &str) -> Option<&AttributeValue> {
        self.entries
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// Removes attribute `name`, returning its value if it was present.
    pub fn remove(&mut self, name: &str) -> Option<AttributeValue> {
        match self.entries.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
            Ok(i) => Some(self.entries.remove(i).1),
            Err(_) => None,
        }
    }

    /// Returns `true` if attribute `name` is present.
    pub fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if there are no attributes.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &AttributeValue)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), v))
    }
}

impl FromIterator<(String, AttributeValue)> for AttributeSet {
    fn from_iter<T: IntoIterator<Item = (String, AttributeValue)>>(iter: T) -> Self {
        AttributeSet::from_entries(iter.into_iter().collect())
    }
}

impl Extend<(String, AttributeValue)> for AttributeSet {
    fn extend<T: IntoIterator<Item = (String, AttributeValue)>>(&mut self, iter: T) {
        for (n, v) in iter {
            self.insert(n, v);
        }
    }
}

/// Puts `entries` into strictly ascending name order, the last of several
/// entries with one name standing for all of them, and says whether it
/// had to. Entries that already are — every honest sender's — cost one
/// pass and nothing moves; anything else costs one stable sort, however
/// it was arranged.
fn sort_last_wins<T>(entries: &mut Vec<T>, by_name: impl Fn(&T, &T) -> Ordering) -> bool {
    if entries
        .windows(2)
        .all(|w| by_name(&w[0], &w[1]) == Ordering::Less)
    {
        return false;
    }
    entries.sort_by(&by_name);
    // `dedup_by` keeps the earlier of two neighbours: hand it the later
    // one's content first.
    entries.dedup_by(|later, earlier| {
        let same = by_name(earlier, later) == Ordering::Equal;
        if same {
            std::mem::swap(earlier, later);
        }
        same
    });
    true
}

/// Publisher (6), sequence number (8), timestamp (8): the bytes between
/// an encoded event's type name and its attribute count.
const STAMP_LEN: usize = 6 + 8 + 8;

/// A run of bytes in a [`Body`]'s buffer.
#[derive(Clone, Copy)]
struct Span {
    at: u32,
    len: u32,
}

impl Span {
    /// The `len` bytes that end at `end`. Offsets fit: [`scan`] and
    /// [`Body::write`] refuse a buffer `u32` cannot index.
    fn ending_at(end: usize, len: usize) -> Span {
        Span {
            at: (end - len) as u32,
            len: len as u32,
        }
    }

    fn range(self) -> std::ops::Range<usize> {
        self.at as usize..self.at as usize + self.len as usize
    }
}

/// One row of a body's attribute table: where the name is, and the value.
struct Entry {
    name: Span,
    value: AttributeValue,
}

/// What an attribute value adds to [`Event::content_len`].
fn value_content_len(value: &AttributeValue) -> usize {
    match value {
        AttributeValue::Str(s) => s.len(),
        AttributeValue::Bytes(b) => b.len(),
        _ => 8,
    }
}

/// The part of an [`Event`] a stamp never touches: the event's canonical
/// encoding, kept in the buffer it arrived in (or the one a builder
/// wrote), and what one validating pass over it found.
///
/// From the type name's length prefix to the payload's last byte
/// ([`Body::encoding`]) `buf` is exactly what `Encode for Event` writes,
/// but for the [`STAMP_LEN`] stamp bytes, which are whatever the sender
/// put there and never read again — the event's own fields are the
/// stamp. Type name, attribute names and payload are slices of `buf`;
/// attribute values are decoded once, into `table`, in strictly
/// ascending name order.
struct Body {
    buf: Vec<u8>,
    event_type: Span,
    table: Vec<Entry>,
    payload: Span,
    content_len: usize,
}

/// An event's stamp as read off the wire.
type Stamp = (ServiceId, u64, u64);

/// Validates one encoded event at `r`'s position — every length, tag and
/// UTF-8 name — and returns a body describing it, its `buf` left empty
/// and its table in wire order for [`Body::adopt`] to see to, and the
/// stamp.
fn scan(r: &mut Reader<'_>) -> Result<(Body, Stamp), CodecError> {
    let total = r.position() + r.remaining();
    if u32::try_from(total).is_err() {
        return Err(CodecError::LengthOverflow {
            declared: total,
            limit: u32::MAX as usize,
        });
    }
    let type_len = r.str_ref()?.len();
    let event_type = Span::ending_at(r.position(), type_len);
    let stamp = (ServiceId::decode(r)?, r.u64()?, r.u64()?);
    let count = r.collection_len()?;
    // The count is the sender's claim; reserve only what the bytes that
    // are left can actually hold.
    let mut table = Vec::with_capacity(count.min(r.remaining() / MIN_ATTRIBUTE_LEN));
    let mut content_len = type_len;
    for _ in 0..count {
        let name_len = r.str_ref()?.len();
        let name = Span::ending_at(r.position(), name_len);
        let value = AttributeValue::decode(r)?;
        content_len += name_len + value_content_len(&value);
        table.push(Entry { name, value });
    }
    let payload_len = r.bytes_ref()?.len();
    let payload = Span::ending_at(r.position(), payload_len);
    let body = Body {
        buf: Vec::new(),
        event_type,
        table,
        payload,
        content_len: content_len + payload_len,
    };
    Ok((body, stamp))
}

impl Body {
    /// Writes the canonical encoding of an event with this content.
    /// `attrs` must be in strictly ascending name order.
    ///
    /// # Panics
    ///
    /// Panics if a name or string exceeds
    /// [`MAX_STR_LEN`](crate::codec::MAX_STR_LEN), a byte field
    /// [`MAX_BYTES_LEN`](crate::codec::MAX_BYTES_LEN), or there are more
    /// attributes than a `u16` counts: what could never be sent.
    fn write<N: AsRef<str>>(
        event_type: &str,
        attrs: impl ExactSizeIterator<Item = (N, AttributeValue)>,
        payload: &[u8],
    ) -> Body {
        let count = u16::try_from(attrs.len()).expect("more attributes than a u16 counts");
        let mut table = Vec::with_capacity(attrs.len());
        let mut content_len = event_type.len() + payload.len();
        let buf = with_scratch(|buf| {
            buf.put_str(event_type);
            buf.put_slice(&[0; STAMP_LEN]);
            buf.put_u16_le(count);
            for (name, value) in attrs {
                let name = name.as_ref();
                buf.put_str(name);
                let span = Span::ending_at(buf.len(), name.len());
                value.encode(buf);
                content_len += name.len() + value_content_len(&value);
                table.push(Entry { name: span, value });
            }
            buf.put_bytes_field(payload);
            buf.to_vec()
        });
        assert!(
            u32::try_from(buf.len()).is_ok(),
            "an event's encoding fits u32 offsets"
        );
        Body {
            event_type: Span::ending_at(2 + event_type.len(), event_type.len()),
            table,
            payload: Span::ending_at(buf.len(), payload.len()),
            content_len,
            buf,
        }
    }

    /// The body [`scan`] described, over the buffer it was scanned in. A
    /// buffer whose names are not strictly ascending is never kept as it
    /// is: its content is sorted (last duplicate wins) and written out
    /// again.
    fn adopt(buf: Vec<u8>, scanned: Body) -> Body {
        let mut body = Body { buf, ..scanned };
        let mut table = std::mem::take(&mut body.table);
        let by_name = |a: &Entry, b: &Entry| body.bytes(a.name).cmp(body.bytes(b.name));
        if !sort_last_wins(&mut table, by_name) {
            body.table = table;
            return body;
        }
        Body::write(
            body.event_type(),
            table.into_iter().map(|e| (body.name(e.name), e.value)),
            body.bytes(body.payload),
        )
    }

    fn bytes(&self, span: Span) -> &[u8] {
        &self.buf[span.range()]
    }

    /// The event's encoding: the type name's `u16` length prefix through
    /// the payload, which is the last thing an event writes.
    fn encoding(&self) -> &[u8] {
        &self.buf[self.event_type.at as usize - 2..self.payload.range().end]
    }

    /// A name that was checked when the body was made; checked again
    /// here, which asks the heap for nothing.
    fn name(&self, span: Span) -> &str {
        std::str::from_utf8(self.bytes(span)).expect("names are validated when a body is made")
    }

    fn event_type(&self) -> &str {
        self.name(self.event_type)
    }

    fn find(&self, name: &str) -> Result<usize, usize> {
        self.table
            .binary_search_by(|e| self.bytes(e.name).cmp(name.as_bytes()))
    }
}

/// An event's attributes, in name order: a view into the event
/// ([`Event::attributes`]), free to copy.
///
/// Reads like an [`AttributeSet`] — and prints like one — but owns
/// nothing: names are slices of the message the event arrived in.
#[derive(Clone, Copy)]
pub struct Attributes<'a> {
    body: &'a Body,
}

impl<'a> Attributes<'a> {
    /// Returns the value of attribute `name`, if present.
    pub fn get(&self, name: &str) -> Option<&'a AttributeValue> {
        let i = self.body.find(name).ok()?;
        Some(&self.body.table[i].value)
    }

    /// Returns `true` if attribute `name` is present.
    pub fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.body.table.len()
    }

    /// Returns `true` if there are no attributes.
    pub fn is_empty(&self) -> bool {
        self.body.table.is_empty()
    }

    /// Iterates over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'a str, &'a AttributeValue)> + 'a {
        let body = self.body;
        body.table.iter().map(|e| (body.name(e.name), &e.value))
    }
}

impl PartialEq for Attributes<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len()
            && self.body.table.iter().zip(&other.body.table).all(|(a, b)| {
                self.body.bytes(a.name) == other.body.bytes(b.name) && a.value == b.value
            })
    }
}

impl fmt::Debug for Attributes<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Entries<'a>(Attributes<'a>);
        impl fmt::Debug for Entries<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list().entries(self.0.iter()).finish()
            }
        }
        // As the owned set prints.
        f.debug_struct("AttributeSet")
            .field("entries", &Entries(*self))
            .finish()
    }
}

/// An event as carried over the bus.
///
/// An event has a *type name* (e.g. `"smc.sensor.reading"`), a set of typed
/// attributes, the identity of its publisher, a publisher-local sequence
/// number (assigned by the publisher's proxy and used for per-sender FIFO
/// ordering and exactly-once suppression), a timestamp, and an optional
/// opaque payload for bulk data.
///
/// An event is a value, and a cheap one to copy: type name, attributes
/// and payload sit behind one shared pointer, so [`Clone`] asks the heap
/// for nothing, and [`Event::stamp`] writes fields that are not shared.
/// What is shared is the event's own encoding: an event that arrived in a
/// message ([`Packet::from_message`](crate::Packet::from_message),
/// [`Event::from_message`]) keeps that message and reads its type name,
/// attribute names and payload out of it, and sending it on shares those
/// bytes ([`Packet::into_shared`](crate::Packet::into_shared)). Whoever
/// keeps an event, or a clone, keeps the message.
///
/// ```
/// use smc_types::{Event, ServiceId};
///
/// let event = Event::builder("smc.sensor.reading")
///     .attr("sensor", "heart-rate")
///     .attr("bpm", 72i64)
///     .publisher(ServiceId::from_raw(0xA))
///     .build();
/// assert_eq!(event.attributes().get("bpm").and_then(|v| v.as_int()), Some(72));
/// ```
#[derive(Clone)]
pub struct Event {
    body: Arc<Body>,
    publisher: ServiceId,
    seq: u64,
    timestamp_micros: u64,
}

impl Default for Event {
    fn default() -> Self {
        Event::new("")
    }
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (&*self.body, &*other.body);
        (self.publisher, self.seq, self.timestamp_micros)
            == (other.publisher, other.seq, other.timestamp_micros)
            && a.bytes(a.event_type) == b.bytes(b.event_type)
            && self.attributes() == other.attributes()
            && self.payload() == other.payload()
    }
}

impl fmt::Debug for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Flat, as the fields read through the accessors.
        f.debug_struct("Event")
            .field("event_type", &self.event_type())
            .field("attributes", &self.attributes())
            .field("publisher", &self.publisher)
            .field("seq", &self.seq)
            .field("timestamp_micros", &self.timestamp_micros)
            .field(
                "payload",
                &format_args!("Payload({}B)", self.payload().len()),
            )
            .finish()
    }
}

impl Event {
    /// Starts building an event of type `event_type`.
    pub fn builder(event_type: impl Into<String>) -> EventBuilder {
        EventBuilder {
            event_type: event_type.into(),
            ..EventBuilder::default()
        }
    }

    /// Creates an event with a type name and no attributes.
    pub fn new(event_type: impl Into<String>) -> Self {
        Event::builder(event_type).build()
    }

    /// The event whose encoding `message` is, kept in `message`: what is
    /// asked of the heap is the attribute table and the shared body.
    /// [`from_bytes`](crate::codec::from_bytes) gives the same event from
    /// a borrowed slice, for one copy of the slice more.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] if the input is truncated, malformed, or
    /// has trailing bytes.
    pub fn from_message(message: Vec<u8>) -> Result<Event, CodecError> {
        Event::adopt(message, 0, |_| Ok(())).map(|(event, ())| event)
    }

    /// Adopts the event encoded at `message[at..]`; `rest` reads whatever
    /// the enclosing format puts after it, and must leave nothing over.
    pub(crate) fn adopt<T>(
        message: Vec<u8>,
        at: usize,
        rest: impl FnOnce(&mut Reader<'_>) -> Result<T, CodecError>,
    ) -> Result<(Event, T), CodecError> {
        let mut r = Reader::new(&message);
        r.skip(at)?;
        let (scanned, stamp) = scan(&mut r)?;
        let rest = rest(&mut r)?;
        if !r.is_empty() {
            return Err(CodecError::TrailingBytes(r.remaining()));
        }
        let body = Body::adopt(message, scanned);
        Ok((Event::from_body(body, stamp), rest))
    }

    fn from_body(body: Body, (publisher, seq, timestamp_micros): Stamp) -> Event {
        Event {
            body: Arc::new(body),
            publisher,
            seq,
            timestamp_micros,
        }
    }

    /// The event's type name.
    pub fn event_type(&self) -> &str {
        self.body.event_type()
    }

    /// The event's attributes.
    pub fn attributes(&self) -> Attributes<'_> {
        Attributes { body: &self.body }
    }

    /// This event with attribute `name` set to `value` — added, or in
    /// place of the value it had. The content is written out once more;
    /// `self`, and whoever shares it, is untouched.
    pub fn with_attr(&self, name: &str, value: impl Into<AttributeValue>) -> Event {
        let mut attrs: Vec<(&str, AttributeValue)> = Vec::with_capacity(self.body.table.len() + 1);
        attrs.extend(self.attributes().iter().map(|(n, v)| (n, v.clone())));
        match self.body.find(name) {
            Ok(i) => attrs[i].1 = value.into(),
            Err(i) => attrs.insert(i, (name, value.into())),
        }
        let body = Body::write(self.event_type(), attrs.into_iter(), self.payload());
        Event::from_body(body, (self.publisher, self.seq, self.timestamp_micros))
    }

    /// The publishing service.
    pub fn publisher(&self) -> ServiceId {
        self.publisher
    }

    /// The publisher-local sequence number (0 until stamped by a proxy).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The globally unique identifier of this event.
    pub fn id(&self) -> EventId {
        EventId::new(self.publisher, self.seq)
    }

    /// The publication timestamp in microseconds.
    pub fn timestamp_micros(&self) -> u64 {
        self.timestamp_micros
    }

    /// The opaque bulk payload (possibly empty). Clones of an event read
    /// the same bytes.
    pub fn payload(&self) -> &[u8] {
        self.body.bytes(self.body.payload)
    }

    /// Stamps publisher identity and sequence number.
    ///
    /// Proxies call this exactly once when accepting an event from a device;
    /// user code normally never needs it. A stamp copies nothing, however
    /// many clones share the event's content.
    pub fn stamp(&mut self, publisher: ServiceId, seq: u64, timestamp_micros: u64) {
        self.publisher = publisher;
        self.seq = seq;
        self.timestamp_micros = timestamp_micros;
    }

    /// Convenience: the value of attribute `name`.
    pub fn attr(&self, name: &str) -> Option<&AttributeValue> {
        self.attributes().get(name)
    }

    /// Total approximate size of the event's variable content in bytes
    /// (type name + attribute names/values + payload). Used by throughput
    /// accounting; worked out once, when the content was written or
    /// adopted.
    pub fn content_len(&self) -> usize {
        self.body.content_len
    }

    /// The event's encoding in the three runs it is made of: the body up
    /// to the stamp, the stamp written from the event's own fields, and
    /// the rest of the body. Concatenated they are what `Encode` writes.
    pub(crate) fn encoding_runs(&self) -> (&[u8], [u8; STAMP_LEN], &[u8]) {
        let (head, rest) = self
            .body
            .encoding()
            .split_at(2 + self.body.event_type.len as usize);
        let mut stamp = [0; STAMP_LEN];
        stamp[..6].copy_from_slice(&self.publisher.raw().to_le_bytes()[..6]);
        stamp[6..14].copy_from_slice(&self.seq.to_le_bytes());
        stamp[14..].copy_from_slice(&self.timestamp_micros.to_le_bytes());
        (head, stamp, &rest[STAMP_LEN..])
    }

    /// Length of the event's encoding.
    pub(crate) fn encoded_len(&self) -> usize {
        self.body.encoding().len()
    }
}

impl Encode for Event {
    /// One copy of the body, the stamp patched in.
    fn encode(&self, buf: &mut BytesMut) {
        let (head, stamp, _) = self.encoding_runs();
        let stamp_at = buf.len() + head.len();
        buf.put_slice(self.body.encoding());
        buf[stamp_at..stamp_at + STAMP_LEN].copy_from_slice(&stamp);
    }
}

impl Decode for Event {
    /// Copies the event's bytes out of the input once and adopts the copy.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let mut own = Reader::new(r.rest());
        let (scanned, stamp) = scan(&mut own)?;
        let encoding = r.rest()[..own.position()].to_vec();
        r.skip(encoding.len())?;
        Ok(Event::from_body(Body::adopt(encoding, scanned), stamp))
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}](", self.event_type(), self.id())?;
        for (i, (n, v)) in self.attributes().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{n}={v}")?;
        }
        write!(f, ")")?;
        if !self.payload().is_empty() {
            write!(f, "+{}B", self.payload().len())?;
        }
        Ok(())
    }
}

/// Builder for [`Event`] (see [`Event::builder`]).
#[derive(Debug, Clone, Default)]
pub struct EventBuilder {
    event_type: String,
    attributes: AttributeSet,
    payload: Vec<u8>,
    publisher: ServiceId,
    seq: u64,
    timestamp_micros: u64,
}

impl EventBuilder {
    /// Adds (or replaces) an attribute.
    pub fn attr(mut self, name: impl Into<String>, value: impl Into<AttributeValue>) -> Self {
        self.attributes.insert(name, value);
        self
    }

    /// Sets the publisher identity.
    pub fn publisher(mut self, publisher: ServiceId) -> Self {
        self.publisher = publisher;
        self
    }

    /// Sets the sequence number.
    pub fn seq(mut self, seq: u64) -> Self {
        self.seq = seq;
        self
    }

    /// Sets the publication timestamp in microseconds.
    pub fn timestamp_micros(mut self, micros: u64) -> Self {
        self.timestamp_micros = micros;
        self
    }

    /// Attaches an opaque bulk payload: a `Vec<u8>`, a `&[u8]` or a byte
    /// array.
    pub fn payload(mut self, payload: impl Into<Vec<u8>>) -> Self {
        self.payload = payload.into();
        self
    }

    /// Finishes building the event: writes its content out in wire form,
    /// which is what the event keeps and every send copies.
    ///
    /// # Panics
    ///
    /// Panics on content no encoder ever accepted: a name or string
    /// longer than [`MAX_STR_LEN`](crate::codec::MAX_STR_LEN), a payload
    /// or byte value longer than
    /// [`MAX_BYTES_LEN`](crate::codec::MAX_BYTES_LEN), more attributes
    /// than a `u16` counts.
    pub fn build(self) -> Event {
        let body = Body::write(
            &self.event_type,
            self.attributes.entries.into_iter(),
            &self.payload,
        );
        Event::from_body(body, (self.publisher, self.seq, self.timestamp_micros))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{from_bytes, to_bytes};

    #[test]
    fn attribute_set_insert_get_remove() {
        let mut set = AttributeSet::new();
        assert!(set.is_empty());
        assert_eq!(set.insert("b", 2i64), None);
        assert_eq!(set.insert("a", 1i64), None);
        assert_eq!(set.insert("a", 10i64), Some(AttributeValue::Int(1)));
        assert_eq!(set.len(), 2);
        assert_eq!(set.get("a"), Some(&AttributeValue::Int(10)));
        assert!(set.contains("b"));
        assert_eq!(set.remove("a"), Some(AttributeValue::Int(10)));
        assert_eq!(set.remove("a"), None);
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn attribute_set_iterates_in_name_order() {
        let mut set = AttributeSet::new();
        set.insert("zeta", 1i64);
        set.insert("alpha", 2i64);
        set.insert("mid", 3i64);
        let names: Vec<&str> = set.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
    }

    #[test]
    fn attribute_set_from_iterator_dedups() {
        let set: AttributeSet = vec![
            ("x".to_string(), AttributeValue::Int(1)),
            ("a".to_string(), AttributeValue::Int(0)),
            ("x".to_string(), AttributeValue::Int(2)),
            ("x".to_string(), AttributeValue::Int(3)),
        ]
        .into_iter()
        .collect();
        assert_eq!(set.len(), 2);
        assert_eq!(set.get("x"), Some(&AttributeValue::Int(3)));
        assert_eq!(set.iter().next().map(|(n, _)| n), Some("a"));
    }

    #[test]
    fn builder_produces_expected_event() {
        let e = Event::builder("t.x")
            .attr("k", "v")
            .publisher(ServiceId::from_raw(5))
            .seq(9)
            .timestamp_micros(100)
            .payload(vec![1, 2, 3])
            .build();
        assert_eq!(e.event_type(), "t.x");
        assert_eq!(e.attr("k").and_then(|v| v.as_str()), Some("v"));
        assert_eq!(e.publisher(), ServiceId::from_raw(5));
        assert_eq!(e.seq(), 9);
        assert_eq!(e.timestamp_micros(), 100);
        assert_eq!(e.payload(), &[1, 2, 3]);
        assert_eq!(e.id(), EventId::new(ServiceId::from_raw(5), 9));
    }

    #[test]
    fn stamp_overwrites_identity() {
        let mut e = Event::new("t");
        e.stamp(ServiceId::from_raw(7), 3, 42);
        assert_eq!(e.publisher(), ServiceId::from_raw(7));
        assert_eq!(e.seq(), 3);
        assert_eq!(e.timestamp_micros(), 42);
    }

    #[test]
    fn content_len_counts_names_values_payload() {
        let e = Event::builder("ab") // 2
            .attr("cd", "efg") // 2 + 3
            .attr("n", 1i64) // 1 + 8
            .payload(vec![0u8; 10]) // 10
            .build();
        assert_eq!(e.content_len(), 2 + 2 + 3 + 1 + 8 + 10);
    }

    /// Worked out once per body, and the same figure however the body
    /// came to be.
    #[test]
    fn content_len_is_the_same_built_adopted_or_rewritten() {
        let e = Event::builder("ab")
            .attr("cd", "efg")
            .attr("n", 1i64)
            .payload(vec![0u8; 10])
            .build();
        let adopted = Event::from_message(to_bytes(&e)).unwrap();
        assert_eq!(adopted.content_len(), e.content_len());
        assert_eq!(e.with_attr("n", 2i64).content_len(), e.content_len());
        assert_eq!(e.with_attr("m", true).content_len(), e.content_len() + 9);
    }

    #[test]
    fn cloned_event_shares_payload_buffer() {
        let e = Event::builder("t").payload(vec![9u8; 64]).build();
        let copies: Vec<Event> = (0..8).map(|_| e.clone()).collect();
        for c in &copies {
            assert!(
                std::ptr::eq(c.payload(), e.payload()),
                "clone must share, not copy, the payload buffer"
            );
        }
    }

    #[test]
    fn an_adopted_event_reads_out_of_its_message() {
        let e = Event::builder("t.x")
            .attr("k", "v")
            .payload(vec![9u8; 64])
            .build();
        let message = to_bytes(&e);
        let held = message.as_ptr_range();
        let adopted = Event::from_message(message).unwrap();
        assert_eq!(adopted, e);
        for part in [adopted.event_type().as_bytes(), adopted.payload()] {
            assert!(held.contains(&part.as_ptr()), "a slice of the message");
        }
        let (name, _) = adopted.attributes().iter().next().unwrap();
        assert!(held.contains(&name.as_ptr()));
    }

    #[test]
    fn with_attr_adds_or_replaces_in_a_copy() {
        let e = Event::builder("t")
            .attr("b", 1i64)
            .seq(4)
            .payload(vec![1, 2])
            .build();
        let added = e.with_attr("a", true);
        let replaced = e.with_attr("b", 2i64);
        assert_eq!(e.attributes().len(), 1);
        assert_eq!(e.attr("b"), Some(&AttributeValue::Int(1)));
        let names: Vec<&str> = added.attributes().iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["a", "b"]);
        assert_eq!(replaced.attr("b"), Some(&AttributeValue::Int(2)));
        assert_eq!((added.seq(), added.payload()), (4, &[1u8, 2][..]));
        // What a builder would have made.
        let built = Event::builder("t")
            .attr("a", true)
            .attr("b", 1i64)
            .seq(4)
            .payload(vec![1, 2])
            .build();
        assert_eq!(added, built);
        assert_eq!(to_bytes(&added), to_bytes(&built));
    }

    /// Hand-written wire form: names descending, one of them twice.
    #[test]
    fn a_body_out_of_order_is_normalised_not_trusted() {
        let mut wire = BytesMut::new();
        wire.put_str("t");
        wire.put_slice(&[0; STAMP_LEN]);
        wire.put_u16_le(3);
        for (name, value) in [("z", 1i64), ("a", 2), ("z", 3)] {
            wire.put_str(name);
            AttributeValue::Int(value).encode(&mut wire);
        }
        wire.put_bytes_field(&[7, 7]);
        let expected = Event::builder("t")
            .attr("a", 2i64)
            .attr("z", 3i64)
            .payload(vec![7, 7])
            .build();
        let adopted = Event::from_message(wire.to_vec()).unwrap();
        let copied: Event = from_bytes(&wire).unwrap();
        for event in [adopted, copied] {
            assert_eq!(event, expected);
            assert_eq!(event.attr("z"), Some(&AttributeValue::Int(3)));
            assert_eq!(to_bytes(&event), to_bytes(&expected));
        }
    }

    #[test]
    fn debug_prints_the_fields_as_they_always_did() {
        let e = Event::builder("t")
            .attr("a", 1i64)
            .attr("s", "x")
            .seq(2)
            .payload(vec![0u8; 4])
            .build();
        assert_eq!(
            format!("{e:?}"),
            format!(
                "Event {{ event_type: \"t\", attributes: AttributeSet {{ entries: \
                 [(\"a\", Int(1)), (\"s\", Str(\"x\"))] }}, publisher: {:?}, seq: 2, \
                 timestamp_micros: 0, payload: Payload(4B) }}",
                ServiceId::default()
            )
        );
    }

    #[test]
    fn display_contains_type_and_attrs() {
        let e = Event::builder("t")
            .attr("a", 1i64)
            .payload(vec![0u8; 4])
            .build();
        let s = e.to_string();
        assert!(s.contains("t["));
        assert!(s.contains("a=1"));
        assert!(s.contains("+4B"));
    }
}
