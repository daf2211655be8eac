//! Events: the unit of communication on the SMC event bus.

use std::fmt;
use std::sync::Arc;

use crate::id::{EventId, ServiceId};
use crate::value::AttributeValue;

/// An immutable, reference-counted bulk payload.
///
/// Cloning a `Payload` — and therefore cloning an [`Event`] — shares the
/// underlying buffer instead of copying it. This is what makes fan-out to
/// N subscribers allocation-free: every delivered copy of an event points
/// at the same bytes. Use [`Payload::ptr_eq`] to assert sharing in tests.
///
/// ```
/// use smc_types::event::Payload;
///
/// let p = Payload::from(vec![1u8, 2, 3]);
/// let q = p.clone();
/// assert!(p.ptr_eq(&q));
/// assert_eq!(q.as_slice(), &[1, 2, 3]);
/// ```
#[derive(Clone)]
pub struct Payload(Arc<[u8]>);

impl Payload {
    /// The shared empty payload. Cloning it never allocates.
    pub fn empty() -> Self {
        static EMPTY: std::sync::OnceLock<Arc<[u8]>> = std::sync::OnceLock::new();
        Payload(Arc::clone(EMPTY.get_or_init(|| Arc::from(&[][..]))))
    }

    /// The payload bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }

    /// The shared buffer itself; cloning the returned `Arc` is refcount-only.
    pub fn as_arc(&self) -> &Arc<[u8]> {
        &self.0
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Returns `true` if the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Returns `true` if `self` and `other` share the same buffer (not
    /// merely equal contents).
    pub fn ptr_eq(&self, other: &Payload) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Default for Payload {
    fn default() -> Self {
        Payload::empty()
    }
}

impl std::ops::Deref for Payload {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for Payload {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        // Content equality; shared-buffer clones short-circuit.
        Arc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}

impl Eq for Payload {}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Payload({}B)", self.0.len())
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Self {
        if v.is_empty() {
            Payload::empty()
        } else {
            Payload(Arc::from(v))
        }
    }
}

impl From<&[u8]> for Payload {
    fn from(v: &[u8]) -> Self {
        if v.is_empty() {
            Payload::empty()
        } else {
            Payload(Arc::from(v))
        }
    }
}

impl<const N: usize> From<[u8; N]> for Payload {
    fn from(v: [u8; N]) -> Self {
        Payload::from(&v[..])
    }
}

impl<const N: usize> From<&[u8; N]> for Payload {
    fn from(v: &[u8; N]) -> Self {
        Payload::from(&v[..])
    }
}

impl From<Arc<[u8]>> for Payload {
    fn from(v: Arc<[u8]>) -> Self {
        Payload(v)
    }
}

impl From<Payload> for Arc<[u8]> {
    fn from(p: Payload) -> Self {
        p.0
    }
}

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

    /// An empty set with room for `capacity` attributes.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        AttributeSet {
            entries: Vec::with_capacity(capacity),
        }
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
        let mut set = AttributeSet::new();
        for (n, v) in iter {
            set.insert(n, v);
        }
        set
    }
}

impl Extend<(String, AttributeValue)> for AttributeSet {
    fn extend<T: IntoIterator<Item = (String, AttributeValue)>>(&mut self, iter: T) {
        for (n, v) in iter {
            self.insert(n, v);
        }
    }
}

/// The part of an [`Event`] a stamp never touches.
#[derive(Debug, Clone, PartialEq, Default)]
struct Body {
    event_type: String,
    attributes: AttributeSet,
    payload: Payload,
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
/// The first mutation of a clone's attributes
/// ([`Event::attributes_mut`]) copies them if anyone else still holds
/// them — the original never changes.
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
#[derive(Clone, PartialEq, Default)]
pub struct Event {
    body: Arc<Body>,
    publisher: ServiceId,
    seq: u64,
    timestamp_micros: u64,
}

impl fmt::Debug for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Flat, as the fields read through the accessors.
        f.debug_struct("Event")
            .field("event_type", &self.body.event_type)
            .field("attributes", &self.body.attributes)
            .field("publisher", &self.publisher)
            .field("seq", &self.seq)
            .field("timestamp_micros", &self.timestamp_micros)
            .field("payload", &self.body.payload)
            .finish()
    }
}

impl Event {
    /// Starts building an event of type `event_type`.
    pub fn builder(event_type: impl Into<String>) -> EventBuilder {
        EventBuilder {
            body: Body {
                event_type: event_type.into(),
                ..Body::default()
            },
            publisher: ServiceId::default(),
            seq: 0,
            timestamp_micros: 0,
        }
    }

    /// Creates an event with a type name and no attributes.
    pub fn new(event_type: impl Into<String>) -> Self {
        Event::builder(event_type).build()
    }

    /// Assembles a decoded event from its fields as they came off the
    /// wire.
    pub(crate) fn from_parts(
        event_type: String,
        attributes: AttributeSet,
        payload: Payload,
        publisher: ServiceId,
        seq: u64,
        timestamp_micros: u64,
    ) -> Self {
        Event {
            body: Arc::new(Body {
                event_type,
                attributes,
                payload,
            }),
            publisher,
            seq,
            timestamp_micros,
        }
    }

    /// The event's type name.
    pub fn event_type(&self) -> &str {
        &self.body.event_type
    }

    /// The event's attributes.
    pub fn attributes(&self) -> &AttributeSet {
        &self.body.attributes
    }

    /// Mutable access to the attributes. If a clone of this event still
    /// shares them they are copied first, so the clone is unaffected.
    pub fn attributes_mut(&mut self) -> &mut AttributeSet {
        &mut Arc::make_mut(&mut self.body).attributes
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

    /// The opaque bulk payload (possibly empty).
    pub fn payload(&self) -> &[u8] {
        &self.body.payload
    }

    /// The shared payload handle. Cloning it (or the whole event) shares
    /// the underlying buffer — see [`Payload`].
    pub fn payload_shared(&self) -> &Payload {
        &self.body.payload
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
        self.body.attributes.get(name)
    }

    /// Total approximate size of the event's variable content in bytes
    /// (type name + attribute names/values + payload). Used by throughput
    /// accounting.
    pub fn content_len(&self) -> usize {
        let attrs: usize = self
            .body
            .attributes
            .iter()
            .map(|(n, v)| {
                n.len()
                    + match v {
                        AttributeValue::Str(s) => s.len(),
                        AttributeValue::Bytes(b) => b.len(),
                        _ => 8,
                    }
            })
            .sum();
        self.body.event_type.len() + attrs + self.body.payload.len()
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
    body: Body,
    publisher: ServiceId,
    seq: u64,
    timestamp_micros: u64,
}

impl EventBuilder {
    /// Adds (or replaces) an attribute.
    pub fn attr(mut self, name: impl Into<String>, value: impl Into<AttributeValue>) -> Self {
        self.body.attributes.insert(name, value);
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

    /// Attaches an opaque bulk payload. Accepts `Vec<u8>`, `&[u8]`,
    /// byte arrays, or an already-shared [`Payload`]/`Arc<[u8]>`.
    pub fn payload(mut self, payload: impl Into<Payload>) -> Self {
        self.body.payload = payload.into();
        self
    }

    /// Finishes building the event.
    pub fn build(self) -> Event {
        Event {
            body: Arc::new(self.body),
            publisher: self.publisher,
            seq: self.seq,
            timestamp_micros: self.timestamp_micros,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            ("x".to_string(), AttributeValue::Int(2)),
        ]
        .into_iter()
        .collect();
        assert_eq!(set.len(), 1);
        assert_eq!(set.get("x"), Some(&AttributeValue::Int(2)));
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

    #[test]
    fn cloned_event_shares_payload_buffer() {
        let e = Event::builder("t").payload(vec![9u8; 64]).build();
        let copies: Vec<Event> = (0..8).map(|_| e.clone()).collect();
        for c in &copies {
            assert!(
                c.payload_shared().ptr_eq(e.payload_shared()),
                "clone must share, not copy, the payload buffer"
            );
        }
    }

    #[test]
    fn empty_payloads_share_one_static_buffer() {
        let a = Event::new("a");
        let b = Event::new("b");
        assert!(a.payload_shared().ptr_eq(b.payload_shared()));
        assert!(Payload::empty().ptr_eq(&Payload::from(Vec::new())));
    }

    #[test]
    fn payload_equality_is_by_content() {
        assert_eq!(Payload::from(vec![1, 2]), Payload::from(vec![1, 2]));
        assert_ne!(Payload::from(vec![1, 2]), Payload::from(vec![1, 3]));
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
