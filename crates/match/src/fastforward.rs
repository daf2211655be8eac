//! The forwarding table — the "C-based" bus's engine.
//!
//! A filter is indexed in exactly one of two ways, chosen by its own shape:
//!
//! * **No equality constraint: counting**, after Siena's *fast forwarding*
//!   (Carzaniga & Wolf, "Forwarding in a Content-Based Network",
//!   SIGCOMM'03), which the paper's dedicated C matcher was based on.
//!   Identical constraints are stored once and shared by every filter that
//!   uses them; they are indexed per attribute name in sorted threshold
//!   arrays; matching walks the event's attributes, visits each satisfied
//!   constraint and bumps a counter for every filter posted under it — a
//!   filter fires when its count reaches its constraint total. A constraint
//!   sits in the per-name index only while such a filter is posted under it.
//! * **At least one equality constraint: clustering**, after Fabret et al.
//!   ("Filtering Algorithms and Implementation for Very Fast
//!   Publish/Subscribe Systems", SIGMOD'01). The filter joins the cluster
//!   keyed by the sorted set of attribute names its equalities test, in the
//!   bucket keyed by a hash of their normalised values. An event probes
//!   each cluster whose names it carries with one hash and one lookup, and
//!   every member of the bucket is then verified — so hash collisions cost
//!   time, never a wrong answer, and no per-filter counter is touched. A
//!   bucket is one flat array of rows, each holding the member's filter
//!   id, its interned event-type id and its constraint ids (those the
//!   bucket did not select on first, its equalities last), so verifying a
//!   member reads its row, compares two integers for the type, and asks
//!   the *predicate memo* for each constraint: as in Fabret et al., a
//!   predicate is evaluated at most once per event — the first time a
//!   member needs it — however many members share it, and an attribute
//!   is looked up in the event once per match. A filter whose equalities
//!   cannot all hold is registered but posted nowhere.
//!
//! No representation translation happens on the hot path: the engine reads
//! the event's attributes in place and allocates nothing.
//!
//! The matchable table shares structure with its snapshots: every piece
//! sits behind an [`Arc`], [`Matcher::snapshot`] clones the handful of
//! top-level pointers, and a control operation copies only the pieces it
//! changes ([`Arc::make_mut`]). The four vectors indexed by id — filter
//! entries, constraint records, posting lists and clusters — are chunked:
//! a write copies the vector's spine, one pointer per 64 slots, and the
//! one 64-slot chunk it lands in, never the whole vector. What a control
//! operation copies still grows with the table in three places: those
//! spines, by a pointer per 64 slots; a cluster's bucket map, by an entry
//! per distinct combination of equality values; and the one bucket it
//! writes, by a row per filter that shares that bucket's values.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::Arc;

use smc_types::{
    AttributeValue, Constraint, Error, Event, Op, Result, ServiceId, Subscription, SubscriptionId,
};

use crate::engine::{MatchScratch, Matcher, RouteSnapshot};

/// Hashable canonical form of an equality-comparable value.
///
/// Numeric values are normalised into f64 bit-space so that `Int(5)` and
/// `Double(5.0)` share a key — mirroring the reference semantics, where all
/// numeric comparison happens after conversion to `f64`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum ValueKey {
    Bool(bool),
    /// Bits of the f64 normalisation (`-0.0` folded onto `0.0`).
    Num(u64),
    Str(String),
    Bytes(Vec<u8>),
}

/// Returns the interning key for a value, or `None` when the value can
/// never equal anything (NaN).
fn value_key(v: &AttributeValue) -> Option<ValueKey> {
    match v {
        AttributeValue::Bool(b) => Some(ValueKey::Bool(*b)),
        AttributeValue::Int(i) => Some(ValueKey::Num(norm_bits(*i as f64))),
        AttributeValue::Double(d) if d.is_nan() => None,
        AttributeValue::Double(d) => Some(ValueKey::Num(norm_bits(*d))),
        AttributeValue::Str(s) => Some(ValueKey::Str(s.clone())),
        AttributeValue::Bytes(b) => Some(ValueKey::Bytes(b.clone())),
    }
}

/// Feeds `v` to `state` with the folding [`value_key`] applies, borrowing
/// the value instead of copying it: values equal under
/// [`AttributeValue::eq_filter`] hash alike. Returns `false` for NaN, which
/// equals nothing.
fn hash_value(v: &AttributeValue, state: &mut impl Hasher) -> bool {
    match v {
        AttributeValue::Bool(b) => (0u8, b).hash(state),
        AttributeValue::Int(i) => (1u8, norm_bits(*i as f64)).hash(state),
        AttributeValue::Double(d) if d.is_nan() => return false,
        AttributeValue::Double(d) => (1u8, norm_bits(*d)).hash(state),
        AttributeValue::Str(s) => (2u8, s).hash(state),
        AttributeValue::Bytes(b) => (3u8, b).hash(state),
    }
    true
}

fn norm_bits(d: f64) -> u64 {
    // Fold -0.0 onto 0.0 so the two equal values share a key.
    if d == 0.0 {
        0.0f64.to_bits()
    } else {
        d.to_bits()
    }
}

type ConstraintId = usize;
type FilterId = usize;
type ClusterId = usize;
/// An interned event-type name.
type TypeId = u32;

/// The type id of a filter without a type restriction — and the one an
/// event whose type no filter names is given, which only such a filter
/// admits.
const ANY_TYPE: TypeId = TypeId::MAX;

/// Whether a filter of type `filter` admits an event of type `event`.
fn admits(filter: TypeId, event: TypeId) -> bool {
    filter == ANY_TYPE || filter == event
}

/// An id as a bucket row stores it.
fn row_id(id: usize) -> u32 {
    u32::try_from(id).expect("fewer than 2^32 filters and constraints")
}

/// Canonical identity of a constraint for sharing (`value` is `None` for
/// NaN).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ConstraintKey {
    name: String,
    op: Op,
    value: Option<ValueKey>,
}

fn constraint_key(c: &Constraint) -> ConstraintKey {
    ConstraintKey {
        name: c.name.clone(),
        op: c.op,
        value: value_key(&c.value),
    }
}

/// What the table knows about one attribute name: the constraints of
/// counting-path filters over it, and the clusters it leads.
#[derive(Debug, Default, Clone)]
struct NameIndex {
    /// `x > t` / `x >= t` over numeric thresholds, sorted by `t`.
    num_greater: Vec<(f64, bool, ConstraintId)>,
    /// `x < t` / `x <= t` over numeric thresholds, sorted by `t`.
    num_less: Vec<(f64, bool, ConstraintId)>,
    /// Existence tests: satisfied by any present value.
    exists: Vec<ConstraintId>,
    /// Everything else (string ops, `!=`, non-numeric ordering): evaluated
    /// directly. Small in practice.
    misc: Vec<ConstraintId>,
    /// Clusters whose first (smallest) name is this one, so an event finds
    /// each cluster it could satisfy from its own attributes, once.
    clusters: Vec<ClusterId>,
}

impl NameIndex {
    fn is_empty(&self) -> bool {
        self.num_greater.is_empty()
            && self.num_less.is_empty()
            && self.exists.is_empty()
            && self.misc.is_empty()
            && self.clusters.is_empty()
    }

    fn insert(&mut self, cid: ConstraintId, c: &Constraint) {
        debug_assert_ne!(c.op, Op::Eq, "equalities are clustered, not counted");
        match c.op {
            Op::Gt | Op::Ge | Op::Lt | Op::Le if c.value.is_numeric() => {
                let t = c.value.as_numeric().expect("numeric");
                // A NaN threshold orders against nothing: never satisfied,
                // so indexed nowhere (and it would break the sort order).
                if t.is_nan() {
                    return;
                }
                let list = match c.op {
                    Op::Gt | Op::Ge => &mut self.num_greater,
                    _ => &mut self.num_less,
                };
                let at = list.partition_point(|&(x, _, _)| x < t);
                list.insert(at, (t, matches!(c.op, Op::Ge | Op::Le), cid));
            }
            Op::Exists => self.exists.push(cid),
            _ => self.misc.push(cid),
        }
    }

    fn remove(&mut self, cid: ConstraintId, c: &Constraint) {
        match c.op {
            Op::Gt | Op::Ge if c.value.is_numeric() => {
                self.num_greater.retain(|&(_, _, x)| x != cid);
            }
            Op::Lt | Op::Le if c.value.is_numeric() => {
                self.num_less.retain(|&(_, _, x)| x != cid);
            }
            Op::Exists => self.exists.retain(|&x| x != cid),
            _ => self.misc.retain(|&x| x != cid),
        }
    }

    /// Invokes `satisfy` for every indexed constraint satisfied by `value`.
    fn visit_satisfied(
        &self,
        value: &AttributeValue,
        records: &Slots<Constraint>,
        satisfy: &mut impl FnMut(ConstraintId),
    ) {
        if let Some(v) = value.as_numeric() {
            if !v.is_nan() {
                // x > t (or >=): satisfied for thresholds below v.
                let hi = self.num_greater.partition_point(|&(t, _, _)| t < v);
                for &(_, _, cid) in &self.num_greater[..hi] {
                    satisfy(cid);
                }
                // Thresholds equal to v: only the inclusive (>=) ones.
                for &(t, incl, cid) in &self.num_greater[hi..] {
                    if t > v {
                        break;
                    }
                    if incl && t == v {
                        satisfy(cid);
                    }
                }
                // x < t (or <=): satisfied for thresholds above v.
                let lo = self.num_less.partition_point(|&(t, _, _)| t <= v);
                for &(_, _, cid) in &self.num_less[lo..] {
                    satisfy(cid);
                }
                // Thresholds equal to v: only the inclusive (<=) ones.
                let eq_start = self.num_less.partition_point(|&(t, _, _)| t < v);
                for &(t, incl, cid) in &self.num_less[eq_start..lo] {
                    debug_assert_eq!(t, v);
                    if incl {
                        satisfy(cid);
                    }
                }
            }
        }
        for &cid in &self.exists {
            satisfy(cid);
        }
        for &cid in &self.misc {
            let c = records[cid].as_ref().expect("indexed constraint is live");
            if c.matches_value(value) {
                satisfy(cid);
            }
        }
    }
}

/// The filters whose equality constraints test one set of attribute names.
#[derive(Debug, Clone)]
struct Cluster {
    /// The names, sorted and distinct.
    names: Arc<[String]>,
    /// Members by the hash of their equality values, taken in name order
    /// with [`hash_value`]. A bucket may hold colliding signatures: every
    /// member is verified against the event before it fires.
    buckets: HashMap<u64, Arc<Bucket>>,
}

/// The members of one bucket, one row each, back to back in one array:
/// `[filter id, type id, n, constraint id × n]`, the constraints in the
/// filter's verification order. Checking a member reads its row and
/// nothing else of the table.
#[derive(Debug, Clone, Default)]
struct Bucket(Vec<u32>);

/// A row's fixed part: filter id, type id, constraint count.
const ROW_HEAD: usize = 3;

impl Bucket {
    fn push(&mut self, fid: FilterId, type_id: TypeId, cids: &[ConstraintId]) {
        self.0.extend([row_id(fid), type_id, row_id(cids.len())]);
        self.0.extend(cids.iter().map(|&cid| row_id(cid)));
    }

    /// Removes the row of member `fid`.
    fn remove(&mut self, fid: FilterId) {
        let row_len = |at: usize| ROW_HEAD + self.0[at + 2] as usize;
        let mut at = 0;
        while self.0[at] as usize != fid {
            at += row_len(at);
        }
        let end = at + row_len(at);
        self.0.drain(at..end);
    }

    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// `(filter id, type id, constraint ids)` per member.
    fn rows(&self) -> impl Iterator<Item = (FilterId, TypeId, &[u32])> {
        let mut rest = &self.0[..];
        std::iter::from_fn(move || {
            let (&[fid, type_id, n], tail) = rest.split_first_chunk()?;
            let (cids, tail) = tail.split_at(n as usize);
            rest = tail;
            Some((fid as FilterId, type_id, cids))
        })
    }
}

/// Canonical identity of a filter for sharing.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct FilterKey {
    type_id: TypeId,
    constraint_ids: Vec<ConstraintId>,
}

/// Where a filter is posted — decided by the filter's shape alone.
#[derive(Debug, Clone, Copy)]
enum Posting {
    /// No constraints: in `match_all` or `empty_typed`.
    Unconditional,
    /// No equality: under each of its constraints, for the counting pass.
    Counted,
    /// At least one equality: in one bucket of one cluster.
    Clustered { cluster: ClusterId, signature: u64 },
    /// Equalities that cannot all hold (`== NaN`, or two values for one
    /// name): nowhere, it never fires.
    Unsatisfiable,
}

#[derive(Debug, Clone)]
struct FilterEntry {
    type_id: TypeId,
    /// Interned constraints, distinct, in verification order: equalities —
    /// which a bucket has already selected on — last.
    constraint_ids: Vec<ConstraintId>,
    subs: Vec<(SubscriptionId, ServiceId)>,
    posting: Posting,
}

#[derive(Debug, Clone)]
struct SubRecord {
    subscriber: ServiceId,
    filter: smc_types::Filter,
    filter_id: FilterId,
}

/// The forwarding-table engine.
///
/// # Example
///
/// ```
/// use smc_match::{FastForwardEngine, Matcher};
/// use smc_types::{Event, Filter, Op, ServiceId, Subscription, SubscriptionId};
///
/// let mut engine = FastForwardEngine::new();
/// engine.subscribe(Subscription::new(
///     SubscriptionId(1),
///     ServiceId::from_raw(0xA),
///     Filter::for_type("smc.sensor.reading").with(("spo2", Op::Lt, 90i64)),
/// ))?;
/// let low = Event::builder("smc.sensor.reading").attr("spo2", 85i64).build();
/// assert_eq!(engine.matching_subscriptions(&low), vec![SubscriptionId(1)]);
/// # Ok::<(), smc_types::Error>(())
/// ```
#[derive(Debug, Default)]
pub struct FastForwardEngine {
    /// The matchable forwarding table. Everything matching reads lives
    /// here; cloning it is what [`Matcher::snapshot`] does.
    table: FfTable,

    // Interning side tables: only control operations read them, so they
    // stay out of the table and are never copied for a snapshot.
    /// Filters holding each constraint, by constraint id.
    constraint_refs: Vec<usize>,
    free_records: Vec<ConstraintId>,
    constraint_lookup: HashMap<ConstraintKey, ConstraintId>,
    free_filters: Vec<FilterId>,
    filter_lookup: HashMap<FilterKey, FilterId>,
    free_clusters: Vec<ClusterId>,
    cluster_lookup: HashMap<Arc<[String]>, ClusterId>,
    /// Each interned type's name and the filters naming it, by type id.
    type_refs: Vec<(String, usize)>,
    free_types: Vec<TypeId>,

    subs: HashMap<SubscriptionId, SubRecord>,

    /// Scratch for the engine's own `&mut self` matching entry points.
    scratch: MatchScratch,
}

/// Slots per chunk of a [`Slots`] vector.
const CHUNK: usize = 64;

/// One fixed-size run of a [`Slots`] vector; slots past the end are `None`.
type Chunk<T> = [Option<Arc<T>>; CHUNK];

/// A slot vector shared with snapshots three times over — the spine of
/// chunk pointers, each fixed-size chunk and each element — so changing
/// one element copies the spine (one pointer per [`CHUNK`] slots), the
/// one chunk that holds it and that element, one heap request each, and
/// never another chunk. A spine and a chunk are each one allocation, with
/// their reference count in front: a copy is one request, not two.
#[derive(Debug, Clone)]
struct Slots<T> {
    chunks: Arc<[Arc<Chunk<T>>]>,
    /// Slots handed out so far, empty or not.
    len: usize,
}

impl<T> Default for Slots<T> {
    fn default() -> Self {
        Slots {
            chunks: Arc::new([]),
            len: 0,
        }
    }
}

impl<T> std::ops::Index<usize> for Slots<T> {
    type Output = Option<Arc<T>>;

    fn index(&self, i: usize) -> &Option<Arc<T>> {
        &self.chunks[i / CHUNK][i % CHUNK]
    }
}

impl<T> Slots<T> {
    fn len(&self) -> usize {
        self.len
    }

    /// Slot `i`, for writing: copies the spine and the slot's chunk if a
    /// snapshot shares them, and nothing else.
    fn slot_mut(&mut self, i: usize) -> &mut Option<Arc<T>> {
        let chunk = &mut Arc::make_mut(&mut self.chunks)[i / CHUNK];
        &mut Arc::make_mut(chunk)[i % CHUNK]
    }

    /// Appends an empty slot and returns its index; every [`CHUNK`]th
    /// grows the spine by a fresh chunk.
    fn push(&mut self) -> usize {
        if self.len == self.chunks.len() * CHUNK {
            let fresh = Arc::new(std::array::from_fn(|_| None));
            let spine = self.chunks.iter().cloned().chain([fresh]);
            self.chunks = spine.collect();
        }
        self.len += 1;
        self.len - 1
    }
}

/// The counted filters posted under one constraint, each with its
/// constraint total, so a counter update reads nothing but the counter.
type PostingList = Vec<(FilterId, u32)>;

/// The immutable-at-match-time part of the forwarding table. Matching only
/// ever reads it; all mutation happens through the owning
/// [`FastForwardEngine`]. Cloning it is a pointer bump per field.
#[derive(Debug, Default, Clone)]
struct FfTable {
    filters: Slots<FilterEntry>,
    records: Slots<Constraint>,
    /// By constraint id; `None` for a constraint no counted filter holds.
    postings: Slots<PostingList>,
    names: Arc<HashMap<Arc<str>, Arc<NameIndex>>>,
    clusters: Slots<Cluster>,
    /// Interned event types: a name gets its id with its first filter and
    /// loses it with its last, so only those two copy the map.
    types: Arc<HashMap<String, TypeId>>,
    /// Filters with zero constraints and a type restriction, by type.
    empty_typed: Arc<HashMap<TypeId, Vec<FilterId>>>,
    /// Filters with zero constraints and no type restriction.
    match_all: Arc<Vec<FilterId>>,
    /// Keys the bucket signatures. Per engine and random because the
    /// hashed values arrive from devices.
    hasher: RandomState,
}

/// The attributes one match has looked up in its event: the names the
/// constraints of one event's buckets test are few (a ward reading's are
/// three), so each is searched for once. Past [`Lookups::KEPT`] names
/// the oldest is forgotten, and looked up again if it is asked for.
struct Lookups<'a> {
    event: &'a Event,
    found: [(&'a str, Option<&'a AttributeValue>); Lookups::KEPT],
    /// Lookups made: the next one goes to `found[made % KEPT]`.
    made: usize,
}

impl<'a> Lookups<'a> {
    const KEPT: usize = 4;

    fn new(event: &'a Event) -> Self {
        Lookups {
            event,
            found: [("", None); Lookups::KEPT],
            made: 0,
        }
    }

    fn get(&mut self, name: &'a str) -> Option<&'a AttributeValue> {
        let kept = &self.found[..self.made.min(Lookups::KEPT)];
        if let Some(&(_, value)) = kept.iter().find(|&&(n, _)| n == name) {
            return value;
        }
        let value = self.event.attr(name);
        self.found[self.made % Lookups::KEPT] = (name, value);
        self.made += 1;
        value
    }
}

/// One match's predicates: each constraint is evaluated against the event
/// the first time a bucket member needs it, and its verdict read from the
/// caller's memo after that.
struct Predicates<'a> {
    records: &'a Slots<Constraint>,
    memo: &'a mut [(u64, bool)],
    generation: u64,
    attrs: Lookups<'a>,
}

impl Predicates<'_> {
    fn holds(&mut self, cid: u32) -> bool {
        let cid = cid as ConstraintId;
        let (generation, verdict) = self.memo[cid];
        if generation == self.generation {
            return verdict;
        }
        let records = self.records;
        let c = records[cid].as_ref().expect("held constraint is live");
        let verdict = self.attrs.get(&c.name).is_some_and(|v| c.matches_value(v));
        self.memo[cid] = (self.generation, verdict);
        verdict
    }
}

impl FfTable {
    /// Fills `scratch.fired` with the ids of all firing filters. Read-only
    /// over the table; all working memory is the caller's scratch.
    fn matching_filters_into(&self, event: &Event, scratch: &mut MatchScratch) {
        let MatchScratch {
            counters,
            verdicts,
            generation,
            fired,
        } = scratch;
        fired.clear();
        if counters.len() < self.filters.len() {
            counters.resize(self.filters.len(), (0, 0));
        }
        if verdicts.len() < self.records.len() {
            verdicts.resize(self.records.len(), (0, false));
        }
        *generation += 1;
        let generation = *generation;
        let event_type = self.types.get(event.event_type());
        let event_type = event_type.copied().unwrap_or(ANY_TYPE);

        let filters = &self.filters;
        let records = &self.records;
        let postings = &self.postings;
        let mut predicates = Predicates {
            records,
            memo: verdicts,
            generation,
            attrs: Lookups::new(event),
        };
        for (name, value) in event.attributes().iter() {
            let Some(idx) = self.names.get(name) else {
                continue;
            };
            idx.visit_satisfied(value, records, &mut |cid: ConstraintId| {
                let Some(list) = &postings[cid] else {
                    return;
                };
                for &(fid, needed) in list.iter() {
                    let slot = &mut counters[fid];
                    if slot.0 != generation {
                        *slot = (generation, 0);
                    }
                    slot.1 += 1;
                    if slot.1 == needed {
                        let entry = filters[fid].as_ref().expect("posted filter is live");
                        if admits(entry.type_id, event_type) {
                            fired.push(fid);
                        }
                    }
                }
            });
            for &cluster in &idx.clusters {
                let cluster = self.clusters[cluster]
                    .as_ref()
                    .expect("indexed cluster is live");
                self.probe(cluster, event_type, &mut predicates, fired);
            }
        }

        fired.extend(self.match_all.iter().copied());
        if let Some(list) = self.empty_typed.get(&event_type) {
            fired.extend(list.iter().copied());
        }
    }

    /// Appends to `fired` the members of `cluster` that match the event:
    /// one hash over the event's values for the cluster's names, one
    /// bucket lookup, then each member's row checked against the
    /// predicate memo.
    fn probe<'a>(
        &self,
        cluster: &'a Cluster,
        event_type: TypeId,
        predicates: &mut Predicates<'a>,
        fired: &mut Vec<FilterId>,
    ) {
        let mut state = self.hasher.build_hasher();
        for name in cluster.names.iter() {
            match predicates.attrs.get(name) {
                Some(value) if hash_value(value, &mut state) => {}
                _ => return,
            }
        }
        let Some(bucket) = cluster.buckets.get(&state.finish()) else {
            return;
        };
        for (fid, type_id, cids) in bucket.rows() {
            if admits(type_id, event_type) && cids.iter().all(|&cid| predicates.holds(cid)) {
                fired.push(fid);
            }
        }
    }

    /// Clears `out` and fills it with the distinct subscribers of the
    /// fired filters, sorted and de-duplicated.
    fn subscribers_into(&self, fired: &[FilterId], out: &mut Vec<ServiceId>) {
        out.clear();
        for &fid in fired {
            let entry = self.filters[fid].as_ref().expect("fired filter is live");
            out.extend(entry.subs.iter().map(|&(_, svc)| svc));
        }
        out.sort_unstable();
        out.dedup();
    }

    /// As [`FfTable::subscribers_into`] but for subscription ids.
    fn subscriptions_into(&self, fired: &[FilterId], out: &mut Vec<SubscriptionId>) {
        out.clear();
        for &fid in fired {
            let entry = self.filters[fid].as_ref().expect("fired filter is live");
            out.extend(entry.subs.iter().map(|&(s, _)| s));
        }
        out.sort_unstable();
        out.dedup();
    }
}

/// A frozen fast-forward table (see [`Matcher::snapshot`]).
#[derive(Debug)]
struct FfSnapshot {
    table: FfTable,
    subs: usize,
}

impl RouteSnapshot for FfSnapshot {
    fn matching_subscribers_into(
        &self,
        event: &Event,
        scratch: &mut MatchScratch,
        out: &mut Vec<ServiceId>,
    ) {
        self.table.matching_filters_into(event, scratch);
        self.table.subscribers_into(&scratch.fired, out);
    }

    fn len(&self) -> usize {
        self.subs
    }
}

/// Takes a free slot of `slots`, growing it when there is none.
fn take_slot<T>(slots: &mut Slots<T>, free: &mut Vec<usize>) -> usize {
    free.pop().unwrap_or_else(|| slots.push())
}

impl FastForwardEngine {
    /// Creates an empty engine.
    pub fn new() -> Self {
        FastForwardEngine::default()
    }

    fn record(&self, cid: ConstraintId) -> &Arc<Constraint> {
        let record = self.table.records[cid].as_ref();
        record.expect("interned constraint is live")
    }

    /// Finds or stores `c`, without taking a reference on it.
    fn intern_constraint(&mut self, c: &Constraint) -> ConstraintId {
        let key = constraint_key(c);
        if let Some(&cid) = self.constraint_lookup.get(&key) {
            return cid;
        }
        let cid = take_slot(&mut self.table.records, &mut self.free_records);
        if cid == self.constraint_refs.len() {
            // A new slot: the two tables beside `records` grow with it.
            self.constraint_refs.push(0);
            self.table.postings.push();
        }
        *self.table.records.slot_mut(cid) = Some(Arc::new(c.clone()));
        self.constraint_lookup.insert(key, cid);
        cid
    }

    fn release_constraint(&mut self, cid: ConstraintId) {
        self.constraint_refs[cid] -= 1;
        if self.constraint_refs[cid] > 0 {
            return;
        }
        let c = self.table.records.slot_mut(cid).take();
        let c = c.expect("releasing live constraint");
        self.constraint_lookup.remove(&constraint_key(&c));
        self.free_records.push(cid);
    }

    /// Finds or stores the type `name`, without taking a reference on it;
    /// a filter without a type gets [`ANY_TYPE`].
    fn intern_type(&mut self, name: Option<&str>) -> TypeId {
        let Some(name) = name else {
            return ANY_TYPE;
        };
        if let Some(&id) = self.table.types.get(name) {
            return id;
        }
        let id = self.free_types.pop().unwrap_or_else(|| {
            self.type_refs.push(Default::default());
            let id = TypeId::try_from(self.type_refs.len() - 1).ok();
            id.filter(|&id| id != ANY_TYPE)
                .expect("fewer than 2^32 - 1 types")
        });
        self.type_refs[id as usize] = (name.to_owned(), 0);
        Arc::make_mut(&mut self.table.types).insert(name.to_owned(), id);
        id
    }

    fn release_type(&mut self, id: TypeId) {
        if id == ANY_TYPE {
            return;
        }
        let (name, refs) = &mut self.type_refs[id as usize];
        *refs -= 1;
        if *refs == 0 {
            Arc::make_mut(&mut self.table.types).remove(std::mem::take(name).as_str());
            self.free_types.push(id);
        }
    }

    /// Applies `edit` to the index of `name`, creating the index on demand
    /// and dropping it once nothing is left in it.
    fn edit_name(&mut self, name: &str, edit: impl FnOnce(&mut NameIndex)) {
        let names = Arc::make_mut(&mut self.table.names);
        if !names.contains_key(name) {
            names.insert(Arc::from(name), Arc::default());
        }
        let idx = Arc::make_mut(names.get_mut(name).expect("present or just inserted"));
        edit(idx);
        if idx.is_empty() {
            names.remove(name);
        }
    }

    /// Posts counted filter `fid` under `cid`; the first posting puts the
    /// constraint into its name's index.
    fn post(&mut self, cid: ConstraintId, fid: FilterId, needed: u32) {
        let list = self.table.postings.slot_mut(cid).get_or_insert_default();
        let list = Arc::make_mut(list);
        list.push((fid, needed));
        if list.len() == 1 {
            let c = Arc::clone(self.record(cid));
            self.edit_name(&c.name, |idx| idx.insert(cid, &c));
        }
    }

    /// Undoes [`Self::post`]; the last posting takes the constraint out of
    /// its name's index.
    fn unpost(&mut self, cid: ConstraintId, fid: FilterId) {
        let slot = self.table.postings.slot_mut(cid);
        let list = Arc::make_mut(slot.as_mut().expect("posted constraint"));
        list.retain(|&(f, _)| f != fid);
        if list.is_empty() {
            *slot = None;
            let c = Arc::clone(self.record(cid));
            self.edit_name(&c.name, |idx| idx.remove(cid, &c));
        }
    }

    /// The cluster names and bucket signature of a filter whose equality
    /// constraints are `eqs`, taken in name order; `None` when they cannot
    /// all hold. Interning folded equal values onto one id, so two
    /// equalities left on one name differ in value.
    fn equality_signature(&self, eqs: &[ConstraintId]) -> Option<(Vec<String>, u64)> {
        let mut eqs: Vec<&Constraint> = eqs.iter().map(|&cid| &**self.record(cid)).collect();
        eqs.sort_unstable_by(|a, b| a.name.cmp(&b.name));
        if eqs.windows(2).any(|w| w[0].name == w[1].name) {
            return None;
        }
        let mut state = self.table.hasher.build_hasher();
        for c in &eqs {
            if !hash_value(&c.value, &mut state) {
                return None;
            }
        }
        let names = eqs.iter().map(|c| c.name.clone()).collect();
        Some((names, state.finish()))
    }

    /// Puts the row of `fid` — its type and its constraints in
    /// verification order — into the bucket `signature` of the cluster for
    /// `names`, creating the cluster on demand.
    fn cluster_insert(
        &mut self,
        names: Vec<String>,
        signature: u64,
        (fid, type_id, cids): (FilterId, TypeId, &[ConstraintId]),
    ) -> ClusterId {
        let id = match self.cluster_lookup.get(names.as_slice()) {
            Some(&id) => id,
            None => {
                let names: Arc<[String]> = names.into();
                let id = take_slot(&mut self.table.clusters, &mut self.free_clusters);
                *self.table.clusters.slot_mut(id) = Some(Arc::new(Cluster {
                    names: Arc::clone(&names),
                    buckets: HashMap::new(),
                }));
                self.edit_name(&names[0], |idx| idx.clusters.push(id));
                self.cluster_lookup.insert(names, id);
                id
            }
        };
        let slot = self.table.clusters.slot_mut(id).as_mut();
        let cluster = Arc::make_mut(slot.expect("looked-up cluster is live"));
        let bucket = cluster.buckets.entry(signature).or_default();
        if Arc::get_mut(bucket).is_none() {
            // A snapshot holds it: copy it once, with room for the new row.
            let mut rows = Vec::with_capacity(bucket.0.len() + ROW_HEAD + cids.len());
            rows.extend_from_slice(&bucket.0);
            *bucket = Arc::new(Bucket(rows));
        }
        let bucket = Arc::get_mut(bucket).expect("copied if it was shared");
        bucket.push(fid, type_id, cids);
        id
    }

    /// Undoes [`Self::cluster_insert`]; the last member takes the cluster
    /// with it.
    fn cluster_remove(&mut self, id: ClusterId, signature: u64, fid: FilterId) {
        let slot = self.table.clusters.slot_mut(id);
        let cluster = Arc::make_mut(slot.as_mut().expect("member's cluster is live"));
        let bucket = cluster.buckets.get_mut(&signature);
        let bucket = Arc::make_mut(bucket.expect("member's bucket is live"));
        bucket.remove(fid);
        if bucket.is_empty() {
            cluster.buckets.remove(&signature);
        }
        if cluster.buckets.is_empty() {
            let names = Arc::clone(&cluster.names);
            *slot = None;
            self.free_clusters.push(id);
            self.cluster_lookup.remove(&names);
            self.edit_name(&names[0], |idx| idx.clusters.retain(|&c| c != id));
        }
    }

    fn intern_filter(&mut self, filter: &smc_types::Filter) -> FilterId {
        // Canonical constraint-id list: interned, sorted, de-duplicated
        // (duplicate constraints in a conjunction are redundant).
        let mut cids: Vec<ConstraintId> = filter
            .constraints()
            .iter()
            .map(|c| self.intern_constraint(c))
            .collect();
        cids.sort_unstable();
        cids.dedup();
        let type_id = self.intern_type(filter.event_type());
        let key = FilterKey {
            type_id,
            constraint_ids: cids,
        };
        if let Some(&fid) = self.filter_lookup.get(&key) {
            // The entry holds its type and constraints, so interning
            // created none.
            return fid;
        }
        let fid = take_slot(&mut self.table.filters, &mut self.free_filters);
        for &cid in &key.constraint_ids {
            self.constraint_refs[cid] += 1;
        }
        if type_id != ANY_TYPE {
            self.type_refs[type_id as usize].1 += 1;
        }
        // Verification order: equalities — which a bucket has already
        // selected on — last.
        let mut cids = key.constraint_ids.clone();
        cids.sort_by_key(|&cid| self.record(cid).op == Op::Eq);
        let first_eq = cids.partition_point(|&cid| self.record(cid).op != Op::Eq);
        let posting = if cids.is_empty() {
            match type_id {
                ANY_TYPE => Arc::make_mut(&mut self.table.match_all).push(fid),
                _ => Arc::make_mut(&mut self.table.empty_typed)
                    .entry(type_id)
                    .or_default()
                    .push(fid),
            }
            Posting::Unconditional
        } else if first_eq == cids.len() {
            for &cid in &cids {
                self.post(cid, fid, cids.len() as u32);
            }
            Posting::Counted
        } else {
            match self.equality_signature(&cids[first_eq..]) {
                Some((names, signature)) => Posting::Clustered {
                    cluster: self.cluster_insert(names, signature, (fid, type_id, &cids)),
                    signature,
                },
                None => Posting::Unsatisfiable,
            }
        };
        *self.table.filters.slot_mut(fid) = Some(Arc::new(FilterEntry {
            type_id,
            constraint_ids: cids,
            subs: Vec::new(),
            posting,
        }));
        self.filter_lookup.insert(key, fid);
        fid
    }

    fn release_filter(&mut self, fid: FilterId) {
        let entry = self.table.filters.slot_mut(fid).take();
        let entry = entry.expect("releasing live filter");
        let type_id = entry.type_id;
        match entry.posting {
            Posting::Unconditional => match type_id {
                ANY_TYPE => Arc::make_mut(&mut self.table.match_all).retain(|&f| f != fid),
                _ => {
                    let empty_typed = Arc::make_mut(&mut self.table.empty_typed);
                    if let Some(list) = empty_typed.get_mut(&type_id) {
                        list.retain(|&f| f != fid);
                        if list.is_empty() {
                            empty_typed.remove(&type_id);
                        }
                    }
                }
            },
            Posting::Counted => {
                for &cid in &entry.constraint_ids {
                    self.unpost(cid, fid);
                }
            }
            Posting::Clustered { cluster, signature } => {
                self.cluster_remove(cluster, signature, fid);
            }
            Posting::Unsatisfiable => {}
        }
        for &cid in &entry.constraint_ids {
            self.release_constraint(cid);
        }
        self.release_type(type_id);
        let mut constraint_ids = entry.constraint_ids.clone();
        constraint_ids.sort_unstable();
        self.filter_lookup.remove(&FilterKey {
            type_id,
            constraint_ids,
        });
        self.free_filters.push(fid);
    }

    fn entry_mut(&mut self, fid: FilterId) -> &mut FilterEntry {
        let slot = self.table.filters.slot_mut(fid).as_mut();
        Arc::make_mut(slot.expect("subscribed filter is live"))
    }
}

impl Matcher for FastForwardEngine {
    fn name(&self) -> &'static str {
        "fastforward"
    }

    fn subscribe(&mut self, sub: Subscription) -> Result<()> {
        if self.subs.contains_key(&sub.id) {
            return Err(Error::AlreadyExists(sub.id.to_string()));
        }
        let fid = self.intern_filter(&sub.filter);
        self.entry_mut(fid).subs.push((sub.id, sub.subscriber));
        self.subs.insert(
            sub.id,
            SubRecord {
                subscriber: sub.subscriber,
                filter: sub.filter,
                filter_id: fid,
            },
        );
        Ok(())
    }

    fn unsubscribe(&mut self, id: SubscriptionId) -> Result<Subscription> {
        let rec = self
            .subs
            .remove(&id)
            .ok_or_else(|| Error::NotFound(id.to_string()))?;
        let fid = rec.filter_id;
        let entry = self.table.filters[fid].as_ref();
        if entry.expect("subscribed filter is live").subs.len() == 1 {
            self.release_filter(fid);
        } else {
            self.entry_mut(fid).subs.retain(|&(s, _)| s != id);
        }
        Ok(Subscription::new(id, rec.subscriber, rec.filter))
    }

    fn matching_subscriptions(&mut self, event: &Event) -> Vec<SubscriptionId> {
        self.table.matching_filters_into(event, &mut self.scratch);
        let mut out = Vec::new();
        self.table.subscriptions_into(&self.scratch.fired, &mut out);
        out
    }

    fn matching_subscribers(&mut self, event: &Event) -> Vec<ServiceId> {
        self.table.matching_filters_into(event, &mut self.scratch);
        let mut out = Vec::new();
        self.table.subscribers_into(&self.scratch.fired, &mut out);
        out
    }

    fn snapshot(&self) -> Arc<dyn RouteSnapshot> {
        Arc::new(FfSnapshot {
            table: self.table.clone(),
            subs: self.subs.len(),
        })
    }

    fn len(&self) -> usize {
        self.subs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smc_types::Filter;

    fn sub(id: u64, svc: u64, filter: Filter) -> Subscription {
        Subscription::new(SubscriptionId(id), ServiceId::from_raw(svc), filter)
    }

    #[test]
    fn counting_fires_only_full_conjunctions() {
        let mut m = FastForwardEngine::new();
        m.subscribe(sub(
            1,
            10,
            Filter::any()
                .with(("a", Op::Gt, 5i64))
                .with(("b", Op::Lt, 3i64)),
        ))
        .unwrap();
        let half = Event::builder("t").attr("a", 10i64).build();
        assert!(m.matching_subscriptions(&half).is_empty());
        let both = Event::builder("t").attr("a", 10i64).attr("b", 1i64).build();
        assert_eq!(m.matching_subscriptions(&both), vec![SubscriptionId(1)]);
        let wrong = Event::builder("t").attr("a", 10i64).attr("b", 9i64).build();
        assert!(m.matching_subscriptions(&wrong).is_empty());
    }

    #[test]
    fn range_boundaries() {
        let mut m = FastForwardEngine::new();
        m.subscribe(sub(1, 1, Filter::any().with(("x", Op::Gt, 5i64))))
            .unwrap();
        m.subscribe(sub(2, 2, Filter::any().with(("x", Op::Ge, 5i64))))
            .unwrap();
        m.subscribe(sub(3, 3, Filter::any().with(("x", Op::Lt, 5i64))))
            .unwrap();
        m.subscribe(sub(4, 4, Filter::any().with(("x", Op::Le, 5i64))))
            .unwrap();
        let at = |v: i64| Event::builder("t").attr("x", v).build();
        assert_eq!(
            m.matching_subscriptions(&at(5)),
            vec![SubscriptionId(2), SubscriptionId(4)]
        );
        assert_eq!(
            m.matching_subscriptions(&at(6)),
            vec![SubscriptionId(1), SubscriptionId(2)]
        );
        assert_eq!(
            m.matching_subscriptions(&at(4)),
            vec![SubscriptionId(3), SubscriptionId(4)]
        );
    }

    #[test]
    fn eq_cross_numeric() {
        let mut m = FastForwardEngine::new();
        m.subscribe(sub(1, 1, Filter::any().with(("x", Op::Eq, 5i64))))
            .unwrap();
        let d = Event::builder("t").attr("x", 5.0f64).build();
        assert_eq!(m.matching_subscriptions(&d).len(), 1);
        let near = Event::builder("t").attr("x", 5.1f64).build();
        assert!(m.matching_subscriptions(&near).is_empty());
    }

    #[test]
    fn negative_zero_equals_zero() {
        let mut m = FastForwardEngine::new();
        m.subscribe(sub(1, 1, Filter::any().with(("x", Op::Eq, 0i64))))
            .unwrap();
        let nz = Event::builder("t").attr("x", -0.0f64).build();
        assert_eq!(m.matching_subscriptions(&nz).len(), 1);
    }

    #[test]
    fn typed_empty_and_match_all() {
        let mut m = FastForwardEngine::new();
        m.subscribe(sub(1, 1, Filter::for_type("a"))).unwrap();
        m.subscribe(sub(2, 2, Filter::any())).unwrap();
        assert_eq!(
            m.matching_subscriptions(&Event::new("a")),
            vec![SubscriptionId(1), SubscriptionId(2)]
        );
        assert_eq!(
            m.matching_subscriptions(&Event::new("b")),
            vec![SubscriptionId(2)]
        );
    }

    #[test]
    fn typed_counted_filter_checks_type() {
        let mut m = FastForwardEngine::new();
        m.subscribe(sub(1, 1, Filter::for_type("a").with(("x", Op::Gt, 0i64))))
            .unwrap();
        let wrong_type = Event::builder("b").attr("x", 5i64).build();
        assert!(m.matching_subscriptions(&wrong_type).is_empty());
        let right = Event::builder("a").attr("x", 5i64).build();
        assert_eq!(m.matching_subscriptions(&right).len(), 1);
    }

    #[test]
    fn identical_filters_share_an_entry() {
        let mut m = FastForwardEngine::new();
        let f = Filter::for_type("a").with(("x", Op::Gt, 0i64));
        m.subscribe(sub(1, 1, f.clone())).unwrap();
        m.subscribe(sub(2, 2, f.clone())).unwrap();
        // One filter entry, one live constraint record.
        assert_eq!(m.filter_lookup.len(), 1);
        assert_eq!(m.constraint_lookup.len(), 1);
        let e = Event::builder("a").attr("x", 1i64).build();
        assert_eq!(m.matching_subscriptions(&e).len(), 2);
        m.unsubscribe(SubscriptionId(1)).unwrap();
        assert_eq!(m.filter_lookup.len(), 1);
        assert_eq!(m.matching_subscriptions(&e), vec![SubscriptionId(2)]);
        m.unsubscribe(SubscriptionId(2)).unwrap();
        assert_eq!(m.filter_lookup.len(), 0);
        assert_eq!(m.constraint_lookup.len(), 0);
        assert!(m.matching_subscriptions(&e).is_empty());
    }

    #[test]
    fn duplicate_constraint_in_filter_fires() {
        let mut m = FastForwardEngine::new();
        let f = Filter::any()
            .with(("x", Op::Gt, 0i64))
            .with(("x", Op::Gt, 0i64));
        m.subscribe(sub(1, 1, f)).unwrap();
        let e = Event::builder("t").attr("x", 1i64).build();
        assert_eq!(m.matching_subscriptions(&e), vec![SubscriptionId(1)]);
        m.unsubscribe(SubscriptionId(1)).unwrap();
        assert_eq!(m.constraint_lookup.len(), 0);
    }

    #[test]
    fn shared_constraints_across_filters() {
        let mut m = FastForwardEngine::new();
        m.subscribe(sub(1, 1, Filter::any().with(("x", Op::Gt, 5i64))))
            .unwrap();
        m.subscribe(sub(
            2,
            2,
            Filter::any()
                .with(("x", Op::Gt, 5i64))
                .with(("y", Op::Eq, "q")),
        ))
        .unwrap();
        assert_eq!(m.constraint_lookup.len(), 2);
        let e1 = Event::builder("t").attr("x", 9i64).build();
        assert_eq!(m.matching_subscriptions(&e1), vec![SubscriptionId(1)]);
        let e2 = Event::builder("t").attr("x", 9i64).attr("y", "q").build();
        assert_eq!(
            m.matching_subscriptions(&e2),
            vec![SubscriptionId(1), SubscriptionId(2)]
        );
        m.unsubscribe(SubscriptionId(2)).unwrap();
        assert_eq!(m.constraint_lookup.len(), 1);
        assert_eq!(m.matching_subscriptions(&e2), vec![SubscriptionId(1)]);
    }

    #[test]
    fn string_and_misc_ops() {
        let mut m = FastForwardEngine::new();
        m.subscribe(sub(1, 1, Filter::any().with(("s", Op::Prefix, "heart"))))
            .unwrap();
        m.subscribe(sub(2, 2, Filter::any().with(("x", Op::Ne, 5i64))))
            .unwrap();
        let e = Event::builder("t")
            .attr("s", "heart-rate")
            .attr("x", 6i64)
            .build();
        assert_eq!(
            m.matching_subscriptions(&e),
            vec![SubscriptionId(1), SubscriptionId(2)]
        );
        let e2 = Event::builder("t")
            .attr("s", "rate")
            .attr("x", 5i64)
            .build();
        assert!(m.matching_subscriptions(&e2).is_empty());
    }

    #[test]
    fn eq_nan_never_fires() {
        let mut m = FastForwardEngine::new();
        m.subscribe(sub(1, 1, Filter::any().with(("x", Op::Eq, f64::NAN))))
            .unwrap();
        let e = Event::builder("t").attr("x", f64::NAN).build();
        assert!(m.matching_subscriptions(&e).is_empty());
        m.unsubscribe(SubscriptionId(1)).unwrap();
        assert!(m.is_empty());
    }

    #[test]
    fn nan_event_value_matches_nothing_numeric() {
        let mut m = FastForwardEngine::new();
        m.subscribe(sub(1, 1, Filter::any().with(("x", Op::Gt, 0i64))))
            .unwrap();
        m.subscribe(sub(2, 2, Filter::any().with(("x", Op::Exists, 0i64))))
            .unwrap();
        let e = Event::builder("t").attr("x", f64::NAN).build();
        // Exists still fires; the range does not.
        assert_eq!(m.matching_subscriptions(&e), vec![SubscriptionId(2)]);
    }

    #[test]
    fn unsubscribe_reuses_slots() {
        let mut m = FastForwardEngine::new();
        for i in 0..10u64 {
            m.subscribe(sub(i, i, Filter::any().with(("x", Op::Gt, i as i64))))
                .unwrap();
        }
        for i in 0..10u64 {
            m.unsubscribe(SubscriptionId(i)).unwrap();
        }
        assert!(m.is_empty());
        assert_eq!(m.constraint_lookup.len(), 0);
        // Slots get reused rather than leaking.
        let before = m.table.records.len();
        m.subscribe(sub(99, 1, Filter::any().with(("x", Op::Gt, 1i64))))
            .unwrap();
        assert_eq!(m.table.records.len(), before);
    }

    /// `ward == w && kind == k && bpm >= t`, the shape a ward's monitors
    /// subscribe with.
    fn ward_filter(ward: i64, kind: &str, bpm: i64) -> Filter {
        Filter::for_type("r")
            .with(("ward", Op::Eq, ward))
            .with(("kind", Op::Eq, kind))
            .with(("bpm", Op::Ge, bpm))
    }

    fn reading(ward: i64, kind: &str, bpm: i64) -> Event {
        Event::builder("r")
            .attr("ward", ward)
            .attr("kind", kind)
            .attr("bpm", bpm)
            .build()
    }

    #[test]
    fn clustered_filters_are_selected_by_their_equalities() {
        let mut m = FastForwardEngine::new();
        m.subscribe(sub(1, 1, ward_filter(1, "hr", 100))).unwrap();
        m.subscribe(sub(2, 2, ward_filter(1, "hr", 150))).unwrap();
        m.subscribe(sub(3, 3, ward_filter(2, "hr", 100))).unwrap();
        m.subscribe(sub(4, 4, ward_filter(1, "spo2", 100))).unwrap();
        assert_eq!(
            m.matching_subscriptions(&reading(1, "hr", 120)),
            vec![SubscriptionId(1)]
        );
        assert_eq!(
            m.matching_subscriptions(&reading(1, "hr", 150)),
            vec![SubscriptionId(1), SubscriptionId(2)]
        );
        assert!(m.matching_subscriptions(&reading(3, "hr", 150)).is_empty());
        // A clustered name missing, or carrying another type.
        let no_kind = Event::builder("r").attr("ward", 1i64).attr("bpm", 150i64);
        assert!(m.matching_subscriptions(&no_kind.build()).is_empty());
        let ward_as_text = Event::builder("r")
            .attr("ward", "1")
            .attr("kind", "hr")
            .attr("bpm", 150i64);
        assert!(m.matching_subscriptions(&ward_as_text.build()).is_empty());
        // One cluster, found under its first name; nothing is counted.
        assert_eq!(m.cluster_lookup.len(), 1);
        assert_eq!(m.table.names.len(), 1);
        assert!(m.table.names["kind"].num_greater.is_empty());
        assert!((0..m.table.postings.len()).all(|cid| m.table.postings[cid].is_none()));
    }

    #[test]
    fn index_entries_live_only_while_something_is_posted() {
        let mut m = FastForwardEngine::new();
        m.subscribe(sub(1, 1, ward_filter(1, "hr", 100))).unwrap();
        assert!(!m.table.names.contains_key("bpm"));
        // A counted filter sharing the range constraint puts it in the index…
        m.subscribe(sub(
            2,
            2,
            Filter::for_type("r").with(("bpm", Op::Ge, 100i64)),
        ))
        .unwrap();
        assert_eq!(m.constraint_lookup.len(), 3);
        assert_eq!(m.table.names["bpm"].num_greater.len(), 1);
        assert_eq!(m.matching_subscriptions(&reading(1, "hr", 120)).len(), 2);
        // …and takes it out again, while the clustered filter still holds it.
        m.unsubscribe(SubscriptionId(2)).unwrap();
        assert!(!m.table.names.contains_key("bpm"));
        assert_eq!(m.constraint_lookup.len(), 3);
        assert_eq!(
            m.matching_subscriptions(&reading(1, "hr", 120)),
            vec![SubscriptionId(1)]
        );
        // The last member takes the cluster with it; its slot is reused.
        m.unsubscribe(SubscriptionId(1)).unwrap();
        assert!(m.table.names.is_empty() && m.cluster_lookup.is_empty());
        assert!(m.table.clusters.len() == 1 && m.table.clusters[0].is_none());
        m.subscribe(sub(3, 3, ward_filter(2, "hr", 100))).unwrap();
        assert_eq!(m.table.clusters.len(), 1);
        assert_eq!(m.matching_subscriptions(&reading(2, "hr", 120)).len(), 1);
    }

    #[test]
    fn unsatisfiable_filter_is_registered_but_never_fires() {
        let mut m = FastForwardEngine::new();
        let f = Filter::any()
            .with(("x", Op::Eq, 1i64))
            .with(("x", Op::Eq, 2i64));
        m.subscribe(sub(1, 1, f.clone())).unwrap();
        assert_eq!(m.len(), 1);
        assert_eq!(m.snapshot().len(), 1);
        assert!(m.table.names.is_empty() && m.table.clusters.len() == 0);
        for v in [1i64, 2] {
            let e = Event::builder("t").attr("x", v).build();
            assert!(m.matching_subscriptions(&e).is_empty());
        }
        assert_eq!(m.unsubscribe(SubscriptionId(1)).unwrap().filter, f);
        assert!(m.is_empty());
        assert_eq!(m.constraint_lookup.len(), 0);
    }

    #[test]
    fn nan_threshold_never_fires_and_leaves_the_order_intact() {
        let mut m = FastForwardEngine::new();
        m.subscribe(sub(1, 1, Filter::any().with(("x", Op::Ge, f64::NAN))))
            .unwrap();
        m.subscribe(sub(2, 2, Filter::any().with(("x", Op::Ge, 3i64))))
            .unwrap();
        m.subscribe(sub(3, 3, Filter::any().with(("x", Op::Le, f64::NAN))))
            .unwrap();
        m.subscribe(sub(4, 4, Filter::any().with(("x", Op::Le, -2i64))))
            .unwrap();
        let at = |v: i64| Event::builder("t").attr("x", v).build();
        assert!(m.matching_subscriptions(&at(0)).is_empty());
        assert_eq!(m.matching_subscriptions(&at(3)), vec![SubscriptionId(2)]);
        assert_eq!(m.matching_subscriptions(&at(-2)), vec![SubscriptionId(4)]);
    }

    /// The chunks of `after` that are not the very chunks of `before`.
    fn chunks_copied<T>(before: &Slots<T>, after: &Slots<T>) -> Vec<usize> {
        assert_eq!(before.chunks.len(), after.chunks.len());
        let copied = |&c: &usize| !Arc::ptr_eq(&before.chunks[c], &after.chunks[c]);
        (0..after.chunks.len()).filter(copied).collect()
    }

    /// Two tables cloned either side of one `subscribe` — what
    /// `snapshot()` freezes — share every chunk of every slot vector the
    /// operation did not write to, and every piece it did not change; the
    /// one chunk it wrote to is a copy.
    #[test]
    fn snapshots_share_what_a_subscribe_did_not_change() {
        let mut m = FastForwardEngine::new();
        // Four chunks of counted filters and constraints, and as many
        // clusters — one per name — plus two ward-shaped members.
        for i in 0..200u64 {
            let counted = Filter::any().with(("x", Op::Gt, i as i64));
            let clustered = Filter::any().with((format!("n{i:03}"), Op::Eq, 1i64));
            m.subscribe(sub(2 * i, 1, counted)).unwrap();
            m.subscribe(sub(2 * i + 1, 1, clustered)).unwrap();
        }
        m.subscribe(sub(400, 1, ward_filter(1, "hr", 100))).unwrap();
        // Free a slot of the filters, the constraints and the clusters,
        // each past the first chunk and before the last.
        let (fid, cluster, _) = posting_of(&m, 261);
        let cid = m.table.filters[fid].as_ref().unwrap().constraint_ids[0];
        m.unsubscribe(SubscriptionId(261)).unwrap();
        let before = m.table.clone();
        for (chunk, of) in [
            (fid / CHUNK, before.filters.chunks.len()),
            (cid / CHUNK, before.records.chunks.len()),
            (cluster / CHUNK, before.clusters.chunks.len()),
        ] {
            assert!(chunk >= 1 && chunk + 1 < of, "chunk {chunk} of {of}");
        }

        // A new cluster, filter and constraint, each in the slot just freed.
        m.subscribe(sub(401, 1, Filter::any().with(("m", Op::Eq, 1i64))))
            .unwrap();
        assert_eq!(posting_of(&m, 401), (fid, cluster, posting_of(&m, 401).2));
        let after = m.table.clone();
        assert_eq!(
            chunks_copied(&before.filters, &after.filters),
            [fid / CHUNK]
        );
        assert_eq!(
            chunks_copied(&before.records, &after.records),
            [cid / CHUNK]
        );
        assert_eq!(
            chunks_copied(&before.clusters, &after.clusters),
            [cluster / CHUNK]
        );
        assert!(chunks_copied(&before.postings, &after.postings).is_empty());
        assert!(Arc::ptr_eq(&before.postings.chunks, &after.postings.chunks));
        assert!(Arc::ptr_eq(&before.types, &after.types));
        assert!(!Arc::ptr_eq(&before.names, &after.names));

        // A second member of the ward cluster, in a bucket of its own: the
        // first bucket is shared, the cluster is a copy.
        let (_, ward, _) = posting_of(&m, 400);
        let before = m.table.clone();
        m.subscribe(sub(402, 1, ward_filter(2, "hr", 100))).unwrap();
        let after = m.table.clone();
        assert_eq!(
            chunks_copied(&before.clusters, &after.clusters),
            [ward / CHUNK]
        );
        let (old, new) = (&before.clusters[ward], &after.clusters[ward]);
        let (old, new) = (old.as_ref().unwrap(), new.as_ref().unwrap());
        assert!(!Arc::ptr_eq(old, new));
        assert_eq!((old.buckets.len(), new.buckets.len()), (1, 2));
        for (signature, bucket) in &old.buckets {
            assert!(Arc::ptr_eq(bucket, &new.buckets[signature]));
        }
        assert!(Arc::ptr_eq(&before.names, &after.names));

        // Each still answers for the moment it was taken.
        let event = reading(2, "hr", 120);
        let mut scratch = MatchScratch::new();
        before.matching_filters_into(&event, &mut scratch);
        assert!(scratch.fired.is_empty());
        after.matching_filters_into(&event, &mut scratch);
        assert_eq!(scratch.fired, vec![posting_of(&m, 402).0]);
    }

    fn rows(bucket: &Bucket) -> Vec<(FilterId, TypeId, Vec<u32>)> {
        let rows = bucket
            .rows()
            .map(|(fid, ty, cids)| (fid, ty, cids.to_vec()));
        rows.collect()
    }

    #[test]
    fn bucket_rows_of_any_length_come_out_as_they_went_in() {
        let mut bucket = Bucket::default();
        bucket.push(4, ANY_TYPE, &[7, 1, 2]);
        bucket.push(9, 0, &[]);
        bucket.push(2, 3, &[5, 6, 7, 8, 9, 10, 11]);
        assert_eq!(
            rows(&bucket),
            vec![
                (4, ANY_TYPE, vec![7, 1, 2]),
                (9, 0, vec![]),
                (2, 3, vec![5, 6, 7, 8, 9, 10, 11])
            ]
        );
        bucket.remove(9);
        bucket.remove(4);
        assert_eq!(rows(&bucket), vec![(2, 3, vec![5, 6, 7, 8, 9, 10, 11])]);
        bucket.remove(2);
        assert!(bucket.is_empty());
    }

    fn posting_of(m: &FastForwardEngine, id: u64) -> (FilterId, ClusterId, u64) {
        let fid = m.subs[&SubscriptionId(id)].filter_id;
        match m.table.filters[fid].as_ref().unwrap().posting {
            Posting::Clustered { cluster, signature } => (fid, cluster, signature),
            other => panic!("subscription {id} is posted {other:?}"),
        }
    }

    /// Two equality sets under one signature — what a hash collision
    /// makes: the event selects the bucket by its hash, and only the
    /// members whose equalities it meets fire.
    #[test]
    fn forced_two_signature_bucket_fires_only_members_whose_equalities_hold() {
        let mut m = FastForwardEngine::new();
        m.subscribe(sub(1, 1, ward_filter(1, "hr", 100))).unwrap();
        m.subscribe(sub(2, 2, ward_filter(2, "hr", 100))).unwrap();
        m.subscribe(sub(3, 3, ward_filter(1, "hr", 130))).unwrap();
        let (_, cluster, shared) = posting_of(&m, 1);
        let (moved, _, own) = posting_of(&m, 2);
        assert_ne!(shared, own);
        m.cluster_remove(cluster, own, moved);
        let entry = Arc::clone(m.table.filters[moved].as_ref().unwrap());
        let names = m.table.clusters[cluster].as_ref().unwrap().names.to_vec();
        m.cluster_insert(names, shared, (moved, entry.type_id, &entry.constraint_ids));
        m.entry_mut(moved).posting = Posting::Clustered {
            cluster,
            signature: shared,
        };
        let cluster_ref = m.table.clusters[cluster].as_ref().unwrap();
        assert_eq!(cluster_ref.buckets.len(), 1);
        assert_eq!(rows(&cluster_ref.buckets[&shared]).len(), 3);

        assert_eq!(
            m.matching_subscriptions(&reading(1, "hr", 140)),
            vec![SubscriptionId(1), SubscriptionId(3)]
        );
        assert_eq!(
            m.matching_subscriptions(&reading(1, "hr", 120)),
            vec![SubscriptionId(1)]
        );
        // Ward 2's own signature leads to no bucket any more.
        assert!(m.matching_subscriptions(&reading(2, "hr", 140)).is_empty());
        for id in 1..=3 {
            m.unsubscribe(SubscriptionId(id)).unwrap();
        }
        assert!(m.cluster_lookup.is_empty() && m.table.names.is_empty());
    }

    /// Typed members of two types and an untyped one in one bucket: the
    /// event's type is resolved once, and a type nobody subscribed to
    /// reaches the untyped member only.
    #[test]
    fn typed_and_untyped_members_share_a_bucket() {
        let clustered = |ty: Option<&str>| {
            ty.map_or_else(Filter::any, Filter::for_type)
                .with(("ward", Op::Eq, 1i64))
                .with(("bpm", Op::Ge, 100i64))
        };
        let mut m = FastForwardEngine::new();
        m.subscribe(sub(1, 1, clustered(Some("r")))).unwrap();
        m.subscribe(sub(2, 2, clustered(Some("q")))).unwrap();
        m.subscribe(sub(3, 3, clustered(None))).unwrap();
        let (_, cluster, signature) = posting_of(&m, 1);
        let bucket = &m.table.clusters[cluster].as_ref().unwrap().buckets[&signature];
        let types: Vec<TypeId> = bucket.rows().map(|(_, ty, _)| ty).collect();
        assert_eq!(
            types,
            vec![m.table.types["r"], m.table.types["q"], ANY_TYPE]
        );

        let at = |ty: &str| Event::builder(ty).attr("ward", 1i64).attr("bpm", 120i64);
        let ids = |v: &[u64]| v.iter().map(|&i| SubscriptionId(i)).collect::<Vec<_>>();
        assert_eq!(m.matching_subscriptions(&at("r").build()), ids(&[1, 3]));
        assert_eq!(m.matching_subscriptions(&at("q").build()), ids(&[2, 3]));
        assert_eq!(m.matching_subscriptions(&at("nobody").build()), ids(&[3]));
        // The last filter of a type takes its id with it; the next type
        // gets the id back.
        m.unsubscribe(SubscriptionId(2)).unwrap();
        assert!(!m.table.types.contains_key("q"));
        m.subscribe(sub(4, 4, Filter::for_type("p"))).unwrap();
        assert_eq!(m.free_types, vec![]);
        assert_eq!(m.table.types.len(), 2);
        assert_eq!(m.matching_subscriptions(&at("q").build()), ids(&[3]));
        assert_eq!(m.matching_subscriptions(&at("p").build()), ids(&[3, 4]));
    }

    /// Members of six and more constraints over two attributes besides
    /// their equalities, sharing some: every constraint is evaluated once
    /// per event, whichever member asks first.
    #[test]
    fn long_rows_share_verdicts_across_members() {
        let long = |lo: i64, hi: i64| {
            ward_filter(1, "hr", lo)
                .with(("bpm", Op::Le, hi))
                .with(("bpm", Op::Ne, 120i64))
                .with(("spo2", Op::Ge, 90i64))
                .with(("spo2", Op::Ne, 95i64))
                .with(("spo2", Op::Exists, 0i64))
        };
        let mut m = FastForwardEngine::new();
        m.subscribe(sub(1, 1, long(100, 150))).unwrap();
        m.subscribe(sub(2, 2, long(110, 150))).unwrap();
        m.subscribe(sub(3, 3, long(100, 130))).unwrap();
        let (fid, _, _) = posting_of(&m, 1);
        assert_eq!(
            m.table.filters[fid].as_ref().unwrap().constraint_ids.len(),
            8
        );
        let at = |bpm: i64, spo2: i64| reading(1, "hr", bpm).with_attr("spo2", spo2);
        let ids = |v: &[u64]| v.iter().map(|&i| SubscriptionId(i)).collect::<Vec<_>>();
        assert_eq!(m.matching_subscriptions(&at(125, 97)), ids(&[1, 2, 3]));
        assert_eq!(m.matching_subscriptions(&at(105, 97)), ids(&[1, 3]));
        assert_eq!(m.matching_subscriptions(&at(140, 97)), ids(&[1, 2]));
        assert!(m.matching_subscriptions(&at(120, 97)).is_empty());
        assert!(m.matching_subscriptions(&at(125, 95)).is_empty());
        assert!(m.matching_subscriptions(&reading(1, "hr", 125)).is_empty());
    }

    /// Equalities compare numbers across `Int` and `Double` in a cluster
    /// as everywhere, and a range on a NaN threshold is a member that
    /// never fires — its `false` verdict spoils no sibling's.
    #[test]
    fn cross_type_equalities_and_nan_thresholds_in_a_cluster() {
        let mut m = FastForwardEngine::new();
        let f = |ward: AttributeValue, op: Op, t: f64| {
            Filter::for_type("r")
                .with(("ward", Op::Eq, ward))
                .with(("bpm", op, t))
        };
        m.subscribe(sub(1, 1, f(1i64.into(), Op::Ge, 100.0)))
            .unwrap();
        m.subscribe(sub(2, 2, f(1.0f64.into(), Op::Ge, f64::NAN)))
            .unwrap();
        m.subscribe(sub(3, 3, f(1i64.into(), Op::Le, f64::NAN)))
            .unwrap();
        m.subscribe(sub(4, 4, f(2.0f64.into(), Op::Le, 100.0)))
            .unwrap();
        // `ward == 1` and `ward == 1.0` are one constraint, in one bucket.
        assert_eq!(m.constraint_lookup.len(), 6);
        let (_, cluster, _) = posting_of(&m, 1);
        assert_eq!(m.table.clusters[cluster].as_ref().unwrap().buckets.len(), 2);
        let at = |ward: AttributeValue, bpm: f64| {
            Event::builder("r")
                .attr("ward", ward)
                .attr("bpm", bpm)
                .build()
        };
        for ward in [AttributeValue::Int(1), AttributeValue::Double(1.0)] {
            assert_eq!(
                m.matching_subscriptions(&at(ward.clone(), 120.0)),
                vec![SubscriptionId(1)]
            );
            assert!(m.matching_subscriptions(&at(ward, f64::NAN)).is_empty());
        }
        for ward in [AttributeValue::Int(2), AttributeValue::Double(2.0)] {
            assert_eq!(
                m.matching_subscriptions(&at(ward, 80.0)),
                vec![SubscriptionId(4)]
            );
        }
    }
}
