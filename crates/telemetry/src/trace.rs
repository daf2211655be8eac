//! Causal event tracing: hop records, the ring-buffer sink and the
//! [`Tracer`] handle components carry.
//!
//! A hop is one observable step of an event's life. Components record
//! hops against the event's [`TraceId`]; the sink keeps the most recent
//! `capacity` records (overwriting the oldest — tracing must never block
//! or grow without bound) and can reassemble any event's journey on
//! demand.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use smc_types::{SharedClock, TraceId};

/// One observable step in an event's journey through the cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hop {
    /// The event entered the system (stamped at the publisher or bus).
    Published,
    /// The bus's matcher selected at least one subscriber the bus can
    /// deliver to (the publisher itself does not count).
    Matched,
    /// A cell-side proxy queued the event for downlink to its device.
    ProxyEnqueued,
    /// The reliable channel accepted the message into its outbound
    /// queue (the enqueue half of the outbound wait/service pair — the
    /// leg from here to [`Hop::TxSent`] is pure queue wait).
    OutQueued,
    /// The reliable channel put the message's fragments on the wire.
    TxSent,
    /// The reliable channel re-sent unacked fragments (one hop per
    /// retransmission round).
    TxRetransmit,
    /// The far side acknowledged every fragment of the message.
    RxAcked,
    /// The message entered the durability path (the enqueue half of the
    /// WAL wait/service pair — the leg from here to
    /// [`Hop::WalAppended`] is append work).
    WalQueued,
    /// The message was made durable in the write-ahead log.
    WalAppended,
    /// The event reached its subscriber.
    Delivered,
    /// The event left the system without being delivered.
    Dropped {
        /// Why (`"unmatched"`, `"expired"`, `"policy-deny"`, …).
        reason: &'static str,
    },
}

impl Hop {
    /// Stable short name (used in journeys and metric labels).
    pub fn name(&self) -> &'static str {
        match self {
            Hop::Published => "published",
            Hop::Matched => "matched",
            Hop::ProxyEnqueued => "proxy-enqueued",
            Hop::OutQueued => "out-queued",
            Hop::TxSent => "tx-sent",
            Hop::TxRetransmit => "tx-retransmit",
            Hop::RxAcked => "rx-acked",
            Hop::WalQueued => "wal-queued",
            Hop::WalAppended => "wal-appended",
            Hop::Delivered => "delivered",
            Hop::Dropped { .. } => "dropped",
        }
    }

    /// The pipeline stage a leg *arriving* at this hop belongs to, and
    /// whether that leg is queue wait or service work.
    ///
    /// The classification is static per hop kind: the time between two
    /// consecutive hops is attributed to whatever the event was doing
    /// *until* the later hop fired. Enqueue hops ([`Hop::OutQueued`],
    /// [`Hop::WalQueued`], [`Hop::ProxyEnqueued`]) close a service leg;
    /// the dequeue hops that pair with them ([`Hop::TxSent`],
    /// [`Hop::TxRetransmit`]) close a wait leg. Every hop maps to
    /// exactly one stage, so a journey's wait + service time always sums
    /// to its end-to-end latency.
    pub fn stage(&self) -> (&'static str, StageKind) {
        match self {
            Hop::Published => ("publish", StageKind::Service),
            Hop::Matched => ("match", StageKind::Service),
            Hop::ProxyEnqueued => ("fan-out", StageKind::Service),
            Hop::OutQueued => ("enqueue", StageKind::Service),
            Hop::TxSent => ("outbound-queue", StageKind::Wait),
            Hop::TxRetransmit => ("retransmit-wait", StageKind::Wait),
            Hop::RxAcked => ("ack", StageKind::Service),
            Hop::WalQueued => ("enqueue", StageKind::Service),
            Hop::WalAppended => ("wal-append", StageKind::Service),
            Hop::Delivered => ("deliver", StageKind::Service),
            Hop::Dropped { .. } => ("drop", StageKind::Service),
        }
    }
}

/// Whether a journey leg was queue wait or service work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageKind {
    /// The event sat in a queue (outbound queue, retransmit timer).
    Wait,
    /// A component actively worked on the event.
    Service,
}

impl StageKind {
    /// Stable short name (`"wait"` / `"service"`).
    pub fn name(&self) -> &'static str {
        match self {
            StageKind::Wait => "wait",
            StageKind::Service => "service",
        }
    }
}

/// One journey leg with its stage attribution: the time spent *reaching*
/// `hop` from the previous hop, classified as queue wait or service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LegAttribution {
    /// The hop that closed this leg.
    pub hop: Hop,
    /// Stage name from [`Hop::stage`].
    pub stage: &'static str,
    /// Wait or service.
    pub kind: StageKind,
    /// When the hop fired (µs on the tracer's clock).
    pub at_micros: u64,
    /// Time since the previous hop (0 for the first hop).
    pub delta_micros: u64,
}

impl std::fmt::Display for Hop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Hop::Dropped { reason } => write!(f, "dropped({reason})"),
            other => f.write_str(other.name()),
        }
    }
}

/// A timestamped hop, as stored in the sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopRecord {
    /// Which event this hop belongs to.
    pub trace: TraceId,
    /// What happened.
    pub hop: Hop,
    /// When (microseconds on the recording [`Tracer`]'s clock).
    pub at_micros: u64,
    /// Global insertion index — total order over the sink's lifetime,
    /// ties on `at_micros` resolve by it.
    pub order: u64,
}

/// Slots per lazily-initialized ring segment.
const SEGMENT_SLOTS: usize = 1024;

type Segment = Box<[Mutex<Option<HopRecord>>]>;

/// A bounded, lock-light ring buffer of [`HopRecord`]s.
///
/// Writers claim a slot with one atomic increment and hold only that
/// slot's mutex while storing — concurrent writers touch different
/// slots and never contend. When the ring wraps, the oldest records are
/// overwritten ([`TraceSink::overwritten`] counts them); queries see the
/// most recent `capacity` hops.
///
/// Slots are allocated in `SEGMENT_SLOTS`-sized segments on first
/// touch, so creating a large sink is cheap and a lightly-used one never
/// pays for its full capacity.
#[derive(Debug)]
pub struct TraceSink {
    segments: Vec<std::sync::OnceLock<Segment>>,
    capacity: usize,
    cursor: AtomicU64,
    dropped: AtomicU64,
    /// Raw trace ids that lost at least one record to ring wrap-around,
    /// so [`TraceSink::journey`] can report truncation explicitly
    /// instead of returning a silently shortened leg list.
    evicted: Mutex<HashSet<u64>>,
    truncated_journeys: AtomicU64,
    /// Set when `evicted` hit [`EVICTED_TRACES_CAP`] and was cleared;
    /// from then on every journey in a wrapped sink is conservatively
    /// reported truncated.
    evicted_saturated: AtomicBool,
}

/// Bound on the evicted-trace set — above this the accounting degrades
/// to "assume truncated" rather than growing without limit.
const EVICTED_TRACES_CAP: usize = 1 << 20;

/// Default ring capacity (records, not events — a traced event typically
/// contributes 4–8 hops).
pub const DEFAULT_SINK_CAPACITY: usize = 65_536;

impl Default for TraceSink {
    fn default() -> Self {
        TraceSink::with_capacity(DEFAULT_SINK_CAPACITY)
    }
}

impl TraceSink {
    /// A sink holding the most recent `capacity` hop records.
    pub fn with_capacity(capacity: usize) -> TraceSink {
        let capacity = capacity.max(1);
        let segments = capacity.div_ceil(SEGMENT_SLOTS);
        TraceSink {
            segments: (0..segments).map(|_| std::sync::OnceLock::new()).collect(),
            capacity,
            cursor: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            evicted: Mutex::new(HashSet::new()),
            truncated_journeys: AtomicU64::new(0),
            evicted_saturated: AtomicBool::new(false),
        }
    }

    fn segment_len(&self, seg: usize) -> usize {
        (self.capacity - seg * SEGMENT_SLOTS).min(SEGMENT_SLOTS)
    }

    fn slot(&self, index: usize) -> &Mutex<Option<HopRecord>> {
        let seg = index / SEGMENT_SLOTS;
        let segment = self.segments[seg].get_or_init(|| {
            (0..self.segment_len(seg))
                .map(|_| Mutex::new(None))
                .collect()
        });
        &segment[index % SEGMENT_SLOTS]
    }

    /// Appends one record (overwriting the oldest when full).
    pub fn record(&self, trace: TraceId, hop: Hop, at_micros: u64) {
        let order = self.cursor.fetch_add(1, Ordering::Relaxed);
        if order >= self.capacity as u64 {
            // This write evicts the record `capacity` slots behind it.
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        let index = (order % self.capacity as u64) as usize;
        let evicted = self.slot(index).lock().replace(HopRecord {
            trace,
            hop,
            at_micros,
            order,
        });
        if let Some(prev) = evicted {
            // The overwritten record's journey is now incomplete; mark
            // its trace so journey() can say so instead of silently
            // returning a shortened leg list.
            let mut set = self.evicted.lock();
            if set.insert(prev.trace.raw()) {
                self.truncated_journeys.fetch_add(1, Ordering::Relaxed);
            }
            if set.len() > EVICTED_TRACES_CAP {
                set.clear();
                self.evicted_saturated.store(true, Ordering::Relaxed);
            }
        }
    }

    /// Ring capacity in records.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total records ever appended.
    pub fn appended(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Records lost to ring wrap-around (counted as each overwrite
    /// happens, not derived from the cursor).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Records lost to ring wrap-around.
    pub fn overwritten(&self) -> u64 {
        self.appended().saturating_sub(self.capacity as u64)
    }

    /// Distinct traces that have lost at least one record to ring
    /// wrap-around — journeys that would read incomplete.
    pub fn truncated_journeys(&self) -> u64 {
        self.truncated_journeys.load(Ordering::Relaxed)
    }

    /// Whether `trace`'s journey is known (or, past the accounting
    /// bound, assumed) to have lost records to wrap-around.
    pub fn is_truncated(&self, trace: TraceId) -> bool {
        if self.evicted_saturated.load(Ordering::Relaxed) && self.overwritten() > 0 {
            return true;
        }
        self.evicted.lock().contains(&trace.raw())
    }

    /// Exports the sink's own counters through `registry` as a
    /// collector: `smc_trace_hops_appended_total` and
    /// `smc_trace_dropped_hops_total` (hops silently lost to ring
    /// wrap-around — nonzero means journeys may be incomplete and the
    /// sink capacity should grow).
    pub fn register_with(self: &Arc<Self>, registry: &crate::Registry) {
        registry.register_weak(self, |sink, out| {
            out.extend([
                crate::Sample::counter(
                    "smc_trace_hops_appended_total",
                    "Hop records appended to the trace sink.",
                    &[],
                    sink.appended(),
                ),
                crate::Sample::counter(
                    "smc_trace_dropped_hops_total",
                    "Hop records lost to trace-ring wrap-around.",
                    &[],
                    sink.dropped(),
                ),
                crate::Sample::counter(
                    "smc_trace_truncated_journeys_total",
                    "Distinct traces whose journeys lost records to ring wrap-around.",
                    &[],
                    sink.truncated_journeys(),
                ),
            ]);
        });
    }

    fn collect_matching(&self, mut keep: impl FnMut(&HopRecord) -> bool) -> Vec<HopRecord> {
        let mut out = Vec::new();
        for seg in &self.segments {
            // Untouched segments hold no records by construction.
            if let Some(slots) = seg.get() {
                out.extend(slots.iter().filter_map(|s| *s.lock()).filter(&mut keep));
            }
        }
        out.sort_by_key(|r| r.order);
        out
    }

    /// A snapshot of every live record, in insertion order.
    pub fn records(&self) -> Vec<HopRecord> {
        self.collect_matching(|_| true)
    }

    /// Reassembles one event's hop-by-hop journey.
    pub fn journey(&self, trace: TraceId) -> Journey {
        let hops = self.collect_matching(|r| r.trace == trace);
        Journey {
            trace,
            hops,
            truncated: self.is_truncated(trace),
        }
    }
}

/// One event's reassembled journey: its hops in order, with per-hop
/// latencies derivable from the timestamps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Journey {
    /// The event's trace id.
    pub trace: TraceId,
    /// The hops recorded for it, in insertion order.
    pub hops: Vec<HopRecord>,
    /// `true` when the ring overwrote at least one of this trace's
    /// records — the leg list below is missing its oldest steps.
    pub truncated: bool,
}

impl Journey {
    /// Whether any hops were captured (the ring may have overwritten an
    /// old event's records).
    pub fn is_empty(&self) -> bool {
        self.hops.is_empty()
    }

    /// `(hop, at_micros, delta_micros_from_previous_hop)` triples.
    pub fn legs(&self) -> Vec<(Hop, u64, u64)> {
        let mut prev: Option<u64> = None;
        self.hops
            .iter()
            .map(|r| {
                let delta = prev.map_or(0, |p| r.at_micros.saturating_sub(p));
                prev = Some(r.at_micros);
                (r.hop, r.at_micros, delta)
            })
            .collect()
    }

    /// Every leg with its queue-wait / service classification.
    ///
    /// Each leg's delta is attributed to exactly one stage (see
    /// [`Hop::stage`]), so summing the wait legs and the service legs
    /// reconstructs the journey's end-to-end latency exactly.
    pub fn attribution(&self) -> Vec<LegAttribution> {
        self.legs()
            .into_iter()
            .map(|(hop, at_micros, delta_micros)| {
                let (stage, kind) = hop.stage();
                LegAttribution {
                    hop,
                    stage,
                    kind,
                    at_micros,
                    delta_micros,
                }
            })
            .collect()
    }

    /// Total time spent in queue-wait legs.
    pub fn wait_micros(&self) -> u64 {
        self.attribution()
            .iter()
            .filter(|l| l.kind == StageKind::Wait)
            .map(|l| l.delta_micros)
            .sum()
    }

    /// Total time spent in service legs.
    pub fn service_micros(&self) -> u64 {
        self.attribution()
            .iter()
            .filter(|l| l.kind == StageKind::Service)
            .map(|l| l.delta_micros)
            .sum()
    }

    /// End-to-end latency: last hop minus first hop.
    pub fn total_micros(&self) -> u64 {
        match (self.hops.first(), self.hops.last()) {
            (Some(first), Some(last)) => last.at_micros.saturating_sub(first.at_micros),
            _ => 0,
        }
    }
}

impl std::fmt::Display for Journey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "journey {}:", self.trace)?;
        if self.hops.is_empty() {
            return writeln!(f, "  (no hops captured — ring overwrote or never traced)");
        }
        if self.truncated {
            writeln!(f, "  (truncated — the ring overwrote earlier hops)")?;
        }
        for (hop, at, delta) in self.legs() {
            writeln!(f, "  {at:>12} µs  {hop:<20} (+{delta} µs)")?;
        }
        Ok(())
    }
}

/// The handle instrumented components carry.
///
/// Cheap to clone; the disabled tracer (the default) records nothing and
/// costs one branch per hop, which is what keeps the untraced path's
/// overhead negligible.
#[derive(Clone, Default)]
pub struct Tracer(Option<Arc<TracerInner>>);

struct TracerInner {
    sink: Arc<TraceSink>,
    clock: SharedClock,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            Some(inner) => f
                .debug_struct("Tracer")
                .field("capacity", &inner.sink.capacity())
                .field("appended", &inner.sink.appended())
                .finish(),
            None => f.write_str("Tracer(disabled)"),
        }
    }
}

impl Tracer {
    /// A tracer recording into `sink`, timestamping from `clock`.
    pub fn new(sink: Arc<TraceSink>, clock: SharedClock) -> Tracer {
        Tracer(Some(Arc::new(TracerInner { sink, clock })))
    }

    /// The no-op tracer (also `Tracer::default()`).
    pub fn disabled() -> Tracer {
        Tracer(None)
    }

    /// Whether hops are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Records a hop for `trace` now. No-op when disabled or when
    /// `trace` is [`TraceId::NONE`] (an untraced event).
    pub fn record(&self, trace: TraceId, hop: Hop) {
        if let Some(inner) = &self.0 {
            if trace.is_some() {
                inner.sink.record(trace, hop, inner.clock.now_micros());
            }
        }
    }

    /// The sink this tracer writes to, if enabled.
    pub fn sink(&self) -> Option<&Arc<TraceSink>> {
        self.0.as_ref().map(|i| &i.sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smc_types::{ManualClock, ServiceId};

    fn tid(n: u64) -> TraceId {
        TraceId::from_raw(n)
    }

    #[test]
    fn journey_reassembles_in_order_with_deltas() {
        let sink = TraceSink::with_capacity(16);
        sink.record(tid(7), Hop::Published, 100);
        sink.record(tid(8), Hop::Published, 150);
        sink.record(tid(7), Hop::Matched, 130);
        sink.record(tid(7), Hop::Delivered, 400);
        let j = sink.journey(tid(7));
        assert_eq!(j.hops.len(), 3);
        assert_eq!(
            j.legs()
                .iter()
                .map(|(h, _, d)| (h.name(), *d))
                .collect::<Vec<_>>(),
            vec![("published", 0), ("matched", 30), ("delivered", 270)]
        );
        assert!(j.to_string().contains("delivered"));
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_losses() {
        let sink = TraceSink::with_capacity(4);
        for i in 0..10u64 {
            sink.record(tid(1), Hop::TxSent, i);
        }
        assert_eq!(sink.appended(), 10);
        assert_eq!(sink.overwritten(), 6);
        assert_eq!(sink.dropped(), 6);
        let records = sink.records();
        assert_eq!(records.len(), 4);
        // The survivors are the four most recent.
        assert_eq!(
            records.iter().map(|r| r.at_micros).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
    }

    #[test]
    fn journey_at_exactly_capacity_is_not_truncated() {
        let sink = TraceSink::with_capacity(8);
        for i in 0..8u64 {
            sink.record(tid(1), Hop::TxSent, i);
        }
        let j = sink.journey(tid(1));
        assert_eq!(j.hops.len(), 8);
        assert!(!j.truncated, "a full-but-unwrapped ring lost nothing");
        assert_eq!(sink.truncated_journeys(), 0);
        assert!(!j.to_string().contains("truncated"));
    }

    #[test]
    fn journey_at_capacity_plus_one_is_marked_truncated() {
        let sink = TraceSink::with_capacity(8);
        for i in 0..9u64 {
            sink.record(tid(1), Hop::TxSent, i);
        }
        let j = sink.journey(tid(1));
        assert_eq!(j.hops.len(), 8, "only the most recent survive");
        assert!(j.truncated, "the 9th record evicted the 1st");
        assert_eq!(sink.truncated_journeys(), 1);
        assert!(j.to_string().contains("truncated"));

        // An unaffected trace stays clean even though the ring wrapped.
        sink.record(tid(2), Hop::Published, 100);
        assert!(sink.journey(tid(1)).truncated);
        // tid(2) only evicted a tid(1) record, never one of its own.
        assert!(!sink.journey(tid(2)).truncated);
        assert_eq!(sink.truncated_journeys(), 1, "distinct traces, not records");
    }

    #[test]
    fn truncated_journeys_export_through_the_registry() {
        let sink = Arc::new(TraceSink::with_capacity(4));
        let registry = crate::Registry::new();
        sink.register_with(&registry);
        for i in 0..4u64 {
            sink.record(tid(1), Hop::TxSent, i);
        }
        assert!(registry
            .render_text()
            .contains("smc_trace_truncated_journeys_total 0"));
        sink.record(tid(1), Hop::TxSent, 4);
        assert!(registry
            .render_text()
            .contains("smc_trace_truncated_journeys_total 1"));
    }

    #[test]
    fn disabled_tracer_and_none_trace_record_nothing() {
        let sink = Arc::new(TraceSink::with_capacity(8));
        let clock: SharedClock = Arc::new(ManualClock::new());
        let t = Tracer::new(Arc::clone(&sink), clock);
        t.record(TraceId::NONE, Hop::Published);
        assert_eq!(sink.appended(), 0);
        let off = Tracer::disabled();
        off.record(tid(5), Hop::Published);
        assert!(!off.is_enabled());
    }

    #[test]
    fn sink_exports_dropped_hops_through_the_registry() {
        let sink = Arc::new(TraceSink::with_capacity(4));
        let registry = crate::Registry::new();
        sink.register_with(&registry);
        for i in 0..7u64 {
            sink.record(tid(1), Hop::TxSent, i);
        }
        let text = registry.render_text();
        assert!(text.contains("smc_trace_hops_appended_total 7"));
        assert!(text.contains("smc_trace_dropped_hops_total 3"));
        let dropped = registry
            .gather()
            .into_iter()
            .find(|s| s.name == "smc_trace_dropped_hops_total")
            .unwrap();
        assert_eq!(dropped.value, 3);
        assert!(dropped.monotonic);
    }

    #[test]
    fn attribution_splits_wait_from_service_and_sums_to_total() {
        let sink = TraceSink::with_capacity(16);
        sink.record(tid(3), Hop::Published, 100);
        sink.record(tid(3), Hop::Matched, 110); // +10 service
        sink.record(tid(3), Hop::ProxyEnqueued, 125); // +15 service
        sink.record(tid(3), Hop::OutQueued, 130); // +5 service
        sink.record(tid(3), Hop::TxSent, 180); // +50 WAIT
        sink.record(tid(3), Hop::TxRetransmit, 300); // +120 WAIT
        sink.record(tid(3), Hop::Delivered, 320); // +20 service
        let j = sink.journey(tid(3));
        assert_eq!(j.total_micros(), 220);
        assert_eq!(j.wait_micros(), 170, "outbound-queue 50 + retransmit 120");
        assert_eq!(j.service_micros(), 50);
        assert_eq!(j.wait_micros() + j.service_micros(), j.total_micros());
        let legs = j.attribution();
        assert_eq!(legs.len(), 7);
        assert_eq!(legs[0].stage, "publish");
        assert_eq!(legs[0].delta_micros, 0, "the first leg opens the journey");
        assert_eq!(legs[4].stage, "outbound-queue");
        assert_eq!(legs[4].kind, StageKind::Wait);
        assert_eq!(legs[5].stage, "retransmit-wait");
        assert_eq!(legs[5].kind, StageKind::Wait);
    }

    #[test]
    fn every_hop_has_a_stage_and_new_hops_have_names() {
        assert_eq!(Hop::OutQueued.name(), "out-queued");
        assert_eq!(Hop::WalQueued.name(), "wal-queued");
        assert_eq!(Hop::WalQueued.stage().0, "enqueue");
        assert_eq!(Hop::WalAppended.stage(), ("wal-append", StageKind::Service));
        assert_eq!(StageKind::Wait.name(), "wait");
        assert_eq!(StageKind::Service.name(), "service");
    }

    #[test]
    fn empty_journey_attributes_nothing() {
        let sink = TraceSink::with_capacity(4);
        let j = sink.journey(tid(99));
        assert_eq!(j.total_micros(), 0);
        assert_eq!(j.wait_micros(), 0);
        assert_eq!(j.service_micros(), 0);
        assert!(j.attribution().is_empty());
    }

    #[test]
    fn tracer_timestamps_from_injected_clock() {
        let sink = Arc::new(TraceSink::with_capacity(8));
        let manual = Arc::new(ManualClock::new());
        let t = Tracer::new(Arc::clone(&sink), manual.clone() as SharedClock);
        let trace = TraceId::for_event(ServiceId::from_raw(3), 1);
        manual.advance_micros(250);
        t.record(trace, Hop::Published);
        manual.advance_micros(50);
        t.record(trace, Hop::Delivered);
        let j = sink.journey(trace);
        assert_eq!(
            j.hops.iter().map(|r| r.at_micros).collect::<Vec<_>>(),
            vec![250, 300]
        );
    }
}
