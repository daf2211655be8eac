//! The in-process event bus core: subscription registry, pluggable
//! matching engine, acknowledged dispatch to sinks.
//!
//! This is the paper's "EventBus" interface — the seam that let the
//! prototype swap Siena for the dedicated C matcher. Everything network-
//! facing (proxies, the packet protocol) layers on top in
//! [`crate::smc::SmcCell`]; the core itself only knows about
//! [`EventSink`]s.
//!
//! # Hot-path structure
//!
//! The publish path is read-only, and once the per-thread scratch has
//! grown to working size a publish asks the heap for nothing, whether
//! its sinks read the event in process or take the encoded `Deliver`
//! (the event's body under a tag; pinned by `tests/publish_allocs.rs`).
//! All routing state — the frozen match table, the sink map, the tracer
//! — lives in one immutable `RouteTable` behind a [`SnapshotCell`]:
//! `publish` takes one snapshot load (an uncontended lock held for a
//! reference-count bump) where it used to take three mutexes. Control
//! operations (subscribe/unsubscribe/purge/engine-swap) mutate the
//! private `Control` state under one mutex and publish a fresh snapshot;
//! a concurrent publish sees either the entire old table or the entire
//! new one, never a mix.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use smc_match::{EngineKind, MatchScratch, Matcher, RouteSnapshot};
use smc_telemetry::{Hop, Tracer};
use smc_types::{
    encode_deliver, Error, Event, Filter, Result, ServiceId, SharedBytes, SnapshotCell,
    Subscription, SubscriptionId, TraceId,
};

use crate::metrics::{BusMetrics, MetricsSnapshot};

/// One publish's worth of delivery context, shared across the fan-out.
///
/// The frame carries the event by reference. Sinks that relay over the
/// network ask for [`DeliveryFrame::encoded`] — the `Packet::Deliver`
/// held as the event's own body under a tag — and enqueue it; in-process
/// sinks just read the event. Either way, per-subscriber cost is a
/// reference-count bump: nothing is encoded and nothing copied.
#[derive(Debug)]
pub struct DeliveryFrame<'a> {
    event: &'a Event,
    trace: TraceId,
}

impl<'a> DeliveryFrame<'a> {
    /// Creates a frame for one publish.
    pub fn new(event: &'a Event, trace: TraceId) -> Self {
        DeliveryFrame { event, trace }
    }

    /// The event being delivered.
    pub fn event(&self) -> &Event {
        self.event
    }

    /// The publish's trace id ([`TraceId::NONE`] when untraced).
    pub fn trace(&self) -> TraceId {
        self.trace
    }

    /// The `Packet::Deliver` a channel sends ([`encode_deliver`]): the
    /// event's body by reference count, for every subscriber that asks.
    pub fn encoded(&self) -> SharedBytes {
        encode_deliver(self.event, self.trace)
    }
}

/// A subscriber-side delivery target.
///
/// Proxies implement this by relaying over the network to their device;
/// in-process services (the policy executor, loggers, tests) implement it
/// directly.
pub trait EventSink: Send + Sync {
    /// Delivers one event.
    ///
    /// # Errors
    ///
    /// Implementations report failures (e.g. a closed channel); the bus
    /// counts them and keeps going — retry/durability lives in the
    /// reliability layer underneath proxies.
    fn deliver(&self, event: &Event) -> Result<()>;

    /// Delivers one event with its shared fan-out context.
    ///
    /// The default forwards to [`EventSink::deliver`]; network-facing
    /// sinks override it to enqueue [`DeliveryFrame::encoded`] with the
    /// publish's own trace.
    ///
    /// # Errors
    ///
    /// As for [`EventSink::deliver`].
    fn deliver_frame(&self, frame: &DeliveryFrame<'_>) -> Result<()> {
        self.deliver(frame.event())
    }

    /// Nothing reads this; it stays, defaulted, only because the frozen
    /// `benchmark/src/bus.rs` overrides it (removal is a `[benchmark]` PR).
    fn prefers_encoded(&self) -> bool {
        false
    }
}

impl<F> EventSink for F
where
    F: Fn(&Event) -> Result<()> + Send + Sync,
{
    fn deliver(&self, event: &Event) -> Result<()> {
        self(event)
    }
}

/// The in-process content-based event bus.
///
/// ```
/// use std::sync::Arc;
/// use smc_core::EventBus;
/// use smc_match::EngineKind;
/// use smc_types::{Event, Filter, Op, ServiceId};
///
/// let bus = EventBus::new(EngineKind::FastForward);
/// let (tx, rx) = crossbeam::channel::unbounded();
/// bus.subscribe(
///     ServiceId::from_raw(0xA),
///     Filter::for_type("smc.alarm"),
///     Arc::new(move |e: &Event| {
///         tx.send(e.clone()).ok();
///         Ok(())
///     }),
/// )?;
/// bus.publish(Event::builder("smc.alarm").attr("severity", 3i64).build())?;
/// assert_eq!(rx.recv()?.event_type(), "smc.alarm");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct EventBus {
    /// All mutable routing state, mutated under one lock (fixed lock
    /// order by construction: there is only one lock to take).
    control: Mutex<Control>,
    /// The published routing snapshot; `publish` does one load.
    routes: SnapshotCell<RouteTable>,
    engine_kind: EngineKind,
    next_sub: AtomicU64,
    metrics: BusMetrics,
}

/// Each subscriber's one sink.
type SinkMap = HashMap<ServiceId, Arc<dyn EventSink>>;

/// The write side: engine, subscription registry, sinks and tracer.
struct Control {
    engine: Box<dyn Matcher>,
    subs: HashMap<SubscriptionId, (ServiceId, Filter)>,
    /// Shared with the published route table, so a republish copies it
    /// only when a subscriber gained its first subscription, lost its
    /// last, or changed its sink.
    sinks: Arc<SinkMap>,
    /// Each subscriber's live subscriptions, counted: its sink goes with
    /// its last one.
    held: HashMap<ServiceId, usize>,
    tracer: Tracer,
}

impl Control {
    /// Freezes the current routing state into an immutable snapshot.
    fn route_table(&self) -> RouteTable {
        RouteTable {
            matcher: self.engine.snapshot(),
            sinks: Arc::clone(&self.sinks),
            tracer: self.tracer.clone(),
        }
    }

    /// Records subscription `id` (already in the engine) and makes `sink`
    /// its subscriber's sink.
    fn add(
        &mut self,
        id: SubscriptionId,
        subscriber: ServiceId,
        filter: Filter,
        sink: Arc<dyn EventSink>,
    ) {
        self.subs.insert(id, (subscriber, filter));
        *self.held.entry(subscriber).or_default() += 1;
        let current = self.sinks.get(&subscriber);
        if !current.is_some_and(|s| Arc::ptr_eq(s, &sink)) {
            Arc::make_mut(&mut self.sinks).insert(subscriber, sink);
        }
    }

    /// Forgets subscription `id` (already out of the engine); its
    /// subscriber's sink goes with the subscriber's last subscription.
    fn remove(&mut self, id: SubscriptionId) {
        let Some((subscriber, _)) = self.subs.remove(&id) else {
            return;
        };
        let held = self.held.get_mut(&subscriber);
        let held = held.expect("a subscriber with a subscription is counted");
        *held -= 1;
        if *held == 0 {
            self.held.remove(&subscriber);
            Arc::make_mut(&mut self.sinks).remove(&subscriber);
        }
    }
}

/// The read side: everything `publish` needs, immutable once published.
struct RouteTable {
    matcher: Arc<dyn RouteSnapshot>,
    sinks: Arc<SinkMap>,
    tracer: Tracer,
}

impl std::fmt::Debug for RouteTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouteTable")
            .field("subscriptions", &self.matcher.len())
            .field("sinks", &self.sinks.len())
            .finish_non_exhaustive()
    }
}

thread_local! {
    /// Per-thread match scratch + target buffer: a steady-state publish
    /// loop allocates nothing once these have grown to working size.
    static PUBLISH_SCRATCH: RefCell<(MatchScratch, Vec<ServiceId>)> =
        RefCell::new((MatchScratch::new(), Vec::new()));
}

impl std::fmt::Debug for EventBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventBus")
            .field("engine", &self.engine_kind)
            .field("subscriptions", &self.control.lock().subs.len())
            .finish_non_exhaustive()
    }
}

impl EventBus {
    /// Creates a bus around the given matching engine.
    pub fn new(engine: EngineKind) -> Self {
        let control = Control {
            engine: engine.build(),
            subs: HashMap::new(),
            sinks: Arc::default(),
            held: HashMap::new(),
            tracer: Tracer::disabled(),
        };
        let routes = SnapshotCell::new(Arc::new(control.route_table()));
        EventBus {
            control: Mutex::new(control),
            routes,
            engine_kind: engine,
            next_sub: AtomicU64::new(1),
            metrics: BusMetrics::default(),
        }
    }

    /// Rebuilds and publishes the routing snapshot. Callers hold the
    /// control lock, so snapshots are published in control-op order.
    fn republish(&self, control: &Control) {
        self.routes.store(Arc::new(control.route_table()));
    }

    /// Installs (or replaces) the hop tracer: dispatch records
    /// `Published`, `Matched` and `Dropped` hops against each event's
    /// derived [`TraceId`].
    pub fn set_tracer(&self, tracer: Tracer) {
        let mut control = self.control.lock();
        control.tracer = tracer;
        self.republish(&control);
    }

    /// Which engine the bus is running.
    pub fn engine_kind(&self) -> EngineKind {
        self.engine_kind
    }

    /// Registers `filter` for `subscriber`, delivering through `sink`.
    ///
    /// A subscriber has exactly one sink; subscribing again with a
    /// different sink replaces it for *all* of that subscriber's
    /// subscriptions (a member has one proxy).
    ///
    /// # Errors
    ///
    /// Propagates engine errors (duplicate ids cannot happen — the bus
    /// allocates them).
    pub fn subscribe(
        &self,
        subscriber: ServiceId,
        filter: Filter,
        sink: Arc<dyn EventSink>,
    ) -> Result<SubscriptionId> {
        let id = SubscriptionId(self.next_sub.fetch_add(1, Ordering::Relaxed));
        let mut control = self.control.lock();
        control
            .engine
            .subscribe(Subscription::new(id, subscriber, filter.clone()))?;
        control.add(id, subscriber, filter, sink);
        self.republish(&control);
        BusMetrics::bump(&self.metrics.subscriptions);
        Ok(id)
    }

    /// Re-installs a subscription under its original id — the recovery
    /// path. Advances the id allocator past `sub.id` so subsequent
    /// subscriptions cannot collide with restored ones. Does not count
    /// as a new subscription in the metrics.
    ///
    /// # Errors
    ///
    /// Propagates engine errors (e.g. restoring the same id twice).
    pub fn restore_subscription(&self, sub: Subscription, sink: Arc<dyn EventSink>) -> Result<()> {
        self.next_sub.fetch_max(sub.id.0 + 1, Ordering::Relaxed);
        let mut control = self.control.lock();
        control.engine.subscribe(sub.clone())?;
        control.add(sub.id, sub.subscriber, sub.filter, sink);
        self.republish(&control);
        Ok(())
    }

    /// The next subscription id the bus would allocate (snapshotted so
    /// recovery can restore the allocator).
    pub fn next_subscription_id(&self) -> u64 {
        self.next_sub.load(Ordering::Relaxed)
    }

    /// Removes one subscription.
    ///
    /// # Errors
    ///
    /// [`Error::NotFound`] if the id is unknown.
    pub fn unsubscribe(&self, id: SubscriptionId) -> Result<()> {
        // One lock acquisition covering the whole removal: the engine
        // entry, the registry entry, the subscriber's count and its sink
        // change together, so a concurrent subscribe can neither revive
        // the sink half-way nor observe the engine and registry
        // disagreeing.
        let mut control = self.control.lock();
        control.engine.unsubscribe(id)?;
        control.remove(id);
        self.republish(&control);
        BusMetrics::bump(&self.metrics.unsubscriptions);
        Ok(())
    }

    /// Removes *all* subscriptions of `subscriber` and its sink — the
    /// purge path. Returns how many subscriptions were removed.
    ///
    /// The whole purge happens under one control-lock acquisition and is
    /// published as a single snapshot swap: a concurrent publish either
    /// sees the member fully present or fully gone, never half-purged.
    pub fn remove_subscriber(&self, subscriber: ServiceId) -> usize {
        let mut control = self.control.lock();
        let ids: Vec<SubscriptionId> = control
            .subs
            .iter()
            .filter(|(_, (s, _))| *s == subscriber)
            .map(|(&id, _)| id)
            .collect();
        for &id in &ids {
            let _ = control.engine.unsubscribe(id);
            control.remove(id);
        }
        self.republish(&control);
        drop(control);
        BusMetrics::add(&self.metrics.unsubscriptions, ids.len() as u64);
        ids.len()
    }

    /// Publishes an event: matches it and delivers to every interested
    /// subscriber's sink. Returns the number of successful deliveries
    /// (sinks that returned an error are not counted).
    ///
    /// # Errors
    ///
    /// Publishing itself cannot fail; sink failures are counted in the
    /// metrics, not returned (the publisher got its ack when the bus
    /// accepted the event — §II-C).
    pub fn publish(&self, event: Event) -> Result<usize> {
        BusMetrics::bump(&self.metrics.published);
        BusMetrics::add(&self.metrics.bytes_published, event.content_len() as u64);
        // The only synchronisation on the whole publish path: one
        // snapshot load covering matcher, sinks and tracer.
        let routes = self.routes.load();
        let trace = TraceId::for_event(event.publisher(), event.seq());
        routes.tracer.record(trace, Hop::Published);
        PUBLISH_SCRATCH.with(|cell| match cell.try_borrow_mut() {
            Ok(mut slot) => {
                let (scratch, targets) = &mut *slot;
                self.fan_out(&routes, &event, trace, scratch, targets)
            }
            // A sink re-entered publish on this thread (an in-process
            // subscriber publishing from inside its delivery callback);
            // fall back to fresh buffers for the nested publish.
            Err(_) => self.fan_out(
                &routes,
                &event,
                trace,
                &mut MatchScratch::new(),
                &mut Vec::new(),
            ),
        })
    }

    /// Matches `event` against the snapshot and delivers to every
    /// interested sink. Metrics are accumulated locally and flushed as
    /// one batched `add` per counter, not one `bump` per delivery.
    fn fan_out(
        &self,
        routes: &RouteTable,
        event: &Event,
        trace: TraceId,
        scratch: &mut MatchScratch,
        targets: &mut Vec<ServiceId>,
    ) -> Result<usize> {
        routes
            .matcher
            .matching_subscribers_into(event, scratch, targets);
        let frame = DeliveryFrame::new(event, trace);
        let mut delivered = 0;
        let mut attempted = 0u64;
        let mut failures = 0u64;
        for &subscriber in targets.iter() {
            // Do not loop events back to their publisher: the paper's
            // publishers are not implicit subscribers of themselves.
            if subscriber == event.publisher() {
                continue;
            }
            if let Some(sink) = routes.sinks.get(&subscriber) {
                if attempted == 0 {
                    routes.tracer.record(trace, Hop::Matched);
                }
                attempted += 1;
                match sink.deliver_frame(&frame) {
                    Ok(()) => delivered += 1,
                    Err(_) => {
                        failures += 1;
                        routes.tracer.record(
                            trace,
                            Hop::Dropped {
                                reason: "delivery-failure",
                            },
                        );
                    }
                }
            }
        }
        // No delivery was attempted — nothing matched, only the
        // publisher's own subscription did, or the matched subscribers
        // have no sink: the event's one terminal state is `unmatched`.
        if attempted == 0 {
            BusMetrics::bump(&self.metrics.unmatched);
            routes.tracer.record(
                trace,
                Hop::Dropped {
                    reason: "unmatched",
                },
            );
            return Ok(0);
        }
        BusMetrics::add(&self.metrics.deliveries, attempted);
        if failures > 0 {
            BusMetrics::add(&self.metrics.delivery_failures, failures);
        }
        Ok(delivered)
    }

    /// All current subscription filters (used by the quench manager).
    pub fn subscription_filters(&self) -> Vec<Filter> {
        self.control
            .lock()
            .subs
            .values()
            .map(|(_, f)| f.clone())
            .collect()
    }

    /// All current subscriptions as `(id, subscriber, filter)`.
    pub fn subscriptions(&self) -> Vec<(SubscriptionId, ServiceId, Filter)> {
        let mut out: Vec<_> = self
            .control
            .lock()
            .subs
            .iter()
            .map(|(&id, (s, f))| (id, *s, f.clone()))
            .collect();
        out.sort_by_key(|(id, _, _)| *id);
        out
    }

    /// Number of live subscriptions.
    pub fn subscription_count(&self) -> usize {
        self.control.lock().subs.len()
    }

    /// Bus activity counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Internal access for the cell wiring.
    pub(crate) fn metrics_ref(&self) -> &BusMetrics {
        &self.metrics
    }

    /// Swaps the matching engine, migrating all subscriptions — the
    /// paper's headline flexibility ("allowed us to replace Siena with a
    /// more lightweight mechanism").
    ///
    /// # Errors
    ///
    /// Propagates engine insertion errors; on error the bus is left on
    /// the old engine.
    pub fn swap_engine(&self, kind: EngineKind) -> Result<()> {
        let mut control = self.control.lock();
        let mut new_engine = kind.build();
        for (&id, (subscriber, filter)) in control.subs.iter() {
            new_engine.subscribe(Subscription::new(id, *subscriber, filter.clone()))?;
        }
        control.engine = new_engine;
        self.republish(&control);
        Ok(())
    }
}

/// Convenience sink that pushes events into a crossbeam channel.
#[derive(Debug, Clone)]
pub struct ChannelSink {
    tx: crossbeam::channel::Sender<Event>,
}

impl ChannelSink {
    /// Creates a sink and its receiving end.
    pub fn new() -> (Self, crossbeam::channel::Receiver<Event>) {
        let (tx, rx) = crossbeam::channel::unbounded();
        (ChannelSink { tx }, rx)
    }
}

impl EventSink for ChannelSink {
    fn deliver(&self, event: &Event) -> Result<()> {
        self.tx.send(event.clone()).map_err(|_| Error::Closed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smc_types::Op;

    fn bus() -> EventBus {
        EventBus::new(EngineKind::FastForward)
    }

    fn ev(t: &str, bpm: i64) -> Event {
        Event::builder(t)
            .attr("bpm", bpm)
            .publisher(ServiceId::from_raw(0xFF))
            .seq(1)
            .build()
    }

    #[test]
    fn subscribe_publish_deliver() {
        let bus = bus();
        let (sink, rx) = ChannelSink::new();
        bus.subscribe(
            ServiceId::from_raw(1),
            Filter::for_type("r").with(("bpm", Op::Gt, 100i64)),
            Arc::new(sink),
        )
        .unwrap();
        assert_eq!(bus.publish(ev("r", 150)).unwrap(), 1);
        assert_eq!(
            rx.try_recv().unwrap().attr("bpm").unwrap().as_int(),
            Some(150)
        );
        assert_eq!(bus.publish(ev("r", 50)).unwrap(), 0);
        assert!(rx.try_recv().is_err());
        let m = bus.metrics();
        assert_eq!(m.published, 2);
        assert_eq!(m.deliveries, 1);
        assert_eq!(m.unmatched, 1);
    }

    #[test]
    fn publisher_does_not_hear_itself() {
        let bus = bus();
        let (sink, rx) = ChannelSink::new();
        let me = ServiceId::from_raw(7);
        bus.subscribe(me, Filter::any(), Arc::new(sink)).unwrap();
        let mine = Event::builder("x").publisher(me).seq(1).build();
        assert_eq!(bus.publish(mine).unwrap(), 0);
        assert!(rx.try_recv().is_err());
    }

    /// An event nobody can be handed — its only matching subscriber is
    /// its own publisher, or the matched subscriber has no sink in the
    /// snapshot — is `unmatched`: one terminal hop, and the counters
    /// still account for every publish.
    #[test]
    fn event_with_no_deliverable_target_is_unmatched() {
        use smc_telemetry::TraceSink;

        let bus = bus();
        let ring = Arc::new(TraceSink::with_capacity(64));
        bus.set_tracer(Tracer::new(Arc::clone(&ring), smc_types::system_clock()));
        let (sink, rx) = ChannelSink::new();
        let me = ServiceId::from_raw(7);
        bus.subscribe(me, Filter::any(), Arc::new(sink)).unwrap();

        let publish_and_check = |event: Event, published: u64| {
            let trace = TraceId::for_event(event.publisher(), event.seq());
            assert_eq!(bus.publish(event).unwrap(), 0);
            assert!(rx.try_recv().is_err());
            let m = bus.metrics();
            assert_eq!(
                (m.published, m.unmatched, m.deliveries),
                (published, published, 0)
            );
            let hops: Vec<Hop> = ring.journey(trace).hops.iter().map(|h| h.hop).collect();
            assert_eq!(
                hops,
                vec![
                    Hop::Published,
                    Hop::Dropped {
                        reason: "unmatched"
                    }
                ]
            );
        };

        // Self-only match.
        publish_and_check(Event::builder("x").publisher(me).seq(1).build(), 1);

        // Matched subscriber without a sink in the published snapshot.
        {
            let mut control = bus.control.lock();
            Arc::make_mut(&mut control.sinks).remove(&me);
            bus.republish(&control);
        }
        publish_and_check(ev("x", 1), 2);
    }

    #[test]
    fn unsubscribe_stops_delivery() {
        let bus = bus();
        let (sink, rx) = ChannelSink::new();
        let id = bus
            .subscribe(ServiceId::from_raw(1), Filter::any(), Arc::new(sink))
            .unwrap();
        bus.publish(ev("a", 1)).unwrap();
        bus.unsubscribe(id).unwrap();
        bus.publish(ev("a", 2)).unwrap();
        assert_eq!(
            rx.try_recv().unwrap().attr("bpm").unwrap().as_int(),
            Some(1)
        );
        assert!(rx.try_recv().is_err());
        assert!(bus.unsubscribe(id).is_err());
    }

    #[test]
    fn remove_subscriber_purges_everything() {
        let bus = bus();
        let (sink, rx) = ChannelSink::new();
        let s = ServiceId::from_raw(1);
        bus.subscribe(s, Filter::for_type("a"), Arc::new(sink.clone()))
            .unwrap();
        bus.subscribe(s, Filter::for_type("b"), Arc::new(sink))
            .unwrap();
        assert_eq!(bus.subscription_count(), 2);
        assert_eq!(bus.remove_subscriber(s), 2);
        assert_eq!(bus.subscription_count(), 0);
        bus.publish(ev("a", 1)).unwrap();
        assert!(rx.try_recv().is_err());
        assert_eq!(bus.remove_subscriber(s), 0);
    }

    /// The sinks the published route table holds.
    fn published_sinks(bus: &EventBus) -> Arc<SinkMap> {
        Arc::clone(&bus.routes.load().sinks)
    }

    /// A subscriber's sink stays while any of its subscriptions does —
    /// however they came and went — and goes with the last; the published
    /// sink map is copied only when that happens.
    #[test]
    fn sink_goes_with_the_last_subscription() {
        let bus = bus();
        let (sink, rx) = ChannelSink::new();
        let sink: Arc<dyn EventSink> = Arc::new(sink);
        let s = ServiceId::from_raw(1);
        let first = bus
            .subscribe(s, Filter::for_type("a"), Arc::clone(&sink))
            .unwrap();
        let shared = published_sinks(&bus);
        let restored = Subscription::new(SubscriptionId(90), s, Filter::for_type("b"));
        bus.restore_subscription(restored, Arc::clone(&sink))
            .unwrap();
        let third = bus
            .subscribe(s, Filter::for_type("c"), Arc::clone(&sink))
            .unwrap();
        assert!(Arc::ptr_eq(&shared, &published_sinks(&bus)));

        bus.unsubscribe(first).unwrap();
        bus.unsubscribe(SubscriptionId(90)).unwrap();
        assert!(Arc::ptr_eq(&shared, &published_sinks(&bus)));
        assert_eq!(bus.publish(ev("c", 1)).unwrap(), 1);
        assert_eq!(rx.try_iter().count(), 1);
        bus.unsubscribe(third).unwrap();
        assert!(published_sinks(&bus).is_empty());
        assert!(bus.control.lock().held.is_empty());

        // Back through the recovery path; then purged with a second one.
        let restored = Subscription::new(SubscriptionId(91), s, Filter::for_type("a"));
        bus.restore_subscription(restored, Arc::clone(&sink))
            .unwrap();
        bus.subscribe(s, Filter::for_type("b"), Arc::clone(&sink))
            .unwrap();
        assert_eq!(bus.control.lock().held[&s], 2);
        assert_eq!(bus.remove_subscriber(s), 2);
        assert!(published_sinks(&bus).is_empty());
        assert!(bus.control.lock().held.is_empty());
    }

    /// Subscribing again with another sink moves every subscription of
    /// the subscriber to it.
    #[test]
    fn a_new_sink_replaces_the_old_for_every_subscription() {
        let bus = bus();
        let (old, old_rx) = ChannelSink::new();
        let (new, new_rx) = ChannelSink::new();
        let s = ServiceId::from_raw(1);
        bus.subscribe(s, Filter::for_type("a"), Arc::new(old))
            .unwrap();
        let id = bus
            .subscribe(s, Filter::for_type("b"), Arc::new(new))
            .unwrap();
        bus.publish(ev("a", 1)).unwrap();
        assert_eq!(
            (old_rx.try_iter().count(), new_rx.try_iter().count()),
            (0, 1)
        );
        bus.unsubscribe(id).unwrap();
        bus.publish(ev("a", 2)).unwrap();
        assert_eq!(new_rx.try_iter().count(), 1);
    }

    #[test]
    fn multiple_subscribers_each_get_one_copy() {
        let bus = bus();
        let (sink1, rx1) = ChannelSink::new();
        let (sink2, rx2) = ChannelSink::new();
        bus.subscribe(
            ServiceId::from_raw(1),
            Filter::any(),
            Arc::new(sink1.clone()),
        )
        .unwrap();
        // Same subscriber twice: still one copy per event.
        bus.subscribe(
            ServiceId::from_raw(1),
            Filter::for_type("a"),
            Arc::new(sink1),
        )
        .unwrap();
        bus.subscribe(ServiceId::from_raw(2), Filter::any(), Arc::new(sink2))
            .unwrap();
        assert_eq!(bus.publish(ev("a", 1)).unwrap(), 2);
        assert_eq!(
            rx1.try_iter().count(),
            1,
            "no duplicate despite two matching subs"
        );
        assert_eq!(rx2.try_iter().count(), 1);
    }

    #[test]
    fn failing_sink_is_counted_not_fatal() {
        let bus = bus();
        bus.subscribe(
            ServiceId::from_raw(1),
            Filter::any(),
            Arc::new(|_: &Event| Err(Error::Closed)),
        )
        .unwrap();
        let (ok_sink, rx) = ChannelSink::new();
        bus.subscribe(ServiceId::from_raw(2), Filter::any(), Arc::new(ok_sink))
            .unwrap();
        assert_eq!(bus.publish(ev("a", 1)).unwrap(), 1);
        assert_eq!(rx.try_iter().count(), 1);
        assert_eq!(bus.metrics().delivery_failures, 1);
    }

    #[test]
    fn swap_engine_preserves_subscriptions() {
        let bus = EventBus::new(EngineKind::Siena);
        let (sink, rx) = ChannelSink::new();
        bus.subscribe(
            ServiceId::from_raw(1),
            Filter::for_type("r").with(("bpm", Op::Gt, 100i64)),
            Arc::new(sink),
        )
        .unwrap();
        bus.publish(ev("r", 150)).unwrap();
        bus.swap_engine(EngineKind::FastForward).unwrap();
        bus.publish(ev("r", 160)).unwrap();
        bus.publish(ev("r", 50)).unwrap();
        let got: Vec<i64> = rx
            .try_iter()
            .map(|e| e.attr("bpm").unwrap().as_int().unwrap())
            .collect();
        assert_eq!(got, vec![150, 160]);
    }

    #[test]
    fn restore_keeps_id_and_advances_allocator() {
        let bus = bus();
        let (sink, rx) = ChannelSink::new();
        let sub = Subscription::new(
            SubscriptionId(41),
            ServiceId::from_raw(1),
            Filter::for_type("r"),
        );
        bus.restore_subscription(sub, Arc::new(sink.clone()))
            .unwrap();
        assert_eq!(bus.publish(ev("r", 1)).unwrap(), 1);
        assert_eq!(rx.try_iter().count(), 1);
        // Fresh subscriptions allocate past the restored id.
        let id = bus
            .subscribe(ServiceId::from_raw(2), Filter::any(), Arc::new(sink))
            .unwrap();
        assert_eq!(id, SubscriptionId(42));
        assert_eq!(bus.next_subscription_id(), 43);
        // Restored subscriptions were not counted as new ones.
        assert_eq!(bus.metrics().subscriptions, 1);
    }

    #[test]
    fn subscriptions_listing_is_sorted() {
        let bus = bus();
        let (sink, _rx) = ChannelSink::new();
        for i in 0..3u64 {
            bus.subscribe(
                ServiceId::from_raw(i),
                Filter::any(),
                Arc::new(sink.clone()),
            )
            .unwrap();
        }
        let listing = bus.subscriptions();
        assert_eq!(listing.len(), 3);
        assert!(listing.windows(2).all(|w| w[0].0 < w[1].0));
    }
}
