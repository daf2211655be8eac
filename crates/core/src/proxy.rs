//! Member proxies: the per-service objects masking device heterogeneity.
//!
//! "Each service granted membership of the SMC is represented by a proxy
//! object, which provides a standard interface to that service." The
//! generic behaviour (queuing, acknowledged delivery, subscription
//! bookkeeping, destruction on purge) lives in [`Proxy`]; the
//! device-specific translation is a [`DeviceCodec`] — so one can "build
//! complex proxies for simple sensors … or simple proxies for complex
//! sensors".

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use smc_telemetry::Hop;
use smc_transport::ReliableChannel;
use smc_types::codec::to_shared;
use smc_types::{
    encode_deliver, Error, Event, Filter, Packet, Result, ServiceId, ServiceInfo, SharedBytes,
    SubscriptionId, TraceId,
};

use crate::bus::{DeliveryFrame, EventSink};

/// Device-specific translation logic plugged into a [`Proxy`].
///
/// A codec for a dumb byte-protocol sensor implements `decode_uplink` to
/// turn raw frames into typed events ("a temperature sensor may
/// periodically send a series of bytes representing a temperature reading,
/// which the proxy converts into an object representing an event"); a
/// codec for a smart device is a near-passthrough.
pub trait DeviceCodec: Send + Sync {
    /// Translates one uplink frame of raw device bytes into events.
    ///
    /// # Errors
    ///
    /// Return an error for malformed frames; the proxy counts and drops
    /// them.
    fn decode_uplink(&self, raw: &[u8]) -> Result<Vec<Event>>;

    /// Translates a bus event into a downlink frame for the device.
    ///
    /// `Ok(None)` means "deliver as a typed event packet instead" (smart
    /// devices); `Ok(Some(bytes))` sends raw bytes (dumb devices).
    ///
    /// # Errors
    ///
    /// Return an error if the event cannot be represented; the proxy
    /// counts and skips it.
    fn encode_downlink(&self, event: &Event) -> Result<Option<Vec<u8>>>;

    /// Subscriptions the proxy registers on the device's behalf at
    /// creation ("the proxy itself might carry enough knowledge to
    /// register for appropriate events … upon its creation").
    fn initial_subscriptions(&self) -> Vec<Filter> {
        Vec::new()
    }
}

/// Passthrough codec: the "simple proxy for a complex sensor". The device
/// speaks the typed event protocol itself.
#[derive(Debug, Default, Clone, Copy)]
pub struct PassthroughCodec;

impl DeviceCodec for PassthroughCodec {
    fn decode_uplink(&self, _raw: &[u8]) -> Result<Vec<Event>> {
        // A passthrough device publishes typed `Publish` packets, never
        // raw frames.
        Err(Error::Invalid(
            "passthrough proxy received raw device bytes".into(),
        ))
    }

    fn encode_downlink(&self, _event: &Event) -> Result<Option<Vec<u8>>> {
        Ok(None)
    }
}

smc_telemetry::metric_set! {
    /// [`ProxyStats`] as the proxy counts them.
    struct ProxyCounters {
        /// Uplink events translated and handed to the bus.
        counter events_uplinked: "smc_proxy_events_uplinked_total",
        /// Downlink events queued for the member.
        counter events_downlinked: "smc_proxy_events_downlinked_total",
        /// Raw device frames received.
        counter raw_frames: "smc_proxy_raw_frames_total",
        /// Raw frames the codec could not decode.
        counter decode_errors: "smc_proxy_decode_errors_total",
        /// Downlink events the codec could not encode.
        counter encode_errors: "smc_proxy_encode_errors_total",
        /// Deepest the member's outbound queue (queued + in flight) has been.
        gauge queue_depth_hwm: "smc_proxy_queue_depth_hwm",
    }
    /// Counters describing one proxy's activity.
    pub struct ProxyStats {}
}

/// The per-member proxy.
///
/// Downlink (bus → device) traffic flows through the proxy's [`EventSink`]
/// implementation; the reliable channel underneath queues, retransmits and
/// preserves order until the device acknowledges or the proxy is
/// destroyed. Uplink translation is invoked by the cell's dispatch loop.
pub struct Proxy {
    info: ServiceInfo,
    codec: Box<dyn DeviceCodec>,
    channel: Arc<ReliableChannel>,
    /// Sequence numbers stamped onto uplink events from raw devices.
    next_seq: AtomicU64,
    /// Subscriptions this proxy registered (its own and on-behalf),
    /// with the filter each was registered under — the supervisor's
    /// reconcile pass re-attaches lost bus routes from these.
    subscriptions: Mutex<Vec<(SubscriptionId, Filter)>>,
    destroyed: AtomicBool,
    counters: ProxyCounters,
}

impl std::fmt::Debug for Proxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Proxy")
            .field("member", &self.info.id)
            .field("device_type", &self.info.device_type)
            .field("destroyed", &self.destroyed.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Proxy {
    /// Creates a proxy for `info`, relaying over `channel`.
    pub fn new(
        info: ServiceInfo,
        codec: Box<dyn DeviceCodec>,
        channel: Arc<ReliableChannel>,
    ) -> Self {
        Proxy {
            info,
            codec,
            channel,
            next_seq: AtomicU64::new(1),
            subscriptions: Mutex::new(Vec::new()),
            destroyed: AtomicBool::new(false),
            counters: ProxyCounters::default(),
        }
    }

    /// The represented member.
    pub fn member(&self) -> ServiceId {
        self.info.id
    }

    /// The member's description.
    pub fn info(&self) -> &ServiceInfo {
        &self.info
    }

    /// The subscriptions the proxy should register at creation.
    pub fn initial_subscriptions(&self) -> Vec<Filter> {
        self.codec.initial_subscriptions()
    }

    /// Records a subscription owned by this proxy, remembering the
    /// filter so a lost bus route can be restored verbatim.
    pub fn track_subscription(&self, id: SubscriptionId, filter: Filter) {
        self.subscriptions.lock().push((id, filter));
    }

    /// Stops tracking a subscription (device-initiated unsubscribe).
    pub fn untrack_subscription(&self, id: SubscriptionId) {
        self.subscriptions.lock().retain(|(s, _)| *s != id);
    }

    /// The subscriptions currently tracked.
    pub fn tracked_subscriptions(&self) -> Vec<SubscriptionId> {
        self.subscriptions.lock().iter().map(|(s, _)| *s).collect()
    }

    /// The tracked subscriptions with their filters (reconcile input).
    pub fn tracked_subscription_filters(&self) -> Vec<(SubscriptionId, Filter)> {
        self.subscriptions.lock().clone()
    }

    /// Translates an uplink raw frame into stamped events ready for the
    /// bus.
    ///
    /// # Errors
    ///
    /// Propagates codec decode failures (after counting them).
    pub fn uplink(&self, raw: &[u8], timestamp_micros: u64) -> Result<Vec<Event>> {
        AtomicU64::fetch_add(&self.counters.raw_frames, 1, Ordering::Relaxed);
        match self.codec.decode_uplink(raw) {
            Ok(mut events) => {
                for e in &mut events {
                    let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
                    e.stamp(self.info.id, seq, timestamp_micros);
                    AtomicU64::fetch_add(&self.counters.events_uplinked, 1, Ordering::Relaxed);
                }
                Ok(events)
            }
            Err(e) => {
                AtomicU64::fetch_add(&self.counters.decode_errors, 1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// Stamps an already-typed uplink event (smart devices) if the device
    /// did not stamp it itself.
    pub fn stamp_if_needed(&self, event: &mut Event, timestamp_micros: u64) {
        if event.seq() == 0 || event.publisher().is_nil() {
            let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
            event.stamp(self.info.id, seq, timestamp_micros);
        }
        AtomicU64::fetch_add(&self.counters.events_uplinked, 1, Ordering::Relaxed);
    }

    /// Destroys the proxy: drops every queued-but-undelivered message for
    /// the device ("destroy itself, and any outbound data awaiting
    /// delivery").
    ///
    /// Returns the subscriptions that must be removed from the bus.
    pub fn destroy(&self) -> Vec<SubscriptionId> {
        if self.destroyed.swap(true, Ordering::SeqCst) {
            return Vec::new();
        }
        self.channel.forget_peer(self.info.id);
        std::mem::take(&mut *self.subscriptions.lock())
            .into_iter()
            .map(|(id, _)| id)
            .collect()
    }

    /// Whether the proxy has been destroyed.
    pub fn is_destroyed(&self) -> bool {
        self.destroyed.load(Ordering::SeqCst)
    }

    /// Sends an arbitrary packet to the device, reliably.
    ///
    /// # Errors
    ///
    /// [`Error::Closed`] if the proxy is destroyed or the channel is shut.
    pub fn send_packet(&self, packet: Packet) -> Result<()> {
        if self.is_destroyed() {
            return Err(Error::Closed);
        }
        self.channel.send(self.info.id, packet.into_shared())
    }

    /// Downlink: translates `event` for the device once and queues what
    /// the codec made of it — its raw frame, or the typed `Deliver` of
    /// the event under `trace` — accounted under `trace`.
    fn downlink(&self, event: &Event, trace: TraceId) -> Result<()> {
        if self.is_destroyed() {
            return Err(Error::Closed);
        }
        let encoded = match self.codec.encode_downlink(event) {
            Ok(Some(raw)) => to_shared(&Packet::Raw(raw)),
            Ok(None) => encode_deliver(event, trace),
            Err(e) => {
                AtomicU64::fetch_add(&self.counters.encode_errors, 1, Ordering::Relaxed);
                return Err(e);
            }
        };
        self.enqueue(encoded, trace)
    }

    /// Queues one encoded downlink message for the device and accounts
    /// for it.
    fn enqueue(&self, encoded: SharedBytes, trace: TraceId) -> Result<()> {
        self.channel.tracer().record(trace, Hop::ProxyEnqueued);
        self.channel.send_traced(self.info.id, encoded, trace)?;
        AtomicU64::fetch_add(&self.counters.events_downlinked, 1, Ordering::Relaxed);
        let depth = self.channel.pending(self.info.id) as u64;
        self.counters
            .queue_depth_hwm
            .fetch_max(depth, Ordering::Relaxed);
        Ok(())
    }

    /// A snapshot of the proxy's counters.
    pub fn stats(&self) -> ProxyStats {
        self.counters.snapshot()
    }
}

impl EventSink for Proxy {
    /// Downlink: translate and queue the event for the device, traced as
    /// the publish it came from.
    ///
    /// The queueing, in-order retransmission and eventual drop-on-purge
    /// are provided by the reliable channel (`forget_peer` in
    /// [`Proxy::destroy`]).
    fn deliver(&self, event: &Event) -> Result<()> {
        self.downlink(event, TraceId::for_event(event.publisher(), event.seq()))
    }

    /// As [`EventSink::deliver`], under the frame's trace. A passthrough
    /// member's `Deliver` is the frame's [`encoded`](DeliveryFrame::encoded)
    /// packet — the event's body by reference count; a raw member's frame
    /// is translated once, like any other delivery.
    fn deliver_frame(&self, frame: &DeliveryFrame<'_>) -> Result<()> {
        self.downlink(frame.event(), frame.trace())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smc_transport::{Incoming, LinkConfig, ReliableConfig, SimNetwork};
    use smc_types::codec::from_bytes;
    use std::time::Duration;

    /// A codec for a fake 2-byte temperature frame: [kind, value].
    #[derive(Debug)]
    struct TempCodec;

    impl DeviceCodec for TempCodec {
        fn decode_uplink(&self, raw: &[u8]) -> Result<Vec<Event>> {
            match raw {
                [0x01, v] => Ok(vec![Event::builder("smc.sensor.reading")
                    .attr("sensor", "temperature")
                    .attr("celsius", *v as i64)
                    .build()]),
                _ => Err(Error::Invalid("bad temp frame".into())),
            }
        }

        fn encode_downlink(&self, event: &Event) -> Result<Option<Vec<u8>>> {
            // Only threshold commands are meaningful to this device.
            if event.event_type() == "smc.command" {
                let t = event
                    .attr("threshold")
                    .and_then(|v| v.as_int())
                    .unwrap_or(0);
                Ok(Some(vec![0xC0, t as u8]))
            } else {
                Err(Error::Invalid("temp sensor cannot display events".into()))
            }
        }

        fn initial_subscriptions(&self) -> Vec<Filter> {
            vec![Filter::for_type("smc.command")]
        }
    }

    fn setup() -> (Arc<ReliableChannel>, Arc<ReliableChannel>, SimNetwork) {
        let net = SimNetwork::new(LinkConfig::ideal());
        let cell = ReliableChannel::new(Arc::new(net.endpoint()), ReliableConfig::default());
        let device = ReliableChannel::new(Arc::new(net.endpoint()), ReliableConfig::default());
        (cell, device, net)
    }

    #[test]
    fn uplink_translation_stamps_events() {
        let (cell, device, _net) = setup();
        let info = ServiceInfo::new(device.local_id(), "sensor.temperature");
        let proxy = Proxy::new(info, Box::new(TempCodec), cell);
        let events = proxy.uplink(&[0x01, 37], 123).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].publisher(), device.local_id());
        assert_eq!(events[0].seq(), 1);
        assert_eq!(events[0].timestamp_micros(), 123);
        assert_eq!(events[0].attr("celsius").unwrap().as_int(), Some(37));
        // Sequence numbers advance.
        let events2 = proxy.uplink(&[0x01, 38], 124).unwrap();
        assert_eq!(events2[0].seq(), 2);
        assert!(proxy.uplink(&[0xFF], 125).is_err());
        let stats = proxy.stats();
        assert_eq!(stats.events_uplinked, 2);
        assert_eq!(stats.decode_errors, 1);
        assert_eq!(stats.raw_frames, 3);
    }

    #[test]
    fn downlink_translates_to_raw_frames() {
        let (cell, device, _net) = setup();
        let info = ServiceInfo::new(device.local_id(), "sensor.temperature");
        let proxy = Proxy::new(info, Box::new(TempCodec), cell);
        let cmd = Event::builder("smc.command")
            .attr("threshold", 40i64)
            .build();
        proxy.deliver(&cmd).unwrap();
        match device.recv(Some(Duration::from_secs(2))).unwrap() {
            Incoming::Reliable { payload, .. } => match from_bytes::<Packet>(&payload).unwrap() {
                Packet::Raw(raw) => assert_eq!(raw, vec![0xC0, 40]),
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
        // Untranslatable events are errors, counted.
        assert!(proxy.deliver(&Event::new("smc.alarm")).is_err());
        assert_eq!(proxy.stats().encode_errors, 1);
        assert_eq!(proxy.stats().events_downlinked, 1);
    }

    #[test]
    fn passthrough_sends_typed_deliver() {
        let (cell, device, _net) = setup();
        let info = ServiceInfo::new(device.local_id(), "monitor.station");
        let proxy = Proxy::new(info, Box::new(PassthroughCodec), cell);
        let event = Event::builder("smc.alarm").attr("severity", 2i64).build();
        proxy.deliver(&event).unwrap();
        match device.recv(Some(Duration::from_secs(2))).unwrap() {
            Incoming::Reliable { payload, .. } => match from_bytes::<Packet>(&payload).unwrap() {
                Packet::Deliver { event: e, trace } => {
                    assert_eq!(e, event);
                    assert_eq!(trace, TraceId::for_event(e.publisher(), e.seq()));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
        assert!(proxy.uplink(&[1, 2, 3], 0).is_err());
    }

    #[test]
    fn stamping_only_when_needed() {
        let (cell, device, _net) = setup();
        let info = ServiceInfo::new(device.local_id(), "monitor.station");
        let proxy = Proxy::new(info, Box::new(PassthroughCodec), cell);
        let mut unstamped = Event::new("x");
        proxy.stamp_if_needed(&mut unstamped, 55);
        assert_eq!(unstamped.publisher(), device.local_id());
        assert_eq!(unstamped.seq(), 1);
        let mut stamped = Event::builder("x")
            .publisher(ServiceId::from_raw(9))
            .seq(42)
            .build();
        proxy.stamp_if_needed(&mut stamped, 56);
        assert_eq!(stamped.publisher(), ServiceId::from_raw(9));
        assert_eq!(stamped.seq(), 42);
    }

    #[test]
    fn destroy_drops_queued_and_returns_subscriptions() {
        let net = SimNetwork::new(LinkConfig::ideal());
        let cell = ReliableChannel::new(Arc::new(net.endpoint()), ReliableConfig::default());
        let device = ReliableChannel::new(Arc::new(net.endpoint()), ReliableConfig::default());
        // Cut the device off so a delivery sits in the queue.
        net.set_partitioned(cell.local_id(), device.local_id(), true);
        let info = ServiceInfo::new(device.local_id(), "monitor.station");
        let proxy = Proxy::new(info, Box::new(PassthroughCodec), Arc::clone(&cell));
        proxy.track_subscription(SubscriptionId(3), Filter::for_type("a"));
        proxy.track_subscription(SubscriptionId(9), Filter::for_type("b"));
        proxy.untrack_subscription(SubscriptionId(3));
        assert_eq!(
            proxy.tracked_subscription_filters(),
            vec![(SubscriptionId(9), Filter::for_type("b"))]
        );
        proxy.deliver(&Event::new("x")).unwrap();
        assert_eq!(cell.pending(device.local_id()), 1);
        assert_eq!(
            proxy.stats().queue_depth_hwm,
            1,
            "partitioned delivery sits queued"
        );
        let subs = proxy.destroy();
        assert_eq!(subs, vec![SubscriptionId(9)]);
        assert_eq!(cell.pending(device.local_id()), 0, "queued data destroyed");
        assert!(proxy.is_destroyed());
        // Idempotent; further deliveries fail.
        assert!(proxy.destroy().is_empty());
        assert!(matches!(
            proxy.deliver(&Event::new("y")),
            Err(Error::Closed)
        ));
        assert!(matches!(
            proxy.send_packet(Packet::Quench { enable: true }),
            Err(Error::Closed)
        ));
    }

    /// Translates every event to one raw byte, counting its calls.
    #[derive(Debug)]
    struct CountingCodec(Arc<AtomicU64>);

    impl DeviceCodec for CountingCodec {
        fn decode_uplink(&self, _raw: &[u8]) -> Result<Vec<Event>> {
            Ok(Vec::new())
        }

        fn encode_downlink(&self, _event: &Event) -> Result<Option<Vec<u8>>> {
            self.0.fetch_add(1, Ordering::Relaxed);
            Ok(Some(vec![0xC0]))
        }
    }

    #[test]
    fn a_raw_delivery_is_translated_once_under_the_frames_trace() {
        use smc_telemetry::{TraceSink, Tracer};

        let (cell, device, _net) = setup();
        let sink = Arc::new(TraceSink::with_capacity(64));
        cell.set_tracer(Tracer::new(Arc::clone(&sink), smc_types::system_clock()));
        let translations = Arc::new(AtomicU64::new(0));
        let info = ServiceInfo::new(device.local_id(), "sensor.temperature");
        let codec = CountingCodec(Arc::clone(&translations));
        let proxy = Proxy::new(info, Box::new(codec), cell);
        let event = Event::builder("smc.command")
            .publisher(ServiceId::from_raw(9))
            .seq(4)
            .build();
        // Not the id `TraceId::for_event` would derive.
        let trace = TraceId::from_raw(0xF00D);
        proxy
            .deliver_frame(&DeliveryFrame::new(&event, trace))
            .unwrap();
        assert_eq!(translations.load(Ordering::Relaxed), 1, "one translation");
        match device.recv(Some(Duration::from_secs(2))).unwrap() {
            Incoming::Reliable { payload, .. } => {
                assert_eq!(
                    from_bytes::<Packet>(&payload).unwrap(),
                    Packet::Raw(vec![0xC0])
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        let enqueued = |trace| {
            sink.journey(trace)
                .hops
                .iter()
                .any(|r| r.hop == Hop::ProxyEnqueued)
        };
        assert!(enqueued(trace), "accounted under the frame's trace");
        assert!(!enqueued(TraceId::for_event(
            event.publisher(),
            event.seq()
        )));
        assert_eq!(proxy.stats().events_downlinked, 1);
    }

    #[test]
    fn initial_subscriptions_come_from_codec() {
        let (cell, device, _net) = setup();
        let info = ServiceInfo::new(device.local_id(), "sensor.temperature");
        let proxy = Proxy::new(info, Box::new(TempCodec), cell);
        let subs = proxy.initial_subscriptions();
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].event_type(), Some("smc.command"));
    }
}
