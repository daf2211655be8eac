//! The `ward_bus` world: the in-process `EventBus` with a ward's worth of
//! subscriptions, no transport. Subscribers are sinks, not threads; each
//! takes the encoded frame the way a proxy does. A `subscribe` +
//! `unsubscribe` pair runs beside the publishes so the copy-on-write
//! control path is part of what is measured.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use smc_core::{DeliveryFrame, EventBus, EventSink};
use smc_match::EngineKind;
use smc_telemetry::Tracer;
use smc_types::{Event, Filter, Result as SmcResult, ServiceId, SubscriptionId};

use crate::check::{expected_mask, Tally};
use crate::gen::{bus_subscriber, Inputs, BUS_PUBLISHER, BUS_SUBSCRIBERS};
use crate::span::SpanLog;
use crate::world::World;

/// One control-path pair per this many publishes.
pub const CHURN_EVERY: u64 = 512;
/// One publish in this many has its delivered set kept for the oracle.
const SAMPLE_EVERY: u64 = 64;

/// What the sinks saw since the driver last looked.
#[derive(Debug, Default)]
pub struct Seen {
    /// One bit per subscriber index.
    mask: AtomicU64,
    deliveries: AtomicU64,
    pub frame_bytes: AtomicU64,
}

/// A subscriber that takes the shared encoded frame, as `Proxy` does.
pub struct FrameSink {
    bit: u64,
    seen: Arc<Seen>,
}

impl FrameSink {
    pub fn shared(index: usize, seen: &Arc<Seen>) -> Arc<dyn EventSink> {
        Arc::new(FrameSink {
            bit: 1 << index,
            seen: Arc::clone(seen),
        })
    }
}

impl EventSink for FrameSink {
    fn deliver(&self, event: &Event) -> SmcResult<()> {
        self.deliver_frame(&DeliveryFrame::new(event, smc_types::TraceId::NONE))
    }

    fn deliver_frame(&self, frame: &DeliveryFrame<'_>) -> SmcResult<()> {
        // Relaxed: the driver reads these on the publishing thread, after
        // `publish` returned.
        self.seen
            .frame_bytes
            .fetch_add(frame.encoded().len() as u64, Ordering::Relaxed);
        self.seen.mask.fetch_or(self.bit, Ordering::Relaxed);
        self.seen.deliveries.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn prefers_encoded(&self) -> bool {
        true
    }
}

fn subscriber_index(id: ServiceId) -> usize {
    (id.raw() - bus_subscriber(0).raw()) as usize
}

pub struct BusWorld {
    bus: EventBus,
    seen: Arc<Seen>,
    sinks: Vec<Arc<dyn EventSink>>,
    pool: Vec<Event>,
    /// The live subscription set, as the oracle knows it.
    subs: Vec<(SubscriptionId, ServiceId, Filter)>,
    published: u64,
    /// Deliveries made, for `match.matched_per_event`.
    pub deliveries: u64,
    /// `(pool index, delivered mask)` of the sampled publishes.
    samples: Vec<(u32, u64)>,
    pub tally: Tally,
}

impl BusWorld {
    /// Builds the bus, installs every subscription (the control-path
    /// number `setup_s` reports) and proves it by delivering one event.
    pub fn build(inputs: &Inputs, tracer: Tracer) -> Result<BusWorld, String> {
        let bus = EventBus::new(EngineKind::FastForward);
        bus.set_tracer(tracer);
        let seen = Arc::new(Seen::default());
        let sinks: Vec<_> = (0..BUS_SUBSCRIBERS)
            .map(|i| FrameSink::shared(i, &seen))
            .collect();
        let mut subs = Vec::with_capacity(inputs.subs.len());
        for (subscriber, filter) in &inputs.subs {
            let sink = Arc::clone(&sinks[subscriber_index(*subscriber)]);
            let id = bus
                .subscribe(*subscriber, filter.clone(), sink)
                .map_err(|e| format!("subscribe: {e}"))?;
            subs.push((id, *subscriber, filter.clone()));
        }
        let mut world = BusWorld {
            bus,
            seen,
            sinks,
            pool: inputs.events.clone(),
            subs,
            published: 0,
            deliveries: 0,
            samples: Vec::new(),
            tally: Tally::default(),
        };
        // The first pool event somebody watches must arrive.
        let first = (0..world.pool.len())
            .find(|&i| world.expected(i) != 0)
            .ok_or("no event in the pool matches any subscription")?;
        world.published = first as u64;
        world.publish_next();
        if world.deliveries == 0 || world.tally.failed > 0 {
            return Err(format!(
                "first event was not delivered: {}",
                world.tally.notes.join("; ")
            ));
        }
        Ok(world)
    }

    /// Events published so far.
    pub fn published(&self) -> u64 {
        self.published
    }

    fn expected(&self, pool_index: usize) -> u64 {
        let mut event = self.pool[pool_index].clone();
        event.stamp(BUS_PUBLISHER, 1, 0);
        expected_mask(
            &event,
            self.subs.iter().map(|(_, s, f)| (*s, f)),
            subscriber_index,
        )
    }

    /// The next event to publish, stamped, and its pool index.
    fn next_event(&mut self) -> (usize, Event) {
        let index = self.published as usize % self.pool.len();
        self.published += 1;
        self.tally.attempted += 1;
        let mut event = self.pool[index].clone();
        event.stamp(BUS_PUBLISHER, self.published, 0);
        (index, event)
    }

    /// Checks what `publish` did with the event from [`Self::next_event`],
    /// then runs the control path if it is due.
    fn record_outcome(&mut self, index: usize, outcome: SmcResult<usize>) {
        match outcome {
            Ok(n) => {
                let mask = self.seen.mask.swap(0, Ordering::Relaxed);
                let deliveries = self.seen.deliveries.swap(0, Ordering::Relaxed);
                // Exactly once per interested subscriber: as many sinks
                // reached as deliveries made as the bus reported.
                if deliveries != n as u64 || u64::from(mask.count_ones()) != deliveries {
                    let seq = self.published;
                    self.tally.fail(1, || {
                        format!("seq {seq}: bus reported {n}, sinks saw {deliveries} ({mask:#x})")
                    });
                }
                self.deliveries += deliveries;
                if self.published.is_multiple_of(SAMPLE_EVERY) {
                    self.samples.push((index as u32, mask));
                }
            }
            Err(e) => self.tally.fail(1, || format!("publish: {e}")),
        }
        if self.published.is_multiple_of(CHURN_EVERY) {
            self.churn();
        }
    }

    fn publish_next(&mut self) {
        let (index, event) = self.next_event();
        let outcome = self.bus.publish(event);
        self.record_outcome(index, outcome);
    }

    /// The control path: drop one subscription and install it again under
    /// a new id. The subscription *set* is unchanged, so the oracle's
    /// answer for an event does not depend on when it was published — but
    /// a lost or half-applied control operation changes what is delivered
    /// from then on, and the sampled check sees it.
    fn churn(&mut self) {
        let slot = (self.published / CHURN_EVERY) as usize % self.subs.len();
        let (id, subscriber, filter) = self.subs[slot].clone();
        let sink = Arc::clone(&self.sinks[subscriber_index(subscriber)]);
        self.tally.attempted += 2;
        if let Err(e) = self.bus.unsubscribe(id) {
            self.tally.fail(1, || format!("unsubscribe: {e}"));
        }
        match self.bus.subscribe(subscriber, filter, sink) {
            Ok(new_id) => self.subs[slot].0 = new_id,
            Err(e) => self.tally.fail(1, || format!("subscribe: {e}")),
        }
    }

    /// Runs the sampled oracle check: each sampled publish must have
    /// reached exactly the subscribers a brute-force scan selects.
    pub fn finish(mut self) -> Tally {
        let mut expected: Vec<Option<u64>> = vec![None; self.pool.len()];
        for (index, mask) in std::mem::take(&mut self.samples) {
            let want =
                *expected[index as usize].get_or_insert_with(|| self.expected(index as usize));
            if mask != want {
                self.tally.fail(1, || {
                    format!("pool event {index}: delivered to {mask:#x}, oracle says {want:#x}")
                });
            }
        }
        if self.bus.subscription_count() != self.subs.len() {
            self.tally.fail(1, || "subscription count drifted".into());
        }
        self.tally
    }
}

impl World for BusWorld {
    fn throughput(&mut self, until: Instant) -> u64 {
        let before = self.published;
        loop {
            // The clock is read once per 16 publishes: at ~2 µs a
            // publish, reading it every time would be a measurable share.
            for _ in 0..16 {
                self.publish_next();
            }
            if Instant::now() >= until {
                break;
            }
        }
        self.published - before
    }

    fn respond(&mut self, until: Instant, samples: &mut Vec<f64>, log: &mut SpanLog) {
        while Instant::now() < until {
            // Response time here is one `EventBus::publish` call.
            let (index, event) = self.next_event();
            let call = Instant::now();
            let outcome = log.time("e2e.response", self.published, || self.bus.publish(event));
            samples.push(call.elapsed().as_secs_f64() * 1e6);
            self.record_outcome(index, outcome);
        }
    }

    fn settle(&mut self) {}

    fn stalled(&self) -> bool {
        false
    }
}
