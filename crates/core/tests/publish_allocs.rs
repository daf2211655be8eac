//! Pins what "allocation-free publish" means: against a ward's worth of
//! subscriptions, a warmed-up `EventBus::publish` asks the heap for nothing
//! when its sinks read the event in process, and for exactly the one shared
//! delivery frame when a sink takes the encoded bytes. Beside it, what one
//! control-path pair (`unsubscribe` + `subscribe`) may ask for.
//!
//! Alone in its binary because it installs a counting `#[global_allocator]`.
//! The count is per thread, so the test harness's own threads cannot
//! disturb it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use smc_core::{DeliveryFrame, EventBus, EventSink};
use smc_match::EngineKind;
use smc_types::{Event, Filter, Op, Result, ServiceId};

#[path = "../../types/tests/support/counting_alloc.rs"]
mod counting_alloc;

#[global_allocator]
static GLOBAL: counting_alloc::Counting = counting_alloc::Counting;

const EVENT_TYPE: &str = "smc.sensor.reading";
const KINDS: [&str; 7] = ["hr", "spo2", "bp.sys", "bp.dia", "temp", "resp", "ecg"];
const WARDS: usize = 16;
const SUBSCRIBERS: u64 = 64;
const SUBSCRIPTIONS: usize = 2000;
const PUBLISHES: usize = 512;

/// Reads the event where it is, as the policy executor does.
#[derive(Default)]
struct InProcessSink(AtomicU64);

impl EventSink for InProcessSink {
    fn deliver(&self, event: &Event) -> Result<()> {
        self.0.fetch_add(event.seq(), Ordering::Relaxed);
        Ok(())
    }
}

/// Takes the shared encoded frame, as a proxy does.
#[derive(Default)]
struct FrameSink(AtomicU64);

impl EventSink for FrameSink {
    fn deliver(&self, event: &Event) -> Result<()> {
        self.deliver_frame(&DeliveryFrame::new(event, smc_types::TraceId::NONE))
    }

    fn deliver_frame(&self, frame: &DeliveryFrame<'_>) -> Result<()> {
        self.0
            .fetch_add(frame.encoded().len() as u64, Ordering::Relaxed);
        Ok(())
    }
}

/// A bus with a ward-shaped subscription set: subscription `i` watches ward
/// `i % 16`; the first 16 watch nothing else, the rest one kind of reading
/// above or below a threshold from an even grid.
fn ward_bus(sink: Arc<dyn EventSink>) -> EventBus {
    let bus = EventBus::new(EngineKind::FastForward);
    for i in 0..SUBSCRIPTIONS {
        let mut filter = Filter::for_type(EVENT_TYPE).with(("ward", Op::Eq, (i % WARDS) as i64));
        if i >= WARDS {
            let op = if i.is_multiple_of(2) { Op::Ge } else { Op::Le };
            filter = filter
                .with(("kind", Op::Eq, KINDS[(i / WARDS) % KINDS.len()]))
                .with(("bpm", op, 40 + (i * 160 / SUBSCRIPTIONS) as i64));
        }
        let subscriber = ServiceId::from_raw(0x100 + i as u64 % SUBSCRIBERS);
        bus.subscribe(subscriber, filter, Arc::clone(&sink))
            .expect("subscribe");
    }
    bus
}

/// Four attributes, one of them a string; every event reaches somebody.
fn events(n: usize) -> Vec<Event> {
    (0..n)
        .map(|i| {
            Event::builder(EVENT_TYPE)
                .attr("ward", (i % WARDS) as i64)
                .attr("kind", KINDS[i % KINDS.len()])
                .attr("bpm", 40 + (i * 37 % 160) as i64)
                .attr("bed", (i % 24) as i64)
                .publisher(ServiceId::from_raw(0x9000))
                .seq(i as u64 + 1)
                .payload(vec![0xAB; 48])
                .build()
        })
        .collect()
}

/// Heap requests made by this thread while publishing `PUBLISHES` prebuilt
/// events, after a warm-up that grows the per-thread buffers.
fn allocations_while_publishing(bus: &EventBus) -> u64 {
    for event in events(PUBLISHES) {
        assert!(bus.publish(event).expect("publish") > 0);
    }
    let batch = events(PUBLISHES);
    let (requests, ()) = counting_alloc::during(|| {
        for event in batch {
            bus.publish(event).expect("publish");
        }
    });
    requests.count
}

/// Heap requests one control pair made on this bus while filters carried
/// their event type as a `String`. Interning types made it 48; a type map
/// copied on every `subscribe` would read 52.
const CONTROL_PAIR_BUDGET: u64 = 51;

/// The churn the ledger's `ward_bus` runs beside its publishes: one
/// ward-shaped subscription dropped and installed again. Each half
/// copies the engine pieces it changes — the bus's route table holds the
/// previous snapshot, which shares them — and publishes a new table; a
/// piece copied that the operation did not change shows here.
#[test]
fn control_pair_allocates_no_more_than_before() {
    let sink: Arc<dyn EventSink> = Arc::new(InProcessSink::default());
    let bus = ward_bus(Arc::clone(&sink));
    let subscriber = ServiceId::from_raw(0x100);
    let filter = Filter::for_type(EVENT_TYPE)
        .with(("ward", Op::Eq, 3i64))
        .with(("kind", Op::Eq, KINDS[2]))
        .with(("bpm", Op::Ge, 111i64));
    let mut id = bus
        .subscribe(subscriber, filter.clone(), Arc::clone(&sink))
        .expect("subscribe");
    let pairs: Vec<u64> = (0..16)
        .map(|_| {
            let (requests, ()) = counting_alloc::during(|| {
                bus.unsubscribe(id).expect("unsubscribe");
                id = bus
                    .subscribe(subscriber, filter.clone(), Arc::clone(&sink))
                    .expect("subscribe");
            });
            requests.count
        })
        .collect();
    assert!(
        pairs.iter().all(|&n| n <= CONTROL_PAIR_BUDGET),
        "heap requests per unsubscribe + subscribe: {pairs:?}, budget {CONTROL_PAIR_BUDGET}"
    );
}

#[test]
fn steady_state_publish_allocates_only_the_shared_frame() {
    let in_process = ward_bus(Arc::new(InProcessSink::default()));
    assert_eq!(
        allocations_while_publishing(&in_process),
        0,
        "in-process sinks: publish must not touch the heap"
    );

    let framed = ward_bus(Arc::new(FrameSink::default()));
    assert_eq!(
        allocations_while_publishing(&framed),
        PUBLISHES as u64,
        "frame-taking sinks: one shared buffer per publish, nothing else"
    );
}
