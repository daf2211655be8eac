//! Pins what "allocation-free publish" means: against a ward's worth of
//! subscriptions, a warmed-up `EventBus::publish` asks the heap for nothing,
//! whether its sinks read the event in process or take the encoded
//! `Deliver` — the event's body under a tag, shared by reference count.
//! Beside it, what one control-path pair (`unsubscribe` + `subscribe`) may
//! ask for — heap requests and bytes — and that its bytes do not grow with
//! the number of subscriptions.
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

/// A bus with a ward-shaped set of `subscriptions`: subscription `i`
/// watches ward `i % 16`; the first 16 watch nothing else, the rest one
/// kind of reading above or below a threshold from an even grid.
fn ward_bus_of(subscriptions: usize, sink: Arc<dyn EventSink>) -> EventBus {
    let bus = EventBus::new(EngineKind::FastForward);
    for i in 0..subscriptions {
        let mut filter = Filter::for_type(EVENT_TYPE).with(("ward", Op::Eq, (i % WARDS) as i64));
        if i >= WARDS {
            let op = if i.is_multiple_of(2) { Op::Ge } else { Op::Le };
            filter = filter
                .with(("kind", Op::Eq, KINDS[(i / WARDS) % KINDS.len()]))
                .with(("bpm", op, 40 + (i * 160 / subscriptions) as i64));
        }
        let subscriber = ServiceId::from_raw(0x100 + i as u64 % SUBSCRIBERS);
        bus.subscribe(subscriber, filter, Arc::clone(&sink))
            .expect("subscribe");
    }
    bus
}

/// The ledger's `ward_bus` set: 2 000 subscriptions.
fn ward_bus(sink: Arc<dyn EventSink>) -> EventBus {
    ward_bus_of(SUBSCRIPTIONS, sink)
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

/// Heap requests one control pair may make on the 2 000-subscription bus:
/// 46 for the first pair after the table was built, 45 after it, since
/// the forwarding table's vectors are chunked and a shared bucket is
/// copied with room for its new row. 48 before that; 51 while filters
/// carried their event type as a `String`.
const CONTROL_PAIR_BUDGET: u64 = 46;

/// Bytes one control pair may ask for on the same bus: 9 479 for the
/// first pair, 9 447 after it. Before the table was chunked, when every
/// pair copied the whole filter spine and every republish the sink map,
/// it asked for 46 175.
const CONTROL_PAIR_BYTES: u64 = 10_000;

/// The churn the ledger's `ward_bus` runs beside its publishes: one
/// ward-shaped subscription dropped and installed again.
fn churned() -> Filter {
    Filter::for_type(EVENT_TYPE)
        .with(("ward", Op::Eq, 3i64))
        .with(("kind", Op::Eq, KINDS[2]))
        .with(("bpm", Op::Ge, 111i64))
}

/// What each of 16 `unsubscribe` + `subscribe` pairs of `filter` asked
/// the heap for, on a bus of `subscriptions` ward-shaped ones. Each half
/// copies the engine pieces it changes — the bus's route table holds the
/// previous snapshot, which shares them — and publishes a new table; a
/// piece copied that the operation did not change shows here.
fn control_pairs(subscriptions: usize, filter: &Filter) -> Vec<counting_alloc::Requests> {
    let sink: Arc<dyn EventSink> = Arc::new(InProcessSink::default());
    let bus = ward_bus_of(subscriptions, Arc::clone(&sink));
    let subscriber = ServiceId::from_raw(0x100);
    let mut id = bus
        .subscribe(subscriber, filter.clone(), Arc::clone(&sink))
        .expect("subscribe");
    (0..16)
        .map(|_| {
            let (requests, ()) = counting_alloc::during(|| {
                bus.unsubscribe(id).expect("unsubscribe");
                id = bus
                    .subscribe(subscriber, filter.clone(), Arc::clone(&sink))
                    .expect("subscribe");
            });
            requests
        })
        .collect()
}

#[test]
fn control_pair_allocates_no_more_than_before() {
    let pairs = control_pairs(SUBSCRIPTIONS, &churned());
    assert!(
        pairs.iter().all(|r| r.count <= CONTROL_PAIR_BUDGET),
        "heap requests per unsubscribe + subscribe: {pairs:?}, budget {CONTROL_PAIR_BUDGET}"
    );
    assert!(
        pairs.iter().all(|r| r.bytes <= CONTROL_PAIR_BYTES),
        "bytes per unsubscribe + subscribe: {pairs:?}, budget {CONTROL_PAIR_BYTES}"
    );
}

/// Members of `ward_bus_of(subscriptions)` in the bucket [`churned`]
/// joins: ward 3, the third kind.
fn bucket_mates(subscriptions: usize) -> u64 {
    let mate = |i: &usize| i % WARDS == 3 && (i / WARDS) % KINDS.len() == 2;
    (WARDS..subscriptions).filter(mate).count() as u64
}

/// One member's row in a bucket, `[filter id, type id, n, constraint id
/// × n]` as `u32`s, for [`churned`]'s three constraints.
const ROW_BYTES: u64 = 4 * (3 + 3);

/// A control pair's bytes do not follow the table: 8 × the subscriptions
/// cost less than 2 × the bytes, where copying whole spines cost ≈ 8 ×.
/// Measured on a subscription in a bucket of its own (a ward-only
/// subscription for a seventeenth ward), which is what the table's size
/// alone costs: 2 × its spines, one pointer per 64 slots. The churned
/// ward-shaped subscription shares its bucket with every subscription to
/// its ward and kind (18 at 2 000, 143 at 16 000), and both halves of the
/// pair copy that bucket's rows whole; those rows are all it may cost on
/// top (9 447 → 18 951 B per pair, ≈ 2.0 ×).
#[test]
fn control_pair_bytes_do_not_grow_with_the_table() {
    let (small, large) = (SUBSCRIPTIONS, 8 * SUBSCRIPTIONS);
    let most = |subscriptions: usize, filter: &Filter| {
        let pairs = control_pairs(subscriptions, filter);
        pairs.iter().map(|r| r.bytes).max().expect("16 pairs")
    };
    let own = Filter::for_type(EVENT_TYPE).with(("ward", Op::Eq, WARDS as i64));
    let (own_small, own_large) = (most(small, &own), most(large, &own));
    assert!(
        own_large < 2 * own_small,
        "bytes per pair in a bucket of its own: {own_small} at {small}, {own_large} at {large}"
    );
    let (shared_small, shared_large) = (most(small, &churned()), most(large, &churned()));
    let rows = 2 * ROW_BYTES * (bucket_mates(large) - bucket_mates(small));
    assert!(
        shared_large - shared_small <= own_large - own_small + rows,
        "bytes per pair in a shared bucket: {shared_small} at {small}, {shared_large} at \
         {large}; the bucket's rows account for {rows} of the growth"
    );
}

#[test]
fn steady_state_publish_asks_the_heap_for_nothing() {
    let in_process = ward_bus(Arc::new(InProcessSink::default()));
    assert_eq!(
        allocations_while_publishing(&in_process),
        0,
        "in-process sinks: publish must not touch the heap"
    );

    let framed = ward_bus(Arc::new(FrameSink::default()));
    assert_eq!(
        allocations_while_publishing(&framed),
        0,
        "frame-taking sinks: the encoded frame is the event, shared"
    );
}
