//! Behavioural tests for the lock-free snapshot routing path: control
//! operations must be visible to the *next* publish, purges must be
//! atomic from a publisher's point of view, fan-out must share one
//! payload buffer, and the batched metrics must equal the per-delivery
//! accounting they replaced — all under concurrent publish + churn.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};

use smc_core::{EventBus, EventSink};
use smc_match::EngineKind;
use smc_types::{Error, Event, Filter, Result, ServiceId};

const EVENT_TYPE: &str = "smc.sensor.reading";

fn event(publisher: u64, seq: u64) -> Event {
    Event::builder(EVENT_TYPE)
        .publisher(ServiceId::from_raw(0x9000 + publisher))
        .seq(seq)
        .attr("bpm", 130i64)
        .payload(vec![0xAB; 48])
        .build()
}

#[derive(Default)]
struct CountingSink {
    delivered: AtomicU64,
}

impl EventSink for CountingSink {
    fn deliver(&self, _event: &Event) -> Result<()> {
        self.delivered.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }
}

struct FailingSink;

impl EventSink for FailingSink {
    fn deliver(&self, _event: &Event) -> Result<()> {
        Err(Error::Closed)
    }
}

/// Retains delivered events the way a queueing proxy would.
#[derive(Default)]
struct RetainingSink {
    events: Mutex<Vec<Event>>,
}

impl EventSink for RetainingSink {
    fn deliver(&self, event: &Event) -> Result<()> {
        self.events.lock().unwrap().push(event.clone());
        Ok(())
    }
}

#[test]
fn subscribe_is_visible_to_next_publish() {
    let bus = EventBus::new(EngineKind::FastForward);
    assert_eq!(bus.publish(event(1, 1)).unwrap(), 0, "nothing registered");
    let sink = Arc::new(CountingSink::default());
    bus.subscribe(
        ServiceId::from_raw(0x100),
        Filter::for_type(EVENT_TYPE),
        Arc::clone(&sink) as Arc<dyn EventSink>,
    )
    .unwrap();
    assert_eq!(bus.publish(event(1, 2)).unwrap(), 1);
    assert_eq!(sink.delivered.load(Ordering::SeqCst), 1);
}

#[test]
fn unsubscribe_is_visible_to_next_publish() {
    let bus = EventBus::new(EngineKind::FastForward);
    let sink = Arc::new(CountingSink::default());
    let id = bus
        .subscribe(
            ServiceId::from_raw(0x100),
            Filter::for_type(EVENT_TYPE),
            Arc::clone(&sink) as Arc<dyn EventSink>,
        )
        .unwrap();
    assert_eq!(bus.publish(event(1, 1)).unwrap(), 1);
    bus.unsubscribe(id).unwrap();
    assert_eq!(bus.publish(event(1, 2)).unwrap(), 0);
    assert_eq!(sink.delivered.load(Ordering::SeqCst), 1);
}

/// Unsubscribing one of a member's subscriptions must not tear down the
/// sink its other subscriptions still use (the old double-lock race).
#[test]
fn unsubscribe_keeps_sink_for_remaining_subscriptions() {
    let bus = EventBus::new(EngineKind::FastForward);
    let sink = Arc::new(CountingSink::default());
    let member = ServiceId::from_raw(0x100);
    let first = bus
        .subscribe(
            member,
            Filter::for_type(EVENT_TYPE),
            Arc::clone(&sink) as Arc<dyn EventSink>,
        )
        .unwrap();
    bus.subscribe(
        member,
        Filter::for_type("smc.alarm"),
        Arc::clone(&sink) as Arc<dyn EventSink>,
    )
    .unwrap();
    bus.unsubscribe(first).unwrap();
    assert_eq!(bus.publish(Event::new("smc.alarm")).unwrap(), 1);
    assert_eq!(sink.delivered.load(Ordering::SeqCst), 1);
}

/// A purge is one snapshot swap: the instant `remove_subscriber`
/// returns, no further publish delivers to the purged member — even
/// though the member held several subscriptions.
#[test]
fn purge_is_atomic_for_the_next_publish() {
    let bus = EventBus::new(EngineKind::FastForward);
    let member = ServiceId::from_raw(0x100);
    let sink = Arc::new(CountingSink::default());
    for ty in [EVENT_TYPE, "smc.alarm", "smc.command"] {
        bus.subscribe(
            member,
            Filter::for_type(ty),
            Arc::clone(&sink) as Arc<dyn EventSink>,
        )
        .unwrap();
    }
    assert_eq!(bus.publish(event(1, 1)).unwrap(), 1);
    assert_eq!(bus.remove_subscriber(member), 3);
    for (seq, ty) in [(2, EVENT_TYPE), (3, "smc.alarm"), (4, "smc.command")] {
        let e = Event::builder(ty)
            .publisher(ServiceId::from_raw(0x9001))
            .seq(seq)
            .build();
        assert_eq!(bus.publish(e).unwrap(), 0, "delivered to purged member");
    }
    assert_eq!(sink.delivered.load(Ordering::SeqCst), 1);
}

/// The seqs `sink` retained from each of `publishers` publishers, in
/// arrival order.
fn seqs_per_publisher(sink: &RetainingSink, publishers: usize) -> Vec<Vec<u64>> {
    let events = sink.events.lock().unwrap();
    (0..publishers)
        .map(|p| {
            let id = ServiceId::from_raw(0x9000 + p as u64);
            events
                .iter()
                .filter(|e| e.publisher() == id)
                .map(Event::seq)
                .collect()
        })
        .collect()
}

/// Four threads publish through one bus while a fifth subscribes and
/// purges members, under the delivery oracle's rules: a subscriber that
/// stays a member throughout gets every publisher's stream exactly once
/// and in order, and a member that comes and goes gets, from each
/// publisher, one gap-free in-order run — exactly once while a member,
/// per-sender FIFO, nothing after the purge.
#[test]
fn publish_survives_concurrent_churn_without_drops() {
    const PUBLISHERS: usize = 4;
    const EVENTS_EACH: usize = 2_000;
    const CHURN_MEMBERS: usize = 8;

    let bus = Arc::new(EventBus::new(EngineKind::FastForward));
    let stable = Arc::new(RetainingSink::default());
    bus.subscribe(
        ServiceId::from_raw(0x50),
        Filter::for_type(EVENT_TYPE),
        Arc::clone(&stable) as Arc<dyn EventSink>,
    )
    .unwrap();

    let publishers_done = Arc::new(AtomicU64::new(0));
    let barrier = Arc::new(Barrier::new(PUBLISHERS + 2));
    let churned: Vec<Arc<RetainingSink>> = std::thread::scope(|scope| {
        let bus_ref = &bus;
        let done_ref = &publishers_done;
        let barrier_ref = &barrier;
        for p in 0..PUBLISHERS {
            scope.spawn(move || {
                barrier_ref.wait();
                for seq in 1..=EVENTS_EACH as u64 {
                    bus_ref.publish(event(p as u64, seq)).unwrap();
                }
                done_ref.fetch_add(1, Ordering::SeqCst);
            });
        }
        // Churn thread: members subscribe (a fresh sink per membership),
        // get a few deliveries, get purged — until every publisher
        // finished.
        let churn = scope.spawn(move || {
            barrier_ref.wait();
            let mut sinks = Vec::new();
            let mut round = 0u64;
            while done_ref.load(Ordering::SeqCst) < PUBLISHERS as u64 {
                round += 1;
                let members: Vec<ServiceId> = (0..CHURN_MEMBERS)
                    .map(|m| ServiceId::from_raw(0x1000 + m as u64))
                    .collect();
                for &m in &members {
                    let sink = Arc::new(RetainingSink::default());
                    bus_ref
                        .subscribe(
                            m,
                            Filter::for_type(EVENT_TYPE),
                            Arc::clone(&sink) as Arc<dyn EventSink>,
                        )
                        .unwrap();
                    sinks.push(sink);
                }
                for &m in &members {
                    if round.is_multiple_of(2) {
                        bus_ref.remove_subscriber(m);
                    } else {
                        // Exercise the single-unsubscribe path too.
                        for (id, s, _) in bus_ref.subscriptions() {
                            if s == m {
                                let _ = bus_ref.unsubscribe(id);
                            }
                        }
                    }
                }
            }
            sinks
        });
        barrier.wait();
        churn.join().unwrap()
    });

    let whole_stream: Vec<u64> = (1..=EVENTS_EACH as u64).collect();
    for (p, seqs) in seqs_per_publisher(&stable, PUBLISHERS).iter().enumerate() {
        assert_eq!(
            seqs, &whole_stream,
            "stable subscriber: publisher {p}'s stream is not exactly-once in order"
        );
    }
    for sink in &churned {
        for (p, seqs) in seqs_per_publisher(sink, PUBLISHERS).iter().enumerate() {
            assert!(
                seqs.windows(2).all(|w| w[1] == w[0] + 1),
                "churned member: publisher {p}'s run has a gap, a duplicate or a reorder: {seqs:?}"
            );
        }
    }
}

/// Purge while publishers hammer the bus: after `remove_subscriber`
/// returns, the member's delivery count never advances again.
#[test]
fn purge_under_load_stops_deliveries() {
    let bus = Arc::new(EventBus::new(EngineKind::FastForward));
    let member = ServiceId::from_raw(0x100);
    let sink = Arc::new(CountingSink::default());
    bus.subscribe(
        member,
        Filter::for_type(EVENT_TYPE),
        Arc::clone(&sink) as Arc<dyn EventSink>,
    )
    .unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|scope| {
        let bus_ref = &bus;
        let stop_ref = &stop;
        for p in 0..2 {
            scope.spawn(move || {
                let mut seq = 0;
                while !stop_ref.load(Ordering::SeqCst) {
                    seq += 1;
                    bus_ref.publish(event(p, seq)).unwrap();
                }
            });
        }
        // Let deliveries flow, then purge mid-stream.
        while sink.delivered.load(Ordering::SeqCst) < 100 {
            std::hint::spin_loop();
        }
        assert_eq!(bus.remove_subscriber(member), 1);
        // A fan-out that loaded the pre-purge snapshot may still land a
        // delivery; wait until the count stops moving before asserting
        // silence. Publishes ordered after the swap never deliver.
        let mut settled = sink.delivered.load(Ordering::SeqCst);
        loop {
            std::thread::sleep(std::time::Duration::from_millis(2));
            let now = sink.delivered.load(Ordering::SeqCst);
            if now == settled {
                break;
            }
            settled = now;
        }
        for seq in 1..200 {
            assert_eq!(bus.publish(event(9, seq)).unwrap(), 0);
        }
        assert_eq!(
            sink.delivered.load(Ordering::SeqCst),
            settled,
            "purged member kept receiving deliveries"
        );
        stop.store(true, Ordering::SeqCst);
    });
}

/// The zero-copy claim: every delivered copy of the event shares the
/// publisher's payload buffer — clones are reference-count bumps, not
/// allocations, regardless of fan-out width.
#[test]
fn fan_out_shares_one_payload_buffer() {
    let bus = EventBus::new(EngineKind::FastForward);
    let sinks: Vec<Arc<RetainingSink>> = (0..16)
        .map(|i| {
            let sink = Arc::new(RetainingSink::default());
            bus.subscribe(
                ServiceId::from_raw(0x100 + i as u64),
                Filter::for_type(EVENT_TYPE),
                Arc::clone(&sink) as Arc<dyn EventSink>,
            )
            .unwrap();
            sink
        })
        .collect();
    let e = event(1, 1);
    let original = e.clone();
    assert_eq!(bus.publish(e).unwrap(), 16);
    for sink in &sinks {
        let events = sink.events.lock().unwrap();
        assert_eq!(events.len(), 1);
        assert!(
            std::ptr::eq(events[0].payload(), original.payload()),
            "delivery copied the payload buffer"
        );
    }
}

/// The batched metric flush must be observably identical to the
/// per-delivery bumps it replaced: deliveries counts every attempt,
/// delivery_failures counts the failed ones, and publishes/bytes are
/// per-event.
#[test]
fn batched_metrics_match_per_delivery_accounting() {
    let bus = EventBus::new(EngineKind::FastForward);
    for i in 0..5u64 {
        bus.subscribe(
            ServiceId::from_raw(0x100 + i),
            Filter::for_type(EVENT_TYPE),
            Arc::new(CountingSink::default()) as Arc<dyn EventSink>,
        )
        .unwrap();
    }
    for i in 0..2u64 {
        bus.subscribe(
            ServiceId::from_raw(0x200 + i),
            Filter::for_type(EVENT_TYPE),
            Arc::new(FailingSink) as Arc<dyn EventSink>,
        )
        .unwrap();
    }
    let payload_len = event(1, 1).payload().len() as u64;
    for seq in 1..=3u64 {
        // `publish` returns *successful* deliveries; the metric below
        // counts attempts.
        assert_eq!(bus.publish(event(1, seq)).unwrap(), 5);
    }
    // One unmatched publish for the unmatched counter.
    bus.publish(Event::new("smc.other")).unwrap();

    let m = bus.metrics();
    assert_eq!(m.published, 4);
    assert_eq!(m.deliveries, 21, "3 publishes × 7 attempted deliveries");
    assert_eq!(m.delivery_failures, 6, "3 publishes × 2 failing sinks");
    assert_eq!(m.unmatched, 1);
    assert_eq!(m.subscriptions, 7);
    assert!(m.bytes_published >= 3 * payload_len);
}
