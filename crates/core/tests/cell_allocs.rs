//! Pins the heap requests one event costs on its whole journey through a
//! real, threaded cell: publisher `RemoteClient` → mem link → bus channel
//! (whose receive thread dispatches: no inbox, no dispatch thread) → bus →
//! proxy → mem link → subscriber `RemoteClient` (routed on *its* channel's
//! receive thread), 1 → 1: 64 B, the ledger's `vitals_udp` shape on the
//! in-memory link, and 4 096 B, its `ecg_bulk` (four fragments a hop at
//! MTU 1 400).
//!
//! The rule the path is held to: none to send or share an event (its
//! packet is its body under a tag), and a decode asks for what the decoded
//! value keeps — which, for an event, is its shared body, the attribute
//! table inside it: the message it arrived in is a buffer of the link's,
//! which goes back to the link when the last reader of the event drops
//! it. Per delivered event that is
//!
//! | stage                                                   | requests |
//! |---------------------------------------------------------|----------|
//! | driver: clone of the pooled event                       | 0        |
//! | publisher: `Publish` — the event under a tag (`Packet::into_shared`) — sent | 0 |
//! | link: one buffer per datagram, 2 data frames — kept as the message, and given back with it | 0 |
//! | link: a standalone acknowledgement per half window and hop, in a buffer its receiver gave back | 0 |
//! | `Frame` decode ×2 (the payload keeps the datagram; a batch's entries are read where they lie) | 0 |
//! | cell: `Publish` adopted (`Packet::from_message`: the event keeps the message; its shared body, three attributes in its inline table) | 1 |
//! | cell: event shared with the bus; policy, nothing firing | 0        |
//! | bus: the `Deliver` — the adopted event under another tag, its stamp written as it is framed; proxy sends it as it is | 0 |
//! | subscriber: `Deliver` adopted (body)                    | 1        |
//! | send windows: rings whose buffers are reused            | 0        |
//! | **plain**                                               | **≈ 2.0** |
//! | durable: the log's segments growing (3 records, framed in scratch) | ≈ 0.01 |
//! | **durable**                                             | **≈ 2.0** |
//! | 4 096 B: link, 4 data frames a hop, each in a buffer its receiver gave back | 0 |
//! | 4 096 B: the reassembled message, a hop — it is the message the event is adopted from, in a buffer of the link's | 0 |
//! | 4 096 B: the fragments, handed back to the link once copied | 0     |
//! | **plain, 4 096 B**                                      | **≈ 2.0** |
//!
//! Nothing is sent back at the application level: the publisher did not
//! ask for a `PublishAck`, and the channel's own acknowledgement — held,
//! cumulative, one datagram per half window — is all either hop pays.
//!
//! Measured here: 2.00–2.02 plain, 2.01–2.02 durable, 2.00–2.02 plain at
//! 4 096 B (2.06–2.24 at 4 096 B while an endpoint kept at most 64 spare
//! buffers, fewer than the bus endpoint has received and not yet seen
//! dropped at its busiest; 4.02, 4.03 and 4.05 while the message an event
//! arrived in was freed with the event, so the link asked the heap for the
//! next datagram's buffer, and the reassembled 4 096 B message was a fresh
//! buffer each hop; 4.13, 4.15 and 12.15 while the link gave every datagram
//! a fresh buffer and the receiver freed each one it did not keep: its
//! acknowledgements, and a bulk event's eight fragments; 5.16 durable while
//! the bus channel kept a copy of each delivered message until it was
//! consumed and journalled it whole, payload included; 6.5 and 7.5 while
//! the attribute table was a `Vec` of its own and the send windows were
//! B-trees gaining nodes as they filled; 8.5 and 9.5 while each send copied
//! its event into a buffer of its own; 18.5 and 19.5 while each decode
//! copied type name, three names and payload out of the message — 7
//! requests a decode; 22.4 and 24.5 with a `PublishAck` and a `DeliverAck`
//! per event; 74.1 and 119.9 before this budget existed). What is left of a
//! decode is one request whatever the event's size, for up to four
//! attributes (a fifth puts the table in a `Vec`, one more); string and
//! bytes attribute *values* are still copied out on top, one request each,
//! and this event has none. The bounds leave a little room for a loaded
//! host, where the poll tick sends an acknowledgement before half a window
//! is owed.
//!
//! Alone in its binary because it installs a counting `#[global_allocator]`;
//! the count is process-wide because the cell's work happens on its own
//! threads.

use std::sync::Arc;
use std::time::Duration;

use smc_core::{RemoteClient, SmcCell, SmcConfig};
use smc_discovery::{AgentConfig, DiscoveryConfig};
use smc_policy::ehealth_baseline;
use smc_transport::{LinkConfig, ReliableChannel, ReliableConfig, SimNetwork, Transport};
use smc_types::{Event, Filter, ManualClock, Op, ServiceId, ServiceInfo, SharedClock};
use smc_wal::MemBackend;

#[path = "../../types/tests/support/counting_alloc.rs"]
mod counting_alloc;

#[global_allocator]
static GLOBAL: counting_alloc::Counting = counting_alloc::Counting;

const EVENT_TYPE: &str = "smc.sensor.reading";
const STEP: Duration = Duration::from_secs(10);
const WARM_UP: u64 = 500;
const EVENTS: u64 = 2_000;
/// Events outstanding, as on the ledger's cell workloads.
const WINDOW: u64 = 16;

/// A lossless run must never retransmit: the RTO sits far above any
/// queueing delay.
fn reliable() -> ReliableConfig {
    ReliableConfig {
        initial_rto: Duration::from_secs(3),
        max_rto: Duration::from_secs(6),
        poll_interval: Duration::from_millis(5),
        ..ReliableConfig::default()
    }
}

/// Heap requests per delivered event of `payload` bytes, process-wide,
/// over `EVENTS` events after `WARM_UP`.
fn requests_per_event(durable: bool, payload: usize) -> f64 {
    let net = SimNetwork::with_seed(LinkConfig::ideal(), 1);
    let endpoint = || -> Arc<dyn Transport> { Arc::new(net.endpoint()) };
    let config = SmcConfig {
        discovery: DiscoveryConfig {
            beacon_interval: Duration::from_millis(25),
            // No lease traffic inside the run.
            lease: Duration::from_secs(600),
            grace: Duration::from_secs(600),
            ..DiscoveryConfig::default()
        },
        reliable: reliable(),
        ..SmcConfig::default()
    };
    let cell = if durable {
        SmcCell::start_durable(endpoint(), endpoint(), config, Arc::new(MemBackend::new()))
            .expect("durable start")
    } else {
        SmcCell::start(endpoint(), endpoint(), config)
    };
    for policy in ehealth_baseline() {
        cell.policy().add(policy).expect("policy");
    }
    let connect = |device_type: &str, role: &str| {
        RemoteClient::connect(
            ServiceInfo::new(ServiceId::NIL, device_type).with_role(role),
            ReliableChannel::new(endpoint(), reliable()),
            AgentConfig::default(),
            STEP,
        )
        .expect("join")
    };
    let publisher = connect("sensor.vitals", "sensor");
    let subscriber = connect("monitor.station", "manager");
    subscriber
        .subscribe(
            Filter::for_type(EVENT_TYPE).with(("bpm", Op::Ge, 30i64)),
            STEP,
        )
        .expect("subscribe");
    let pool: Vec<Event> = (0..64i64)
        .map(|i| {
            Event::builder(EVENT_TYPE)
                .attr("bpm", 60 + i)
                .attr("patient", 0x12_3456_7890 + i)
                .attr("sum", -i)
                .payload(vec![i as u8; payload])
                .build()
        })
        .collect();

    let (mut published, mut delivered) = (0, 0);
    let mut run = |until: u64| {
        while delivered < until {
            while published - delivered < WINDOW {
                let event = pool[published as usize % pool.len()].clone();
                publisher.publish_nowait(event).expect("publish");
                published += 1;
            }
            let event = subscriber.next_event(STEP).expect("delivery");
            delivered += 1;
            assert_eq!(event.seq(), delivered, "in order, exactly once");
            assert_eq!(event.payload().len(), payload);
        }
    };
    run(WARM_UP);
    let before = counting_alloc::in_process();
    run(WARM_UP + EVENTS);
    let requests = counting_alloc::in_process() - before;

    publisher.shutdown();
    subscriber.shutdown();
    cell.shutdown();
    net.shutdown();
    let per_event = requests as f64 / EVENTS as f64;
    eprintln!("durable {durable}, {payload} B: {per_event:.3} requests per event");
    per_event
}

/// Heap requests the calling thread makes over step-driven turns of a
/// quiet durable cell's detect → repair loop at which a sample is due
/// and nothing changed (and no anti-entropy pass is due).
fn quiet_loop_turn_requests() -> u64 {
    let clock = Arc::new(ManualClock::new());
    let shared: SharedClock = clock.clone();
    let net = SimNetwork::with_clock(LinkConfig::ideal(), 1, Arc::clone(&shared));
    let config = SmcConfig {
        discovery: DiscoveryConfig {
            beacon_interval: Duration::from_secs(3600),
            ..DiscoveryConfig::default()
        },
        clock: shared,
        ..SmcConfig::default()
    };
    let (bus, discovery) = (Arc::new(net.endpoint()), Arc::new(net.endpoint()));
    let backend = Arc::new(MemBackend::new());
    let cell = SmcCell::with_clock(bus, discovery, config, backend).expect("durable start");
    // Anti-entropy passes come every other sampling window, so the
    // turns counted only sample; the first two windows warm up.
    cell.step();
    let mut requests = 0;
    for window in 0..6 {
        clock.advance_micros(250_000);
        let (r, _) = counting_alloc::during(|| cell.step());
        if window >= 2 {
            requests += r.count;
        }
        clock.advance_micros(250_000);
        cell.step();
    }
    assert!(cell
        .supervision()
        .components
        .iter()
        .all(|(_, h)| h.as_str() == "healthy"));
    requests
}

// One test, so nothing else in the process allocates while it counts.
#[test]
fn an_event_costs_the_cell_a_bounded_number_of_heap_requests() {
    assert_eq!(quiet_loop_turn_requests(), 0, "a quiet loop turn allocated");
    let plain = requests_per_event(false, 64);
    assert!(plain <= 2.3, "plain cell: {plain} heap requests per event");
    let durable = requests_per_event(true, 64);
    assert!(
        durable <= 2.3,
        "durable cell: {durable} heap requests per event"
    );
    let bulk = requests_per_event(false, 4096);
    assert!(
        bulk <= 2.3,
        "plain cell, 4 096 B events: {bulk} heap requests per event"
    );
}
