//! Pins the heap requests one event costs on its whole journey through a
//! real, threaded cell: publisher `RemoteClient` → mem link → bus channel
//! (whose receive thread dispatches: no inbox, no dispatch thread) → bus →
//! proxy → mem link → subscriber `RemoteClient` (routed on *its* channel's
//! receive thread), 64 B, 1 → 1, the ledger's `vitals_udp` shape on the
//! in-memory link.
//!
//! The rule the path is held to: none to send or share an event (its
//! packet is its body under a tag), and a decode asks for what the decoded
//! value keeps — which, for an event, is the message it arrived in plus a
//! table. Per delivered event that is
//!
//! | stage                                                   | requests |
//! |---------------------------------------------------------|----------|
//! | driver: clone of the pooled event                       | 0        |
//! | publisher: `Publish` — the event under a tag (`Packet::into_shared`) — sent | 0 |
//! | link: one buffer per datagram, 2 data frames            | 2        |
//! | link: a standalone acknowledgement per half window and hop | ≈ 0.1 |
//! | `Frame` decode ×2 (the payload keeps the datagram)      | 0        |
//! | cell: `Publish` adopted (`Packet::from_message`: the event keeps the message; its table, its shared body) | 2 |
//! | cell: event shared with the bus; policy, nothing firing | 0        |
//! | bus: the `Deliver` — the adopted event under another tag, its stamp written as it is framed; proxy sends it as it is | 0 |
//! | subscriber: `Deliver` adopted (table, body)             | 2        |
//! | in-flight maps gaining a node as windows fill           | ≈ 0.5    |
//! | **plain**                                               | **≈ 6.5** |
//! | durable: the one message the bus channel delivers, kept until consumed | 1 |
//! | durable: the log's segments growing (4 records, framed in scratch) | ≈ 0.1 |
//! | **durable**                                             | **≈ 7.5** |
//!
//! Nothing is sent back at the application level: the publisher did not
//! ask for a `PublishAck`, and the channel's own acknowledgement — held,
//! cumulative, one datagram per half window — is all either hop pays.
//!
//! Measured here: 6.5 plain, 7.5 durable (8.5 and 9.5 while each send
//! copied its event into a buffer of its own; 18.5 and 19.5 while each
//! decode copied type name, three names and payload out of the message —
//! 7 requests a decode; 22.4 and 24.5 with a `PublishAck` and a
//! `DeliverAck` per event; 74.1 and 119.9 before this budget existed).
//! What is left of a decode is two requests whatever the event's size;
//! string and bytes attribute *values* are still copied out on top, one
//! request each, and this event has none. The bounds leave room for a
//! loaded host, where the poll tick sends an acknowledgement before half
//! a window is owed.
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
use smc_types::{Event, Filter, Op, ServiceId, ServiceInfo};
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

/// Heap requests per delivered event, process-wide, over `EVENTS` events
/// after `WARM_UP`.
fn requests_per_event(durable: bool) -> f64 {
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
                .payload(vec![i as u8; 64])
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
    requests as f64 / EVENTS as f64
}

// One test, so nothing else in the process allocates while it counts.
#[test]
fn an_event_costs_the_cell_a_bounded_number_of_heap_requests() {
    let plain = requests_per_event(false);
    assert!(plain <= 11.0, "plain cell: {plain} heap requests per event");
    let durable = requests_per_event(true);
    assert!(
        durable <= 12.0,
        "durable cell: {durable} heap requests per event"
    );
}
