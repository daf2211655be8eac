//! Pins what a packet from a sender the cell has never met may cost it.
//!
//! The bus endpoint refuses such a packet after asking discovery whether
//! the sender is a member — on the bus channel's receive thread, the one
//! that acknowledges every member's traffic. That question is one table
//! lookup (`DiscoveryService::member`), so a refusal costs the same in a
//! cell of 200 members as in an empty one: the sender's encode and
//! datagram, the cell's decode (the event's body, its attribute table
//! inside), the `Error` it answers with (two strings, the encoding, a
//! datagram) and the sender's decode of that — 9 requests, measured (10
//! while the table was a `Vec` of its own). Cloning the
//! membership table to search it, as dispatch once did, was 3 requests
//! per member on top: 611 here.
//!
//! Alone in its binary because it installs a counting `#[global_allocator]`;
//! the count is process-wide because the cell's work happens on its own
//! threads.

use std::sync::Arc;
use std::time::Duration;

use smc_core::{SmcCell, SmcConfig};
use smc_discovery::DiscoveryConfig;
use smc_transport::{Incoming, LinkConfig, ReliableChannel, ReliableConfig, SimNetwork};
use smc_types::codec::to_shared;
use smc_types::{Event, Packet, ServiceId, ServiceInfo};

#[path = "../../types/tests/support/counting_alloc.rs"]
mod counting_alloc;

#[global_allocator]
static GLOBAL: counting_alloc::Counting = counting_alloc::Counting;

const STEP: Duration = Duration::from_secs(10);
const MEMBERS: u64 = 200;
const WARM_UP: u64 = 500;
const PACKETS: u64 = 10_000;

fn reliable() -> ReliableConfig {
    ReliableConfig {
        initial_rto: Duration::from_secs(3),
        max_rto: Duration::from_secs(6),
        poll_interval: Duration::from_millis(5),
        ..ReliableConfig::default()
    }
}

#[test]
fn a_refused_packet_costs_the_same_in_a_large_cell() {
    let net = SimNetwork::with_seed(LinkConfig::ideal(), 1);
    let config = SmcConfig {
        discovery: DiscoveryConfig {
            lease: Duration::from_secs(600),
            grace: Duration::from_secs(600),
            ..DiscoveryConfig::default()
        },
        reliable: reliable(),
        ..SmcConfig::default()
    };
    let cell = SmcCell::start(Arc::new(net.endpoint()), Arc::new(net.endpoint()), config);
    for raw in 1..=MEMBERS {
        let info = ServiceInfo::new(ServiceId::from_raw(0x5000 + raw), "sensor.vitals")
            .with_role("sensor");
        cell.discovery().restore_member(info);
    }
    assert_eq!(cell.discovery().members().len() as u64, MEMBERS);

    let stranger = ReliableChannel::new(Arc::new(net.endpoint()), reliable());
    let mut event = Event::builder("smc.sensor.reading")
        .attr("bpm", 72i64)
        .payload(vec![7; 64])
        .build();
    let mut refused = 0;
    let mut knock = |until: u64| {
        while refused < until {
            event.stamp(stranger.local_id(), refused + 1, 0);
            stranger
                .send(
                    cell.bus_endpoint(),
                    to_shared(&Packet::publish(event.clone())),
                )
                .expect("queued");
            let payload = loop {
                // (The cell's beacons reach a stranger too.)
                match stranger.recv(Some(STEP)).expect("the cell answers") {
                    Incoming::Reliable { payload, .. } => break payload,
                    Incoming::Unreliable { .. } => {}
                }
            };
            match Packet::from_message(payload).expect("a packet") {
                Packet::Error { message, .. } => assert!(message.contains("not a member")),
                other => panic!("refused, not {other:?}"),
            }
            refused += 1;
        }
    };
    knock(WARM_UP);
    let before = counting_alloc::in_process();
    knock(WARM_UP + PACKETS);
    let per_packet = (counting_alloc::in_process() - before) as f64 / PACKETS as f64;

    assert!(cell.members().is_empty(), "nobody was admitted by knocking");
    stranger.close();
    cell.shutdown();
    net.shutdown();
    assert!(
        per_packet <= 16.0,
        "{per_packet} heap requests per refused packet in a {MEMBERS}-member cell"
    );
}
