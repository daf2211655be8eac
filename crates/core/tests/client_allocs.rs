//! Pins what a device's `RemoteClient::publish_nowait` may ask of the heap
//! once its channel is warm: the stamp is written into the caller's event,
//! the `Publish` is that event's body under a tag (`Packet::into_shared`),
//! and each fragment is framed from it in the thread's scratch — so what
//! is left is the channel's in-flight map gaining a node now and then as
//! the window fills, as `smc-transport`'s `send_allocs.rs` pins for a bare
//! channel.
//!
//! Over UDP loopback, whose send frames in a thread-local buffer: the mem
//! link copies each datagram on the sending thread, which would count.
//!
//! Alone in its binary because it installs a counting `#[global_allocator]`;
//! the count is the calling thread's own, so the cell's threads and the
//! channel's receive thread cannot disturb it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use smc_core::{RemoteClient, SmcCell, SmcConfig};
use smc_discovery::{AgentConfig, DiscoveryConfig};
use smc_transport::{ReliableChannel, ReliableConfig, Transport, UdpTransport};
use smc_types::{Event, ServiceId, ServiceInfo};

#[path = "../../types/tests/support/counting_alloc.rs"]
mod counting_alloc;

#[global_allocator]
static GLOBAL: counting_alloc::Counting = counting_alloc::Counting;

const STEP: Duration = Duration::from_secs(10);
const BURST: usize = 25;
const BURSTS: usize = 40;

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

/// Waits until the bus acknowledged everything `channel` sent it.
fn drained(channel: &ReliableChannel, bus: ServiceId) {
    let deadline = Instant::now() + STEP;
    while channel.pending(bus) > 0 {
        assert!(Instant::now() < deadline, "the bus stopped acknowledging");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn publish_nowait_of_a_built_event_asks_only_for_map_nodes() {
    let bus_t = Arc::new(UdpTransport::bind().expect("bind"));
    let disco_t = Arc::new(UdpTransport::bind().expect("bind"));
    let device_t = Arc::new(UdpTransport::bind().expect("bind"));
    disco_t.add_broadcast_peer(device_t.local_id());
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
    let cell = SmcCell::start(bus_t, disco_t, config);
    let channel = ReliableChannel::new(device_t as Arc<dyn Transport>, reliable());
    let client = RemoteClient::connect(
        ServiceInfo::new(ServiceId::NIL, "sensor.vitals").with_role("sensor"),
        Arc::clone(&channel),
        AgentConfig::default(),
        STEP,
    )
    .expect("join");
    let bus = client.bus_endpoint();
    let pool: Vec<Event> = (0..64i64)
        .map(|i| {
            Event::builder("smc.sensor.reading")
                .attr("bpm", 60 + i)
                .attr("patient", 0x12_3456_7890 + i)
                .payload(vec![i as u8; 64])
                .build()
        })
        .collect();

    let mut sent = 0;
    let mut burst = || {
        let events: Vec<Event> = (0..BURST)
            .map(|k| pool[(sent + k) % pool.len()].clone())
            .collect();
        sent += BURST;
        let (requests, ()) = counting_alloc::during(|| {
            for event in events {
                client.publish_nowait(event).expect("publish");
            }
        });
        drained(&channel, bus);
        requests.count
    };
    // Warm-up: the peer's entry, the queues, the scratches, the map's root.
    burst();
    let requests: u64 = (0..BURSTS).map(|_| burst()).sum();
    let per_send = requests as f64 / (BURSTS * BURST) as f64;
    assert!(
        per_send <= 0.2,
        "{per_send} heap requests per publish_nowait"
    );

    client.shutdown();
    cell.shutdown();
}
