//! A threaded durable cell repairs itself: its discovery endpoint is
//! stopped from outside, and the cell's own detect → repair loop —
//! taking its turns on the bus endpoint's receive thread — restarts it on
//! the same UDP port with no call from anyone, while a member keeps
//! publishing and a subscriber checks every event arrives once, in
//! order. A member cannot order the cell's repairs, and a cell whose two
//! endpoints are both down is its owner's to reboot.

use std::sync::Arc;
use std::time::{Duration, Instant};

use smc_core::{ChannelSink, RemoteClient, SmcCell, SmcConfig};
use smc_discovery::{AgentConfig, DiscoveryConfig};
use smc_health::{health_event, HealthState, HealthTransition};
use smc_transport::{ReliableChannel, ReliableConfig, Transport, UdpTransport};
use smc_types::member::wellknown;
use smc_types::{Event, Filter, ServiceId, ServiceInfo, SupervisionMsg};
use smc_wal::MemBackend;

const TICK: Duration = Duration::from_secs(5);
const EVENT_TYPE: &str = "smc.sensor.reading";

fn reliable() -> ReliableConfig {
    ReliableConfig {
        initial_rto: Duration::from_millis(30),
        poll_interval: Duration::from_millis(10),
        ..ReliableConfig::default()
    }
}

/// A durable cell on UDP loopback whose discovery beacons reach
/// `members`' endpoints.
fn durable_cell(members: &[&UdpTransport]) -> Arc<SmcCell> {
    let bus = Arc::new(UdpTransport::bind().unwrap());
    let discovery = Arc::new(UdpTransport::bind().unwrap());
    for member in members {
        discovery.add_broadcast_peer(member.local_id());
    }
    let config = SmcConfig {
        reliable: reliable(),
        // Leases outlast an outage: nobody is purged while the cell has
        // no discovery, so every event published is owed to the
        // subscriber.
        discovery: DiscoveryConfig {
            beacon_interval: Duration::from_millis(50),
            lease: Duration::from_secs(3),
            grace: Duration::from_secs(3),
            ..DiscoveryConfig::default()
        },
        ..SmcConfig::default()
    };
    let backend = Arc::new(MemBackend::new());
    SmcCell::start_durable(bus, discovery, config, backend).expect("durable start")
}

fn connect(t: Arc<UdpTransport>, device_type: &str) -> Arc<RemoteClient> {
    RemoteClient::connect(
        ServiceInfo::new(ServiceId::NIL, device_type),
        ReliableChannel::new(t as Arc<dyn Transport>, reliable()),
        AgentConfig::default(),
        TICK,
    )
    .expect("join over udp")
}

#[test]
fn threaded_cell_restarts_its_stopped_discovery_on_its_own() {
    let publisher_t = Arc::new(UdpTransport::bind().unwrap());
    let subscriber_t = Arc::new(UdpTransport::bind().unwrap());
    let cell = durable_cell(&[&publisher_t, &subscriber_t]);
    let discovery_id = cell.discovery_channel().local_id();
    let publisher = connect(publisher_t, "sensor.vitals");
    let subscriber = connect(subscriber_t, "monitor.station");
    subscriber
        .subscribe(Filter::for_type(EVENT_TYPE), TICK)
        .expect("subscribe");

    let publish = |bpm: i64| {
        let event = Event::builder(EVENT_TYPE).attr("bpm", bpm).build();
        publisher.publish_nowait(event).expect("publish");
    };
    let mut published = 0i64;
    for _ in 0..10 {
        published += 1;
        publish(published);
    }
    let stopped = cell.discovery_channel();
    cell.discovery().shutdown();
    assert!(stopped.is_closed());

    // The member keeps publishing through the outage and the repair.
    let deadline = Instant::now() + TICK;
    let restarted = loop {
        published += 1;
        publish(published);
        std::thread::sleep(Duration::from_millis(20));
        let channel = cell.discovery_channel();
        if !Arc::ptr_eq(&channel, &stopped) && !channel.is_closed() {
            break channel;
        }
        assert!(Instant::now() < deadline, "discovery was not restarted");
    };
    assert_eq!(restarted.local_id(), discovery_id, "same endpoint");
    for _ in 0..10 {
        published += 1;
        publish(published);
    }

    for want in 1..=published {
        let event = subscriber.next_event(TICK).expect("delivery");
        assert_eq!(event.publisher(), publisher.local_id());
        assert_eq!(event.seq(), want as u64, "exactly once, in order");
        assert_eq!(event.attr("bpm").and_then(|v| v.as_int()), Some(want));
    }
    assert!(subscriber.next_event(Duration::from_millis(200)).is_err());
    // The episode closes once a sample after the repair finds discovery
    // healthy again.
    let deadline = Instant::now() + TICK;
    while !cell.supervision().converged() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let report = cell.supervision();
    assert!(
        report.repairs.iter().any(|(_, r)| r == "discovery: done"),
        "the cell's loop made the repair: {:?}",
        report.repairs
    );
    assert!(report.converged(), "open episodes: {:?}", report.unresolved);
    assert!(cell.discovery().is_member(publisher.local_id()));

    publisher.shutdown();
    subscriber.shutdown();
    cell.shutdown();
}

#[test]
fn a_member_cannot_order_the_cells_repairs() {
    let member_t = Arc::new(UdpTransport::bind().unwrap());
    let cell = durable_cell(&[&member_t]);
    let member = connect(member_t, "sensor.vitals");
    let (sink, seen) = ChannelSink::new();
    let sink = Arc::new(sink);
    for (n, kind) in [wellknown::HEALTH, wellknown::SUPERVISION]
        .into_iter()
        .enumerate()
    {
        let watcher = ServiceId::from_raw(0xCE10 + n as u64);
        let filter = Filter::for_type(kind);
        cell.subscribe_local(watcher, filter, Arc::clone(&sink) as _)
            .expect("watch");
    }
    let repair = |component: &str| {
        let order = SupervisionMsg::Repair {
            target: 1,
            component: component.into(),
            attempt: 1,
        };
        member.publish(order.to_event(0), TICK).expect("publish");
    };
    // A forged failure of a healthy sink, and a reboot order.
    let forged = HealthTransition {
        at_micros: 0,
        component: "sink".into(),
        detector: "component-down",
        from: HealthState::Degraded,
        to: HealthState::Failed,
        detail: String::new(),
    };
    member
        .publish(health_event(&forged, None), TICK)
        .expect("publish");
    repair("core");
    // And the revival of a loop its owner stopped.
    cell.set_supervising(false);
    repair("supervisor");

    // All three reached the bus, and the cell published nothing back:
    // no transition, no escalation to `core`.
    for _ in 0..3 {
        let event: Event = seen.recv_timeout(TICK).expect("the member's event");
        assert_eq!(event.publisher(), member.local_id());
    }
    if let Ok(event) = seen.recv_timeout(Duration::from_millis(600)) {
        panic!("the cell answered a member's order: {event:?}");
    }
    let report = cell.supervision();
    assert!(
        report.converged(),
        "episode opened: {:?}",
        report.unresolved
    );
    assert_eq!(report.restarts, 0);
    assert!(
        report.remote_repairs.is_empty(),
        "{:?}",
        report.remote_repairs
    );

    member.shutdown();
    cell.shutdown();
}

/// The loop's turns ride on the endpoints' receive threads: with both
/// endpoints down nothing gives it one, and the cell stays down until
/// its owner, who sees both channels closed, reboots it.
#[test]
fn a_threaded_cell_with_both_endpoints_down_is_its_owners_to_reboot() {
    let cell = durable_cell(&[]);
    std::thread::sleep(Duration::from_millis(300));
    cell.discovery().shutdown();
    cell.bus_channel().close();
    std::thread::sleep(Duration::from_secs(1));
    assert!(cell.discovery_channel().is_closed() && cell.bus_channel().is_closed());
    let report = cell.supervision();
    assert_eq!(report.restarts, 0);
    assert!(report.repairs.is_empty(), "{:?}", report.repairs);
    cell.shutdown();
}
