//! A threaded durable cell repairs itself: its discovery endpoint is
//! stopped from outside, and the cell's own detect → repair loop —
//! taking its turns on the cell's timer — restarts it on the same UDP
//! port with no call from anyone, while a member keeps publishing and a
//! subscriber checks every event arrives once, in order. A member cannot
//! order the cell's repairs; a cell whose two endpoints are both down
//! restarts both; views corrupted outside any crash path are healed by
//! the cell's own anti-entropy; and a pass never mistakes a member's
//! departure in flight for a divergence.

use std::sync::atomic::{AtomicBool, Ordering};
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

/// The loop's turns come from the cell's timer, which needs neither
/// endpoint: with both down the cell restarts both on their old ports.
#[test]
fn a_threaded_cell_with_both_endpoints_down_restarts_both() {
    let cell = durable_cell(&[]);
    std::thread::sleep(Duration::from_millis(300));
    let (discovery, bus) = (cell.discovery_channel(), cell.bus_channel());
    cell.discovery().shutdown();
    bus.close();
    let deadline = Instant::now() + TICK;
    while !cell.supervision().converged()
        || cell.discovery_channel().is_closed()
        || cell.bus_channel().is_closed()
    {
        assert!(Instant::now() < deadline, "{:?}", cell.supervision());
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(cell.discovery_channel().local_id(), discovery.local_id());
    assert_eq!(cell.bus_channel().local_id(), bus.local_id());
    let report = cell.supervision();
    for repair in ["discovery: done", "sink: done"] {
        let made = report.repairs.iter().any(|(_, r)| r == repair);
        assert!(made, "{repair} missing: {:?}", report.repairs);
    }
    cell.shutdown();
}

/// The members map loses a member and gains a ghost, and the discovery
/// table forgets the member: the cell's own anti-entropy — every 500 ms,
/// with no outside `reconcile` — puts all three right.
#[test]
fn a_threaded_cell_heals_its_corrupted_views_on_its_own() {
    let member_t = Arc::new(UdpTransport::bind().unwrap());
    let cell = durable_cell(&[&member_t]);
    let member = connect(member_t, "sensor.vitals");
    let (id, ghost) = (member.local_id(), ServiceId::from_raw(0x6057));
    let healthy = |cell: &SmcCell| {
        let ids: Vec<ServiceId> = cell.members().iter().map(|m| m.id).collect();
        ids == [id] && cell.discovery().is_member(id)
    };
    let deadline = Instant::now() + TICK;
    while !healthy(&cell) {
        assert!(Instant::now() < deadline, "the member never settled in");
        std::thread::sleep(Duration::from_millis(10));
    }
    let repairs_before = cell.supervision().reconcile_repairs;
    assert!(cell.corrupt_members(id, false));
    assert!(cell.corrupt_members(ghost, true));
    assert!(cell.discovery().forget_member(id));
    assert!(!healthy(&cell));

    let corrupted = Instant::now();
    while !healthy(&cell) {
        assert!(
            corrupted.elapsed() < Duration::from_millis(1_200),
            "not healed: {:?}",
            cell.members()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let report = cell.supervision();
    assert!(
        report.reconcile_repairs >= repairs_before + 3,
        "healed by the cell's own passes: {:?}",
        report.log
    );
    member.shutdown();
    cell.shutdown();
}

/// A member leaves, over and over, while full reconcile passes run back
/// to back on another thread (each finds a planted ghost, so each folds
/// the log). Discovery drops the member from its table before the cell's
/// handler purges it; a pass in between must not take the logged member
/// for one the table lost and re-admit it. Re-admitted, it would outlive
/// its purge in the table, and its rejoin would never reach the cell:
/// every round waits for the member to be back in both views, and its
/// traffic is accepted at the end.
#[test]
fn a_member_that_leaves_during_a_pass_is_neither_readmitted_nor_stuck() {
    let member_t = Arc::new(UdpTransport::bind().unwrap());
    let cell = durable_cell(&[&member_t]);
    let member = connect(member_t, "sensor.vitals");
    let id = member.local_id();
    // Back in both views, and the member has heard it: its departure
    // has landed before its rejoin, which follows it on one channel.
    let rejoined = |round: usize| {
        let deadline = Instant::now() + TICK;
        while !cell.members().iter().any(|m| m.id == id)
            || !cell.discovery().is_member(id)
            || member.agent().cell().is_none()
        {
            assert!(
                Instant::now() < deadline,
                "round {round}: the member is stuck: table {}, map {:?}",
                cell.discovery().is_member(id),
                cell.members()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    };
    let stop = Arc::new(AtomicBool::new(false));
    let passes = {
        let (cell, stop) = (Arc::clone(&cell), Arc::clone(&stop));
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                cell.corrupt_members(ServiceId::from_raw(0x6057), true);
                cell.reconcile().expect("reconcile");
            }
        })
    };
    for round in 0..100 {
        rejoined(round);
        member.agent().leave("churn").expect("a member leaves");
    }
    rejoined(100);
    stop.store(true, Ordering::Relaxed);
    passes.join().expect("the passes ran");
    let event = Event::builder(EVENT_TYPE).attr("seq", 1i64).build();
    member
        .publish(event, TICK)
        .expect("the rejoined member's publish");
    member.shutdown();
    cell.shutdown();
}
