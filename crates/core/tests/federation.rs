//! Federation tests: peer-to-peer composition of self-managed cells.

use std::sync::Arc;
use std::time::Duration;

use smc_core::{CellLink, RemoteClient, SmcCell, SmcConfig};
use smc_discovery::{AgentConfig, DiscoveryConfig};
use smc_transport::{LinkConfig, ReliableChannel, ReliableConfig, SimNetwork};
use smc_types::{CellId, Event, Filter, ServiceId, ServiceInfo};

const TICK: Duration = Duration::from_secs(5);

fn fast_reliable() -> ReliableConfig {
    ReliableConfig {
        initial_rto: Duration::from_millis(30),
        poll_interval: Duration::from_millis(10),
        ..ReliableConfig::default()
    }
}

/// Starts a cell on `net` with cell id `id`, restricting its agents'
/// attention via cell filters so two cells can share one radio space.
fn start_cell(net: &SimNetwork, id: u64) -> Arc<SmcCell> {
    let config = SmcConfig {
        cell: CellId(id),
        discovery: DiscoveryConfig::fast(),
        reliable: fast_reliable(),
        ..SmcConfig::fast()
    };
    SmcCell::start(Arc::new(net.endpoint()), Arc::new(net.endpoint()), config)
}

fn connect(net: &SimNetwork, cell: CellId, device_type: &str) -> Arc<RemoteClient> {
    RemoteClient::connect(
        ServiceInfo::new(ServiceId::NIL, device_type).with_role("demo"),
        ReliableChannel::new(Arc::new(net.endpoint()), fast_reliable()),
        AgentConfig {
            cell_filter: Some(cell),
            ..AgentConfig::default()
        },
        TICK,
    )
    .expect("join cell")
}

fn bridge(net: &SimNetwork, local: &Arc<SmcCell>, remote: CellId, filter: Filter) -> CellLink {
    let channel = ReliableChannel::new(Arc::new(net.endpoint()), fast_reliable());
    CellLink::import(Arc::clone(local), channel, remote, filter, TICK).expect("federation link")
}

#[test]
fn events_cross_the_federation_link() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let ward = start_cell(&net, 1);
    let clinic = start_cell(&net, 2);

    // Clinic imports every alarm raised in the ward.
    let link = bridge(&net, &clinic, ward.cell_id(), Filter::for_type("smc.alarm"));

    let doctor = connect(&net, clinic.cell_id(), "terminal.doctor");
    doctor
        .subscribe(Filter::for_type("smc.alarm"), TICK)
        .unwrap();

    let sensor = connect(&net, ward.cell_id(), "sensor.heart-rate");
    sensor
        .publish(
            Event::builder("smc.alarm")
                .attr("kind", "tachycardia")
                .build(),
            TICK,
        )
        .unwrap();

    let got = doctor.next_event(TICK).unwrap();
    assert_eq!(got.event_type(), "smc.alarm");
    assert_eq!(got.attr("kind").unwrap().as_str(), Some("tachycardia"));
    let path = smc_core::cell_path(&got);
    assert_eq!(path, vec![ward.cell_id(), clinic.cell_id()]);
    assert_eq!(link.stats().forwarded, 1);

    // Non-matching events do not cross.
    sensor
        .publish(Event::builder("smc.gossip").build(), TICK)
        .unwrap();
    assert!(doctor.next_event(Duration::from_millis(300)).is_err());

    link.close();
    sensor.shutdown();
    doctor.shutdown();
    ward.shutdown();
    clinic.shutdown();
}

#[test]
fn symmetric_peering_does_not_loop() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let a = start_cell(&net, 10);
    let b = start_cell(&net, 20);

    // Bridge both directions on the same filter.
    let a_from_b = bridge(&net, &a, b.cell_id(), Filter::for_type("smc.alarm"));
    let b_from_a = bridge(&net, &b, a.cell_id(), Filter::for_type("smc.alarm"));

    let watcher_a = connect(&net, a.cell_id(), "watch.a");
    watcher_a
        .subscribe(Filter::for_type("smc.alarm"), TICK)
        .unwrap();
    let watcher_b = connect(&net, b.cell_id(), "watch.b");
    watcher_b
        .subscribe(Filter::for_type("smc.alarm"), TICK)
        .unwrap();

    let source = connect(&net, a.cell_id(), "sensor.src");
    source
        .publish(Event::builder("smc.alarm").attr("n", 1i64).build(), TICK)
        .unwrap();

    // Each side sees the alarm exactly once.
    assert_eq!(
        watcher_a
            .next_event(TICK)
            .unwrap()
            .attr("n")
            .unwrap()
            .as_int(),
        Some(1)
    );
    assert_eq!(
        watcher_b
            .next_event(TICK)
            .unwrap()
            .attr("n")
            .unwrap()
            .as_int(),
        Some(1)
    );
    std::thread::sleep(Duration::from_millis(300));
    assert!(watcher_a.try_next_event().is_none(), "no echo in A");
    assert!(watcher_b.try_next_event().is_none(), "no duplicate in B");
    assert!(a_from_b.stats().loops_suppressed >= 1, "the loop was cut");

    a_from_b.close();
    b_from_a.close();
    watcher_a.shutdown();
    watcher_b.shutdown();
    source.shutdown();
    a.shutdown();
    b.shutdown();
}

#[test]
fn self_federation_is_refused() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let cell = start_cell(&net, 5);
    let channel = ReliableChannel::new(Arc::new(net.endpoint()), fast_reliable());
    let err = CellLink::import(
        Arc::clone(&cell),
        channel,
        cell.cell_id(),
        Filter::any(),
        TICK,
    );
    assert!(err.is_err());
    cell.shutdown();
}

#[test]
fn link_is_an_ordinary_member_of_the_remote_cell() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let ward = start_cell(&net, 1);
    let clinic = start_cell(&net, 2);
    let link = bridge(&net, &clinic, ward.cell_id(), Filter::for_type("smc.alarm"));

    // The ward sees the link in its membership table, typed as a
    // federation link.
    let member = ward
        .members()
        .into_iter()
        .find(|m| m.id == link.remote_identity())
        .expect("link is a member");
    assert_eq!(member.device_type, "smc.federation-link");
    assert!(member.has_role("federation"));

    link.close();
    // After shutdown the link leaves the ward.
    let deadline = std::time::Instant::now() + TICK;
    while ward.discovery().is_member(member.id) {
        assert!(std::time::Instant::now() < deadline, "link never left");
        std::thread::sleep(Duration::from_millis(20));
    }

    // So does a link that is only dropped.
    let dropped = bridge(&net, &clinic, ward.cell_id(), Filter::for_type("smc.alarm"));
    let id = dropped.remote_identity();
    assert!(ward.discovery().is_member(id));
    drop(dropped);
    let deadline = std::time::Instant::now() + TICK;
    while ward.discovery().is_member(id) {
        assert!(
            std::time::Instant::now() < deadline,
            "dropped link never left"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    ward.shutdown();
    clinic.shutdown();
}

#[test]
fn three_cell_import_ring_delivers_once_per_cell() {
    // A ← B ← C ← A: each cell imports the next one's alarms.
    let net = SimNetwork::new(LinkConfig::ideal());
    let a = start_cell(&net, 10);
    let b = start_cell(&net, 20);
    let c = start_cell(&net, 30);
    let alarms = || Filter::for_type("smc.alarm");
    let a_from_b = bridge(&net, &a, b.cell_id(), alarms());
    let b_from_c = bridge(&net, &b, c.cell_id(), alarms());
    let c_from_a = bridge(&net, &c, a.cell_id(), alarms());

    let watchers = [&a, &b, &c].map(|cell| {
        let watcher = connect(&net, cell.cell_id(), "watch");
        watcher.subscribe(alarms(), TICK).unwrap();
        watcher
    });
    let source = connect(&net, a.cell_id(), "sensor.src");
    source
        .publish(Event::builder("smc.alarm").attr("n", 1i64).build(), TICK)
        .unwrap();

    let seen = watchers
        .each_ref()
        .map(|watcher| watcher.next_event(TICK).expect("every cell sees it"));
    for got in &seen {
        assert_eq!(got.attr("n").unwrap().as_int(), Some(1));
    }
    // Published in A, then C, then B — never again in A.
    let (ida, idb, idc) = (a.cell_id(), b.cell_id(), c.cell_id());
    assert!(smc_core::cell_path(&seen[0]).is_empty());
    assert_eq!(smc_core::cell_path(&seen[1]), vec![ida, idc, idb]);
    assert_eq!(smc_core::cell_path(&seen[2]), vec![ida, idc]);
    std::thread::sleep(Duration::from_millis(300));
    for watcher in &watchers {
        assert!(watcher.try_next_event().is_none(), "exactly once per cell");
    }
    assert_eq!(a_from_b.stats().forwarded, 0, "never re-imported into A");
    assert!(a_from_b.stats().loops_suppressed >= 1, "the ring was cut");
    assert_eq!(b_from_c.stats().forwarded, 1);
    assert_eq!(c_from_a.stats().forwarded, 1);

    for link in [&a_from_b, &b_from_c, &c_from_a] {
        link.close();
    }
    for watcher in watchers.iter().chain([&source]) {
        watcher.shutdown();
    }
    for cell in [&a, &b, &c] {
        cell.shutdown();
    }
}
