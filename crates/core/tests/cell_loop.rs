//! A threaded cell's loop: one thread that ticks the cell and, between
//! ticks, steps discovery as its requests arrive. A join is answered when
//! it arrives, not on the next tick; and while the loop is held inside a
//! membership handler, discovery waits with it but the bus does not.

use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use smc_core::{RemoteClient, SmcCell, SmcConfig};
use smc_discovery::{AgentConfig, DiscoveryConfig};
use smc_transport::{LinkConfig, ReliableChannel, ReliableConfig, SimNetwork, Transport};
use smc_types::codec::to_shared;
use smc_types::{wellknown, Event, Filter, Packet, ServiceId, ServiceInfo};

const TIMEOUT: Duration = Duration::from_secs(5);

fn reliable() -> ReliableConfig {
    SmcConfig::fast().reliable
}

/// A threaded cell on `net` that beacons every `beacon` and purges nobody
/// within a test.
fn cell(net: &SimNetwork, beacon: Duration) -> Arc<SmcCell> {
    let config = SmcConfig {
        discovery: DiscoveryConfig {
            beacon_interval: beacon,
            lease: Duration::from_secs(60),
            grace: Duration::from_secs(60),
            ..DiscoveryConfig::fast()
        },
        ..SmcConfig::fast()
    };
    SmcCell::start(Arc::new(net.endpoint()), Arc::new(net.endpoint()), config)
}

fn connect(transport: Arc<dyn Transport>, device_type: &str) -> Arc<RemoteClient> {
    RemoteClient::connect(
        ServiceInfo::new(ServiceId::NIL, device_type),
        ReliableChannel::new(transport, reliable()),
        AgentConfig::default(),
        TIMEOUT,
    )
    .expect("join")
}

/// On a cell whose tick is 50 ms, five members join one after the other,
/// each on the beacon the cell sent before its loop first waited. Each
/// join takes well under a tick (median < 10 ms): the loop answers a
/// request as it arrives. A loop that stepped discovery once per tick
/// would make every join wait for the next one, ≈ 50 ms each.
#[test]
fn a_join_is_answered_in_well_under_a_tick() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let devices: Vec<Arc<dyn Transport>> = (0..5).map(|_| Arc::new(net.endpoint()) as _).collect();
    let cell = cell(&net, Duration::from_millis(50));
    let mut took = Vec::new();
    let mut members = Vec::new();
    for transport in devices {
        let start = Instant::now();
        members.push(connect(transport, "sensor.hr"));
        took.push(start.elapsed());
    }
    took.sort();
    assert!(
        took[2] < Duration::from_millis(10),
        "median join {:?} (all: {took:?}): joins wait for the tick",
        took[2]
    );
    for member in members {
        member.shutdown();
    }
    cell.shutdown();
    net.shutdown();
}

/// How long the test holds the membership handler: ten beacon intervals.
const HELD: Duration = Duration::from_millis(400);
/// The bound on a joined member's publish, acknowledged and delivered,
/// while the handler is held: a quarter of the hold.
const ROUTED_WITHIN: Duration = Duration::from_millis(100);

/// A local sink on `smc.member.new` blocks inside the membership handler,
/// on the cell's loop. For as long as it is held (`HELD`), the cell sends
/// no beacon and admits no further join — both wait for the loop — while
/// a member that joined before keeps publishing: each publish is
/// acknowledged and delivered to a subscriber within `ROUTED_WITHIN`, on
/// the bus channel's thread. Once the sink lets go, both joins complete.
#[test]
fn a_held_membership_handler_holds_discovery_but_not_the_bus() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let listener = net.endpoint();
    let cell = cell(&net, Duration::from_millis(40));
    let publisher = connect(Arc::new(net.endpoint()), "sensor.hr");
    let subscriber = connect(Arc::new(net.endpoint()), "monitor.station");
    subscriber
        .subscribe(Filter::for_type("vitals"), TIMEOUT)
        .expect("subscribe");

    let (entered, handling) = mpsc::channel();
    let (release, released) = mpsc::channel::<()>();
    let released = Mutex::new(released);
    cell.subscribe_local(
        ServiceId::from_raw(9_001),
        Filter::for_type(wellknown::NEW_MEMBER),
        Arc::new(move |_: &Event| {
            let _ = entered.send(std::thread::current().name().map(str::to_owned));
            let _ = released.lock().expect("one handler").recv();
            Ok(())
        }),
    )
    .expect("local subscription");
    let newcomer = {
        let transport: Arc<dyn Transport> = Arc::new(net.endpoint());
        std::thread::spawn(move || connect(transport, "sensor.spo2"))
    };
    let thread = handling.recv_timeout(TIMEOUT).expect("the handler is held");
    assert_eq!(thread, Some(format!("smc-loop-{}", cell.cell_id())));

    // A second join, by hand, while the handler is held.
    let late = ReliableChannel::new(Arc::new(net.endpoint()), reliable());
    let join = Packet::JoinRequest {
        info: ServiceInfo::new(ServiceId::NIL, "sensor.bp"),
        auth_token: Vec::new(),
    };
    late.send(cell.discovery().local_id(), to_shared(&join))
        .expect("queued");
    while listener.recv(Some(Duration::ZERO)).is_ok() {}

    let held = Instant::now();
    let mut bpm = 0i64;
    while held.elapsed() < HELD {
        bpm += 1;
        let sent = Instant::now();
        let event = Event::builder("vitals").attr("bpm", bpm).build();
        publisher.publish(event, TIMEOUT).expect("publish");
        let got = subscriber.next_event(TIMEOUT).expect("delivery");
        assert_eq!(got.attr("bpm").and_then(|v| v.as_int()), Some(bpm));
        let took = sent.elapsed();
        assert!(took < ROUTED_WITHIN, "publish {bpm} took {took:?}");
        std::thread::sleep(Duration::from_millis(20));
    }
    let mut beacons = 0;
    while listener.recv(Some(Duration::ZERO)).is_ok() {
        beacons += 1;
    }
    assert_eq!(beacons, 0, "the cell beaconed while its loop was held");
    assert!(
        !cell.discovery().is_member(late.local_id()),
        "a join was admitted"
    );

    drop(release);
    let newcomer = newcomer.join().expect("the newcomer joined");
    let deadline = Instant::now() + TIMEOUT;
    while !cell.discovery().is_member(late.local_id()) {
        assert!(
            Instant::now() < deadline,
            "the late join was never admitted"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        listener.recv(Some(TIMEOUT)).is_ok(),
        "beacons resume once the loop is free"
    );
    for member in [newcomer, publisher, subscriber] {
        member.shutdown();
    }
    late.close();
    cell.shutdown();
    net.shutdown();
}
