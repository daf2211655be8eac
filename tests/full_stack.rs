//! Workspace-level integration tests exercising the full stack through
//! the `amuse` facade — including over real UDP sockets, as the paper's
//! prototype ran.

use std::sync::Arc;
use std::time::Duration;

use amuse::core::{RemoteClient, SmcCell, SmcConfig};
use amuse::discovery::AgentConfig;
use amuse::matching::EngineKind;
use amuse::transport::{
    LinkConfig, ReliableChannel, ReliableConfig, SimNetwork, Transport, UdpTransport,
};
use amuse::types::{Event, Filter, Op, ServiceId, ServiceInfo};

const TICK: Duration = Duration::from_secs(10);

fn fast_reliable() -> ReliableConfig {
    ReliableConfig {
        initial_rto: Duration::from_millis(40),
        poll_interval: Duration::from_millis(10),
        ..ReliableConfig::default()
    }
}

/// The complete cell + device stack over *real* UDP datagram sockets on
/// loopback — the paper's original development environment ("passing UDP
/// datagram packets between machines").
#[test]
fn full_stack_over_real_udp() {
    // Broadcast on loopback works by explicit peer registration: the
    // discovery endpoint learns each device endpoint when we create it.
    let bus_t = Arc::new(UdpTransport::bind().unwrap());
    let disco_t = Arc::new(UdpTransport::bind().unwrap());

    let sensor_t = Arc::new(UdpTransport::bind().unwrap());
    let monitor_t = Arc::new(UdpTransport::bind().unwrap());
    disco_t.add_broadcast_peer(sensor_t.local_id());
    disco_t.add_broadcast_peer(monitor_t.local_id());

    let config = SmcConfig {
        engine: EngineKind::FastForward,
        reliable: fast_reliable(),
        discovery: amuse::discovery::DiscoveryConfig {
            beacon_interval: Duration::from_millis(50),
            lease: Duration::from_secs(30),
            grace: Duration::from_secs(30),
            ..amuse::discovery::DiscoveryConfig::default()
        },
        ..SmcConfig::default()
    };
    let cell = SmcCell::start(bus_t, disco_t, config);

    let connect = |t: Arc<UdpTransport>, device_type: &str| {
        RemoteClient::connect(
            ServiceInfo::new(ServiceId::NIL, device_type).with_role("udp"),
            ReliableChannel::new(t as Arc<dyn Transport>, fast_reliable()),
            AgentConfig::default(),
            TICK,
        )
        .expect("join over udp")
    };
    let sensor = connect(sensor_t, "sensor.heart-rate");
    let monitor = connect(monitor_t, "monitor.station");

    monitor
        .subscribe(
            Filter::for_type("smc.sensor.reading").with(("bpm", Op::Gt, 100i64)),
            TICK,
        )
        .unwrap();

    for bpm in [72i64, 131, 88, 154] {
        sensor
            .publish(
                Event::builder("smc.sensor.reading")
                    .attr("bpm", bpm)
                    .build(),
                TICK,
            )
            .unwrap();
    }
    assert_eq!(
        monitor
            .next_event(TICK)
            .unwrap()
            .attr("bpm")
            .unwrap()
            .as_int(),
        Some(131)
    );
    assert_eq!(
        monitor
            .next_event(TICK)
            .unwrap()
            .attr("bpm")
            .unwrap()
            .as_int(),
        Some(154)
    );
    assert!(monitor.try_next_event().is_none());

    sensor.shutdown();
    monitor.shutdown();
    cell.shutdown();
}

/// The facade's re-exports compose as documented.
#[test]
fn facade_types_compose() {
    let filter = amuse::Filter::for_type("x").with(("a", amuse::Op::Ge, 1i64));
    let event = amuse::Event::builder("x").attr("a", 2i64).build();
    assert!(filter.matches(&event));
    let id = amuse::ServiceId::from_addr_port(std::net::Ipv4Addr::LOCALHOST, 9);
    assert_eq!(id.port(), 9);
}

/// Both engines, hot-swapped mid-flight under live traffic, never
/// drop or duplicate an event.
#[test]
fn engine_swap_torture() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let cell = SmcCell::start(
        Arc::new(net.endpoint()),
        Arc::new(net.endpoint()),
        SmcConfig::fast(),
    );
    let connect = |device_type: &str| {
        RemoteClient::connect(
            ServiceInfo::new(ServiceId::NIL, device_type),
            ReliableChannel::new(Arc::new(net.endpoint()), fast_reliable()),
            AgentConfig::default(),
            TICK,
        )
        .expect("join")
    };
    let sensor = connect("sensor.torture");
    let monitor = connect("monitor.torture");
    monitor.subscribe(Filter::for_type("t"), TICK).unwrap();

    let publisher = {
        let sensor = Arc::clone(&sensor);
        std::thread::spawn(move || {
            for i in 0..150i64 {
                sensor
                    .publish_nowait(Event::builder("t").attr("n", i).build())
                    .expect("publish");
                std::thread::sleep(Duration::from_millis(2));
            }
        })
    };
    // Swap engines while events are in flight.
    for kind in [
        EngineKind::Siena,
        EngineKind::FastForward,
        EngineKind::Siena,
    ] {
        std::thread::sleep(Duration::from_millis(60));
        cell.bus().swap_engine(kind).unwrap();
    }
    publisher.join().unwrap();

    for i in 0..150i64 {
        let got = monitor.next_event(TICK).unwrap();
        assert_eq!(
            got.attr("n").unwrap().as_int(),
            Some(i),
            "gap or reorder at {i}"
        );
    }
    assert!(monitor.try_next_event().is_none(), "no duplicates");

    sensor.shutdown();
    monitor.shutdown();
    cell.shutdown();
}

/// Exactly-once and FIFO hold under simultaneous loss, duplication and
/// jitter — the adversarial wireless environment the paper targets.
#[test]
fn semantics_survive_hostile_network() {
    let mut link = LinkConfig::ideal().with_loss(0.15).with_duplicates(0.15);
    link.jitter = Duration::from_millis(3);
    let net = SimNetwork::with_seed(link, 1234);
    let cell = SmcCell::start(
        Arc::new(net.endpoint()),
        Arc::new(net.endpoint()),
        SmcConfig::fast(),
    );
    let connect = |device_type: &str| {
        RemoteClient::connect(
            ServiceInfo::new(ServiceId::NIL, device_type),
            ReliableChannel::new(Arc::new(net.endpoint()), fast_reliable()),
            AgentConfig::default(),
            Duration::from_secs(20),
        )
        .expect("join despite loss")
    };
    let sensor = connect("sensor.hostile");
    let monitor = connect("monitor.hostile");
    monitor.subscribe(Filter::for_type("t"), TICK).unwrap();

    for i in 0..60i64 {
        sensor
            .publish_nowait(Event::builder("t").attr("n", i).build())
            .unwrap();
    }
    for i in 0..60i64 {
        let got = monitor.next_event(Duration::from_secs(20)).unwrap();
        assert_eq!(got.attr("n").unwrap().as_int(), Some(i));
    }
    std::thread::sleep(Duration::from_millis(200));
    assert!(
        monitor.try_next_event().is_none(),
        "duplicates leaked through"
    );

    sensor.shutdown();
    monitor.shutdown();
    cell.shutdown();
}

/// Two independent publishers: per-sender FIFO holds for each, and both
/// streams interleave without interference.
#[test]
fn independent_publisher_streams() {
    let net = SimNetwork::with_seed(LinkConfig::ideal().with_loss(0.1), 5);
    let cell = SmcCell::start(
        Arc::new(net.endpoint()),
        Arc::new(net.endpoint()),
        SmcConfig::fast(),
    );
    let connect = |device_type: &str| {
        RemoteClient::connect(
            ServiceInfo::new(ServiceId::NIL, device_type),
            ReliableChannel::new(Arc::new(net.endpoint()), fast_reliable()),
            AgentConfig::default(),
            TICK,
        )
        .expect("join")
    };
    let p1 = connect("sensor.one");
    let p2 = connect("sensor.two");
    let monitor = connect("monitor.station");
    monitor.subscribe(Filter::for_type("t"), TICK).unwrap();

    let spawn_pub = |client: Arc<RemoteClient>, tag: &'static str| {
        std::thread::spawn(move || {
            for i in 0..40i64 {
                client
                    .publish_nowait(Event::builder("t").attr("src", tag).attr("n", i).build())
                    .expect("publish");
            }
        })
    };
    let h1 = spawn_pub(Arc::clone(&p1), "one");
    let h2 = spawn_pub(Arc::clone(&p2), "two");
    h1.join().unwrap();
    h2.join().unwrap();

    let mut next_one = 0i64;
    let mut next_two = 0i64;
    for _ in 0..80 {
        let got = monitor.next_event(Duration::from_secs(20)).unwrap();
        let n = got.attr("n").unwrap().as_int().unwrap();
        match got.attr("src").unwrap().as_str().unwrap() {
            "one" => {
                assert_eq!(n, next_one, "stream one out of order");
                next_one += 1;
            }
            "two" => {
                assert_eq!(n, next_two, "stream two out of order");
                next_two += 1;
            }
            other => panic!("unknown source {other}"),
        }
    }
    assert_eq!(next_one, 40);
    assert_eq!(next_two, 40);

    p1.shutdown();
    p2.shutdown();
    monitor.shutdown();
    cell.shutdown();
}
