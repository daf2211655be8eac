//! Thread accounting of the cell and of the device-side client: a message
//! is handled on the thread that received it, so neither side has a
//! thread that only moves messages on. Counts go down, never up.
//!
//! Alone in its own test binary, and one `#[test]`: it counts this
//! process's threads, which parallel tests would disturb.

use std::sync::Arc;
use std::time::{Duration, Instant};

use smc_core::{RemoteClient, SmcCell, SmcConfig};
use smc_discovery::AgentConfig;
use smc_transport::{LinkConfig, ReliableChannel, ReliableConfig, SimNetwork};
use smc_types::{Event, Filter, ServiceId, ServiceInfo};

const TICK: Duration = Duration::from_secs(5);

fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

/// A joined thread may linger in procfs for an instant after `join`.
fn settles_to(expected: usize) -> bool {
    let deadline = Instant::now() + TICK;
    while thread_count() != expected {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    true
}

#[test]
fn threads_are_counted() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let idle = thread_count();
    let cell = cell_runs_three_threads(&net, idle);
    client_runs_two_threads_and_shutdown_leaves_none(&net);
    cell.shutdown();
    assert!(
        settles_to(idle),
        "the cell left threads behind: {idle} before start, {} after shutdown",
        thread_count()
    );
    net.shutdown();
}

/// A started cell runs three threads: the bus channel's receiver (which
/// dispatches), the discovery channel's receiver (which admits members
/// and hands joins, leaves and recoveries to the cell) and the discovery
/// timer (beacons, and the lease purges it hands to the cell). There is
/// no dispatch thread and no membership thread.
fn cell_runs_three_threads(net: &SimNetwork, idle: usize) -> Arc<SmcCell> {
    let cell = SmcCell::start(
        Arc::new(net.endpoint()),
        Arc::new(net.endpoint()),
        SmcConfig::fast(),
    );
    assert_eq!(thread_count(), idle + 3, "three threads per cell");
    cell
}

/// A connected client runs two threads — its channel's receiver, which
/// routes bus traffic itself, and its agent's heartbeat timer — and
/// `shutdown` leaves none.
fn client_runs_two_threads_and_shutdown_leaves_none(net: &SimNetwork) {
    let before = thread_count();

    let connect = |device_type: &str| {
        RemoteClient::connect(
            ServiceInfo::new(ServiceId::NIL, device_type),
            ReliableChannel::new(Arc::new(net.endpoint()), ReliableConfig::default()),
            AgentConfig::default(),
            TICK,
        )
        .expect("join")
    };
    let publisher = connect("sensor.hr");
    let subscriber = connect("monitor.station");
    assert_eq!(thread_count(), before + 4, "two threads per client");

    // The routed path works: subscribe ack, publish ack, delivery.
    subscriber
        .subscribe(Filter::for_type("vitals"), TICK)
        .unwrap();
    publisher
        .publish(Event::builder("vitals").attr("hr", 72i64).build(), TICK)
        .unwrap();
    assert_eq!(subscriber.next_event(TICK).unwrap().event_type(), "vitals");

    publisher.shutdown();
    subscriber.shutdown();
    assert!(
        settles_to(before),
        "threads left behind: {} before connect, {} after shutdown",
        before,
        thread_count()
    );
}
