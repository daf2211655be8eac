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
use smc_wal::MemBackend;

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
    let cell = cell_runs_two_threads_and_restarts_with_none_more(&net, idle);
    client_runs_two_threads_and_shutdown_leaves_none(&net);
    cell.shutdown();
    assert!(
        settles_to(idle),
        "the cell left threads behind: {idle} before start, {} after shutdown",
        thread_count()
    );
    net.shutdown();
}

/// A started cell runs two threads, one per endpoint: the bus channel's
/// receiver (which dispatches) and the cell's loop, which steps the
/// discovery channel and service as requests arrive (admitting members
/// and handing every membership change to the cell) and ticks (beacons,
/// lease purges, the detect → repair loop). There is no dispatch thread,
/// no membership thread and no timer. The loop restarts either endpoint,
/// stopped from outside, with no thread more.
fn cell_runs_two_threads_and_restarts_with_none_more(
    net: &SimNetwork,
    idle: usize,
) -> Arc<SmcCell> {
    let cell = SmcCell::start_durable(
        Arc::new(net.endpoint()),
        Arc::new(net.endpoint()),
        SmcConfig::fast(),
        Arc::new(MemBackend::new()),
    )
    .expect("durable start");
    assert_eq!(thread_count(), idle + 2, "two threads per cell");

    let stopped = cell.discovery_channel();
    cell.discovery().shutdown();
    restarted(&stopped, || cell.discovery_channel());
    assert!(
        settles_to(idle + 2),
        "{} threads after discovery restarted",
        thread_count() - idle
    );

    let stopped = cell.bus_channel();
    stopped.close();
    restarted(&stopped, || cell.bus_channel());
    assert!(
        settles_to(idle + 2),
        "{} threads after the bus endpoint restarted",
        thread_count() - idle
    );
    cell
}

/// Waits for the cell's loop to replace `stopped` with an open channel.
fn restarted(stopped: &Arc<ReliableChannel>, current: impl Fn() -> Arc<ReliableChannel>) {
    let deadline = Instant::now() + TICK;
    loop {
        let channel = current();
        if !Arc::ptr_eq(&channel, stopped) && !channel.is_closed() {
            return;
        }
        assert!(Instant::now() < deadline, "the endpoint was not restarted");
        std::thread::sleep(Duration::from_millis(10));
    }
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
