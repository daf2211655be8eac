//! Focused tests of the device-side client library: error paths,
//! local-service wiring, and command round trips.

use std::sync::Arc;
use std::time::Duration;

use smc_core::{ChannelSink, RemoteClient, SmcCell, SmcConfig};
use smc_discovery::AgentConfig;
use smc_transport::{LinkConfig, ReliableChannel, ReliableConfig, SimNetwork};
use smc_types::{AttributeSet, Error, Event, Filter, ServiceId, ServiceInfo, SubscriptionId};

const TICK: Duration = Duration::from_secs(5);

fn fast_reliable() -> ReliableConfig {
    ReliableConfig {
        initial_rto: Duration::from_millis(30),
        poll_interval: Duration::from_millis(10),
        ..ReliableConfig::default()
    }
}

fn start_cell(net: &SimNetwork) -> Arc<SmcCell> {
    SmcCell::start(
        Arc::new(net.endpoint()),
        Arc::new(net.endpoint()),
        SmcConfig::fast(),
    )
}

fn connect(net: &SimNetwork, device_type: &str) -> Arc<RemoteClient> {
    RemoteClient::connect(
        ServiceInfo::new(ServiceId::NIL, device_type),
        ReliableChannel::new(Arc::new(net.endpoint()), fast_reliable()),
        AgentConfig::default(),
        TICK,
    )
    .expect("join")
}

#[test]
fn connect_times_out_without_a_cell() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let result = RemoteClient::connect(
        ServiceInfo::new(ServiceId::NIL, "orphan"),
        ReliableChannel::new(Arc::new(net.endpoint()), fast_reliable()),
        AgentConfig::default(),
        Duration::from_millis(200),
    );
    assert!(matches!(result, Err(Error::Timeout)));
}

#[test]
fn publish_times_out_when_bus_vanishes() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let cell = start_cell(&net);
    let client = connect(&net, "sensor.x");
    // Sever the path to the bus (but not discovery): the acked publish
    // cannot complete.
    net.set_partitioned(client.local_id(), cell.bus_endpoint(), true);
    let err = client
        .publish(Event::new("t"), Duration::from_millis(300))
        .unwrap_err();
    assert!(matches!(err, Error::Timeout), "{err:?}");
    // The reliable layer still holds the message; after healing it goes
    // through and a later publish is acknowledged normally.
    net.set_partitioned(client.local_id(), cell.bus_endpoint(), false);
    client.publish(Event::new("t"), TICK).unwrap();
    client.shutdown();
    cell.shutdown();
}

#[test]
fn client_accessors_report_identity() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let cell = start_cell(&net);
    let client = connect(&net, "sensor.x");
    assert_eq!(client.cell(), Some(cell.cell_id()));
    assert_eq!(client.bus_endpoint(), cell.bus_endpoint());
    assert!(!client.local_id().is_nil());
    assert!(client.agent().is_member());
    client.shutdown();
    assert!(!client.agent().is_member());
    cell.shutdown();
}

#[test]
fn subscribe_local_feeds_in_process_services() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let cell = start_cell(&net);
    let (sink, rx) = ChannelSink::new();
    cell.subscribe_local(
        ServiceId::from_raw(0xCE11),
        Filter::for_type("t"),
        Arc::new(sink),
    )
    .unwrap();
    let client = connect(&net, "sensor.x");
    client
        .publish(Event::builder("t").attr("n", 5i64).build(), TICK)
        .unwrap();
    let got = rx.recv_timeout(TICK).unwrap();
    assert_eq!(got.attr("n").unwrap().as_int(), Some(5));
    client.shutdown();
    cell.shutdown();
}

#[test]
fn send_command_to_unknown_member_errors() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let cell = start_cell(&net);
    let err = cell.send_command(ServiceId::from_raw(0xDEAD), "x", AttributeSet::new());
    assert!(matches!(err, Err(Error::NotMember)));
    cell.shutdown();
}

#[test]
fn command_round_trip_to_device() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let cell = start_cell(&net);
    let device = connect(&net, "actuator.pump");
    let mut args = AttributeSet::new();
    args.insert("rate", 3i64);
    cell.send_command(device.local_id(), "set-rate", args)
        .unwrap();
    let cmd = device.next_command(TICK).unwrap();
    assert_eq!(cmd.name, "set-rate");
    assert_eq!(cmd.args.get("rate").unwrap().as_int(), Some(3));
    device.shutdown();
    cell.shutdown();
}

#[test]
fn unsubscribe_of_foreign_subscription_is_refused() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let cell = start_cell(&net);
    let a = connect(&net, "monitor.a");
    let b = connect(&net, "monitor.b");
    let sub_a = a.subscribe(Filter::for_type("t"), TICK).unwrap();
    // B may not remove A's subscription.
    let err = b.unsubscribe(sub_a, TICK).unwrap_err();
    assert!(matches!(err, Error::Denied(_)), "{err:?}");
    // A still receives events.
    let publisher = connect(&net, "sensor.x");
    publisher.publish(Event::new("t"), TICK).unwrap();
    a.next_event(TICK).unwrap();
    a.shutdown();
    b.shutdown();
    publisher.shutdown();
    cell.shutdown();
}

#[test]
fn unsubscribe_unknown_id_is_refused() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let cell = start_cell(&net);
    let client = connect(&net, "monitor.x");
    let err = client
        .unsubscribe(SubscriptionId(424242), TICK)
        .unwrap_err();
    assert!(matches!(err, Error::Denied(_)), "{err:?}");
    client.shutdown();
    cell.shutdown();
}

#[test]
fn leave_then_reconnect_gets_fresh_session() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let cell = start_cell(&net);
    let first = connect(&net, "sensor.x");
    let first_id = first.local_id();
    first.publish(Event::new("t"), TICK).unwrap();
    first.leave("battery swap");

    let deadline = std::time::Instant::now() + TICK;
    while cell.discovery().is_member(first_id) {
        assert!(std::time::Instant::now() < deadline);
        std::thread::sleep(Duration::from_millis(10));
    }

    // A new endpoint joins and everything works again.
    let second = connect(&net, "sensor.x");
    second.publish(Event::new("t"), TICK).unwrap();
    assert_ne!(second.local_id(), first_id, "fresh endpoint identity");
    second.shutdown();
    cell.shutdown();
}
