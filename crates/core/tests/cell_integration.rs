//! Whole-cell integration tests: discovery + bus + proxies + policies
//! working together over the simulated network.

use std::sync::Arc;
use std::time::Duration;

use smc_core::{ChannelSink, DeviceCodec, EventSink, RawDevice, RemoteClient, SmcCell, SmcConfig};
use smc_discovery::AgentConfig;
use smc_policy::{
    ActionClass, ActionSpec, AuthorisationPolicy, Expr, ObligationPolicy, Policy, ValueTemplate,
};
use smc_telemetry::{Hop, TraceSink, Tracer};
use smc_transport::{LinkConfig, ReliableChannel, ReliableConfig, SimNetwork};
use smc_types::codec::to_shared;
use smc_types::{
    system_clock, wellknown, AttributeSet, Error, Event, EventId, Filter, Op, Packet, Result,
    ServiceId, ServiceInfo, TraceId,
};

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

fn connect(net: &SimNetwork, device_type: &str, roles: &[&str]) -> Arc<RemoteClient> {
    connect_with_channel(net, device_type, roles).0
}

/// [`connect`], keeping hold of the member's channel for its counters.
fn connect_with_channel(
    net: &SimNetwork,
    device_type: &str,
    roles: &[&str],
) -> (Arc<RemoteClient>, Arc<ReliableChannel>) {
    let mut info = ServiceInfo::new(ServiceId::NIL, device_type).with_name(device_type);
    for r in roles {
        info = info.with_role(*r);
    }
    let channel = ReliableChannel::new(Arc::new(net.endpoint()), fast_reliable());
    let client = RemoteClient::connect(info, Arc::clone(&channel), AgentConfig::default(), TICK)
        .expect("device joins cell");
    (client, channel)
}

#[test]
fn publish_subscribe_end_to_end() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let cell = start_cell(&net);
    let sensor = connect(&net, "sensor.heart-rate", &["sensor"]);
    let monitor = connect(&net, "monitor.station", &["manager"]);

    monitor
        .subscribe(
            Filter::for_type("smc.sensor.reading").with(("bpm", Op::Gt, 100i64)),
            TICK,
        )
        .unwrap();

    sensor
        .publish(
            Event::builder("smc.sensor.reading")
                .attr("bpm", 140i64)
                .build(),
            TICK,
        )
        .unwrap();
    sensor
        .publish(
            Event::builder("smc.sensor.reading")
                .attr("bpm", 60i64)
                .build(),
            TICK,
        )
        .unwrap();

    let got = monitor.next_event(TICK).unwrap();
    assert_eq!(got.attr("bpm").unwrap().as_int(), Some(140));
    assert_eq!(got.publisher(), sensor.local_id());
    assert!(monitor.try_next_event().is_none(), "60 bpm must not match");

    sensor.shutdown();
    monitor.shutdown();
    cell.shutdown();
}

#[test]
fn per_sender_fifo_under_loss() {
    let net = SimNetwork::with_seed(LinkConfig::ideal().with_loss(0.2), 23);
    let cell = start_cell(&net);
    let sensor = connect(&net, "sensor.heart-rate", &["sensor"]);
    let monitor = connect(&net, "monitor.station", &["manager"]);
    monitor
        .subscribe(Filter::for_type("smc.sensor.reading"), TICK)
        .unwrap();

    for i in 0..30i64 {
        sensor
            .publish_nowait(Event::builder("smc.sensor.reading").attr("n", i).build())
            .unwrap();
    }
    for i in 0..30i64 {
        let got = monitor.next_event(TICK).unwrap();
        assert_eq!(
            got.attr("n").unwrap().as_int(),
            Some(i),
            "FIFO violated at {i}"
        );
    }
    assert!(
        monitor.try_next_event().is_none(),
        "exactly once: no duplicates"
    );
    sensor.shutdown();
    monitor.shutdown();
    cell.shutdown();
}

/// One acknowledgement per hop: an event published without waiting is
/// two reliable messages, `Publish` in and `Deliver` out. Neither the
/// subscriber nor the cell answers at the application level — the
/// channel's own acknowledgement is the §II-C one.
#[test]
fn nowait_stream_costs_no_application_acks() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let cell = start_cell(&net);
    let (sensor, sensor_channel) = connect_with_channel(&net, "sensor.heart-rate", &["sensor"]);
    let (monitor, monitor_channel) = connect_with_channel(&net, "monitor.station", &["manager"]);
    monitor
        .subscribe(Filter::for_type("smc.sensor.reading"), TICK)
        .unwrap();
    let monitor_sent = monitor_channel.stats().msgs_sent;
    let sensor_got = sensor_channel.stats().msgs_delivered;

    for i in 0..200i64 {
        sensor
            .publish_nowait(Event::builder("smc.sensor.reading").attr("n", i).build())
            .unwrap();
    }
    for i in 0..200i64 {
        let got = monitor.next_event(TICK).unwrap();
        assert_eq!(got.attr("n").unwrap().as_int(), Some(i), "in order");
    }
    assert!(monitor.try_next_event().is_none(), "each event once");
    assert_eq!(
        monitor_channel.stats().msgs_sent,
        monitor_sent,
        "the subscriber answers no `Deliver`"
    );
    assert_eq!(
        sensor_channel.stats().msgs_delivered,
        sensor_got,
        "the cell answers no unmarked `Publish`"
    );
    sensor.shutdown();
    monitor.shutdown();
    cell.shutdown();
}

/// Both acknowledgement tags are decoded, never required: a `DeliverAck`
/// from an older subscriber is not an error at the cell, and a
/// `PublishAck` nobody waits for is dropped by the client.
#[test]
fn stray_application_acks_are_ignored() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let cell = start_cell(&net);
    let (monitor, monitor_channel) = connect_with_channel(&net, "monitor.station", &["manager"]);
    let id = EventId::new(ServiceId::from_raw(77), 5);

    // To the cell, as a member: the marked publish queued behind it is
    // answered, and its `PublishAck` is all that comes back.
    let got = monitor_channel.stats().msgs_delivered;
    monitor_channel
        .send(cell.bus_endpoint(), to_shared(&Packet::DeliverAck(id)))
        .unwrap();
    monitor.publish(Event::new("smc.note"), TICK).unwrap();
    assert_eq!(monitor_channel.stats().msgs_delivered, got + 1);

    // To the client: the `Deliver` queued behind it is handed up.
    let stranger = ReliableChannel::new(Arc::new(net.endpoint()), fast_reliable());
    stranger
        .send(monitor.local_id(), to_shared(&Packet::PublishAck(id)))
        .unwrap();
    stranger
        .send(
            monitor.local_id(),
            to_shared(&Packet::deliver(Event::new("smc.after"))),
        )
        .unwrap();
    assert_eq!(monitor.next_event(TICK).unwrap().event_type(), "smc.after");
    monitor.publish(Event::new("smc.note"), TICK).unwrap();

    stranger.close();
    monitor.shutdown();
    cell.shutdown();
}

#[test]
fn membership_events_flow_on_the_bus() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let cell = start_cell(&net);
    let monitor = connect(&net, "monitor.station", &["manager"]);
    monitor
        .subscribe(Filter::for_type(wellknown::NEW_MEMBER), TICK)
        .unwrap();
    monitor
        .subscribe(Filter::for_type(wellknown::PURGE_MEMBER), TICK)
        .unwrap();

    let sensor = connect(&net, "sensor.spo2", &["sensor"]);
    let joined = monitor.next_event(TICK).unwrap();
    assert_eq!(joined.event_type(), wellknown::NEW_MEMBER);
    assert_eq!(smc_types::member_id_of(&joined), Some(sensor.local_id()));
    assert_eq!(smc_types::device_type_of(&joined), Some("sensor.spo2"));

    sensor.leave("test over");
    let purged = monitor.next_event(TICK).unwrap();
    assert_eq!(purged.event_type(), wellknown::PURGE_MEMBER);
    assert_eq!(smc_types::member_id_of(&purged), Some(sensor.local_id()));

    monitor.shutdown();
    cell.shutdown();
}

/// A member that leaves and at once asks to join again, from the same
/// endpoint, is handled in that order: a local subscriber sees New
/// Member, Purge Member, New Member; the cell lists the member once,
/// behind the new incarnation's proxy; and its next publish is delivered
/// exactly once. Twenty times over.
#[test]
fn leave_then_rejoin_at_once_is_handled_in_order() {
    use smc_types::codec::from_bytes;

    let net = SimNetwork::new(LinkConfig::ideal());
    let cell = start_cell(&net);
    let (membership_sink, membership) = ChannelSink::new();
    let membership_sink = Arc::new(membership_sink);
    for change in [wellknown::NEW_MEMBER, wellknown::PURGE_MEMBER] {
        cell.subscribe_local(
            ServiceId::from_raw(0xCE11),
            Filter::for_type(change),
            Arc::clone(&membership_sink) as Arc<dyn EventSink>,
        )
        .unwrap();
    }
    let (readings_sink, readings) = ChannelSink::new();
    cell.subscribe_local(
        ServiceId::from_raw(0xCE12),
        Filter::for_type("smc.sensor.reading"),
        Arc::new(readings_sink),
    )
    .unwrap();

    // The device speaks the protocol by hand, so nothing but this test
    // decides when it leaves and joins.
    let device = ReliableChannel::new(Arc::new(net.endpoint()), fast_reliable());
    let id = device.local_id();
    let discovery = cell.discovery().local_id();
    let join = || {
        let request = Packet::JoinRequest {
            info: ServiceInfo::new(ServiceId::NIL, "sensor.spo2"),
            auth_token: Vec::new(),
        };
        device.send(discovery, to_shared(&request)).unwrap();
    };
    let answered = || loop {
        let incoming = device.recv(Some(TICK)).expect("a join response");
        if let Ok(Packet::JoinResponse { accepted, .. }) = from_bytes(incoming.payload()) {
            assert!(accepted);
            return;
        }
    };
    let next_change = || {
        let event = membership.recv_timeout(TICK).expect("a membership event");
        assert_eq!(smc_types::member_id_of(&event), Some(id));
        event.event_type().to_owned()
    };

    join();
    answered();
    assert_eq!(next_change(), wellknown::NEW_MEMBER);
    let mut proxy = cell.proxy(id).expect("a proxy");
    for round in 1..=20i64 {
        let leave = Packet::Leave {
            member: id,
            reason: "rejoin".into(),
        };
        device.send(discovery, to_shared(&leave)).unwrap();
        join();
        answered();
        assert_eq!(
            [next_change(), next_change()],
            [wellknown::PURGE_MEMBER, wellknown::NEW_MEMBER],
            "round {round}"
        );
        let listed = cell.members().iter().filter(|m| m.id == id).count();
        assert_eq!(listed, 1, "round {round}");
        let fresh = cell.proxy(id).expect("a proxy");
        assert!(!Arc::ptr_eq(&fresh, &proxy), "round {round}: the old proxy");
        assert!(proxy.is_destroyed() && !fresh.is_destroyed());
        proxy = fresh;

        let reading = Event::builder("smc.sensor.reading")
            .attr("round", round)
            .build();
        device
            .send(cell.bus_endpoint(), to_shared(&Packet::publish(reading)))
            .unwrap();
        let got = readings.recv_timeout(TICK).expect("the publish delivered");
        assert_eq!(
            got.attr("round").unwrap().as_int(),
            Some(round),
            "once each"
        );
    }
    assert!(readings.recv_timeout(Duration::from_millis(100)).is_err());
    assert!(membership.try_recv().is_err());
    device.close();
    cell.shutdown();
}

#[test]
fn purge_destroys_proxy_and_subscriptions() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let cell = start_cell(&net);
    let monitor = connect(&net, "monitor.station", &["manager"]);
    monitor.subscribe(Filter::any(), TICK).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let before = cell.bus().subscription_count();
    assert!(before >= 1);
    assert!(cell.proxy(monitor.local_id()).is_some());

    cell.discovery().evict(monitor.local_id()).unwrap();
    let deadline = std::time::Instant::now() + TICK;
    while cell.proxy(monitor.local_id()).is_some() {
        assert!(std::time::Instant::now() < deadline, "proxy not destroyed");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(cell.bus().subscription_count(), 0);
    monitor.shutdown();
    cell.shutdown();
}

#[test]
fn non_member_is_refused() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let cell = start_cell(&net);
    // A channel that never joined sends a publish directly to the bus.
    let rogue = ReliableChannel::new(Arc::new(net.endpoint()), fast_reliable());
    let packet = smc_types::Packet::publish(
        Event::builder("x")
            .publisher(rogue.local_id())
            .seq(1)
            .build(),
    );
    rogue
        .send(cell.bus_endpoint(), smc_types::codec::to_shared(&packet))
        .unwrap();
    // The cell answers with an Error packet.
    let deadline = std::time::Instant::now() + TICK;
    loop {
        assert!(std::time::Instant::now() < deadline, "no refusal received");
        if let Ok(incoming) = rogue.recv(Some(Duration::from_millis(100))) {
            if let Ok(smc_types::Packet::Error { message, .. }) =
                smc_types::codec::from_bytes::<smc_types::Packet>(incoming.payload())
            {
                assert!(message.contains("not a member"));
                break;
            }
        }
    }
    assert_eq!(cell.metrics().published, 0);
    cell.shutdown();
}

#[test]
fn authorisation_policy_denies_publish() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let sink = Arc::new(TraceSink::default());
    let cell = SmcCell::start(
        Arc::new(net.endpoint()),
        Arc::new(net.endpoint()),
        SmcConfig {
            tracer: Tracer::new(Arc::clone(&sink), system_clock()),
            ..SmcConfig::fast()
        },
    );
    cell.policy()
        .add(Policy::Authorisation(AuthorisationPolicy::deny(
            "no-alarms-from-sensors",
            "sensor",
            ActionClass::Publish,
            "smc.alarm",
        )))
        .unwrap();
    let sensor = connect(&net, "sensor.heart-rate", &["sensor"]);
    let err = sensor.publish(Event::new("smc.alarm"), TICK).unwrap_err();
    assert!(matches!(err, Error::Denied(_)), "{err:?}");
    // Readings are still fine (default permit); `Ok` means the bus
    // answered, i.e. the publish passed the policy check.
    sensor
        .publish(Event::new("smc.sensor.reading"), TICK)
        .unwrap();
    assert_eq!(cell.metrics().publishes_denied, 1);

    // A publisher that does not wait is refused all the same: counted and
    // traced at the cell. (The blocking publish queued behind it returns
    // once the cell is past both.)
    let refused = sensor.publish_nowait(Event::new("smc.alarm")).unwrap();
    sensor
        .publish(Event::new("smc.sensor.reading"), TICK)
        .unwrap();
    assert_eq!(cell.metrics().publishes_denied, 2);
    let journey = sink.journey(TraceId::for_event(refused.publisher, refused.seq));
    let denied = |hop: &Hop| matches!(hop, Hop::Dropped { reason } if *reason == "policy-deny");
    assert!(journey.hops.iter().any(|r| denied(&r.hop)), "{journey:?}");
    sensor.shutdown();
    cell.shutdown();
}

#[test]
fn authorisation_policy_denies_subscribe() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let cell = start_cell(&net);
    cell.policy()
        .add(Policy::Authorisation(AuthorisationPolicy::deny(
            "sensors-cannot-snoop",
            "sensor",
            ActionClass::Subscribe,
            "smc.sensor.*",
        )))
        .unwrap();
    let sensor = connect(&net, "sensor.heart-rate", &["sensor"]);
    let err = sensor
        .subscribe(Filter::for_type("smc.sensor.reading"), TICK)
        .unwrap_err();
    assert!(matches!(err, Error::Denied(_)), "{err:?}");
    // Commands are allowed.
    sensor
        .subscribe(Filter::for_type("smc.command"), TICK)
        .unwrap();
    sensor.shutdown();
    cell.shutdown();
}

#[test]
fn obligation_policy_raises_alarm_and_commands_actuator() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let cell = start_cell(&net);
    // Policy: heart rate above 120 raises an alarm carrying the reading
    // and tells the infusion pump to step up.
    cell.policy()
        .add(Policy::Obligation(
            ObligationPolicy::new(
                "tachycardia",
                Filter::for_type("smc.sensor.reading").with(("sensor", Op::Eq, "hr")),
            )
            .when(Expr::parse("bpm > 120").unwrap())
            .then(ActionSpec::PublishEvent {
                event_type: "smc.alarm".into(),
                attrs: vec![
                    ("kind".into(), ValueTemplate::Literal("tachycardia".into())),
                    ("bpm".into(), ValueTemplate::FromEvent("bpm".into())),
                ],
            })
            .then(ActionSpec::SendCommand {
                target: None,
                target_device_type: "actuator.*".into(),
                name: "adjust".into(),
                args: vec![("bpm".into(), ValueTemplate::FromEvent("bpm".into()))],
            }),
        ))
        .unwrap();

    let nurse = connect(&net, "terminal.nurse", &["manager"]);
    nurse
        .subscribe(Filter::for_type("smc.alarm"), TICK)
        .unwrap();
    let pump = connect(&net, "actuator.insulin-pump", &["actuator"]);
    let sensor = connect(&net, "sensor.heart-rate", &["sensor"]);

    sensor
        .publish(
            Event::builder("smc.sensor.reading")
                .attr("sensor", "hr")
                .attr("bpm", 150i64)
                .build(),
            TICK,
        )
        .unwrap();

    let alarm = nurse.next_event(TICK).unwrap();
    assert_eq!(alarm.event_type(), "smc.alarm");
    assert_eq!(alarm.attr("kind").unwrap().as_str(), Some("tachycardia"));
    assert_eq!(alarm.attr("bpm").unwrap().as_int(), Some(150));
    assert_eq!(alarm.attr("policy").unwrap().as_str(), Some("tachycardia"));

    let cmd = pump.next_command(TICK).unwrap();
    assert_eq!(cmd.name, "adjust");
    assert_eq!(cmd.args.get("bpm").unwrap().as_int(), Some(150));

    assert!(cell.metrics().policy_actions >= 2);
    sensor.shutdown();
    pump.shutdown();
    nurse.shutdown();
    cell.shutdown();
}

#[test]
fn quenching_silences_unwatched_publisher() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let cell = start_cell(&net);
    let sensor = connect(&net, "sensor.heart-rate", &["sensor"]);
    let advert = Filter::for_type("smc.sensor.reading").with(("sensor", Op::Eq, "hr"));
    let interested = sensor.advertise(advert, TICK).unwrap();
    assert!(!interested, "nobody subscribed yet");
    assert!(sensor.is_quenched());

    // A monitor subscribes: the bus un-quenches the sensor.
    let monitor = connect(&net, "monitor.station", &["manager"]);
    monitor
        .subscribe(Filter::for_type("smc.sensor.reading"), TICK)
        .unwrap();
    let deadline = std::time::Instant::now() + TICK;
    while sensor.is_quenched() {
        assert!(std::time::Instant::now() < deadline, "never un-quenched");
        std::thread::sleep(Duration::from_millis(10));
    }

    // Monitor leaves: quenched again.
    monitor.leave("done");
    let deadline = std::time::Instant::now() + TICK;
    while !sensor.is_quenched() {
        assert!(std::time::Instant::now() < deadline, "never re-quenched");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(cell.metrics().quench_signals >= 2);
    sensor.shutdown();
    cell.shutdown();
}

/// The fake byte protocol of a dumb temperature sensor.
#[derive(Debug)]
struct TempCodec;

impl DeviceCodec for TempCodec {
    fn decode_uplink(&self, raw: &[u8]) -> Result<Vec<Event>> {
        match raw {
            [0x01, tenths @ ..] if tenths.len() == 2 => {
                let v = u16::from_le_bytes([tenths[0], tenths[1]]) as f64 / 10.0;
                Ok(vec![Event::builder("smc.sensor.reading")
                    .attr("sensor", "temperature")
                    .attr("celsius", v)
                    .build()])
            }
            _ => Err(Error::Invalid("bad frame".into())),
        }
    }

    fn encode_downlink(&self, event: &Event) -> Result<Option<Vec<u8>>> {
        if event.event_type() == "smc.command" {
            Ok(Some(vec![0xC0]))
        } else {
            Ok(None)
        }
    }

    fn initial_subscriptions(&self) -> Vec<Filter> {
        vec![Filter::for_type("smc.command")]
    }
}

#[test]
fn raw_device_through_translating_proxy() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let cell = start_cell(&net);
    cell.proxy_factory()
        .register("sensor.temperature", |_| Box::new(TempCodec));

    let monitor = connect(&net, "monitor.station", &["manager"]);
    monitor
        .subscribe(Filter::for_type("smc.sensor.reading"), TICK)
        .unwrap();

    let device = RawDevice::connect(
        ServiceInfo::new(ServiceId::NIL, "sensor.temperature").with_role("sensor"),
        ReliableChannel::new(Arc::new(net.endpoint()), fast_reliable()),
        AgentConfig::default(),
        TICK,
    )
    .unwrap();

    // 37.2 °C as the little-endian tenths frame.
    device.send_raw(&[0x01, 0x74, 0x01]).unwrap();
    let got = monitor.next_event(TICK).unwrap();
    assert_eq!(got.attr("celsius").unwrap().as_double(), Some(37.2));
    assert_eq!(got.publisher(), device.local_id());
    assert_eq!(got.seq(), 1, "proxy stamped the sequence");

    // The proxy subscribed to commands on the device's behalf: a command
    // event on the bus reaches the device as a translated raw frame.
    cell.send_command(device.local_id(), "recalibrate", AttributeSet::new())
        .unwrap();
    // (send_command goes directly; also publish a command event which the
    // proxy's initial subscription picks up and translates.)
    cell.publish_local(
        Event::builder("smc.command")
            .attr("threshold", 40i64)
            .build(),
    )
    .unwrap();
    let mut saw_translated = false;
    let deadline = std::time::Instant::now() + TICK;
    while std::time::Instant::now() < deadline {
        match device.recv_raw(Duration::from_millis(200)) {
            Ok(frame) if frame == vec![0xC0] => {
                saw_translated = true;
                break;
            }
            _ => {}
        }
    }
    assert!(saw_translated, "downlink translation did not arrive");

    device.shutdown();
    monitor.shutdown();
    cell.shutdown();
}

#[test]
fn policy_deployment_reaches_matching_devices() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let cell = start_cell(&net);
    cell.policy()
        .add(Policy::Authorisation(AuthorisationPolicy::permit(
            "hr-publish",
            "sensor",
            ActionClass::Publish,
            "smc.sensor.*",
        )))
        .unwrap();
    cell.policy()
        .register_deployment("sensor.*", vec!["hr-publish".into()]);

    let sensor = connect(&net, "sensor.heart-rate", &["sensor"]);
    let bundle = sensor.next_policy_bundle(TICK).unwrap();
    let set: smc_policy::PolicySet = smc_types::codec::from_bytes(&bundle).unwrap();
    assert_eq!(set.policies.len(), 1);
    assert_eq!(set.policies[0].id(), "hr-publish");

    // A non-matching device gets nothing.
    let station = connect(&net, "monitor.station", &["manager"]);
    assert!(matches!(
        station.next_policy_bundle(Duration::from_millis(300)),
        Err(Error::Timeout)
    ));

    sensor.shutdown();
    station.shutdown();
    cell.shutdown();
}

#[test]
fn delivery_queues_across_transient_disconnect() {
    // The paper's core scenario: a subscriber drifts out of range, events
    // queue in its proxy, and everything arrives in order when it
    // returns (within the grace period).
    let net = SimNetwork::new(LinkConfig::ideal());
    let cell = start_cell(&net);
    let sensor = connect(&net, "sensor.heart-rate", &["sensor"]);
    let monitor = connect(&net, "monitor.station", &["manager"]);
    monitor
        .subscribe(Filter::for_type("smc.sensor.reading"), TICK)
        .unwrap();

    // Receive one normally.
    sensor
        .publish(
            Event::builder("smc.sensor.reading").attr("n", 0i64).build(),
            TICK,
        )
        .unwrap();
    assert_eq!(
        monitor
            .next_event(TICK)
            .unwrap()
            .attr("n")
            .unwrap()
            .as_int(),
        Some(0)
    );

    // Out of range.
    net.set_partitioned(cell.bus_endpoint(), monitor.local_id(), true);
    for i in 1..=5i64 {
        sensor
            .publish(
                Event::builder("smc.sensor.reading").attr("n", i).build(),
                TICK,
            )
            .unwrap();
    }
    assert!(monitor.try_next_event().is_none());

    // Back in range before the grace period ends.
    net.set_partitioned(cell.bus_endpoint(), monitor.local_id(), false);
    for i in 1..=5i64 {
        let got = monitor.next_event(TICK).unwrap();
        assert_eq!(
            got.attr("n").unwrap().as_int(),
            Some(i),
            "order after reconnect"
        );
    }
    sensor.shutdown();
    monitor.shutdown();
    cell.shutdown();
}

#[test]
fn engine_swap_is_transparent_to_members() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let cell = start_cell(&net);
    let sensor = connect(&net, "sensor.heart-rate", &["sensor"]);
    let monitor = connect(&net, "monitor.station", &["manager"]);
    monitor
        .subscribe(Filter::for_type("smc.sensor.reading"), TICK)
        .unwrap();

    sensor
        .publish(
            Event::builder("smc.sensor.reading").attr("n", 1i64).build(),
            TICK,
        )
        .unwrap();
    assert_eq!(
        monitor
            .next_event(TICK)
            .unwrap()
            .attr("n")
            .unwrap()
            .as_int(),
        Some(1)
    );

    // Live-swap the engine, then keep going.
    cell.bus()
        .swap_engine(smc_match::EngineKind::Siena)
        .unwrap();
    sensor
        .publish(
            Event::builder("smc.sensor.reading").attr("n", 2i64).build(),
            TICK,
        )
        .unwrap();
    assert_eq!(
        monitor
            .next_event(TICK)
            .unwrap()
            .attr("n")
            .unwrap()
            .as_int(),
        Some(2)
    );

    sensor.shutdown();
    monitor.shutdown();
    cell.shutdown();
}

#[test]
fn unsubscribe_stops_flow() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let cell = start_cell(&net);
    let sensor = connect(&net, "sensor.heart-rate", &["sensor"]);
    let monitor = connect(&net, "monitor.station", &["manager"]);
    let sub = monitor
        .subscribe(Filter::for_type("smc.sensor.reading"), TICK)
        .unwrap();
    sensor
        .publish(
            Event::builder("smc.sensor.reading").attr("n", 1i64).build(),
            TICK,
        )
        .unwrap();
    monitor.next_event(TICK).unwrap();
    monitor.unsubscribe(sub, TICK).unwrap();
    sensor
        .publish(
            Event::builder("smc.sensor.reading").attr("n", 2i64).build(),
            TICK,
        )
        .unwrap();
    assert!(matches!(
        monitor.next_event(Duration::from_millis(300)),
        Err(Error::Timeout)
    ));
    // Unknown subscription id errors.
    assert!(monitor
        .unsubscribe(smc_types::SubscriptionId(999), TICK)
        .is_err());
    sensor.shutdown();
    monitor.shutdown();
    cell.shutdown();
}

/// An event keeps the buffer it arrived in, and that buffer goes back to
/// the endpoint that received it when the event drops — here after the
/// cell, its members and the network are all gone: the bus's copy (a
/// local sink's) and the subscriber's, each dropped on a thread of its
/// own, read as they were sent, and dropping them neither panics nor
/// blocks.
#[test]
fn an_event_may_outlive_its_cell_and_its_network() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let cell = start_cell(&net);
    let (sink, local) = ChannelSink::new();
    cell.subscribe_local(
        ServiceId::from_raw(0x5151),
        Filter::for_type("smc.ecg.strip"),
        Arc::new(sink),
    )
    .unwrap();
    let sensor = connect(&net, "sensor.ecg", &["sensor"]);
    let monitor = connect(&net, "monitor.station", &["manager"]);
    monitor
        .subscribe(Filter::for_type("smc.ecg.strip"), TICK)
        .unwrap();
    let strip: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
    sensor
        .publish(
            Event::builder("smc.ecg.strip")
                .attr("lead", 2i64)
                .payload(strip.clone())
                .build(),
            TICK,
        )
        .unwrap();
    let delivered = monitor.next_event(TICK).unwrap();
    let at_the_bus = local.recv_timeout(TICK).unwrap();

    sensor.shutdown();
    monitor.shutdown();
    cell.shutdown();
    drop((sensor, monitor, cell));
    net.shutdown();
    drop(net);

    let (done, dropped) = std::sync::mpsc::channel();
    for event in [delivered, at_the_bus] {
        let (done, strip) = (done.clone(), strip.clone());
        std::thread::spawn(move || {
            assert_eq!(event.payload(), &strip[..]);
            assert_eq!(event.attr("lead").and_then(|v| v.as_int()), Some(2));
            drop(event);
            done.send(()).unwrap();
        });
    }
    for _ in 0..2 {
        dropped
            .recv_timeout(TICK)
            .expect("an event dropped after its cell neither panics nor blocks");
    }
}
