//! Crash-recovery integration tests: a durable cell restarted from its
//! write-ahead log resumes with the membership, subscriptions and
//! delivery cursors of the crashed incarnation.

use std::sync::Arc;
use std::time::Duration;

use smc_core::{RemoteClient, SmcCell, SmcConfig};
use smc_discovery::AgentConfig;
use smc_transport::{LinkConfig, ReliableChannel, ReliableConfig, SimNetwork, Transport};
use smc_types::codec::to_bytes;
use smc_types::{Error, Event, Filter, Packet, ServiceId, ServiceInfo, WalRecord};
use smc_wal::{MemBackend, Wal, WalConfig, CHAN_BUS};

const TICK: Duration = Duration::from_secs(5);

fn fast_reliable() -> ReliableConfig {
    ReliableConfig {
        initial_rto: Duration::from_millis(30),
        poll_interval: Duration::from_millis(10),
        ..ReliableConfig::default()
    }
}

fn connect(net: &SimNetwork, device_type: &str) -> Arc<RemoteClient> {
    RemoteClient::connect(
        ServiceInfo::new(ServiceId::NIL, device_type).with_name(device_type),
        ReliableChannel::new(Arc::new(net.endpoint()), fast_reliable()),
        AgentConfig::default(),
        TICK,
    )
    .expect("device joins cell")
}

#[test]
fn restart_restores_members_subscriptions_and_delivery() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let backend = Arc::new(MemBackend::new());

    let bus_t = net.endpoint();
    let disco_t = net.endpoint();
    let (bus_id, disco_id) = (bus_t.local_id(), disco_t.local_id());
    let cell = SmcCell::start_durable(
        Arc::new(bus_t),
        Arc::new(disco_t),
        SmcConfig::fast(),
        backend.clone(),
    )
    .expect("durable start on empty backend");

    let sensor = connect(&net, "sensor.heart-rate");
    let monitor = connect(&net, "monitor.station");
    // Checkpoint now: membership lands in the snapshot, the subscription
    // below only in the log tail — recovery must honour both.
    cell.checkpoint().expect("checkpoint");
    let sub_id = monitor
        .subscribe(Filter::for_type("smc.sensor.reading"), TICK)
        .unwrap();
    sensor
        .publish(
            Event::builder("smc.sensor.reading")
                .attr("bpm", 70i64)
                .build(),
            TICK,
        )
        .unwrap();
    assert_eq!(
        monitor
            .next_event(TICK)
            .unwrap()
            .attr("bpm")
            .unwrap()
            .as_int(),
        Some(70)
    );

    let m = cell.wal().expect("a durable cell has a log").metrics();
    assert!(m.bytes_appended > 0, "journalled state transitions");
    assert!(m.fsyncs > 0, "appends are synced");
    assert_eq!(m.snapshots, 1);

    // Crash the core. The devices stay up, retransmitting into the void.
    cell.shutdown();
    drop(cell);

    let reborn = SmcCell::start_durable(
        Arc::new(net.endpoint_with_id(bus_id)),
        Arc::new(net.endpoint_with_id(disco_id)),
        SmcConfig::fast(),
        backend,
    )
    .expect("durable restart");

    let members: Vec<ServiceId> = reborn.members().iter().map(|i| i.id).collect();
    assert!(
        members.contains(&sensor.local_id()),
        "sensor membership recovered"
    );
    assert!(
        members.contains(&monitor.local_id()),
        "monitor membership recovered"
    );
    let subs = reborn.bus().subscriptions();
    assert_eq!(
        subs.len(),
        1,
        "proxy subscription recovered from the log tail"
    );
    assert_eq!(subs[0].0, sub_id, "subscription keeps its pre-crash id");
    assert!(reborn.metrics().wal_recovery_micros > 0);

    // The monitor never re-subscribes, yet keeps receiving. The downlink
    // is at-least-once across a core crash (see DESIGN.md §5): if the
    // monitor's transport ack for the pre-crash event raced the
    // shutdown, the recovered outbound queue redelivers it — and FIFO
    // places any such replay strictly before the new event.
    sensor
        .publish(
            Event::builder("smc.sensor.reading")
                .attr("bpm", 71i64)
                .build(),
            TICK,
        )
        .unwrap();
    let mut bpm = monitor
        .next_event(TICK)
        .unwrap()
        .attr("bpm")
        .unwrap()
        .as_int();
    if bpm == Some(70) {
        bpm = monitor
            .next_event(TICK)
            .unwrap()
            .attr("bpm")
            .unwrap()
            .as_int();
    }
    assert_eq!(bpm, Some(71), "the post-crash event arrives, in order");
    assert!(
        monitor.try_next_event().is_none(),
        "nothing beyond the newest event"
    );

    sensor.shutdown();
    monitor.shutdown();
    reborn.shutdown();
}

#[test]
fn unconsumed_rx_payload_is_routed_after_restart() {
    // A crash can land after the transport layer journalled and
    // acknowledged an inbound publish but before the dispatch thread
    // routed it. The log then holds an RxDeliver with no matching
    // RxConsumed, and recovery must re-route the payload — the sender
    // saw its ack and will never retransmit.
    let net = SimNetwork::new(LinkConfig::ideal());
    let backend = Arc::new(MemBackend::new());
    // Never written through: a reader of what the cells below log
    // (`recover_state`), opened first so that its own, empty segment sorts
    // ahead of theirs.
    let (log, _) = Wal::open(backend.clone(), WalConfig::default()).unwrap();

    let bus_t = net.endpoint();
    let disco_t = net.endpoint();
    let (bus_id, disco_id) = (bus_t.local_id(), disco_t.local_id());
    let cell = SmcCell::start_durable(
        Arc::new(bus_t),
        Arc::new(disco_t),
        SmcConfig::fast(),
        backend.clone(),
    )
    .expect("durable start");

    let sensor = connect(&net, "sensor.heart-rate");
    let monitor = connect(&net, "monitor.station");
    monitor
        .subscribe(Filter::for_type("smc.sensor.reading"), TICK)
        .unwrap();
    // One normal round trip so the sensor has a live cursor on the bus.
    sensor
        .publish(
            Event::builder("smc.sensor.reading")
                .attr("bpm", 70i64)
                .build(),
            TICK,
        )
        .unwrap();
    monitor.next_event(TICK).unwrap();
    // The round trip is over on the wire once the cell's log says so:
    // every inbound payload consumed, and nothing owed to the monitor —
    // the monitor holds its acknowledgement of the `Deliver` for up to
    // two poll ticks, and until it lands the log still retains the
    // `Deliver`, which recovery would resend ahead of the payload planted
    // below.
    let monitor_id = monitor.local_id();
    let wait_settled = || {
        let deadline = std::time::Instant::now() + TICK;
        loop {
            let state = log.recover_state().unwrap();
            let owed = state.outbound_for(CHAN_BUS);
            if state.pending_rx_for(CHAN_BUS).is_empty()
                && owed.iter().all(|(peer, _)| *peer != monitor_id)
            {
                return;
            }
            assert!(std::time::Instant::now() < deadline, "round trip settles");
            std::thread::sleep(Duration::from_millis(1));
        }
    };
    wait_settled();

    cell.shutdown();
    drop(cell);

    // Plant the half-processed delivery: an RxDeliver continuing the
    // sensor's real session (same epoch, next expected seq) with no
    // RxConsumed after it — exactly what a crash inside the ack→route
    // window leaves behind.
    let (wal, recovered) = Wal::open(backend.clone(), WalConfig::default()).unwrap();
    let (_, epoch, expected) = recovered
        .snapshot
        .cursors_for(CHAN_BUS)
        .into_iter()
        .find(|(peer, _, _)| *peer == sensor.local_id())
        .expect("sensor has a bus cursor");
    let payload = to_bytes(&Packet::publish(
        Event::builder("smc.sensor.reading")
            .attr("bpm", 140i64)
            .publisher(sensor.local_id())
            .seq(2)
            .build(),
    ));
    wal.append(&WalRecord::RxDeliver {
        chan: CHAN_BUS,
        peer: sensor.local_id(),
        epoch,
        seq: expected,
        payload,
    })
    .unwrap();
    drop(wal);

    let reborn = SmcCell::start_durable(
        Arc::new(net.endpoint_with_id(bus_id)),
        Arc::new(net.endpoint_with_id(disco_id)),
        SmcConfig::fast(),
        backend.clone(),
    )
    .expect("durable restart");

    // Recovery reprocesses the orphaned payload through normal dispatch:
    // the monitor gets the reading it would otherwise silently lose.
    let bpm = monitor
        .next_event(TICK)
        .expect("orphaned rx payload re-routed")
        .attr("bpm")
        .unwrap()
        .as_int();
    assert_eq!(bpm, Some(140));

    // Let this round trip finish too before the cell is stopped: the
    // monitor has its event before the dispatch thread marks the payload
    // consumed, and the log says when it was.
    wait_settled();

    // Reprocessing marked it consumed: a checkpoint must not carry the
    // payload forward into the next incarnation's snapshot.
    reborn.checkpoint().expect("checkpoint");
    reborn.shutdown();
    drop(reborn);
    drop(log);
    let (_, recovered) = Wal::open(backend, WalConfig::default()).unwrap();
    assert!(
        recovered.snapshot.pending_rx_for(CHAN_BUS).is_empty(),
        "consumed rx payload must not survive the checkpoint"
    );

    sensor.shutdown();
    monitor.shutdown();
}

#[test]
fn checkpoint_requires_a_durable_cell() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let cell = SmcCell::start(
        Arc::new(net.endpoint()),
        Arc::new(net.endpoint()),
        SmcConfig::fast(),
    );
    assert!(matches!(cell.checkpoint(), Err(Error::Invalid(_))));
    cell.shutdown();
}

/// State corrupted outside any crash path — a silently lost
/// discovery-table entry plus dropped bus routes — converges back to
/// durable truth through one anti-entropy [`SmcCell::reconcile`] pass,
/// and a second pass finds nothing left to repair.
#[test]
fn reconcile_repairs_corrupted_membership_and_routing() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let backend = Arc::new(MemBackend::new());
    let cell = SmcCell::start_durable(
        Arc::new(net.endpoint()),
        Arc::new(net.endpoint()),
        SmcConfig::fast(),
        backend,
    )
    .expect("durable start");

    let sensor = connect(&net, "sensor.heart-rate");
    let monitor = connect(&net, "monitor.station");
    monitor
        .subscribe(Filter::for_type("smc.sensor.reading"), TICK)
        .unwrap();
    sensor
        .publish(
            Event::builder("smc.sensor.reading")
                .attr("bpm", 70i64)
                .build(),
            TICK,
        )
        .unwrap();
    assert_eq!(
        monitor
            .next_event(TICK)
            .unwrap()
            .attr("bpm")
            .unwrap()
            .as_int(),
        Some(70)
    );

    // Corrupt: the monitor's routes vanish from the bus and its entry
    // vanishes from the discovery table. Neither leaves a crash trail.
    assert_eq!(cell.bus().remove_subscriber(monitor.local_id()), 1);
    cell.discovery().forget_member(monitor.local_id());

    // Deliveries are now lost: the event matches no route.
    sensor
        .publish(
            Event::builder("smc.sensor.reading")
                .attr("bpm", 71i64)
                .build(),
            TICK,
        )
        .unwrap();
    assert!(
        monitor.next_event(Duration::from_millis(300)).is_err(),
        "corrupted route must lose the event"
    );

    let report = cell.reconcile().expect("reconcile");
    assert!(
        report
            .divergences
            .iter()
            .any(|d| d.contains("re-attached subscription")),
        "reconcile must re-attach the lost route: {:?}",
        report.divergences
    );
    assert!(report.repaired >= 1);
    assert!(
        cell.discovery().is_member(monitor.local_id()),
        "member restored to the discovery table"
    );

    // The repaired route delivers again, under the original filter.
    sensor
        .publish(
            Event::builder("smc.sensor.reading")
                .attr("bpm", 72i64)
                .build(),
            TICK,
        )
        .unwrap();
    assert_eq!(
        monitor
            .next_event(TICK)
            .unwrap()
            .attr("bpm")
            .unwrap()
            .as_int(),
        Some(72)
    );

    let second = cell.reconcile().expect("second pass");
    assert!(
        second.is_clean(),
        "reconcile is idempotent: {:?}",
        second.divergences
    );
    cell.shutdown();
}
