//! Crash-recovery integration tests: a durable cell restarted from its
//! write-ahead log resumes with the membership, subscriptions and
//! delivery cursors of the crashed incarnation.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use smc_core::{RemoteClient, SmcCell, SmcConfig};
use smc_discovery::{AgentConfig, DiscoveryConfig, MemberAgent, PacketSink};
use smc_transport::{
    Datagram, LinkConfig, MemTransport, ReliableChannel, ReliableConfig, SimNetwork, Transport,
};
use smc_types::codec::{from_bytes, to_shared};
use smc_types::{
    Error, Event, Filter, ManualClock, Packet, Result, ServiceId, ServiceInfo, SharedClock,
    WalRecord,
};
use smc_wal::{MemBackend, WalBackend};

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

/// What a process crash leaves when it lands just before the log's
/// append number `k + 1`, counted from [`Crash::arm`]: the first `k`
/// appends are in the log, everything the cell sent before the next one
/// is on the wire, and from that append on the world sees nothing the
/// cell does — every later append and every later datagram, on both of
/// the cell's endpoints, is dropped without a word.
#[derive(Debug, Default)]
struct Crash {
    /// Appends still allowed; `None` until armed.
    budget: Mutex<Option<u64>>,
    /// Set by the first append the budget refused: the process is gone.
    dead: AtomicBool,
    /// The kinds of the records that reached the log since arming.
    landed: Mutex<Vec<String>>,
}

impl Crash {
    fn arm(&self, k: u64) {
        *self.budget.lock() = Some(k);
    }

    fn dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    /// Whether an append lands; the first one refused kills the process.
    fn admit(&self, framed: &[u8]) -> bool {
        let mut budget = self.budget.lock();
        match budget.as_mut() {
            _ if self.dead() => false,
            None => true,
            Some(0) => {
                self.dead.store(true, Ordering::SeqCst);
                false
            }
            Some(left) => {
                *left -= 1;
                // Behind the record's `[len][crc32]` frame header.
                let record: WalRecord = from_bytes(&framed[8..]).expect("a framed record");
                let kind = format!("{record:?}");
                let kind = kind.split_whitespace().next().unwrap_or_default();
                self.landed.lock().push(kind.to_string());
                true
            }
        }
    }
}

/// The cell's log, under a [`Crash`].
#[derive(Debug)]
struct CrashingLog {
    log: Arc<MemBackend>,
    crash: Arc<Crash>,
}

impl WalBackend for CrashingLog {
    fn segments(&self) -> Result<Vec<u64>> {
        self.log.segments()
    }
    fn read_segment(&self, id: u64) -> Result<Vec<u8>> {
        self.log.read_segment(id)
    }
    fn create_segment(&self, id: u64) -> Result<()> {
        match self.crash.dead() {
            true => Ok(()),
            false => self.log.create_segment(id),
        }
    }
    fn append(&self, id: u64, data: &[u8]) -> Result<()> {
        match self.crash.admit(data) {
            true => self.log.append(id, data),
            false => Ok(()),
        }
    }
    fn sync(&self, id: u64) -> Result<()> {
        match self.crash.dead() {
            true => Ok(()),
            false => self.log.sync(id),
        }
    }
    fn remove_segment(&self, id: u64) -> Result<()> {
        match self.crash.dead() {
            true => Ok(()),
            false => self.log.remove_segment(id),
        }
    }
    fn read_snapshot(&self) -> Result<Option<Vec<u8>>> {
        self.log.read_snapshot()
    }
    fn write_snapshot(&self, data: &[u8]) -> Result<()> {
        match self.crash.dead() {
            true => Ok(()),
            false => self.log.write_snapshot(data),
        }
    }
}

/// One of the cell's endpoints, under a [`Crash`].
#[derive(Debug)]
struct CrashingLink {
    link: MemTransport,
    crash: Arc<Crash>,
}

impl Transport for CrashingLink {
    fn local_id(&self) -> ServiceId {
        self.link.local_id()
    }
    fn send(&self, to: ServiceId, payload: &[u8]) -> Result<()> {
        match self.crash.dead() {
            true => Ok(()),
            false => self.link.send(to, payload),
        }
    }
    fn broadcast(&self, payload: &[u8]) -> Result<()> {
        match self.crash.dead() {
            true => Ok(()),
            false => self.link.broadcast(payload),
        }
    }
    fn recv(&self, timeout: Option<Duration>) -> Result<Datagram> {
        self.link.recv(timeout)
    }
    fn max_datagram(&self) -> usize {
        self.link.max_datagram()
    }
    fn close(&self) {
        self.link.close();
    }
}

const STEP_MS: u64 = 10;
const READING: &str = "smc.sensor.reading";

/// Publishes reading 1 into a step-driven durable cell that crashes
/// before its log's append `k + 1` (`None`: shuts down cleanly), boots a
/// fresh cell from the log on the same endpoints, lets the publisher's
/// retransmission timer fire and publishes reading 2. Returns what the
/// subscriber received, in order, and the kinds of the records that
/// reached the log while reading 1 was routed.
fn crash_while_routing(k: Option<u64>) -> (Vec<i64>, Vec<String>) {
    let manual = Arc::new(ManualClock::new());
    let clock: SharedClock = manual.clone();
    let net = SimNetwork::with_clock(LinkConfig::ideal(), 7, Arc::clone(&clock));
    // A window of two: every message's ack leaves the moment it is
    // released (half a window owed), so an ack released early is on the
    // wire before the crash can stop it.
    let reliable = ReliableConfig {
        window: 2,
        initial_rto: Duration::from_millis(60),
        poll_interval: Duration::from_millis(STEP_MS),
        ..ReliableConfig::default()
    };
    let config = SmcConfig {
        discovery: DiscoveryConfig {
            // One beacon, at the first step, and no lease traffic: the
            // log holds only what the readings cause.
            beacon_interval: Duration::from_secs(600),
            lease: Duration::from_secs(600),
            grace: Duration::from_secs(600),
            ..DiscoveryConfig::default()
        },
        reliable: reliable.clone(),
        clock: Arc::clone(&clock),
        ..SmcConfig::default()
    };
    let log = Arc::new(MemBackend::new());
    let boot = |bus: MemTransport, discovery: MemTransport, crash: &Arc<Crash>| {
        let crash = Arc::clone(crash);
        let link = |link| -> Arc<dyn Transport> {
            let crash = Arc::clone(&crash);
            Arc::new(CrashingLink { link, crash })
        };
        let (bus, discovery) = (link(bus), link(discovery));
        let log = Arc::new(CrashingLog {
            log: Arc::clone(&log),
            crash: Arc::clone(&crash),
        });
        let cell = SmcCell::with_clock(bus, discovery, config.clone(), log).expect("boot");
        cell.set_supervising(false);
        cell
    };
    let device = |device_type: &str, sink: PacketSink| {
        let endpoint = Arc::new(net.endpoint());
        let channel = ReliableChannel::with_clock(endpoint, reliable.clone(), Arc::clone(&clock));
        let info = ServiceInfo::new(ServiceId::NIL, device_type);
        let config = AgentConfig::default();
        let clock = Arc::clone(&clock);
        let agent = MemberAgent::with_clock(info, Arc::clone(&channel), config, clock, sink);
        (channel, agent)
    };
    let readings = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&readings);
    let publisher = device("sensor.heart-rate", Box::new(|_, _| {}));
    let subscriber = device(
        "monitor.station",
        Box::new(move |_, packet| {
            if let Packet::Deliver { event, .. } = packet {
                let bpm = event.attr("bpm").and_then(|bpm| bpm.as_int());
                sink.lock().push(bpm.expect("a reading"));
            }
        }),
    );
    let run = |cell: &SmcCell, ms: u64| {
        for _ in 0..ms / STEP_MS {
            net.pump_due();
            cell.step();
            for (channel, agent) in [&publisher, &subscriber] {
                channel.step();
                agent.step();
            }
            manual.advance_millis(STEP_MS);
        }
    };
    let publish = |cell: &SmcCell, bpm: i64| {
        let event = Event::builder(READING)
            .attr("bpm", bpm)
            .publisher(publisher.0.local_id())
            .seq(bpm as u64)
            .build();
        let packet = Packet::publish(event).into_shared();
        publisher.0.send(cell.bus_endpoint(), packet).unwrap();
    };

    let crash = Arc::new(Crash::default());
    let cell = boot(net.endpoint(), net.endpoint(), &crash);
    let (bus_id, discovery_id) = (cell.bus_endpoint(), cell.discovery_channel().local_id());
    run(&cell, 500);
    let subscribe = Packet::Subscribe {
        request_id: 1,
        filter: Filter::for_type(READING),
    };
    subscriber.0.send(bus_id, to_shared(&subscribe)).unwrap();
    run(&cell, 500);
    assert_eq!(cell.members().len(), 2, "both devices joined");
    assert_eq!(
        cell.bus().subscriptions().len(),
        1,
        "the monitor subscribed"
    );

    crash.arm(k.unwrap_or(u64::MAX));
    publish(&cell, 1);
    run(&cell, 500);
    let landed = crash.landed.lock().clone();
    cell.shutdown();
    drop(cell);

    let alive = Arc::new(Crash::default());
    let reborn = boot(
        net.endpoint_with_id(bus_id),
        net.endpoint_with_id(discovery_id),
        &alive,
    );
    // Past the publisher's retransmission timeout, backed off as it is
    // by the dead cell's silence.
    run(&reborn, 3_000);
    publish(&reborn, 2);
    run(&reborn, 1_000);
    reborn.shutdown();
    let readings = readings.lock().clone();
    (readings, landed)
}

/// The crash points of one routed publish, enumerated: a crash before
/// any of its appends, between any two, and after the last. Nothing is
/// lost and nothing is reordered at any of them. A reading is delivered
/// twice or more only inside the at-least-once downlink window
/// (DESIGN.md §5): its `Deliver` queued in the log and the subscriber's
/// ack of it not — recovery resends the `Deliver`, and before the cursor
/// record the publisher, never acknowledged, resends the publish too.
#[test]
fn a_crash_at_any_append_of_a_routed_publish_loses_nothing() {
    let (readings, landed) = crash_while_routing(None);
    assert_eq!(readings, [1, 2], "a clean restart");
    assert_eq!(
        landed,
        ["OutEnqueue", "RxCursor", "OutAck"],
        "one routed publish: its Deliver queued, the publisher's cursor \\
         past it, the subscriber's ack of the Deliver"
    );
    let window = 1..landed.len() as u64;
    for k in 0..=landed.len() as u64 {
        let (readings, _) = crash_while_routing(Some(k));
        let copies = readings.iter().filter(|&&bpm| bpm == 1).count();
        assert!(copies >= 1, "crash before append {}: reading 1 lost", k + 1);
        assert_eq!(
            readings,
            [vec![1; copies], vec![2]].concat(),
            "crash before append {}: reading 2 once, after every copy of 1",
            k + 1
        );
        assert!(
            copies == 1 || window.contains(&k),
            "crash before append {}: reading 1 {copies} times outside the window",
            k + 1
        );
    }
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
    // Only the explicit passes below repair: the cell's own, every
    // 500 ms, could heal the damage before the test sees it.
    cell.set_supervising(false);

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

/// The bus endpoint hears every beacon its own discovery service
/// broadcasts. A durable cell with no members, stepped through 20 beacon
/// intervals, answers none of them — its log takes no record at all,
/// so none addressed to its discovery endpoint — while a non-member's
/// reliable `Publish` is still refused.
#[test]
fn a_cell_leaves_beacons_unanswered_and_refuses_a_strangers_publish() {
    const BEACON_MS: u64 = 25;
    let manual = Arc::new(ManualClock::new());
    let clock: SharedClock = manual.clone();
    let net = SimNetwork::with_clock(LinkConfig::ideal(), 7, Arc::clone(&clock));
    let config = SmcConfig {
        discovery: DiscoveryConfig {
            beacon_interval: Duration::from_millis(BEACON_MS),
            ..DiscoveryConfig::default()
        },
        clock: Arc::clone(&clock),
        ..SmcConfig::default()
    };
    let crash = Arc::new(Crash::default());
    let log = Arc::new(CrashingLog {
        log: Arc::new(MemBackend::new()),
        crash: Arc::clone(&crash),
    });
    let (bus, discovery) = (Arc::new(net.endpoint()), Arc::new(net.endpoint()));
    let cell = SmcCell::with_clock(bus, discovery, config.clone(), log).expect("boot");
    // Armed with no budget to run out: it only lists what lands.
    crash.arm(u64::MAX);
    let stranger = ReliableChannel::with_clock(
        Arc::new(net.endpoint()),
        config.reliable.clone(),
        Arc::clone(&clock),
    );
    let run = |ms: u64| {
        for _ in 0..ms / STEP_MS {
            net.pump_due();
            cell.step();
            stranger.step();
            manual.advance_millis(STEP_MS);
        }
    };
    run(20 * BEACON_MS);
    let heard = std::iter::from_fn(|| stranger.try_recv())
        .filter(|incoming| matches!(incoming, smc_transport::Incoming::Unreliable { .. }))
        .count();
    assert!(heard >= 10, "{heard} beacons broadcast");
    let landed = crash.landed.lock().clone();
    assert!(
        landed.is_empty(),
        "beacons answered, the log took {landed:?}"
    );

    let reading = Event::builder(READING).attr("bpm", 70i64).build();
    let publish = Packet::publish(reading).into_shared();
    stranger.send(cell.bus_endpoint(), publish).unwrap();
    run(100);
    let refusal = std::iter::from_fn(|| stranger.try_recv()).find_map(|incoming| match incoming {
        smc_transport::Incoming::Reliable { payload, .. } => Packet::from_message(payload).ok(),
        smc_transport::Incoming::Unreliable { .. } => None,
    });
    assert!(
        matches!(&refusal, Some(Packet::Error { message, .. }) if message.contains("not a member")),
        "a stranger's publish refused: {refusal:?}"
    );
    cell.shutdown();
}
