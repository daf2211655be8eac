//! One cell of the chaos world: a step-driven durable [`SmcCell`], its
//! device nodes, an observer member subscribed to everything they
//! publish, and whichever planes the run configured. Everything here is
//! a step of the world's tick loop or a fault it injects. The cell
//! detects and repairs on its own; the one repair it hands back is a
//! reboot, which this side performs as the cell's power supply.
//!
//! The oracle hears the cell at two points. A recorder — an in-process
//! subscriber on the cell's own bus — takes joins, purges and every
//! device event the bus accepted, in the order the bus took them: that
//! is where "nothing after purge" is judged, because a purge may overtake
//! events the bus accepted before it on their way to a subscriber. The
//! observer takes exactly-once and per-sender FIFO at the far end of the
//! bus → proxy → channel leg.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use smc_core::{DeviceCodec, EventSink, PassthroughCodec, SmcCell, SmcConfig};
use smc_discovery::{AgentConfig, MemberAgent};
use smc_health::{health_event, PeerAction};
use smc_policy::health_quench_policies;
use smc_telemetry::{Hop, HopRecord, Registry, Sample};
use smc_transport::{Incoming, LinkConfig, MemTransport, ReliableChannel};
use smc_types::{
    member::wellknown, member_id_of, CellId, Event, Filter, Packet, ServiceId, ServiceInfo,
    SupervisionMsg, TraceId,
};
use smc_wal::{MemBackend, WalBackend, CHAN_BUS};

use crate::planes::{CellTelemetry, CellView, HealthRuntime, SupervisionPlane, RECONCILE_MICROS};
use crate::scenario::{CoreComponent, CorruptTarget};
use crate::world::{Act, CellReport, Env, RunOptions};

/// The event type devices publish and the observer subscribes to.
const CHAOS_EVENT: &str = "harness.chaos";
/// The observer's device type, which the cell's proxy factory maps to
/// [`ObserverCodec`].
const OBSERVER_TYPE: &str = "harness.observer";
/// The one-way latency of the observer's link to the bus, without jitter
/// so nothing reorders: a radio hop away, like a device. Its
/// acknowledgements are in flight for a round trip, so a crash finds
/// deliveries the log still owes it — what recovery must resend once.
const OBSERVER_LATENCY: Duration = Duration::from_millis(20);
/// Every n-th message carries a large payload to exercise fragmentation.
const BIG_EVERY: u64 = 5;
/// The fabricated member `CorruptTarget::GhostMember` plants in the
/// cell's members map. Out of the simulator's address range, so it can
/// never collide with a real device.
const GHOST_MEMBER: ServiceId = ServiceId::from_raw(0x0BAD_C0DE_0BAD);
/// The recorder's subscriber id on the bus, out of the same range.
const RECORDER: ServiceId = ServiceId::from_raw(0x0B5E_4BED_0B5E);
/// The detector the cell's own loop names in its health events.
const LOOP: &str = "component-down";

fn payload(seq: u64) -> Vec<u8> {
    let len = if seq.is_multiple_of(BIG_EVERY) {
        2008
    } else {
        40
    };
    vec![0xA5; len]
}

/// The observer's proxy: a passthrough that subscribes, on admission, to
/// every event devices publish — so the subscription is journalled, and
/// made afresh on re-admission.
struct ObserverCodec;

impl DeviceCodec for ObserverCodec {
    fn decode_uplink(&self, raw: &[u8]) -> smc_types::Result<Vec<Event>> {
        PassthroughCodec.decode_uplink(raw)
    }

    fn encode_downlink(&self, event: &Event) -> smc_types::Result<Option<Vec<u8>>> {
        PassthroughCodec.encode_downlink(event)
    }

    fn initial_subscriptions(&self) -> Vec<Filter> {
        vec![Filter::for_type(CHAOS_EVENT)]
    }
}

/// What the recorder saw on the bus.
enum Seen {
    Joined(ServiceId),
    Purged(ServiceId),
    Accepted(ServiceId, u64),
    /// One of the cell's own health transitions: component, from, to.
    Health(String, String, String),
}

type Recorded = Arc<Mutex<Vec<Seen>>>;

/// A member agent for a node of cell `member_id`. Sibling cells share
/// one radio network; the filter keeps each node joining its own cell's
/// beacons. Whatever the bus sends a node that is not discovery traffic
/// goes to `sink`.
fn agent(
    env: &Env,
    member_id: u64,
    info: &ServiceInfo,
    channel: &Arc<ReliableChannel>,
    sink: impl FnMut(ServiceId, Packet) + Send + 'static,
) -> Arc<MemberAgent> {
    MemberAgent::with_clock(
        info.clone(),
        Arc::clone(channel),
        AgentConfig {
            cell_filter: Some(CellId(member_id)),
            ..AgentConfig::default()
        },
        Arc::clone(&env.clock),
        Box::new(sink),
    )
}

/// A device's agent: whatever the bus sends it that is not discovery
/// traffic is dropped (refusals), but for the cell's `Quench`, which it
/// obeys.
fn device_agent(
    env: &Env,
    member_id: u64,
    info: &ServiceInfo,
    channel: &Arc<ReliableChannel>,
    quench: &Arc<AtomicBool>,
) -> Arc<MemberAgent> {
    let quench = Arc::clone(quench);
    agent(env, member_id, info, channel, move |_, packet| {
        if let Packet::Quench { enable } = packet {
            quench.store(enable, Ordering::Relaxed);
        }
    })
}

struct Device {
    id: ServiceId,
    info: ServiceInfo,
    channel: Arc<ReliableChannel>,
    agent: Arc<MemberAgent>,
    next_seq: u64,
    next_publish: u64,
    crashed: bool,
    /// Set by the cell's `Quench`: a quenched device holds its publishes
    /// until woken. `quenched` is what the device last acted on.
    quench: Arc<AtomicBool>,
    quenched: bool,
    /// The link profile faults modify and heals restore to.
    baseline: LinkConfig,
    domain: u32,
}

/// The cell's observer: a member admitted through discovery like any
/// device and never a fault target, whose proxy subscribes it to every
/// device event.
struct Observer {
    channel: Arc<ReliableChannel>,
    agent: Arc<MemberAgent>,
    inbox: Arc<Mutex<Vec<Event>>>,
    /// The last sequence number received from each publisher.
    received: HashMap<ServiceId, u64>,
    /// Repeats the observer may drop, per event. The downlink is
    /// at-least-once across a restart (DESIGN.md §5): what the log still
    /// owed when its component died is sent once more by each recovery,
    /// and a subscriber drops the repeat by event id.
    resent: HashMap<(ServiceId, u64), u32>,
}

impl Observer {
    fn new(env: &Env, member_id: u64, name: String) -> Observer {
        let channel = env.device_channel(None);
        let info = ServiceInfo::new(channel.local_id(), OBSERVER_TYPE).with_name(name);
        let inbox: Arc<Mutex<Vec<Event>>> = Arc::default();
        let deliveries = Arc::clone(&inbox);
        let agent = agent(env, member_id, &info, &channel, move |_, packet| {
            if let Packet::Deliver { event, .. } = packet {
                deliveries.lock().expect("inbox").push(event);
            }
        });
        Observer {
            channel,
            agent,
            inbox,
            received: HashMap::new(),
            resent: HashMap::new(),
        }
    }

    /// Notes what `core`'s log owes the observer right after a recovery
    /// re-sent it: one more copy of each event. An event the log owes
    /// twice is owed one repeat, not two.
    fn expect_resends(&mut self, core: &SmcCell) {
        let Some(Ok(state)) = core.wal().map(|wal| wal.recover_state()) else {
            return;
        };
        let me = self.channel.local_id();
        let owed: BTreeSet<(ServiceId, u64)> = state
            .outbound_for(CHAN_BUS)
            .into_iter()
            .filter(|(peer, _)| *peer == me)
            .flat_map(|(_, msgs)| msgs)
            .filter_map(|(_, payload)| match Packet::from_message(payload) {
                Ok(Packet::Deliver { event, .. }) => Some((event.publisher(), event.seq())),
                _ => None,
            })
            .collect();
        for id in owed {
            *self.resent.entry(id).or_default() += 1;
        }
    }
}

/// Boots cell `cell`'s core from `backend` — a fresh log, or the one a
/// crashed incarnation left — on the endpoints `ids` pins on a reboot.
/// The recorder, the observer's codec, the quench obligations (with a
/// health plane) and a stopped loop (with no running supervisor) are in
/// place before the incarnation's first step.
fn boot_core(
    env: &Env,
    backend: &Arc<dyn WalBackend>,
    cell: CellId,
    ids: Option<(ServiceId, ServiceId)>,
    recorded: &Recorded,
    (supervising, quenching): (bool, bool),
) -> Arc<SmcCell> {
    let (disco, bus) = match ids {
        Some((disco_id, bus_id)) => (
            env.net.endpoint_with_id(disco_id),
            env.net.endpoint_with_id(bus_id),
        ),
        None => (env.net.endpoint(), env.net.endpoint()),
    };
    let config = SmcConfig {
        cell,
        discovery: env.discovery.clone(),
        reliable: env.reliable.clone(),
        clock: Arc::clone(&env.clock),
        ..SmcConfig::default()
    };
    let core = SmcCell::with_clock(Arc::new(bus), Arc::new(disco), config, Arc::clone(backend))
        .expect("wal backend opens");
    core.proxy_factory()
        .register(OBSERVER_TYPE, |_| Box::new(ObserverCodec));
    core.set_supervising(supervising);
    if quenching {
        for p in health_quench_policies() {
            core.policy().add(p).expect("built-in policies are valid");
        }
    }
    let recorded = Arc::clone(recorded);
    let recorder: Arc<dyn EventSink> = Arc::new(move |event: &Event| {
        let text = |name| event.attr(name).and_then(|v| v.as_str()).map(str::to_owned);
        let seen = match event.event_type() {
            wellknown::NEW_MEMBER => member_id_of(event).map(Seen::Joined),
            wellknown::PURGE_MEMBER => member_id_of(event).map(Seen::Purged),
            // The cell's own loop names its detector; the health plane's
            // transitions are the plane's to narrate.
            wellknown::HEALTH if text(wellknown::HEALTH_DETECTOR).as_deref() == Some(LOOP) => {
                let from = text(wellknown::HEALTH_FROM).unwrap_or_default();
                let to = text(wellknown::HEALTH_TO).unwrap_or_default();
                text(wellknown::HEALTH_COMPONENT).map(|c| Seen::Health(c, from, to))
            }
            wellknown::HEALTH => None,
            _ => Some(Seen::Accepted(event.publisher(), event.seq())),
        };
        recorded.lock().expect("recorder").extend(seen);
        Ok(())
    });
    use wellknown::{HEALTH, NEW_MEMBER, PURGE_MEMBER};
    for event_type in [NEW_MEMBER, PURGE_MEMBER, HEALTH, CHAOS_EVENT] {
        let filter = Filter::for_type(event_type);
        core.subscribe_local(RECORDER, filter, Arc::clone(&recorder))
            .expect("recorder subscribes");
    }
    core
}

/// One cell: core, devices, observer, and its planes.
pub(crate) struct Cell {
    /// Position in the world's cell list; names the cell in fault lines.
    idx: usize,
    /// `idx + 1`: the id the discovery service beacons and the member id
    /// on the supervision plane.
    member_id: u64,
    backend: Arc<dyn WalBackend>,
    /// The core; `None` while it is crashed.
    pub(crate) core: Option<Arc<SmcCell>>,
    disco_id: ServiceId,
    sink_id: ServiceId,
    recorded: Recorded,
    observer: Observer,
    /// Endpoints holding the addresses of components a scripted kill
    /// wedged: their restarts fail until the core reboots.
    squatters: Vec<MemTransport>,
    /// The bus channel the observer's resend bookkeeping last saw: a new
    /// one means the cell restarted its sink.
    bus_seen: Arc<ReliableChannel>,
    /// Whether the cell runs the quench obligations (a health plane).
    quenching: bool,
    devices: Vec<Device>,
    pub(crate) device_ids: Vec<ServiceId>,
    pub(crate) core_recoveries: u64,
    saw_core_crash: bool,
    saw_escalation: bool,
    health: Option<HealthRuntime>,
    pub(crate) sup: Option<SupervisionPlane>,
    pub(crate) telemetry: Option<CellTelemetry>,
}

impl Cell {
    /// Builds cell `idx` on `env`'s network: core, observer, `nodes`
    /// devices, then the planes `options` configures. Cell 0 is the cell
    /// under test — scripted faults land on it — so it alone gets the
    /// caller's WAL backend and flight-recorder dump path; a sibling
    /// journals into a private in-memory log.
    pub(crate) fn new(env: &Env, idx: usize, nodes: usize, options: &RunOptions) -> Cell {
        let under_test = idx == 0;
        let member_id = idx as u64 + 1;
        let backend: Arc<dyn WalBackend> = if under_test {
            Arc::clone(&options.backend)
        } else {
            Arc::new(MemBackend::new())
        };
        let recorded = Recorded::default();
        let quenching = options.health.is_some();
        let flags = (options.supervision.is_some(), quenching);
        let core = boot_core(env, &backend, CellId(member_id), None, &recorded, flags);
        // Names are wire bytes (join requests carry them and bandwidth-
        // limited links charge for each), so a cell with a sibling on
        // its radio network qualifies its nodes' names with its member
        // id and a lone cell does not.
        let name = |node: &str, n: usize| {
            if options.peered() {
                format!("chaos {node} {member_id}.{n}")
            } else {
                format!("chaos {node} {n}")
            }
        };
        // The observer joins first: its subscription is in place before
        // any device can publish.
        let observer = Observer::new(env, member_id, name("observer", 0));
        let link = LinkConfig {
            latency: OBSERVER_LATENCY,
            ..LinkConfig::ideal()
        };
        let sink_id = core.bus_endpoint();
        env.net
            .set_link_between(observer.channel.local_id(), sink_id, link);
        let devices: Vec<Device> = (0..nodes)
            .map(|n| {
                let channel = env.device_channel(None);
                let info =
                    ServiceInfo::new(ServiceId::NIL, "harness.device").with_name(name("device", n));
                let quench = Arc::default();
                let agent = device_agent(env, member_id, &info, &channel, &quench);
                Device {
                    id: channel.local_id(),
                    info,
                    channel,
                    agent,
                    next_seq: 1,
                    next_publish: 0,
                    crashed: false,
                    quench,
                    quenched: false,
                    baseline: LinkConfig::ideal(),
                    domain: 0,
                }
            })
            .collect();
        // Planes open their endpoints after the nodes', in this order.
        let sup = options
            .supervision
            .as_ref()
            .map(|opts| SupervisionPlane::new(env, opts.peer, member_id));
        let telemetry = options.telemetry.then(|| CellTelemetry::new(env));
        Cell {
            idx,
            member_id,
            backend,
            disco_id: core.discovery().local_id(),
            sink_id,
            bus_seen: core.bus_channel(),
            core: Some(core),
            recorded,
            observer,
            squatters: Vec::new(),
            quenching,
            device_ids: devices.iter().map(|d| d.id).collect(),
            devices,
            core_recoveries: 0,
            saw_core_crash: false,
            saw_escalation: false,
            health: options
                .health
                .as_ref()
                .map(|opts| HealthRuntime::new(opts.dump_path.clone().filter(|_| under_test))),
            sup,
            telemetry,
        }
    }

    /// The cell's endpoint on the supervision plane and its sibling's, if
    /// that plane runs.
    pub(crate) fn supervision_link(&self) -> Option<(ServiceId, ServiceId)> {
        let peer = self.sup.as_ref()?.peer.as_ref()?;
        Some((peer.channel.local_id(), peer.sibling_sup))
    }

    /// Tells this cell's peer plane who its sibling is.
    pub(crate) fn meet_sibling(&mut self, sibling: usize, endpoint: ServiceId) {
        if let Some(peer) = self.sup.as_mut().and_then(|s| s.peer.as_mut()) {
            peer.sibling = sibling;
            peer.sibling_sup = endpoint;
        }
    }

    fn sup_alive(&self) -> bool {
        self.sup.as_ref().is_some_and(|s| s.alive)
    }

    /// Whether `component` runs: the core is up and the component's
    /// channel open.
    fn up(&self, component: CoreComponent) -> bool {
        self.core.as_ref().is_some_and(|core| {
            let channel = match component {
                CoreComponent::Discovery => core.discovery_channel(),
                CoreComponent::Sink => core.bus_channel(),
            };
            !channel.is_closed()
        })
    }

    pub(crate) fn view(&self) -> CellView {
        CellView {
            sup_alive: self.sup_alive(),
            core_crashed: self.core.is_none(),
        }
    }

    // ------------------------------------------------------------------
    // Scripted faults.
    // ------------------------------------------------------------------

    /// A device-indexed fault on node `node` of this cell.
    pub(crate) fn apply_device_fault(&mut self, env: &mut Env, node: usize, act: &Act) {
        let discovery_up = self.up(CoreComponent::Discovery);
        let Some(dev) = self.devices.get_mut(node) else {
            return;
        };
        let (disco_id, sink_id) = (self.disco_id, self.sink_id);
        let set_links = |env: &Env, id: ServiceId, link: LinkConfig| {
            env.net.set_link_between(id, sink_id, link.clone());
            env.net.set_link_between(id, disco_id, link);
        };
        let set_partitioned = |env: &Env, id: ServiceId, on: bool| {
            env.net.set_partitioned(id, sink_id, on);
            env.net.set_partitioned(id, disco_id, on);
        };
        match act {
            Act::Loss(loss) => {
                env.fault(format!("node{node} loss burst {loss:.2}"));
                let mut link = dev.baseline.clone();
                link.loss = *loss;
                set_links(env, dev.id, link);
            }
            Act::Dup(dup) => {
                env.fault(format!("node{node} duplicate storm {dup:.2}"));
                let mut link = dev.baseline.clone();
                link.duplicate = *dup;
                set_links(env, dev.id, link);
            }
            Act::Heal => {
                env.fault(format!("node{node} link healed"));
                set_links(env, dev.id, dev.baseline.clone());
            }
            Act::Profile(profile) => {
                env.fault(format!("node{node} link profile {profile:?}"));
                let mut link = profile.config();
                // Keep the baseline MTU: fragments are sized against the
                // default link, and a shrunken path MTU would wedge them.
                link.mtu = dev.baseline.mtu;
                dev.baseline = link.clone();
                set_links(env, dev.id, link);
            }
            Act::PartitionOn => {
                env.fault(format!("node{node} partitioned"));
                set_partitioned(env, dev.id, true);
            }
            Act::PartitionOff => {
                env.fault(format!("node{node} partition healed"));
                set_partitioned(env, dev.id, false);
            }
            Act::Domain(domain) => {
                env.fault(format!("node{node} moved to domain {domain}"));
                dev.domain = *domain;
                env.net.set_domain(dev.id, *domain);
            }
            Act::Evict => {
                let evict = |core: &SmcCell| core.discovery().evict(dev.id).is_ok();
                let core = self.core.as_deref().filter(|_| discovery_up);
                if core.is_some_and(evict) {
                    env.fault(format!("node{node} evicted"));
                }
            }
            Act::Crash => {
                env.fault(format!("node{node} crashed"));
                dev.crashed = true;
                env.retire(&dev.channel);
                dev.channel.close();
            }
            Act::Restart => {
                if !dev.crashed {
                    return;
                }
                env.fault(format!("node{node} restarted"));
                dev.channel = env.device_channel(Some(dev.id));
                let member_id = self.member_id;
                dev.agent = device_agent(env, member_id, &dev.info, &dev.channel, &dev.quench);
                env.net.set_domain(dev.id, dev.domain);
                dev.crashed = false;
            }
            Act::CoreCrash
            | Act::CoreRestart
            | Act::Kill(..)
            | Act::Corrupt(..)
            | Act::KillSupervisor(..)
            | Act::CellPartition(..) => {
                unreachable!("core and cell acts are routed by the world")
            }
        }
    }

    /// Kills one component: its channel closes, and it stays down until
    /// something restarts it. A wedged one's address is taken at once,
    /// so its endpoint will not reopen.
    fn kill(&mut self, env: &mut Env, core: &SmcCell, component: CoreComponent, wedged: bool) {
        let id = match component {
            CoreComponent::Discovery => {
                env.retire(&core.discovery_channel());
                core.discovery().shutdown();
                self.disco_id
            }
            CoreComponent::Sink => {
                let channel = core.bus_channel();
                env.retire(&channel);
                channel.close();
                self.sink_id
            }
        };
        if wedged {
            self.squatters.push(env.net.endpoint_with_id(id));
        }
    }

    /// The scripted `KillComponent`: one core component silently dies.
    pub(crate) fn kill_component(&mut self, env: &mut Env, component: CoreComponent, wedged: bool) {
        let Some(core) = self.core.clone().filter(|_| self.up(component)) else {
            return;
        };
        env.fault(format!("cell{} {} killed", self.idx, component.name()));
        self.kill(env, &core, component, wedged);
    }

    /// Tears down whatever of the core is still up. The discovery table,
    /// bus cursors, proxies and pending queues are gone until a reboot
    /// reads them back from the log; the loop's report goes into the
    /// book.
    fn stop_core(&mut self, env: &mut Env) {
        let Some(core) = self.core.clone() else {
            return;
        };
        core.set_supervising(false);
        if let Some(sup) = self.sup.as_mut() {
            sup.fold(core.supervision());
        }
        for component in [CoreComponent::Sink, CoreComponent::Discovery] {
            if self.up(component) {
                self.kill(env, &core, component, false);
            }
        }
        self.core = None;
        self.squatters.clear();
    }

    /// The scripted `CoreCrash`.
    pub(crate) fn crash_core(&mut self, env: &mut Env) {
        if self.core.is_none() {
            return;
        }
        env.fault(format!("cell{} core crashed", self.idx));
        self.saw_core_crash = true;
        if let Some(health) = self.health.as_mut() {
            health.recorder.note(env.now, "core crashed");
        }
        self.stop_core(env);
    }

    /// The scripted `CoreRestart`.
    pub(crate) fn restart_core(&mut self, env: &mut Env) {
        if self.core.is_some() {
            return;
        }
        self.reboot_core(env);
        env.fault(format!("cell{} core restarted", self.idx));
        if let Some(health) = self.health.as_mut() {
            health.recorder.note(env.now, "core restarted from WAL");
        }
    }

    /// Live state diverges from durable truth.
    pub(crate) fn corrupt(&mut self, env: &mut Env, target: CorruptTarget) {
        let idx = self.idx;
        let Some(core) = &self.core else {
            return;
        };
        let device = |node| self.device_ids.get(node).copied();
        match target {
            CorruptTarget::MembershipView { node } => {
                if let Some(id) = device(node).filter(|&id| core.corrupt_members(id, false)) {
                    env.fault(format!("corrupt: cell{idx} members map dropped {id}"));
                }
            }
            CorruptTarget::GhostMember => {
                if core.corrupt_members(GHOST_MEMBER, true) {
                    env.fault(format!(
                        "corrupt: ghost {GHOST_MEMBER} in cell{idx} members map"
                    ));
                }
            }
            CorruptTarget::DiscoveryMember { node } => {
                let up = self.up(CoreComponent::Discovery);
                let forgot = |id| up && core.discovery().forget_member(id);
                if let Some(id) = device(node).filter(|&id| forgot(id)) {
                    env.fault(format!("corrupt: cell{idx} discovery forgot {id}"));
                }
            }
        }
    }

    /// The cell's loop stops: detection, repair and reconcile all halt
    /// while the data plane (and the obligations that carry out a
    /// sibling's wire commands) runs on. The remote session, if this
    /// cell was an adopter, dies with its host.
    pub(crate) fn kill_supervisor(&mut self, env: &mut Env) {
        let Some(sup) = self.sup.as_mut().filter(|s| s.alive) else {
            return;
        };
        sup.alive = false;
        if let Some(core) = &self.core {
            core.set_supervising(false);
        }
        if let Some(peer) = sup.peer.as_mut() {
            peer.remote = None;
        }
        env.fault(format!("cell{} supervisor killed", self.idx));
        if let Some(health) = self.health.as_mut() {
            health.recorder.note(env.now, "supervisor killed");
        }
    }

    // ------------------------------------------------------------------
    // The tick loop's per-cell steps.
    // ------------------------------------------------------------------

    /// Channels: process frames, ack, retransmit — the core's first (its
    /// bus channel routes what arrives, and discovery steps after its own
    /// channel). A killed component is not stepped. The supervision
    /// channel always steps: the plane it carries must outlive both the
    /// supervisor and the core.
    pub(crate) fn step_channels(&self, telemetry_due: bool) {
        if let Some(core) = &self.core {
            core.step();
        }
        if let Some(peer) = self.sup.as_ref().and_then(|s| s.peer.as_ref()) {
            peer.channel.step();
        }
        if let Some(tel) = self.telemetry.as_ref().filter(|_| telemetry_due) {
            tel.channel.step();
        }
        self.observer.channel.step();
        for dev in &self.devices {
            if !dev.crashed {
                dev.channel.step();
            }
        }
    }

    /// The nodes' protocol logic on top of their channels.
    pub(crate) fn step_protocol(&self) {
        self.observer.agent.step();
        for dev in &self.devices {
            if !dev.crashed {
                dev.agent.step();
            }
        }
    }

    /// What the recorder saw on the bus since the last tick, into the
    /// oracle in the bus's order. The cell's own health transitions go
    /// into the trace and the supervision book, and a `core` failure —
    /// the cell asking its owner for a reboot — is answered here.
    pub(crate) fn drain_recorder(&mut self, env: &mut Env) {
        let seen = std::mem::take(&mut *self.recorded.lock().expect("recorder"));
        let mut reboot = false;
        for seen in seen {
            match seen {
                Seen::Joined(id) => env.oracle.record_joined(env.now, id),
                Seen::Purged(id) => env.oracle.record_purged(env.now, id),
                Seen::Accepted(from, seq) => env.oracle.record_accepted(env.now, from, seq),
                Seen::Health(component, _, _) if component == "core" => reboot = true,
                Seen::Health(component, from, to) => {
                    let idx = self.idx;
                    env.fault(format!("supervision(cell{idx}) {component} {from}->{to}"));
                    if let Some(sup) = self.sup.as_mut().filter(|_| to == "failed") {
                        sup.book.policy_restarts += 1;
                    }
                }
            }
        }
        if reboot && self.core.is_some() {
            // Escalations are the loop admitting a restart was not
            // enough — exactly the runs worth a black-box dump.
            self.saw_escalation = true;
            if let Some(health) = self.health.as_mut() {
                health.recorder.note(env.now, "escalation: core reboot");
            }
            self.stop_core(env);
            self.reboot_core(env);
            env.fault(format!("cell{} core rebooted by its owner", self.idx));
        }
    }

    /// One health-sampling window's worth of metrics, read straight off
    /// the live objects (the run registry's collectors capture the
    /// *final* core incarnation, so the in-run monitor samples the
    /// current one directly).
    fn health_samples(&self) -> Vec<Sample> {
        let mut out = Vec::new();
        for (n, dev) in self.devices.iter().enumerate() {
            let label = format!("device{n}");
            dev.channel
                .stats()
                .samples(&[("channel", &label)], &mut out);
            let depth = dev.channel.pending(self.sink_id) as u64;
            out.push(Sample::gauge(
                "smc_proxy_queue_depth",
                "",
                &[("queue", &label)],
                depth,
            ));
        }
        if let Some(core) = &self.core {
            let channels = [
                ("sink", core.bus_channel()),
                ("discovery", core.discovery_channel()),
            ];
            for (label, channel) in channels {
                channel.stats().samples(&[("channel", label)], &mut out);
            }
            let registry = Registry::default();
            core.register_metrics(&registry);
            out.extend(registry.gather());
        }
        out
    }

    /// Maps a detector's component key back to the device it watches:
    /// `channel:device3` / `queue:device3` → index 3.
    fn component_device(&self, component: &str) -> Option<ServiceId> {
        component
            .strip_prefix("channel:")
            .or_else(|| component.strip_prefix("queue:"))
            .and_then(|l| l.strip_prefix("device"))
            .and_then(|n| n.parse::<usize>().ok())
            .and_then(|n| self.device_ids.get(n).copied())
    }

    /// Self-observation: the health monitor samples the live
    /// channels/WAL/discovery on its own virtual cadence, runs its
    /// detectors, and lets the built-in obligations quench a degraded
    /// publisher — the paper's autonomic feedback loop, in-run.
    pub(crate) fn observe_health(&mut self, env: &mut Env) {
        let now = env.now;
        if !self.health.as_ref().is_some_and(|h| h.monitor.due(now)) {
            return;
        }
        let samples = self.health_samples();
        let mut rt = self.health.take().expect("checked above");
        let hops: Vec<HopRecord> = match &env.trace_sink {
            Some(sink) => sink
                .records()
                .into_iter()
                .filter(|r| r.order >= rt.hop_cursor)
                .collect(),
            None => Vec::new(),
        };
        if let Some(max) = hops.iter().map(|r| r.order).max() {
            rt.hop_cursor = max + 1;
        }
        let transitions = rt.monitor.observe(now, &samples, &hops);
        for t in &transitions {
            env.fault(format!(
                "health {} {}->{} [{}]",
                t.component,
                t.from.as_str(),
                t.to.as_str(),
                t.detector
            ));
            // Published into the cell as a typed `smc.health` event:
            // its quench obligations silence a degraded publisher.
            if let Some(core) = &self.core {
                let member = self.component_device(&t.component);
                let _ = core.publish_local(health_event(t, member));
            }
        }
        rt.recorder.record_hops(&hops);
        rt.recorder.record_frame(now, samples, rt.monitor.report());
        rt.transitions.extend(transitions);
        self.health = Some(rt);
    }

    /// A wire-ordered anti-entropy pass: [`SmcCell::reconcile`] diffs
    /// the members map, the discovery table and the proxies' routes
    /// against durable truth (the folded write-ahead log) and repairs
    /// every direction. `by` names the sibling that ordered it. A crashed
    /// core has nothing to reconcile.
    fn reconcile(&mut self, env: &mut Env, sup: &mut SupervisionPlane, by: u64) {
        let Some(core) = &self.core else {
            return;
        };
        sup.book.reconciles += 1;
        let fixes = core.reconcile().map(|r| r.divergences).unwrap_or_default();
        for fix in &fixes {
            env.fault(format!("reconcile(cell{}, by {by}): {fix}", self.idx));
        }
        sup.book
            .reconcile_fixes
            .extend(fixes.into_iter().map(|f| (env.now, f)));
    }

    /// A sibling's wire command, published into the cell: its peer-repair
    /// obligation carries it out. What came of it is read back off the
    /// cell's loop report; a revived loop brings the watcher back.
    fn command(&mut self, env: &mut Env, sup: &mut SupervisionPlane, event: Event) -> bool {
        let Some(core) = self.core.clone() else {
            return false;
        };
        let before = core.supervision().remote_repairs.len();
        let _ = core.publish_local(event);
        let mut revived = false;
        for (_, what) in core.supervision().remote_repairs.split_off(before) {
            env.fault(format!("cell{} remote repair {what}", self.idx));
            revived |= what == "supervisor: revived";
        }
        if revived {
            sup.revive();
        }
        revived
    }

    /// The cell's supervision-plane turn: the peer protocol and, if
    /// adopting, the remote session.
    pub(crate) fn supervise(&mut self, env: &mut Env, views: &[CellView]) {
        // The plane is detached while it works on the rest of the cell.
        let Some(mut sup) = self.sup.take() else {
            return;
        };
        if sup.peer.is_some() {
            self.step_peer_plane(env, &mut sup, views);
        }
        self.sup = Some(sup);
    }

    /// The peer plane's part of the supervision turn (steps a–d).
    fn step_peer_plane(&mut self, env: &mut Env, sup: &mut SupervisionPlane, views: &[CellView]) {
        let now = env.now;
        let member_id = self.member_id;
        // a. Drain the supervision channel. A repair is the cell's to
        // carry out (its obligations run with its loop stopped, too), a
        // reconcile order is run here, and the rest is the watcher's.
        let peer = sup.peer.as_ref().expect("peer plane present");
        let (sibling_sup, ward_member) = (peer.sibling_sup, peer.sibling as u64 + 1);
        let ward_view = views[peer.sibling];
        let mut events = Vec::new();
        while let Ok(incoming) = peer.channel.recv(Some(Duration::ZERO)) {
            if let Incoming::Reliable { payload, .. } = incoming {
                events.extend(Event::from_message(payload).ok());
            }
        }
        let mut peer_actions = Vec::new();
        for event in events {
            let Some(msg) = SupervisionMsg::from_event(&event) else {
                continue;
            };
            match msg {
                SupervisionMsg::Repair { target, .. } if target == member_id => {
                    // A repair that revives this cell's loop records the
                    // cross-cell hop *here*, under the adopter's episode
                    // trace the command carries, exported on this cell's
                    // next telemetry cadence.
                    let episode = event.attr(wellknown::TEL_EPISODE).and_then(|v| v.as_int());
                    if self.command(env, sup, event) {
                        if let (Some(raw), Some(tel)) = (episode, self.telemetry.as_mut()) {
                            tel.record_hop(TraceId::from_raw(raw as u64), "remote-restart", now);
                        }
                    }
                }
                SupervisionMsg::Reconcile { target, requester } if target == member_id => {
                    // A wire-ordered anti-entropy pass: the adopter
                    // insists live views match durable truth before any
                    // compaction.
                    self.reconcile(env, sup, requester);
                }
                msg if sup.alive => {
                    let peer = sup.peer.as_mut().expect("peer plane present");
                    peer_actions.extend(peer.watcher.on_msg(now, &msg));
                }
                _ => {}
            }
        }
        let peer = sup.peer.as_mut().expect("peer plane present");
        // b + c. The watcher's clock tick, then execute its actions.
        if sup.alive {
            peer_actions.extend(peer.watcher.tick(now));
        }
        for action in peer_actions {
            match action {
                PeerAction::Send(msg) => {
                    if let SupervisionMsg::Claim { target, claimant } = &msg {
                        env.fault(format!(
                            "peer {claimant} claims supervision of cell member {target}"
                        ));
                        if let Some(tel) = self.telemetry.as_mut() {
                            tel.open_episode(*target, now);
                        }
                    }
                    peer.send(sibling_sup, &msg.to_event(now));
                }
                PeerAction::StartRemote { target } => {
                    env.fault(format!(
                        "cell member {member_id} adopted cell member {target}"
                    ));
                    if let Some(tel) = self.telemetry.as_mut() {
                        tel.episode_adopted(target, now);
                    }
                    // Reconcile-before-checkpoint starts *now*: order an
                    // anti-entropy pass before the ward's next
                    // compaction window, then keep re-arming it on
                    // cadence.
                    peer.start_remote(now);
                    let order = SupervisionMsg::Reconcile {
                        target,
                        requester: member_id,
                    };
                    peer.send(sibling_sup, &order.to_event(now));
                }
                PeerAction::StopRemote { target } => {
                    env.fault(format!(
                        "cell member {member_id} released cell member {target}"
                    ));
                    // Release closes the episode: its duration is
                    // exactly the supervision time-to-repair the SLO
                    // watches.
                    if let Some(tel) = self.telemetry.as_mut() {
                        tel.close_episode(target, now);
                    }
                    peer.remote = None;
                }
            }
        }
        // d. The remote session: order the ward's anti-entropy on
        // cadence, and revive its loop while it is stopped.
        if !sup.alive || ward_view.core_crashed {
            return;
        }
        let Some(remote) = peer.remote.as_mut() else {
            return;
        };
        if now >= remote.next_reconcile {
            remote.next_reconcile = now + RECONCILE_MICROS;
            let order = SupervisionMsg::Reconcile {
                target: ward_member,
                requester: member_id,
            };
            peer.send(sibling_sup, &order.to_event(now));
        }
        let Some(revive) = peer
            .revival_due(now, ward_member)
            .filter(|_| !ward_view.sup_alive)
        else {
            return;
        };
        env.fault(format!(
            "remote repair order: supervisor on cell member {ward_member}"
        ));
        sup.book
            .remote_commands
            .push((now, "restart supervisor".into()));
        // The revival carries the episode trace across the wire, so the
        // ward can record its restart hop under the journey the adopter
        // opened.
        let mut event = revive.to_event(now);
        let tel = self.telemetry.as_mut();
        if let Some(trace) = tel.and_then(|tel| tel.episode_wire_repair(ward_member, now)) {
            event = event.with_attr(wellknown::TEL_EPISODE, trace.raw() as i64);
        }
        peer.send(sibling_sup, &event);
    }

    /// Rebuilds the core from its write-ahead log (the reboot the cell
    /// asks its owner for, and the scripted `CoreRestart`).
    fn reboot_core(&mut self, env: &mut Env) {
        let ids = Some((self.disco_id, self.sink_id));
        let flags = (self.sup_alive(), self.quenching);
        let cell = CellId(self.member_id);
        let core = boot_core(env, &self.backend, cell, ids, &self.recorded, flags);
        self.observer.expect_resends(&core);
        self.bus_seen = core.bus_channel();
        self.core_recoveries += 1;
        env.recovery_micros_total += core.metrics().wal_recovery_micros;
        self.core = Some(core);
        if let Some(sup) = self.sup.as_mut() {
            sup.booted(env.now);
        }
    }

    /// The periodic snapshot: compacts the log so recovery replays a
    /// bounded tail. Never while a component is down — snapshotting a
    /// closed channel would freeze empty cursors over the journal's live
    /// tail and destroy the durable truth repair depends on. And, where
    /// a supervision plane exists, never unless an anti-entropy pass ran
    /// since the last checkpoint tick — *even when the loop that runs
    /// reconciles is stopped*: compaction would freeze a
    /// possibly-diverged view into durable truth. The cell's loop report
    /// counts its own passes and the book the wire-ordered ones an
    /// adopter sends, which is what re-arms the gate.
    pub(crate) fn checkpoint(&mut self, env: &mut Env) {
        let stale = self.sup.as_mut().is_some_and(|sup| {
            let own = self
                .core
                .as_ref()
                .map_or(0, |core| core.supervision().reconciles);
            let ran = sup.book.reconciles + own;
            std::mem::replace(&mut sup.reconciles_seen, ran) == ran
        });
        let up = self.up(CoreComponent::Discovery) && self.up(CoreComponent::Sink);
        let Some(core) = self.core.as_ref().filter(|_| up) else {
            return;
        };
        if !stale {
            let _ = core.checkpoint();
            return;
        }
        if let Some(sup) = self.sup.as_mut() {
            sup.book.checkpoints_deferred += 1;
        }
        env.fault(format!(
            "cell{} checkpoint deferred (no recent reconcile)",
            self.idx
        ));
    }

    /// Member devices publish on schedule, each event stamped by its
    /// device and sent to the bus endpoint. A crashed core does not stop
    /// them: their channels queue and retransmit into the outage, which
    /// is exactly the traffic the recovered cursors must dedup. A
    /// *quenched* device, though, holds its publishes until the
    /// obligation wakes it.
    pub(crate) fn publish(&mut self, env: &mut Env, interval: u64) {
        let now = env.now;
        for dev in &mut self.devices {
            let quenched = dev.quench.load(Ordering::Relaxed);
            if quenched != dev.quenched {
                dev.quenched = quenched;
                let verb = if quenched { "quench" } else { "wake" };
                env.fault(format!("{verb} {}", dev.id));
                if let Some(health) = self.health.as_mut() {
                    health.quenches.push((now, dev.id, quenched));
                }
            }
            if dev.crashed || dev.quenched || now < dev.next_publish || !dev.agent.is_member() {
                continue;
            }
            let seq = dev.next_seq;
            dev.next_seq += 1;
            dev.next_publish = now + interval;
            let trace = TraceId::for_event(dev.id, seq);
            env.tracer.record(trace, Hop::Published);
            env.oracle.record_publish(now, dev.id, seq);
            if let Some(tel) = self.telemetry.as_mut() {
                tel.on_publish(dev.id, seq, now);
            }
            let mut event = Event::builder(CHAOS_EVENT).payload(payload(seq)).build();
            event.stamp(dev.id, seq, now);
            let publish = Packet::publish(event).into_shared();
            let _ = dev.channel.send_traced(self.sink_id, publish, trace);
        }
    }

    /// The observer takes what its proxy delivered: every event once, in
    /// each publisher's order — less the repeats recoveries re-sent.
    pub(crate) fn accept_deliveries(&mut self, env: &mut Env) {
        // A sink the cell restarted this tick re-sent what its log owed:
        // the copies are a link latency away yet.
        if let Some(core) = self.core.as_ref() {
            let channel = core.bus_channel();
            if !Arc::ptr_eq(&channel, &self.bus_seen) {
                self.bus_seen = channel;
                self.observer.expect_resends(core);
            }
        }
        let delivered = std::mem::take(&mut *self.observer.inbox.lock().expect("inbox"));
        let observer = &mut self.observer;
        for event in delivered {
            let (from, seq) = (event.publisher(), event.seq());
            let last = observer.received.entry(from).or_default();
            let repeat = |allowed: &&mut u32| seq <= *last && **allowed > 0;
            if let Some(allowed) = observer.resent.get_mut(&(from, seq)).filter(repeat) {
                *allowed -= 1;
                continue;
            }
            *last = (*last).max(seq);
            env.tracer
                .record(TraceId::for_event(from, seq), Hop::Delivered);
            env.oracle.record_delivery(env.now, from, seq);
            if let Some(tel) = self.telemetry.as_mut() {
                tel.on_delivery(from, seq, env.now);
            }
        }
    }

    /// The cell's turn on the telemetry plane: export to `observer` if
    /// the cadence says so.
    pub(crate) fn export_telemetry(&mut self, env: &Env, observer: ServiceId, total: u64) {
        let sup_alive = self.sup_alive();
        if let Some(tel) = self.telemetry.as_mut() {
            if tel.export_due(env.now, total) {
                let members = self.core.as_ref().map_or(0, |core| core.members().len());
                tel.export(env.now, self.member_id, observer, members, sup_alive);
            }
        }
    }

    // ------------------------------------------------------------------
    // Run end.
    // ------------------------------------------------------------------

    /// Retransmissions of the data-plane channels alive at run end.
    pub(crate) fn live_retransmits(&self) -> u64 {
        let core = self
            .core
            .iter()
            .flat_map(|c| [c.bus_channel(), c.discovery_channel()]);
        let nodes = self.devices.iter().map(|d| Arc::clone(&d.channel));
        core.chain(nodes)
            .chain([Arc::clone(&self.observer.channel)])
            .map(|channel| channel.stats().retransmits)
            .sum()
    }

    /// What the cell ended the run with. `violated` is the oracle's
    /// verdict on the whole run; with a core crash or an escalation on
    /// this cell it is what makes the flight recorder dump.
    pub(crate) fn into_report(mut self, violated: bool, at: u64) -> CellReport {
        if let (Some(sup), Some(core)) = (self.sup.as_mut(), &self.core) {
            sup.fold(core.supervision());
        }
        let dump_reason = if violated {
            Some("dump: run ended with an oracle violation")
        } else if self.saw_core_crash {
            Some("dump: run saw a core crash")
        } else if self.saw_escalation {
            Some("dump: run saw a supervision escalation")
        } else {
            None
        };
        CellReport {
            member_id: self.member_id,
            core_recoveries: self.core_recoveries,
            health: self.health.map(|rt| rt.into_outcome(dump_reason, at)),
            ..self
                .sup
                .map(SupervisionPlane::into_report)
                .unwrap_or_default()
        }
    }
}
