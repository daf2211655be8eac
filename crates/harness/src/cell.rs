//! One cell of the chaos world: a step-driven durable [`SmcCell`], its
//! device nodes, an observer member subscribed to everything they
//! publish, and whichever planes the run configured. Everything here is
//! a step of the world's tick loop or a repair it can order.
//!
//! The oracle hears the cell at two points. A recorder — an in-process
//! subscriber on the cell's own bus — takes joins, purges and every
//! device event the bus accepted, in the order the bus took them: that
//! is where "nothing after purge" is judged, because a purge may overtake
//! events the bus accepted before it on their way to a subscriber. The
//! observer takes exactly-once and per-sender FIFO at the far end of the
//! bus → proxy → channel leg.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use smc_core::{DeviceCodec, EventSink, PassthroughCodec, SmcCell, SmcConfig};
use smc_discovery::{AgentConfig, MemberAgent};
use smc_health::{health_event, HealthState, PeerAction, RepairAction};
use smc_policy::ActionSpec;
use smc_telemetry::{Hop, HopRecord, Registry, Sample};
use smc_transport::{Incoming, LinkConfig, ReliableChannel};
use smc_types::{
    member::wellknown, member_id_of, CellId, Event, Filter, Packet, ServiceId, ServiceInfo,
    SupervisionMsg, TraceId,
};
use smc_wal::{MemBackend, WalBackend, CHAN_BUS};

use crate::planes::{
    component_samples, CellTelemetry, CellView, HealthRuntime, SupervisionPlane, RECONCILE_MICROS,
};
use crate::scenario::{CoreComponent, CorruptTarget};
use crate::world::{Act, CellReport, Env, RunOptions, CHECKPOINT_MICROS};

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
    let agent = MemberAgent::with_clock(
        info.clone(),
        Arc::clone(channel),
        AgentConfig {
            cell_filter: Some(CellId(member_id)),
            ..AgentConfig::default()
        },
        Arc::clone(&env.clock),
    );
    agent.set_packet_sink(Box::new(sink));
    agent
}

struct Device {
    id: ServiceId,
    info: ServiceInfo,
    channel: Arc<ReliableChannel>,
    agent: Arc<MemberAgent>,
    next_seq: u64,
    next_publish: u64,
    crashed: bool,
    /// Set by the built-in health obligation: a quenched device holds
    /// its publishes until woken.
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
/// The recorder and the observer's codec are registered before the
/// incarnation's first step.
fn boot_core(
    env: &Env,
    backend: &Arc<dyn WalBackend>,
    cell: CellId,
    ids: Option<(ServiceId, ServiceId)>,
    recorded: &Recorded,
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
    let recorded = Arc::clone(recorded);
    let recorder: Arc<dyn EventSink> = Arc::new(move |event: &Event| {
        let seen = match event.event_type() {
            wellknown::NEW_MEMBER => member_id_of(event).map(Seen::Joined),
            wellknown::PURGE_MEMBER => member_id_of(event).map(Seen::Purged),
            _ => Some(Seen::Accepted(event.publisher(), event.seq())),
        };
        recorded.lock().expect("recorder").extend(seen);
        Ok(())
    });
    for event_type in [wellknown::NEW_MEMBER, wellknown::PURGE_MEMBER, CHAOS_EVENT] {
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
    core: Option<Arc<SmcCell>>,
    disco_id: ServiceId,
    sink_id: ServiceId,
    recorded: Recorded,
    observer: Observer,
    /// Components a scripted kill wedged: they refuse restarts until the
    /// core reboots.
    wedged: Vec<CoreComponent>,
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
        let core = boot_core(env, &backend, CellId(member_id), None, &recorded);
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
                // A device drops what the bus sends it (refusals).
                let agent = agent(env, member_id, &info, &channel, |_, _| {});
                Device {
                    id: channel.local_id(),
                    info,
                    channel,
                    agent,
                    next_seq: 1,
                    next_publish: 0,
                    crashed: false,
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
        if let Some(sup) = &sup {
            for dev in &devices {
                sup.watch(&dev.channel);
            }
        }
        let telemetry = options.telemetry.then(|| CellTelemetry::new(env));
        Cell {
            idx,
            member_id,
            backend,
            disco_id: core.discovery().local_id(),
            sink_id,
            core: Some(core),
            recorded,
            observer,
            wedged: Vec::new(),
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
        Some((peer.id, peer.sibling_sup))
    }

    /// Tells this cell's peer plane who its sibling is.
    pub(crate) fn meet_sibling(&mut self, sibling: usize, endpoint: ServiceId) {
        if let Some(peer) = self.sup.as_mut().and_then(|s| s.peer.as_mut()) {
            peer.sibling = sibling;
            peer.sibling_sup = endpoint;
        }
    }

    /// The cell's endpoint on the telemetry plane, if it has one.
    pub(crate) fn telemetry_endpoint(&self) -> Option<ServiceId> {
        self.telemetry.as_ref().map(|t| t.channel.local_id())
    }

    fn sup_alive(&self) -> bool {
        self.sup.as_ref().is_some_and(|s| s.rt.alive)
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

    fn components_up(&self) -> [bool; 2] {
        [
            self.up(CoreComponent::Discovery),
            self.up(CoreComponent::Sink),
        ]
    }

    pub(crate) fn view(&self) -> CellView {
        CellView {
            up: self.components_up(),
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
                dev.agent = agent(env, self.member_id, &dev.info, &dev.channel, |_, _| {});
                env.net.set_domain(dev.id, dev.domain);
                dev.crashed = false;
                if let Some(sup) = &self.sup {
                    sup.watch(&dev.channel);
                }
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
    /// something restarts it.
    fn kill(&mut self, env: &mut Env, core: &SmcCell, component: CoreComponent, wedged: bool) {
        match component {
            CoreComponent::Discovery => {
                env.retire(&core.discovery_channel());
                core.discovery().shutdown();
            }
            CoreComponent::Sink => {
                let channel = core.bus_channel();
                env.retire(&channel);
                channel.close();
            }
        }
        if wedged {
            self.wedged.push(component);
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
    /// reads them back from the log.
    fn stop_core(&mut self, env: &mut Env) {
        for component in [CoreComponent::Sink, CoreComponent::Discovery] {
            if let Some(core) = self.core.clone().filter(|_| self.up(component)) {
                self.kill(env, &core, component, false);
            }
        }
        self.core = None;
        self.wedged.clear();
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

    /// The in-process supervisor dies: detection, repair and reconcile
    /// all halt while the data plane (and the cell runtime that executes
    /// a sibling's wire commands) runs on. The remote session, if this
    /// cell was an adopter, dies with its host.
    pub(crate) fn kill_supervisor(&mut self, env: &mut Env) {
        let Some(sup) = self.sup.as_mut().filter(|s| s.rt.alive) else {
            return;
        };
        sup.rt.alive = false;
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
    /// oracle in the bus's order.
    pub(crate) fn drain_recorder(&mut self, env: &mut Env) {
        let seen = std::mem::take(&mut *self.recorded.lock().expect("recorder"));
        for seen in seen {
            match seen {
                Seen::Joined(id) => env.oracle.record_joined(env.now, id),
                Seen::Purged(id) => env.oracle.record_purged(env.now, id),
                Seen::Accepted(from, seq) => env.oracle.record_accepted(env.now, from, seq),
            }
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
            core.metrics().samples(&[], &mut out);
            core.discovery().stats().samples(&[], &mut out);
            if let Some(wal) = core.wal() {
                wal.metrics().samples(&[], &mut out);
            }
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
            // Publish the transition as a typed `smc.health` event
            // through the policy service, exactly as the cell would;
            // execute any quench it fires.
            let member = self.component_device(&t.component);
            for fired in rt.policy.on_event(&health_event(t, member)) {
                let ActionSpec::Quench { publisher, enable } = fired.action else {
                    continue;
                };
                let Some(raw) = publisher.resolve(&fired.trigger).and_then(|v| v.as_int()) else {
                    continue;
                };
                let target = ServiceId::from_raw(raw as u64);
                if let Some(dev) = self.devices.iter_mut().find(|d| d.id == target) {
                    dev.quenched = enable;
                    rt.quenches.push((now, target, enable));
                    env.fault(format!(
                        "{} {target}",
                        if enable { "quench" } else { "wake" }
                    ));
                }
            }
        }
        rt.recorder.record_hops(&hops);
        rt.recorder.record_frame(now, samples, rt.monitor.report());
        rt.transitions.extend(transitions);
        self.health = Some(rt);
    }

    /// One anti-entropy pass: [`SmcCell::reconcile`] diffs the members
    /// map, the discovery table and the proxies' routes against durable
    /// truth (the folded write-ahead log) and repairs every direction,
    /// whether or not anything ever failed. `by` names a sibling that
    /// ordered the pass over the wire. A crashed core has nothing to
    /// reconcile.
    fn reconcile(&mut self, env: &mut Env, sup: &mut SupervisionPlane, by: Option<u64>) {
        let Some(core) = &self.core else {
            return;
        };
        sup.book.reconciles += 1;
        sup.last_reconcile_at = env.now;
        let fixes = core.reconcile().map(|r| r.divergences).unwrap_or_default();
        let who = match by {
            Some(requester) => format!("cell{}, by {requester}", self.idx),
            None => format!("cell{}", self.idx),
        };
        for fix in &fixes {
            env.fault(format!("reconcile({who}): {fix}"));
        }
        if by.is_none() {
            sup.rt.supervisor.record_reconcile(env.now, &fixes);
        }
        sup.book
            .reconcile_fixes
            .extend(fixes.into_iter().map(|f| (env.now, f)));
    }

    /// The cell's supervision-plane turn: drain the wire, run the peer
    /// protocol, drive the remote session if adopting, run anti-entropy
    /// on cadence, then the local detect → repair loop. The peer steps
    /// are skipped where that plane is absent.
    pub(crate) fn supervise(&mut self, env: &mut Env, views: &[CellView]) {
        // The plane is detached while it works on the rest of the cell.
        let Some(mut sup) = self.sup.take() else {
            return;
        };
        if sup.peer.is_some() {
            self.step_peer_plane(env, &mut sup, views);
        }
        // Local anti-entropy on cadence (alive only — a dead supervisor
        // runs no reconciles, which is exactly what starves the
        // checkpoint gate until an adopter's wire-ordered pass re-arms
        // it).
        if sup.rt.alive && env.now >= sup.rt.next_reconcile {
            sup.rt.next_reconcile = env.now + RECONCILE_MICROS;
            self.reconcile(env, &mut sup, None);
        }
        self.detect_and_repair(env, &mut sup);
        self.sup = Some(sup);
    }

    /// The peer plane's part of the supervision turn (steps a–d).
    fn step_peer_plane(&mut self, env: &mut Env, sup: &mut SupervisionPlane, views: &[CellView]) {
        let now = env.now;
        let member_id = self.member_id;
        // a. Drain the supervision channel. Repair/Reconcile are
        // actuator commands the cell runtime executes even with its
        // supervisor dead; everything else is watcher-plane protocol.
        let mut msgs: Vec<(SupervisionMsg, Option<u64>)> = Vec::new();
        let peer = sup.peer.as_ref().expect("peer plane present");
        let (sibling_sup, ward_member) = (peer.sibling_sup, peer.sibling as u64 + 1);
        let ward_view = views[peer.sibling];
        while let Ok(incoming) = peer.channel.recv(Some(Duration::ZERO)) {
            if let Incoming::Reliable { payload, .. } = incoming {
                if let Ok(event) = Event::from_message(payload) {
                    if let Some(msg) = SupervisionMsg::from_event(&event) {
                        // A repair command may carry the adopter's
                        // episode trace; the target's half of the
                        // stitched journey hangs off it.
                        let episode = event
                            .attr(wellknown::TEL_EPISODE)
                            .and_then(|v| v.as_int())
                            .map(|v| v as u64);
                        msgs.push((msg, episode));
                    }
                }
            }
        }
        let mut peer_actions = Vec::new();
        for (msg, episode_attr) in msgs {
            match &msg {
                SupervisionMsg::Repair {
                    target, component, ..
                } if *target == member_id => {
                    let revivals_before = sup.book.supervisor_revivals;
                    // Policy-mediated execution: the wire command
                    // becomes a typed event, the built-in obligation
                    // fires Restart.
                    let peer = sup.peer.as_ref().expect("peer plane present");
                    for fired in peer.actuator.on_event(&msg.to_event(now)) {
                        let ActionSpec::Restart { component: tmpl } = &fired.action else {
                            continue;
                        };
                        let resolved = tmpl
                            .resolve(&fired.trigger)
                            .and_then(|v| v.as_str().map(str::to_string));
                        if let Some(resolved) = resolved {
                            debug_assert_eq!(&resolved, component);
                            self.execute_repair(env, sup, &resolved, true);
                        }
                    }
                    // The cross-cell leg: the repair revived this
                    // cell's supervisor, so the hop is recorded *here*,
                    // under the adopter's episode trace, and exported on
                    // this cell's next telemetry cadence.
                    if sup.book.supervisor_revivals > revivals_before {
                        if let (Some(raw), Some(tel)) = (episode_attr, self.telemetry.as_mut()) {
                            tel.record_hop(TraceId::from_raw(raw), "remote-restart", now);
                        }
                    }
                }
                SupervisionMsg::Reconcile { target, requester } if *target == member_id => {
                    // A wire-ordered anti-entropy pass: the adopter
                    // insists live views match durable truth before any
                    // compaction.
                    self.reconcile(env, sup, Some(*requester));
                }
                _ => {
                    if sup.rt.alive {
                        let peer = sup.peer.as_mut().expect("peer plane present");
                        peer_actions.extend(peer.watcher.on_msg(now, &msg));
                    }
                }
            }
        }
        let peer = sup.peer.as_mut().expect("peer plane present");
        // b + c. The watcher's clock tick, then execute its actions.
        if sup.rt.alive {
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
                    peer.start_remote(now + RECONCILE_MICROS);
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
        // d. The remote session: sample the ward, plan repairs, ship
        // them.
        if !sup.rt.alive || ward_view.core_crashed {
            return;
        }
        let Some(remote) = peer.remote.as_mut() else {
            return;
        };
        let order_reconcile = now >= remote.next_reconcile;
        if order_reconcile {
            remote.next_reconcile = now + RECONCILE_MICROS;
        }
        let mut commands: Vec<(String, u32, String)> = Vec::new();
        if remote.monitor.due(now) {
            let transitions = remote.monitor.observe(now, &ward_view.samples(), &[]);
            let mut actions = Vec::new();
            for t in &transitions {
                env.fault(format!(
                    "remote supervision(cell member {member_id}) {} {}->{}",
                    t.component,
                    t.from.as_str(),
                    t.to.as_str()
                ));
                actions.extend(remote.supervisor.on_transition(t));
            }
            actions.extend(remote.supervisor.tick(now, &remote.monitor.report()));
            for action in actions {
                let (component, attempt) = match &action {
                    RepairAction::Restart { component, attempt } => (component.clone(), *attempt),
                    RepairAction::Escalate { target, .. } => (target.clone(), 0),
                };
                commands.push((component, attempt, action.to_string()));
            }
        }
        if order_reconcile {
            let order = SupervisionMsg::Reconcile {
                target: ward_member,
                requester: member_id,
            };
            peer.send(sibling_sup, &order.to_event(now));
        }
        for (component, attempt, desc) in commands {
            env.fault(format!(
                "remote repair order: {component} on cell member {ward_member} ({desc})"
            ));
            sup.book.remote_commands.push((now, desc));
            let supervisor_repair = component == "supervisor";
            let mut event = SupervisionMsg::Repair {
                target: ward_member,
                component,
                attempt,
            }
            .to_event(now);
            // Supervisor revivals carry the episode trace across the
            // wire, so the target can record its restart hop under the
            // same journey the adopter opened.
            if supervisor_repair {
                if let Some(trace) = self
                    .telemetry
                    .as_mut()
                    .and_then(|tel| tel.episode_wire_repair(ward_member, now))
                {
                    event = event.with_attr(wellknown::TEL_EPISODE, trace.raw() as i64);
                }
            }
            peer.send(sibling_sup, &event);
        }
    }

    /// The local detect → repair loop. The component-down detector
    /// samples liveness gauges, failures route through the built-in
    /// restart obligation (policy-mediated, as the paper's management
    /// events would be) into the supervisor, and the supervisor's plan
    /// is executed against durable truth. A wedged component refuses its
    /// restart, the gauge stays down, and the tick's retry timeout
    /// escalates up the dependency graph. While the core itself is
    /// scripted-crashed the supervisor holds off: the scenario owns that
    /// outage.
    fn detect_and_repair(&mut self, env: &mut Env, sup: &mut SupervisionPlane) {
        if !sup.rt.alive || self.core.is_none() {
            return;
        }
        let now = env.now;
        // A missed ack anywhere pulses the interrupt line; sample
        // immediately instead of waiting out the monitor's cadence.
        // (Observing resets the cadence, so a quiet line costs nothing
        // extra.)
        let pulses = sup.rt.interrupt_line.load(Ordering::Relaxed);
        let interrupted = pulses != sup.rt.seen_interrupts;
        sup.rt.seen_interrupts = pulses;
        if !sup.rt.monitor.due(now) && !interrupted {
            return;
        }
        let samples = component_samples(self.components_up());
        let transitions = sup.rt.monitor.observe(now, &samples, &[]);
        let mut actions = Vec::new();
        for t in &transitions {
            env.fault(format!(
                "supervision(cell{}) {} {}->{}",
                self.idx,
                t.component,
                t.from.as_str(),
                t.to.as_str()
            ));
            if t.to == HealthState::Failed {
                for fired in sup.rt.policy.on_event(&health_event(t, None)) {
                    if let ActionSpec::Restart { component } = &fired.action {
                        if component
                            .resolve(&fired.trigger)
                            .is_some_and(|v| v.as_str().is_some())
                        {
                            sup.book.policy_restarts += 1;
                        }
                    }
                }
            }
            actions.extend(sup.rt.supervisor.on_transition(t));
        }
        actions.extend(sup.rt.supervisor.tick(now, &sup.rt.monitor.report()));
        for action in actions {
            let target = match &action {
                RepairAction::Restart { component, .. } => component,
                RepairAction::Escalate { failed, target } => {
                    // Escalations are the loop admitting a restart was
                    // not enough — exactly the runs worth a black-box
                    // dump.
                    self.saw_escalation = true;
                    if let Some(health) = self.health.as_mut() {
                        health
                            .recorder
                            .note(now, format!("escalation: {failed} -> {target}"));
                    }
                    target
                }
            };
            self.execute_repair(env, sup, target, false);
        }
    }

    /// Executes one repair — from the cell's own supervisor (`remote ==
    /// false`) or a sibling's wire command (`remote == true`). Restart
    /// of a wedged component is refused (the gauge stays down and the
    /// planner escalates); `core` is the escalation target (full reboot
    /// from the WAL, which subsumes every child and clears a wedge, the
    /// way power-cycling a gateway does what restarting one daemon on it
    /// could not); `supervisor` revives a killed supervisor — the repair
    /// only a *sibling* can ever order.
    fn execute_repair(
        &mut self,
        env: &mut Env,
        sup: &mut SupervisionPlane,
        component: &str,
        remote: bool,
    ) {
        let outcome = match (CoreComponent::named(component), component) {
            (Some(which), _) => {
                if self.core.is_none() || self.up(which) {
                    // Already back (detector hysteresis lags the repair).
                    return;
                }
                if self.wedged.contains(&which) {
                    format!("{component}: failed (wedged)")
                } else {
                    self.restart_component(env, which);
                    format!("{component}: done")
                }
            }
            (None, "core") => {
                self.stop_core(env);
                self.reboot_core(env);
                "core: rebooted".to_string()
            }
            (None, "supervisor") if !sup.rt.alive => {
                sup.revive();
                for dev in &self.devices {
                    sup.watch(&dev.channel);
                }
                "supervisor: revived".to_string()
            }
            _ => return,
        };
        let kind = if remote { "remote repair" } else { "repair" };
        env.fault(format!("cell{} {kind} {outcome}", self.idx));
        let log = if remote {
            &mut sup.book.remote_repairs
        } else {
            &mut sup.book.local_repairs
        };
        log.push((env.now, outcome));
    }

    /// Rebuilds one killed component on its old endpoint from durable
    /// truth — the supervisor's `restart` repair, which the cell performs
    /// itself ([`SmcCell::restart_discovery`], [`SmcCell::restart_bus`]).
    fn restart_component(&mut self, env: &mut Env, component: CoreComponent) {
        let Some(core) = &self.core else {
            return;
        };
        let endpoint = |id| Arc::new(env.net.endpoint_with_id(id));
        match component {
            CoreComponent::Discovery => core.restart_discovery(endpoint(self.disco_id)),
            CoreComponent::Sink => core
                .restart_bus(endpoint(self.sink_id))
                .map(|()| self.observer.expect_resends(core)),
        }
        .expect("the log reads back");
    }

    /// Rebuilds the core from its write-ahead log (the escalation repair
    /// and the scripted `CoreRestart`).
    fn reboot_core(&mut self, env: &mut Env) {
        let ids = Some((self.disco_id, self.sink_id));
        let core = boot_core(
            env,
            &self.backend,
            CellId(self.member_id),
            ids,
            &self.recorded,
        );
        self.observer.expect_resends(&core);
        self.core_recoveries += 1;
        env.recovery_micros_total += core.metrics().wal_recovery_micros;
        self.core = Some(core);
    }

    /// The periodic snapshot: compacts the log so recovery replays a
    /// bounded tail. Never while a component is down — snapshotting a
    /// closed channel would freeze empty cursors over the journal's live
    /// tail and destroy the durable truth repair depends on. And, where
    /// a supervision plane exists, never unless an anti-entropy pass ran
    /// within the last checkpoint interval — *even when the supervisor
    /// that runs reconciles is dead*: compaction would freeze a
    /// possibly-diverged view into durable truth. An adopter's
    /// wire-ordered Reconcile is what re-arms the gate.
    pub(crate) fn checkpoint(&mut self, env: &mut Env) {
        let Some(core) = self
            .core
            .as_ref()
            .filter(|_| self.components_up() == [true; 2])
        else {
            return;
        };
        match self.sup.as_mut() {
            Some(sup) if env.now.saturating_sub(sup.last_reconcile_at) > CHECKPOINT_MICROS => {
                sup.book.checkpoints_deferred += 1;
                env.fault(format!(
                    "cell{} checkpoint deferred (no recent reconcile)",
                    self.idx
                ));
            }
            _ => {
                let _ = core.checkpoint();
            }
        }
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

    /// Registers collectors over the final core incarnation: the cell's
    /// bus, WAL and discovery series.
    pub(crate) fn register_core_with(&self, registry: &Registry) {
        if let Some(core) = &self.core {
            core.register_metrics(registry);
        }
    }

    /// What the cell ended the run with. `violated` is the oracle's
    /// verdict on the whole run; with a core crash or an escalation on
    /// this cell it is what makes the flight recorder dump.
    pub(crate) fn into_report(self, violated: bool, at: u64) -> CellReport {
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
