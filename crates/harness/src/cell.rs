//! One cell of the chaos world: a durable core (discovery service and
//! bus sink over journalled channels), its device nodes, the sink's
//! membership view, and whichever planes the run configured. Everything
//! here is a step of the world's tick loop or a repair it can order.

use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use smc_discovery::{AgentConfig, DiscoveryService, MemberAgent, MembershipEvent};
use smc_health::{health_event, HealthState, PeerAction, RepairAction};
use smc_policy::{ActionClass, ActionSpec, Decision};
use smc_telemetry::{Hop, HopRecord, Registry, Sample};
use smc_transport::{Incoming, LinkConfig, MemTransport, ReliableChannel};
use smc_types::{
    member::wellknown, CellId, CoreSnapshot, CursorEntry, Event, OutboundEntry, PendingRx,
    ServiceId, ServiceInfo, SupervisionMsg, TraceId, WalRecord,
};
use smc_wal::{
    MemBackend, Recovered, Wal, WalBackend, WalChannelJournal, WalConfig, CHAN_BUS, CHAN_DISCOVERY,
};

use crate::planes::{component_samples, CellTelemetry, CellView, HealthRuntime, SupervisionPlane};
use crate::scenario::{CoreComponent, CorruptTarget};
use crate::world::{Act, CellReport, Env, RunOptions, CHECKPOINT_MICROS};

/// Every n-th message carries a large payload to exercise fragmentation.
const BIG_EVERY: u64 = 5;
/// The fabricated member `CorruptTarget::GhostMember` injects into the
/// sink's routing view. Out of the simulator's address range, so it can
/// never collide with a real device.
const GHOST_MEMBER: ServiceId = ServiceId::from_raw(0x0BAD_C0DE_0BAD);

fn encode(seq: u64) -> Vec<u8> {
    let filler = if seq.is_multiple_of(BIG_EVERY) {
        2000
    } else {
        32
    };
    let mut payload = Vec::with_capacity(8 + filler);
    payload.extend_from_slice(&seq.to_le_bytes());
    payload.resize(8 + filler, 0xA5);
    payload
}

fn decode(payload: &[u8]) -> Option<u64> {
    payload
        .get(..8)
        .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
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

/// Whether a core component is dead, and whether it is *wedged* — shrugs
/// off restarts until the whole core is rebooted.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ComponentState {
    pub(crate) down: bool,
    wedged: bool,
}

/// The state of the two components a supervisor can restart on their
/// own. Tracked whether or not supervision is on: without a supervisor a
/// killed component simply stays down.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ComponentFlags {
    pub(crate) discovery: ComponentState,
    pub(crate) sink: ComponentState,
}

impl ComponentFlags {
    fn of(&mut self, component: CoreComponent) -> &mut ComponentState {
        match component {
            CoreComponent::Discovery => &mut self.discovery,
            CoreComponent::Sink => &mut self.sink,
        }
    }

    fn any_down(&self) -> bool {
        self.discovery.down || self.sink.down
    }
}

/// The cell's durable side: everything a core crash destroys and a
/// reboot rebuilds from the write-ahead log.
struct Core {
    wal: Arc<Wal>,
    disco_channel: Arc<ReliableChannel>,
    sink_channel: Arc<ReliableChannel>,
    service: Arc<DiscoveryService>,
}

/// A core component's channel over `transport`, journalled into `wal`
/// as `chan` and seeded with what `state` restored. The bus channel
/// retains delivered payloads until the run loop records them (mirroring
/// the SMC bus channel): an acked-but-unrecorded message survives a
/// crash in the log instead of vanishing.
fn core_channel(
    env: &Env,
    wal: &Arc<Wal>,
    chan: u8,
    transport: MemTransport,
    state: &CoreSnapshot,
) -> Arc<ReliableChannel> {
    let journal = if chan == CHAN_BUS {
        WalChannelJournal::with_rx_retention(Arc::clone(wal), chan)
    } else {
        WalChannelJournal::new(Arc::clone(wal), chan)
    };
    let channel = ReliableChannel::with_clock_journaled(
        Arc::new(transport),
        env.reliable.clone(),
        Arc::clone(&env.clock),
        Arc::new(journal),
        state.cursors_for(chan),
        state.pending_rx_for(chan),
    );
    channel.set_tracer(env.tracer.clone());
    channel
}

/// A discovery service beaconing as `cell` on `channel`, re-admitting
/// every member `state` restored. Sibling cells on one radio network
/// beacon distinct ids so agents can filter.
fn discovery_service(
    env: &Env,
    cell: CellId,
    channel: &Arc<ReliableChannel>,
    sink_id: ServiceId,
    state: &CoreSnapshot,
) -> Arc<DiscoveryService> {
    let service = DiscoveryService::with_clock(
        cell,
        Arc::clone(channel),
        env.discovery.clone().with_bus_endpoint(sink_id),
        Arc::clone(&env.clock),
    );
    for info in &state.members {
        service.restore_member(info.clone());
    }
    service
}

/// Puts the recovered outbound queue back into retransmission.
/// `send_recovered` renumbers the journal's retained entries instead of
/// journalling fresh copies, so a second crash resends this queue once
/// more — never twice.
fn requeue_outbound(sink: &ReliableChannel, state: &CoreSnapshot) {
    for (peer, payloads) in state.outbound_for(CHAN_BUS) {
        for (prior_seq, payload) in payloads {
            let _ = sink.send_recovered(peer, payload, prior_seq);
        }
    }
}

impl Core {
    /// Opens the WAL on `backend` and assembles a core from whatever it
    /// recovers. `ids` pins the endpoints of a previous incarnation on a
    /// reboot.
    fn boot(
        env: &Env,
        backend: &Arc<dyn WalBackend>,
        cell: CellId,
        ids: Option<(ServiceId, ServiceId)>,
    ) -> (Core, Recovered) {
        let (wal, recovered) =
            Wal::open(Arc::clone(backend), WalConfig::default()).expect("wal backend opens");
        let wal = Arc::new(wal);
        if let Some(probes) = env.tracer.probes() {
            wal.set_probes(Arc::clone(probes), Arc::clone(&env.clock));
        }
        let (disco_transport, sink_transport) = match ids {
            Some((disco_id, sink_id)) => (
                env.net.endpoint_with_id(disco_id),
                env.net.endpoint_with_id(sink_id),
            ),
            None => (env.net.endpoint(), env.net.endpoint()),
        };
        let state = &recovered.snapshot;
        let disco_channel = core_channel(env, &wal, CHAN_DISCOVERY, disco_transport, state);
        let sink_channel = core_channel(env, &wal, CHAN_BUS, sink_transport, state);
        let service = discovery_service(env, cell, &disco_channel, sink_channel.local_id(), state);
        requeue_outbound(&sink_channel, state);
        (
            Core {
                wal,
                disco_channel,
                sink_channel,
                service,
            },
            recovered,
        )
    }

    /// Cuts a snapshot of the core's durable state into the WAL: both
    /// channels' receive cursors, the sink's pending outbound plus
    /// delivered-but-unrecorded inbound, and the sorted membership table.
    /// Mirrors `SmcCell::checkpoint` (the world is single-threaded, so the
    /// pre-built-snapshot form of `Wal::snapshot` is race-free here).
    fn checkpoint(&self) {
        let mut snap = CoreSnapshot::default();
        for (chan, channel) in [
            (CHAN_BUS, &self.sink_channel),
            (CHAN_DISCOVERY, &self.disco_channel),
        ] {
            for (peer, epoch, expected) in channel.rx_cursors() {
                snap.cursors.push(CursorEntry {
                    chan,
                    peer,
                    epoch,
                    expected,
                });
            }
        }
        for (peer, msgs) in self.sink_channel.outbound_pending() {
            for (seq, payload) in msgs {
                snap.outbound.push(OutboundEntry {
                    chan: CHAN_BUS,
                    peer,
                    seq,
                    payload,
                });
            }
        }
        for (peer, epoch, seq, payload) in self.sink_channel.unconsumed_rx() {
            snap.pending_rx.push(PendingRx {
                chan: CHAN_BUS,
                peer,
                epoch,
                seq,
                payload,
            });
        }
        snap.members = self.service.members();
        snap.members.sort_by_key(|i| i.id);
        let _ = self.wal.snapshot(&snap);
    }
}

/// One cell: core, devices, the sink's membership view, and its planes.
pub(crate) struct Cell {
    /// Position in the world's cell list; names the cell in fault lines.
    idx: usize,
    /// `idx + 1`: the id the discovery service beacons and the member id
    /// on the supervision plane.
    member_id: u64,
    backend: Arc<dyn WalBackend>,
    core: Core,
    disco_id: ServiceId,
    sink_id: ServiceId,
    /// The sink's delivery view: who is a member as far as routing goes.
    members: HashSet<ServiceId>,
    flags: ComponentFlags,
    core_crashed: bool,
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
    /// Builds cell `idx` on `env`'s network: core, `nodes` devices, then
    /// the planes `options` configures. Cell 0 is the cell under test —
    /// scripted faults land on it — so it alone gets the caller's WAL
    /// backend and flight-recorder dump path; a sibling journals into a
    /// private in-memory log.
    pub(crate) fn new(env: &Env, idx: usize, nodes: usize, options: &RunOptions) -> Cell {
        let under_test = idx == 0;
        let member_id = idx as u64 + 1;
        let backend: Arc<dyn WalBackend> = if under_test {
            Arc::clone(&options.backend)
        } else {
            Arc::new(MemBackend::new())
        };
        let (core, recovered) = Core::boot(env, &backend, CellId(member_id), None);
        // Names are wire bytes (join requests carry them and bandwidth-
        // limited links charge for each), so a cell with a sibling on
        // its radio network qualifies its devices' names with its member
        // id and a lone cell does not.
        let peered = options.peered();
        let devices: Vec<Device> = (0..nodes)
            .map(|n| {
                let channel = env.device_channel(None);
                let info =
                    ServiceInfo::new(ServiceId::NIL, "harness.device").with_name(if peered {
                        format!("chaos device {member_id}.{n}")
                    } else {
                        format!("chaos device {n}")
                    });
                Device {
                    id: channel.local_id(),
                    agent: Self::agent(env, member_id, &info, &channel),
                    info,
                    channel,
                    next_seq: 1,
                    next_publish: 0,
                    crashed: false,
                    quenched: false,
                    baseline: LinkConfig::ideal(),
                    domain: 0,
                }
            })
            .collect();
        // Planes open their endpoints after the devices', in this order.
        let sup = options
            .supervision
            .clone()
            .map(|opts| SupervisionPlane::new(env, opts, member_id));
        if let Some(sup) = &sup {
            for dev in &devices {
                sup.watch(&dev.channel);
            }
        }
        let telemetry = options
            .telemetry
            .as_ref()
            .map(|opts| CellTelemetry::new(env, opts));
        Cell {
            idx,
            member_id,
            backend,
            disco_id: core.disco_channel.local_id(),
            sink_id: core.sink_channel.local_id(),
            core,
            members: recovered.snapshot.members.iter().map(|i| i.id).collect(),
            flags: ComponentFlags::default(),
            core_crashed: false,
            device_ids: devices.iter().map(|d| d.id).collect(),
            devices,
            core_recoveries: 0,
            saw_core_crash: false,
            saw_escalation: false,
            health: options.health.clone().map(|mut opts| {
                opts.dump_path = opts.dump_path.filter(|_| under_test);
                HealthRuntime::new(opts)
            }),
            sup,
            telemetry,
        }
    }

    /// A member agent for a device of cell `member_id`. Sibling cells
    /// share one radio network; the filter keeps each device joining its
    /// own cell's beacons.
    fn agent(
        env: &Env,
        member_id: u64,
        info: &ServiceInfo,
        channel: &Arc<ReliableChannel>,
    ) -> Arc<MemberAgent> {
        MemberAgent::with_clock(
            info.clone(),
            Arc::clone(channel),
            AgentConfig {
                cell_filter: Some(CellId(member_id)),
                ..AgentConfig::default()
            },
            Arc::clone(&env.clock),
        )
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

    pub(crate) fn view(&self) -> CellView {
        CellView {
            flags: self.flags,
            sup_alive: self.sup_alive(),
            core_crashed: self.core_crashed,
        }
    }

    // ------------------------------------------------------------------
    // Scripted faults.
    // ------------------------------------------------------------------

    /// A device-indexed fault on node `node` of this cell.
    pub(crate) fn apply_device_fault(&mut self, env: &mut Env, node: usize, act: &Act) {
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
                dev.agent = Self::agent(env, self.member_id, &dev.info, &dev.channel);
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
    fn kill(&mut self, env: &mut Env, component: CoreComponent, wedged: bool) {
        match component {
            CoreComponent::Discovery => {
                env.retire(&self.core.disco_channel);
                self.core.service.shutdown();
            }
            CoreComponent::Sink => {
                env.retire(&self.core.sink_channel);
                self.core.sink_channel.close();
            }
        }
        *self.flags.of(component) = ComponentState { down: true, wedged };
    }

    /// The scripted `KillComponent`: one core component silently dies.
    pub(crate) fn kill_component(&mut self, env: &mut Env, component: CoreComponent, wedged: bool) {
        if self.core_crashed || self.flags.of(component).down {
            return;
        }
        env.fault(format!("cell{} {} killed", self.idx, component.name()));
        self.kill(env, component, wedged);
    }

    /// Tears down whatever of the core is still up. The discovery table,
    /// sink cursors and pending queues are gone until a reboot reads them
    /// back from the log.
    fn stop_core(&mut self, env: &mut Env) {
        for component in [CoreComponent::Sink, CoreComponent::Discovery] {
            if !self.flags.of(component).down {
                self.kill(env, component, false);
            }
        }
        self.core_crashed = true;
        self.flags = ComponentFlags::default();
    }

    /// The scripted `CoreCrash`.
    pub(crate) fn crash_core(&mut self, env: &mut Env) {
        if self.core_crashed {
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
        if !self.core_crashed {
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
        match target {
            CorruptTarget::MembershipView { node } => {
                if let Some(&id) = self.device_ids.get(node) {
                    if self.members.remove(&id) {
                        env.fault(format!("corrupt: cell{idx} sink view dropped {id}"));
                    }
                }
            }
            CorruptTarget::GhostMember => {
                if self.members.insert(GHOST_MEMBER) {
                    env.fault(format!(
                        "corrupt: ghost {GHOST_MEMBER} in cell{idx} sink view"
                    ));
                }
            }
            CorruptTarget::DiscoveryMember { node } => {
                if let Some(&id) = self.device_ids.get(node) {
                    if !self.core_crashed
                        && !self.flags.discovery.down
                        && self.core.service.forget_member(id)
                    {
                        env.fault(format!("corrupt: cell{idx} discovery forgot {id}"));
                    }
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

    /// Channels: process frames, ack, retransmit. A killed component's
    /// channel is closed — don't step the corpse. The supervision
    /// channel always steps: the plane it carries must outlive both the
    /// supervisor and the core.
    pub(crate) fn step_channels(&self, telemetry_due: bool) {
        if !self.core_crashed {
            if !self.flags.discovery.down {
                self.core.disco_channel.step();
            }
            if !self.flags.sink.down {
                self.core.sink_channel.step();
            }
        }
        if let Some(peer) = self.sup.as_ref().and_then(|s| s.peer.as_ref()) {
            peer.channel.step();
        }
        if let Some(tel) = self.telemetry.as_ref().filter(|_| telemetry_due) {
            tel.channel.step();
        }
        for dev in &self.devices {
            if !dev.crashed {
                dev.channel.step();
            }
        }
    }

    /// Protocol logic on top of the channels.
    pub(crate) fn step_protocol(&self) {
        if !self.core_crashed && !self.flags.discovery.down {
            self.core.service.step();
        }
        for dev in &self.devices {
            if !dev.crashed {
                dev.agent.step();
            }
        }
    }

    /// Membership transitions into the oracle (and the sink's member
    /// filter). Joins and purges are journalled, mirroring the SMC
    /// core's own event path.
    pub(crate) fn drain_membership(&mut self, env: &mut Env) {
        while let Ok(ev) = self.core.service.events().try_recv() {
            match ev {
                MembershipEvent::Joined(info) => {
                    let _ = self
                        .core
                        .wal
                        .append(&WalRecord::MemberJoined { info: info.clone() });
                    self.members.insert(info.id);
                    env.oracle.record_joined(env.now, info.id);
                }
                MembershipEvent::Purged(id, _reason) => {
                    let _ = self
                        .core
                        .wal
                        .append(&WalRecord::MemberPurged { member: id });
                    self.members.remove(&id);
                    env.oracle.record_purged(env.now, id);
                }
                MembershipEvent::Suspected(id) => env.fault(format!("suspected {id}")),
                MembershipEvent::Recovered(id) => env.fault(format!("recovered {id}")),
            }
        }
    }

    /// One health-sampling window's worth of metrics, read straight off
    /// the live objects (the run registry's collectors capture the
    /// *final* core incarnation, so the in-run monitor samples the
    /// current one directly).
    fn health_samples(&self, env: &Env) -> Vec<Sample> {
        const RETRANSMITS: &str = "smc_channel_retransmits_total";
        let mut out = Vec::new();
        for (n, dev) in self.devices.iter().enumerate() {
            let label = format!("device{n}");
            let retransmits = dev.channel.stats().retransmits;
            out.push(Sample::counter(
                RETRANSMITS,
                "",
                &[("channel", &label)],
                retransmits,
            ));
            out.push(Sample::gauge(
                "smc_proxy_queue_depth",
                "",
                &[("queue", &label)],
                dev.channel.pending(self.sink_id) as u64,
            ));
        }
        if !self.core_crashed {
            let core = &self.core;
            for (label, channel) in [
                ("sink", &core.sink_channel),
                ("discovery", &core.disco_channel),
            ] {
                let retransmits = channel.stats().retransmits;
                out.push(Sample::counter(
                    RETRANSMITS,
                    "",
                    &[("channel", label)],
                    retransmits,
                ));
            }
            let d = core.service.stats();
            let records = core.wal.metrics().records_appended;
            for (name, value) in [
                ("smc_discovery_joins_total", d.joins),
                ("smc_discovery_purges_total", d.purges),
                ("smc_wal_records_appended_total", records),
            ] {
                out.push(Sample::counter(name, "", &[], value));
            }
        }
        let published: u64 = self
            .device_ids
            .iter()
            .map(|&id| env.oracle.published(id))
            .sum();
        out.push(Sample::counter(
            "smc_harness_published_total",
            "",
            &[],
            published,
        ));
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
        let samples = self.health_samples(env);
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
            if !rt.quench {
                continue;
            }
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
                // The actuator consults authorisation before silencing
                // anyone: telemetry observers carry a deny on
                // `quench:<raw>` and stay audible.
                if enable
                    && rt.policy.check(
                        "*",
                        ActionClass::Command,
                        &format!("quench:{}", target.raw()),
                    ) == Decision::Deny
                {
                    env.fault(format!("quench-exempt {target}"));
                    continue;
                }
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

    /// One anti-entropy pass: diffs the sink's membership view and the
    /// discovery table against durable truth (the folded write-ahead
    /// log) and repairs both directions, whether or not anything ever
    /// failed. `by` names a sibling that ordered the pass over the wire.
    /// A crashed core has nothing to reconcile.
    fn reconcile(&mut self, env: &mut Env, sup: &mut SupervisionPlane, by: Option<u64>) {
        if self.core_crashed {
            return;
        }
        sup.book.reconciles += 1;
        sup.last_reconcile_at = env.now;
        let fixes = self.reconcile_pass();
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

    /// The diff behind [`Cell::reconcile`]. Returns human-readable
    /// descriptions of every divergence repaired, in deterministic order.
    fn reconcile_pass(&mut self) -> Vec<String> {
        let Ok(truth) = self.core.wal.recover_state() else {
            return Vec::new();
        };
        let mut fixes = Vec::new();
        let mut truth_sorted = truth.members;
        truth_sorted.sort_by_key(|i| i.id);
        let truth_ids: HashSet<ServiceId> = truth_sorted.iter().map(|i| i.id).collect();
        let strays = |live: &HashSet<ServiceId>| {
            let mut strays: Vec<ServiceId> = live.difference(&truth_ids).copied().collect();
            strays.sort();
            strays
        };
        // Sink view: re-admit members durable truth still has...
        for info in &truth_sorted {
            if self.members.insert(info.id) {
                fixes.push(format!("sink view re-admitted {}", info.id));
            }
        }
        // ...and drop ids truth never admitted (or has purged).
        for ghost in strays(&self.members) {
            self.members.remove(&ghost);
            fixes.push(format!("sink view dropped ghost {ghost}"));
        }
        // Discovery table, when it's alive: same diff, both directions.
        if !self.flags.discovery.down {
            let service = &self.core.service;
            let live_ids: HashSet<ServiceId> = service.members().iter().map(|i| i.id).collect();
            for info in &truth_sorted {
                if !live_ids.contains(&info.id) {
                    service.restore_member(info.clone());
                    fixes.push(format!("discovery re-admitted {}", info.id));
                }
            }
            for id in strays(&live_ids) {
                if service.forget_member(id) {
                    fixes.push(format!("discovery dropped ghost {id}"));
                }
            }
        }
        fixes
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
            sup.rt.next_reconcile = env.now + sup.rt.reconcile_micros;
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
                    peer.start_remote(&sup.opts, now + sup.rt.reconcile_micros);
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
            remote.next_reconcile = now + sup.rt.reconcile_micros;
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
        if !sup.rt.alive || self.core_crashed {
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
        let samples = component_samples(&self.flags, true);
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
                let state = *self.flags.of(which);
                if !state.down {
                    // Already back (detector hysteresis lags the repair).
                    return;
                }
                if state.wedged {
                    format!("{component}: failed (wedged)")
                } else {
                    self.restart_component(env, which);
                    format!("{component}: done")
                }
            }
            (None, "core") => {
                if !self.core_crashed {
                    self.stop_core(env);
                }
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
    /// truth — the supervisor's `restart` repair.
    fn restart_component(&mut self, env: &mut Env, component: CoreComponent) {
        let state = self.core.wal.recover_state().unwrap_or_default();
        let core = &mut self.core;
        match component {
            // The sink and its membership view are untouched.
            CoreComponent::Discovery => {
                let transport = env.net.endpoint_with_id(self.disco_id);
                core.disco_channel =
                    core_channel(env, &core.wal, CHAN_DISCOVERY, transport, &state);
                core.service = discovery_service(
                    env,
                    CellId(self.member_id),
                    &core.disco_channel,
                    self.sink_id,
                    &state,
                );
            }
            // Recovered receive cursors keep dedup across the outage,
            // the recovered outbound queue re-enters retransmission, and
            // events the kill caught between ack and recording are
            // re-processed from the journal's retained copies.
            CoreComponent::Sink => {
                let transport = env.net.endpoint_with_id(self.sink_id);
                core.sink_channel = core_channel(env, &core.wal, CHAN_BUS, transport, &state);
                requeue_outbound(&core.sink_channel, &state);
                self.replay_pending_rx(env, &state);
            }
        }
        self.flags.of(component).down = false;
    }

    /// Rebuilds the core from its write-ahead log (the escalation repair
    /// and the scripted `CoreRestart`).
    fn reboot_core(&mut self, env: &mut Env) {
        let (core, recovered) = Core::boot(
            env,
            &self.backend,
            CellId(self.member_id),
            Some((self.disco_id, self.sink_id)),
        );
        self.core = core;
        self.members = recovered.snapshot.members.iter().map(|i| i.id).collect();
        self.core_crashed = false;
        self.core_recoveries += 1;
        env.recovery_micros_total += recovered.recovery_micros;
        self.replay_pending_rx(env, &recovered.snapshot);
        self.flags = ComponentFlags::default();
    }

    /// Re-processes events an outage caught between ack and recording:
    /// their senders saw them acknowledged and will never retransmit, so
    /// the log held the only copy. Mirrors `SmcCell::start_durable`.
    fn replay_pending_rx(&mut self, env: &mut Env, state: &CoreSnapshot) {
        for (peer, _epoch, seq, payload) in state.pending_rx_for(CHAN_BUS) {
            if let Some(published) = decode(&payload) {
                self.record_delivery(env, peer, published);
            }
            self.core.sink_channel.consumed(peer, seq);
        }
    }

    /// The sink's routing decision for one event, mirroring the SMC's
    /// rule that purged members' traffic is no longer served. Returns
    /// whether the event was delivered.
    fn record_delivery(&self, env: &mut Env, from: ServiceId, published: u64) -> bool {
        let trace = TraceId::for_event(from, published);
        let member = self.members.contains(&from);
        if member {
            env.tracer.record(trace, Hop::Delivered);
            env.oracle.record_delivery(env.now, from, published);
        } else {
            let reason = "purge-filter";
            env.tracer.record(trace, Hop::Dropped { reason });
            env.oracle.record_filtered(env.now, from, published);
        }
        member
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
        if self.core_crashed || self.flags.any_down() {
            return;
        }
        match self.sup.as_mut() {
            Some(sup) if env.now.saturating_sub(sup.last_reconcile_at) > CHECKPOINT_MICROS => {
                sup.book.checkpoints_deferred += 1;
                env.fault(format!(
                    "cell{} checkpoint deferred (no recent reconcile)",
                    self.idx
                ));
            }
            _ => self.core.checkpoint(),
        }
    }

    /// Member devices publish on schedule. A crashed core does not stop
    /// them: their channels queue and retransmit into the outage, which
    /// is exactly the traffic the recovered cursors must dedup. A
    /// *quenched* device, though, holds its publishes until the
    /// obligation wakes it.
    pub(crate) fn publish(&mut self, env: &mut Env, interval: u64) {
        let now = env.now;
        for dev in &mut self.devices {
            if dev.crashed || dev.quenched || !dev.agent.is_member() || now < dev.next_publish {
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
            let _ = dev.channel.send_traced(self.sink_id, encode(seq), trace);
        }
    }

    /// The sink accepts deliveries. A killed sink accepts nothing — its
    /// channel is closed and senders retransmit into the outage until a
    /// supervisor brings it back.
    pub(crate) fn accept_deliveries(&mut self, env: &mut Env) {
        while let Ok(incoming) = self.core.sink_channel.recv(Some(Duration::ZERO)) {
            if let Incoming::Reliable { from, seq, payload } = incoming {
                if let Some(published) = decode(&payload) {
                    if self.record_delivery(env, from, published) {
                        if let Some(tel) = self.telemetry.as_mut() {
                            tel.on_delivery(from, published, env.now);
                        }
                    }
                }
                // Recording *is* the harness's routing step; release the
                // journal's retained copy so checkpoints stop carrying it.
                self.core.sink_channel.consumed(from, seq);
            }
        }
    }

    /// The cell's turn on the telemetry plane: export to `observer` if
    /// the cadence says so.
    pub(crate) fn export_telemetry(&mut self, env: &Env, observer: ServiceId, total: u64) {
        let sup_alive = self.sup_alive();
        if let Some(tel) = self.telemetry.as_mut() {
            if tel.export_due(env.now, total) {
                tel.export(
                    env.now,
                    self.member_id,
                    observer,
                    self.members.len(),
                    sup_alive,
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Run end.
    // ------------------------------------------------------------------

    /// Retransmissions of the data-plane channels alive at run end.
    pub(crate) fn live_retransmits(&self) -> u64 {
        let core = &self.core;
        core.sink_channel.stats().retransmits
            + core.disco_channel.stats().retransmits
            + self
                .devices
                .iter()
                .map(|d| d.channel.stats().retransmits)
                .sum::<u64>()
    }

    /// Registers collectors over the final core incarnation: the WAL's
    /// and discovery's own series plus three of the sink channel's.
    pub(crate) fn register_core_with(&self, registry: &Registry) {
        const SINK_SERIES: [&str; 3] = [
            "smc_channel_msgs_delivered_total",
            "smc_channel_retransmits_total",
            "smc_channel_duplicates_suppressed_total",
        ];
        self.core.wal.register_with(registry);
        self.core.service.register_with(registry);
        registry.register_weak(&self.core.sink_channel, |channel, out| {
            let mut all = Vec::new();
            channel.stats().samples(&[("channel", "sink")], &mut all);
            out.extend(
                all.into_iter()
                    .filter(|s| SINK_SERIES.contains(&s.name.as_str())),
            );
        });
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
