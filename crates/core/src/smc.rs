//! The self-managed cell: bus + discovery + policy + proxies, assembled.
//!
//! [`SmcCell`] is the paper's Figure 1 in one object: the event bus at the
//! heart, the discovery service managing membership, the policy service
//! governing behaviour, and per-member proxies masking device
//! heterogeneity. Two handlers do the wiring, each on the thread that has
//! the work:
//!
//! * the **membership handler** is handed each of discovery's membership
//!   changes, in the order its table changed, on the discovery thread
//!   that made it; it creates/destroys proxies (the bootstrap mechanism),
//!   publishes the well-known `New Member` / `Purge Member` events, and
//!   pushes policy deployments to newcomers — a newcomer's before it is
//!   told it was admitted;
//! * the **bus channel's receive thread** serves the bus endpoint, as the
//!   channel's handler: publishes, subscriptions, advertisements, raw
//!   device frames — enforcing authorisation policies and feeding every
//!   accepted event to the policy service's obligation rules. An event
//!   runs from the socket to the subscribers' outbound queues on the
//!   thread that received it; there is no queue in between, so a slow
//!   consumer is bounded by its senders' windows.
//!
//! Time is kept by one tick: discovery's beacon and lease timers, then a
//! turn of the detect → repair loop. A threaded cell runs it on its third
//! thread, its timer, which outlives both endpoints and every restart of
//! them. A cell built with [`SmcCell::with_clock`]
//! has no thread at all: its owner's [`SmcCell::step`] steps the channels
//! and runs the same tick, which is how the chaos harness replays a
//! durable cell bit for bit. A durable cell of either kind manages
//! itself: its loop ([`SmcCell::supervision`] reports it) restarts a dead
//! component through the recovery a boot runs, reconciles its views with
//! its log, and hands its owner the one repair it cannot make, a reboot.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use parking_lot::Mutex;

use smc_discovery::{DiscoveryConfig, DiscoveryService, MembershipEvent, Ticker};
use smc_match::EngineKind;
use smc_policy::{
    peer_repair_policies, supervision_policies, ActionClass, ActionSpec, Decision, FiredAction,
    PolicyService,
};
use smc_telemetry::{Hop, Registry, Tracer};
use smc_transport::{Incoming, ReliableChannel, ReliableConfig, Transport};
use smc_types::codec::{to_bytes, to_shared};
use smc_types::{
    new_member_event, purge_member_event, system_clock, AttributeSet, CellId, CoreSnapshot,
    CursorEntry, Error, Event, Filter, OutboundEntry, Packet, Result, ServiceId, ServiceInfo,
    SharedClock, SnapshotCell, Subscription, SubscriptionId, TraceId, WalRecord,
};
use smc_wal::{digest, Wal, WalBackend, WalChannelJournal, WalConfig, CHAN_BUS, CHAN_DISCOVERY};

use crate::bootstrap::ProxyFactory;
use crate::bus::{EventBus, EventSink};
use crate::metrics::{BusMetrics, MetricsSnapshot};
use crate::proxy::Proxy;
use crate::quench::QuenchManager;

mod manage;

/// Maximum depth of policy-generated event cascades (a policy publishing
/// an event that triggers a policy that publishes…).
const MAX_POLICY_DEPTH: u32 = 4;

/// What one [`SmcCell::reconcile`] anti-entropy pass found and did.
///
/// An empty report means live state already matched durable truth — the
/// convergence invariant the supervision tests assert.
#[derive(Debug, Clone, Default)]
pub struct ReconcileReport {
    /// One line per divergence observed (repaired or not).
    pub divergences: Vec<String>,
    /// How many of the divergences were repaired.
    pub repaired: usize,
}

impl ReconcileReport {
    /// `true` if the pass found nothing to repair.
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty()
    }

    fn repair(&mut self, what: String) {
        self.divergences.push(what);
        self.repaired += 1;
    }
}

/// Cell assembly parameters.
#[derive(Debug, Clone)]
pub struct SmcConfig {
    /// The cell identity announced in beacons.
    pub cell: CellId,
    /// Which matching engine the bus runs.
    pub engine: EngineKind,
    /// Discovery timings and admission control.
    pub discovery: DiscoveryConfig,
    /// Reliability parameters for the bus endpoint.
    pub reliable: ReliableConfig,
    /// What to do when no authorisation policy applies: `true` = permit
    /// (the default — policies then only restrict), `false` = deny.
    pub default_permit: bool,
    /// The clock used to timestamp cell-originated events (inject a
    /// [`smc_types::ManualClock`] for reproducible timestamps).
    pub clock: SharedClock,
    /// Hop tracer wired into the bus, the channels and dispatch.
    /// Disabled (free) by default.
    pub tracer: Tracer,
}

impl Default for SmcConfig {
    fn default() -> Self {
        SmcConfig {
            cell: CellId(1),
            engine: EngineKind::FastForward,
            discovery: DiscoveryConfig::default(),
            reliable: ReliableConfig::default(),
            default_permit: true,
            clock: system_clock(),
            tracer: Tracer::disabled(),
        }
    }
}

impl SmcConfig {
    /// Fast timings for tests.
    pub fn fast() -> Self {
        SmcConfig {
            discovery: DiscoveryConfig::fast(),
            reliable: ReliableConfig {
                initial_rto: Duration::from_millis(30),
                poll_interval: Duration::from_millis(10),
                ..ReliableConfig::default()
            },
            ..SmcConfig::default()
        }
    }
}

/// A running self-managed cell.
pub struct SmcCell {
    config: SmcConfig,
    /// Whether the channels and the tick are driven by [`SmcCell::step`]
    /// ([`SmcCell::with_clock`]) rather than by receive threads and the
    /// cell's timer.
    stepped: bool,
    /// The bus endpoint's id, which a restarted bus channel keeps.
    bus_id: ServiceId,
    bus: Arc<EventBus>,
    policy: Arc<PolicyService>,
    factory: Arc<ProxyFactory>,
    quench: Arc<QuenchManager>,
    /// The bus channel, the discovery channel and the discovery service:
    /// what a component restart replaces. The bus channel's handler holds
    /// its own channel, so routing a message loads none of them.
    channel: SnapshotCell<ReliableChannel>,
    discovery_channel: SnapshotCell<ReliableChannel>,
    discovery: SnapshotCell<DiscoveryService>,
    wal: Option<Arc<Wal>>,
    proxies: Arc<Mutex<HashMap<ServiceId, Arc<Proxy>>>>,
    /// Shared, not owned: dispatch looks the sender up for every packet
    /// and must not deep-copy its strings and roles each time.
    members: Arc<Mutex<HashMap<ServiceId, Arc<ServiceInfo>>>>,
    next_local_seq: AtomicU64,
    /// This cell, for what a repair rebuilds (handlers hold it weakly).
    me: Weak<SmcCell>,
    /// The detect → repair loop ([`manage`]).
    supervision: Mutex<manage::Loop>,
    /// Held by a reconcile pass, and by a membership handler or a route
    /// change while it journals and rebuilds, so that a pass never
    /// "repairs" a change in flight. A handler that has not returned
    /// holds off the pass through discovery
    /// ([`DiscoveryService::settled_members`]).
    views: Mutex<()>,
    /// A threaded cell's timer, and whether it is to stop.
    timer: Ticker,
    stopped: AtomicBool,
}

impl std::fmt::Debug for SmcCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SmcCell")
            .field("cell", &self.config.cell)
            .field("engine", &self.bus.engine_kind())
            .field("members", &self.members.lock().len())
            .finish_non_exhaustive()
    }
}

/// A channel for one of the cell's endpoints: threaded or step-driven,
/// and — given the log, the channel's number in it and the state it
/// recovered — journalled and seeded from that state.
fn open_channel(
    config: &SmcConfig,
    stepped: bool,
    transport: Arc<dyn Transport>,
    journal: Option<(&Arc<Wal>, u8, &CoreSnapshot)>,
) -> Arc<ReliableChannel> {
    let channel = match journal {
        None => ReliableChannel::new(transport, config.reliable.clone()),
        Some((wal, chan, snap)) => {
            // The bus journal retains rx payloads: once the channel acks
            // an event the device will never retransmit it, so the event
            // must live in the log until it is routed. Discovery traffic
            // is lease-protocol chatter a peer's next refresh regenerates,
            // so a bare cursor suffices there.
            let (journal, pending) = if chan == CHAN_BUS {
                let journal = WalChannelJournal::with_rx_retention(Arc::clone(wal), chan);
                (journal, snap.pending_rx_for(chan))
            } else {
                (WalChannelJournal::new(Arc::clone(wal), chan), Vec::new())
            };
            let (journal, cursors) = (Arc::new(journal), snap.cursors_for(chan));
            let reliable = config.reliable.clone();
            if stepped {
                let clock = Arc::clone(&config.clock);
                ReliableChannel::with_clock_journaled(
                    transport, reliable, clock, journal, cursors, pending,
                )
            } else {
                ReliableChannel::new_journaled(transport, reliable, journal, cursors, pending)
            }
        }
    };
    channel.set_tracer(config.tracer.clone());
    channel
}

/// Tells `to` that the request `about` was refused, and why.
fn refuse(channel: &ReliableChannel, to: ServiceId, about: impl ToString, message: impl ToString) {
    let refusal = Packet::Error {
        about: about.to_string(),
        message: message.to_string(),
    };
    let _ = channel.send(to, to_shared(&refusal));
}

impl SmcCell {
    /// Starts a cell: `bus_transport` serves the event bus endpoint,
    /// `discovery_transport` the discovery endpoint (two sockets, as in
    /// the prototype).
    pub fn start(
        bus_transport: Arc<dyn Transport>,
        discovery_transport: Arc<dyn Transport>,
        config: SmcConfig,
    ) -> Arc<Self> {
        let cell = SmcCell::assemble(config, false, bus_transport, discovery_transport, None);
        cell.serve(&cell.bus_channel());
        cell.start_timer();
        cell
    }

    /// Starts a cell whose delivery state survives a crash: every durable
    /// state transition (receive cursors, outbound proxy queues,
    /// membership, subscriptions) is journalled to `backend` *before* it
    /// takes effect, and `Wal::open`'s recovery result seeds the new
    /// incarnation — restored members get proxies, restored subscriptions
    /// keep their ids, restored cursors keep suppressing duplicates, and
    /// unacknowledged downlink messages are re-queued in order.
    ///
    /// Reuse the same transport identities as the crashed incarnation so
    /// devices keep talking to the endpoint they already know; the
    /// channel's fresh session epoch tells them it restarted.
    ///
    /// # Errors
    ///
    /// Propagates backend open/write failures.
    pub fn start_durable(
        bus_transport: Arc<dyn Transport>,
        discovery_transport: Arc<dyn Transport>,
        config: SmcConfig,
        backend: Arc<dyn WalBackend>,
    ) -> Result<Arc<Self>> {
        SmcCell::boot(bus_transport, discovery_transport, config, backend, false)
    }

    /// The **step-driven** [`SmcCell::start_durable`]: the same durable
    /// cell, recovered the same way, with no thread of its own. Its
    /// channels and discovery service are timed by `config.clock`, and
    /// nothing happens until [`SmcCell::step`] is called — so a
    /// single-threaded owner with a [`smc_types::ManualClock`] and a
    /// seeded network replays a whole cell bit for bit.
    ///
    /// # Errors
    ///
    /// Propagates backend open/write failures.
    pub fn with_clock(
        bus_transport: Arc<dyn Transport>,
        discovery_transport: Arc<dyn Transport>,
        config: SmcConfig,
        backend: Arc<dyn WalBackend>,
    ) -> Result<Arc<Self>> {
        SmcCell::boot(bus_transport, discovery_transport, config, backend, true)
    }

    fn boot(
        bus_transport: Arc<dyn Transport>,
        discovery_transport: Arc<dyn Transport>,
        config: SmcConfig,
        backend: Arc<dyn WalBackend>,
        stepped: bool,
    ) -> Result<Arc<Self>> {
        let (wal, recovered) = Wal::open(backend, WalConfig::default())?;
        let snap = recovered.snapshot;
        let durable = Some((Arc::new(wal), &snap));
        let cell = SmcCell::assemble(config, stepped, bus_transport, discovery_transport, durable);
        let recovery_micros = &cell.bus.metrics_ref().wal_recovery_micros;
        recovery_micros.store(recovered.recovery_micros, Ordering::Relaxed);
        let channel = cell.bus_channel();
        cell.recover(&snap, Some(&cell.discovery()), Some(&channel));
        // Only now the live traffic: whatever reached the channel since it
        // was built waited in its inbox and goes first, in order.
        cell.serve(&channel);
        if !stepped {
            cell.start_timer();
        }
        Ok(cell)
    }

    /// The cell on its two endpoints; a durable one (`durable`: the log
    /// and the state it recovered) journals both channels and runs its
    /// own detect → repair loop under the built-in supervision and
    /// peer-repair obligations.
    fn assemble(
        config: SmcConfig,
        stepped: bool,
        bus_transport: Arc<dyn Transport>,
        discovery_transport: Arc<dyn Transport>,
        durable: Option<(Arc<Wal>, &CoreSnapshot)>,
    ) -> Arc<Self> {
        let bus = Arc::new(EventBus::new(config.engine));
        bus.set_tracer(config.tracer.clone());
        let policy = PolicyService::new();
        if durable.is_some() {
            for p in supervision_policies()
                .into_iter()
                .chain(peer_repair_policies())
            {
                policy.add(p).expect("built-in policies are valid");
            }
        }
        let cell = Arc::new_cyclic(|me: &Weak<SmcCell>| {
            let journal = |chan| durable.as_ref().map(|(wal, snap)| (wal, chan, *snap));
            let channel = open_channel(&config, stepped, bus_transport, journal(CHAN_BUS));
            let discovery_channel = open_channel(
                &config,
                stepped,
                discovery_transport,
                journal(CHAN_DISCOVERY),
            );
            let bus_id = channel.local_id();
            let discovery = SmcCell::open_discovery(&config, stepped, bus_id, &discovery_channel);
            SmcCell {
                stepped,
                bus_id,
                bus,
                policy: Arc::new(policy),
                factory: Arc::new(ProxyFactory::new()),
                quench: Arc::new(QuenchManager::new()),
                channel: SnapshotCell::new(channel),
                discovery_channel: SnapshotCell::new(discovery_channel),
                discovery: SnapshotCell::new(discovery),
                supervision: Mutex::new(manage::Loop::new(durable.is_some())),
                wal: durable.as_ref().map(|(wal, _)| Arc::clone(wal)),
                proxies: Arc::new(Mutex::new(HashMap::new())),
                members: Arc::new(Mutex::new(HashMap::new())),
                next_local_seq: AtomicU64::new(1),
                me: me.clone(),
                views: Mutex::new(()),
                timer: Ticker::default(),
                stopped: AtomicBool::new(false),
                config,
            }
        });
        cell.claim(&cell.discovery());
        cell
    }

    /// A discovery service for this cell on `channel`, timed by the
    /// cell's tick; a threaded cell's answers on the channel's receive
    /// thread.
    fn open_discovery(
        config: &SmcConfig,
        stepped: bool,
        bus_id: ServiceId,
        channel: &Arc<ReliableChannel>,
    ) -> Arc<DiscoveryService> {
        let discovery_config = config.discovery.clone().with_bus_endpoint(bus_id);
        let (channel, clock) = (Arc::clone(channel), Arc::clone(&config.clock));
        let service = DiscoveryService::with_clock(config.cell, channel, discovery_config, clock);
        if !stepped {
            service.serve();
        }
        service
    }

    /// Starts a threaded cell's timer: a [`SmcCell::tick`] every
    /// discovery tick interval, until [`SmcCell::shutdown`] or the last
    /// handle goes. It holds the cell weakly, and loads discovery afresh
    /// on every tick, so it outlives both endpoints and their restarts.
    fn start_timer(self: &Arc<Self>) {
        let (ticking, poll) = (Arc::downgrade(self), self.config.discovery.tick_interval());
        let name = format!("smc-timer-{}", self.config.cell);
        self.timer.start(name, poll, move || {
            let cell = ticking.upgrade();
            let cell = cell.filter(|c| !c.stopped.load(Ordering::SeqCst));
            cell.map(|c| c.tick()).is_some()
        });
    }

    /// Takes every membership change `discovery` makes, in the order its
    /// table made them; a join's before discovery answers it, so a device
    /// that hears it is a member finds its proxy in place. Held weakly,
    /// like the bus handler (`serve`).
    fn claim(self: &Arc<Self>, discovery: &DiscoveryService) {
        let membership = Arc::downgrade(self);
        discovery.set_membership_handler(Box::new(move |change| {
            let Some(cell) = membership.upgrade() else {
                return;
            };
            match change {
                MembershipEvent::Joined(info) => cell.on_member_joined(info),
                MembershipEvent::Purged(id, reason) => {
                    // Publish Purge Member *before* tearing down, so
                    // other subscribers (and policies) see it; the
                    // doomed proxy is skipped by its own destruction
                    // right after.
                    let _ = cell.publish_local(purge_member_event(id, reason));
                    cell.destroy_member(id);
                }
                // Transient: masked by design; proxies keep queueing.
                MembershipEvent::Suspected(_) | MembershipEvent::Recovered(_) => {}
            }
        }));
    }

    /// Starts serving the bus endpoint on `channel`: every message it
    /// delivers is dispatched by the thread that received it, and
    /// answered on `channel`. The handler holds the cell weakly, upgraded
    /// for one message at a time, so dropping the last external handle
    /// stops the cell (via its `Drop`) — even when that handle is the
    /// handler's own upgrade. Its hold on `channel` ends when the channel
    /// closes and drops the handler.
    fn serve(self: &Arc<Self>, channel: &Arc<ReliableChannel>) {
        let serving = Arc::downgrade(self);
        let answering = Arc::clone(channel);
        channel.set_handler(Box::new(move |incoming| {
            if let Some(cell) = serving.upgrade() {
                cell.dispatch(&answering, incoming);
            }
        }));
    }

    /// Brings what a boot or a component restart rebuilt in line with
    /// `snap`, the log's durable state — one recovery path for all three:
    ///
    /// * `discovery` re-admits the members silently (no `Joined` event —
    ///   they never left, the component did);
    /// * `bus` gets the members and their proxies, the proxies'
    ///   subscriptions under their original ids, quench state, the
    ///   outbound queue re-sent in order, and the events a crash caught
    ///   between ack and routing routed again.
    fn recover(
        &self,
        snap: &CoreSnapshot,
        discovery: Option<&DiscoveryService>,
        bus: Option<&Arc<ReliableChannel>>,
    ) {
        if let Some(discovery) = discovery {
            for info in &snap.members {
                discovery.restore_member(info.clone());
            }
        }
        let Some(channel) = bus else {
            return;
        };
        for info in &snap.members {
            self.members.lock().insert(info.id, Arc::new(info.clone()));
            self.ensure_proxy(info, channel);
        }
        // In-process sinks cannot be serialised, so local subscriptions
        // are the owner's job to re-register.
        for sub in &snap.subscriptions {
            if let Some(proxy) = self.proxy(sub.subscriber) {
                let sink = Arc::clone(&proxy) as Arc<dyn EventSink>;
                if self.bus.restore_subscription(sub.clone(), sink).is_ok() {
                    proxy.track_subscription(sub.id, sub.filter.clone());
                }
            }
        }
        self.recompute_quench();
        // The fresh epoch renumbers the queue on the wire, and the
        // restored receivers dedup by epoch so nothing double-delivers.
        // `send_recovered` renumbers the journal's retained entries to
        // the fresh sequence numbers instead of journalling a second
        // copy, so a crash during (or after) recovery resends the queue
        // exactly once more — never twice.
        for (peer, msgs) in snap.outbound_for(CHAN_BUS) {
            for (prior_seq, payload) in msgs {
                let _ = channel.send_recovered(peer, payload, prior_seq);
            }
        }
        // Their senders saw these acknowledged and will never retransmit,
        // so the log is the only copy. Routing goes through the normal
        // dispatch path and marks each consumed, exactly as live traffic.
        for (peer, _epoch, seq, payload) in snap.pending_rx_for(CHAN_BUS) {
            self.dispatch(
                channel,
                Incoming::Reliable {
                    from: peer,
                    seq,
                    payload,
                },
            );
        }
    }

    /// Drives a cell built with [`SmcCell::with_clock`] at its clock's
    /// current time: steps the bus channel (whose messages are routed
    /// before it returns) and the discovery channel, then runs the cell's
    /// tick — the one a threaded cell's timer runs. A stopped channel is
    /// skipped. Returns the datagrams and discovery work processed.
    ///
    /// # Panics
    ///
    /// If the cell runs its own threads ([`SmcCell::start`],
    /// [`SmcCell::start_durable`]).
    pub fn step(&self) -> usize {
        let mut work = 0;
        // The discovery channel is loaded after the bus channel's step,
        // which may have restarted it.
        for channel in [Self::bus_channel, Self::discovery_channel] {
            let channel = channel(self);
            if !channel.is_closed() {
                work += channel.step();
            }
        }
        work + self.tick()
    }

    /// The cell's one tick, at its clock's now: discovery keeps its time
    /// (beacon, lease accounting, and a step-driven service's queued
    /// requests), then the detect → repair loop takes its turn. A threaded
    /// cell's timer runs it; [`SmcCell::step`] ends with it. Returns the
    /// discovery work done.
    fn tick(&self) -> usize {
        let discovery_up = !self.discovery_channel().is_closed();
        let work = discovery_up.then(|| self.discovery().step());
        self.manage();
        work.unwrap_or(0)
    }

    /// Rebuilds the discovery service on `transport` — its old endpoint —
    /// from the log: the members it held come back silently, with fresh
    /// leases. Nothing else of the cell is touched.
    ///
    /// # Errors
    ///
    /// [`Error::Invalid`] if the cell is not durable; propagates log read
    /// failures.
    fn restart_discovery(self: &Arc<Self>, transport: Arc<dyn Transport>) -> Result<()> {
        let (wal, snap) = self.durable_truth()?;
        self.discovery().shutdown();
        let journal = Some((wal, CHAN_DISCOVERY, &snap));
        let channel = open_channel(&self.config, self.stepped, transport, journal);
        let discovery = SmcCell::open_discovery(&self.config, self.stepped, self.bus_id, &channel);
        self.recover(&snap, Some(&discovery), None);
        self.claim(&discovery);
        self.discovery_channel.store(channel);
        self.discovery.store(discovery);
        Ok(())
    }

    /// Rebuilds the bus channel on `transport` — its old endpoint — from
    /// the log: receive cursors keep suppressing duplicates across the
    /// outage, every member gets a fresh proxy on the new channel with
    /// its subscriptions, and the outbound queue and unrouted events are
    /// recovered as a boot recovers them. In-process subscriptions stay.
    ///
    /// # Errors
    ///
    /// [`Error::Invalid`] if the cell is not durable; propagates log read
    /// failures.
    fn restart_bus(self: &Arc<Self>, transport: Arc<dyn Transport>) -> Result<()> {
        let (wal, snap) = self.durable_truth()?;
        // A closed channel journals no discard, so the stale proxies'
        // queues stay in the log for the new channel to resend.
        self.bus_channel().close();
        let stale: Vec<(ServiceId, Arc<Proxy>)> = self.proxies.lock().drain().collect();
        for (id, proxy) in stale {
            proxy.destroy();
            self.bus.remove_subscriber(id);
        }
        let journal = Some((wal, CHAN_BUS, &snap));
        let channel = open_channel(&self.config, self.stepped, transport, journal);
        self.channel.store(Arc::clone(&channel));
        self.recover(&snap, None, Some(&channel));
        self.serve(&channel);
        Ok(())
    }

    /// The log and the state it folds to, for a component restart.
    fn durable_truth(&self) -> Result<(&Arc<Wal>, CoreSnapshot)> {
        let wal = self
            .wal
            .as_ref()
            .ok_or_else(|| Error::Invalid("cell was not started durable".into()))?;
        Ok((wal, wal.recover_state()?))
    }

    /// Makes the members map disagree with durable truth, for the
    /// self-stabilisation tests: plants `id` as a member when `present`,
    /// drops it otherwise (its proxy stays). Returns whether the map
    /// changed. Only [`SmcCell::reconcile`] repairs it.
    #[doc(hidden)]
    pub fn corrupt_members(&self, id: ServiceId, present: bool) -> bool {
        let mut members = self.members.lock();
        if present {
            let ghost = Arc::new(ServiceInfo::new(id, "corrupt.ghost"));
            members.insert(id, ghost).is_none()
        } else {
            members.remove(&id).is_some()
        }
    }

    /// The cell identity.
    pub fn cell_id(&self) -> CellId {
        self.config.cell
    }

    /// The bus endpoint members publish/subscribe through.
    pub fn bus_endpoint(&self) -> ServiceId {
        self.bus_id
    }

    /// The reliable channel serving the bus endpoint.
    pub fn bus_channel(&self) -> Arc<ReliableChannel> {
        self.channel.load()
    }

    /// The reliable channel serving the discovery endpoint.
    pub fn discovery_channel(&self) -> Arc<ReliableChannel> {
        self.discovery_channel.load()
    }

    /// The in-process event bus.
    pub fn bus(&self) -> &Arc<EventBus> {
        &self.bus
    }

    /// The policy service.
    pub fn policy(&self) -> &Arc<PolicyService> {
        &self.policy
    }

    /// The discovery service.
    pub fn discovery(&self) -> Arc<DiscoveryService> {
        self.discovery.load()
    }

    /// The write-ahead log of a durable cell.
    pub fn wal(&self) -> Option<&Arc<Wal>> {
        self.wal.as_ref()
    }

    /// The proxy factory — register device-type codecs here *before*
    /// devices join.
    pub fn proxy_factory(&self) -> &Arc<ProxyFactory> {
        &self.factory
    }

    /// Current members (from the wiring's view).
    pub fn members(&self) -> Vec<ServiceInfo> {
        let mut v: Vec<ServiceInfo> = self
            .members
            .lock()
            .values()
            .map(|info| ServiceInfo::clone(info))
            .collect();
        v.sort_by_key(|i| i.id);
        v
    }

    /// The proxy for a member, if one exists.
    pub fn proxy(&self, member: ServiceId) -> Option<Arc<Proxy>> {
        self.proxies.lock().get(&member).cloned()
    }

    /// Bus metrics, folded together with the proxy queue high-water
    /// mark. A durable cell's log counts for itself: [`SmcCell::wal`].
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut hwm = 0;
        for proxy in self.proxies.lock().values() {
            hwm = hwm.max(proxy.stats().queue_depth_hwm);
        }
        let bus = self.bus.metrics_ref();
        bus.proxy_queue_hwm.fetch_max(hwm, Ordering::Relaxed);
        self.bus.metrics()
    }

    /// Exposes this cell through `registry`, sampled at render time:
    /// [`SmcCell::metrics`], and — each from its own counters — the
    /// write-ahead log of a durable cell and the discovery service.
    pub fn register_metrics(self: &Arc<Self>, registry: &Registry) {
        registry.register_weak(self, |cell, out| cell.metrics().samples(&[], out));
        if let Some(wal) = &self.wal {
            wal.register_with(registry);
        }
        self.discovery().register_with(registry);
    }

    /// Writes a [`CoreSnapshot`] of all durable state and truncates the
    /// log — bounding both storage and the next recovery's replay time.
    ///
    /// Safe to call while the cell is live: the WAL rotates its active
    /// segment *before* the state is captured and removes only
    /// pre-rotation segments ([`Wal::snapshot_with`]), so a record the
    /// channels journal concurrently is never lost — it is either
    /// reflected in the captured state or replayed from a retained
    /// segment.
    ///
    /// Discovery-channel outbound traffic is deliberately not
    /// snapshotted: it is lease-protocol chatter a restarted service
    /// regenerates itself.
    ///
    /// # Errors
    ///
    /// [`Error::Invalid`] if the cell was not started with
    /// [`SmcCell::start_durable`]; otherwise propagates backend write
    /// failures (the old log remains authoritative on failure).
    pub fn checkpoint(&self) -> Result<()> {
        let Some(wal) = &self.wal else {
            return Err(Error::Invalid("cell was not started durable".into()));
        };
        wal.snapshot_with(|| Ok(self.capture_snapshot()))
    }

    /// One anti-entropy pass: diffs live membership and routing state
    /// against the durable source of truth and repairs divergence, so
    /// state corrupted outside any crash path still converges.
    ///
    /// Repairs, in order:
    ///
    /// 1. a durable member missing from the discovery table is silently
    ///    re-admitted (its lease restarts now; no `Joined` event);
    /// 2. a durable member missing from the members map is re-inserted
    ///    and its proxy recreated;
    /// 3. a live member absent from durable truth (a ghost) is removed:
    ///    proxy destroyed, bus routes dropped, quench state cleared;
    /// 4. a proxy-tracked subscription with no bus route is re-attached
    ///    through the RouteTable control path under its original id and
    ///    filter;
    /// 5. a bus route owned by a proxied member but not tracked by its
    ///    proxy is removed.
    ///
    /// Subscribers without proxies (in-process [`SmcCell::subscribe_local`]
    /// sinks) are never touched: the bus is their only record and it is
    /// taken as correct. Non-durable cells get checks 4–5 only — there
    /// is no durable membership truth to diff against.
    ///
    /// The pass diffs nothing while discovery has a membership change
    /// whose handler has not returned
    /// ([`DiscoveryService::settled_members`]): the table is ahead of the
    /// other views until then, and the next pass sees the change done.
    /// Otherwise it first compares digests ([`SmcCell::views_agree`]);
    /// when every view agrees it reads no log and reports what a clean
    /// pass reports — nothing.
    ///
    /// # Errors
    ///
    /// Propagates WAL read failures. Individual repairs that fail are
    /// recorded in the report and do not abort the pass.
    pub fn reconcile(&self) -> Result<ReconcileReport> {
        let _views = self.views.lock();
        let mut report = ReconcileReport::default();
        let discovery = self.discovery();
        let Some(table) = discovery.settled_members() else {
            return Ok(report);
        };
        if self.views_agree(&table) {
            return Ok(report);
        }
        let channel = self.bus_channel();
        if let Some(wal) = &self.wal {
            let truth = wal.recover_state()?;
            let mut truth_members = truth.members.clone();
            truth_members.sort_by_key(|m| m.id);
            let truth_ids: std::collections::HashSet<ServiceId> =
                truth_members.iter().map(|m| m.id).collect();
            for info in &truth_members {
                if !table.iter().any(|m| m.id == info.id) {
                    discovery.restore_member(info.clone());
                    self.ensure_proxy(info, &channel);
                    report.repair(format!("re-admitted member {} to discovery", info.id));
                }
                let missing = !self.members.lock().contains_key(&info.id);
                if missing {
                    self.members.lock().insert(info.id, Arc::new(info.clone()));
                    self.ensure_proxy(info, &channel);
                    report.repair(format!("restored member {} to members map", info.id));
                }
            }
            let mut ghosts: Vec<ServiceId> = self
                .members
                .lock()
                .keys()
                .filter(|id| !truth_ids.contains(id))
                .copied()
                .collect();
            ghosts.sort();
            for id in ghosts {
                self.tear_down(id);
                report.repair(format!("removed ghost member {id}"));
            }
        }
        // Route repairs, against the post-membership-repair bus state.
        let proxies: Vec<(ServiceId, Arc<Proxy>)> = {
            let guard = self.proxies.lock();
            let mut v: Vec<_> = guard.iter().map(|(id, p)| (*id, Arc::clone(p))).collect();
            v.sort_by_key(|(id, _)| *id);
            v
        };
        let bus_subs = self.bus.subscriptions();
        let bus_ids: std::collections::HashSet<SubscriptionId> =
            bus_subs.iter().map(|(id, _, _)| *id).collect();
        for (member, proxy) in &proxies {
            for (id, filter) in proxy.tracked_subscription_filters() {
                if bus_ids.contains(&id) {
                    continue;
                }
                let sink = Arc::clone(proxy) as Arc<dyn EventSink>;
                match self
                    .bus
                    .restore_subscription(Subscription::new(id, *member, filter), sink)
                {
                    Ok(()) => {
                        report.repair(format!("re-attached subscription {} of {member}", id.0));
                    }
                    Err(e) => report.divergences.push(format!(
                        "subscription {} of {member} could not be re-attached: {e}",
                        id.0
                    )),
                }
            }
        }
        for (id, subscriber, _) in &bus_subs {
            let Some((_, proxy)) = proxies.iter().find(|(m, _)| m == subscriber) else {
                continue;
            };
            if !proxy.tracked_subscriptions().contains(id) {
                let _ = self.bus.unsubscribe(*id);
                report.repair(format!(
                    "dropped untracked subscription {} of {subscriber}",
                    id.0
                ));
            }
        }
        if report.repaired > 0 {
            self.recompute_quench();
        }
        Ok(report)
    }

    /// Whether every view a [`SmcCell::reconcile`] pass diffs agrees, by
    /// order-independent digest: the discovery `table` and the members map
    /// with the log's membership ([`Wal::membership_digest`]), and the
    /// subscriptions the proxies track with their members' bus routes.
    /// Any divergence a pass would repair makes one pair differ. The
    /// log's subscriptions take no part: a pass never diffs them, and a
    /// purge drops a member's routes with no record of each.
    #[doc(hidden)]
    pub fn views_agree(&self, table: &[ServiceInfo]) -> bool {
        if let Some(wal) = &self.wal {
            let table = digest(table.iter().map(|m| m.id.raw()));
            let map = digest(self.members.lock().keys().map(|id| id.raw()));
            if wal.membership_digest() != Some(table) || map != table {
                return false;
            }
        }
        let route = |member: ServiceId, id: SubscriptionId| member.raw().rotate_left(32) ^ id.0;
        let proxies = self.proxies.lock();
        let tracked = proxies.iter().flat_map(|(&member, proxy)| {
            let ids = proxy.tracked_subscriptions().into_iter();
            ids.map(move |id| route(member, id))
        });
        let routes = self.bus.subscriptions().into_iter();
        let routes = routes.filter(|(_, member, _)| proxies.contains_key(member));
        digest(tracked) == digest(routes.map(|(id, member, _)| route(member, id)))
    }

    /// Reads the durable state out of the live channels and bus. Called
    /// by [`Wal::snapshot_with`] after the segment boundary is pinned;
    /// must not take WAL locks (journalling threads hold channel locks
    /// across their appends).
    fn capture_snapshot(&self) -> CoreSnapshot {
        let mut snap = CoreSnapshot::default();
        let channel = self.bus_channel();
        for (chan, of) in [
            (CHAN_BUS, &channel),
            (CHAN_DISCOVERY, &self.discovery_channel()),
        ] {
            for (peer, epoch, expected) in of.rx_cursors() {
                snap.cursors.push(CursorEntry {
                    chan,
                    peer,
                    epoch,
                    expected,
                });
            }
        }
        for (peer, msgs) in channel.outbound_pending() {
            for (seq, payload) in msgs {
                snap.outbound.push(OutboundEntry {
                    chan: CHAN_BUS,
                    peer,
                    seq,
                    payload,
                });
            }
        }
        // Read the unconsumed list only *after* the cursors: a delivery
        // advances the cursor and joins the list under one channel lock,
        // so this order can over-report (entry present, cursor stale —
        // harmless, replay is idempotent) but never under-report.
        for (peer, epoch, seq, payload) in channel.unconsumed_rx() {
            snap.pending_rx.push(smc_types::PendingRx {
                chan: CHAN_BUS,
                peer,
                epoch,
                seq,
                payload,
            });
        }
        snap.members = self.discovery().members();
        snap.members.sort_by_key(|i| i.id);
        let proxies = self.proxies.lock();
        for (id, subscriber, filter) in self.bus.subscriptions() {
            if proxies.contains_key(&subscriber) {
                snap.subscriptions
                    .push(Subscription::new(id, subscriber, filter));
            }
        }
        drop(proxies);
        snap.next_subscription = self.bus.next_subscription_id();
        snap
    }

    /// Appends one record to the WAL, if the cell is durable. Membership
    /// and subscription records tolerate a lost append — a device rejoin
    /// reconstructs them — so failures are not propagated here; the
    /// ack-gating appends live in the channel journal instead.
    fn journal(&self, record: &WalRecord) {
        if let Some(wal) = &self.wal {
            let _ = wal.append(record);
        }
    }

    /// Publishes a cell-originated event (management traffic), stamped
    /// with the bus endpoint identity.
    ///
    /// # Errors
    ///
    /// Propagates bus errors.
    pub fn publish_local(&self, mut event: Event) -> Result<usize> {
        let seq = self.next_local_seq.fetch_add(1, Ordering::Relaxed);
        event.stamp(self.bus_endpoint(), seq, self.config.clock.now_micros());
        self.publish_internal(event, 0)
    }

    /// Registers an in-process subscription (a cell-side service such as a
    /// logger or analysis component).
    ///
    /// # Errors
    ///
    /// Propagates bus errors.
    pub fn subscribe_local(
        &self,
        subscriber: ServiceId,
        filter: Filter,
        sink: Arc<dyn EventSink>,
    ) -> Result<SubscriptionId> {
        let id = self.bus.subscribe(subscriber, filter, sink)?;
        self.recompute_quench();
        Ok(id)
    }

    /// Sends a management command to a member, reliably.
    ///
    /// # Errors
    ///
    /// [`Error::NotMember`] if the target has no proxy.
    pub fn send_command(&self, target: ServiceId, name: &str, args: AttributeSet) -> Result<()> {
        let proxy = self.proxy(target).ok_or(Error::NotMember)?;
        proxy.send_packet(Packet::Command {
            target,
            name: name.to_owned(),
            args,
        })
    }

    /// Stops the cell: its timer, its loop, discovery, the bus endpoint,
    /// and every proxy.
    pub fn shutdown(&self) {
        self.stopped.store(true, Ordering::SeqCst);
        self.timer.stop();
        self.set_supervising(false);
        self.discovery().shutdown();
        self.bus_channel().close();
        let proxies: Vec<Arc<Proxy>> = self.proxies.lock().values().cloned().collect();
        for p in proxies {
            p.destroy();
        }
    }

    // --- wiring ------------------------------------------------------------

    /// Brings a member that discovery admitted into the cell: the log
    /// record, its proxy and the proxy's own subscriptions, quench state,
    /// its policy bundle, the New Member event — and last the `members`
    /// entry, so whoever finds a member there knows all of that is done.
    /// Discovery has it done before it answers the join, because a device
    /// may act the moment it hears it was admitted, and holds off every
    /// reconcile pass until it returns.
    ///
    /// A member the cell already knows is left as it is: one that
    /// discovery forgot while the cell did not (state corruption) rejoins
    /// as the same incarnation.
    fn on_member_joined(&self, info: ServiceInfo) {
        let views = self.views.lock();
        if self.members.lock().contains_key(&info.id) {
            return;
        }
        self.journal(&WalRecord::MemberJoined { info: info.clone() });
        let proxy = self.ensure_proxy(&info, &self.bus_channel());
        // Proxy-registered subscriptions on the device's behalf, journalled
        // like a device's own so recovery restores them.
        for filter in proxy.initial_subscriptions() {
            let sink = Arc::clone(&proxy) as Arc<dyn EventSink>;
            if let Ok(id) = self.bus.subscribe(info.id, filter.clone(), sink) {
                self.journal(&WalRecord::Subscribed {
                    subscription: Subscription::new(id, info.id, filter.clone()),
                });
                proxy.track_subscription(id, filter);
            }
        }
        drop(views);
        self.recompute_quench();
        // Deploy the device-type policy bundle, if any.
        let bundle = self.policy.deployment_for(&info.device_type);
        if !bundle.policies.is_empty() {
            let payload = to_bytes(&bundle);
            let _ = proxy.send_packet(Packet::PolicyDeploy { payload });
        }
        let _ = self.publish_local(new_member_event(&info));
        self.members.lock().insert(info.id, Arc::new(info));
    }

    fn destroy_member(&self, id: ServiceId) {
        let _views = self.views.lock();
        self.journal(&WalRecord::MemberPurged { member: id });
        self.tear_down(id);
        self.recompute_quench();
    }

    /// Removes a member from the live cell: its `members` entry, its
    /// proxy, its bus routes and its quench state. The caller journals
    /// and recomputes quench, each in its own time.
    fn tear_down(&self, id: ServiceId) {
        self.members.lock().remove(&id);
        let proxy = self.proxies.lock().remove(&id);
        if let Some(proxy) = proxy {
            proxy.destroy();
        }
        self.bus.remove_subscriber(id);
        self.quench.remove(id);
    }

    /// Creates the member's proxy on `channel` if it does not exist yet
    /// (idempotent; called on admission, on restore and by dispatch).
    fn ensure_proxy(&self, info: &ServiceInfo, channel: &Arc<ReliableChannel>) -> Arc<Proxy> {
        let mut proxies = self.proxies.lock();
        if let Some(p) = proxies.get(&info.id) {
            return Arc::clone(p);
        }
        let proxy = self.factory.create_proxy(info.clone(), Arc::clone(channel));
        proxies.insert(info.id, Arc::clone(&proxy));
        proxy
    }

    /// Routes one message from the bus channel `channel` and marks a
    /// reliable one consumed once routing returns, releasing the journal's
    /// retained copy; a crash mid-routing leaves the message pending in
    /// the log and recovery re-routes it.
    fn dispatch(&self, channel: &Arc<ReliableChannel>, incoming: Incoming) {
        let consumed = match &incoming {
            Incoming::Reliable { from, seq, .. } => Some((*from, *seq)),
            Incoming::Unreliable { .. } => None,
        };
        self.handle_incoming(channel, incoming);
        if let Some((from, seq)) = consumed {
            channel.consumed(from, seq);
        }
    }

    fn handle_incoming(&self, channel: &Arc<ReliableChannel>, incoming: Incoming) {
        let from = incoming.from();
        let Ok(packet) = Packet::from_message(incoming.into_payload()) else {
            return;
        };
        // Membership gate: everything on the bus endpoint requires
        // membership, and a member is in `members` from before discovery
        // answers its join until its purge is handled.
        let member_info = self.members.lock().get(&from).cloned();
        let Some(info) = member_info else {
            refuse(channel, from, packet.kind(), "not a member of this cell");
            return;
        };
        let proxy = self.ensure_proxy(&info, channel);

        match packet {
            Packet::Publish {
                mut event,
                trace,
                ack,
            } => {
                if let Decision::Deny =
                    self.authorise(&info, ActionClass::Publish, event.event_type())
                {
                    BusMetrics::bump(&self.bus.metrics_ref().publishes_denied);
                    self.config.tracer.record(
                        if trace.is_some() {
                            trace
                        } else {
                            TraceId::for_event(event.publisher(), event.seq())
                        },
                        Hop::Dropped {
                            reason: "policy-deny",
                        },
                    );
                    refuse(channel, from, event.id(), "publish denied by policy");
                    return;
                }
                proxy.stamp_if_needed(&mut event, self.config.clock.now_micros());
                // §II-C's "always acknowledged when passing from publisher
                // to event bus" is the channel's own acknowledgement; a
                // `PublishAck` on top of it goes only to a publisher that
                // waits for one.
                if ack {
                    let _ = channel.send(from, to_shared(&Packet::PublishAck(event.id())));
                }
                let _ = self.publish_internal(event, 0);
            }
            Packet::Raw(raw) => {
                if let Ok(events) = proxy.uplink(&raw, self.config.clock.now_micros()) {
                    for event in events {
                        if let Decision::Deny =
                            self.authorise(&info, ActionClass::Publish, event.event_type())
                        {
                            BusMetrics::bump(&self.bus.metrics_ref().publishes_denied);
                            continue;
                        }
                        let _ = self.publish_internal(event, 0);
                    }
                }
            }
            Packet::Subscribe { request_id, filter } => {
                let resource = filter.event_type().unwrap_or("*");
                if let Decision::Deny = self.authorise(&info, ActionClass::Subscribe, resource) {
                    BusMetrics::bump(&self.bus.metrics_ref().subscribes_denied);
                    refuse(
                        channel,
                        from,
                        format!("req:{request_id}"),
                        "subscribe denied by policy",
                    );
                    return;
                }
                let _views = self.views.lock();
                match self.bus.subscribe(
                    from,
                    filter.clone(),
                    Arc::clone(&proxy) as Arc<dyn EventSink>,
                ) {
                    Ok(id) => {
                        self.journal(&WalRecord::Subscribed {
                            subscription: Subscription::new(id, from, filter.clone()),
                        });
                        proxy.track_subscription(id, filter);
                        let _ = channel.send(
                            from,
                            to_shared(&Packet::SubscribeAck {
                                request_id,
                                subscription: id,
                            }),
                        );
                        self.recompute_quench();
                    }
                    Err(e) => refuse(channel, from, format!("req:{request_id}"), e),
                }
            }
            Packet::Unsubscribe(id) => {
                if proxy.tracked_subscriptions().contains(&id) {
                    let _views = self.views.lock();
                    let _ = self.bus.unsubscribe(id);
                    self.journal(&WalRecord::Unsubscribed { id });
                    proxy.untrack_subscription(id);
                    let _ = channel.send(from, to_shared(&Packet::UnsubscribeAck(id)));
                    self.recompute_quench();
                } else {
                    refuse(channel, from, id, "unknown subscription");
                }
            }
            Packet::Advertise { request_id, filter } => {
                let interested =
                    self.quench
                        .advertise(from, filter, &self.bus.subscription_filters());
                let _ = channel.send(
                    from,
                    to_shared(&Packet::AdvertiseAck {
                        request_id,
                        interested,
                    }),
                );
            }
            Packet::DeliverAck(_) | Packet::CommandAck { .. } => {
                // End-to-end confirmations; the reliable layer already
                // guarantees the transfer, these are informational (and
                // `DeliverAck` comes from older peers only).
            }
            _ => {
                // Discovery traffic arriving on the bus endpoint (or
                // anything else) is ignored.
            }
        }
    }

    /// Publishes an event on the bus and runs obligation policies over it.
    fn publish_internal(&self, event: Event, depth: u32) -> Result<usize> {
        let delivered = self.bus.publish(event.clone())?;
        if depth >= MAX_POLICY_DEPTH {
            return Ok(delivered);
        }
        let fired = self.policy.on_event(&event);
        if !fired.is_empty() {
            BusMetrics::add(&self.bus.metrics_ref().policy_actions, fired.len() as u64);
            for action in fired {
                self.execute_action(action, depth);
            }
        }
        Ok(delivered)
    }

    fn execute_action(&self, fired: FiredAction, depth: u32) {
        match fired.action {
            ActionSpec::PublishEvent { event_type, attrs } => {
                let mut builder =
                    Event::builder(event_type).attr("policy", fired.policy_id.clone());
                for (name, tpl) in attrs {
                    if let Some(value) = tpl.resolve(&fired.trigger) {
                        builder = builder.attr(name, value);
                    }
                }
                let mut event = builder.build();
                let seq = self.next_local_seq.fetch_add(1, Ordering::Relaxed);
                event.stamp(self.bus_endpoint(), seq, self.config.clock.now_micros());
                let _ = self.publish_internal(event, depth + 1);
            }
            ActionSpec::SendCommand {
                target,
                target_device_type,
                name,
                args,
            } => {
                let mut resolved = AttributeSet::new();
                for (arg_name, tpl) in &args {
                    if let Some(value) = tpl.resolve(&fired.trigger) {
                        resolved.insert(arg_name.clone(), value);
                    }
                }
                let targets: Vec<ServiceId> = match target {
                    Some(id) => vec![id],
                    None => self
                        .members
                        .lock()
                        .values()
                        .filter(|i| smc_policy::glob_matches(&target_device_type, &i.device_type))
                        .map(|i| i.id)
                        .collect(),
                };
                for t in targets {
                    let _ = self.send_command(t, &name, resolved.clone());
                }
            }
            ActionSpec::Quench { publisher, enable } => {
                // The template addresses the publisher by raw service id
                // (e.g. `health.member` on an smc.health event); events
                // without it simply don't resolve.
                if let Some(raw) = publisher.resolve(&fired.trigger).and_then(|v| v.as_int()) {
                    let target = ServiceId::from_raw(raw as u64);
                    BusMetrics::bump(&self.bus.metrics_ref().quench_signals);
                    let packet = to_shared(&Packet::Quench { enable });
                    let _ = self.bus_channel().send(target, packet);
                }
            }
            // Only on the cell's own word: its loop's health events and
            // what its owner publishes into it. A member's publish
            // restarts nothing.
            ActionSpec::Restart { component }
                if fired.trigger.publisher() == self.bus_endpoint() =>
            {
                let component = component.resolve(&fired.trigger);
                if let Some(component) = component.as_ref().and_then(|v| v.as_str()) {
                    self.on_restart(component, &fired.trigger);
                }
            }
            // Enable/Disable/Log were applied inside the policy service;
            // future action kinds are ignored by this executor.
            _ => {}
        }
    }

    fn authorise(&self, info: &ServiceInfo, action: ActionClass, resource: &str) -> Decision {
        let mut any_permit = false;
        let roles: &[String] = &info.roles;
        if roles.is_empty() {
            return match self.policy.check("", action, resource) {
                Decision::NotApplicable if self.config.default_permit => Decision::Permit,
                Decision::NotApplicable => Decision::Deny,
                d => d,
            };
        }
        for role in roles {
            match self.policy.check(role, action, resource) {
                Decision::Deny => return Decision::Deny,
                Decision::Permit => any_permit = true,
                Decision::NotApplicable => {}
            }
        }
        if any_permit || self.config.default_permit {
            Decision::Permit
        } else {
            Decision::Deny
        }
    }

    fn recompute_quench(&self) {
        let filters = self.bus.subscription_filters();
        let changes = self.quench.on_subscriptions_changed(&filters);
        if changes.is_empty() {
            return;
        }
        let channel = self.bus_channel();
        for change in changes {
            BusMetrics::bump(&self.bus.metrics_ref().quench_signals);
            let _ = channel.send(
                change.publisher,
                to_shared(&Packet::Quench {
                    enable: change.quench,
                }),
            );
        }
    }
}

impl Drop for SmcCell {
    fn drop(&mut self) {
        self.bus_channel().close();
    }
}
