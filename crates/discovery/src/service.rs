//! The discovery service: beacons, admission, leases, purges.
//!
//! Runs on its own transport endpoint (it is a separate SMC core service
//! in the paper's Figure 1) and hands every membership change to its
//! owner's [`MembershipHandler`], one at a time and in the order the
//! table changed; the cell's handler turns them into `New Member` /
//! `Purge Member` events on the bus — the paper is explicit that "the
//! discovery protocol does not use the event bus for monitoring group
//! membership".

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver};
use parking_lot::Mutex;

use smc_transport::{Incoming, ReliableChannel};
use smc_types::codec::{to_bytes, to_shared};
use smc_types::{
    system_clock, CellId, Error, Packet, PurgeReason, Result, ServiceId, ServiceInfo, SharedClock,
};

use crate::auth::{AcceptAll, Authenticator};
use crate::membership::{MemberState, MembershipEvent, MembershipTable};

/// Timing and admission parameters of a discovery service.
#[derive(Debug, Clone)]
pub struct DiscoveryConfig {
    /// How often presence beacons are broadcast.
    pub beacon_interval: Duration,
    /// Lease duration granted to members; a member must heartbeat within
    /// it to stay `Active`.
    pub lease: Duration,
    /// Extra silence tolerated after lease expiry before a member is
    /// purged ("maximum timeouts … to allow silence from a device until a
    /// Purge Member event is launched").
    pub grace: Duration,
    /// Join admission control.
    pub authenticator: Arc<dyn Authenticator>,
    /// The cell's event-bus endpoint, reported to members on join so they
    /// know where to publish/subscribe ([`smc_types::ServiceId::NIL`] for
    /// a cell without a bus).
    pub bus_endpoint: ServiceId,
}

impl Default for DiscoveryConfig {
    fn default() -> Self {
        DiscoveryConfig {
            beacon_interval: Duration::from_millis(500),
            lease: Duration::from_secs(2),
            grace: Duration::from_secs(4),
            authenticator: Arc::new(AcceptAll),
            bus_endpoint: ServiceId::NIL,
        }
    }
}

impl DiscoveryConfig {
    /// A fast configuration for tests (tens of milliseconds).
    pub fn fast() -> Self {
        DiscoveryConfig {
            beacon_interval: Duration::from_millis(40),
            lease: Duration::from_millis(150),
            grace: Duration::from_millis(250),
            ..DiscoveryConfig::default()
        }
    }

    /// Replaces the authenticator (builder style).
    pub fn with_authenticator(mut self, auth: Arc<dyn Authenticator>) -> Self {
        self.authenticator = auth;
        self
    }

    /// Sets the event-bus endpoint reported to joining members (builder
    /// style).
    pub fn with_bus_endpoint(mut self, bus: ServiceId) -> Self {
        self.bus_endpoint = bus;
        self
    }

    /// How often a threaded owner ticks the service
    /// ([`DiscoveryService::step`]): the beacon interval, held between 5
    /// and 50 ms so lease accounting stays fine-grained.
    pub fn tick_interval(&self) -> Duration {
        self.beacon_interval
            .clamp(Duration::from_millis(5), Duration::from_millis(50))
    }
}

smc_telemetry::metric_set! {
    /// [`DiscoveryStats`] as the service counts them.
    struct DiscoveryCounters {
        /// Members admitted to the cell.
        counter joins: "smc_discovery_joins_total",
        /// Join requests denied by the authenticator.
        counter join_rejects: "smc_discovery_join_rejects_total",
        /// Heartbeats received from known members.
        counter heartbeats: "smc_discovery_heartbeats_total",
        /// Lease expiries (member suspected).
        counter suspects: "smc_discovery_suspects_total",
        /// Suspected members that heartbeat within grace.
        counter recovers: "smc_discovery_recovers_total",
        /// Members purged (grace expiry, leave or eviction).
        counter purges: "smc_discovery_purges_total",
    }
    /// Counters describing one discovery service's activity since start.
    pub struct DiscoveryStats {}
}

impl DiscoveryCounters {
    /// Tallies a membership transition as it is reported.
    fn count(&self, ev: &MembershipEvent) {
        let counter = match ev {
            MembershipEvent::Joined(_) => &self.joins,
            MembershipEvent::Suspected(_) => &self.suspects,
            MembershipEvent::Recovered(_) => &self.recovers,
            MembershipEvent::Purged(..) => &self.purges,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// What a service's owner does with each membership change, installed
/// with [`DiscoveryService::set_membership_handler`].
///
/// It is called one change at a time, in the order the table changed, on
/// the thread that made the change: the one stepping the service
/// ([`DiscoveryService::step`]; a started service's or a threaded cell's
/// loop) for joins, leaves, recoveries and lease expiries, or the caller
/// of [`DiscoveryService::evict`]. A step and an eviction each hold the
/// service's one lock while they change the table and hand over what
/// changed, so no change is made before the one ahead of it is handled,
/// and no thread hands another's. No lock the table's readers take is
/// held, so it may read the table; a `Joined` is handled before the
/// member's `JoinResponse` is sent, so what it sets up exists by the time
/// the device hears it was admitted. It must not install a handler or
/// evict a member itself.
pub type MembershipHandler = Box<dyn FnMut(MembershipEvent) + Send>;

/// The discovery service of one self-managed cell.
///
/// Its owner keeps its time: [`DiscoveryService::step`] sends the beacon
/// when one is due, runs lease accounting and handles the requests its
/// channel queued. A threaded cell's loop calls it; a step-driven owner
/// calls it with its own clock; a service
/// [`started`](DiscoveryService::start) on its own has a loop of its own.
pub struct DiscoveryService {
    cell: CellId,
    channel: Arc<ReliableChannel>,
    config: DiscoveryConfig,
    /// The service's one timekeeper: its clock, whose micros the table
    /// keeps too, and the last beacon's number with when the next is due.
    clock: SharedClock,
    beacon: Mutex<(u64, u64)>,
    table: Mutex<MembershipTable>,
    /// Who is handed each change, behind the service's one lock: a step
    /// and an eviction hold it throughout, and so does an owner's diff of
    /// its views against the table ([`DiscoveryService::with_members`]).
    handler: Mutex<MembershipHandler>,
    /// The other end of an unclaimed service's handler.
    events: Receiver<MembershipEvent>,
    running: AtomicBool,
    counters: DiscoveryCounters,
    /// The loop of a service started on its own.
    ticker: Ticker,
}

impl std::fmt::Debug for DiscoveryService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiscoveryService")
            .field("cell", &self.cell)
            .field("table", &self.table)
            .finish_non_exhaustive()
    }
}

impl DiscoveryService {
    /// Starts a discovery service for `cell` on `channel`, with a loop of
    /// its own that ticks it and takes its channel's messages as they come.
    pub fn start(
        cell: CellId,
        channel: Arc<ReliableChannel>,
        config: DiscoveryConfig,
    ) -> Arc<Self> {
        let every = config.tick_interval();
        let service = Self::with_clock(cell, channel, config, system_clock());
        let serving = Arc::downgrade(&service);
        service
            .ticker
            .start(format!("discovery-{cell}"), every, move || {
                let service = serving.upgrade();
                let service = service.filter(|s| s.running.load(Ordering::SeqCst))?;
                service.step();
                (!service.channel.is_closed()).then_some(Wait::Serve(service))
            });
        service
    }

    /// Builds a **step-driven** discovery service timed by `clock`.
    ///
    /// No thread takes its channel's messages: nothing happens until
    /// [`step`] is called, which makes the service fully deterministic
    /// under a [`smc_types::ManualClock`]. Lease and grace accounting
    /// advance with the injected clock, not wall time.
    ///
    /// [`step`]: DiscoveryService::step
    pub fn with_clock(
        cell: CellId,
        channel: Arc<ReliableChannel>,
        config: DiscoveryConfig,
        clock: SharedClock,
    ) -> Arc<Self> {
        let (events_tx, events) = unbounded();
        Arc::new(DiscoveryService {
            cell,
            channel,
            config,
            beacon: Mutex::new((0, clock.now_micros())),
            clock,
            table: Mutex::new(MembershipTable::new()),
            handler: Mutex::new(Box::new(move |ev| {
                let _ = events_tx.send(ev);
            })),
            events,
            running: AtomicBool::new(true),
            counters: DiscoveryCounters::default(),
            ticker: Ticker::default(),
        })
    }

    /// Keeps the service's time at its clock's now: broadcasts a beacon if
    /// one is due and runs lease accounting, then handles every message
    /// its channel has queued. Returns the number of packets, beacons and
    /// membership transitions processed.
    pub fn step(&self) -> usize {
        let mut handler = self.handler.lock();
        let work = self.tick(&mut handler);
        work + self.handle_queued(&mut handler, None)
    }

    /// What a loop does between ticks: waits up to `wait` for the
    /// channel's first message — stepping a step-driven channel for it
    /// ([`ReliableChannel::step_waiting`]) — then handles what came, as a
    /// step does; the time is kept at the ticks.
    fn step_waiting(&self, wait: Duration) {
        let first = if self.channel.is_step_driven() {
            self.channel.step_waiting(wait);
            None
        } else {
            self.channel.recv(Some(wait)).ok()
        };
        self.handle_queued(&mut self.handler.lock(), first);
    }

    /// Handles `first`, then every message the channel has queued.
    fn handle_queued(&self, handler: &mut MembershipHandler, first: Option<Incoming>) -> usize {
        let now = self.clock.now_micros();
        let queued = std::iter::from_fn(|| self.channel.try_recv());
        let mut work = 0;
        for incoming in first.into_iter().chain(queued) {
            self.handle_at(incoming, now, handler);
            work += 1;
        }
        work
    }

    /// The service's own endpoint id.
    pub fn local_id(&self) -> ServiceId {
        self.channel.local_id()
    }

    /// The channel the service answers on.
    pub fn channel(&self) -> &Arc<ReliableChannel> {
        &self.channel
    }

    /// Claims the service: from now on every membership change is handed
    /// to `handler` instead of the [`DiscoveryService::events`] queue. See
    /// [`MembershipHandler`] for where and when it runs.
    ///
    /// Changes made before this call go through `handler` first, on the
    /// calling thread, in order, before any later one does. A second call
    /// replaces the handler.
    pub fn set_membership_handler(&self, mut handler: MembershipHandler) {
        let mut current = self.handler.lock();
        while let Ok(earlier) = self.events.try_recv() {
            handler(earlier);
        }
        *current = handler;
    }

    /// The membership changes (joined / suspected / recovered / purged) of
    /// a service nobody claimed with
    /// [`DiscoveryService::set_membership_handler`]; nothing arrives here
    /// once a handler is installed.
    pub fn events(&self) -> &Receiver<MembershipEvent> {
        &self.events
    }

    /// Snapshot of current members.
    pub fn members(&self) -> Vec<ServiceInfo> {
        self.table.lock().snapshot()
    }

    /// Runs `f` on a snapshot of the current members while no change can
    /// be made or handled: what an owner's views are diffed against, so a
    /// change half carried out is never taken for a divergence. `f` must
    /// not step the service or evict a member.
    pub fn with_members<R>(&self, f: impl FnOnce(&[ServiceInfo]) -> R) -> R {
        let _changes = self.handler.lock();
        f(&self.members())
    }

    /// Returns `true` if `id` is currently a member.
    pub fn is_member(&self, id: ServiceId) -> bool {
        self.table.lock().contains(id)
    }

    /// Silently re-admits a member recovered from a durability snapshot
    /// after a core restart: the table entry (and its lease) is recreated
    /// as of now, but **no** `Joined` event is emitted — the membership
    /// never lapsed from the cell's point of view, the process merely
    /// died and came back.
    pub fn restore_member(&self, info: ServiceInfo) {
        let now = self.clock.now_micros();
        self.table.lock().admit(info, now);
    }

    /// Silently drops a member from the table: no `Purged` event, no
    /// counter — from the protocol's point of view nothing happened.
    /// This models state corruption (a lost table entry) for the
    /// self-stabilisation tests; only anti-entropy reconciliation
    /// against durable truth brings the member back. Returns `true` if
    /// the entry existed.
    pub fn forget_member(&self, id: ServiceId) -> bool {
        self.table.lock().remove(id).is_some()
    }

    /// Forcibly removes a member (operator or policy action), handing the
    /// purge to the handler on the calling thread before it returns — in
    /// turn with the steps, whose lock it holds.
    ///
    /// # Errors
    ///
    /// [`Error::NotMember`] if `id` is not in the table.
    pub fn evict(&self, id: ServiceId) -> Result<()> {
        let mut handler = self.handler.lock();
        if self.table.lock().remove(id).is_none() {
            return Err(Error::NotMember);
        }
        let evicted = MembershipEvent::Purged(id, PurgeReason::Evicted);
        self.hand(&mut handler, evicted);
        Ok(())
    }

    /// A snapshot of the service's activity counters.
    pub fn stats(&self) -> DiscoveryStats {
        self.counters.snapshot()
    }

    /// Exports this service's counters into `registry` as
    /// `smc_discovery_*` series, sampled at render time.
    pub fn register_with(self: &Arc<Self>, registry: &smc_telemetry::Registry) {
        registry.register_weak(self, |service, out| service.stats().samples(&[], out));
    }

    /// Stops the service, its loop if it has one, and its channel.
    pub fn shutdown(&self) {
        if !self.running.swap(false, Ordering::SeqCst) {
            return;
        }
        self.channel.close();
        self.ticker.stop();
    }

    /// The beacon, if one is due, then lease accounting, at the clock's
    /// now; returns the beacons sent and the transitions made.
    fn tick(&self, handler: &mut MembershipHandler) -> usize {
        let now_micros = self.clock.now_micros();
        let mut schedule = self.beacon.lock();
        let beacon = now_micros >= schedule.1;
        if beacon {
            schedule.0 += 1;
            let (cell, discovery) = (self.cell, self.channel.local_id());
            let beacon = Packet::Beacon {
                cell,
                discovery,
                seq: schedule.0,
            };
            let _ = self.channel.broadcast_unreliable(&to_bytes(&beacon));
            schedule.1 = now_micros + self.config.beacon_interval.as_micros() as u64;
        }
        drop(schedule);
        let (lease, grace) = (self.config.lease, self.config.grace);
        let transitions = self.table.lock().tick(now_micros, lease, grace);
        let n = transitions.len();
        for ev in transitions {
            self.hand(handler, ev);
        }
        usize::from(beacon) + n
    }

    /// Counts a change the table just made and hands it over.
    fn hand(&self, handler: &mut MembershipHandler, ev: MembershipEvent) {
        self.counters.count(&ev);
        handler(ev);
    }

    fn handle_at(&self, incoming: Incoming, now: u64, handler: &mut MembershipHandler) {
        let from = incoming.from();
        let Ok(packet) = Packet::from_message(incoming.into_payload()) else {
            return;
        };
        match packet {
            Packet::JoinRequest { info, auth_token } => {
                self.handle_join(from, info, &auth_token, now, handler);
            }
            Packet::Heartbeat { member, seq } => {
                // Unknown member: stay silent so it rejoins on the next
                // beacon.
                let Some(prev) = self.table.lock().heartbeat(member, now) else {
                    return;
                };
                if prev == MemberState::Suspected {
                    self.hand(handler, MembershipEvent::Recovered(member));
                }
                self.counters.heartbeats.fetch_add(1, Ordering::Relaxed);
                let ack = Packet::HeartbeatAck { seq };
                let _ = self.channel.send_unreliable(from, &to_bytes(&ack));
            }
            Packet::Leave { member, .. } => {
                let left = self.table.lock().remove(member).is_some();
                if left {
                    self.hand(handler, MembershipEvent::Purged(member, PurgeReason::Left));
                }
            }
            _ => {}
        }
    }

    fn handle_join(
        &self,
        from: ServiceId,
        mut info: ServiceInfo,
        token: &[u8],
        now: u64,
        handler: &mut MembershipHandler,
    ) {
        // Trust the transport-derived id over the self-declared one.
        info.id = from;
        let verdict = self.config.authenticator.authenticate(&info, token);
        let (accepted, reason) = match &verdict {
            Ok(()) => (true, String::new()),
            Err(e) => (false, e.clone()),
        };
        if !accepted {
            self.counters.join_rejects.fetch_add(1, Ordering::Relaxed);
        }
        let response = Packet::JoinResponse {
            accepted,
            reason,
            cell: self.cell,
            lease_millis: self.config.lease.as_millis() as u64,
            bus: self.config.bus_endpoint,
        };
        // Admit before answering: a device that hears it is a member may
        // use its membership at once, so by then the table lists it and
        // the handler has seen it join.
        if accepted && self.table.lock().admit(info.clone(), now) {
            self.hand(handler, MembershipEvent::Joined(info));
        }
        let _ = self.channel.send(from, to_shared(&response));
    }
}

impl Drop for DiscoveryService {
    fn drop(&mut self) {
        self.running.store(false, Ordering::SeqCst);
        self.channel.close();
    }
}

/// How a [`Ticker`]'s thread spends the time until its next tick.
#[derive(Debug)]
pub enum Wait {
    /// Parked.
    Park,
    /// Taking the service's messages as they come: each wait on its
    /// channel is held to the channel's poll interval, and what it brought
    /// is handled as [`DiscoveryService::step`] handles it. Parked instead
    /// once the channel closes.
    Serve(Arc<DiscoveryService>),
}

/// A thread that keeps time: it calls its tick at once and then every
/// `every`, and between ticks waits as the tick asks, until the tick
/// returns `None`. What a member agent's heartbeats park on, and what a
/// started [`DiscoveryService`] and a threaded cell each run as their one
/// thread, serving discovery between ticks.
#[derive(Debug, Default)]
pub struct Ticker(Mutex<Option<std::thread::JoinHandle<()>>>);

impl Ticker {
    /// Starts the thread, `name`d.
    ///
    /// # Panics
    ///
    /// If the thread cannot be spawned.
    pub fn start(
        &self,
        name: String,
        every: Duration,
        mut tick: impl FnMut() -> Option<Wait> + Send + 'static,
    ) {
        let thread = std::thread::Builder::new().name(name);
        let thread = thread.spawn(move || {
            while let Some(wait) = tick() {
                let due = Instant::now() + every;
                loop {
                    let left = due.saturating_duration_since(Instant::now());
                    match &wait {
                        Wait::Serve(service) if !left.is_zero() && !service.channel.is_closed() => {
                            service.step_waiting(left);
                        }
                        _ => {
                            std::thread::park_timeout(left);
                            break;
                        }
                    }
                }
            }
        });
        *self.0.lock() = Some(thread.expect("spawn a ticker"));
    }

    /// Wakes the thread and waits for it to end — its tick must return
    /// `None` by now, and a channel it serves must be closed — unless
    /// called from the thread itself, as a tick that stops its owner does.
    pub fn stop(&self) {
        if let Some(thread) = self.0.lock().take() {
            thread.thread().unpark();
            if thread.thread().id() != std::thread::current().id() {
                let _ = thread.join();
            }
        }
    }
}
