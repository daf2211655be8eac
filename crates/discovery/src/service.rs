//! The discovery service: beacons, admission, leases, purges.
//!
//! Runs on its own transport endpoint (it is a separate SMC core service
//! in the paper's Figure 1) and hands every membership change to its
//! owner's [`MembershipHandler`], one at a time and in the order the
//! table changed; the cell's handler turns them into `New Member` /
//! `Purge Member` events on the bus — the paper is explicit that "the
//! discovery protocol does not use the event bus for monitoring group
//! membership".

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver};
use parking_lot::{Mutex, MutexGuard};

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
/// It is called one change at a time, in the order the table changed, by
/// the thread that made the change — the channel's receive thread (joins,
/// leaves, recoveries), the caller of [`DiscoveryService::step`] (lease
/// expiries; a started service's ticker thread), the caller of
/// [`DiscoveryService::evict`] — or, if another thread is running the
/// handler at that moment, by that thread once it returns: nobody waits
/// for a handler. No lock the table's readers take is held, so it may read
/// the table; a `Joined` is handled before the member's `JoinResponse` is
/// sent, so what it sets up exists by the time the device hears it was
/// admitted. It must not install a handler itself.
pub type MembershipHandler = Box<dyn FnMut(MembershipEvent) + Send>;

/// What the table's writers leave for the handler, in table order.
#[derive(Debug)]
enum Report {
    /// A membership change.
    Change(MembershipEvent),
    /// A join's answer, sent once every change before it is handled.
    Answer(ServiceId, Packet),
}

#[derive(Debug)]
struct ServiceState {
    table: MembershipTable,
    /// Reports not yet handled: each is queued under this lock together
    /// with the change it reports, so the queue is in table order.
    unreported: VecDeque<Report>,
    /// Changes queued or in the handler: while any is, the table is ahead
    /// of what its owner has made of it.
    in_flight: usize,
}

/// The discovery service of one self-managed cell.
///
/// Its owner keeps its time: [`DiscoveryService::step`] sends the beacon
/// when one is due and runs lease accounting. A cell's timer calls it on
/// every tick; a step-driven owner calls it with its own clock; a service
/// [`started`](DiscoveryService::start) on its own has a [`Ticker`] that
/// does.
#[derive(Debug)]
pub struct DiscoveryService {
    worker: Arc<Worker>,
    /// The other end of an unclaimed service's handler.
    events: Receiver<MembershipEvent>,
    /// The ticker of a service started on its own.
    ticker: Ticker,
}

impl DiscoveryService {
    /// Starts a discovery service for `cell` on `channel`, served by the
    /// channel's receive thread and ticked by a [`Ticker`] of its own.
    pub fn start(
        cell: CellId,
        channel: Arc<ReliableChannel>,
        config: DiscoveryConfig,
    ) -> Arc<Self> {
        let poll = config.tick_interval();
        let service = Self::with_clock(cell, channel, config, system_clock());
        service.serve();
        let (worker, name) = (Arc::clone(&service.worker), format!("discovery-{cell}"));
        service.ticker.start(name, poll, move || {
            let running = worker.running.load(Ordering::SeqCst) && !worker.channel.is_closed();
            if running {
                worker.tick();
            }
            running
        });
        service
    }

    /// Answers requests where they are received, on the channel's receive
    /// thread, from now on rather than in [`DiscoveryService::step`]. Time
    /// is still kept by `step` alone.
    pub fn serve(&self) {
        let worker = Arc::clone(&self.worker);
        let handler = move |incoming: Incoming| worker.handle_at(incoming, worker.now());
        self.worker.channel.set_handler(Box::new(handler));
    }

    /// Builds a **step-driven** discovery service timed by `clock`.
    ///
    /// No thread takes its channel's messages (until
    /// [`DiscoveryService::serve`]): nothing happens until [`step`] is
    /// called, which makes the service fully deterministic
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
        let origin = (Instant::now(), clock.now_micros());
        Arc::new(DiscoveryService {
            worker: Arc::new(Worker {
                cell,
                channel,
                config,
                beacon: Mutex::new((0, origin.1)),
                origin,
                clock,
                state: Mutex::new(ServiceState {
                    table: MembershipTable::new(),
                    unreported: VecDeque::new(),
                    in_flight: 0,
                }),
                handler: Mutex::new(Box::new(move |ev| {
                    let _ = events_tx.send(ev);
                })),
                running: AtomicBool::new(true),
                counters: DiscoveryCounters::default(),
            }),
            events,
            ticker: Ticker::default(),
        })
    }

    /// Keeps the service's time at its clock's now: broadcasts a beacon if
    /// one is due and runs lease accounting — then, if no thread takes
    /// the channel's messages, handles every one already queued. Returns
    /// the number of packets, beacons and membership transitions
    /// processed.
    pub fn step(&self) -> usize {
        let mut work = self.worker.tick();
        let now = self.worker.now();
        while let Some(incoming) = self.worker.channel.try_recv() {
            self.worker.handle_at(incoming, now);
            work += 1;
        }
        work
    }

    /// The service's own endpoint id.
    pub fn local_id(&self) -> ServiceId {
        self.worker.channel.local_id()
    }

    /// Claims the service: from now on every membership change is handed
    /// to `handler` instead of the [`DiscoveryService::events`] queue. See
    /// [`MembershipHandler`] for where and when it runs.
    ///
    /// Changes made before this call go through `handler` first, on the
    /// calling thread, in order, before any later one does. A second call
    /// replaces the handler.
    pub fn set_membership_handler(&self, mut handler: MembershipHandler) {
        let mut current = self.worker.handler.lock();
        while let Ok(earlier) = self.events.try_recv() {
            handler(earlier);
        }
        *current = handler;
        drop(current);
        self.worker.drain();
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
        self.worker.state.lock().table.snapshot()
    }

    /// Snapshot of current members once the handler has seen every change
    /// the table made; `None` while one is queued or being handled. What
    /// an owner's views are diffed against, so a change half carried out
    /// is never taken for a divergence.
    pub fn settled_members(&self) -> Option<Vec<ServiceInfo>> {
        let st = self.worker.state.lock();
        (st.in_flight == 0).then(|| st.table.snapshot())
    }

    /// Returns `true` if `id` is currently a member.
    pub fn is_member(&self, id: ServiceId) -> bool {
        self.worker.state.lock().table.contains(id)
    }

    /// Silently re-admits a member recovered from a durability snapshot
    /// after a core restart: the table entry (and its lease) is recreated
    /// as of now, but **no** `Joined` event is emitted — the membership
    /// never lapsed from the cell's point of view, the process merely
    /// died and came back.
    pub fn restore_member(&self, info: ServiceInfo) {
        let now = self.worker.now();
        self.worker.state.lock().table.admit(info, now);
    }

    /// Silently drops a member from the table: no `Purged` event, no
    /// counter — from the protocol's point of view nothing happened.
    /// This models state corruption (a lost table entry) for the
    /// self-stabilisation tests; only anti-entropy reconciliation
    /// against durable truth brings the member back. Returns `true` if
    /// the entry existed.
    pub fn forget_member(&self, id: ServiceId) -> bool {
        self.worker.state.lock().table.remove(id).is_some()
    }

    /// Forcibly removes a member (operator or policy action).
    ///
    /// # Errors
    ///
    /// [`Error::NotMember`] if `id` is not in the table.
    pub fn evict(&self, id: ServiceId) -> Result<()> {
        let mut st = self.worker.state.lock();
        if st.table.remove(id).is_none() {
            return Err(Error::NotMember);
        }
        let evicted = MembershipEvent::Purged(id, PurgeReason::Evicted);
        self.worker.report(st, [Report::Change(evicted)]);
        Ok(())
    }

    /// A snapshot of the service's activity counters.
    pub fn stats(&self) -> DiscoveryStats {
        self.worker.counters.snapshot()
    }

    /// Exports this service's counters into `registry` as
    /// `smc_discovery_*` series, sampled at render time.
    pub fn register_with(self: &Arc<Self>, registry: &smc_telemetry::Registry) {
        registry.register_weak(self, |service, out| service.stats().samples(&[], out));
    }

    /// Stops the service, its ticker if it has one, and its channel.
    pub fn shutdown(&self) {
        if !self.worker.running.swap(false, Ordering::SeqCst) {
            return;
        }
        self.worker.channel.close();
        self.ticker.stop();
    }
}

/// A thread that keeps time: it calls its tick every poll interval until
/// the tick returns `false`. What a started [`DiscoveryService`] and a
/// threaded cell's timer both run on.
#[derive(Debug, Default)]
pub struct Ticker(Mutex<Option<std::thread::JoinHandle<()>>>);

impl Ticker {
    /// Starts the thread, `name`d, calling `tick` at once and then every
    /// `poll` until it returns `false`.
    ///
    /// # Panics
    ///
    /// If the thread cannot be spawned.
    pub fn start(
        &self,
        name: String,
        poll: Duration,
        mut tick: impl FnMut() -> bool + Send + 'static,
    ) {
        let thread = std::thread::Builder::new().name(name);
        let thread = thread.spawn(move || {
            while tick() {
                std::thread::park_timeout(poll);
            }
        });
        *self.0.lock() = Some(thread.expect("spawn a ticker"));
    }

    /// Wakes the thread and waits for it to end — its tick must return
    /// `false` by now — unless called from the thread itself, as a tick
    /// that stops its owner does.
    pub fn stop(&self) {
        if let Some(thread) = self.0.lock().take() {
            thread.thread().unpark();
            if thread.thread().id() != std::thread::current().id() {
                let _ = thread.join();
            }
        }
    }
}

impl Drop for DiscoveryService {
    fn drop(&mut self) {
        self.worker.running.store(false, Ordering::SeqCst);
        self.worker.channel.close();
    }
}

/// What the service's handle, its channel's receive thread and whoever
/// keeps its time share.
struct Worker {
    cell: CellId,
    channel: Arc<ReliableChannel>,
    config: DiscoveryConfig,
    /// The service's one timekeeper: its clock, the clock's reading at an
    /// `Instant` (mapping it onto the timeline the table uses), and the
    /// last beacon's number with when the next is due.
    clock: SharedClock,
    origin: (Instant, u64),
    beacon: Mutex<(u64, u64)>,
    state: Mutex<ServiceState>,
    /// Held by the thread running it; see [`Worker::drain`].
    handler: Mutex<MembershipHandler>,
    running: AtomicBool,
    counters: DiscoveryCounters,
}

impl std::fmt::Debug for Worker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Worker")
            .field("cell", &self.cell)
            .field("state", &self.state)
            .finish_non_exhaustive()
    }
}

impl Worker {
    /// The beacon, if one is due, then lease accounting, at the clock's
    /// now; returns the beacons sent and the transitions made.
    fn tick(&self) -> usize {
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
        let mut st = self.state.lock();
        let now = self.now();
        let transitions = st.table.tick(now, self.config.lease, self.config.grace);
        let n = transitions.len();
        self.report(st, transitions.into_iter().map(Report::Change));
        usize::from(beacon) + n
    }

    /// The clock's now on the table's timeline.
    fn now(&self) -> Instant {
        let since = self.clock.now_micros().saturating_sub(self.origin.1);
        self.origin.0 + Duration::from_micros(since)
    }

    /// Reports what was just done to the table under `st`: counts each
    /// change, queues it behind everything done before it, and once `st`
    /// is released hands the queue to the handler.
    fn report(
        &self,
        mut st: MutexGuard<'_, ServiceState>,
        reports: impl IntoIterator<Item = Report>,
    ) {
        for report in reports {
            if let Report::Change(ev) = &report {
                self.counters.count(ev);
                st.in_flight += 1;
            }
            st.unreported.push_back(report);
        }
        drop(st);
        self.drain();
    }

    /// Handles queued reports one at a time, in order — unless another
    /// thread is running the handler, in which case that thread takes
    /// them before it lets go. Never waits for a handler to return.
    fn drain(&self) {
        while let Some(mut handler) = self.handler.try_lock() {
            loop {
                let next = self.state.lock().unreported.pop_front();
                match next {
                    Some(Report::Change(ev)) => {
                        handler(ev);
                        self.state.lock().in_flight -= 1;
                    }
                    Some(Report::Answer(to, answer)) => {
                        let _ = self.channel.send(to, to_shared(&answer));
                    }
                    None => break,
                }
            }
            drop(handler);
            // A report queued while this thread was letting go found the
            // handler taken: it is this thread's to hand over.
            if self.state.lock().unreported.is_empty() {
                return;
            }
        }
    }

    fn handle_at(&self, incoming: Incoming, now: Instant) {
        let from = incoming.from();
        let Ok(packet) = Packet::from_message(incoming.into_payload()) else {
            return;
        };
        match packet {
            Packet::JoinRequest { info, auth_token } => {
                self.handle_join(from, info, &auth_token, now);
            }
            Packet::Heartbeat { member, seq } => {
                let mut st = self.state.lock();
                // Unknown member: stay silent so it rejoins on the next
                // beacon.
                let Some(prev) = st.table.heartbeat(member, now) else {
                    return;
                };
                let recovered = (prev == MemberState::Suspected)
                    .then_some(Report::Change(MembershipEvent::Recovered(member)));
                self.report(st, recovered);
                self.counters.heartbeats.fetch_add(1, Ordering::Relaxed);
                let ack = Packet::HeartbeatAck { seq };
                let _ = self.channel.send_unreliable(from, &to_bytes(&ack));
            }
            Packet::Leave { member, .. } => {
                let mut st = self.state.lock();
                let left = st
                    .table
                    .remove(member)
                    .map(|_| Report::Change(MembershipEvent::Purged(member, PurgeReason::Left)));
                self.report(st, left);
            }
            _ => {}
        }
    }

    fn handle_join(&self, from: ServiceId, mut info: ServiceInfo, token: &[u8], now: Instant) {
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
        let mut st = self.state.lock();
        let joined = (accepted && st.table.admit(info.clone(), now))
            .then_some(Report::Change(MembershipEvent::Joined(info)));
        self.report(
            st,
            joined.into_iter().chain([Report::Answer(from, response)]),
        );
    }
}
