//! The discovery service: beacons, admission, leases, purges.
//!
//! Runs on its own transport endpoint (it is a separate SMC core service
//! in the paper's Figure 1) and reports membership changes over a channel
//! that the cell wiring converts into `New Member` / `Purge Member` events
//! on the bus — the paper is explicit that "the discovery protocol does
//! not use the event bus for monitoring group membership".

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use smc_transport::{Incoming, ReliableChannel};
use smc_types::codec::{to_bytes, to_shared};
use smc_types::{CellId, Error, Packet, PurgeReason, Result, ServiceId, ServiceInfo, SharedClock};

use crate::auth::{AcceptAll, Authenticator};
use crate::membership::{MembershipEvent, MembershipTable};

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
            authenticator: Arc::new(AcceptAll),
            bus_endpoint: ServiceId::NIL,
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

struct ServiceState {
    table: MembershipTable,
    /// See [`DiscoveryService::set_admission_hook`].
    admission: Option<AdmissionHook>,
}

type AdmissionHook = Arc<dyn Fn(&ServiceInfo) + Send + Sync>;

impl std::fmt::Debug for ServiceState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceState")
            .field("table", &self.table)
            .field("admission", &self.admission.is_some())
            .finish()
    }
}

/// Step-driven state for a service built with
/// [`DiscoveryService::with_clock`].
#[derive(Debug)]
struct ManualDriver {
    worker: Worker,
    clock: SharedClock,
    /// Wall-clock anchor mapping virtual micros onto the `Instant`
    /// timeline the membership table uses.
    origin: Instant,
    origin_micros: u64,
    beacon_seq: u64,
    next_beacon_micros: u64,
}

impl ManualDriver {
    fn virtual_now(&self) -> Instant {
        self.origin
            + Duration::from_micros(self.clock.now_micros().saturating_sub(self.origin_micros))
    }
}

/// The discovery service of one self-managed cell.
#[derive(Debug)]
pub struct DiscoveryService {
    cell: CellId,
    channel: Arc<ReliableChannel>,
    config: DiscoveryConfig,
    state: Arc<Mutex<ServiceState>>,
    events_rx: Receiver<MembershipEvent>,
    events_tx: Sender<MembershipEvent>,
    running: Arc<AtomicBool>,
    counters: Arc<DiscoveryCounters>,
    worker: Mutex<Option<std::thread::JoinHandle<()>>>,
    manual: Option<Mutex<ManualDriver>>,
}

impl DiscoveryService {
    /// Starts a discovery service for `cell` on `channel`.
    pub fn start(
        cell: CellId,
        channel: Arc<ReliableChannel>,
        config: DiscoveryConfig,
    ) -> Arc<Self> {
        let (events_tx, events_rx) = unbounded();
        let state = Arc::new(Mutex::new(ServiceState {
            table: MembershipTable::new(),
            admission: None,
        }));
        let running = Arc::new(AtomicBool::new(true));
        let counters = Arc::new(DiscoveryCounters::default());
        let service = Arc::new(DiscoveryService {
            cell,
            channel: Arc::clone(&channel),
            config: config.clone(),
            state: Arc::clone(&state),
            events_rx,
            events_tx: events_tx.clone(),
            running: Arc::clone(&running),
            counters: Arc::clone(&counters),
            worker: Mutex::new(None),
            manual: None,
        });
        let worker = Arc::new(Worker {
            cell,
            channel,
            config,
            state,
            events: events_tx,
            running,
            counters,
        });
        // Requests are answered where they are received; the service's
        // own thread only keeps time (beacons, leases).
        let receiving = Arc::clone(&worker);
        worker.channel.set_handler(Box::new(move |incoming| {
            receiving.handle_at(incoming, Instant::now());
        }));
        let handle = std::thread::Builder::new()
            .name(format!("discovery-{cell}"))
            .spawn(move || worker.run())
            .expect("spawn discovery worker");
        *service.worker.lock() = Some(handle);
        service
    }

    /// Builds a **step-driven** discovery service timed by `clock`.
    ///
    /// No worker thread is spawned: nothing happens until [`step`] is
    /// called, which makes the service fully deterministic under a
    /// [`smc_types::ManualClock`]. Lease and grace accounting advance
    /// with the injected clock, not wall time.
    ///
    /// [`step`]: DiscoveryService::step
    pub fn with_clock(
        cell: CellId,
        channel: Arc<ReliableChannel>,
        config: DiscoveryConfig,
        clock: SharedClock,
    ) -> Arc<Self> {
        let (events_tx, events_rx) = unbounded();
        let state = Arc::new(Mutex::new(ServiceState {
            table: MembershipTable::new(),
            admission: None,
        }));
        let running = Arc::new(AtomicBool::new(true));
        let counters = Arc::new(DiscoveryCounters::default());
        let worker = Worker {
            cell,
            channel: Arc::clone(&channel),
            config: config.clone(),
            state: Arc::clone(&state),
            events: events_tx.clone(),
            running: Arc::clone(&running),
            counters: Arc::clone(&counters),
        };
        let now_micros = clock.now_micros();
        Arc::new(DiscoveryService {
            cell,
            channel,
            config,
            state,
            events_rx,
            events_tx,
            running,
            counters,
            worker: Mutex::new(None),
            manual: Some(Mutex::new(ManualDriver {
                worker,
                clock,
                origin: Instant::now(),
                origin_micros: now_micros,
                beacon_seq: 0,
                next_beacon_micros: now_micros,
            })),
        })
    }

    /// Performs one unit of discovery work at the injected clock's
    /// current time: broadcasts a beacon if one is due, runs lease
    /// accounting, and drains every inbound packet already queued on the
    /// channel. Returns the number of packets, beacons and membership
    /// transitions processed.
    ///
    /// # Panics
    ///
    /// If the service was built with [`DiscoveryService::start`] (which
    /// owns a worker thread) rather than
    /// [`DiscoveryService::with_clock`].
    pub fn step(&self) -> usize {
        let mut drv = self
            .manual
            .as_ref()
            .expect("step() requires a service built with DiscoveryService::with_clock")
            .lock();
        let now_micros = drv.clock.now_micros();
        let mut work = 0;
        if now_micros >= drv.next_beacon_micros {
            drv.beacon_seq += 1;
            let beacon = Packet::Beacon {
                cell: self.cell,
                discovery: self.channel.local_id(),
                seq: drv.beacon_seq,
            };
            let _ = self.channel.broadcast_unreliable(&to_bytes(&beacon));
            drv.next_beacon_micros = now_micros + self.config.beacon_interval.as_micros() as u64;
            work += 1;
        }
        let now = drv.virtual_now();
        let transitions = {
            let mut st = self.state.lock();
            st.table.tick(now, self.config.lease, self.config.grace)
        };
        work += transitions.len();
        for ev in transitions {
            self.counters.count(&ev);
            let _ = self.events_tx.send(ev);
        }
        while let Ok(incoming) = self.channel.recv(Some(Duration::ZERO)) {
            drv.worker.handle_at(incoming, now);
            work += 1;
        }
        work
    }

    /// The cell this service announces.
    pub fn cell(&self) -> CellId {
        self.cell
    }

    /// The timing and admission parameters in force.
    pub fn config(&self) -> &DiscoveryConfig {
        &self.config
    }

    /// The service's own endpoint id.
    pub fn local_id(&self) -> ServiceId {
        self.channel.local_id()
    }

    /// Installs what the owner does to finish admitting a member. It
    /// runs on the thread that received the join request (the channel's
    /// receive thread), after a new member is entered in
    /// the table and **before** its `JoinResponse` is sent — so whatever
    /// it sets up (a proxy, subscriptions on the device's behalf) exists
    /// by the time the device hears it was admitted, and the device may
    /// act on its membership at once. [`MembershipEvent::Joined`] is
    /// still reported afterwards. The answer waits for the hook, so it
    /// should do what admission needs and no more.
    pub fn set_admission_hook(&self, hook: impl Fn(&ServiceInfo) + Send + Sync + 'static) {
        self.state.lock().admission = Some(Arc::new(hook));
    }

    /// The stream of membership changes (joined / suspected / recovered /
    /// purged).
    pub fn events(&self) -> &Receiver<MembershipEvent> {
        &self.events_rx
    }

    /// Snapshot of current members.
    pub fn members(&self) -> Vec<ServiceInfo> {
        self.state.lock().table.snapshot()
    }

    /// The description `id` was admitted under, if it is a member: one
    /// table lookup, whatever the size of the cell.
    pub fn member(&self, id: ServiceId) -> Option<ServiceInfo> {
        self.state.lock().table.get(id).map(|r| r.info.clone())
    }

    /// Returns `true` if `id` is currently a member.
    pub fn is_member(&self, id: ServiceId) -> bool {
        self.state.lock().table.contains(id)
    }

    /// Silently re-admits a member recovered from a durability snapshot
    /// after a core restart: the table entry (and its lease) is recreated
    /// as of now, but **no** `Joined` event is emitted — the membership
    /// never lapsed from the cell's point of view, the process merely
    /// died and came back.
    pub fn restore_member(&self, info: ServiceInfo) {
        let now = match &self.manual {
            Some(driver) => driver.lock().virtual_now(),
            None => Instant::now(),
        };
        self.state.lock().table.admit(info, now);
    }

    /// Silently drops a member from the table: no `Purged` event, no
    /// counter — from the protocol's point of view nothing happened.
    /// This models state corruption (a lost table entry) for the
    /// self-stabilisation tests; only anti-entropy reconciliation
    /// against durable truth brings the member back. Returns `true` if
    /// the entry existed.
    pub fn forget_member(&self, id: ServiceId) -> bool {
        self.state.lock().table.remove(id).is_some()
    }

    /// Forcibly removes a member (operator or policy action).
    ///
    /// # Errors
    ///
    /// [`Error::NotMember`] if `id` is not in the table.
    pub fn evict(&self, id: ServiceId) -> Result<()> {
        let removed = self.state.lock().table.remove(id);
        match removed {
            Some(_) => {
                let ev = MembershipEvent::Purged(id, PurgeReason::Evicted);
                self.counters.count(&ev);
                let _ = self.events_tx.send(ev);
                Ok(())
            }
            None => Err(Error::NotMember),
        }
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

    /// Stops the service, its timer thread and its channel.
    pub fn shutdown(&self) {
        if !self.running.swap(false, Ordering::SeqCst) {
            return;
        }
        self.channel.close();
        if let Some(handle) = self.worker.lock().take() {
            handle.thread().unpark();
            let _ = handle.join();
        }
    }
}

impl Drop for DiscoveryService {
    fn drop(&mut self) {
        self.running.store(false, Ordering::SeqCst);
        self.channel.close();
    }
}

#[derive(Debug)]
struct Worker {
    cell: CellId,
    channel: Arc<ReliableChannel>,
    config: DiscoveryConfig,
    state: Arc<Mutex<ServiceState>>,
    events: Sender<MembershipEvent>,
    running: Arc<AtomicBool>,
    counters: Arc<DiscoveryCounters>,
}

impl Worker {
    /// The service's own thread: the beacon and lease timer, until the
    /// service is stopped or its channel closed under it.
    fn run(&self) {
        let mut beacon_seq: u64 = 0;
        let mut next_beacon = Instant::now();
        let poll = self
            .config
            .beacon_interval
            .min(Duration::from_millis(50))
            .max(Duration::from_millis(5));
        while self.running.load(Ordering::SeqCst) && !self.channel.is_closed() {
            let now = Instant::now();
            if now >= next_beacon {
                beacon_seq += 1;
                let beacon = Packet::Beacon {
                    cell: self.cell,
                    discovery: self.channel.local_id(),
                    seq: beacon_seq,
                };
                let _ = self.channel.broadcast_unreliable(&to_bytes(&beacon));
                next_beacon = now + self.config.beacon_interval;
            }
            // Lease accounting.
            let transitions = {
                let mut st = self.state.lock();
                st.table.tick(now, self.config.lease, self.config.grace)
            };
            for ev in transitions {
                self.counters.count(&ev);
                let _ = self.events.send(ev);
            }
            std::thread::park_timeout(poll);
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
                let prev = self.state.lock().table.heartbeat(member, now);
                match prev {
                    Some(state) => {
                        self.counters.heartbeats.fetch_add(1, Ordering::Relaxed);
                        if state == crate::membership::MemberState::Suspected {
                            let ev = MembershipEvent::Recovered(member);
                            self.counters.count(&ev);
                            let _ = self.events.send(ev);
                        }
                        let ack = Packet::HeartbeatAck { seq };
                        let _ = self.channel.send_unreliable(from, &to_bytes(&ack));
                    }
                    None => {
                        // Unknown member: stay silent so it rejoins on the
                        // next beacon.
                    }
                }
            }
            Packet::Leave { member, .. } => {
                let removed = self.state.lock().table.remove(member);
                if removed.is_some() {
                    let ev = MembershipEvent::Purged(member, PurgeReason::Left);
                    self.counters.count(&ev);
                    let _ = self.events.send(ev);
                }
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
        let response = Packet::JoinResponse {
            accepted,
            reason,
            cell: self.cell,
            lease_millis: self.config.lease.as_millis() as u64,
            bus: self.config.bus_endpoint,
        };
        // Admit before answering: a device that hears it is a member may
        // use its membership at once, so by then the table lists it and
        // the owner has done its part.
        let (is_new, hook) = {
            let mut st = self.state.lock();
            let is_new = accepted && st.table.admit(info.clone(), now);
            (is_new, st.admission.clone())
        };
        if let (true, Some(hook)) = (is_new, hook) {
            hook(&info);
        }
        let _ = self.channel.send(from, to_shared(&response));
        if is_new {
            let ev = MembershipEvent::Joined(info);
            self.counters.count(&ev);
            let _ = self.events.send(ev);
        } else if !accepted {
            self.counters.join_rejects.fetch_add(1, Ordering::Relaxed);
        }
    }
}
