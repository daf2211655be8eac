//! The device-side membership agent.
//!
//! A device (sensor, actuator, nurse's PDA…) runs a [`MemberAgent`]: it
//! listens for discovery beacons, requests admission when it hears a cell,
//! heartbeats to keep its lease alive, notices when the cell stops
//! answering (walked out of range), and automatically rejoins on the next
//! beacon — the paper's scenario of devices "moving in and out of range of
//! the SMC".

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Condvar, Mutex};

use smc_transport::{Incoming, ReliableChannel};
use smc_types::codec::{to_bytes, to_shared};
use smc_types::{CellId, Error, Packet, Result, ServiceId, ServiceInfo, SharedClock};

use crate::service::Ticker;

/// Lifecycle notifications emitted by a [`MemberAgent`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AgentEvent {
    /// Admission to a cell succeeded.
    Joined {
        /// The joined cell.
        cell: CellId,
        /// The cell's discovery endpoint.
        discovery: ServiceId,
    },
    /// A join request was rejected.
    Rejected {
        /// The rejecting cell.
        cell: CellId,
        /// The reason given.
        reason: String,
    },
    /// Contact with the cell was lost (heartbeats unanswered).
    Lost {
        /// The cell contact was lost with.
        cell: CellId,
    },
    /// The agent deliberately left the cell.
    Left {
        /// The departed cell.
        cell: CellId,
    },
}

/// Agent tuning knobs.
#[derive(Debug, Clone)]
pub struct AgentConfig {
    /// Authentication token presented when joining.
    pub auth_token: Vec<u8>,
    /// Consecutive unanswered heartbeats before the cell is declared lost.
    pub max_missed_heartbeats: u32,
    /// Restrict joining to this cell (any cell when `None`).
    pub cell_filter: Option<CellId>,
}

impl Default for AgentConfig {
    fn default() -> Self {
        AgentConfig {
            auth_token: Vec::new(),
            max_missed_heartbeats: 3,
            cell_filter: None,
        }
    }
}

/// Takes the packets the discovery protocol does not consume (bus traffic
/// such as `Deliver` or `SubscribeAck`), called in arrival order on the
/// thread that took the packet off the transport: the channel's receive
/// thread (a step-driven agent: the caller of [`MemberAgent::step`]).
///
/// **Never block on a reply inside a sink.** Until it returns, that
/// thread receives nothing: a sink that calls `RemoteClient::publish` (or
/// `subscribe`, or anything else that waits for an answer from the cell)
/// waits for a message only its own thread can deliver, and times out.
/// Send without waiting (`publish_nowait`) or hand the work to another
/// thread.
pub type PacketSink = Box<dyn FnMut(ServiceId, Packet) + Send>;

/// Where unconsumed packets go: held until the agent's owner installs its
/// sink ([`MemberAgent::set_packet_sink`]), handed straight to it after.
enum Unhandled {
    Held(Vec<(ServiceId, Packet)>),
    Sink(PacketSink),
}

impl std::fmt::Debug for Unhandled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Unhandled::Held(held) => write!(f, "Held({})", held.len()),
            Unhandled::Sink(_) => f.write_str("Sink"),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Searching,
    Joining,
    Member,
}

#[derive(Debug)]
struct AgentState {
    phase: Phase,
    cell: Option<CellId>,
    discovery: Option<ServiceId>,
    bus: Option<ServiceId>,
    lease: Duration,
    next_heartbeat: Instant,
    heartbeat_seq: u64,
    last_acked_seq: u64,
    missed: u32,
}

/// Step-driven state for an agent built with [`MemberAgent::with_clock`].
#[derive(Debug)]
struct ManualAgent {
    worker: AgentWorker,
    clock: SharedClock,
    /// Wall-clock anchor mapping virtual micros onto the `Instant`
    /// timeline the heartbeat schedule uses.
    origin: Instant,
    origin_micros: u64,
}

impl ManualAgent {
    fn virtual_now(&self) -> Instant {
        self.origin
            + Duration::from_micros(self.clock.now_micros().saturating_sub(self.origin_micros))
    }
}

/// The device-side discovery participant.
#[derive(Debug)]
pub struct MemberAgent {
    info: ServiceInfo,
    channel: Arc<ReliableChannel>,
    state: Arc<Mutex<AgentState>>,
    /// Signalled on every transition to [`Phase::Member`].
    joined: Arc<Condvar>,
    events_rx: Receiver<AgentEvent>,
    events_tx: Sender<AgentEvent>,
    unhandled: Arc<Mutex<Unhandled>>,
    running: Arc<AtomicBool>,
    /// The heartbeat timer of a started agent.
    timer: Ticker,
    manual: Option<Mutex<ManualAgent>>,
}

impl MemberAgent {
    /// Starts an agent describing itself as `info` on `channel`.
    ///
    /// The agent's id is always the channel's endpoint id; the id inside
    /// `info` is overwritten.
    pub fn start(
        mut info: ServiceInfo,
        channel: Arc<ReliableChannel>,
        config: AgentConfig,
    ) -> Arc<Self> {
        info.id = channel.local_id();
        let (events_tx, events_rx) = unbounded();
        let unhandled = Arc::new(Mutex::new(Unhandled::Held(Vec::new())));
        let state = Arc::new(Mutex::new(AgentState {
            phase: Phase::Searching,
            cell: None,
            discovery: None,
            bus: None,
            lease: Duration::from_secs(2),
            next_heartbeat: Instant::now(),
            heartbeat_seq: 0,
            last_acked_seq: 0,
            missed: 0,
        }));
        let running = Arc::new(AtomicBool::new(true));
        let joined = Arc::new(Condvar::new());
        let agent = Arc::new(MemberAgent {
            info: info.clone(),
            channel: Arc::clone(&channel),
            state: Arc::clone(&state),
            joined: Arc::clone(&joined),
            events_rx,
            events_tx: events_tx.clone(),
            unhandled: Arc::clone(&unhandled),
            running: Arc::clone(&running),
            timer: Ticker::default(),
            manual: None,
        });
        let worker = Arc::new(AgentWorker {
            info,
            channel,
            config,
            state,
            joined,
            events: events_tx,
            unhandled,
            running,
        });
        // Packets are handled where they are received; the agent's own
        // thread only keeps time.
        let receiving = Arc::clone(&worker);
        worker.channel.set_handler(Box::new(move |incoming| {
            receiving.handle_at(incoming, Instant::now());
        }));
        let name = format!("member-agent-{}", agent.info.id);
        agent.timer.start(name, Duration::from_millis(10), move || {
            let running = worker.running.load(Ordering::SeqCst) && !worker.channel.is_closed();
            if running {
                worker.heartbeat_if_due(Instant::now());
            }
            running
        });
        agent
    }

    /// Builds a **step-driven** agent timed by `clock`.
    ///
    /// No worker thread is spawned: beacons are only noticed and
    /// heartbeats only sent from [`step`], making the agent fully
    /// deterministic under a [`smc_types::ManualClock`].
    ///
    /// [`step`]: MemberAgent::step
    pub fn with_clock(
        mut info: ServiceInfo,
        channel: Arc<ReliableChannel>,
        config: AgentConfig,
        clock: SharedClock,
    ) -> Arc<Self> {
        info.id = channel.local_id();
        let (events_tx, events_rx) = unbounded();
        let unhandled = Arc::new(Mutex::new(Unhandled::Held(Vec::new())));
        let origin = Instant::now();
        let state = Arc::new(Mutex::new(AgentState {
            phase: Phase::Searching,
            cell: None,
            discovery: None,
            bus: None,
            lease: Duration::from_secs(2),
            next_heartbeat: origin,
            heartbeat_seq: 0,
            last_acked_seq: 0,
            missed: 0,
        }));
        let running = Arc::new(AtomicBool::new(true));
        let joined = Arc::new(Condvar::new());
        let worker = AgentWorker {
            info: info.clone(),
            channel: Arc::clone(&channel),
            config,
            state: Arc::clone(&state),
            joined: Arc::clone(&joined),
            events: events_tx.clone(),
            unhandled: Arc::clone(&unhandled),
            running: Arc::clone(&running),
        };
        let origin_micros = clock.now_micros();
        Arc::new(MemberAgent {
            info,
            channel,
            state,
            joined,
            events_rx,
            events_tx,
            unhandled,
            running,
            timer: Ticker::default(),
            manual: Some(Mutex::new(ManualAgent {
                worker,
                clock,
                origin,
                origin_micros,
            })),
        })
    }

    /// Performs one unit of agent work at the injected clock's current
    /// time: sends a heartbeat if one is due and drains every inbound
    /// packet already queued on the channel. Returns the number of
    /// packets and heartbeats processed.
    ///
    /// # Panics
    ///
    /// If the agent was built with [`MemberAgent::start`] (which owns a
    /// worker thread) rather than [`MemberAgent::with_clock`].
    pub fn step(&self) -> usize {
        let drv = self
            .manual
            .as_ref()
            .expect("step() requires an agent built with MemberAgent::with_clock")
            .lock();
        let now = drv.virtual_now();
        let mut work = usize::from(drv.worker.heartbeat_if_due(now));
        while let Ok(incoming) = self.channel.recv(Some(Duration::ZERO)) {
            drv.worker.handle_at(incoming, now);
            work += 1;
        }
        work
    }

    /// The agent's service description (with the transport-derived id).
    pub fn info(&self) -> &ServiceInfo {
        &self.info
    }

    /// The agent's endpoint id.
    pub fn local_id(&self) -> ServiceId {
        self.info.id
    }

    /// Lifecycle notifications.
    pub fn events(&self) -> &Receiver<AgentEvent> {
        &self.events_rx
    }

    /// Installs the sink for packets the discovery protocol does not
    /// consume — one endpoint serves both protocols, as in the paper's
    /// prototype, and the device's bus client is that sink.
    ///
    /// Packets that arrived before this call were held; they go through
    /// `sink` first, in arrival order, before any later packet does (the
    /// receiving thread waits out the hand-over). A second call replaces
    /// the sink. See [`PacketSink`] for what a sink must not do.
    pub fn set_packet_sink(&self, mut sink: PacketSink) {
        let mut unhandled = self.unhandled.lock();
        if let Unhandled::Held(held) = &mut *unhandled {
            for (from, packet) in held.drain(..) {
                sink(from, packet);
            }
        }
        *unhandled = Unhandled::Sink(sink);
    }

    /// The cell's event-bus endpoint, learned from the join response.
    pub fn bus_endpoint(&self) -> Option<ServiceId> {
        let st = self.state.lock();
        if st.phase == Phase::Member {
            st.bus.filter(|b| !b.is_nil())
        } else {
            None
        }
    }

    /// The currently joined cell, if any.
    pub fn cell(&self) -> Option<CellId> {
        let st = self.state.lock();
        if st.phase == Phase::Member {
            st.cell
        } else {
            None
        }
    }

    /// Returns `true` once the agent holds membership of a cell.
    pub fn is_member(&self) -> bool {
        self.state.lock().phase == Phase::Member
    }

    /// Blocks until membership is established or `timeout` elapses.
    ///
    /// # Errors
    ///
    /// [`Error::Timeout`] if no cell admitted the agent in time.
    pub fn wait_joined(&self, timeout: Duration) -> Result<CellId> {
        let deadline = Instant::now() + timeout;
        let mut st = self.state.lock();
        loop {
            if st.phase == Phase::Member {
                return Ok(st.cell.expect("member has a cell"));
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(Error::Timeout);
            }
            self.joined.wait_for(&mut st, left);
        }
    }

    /// Announces departure and stops heartbeating (the graceful path).
    ///
    /// # Errors
    ///
    /// [`Error::NotMember`] if the agent is not currently a member.
    pub fn leave(&self, reason: &str) -> Result<()> {
        let (cell, discovery) = {
            let mut st = self.state.lock();
            if st.phase != Phase::Member {
                return Err(Error::NotMember);
            }
            let cell = st.cell.expect("member has a cell");
            let discovery = st.discovery.expect("member has a discovery endpoint");
            st.phase = Phase::Searching;
            st.cell = None;
            st.discovery = None;
            st.bus = None;
            (cell, discovery)
        };
        let leave = Packet::Leave {
            member: self.local_id(),
            reason: reason.to_owned(),
        };
        let _ = self.channel.send(discovery, to_shared(&leave));
        let _ = self.events_tx.send(AgentEvent::Left { cell });
        Ok(())
    }

    /// Stops the agent, its timer thread and its channel. Membership
    /// state is dropped: a stopped agent is not a member of anything.
    ///
    /// May be called from the packet sink: nothing here waits for the
    /// thread the sink runs on.
    pub fn shutdown(&self) {
        if !self.running.swap(false, Ordering::SeqCst) {
            return;
        }
        self.channel.close();
        self.timer.stop();
        // Drop the sink with whatever it owns (the owner's queues
        // disconnect). A sink that is running — this call came from
        // inside it — is dropped by its caller when it returns.
        if let Some(mut unhandled) = self.unhandled.try_lock() {
            *unhandled = Unhandled::Held(Vec::new());
        }
        let mut st = self.state.lock();
        st.phase = Phase::Searching;
        st.cell = None;
        st.discovery = None;
        st.bus = None;
    }
}

impl Drop for MemberAgent {
    fn drop(&mut self) {
        self.running.store(false, Ordering::SeqCst);
        self.channel.close();
    }
}

#[derive(Debug)]
struct AgentWorker {
    info: ServiceInfo,
    channel: Arc<ReliableChannel>,
    config: AgentConfig,
    state: Arc<Mutex<AgentState>>,
    joined: Arc<Condvar>,
    events: Sender<AgentEvent>,
    unhandled: Arc<Mutex<Unhandled>>,
    running: Arc<AtomicBool>,
}

impl AgentWorker {
    /// Returns `true` if a heartbeat was sent or the cell declared lost.
    fn heartbeat_if_due(&self, now: Instant) -> bool {
        let mut st = self.state.lock();
        if st.phase != Phase::Member || now < st.next_heartbeat {
            return false;
        }
        // Account the previous heartbeat before sending a new one.
        if st.heartbeat_seq > st.last_acked_seq {
            st.missed += 1;
            if st.missed >= self.config.max_missed_heartbeats {
                let cell = st.cell.expect("member has a cell");
                st.phase = Phase::Searching;
                st.cell = None;
                st.discovery = None;
                st.missed = 0;
                drop(st);
                let _ = self.events.send(AgentEvent::Lost { cell });
                return true;
            }
        }
        st.heartbeat_seq += 1;
        let packet = Packet::Heartbeat {
            member: self.info.id,
            seq: st.heartbeat_seq,
        };
        let discovery = st.discovery.expect("member has a discovery endpoint");
        // Heartbeat at a third of the lease so a single loss cannot
        // expire us.
        st.next_heartbeat = now + st.lease / 3;
        drop(st);
        let _ = self.channel.send_unreliable(discovery, &to_bytes(&packet));
        true
    }

    fn handle_at(&self, incoming: Incoming, now: Instant) {
        let from = incoming.from();
        let Ok(packet) = Packet::from_message(incoming.into_payload()) else {
            return;
        };
        match packet {
            Packet::Beacon {
                cell, discovery, ..
            } => {
                if let Some(only) = self.config.cell_filter {
                    if cell != only {
                        return;
                    }
                }
                let mut st = self.state.lock();
                if st.phase == Phase::Searching {
                    st.phase = Phase::Joining;
                    st.cell = Some(cell);
                    st.discovery = Some(discovery);
                    drop(st);
                    let join = Packet::JoinRequest {
                        info: self.info.clone(),
                        auth_token: self.config.auth_token.clone(),
                    };
                    let _ = self.channel.send(discovery, to_shared(&join));
                }
            }
            Packet::JoinResponse {
                accepted,
                reason,
                cell,
                lease_millis,
                bus,
            } => {
                let mut st = self.state.lock();
                if st.phase != Phase::Joining {
                    return;
                }
                if accepted {
                    st.phase = Phase::Member;
                    st.cell = Some(cell);
                    st.discovery = Some(from);
                    st.bus = Some(bus);
                    st.lease = Duration::from_millis(lease_millis.max(30));
                    st.heartbeat_seq = 0;
                    st.last_acked_seq = 0;
                    st.missed = 0;
                    st.next_heartbeat = now + st.lease / 3;
                    // Recorded and announced before the state is released:
                    // whoever sees `Member` acts after `Joined` is queued.
                    let _ = self.events.send(AgentEvent::Joined {
                        cell,
                        discovery: from,
                    });
                    self.joined.notify_all();
                    drop(st);
                } else {
                    st.phase = Phase::Searching;
                    st.cell = None;
                    st.discovery = None;
                    drop(st);
                    let _ = self.events.send(AgentEvent::Rejected { cell, reason });
                }
            }
            Packet::HeartbeatAck { seq } => {
                let mut st = self.state.lock();
                if seq > st.last_acked_seq {
                    st.last_acked_seq = seq;
                    st.missed = 0;
                }
            }
            other => {
                let mut unhandled = self.unhandled.lock();
                match &mut *unhandled {
                    Unhandled::Held(held) => held.push((from, other)),
                    Unhandled::Sink(sink) => sink(from, other),
                }
                // A sink that stopped the agent could not be dropped
                // while it ran ([`MemberAgent::shutdown`]).
                if !self.running.load(Ordering::SeqCst) {
                    *unhandled = Unhandled::Held(Vec::new());
                }
            }
        }
    }
}
