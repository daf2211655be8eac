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
use smc_types::{system_clock, CellId, Error, Packet, Result, ServiceId, ServiceInfo, SharedClock};

use crate::service::{Ticker, Wait};

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
/// The agent's constructor takes it, so it sees every such packet from
/// the first; it is dropped when the agent stops.
///
/// **Never block on a reply inside a sink.** Until it returns, that
/// thread receives nothing: a sink that calls `RemoteClient::publish` (or
/// `subscribe`, or anything else that waits for an answer from the cell)
/// waits for a message only its own thread can deliver, and times out.
/// Send without waiting (`publish_nowait`) or hand the work to another
/// thread.
pub type PacketSink = Box<dyn FnMut(ServiceId, Packet) + Send>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Searching,
    Joining,
    Member,
}

/// Membership as the agent sees it; times are its clock's micros.
#[derive(Debug)]
struct AgentState {
    phase: Phase,
    cell: Option<CellId>,
    discovery: Option<ServiceId>,
    bus: Option<ServiceId>,
    /// A third of the granted lease, rounded up, so a single loss cannot
    /// expire us.
    heartbeat_every: u64,
    next_heartbeat: u64,
    heartbeat_seq: u64,
    last_acked_seq: u64,
    missed: u32,
}

/// The device-side discovery participant.
///
/// It keeps its clock's time: [`MemberAgent::step`] sends a heartbeat if
/// one is due and handles what its channel queued. A
/// [`started`](MemberAgent::start) agent needs no stepping: its
/// channel's receive thread handles each packet as it comes and a timer
/// heartbeats.
pub struct MemberAgent {
    info: ServiceInfo,
    channel: Arc<ReliableChannel>,
    config: AgentConfig,
    clock: SharedClock,
    state: Mutex<AgentState>,
    /// Signalled on every transition to [`Phase::Member`].
    joined: Condvar,
    events_rx: Receiver<AgentEvent>,
    events_tx: Sender<AgentEvent>,
    /// Where unconsumed packets go, until the agent stops.
    sink: Mutex<Option<PacketSink>>,
    running: AtomicBool,
    /// The heartbeat timer of a started agent.
    timer: Ticker,
}

impl std::fmt::Debug for MemberAgent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemberAgent")
            .field("info", &self.info)
            .field("state", &self.state)
            .finish_non_exhaustive()
    }
}

impl MemberAgent {
    /// Starts an agent describing itself as `info` on `channel`, on the
    /// wall clock, handing what discovery does not consume to `sink`: the
    /// channel's receive thread handles packets as they come and a timer
    /// thread heartbeats. Both hold the agent weakly, so dropping its last
    /// handle stops them.
    ///
    /// The agent's id is always the channel's endpoint id; the id inside
    /// `info` is overwritten.
    pub fn start(
        info: ServiceInfo,
        channel: Arc<ReliableChannel>,
        config: AgentConfig,
        sink: PacketSink,
    ) -> Arc<Self> {
        let agent = Self::with_clock(info, channel, config, system_clock(), sink);
        let receiving = Arc::downgrade(&agent);
        agent.channel.set_handler(Box::new(move |incoming| {
            if let Some(agent) = receiving.upgrade() {
                agent.handle_at(incoming, agent.clock.now_micros());
            }
        }));
        let ticking = Arc::downgrade(&agent);
        let name = format!("member-agent-{}", agent.info.id);
        agent.timer.start(name, Duration::from_millis(10), move || {
            let agent = ticking.upgrade()?;
            let running = agent.running.load(Ordering::SeqCst) && !agent.channel.is_closed();
            if running {
                agent.heartbeat_if_due(agent.clock.now_micros());
            }
            running.then_some(Wait::Park)
        });
        agent
    }

    /// Builds a **step-driven** agent timed by `clock`, handing what
    /// discovery does not consume to `sink`.
    ///
    /// No thread is spawned: beacons are only noticed and heartbeats only
    /// sent from [`step`], making the agent fully deterministic under a
    /// [`smc_types::ManualClock`]. The id inside `info` is overwritten
    /// with the channel's, as by [`MemberAgent::start`].
    ///
    /// [`step`]: MemberAgent::step
    pub fn with_clock(
        mut info: ServiceInfo,
        channel: Arc<ReliableChannel>,
        config: AgentConfig,
        clock: SharedClock,
        sink: PacketSink,
    ) -> Arc<Self> {
        info.id = channel.local_id();
        let (events_tx, events_rx) = unbounded();
        Arc::new(MemberAgent {
            info,
            channel,
            config,
            clock,
            state: Mutex::new(AgentState {
                phase: Phase::Searching,
                cell: None,
                discovery: None,
                bus: None,
                heartbeat_every: 0,
                next_heartbeat: 0,
                heartbeat_seq: 0,
                last_acked_seq: 0,
                missed: 0,
            }),
            joined: Condvar::new(),
            events_rx,
            events_tx,
            sink: Mutex::new(Some(sink)),
            running: AtomicBool::new(true),
            timer: Ticker::default(),
        })
    }

    /// Keeps the agent's time at its clock's now: sends a heartbeat if one
    /// is due, then handles every packet its channel has queued (none on a
    /// started agent, whose receive thread takes them). Returns the number
    /// of packets and heartbeats processed.
    pub fn step(&self) -> usize {
        let now = self.clock.now_micros();
        let mut work = usize::from(self.heartbeat_if_due(now));
        while let Some(incoming) = self.channel.try_recv() {
            self.handle_at(incoming, now);
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
        if let Some(mut sink) = self.sink.try_lock() {
            *sink = None;
        }
        let mut st = self.state.lock();
        st.phase = Phase::Searching;
        st.cell = None;
        st.discovery = None;
        st.bus = None;
    }

    /// Returns `true` if a heartbeat was sent or the cell declared lost.
    fn heartbeat_if_due(&self, now: u64) -> bool {
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
                let _ = self.events_tx.send(AgentEvent::Lost { cell });
                return true;
            }
        }
        st.heartbeat_seq += 1;
        let packet = Packet::Heartbeat {
            member: self.info.id,
            seq: st.heartbeat_seq,
        };
        let discovery = st.discovery.expect("member has a discovery endpoint");
        st.next_heartbeat = now.saturating_add(st.heartbeat_every);
        drop(st);
        let _ = self.channel.send_unreliable(discovery, &to_bytes(&packet));
        true
    }

    fn handle_at(&self, incoming: Incoming, now: u64) {
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
                    st.heartbeat_every = lease_millis.max(30).saturating_mul(1000).div_ceil(3);
                    st.heartbeat_seq = 0;
                    st.last_acked_seq = 0;
                    st.missed = 0;
                    st.next_heartbeat = now.saturating_add(st.heartbeat_every);
                    // Recorded and announced before the state is released:
                    // whoever sees `Member` acts after `Joined` is queued.
                    let _ = self.events_tx.send(AgentEvent::Joined {
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
                    let _ = self.events_tx.send(AgentEvent::Rejected { cell, reason });
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
                let mut slot = self.sink.lock();
                if let Some(sink) = slot.as_mut() {
                    sink(from, other);
                }
                // A sink that stopped the agent could not be dropped
                // while it ran ([`MemberAgent::shutdown`]).
                if !self.running.load(Ordering::SeqCst) {
                    *slot = None;
                }
            }
        }
    }
}

impl Drop for MemberAgent {
    fn drop(&mut self) {
        self.channel.close();
    }
}
