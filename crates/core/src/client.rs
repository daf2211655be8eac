//! Device-side bus client.
//!
//! [`RemoteClient`] is what a smart device (a diagnostic station, a
//! nurse's terminal, a self-contained sensor speaking the typed protocol)
//! runs: it joins the cell through a [`MemberAgent`], learns the bus
//! endpoint from the join response, and then publishes, subscribes and
//! receives events over the same reliable channel. Dumb byte-protocol
//! devices use [`RawDevice`] instead and let their cell-side proxy do the
//! translating.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;

use smc_discovery::{AgentConfig, MemberAgent};
use smc_transport::ReliableChannel;
use smc_types::codec::to_shared;
use smc_types::{
    AttributeSet, CellId, Error, Event, EventId, Filter, Packet, Result, ServiceId, ServiceInfo,
    SubscriptionId,
};

/// Replies routed back to a waiting request.
#[derive(Debug, Clone)]
enum Reply {
    PublishAcked,
    Subscribed(SubscriptionId),
    Unsubscribed,
    Advertised(bool),
    Failed(String),
}

#[derive(Debug, Default)]
struct Pending {
    map: HashMap<String, Sender<Reply>>,
}

/// A received management command.
#[derive(Debug, Clone, PartialEq)]
pub struct CommandRequest {
    /// Command name (e.g. `"set-threshold"`).
    pub name: String,
    /// Command arguments.
    pub args: AttributeSet,
}

/// A smart device's connection to a cell's event bus.
#[derive(Debug)]
pub struct RemoteClient {
    agent: Arc<MemberAgent>,
    channel: Arc<ReliableChannel>,
    bus: ServiceId,
    next_seq: AtomicU64,
    next_request: AtomicU64,
    pending: Arc<Mutex<Pending>>,
    events_rx: Receiver<Event>,
    commands_rx: Receiver<CommandRequest>,
    policies_rx: Receiver<Vec<u8>>,
    quenched: Arc<AtomicBool>,
    running: AtomicBool,
}

impl RemoteClient {
    /// Joins a cell and connects to its bus: starts a [`MemberAgent`] on
    /// `channel`, waits up to `join_timeout` for admission, and installs
    /// the packet router as the agent's sink — bus traffic is routed on
    /// the thread that received it (the channel's receive thread), with
    /// no hand-off in between. The router only queues and answers
    /// without waiting; whoever installs a sink of their own must keep to
    /// the same rule ([`smc_discovery::PacketSink`]).
    ///
    /// # Errors
    ///
    /// [`Error::Timeout`] if no cell admitted the device in time;
    /// [`Error::Invalid`] if the cell reported no bus endpoint.
    pub fn connect(
        info: ServiceInfo,
        channel: Arc<ReliableChannel>,
        agent_config: AgentConfig,
        join_timeout: Duration,
    ) -> Result<Arc<Self>> {
        let agent = MemberAgent::start(info, Arc::clone(&channel), agent_config);
        agent.wait_joined(join_timeout)?;
        let bus = agent
            .bus_endpoint()
            .ok_or_else(|| Error::Invalid("cell reported no bus endpoint".into()))?;

        let (events_tx, events_rx) = unbounded();
        let (commands_tx, commands_rx) = unbounded();
        let (policies_tx, policies_rx) = unbounded();
        let pending = Arc::new(Mutex::new(Pending::default()));
        let quenched = Arc::new(AtomicBool::new(false));

        let router = Router {
            channel: Arc::clone(&channel),
            pending: Arc::clone(&pending),
            events: events_tx,
            commands: commands_tx,
            policies: policies_tx,
            quenched: Arc::clone(&quenched),
        };
        agent.set_packet_sink(Box::new(move |from, packet| router.route(from, packet)));

        Ok(Arc::new(RemoteClient {
            agent,
            channel,
            bus,
            next_seq: AtomicU64::new(1),
            next_request: AtomicU64::new(1),
            pending,
            events_rx,
            commands_rx,
            policies_rx,
            quenched,
            running: AtomicBool::new(true),
        }))
    }

    /// This device's id.
    pub fn local_id(&self) -> ServiceId {
        self.channel.local_id()
    }

    /// The joined cell.
    pub fn cell(&self) -> Option<CellId> {
        self.agent.cell()
    }

    /// The cell's bus endpoint.
    pub fn bus_endpoint(&self) -> ServiceId {
        self.bus
    }

    /// The underlying membership agent.
    pub fn agent(&self) -> &Arc<MemberAgent> {
        &self.agent
    }

    /// Stamps and publishes an event, waiting for the bus's acknowledgement
    /// — which the bus sends because this call marks its packet as
    /// waiting for one.
    ///
    /// # Errors
    ///
    /// [`Error::Denied`] if an authorisation policy refused the publish;
    /// [`Error::Timeout`] if no acknowledgement arrived in `timeout`.
    pub fn publish(&self, event: Event, timeout: Duration) -> Result<EventId> {
        let event = self.stamp(event);
        let id = event.id();
        match self.request(id.to_string(), Packet::publish_acked(event), timeout)? {
            Reply::PublishAcked => Ok(id),
            other => Err(unexpected(other)),
        }
    }

    /// Stamps and publishes without asking for an acknowledgement: the
    /// reliable channel guarantees the transfer, and its transport
    /// acknowledgement is the only one the hop pays for. A policy refusal
    /// is counted and traced at the cell, not reported here.
    ///
    /// # Errors
    ///
    /// Propagates channel errors.
    pub fn publish_nowait(&self, event: Event) -> Result<EventId> {
        let event = self.stamp(event);
        let id = event.id();
        self.channel
            .send(self.bus, Packet::publish(event).into_shared())?;
        Ok(id)
    }

    fn stamp(&self, mut event: Event) -> Event {
        if event.seq() == 0 || event.publisher().is_nil() {
            let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
            event.stamp(self.local_id(), seq, now_micros());
        }
        event
    }

    /// Registers a subscription and waits for its id.
    ///
    /// # Errors
    ///
    /// [`Error::Denied`] if refused by policy, [`Error::Timeout`] on no
    /// reply.
    pub fn subscribe(&self, filter: Filter, timeout: Duration) -> Result<SubscriptionId> {
        let request_id = self.next_request.fetch_add(1, Ordering::Relaxed);
        let packet = Packet::Subscribe { request_id, filter };
        match self.request(format!("req:{request_id}"), packet, timeout)? {
            Reply::Subscribed(id) => Ok(id),
            other => Err(unexpected(other)),
        }
    }

    /// Removes a subscription.
    ///
    /// # Errors
    ///
    /// [`Error::Denied`] for unknown ids, [`Error::Timeout`] on no reply.
    pub fn unsubscribe(&self, id: SubscriptionId, timeout: Duration) -> Result<()> {
        match self.request(id.to_string(), Packet::Unsubscribe(id), timeout)? {
            Reply::Unsubscribed => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Advertises what this device publishes; returns whether anyone is
    /// currently interested (quenching).
    ///
    /// # Errors
    ///
    /// [`Error::Timeout`] on no reply.
    pub fn advertise(&self, filter: Filter, timeout: Duration) -> Result<bool> {
        let request_id = self.next_request.fetch_add(1, Ordering::Relaxed);
        let packet = Packet::Advertise { request_id, filter };
        match self.request(format!("req:{request_id}"), packet, timeout)? {
            Reply::Advertised(interested) => {
                self.quenched.store(!interested, Ordering::SeqCst);
                Ok(interested)
            }
            other => Err(unexpected(other)),
        }
    }

    /// Sends `packet` to the bus and waits for the reply the router files
    /// under `key`. Whichever way it fails — the send, the wait, a refusal
    /// — nothing is left waiting in `pending`.
    fn request(&self, key: String, packet: Packet, timeout: Duration) -> Result<Reply> {
        let (tx, rx) = bounded(1);
        self.pending.lock().map.insert(key.clone(), tx);
        let reply = self
            .channel
            .send(self.bus, packet.into_shared())
            .and_then(|()| match rx.recv_timeout(timeout) {
                Ok(Reply::Failed(m)) => Err(Error::Denied(m)),
                Ok(reply) => Ok(reply),
                Err(RecvTimeoutError::Timeout) => Err(Error::Timeout),
                Err(RecvTimeoutError::Disconnected) => Err(Error::Closed),
            });
        if reply.is_err() {
            // (A reply that arrived took its own entry with it.)
            self.pending.lock().map.remove(&key);
        }
        reply
    }

    /// Receives the next delivered event. The bus hears of its arrival
    /// from the reliable channel's acknowledgement and nothing else; no
    /// application-level confirmation is sent for it.
    ///
    /// # Errors
    ///
    /// [`Error::Timeout`] / [`Error::Closed`].
    pub fn next_event(&self, timeout: Duration) -> Result<Event> {
        self.events_rx.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => Error::Timeout,
            RecvTimeoutError::Disconnected => Error::Closed,
        })
    }

    /// Non-blocking event receive.
    pub fn try_next_event(&self) -> Option<Event> {
        self.events_rx.try_recv().ok()
    }

    /// Receives the next management command (already acknowledged).
    ///
    /// # Errors
    ///
    /// [`Error::Timeout`] / [`Error::Closed`].
    pub fn next_command(&self, timeout: Duration) -> Result<CommandRequest> {
        self.commands_rx.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => Error::Timeout,
            RecvTimeoutError::Disconnected => Error::Closed,
        })
    }

    /// Policy bundles deployed to this device (raw bytes; decode with
    /// `smc_policy::PolicySet`).
    pub fn next_policy_bundle(&self, timeout: Duration) -> Result<Vec<u8>> {
        self.policies_rx.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => Error::Timeout,
            RecvTimeoutError::Disconnected => Error::Closed,
        })
    }

    /// Whether the bus has quenched this publisher (no subscriber
    /// overlaps its advertisement). Well-behaved publishers check this
    /// before transmitting — the battery saving the paper cites Elvin
    /// for.
    pub fn is_quenched(&self) -> bool {
        self.quenched.load(Ordering::SeqCst)
    }

    /// Leaves the cell gracefully and stops the client.
    pub fn leave(&self, reason: &str) {
        let _ = self.agent.leave(reason);
        self.shutdown();
    }

    /// Stops the client (without announcing departure — the lease will
    /// expire).
    pub fn shutdown(&self) {
        if !self.running.swap(false, Ordering::SeqCst) {
            return;
        }
        self.agent.shutdown();
        self.channel.close();
    }
}

impl Drop for RemoteClient {
    fn drop(&mut self) {
        self.running.store(false, Ordering::SeqCst);
        self.channel.close();
    }
}

/// The agent's packet sink: routes bus traffic to whoever waits for it.
struct Router {
    channel: Arc<ReliableChannel>,
    pending: Arc<Mutex<Pending>>,
    events: Sender<Event>,
    commands: Sender<CommandRequest>,
    policies: Sender<Vec<u8>>,
    quenched: Arc<AtomicBool>,
}

impl Router {
    /// Hands `reply` to whoever waits under `key`; a reply nobody waits
    /// for (an unsolicited `PublishAck`, an `Error` about a refused
    /// `publish_nowait`) is dropped. The key is built only when somebody
    /// waits at all.
    fn resolve(&self, key: impl FnOnce() -> String, reply: Reply) {
        let mut pending = self.pending.lock();
        if pending.map.is_empty() {
            return;
        }
        if let Some(tx) = pending.map.remove(&key()) {
            let _ = tx.send(reply);
        }
    }

    fn route(&self, from: ServiceId, packet: Packet) {
        match packet {
            Packet::Deliver { event, .. } => {
                // The channel's own acknowledgement tells the bus it
                // arrived; nothing is sent back for it.
                let _ = self.events.send(event);
            }
            Packet::PublishAck(id) => self.resolve(|| id.to_string(), Reply::PublishAcked),
            Packet::SubscribeAck {
                request_id,
                subscription,
            } => {
                self.resolve(
                    || format!("req:{request_id}"),
                    Reply::Subscribed(subscription),
                );
            }
            Packet::UnsubscribeAck(id) => self.resolve(|| id.to_string(), Reply::Unsubscribed),
            Packet::AdvertiseAck {
                request_id,
                interested,
            } => {
                self.quenched.store(!interested, Ordering::SeqCst);
                self.resolve(
                    || format!("req:{request_id}"),
                    Reply::Advertised(interested),
                );
            }
            Packet::Quench { enable } => {
                self.quenched.store(enable, Ordering::SeqCst);
            }
            Packet::Command { target, name, args } => {
                let _ = self.channel.send(
                    from,
                    to_shared(&Packet::CommandAck {
                        target,
                        name: name.clone(),
                    }),
                );
                let _ = self.commands.send(CommandRequest { name, args });
            }
            Packet::PolicyDeploy { payload } => {
                let _ = self.policies.send(payload);
            }
            Packet::Error { about, message } => self.resolve(|| about, Reply::Failed(message)),
            _ => {}
        }
    }
}

/// A dumb byte-protocol device: joins the cell, then exchanges raw frames
/// with its cell-side proxy.
#[derive(Debug)]
pub struct RawDevice {
    agent: Arc<MemberAgent>,
    channel: Arc<ReliableChannel>,
    bus: ServiceId,
    /// Downlink frames, queued by the agent's sink.
    downlink_rx: Receiver<Vec<u8>>,
}

impl RawDevice {
    /// Joins a cell and returns a raw-frame pipe to its proxy.
    ///
    /// # Errors
    ///
    /// [`Error::Timeout`] if no cell admitted the device.
    pub fn connect(
        info: ServiceInfo,
        channel: Arc<ReliableChannel>,
        agent_config: AgentConfig,
        join_timeout: Duration,
    ) -> Result<Self> {
        let agent = MemberAgent::start(info, Arc::clone(&channel), agent_config);
        agent.wait_joined(join_timeout)?;
        let bus = agent
            .bus_endpoint()
            .ok_or_else(|| Error::Invalid("cell reported no bus endpoint".into()))?;
        let (downlink_tx, downlink_rx) = unbounded();
        agent.set_packet_sink(Box::new(move |_, packet| {
            // Other traffic is not for a dumb device.
            if let Packet::Raw(bytes) = packet {
                let _ = downlink_tx.send(bytes);
            }
        }));
        Ok(RawDevice {
            agent,
            channel,
            bus,
            downlink_rx,
        })
    }

    /// The device's id.
    pub fn local_id(&self) -> ServiceId {
        self.channel.local_id()
    }

    /// Sends one raw uplink frame to the proxy, reliably.
    ///
    /// # Errors
    ///
    /// Propagates channel errors.
    pub fn send_raw(&self, frame: &[u8]) -> Result<()> {
        self.channel
            .send(self.bus, to_shared(&Packet::Raw(frame.to_vec())))
    }

    /// Receives the next downlink raw frame from the proxy.
    ///
    /// # Errors
    ///
    /// [`Error::Timeout`] / [`Error::Closed`].
    pub fn recv_raw(&self, timeout: Duration) -> Result<Vec<u8>> {
        self.downlink_rx.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => Error::Timeout,
            RecvTimeoutError::Disconnected => Error::Closed,
        })
    }

    /// Leaves the cell and stops.
    pub fn shutdown(&self) {
        self.agent.shutdown();
        self.channel.close();
    }
}

fn unexpected(reply: Reply) -> Error {
    Error::Invalid(format!("unexpected reply {reply:?}"))
}

fn now_micros() -> u64 {
    use std::time::{SystemTime, UNIX_EPOCH};
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap_or_default()
        .as_micros() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SmcCell, SmcConfig};
    use smc_transport::{LinkConfig, ReliableConfig, SimNetwork};

    /// A request whose send fails leaves no waiter behind for the life of
    /// the client.
    #[test]
    fn failed_send_leaves_nothing_pending() {
        const T: Duration = Duration::from_secs(5);
        let net = SimNetwork::new(LinkConfig::ideal());
        let cell = SmcCell::start(
            Arc::new(net.endpoint()),
            Arc::new(net.endpoint()),
            SmcConfig::fast(),
        );
        let channel = ReliableChannel::new(Arc::new(net.endpoint()), ReliableConfig::default());
        let client = RemoteClient::connect(
            ServiceInfo::new(ServiceId::NIL, "sensor.heart-rate"),
            Arc::clone(&channel),
            AgentConfig::default(),
            T,
        )
        .expect("device joins cell");
        channel.close();

        let closed = |r: Result<()>| assert!(matches!(r, Err(Error::Closed)), "{r:?}");
        closed(client.publish(Event::new("x"), T).map(drop));
        closed(client.subscribe(Filter::for_type("x"), T).map(drop));
        closed(client.unsubscribe(SubscriptionId(1), T));
        closed(client.advertise(Filter::for_type("x"), T).map(drop));
        assert!(client.pending.lock().map.is_empty());
        cell.shutdown();
    }
}
