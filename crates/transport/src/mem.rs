//! In-memory simulated network.
//!
//! The prototype was developed over UDP on a LAN "to mimic the wireless
//! environment"; tests and the figure harnesses here go one step further
//! and simulate the link itself, with configurable latency, jitter, loss,
//! duplication, serial bandwidth and broadcast domains. Partitioning and
//! domain moves emulate devices drifting out of radio range.
//!
//! Endpoints attached to the same [`SimNetwork`] exchange datagrams.
//! All timestamps come from a [`Clock`](smc_types::Clock), so the network runs in one of
//! two modes:
//!
//! * **Real time** ([`SimNetwork::new`] / [`SimNetwork::with_seed`]): a
//!   background timer thread delivers delayed datagrams in deadline
//!   order against a [`SystemClock`].
//! * **Virtual time** ([`SimNetwork::with_clock`]): no thread is
//!   spawned; the owner advances a [`ManualClock`] and calls
//!   [`SimNetwork::pump_due`] to deliver everything whose deadline has
//!   passed. Combined with a fixed seed this makes whole scenarios
//!   bit-identical across runs.
//!
//! With an [ideal link](crate::profile::LinkConfig::ideal) delivery is
//! synchronous, which keeps correctness tests deterministic.
//!
//! [`SystemClock`]: smc_types::SystemClock
//! [`ManualClock`]: smc_types::ManualClock

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::{Condvar, Mutex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use smc_types::{system_clock, Error, Result, ServiceId, SharedClock, Spares};

use crate::profile::LinkConfig;
use crate::transport::{Cork, Datagram, Transport};

/// Counters describing everything the simulated network did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Datagrams accepted from senders.
    pub sent: u64,
    /// Datagrams handed to receivers (duplicates count).
    pub delivered: u64,
    /// Datagrams dropped by the loss model.
    pub lost: u64,
    /// Datagrams dropped because sender and receiver were partitioned or
    /// in different domains.
    pub unreachable: u64,
    /// Extra copies delivered by the duplication model.
    pub duplicated: u64,
    /// Total payload bytes handed to receivers.
    pub bytes_delivered: u64,
    /// Sends that woke the timer thread: only a datagram scheduled ahead
    /// of everything already queued does. Always 0 on an instant link and
    /// on a virtual-time network (which has no timer thread).
    pub timer_wakeups: u64,
}

#[derive(Debug)]
struct Scheduled {
    /// Virtual-time deadline in clock microseconds.
    due: u64,
    seq: u64,
    to: ServiceId,
    datagram: Datagram,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due, self.seq).cmp(&(other.due, other.seq))
    }
}

#[derive(Debug)]
struct Endpoint {
    sender: Sender<Datagram>,
    domain: u32,
    /// The buffers the endpoint's receiver gave back, for `transmit` to
    /// fill.
    spares: Spares,
}

#[derive(Debug)]
struct NetState {
    endpoints: HashMap<ServiceId, Endpoint>,
    default_link: LinkConfig,
    links: HashMap<(ServiceId, ServiceId), LinkConfig>,
    busy_until: HashMap<(ServiceId, ServiceId), u64>,
    partitioned: HashSet<(ServiceId, ServiceId)>,
    queue: BinaryHeap<Reverse<Scheduled>>,
    next_seq: u64,
    next_host: u32,
    closed: bool,
    stats: NetStats,
}

#[derive(Debug)]
struct NetInner {
    state: Mutex<NetState>,
    timer_cv: Condvar,
    rng: Mutex<StdRng>,
    /// Mirror of `state.default_link.mtu`, so `max_datagram` — asked once
    /// per reliable send — takes no lock.
    default_mtu: AtomicUsize,
    clock: SharedClock,
    /// In manual mode no timer thread runs; the owner pumps deliveries.
    manual: bool,
}

/// A simulated network that [`MemTransport`] endpoints attach to.
///
/// ```
/// use smc_transport::{LinkConfig, SimNetwork, Transport};
///
/// let net = SimNetwork::new(LinkConfig::ideal());
/// let a = net.endpoint();
/// let b = net.endpoint();
/// a.send(b.local_id(), b"hello")?;
/// let got = b.recv(Some(std::time::Duration::from_secs(1)))?;
/// assert_eq!(got.payload, b"hello");
/// assert_eq!(got.from, a.local_id());
/// # Ok::<(), smc_types::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct SimNetwork {
    inner: Arc<NetInner>,
}

impl SimNetwork {
    /// Creates a network whose links default to `default_link`, seeded
    /// from entropy.
    pub fn new(default_link: LinkConfig) -> Self {
        SimNetwork::with_seed(default_link, rand::random())
    }

    /// Creates a network with a deterministic random seed (loss, jitter
    /// and duplication become reproducible).
    pub fn with_seed(default_link: LinkConfig, seed: u64) -> Self {
        let net = SimNetwork::build(default_link, seed, system_clock(), false);
        let timer_inner = Arc::clone(&net.inner);
        std::thread::Builder::new()
            .name("simnet-timer".into())
            .spawn(move || timer_loop(timer_inner))
            .expect("spawn simnet timer thread");
        net
    }

    /// Creates a virtual-time network driven by `clock`.
    ///
    /// No timer thread is spawned: delayed datagrams sit in the deadline
    /// queue until the owner advances the clock and calls [`pump_due`].
    /// Everything random (loss, jitter, duplication) is drawn from the
    /// seeded generator in call order, so one thread stepping the network
    /// reproduces a scenario bit-for-bit from `(seed, script)`.
    ///
    /// [`pump_due`]: SimNetwork::pump_due
    pub fn with_clock(default_link: LinkConfig, seed: u64, clock: SharedClock) -> Self {
        SimNetwork::build(default_link, seed, clock, true)
    }

    fn build(default_link: LinkConfig, seed: u64, clock: SharedClock, manual: bool) -> Self {
        let inner = Arc::new(NetInner {
            default_mtu: AtomicUsize::new(default_link.mtu),
            state: Mutex::new(NetState {
                endpoints: HashMap::new(),
                default_link,
                links: HashMap::new(),
                busy_until: HashMap::new(),
                partitioned: HashSet::new(),
                queue: BinaryHeap::new(),
                next_seq: 0,
                next_host: 1,
                closed: false,
                stats: NetStats::default(),
            }),
            timer_cv: Condvar::new(),
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            clock,
            manual,
        });
        SimNetwork { inner }
    }

    /// The clock this network schedules against.
    pub fn clock(&self) -> SharedClock {
        Arc::clone(&self.inner.clock)
    }

    /// Delivers every queued datagram whose deadline has passed, in
    /// deadline order. Returns the number delivered.
    ///
    /// This is how virtual-time networks ([`SimNetwork::with_clock`])
    /// make progress; calling it on a real-time network is harmless (the
    /// timer thread usually wins the race).
    pub fn pump_due(&self) -> usize {
        let now = self.inner.clock.now_micros();
        let mut delivered = 0;
        loop {
            let mut st = self.inner.state.lock();
            let due = st.queue.peek().is_some_and(|Reverse(next)| next.due <= now);
            if !due || st.closed {
                return delivered;
            }
            let Reverse(item) = st.queue.pop().expect("peeked item present");
            let handover = deliver(&mut st, item.to, item.datagram);
            drop(st);
            if let Some(handover) = handover {
                handover.complete();
            }
            delivered += 1;
        }
    }

    /// Deadline of the earliest queued datagram, if any (clock micros).
    ///
    /// Virtual-time drivers use this to jump the clock straight to the
    /// next interesting moment instead of ticking blindly.
    pub fn next_due_micros(&self) -> Option<u64> {
        self.inner.state.lock().queue.peek().map(|Reverse(s)| s.due)
    }

    /// Attaches a new endpoint with an auto-assigned identifier.
    pub fn endpoint(&self) -> MemTransport {
        let id = {
            let mut st = self.inner.state.lock();
            let host = st.next_host;
            st.next_host += 1;
            ServiceId::from_addr_port(Ipv4Addr::from(0x0A00_0000 | host), 4000)
        };
        self.endpoint_with_id(id)
    }

    /// Attaches a new endpoint with a caller-chosen identifier.
    ///
    /// # Panics
    ///
    /// Panics if the identifier is already attached.
    pub fn endpoint_with_id(&self, id: ServiceId) -> MemTransport {
        self.attach(id)
            .unwrap_or_else(|_| panic!("endpoint {id} already attached"))
    }

    /// Attaches `id`, unless an endpoint holds it.
    fn attach(&self, id: ServiceId) -> Result<MemTransport> {
        let mut st = self.inner.state.lock();
        if st.endpoints.contains_key(&id) {
            return Err(Error::Invalid(format!("endpoint {id} already attached")));
        }
        let (tx, rx) = unbounded();
        let spares = Spares::default();
        st.endpoints.insert(
            id,
            Endpoint {
                sender: tx,
                domain: 0,
                spares: spares.clone(),
            },
        );
        Ok(MemTransport {
            net: self.clone(),
            id,
            rx,
            spares,
            closed: AtomicBool::new(false),
        })
    }

    /// Overrides the link configuration for the directed pair `from → to`.
    pub fn set_link(&self, from: ServiceId, to: ServiceId, link: LinkConfig) {
        self.inner.state.lock().links.insert((from, to), link);
    }

    /// Overrides the link configuration in both directions.
    pub fn set_link_between(&self, a: ServiceId, b: ServiceId, link: LinkConfig) {
        let mut st = self.inner.state.lock();
        st.links.insert((a, b), link.clone());
        st.links.insert((b, a), link);
    }

    /// Replaces the default link configuration for pairs without an
    /// override.
    pub fn set_default_link(&self, link: LinkConfig) {
        let mut st = self.inner.state.lock();
        self.inner.default_mtu.store(link.mtu, Ordering::SeqCst);
        st.default_link = link;
    }

    /// Partitions (or heals) the pair `a ↔ b`. Partitioned endpoints drop
    /// all traffic between each other, emulating radio silence.
    pub fn set_partitioned(&self, a: ServiceId, b: ServiceId, partitioned: bool) {
        let mut st = self.inner.state.lock();
        if partitioned {
            st.partitioned.insert((a, b));
            st.partitioned.insert((b, a));
        } else {
            st.partitioned.remove(&(a, b));
            st.partitioned.remove(&(b, a));
        }
    }

    /// Moves an endpoint to a broadcast domain (0 is the default). Traffic
    /// only flows within a domain — a device "out of range" sits alone in
    /// its own domain.
    pub fn set_domain(&self, id: ServiceId, domain: u32) {
        let mut st = self.inner.state.lock();
        if let Some(ep) = st.endpoints.get_mut(&id) {
            ep.domain = domain;
        }
    }

    /// A snapshot of the network counters.
    pub fn stats(&self) -> NetStats {
        self.inner.state.lock().stats.clone()
    }

    /// Number of attached endpoints.
    pub fn endpoint_count(&self) -> usize {
        self.inner.state.lock().endpoints.len()
    }

    /// Shuts the whole network down; all endpoints see `Closed`.
    pub fn shutdown(&self) {
        let mut st = self.inner.state.lock();
        st.closed = true;
        st.endpoints.clear();
        st.queue.clear();
        self.inner.timer_cv.notify_all();
    }

    fn detach(&self, id: ServiceId) {
        self.inner.state.lock().endpoints.remove(&id);
    }

    /// Core send path shared by unicast and broadcast.
    fn transmit(
        &self,
        from: ServiceId,
        to: ServiceId,
        payload: &[u8],
        broadcast: bool,
    ) -> Result<()> {
        let now = self.inner.clock.now_micros();
        let mut st = self.inner.state.lock();
        if st.closed {
            return Err(Error::Closed);
        }
        st.stats.sent += 1;
        // Reachability: both partitions and domain mismatches silently eat
        // the datagram, exactly like radio out-of-range.
        let home = {
            let src_domain = st.endpoints.get(&from).map(|e| e.domain);
            match (src_domain, st.endpoints.get(&to)) {
                (Some(sd), Some(ep))
                    if ep.domain == sd && !st.partitioned.contains(&(from, to)) =>
                {
                    Some(ep.spares.clone())
                }
                _ => None,
            }
        };
        let Some(home) = home else {
            st.stats.unreachable += 1;
            return Ok(());
        };
        let NetState {
            links,
            default_link,
            busy_until,
            stats,
            ..
        } = &mut *st;
        let link = links.get(&(from, to)).unwrap_or(default_link);
        if payload.len() > link.mtu {
            return Err(Error::Invalid(format!(
                "payload of {} bytes exceeds link mtu {}",
                payload.len(),
                link.mtu
            )));
        }
        // A link that draws nothing takes no lock for it; the sequence of
        // draws is the same either way.
        let draws = link.loss > 0.0 || link.duplicate > 0.0 || !link.jitter.is_zero();
        let (lost, duplicated, jitter_micros) = if !draws {
            (false, false, 0)
        } else {
            let mut rng = self.inner.rng.lock();
            let lost = link.loss > 0.0 && rng.gen_bool(link.loss.min(1.0));
            let duplicated = link.duplicate > 0.0 && rng.gen_bool(link.duplicate.min(1.0));
            let jitter_micros = if link.jitter.is_zero() {
                0
            } else {
                rng.gen_range(0..=link.jitter.as_micros() as u64)
            };
            (lost, duplicated, jitter_micros)
        };
        if lost {
            stats.lost += 1;
            return Ok(());
        }

        // Serial-link pacing: a directed link transmits one datagram at a
        // time at its configured bandwidth.
        let deliver_at = if link.is_instant() {
            now
        } else {
            let tx_micros = link.transmission_time(payload.len()).as_micros() as u64;
            let busy = busy_until.entry((from, to)).or_insert(now);
            let start = (*busy).max(now);
            *busy = start + tx_micros;
            start + tx_micros + link.latency.as_micros() as u64 + jitter_micros
        };

        // Each copy in a buffer its receiver gave back, if one has room.
        let mut wake = false;
        let copy = if duplicated {
            stats.duplicated += 1;
            let copy = Datagram {
                from,
                payload: home.copy(payload),
                broadcast,
            };
            self.dispatch(&mut st, now, deliver_at, to, copy, &mut wake)
        } else {
            None
        };
        let datagram = Datagram {
            from,
            payload: home.copy(payload),
            broadcast,
        };
        let original = self.dispatch(&mut st, now, deliver_at, to, datagram, &mut wake);
        drop(st);
        for handover in [copy, original].into_iter().flatten() {
            handover.complete();
        }
        if wake {
            self.inner.timer_cv.notify_all();
        }
        Ok(())
    }

    /// Hands `datagram` over now — returned, for the caller to complete
    /// once it has released the lock — or queues it for its deadline.
    /// Sets `wake` if the timer thread must be woken: only when this
    /// became the earliest deadline — anything later the thread reaches on
    /// its own — and never on a manual network, which has no timer thread.
    fn dispatch(
        &self,
        st: &mut NetState,
        now: u64,
        deliver_at: u64,
        to: ServiceId,
        datagram: Datagram,
        wake: &mut bool,
    ) -> Option<Handover> {
        if deliver_at <= now {
            return deliver(st, to, datagram);
        }
        let seq = st.next_seq;
        st.next_seq += 1;
        st.queue.push(Reverse(Scheduled {
            due: deliver_at,
            seq,
            to,
            datagram,
        }));
        let earliest =
            !self.inner.manual && st.queue.peek().is_some_and(|Reverse(head)| head.seq == seq);
        st.stats.timer_wakeups += u64::from(earliest);
        *wake |= earliest;
        None
    }
}

/// A datagram on its way into an endpoint's queue. It is counted under
/// the network lock and handed over after the lock is released: pushing
/// it wakes the receiving thread, which on one core preempts the sender —
/// and, were the lock still held, would block on it at its first send.
struct Handover {
    sender: Sender<Datagram>,
    datagram: Datagram,
}

impl Handover {
    /// Pushes the datagram now, or — on a thread holding a [`Cork`] —
    /// when the outermost cork ends ([`release_held`]).
    fn complete(self) {
        if Cork::held() {
            HELD.with_borrow_mut(|held| held.push(self));
        } else {
            // A closed receiver just drops the datagram.
            let _ = self.sender.send(self.datagram);
        }
    }
}

thread_local! {
    /// The hand-overs this thread's cork holds, in the order they were
    /// made. Drained, never shrunk: the buffer is reused.
    static HELD: RefCell<Vec<Handover>> = const { RefCell::new(Vec::new()) };
}

/// Completes every hand-over this thread's cork held, in order: one
/// queue push per run of consecutive hand-overs to one endpoint.
pub(crate) fn release_held() {
    HELD.with_borrow_mut(|held| {
        let mut held = held.drain(..).peekable();
        while let Some(Handover { sender, datagram }) = held.next() {
            // The run's other senders are clones of `sender`, which
            // outlives the push: dropping them inside it (under the
            // queue's lock) never drops the channel's last sender.
            let run = std::iter::from_fn(|| {
                held.next_if(|next| next.sender.same_channel(&sender))
                    .map(|next| next.datagram)
            });
            // A closed receiver just drops the datagrams.
            let _ = sender.send_all(std::iter::once(datagram).chain(run));
        }
    });
}

/// Counts the delivery of `datagram` to `to` and returns its hand-over;
/// `None` when `to` has detached.
fn deliver(st: &mut NetState, to: ServiceId, datagram: Datagram) -> Option<Handover> {
    let Some(ep) = st.endpoints.get(&to) else {
        st.stats.unreachable += 1;
        return None;
    };
    st.stats.bytes_delivered += datagram.payload.len() as u64;
    st.stats.delivered += 1;
    Some(Handover {
        sender: ep.sender.clone(),
        datagram,
    })
}

fn timer_loop(inner: Arc<NetInner>) {
    let mut st = inner.state.lock();
    loop {
        if st.closed {
            return;
        }
        match st.queue.peek() {
            None => {
                inner.timer_cv.wait(&mut st);
            }
            Some(Reverse(next)) => {
                let due = next.due;
                let now = inner.clock.now_micros();
                if due <= now {
                    let Reverse(item) = st.queue.pop().expect("peeked item present");
                    let handover = deliver(&mut st, item.to, item.datagram);
                    drop(st);
                    if let Some(handover) = handover {
                        handover.complete();
                    }
                    st = inner.state.lock();
                } else {
                    inner
                        .timer_cv
                        .wait_for(&mut st, Duration::from_micros(due - now));
                }
            }
        }
    }
}

/// A [`Transport`] endpoint attached to a [`SimNetwork`].
#[derive(Debug)]
pub struct MemTransport {
    net: SimNetwork,
    id: ServiceId,
    rx: Receiver<Datagram>,
    spares: Spares,
    closed: AtomicBool,
}

impl MemTransport {
    /// The network this endpoint is attached to.
    pub fn network(&self) -> &SimNetwork {
        &self.net
    }

    /// How many buffers of received datagrams, given back when they were
    /// dropped, this endpoint holds for its link to fill: at most
    /// [`SPARE_BUFFERS`](crate::SPARE_BUFFERS).
    pub fn spare_buffers(&self) -> usize {
        self.spares.len()
    }

    /// The capacity of each buffer [`MemTransport::spare_buffers`]
    /// counts: none over [`MAX_SPARE_LEN`](smc_types::MAX_SPARE_LEN).
    pub fn spare_rooms(&self) -> Vec<usize> {
        self.spares.rooms()
    }
}

impl Transport for MemTransport {
    fn local_id(&self) -> ServiceId {
        self.id
    }

    fn send(&self, to: ServiceId, payload: &[u8]) -> Result<()> {
        if self.closed.load(Ordering::SeqCst) {
            return Err(Error::Closed);
        }
        self.net.transmit(self.id, to, payload, false)
    }

    fn broadcast(&self, payload: &[u8]) -> Result<()> {
        if self.closed.load(Ordering::SeqCst) {
            return Err(Error::Closed);
        }
        let mut peers: Vec<ServiceId> = {
            let st = self.net.inner.state.lock();
            st.endpoints
                .keys()
                .copied()
                .filter(|&id| id != self.id)
                .collect()
        };
        // Sorted delivery order: each transmit consumes draws from the
        // seeded rng, so fan-out order must not depend on hash-map layout
        // for runs to be reproducible.
        peers.sort_unstable();
        for peer in peers {
            self.net.transmit(self.id, peer, payload, true)?;
        }
        Ok(())
    }

    fn recv(&self, timeout: Option<Duration>) -> Result<Datagram> {
        if self.closed.load(Ordering::SeqCst) {
            return Err(Error::Closed);
        }
        match timeout {
            Some(t) => self.rx.recv_timeout(t).map_err(|e| match e {
                RecvTimeoutError::Timeout => Error::Timeout,
                RecvTimeoutError::Disconnected => Error::Closed,
            }),
            None => self.rx.recv().map_err(|_| Error::Closed),
        }
    }

    fn max_datagram(&self) -> usize {
        self.net.inner.default_mtu.load(Ordering::SeqCst)
    }

    fn close(&self) {
        if !self.closed.swap(true, Ordering::SeqCst) {
            self.net.detach(self.id);
        }
    }

    /// Re-attaches this endpoint's id to its network.
    fn reopen(&self) -> Result<Arc<dyn Transport>> {
        Ok(Arc::new(self.net.attach(self.id)?))
    }
}

impl Drop for MemTransport {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    use smc_types::{Clock, ManualClock};

    const TICK: Duration = Duration::from_secs(2);

    #[test]
    fn virtual_time_pump_delivers_on_deadline() {
        let clock = Arc::new(ManualClock::new());
        let net = SimNetwork::with_clock(
            LinkConfig::ideal().with_latency(Duration::from_millis(30)),
            7,
            clock.clone(),
        );
        let a = net.endpoint();
        let b = net.endpoint();
        a.send(b.local_id(), b"x").unwrap();
        // Not due yet: nothing to pump, nothing delivered.
        assert_eq!(net.pump_due(), 0);
        assert!(matches!(b.recv(Some(Duration::ZERO)), Err(Error::Timeout)));
        let due = net.next_due_micros().expect("queued datagram");
        assert_eq!(due, 30_000);
        clock.set_micros(due);
        assert_eq!(net.pump_due(), 1);
        assert_eq!(b.recv(Some(Duration::ZERO)).unwrap().payload, b"x");
    }

    #[test]
    fn virtual_time_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let clock = Arc::new(ManualClock::new());
            let link = LinkConfig::ideal()
                .with_loss(0.3)
                .with_duplicates(0.2)
                .with_latency(Duration::from_millis(5));
            let net = SimNetwork::with_clock(link, seed, clock.clone());
            let a = net.endpoint();
            let b = net.endpoint();
            let mut trace = Vec::new();
            for i in 0..50u8 {
                a.send(b.local_id(), &[i]).unwrap();
                clock.advance_millis(10);
                net.pump_due();
                while let Ok(d) = b.recv(Some(Duration::ZERO)) {
                    trace.push((clock.now_micros(), d.payload));
                }
            }
            (trace, net.stats())
        };
        let (t1, s1) = run(99);
        let (t2, s2) = run(99);
        assert_eq!(t1, t2);
        assert_eq!(s1, s2);
        let (t3, _) = run(100);
        assert_ne!(t1, t3, "different seeds should differ");
    }

    #[test]
    fn unicast_ideal_link() {
        let net = SimNetwork::new(LinkConfig::ideal());
        let a = net.endpoint();
        let b = net.endpoint();
        a.send(b.local_id(), b"hi").unwrap();
        let d = b.recv(Some(TICK)).unwrap();
        assert_eq!(d.payload, b"hi");
        assert_eq!(d.from, a.local_id());
        assert!(!d.broadcast);
        assert!(matches!(
            a.recv(Some(Duration::from_millis(10))),
            Err(Error::Timeout)
        ));
    }

    #[test]
    fn broadcast_reaches_all_but_sender() {
        let net = SimNetwork::new(LinkConfig::ideal());
        let a = net.endpoint();
        let b = net.endpoint();
        let c = net.endpoint();
        a.broadcast(b"beacon").unwrap();
        for ep in [&b, &c] {
            let d = ep.recv(Some(TICK)).unwrap();
            assert!(d.broadcast);
            assert_eq!(d.payload, b"beacon");
        }
        assert!(matches!(
            a.recv(Some(Duration::from_millis(10))),
            Err(Error::Timeout)
        ));
    }

    #[test]
    fn latency_delays_delivery() {
        let net = SimNetwork::new(LinkConfig::ideal().with_latency(Duration::from_millis(30)));
        let a = net.endpoint();
        let b = net.endpoint();
        let start = Instant::now();
        a.send(b.local_id(), b"x").unwrap();
        let _ = b.recv(Some(TICK)).unwrap();
        assert!(
            start.elapsed() >= Duration::from_millis(25),
            "{:?}",
            start.elapsed()
        );
    }

    #[test]
    fn instant_link_never_wakes_the_timer() {
        let net = SimNetwork::new(LinkConfig::ideal());
        let a = net.endpoint();
        let b = net.endpoint();
        for i in 0..1000u32 {
            a.send(b.local_id(), &i.to_le_bytes()).unwrap();
        }
        for i in 0..1000u32 {
            assert_eq!(b.recv(Some(TICK)).unwrap().payload, i.to_le_bytes());
        }
        assert_eq!(net.stats().timer_wakeups, 0);
    }

    /// A datagram is handed over after the network lock is released, so
    /// sends from several threads may reach a queue in another order than
    /// they took the lock — but never one thread's out of its own order.
    #[test]
    fn concurrent_senders_keep_their_own_order_on_an_instant_link() {
        const THREADS: u8 = 4;
        const EACH: u32 = 2_000;
        let net = SimNetwork::new(LinkConfig::ideal());
        let a = net.endpoint();
        let receivers = [net.endpoint(), net.endpoint()];
        std::thread::scope(|s| {
            for thread in 0..THREADS {
                let (a, receivers) = (&a, &receivers);
                s.spawn(move || {
                    for i in 0..EACH {
                        let to = receivers[i as usize % 2].local_id();
                        let mut payload = vec![thread];
                        payload.extend_from_slice(&i.to_le_bytes());
                        a.send(to, &payload).unwrap();
                    }
                });
            }
        });
        for (r, receiver) in receivers.iter().enumerate() {
            let mut next = [r as u32; THREADS as usize];
            for _ in 0..THREADS as u32 * EACH / 2 {
                let d = receiver.recv(Some(TICK)).unwrap();
                let thread = d.payload[0] as usize;
                let i = u32::from_le_bytes(d.payload[1..].try_into().unwrap());
                assert_eq!(i, next[thread], "receiver {r}, thread {thread}");
                next[thread] += 2;
            }
            assert!(matches!(
                receiver.recv(Some(Duration::ZERO)),
                Err(Error::Timeout)
            ));
        }
        let stats = net.stats();
        assert_eq!(stats.delivered, u64::from(THREADS as u32 * EACH));
        assert_eq!(stats.timer_wakeups, 0);
    }

    fn try_recv(ep: &MemTransport) -> Option<Vec<u8>> {
        ep.recv(Some(Duration::ZERO))
            .ok()
            .map(|d| d.payload.into_vec())
    }

    #[test]
    fn an_uncorked_send_is_handed_over_at_once() {
        let net = SimNetwork::new(LinkConfig::ideal());
        let (a, b) = (net.endpoint(), net.endpoint());
        a.send(b.local_id(), b"now").unwrap();
        assert_eq!(try_recv(&b).as_deref(), Some(&b"now"[..]));
    }

    /// Held datagrams are counted as delivered at once, but reach the
    /// queue — all of them, in order — only when the cork ends.
    #[test]
    fn nothing_reaches_the_receiver_inside_the_cork() {
        let net = SimNetwork::new(LinkConfig::ideal());
        let (a, b) = (net.endpoint(), net.endpoint());
        {
            let _cork = Cork::hold();
            for i in 0..4u8 {
                a.send(b.local_id(), &[i]).unwrap();
            }
            assert_eq!(net.stats().delivered, 4);
            assert!(matches!(b.recv(Some(Duration::ZERO)), Err(Error::Timeout)));
        }
        assert_eq!(b.rx.len(), 4, "in the queue together");
        for i in 0..4u8 {
            assert_eq!(try_recv(&b), Some(vec![i]));
        }
    }

    #[test]
    fn nested_corks_hand_over_once_at_the_outermost_exit() {
        let net = SimNetwork::new(LinkConfig::ideal());
        let (a, b) = (net.endpoint(), net.endpoint());
        let outer = Cork::hold();
        a.send(b.local_id(), b"outer").unwrap();
        {
            let _inner = Cork::hold();
            a.send(b.local_id(), b"inner").unwrap();
        }
        assert_eq!(b.rx.len(), 0, "the inner cork's end hands nothing over");
        assert_eq!(HELD.with_borrow(Vec::len), 2);
        drop(outer);
        assert_eq!(HELD.with_borrow(Vec::len), 0);
        assert_eq!(try_recv(&b).as_deref(), Some(&b"outer"[..]));
        assert_eq!(try_recv(&b).as_deref(), Some(&b"inner"[..]));
    }

    #[test]
    fn interleaved_sends_under_one_cork_keep_each_endpoints_order() {
        let net = SimNetwork::new(LinkConfig::ideal());
        let a = net.endpoint();
        let receivers = [net.endpoint(), net.endpoint()];
        {
            let _cork = Cork::hold();
            for i in 0..10u8 {
                a.send(receivers[i as usize % 2].local_id(), &[i]).unwrap();
            }
        }
        for (r, receiver) in receivers.iter().enumerate() {
            let got: Vec<u8> = std::iter::from_fn(|| try_recv(receiver))
                .map(|p| p[0])
                .collect();
            let sent: Vec<u8> = (0..10).filter(|i| *i as usize % 2 == r).collect();
            assert_eq!(got, sent, "receiver {r}");
        }
    }

    #[test]
    fn a_panic_inside_the_cork_still_hands_over_what_was_held() {
        let net = SimNetwork::new(LinkConfig::ideal());
        let (a, b) = (net.endpoint(), net.endpoint());
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _cork = Cork::hold();
            a.send(b.local_id(), b"held").unwrap();
            panic!("inside the cork");
        }));
        assert!(unwound.is_err());
        assert!(!Cork::held());
        assert_eq!(try_recv(&b).as_deref(), Some(&b"held"[..]));
    }

    #[test]
    fn only_a_new_earliest_deadline_wakes_the_timer() {
        let net = SimNetwork::new(LinkConfig::ideal());
        let a = net.endpoint();
        let slow = net.endpoint();
        let fast = net.endpoint();
        let delayed = |ms| LinkConfig::ideal().with_latency(Duration::from_millis(ms));
        net.set_link(a.local_id(), slow.local_id(), delayed(400));
        net.set_link(a.local_id(), fast.local_id(), delayed(20));

        // The timer parks until the slow datagram's deadline; the fast one,
        // queued behind it, must pre-empt that wait.
        let start = Instant::now();
        a.send(slow.local_id(), b"slow").unwrap();
        a.send(fast.local_id(), b"fast").unwrap();
        assert_eq!(net.stats().timer_wakeups, 2);
        assert_eq!(fast.recv(Some(TICK)).unwrap().payload, b"fast");
        let fast_at = start.elapsed();
        assert!(
            fast_at >= Duration::from_millis(15) && fast_at < Duration::from_millis(300),
            "fast datagram arrived after {fast_at:?}"
        );
        // A later deadline behind an earlier one needs no wake-up, and the
        // timer still reaches both on time.
        a.send(slow.local_id(), b"slower").unwrap();
        assert_eq!(net.stats().timer_wakeups, 2);
        assert_eq!(slow.recv(Some(TICK)).unwrap().payload, b"slow");
        assert!(start.elapsed() >= Duration::from_millis(395));
        assert_eq!(slow.recv(Some(TICK)).unwrap().payload, b"slower");
    }

    #[test]
    fn bandwidth_paces_back_to_back_sends() {
        let mut link = LinkConfig::ideal();
        link.bandwidth_bytes_per_sec = Some(100_000); // 10 µs per byte
        link.per_packet_overhead = 0;
        let net = SimNetwork::new(link);
        let a = net.endpoint();
        let b = net.endpoint();
        let start = Instant::now();
        for _ in 0..10 {
            a.send(b.local_id(), &[0u8; 1000]).unwrap(); // 10 ms each
        }
        for _ in 0..10 {
            b.recv(Some(TICK)).unwrap();
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed >= Duration::from_millis(90),
            "paced too fast: {elapsed:?}"
        );
    }

    #[test]
    fn loss_drops_packets_deterministically() {
        let net = SimNetwork::with_seed(LinkConfig::ideal().with_loss(0.5), 42);
        let a = net.endpoint();
        let b = net.endpoint();
        for _ in 0..100 {
            a.send(b.local_id(), b"p").unwrap();
        }
        let mut got = 0;
        while b.recv(Some(Duration::from_millis(50))).is_ok() {
            got += 1;
        }
        let stats = net.stats();
        assert_eq!(stats.lost + got, 100);
        assert!(got > 20 && got < 80, "suspicious loss pattern: {got}");
    }

    #[test]
    fn duplicates_are_delivered_twice() {
        let net = SimNetwork::with_seed(LinkConfig::ideal().with_duplicates(1.0), 1);
        let a = net.endpoint();
        let b = net.endpoint();
        a.send(b.local_id(), b"d").unwrap();
        assert_eq!(b.recv(Some(TICK)).unwrap().payload, b"d");
        assert_eq!(b.recv(Some(TICK)).unwrap().payload, b"d");
        assert_eq!(net.stats().duplicated, 1);
    }

    #[test]
    fn partition_blocks_traffic() {
        let net = SimNetwork::new(LinkConfig::ideal());
        let a = net.endpoint();
        let b = net.endpoint();
        net.set_partitioned(a.local_id(), b.local_id(), true);
        a.send(b.local_id(), b"x").unwrap();
        assert!(matches!(
            b.recv(Some(Duration::from_millis(20))),
            Err(Error::Timeout)
        ));
        net.set_partitioned(a.local_id(), b.local_id(), false);
        a.send(b.local_id(), b"y").unwrap();
        assert_eq!(b.recv(Some(TICK)).unwrap().payload, b"y");
        assert_eq!(net.stats().unreachable, 1);
    }

    #[test]
    fn domains_model_radio_range() {
        let net = SimNetwork::new(LinkConfig::ideal());
        let a = net.endpoint();
        let b = net.endpoint();
        net.set_domain(b.local_id(), 7);
        a.broadcast(b"beacon").unwrap();
        assert!(matches!(
            b.recv(Some(Duration::from_millis(20))),
            Err(Error::Timeout)
        ));
        net.set_domain(b.local_id(), 0);
        a.broadcast(b"beacon2").unwrap();
        assert_eq!(b.recv(Some(TICK)).unwrap().payload, b"beacon2");
    }

    #[test]
    fn mtu_is_enforced() {
        let mut link = LinkConfig::ideal();
        link.mtu = 10;
        let net = SimNetwork::new(link);
        let a = net.endpoint();
        let b = net.endpoint();
        assert!(matches!(
            a.send(b.local_id(), &[0u8; 11]),
            Err(Error::Invalid(_))
        ));
        assert!(a.send(b.local_id(), &[0u8; 10]).is_ok());
    }

    #[test]
    fn reopen_reattaches_a_free_id() {
        let net = SimNetwork::new(LinkConfig::ideal());
        let a = net.endpoint();
        let b = net.endpoint();
        assert!(a.reopen().is_err(), "an open endpoint holds its id");
        a.close();
        let squatter = net.endpoint_with_id(a.local_id());
        assert!(a.reopen().is_err(), "a squatter holds the id");
        drop(squatter);
        let again = a.reopen().unwrap();
        b.send(a.local_id(), b"back").unwrap();
        let got = again.recv(Some(Duration::from_secs(1))).unwrap();
        assert_eq!(got.payload, b"back");
    }

    #[test]
    fn close_detaches_endpoint() {
        let net = SimNetwork::new(LinkConfig::ideal());
        let a = net.endpoint();
        let b = net.endpoint();
        assert_eq!(net.endpoint_count(), 2);
        b.close();
        assert_eq!(net.endpoint_count(), 1);
        assert!(matches!(b.recv(Some(TICK)), Err(Error::Closed)));
        assert!(matches!(b.send(a.local_id(), b"x"), Err(Error::Closed)));
        // Sending to a detached endpoint is not an error, just unreachable.
        assert!(a.send(b.local_id(), b"x").is_ok());
    }

    #[test]
    fn shutdown_closes_everything() {
        let net = SimNetwork::new(LinkConfig::ideal());
        let a = net.endpoint();
        net.shutdown();
        assert!(matches!(
            a.send(ServiceId::from_raw(9), b"x"),
            Err(Error::Closed)
        ));
    }

    #[test]
    fn distinct_auto_ids() {
        let net = SimNetwork::new(LinkConfig::ideal());
        let a = net.endpoint();
        let b = net.endpoint();
        assert_ne!(a.local_id(), b.local_id());
    }

    #[test]
    #[should_panic(expected = "already attached")]
    fn duplicate_id_panics() {
        let net = SimNetwork::new(LinkConfig::ideal());
        let id = ServiceId::from_raw(7);
        let _a = net.endpoint_with_id(id);
        let _b = net.endpoint_with_id(id);
    }

    #[test]
    fn per_pair_link_override() {
        let net = SimNetwork::new(LinkConfig::ideal());
        let a = net.endpoint();
        let b = net.endpoint();
        net.set_link(
            a.local_id(),
            b.local_id(),
            LinkConfig::ideal().with_loss(1.0),
        );
        a.send(b.local_id(), b"gone").unwrap();
        assert!(matches!(
            b.recv(Some(Duration::from_millis(20))),
            Err(Error::Timeout)
        ));
        // Reverse direction unaffected.
        b.send(a.local_id(), b"back").unwrap();
        assert_eq!(a.recv(Some(TICK)).unwrap().payload, b"back");
    }

    #[test]
    fn ordering_preserved_on_delayed_link() {
        let net = SimNetwork::new(LinkConfig::ideal().with_latency(Duration::from_millis(5)));
        let a = net.endpoint();
        let b = net.endpoint();
        for i in 0..20u8 {
            a.send(b.local_id(), &[i]).unwrap();
        }
        for i in 0..20u8 {
            assert_eq!(b.recv(Some(TICK)).unwrap().payload, vec![i]);
        }
    }
}
