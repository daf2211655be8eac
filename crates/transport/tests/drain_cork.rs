//! The receive thread's drain: after a blocking `recv` returns, a
//! threaded channel handles that datagram and every one its link already
//! queued behind it — a window at most — under one cork, so what it sends
//! over the mem link meanwhile (its handler's sends, its data, its
//! acknowledgements) leaves in one hand-over per endpoint when the drain
//! ends. These tests pin the three edges of that: nothing leaves early,
//! the tick is never starved, and a socket is never polled for a backlog.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Weak};
use std::thread;
use std::time::{Duration, Instant};

use smc_transport::{
    Datagram, Incoming, LinkConfig, ReliableChannel, ReliableConfig, SimNetwork, Transport,
    UdpTransport,
};
use smc_types::{system_clock, Result, ServiceId};

const DEADLINE: Duration = Duration::from_secs(10);

/// Channels that retransmit nothing while a test holds a handler at a
/// barrier.
fn patient() -> ReliableConfig {
    ReliableConfig {
        initial_rto: Duration::from_secs(5),
        max_rto: Duration::from_secs(5),
        ..ReliableConfig::default()
    }
}

/// A step-driven channel's reliable messages, stepping it until `n`
/// arrived or the deadline passed.
fn collect(channel: &ReliableChannel, n: usize) -> Vec<Vec<u8>> {
    let mut got = Vec::new();
    let deadline = Instant::now() + DEADLINE;
    while got.len() < n && Instant::now() < deadline {
        channel.step_waiting(Duration::from_millis(5));
        while let Some(incoming) = channel.try_recv() {
            if let Incoming::Reliable { payload, .. } = incoming {
                got.push(payload.into_vec());
            }
        }
    }
    got
}

/// B's handler forwards each message to C over the same network. While
/// it is held at message 1, and again at message `N` — the last of a run
/// queued at B together — what it forwarded in that drain has not left:
/// C has received nothing, then only message 1. Once the drains end, C
/// holds all `N`, in order.
#[test]
fn a_handlers_sends_leave_when_the_drain_ends() {
    const N: u8 = 8;
    let net = SimNetwork::new(LinkConfig::ideal());
    let a = ReliableChannel::new(Arc::new(net.endpoint()), patient());
    let b = ReliableChannel::new(Arc::new(net.endpoint()), patient());
    let c = ReliableChannel::with_clock(Arc::new(net.endpoint()), patient(), system_clock());
    let (at, go) = (Arc::new(Barrier::new(2)), Arc::new(Barrier::new(2)));
    {
        let (b_weak, c_id) = (Arc::downgrade(&b), c.local_id());
        let (at, go) = (Arc::clone(&at), Arc::clone(&go));
        b.set_handler(Box::new(move |incoming| {
            let Incoming::Reliable { payload, .. } = incoming else {
                return;
            };
            let n = payload[0];
            if let Some(b) = Weak::upgrade(&b_weak) {
                b.send(c_id, payload.into_vec()).unwrap();
            }
            if n == 1 || n == N {
                at.wait();
                go.wait();
            }
        }));
    }

    a.send(b.local_id(), vec![1]).unwrap();
    at.wait();
    assert_eq!(c.step(), 0, "message 1 left inside its drain");
    // Queued at B together while its handler is held: one drain.
    for n in 2..=N {
        a.send(b.local_id(), vec![n]).unwrap();
    }
    go.wait();
    at.wait();
    assert_eq!(
        collect(&c, 1),
        vec![vec![1]],
        "messages 2..{N} left inside their drain"
    );
    go.wait();

    let got = collect(&c, N as usize - 1);
    let expected: Vec<Vec<u8>> = (2..=N).map(|n| vec![n]).collect();
    assert_eq!(got, expected);
    for channel in [&a, &b, &c] {
        channel.close();
    }
}

/// A flood that keeps B's queue from ever running dry still gets B's
/// held acknowledgement out and its retransmission pass run, a few poll
/// intervals apart: a drain is a window of datagrams at most, and the
/// tick follows it.
#[test]
fn a_flood_does_not_starve_the_tick() {
    const POLL: Duration = Duration::from_millis(5);
    /// How many unhandled datagrams the flooder keeps queued at B.
    const BACKLOG: u64 = 256;
    let config = ReliableConfig {
        initial_rto: Duration::from_millis(20),
        max_rto: Duration::from_millis(40),
        poll_interval: POLL,
        ..ReliableConfig::default()
    };
    let net = SimNetwork::new(LinkConfig::ideal());
    let a = ReliableChannel::new(Arc::new(net.endpoint()), config.clone());
    let b = ReliableChannel::new(Arc::new(net.endpoint()), config.clone());
    let flooder = ReliableChannel::new(Arc::new(net.endpoint()), config);
    // Never read: whatever B sends it is never acknowledged.
    let black_hole = net.endpoint();

    let handled = Arc::new(AtomicU64::new(0));
    let reliable_at = Arc::new(parking_lot::Mutex::new(None));
    {
        let (handled, reliable_at) = (Arc::clone(&handled), Arc::clone(&reliable_at));
        b.set_handler(Box::new(move |incoming| match incoming {
            Incoming::Unreliable { .. } => {
                // Slower than the flooder: the queue never runs dry.
                let spin = Instant::now();
                while spin.elapsed() < Duration::from_micros(20) {}
                handled.fetch_add(1, Ordering::Relaxed);
            }
            Incoming::Reliable { .. } => {
                reliable_at.lock().get_or_insert_with(Instant::now);
            }
        }));
    }
    let stop = Arc::new(AtomicBool::new(false));
    let flood = {
        let (stop, handled, flooder, to) = (
            Arc::clone(&stop),
            Arc::clone(&handled),
            flooder.clone(),
            b.local_id(),
        );
        thread::spawn(move || {
            let mut sent = 0u64;
            while !stop.load(Ordering::Relaxed) {
                if sent - handled.load(Ordering::Relaxed) < BACKLOG {
                    flooder.send_unreliable(to, b"flood").unwrap();
                    sent += 1;
                } else {
                    thread::yield_now();
                }
            }
        })
    };
    let flood_started = Instant::now();
    while handled.load(Ordering::Relaxed) < 4 * BACKLOG {
        assert!(flood_started.elapsed() < DEADLINE, "the flood never ran");
        thread::yield_now();
    }

    b.send(black_hole.local_id(), vec![0; 16]).unwrap();
    let sent_at = Instant::now();
    // One message: far below half a window, so B holds its acknowledgement
    // for the tick — nothing flows from B to A for it to ride on.
    let receipt = a.send_with_receipt(b.local_id(), vec![1]).unwrap();
    let acked = receipt.wait(DEADLINE);
    let acked_at = Instant::now();
    while sent_at.elapsed() < Duration::from_millis(300) {
        thread::sleep(POLL);
    }
    let retransmits = b.stats().retransmits;
    let flooded = handled.load(Ordering::Relaxed);
    stop.store(true, Ordering::Relaxed);
    flood.join().unwrap();

    acked.expect("B's held acknowledgement never left");
    let handled_at = reliable_at.lock().expect("B received A's message");
    let held_for = acked_at.saturating_duration_since(handled_at);
    assert!(
        held_for < 20 * POLL,
        "B held its acknowledgement for {held_for:?} under the flood"
    );
    // 300 ms against a 20 ms RTO doubling to 40 ms: ≈ 7 rounds if every
    // tick ran; a starved tick runs none.
    assert!(
        retransmits >= 3,
        "B retransmitted {retransmits} times in 300 ms under the flood"
    );
    assert!(
        flooded > 8 * BACKLOG,
        "the flood stopped: {flooded} handled"
    );
    for channel in [&a, &b, &flooder] {
        channel.close();
    }
}

/// Counts the zero-timeout `recv` calls made through it.
#[derive(Debug)]
struct CountingPolls {
    inner: UdpTransport,
    recvs: AtomicUsize,
    polls: AtomicUsize,
}

impl Transport for CountingPolls {
    fn local_id(&self) -> ServiceId {
        self.inner.local_id()
    }
    fn send(&self, to: ServiceId, payload: &[u8]) -> Result<()> {
        self.inner.send(to, payload)
    }
    fn broadcast(&self, payload: &[u8]) -> Result<()> {
        self.inner.broadcast(payload)
    }
    fn recv(&self, timeout: Option<Duration>) -> Result<Datagram> {
        self.recvs.fetch_add(1, Ordering::Relaxed);
        if timeout == Some(Duration::ZERO) {
            self.polls.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.recv(timeout)
    }
    fn max_datagram(&self) -> usize {
        self.inner.max_datagram()
    }
    fn close(&self) {
        self.inner.close();
    }
}

/// A socket cannot say what it has queued, so a receive thread over UDP
/// never drains: it never polls its socket with a zero timeout, however
/// much arrives at once.
#[test]
fn a_udp_receive_thread_never_polls_its_socket() {
    const N: usize = 200;
    let wrap = || {
        Arc::new(CountingPolls {
            inner: UdpTransport::bind().unwrap(),
            recvs: AtomicUsize::new(0),
            polls: AtomicUsize::new(0),
        })
    };
    let (a_t, b_t) = (wrap(), wrap());
    let a = ReliableChannel::new(a_t.clone(), ReliableConfig::default());
    let b = ReliableChannel::new(b_t.clone(), ReliableConfig::default());
    let echoed = Arc::new(AtomicUsize::new(0));
    {
        let (b_weak, a_id) = (Arc::downgrade(&b), a.local_id());
        b.set_handler(Box::new(move |incoming| {
            if let (Incoming::Reliable { payload, .. }, Some(b)) = (incoming, b_weak.upgrade()) {
                b.send(a_id, payload.into_vec()).unwrap();
            }
        }));
        let echoed = Arc::clone(&echoed);
        a.set_handler(Box::new(move |_| {
            echoed.fetch_add(1, Ordering::Relaxed);
        }));
    }
    // A burst: B's socket holds several datagrams at once.
    for i in 0..N {
        a.send(b.local_id(), (i as u32).to_le_bytes().to_vec())
            .unwrap();
    }
    let deadline = Instant::now() + DEADLINE;
    while echoed.load(Ordering::Relaxed) < N {
        assert!(Instant::now() < deadline, "echoes lost");
        thread::sleep(Duration::from_millis(1));
    }
    for t in [&a_t, &b_t] {
        assert!(t.recvs.load(Ordering::Relaxed) > 0);
        assert_eq!(t.polls.load(Ordering::Relaxed), 0, "a zero-timeout recv");
    }
    a.close();
    b.close();
}
