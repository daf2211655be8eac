//! Real UDP datagram transport, matching the paper's prototype.
//!
//! The prototype "uses a transport layer which makes use of datagram
//! sockets … by simply opening a socket and not binding to a specific
//! port, the operating system is free to choose the port number", and
//! derives the 48-bit service id from the unicast address and port.
//! Broadcast traffic is "delivered on an arbitrarily chosen port number
//! known by services".
//!
//! On a real LAN the broadcast address does that job; inside test
//! machines and containers IP broadcast is unreliable, so this transport
//! lets broadcast peers be registered explicitly ([`UdpTransport::add_broadcast_peer`]),
//! which sends each broadcast as a unicast copy — the semantics the
//! discovery service needs, without requiring network privileges.

use std::cell::RefCell;
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use smc_types::{Error, Result, ServiceId, Spares};

use crate::transport::{Datagram, Transport};

/// One-byte flag marking a datagram as broadcast.
const FLAG_BROADCAST: u8 = 0x01;
/// Header: flags byte + 6-byte sender id.
const HEADER_LEN: usize = 7;

thread_local! {
    /// Where a sending thread assembles header + payload, so a send costs
    /// no allocation once the thread has sent a datagram of that size (the
    /// thread keeps that capacity: at most one datagram, ~60 KB).
    static TX_SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// The receive side of the endpoint, held by [`UdpTransport::recv`] for the
/// whole call.
struct RxState {
    /// One maximum-size datagram; every `recv_from` overwrites it and only
    /// the bytes the kernel reported are copied out.
    buf: Box<[u8]>,
    /// The wait the socket is currently set to (`None` = block forever,
    /// zero = non-blocking), so `recv` issues a `setsockopt` only when the
    /// caller asks for a different one.
    wait: Option<Duration>,
}

impl std::fmt::Debug for RxState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Not the buffer's 60 KB of stale bytes.
        f.debug_struct("RxState")
            .field("wait", &self.wait)
            .finish_non_exhaustive()
    }
}

/// A [`Transport`] over a real UDP socket bound to an OS-chosen port.
///
/// [`recv`](Transport::recv) is **single-consumer**: the endpoint owns one
/// receive buffer, and a `recv` call holds it until it returns, so a second
/// thread calling `recv` waits for the first. Sends, and
/// [`close`](Transport::close), may come from any thread at any time.
///
/// # Example
///
/// ```
/// use smc_transport::{Transport, UdpTransport};
///
/// let a = UdpTransport::bind()?;
/// let b = UdpTransport::bind()?;
/// a.send(b.local_id(), b"ping")?;
/// let got = b.recv(Some(std::time::Duration::from_secs(2)))?;
/// assert_eq!(got.payload, b"ping");
/// assert_eq!(got.from, a.local_id());
/// # Ok::<(), smc_types::Error>(())
/// ```
#[derive(Debug)]
pub struct UdpTransport {
    socket: UdpSocket,
    id: ServiceId,
    broadcast_peers: Mutex<Vec<ServiceId>>,
    closed: AtomicBool,
    mtu: usize,
    rx: Mutex<RxState>,
    /// The buffers received datagrams were given back in, for `recv` to
    /// copy the next ones into.
    spares: Spares,
}

impl UdpTransport {
    /// Binds a new socket on the loopback interface with an OS-chosen
    /// port (exactly the paper's scheme).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn bind() -> Result<Self> {
        UdpTransport::bind_addr(Ipv4Addr::LOCALHOST)
    }

    /// Binds on a specific interface address with an OS-chosen port.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn bind_addr(addr: Ipv4Addr) -> Result<Self> {
        let socket = UdpSocket::bind(SocketAddrV4::new(addr, 0))?;
        let local = match socket.local_addr()? {
            SocketAddr::V4(v4) => v4,
            SocketAddr::V6(_) => return Err(Error::Io("bound to unexpected IPv6 address".into())),
        };
        let id = ServiceId::from_addr_port(*local.ip(), local.port());
        Ok(UdpTransport::on(socket, id, Vec::new()))
    }

    /// The endpoint `id` on its bound `socket`.
    fn on(socket: UdpSocket, id: ServiceId, broadcast_peers: Vec<ServiceId>) -> UdpTransport {
        let mtu = 60_000;
        UdpTransport {
            socket,
            id,
            broadcast_peers: Mutex::new(broadcast_peers),
            closed: AtomicBool::new(false),
            mtu,
            rx: Mutex::new(RxState {
                buf: vec![0u8; mtu + HEADER_LEN].into_boxed_slice(),
                wait: None,
            }),
            spares: Spares::default(),
        }
    }

    /// Registers a peer to receive copies of our broadcasts.
    pub fn add_broadcast_peer(&self, peer: ServiceId) {
        let mut peers = self.broadcast_peers.lock();
        if !peers.contains(&peer) {
            peers.push(peer);
        }
    }

    fn addr_of(id: ServiceId) -> SocketAddrV4 {
        SocketAddrV4::new(id.ipv4(), id.port())
    }

    fn send_with_flags(&self, to: ServiceId, payload: &[u8], flags: u8) -> Result<()> {
        if self.closed.load(Ordering::SeqCst) {
            return Err(Error::Closed);
        }
        if payload.len() > self.mtu {
            return Err(Error::Invalid(format!(
                "payload of {} bytes exceeds udp mtu {}",
                payload.len(),
                self.mtu
            )));
        }
        TX_SCRATCH.with_borrow_mut(|buf| {
            buf.clear();
            buf.push(flags);
            buf.extend_from_slice(&self.id.raw().to_le_bytes()[..6]);
            buf.extend_from_slice(payload);
            self.socket.send_to(buf, Self::addr_of(to))
        })?;
        Ok(())
    }

    /// Sets how long `recv_from` waits, touching the socket only when
    /// `timeout` differs from the wait it already has. A zero timeout is a
    /// non-blocking poll (std rejects it as a read timeout); while the
    /// socket polls, a send that would block fails instead, which the
    /// reliability layer above treats like any other lost datagram.
    fn set_wait(&self, rx: &mut RxState, timeout: Option<Duration>) -> Result<()> {
        if rx.wait == timeout {
            return Ok(());
        }
        let poll = timeout == Some(Duration::ZERO);
        if poll != (rx.wait == Some(Duration::ZERO)) {
            self.socket.set_nonblocking(poll)?;
        }
        if !poll {
            self.socket.set_read_timeout(timeout)?;
        }
        rx.wait = timeout;
        Ok(())
    }
}

impl Transport for UdpTransport {
    fn local_id(&self) -> ServiceId {
        self.id
    }

    fn send(&self, to: ServiceId, payload: &[u8]) -> Result<()> {
        self.send_with_flags(to, payload, 0)
    }

    fn broadcast(&self, payload: &[u8]) -> Result<()> {
        let peers = self.broadcast_peers.lock().clone();
        for peer in peers {
            self.send_with_flags(peer, payload, FLAG_BROADCAST)?;
        }
        Ok(())
    }

    fn recv(&self, timeout: Option<Duration>) -> Result<Datagram> {
        if self.closed.load(Ordering::SeqCst) {
            return Err(Error::Closed);
        }
        let mut rx = self.rx.lock();
        self.set_wait(&mut rx, timeout)?;
        let buf = &mut rx.buf;
        loop {
            match self.socket.recv_from(buf) {
                Ok((n, _src)) => {
                    if n < HEADER_LEN {
                        // Runt datagram (or `close`'s empty probe): ignore.
                        if self.closed.load(Ordering::SeqCst) {
                            return Err(Error::Closed);
                        }
                        continue;
                    }
                    let flags = buf[0];
                    let mut raw = [0u8; 8];
                    raw[..6].copy_from_slice(&buf[1..7]);
                    let from = ServiceId::from_raw(u64::from_le_bytes(raw));
                    return Ok(Datagram {
                        from,
                        payload: self.spares.copy(&buf[HEADER_LEN..n]),
                        broadcast: flags & FLAG_BROADCAST != 0,
                    });
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Err(Error::Timeout);
                }
                Err(_) if self.closed.load(Ordering::SeqCst) => return Err(Error::Closed),
                Err(e) => return Err(e.into()),
            }
        }
    }

    fn max_datagram(&self) -> usize {
        self.mtu
    }

    /// Rebinds this endpoint's port. The port stays bound to the closed
    /// socket until its last handle drops, so the new endpoint takes it
    /// over (`try_clone`) instead of racing that drop; an open endpoint
    /// keeps its port, as a bind to an address in use fails.
    fn reopen(&self) -> Result<Arc<dyn Transport>> {
        if !self.closed.load(Ordering::SeqCst) {
            return Err(Error::Io(std::io::ErrorKind::AddrInUse.to_string()));
        }
        let socket = self.socket.try_clone()?;
        socket.set_nonblocking(false)?;
        socket.set_read_timeout(None)?;
        let peers = self.broadcast_peers.lock().clone();
        Ok(Arc::new(UdpTransport::on(socket, self.id, peers)))
    }

    fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        // Unblock a parked recv by poking our own socket.
        if let Ok(probe) = UdpSocket::bind(SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0)) {
            let _ = probe.send_to(&[], Self::addr_of(self.id));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TICK: Duration = Duration::from_secs(2);

    #[test]
    fn unicast_round_trip() {
        let a = UdpTransport::bind().unwrap();
        let b = UdpTransport::bind().unwrap();
        a.send(b.local_id(), b"hello").unwrap();
        let d = b.recv(Some(TICK)).unwrap();
        assert_eq!(d.payload, b"hello");
        assert_eq!(d.from, a.local_id());
        assert!(!d.broadcast);
    }

    #[test]
    fn id_matches_socket() {
        let t = UdpTransport::bind().unwrap();
        assert_eq!(t.local_id().ipv4(), Ipv4Addr::LOCALHOST);
        assert_ne!(t.local_id().port(), 0);
    }

    #[test]
    fn broadcast_to_registered_peers() {
        let a = UdpTransport::bind().unwrap();
        let b = UdpTransport::bind().unwrap();
        let c = UdpTransport::bind().unwrap();
        a.add_broadcast_peer(b.local_id());
        a.add_broadcast_peer(c.local_id());
        a.add_broadcast_peer(c.local_id()); // duplicate registration is a no-op
        a.broadcast(b"beacon").unwrap();
        for ep in [&b, &c] {
            let d = ep.recv(Some(TICK)).unwrap();
            assert!(d.broadcast);
            assert_eq!(d.payload, b"beacon");
            assert_eq!(d.from, a.local_id());
        }
    }

    #[test]
    fn recv_times_out() {
        let t = UdpTransport::bind().unwrap();
        assert!(matches!(
            t.recv(Some(Duration::from_millis(30))),
            Err(Error::Timeout)
        ));
    }

    #[test]
    fn oversize_payload_rejected() {
        let a = UdpTransport::bind().unwrap();
        let b = UdpTransport::bind().unwrap();
        assert!(matches!(
            a.send(b.local_id(), &vec![0u8; 70_000]),
            Err(Error::Invalid(_))
        ));
    }

    #[test]
    fn zero_timeout_is_a_non_blocking_poll() {
        let a = UdpTransport::bind().unwrap();
        let b = UdpTransport::bind().unwrap();
        assert!(matches!(b.recv(Some(Duration::ZERO)), Err(Error::Timeout)));
        a.send(b.local_id(), b"now").unwrap();
        // Loopback queues the datagram on the receiver inside `send_to`.
        assert_eq!(b.recv(Some(Duration::ZERO)).unwrap().payload, b"now");
        assert!(matches!(b.recv(Some(Duration::ZERO)), Err(Error::Timeout)));
        // Back to a blocking wait: the timeout is honoured again.
        let start = std::time::Instant::now();
        assert!(matches!(
            b.recv(Some(Duration::from_millis(30))),
            Err(Error::Timeout)
        ));
        assert!(start.elapsed() >= Duration::from_millis(25));
        a.send(b.local_id(), b"later").unwrap();
        assert_eq!(b.recv(Some(TICK)).unwrap().payload, b"later");
    }

    #[test]
    fn step_driven_reliable_round_trip_over_udp() {
        use crate::reliable::{Incoming, ReliableChannel, ReliableConfig};
        use smc_types::ManualClock;
        use std::sync::Arc;

        let clock = Arc::new(ManualClock::new());
        let channel = || {
            ReliableChannel::with_clock(
                Arc::new(UdpTransport::bind().unwrap()),
                ReliableConfig::default(),
                clock.clone(),
            )
        };
        let (a, b) = (channel(), channel());
        let receipt = a
            .send_with_receipt(b.local_id(), b"stepped".to_vec())
            .unwrap();
        assert_eq!(b.step(), 1, "the data frame is polled off the socket");
        match b.try_recv().expect("delivered by step") {
            Incoming::Reliable { from, payload, .. } => {
                assert_eq!(from, a.local_id());
                assert_eq!(payload, b"stepped");
            }
            other => panic!("unexpected {other:?}"),
        }
        // A poll interval later B's scan is due: the held ack leaves.
        clock.advance_millis(20);
        assert_eq!(b.step(), 0, "the held ack leaves at the scan");
        assert_eq!(a.step(), 1, "the ack is polled off the socket");
        assert!(matches!(receipt.poll(), Some(Ok(()))));
        assert_eq!((a.step(), b.step()), (0, 0), "both sockets are drained");
    }

    #[test]
    fn receive_buffer_does_not_leak_between_datagrams() {
        let a = UdpTransport::bind().unwrap();
        let b = UdpTransport::bind().unwrap();
        a.send(b.local_id(), &vec![0xEE; 60_000]).unwrap();
        a.send(b.local_id(), b"short").unwrap();
        let big = b.recv(Some(TICK)).unwrap();
        assert_eq!(big.payload.len(), 60_000);
        assert!(big.payload.iter().all(|&x| x == 0xEE));
        assert_eq!(b.recv(Some(TICK)).unwrap().payload, b"short");
    }

    #[test]
    fn runt_between_datagrams_is_skipped() {
        let a = UdpTransport::bind().unwrap();
        let b = UdpTransport::bind().unwrap();
        let raw = UdpSocket::bind(SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0)).unwrap();
        a.send(b.local_id(), b"first").unwrap();
        raw.send_to(&[0xFF; HEADER_LEN - 1], UdpTransport::addr_of(b.local_id()))
            .unwrap();
        a.send(b.local_id(), b"second").unwrap();
        for expected in [&b"first"[..], b"second"] {
            let d = b.recv(Some(TICK)).unwrap();
            assert_eq!(d.payload, expected);
            assert_eq!(d.from, a.local_id());
        }
        assert!(matches!(b.recv(Some(Duration::ZERO)), Err(Error::Timeout)));
    }

    #[test]
    fn close_unblocks_a_parked_recv() {
        let t = std::sync::Arc::new(UdpTransport::bind().unwrap());
        let (entering_tx, entering_rx) = std::sync::mpsc::channel();
        let parked = {
            let t = std::sync::Arc::clone(&t);
            std::thread::spawn(move || {
                entering_tx.send(()).unwrap();
                t.recv(None)
            })
        };
        entering_rx.recv().unwrap();
        // Either order is correct — `recv` sees the flag on entry or is
        // woken by the probe; the pause only makes the parked case likely.
        std::thread::sleep(Duration::from_millis(50));
        t.close();
        assert!(matches!(parked.join().unwrap(), Err(Error::Closed)));
    }

    #[test]
    fn reopen_takes_the_closed_port_back() {
        let a = UdpTransport::bind().unwrap();
        let b = UdpTransport::bind().unwrap();
        assert!(a.reopen().is_err(), "an open endpoint keeps its port");
        a.close();
        let again = a.reopen().unwrap();
        assert_eq!(again.local_id(), a.local_id());
        b.send(a.local_id(), b"back").unwrap();
        let got = again.recv(Some(TICK)).unwrap();
        assert_eq!(got.payload, b"back");
        assert_eq!(got.from, b.local_id());
    }

    #[test]
    fn close_makes_operations_fail() {
        let a = UdpTransport::bind().unwrap();
        a.close();
        assert!(matches!(
            a.send(ServiceId::from_raw(1), b"x"),
            Err(Error::Closed)
        ));
        assert!(matches!(a.recv(Some(TICK)), Err(Error::Closed)));
    }
}
