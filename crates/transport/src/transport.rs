//! The generic transport abstraction.
//!
//! The paper's transport layer "presents `recv()` and `send()` calls …
//! the layer returns and accepts arrays of bytes", hiding the concrete
//! network (UDP, Bluetooth, ZigBee) behind an abstract class. [`Transport`]
//! is that abstraction: unreliable, unordered, datagram-oriented, byte
//! arrays in and out. Reliability lives one layer up, in
//! [`crate::reliable::ReliableChannel`].

use std::cell::Cell;
use std::fmt;
use std::time::Duration;

use std::sync::Arc;

use parking_lot::Mutex;

use smc_types::{Error, Result, ServiceId};

/// How many spare receive buffers one endpoint keeps for its link to
/// fill (see [`Datagram::recycle`]). Enough for a window of 16
/// four-fragment messages in flight to the endpoint at once.
pub const SPARE_BUFFERS: usize = 64;

/// A received datagram.
///
/// Its buffer belongs to the endpoint that received it: a receiver that
/// does not keep the payload hands the buffer back with
/// [`Datagram::recycle`], and the link fills it with a later datagram
/// for the same endpoint instead of asking the heap for a new one.
#[derive(Debug, Clone)]
pub struct Datagram {
    /// The sending endpoint.
    pub from: ServiceId,
    /// The raw bytes.
    pub payload: Vec<u8>,
    /// Whether this arrived via broadcast rather than unicast.
    pub broadcast: bool,
    /// Where the payload's buffer goes back to; `None` for a datagram
    /// built outside a link.
    home: Option<Spares>,
}

impl Datagram {
    /// Creates a unicast datagram record.
    pub fn unicast(from: ServiceId, payload: Vec<u8>) -> Self {
        Datagram {
            from,
            payload,
            broadcast: false,
            home: None,
        }
    }

    /// A datagram whose buffer goes back to `home`'s spares.
    pub(crate) fn received(
        from: ServiceId,
        payload: Vec<u8>,
        broadcast: bool,
        home: Spares,
    ) -> Self {
        Datagram {
            from,
            payload,
            broadcast,
            home: Some(home),
        }
    }

    /// Hands the payload's buffer back to the endpoint that received it,
    /// for its link to fill again; a datagram built outside a link just
    /// drops it. For a receiver done with the bytes.
    pub fn recycle(self) {
        if let Some(home) = self.home {
            home.give_back(self.payload);
        }
    }

    /// The payload from byte `at` on, in the datagram's own buffer: the
    /// bytes before it are moved out from under the rest, which is not
    /// copied anywhere else.
    pub(crate) fn into_tail(self, at: usize) -> Vec<u8> {
        let mut payload = self.payload;
        payload.drain(..at);
        payload
    }
}

/// An endpoint's spare receive buffers, at most [`SPARE_BUFFERS`] of
/// them, the most recently given back on top: what its link copies a
/// received datagram into before it asks the heap. Filled by the link
/// (under its own lock), given back by the receiver — on another thread —
/// so the list has a lock of its own, a leaf.
#[derive(Clone, Default)]
pub(crate) struct Spares(Arc<Mutex<Vec<Vec<u8>>>>);

impl fmt::Debug for Spares {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Spares({})", self.len())
    }
}

impl Spares {
    /// `bytes` in the best-fitting spare that already has room for them
    /// — the one with the least capacity that is enough, the most
    /// recently given back of equals — or, when none has, in a buffer of
    /// exactly their size. A spare is never grown, and holds nothing of
    /// what it held before.
    pub(crate) fn copy(&self, bytes: &[u8]) -> Vec<u8> {
        let spare = {
            let mut spares = self.0.lock();
            best_fit(&spares, bytes.len()).map(|at| spares.remove(at))
        };
        match spare {
            Some(mut buf) => {
                buf.clear();
                buf.extend_from_slice(bytes);
                buf
            }
            None => bytes.to_vec(),
        }
    }

    /// Keeps `buf` for a later datagram. At the bound the smaller of
    /// `buf` and the smallest spare is dropped: the list keeps the
    /// buffers that fit the most datagrams.
    fn give_back(&self, buf: Vec<u8>) {
        if buf.capacity() == 0 {
            return;
        }
        let mut spares = self.0.lock();
        if spares.len() < SPARE_BUFFERS {
            return spares.push(buf);
        }
        let smallest = (0..spares.len()).min_by_key(|&at| spares[at].capacity());
        let dropped = match smallest {
            Some(at) if spares[at].capacity() < buf.capacity() => {
                std::mem::replace(&mut spares[at], buf)
            }
            _ => buf,
        };
        drop(spares);
        drop(dropped);
    }

    /// How many spares the endpoint holds.
    pub(crate) fn len(&self) -> usize {
        self.0.lock().len()
    }
}

/// Where in `spares` the best fit for `len` bytes is. The search runs
/// from the top and stops at a spare of exactly `len`: the common case,
/// since a link's datagrams come in a few sizes and each spare was first
/// made for one of them.
fn best_fit(spares: &[Vec<u8>], len: usize) -> Option<usize> {
    let mut best: Option<(usize, usize)> = None;
    for (at, spare) in spares.iter().enumerate().rev() {
        let room = spare.capacity();
        if room == len {
            return Some(at);
        }
        if room > len && best.is_none_or(|(_, least)| room < least) {
            best = Some((at, room));
        }
    }
    best.map(|(at, _)| at)
}

/// An unreliable datagram transport endpoint.
///
/// Implementations: [`crate::mem::MemTransport`] (simulated network with
/// configurable latency, loss and bandwidth) and
/// [`crate::udp::UdpTransport`] (real UDP sockets, as in the prototype).
///
/// Datagrams may be lost, duplicated or reordered; they are never
/// corrupted or truncated. `send` never blocks for link-level delays —
/// queueing and pacing happen inside the transport.
pub trait Transport: Send + Sync + fmt::Debug {
    /// This endpoint's identifier (derived from its address, as in the
    /// paper's 48-bit socket-based ids).
    fn local_id(&self) -> ServiceId;

    /// Sends `payload` to the endpoint `to`.
    ///
    /// # Errors
    ///
    /// Returns [`smc_types::Error::Invalid`] if the payload exceeds
    /// [`Transport::max_datagram`], or [`smc_types::Error::Closed`] if the
    /// endpoint has been shut down. Loss of the datagram in the network is
    /// *not* an error.
    fn send(&self, to: ServiceId, payload: &[u8]) -> Result<()>;

    /// Broadcasts `payload` to every reachable endpoint (e.g. the
    /// discovery beacon port).
    ///
    /// # Errors
    ///
    /// As for [`Transport::send`].
    fn broadcast(&self, payload: &[u8]) -> Result<()>;

    /// Receives the next datagram, blocking up to `timeout` (forever when
    /// `None`; a zero timeout polls without blocking).
    ///
    /// One consumer per endpoint: an implementation may make concurrent
    /// callers wait for each other ([`crate::udp::UdpTransport`] receives
    /// into a buffer the endpoint owns).
    ///
    /// # Errors
    ///
    /// Returns [`smc_types::Error::Timeout`] when the timeout elapses and
    /// [`smc_types::Error::Closed`] when the endpoint is shut down.
    fn recv(&self, timeout: Option<Duration>) -> Result<Datagram>;

    /// Largest payload accepted by [`Transport::send`], in bytes.
    fn max_datagram(&self) -> usize;

    /// Shuts the endpoint down; subsequent operations return `Closed`.
    fn close(&self);

    /// A fresh endpoint on this one's address, once this one is closed:
    /// what a component that died restarts on, so its peers keep the
    /// address they know. Fails while the address is held — by this
    /// endpoint, still open, or by whoever took it since.
    ///
    /// # Errors
    ///
    /// [`smc_types::Error::Invalid`] by default (the transport cannot
    /// reopen) or while the address is held.
    fn reopen(&self) -> Result<Arc<dyn Transport>> {
        Err(Error::Invalid(format!("{} cannot reopen", self.local_id())))
    }
}

thread_local! {
    /// How many [`Cork`]s this thread holds.
    static CORKS: Cell<usize> = const { Cell::new(0) };
}

/// While held, every datagram this thread sends over a
/// [`crate::mem::MemTransport`] that is due at once is counted as
/// delivered but held back; when the outermost cork ends, each run of held
/// datagrams to one endpoint goes into its queue in one push, with at most
/// one wake-up. [`crate::udp::UdpTransport`] ignores it.
///
/// A thread-local, not a [`Transport`] method, so that it holds through
/// any wrapper that forwards `send` on the same thread.
pub(crate) struct Cork(());

impl Cork {
    pub(crate) fn hold() -> Cork {
        CORKS.set(CORKS.get() + 1);
        Cork(())
    }

    /// Whether this thread holds a cork.
    pub(crate) fn held() -> bool {
        CORKS.get() > 0
    }
}

impl Drop for Cork {
    /// Also on unwind: a panic inside the cork still hands over what it held.
    fn drop(&mut self) {
        let corks = CORKS.get() - 1;
        CORKS.set(corks);
        if corks == 0 {
            crate::mem::release_held();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datagram_constructors() {
        let d = Datagram::unicast(ServiceId::from_raw(1), vec![1, 2]);
        assert!(!d.broadcast);
    }

    #[test]
    fn a_spare_is_the_best_fit_and_never_grown() {
        let spares = Spares::default();
        let from = ServiceId::from_raw(1);
        for size in [100, 1400, 600] {
            Datagram::received(from, Vec::with_capacity(size), false, spares.clone()).recycle();
        }
        assert_eq!(spares.len(), 3);
        let buf = spares.copy(&[7; 500]);
        assert_eq!((buf.capacity(), &buf[..]), (600, &[7; 500][..]));
        // Nothing left has room for 1 401 bytes: a fresh, exact buffer.
        assert_eq!(spares.copy(&[1; 1401]).capacity(), 1401);
        assert_eq!(spares.len(), 2);
    }

    #[test]
    fn at_the_bound_the_smallest_buffer_goes() {
        let spares = Spares::default();
        for size in 1..=SPARE_BUFFERS + 1 {
            spares.give_back(Vec::with_capacity(size));
        }
        spares.give_back(Vec::with_capacity(1));
        let rooms: Vec<usize> = spares.0.lock().iter().map(Vec::capacity).collect();
        assert_eq!(rooms.len(), SPARE_BUFFERS);
        assert_eq!(rooms.iter().min(), Some(&2));
        assert_eq!(rooms.iter().max(), Some(&(SPARE_BUFFERS + 1)));
    }
}
