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

use smc_types::{Error, MessageBuf, Result, ServiceId};

/// A received datagram.
///
/// Its buffer belongs to the endpoint that received it (see
/// [`MessageBuf`]): whoever drops the payload — the channel, or the last
/// reader of the message or event it became — hands the buffer back, and
/// the link fills it with a later datagram for the same endpoint instead
/// of asking the heap for a new one.
#[derive(Debug, Clone)]
pub struct Datagram {
    /// The sending endpoint.
    pub from: ServiceId,
    /// The raw bytes.
    pub payload: MessageBuf,
    /// Whether this arrived via broadcast rather than unicast.
    pub broadcast: bool,
}

impl Datagram {
    /// Creates a unicast datagram record; a `Vec` payload has no home.
    pub fn unicast(from: ServiceId, payload: impl Into<MessageBuf>) -> Self {
        Datagram {
            from,
            payload: payload.into(),
            broadcast: false,
        }
    }

    /// The payload from byte `at` on, in the datagram's own buffer: the
    /// bytes before it are moved out from under the rest, which is not
    /// copied anywhere else.
    pub(crate) fn into_tail(self, at: usize) -> MessageBuf {
        let mut payload = self.payload;
        payload.drain_front(at);
        payload
    }
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
    /// Whether the link this thread last received from had more queued
    /// behind the datagram it returned. Only
    /// [`crate::mem::MemTransport::recv`] sets it.
    static BACKLOG: Cell<bool> = const { Cell::new(false) };
}

/// Receives from `transport` as [`Transport::recv`] does, and says
/// whether its link already holds another datagram: what lets a receive
/// thread take its backlog without polling. Only the mem link answers
/// (through any wrapper that forwards `recv` on the same thread, which is
/// why this is a thread-local and not a [`Transport`] method); every other
/// transport reads as having nothing queued.
pub(crate) fn recv_noting_backlog(
    transport: &dyn Transport,
    timeout: Option<Duration>,
) -> Result<(Datagram, bool)> {
    BACKLOG.set(false);
    let datagram = transport.recv(timeout)?;
    Ok((datagram, BACKLOG.replace(false)))
}

/// Records, for [`recv_noting_backlog`], that the datagram this thread
/// just took left `queued` behind it.
pub(crate) fn note_backlog(queued: bool) {
    BACKLOG.set(queued);
}

/// While held, every datagram this thread sends over a
/// [`crate::mem::MemTransport`] that is due at once is counted as
/// delivered but held back; when the outermost cork ends, what it held
/// for each endpoint goes into that endpoint's queue in one push, in the
/// order it was sent, with at most one wake-up.
/// [`crate::udp::UdpTransport`] ignores it.
///
/// Two places hold one: a reliable message's fragment loop, and a receive
/// thread's drain — the datagram its blocking `recv` returned and every
/// one its link had queued behind it, up to a window — so the data,
/// acknowledgements and handler sends of one wake-up leave together when
/// the drain ends.
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
        assert_eq!(d.into_tail(1), vec![2]);
    }
}
