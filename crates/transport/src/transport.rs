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

use smc_types::{Result, ServiceId};

/// A received datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Datagram {
    /// The sending endpoint.
    pub from: ServiceId,
    /// The raw bytes.
    pub payload: Vec<u8>,
    /// Whether this arrived via broadcast rather than unicast.
    pub broadcast: bool,
}

impl Datagram {
    /// Creates a unicast datagram record.
    pub fn unicast(from: ServiceId, payload: Vec<u8>) -> Self {
        Datagram {
            from,
            payload,
            broadcast: false,
        }
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
}
