//! The SMC transport layer: generic datagram transports plus the
//! reliability layer that gives the event bus its delivery semantics.
//!
//! The paper's transport layer is an abstract class exposing `send` and
//! `recv` of byte arrays, with concrete subclasses per network (UDP for
//! the prototype, Bluetooth and ZigBee planned). This crate mirrors that:
//!
//! * [`Transport`] — the abstraction (unreliable datagrams, broadcast);
//! * [`MemTransport`]/[`SimNetwork`] — simulated network with configurable
//!   latency, jitter, loss, duplication, serial bandwidth, partitions and
//!   broadcast domains (radio range);
//! * [`UdpTransport`] — real UDP datagram sockets, ids derived from the
//!   socket address exactly as the prototype's 48-bit ids;
//! * [`ReliableChannel`] — acknowledged, exactly-once, per-sender-FIFO
//!   messaging with fragmentation, built on any `Transport`;
//! * [`LinkConfig`] — link profiles: the paper's 1.5 ms / 575 KB/s
//!   IP-over-USB link and the Bluetooth and ZigBee radios it plans for.
//!
//! Nothing here models the CPU of the device a transport runs on: the
//! paper's PDA is a testbed input, charged by `smc-bench` at the bus
//! host's receive boundary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod frame;
pub mod mem;
pub mod profile;
pub mod reliable;
pub mod transport;
pub mod udp;

pub use frame::{fragment, CumulativeAck, Frame, FRAME_HEADER_LEN};
pub use mem::{MemTransport, NetStats, SimNetwork};
pub use profile::LinkConfig;
pub use reliable::{
    ChannelJournal, ChannelStats, Handler, Incoming, PendingOutbound, Receipt, ReliableChannel,
    ReliableConfig, UnconsumedRx,
};
pub use transport::{Datagram, Transport};
pub use udp::UdpTransport;
