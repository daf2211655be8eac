//! The SMC discovery service: group membership for a self-managed cell.
//!
//! Implements the paper's §II-B: a discovery protocol that searches for
//! new devices, admits them (with application-specific authentication),
//! keeps track of their liveness via leases, *masks transient
//! disconnections* with a grace period ("a nurse leaves the room for a
//! short period of time before returning"), and announces permanent
//! arrivals/departures as `New Member` / `Purge Member` events.
//!
//! Two halves:
//!
//! * [`DiscoveryService`] — cell side: beacons, join handshake, lease
//!   bookkeeping, purges;
//! * [`MemberAgent`] — device side: beacon listening, joining,
//!   heartbeating, loss detection and automatic rejoin.
//!
//! Group membership deliberately does **not** travel over the event bus;
//! the service hands each [`MembershipEvent`] to its owner's
//! [`MembershipHandler`], in the order the table changed, and the cell
//! wiring (in `smc-core`) publishes the corresponding bus events.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod agent;
pub mod auth;
pub mod membership;
pub mod service;

pub use agent::{AgentConfig, AgentEvent, MemberAgent, PacketSink};
pub use auth::{AcceptAll, Authenticator, DeviceTypeAllowList, SharedSecret};
pub use membership::{MemberRecord, MemberState, MembershipEvent, MembershipTable};
pub use service::{DiscoveryConfig, DiscoveryService, DiscoveryStats, MembershipHandler, Ticker};
