//! `amuse` — a Rust reproduction of the AMUSE self-managed-cell event
//! service ("An Event Service Supporting Autonomic Management of
//! Ubiquitous Systems for e-Health", Strowes et al., ICDCSW 2006).
//!
//! This facade crate re-exports the workspace's public API under one
//! roof. The layers, bottom-up:
//!
//! * [`types`] — events, filters, identifiers, the byte-array wire codec;
//! * [`matching`] — the two content-matching engines (Siena-style, and
//!   the fast-forwarding table of the "C-based" bus);
//! * [`transport`] — datagram transports (simulated network, UDP) and
//!   the reliability layer (exactly-once, per-sender FIFO, acknowledged);
//! * [`discovery`] — cell membership: beacons, joins, leases, purges;
//! * [`policy`] — Ponder-style authorisation and obligation policies;
//! * [`core`] — the event bus, proxies, bootstrap, quenching, the
//!   inter-cell link, and the assembled [`core::SmcCell`].
//!
//! The simulated e-health devices and patient scenarios the examples
//! drive (`smc-sensors`: vital-sign traces, device byte formats, runner
//! threads) are example support, not product: the proxy mechanism they
//! plug into (`DeviceCodec`, `Proxy`, `Bootstrap`) is [`core`]'s, and
//! the examples import `smc_sensors` directly as a dev-dependency.
//!
//! See `examples/quickstart.rs` for the five-minute tour.

#![forbid(unsafe_code)]

pub use smc_core as core;
pub use smc_discovery as discovery;
pub use smc_match as matching;
pub use smc_policy as policy;
pub use smc_transport as transport;
pub use smc_types as types;

pub use smc_core::{RawDevice, RemoteClient, SmcCell, SmcConfig};
pub use smc_types::{Event, Filter, Op, ServiceId, ServiceInfo};
