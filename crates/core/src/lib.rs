//! The AMUSE self-managed-cell event service — the paper's primary
//! contribution, in Rust.
//!
//! The event bus at the heart of a *self-managed cell* (SMC) forwards
//! events from publishers to subscribers with **exactly-once,
//! per-sender-FIFO, acknowledged** delivery — stronger semantics than
//! stock publish/subscribe systems of the time offered, and sized for a
//! PDA coordinating a body-area network of health sensors rather than an
//! internet-scale broker.
//!
//! Layers (bottom-up):
//!
//! * [`EventBus`] — the in-process core: subscription registry + pluggable
//!   [matching engine](smc_match::Matcher) + dispatch to [`EventSink`]s;
//! * [`Proxy`]/[`DeviceCodec`]/[`ProxyFactory`] — per-member proxies that
//!   mask device heterogeneity and implement durable queueing, created by
//!   the bootstrap mechanism on `New Member` events;
//! * [`QuenchManager`] — Elvin-style publisher quenching (a future-work
//!   item of the paper, implemented here);
//! * [`SmcCell`] — the full cell: bus + discovery + policy + proxies;
//! * [`CellLink`] — one cell's membership in another: a peer import or a
//!   child export, the paper's two ways of composing cells;
//! * [`RemoteClient`]/[`RawDevice`] — the device-side libraries.
//!
//! # Quick start
//!
//! ```
//! use std::sync::Arc;
//! use std::time::Duration;
//! use smc_core::{RemoteClient, SmcCell, SmcConfig};
//! use smc_discovery::AgentConfig;
//! use smc_transport::{LinkConfig, ReliableChannel, ReliableConfig, SimNetwork};
//! use smc_types::{Event, Filter, ServiceId, ServiceInfo};
//!
//! // A simulated radio environment and a cell.
//! let net = SimNetwork::new(LinkConfig::ideal());
//! let cell = SmcCell::start(
//!     Arc::new(net.endpoint()),
//!     Arc::new(net.endpoint()),
//!     SmcConfig::fast(),
//! );
//!
//! // Two devices join and exchange an event through the bus.
//! let connect = |device_type: &str| {
//!     RemoteClient::connect(
//!         ServiceInfo::new(ServiceId::NIL, device_type),
//!         ReliableChannel::new(Arc::new(net.endpoint()), ReliableConfig::default()),
//!         AgentConfig::default(),
//!         Duration::from_secs(5),
//!     )
//! };
//! let sensor = connect("sensor.heart-rate")?;
//! let monitor = connect("monitor.station")?;
//! monitor.subscribe(Filter::for_type("smc.sensor.reading"), Duration::from_secs(5))?;
//! sensor.publish(
//!     Event::builder("smc.sensor.reading").attr("bpm", 72i64).build(),
//!     Duration::from_secs(5),
//! )?;
//! let got = monitor.next_event(Duration::from_secs(5))?;
//! assert_eq!(got.attr("bpm").and_then(|v| v.as_int()), Some(72));
//! # cell.shutdown();
//! # Ok::<(), smc_types::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bootstrap;
pub mod bus;
pub mod cell_link;
pub mod client;
pub mod metrics;
pub mod proxy;
pub mod quench;
pub mod smc;

pub use bootstrap::{CodecBuilder, ProxyFactory};
pub use bus::{ChannelSink, DeliveryFrame, EventBus, EventSink};
pub use cell_link::{cell_path, CellLink, LinkStats, PATH_ATTR, TARGET_TYPE_ARG};
pub use client::{CommandRequest, RawDevice, RemoteClient};
pub use metrics::{BusMetrics, MetricsSnapshot};
pub use proxy::{DeviceCodec, PassthroughCodec, Proxy, ProxyStats};
pub use quench::{QuenchChange, QuenchManager};
pub use smc::{ReconcileReport, SmcCell, SmcConfig};
