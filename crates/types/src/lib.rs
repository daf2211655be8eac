//! Shared vocabulary of the AMUSE self-managed-cell (SMC) reproduction:
//! identifiers, events, content filters, the byte-array wire codec, packet
//! formats and clock abstractions.
//!
//! This crate has no opinions about networking or threading — it only
//! defines *what* the components say to each other, exactly as the paper's
//! transport layer confines itself to `send`/`recv` of byte arrays.
//!
//! # Example
//!
//! ```
//! use smc_types::{codec, Event, Filter, Op, Packet, ServiceId};
//!
//! // A sensor event…
//! let event = Event::builder("smc.sensor.reading")
//!     .attr("sensor", "heart-rate")
//!     .attr("bpm", 131i64)
//!     .publisher(ServiceId::from_raw(0xA))
//!     .seq(1)
//!     .build();
//!
//! // …a filter that matches it…
//! let filter = Filter::for_type("smc.sensor.reading").with(("bpm", Op::Gt, 120i64));
//! assert!(filter.matches(&event));
//!
//! // …and the byte-array form that crosses the transport layer.
//! let wire = codec::to_bytes(&Packet::publish(event));
//! let back: Packet = codec::from_bytes(&wire)?;
//! assert!(matches!(back, Packet::Publish { .. }));
//! # Ok::<(), smc_types::CodecError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod buffer;
pub mod clock;
pub mod codec;
pub mod error;
pub mod event;
pub mod filter;
pub mod id;
pub mod member;
pub mod packet;
pub mod shared;
pub mod snap;
pub mod supervision;
pub mod telemetry;
pub mod text;
pub mod trace;
pub mod value;
pub mod wal;

pub use buffer::{MessageBuf, Spares, MAX_SPARE_LEN, SPARE_BUFFERS, SPARE_BYTES};
pub use clock::{system_clock, Clock, ManualClock, SharedClock, SystemClock};
pub use error::{CodecError, Error, Result};
pub use event::{AttributeSet, Attributes, Event, EventBuilder};
pub use filter::{Constraint, Filter, Op, Subscription};
pub use id::{CellId, EventId, ServiceId, SubscriptionId};
pub use member::{
    device_type_of, member_id_of, new_member_event, purge_member_event, wellknown, PurgeReason,
    ServiceInfo,
};
pub use packet::{encode_deliver, Packet};
pub use shared::SharedBytes;
pub use snap::SnapshotCell;
pub use supervision::SupervisionMsg;
pub use telemetry::{episode_trace, HopExport, SeriesDelta, TelemetryMsg};
pub use text::parse_filter;
pub use trace::TraceId;
pub use value::AttributeValue;
pub use wal::{CoreSnapshot, CursorEntry, OutboundEntry, RetainedOutbound, WalRecord};
