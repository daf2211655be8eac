//! Content-based matching engines for the SMC event bus.
//!
//! The paper builds its event bus twice: first around **Siena** (with heavy
//! representation translation at the engine boundary), then around a
//! dedicated matcher in C based on Siena's **fast forwarding** algorithm.
//! Both live here behind the [`Matcher`] trait:
//!
//! * [`SienaEngine`] — candidate index by event type, plus the translation
//!   round-trip the Java/JNI prototype paid on every match;
//! * [`FastForwardEngine`] — candidates picked by their equality
//!   constraints and verified in place, the constraint-sharing counting
//!   algorithm for the rest, on borrowed event data (the "C-based" bus).
//!
//! Both agree exactly on match semantics with a linear scan that calls
//! `Filter::matches` on every filter; the property tests in
//! `tests/engine_equivalence.rs` hold them to it (the scan is
//! `tests/support/naive.rs`, test code, not part of the library).
//!
//! ```
//! use smc_match::{EngineKind, Matcher};
//! use smc_types::{Event, Filter, Op, ServiceId, Subscription, SubscriptionId};
//!
//! let mut engine = EngineKind::FastForward.build();
//! engine.subscribe(Subscription::new(
//!     SubscriptionId(1),
//!     ServiceId::from_raw(0xA),
//!     Filter::for_type("smc.sensor.reading").with(("bpm", Op::Gt, 120i64)),
//! ))?;
//! let event = Event::builder("smc.sensor.reading").attr("bpm", 140i64).build();
//! assert_eq!(engine.matching_subscribers(&event), vec![ServiceId::from_raw(0xA)]);
//! # Ok::<(), smc_types::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod covering;
pub mod engine;
pub mod fastforward;
pub mod siena;

pub use covering::{any_interest, minimal_cover, overlaps};
pub use engine::{EngineKind, MatchScratch, Matcher, RouteSnapshot};
pub use fastforward::FastForwardEngine;
pub use siena::SienaEngine;
