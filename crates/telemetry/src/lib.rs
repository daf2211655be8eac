//! First-party observability for the SMC: causal event traces and a
//! metrics registry with Prometheus-style text exposition.
//!
//! The workspace is offline — no `tracing`, no `prometheus` — so this
//! crate provides the two primitives the paper's evaluation needs,
//! vendor-style:
//!
//! * **Event tracing** ([`trace`]): every stamped event has a
//!   [`TraceId`](smc_types::TraceId) derivable from its identity;
//!   instrumented components append timestamped [`Hop`] records to a
//!   bounded, lock-light ring-buffer [`TraceSink`]. A sink can replay any
//!   event's hop-by-hop [`Journey`] with per-hop latencies — the "where
//!   did this event spend its time" question Fig. 4 asks in aggregate.
//! * **Metrics** ([`metrics`]): named counters, gauges and log₂-bucketed
//!   histograms in a [`Registry`] whose [`Registry::render_text`] emits
//!   the `# HELP`/`# TYPE` exposition format, so soak logs and future
//!   scrape endpoints speak a standard dialect.
//!
//! Both halves are deliberately deterministic: a [`Tracer`] timestamps
//! from an injected [`SharedClock`](smc_types::SharedClock), so the
//! virtual-time chaos harness produces byte-identical journeys run after
//! run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod critical;
pub mod export;
pub mod metrics;
pub mod slo;
pub mod trace;
pub mod ward;

pub use critical::{json_string, CriticalPath, StageRow, TailExemplar, TailReservoir};
pub use export::DeltaExporter;
pub use metrics::{
    parse_text, Counter, Exemplar, ExemplarEntry, Gauge, Histogram, ParsedSample, Registry, Sample,
};
pub use slo::{SloConfig, SloTracker, SloWindowBurn};
pub use trace::{
    Hop, HopRecord, Journey, LegAttribution, StageKind, TraceSink, Tracer, DEFAULT_SINK_CAPACITY,
};
pub use ward::{series_key, CellFreshness, StitchedHop, StitchedJourney, WardRegistry};
