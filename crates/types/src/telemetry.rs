//! The telemetry-plane wire protocol.
//!
//! Since PR 7 the system is multi-cell, but observability was still
//! strictly per-cell: a journey ended at the cell boundary and each
//! cell's registry was only visible on its own status server. This
//! module defines the typed `smc.telemetry` events that carry
//! observability *through the event system itself* (the ACME
//! aggregate-in-network architecture), mirroring how
//! [`SupervisionMsg`](crate::SupervisionMsg) carries the supervision
//! protocol:
//!
//! - **MetricDelta** — a delta-encoded snapshot of one cell's metric
//!   registry. Counters ship as non-negative increments since the last
//!   export (a reset after a crash saturates to "re-count from here"),
//!   so the observer's fold is monotone by construction; gauges ship as
//!   absolute values.
//! - **TraceExport** — hop records exported for cross-cell journey
//!   stitching, each tagged with the exporting cell.
//! - **SloReport** — burn rates of an error budget over a virtual-time
//!   window, computed close to the signal and shipped as data.
//!
//! Messages encode as plain [`Event`]s (scalar fields as attributes,
//! repeated fields in the payload via the wire codec) so they reuse the
//! event codec and can be filtered, journaled, and replayed like any
//! other event.

use bytes::{BufMut, BytesMut};

use crate::codec::{Reader, WriteExt};
use crate::event::Event;
use crate::id::ServiceId;
use crate::member::wellknown;
use crate::trace::TraceId;

/// One exported series: the delta (counters) or absolute value (gauges)
/// of a single labelled metric since the previous export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesDelta {
    /// Metric name (histograms export their `_bucket`/`_sum`/`_count`
    /// expansions as counter series).
    pub name: String,
    /// Label pairs, excluding the `cell` label the observer adds.
    pub labels: Vec<(String, String)>,
    /// `true`: `value` is an increment to fold in. `false`: `value` is
    /// the gauge's current reading.
    pub monotonic: bool,
    /// The increment or reading.
    pub value: u64,
}

/// One hop record exported for cross-cell stitching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HopExport {
    /// Raw trace id the hop belongs to.
    pub trace: u64,
    /// Hop label (`"published"`, `"lease-lapse"`, `"remote-restart"`…).
    pub label: String,
    /// Virtual time the hop was recorded at, microseconds.
    pub at_micros: u64,
}

/// One step of the telemetry-plane protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TelemetryMsg {
    /// A delta-encoded metric snapshot from one cell.
    MetricDelta {
        /// Member id of the exporting cell.
        cell: u64,
        /// Per-cell export sequence number (1-based, gaps mean loss —
        /// impossible on the journaled channel, detectable elsewhere).
        export_seq: u64,
        /// The exported series.
        series: Vec<SeriesDelta>,
    },
    /// Hop records exported for journey stitching.
    TraceExport {
        /// Member id of the exporting cell.
        cell: u64,
        /// Per-cell export sequence number (shared with `MetricDelta`).
        export_seq: u64,
        /// The exported hops.
        hops: Vec<HopExport>,
        /// Raw trace ids whose local journeys are known-truncated (the
        /// exporting cell's trace ring wrapped over them).
        truncated: Vec<u64>,
    },
    /// An SLO burn-rate report over one virtual-time window.
    SloReport {
        /// Member id of the reporting cell.
        cell: u64,
        /// SLO name (`"delivery-latency"`, `"supervision-ttr"`…).
        slo: String,
        /// The window the burn rate was computed over, microseconds.
        window_micros: u64,
        /// Burn rate ×1000: 1000 = consuming exactly the budget,
        /// >1000 = on course to exhaust it before the period ends.
        burn_milli: u64,
        /// Remaining error budget ×1000 (0 = exhausted).
        budget_left_milli: u64,
    },
}

impl TelemetryMsg {
    /// The protocol kind tag carried in [`wellknown::TEL_KIND`].
    pub fn kind(&self) -> &'static str {
        match self {
            TelemetryMsg::MetricDelta { .. } => "metric-delta",
            TelemetryMsg::TraceExport { .. } => "trace-export",
            TelemetryMsg::SloReport { .. } => "slo-report",
        }
    }

    /// Render the message as a typed `smc.telemetry` event, ready for
    /// the event codec and the reliable channel. `timestamp_micros` is
    /// the export stamp the observer measures aggregation lag against.
    pub fn to_event(&self, timestamp_micros: u64) -> Event {
        let builder = Event::builder(wellknown::TELEMETRY)
            .attr(wellknown::TEL_KIND, self.kind())
            .timestamp_micros(timestamp_micros);
        match self {
            TelemetryMsg::MetricDelta {
                cell,
                export_seq,
                series,
            } => {
                let mut buf = BytesMut::new();
                buf.put_u32_le(series.len() as u32);
                for s in series {
                    buf.put_str(&s.name);
                    buf.put_u16_le(s.labels.len() as u16);
                    for (k, v) in &s.labels {
                        buf.put_str(k);
                        buf.put_str(v);
                    }
                    buf.put_u8(u8::from(s.monotonic));
                    buf.put_u64_le(s.value);
                }
                builder
                    .attr(wellknown::TEL_CELL, *cell as i64)
                    .attr(wellknown::TEL_SEQ, *export_seq as i64)
                    .payload(buf.freeze().to_vec())
            }
            TelemetryMsg::TraceExport {
                cell,
                export_seq,
                hops,
                truncated,
            } => {
                let mut buf = BytesMut::new();
                buf.put_u32_le(hops.len() as u32);
                for h in hops {
                    buf.put_u64_le(h.trace);
                    buf.put_str(&h.label);
                    buf.put_u64_le(h.at_micros);
                }
                buf.put_u32_le(truncated.len() as u32);
                for t in truncated {
                    buf.put_u64_le(*t);
                }
                builder
                    .attr(wellknown::TEL_CELL, *cell as i64)
                    .attr(wellknown::TEL_SEQ, *export_seq as i64)
                    .payload(buf.freeze().to_vec())
            }
            TelemetryMsg::SloReport {
                cell,
                slo,
                window_micros,
                burn_milli,
                budget_left_milli,
            } => builder
                .attr(wellknown::TEL_CELL, *cell as i64)
                .attr(wellknown::TEL_SLO, slo.as_str())
                .attr(wellknown::TEL_WINDOW, *window_micros as i64)
                .attr(wellknown::TEL_BURN, *burn_milli as i64)
                .attr(wellknown::TEL_BUDGET, *budget_left_milli as i64),
        }
        .build()
    }

    /// Parse a telemetry message back out of an event. Returns `None`
    /// for non-telemetry events or malformed attribute sets/payloads,
    /// so a receiver can drop garbage without failing the channel.
    pub fn from_event(event: &Event) -> Option<Self> {
        if event.event_type() != wellknown::TELEMETRY {
            return None;
        }
        let int = |name: &str| event.attr(name)?.as_int().map(|v| v as u64);
        let kind = event.attr(wellknown::TEL_KIND)?.as_str()?;
        let msg = match kind {
            "metric-delta" => {
                let mut r = Reader::new(event.payload());
                let n = r.u32().ok()? as usize;
                // Counts are the sender's claim: reserve only what the
                // bytes left can hold (a series is at least 13 bytes, a
                // label 4, a hop 18, a truncated trace 8).
                let mut series = Vec::with_capacity(n.min(r.remaining() / 13));
                for _ in 0..n {
                    let name = r.str().ok()?;
                    let labels_n = r.u16().ok()? as usize;
                    let mut labels = Vec::with_capacity(labels_n.min(r.remaining() / 4));
                    for _ in 0..labels_n {
                        labels.push((r.str().ok()?, r.str().ok()?));
                    }
                    let monotonic = r.u8().ok()? != 0;
                    let value = r.u64().ok()?;
                    series.push(SeriesDelta {
                        name,
                        labels,
                        monotonic,
                        value,
                    });
                }
                TelemetryMsg::MetricDelta {
                    cell: int(wellknown::TEL_CELL)?,
                    export_seq: int(wellknown::TEL_SEQ)?,
                    series,
                }
            }
            "trace-export" => {
                let mut r = Reader::new(event.payload());
                let n = r.u32().ok()? as usize;
                let mut hops = Vec::with_capacity(n.min(r.remaining() / 18));
                for _ in 0..n {
                    let trace = r.u64().ok()?;
                    let label = r.str().ok()?;
                    let at_micros = r.u64().ok()?;
                    hops.push(HopExport {
                        trace,
                        label,
                        at_micros,
                    });
                }
                let t = r.u32().ok()? as usize;
                let mut truncated = Vec::with_capacity(t.min(r.remaining() / 8));
                for _ in 0..t {
                    truncated.push(r.u64().ok()?);
                }
                TelemetryMsg::TraceExport {
                    cell: int(wellknown::TEL_CELL)?,
                    export_seq: int(wellknown::TEL_SEQ)?,
                    hops,
                    truncated,
                }
            }
            "slo-report" => TelemetryMsg::SloReport {
                cell: int(wellknown::TEL_CELL)?,
                slo: event.attr(wellknown::TEL_SLO)?.as_str()?.to_string(),
                window_micros: int(wellknown::TEL_WINDOW)?,
                burn_milli: int(wellknown::TEL_BURN)?,
                budget_left_milli: int(wellknown::TEL_BUDGET)?,
            },
            _ => return None,
        };
        Some(msg)
    }
}

/// Namespace offset for episode trace ids (see [`episode_trace`]).
const EPISODE_NS: u64 = 0xEC_0000;

/// The deterministic trace id of a peer-supervision failure episode:
/// the `ordinal`-th (1-based) adoption episode whose target is cell
/// member `target_member`. Both the adopter and the repaired cell can
/// derive it, so the hops each side records — lease-lapse, claim,
/// adopt, wire repair on one side, remote restart on the other — stitch
/// into one causal journey at the observer, queryable on its status
/// server as `/journey?sender=<0xEC0000 + member>&seq=<ordinal>`.
pub fn episode_trace(target_member: u64, ordinal: u64) -> TraceId {
    TraceId::for_event(ServiceId::from_raw(EPISODE_NS + target_member), ordinal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{from_bytes, to_bytes};

    fn all_messages() -> Vec<TelemetryMsg> {
        vec![
            TelemetryMsg::MetricDelta {
                cell: 1,
                export_seq: 7,
                series: vec![
                    SeriesDelta {
                        name: "smc_cell_published_total".into(),
                        labels: vec![],
                        monotonic: true,
                        value: 42,
                    },
                    SeriesDelta {
                        name: "smc_cell_members".into(),
                        labels: vec![("shard".into(), "a\"b".into())],
                        monotonic: false,
                        value: 3,
                    },
                ],
            },
            TelemetryMsg::TraceExport {
                cell: 2,
                export_seq: 8,
                hops: vec![
                    HopExport {
                        trace: 0xDEAD,
                        label: "lease-lapse".into(),
                        at_micros: 1_000,
                    },
                    HopExport {
                        trace: 0xDEAD,
                        label: "claim".into(),
                        at_micros: 1_002,
                    },
                ],
                truncated: vec![0xBEEF],
            },
            TelemetryMsg::SloReport {
                cell: 1,
                slo: "delivery-latency".into(),
                window_micros: 5_000_000,
                burn_milli: 1_250,
                budget_left_milli: 730,
            },
        ]
    }

    #[test]
    fn every_message_round_trips_through_the_event_codec() {
        for msg in all_messages() {
            let event = msg.to_event(42);
            let bytes = to_bytes(&event);
            let back: Event = from_bytes(&bytes).expect("event decodes");
            assert_eq!(back.event_type(), wellknown::TELEMETRY);
            assert_eq!(back.timestamp_micros(), 42);
            let parsed = TelemetryMsg::from_event(&back).expect("message parses");
            assert_eq!(parsed, msg, "round trip for kind {}", msg.kind());
        }
    }

    #[test]
    fn empty_collections_round_trip() {
        let msg = TelemetryMsg::MetricDelta {
            cell: 1,
            export_seq: 1,
            series: vec![],
        };
        let back = TelemetryMsg::from_event(&msg.to_event(0)).expect("parses");
        assert_eq!(back, msg);
        let msg = TelemetryMsg::TraceExport {
            cell: 1,
            export_seq: 2,
            hops: vec![],
            truncated: vec![],
        };
        let back = TelemetryMsg::from_event(&msg.to_event(0)).expect("parses");
        assert_eq!(back, msg);
    }

    #[test]
    fn foreign_and_malformed_events_parse_to_none() {
        let foreign = Event::builder("smc.alarm").build();
        assert!(TelemetryMsg::from_event(&foreign).is_none());

        let unknown_kind = Event::builder(wellknown::TELEMETRY)
            .attr(wellknown::TEL_KIND, "gossip")
            .build();
        assert!(TelemetryMsg::from_event(&unknown_kind).is_none());

        let missing_attr = Event::builder(wellknown::TELEMETRY)
            .attr(wellknown::TEL_KIND, "slo-report")
            .attr(wellknown::TEL_CELL, 1i64)
            .build();
        assert!(
            TelemetryMsg::from_event(&missing_attr).is_none(),
            "an slo report without a window is malformed"
        );

        // A metric delta whose payload is torn parses to None, not a
        // panic or a half-read series list.
        let torn = Event::builder(wellknown::TELEMETRY)
            .attr(wellknown::TEL_KIND, "metric-delta")
            .attr(wellknown::TEL_CELL, 1i64)
            .attr(wellknown::TEL_SEQ, 1i64)
            .payload(vec![9, 0, 0, 0, 1])
            .build();
        assert!(TelemetryMsg::from_event(&torn).is_none());
    }

    #[test]
    fn kind_tags_are_distinct() {
        let msgs = all_messages();
        for (i, a) in msgs.iter().enumerate() {
            for b in msgs.iter().skip(i + 1) {
                assert_ne!(a.kind(), b.kind());
            }
        }
    }

    #[test]
    fn episode_traces_are_distinct_and_deterministic() {
        assert_eq!(episode_trace(1, 1), episode_trace(1, 1));
        assert_ne!(episode_trace(1, 1), episode_trace(2, 1));
        assert_ne!(episode_trace(1, 1), episode_trace(1, 2));
        assert!(episode_trace(1, 1).is_some());
    }
}
