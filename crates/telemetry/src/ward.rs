//! The observer-side half of the telemetry plane: folding per-cell
//! exports into ward-scale series and stitching cross-cell journeys.
//!
//! A [`WardRegistry`] consumes the [`TelemetryMsg`]s cells publish on
//! the telemetry channel and maintains three aggregates:
//!
//! * **Metrics** — every [`SeriesDelta`] folds into the observer's own
//!   [`Registry`] twice: once under a `cell="<id>"` label (the per-cell
//!   series) and once under `cell="ward"` (the rollup). Counters only
//!   ever *add* the non-negative deltas the
//!   [`DeltaExporter`](crate::DeltaExporter) produced, so ward counters
//!   are monotone by construction no matter how often cells crash.
//! * **Journeys** — exported trace hops from different cells merge into
//!   one causal [`StitchedJourney`] per trace, ordered by virtual
//!   timestamp, so a peer-supervision repair reads end to end:
//!   lease-lapse → claim → adopt → wire repair → remote restart.
//! * **Freshness** — per-cell last-export bookkeeping
//!   ([`CellFreshness`]) plus an aggregation-lag histogram, the "how
//!   stale is the ward view" question a sink-side dashboard asks.
//!
//! Replayed exports (a journaled channel re-delivering after a crash)
//! are deduplicated by per-cell export sequence number, so folding is
//! idempotent as well as monotone.

use std::collections::HashMap;
use std::fmt;
use std::sync::Mutex;

use smc_types::{SeriesDelta, TelemetryMsg, TraceId};

use crate::metrics::Registry;

/// One cell's export freshness as seen by the observer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellFreshness {
    /// The exporting cell's id.
    pub cell: u64,
    /// Highest export sequence number seen from this cell.
    pub last_export_seq: u64,
    /// Virtual timestamp of the most recent export (µs).
    pub last_delta_at_micros: u64,
    /// `now − last_delta_at_micros`: how stale this cell's slice of the
    /// ward view is (µs).
    pub lag_micros: u64,
}

/// One leg of a stitched cross-cell journey.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StitchedHop {
    /// The cell that recorded the hop.
    pub cell: u64,
    /// Hop label, e.g. `"claim"` or `"remote-restart"`.
    pub label: String,
    /// Virtual timestamp the hop was recorded at (µs).
    pub at_micros: u64,
}

/// A causal journey assembled from hops exported by several cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StitchedJourney {
    /// The trace the legs share.
    pub trace: TraceId,
    /// Legs ordered by virtual timestamp (arrival order breaks ties).
    pub legs: Vec<StitchedHop>,
    /// True if any exporting cell reported this trace evicted from its
    /// ring — earlier legs may be missing.
    pub truncated: bool,
}

impl fmt::Display for StitchedJourney {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "journey {} ({} legs)", self.trace, self.legs.len())?;
        if self.truncated {
            writeln!(f, "  (truncated — a cell's ring evicted earlier hops)")?;
        }
        let start = self.legs.first().map_or(0, |l| l.at_micros);
        for leg in &self.legs {
            writeln!(
                f,
                "  +{:>8}µs  cell {}  {}",
                leg.at_micros - start,
                leg.cell,
                leg.label
            )?;
        }
        Ok(())
    }
}

#[derive(Debug, Default)]
struct CellState {
    last_metric_seq: Option<u64>,
    last_trace_seq: Option<u64>,
    last_delta_at_micros: u64,
}

impl CellState {
    fn last_export_seq(&self) -> u64 {
        self.last_metric_seq
            .into_iter()
            .chain(self.last_trace_seq)
            .max()
            .unwrap_or(0)
    }
}

#[derive(Debug, Default)]
struct JourneyState {
    /// `(arrival index, hop)` so same-timestamp legs keep a stable
    /// order across runs.
    legs: Vec<(u64, StitchedHop)>,
    truncated: bool,
}

#[derive(Debug, Default)]
struct Inner {
    cells: HashMap<u64, CellState>,
    /// Absolute gauge readings per series key per cell, for ward
    /// rollup-by-sum.
    gauges: HashMap<String, HashMap<u64, u64>>,
    journeys: HashMap<u64, JourneyState>,
    arrivals: u64,
    duplicates: u64,
}

/// Folds per-cell telemetry exports into ward-scale series and stitched
/// journeys. See the [module docs](self).
#[derive(Debug)]
pub struct WardRegistry {
    registry: Registry,
    inner: Mutex<Inner>,
}

impl Default for WardRegistry {
    fn default() -> Self {
        WardRegistry::new()
    }
}

/// The label value the rolled-up ward series carries.
pub const WARD_LABEL: &str = "ward";

const FOLD_HELP: &str = "Series folded from per-cell telemetry exports.";

/// One series' identity, `name` plus its labels, as a map key. The
/// exporter and the ward fold must agree on it for a delta to land in
/// the series it came from; a reader tracking series across gathers
/// keys them the same way.
pub fn series_key(name: &str, labels: &[(String, String)]) -> String {
    let mut key = String::with_capacity(name.len() + 16 * labels.len());
    key.push_str(name);
    for (k, v) in labels {
        key.push('\u{1}');
        key.push_str(k);
        key.push('\u{2}');
        key.push_str(v);
    }
    key
}

impl WardRegistry {
    /// An empty ward view backed by its own registry.
    pub fn new() -> WardRegistry {
        let registry = Registry::new();
        registry.histogram(
            "smc_ward_aggregation_lag_micros",
            "Virtual-time lag between a cell stamping an export and the observer folding it.",
        );
        registry.counter(
            "smc_ward_exports_applied_total",
            "Telemetry exports folded into the ward view.",
        );
        registry.counter(
            "smc_ward_exports_duplicate_total",
            "Telemetry exports dropped as journal replays (seen sequence number).",
        );
        WardRegistry {
            registry,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// The observer's registry holding the folded per-cell and ward
    /// series; render with [`Registry::render_text`].
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Folds one telemetry message stamped at `export_at_micros` (the
    /// event timestamp) and observed at `observed_at_micros` (the
    /// observer's clock). Returns false for journal-replay duplicates,
    /// which are dropped without folding.
    pub fn apply(
        &self,
        msg: &TelemetryMsg,
        export_at_micros: u64,
        observed_at_micros: u64,
    ) -> bool {
        let mut inner = self.inner.lock().unwrap();
        match msg {
            TelemetryMsg::MetricDelta {
                cell,
                export_seq,
                series,
            } => {
                let state = inner.cells.entry(*cell).or_default();
                if state.last_metric_seq.is_some_and(|s| *export_seq <= s) {
                    inner.duplicates += 1;
                    self.note_duplicate();
                    return false;
                }
                state.last_metric_seq = Some(*export_seq);
                state.last_delta_at_micros = state.last_delta_at_micros.max(export_at_micros);
                for delta in series {
                    self.fold(&mut inner, *cell, delta);
                }
            }
            TelemetryMsg::TraceExport {
                cell,
                export_seq,
                hops,
                truncated,
            } => {
                let state = inner.cells.entry(*cell).or_default();
                if state.last_trace_seq.is_some_and(|s| *export_seq <= s) {
                    inner.duplicates += 1;
                    self.note_duplicate();
                    return false;
                }
                state.last_trace_seq = Some(*export_seq);
                state.last_delta_at_micros = state.last_delta_at_micros.max(export_at_micros);
                for hop in hops {
                    let arrival = inner.arrivals;
                    inner.arrivals += 1;
                    let journey = inner.journeys.entry(hop.trace).or_default();
                    journey.legs.push((
                        arrival,
                        StitchedHop {
                            cell: *cell,
                            label: hop.label.clone(),
                            at_micros: hop.at_micros,
                        },
                    ));
                }
                for trace in truncated {
                    inner.journeys.entry(*trace).or_default().truncated = true;
                }
            }
            TelemetryMsg::SloReport {
                cell,
                slo,
                window_micros,
                burn_milli,
                budget_left_milli,
            } => {
                let state = inner.cells.entry(*cell).or_default();
                state.last_delta_at_micros = state.last_delta_at_micros.max(export_at_micros);
                let cell_label = cell.to_string();
                let window_label = window_micros.to_string();
                let labels = [
                    ("slo", slo.as_str()),
                    ("window", window_label.as_str()),
                    ("cell", cell_label.as_str()),
                ];
                self.registry
                    .gauge_with(
                        "smc_slo_burn_rate_milli",
                        "SLO burn rate x1000 per window (1000 = exactly on budget).",
                        &labels,
                    )
                    .set(*burn_milli);
                self.registry
                    .gauge_with(
                        "smc_slo_budget_left_milli",
                        "SLO error budget remaining x1000 per window.",
                        &labels,
                    )
                    .set(*budget_left_milli);
            }
            _ => return false,
        }
        drop(inner);
        self.registry
            .counter(
                "smc_ward_exports_applied_total",
                "Telemetry exports folded into the ward view.",
            )
            .inc();
        self.registry
            .histogram(
                "smc_ward_aggregation_lag_micros",
                "Virtual-time lag between a cell stamping an export and the observer folding it.",
            )
            .observe(observed_at_micros.saturating_sub(export_at_micros));
        true
    }

    fn note_duplicate(&self) {
        self.registry
            .counter(
                "smc_ward_exports_duplicate_total",
                "Telemetry exports dropped as journal replays (seen sequence number).",
            )
            .inc();
    }

    fn fold(&self, inner: &mut Inner, cell: u64, delta: &SeriesDelta) {
        let cell_label = cell.to_string();
        let mut labels: Vec<(&str, &str)> = delta
            .labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        labels.push(("cell", cell_label.as_str()));
        if delta.monotonic {
            self.registry
                .counter_with(&delta.name, FOLD_HELP, &labels)
                .add(delta.value);
            *labels.last_mut().unwrap() = ("cell", WARD_LABEL);
            self.registry
                .counter_with(&delta.name, FOLD_HELP, &labels)
                .add(delta.value);
        } else {
            self.registry
                .gauge_with(&delta.name, FOLD_HELP, &labels)
                .set(delta.value);
            // The ward gauge is the sum of the latest reading from
            // every cell.
            let key = series_key(&delta.name, &delta.labels);
            let per_cell = inner.gauges.entry(key).or_default();
            per_cell.insert(cell, delta.value);
            let sum: u64 = per_cell.values().sum();
            *labels.last_mut().unwrap() = ("cell", WARD_LABEL);
            self.registry
                .gauge_with(&delta.name, FOLD_HELP, &labels)
                .set(sum);
        }
    }

    /// Per-cell export freshness as of virtual time `now`, ordered by
    /// cell id.
    pub fn freshness(&self, now_micros: u64) -> Vec<CellFreshness> {
        let inner = self.inner.lock().unwrap();
        let mut out: Vec<CellFreshness> = inner
            .cells
            .iter()
            .map(|(&cell, state)| CellFreshness {
                cell,
                last_export_seq: state.last_export_seq(),
                last_delta_at_micros: state.last_delta_at_micros,
                lag_micros: now_micros.saturating_sub(state.last_delta_at_micros),
            })
            .collect();
        out.sort_by_key(|f| f.cell);
        out
    }

    /// The stitched cross-cell journey for `trace`, or None if no cell
    /// has exported a hop for it.
    pub fn stitched(&self, trace: TraceId) -> Option<StitchedJourney> {
        let inner = self.inner.lock().unwrap();
        let state = inner.journeys.get(&trace.raw())?;
        let mut legs = state.legs.clone();
        legs.sort_by(|(ai, a), (bi, b)| a.at_micros.cmp(&b.at_micros).then(ai.cmp(bi)));
        Some(StitchedJourney {
            trace,
            legs: legs.into_iter().map(|(_, hop)| hop).collect(),
            truncated: state.truncated,
        })
    }

    /// Every trace the observer has stitched at least one leg for.
    pub fn traces(&self) -> Vec<TraceId> {
        let inner = self.inner.lock().unwrap();
        let mut out: Vec<TraceId> = inner
            .journeys
            .keys()
            .map(|&t| TraceId::from_raw(t))
            .collect();
        out.sort_by_key(|t| t.raw());
        out
    }

    /// The newest export timestamp folded so far (µs) — a stand-in for
    /// "now" when the caller has no clock.
    pub fn latest_export_micros(&self) -> u64 {
        let inner = self.inner.lock().unwrap();
        inner
            .cells
            .values()
            .map(|c| c.last_delta_at_micros)
            .max()
            .unwrap_or(0)
    }

    /// Exports dropped as journal-replay duplicates.
    pub fn duplicates(&self) -> u64 {
        self.inner.lock().unwrap().duplicates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smc_types::HopExport;

    fn delta(name: &str, monotonic: bool, value: u64) -> SeriesDelta {
        SeriesDelta {
            name: name.into(),
            labels: vec![],
            monotonic,
            value,
        }
    }

    fn metric_delta(cell: u64, seq: u64, series: Vec<SeriesDelta>) -> TelemetryMsg {
        TelemetryMsg::MetricDelta {
            cell,
            export_seq: seq,
            series,
        }
    }

    fn value_of(ward: &WardRegistry, name: &str, cell: &str) -> u64 {
        ward.registry()
            .gather()
            .into_iter()
            .find(|s| s.name == name && s.labels.iter().any(|(k, v)| k == "cell" && v == cell))
            .map(|s| s.value)
            .unwrap_or_else(|| panic!("no series {name}{{cell={cell}}}"))
    }

    #[test]
    fn counters_fold_per_cell_and_roll_up_to_the_ward() {
        let ward = WardRegistry::new();
        ward.apply(
            &metric_delta(1, 1, vec![delta("smc_pub_total", true, 5)]),
            10,
            12,
        );
        ward.apply(
            &metric_delta(2, 1, vec![delta("smc_pub_total", true, 3)]),
            10,
            12,
        );
        ward.apply(
            &metric_delta(1, 2, vec![delta("smc_pub_total", true, 4)]),
            20,
            22,
        );
        assert_eq!(value_of(&ward, "smc_pub_total", "1"), 9);
        assert_eq!(value_of(&ward, "smc_pub_total", "2"), 3);
        assert_eq!(value_of(&ward, "smc_pub_total", "ward"), 12);
    }

    #[test]
    fn ward_gauges_are_the_sum_of_latest_cell_readings() {
        let ward = WardRegistry::new();
        ward.apply(
            &metric_delta(1, 1, vec![delta("smc_members", false, 2)]),
            10,
            10,
        );
        ward.apply(
            &metric_delta(2, 1, vec![delta("smc_members", false, 2)]),
            10,
            10,
        );
        assert_eq!(value_of(&ward, "smc_members", "ward"), 4);
        // Cell 1's membership shrinks; the ward reading follows, it
        // does not accumulate.
        ward.apply(
            &metric_delta(1, 2, vec![delta("smc_members", false, 1)]),
            20,
            20,
        );
        assert_eq!(value_of(&ward, "smc_members", "1"), 1);
        assert_eq!(value_of(&ward, "smc_members", "ward"), 3);
    }

    #[test]
    fn journal_replays_are_idempotent() {
        let ward = WardRegistry::new();
        let msg = metric_delta(1, 7, vec![delta("smc_pub_total", true, 5)]);
        assert!(ward.apply(&msg, 10, 11));
        assert!(!ward.apply(&msg, 10, 99), "same seq folds once");
        assert_eq!(value_of(&ward, "smc_pub_total", "ward"), 5);
        assert_eq!(ward.duplicates(), 1);
    }

    #[test]
    fn hops_from_two_cells_stitch_into_one_ordered_journey() {
        let ward = WardRegistry::new();
        let trace = TraceId::from_raw(0xAB);
        // Cell 2's export arrives first even though its hops happened
        // later — stitching orders by virtual time, not arrival.
        ward.apply(
            &TelemetryMsg::TraceExport {
                cell: 2,
                export_seq: 1,
                hops: vec![HopExport {
                    trace: trace.raw(),
                    label: "remote-restart".into(),
                    at_micros: 500,
                }],
                truncated: vec![],
            },
            600,
            600,
        );
        ward.apply(
            &TelemetryMsg::TraceExport {
                cell: 1,
                export_seq: 1,
                hops: vec![
                    HopExport {
                        trace: trace.raw(),
                        label: "lease-lapse".into(),
                        at_micros: 100,
                    },
                    HopExport {
                        trace: trace.raw(),
                        label: "claim".into(),
                        at_micros: 100,
                    },
                    HopExport {
                        trace: trace.raw(),
                        label: "adopt".into(),
                        at_micros: 300,
                    },
                ],
                truncated: vec![],
            },
            700,
            700,
        );
        let journey = ward.stitched(trace).expect("stitched");
        let labels: Vec<&str> = journey.legs.iter().map(|l| l.label.as_str()).collect();
        assert_eq!(labels, ["lease-lapse", "claim", "adopt", "remote-restart"]);
        assert!(!journey.truncated);
        assert!(journey
            .legs
            .windows(2)
            .all(|w| w[0].at_micros <= w[1].at_micros));
        let rendered = journey.to_string();
        assert!(rendered.contains("cell 2  remote-restart"), "{rendered}");
    }

    #[test]
    fn truncated_traces_mark_the_stitched_journey() {
        let ward = WardRegistry::new();
        let trace = TraceId::from_raw(0xCD);
        ward.apply(
            &TelemetryMsg::TraceExport {
                cell: 1,
                export_seq: 1,
                hops: vec![HopExport {
                    trace: trace.raw(),
                    label: "claim".into(),
                    at_micros: 100,
                }],
                truncated: vec![trace.raw()],
            },
            200,
            200,
        );
        assert!(ward.stitched(trace).expect("stitched").truncated);
    }

    #[test]
    fn freshness_tracks_last_export_and_lag() {
        let ward = WardRegistry::new();
        ward.apply(&metric_delta(1, 3, vec![]), 1_000, 1_050);
        ward.apply(&metric_delta(2, 5, vec![]), 2_000, 2_010);
        let fresh = ward.freshness(3_000);
        assert_eq!(fresh.len(), 2);
        assert_eq!(fresh[0].cell, 1);
        assert_eq!(fresh[0].last_export_seq, 3);
        assert_eq!(fresh[0].last_delta_at_micros, 1_000);
        assert_eq!(fresh[0].lag_micros, 2_000);
        assert_eq!(fresh[1].cell, 2);
        assert_eq!(fresh[1].lag_micros, 1_000);
    }

    #[test]
    fn slo_reports_surface_as_labelled_gauges() {
        let ward = WardRegistry::new();
        ward.apply(
            &TelemetryMsg::SloReport {
                cell: 1,
                slo: "delivery-latency".into(),
                window_micros: 5_000_000,
                burn_milli: 2_500,
                budget_left_milli: 0,
            },
            100,
            100,
        );
        let sample = ward
            .registry()
            .gather()
            .into_iter()
            .find(|s| s.name == "smc_slo_burn_rate_milli")
            .expect("burn gauge");
        assert_eq!(sample.value, 2_500);
        assert!(sample
            .labels
            .contains(&("slo".into(), "delivery-latency".into())));
        assert!(sample.labels.contains(&("window".into(), "5000000".into())));
    }
}
