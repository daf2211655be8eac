//! The cell-side half of the telemetry plane: delta-encoding a metric
//! registry's samples into [`SeriesDelta`]s for a
//! [`TelemetryMsg::MetricDelta`](smc_types::TelemetryMsg) export.
//!
//! The encoding carries the same trick the core's WAL metric fold uses
//! to survive restarts: counters ship as *increments* since the last
//! export, and a counter observed *below* its previous value (the
//! instrument was rebuilt after a crash) saturates to "re-count from
//! the current value" instead of going negative. The observer only ever
//! adds non-negative deltas, so every ward-rolled counter is monotone
//! by construction no matter how often cells crash and recover.

use std::collections::HashMap;

use smc_types::SeriesDelta;

use crate::metrics::Sample;
use crate::ward::series_key;

/// Delta-encodes successive [`Sample`] snapshots of one cell's
/// registry. Keep one exporter per cell per observer; its memory is one
/// `u64` per live counter series.
#[derive(Debug, Default)]
pub struct DeltaExporter {
    /// Last exported absolute value per counter series key.
    last: HashMap<String, u64>,
    /// Counter resets noticed (diagnostics; each one re-counted from
    /// the observed value, never went backwards).
    resets: u64,
}

impl DeltaExporter {
    /// A fresh exporter: its first export re-counts every counter from
    /// its current value (delta = absolute), which is exactly the
    /// crash-recovery semantics — the ward total may double-count
    /// across a restart, but it never moves backwards.
    pub fn new() -> DeltaExporter {
        DeltaExporter::default()
    }

    /// Counter resets noticed so far.
    pub fn resets(&self) -> u64 {
        self.resets
    }

    /// Encodes `samples` (see [`crate::Registry::gather`]) as deltas
    /// against the previous export. Counters with a zero delta are
    /// elided (nothing to fold); gauges always ship their reading.
    pub fn export(&mut self, samples: &[Sample]) -> Vec<SeriesDelta> {
        let mut out = Vec::with_capacity(samples.len());
        for s in samples {
            if s.monotonic {
                let key = series_key(&s.name, &s.labels);
                let prev = self.last.get(&key).copied().unwrap_or(0);
                let delta = if s.value >= prev {
                    s.value - prev
                } else {
                    // The counter was rebuilt (crash, restart): what it
                    // shows now all happened since; re-count it.
                    self.resets += 1;
                    s.value
                };
                self.last.insert(key, s.value);
                if delta == 0 {
                    continue;
                }
                out.push(SeriesDelta {
                    name: s.name.clone(),
                    labels: s.labels.clone(),
                    monotonic: true,
                    value: delta,
                });
            } else {
                out.push(SeriesDelta {
                    name: s.name.clone(),
                    labels: s.labels.clone(),
                    monotonic: false,
                    value: s.value,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter(name: &str, value: u64) -> Sample {
        Sample::counter(name, "", &[], value)
    }

    fn gauge(name: &str, value: u64) -> Sample {
        Sample::gauge(name, "", &[], value)
    }

    #[test]
    fn counters_ship_increments_and_gauges_ship_readings() {
        let mut e = DeltaExporter::new();
        let first = e.export(&[counter("c", 10), gauge("g", 5)]);
        assert_eq!(first.len(), 2);
        assert_eq!(first[0].value, 10, "first sight re-counts from zero");
        assert_eq!(first[1].value, 5);

        let second = e.export(&[counter("c", 13), gauge("g", 2)]);
        assert_eq!(second[0].value, 3, "only the increment ships");
        assert!(second[0].monotonic);
        assert_eq!(second[1].value, 2, "gauges are absolute");
        assert!(!second[1].monotonic);
    }

    #[test]
    fn unchanged_counters_are_elided() {
        let mut e = DeltaExporter::new();
        e.export(&[counter("c", 10)]);
        let again = e.export(&[counter("c", 10)]);
        assert!(again.is_empty());
    }

    #[test]
    fn a_counter_reset_saturates_instead_of_going_backwards() {
        let mut e = DeltaExporter::new();
        e.export(&[counter("c", 100)]);
        // The cell crashed; the rebuilt counter starts over at 7.
        let after = e.export(&[counter("c", 7)]);
        assert_eq!(after.len(), 1);
        assert_eq!(after[0].value, 7, "re-count from the observed value");
        assert_eq!(e.resets(), 1);
        // Subsequent exports delta against the post-crash baseline.
        let next = e.export(&[counter("c", 9)]);
        assert_eq!(next[0].value, 2);
    }

    #[test]
    fn label_sets_are_distinct_series() {
        let mut e = DeltaExporter::new();
        let a = Sample {
            labels: vec![("q".into(), "a".into())],
            ..counter("c", 4)
        };
        let b = Sample {
            labels: vec![("q".into(), "b".into())],
            ..counter("c", 9)
        };
        let out = e.export(&[a, b]);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].value, 4);
        assert_eq!(out[1].value, 9);
    }
}
