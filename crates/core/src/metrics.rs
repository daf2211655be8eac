//! Bus activity counters.

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic counters describing everything the bus did.
///
/// All counters are relaxed atomics — they are diagnostics, not
/// synchronisation.
#[derive(Debug, Default)]
pub struct BusMetrics {
    /// Events accepted from publishers.
    pub published: AtomicU64,
    /// Event deliveries attempted (events × matching subscribers).
    pub deliveries: AtomicU64,
    /// Events that matched no subscription.
    pub unmatched: AtomicU64,
    /// Deliveries that failed outright (send error).
    pub delivery_failures: AtomicU64,
    /// Subscriptions registered.
    pub subscriptions: AtomicU64,
    /// Subscriptions removed.
    pub unsubscriptions: AtomicU64,
    /// Publish attempts rejected by policy.
    pub publishes_denied: AtomicU64,
    /// Subscribe attempts rejected by policy.
    pub subscribes_denied: AtomicU64,
    /// Quench state flips sent to publishers.
    pub quench_signals: AtomicU64,
    /// Obligation policy actions executed by the cell.
    pub policy_actions: AtomicU64,
    /// Payload bytes carried by accepted events.
    pub bytes_published: AtomicU64,
    /// High-water mark of any proxy's outbound queue depth.
    pub proxy_queue_hwm: AtomicU64,
    /// Framed bytes appended to the write-ahead log (durable cells only).
    pub wal_bytes_appended: AtomicU64,
    /// Fsyncs issued by the write-ahead log.
    pub wal_fsyncs: AtomicU64,
    /// Snapshots written by the write-ahead log.
    pub wal_snapshots: AtomicU64,
    /// Wall-clock duration of the last WAL recovery, in microseconds.
    pub wal_recovery_micros: AtomicU64,
    /// Spin iterations route-snapshot writers spent draining readers
    /// (mirrored from the routes [`SnapshotCell`](smc_types::SnapshotCell)
    /// by [`EventBus::metrics`](crate::EventBus::metrics)).
    pub route_writer_wait_spins: AtomicU64,
    /// Route-snapshot publications that had to wait for a reader.
    pub route_writer_waits: AtomicU64,
}

impl BusMetrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        BusMetrics::default()
    }

    /// Bumps a counter by one.
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds to a counter.
    pub(crate) fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Raises a high-water-mark counter to at least `value`.
    pub(crate) fn fetch_max(counter: &AtomicU64, value: u64) {
        counter.fetch_max(value, Ordering::Relaxed);
    }

    /// Overwrites a gauge with an externally-tracked value.
    pub(crate) fn put(counter: &AtomicU64, value: u64) {
        counter.store(value, Ordering::Relaxed);
    }

    /// A plain-value snapshot of all counters.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            published: self.published.load(Ordering::Relaxed),
            deliveries: self.deliveries.load(Ordering::Relaxed),
            unmatched: self.unmatched.load(Ordering::Relaxed),
            delivery_failures: self.delivery_failures.load(Ordering::Relaxed),
            subscriptions: self.subscriptions.load(Ordering::Relaxed),
            unsubscriptions: self.unsubscriptions.load(Ordering::Relaxed),
            publishes_denied: self.publishes_denied.load(Ordering::Relaxed),
            subscribes_denied: self.subscribes_denied.load(Ordering::Relaxed),
            quench_signals: self.quench_signals.load(Ordering::Relaxed),
            policy_actions: self.policy_actions.load(Ordering::Relaxed),
            bytes_published: self.bytes_published.load(Ordering::Relaxed),
            proxy_queue_hwm: self.proxy_queue_hwm.load(Ordering::Relaxed),
            wal_bytes_appended: self.wal_bytes_appended.load(Ordering::Relaxed),
            wal_fsyncs: self.wal_fsyncs.load(Ordering::Relaxed),
            wal_snapshots: self.wal_snapshots.load(Ordering::Relaxed),
            wal_recovery_micros: self.wal_recovery_micros.load(Ordering::Relaxed),
            route_writer_wait_spins: self.route_writer_wait_spins.load(Ordering::Relaxed),
            route_writer_waits: self.route_writer_waits.load(Ordering::Relaxed),
        }
    }
}

/// Plain-value copy of [`BusMetrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct MetricsSnapshot {
    pub published: u64,
    pub deliveries: u64,
    pub unmatched: u64,
    pub delivery_failures: u64,
    pub subscriptions: u64,
    pub unsubscriptions: u64,
    pub publishes_denied: u64,
    pub subscribes_denied: u64,
    pub quench_signals: u64,
    pub policy_actions: u64,
    pub bytes_published: u64,
    pub proxy_queue_hwm: u64,
    pub wal_bytes_appended: u64,
    pub wal_fsyncs: u64,
    pub wal_snapshots: u64,
    pub wal_recovery_micros: u64,
    pub route_writer_wait_spins: u64,
    pub route_writer_waits: u64,
}

/// Migrates [`BusMetrics`] into a telemetry [`Registry`](smc_telemetry::Registry): installs a
/// collector that samples `source` at every render, exposing each counter
/// under a `smc_bus_*` name. The [`BusMetrics`] atomics stay the source
/// of truth (and `snapshot()` keeps working), so hot paths are untouched.
pub fn register_bus_metrics(
    registry: &smc_telemetry::Registry,
    source: impl Fn() -> MetricsSnapshot + Send + Sync + 'static,
) {
    use smc_telemetry::metrics::Sample;
    registry.register_collector(move |out| {
        let s = source();
        let mut counter = |name: &str, help: &str, value: u64| {
            out.push(Sample {
                name: name.to_owned(),
                help: help.to_owned(),
                monotonic: true,
                labels: Vec::new(),
                value,
            });
        };
        counter(
            "smc_bus_published_total",
            "Events accepted from publishers.",
            s.published,
        );
        counter(
            "smc_bus_deliveries_total",
            "Event deliveries attempted (events x matching subscribers).",
            s.deliveries,
        );
        counter(
            "smc_bus_unmatched_total",
            "Events that matched no subscription.",
            s.unmatched,
        );
        counter(
            "smc_bus_delivery_failures_total",
            "Deliveries that failed outright (send error).",
            s.delivery_failures,
        );
        counter(
            "smc_bus_subscriptions_total",
            "Subscriptions registered.",
            s.subscriptions,
        );
        counter(
            "smc_bus_unsubscriptions_total",
            "Subscriptions removed.",
            s.unsubscriptions,
        );
        counter(
            "smc_bus_publishes_denied_total",
            "Publish attempts rejected by policy.",
            s.publishes_denied,
        );
        counter(
            "smc_bus_subscribes_denied_total",
            "Subscribe attempts rejected by policy.",
            s.subscribes_denied,
        );
        counter(
            "smc_bus_quench_signals_total",
            "Quench state flips sent to publishers.",
            s.quench_signals,
        );
        counter(
            "smc_bus_policy_actions_total",
            "Obligation policy actions executed by the cell.",
            s.policy_actions,
        );
        counter(
            "smc_bus_bytes_published_total",
            "Payload bytes carried by accepted events.",
            s.bytes_published,
        );
        counter(
            "smc_wal_bytes_appended_total",
            "Framed bytes appended to the write-ahead log.",
            s.wal_bytes_appended,
        );
        counter(
            "smc_wal_fsyncs_total",
            "Fsyncs issued by the write-ahead log.",
            s.wal_fsyncs,
        );
        counter(
            "smc_wal_snapshots_total",
            "Snapshots written by the write-ahead log.",
            s.wal_snapshots,
        );
        counter(
            "smc_bus_route_writer_wait_spins_total",
            "Spin iterations route-snapshot writers spent draining readers.",
            s.route_writer_wait_spins,
        );
        counter(
            "smc_bus_route_writer_waits_total",
            "Route-snapshot publications that waited for a reader.",
            s.route_writer_waits,
        );
        let mut gauge = |name: &str, help: &str, value: u64| {
            out.push(Sample {
                name: name.to_owned(),
                help: help.to_owned(),
                monotonic: false,
                labels: Vec::new(),
                value,
            });
        };
        gauge(
            "smc_bus_proxy_queue_hwm",
            "High-water mark of any proxy's outbound queue depth.",
            s.proxy_queue_hwm,
        );
        gauge(
            "smc_wal_recovery_micros",
            "Wall-clock duration of the last WAL recovery, in microseconds.",
            s.wal_recovery_micros,
        );
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = BusMetrics::new();
        BusMetrics::bump(&m.published);
        BusMetrics::bump(&m.published);
        BusMetrics::add(&m.bytes_published, 100);
        let snap = m.snapshot();
        assert_eq!(snap.published, 2);
        assert_eq!(snap.bytes_published, 100);
        assert_eq!(snap.deliveries, 0);
    }

    #[test]
    fn high_water_mark_only_rises() {
        let m = BusMetrics::new();
        BusMetrics::fetch_max(&m.proxy_queue_hwm, 5);
        BusMetrics::fetch_max(&m.proxy_queue_hwm, 3);
        assert_eq!(m.snapshot().proxy_queue_hwm, 5);
    }

    /// WAL fsync/snapshot/bytes counters are documented as monotonic and
    /// must behave that way: successive syncs accumulate, they never step
    /// backwards. (`put` remains only for true gauges such as
    /// `wal_recovery_micros`.)
    #[test]
    fn wal_counters_are_monotonic() {
        let m = BusMetrics::new();
        BusMetrics::add(&m.wal_fsyncs, 7);
        BusMetrics::add(&m.wal_fsyncs, 4);
        BusMetrics::add(&m.wal_snapshots, 1);
        BusMetrics::add(&m.wal_snapshots, 1);
        BusMetrics::add(&m.wal_bytes_appended, 100);
        BusMetrics::add(&m.wal_bytes_appended, 50);
        let snap = m.snapshot();
        assert_eq!(snap.wal_fsyncs, 11, "fsync count accumulates");
        assert_eq!(snap.wal_snapshots, 2, "snapshot count accumulates");
        assert_eq!(snap.wal_bytes_appended, 150, "byte count accumulates");
        let before = m.snapshot().wal_fsyncs;
        BusMetrics::add(&m.wal_fsyncs, 3);
        assert!(
            m.snapshot().wal_fsyncs >= before,
            "a monotonic counter never decreases"
        );
    }
}
