//! Bus activity counters.

use std::sync::atomic::{AtomicU64, Ordering};

smc_telemetry::metric_set! {
    /// Everything the bus did, counted where it happens.
    ///
    /// All counters are relaxed atomics — they are diagnostics, not
    /// synchronisation.
    pub struct BusMetrics {
        /// Events accepted from publishers.
        counter published: "smc_bus_published_total",
        /// Event deliveries attempted (events x matching subscribers).
        counter deliveries: "smc_bus_deliveries_total",
        /// Events that matched no subscription.
        counter unmatched: "smc_bus_unmatched_total",
        /// Deliveries that failed outright (send error).
        counter delivery_failures: "smc_bus_delivery_failures_total",
        /// Subscriptions registered.
        counter subscriptions: "smc_bus_subscriptions_total",
        /// Subscriptions removed.
        counter unsubscriptions: "smc_bus_unsubscriptions_total",
        /// Publish attempts rejected by policy.
        counter publishes_denied: "smc_bus_publishes_denied_total",
        /// Subscribe attempts rejected by policy.
        counter subscribes_denied: "smc_bus_subscribes_denied_total",
        /// Quench state flips sent to publishers.
        counter quench_signals: "smc_bus_quench_signals_total",
        /// Obligation policy actions executed by the cell.
        counter policy_actions: "smc_bus_policy_actions_total",
        /// Payload bytes carried by accepted events.
        counter bytes_published: "smc_bus_bytes_published_total",
        /// High-water mark of any proxy's outbound queue depth.
        gauge proxy_queue_hwm: "smc_bus_proxy_queue_hwm",
        /// Wall-clock duration of the last WAL recovery, in microseconds.
        gauge wal_recovery_micros: "smc_wal_recovery_micros",
    }
    /// A reading of [`BusMetrics`].
    pub struct MetricsSnapshot {}
}

impl BusMetrics {
    /// Bumps a counter by one.
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds to a counter.
    pub(crate) fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = BusMetrics::default();
        BusMetrics::bump(&m.published);
        BusMetrics::bump(&m.published);
        BusMetrics::add(&m.bytes_published, 100);
        let snap = m.snapshot();
        assert_eq!(snap.published, 2);
        assert_eq!(snap.bytes_published, 100);
        assert_eq!(snap.deliveries, 0);
    }
}
