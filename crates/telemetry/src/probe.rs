//! Lightweight contention and occupancy probes.
//!
//! Journeys attribute latency per event; probes attribute it per
//! *structure*: how long the bus control mutex is held, how deep a
//! proxy's outbound queue is at the moment of each enqueue, how long a
//! WAL append waits for its lock vs works. All counters are relaxed
//! atomics — a probe is two `fetch_add`s, never a lock — and the whole
//! layer sits behind the same disabled-by-default [`Tracer`] fast path
//! as hop recording, so an untraced cell pays one branch.
//!
//! [`Tracer`]: crate::Tracer

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A sum/count/max triple over one probed quantity.
#[derive(Debug, Default)]
struct ProbeSeries {
    sum: AtomicU64,
    count: AtomicU64,
    max: AtomicU64,
}

impl ProbeSeries {
    fn record(&self, value: u64) {
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.sum.load(Ordering::Relaxed),
            self.count.load(Ordering::Relaxed),
            self.max.load(Ordering::Relaxed),
        )
    }
}

/// Shared accumulator for contention/occupancy probes.
///
/// One sink per cell, shared by the bus, its proxies and the WAL via
/// the cell's [`Tracer`](crate::Tracer). Everything is monotonic and
/// relaxed; readers see a consistent-enough snapshot for diagnostics.
#[derive(Debug, Default)]
pub struct ProbeSink {
    /// Bus control-mutex hold times (µs per critical section).
    control_hold: ProbeSeries,
    /// Proxy outbound queue depth sampled at each enqueue.
    queue_depth: ProbeSeries,
    /// WAL append lock-wait times (µs).
    wal_wait: ProbeSeries,
    /// WAL append service times (µs, lock held).
    wal_service: ProbeSeries,
}

/// Plain-value snapshot of one probe series: `(sum, count, max)`.
pub type ProbeSnapshot = (u64, u64, u64);

impl ProbeSink {
    /// A zeroed sink.
    pub fn new() -> ProbeSink {
        ProbeSink::default()
    }

    /// Records one bus control-mutex critical section of `micros`.
    pub fn control_hold(&self, micros: u64) {
        self.control_hold.record(micros);
    }

    /// Records a proxy outbound queue depth observed at enqueue.
    pub fn queue_depth(&self, depth: u64) {
        self.queue_depth.record(depth);
    }

    /// Records one WAL append: `wait` µs to acquire the log lock,
    /// `service` µs of append work under it.
    pub fn wal_append(&self, wait_micros: u64, service_micros: u64) {
        self.wal_wait.record(wait_micros);
        self.wal_service.record(service_micros);
    }

    /// `(sum_micros, sections, max_micros)` of control-mutex holds.
    pub fn control_hold_snapshot(&self) -> ProbeSnapshot {
        self.control_hold.snapshot()
    }

    /// `(sum_depth, samples, max_depth)` of enqueue-time queue depths.
    pub fn queue_depth_snapshot(&self) -> ProbeSnapshot {
        self.queue_depth.snapshot()
    }

    /// `(sum_micros, appends, max_micros)` of WAL lock waits.
    pub fn wal_wait_snapshot(&self) -> ProbeSnapshot {
        self.wal_wait.snapshot()
    }

    /// `(sum_micros, appends, max_micros)` of WAL append service time.
    pub fn wal_service_snapshot(&self) -> ProbeSnapshot {
        self.wal_service.snapshot()
    }

    /// Exports every probe series through `registry` as
    /// `smc_probe_*_{sum,count,max}` samples.
    pub fn register_with(self: &Arc<Self>, registry: &crate::Registry) {
        registry.register_weak(self, |sink, out| {
            let mut series = |name: &str, help: &str, snap: ProbeSnapshot, max_is_gauge: bool| {
                let (sum, count, max) = snap;
                let max_of = if max_is_gauge {
                    crate::Sample::gauge
                } else {
                    crate::Sample::counter
                };
                out.extend([
                    crate::Sample::counter(&format!("{name}_sum"), help, &[], sum),
                    crate::Sample::counter(&format!("{name}_count"), help, &[], count),
                    max_of(&format!("{name}_max"), help, &[], max),
                ]);
            };
            series(
                "smc_probe_control_hold_micros",
                "Bus control-mutex hold time.",
                sink.control_hold_snapshot(),
                false,
            );
            series(
                "smc_probe_proxy_queue_depth",
                "Proxy outbound queue depth at enqueue.",
                sink.queue_depth_snapshot(),
                true,
            );
            series(
                "smc_probe_wal_append_wait_micros",
                "WAL append lock-wait time.",
                sink.wal_wait_snapshot(),
                false,
            );
            series(
                "smc_probe_wal_append_service_micros",
                "WAL append service time under the log lock.",
                sink.wal_service_snapshot(),
                false,
            );
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_accumulate_and_track_max() {
        let p = ProbeSink::new();
        p.control_hold(5);
        p.control_hold(11);
        p.control_hold(3);
        assert_eq!(p.control_hold_snapshot(), (19, 3, 11));
        p.queue_depth(2);
        p.queue_depth(7);
        assert_eq!(p.queue_depth_snapshot(), (9, 2, 7));
        p.wal_append(4, 20);
        assert_eq!(p.wal_wait_snapshot(), (4, 1, 4));
        assert_eq!(p.wal_service_snapshot(), (20, 1, 20));
    }

    #[test]
    fn probes_export_through_the_registry() {
        let p = Arc::new(ProbeSink::new());
        let registry = crate::Registry::new();
        p.register_with(&registry);
        p.control_hold(9);
        p.queue_depth(4);
        let text = registry.render_text();
        assert!(text.contains("smc_probe_control_hold_micros_sum 9"));
        assert!(text.contains("smc_probe_control_hold_micros_count 1"));
        assert!(text.contains("smc_probe_control_hold_micros_max 9"));
        assert!(text.contains("smc_probe_proxy_queue_depth_max 4"));
        assert!(text.contains("smc_probe_wal_append_wait_micros_count 0"));
    }
}
