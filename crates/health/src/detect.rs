//! Pluggable anomaly detectors: each one reads the latest sample window
//! and votes `healthy`/`unhealthy` per component. Detectors are
//! deliberately simple — thresholded deltas over the metrics the rest of
//! the workspace already exports — because the hysteresis in
//! [`ComponentHealth`](crate::ComponentHealth) supplies the damping.

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::collections::VecDeque;

use smc_telemetry::{Hop, HopRecord, Sample};
use smc_types::TraceId;

/// Everything a detector may look at for one sampling window.
#[derive(Debug)]
pub struct SampleCtx<'a> {
    /// Virtual (or wall) time of this sample, microseconds.
    pub at_micros: u64,
    /// Time since the previous sample, microseconds (0 on the first).
    pub elapsed_micros: u64,
    /// Registry samples (see [`smc_telemetry::Registry::gather`]).
    pub samples: &'a [Sample],
    /// Hop records appended since the previous sample.
    pub hops: &'a [HopRecord],
}

impl SampleCtx<'_> {
    /// The value of the first series named `name` (any labels).
    pub fn value(&self, name: &str) -> Option<u64> {
        self.samples
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.value)
    }

    /// All series named `name`, as `(first-label-value, value)` pairs;
    /// unlabelled series appear under `""`.
    pub fn series<'s>(&'s self, name: &str) -> Vec<(&'s str, u64)> {
        self.samples
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                (
                    s.labels.first().map(|(_, v)| v.as_str()).unwrap_or(""),
                    s.value,
                )
            })
            .collect()
    }
}

/// One detector verdict about one component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observation {
    /// Component key, e.g. `channel:device0`, `wal`, `membership`.
    pub component: String,
    /// The verdict for this window.
    pub healthy: bool,
    /// Human-readable evidence (rates, depths) for events and dumps.
    pub detail: String,
}

/// A pluggable anomaly detector.
pub trait Detector: Send {
    /// Stable detector name, used in `smc.health` events and reports.
    fn name(&self) -> &'static str;

    /// Judges the current window. Components a detector does not mention
    /// keep their previous trajectory (no observation ≠ healthy).
    fn observe(&mut self, ctx: &SampleCtx<'_>) -> Vec<Observation>;
}

fn per_second(delta: u64, elapsed_micros: u64) -> f64 {
    if elapsed_micros == 0 {
        0.0
    } else {
        delta as f64 * 1_000_000.0 / elapsed_micros as f64
    }
}

/// Retransmit storm: the per-channel `tx-retransmit` counter's delta
/// rate exceeds a threshold. Watches every series of `metric`
/// (default `smc_channel_retransmits_total`), keyed by its first label.
#[derive(Debug)]
pub struct RetransmitStorm {
    metric: String,
    max_per_sec: f64,
    last: HashMap<String, u64>,
}

impl RetransmitStorm {
    /// Watches `metric`'s per-label delta rate against `max_per_sec`.
    pub fn new(metric: impl Into<String>, max_per_sec: f64) -> RetransmitStorm {
        RetransmitStorm {
            metric: metric.into(),
            max_per_sec,
            last: HashMap::new(),
        }
    }
}

impl Default for RetransmitStorm {
    fn default() -> Self {
        RetransmitStorm::new("smc_channel_retransmits_total", 5.0)
    }
}

impl Detector for RetransmitStorm {
    fn name(&self) -> &'static str {
        "retransmit-storm"
    }

    fn observe(&mut self, ctx: &SampleCtx<'_>) -> Vec<Observation> {
        let mut out = Vec::new();
        for (label, value) in ctx.series(&self.metric) {
            let component = format!("channel:{label}");
            // First sight of a series contributes no delta; a counter
            // reset (channel rebuilt after a crash) saturates to 0.
            let prev = *self.last.get(&component).unwrap_or(&value);
            self.last.insert(component.clone(), value);
            let rate = per_second(value.saturating_sub(prev), ctx.elapsed_micros);
            out.push(Observation {
                healthy: rate <= self.max_per_sec,
                detail: format!("{rate:.1} retransmits/s (limit {})", self.max_per_sec),
                component,
            });
        }
        out
    }
}

/// Proxy-queue growth: a queue-depth gauge rises monotonically across
/// `window` consecutive samples and ends at or above `min_depth`.
#[derive(Debug)]
pub struct QueueGrowth {
    metric: String,
    window: usize,
    min_depth: u64,
    history: HashMap<String, VecDeque<u64>>,
}

impl QueueGrowth {
    /// Watches `metric` gauges for `window` strictly rising samples
    /// reaching `min_depth`.
    pub fn new(metric: impl Into<String>, window: usize, min_depth: u64) -> QueueGrowth {
        QueueGrowth {
            metric: metric.into(),
            window: window.max(2),
            min_depth,
            history: HashMap::new(),
        }
    }
}

impl Default for QueueGrowth {
    fn default() -> Self {
        QueueGrowth::new("smc_proxy_queue_depth", 4, 8)
    }
}

impl Detector for QueueGrowth {
    fn name(&self) -> &'static str {
        "queue-growth"
    }

    fn observe(&mut self, ctx: &SampleCtx<'_>) -> Vec<Observation> {
        let mut out = Vec::new();
        for (label, value) in ctx.series(&self.metric) {
            let component = format!("queue:{label}");
            let h = self.history.entry(component.clone()).or_default();
            h.push_back(value);
            while h.len() > self.window {
                h.pop_front();
            }
            let rising = h.len() == self.window
                && h.iter().zip(h.iter().skip(1)).all(|(a, b)| a < b)
                && value >= self.min_depth;
            out.push(Observation {
                healthy: !rising,
                detail: format!(
                    "depth {value} ({} samples, floor {})",
                    h.len(),
                    self.min_depth
                ),
                component,
            });
        }
        out
    }
}

/// WAL append stall: traffic keeps flowing (`traffic_metric` delta > 0)
/// but the WAL appended nothing this window.
#[derive(Debug)]
pub struct WalStall {
    wal_metric: String,
    traffic_metric: String,
    last_wal: Option<u64>,
    last_traffic: Option<u64>,
}

impl WalStall {
    /// Compares `wal_metric`'s delta against `traffic_metric`'s.
    pub fn new(wal_metric: impl Into<String>, traffic_metric: impl Into<String>) -> WalStall {
        WalStall {
            wal_metric: wal_metric.into(),
            traffic_metric: traffic_metric.into(),
            last_wal: None,
            last_traffic: None,
        }
    }
}

impl Default for WalStall {
    fn default() -> Self {
        WalStall::new("smc_wal_records_appended_total", "smc_bus_published_total")
    }
}

impl Detector for WalStall {
    fn name(&self) -> &'static str {
        "wal-stall"
    }

    fn observe(&mut self, ctx: &SampleCtx<'_>) -> Vec<Observation> {
        let (Some(wal), Some(traffic)) =
            (ctx.value(&self.wal_metric), ctx.value(&self.traffic_metric))
        else {
            return Vec::new();
        };
        let wal_delta = wal.saturating_sub(self.last_wal.unwrap_or(wal));
        let traffic_delta = traffic.saturating_sub(self.last_traffic.unwrap_or(traffic));
        self.last_wal = Some(wal);
        self.last_traffic = Some(traffic);
        vec![Observation {
            component: "wal".to_owned(),
            healthy: !(traffic_delta > 0 && wal_delta == 0),
            detail: format!("+{traffic_delta} events, +{wal_delta} wal records"),
        }]
    }
}

/// Delivery-latency regression: the window's publish→deliver p99
/// (paired from hop records) exceeds `factor ×` a baseline learned over
/// the first `baseline_windows` windows, and an absolute floor.
#[derive(Debug)]
pub struct DeliveryLatency {
    factor: f64,
    floor_micros: u64,
    baseline_windows: u32,
    windows_seen: u32,
    baseline_p99: u64,
    pending: HashMap<TraceId, u64>,
}

impl DeliveryLatency {
    /// p99 must exceed both `factor × baseline` and `floor_micros` to be
    /// judged unhealthy; the baseline is the max p99 over the first
    /// `baseline_windows` windows with completed deliveries.
    pub fn new(factor: f64, floor_micros: u64, baseline_windows: u32) -> DeliveryLatency {
        DeliveryLatency {
            factor,
            floor_micros,
            baseline_windows,
            windows_seen: 0,
            baseline_p99: 0,
            pending: HashMap::new(),
        }
    }
}

impl Default for DeliveryLatency {
    fn default() -> Self {
        DeliveryLatency::new(4.0, 50_000, 6)
    }
}

impl Detector for DeliveryLatency {
    fn name(&self) -> &'static str {
        "delivery-latency"
    }

    fn observe(&mut self, ctx: &SampleCtx<'_>) -> Vec<Observation> {
        let mut completed: Vec<u64> = Vec::new();
        for r in ctx.hops {
            match r.hop {
                Hop::Published => {
                    self.pending.insert(r.trace, r.at_micros);
                }
                Hop::Delivered => {
                    if let Some(start) = self.pending.remove(&r.trace) {
                        completed.push(r.at_micros.saturating_sub(start));
                    }
                }
                _ => {}
            }
        }
        // Never-delivered events must not pin memory forever.
        if self.pending.len() > 65_536 {
            self.pending.clear();
        }
        if completed.is_empty() {
            return Vec::new();
        }
        completed.sort_unstable();
        let p99 = completed[((completed.len() - 1) as f64 * 0.99) as usize];
        if self.windows_seen < self.baseline_windows {
            self.windows_seen += 1;
            self.baseline_p99 = self.baseline_p99.max(p99);
            return vec![Observation {
                component: "delivery-latency".to_owned(),
                healthy: true,
                detail: format!("baselining: p99 {p99} µs"),
            }];
        }
        let limit = ((self.baseline_p99 as f64 * self.factor) as u64).max(self.floor_micros);
        vec![Observation {
            component: "delivery-latency".to_owned(),
            healthy: p99 <= limit,
            detail: format!(
                "p99 {p99} µs (limit {limit} µs, baseline {})",
                self.baseline_p99
            ),
        }]
    }
}

/// Membership flapping: join + purge churn within one window reaches
/// `max_churn` (a purge-and-rejoin is churn 2).
#[derive(Debug)]
pub struct MembershipFlap {
    joins_metric: String,
    purges_metric: String,
    max_churn: u64,
    last: Option<(u64, u64)>,
}

impl MembershipFlap {
    /// Watches the two discovery counters for combined churn ≥
    /// `max_churn` per window.
    pub fn new(
        joins_metric: impl Into<String>,
        purges_metric: impl Into<String>,
        max_churn: u64,
    ) -> MembershipFlap {
        MembershipFlap {
            joins_metric: joins_metric.into(),
            purges_metric: purges_metric.into(),
            max_churn: max_churn.max(1),
            last: None,
        }
    }
}

impl Default for MembershipFlap {
    fn default() -> Self {
        MembershipFlap::new("smc_discovery_joins_total", "smc_discovery_purges_total", 4)
    }
}

impl Detector for MembershipFlap {
    fn name(&self) -> &'static str {
        "membership-flap"
    }

    fn observe(&mut self, ctx: &SampleCtx<'_>) -> Vec<Observation> {
        let (Some(joins), Some(purges)) = (
            ctx.value(&self.joins_metric),
            ctx.value(&self.purges_metric),
        ) else {
            return Vec::new();
        };
        let (pj, pp) = self.last.unwrap_or((joins, purges));
        self.last = Some((joins, purges));
        let churn = joins.saturating_sub(pj) + purges.saturating_sub(pp);
        vec![Observation {
            component: "membership".to_owned(),
            healthy: churn < self.max_churn,
            detail: format!("churn {churn}/window (limit {})", self.max_churn),
        }]
    }
}

/// SLO burn: an error budget is being spent faster than provisioned
/// across **every** configured window at once. Watches the
/// `smc_slo_burn_rate_milli` gauges a telemetry observer folds from
/// [`SloReport`](smc_types::TelemetryMsg) events; the multi-window AND
/// is the point — a fast-window spike alone is a blip, a slow-window
/// residue alone is history, but both together mean the budget is
/// actually draining now.
#[derive(Debug)]
pub struct SloBurn {
    metric: String,
    threshold_milli: u64,
}

impl SloBurn {
    /// Flags any `(slo, cell)` whose burn exceeds `threshold_milli`
    /// (×1000; 1000 = spending exactly on budget) in every window.
    pub fn new(metric: impl Into<String>, threshold_milli: u64) -> SloBurn {
        SloBurn {
            metric: metric.into(),
            threshold_milli,
        }
    }
}

impl Default for SloBurn {
    fn default() -> Self {
        SloBurn::new("smc_slo_burn_rate_milli", 1000)
    }
}

impl Detector for SloBurn {
    fn name(&self) -> &'static str {
        "slo-burn"
    }

    fn observe(&mut self, ctx: &SampleCtx<'_>) -> Vec<Observation> {
        // (slo, cell) → per-window burns. BTreeMap for a deterministic
        // observation order under the virtual-time harness.
        let mut groups: BTreeMap<(String, String), Vec<(String, u64)>> = BTreeMap::new();
        for s in ctx.samples.iter().filter(|s| s.name == self.metric) {
            let get = |key: &str| {
                s.labels
                    .iter()
                    .find(|(k, _)| k == key)
                    .map(|(_, v)| v.clone())
                    .unwrap_or_default()
            };
            groups
                .entry((get("slo"), get("cell")))
                .or_default()
                .push((get("window"), s.value));
        }
        groups
            .into_iter()
            .map(|((slo, cell), windows)| {
                let burning = windows.iter().all(|(_, burn)| *burn > self.threshold_milli);
                let detail = windows
                    .iter()
                    .map(|(w, burn)| format!("{w}µs={burn}"))
                    .collect::<Vec<_>>()
                    .join(" ");
                Observation {
                    component: if cell.is_empty() {
                        format!("slo:{slo}")
                    } else {
                        format!("slo:{slo}@cell{cell}")
                    },
                    healthy: !burning,
                    detail: format!("burn_milli {detail} (limit {})", self.threshold_milli),
                }
            })
            .collect()
    }
}

/// The default detector suite, tuned for the chaos harness's metric
/// names. Embedders watching different series build their own set with
/// the `new` constructors.
pub fn default_detectors() -> Vec<Box<dyn Detector>> {
    vec![
        Box::new(RetransmitStorm::default()),
        Box::new(QueueGrowth::default()),
        Box::new(WalStall::default()),
        Box::new(DeliveryLatency::default()),
        Box::new(MembershipFlap::default()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(name: &str, labels: &[(&str, &str)], value: u64) -> Sample {
        Sample::counter(name, "", labels, value)
    }

    fn ctx<'a>(
        at: u64,
        elapsed: u64,
        samples: &'a [Sample],
        hops: &'a [HopRecord],
    ) -> SampleCtx<'a> {
        SampleCtx {
            at_micros: at,
            elapsed_micros: elapsed,
            samples,
            hops,
        }
    }

    #[test]
    fn retransmit_storm_flags_high_delta_rate_per_channel() {
        let mut d = RetransmitStorm::new("rtx", 5.0);
        let s0 = vec![
            sample("rtx", &[("channel", "a")], 0),
            sample("rtx", &[("channel", "b")], 0),
        ];
        let obs = d.observe(&ctx(0, 0, &s0, &[]));
        assert!(obs.iter().all(|o| o.healthy));
        // +10 on channel a over 1 s → 10/s > 5/s; b stays flat.
        let s1 = vec![
            sample("rtx", &[("channel", "a")], 10),
            sample("rtx", &[("channel", "b")], 1),
        ];
        let obs = d.observe(&ctx(1_000_000, 1_000_000, &s1, &[]));
        let a = obs.iter().find(|o| o.component == "channel:a").unwrap();
        let b = obs.iter().find(|o| o.component == "channel:b").unwrap();
        assert!(!a.healthy);
        assert!(b.healthy);
    }

    #[test]
    fn retransmit_storm_tolerates_counter_reset() {
        let mut d = RetransmitStorm::new("rtx", 5.0);
        let high = vec![sample("rtx", &[("channel", "a")], 100)];
        d.observe(&ctx(0, 0, &high, &[]));
        // The channel was rebuilt: the counter restarts below its old
        // value. saturating_sub keeps the delta at zero.
        let reset = vec![sample("rtx", &[("channel", "a")], 2)];
        let obs = d.observe(&ctx(1_000_000, 1_000_000, &reset, &[]));
        assert!(obs[0].healthy);
    }

    #[test]
    fn queue_growth_needs_sustained_rise_above_floor() {
        let mut d = QueueGrowth::new("depth", 3, 5);
        for (i, v) in [1u64, 2, 3].into_iter().enumerate() {
            // Rising but below the floor.
            let s = vec![sample("depth", &[("queue", "q")], v)];
            let obs = d.observe(&ctx(i as u64, 1, &s, &[]));
            assert!(obs[0].healthy, "below floor at {v}");
        }
        for (i, v) in [6u64, 9, 14].into_iter().enumerate() {
            let s = vec![sample("depth", &[("queue", "q")], v)];
            let obs = d.observe(&ctx(10 + i as u64, 1, &s, &[]));
            if v == 14 {
                assert!(!obs[0].healthy, "sustained rise to {v} must flag");
            }
        }
        // A plateau breaks the streak.
        let s = vec![sample("depth", &[("queue", "q")], 14)];
        assert!(d.observe(&ctx(20, 1, &s, &[]))[0].healthy);
    }

    #[test]
    fn wal_stall_requires_traffic_without_appends() {
        let mut d = WalStall::new("wal", "pub");
        let s0 = vec![sample("wal", &[], 5), sample("pub", &[], 5)];
        assert!(d.observe(&ctx(0, 0, &s0, &[]))[0].healthy);
        // Traffic moves, WAL frozen → stall.
        let s1 = vec![sample("wal", &[], 5), sample("pub", &[], 9)];
        assert!(!d.observe(&ctx(1, 1, &s1, &[]))[0].healthy);
        // No traffic, WAL frozen → idle, not a stall.
        let s2 = vec![sample("wal", &[], 5), sample("pub", &[], 9)];
        assert!(d.observe(&ctx(2, 1, &s2, &[]))[0].healthy);
        // Metrics absent → no observation at all.
        assert!(d.observe(&ctx(3, 1, &[], &[])).is_empty());
    }

    #[test]
    fn delivery_latency_learns_baseline_then_flags_regression() {
        use smc_types::ServiceId;
        let mut d = DeliveryLatency::new(3.0, 1_000, 2);
        let mk = |seq: u64, start: u64, end: u64| {
            let t = TraceId::for_event(ServiceId::from_raw(1), seq);
            vec![
                HopRecord {
                    trace: t,
                    hop: Hop::Published,
                    at_micros: start,
                    order: seq * 2,
                },
                HopRecord {
                    trace: t,
                    hop: Hop::Delivered,
                    at_micros: end,
                    order: seq * 2 + 1,
                },
            ]
        };
        // Two baseline windows around 500 µs.
        for w in 0..2u64 {
            let hops = mk(w, 0, 500);
            let obs = d.observe(&ctx(w, 1, &[], &hops));
            assert!(obs[0].healthy);
        }
        // 10 ms p99 > max(3 × 500, 1000) → unhealthy.
        let hops = mk(10, 0, 10_000);
        assert!(!d.observe(&ctx(10, 1, &[], &hops))[0].healthy);
        // Back to baseline → healthy again.
        let hops = mk(11, 0, 600);
        assert!(d.observe(&ctx(11, 1, &[], &hops))[0].healthy);
        // A window with no completed deliveries says nothing.
        assert!(d.observe(&ctx(12, 1, &[], &[])).is_empty());
    }

    #[test]
    fn slo_burn_needs_every_window_over_threshold() {
        let mut d = SloBurn::new("burn", 1000);
        let burn = |slo: &str, window: &str, cell: &str, v: u64| {
            let labels = [("slo", slo), ("window", window), ("cell", cell)];
            Sample::gauge("burn", "", &labels, v)
        };
        // Fast window spikes but the slow window is clean: a blip.
        let blip = vec![
            burn("delivery-latency", "5000000", "1", 4_000),
            burn("delivery-latency", "30000000", "1", 200),
        ];
        let obs = d.observe(&ctx(0, 0, &blip, &[]));
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0].component, "slo:delivery-latency@cell1");
        assert!(obs[0].healthy, "{}", obs[0].detail);

        // Both windows over budget: the budget is actually draining.
        let drain = vec![
            burn("delivery-latency", "5000000", "1", 4_000),
            burn("delivery-latency", "30000000", "1", 1_500),
            // A second SLO on another cell stays healthy.
            burn("supervision-ttr", "5000000", "2", 0),
            burn("supervision-ttr", "30000000", "2", 0),
        ];
        let obs = d.observe(&ctx(1, 1, &drain, &[]));
        assert_eq!(obs.len(), 2);
        let latency = obs
            .iter()
            .find(|o| o.component == "slo:delivery-latency@cell1")
            .unwrap();
        let ttr = obs
            .iter()
            .find(|o| o.component == "slo:supervision-ttr@cell2")
            .unwrap();
        assert!(!latency.healthy);
        assert!(ttr.healthy);

        // No burn gauges at all → nothing to say.
        assert!(d.observe(&ctx(2, 1, &[], &[])).is_empty());
    }

    #[test]
    fn membership_flap_counts_joins_plus_purges() {
        let mut d = MembershipFlap::new("j", "p", 3);
        let s0 = vec![sample("j", &[], 2), sample("p", &[], 0)];
        assert!(d.observe(&ctx(0, 0, &s0, &[]))[0].healthy);
        // One purge + one rejoin in a window: churn 2 < 3, tolerated.
        let s1 = vec![sample("j", &[], 3), sample("p", &[], 1)];
        assert!(d.observe(&ctx(1, 1, &s1, &[]))[0].healthy);
        // Two purges + two joins: churn 4 ≥ 3 → flapping.
        let s2 = vec![sample("j", &[], 5), sample("p", &[], 3)];
        assert!(!d.observe(&ctx(2, 1, &s2, &[]))[0].healthy);
    }
}
