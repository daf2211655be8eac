//! Golden exposition of a live cell: `SmcCell::register_metrics` is the
//! one call that exposes a cell, every series it renders is declared in
//! exactly one place, and the names, types and help strings are the ones
//! the hand-written collectors emitted before the series were declared
//! with `metric_set!`.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

use smc_core::{RemoteClient, SmcCell, SmcConfig};
use smc_discovery::AgentConfig;
use smc_telemetry::{parse_text, Registry};
use smc_transport::{LinkConfig, ReliableChannel, ReliableConfig, SimNetwork};
use smc_types::{Event, Filter, ServiceId, ServiceInfo};
use smc_wal::MemBackend;

const TICK: Duration = Duration::from_secs(5);

/// `(name, type, help)` of every family, captured at the parent of the
/// change that introduced `metric_set!` from `register_bus_metrics` ∪
/// `Wal::register_with` ∪ `DiscoveryService::register_with`. The two
/// hand-written copies of `smc_wal_fsyncs_total` disagreed ("issued" in
/// the bus's mirror, "performed" in the log's own); the log's stands.
const GOLDEN: &[(&str, &str, &str)] = &[
    (
        "smc_bus_bytes_published_total",
        "counter",
        "Payload bytes carried by accepted events.",
    ),
    (
        "smc_bus_deliveries_total",
        "counter",
        "Event deliveries attempted (events x matching subscribers).",
    ),
    (
        "smc_bus_delivery_failures_total",
        "counter",
        "Deliveries that failed outright (send error).",
    ),
    (
        "smc_bus_policy_actions_total",
        "counter",
        "Obligation policy actions executed by the cell.",
    ),
    (
        "smc_bus_proxy_queue_hwm",
        "gauge",
        "High-water mark of any proxy's outbound queue depth.",
    ),
    (
        "smc_bus_published_total",
        "counter",
        "Events accepted from publishers.",
    ),
    (
        "smc_bus_publishes_denied_total",
        "counter",
        "Publish attempts rejected by policy.",
    ),
    (
        "smc_bus_quench_signals_total",
        "counter",
        "Quench state flips sent to publishers.",
    ),
    (
        "smc_bus_subscribes_denied_total",
        "counter",
        "Subscribe attempts rejected by policy.",
    ),
    (
        "smc_bus_subscriptions_total",
        "counter",
        "Subscriptions registered.",
    ),
    (
        "smc_bus_unmatched_total",
        "counter",
        "Events that matched no subscription.",
    ),
    (
        "smc_bus_unsubscriptions_total",
        "counter",
        "Subscriptions removed.",
    ),
    (
        "smc_discovery_heartbeats_total",
        "counter",
        "Heartbeats received from known members.",
    ),
    (
        "smc_discovery_join_rejects_total",
        "counter",
        "Join requests denied by the authenticator.",
    ),
    (
        "smc_discovery_joins_total",
        "counter",
        "Members admitted to the cell.",
    ),
    (
        "smc_discovery_purges_total",
        "counter",
        "Members purged (grace expiry, leave or eviction).",
    ),
    (
        "smc_discovery_recovers_total",
        "counter",
        "Suspected members that heartbeat within grace.",
    ),
    (
        "smc_discovery_suspects_total",
        "counter",
        "Lease expiries (member suspected).",
    ),
    (
        "smc_wal_bytes_appended_total",
        "counter",
        "Framed bytes appended to the write-ahead log.",
    ),
    (
        "smc_wal_fsyncs_total",
        "counter",
        "Fsyncs performed by the write-ahead log.",
    ),
    (
        "smc_wal_records_appended_total",
        "counter",
        "Records appended to the write-ahead log.",
    ),
    (
        "smc_wal_recovery_micros",
        "gauge",
        "Wall-clock duration of the last WAL recovery, in microseconds.",
    ),
    (
        "smc_wal_snapshots_total",
        "counter",
        "Snapshots written by the write-ahead log.",
    ),
];

fn connect(net: &SimNetwork, device_type: &str) -> Arc<RemoteClient> {
    let reliable = ReliableConfig {
        initial_rto: Duration::from_millis(30),
        poll_interval: Duration::from_millis(10),
        ..ReliableConfig::default()
    };
    RemoteClient::connect(
        ServiceInfo::new(ServiceId::NIL, device_type).with_name(device_type),
        ReliableChannel::new(Arc::new(net.endpoint()), reliable),
        AgentConfig::default(),
        TICK,
    )
    .expect("device joins cell")
}

/// The `# HELP` / `# TYPE` header of every family, in rendered (sorted)
/// order.
fn families(text: &str) -> Vec<(&str, &str, &str)> {
    let mut out = Vec::new();
    let mut help = "";
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            help = rest.split_once(' ').expect("help text").1;
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').expect("type");
            out.push((name, kind, help));
        }
    }
    out
}

#[test]
fn a_live_cell_renders_the_golden_exposition() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let cell = SmcCell::start_durable(
        Arc::new(net.endpoint()),
        Arc::new(net.endpoint()),
        SmcConfig::fast(),
        Arc::new(MemBackend::new()),
    )
    .expect("durable start on empty backend");
    let registry = Registry::new();
    cell.register_metrics(&registry);

    let sensor = connect(&net, "sensor.heart-rate");
    let monitor = connect(&net, "monitor.station");
    monitor
        .subscribe(Filter::for_type("smc.sensor.reading"), TICK)
        .unwrap();
    for bpm in 70..75i64 {
        let reading = Event::builder("smc.sensor.reading").attr("bpm", bpm);
        sensor.publish(reading.build(), TICK).unwrap();
        monitor.next_event(TICK).expect("delivered");
    }
    cell.checkpoint().expect("checkpoint");

    // The cell is live (heartbeats, held acknowledgements), so a counter
    // may move while we look: read the typed API on both sides of the
    // render and require the rendered value in between. On a quiet cell
    // that is equality.
    let read = || {
        let wal = cell.wal().expect("a durable cell has a log");
        (cell.metrics(), wal.metrics(), cell.discovery().stats())
    };
    let (bus_lo, wal_lo, discovery_lo) = read();
    let text = registry.render_text();
    let (bus_hi, wal_hi, discovery_hi) = read();

    assert_eq!(families(&text), GOLDEN, "{text}");
    let series = parse_text(&text).expect("exposition parses back");
    let mut seen = HashSet::new();
    for s in &series {
        assert!(
            seen.insert((&s.name, &s.labels)),
            "{} appears twice",
            s.name
        );
    }
    assert_eq!(series.len(), GOLDEN.len(), "one unlabelled series a family");

    let agrees = |name: &str, lo: u64, hi: u64| {
        let rendered = series.iter().find(|s| s.name == name).expect(name).value;
        assert!(
            lo as f64 <= rendered && rendered <= hi as f64,
            "{name} renders {rendered}, the typed API read {lo} then {hi}"
        );
    };
    assert!(
        bus_lo.published >= 5,
        "five readings and the New Member events"
    );
    agrees(
        "smc_bus_published_total",
        bus_lo.published,
        bus_hi.published,
    );
    agrees(
        "smc_bus_deliveries_total",
        bus_lo.deliveries,
        bus_hi.deliveries,
    );
    assert!(wal_lo.fsyncs > 0);
    agrees("smc_wal_fsyncs_total", wal_lo.fsyncs, wal_hi.fsyncs);
    assert_eq!(wal_lo.snapshots, 1);
    agrees(
        "smc_wal_snapshots_total",
        wal_lo.snapshots,
        wal_hi.snapshots,
    );
    assert_eq!(discovery_lo.joins, 2);
    agrees(
        "smc_discovery_joins_total",
        discovery_lo.joins,
        discovery_hi.joins,
    );

    sensor.shutdown();
    monitor.shutdown();
    cell.shutdown();
}
