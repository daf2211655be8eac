//! Lifecycle hygiene: dropping handles without calling `shutdown` must
//! still stop every worker thread (workers hold weak references), so a
//! library user cannot leak threads by forgetting teardown.
//!
//! The checks compare process-wide thread counts, so they run one after
//! the other inside the only `#[test]` of this binary: run in parallel,
//! each would see the other's cell come and go.

use std::sync::Arc;
use std::time::Duration;

use smc_core::{SmcCell, SmcConfig};
use smc_transport::{LinkConfig, SimNetwork};

/// Linux-specific: the process's current thread count.
fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line")
}

fn settle(baseline: usize) -> usize {
    // Threads exit within a poll interval or two; wait generously.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let mut count = thread_count();
    while count > baseline && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(50));
        count = thread_count();
    }
    count
}

#[test]
fn a_cell_leaves_no_threads_behind() {
    dropping_a_cell_stops_its_threads();
    shutdown_then_drop_is_also_clean();
    a_registry_does_not_keep_a_dropped_cell_running();
}

fn dropping_a_cell_stops_its_threads() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let baseline = thread_count();

    let cell = SmcCell::start(
        Arc::new(net.endpoint()),
        Arc::new(net.endpoint()),
        SmcConfig::fast(),
    );
    std::thread::sleep(Duration::from_millis(100));
    assert!(thread_count() > baseline, "the cell spawned workers");

    // Drop without shutdown: Drop closes the channels; weak-held workers
    // notice and exit.
    drop(cell);
    let after = settle(baseline);
    assert!(
        after <= baseline,
        "threads leaked: {after} remain vs baseline {baseline}"
    );
    net.shutdown();
}

fn shutdown_then_drop_is_also_clean() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let baseline = thread_count();
    let cell = SmcCell::start(
        Arc::new(net.endpoint()),
        Arc::new(net.endpoint()),
        SmcConfig::fast(),
    );
    std::thread::sleep(Duration::from_millis(100));
    cell.shutdown();
    drop(cell);
    let after = settle(baseline);
    assert!(
        after <= baseline,
        "threads leaked after shutdown: {after} vs {baseline}"
    );
    net.shutdown();
}

fn a_registry_does_not_keep_a_dropped_cell_running() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let baseline = thread_count();
    let cell = SmcCell::start(
        Arc::new(net.endpoint()),
        Arc::new(net.endpoint()),
        SmcConfig::fast(),
    );
    let registry = smc_telemetry::Registry::new();
    cell.register_metrics(&registry);
    std::thread::sleep(Duration::from_millis(100));
    assert!(thread_count() > baseline, "the cell spawned workers");
    assert!(registry.render_text().contains("smc_bus_published_total"));

    // The registry outlives the caller's handle and must not stand in
    // for it: collectors hold the cell weakly.
    drop(cell);
    let after = settle(baseline);
    assert!(
        after <= baseline,
        "a registry kept the cell alive: {after} threads vs baseline {baseline}"
    );
    let text = registry.render_text();
    assert!(
        !text.contains("smc_bus_published_total"),
        "a dropped cell still exported:\n{text}"
    );
    net.shutdown();
}
