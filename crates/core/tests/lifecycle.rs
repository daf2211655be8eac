//! Lifecycle hygiene: dropping handles without calling `shutdown` must
//! still stop every worker thread (workers hold weak references), so a
//! library user cannot leak threads by forgetting teardown.
//!
//! The checks compare process-wide thread counts, so they run one after
//! the other inside the only `#[test]` of this binary: run in parallel,
//! each would see the other's cell come and go.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use smc_core::{RemoteClient, SmcCell, SmcConfig};
use smc_discovery::{AgentConfig, MemberAgent};
use smc_transport::{LinkConfig, ReliableChannel, ReliableConfig, SimNetwork};
use smc_types::codec::to_shared;
use smc_types::{wellknown, Event, Filter, Packet, ServiceId, ServiceInfo};

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
    count_panics();
    dropping_a_cell_stops_its_threads();
    shutdown_then_drop_is_also_clean();
    a_registry_does_not_keep_a_dropped_cell_running();
    the_last_handle_may_be_the_one_dispatch_holds();
    the_last_handle_may_be_the_one_the_membership_handler_holds();
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

/// The bus channel's handler upgrades its weak cell reference for one
/// message at a time, so the owner can drop *its* handle while a message
/// is being dispatched: the cell is then dropped by its own receive
/// thread, mid-stream, which must neither join itself nor keep the
/// channel (and its thread) alive through the handler it is running.
fn the_last_handle_may_be_the_one_dispatch_holds() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let baseline = thread_count();
    let cell = SmcCell::start(
        Arc::new(net.endpoint()),
        Arc::new(net.endpoint()),
        SmcConfig::fast(),
    );
    // A cell-side subscriber that holds dispatch where this test wants it.
    let (entered, dispatching) = mpsc::channel();
    let (resume, resumed) = mpsc::channel::<()>();
    let resumed = Mutex::new(resumed);
    cell.subscribe_local(
        ServiceId::from_raw(9_000),
        Filter::for_type("vitals"),
        Arc::new(move |_: &Event| {
            let _ = entered.send(());
            let _ = resumed.lock().expect("one dispatcher").recv();
            Ok(())
        }),
    )
    .expect("local subscription");
    let publisher = RemoteClient::connect(
        ServiceInfo::new(ServiceId::NIL, "sensor.hr"),
        ReliableChannel::new(Arc::new(net.endpoint()), ReliableConfig::default()),
        AgentConfig::default(),
        STEP,
    )
    .expect("join");
    for bpm in 0..100i64 {
        let event = Event::builder("vitals").attr("hr", bpm).build();
        publisher.publish_nowait(event).expect("queued");
    }

    dispatching
        .recv_timeout(STEP)
        .expect("the first event reached the subscriber");
    // Dispatch is inside the subscriber, holding its upgraded handle;
    // this one goes, and the rest of the stream is still arriving.
    drop(cell);
    drop(resume);

    publisher.shutdown();
    let after = settle(baseline);
    assert!(
        after <= baseline,
        "a cell dropped from its own dispatch leaked threads: {after} vs {baseline}"
    );
    assert_eq!(
        PANICS.load(Ordering::SeqCst),
        0,
        "a thread ended by panicking (joined itself?)"
    );
    net.shutdown();
}

/// The membership handler also upgrades its weak cell reference for one
/// change at a time, on the discovery thread that made the change, so
/// the cell can be dropped there: by the discovery channel's receive
/// thread inside a join, and by the cell's timer inside a lease purge.
/// The timer's drop closes the discovery channel, which joins the receive
/// thread — so that thread must never be waiting for the handler the
/// timer is running — and neither thread may join itself.
fn the_last_handle_may_be_the_one_the_membership_handler_holds() {
    for change in [wellknown::NEW_MEMBER, wellknown::PURGE_MEMBER] {
        let net = SimNetwork::new(LinkConfig::ideal());
        let baseline = thread_count();
        let cell = SmcCell::start(
            Arc::new(net.endpoint()),
            Arc::new(net.endpoint()),
            SmcConfig::fast(),
        );
        let silent_after_joining = change == wellknown::PURGE_MEMBER;
        let expected_thread = if silent_after_joining {
            format!("smc-timer-{}", cell.cell_id())
        } else {
            format!("reliable-rx-{}", cell.discovery().local_id())
        };
        // A cell-side subscriber that holds the handler inside `change`.
        let (entered, handling) = mpsc::channel();
        let (resume, resumed) = mpsc::channel::<()>();
        let resumed = Mutex::new(resumed);
        cell.subscribe_local(
            ServiceId::from_raw(9_001),
            Filter::for_type(change),
            Arc::new(move |_: &Event| {
                let _ = entered.send(std::thread::current().name().map(str::to_owned));
                let _ = resumed.lock().expect("one handler").recv();
                Ok(())
            }),
        )
        .expect("local subscription");
        let device = MemberAgent::start(
            ServiceInfo::new(ServiceId::NIL, "sensor.hr"),
            ReliableChannel::new(Arc::new(net.endpoint()), ReliableConfig::default()),
            AgentConfig::default(),
        );
        if silent_after_joining {
            device.wait_joined(STEP).expect("join");
            net.set_partitioned(device.local_id(), cell.discovery().local_id(), true);
        }

        let thread = handling
            .recv_timeout(STEP)
            .expect("the handler reached the subscriber");
        assert_eq!(
            thread.as_deref(),
            Some(expected_thread.as_str()),
            "{change}"
        );
        // A newcomer asks to join while the handler is held (by hand: the
        // timer that beacons may be the one held). Inside the timer's
        // purge, the receive thread admits it — the table lists it at once
        // — and must not be left waiting for the handler when the timer
        // drops the cell.
        let newcomer = ReliableChannel::new(Arc::new(net.endpoint()), ReliableConfig::default());
        let join = Packet::JoinRequest {
            info: ServiceInfo::new(ServiceId::NIL, "sensor.spo2"),
            auth_token: Vec::new(),
        };
        newcomer
            .send(cell.discovery().local_id(), to_shared(&join))
            .expect("queued");
        if silent_after_joining {
            let deadline = std::time::Instant::now() + STEP;
            while !cell.discovery().is_member(newcomer.local_id()) {
                assert!(std::time::Instant::now() < deadline, "the table waited");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        drop(cell);
        drop(resume);

        newcomer.close();
        device.shutdown();
        let after = settle(baseline);
        assert!(
            after <= baseline,
            "a cell dropped inside {change} left threads behind: {after} vs {baseline}"
        );
        assert_eq!(
            PANICS.load(Ordering::SeqCst),
            0,
            "a thread ended by panicking (joined itself?)"
        );
        net.shutdown();
    }
}

const STEP: Duration = Duration::from_secs(5);

/// A thread that dies of a panic is gone too: count those apart.
static PANICS: AtomicUsize = AtomicUsize::new(0);

fn count_panics() {
    let report = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        PANICS.fetch_add(1, Ordering::SeqCst);
        report(info);
    }));
}
