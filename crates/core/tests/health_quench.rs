//! The autonomic loop end to end: a health transition published as an
//! `smc.health` event drives the built-in quench obligation, which
//! silences the degraded member's publisher via the cell's quench
//! manager — and wakes it again on recovery.

use std::sync::Arc;
use std::time::Duration;

use smc_core::{RemoteClient, SmcCell, SmcConfig};
use smc_discovery::AgentConfig;
use smc_health::{health_event, HealthState, HealthTransition};
use smc_policy::health_quench_policies;
use smc_transport::{LinkConfig, ReliableChannel, ReliableConfig, SimNetwork};
use smc_types::{ServiceId, ServiceInfo};

const TICK: Duration = Duration::from_secs(5);

fn fast_reliable() -> ReliableConfig {
    ReliableConfig {
        initial_rto: Duration::from_millis(30),
        poll_interval: Duration::from_millis(10),
        ..ReliableConfig::default()
    }
}

fn transition(to: HealthState) -> HealthTransition {
    HealthTransition {
        at_micros: 0,
        component: "channel:sensor".into(),
        detector: "retransmit-storm",
        from: match to {
            HealthState::Degraded => HealthState::Healthy,
            _ => HealthState::Degraded,
        },
        to,
        detail: "test-injected".into(),
    }
}

fn wait_for(deadline: Duration, mut ok: impl FnMut() -> bool) -> bool {
    let start = std::time::Instant::now();
    while start.elapsed() < deadline {
        if ok() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    ok()
}

#[test]
fn degraded_health_event_quenches_the_member_and_recovery_wakes_it() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let cell = SmcCell::start(
        Arc::new(net.endpoint()),
        Arc::new(net.endpoint()),
        SmcConfig::fast(),
    );
    for p in health_quench_policies() {
        cell.policy().add(p).expect("install builtin policy");
    }
    let sensor = RemoteClient::connect(
        ServiceInfo::new(ServiceId::NIL, "sensor.heart-rate").with_role("sensor"),
        ReliableChannel::new(Arc::new(net.endpoint()), fast_reliable()),
        AgentConfig::default(),
        TICK,
    )
    .expect("sensor joins cell");
    assert!(!sensor.is_quenched());

    // The monitor noticed the sensor's channel degrading and publishes
    // the transition on the bus; the obligation aims a quench at the
    // member named in `health.member`.
    cell.publish_local(health_event(
        &transition(HealthState::Degraded),
        Some(sensor.local_id()),
    ))
    .expect("publish health event");
    assert!(
        wait_for(TICK, || sensor.is_quenched()),
        "built-in obligation must quench the degraded member"
    );

    // Recovery wakes it again.
    cell.publish_local(health_event(
        &transition(HealthState::Healthy),
        Some(sensor.local_id()),
    ))
    .expect("publish recovery event");
    assert!(
        wait_for(TICK, || !sensor.is_quenched()),
        "recovery must wake the member"
    );

    sensor.shutdown();
    cell.shutdown();
}

#[test]
fn health_events_without_a_member_id_quench_nobody() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let cell = SmcCell::start(
        Arc::new(net.endpoint()),
        Arc::new(net.endpoint()),
        SmcConfig::fast(),
    );
    for p in health_quench_policies() {
        cell.policy().add(p).expect("install builtin policy");
    }
    let sensor = RemoteClient::connect(
        ServiceInfo::new(ServiceId::NIL, "sensor.heart-rate").with_role("sensor"),
        ReliableChannel::new(Arc::new(net.endpoint()), fast_reliable()),
        AgentConfig::default(),
        TICK,
    )
    .expect("sensor joins cell");

    // An aggregate component (the WAL, say) has no member to silence.
    cell.publish_local(health_event(&transition(HealthState::Degraded), None))
        .expect("publish health event");
    assert!(
        !wait_for(Duration::from_millis(300), || sensor.is_quenched()),
        "no member attribute → no quench"
    );

    sensor.shutdown();
    cell.shutdown();
}

/// The default detector suite reads a real cell: `WalStall::default()`
/// compares the log's appends against the bus's own publish counter, so
/// five events published between two samples are five events it sees.
#[test]
fn the_default_wal_stall_detector_sees_the_cells_traffic() {
    use smc_health::{Detector, SampleCtx, WalStall};
    use smc_telemetry::Registry;
    use smc_types::Event;
    use smc_wal::MemBackend;

    let net = SimNetwork::new(LinkConfig::ideal());
    let cell = SmcCell::start_durable(
        Arc::new(net.endpoint()),
        Arc::new(net.endpoint()),
        SmcConfig::fast(),
        Arc::new(MemBackend::new()),
    )
    .expect("durable cell starts");
    let registry = Registry::new();
    cell.register_metrics(&registry);
    let mut detector = WalStall::default();
    let mut observe = |registry: &Registry| {
        let samples = registry.gather();
        let ctx = SampleCtx {
            at_micros: 0,
            elapsed_micros: 0,
            samples: &samples,
            hops: &[],
        };
        detector.observe(&ctx)
    };
    observe(&registry);
    for _ in 0..5 {
        cell.publish_local(Event::new("smc.test.tick"))
            .expect("local publish");
    }
    let seen = observe(&registry);
    assert_eq!(seen.len(), 1, "one observation of the log: {seen:?}");
    assert!(
        seen[0].detail.starts_with("+5 events"),
        "the bus's publishes are the traffic: {}",
        seen[0].detail
    );
    cell.shutdown();
}
