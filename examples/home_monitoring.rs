//! Home monitoring of an elderly patient (paper §I: "on-body and
//! environmental sensors may also be used in the home for monitoring
//! elderly patients to determine problem situations or deterioration of
//! well-being over time").
//!
//! Demonstrates:
//! * devices drifting in and out of radio range without losing membership
//!   (transient masking) or events (proxy queueing);
//! * a deterioration policy that *escalates*: a fever first enables a
//!   stricter monitoring policy, which then raises alarms.
//!
//! ```text
//! cargo run --example home_monitoring
//! ```

use std::sync::Arc;
use std::time::Duration;

use amuse::core::{RemoteClient, SmcCell, SmcConfig};
use amuse::discovery::AgentConfig;
use amuse::policy::{ActionSpec, Expr, ObligationPolicy, Policy, ValueTemplate};
use amuse::transport::{LinkConfig, ReliableChannel, ReliableConfig, SimNetwork};
use amuse::types::{wellknown, Filter, Op, ServiceId, ServiceInfo};
use smc_sensors::runner::{SensorKind, SensorRunner};
use smc_sensors::{register_standard_codecs, Episode, EpisodeKind, Scenario};

const TIMEOUT: Duration = Duration::from_secs(10);

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let net = SimNetwork::new(LinkConfig::ideal());
    let cell = SmcCell::start(
        Arc::new(net.endpoint()),
        Arc::new(net.endpoint()),
        SmcConfig::fast(),
    );
    register_standard_codecs(cell.proxy_factory());

    // Escalation: under normal conditions only gross fevers alarm; once
    // one is seen, the strict policy is enabled and even mild elevation
    // alarms. This is the paper's "policies … enabled and disabled to
    // change the behaviour of cell components without reprogramming them".
    cell.policy().add(Policy::Obligation(
        ObligationPolicy::new(
            "fever-watch",
            Filter::for_type(wellknown::SENSOR_READING).with(("sensor", Op::Eq, "temperature")),
        )
        .when(Expr::parse("celsius > 38.0")?)
        .then(ActionSpec::PublishEvent {
            event_type: wellknown::ALARM.into(),
            attrs: vec![
                ("kind".into(), ValueTemplate::Literal("fever".into())),
                ("celsius".into(), ValueTemplate::FromEvent("celsius".into())),
            ],
        })
        .then(ActionSpec::EnablePolicy("strict-watch".into()))
        .then(ActionSpec::Log("escalated to strict monitoring".into())),
    ))?;
    cell.policy().add(Policy::Obligation(
        ObligationPolicy::new(
            "strict-watch",
            Filter::for_type(wellknown::SENSOR_READING).with(("sensor", Op::Eq, "temperature")),
        )
        .when(Expr::parse("celsius > 37.3")?)
        .then(ActionSpec::PublishEvent {
            event_type: wellknown::ALARM.into(),
            attrs: vec![(
                "kind".into(),
                ValueTemplate::Literal("elevated-temperature".into()),
            )],
        }),
    ))?;
    // Strict mode starts disabled.
    cell.policy().disable("strict-watch")?;

    // The family carer's phone subscribes to alarms.
    let carer = RemoteClient::connect(
        ServiceInfo::new(ServiceId::NIL, "terminal.carer").with_role("manager"),
        ReliableChannel::new(Arc::new(net.endpoint()), ReliableConfig::default()),
        AgentConfig::default(),
        TIMEOUT,
    )?;
    carer.subscribe(Filter::for_type(wellknown::ALARM), TIMEOUT)?;

    // A temperature patch with a fever developing almost immediately.
    let scenario = Scenario::stable("home-fever").with(Episode::new(
        EpisodeKind::Fever,
        Duration::from_secs(1),
        Duration::from_secs(60),
        0.9,
    ));
    let patch = SensorRunner::start(
        &net,
        SensorKind::Temperature,
        &scenario,
        11,
        Duration::from_millis(80),
    )?;
    println!(
        "temperature patch {} joined the home cell",
        patch.device_id()
    );

    // The patient wanders to the garden: out of range for a moment.
    std::thread::sleep(Duration::from_millis(400));
    println!("patient out of range…");
    net.set_partitioned(patch.device_id(), cell.bus_endpoint(), true);
    net.set_partitioned(patch.device_id(), cell.discovery().local_id(), true);
    std::thread::sleep(Duration::from_millis(150));
    net.set_partitioned(patch.device_id(), cell.bus_endpoint(), false);
    net.set_partitioned(patch.device_id(), cell.discovery().local_id(), false);
    println!(
        "…and back; still a member: {}",
        cell.discovery().is_member(patch.device_id())
    );

    // Collect alarms; expect the fever alarm and, after escalation, the
    // strict one.
    let mut kinds = std::collections::BTreeSet::new();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while std::time::Instant::now() < deadline && kinds.len() < 2 {
        if let Ok(alarm) = carer.next_event(Duration::from_millis(500)) {
            if let Some(kind) = alarm.attr("kind").and_then(|v| v.as_str()) {
                if kinds.insert(kind.to_owned()) {
                    println!("carer alerted: {alarm}");
                }
            }
        }
    }
    assert!(kinds.contains("fever"), "fever alarm expected");
    println!("policy escalation audit:");
    for line in cell.policy().audit_log() {
        println!("  {line}");
    }

    patch.stop();
    carer.shutdown();
    cell.shutdown();
    println!("home monitoring demo complete");
    Ok(())
}
