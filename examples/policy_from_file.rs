//! A cell whose entire management behaviour comes from a policy file —
//! the Ponder workflow: write policies, load them, change behaviour
//! without touching code.
//!
//! ```text
//! cargo run --example policy_from_file
//! ```

use std::sync::Arc;
use std::time::Duration;

use amuse::core::{RemoteClient, SmcCell, SmcConfig};
use amuse::discovery::AgentConfig;
use amuse::policy::parse_policies;
use amuse::transport::{LinkConfig, ReliableChannel, ReliableConfig, SimNetwork};
use amuse::types::{wellknown, Event, Filter, ServiceId, ServiceInfo};
use smc_sensors::register_standard_codecs;

const TIMEOUT: Duration = Duration::from_secs(5);

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let net = SimNetwork::new(LinkConfig::ideal());
    let cell = SmcCell::start(
        Arc::new(net.endpoint()),
        Arc::new(net.endpoint()),
        SmcConfig::fast(),
    );
    register_standard_codecs(cell.proxy_factory());

    // Load the whole management behaviour from the policy document.
    let source = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/ward_policies.smc"),
    )?;
    let policies = parse_policies(&source)?;
    println!("loaded {} policies from ward_policies.smc:", policies.len());
    for p in &policies {
        println!("  - {}", p.id());
        cell.policy().add(p.clone())?;
    }
    // The strict watch starts dormant.
    cell.policy().disable("strict-fever-watch")?;

    let connect = |device_type: &str, role: &str| {
        RemoteClient::connect(
            ServiceInfo::new(ServiceId::NIL, device_type).with_role(role),
            ReliableChannel::new(Arc::new(net.endpoint()), ReliableConfig::default()),
            AgentConfig::default(),
            TIMEOUT,
        )
        .expect("join")
    };
    let nurse = connect("terminal.nurse", "manager");
    nurse.subscribe(Filter::for_type(wellknown::ALARM), TIMEOUT)?;
    let strap = connect("sensor.strap", "sensor");

    // A racing heart triggers the loaded tachycardia policy…
    strap.publish(
        Event::builder(wellknown::SENSOR_READING)
            .attr("sensor", "heart-rate")
            .attr("bpm", 151i64)
            .build(),
        TIMEOUT,
    )?;
    let alarm = nurse.next_event(TIMEOUT)?;
    println!("alarm: {alarm}");
    assert_eq!(alarm.attr("kind").unwrap().as_str(), Some("tachycardia"));

    // …which enabled strict fever monitoring: a mildly elevated
    // temperature now alarms too (it would not have before).
    assert!(cell.policy().is_enabled("strict-fever-watch"));
    strap.publish(
        Event::builder(wellknown::SENSOR_READING)
            .attr("sensor", "temperature")
            .attr("celsius", 37.6f64)
            .build(),
        TIMEOUT,
    )?;
    let escalated = nurse.next_event(TIMEOUT)?;
    println!("escalated alarm: {escalated}");
    assert_eq!(
        escalated.attr("kind").unwrap().as_str(),
        Some("elevated-temperature")
    );

    println!("audit log:");
    for line in cell.policy().audit_log() {
        println!("  {line}");
    }

    strap.shutdown();
    nurse.shutdown();
    cell.shutdown();
    println!("policy-from-file demo complete");
    Ok(())
}
