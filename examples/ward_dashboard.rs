//! A live ward dashboard: periodically prints the cell's membership,
//! subscription table and bus metrics while two patients' body-area
//! networks stream readings — the operator's view of a self-managed
//! cell. Filters are written in the textual syntax (`parse_filter`).
//!
//! ```text
//! cargo run --example ward_dashboard
//! ```

use std::sync::Arc;
use std::time::Duration;

use amuse::core::{ChannelSink, SmcCell, SmcConfig};
use amuse::policy::{ActionSpec, Expr, ObligationPolicy, Policy, ValueTemplate};
use amuse::transport::{LinkConfig, SimNetwork};
use amuse::types::{parse_filter, wellknown, ServiceId};
use smc_sensors::runner::Patient;
use smc_sensors::{register_standard_codecs, Episode, EpisodeKind, Scenario};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let net = SimNetwork::new(LinkConfig::ideal());
    let cell = SmcCell::start(
        Arc::new(net.endpoint()),
        Arc::new(net.endpoint()),
        SmcConfig::fast(),
    );
    register_standard_codecs(cell.proxy_factory());

    // Alarm rule, with the trigger filter written textually.
    cell.policy().add(Policy::Obligation(
        ObligationPolicy::new(
            "dashboard-tachy",
            parse_filter(r#"smc.sensor.reading : sensor == "heart-rate""#)?,
        )
        .when(Expr::parse("bpm > 120")?)
        .then(ActionSpec::PublishEvent {
            event_type: wellknown::ALARM.into(),
            attrs: vec![("bpm".into(), ValueTemplate::FromEvent("bpm".into()))],
        }),
    ))?;

    // The dashboard itself is an in-process service: it subscribes to
    // alarms directly on the cell's bus.
    let (alarm_sink, alarms) = ChannelSink::new();
    cell.subscribe_local(
        ServiceId::from_raw(0xDA5B),
        parse_filter("smc.alarm")?,
        Arc::new(alarm_sink),
    )?;

    // Two patients: one stable, one with an early tachycardia episode.
    let stable = Patient::admit(
        &net,
        "bed 1 (stable)",
        &Scenario::stable("routine"),
        41,
        Duration::from_millis(120),
    )?;
    let acute_scenario = Scenario::stable("acute").with(Episode::new(
        EpisodeKind::Tachycardia,
        Duration::from_secs(1),
        Duration::from_secs(30),
        0.9,
    ));
    let acute = Patient::admit(
        &net,
        "bed 2 (acute)",
        &acute_scenario,
        42,
        Duration::from_millis(120),
    )?;

    // Print three dashboard frames, two seconds apart.
    for frame in 1..=3 {
        std::thread::sleep(Duration::from_secs(2));
        let members = cell.members();
        let metrics = cell.metrics();
        println!("── ward dashboard, frame {frame} ──────────────────────────");
        println!("cell {} · bus {}", cell.cell_id(), cell.bus_endpoint());
        println!("members ({}):", members.len());
        for m in &members {
            println!("  {}  {:<24} roles={:?}", m.id, m.device_type, m.roles);
        }
        println!("subscriptions ({}):", cell.bus().subscription_count());
        for (id, subscriber, filter) in cell.bus().subscriptions() {
            println!("  {id} by {subscriber}: {filter}");
        }
        println!(
            "bus: {} published · {} delivered · {} unmatched · {} policy actions",
            metrics.published, metrics.deliveries, metrics.unmatched, metrics.policy_actions
        );
        let pending: Vec<String> = alarms
            .try_iter()
            .map(|a| format!("bpm={}", a.attr("bpm").unwrap()))
            .collect();
        println!(
            "alarms this frame: {}",
            if pending.is_empty() {
                "none".into()
            } else {
                pending.join(", ")
            }
        );
    }

    assert!(cell.metrics().published > 0);
    stable.discharge();
    acute.discharge();
    cell.shutdown();
    println!("dashboard demo complete");
    Ok(())
}
