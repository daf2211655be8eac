//! The paper's motivating scenario: a chronically ill patient wears a
//! body-area network of sensors; an obligation policy turns a scripted
//! cardiac event into alarms on the nurse's terminal and a command to the
//! infusion pump.
//!
//! ```text
//! cargo run --example body_area_network
//! ```

use std::sync::Arc;
use std::time::Duration;

use amuse::core::{RemoteClient, SmcCell, SmcConfig};
use amuse::discovery::AgentConfig;
use amuse::policy::{ActionSpec, Expr, ObligationPolicy, Policy, ValueTemplate};
use amuse::transport::{LinkConfig, ReliableChannel, ReliableConfig, SimNetwork};
use amuse::types::{wellknown, Filter, Op, ServiceId, ServiceInfo};
use smc_sensors::runner::Patient;
use smc_sensors::{register_standard_codecs, Episode, EpisodeKind, Scenario};

const TIMEOUT: Duration = Duration::from_secs(10);

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let net = SimNetwork::new(LinkConfig::ideal());
    let cell = SmcCell::start(
        Arc::new(net.endpoint()),
        Arc::new(net.endpoint()),
        SmcConfig::fast(),
    );
    // Install the translating proxies for the dumb sensor families.
    register_standard_codecs(cell.proxy_factory());

    // Obligation policies: the self-management rules of this cell.
    cell.policy().add(Policy::Obligation(
        ObligationPolicy::new(
            "tachycardia-alarm",
            Filter::for_type(wellknown::SENSOR_READING).with(("sensor", Op::Eq, "heart-rate")),
        )
        .when(Expr::parse("bpm > 120")?)
        .then(ActionSpec::PublishEvent {
            event_type: wellknown::ALARM.into(),
            attrs: vec![
                ("kind".into(), ValueTemplate::Literal("tachycardia".into())),
                ("bpm".into(), ValueTemplate::FromEvent("bpm".into())),
            ],
        }),
    ))?;
    cell.policy().add(Policy::Obligation(
        ObligationPolicy::new(
            "hypoxia-response",
            Filter::for_type(wellknown::SENSOR_READING).with(("sensor", Op::Eq, "spo2")),
        )
        .when(Expr::parse("spo2 < 90")?)
        .then(ActionSpec::PublishEvent {
            event_type: wellknown::ALARM.into(),
            attrs: vec![
                ("kind".into(), ValueTemplate::Literal("hypoxia".into())),
                ("spo2".into(), ValueTemplate::FromEvent("spo2".into())),
            ],
        })
        .then(ActionSpec::SendCommand {
            target: None,
            target_device_type: "actuator.*".into(),
            name: "increase-oxygen".into(),
            args: vec![("spo2".into(), ValueTemplate::FromEvent("spo2".into()))],
        }),
    ))?;

    // The nurse's terminal watches alarms only — content-based filtering
    // keeps routine readings off her screen.
    let nurse = RemoteClient::connect(
        ServiceInfo::new(ServiceId::NIL, "terminal.nurse").with_role("manager"),
        ReliableChannel::new(Arc::new(net.endpoint()), ReliableConfig::default()),
        AgentConfig::default(),
        TIMEOUT,
    )?;
    nurse.subscribe(Filter::for_type(wellknown::ALARM), TIMEOUT)?;

    // Admit the patient: four sensors + an infusion pump, with a cardiac
    // event scripted to start two seconds in.
    let scenario = Scenario::stable("demo-cardiac")
        .with(Episode::new(
            EpisodeKind::Tachycardia,
            Duration::from_secs(2),
            Duration::from_secs(20),
            0.9,
        ))
        .with(Episode::new(
            EpisodeKind::Hypoxia,
            Duration::from_secs(1),
            Duration::from_secs(20),
            0.9,
        ));
    let patient = Patient::admit(&net, "bed 4", &scenario, 2024, Duration::from_millis(100))?;
    println!(
        "admitted patient '{}' with {} sensors and {} actuator(s); members: {}",
        patient.name,
        patient.sensors.len(),
        patient.actuators.len(),
        cell.members().len(),
    );

    // Watch the ward until both alarm kinds and a pump command are seen.
    let mut kinds = std::collections::BTreeSet::new();
    let mut alarms = 0;
    let deadline = std::time::Instant::now() + Duration::from_secs(12);
    while std::time::Instant::now() < deadline {
        if let Ok(alarm) = nurse.next_event(Duration::from_millis(500)) {
            alarms += 1;
            if let Some(kind) = alarm.attr("kind").and_then(|v| v.as_str()) {
                if kinds.insert(kind.to_owned()) {
                    println!("ALARM at nurse terminal: {alarm}");
                }
            }
        }
        if kinds.len() >= 2 && !patient.actuators[0].state().applied.is_empty() {
            break;
        }
    }
    assert!(alarms > 0, "the scripted episode must raise alarms");

    let pump_state = patient.actuators[0].state();
    println!(
        "saw {alarms} alarms of kinds {kinds:?}; infusion pump applied: {:?}",
        &pump_state.applied[..pump_state.applied.len().min(3)]
    );
    assert!(
        !pump_state.applied.is_empty(),
        "the hypoxia policy must drive the pump"
    );

    println!(
        "bus metrics: {} events published, {} deliveries, {} policy actions",
        cell.metrics().published,
        cell.metrics().deliveries,
        cell.metrics().policy_actions
    );

    patient.discharge();
    nurse.shutdown();
    cell.shutdown();
    println!("scenario complete");
    Ok(())
}
