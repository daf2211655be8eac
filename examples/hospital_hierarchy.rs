//! Composing cells across levels of abstraction (paper §I): patient
//! cells inside a ward cell inside a hospital cell. Alarms bubble
//! upward, tagged with their origin; commands descend addressed to a
//! whole patient cell as if it were one device.
//!
//! ```text
//! cargo run --example hospital_hierarchy
//! ```

use std::sync::Arc;
use std::time::Duration;

use amuse::core::{cell_path, CellLink, RemoteClient, SmcCell, SmcConfig, TARGET_TYPE_ARG};
use amuse::discovery::{AgentConfig, DiscoveryConfig};
use amuse::transport::{LinkConfig, ReliableChannel, ReliableConfig, SimNetwork};
use amuse::types::{AttributeSet, CellId, Event, Filter, ServiceId, ServiceInfo};

const TIMEOUT: Duration = Duration::from_secs(5);

fn start_cell(net: &SimNetwork, id: u64) -> Arc<SmcCell> {
    SmcCell::start(
        Arc::new(net.endpoint()),
        Arc::new(net.endpoint()),
        SmcConfig {
            cell: CellId(id),
            discovery: DiscoveryConfig::fast(),
            ..SmcConfig::fast()
        },
    )
}

fn connect(net: &SimNetwork, cell: CellId, device_type: &str, role: &str) -> Arc<RemoteClient> {
    RemoteClient::connect(
        ServiceInfo::new(ServiceId::NIL, device_type).with_role(role),
        ReliableChannel::new(Arc::new(net.endpoint()), ReliableConfig::default()),
        AgentConfig {
            cell_filter: Some(cell),
            ..AgentConfig::default()
        },
        TIMEOUT,
    )
    .expect("join")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let net = SimNetwork::new(LinkConfig::ideal());

    // Three levels: hospital(1) ⊃ ward(10) ⊃ two patients(101, 102).
    let hospital = start_cell(&net, 1);
    let ward = start_cell(&net, 10);
    let bed1 = start_cell(&net, 101);
    let bed2 = start_cell(&net, 102);

    let link = |child: &Arc<SmcCell>, parent: &Arc<SmcCell>| {
        CellLink::export(
            Arc::clone(child),
            ReliableChannel::new(Arc::new(net.endpoint()), ReliableConfig::default()),
            parent.cell_id(),
            Filter::for_type("smc.alarm"),
            TIMEOUT,
        )
        .expect("compose")
    };
    let ward_link = link(&ward, &hospital);
    let bed1_link = link(&bed1, &ward);
    let bed2_link = link(&bed2, &ward);
    println!(
        "hierarchy up: {} ⊃ {} ⊃ {{{}, {}}}",
        hospital.cell_id(),
        ward.cell_id(),
        bed1.cell_id(),
        bed2.cell_id()
    );

    // The hospital board watches alarms from everywhere.
    let board = connect(&net, hospital.cell_id(), "terminal.board", "manager");
    board.subscribe(Filter::for_type("smc.alarm"), TIMEOUT)?;

    // A sensor in bed 1 raises an alarm; a pump in bed 2 awaits commands.
    let sensor = connect(&net, bed1.cell_id(), "sensor.hr", "sensor");
    let pump = connect(&net, bed2.cell_id(), "actuator.pump", "actuator");

    sensor.publish(
        Event::builder("smc.alarm")
            .attr("kind", "tachycardia")
            .attr("bpm", 152i64)
            .build(),
        TIMEOUT,
    )?;
    let alarm = board.next_event(TIMEOUT)?;
    let path: Vec<String> = cell_path(&alarm).iter().map(|c| c.to_string()).collect();
    println!("hospital board sees: {alarm}");
    println!("  bubbled out of: {}", path.join(" → "));
    assert_eq!(
        path,
        vec!["cell-65", "cell-a", "cell-1"],
        "bed1(0x65=101), ward(0xa=10), then hospital(1)"
    );

    // Downward: the ward nurses bed 2's actuators as one unit.
    let mut args = AttributeSet::new();
    args.insert(TARGET_TYPE_ARG, "actuator.*");
    args.insert("rate", 5i64);
    ward.send_command(bed2_link.remote_identity(), "set-rate", args)?;
    let cmd = pump.next_command(TIMEOUT)?;
    println!(
        "bed 2 pump executed: {} rate={:?}",
        cmd.name,
        cmd.args.get("rate").unwrap()
    );

    println!(
        "link stats: ward-in-hospital exported {}, bed1 exported {}, bed2 relayed {} command(s)",
        ward_link.stats().forwarded,
        bed1_link.stats().forwarded,
        bed2_link.stats().commands_relayed,
    );

    for l in [&ward_link, &bed1_link, &bed2_link] {
        l.close();
    }
    sensor.shutdown();
    pump.shutdown();
    board.shutdown();
    for c in [&hospital, &ward, &bed1, &bed2] {
        c.shutdown();
    }
    println!("hierarchy demo complete");
    Ok(())
}
