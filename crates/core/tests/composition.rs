//! Hierarchical composition tests: a patient cell inside a ward cell.

use std::sync::Arc;
use std::time::Duration;

use smc_core::{cell_path, CellLink, RemoteClient, SmcCell, SmcConfig, TARGET_TYPE_ARG};
use smc_discovery::{AgentConfig, DiscoveryConfig};
use smc_transport::{LinkConfig, ReliableChannel, ReliableConfig, SimNetwork};
use smc_types::{AttributeSet, CellId, Event, Filter, Op, ServiceId, ServiceInfo};

const TICK: Duration = Duration::from_secs(5);

fn fast_reliable() -> ReliableConfig {
    ReliableConfig {
        initial_rto: Duration::from_millis(30),
        poll_interval: Duration::from_millis(10),
        ..ReliableConfig::default()
    }
}

fn start_cell(net: &SimNetwork, id: u64) -> Arc<SmcCell> {
    let config = SmcConfig {
        cell: CellId(id),
        discovery: DiscoveryConfig::fast(),
        reliable: fast_reliable(),
        ..SmcConfig::fast()
    };
    SmcCell::start(Arc::new(net.endpoint()), Arc::new(net.endpoint()), config)
}

fn connect(net: &SimNetwork, cell: CellId, device_type: &str) -> Arc<RemoteClient> {
    RemoteClient::connect(
        ServiceInfo::new(ServiceId::NIL, device_type).with_role("demo"),
        ReliableChannel::new(Arc::new(net.endpoint()), fast_reliable()),
        AgentConfig {
            cell_filter: Some(cell),
            ..AgentConfig::default()
        },
        TICK,
    )
    .expect("join")
}

/// The cell an exported event came up from: the second-to-last entry of
/// its path (the last is the cell it is published in now).
fn child_cell_of(event: &Event) -> Option<CellId> {
    let path = cell_path(event);
    path.len().checked_sub(2).map(|i| path[i])
}

fn attach(net: &SimNetwork, child: &Arc<SmcCell>, parent: CellId, export: Filter) -> CellLink {
    CellLink::export(
        Arc::clone(child),
        ReliableChannel::new(Arc::new(net.endpoint()), fast_reliable()),
        parent,
        export,
        TICK,
    )
    .expect("attach child to parent")
}

#[test]
fn child_appears_as_one_member_and_exports_events() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let ward = start_cell(&net, 1);
    let patient = start_cell(&net, 2);
    let link = attach(
        &net,
        &patient,
        ward.cell_id(),
        Filter::for_type("smc.alarm"),
    );

    // The ward sees exactly one new member of type smc.cell.
    let member = ward
        .members()
        .into_iter()
        .find(|m| m.id == link.remote_identity())
        .expect("link is a ward member");
    assert_eq!(member.device_type, "smc.cell");

    // A ward-level monitor receives alarms raised inside the patient cell.
    let sister = connect(&net, ward.cell_id(), "terminal.sister");
    sister
        .subscribe(Filter::for_type("smc.alarm"), TICK)
        .unwrap();
    let sensor = connect(&net, patient.cell_id(), "sensor.hr");
    sensor
        .publish(
            Event::builder("smc.alarm")
                .attr("kind", "tachycardia")
                .build(),
            TICK,
        )
        .unwrap();

    let seen = sister.next_event(TICK).unwrap();
    assert_eq!(seen.attr("kind").unwrap().as_str(), Some("tachycardia"));
    assert_eq!(
        child_cell_of(&seen),
        Some(patient.cell_id()),
        "tagged with its origin"
    );
    assert_eq!(
        seen.publisher(),
        link.remote_identity(),
        "one stream per child"
    );
    assert!(link.stats().forwarded >= 1);

    // Non-exported traffic stays inside the child.
    sensor
        .publish(Event::new("smc.sensor.reading"), TICK)
        .unwrap();
    assert!(sister.next_event(Duration::from_millis(300)).is_err());

    link.close();
    sensor.shutdown();
    sister.shutdown();
    ward.shutdown();
    patient.shutdown();
}

#[test]
fn commands_descend_by_device_type() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let ward = start_cell(&net, 1);
    let patient = start_cell(&net, 2);
    let link = attach(
        &net,
        &patient,
        ward.cell_id(),
        Filter::for_type("smc.alarm"),
    );

    // A pump inside the patient cell.
    let pump = connect(&net, patient.cell_id(), "actuator.pump");
    // Make sure the patient cell has registered the pump before commanding.
    let deadline = std::time::Instant::now() + TICK;
    while patient.proxy(pump.local_id()).is_none() {
        assert!(std::time::Instant::now() < deadline);
        std::thread::sleep(Duration::from_millis(10));
    }

    // The ward addresses the child cell as one device; the link fans the
    // command out inside by device type.
    let mut args = AttributeSet::new();
    args.insert(TARGET_TYPE_ARG, "actuator.*");
    args.insert("rate", 2i64);
    ward.send_command(link.remote_identity(), "set-rate", args)
        .unwrap();

    let cmd = pump.next_command(TICK).unwrap();
    assert_eq!(cmd.name, "set-rate");
    assert_eq!(cmd.args.get("rate").unwrap().as_int(), Some(2));
    assert!(
        cmd.args.get(TARGET_TYPE_ARG).is_none(),
        "routing argument stripped"
    );
    assert_eq!(link.stats().commands_relayed, 1);

    link.close();
    pump.shutdown();
    ward.shutdown();
    patient.shutdown();
}

#[test]
fn three_level_hierarchy() {
    // hospital ⊃ ward ⊃ patient: alarms bubble to the top, tagged at
    // each hop with the immediate child only (no double export).
    let net = SimNetwork::new(LinkConfig::ideal());
    let hospital = start_cell(&net, 10);
    let ward = start_cell(&net, 20);
    let patient = start_cell(&net, 30);

    let ward_in_hospital = attach(
        &net,
        &ward,
        hospital.cell_id(),
        Filter::for_type("smc.alarm"),
    );
    let patient_in_ward = attach(
        &net,
        &patient,
        ward.cell_id(),
        Filter::for_type("smc.alarm"),
    );

    let board = connect(&net, hospital.cell_id(), "terminal.board");
    board
        .subscribe(Filter::for_type("smc.alarm"), TICK)
        .unwrap();

    let sensor = connect(&net, patient.cell_id(), "sensor.hr");
    sensor
        .publish(
            Event::builder("smc.alarm").attr("kind", "sos").build(),
            TICK,
        )
        .unwrap();

    let seen = board.next_event(TICK).unwrap();
    assert_eq!(seen.attr("kind").unwrap().as_str(), Some("sos"));
    // The hospital-level tag names the ward (its immediate child).
    assert_eq!(child_cell_of(&seen), Some(ward.cell_id()));
    std::thread::sleep(Duration::from_millis(200));
    assert!(
        board.try_next_event().is_none(),
        "exactly one copy at the top"
    );

    let _ = (ward_in_hospital, patient_in_ward);
    sensor.shutdown();
    board.shutdown();
    hospital.shutdown();
    ward.shutdown();
    patient.shutdown();
}

#[test]
fn self_parenting_is_refused() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let cell = start_cell(&net, 5);
    let err = CellLink::export(
        Arc::clone(&cell),
        ReliableChannel::new(Arc::new(net.endpoint()), fast_reliable()),
        cell.cell_id(),
        Filter::any(),
        TICK,
    );
    assert!(err.is_err());
    cell.shutdown();
}

#[test]
fn export_filter_with_constraints() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let ward = start_cell(&net, 1);
    let patient = start_cell(&net, 2);
    // Only severe alarms leave the patient cell.
    let link = attach(
        &net,
        &patient,
        ward.cell_id(),
        Filter::for_type("smc.alarm").with(("severity", Op::Ge, 3i64)),
    );
    let sister = connect(&net, ward.cell_id(), "terminal.sister");
    sister
        .subscribe(Filter::for_type("smc.alarm"), TICK)
        .unwrap();
    let sensor = connect(&net, patient.cell_id(), "sensor.hr");
    sensor
        .publish(
            Event::builder("smc.alarm").attr("severity", 1i64).build(),
            TICK,
        )
        .unwrap();
    sensor
        .publish(
            Event::builder("smc.alarm").attr("severity", 4i64).build(),
            TICK,
        )
        .unwrap();
    let seen = sister.next_event(TICK).unwrap();
    assert_eq!(
        seen.attr("severity").unwrap().as_int(),
        Some(4),
        "minor alarm stayed local"
    );
    link.close();
    sensor.shutdown();
    sister.shutdown();
    ward.shutdown();
    patient.shutdown();
}

/// What a link that was open leaves behind once it is gone: nothing — no
/// subscription in the child, no delivery failure for a matching child
/// event, no membership in the parent, nothing crossing.
fn assert_gone(
    ward: &SmcCell,
    patient: &SmcCell,
    sister: &RemoteClient,
    link_id: ServiceId,
    subscriptions_before: usize,
) {
    assert_eq!(
        patient.bus().subscription_count(),
        subscriptions_before,
        "the export subscription is removed"
    );
    let failures = patient.metrics().delivery_failures;
    patient.publish_local(Event::new("smc.alarm")).unwrap();
    assert_eq!(
        patient.metrics().delivery_failures,
        failures,
        "a matching child event fails nowhere"
    );
    let deadline = std::time::Instant::now() + TICK;
    while ward.members().iter().any(|m| m.id == link_id) {
        assert!(
            std::time::Instant::now() < deadline,
            "the ward still lists the link"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        sister.next_event(Duration::from_millis(300)).is_err(),
        "nothing crosses"
    );
}

#[test]
fn closed_or_dropped_export_link_leaves_nothing_behind() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let ward = start_cell(&net, 1);
    let patient = start_cell(&net, 2);
    let sister = connect(&net, ward.cell_id(), "terminal.sister");
    sister
        .subscribe(Filter::for_type("smc.alarm"), TICK)
        .unwrap();
    let before = patient.bus().subscription_count();

    let open = || {
        let link = attach(
            &net,
            &patient,
            ward.cell_id(),
            Filter::for_type("smc.alarm"),
        );
        assert_eq!(patient.bus().subscription_count(), before + 1);
        patient.publish_local(Event::new("smc.alarm")).unwrap();
        assert!(sister.next_event(TICK).is_ok(), "the link works while open");
        link
    };

    // Closed, with the handle still held.
    let closed = open();
    let closed_id = closed.remote_identity();
    closed.close();
    assert_gone(&ward, &patient, &sister, closed_id, before);

    // Dropped without a close.
    let dropped = open();
    let dropped_id = dropped.remote_identity();
    drop(dropped);
    assert_gone(&ward, &patient, &sister, dropped_id, before);

    drop(closed);
    sister.shutdown();
    ward.shutdown();
    patient.shutdown();
}
