//! Self-stabilizing supervision teeth: kill and corrupt the cell's
//! components mid-run and prove the detect → repair loop closes — the
//! supervisor restarts dead components from the write-ahead log, wedged
//! components escalate to a full core reboot, anti-entropy reconciles
//! corrupted views against durable truth, and the delivery oracle
//! certifies that none of it ever costs exactly-once or FIFO. The
//! baseline runs (supervision off) prove the faults have teeth: without
//! a supervisor the damage is permanent.

use std::time::Duration;

use smc_harness::{
    run_with_options, ChaosOp, CoreComponent, CorruptTarget, RunOptions, Scenario, ScriptedOp,
    SupervisionOptions,
};

fn kill_at(secs: u64, component: CoreComponent, wedged: bool) -> ScriptedOp {
    ScriptedOp {
        at: Duration::from_secs(secs),
        op: ChaosOp::KillComponent { component, wedged },
    }
}

fn corrupt_at(secs: u64, target: CorruptTarget) -> ScriptedOp {
    ScriptedOp {
        at: Duration::from_secs(secs),
        op: ChaosOp::CorruptState { target },
    }
}

fn supervised() -> RunOptions {
    RunOptions {
        supervision: Some(SupervisionOptions::default()),
        ..RunOptions::default()
    }
}

#[test]
fn killed_sink_stays_down_without_supervision() {
    // The teeth baseline: nobody repairs anything, so a killed sink
    // means every later publish retransmits into a void forever.
    let mut scenario = Scenario::quiet(61, 2, Duration::from_secs(12));
    scenario.ops.push(kill_at(5, CoreComponent::Sink, false));
    let report = run_with_options(&scenario.sorted(), RunOptions::default());
    report.assert_clean();
    assert!(
        !report.all_delivered(),
        "an unsupervised sink kill must strand post-kill publishes"
    );
    assert!(
        !report.cells[0].supervisor_alive && report.cells[0].reconciles == 0,
        "no supervision plane ran"
    );
}

#[test]
fn killed_sink_is_repaired_with_exactly_once_across_the_outage() {
    // Same scenario, supervision on: the component-down detector trips,
    // the supervisor restarts the sink from the journaled cursors, and
    // the retransmissions that piled up during the outage dedup cleanly
    // — every message delivered exactly once.
    let mut scenario = Scenario::quiet(61, 2, Duration::from_secs(12));
    scenario.ops.push(kill_at(5, CoreComponent::Sink, false));
    let report = run_with_options(&scenario.sorted(), supervised());
    report.assert_clean();
    let sup = &report.cells[0];
    assert!(
        sup.converged(),
        "open episodes: {:?}",
        sup.report.unresolved
    );
    assert!(sup.report.restarts >= 1, "the supervisor issued a restart");
    assert_eq!(sup.report.escalations, 0, "no escalation for a clean kill");
    assert!(
        !sup.report.ttr_micros.is_empty(),
        "the episode closed with a time-to-repair"
    );
    assert!(
        sup.policy_restarts >= 1,
        "the built-in restart obligation saw the failure"
    );
    assert!(
        report.all_delivered(),
        "published {} delivered {}",
        report.total_published(),
        report.total_delivered()
    );
}

#[test]
fn killed_discovery_is_restarted_from_durable_truth() {
    let mut scenario = Scenario::quiet(62, 3, Duration::from_secs(12));
    scenario
        .ops
        .push(kill_at(5, CoreComponent::Discovery, false));
    let report = run_with_options(&scenario.sorted(), supervised());
    report.assert_clean();
    let sup = &report.cells[0];
    assert!(
        sup.converged(),
        "open episodes: {:?}",
        sup.report.unresolved
    );
    assert!(sup.report.restarts >= 1);
    assert!(
        sup.local_repairs
            .iter()
            .any(|(_, r)| r.contains("discovery")),
        "repair log names discovery: {:?}",
        sup.local_repairs
    );
    // The restarted table was rebuilt from the WAL, not re-learned:
    // nobody had to re-join, so each device joined exactly once.
    for &id in &report.device_ids {
        assert_eq!(report.times_joined(id), 1, "{id} never re-joined");
    }
    assert_eq!(report.core_recoveries(), 0, "no reboot for a clean kill");
}

#[test]
fn wedged_component_escalates_to_a_core_reboot() {
    // A wedged sink refuses its restarts; after the budget is spent the
    // supervisor walks up the dependency graph and reboots the core —
    // which clears the wedge, because a reboot rebuilds everything.
    let mut scenario = Scenario::quiet(63, 2, Duration::from_secs(14));
    scenario.ops.push(kill_at(4, CoreComponent::Sink, true));
    let report = run_with_options(&scenario.sorted(), supervised());
    report.assert_clean();
    let sup = &report.cells[0];
    assert!(
        sup.converged(),
        "open episodes: {:?}",
        sup.report.unresolved
    );
    assert!(
        sup.report.escalations >= 1,
        "restart exhaustion escalated: {:?}",
        sup.report.log
    );
    assert!(
        report.core_recoveries() >= 1,
        "escalation rebooted the core from the WAL"
    );
    assert!(
        sup.local_repairs.iter().any(|(_, r)| r.contains("wedged")),
        "the refused restarts are on record: {:?}",
        sup.local_repairs
    );
}

#[test]
fn corrupted_views_are_healed_by_reconcile() {
    // No detector fires for silent state corruption — only the periodic
    // anti-entropy diff against the folded log notices. Drop a live
    // member from the sink's view, plant a ghost in it, and vanish a
    // member from the discovery table; every divergence must be repaired
    // and the repaired member's later publishes delivered.
    let mut scenario = Scenario::quiet(64, 3, Duration::from_secs(10));
    scenario
        .ops
        .push(corrupt_at(4, CorruptTarget::MembershipView { node: 0 }));
    scenario.ops.push(corrupt_at(5, CorruptTarget::GhostMember));
    scenario
        .ops
        .push(corrupt_at(6, CorruptTarget::DiscoveryMember { node: 1 }));
    let report = run_with_options(&scenario.sorted(), supervised());
    report.assert_clean();
    let sup = &report.cells[0];
    assert!(sup.reconciles > 0, "reconcile passes ran on cadence");
    let fixes: Vec<&str> = sup
        .reconcile_fixes
        .iter()
        .map(|(_, f)| f.as_str())
        .collect();
    assert!(
        fixes.iter().any(|f| f.contains("sink view re-admitted")),
        "dropped member re-admitted: {fixes:?}"
    );
    assert!(
        fixes.iter().any(|f| f.contains("sink view dropped ghost")),
        "ghost evicted: {fixes:?}"
    );
    assert!(
        fixes.iter().any(|f| f.contains("discovery re-admitted")),
        "discovery table repaired: {fixes:?}"
    );
    assert_eq!(
        sup.report.reconcile_repairs,
        sup.reconcile_fixes.len() as u64,
        "the supervisor's report books every fix"
    );
    // The corrupted window filtered node 0's traffic (a legal gap); once
    // re-admitted, its stream flows again.
    let victim = report.device_ids[0];
    assert!(
        report.oracle.delivered(victim) > 0,
        "the re-admitted member's publishes are served"
    );
}

#[test]
fn seeded_kill_and_corrupt_sweep_always_reconverges() {
    // The headline guarantee: across a family of randomized
    // kill-and-corrupt schedules, every failure episode is repaired by
    // run end and the oracle never sees a violation.
    let mut repairs = 0u64;
    let mut fixes = 0u64;
    for seed in 9100..9110u64 {
        let scenario = Scenario::random_supervision(seed, 3, Duration::from_secs(20), 5);
        let report = run_with_options(&scenario, supervised());
        report.assert_clean();
        let sup = &report.cells[0];
        assert!(
            sup.converged(),
            "seed {seed} left open episodes: {:?}",
            sup.report.unresolved
        );
        repairs += sup.report.restarts + sup.report.escalations;
        fixes += sup.report.reconcile_repairs;
    }
    assert!(repairs > 0, "the sweep exercised the repair path");
    assert!(fixes > 0, "the sweep exercised the reconcile path");
}

#[test]
fn supervised_runs_are_deterministic() {
    let scenario = Scenario::random_supervision(9104, 3, Duration::from_secs(20), 5);
    let a = run_with_options(&scenario, supervised());
    let b = run_with_options(&scenario, supervised());
    assert_eq!(
        a.trace_text(),
        b.trace_text(),
        "same seed, same repairs, same trace — byte for byte"
    );
}
