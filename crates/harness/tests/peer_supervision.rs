//! Peer-supervision teeth: kill the supervisor itself — the one
//! component the single-cell detect → repair loop can never fix — and
//! prove a sibling cell notices the lapsed lease over the wire, adopts
//! the silent cell, drives repair remotely through the policy layer
//! (including reviving the dead supervisor plane), orders anti-entropy
//! before the ward may compact, and releases adoption once the ward
//! heartbeats again. The baseline run in the single-cell world proves
//! the fault has teeth: without a sibling, a dead supervisor plus a
//! wedged component is a permanent outage.

use std::time::Duration;

use smc_harness::{
    run_with_options, ChaosOp, CoreComponent, RunOptions, RunReport, Scenario, ScriptedOp,
    SupervisionOptions, TraceEvent,
};
use smc_telemetry::Hop;

/// One supervised cell on its own.
fn supervised() -> RunOptions {
    RunOptions {
        supervision: Some(SupervisionOptions::default()),
        ..RunOptions::default()
    }
}

/// Two sibling cells, each supervised and each watching the other.
fn peered() -> RunOptions {
    RunOptions {
        supervision: Some(SupervisionOptions { peer: true }),
        ..RunOptions::default()
    }
}

fn kill_sink_wedged_at(secs: u64) -> ScriptedOp {
    ScriptedOp {
        at: Duration::from_secs(secs),
        op: ChaosOp::KillComponent {
            component: CoreComponent::Sink,
            wedged: true,
        },
    }
}

fn kill_supervisor_at(secs: u64, cell: usize) -> ScriptedOp {
    ScriptedOp {
        at: Duration::from_secs(secs),
        op: ChaosOp::KillSupervisor { cell },
    }
}

#[test]
fn dead_supervisor_strands_the_outage_without_a_sibling() {
    // The teeth baseline, in the single-cell world: the sink wedges,
    // the supervisor starts the repair episode — and then dies. Nobody
    // is left to retry or escalate, so the outage is permanent.
    let mut scenario = Scenario::quiet(71, 2, Duration::from_secs(14));
    scenario.ops.push(kill_sink_wedged_at(4));
    scenario.ops.push(kill_supervisor_at(5, 0));
    let report = run_with_options(&scenario.sorted(), supervised());
    report.assert_clean();
    let sup = &report.cells[0];
    assert!(!sup.supervisor_alive, "the supervisor stayed dead");
    assert!(
        !report.all_delivered(),
        "a dead supervisor plus a wedged sink must strand publishes"
    );
    assert_eq!(
        report.core_recoveries(),
        0,
        "nobody was left to escalate to a reboot"
    );
}

#[test]
fn sibling_adopts_a_dead_supervisor_mid_outage_and_completes_the_repair() {
    // The headline: same wedged sink, same supervisor death mid-episode
    // — but now a sibling cell holds a lease over the silent cell. It
    // claims, adopts, ships repairs over the journaled supervision
    // channel (the wedged sink's refusals and the supervisor revival
    // both on record), and the outage closes with exactly-once intact.
    let mut scenario = Scenario::quiet(71, 2, Duration::from_secs(16));
    scenario.ops.push(kill_sink_wedged_at(4));
    scenario.ops.push(kill_supervisor_at(5, 0));
    let report = run_with_options(&scenario.sorted(), peered());
    report.assert_clean();
    let ward = report.cell(1);
    let adopter = report.cell(2);
    assert!(
        adopter.peer.adoptions >= 1,
        "cell 2 adopted its silent sibling: {:?}",
        adopter.peer.log
    );
    assert!(
        !adopter.remote_commands.is_empty(),
        "the adopter shipped repair commands over the wire"
    );
    assert!(
        ward.supervisor_revivals >= 1 && ward.supervisor_alive,
        "the dead supervisor plane was revived remotely"
    );
    assert!(
        ward.remote_repairs
            .iter()
            .any(|(_, r)| r.contains("supervisor: revived")),
        "the revival is a wire-commanded repair: {:?}",
        ward.remote_repairs
    );
    assert!(
        ward.core_recoveries >= 1,
        "the wedged sink ended in a core reboot"
    );
    assert!(
        adopter.peer.releases >= 1 && adopter.adopted_at_end.is_empty(),
        "adoption was released once the ward heartbeated again"
    );
    assert!(
        report.converged(),
        "both cells ended healthy: {:?} / {:?}",
        ward.report.unresolved,
        adopter.report.unresolved
    );
    assert!(
        report.all_delivered(),
        "published {} delivered {}",
        report.total_published(),
        report.total_delivered()
    );
}

#[test]
fn peer_runs_are_deterministic() {
    let mut scenario = Scenario::quiet(72, 2, Duration::from_secs(16));
    scenario.ops.push(kill_sink_wedged_at(4));
    scenario.ops.push(kill_supervisor_at(5, 0));
    let scenario = scenario.sorted();
    let a = run_with_options(&scenario, peered());
    let b = run_with_options(&scenario, peered());
    assert_eq!(
        a.trace_text(),
        b.trace_text(),
        "same seed, same adoption, same repairs — byte for byte"
    );
}

#[test]
fn outage_after_supervisor_death_is_detected_and_repaired_remotely() {
    // The supervisor dies *before* anything else breaks. The sibling
    // adopts and first revives the supervisor plane; while adopted it
    // also held the reconcile duty — the ward's checkpoints deferred
    // during the window with no local reconciler, then resumed once
    // wire-ordered anti-entropy passes re-armed the gate.
    let mut scenario = Scenario::quiet(73, 2, Duration::from_secs(14));
    scenario.ops.push(kill_supervisor_at(1, 0));
    scenario.ops.push(kill_sink_wedged_at(6));
    let report = run_with_options(&scenario.sorted(), peered());
    report.assert_clean();
    let ward = report.cell(1);
    let adopter = report.cell(2);
    assert!(adopter.peer.adoptions >= 1);
    assert!(ward.supervisor_revivals >= 1);
    assert!(
        ward.reconciles >= 1,
        "anti-entropy ran on the ward (wire-ordered or post-revival)"
    );
    assert!(
        report.converged() && report.all_delivered(),
        "the late sink wedge was still repaired"
    );
}

#[test]
fn partition_triggers_false_adoption_then_clean_release() {
    // A partition makes a perfectly healthy cell look dead: its leases
    // stop arriving, the sibling claims and adopts. The remote monitor
    // then sees a healthy ward, so no repair is ever commanded — and
    // when the partition heals and leases resume, the adopter releases.
    let mut scenario = Scenario::quiet(74, 2, Duration::from_secs(12));
    scenario.ops.push(ScriptedOp {
        at: Duration::from_secs(3),
        op: ChaosOp::PartitionCell {
            cell: 0,
            duration: Duration::from_secs(2),
        },
    });
    let report = run_with_options(&scenario.sorted(), peered());
    report.assert_clean();
    let adoptions: u64 = report.cells.iter().map(|c| c.peer.adoptions).sum();
    let releases: u64 = report.cells.iter().map(|c| c.peer.releases).sum();
    assert!(
        adoptions >= 1,
        "the partition looked like a death from outside"
    );
    assert!(releases >= 1, "resumed leases released the false adoption");
    for cell in &report.cells {
        assert!(
            cell.remote_repairs.is_empty(),
            "a healthy ward must never be repaired: {:?}",
            cell.remote_repairs
        );
        assert_eq!(cell.supervisor_revivals, 0);
    }
    assert!(
        report.converged() && report.all_delivered(),
        "a false adoption costs nothing"
    );
}

#[test]
fn unreconciled_cell_defers_checkpoints_until_wire_reconcile_lands() {
    // Kill the supervisor AND partition the cell: nobody can run
    // anti-entropy on it, locally or by wire. The reconcile-before-
    // checkpoint invariant must hold the line — compaction is refused
    // while the last reconcile goes stale — and resume once the
    // partition heals and the adopter's wire-ordered pass lands.
    let mut scenario = Scenario::quiet(75, 2, Duration::from_secs(14));
    scenario.ops.push(kill_supervisor_at(2, 0));
    scenario.ops.push(ScriptedOp {
        at: Duration::from_secs(2),
        op: ChaosOp::PartitionCell {
            cell: 0,
            duration: Duration::from_secs(5),
        },
    });
    let scenario = scenario.sorted();
    let report = run_with_options(&scenario, peered());
    report.assert_clean();
    let ward = report.cell(1);
    assert!(
        ward.checkpoints_deferred >= 1,
        "an unreconciled cell must refuse to compact"
    );
    assert!(
        ward.reconciles >= 1,
        "the wire-ordered reconcile landed after the heal"
    );
    assert!(
        ward.supervisor_revivals >= 1 && report.converged() && report.all_delivered(),
        "the cell was still healed once reachable"
    );

    // The gate belongs to the supervision plane, not to the peer plane:
    // the same supervisor death on a lone cell starts deferring at the
    // same virtual instant — and, with no sibling to order a pass, never
    // stops.
    let first_deferral = |r: &RunReport| {
        r.oracle.trace().iter().find_map(|e| match e {
            TraceEvent::Fault { at, what } if what.contains("checkpoint deferred") => Some(*at),
            _ => None,
        })
    };
    let lone = run_with_options(&scenario, supervised());
    lone.assert_clean();
    assert!(!lone.cell(1).supervisor_alive, "nobody revives a lone cell");
    assert_eq!(
        first_deferral(&lone),
        first_deferral(&report),
        "one cell defers exactly when a two-cell ward does"
    );
    assert!(
        lone.cell(1).checkpoints_deferred > ward.checkpoints_deferred,
        "without a wire-ordered pass the gate never re-arms"
    );
}

#[test]
fn two_cell_report_counts_retransmits_of_crashed_incarnations() {
    // A device retransmits into a heavy loss burst, then crashes and
    // never comes back inside the run: its channel is gone by run end,
    // so only a total kept across incarnations can still hold what its
    // own journeys say it retransmitted.
    let mut scenario = Scenario::quiet(76, 1, Duration::from_secs(5));
    scenario.ops.push(ScriptedOp {
        at: Duration::from_millis(500),
        op: ChaosOp::LossBurst {
            node: 0,
            loss: 0.85,
            duration: Duration::from_millis(2500),
        },
    });
    scenario.ops.push(ScriptedOp {
        at: Duration::from_secs(3),
        op: ChaosOp::Crash {
            node: 0,
            down_for: Duration::from_secs(60),
        },
    });
    let report = run_with_options(&scenario.sorted(), peered());
    report.assert_clean();
    assert_eq!(report.cells.len(), 2);
    let crashed = report.device_ids[0];
    let rounds: usize = (1..=report.oracle.published(crashed))
        .filter_map(|seq| report.journey(crashed, seq))
        .map(|j| j.hops.iter().filter(|r| r.hop == Hop::TxRetransmit).count())
        .sum();
    assert!(rounds > 0, "the burst forced traced retransmission rounds");
    assert!(
        report.retransmits >= rounds as u64,
        "{} retransmits reported, {rounds} rounds traced on the crashed device alone",
        report.retransmits
    );
}

#[test]
fn seeded_peer_sweep_always_reconverges() {
    // Compound schedules — component kills, supervisor deaths, cell
    // partitions, corruption — across seeds: every run must end with
    // both cells healthy, nothing still adopted, and a clean oracle.
    let mut adoptions = 0u64;
    let mut revivals = 0u64;
    for seed in 9500..9506u64 {
        let scenario = Scenario::random_peer(seed, 3, Duration::from_secs(24), 3);
        let report = run_with_options(&scenario, peered());
        report.assert_clean();
        assert!(
            report.converged(),
            "seed {seed} left a cell unconverged: {:#?}",
            report.cells
        );
        adoptions += report.cells.iter().map(|c| c.peer.adoptions).sum::<u64>();
        revivals += report
            .cells
            .iter()
            .map(|c| c.supervisor_revivals)
            .sum::<u64>();
    }
    assert!(adoptions >= 1, "the sweep exercised adoption");
    assert!(revivals >= 1, "the sweep exercised remote revival");
}
