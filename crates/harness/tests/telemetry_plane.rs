//! Telemetry-plane teeth: kill a cell's supervisor AND partition the
//! cell, and prove the in-network aggregation keeps telling the truth.
//! The cells export delta-encoded metrics, trace hops and SLO reports
//! as journaled `smc.telemetry` events to an observer; the observer
//! folds them into a ward view whose counters never move backwards and
//! stitches the supervision episode — lease-lapse, claim, adopt,
//! wire-repair on the adopter; remote-restart on the revived cell —
//! into one cross-cell journey under a single synthetic trace id. The
//! partition only delays exports (they queue in the telemetry journal
//! and drain after heal); it never loses or reorders them.

use std::time::Duration;

use smc_harness::{
    run_with_options, ChaosOp, RunOptions, Scenario, ScriptedOp, SupervisionOptions,
};
use smc_health::PeerConfig;

/// The five legs of a complete remote-revival journey, in virtual-time
/// order. The first four are recorded by the adopter, the last by the
/// revived cell itself — stitching them is the observer's job.
const JOURNEY: [&str; 5] = [
    "lease-lapse",
    "claim",
    "adopt",
    "wire-repair",
    "remote-restart",
];

fn revival_under_partition(seed: u64) -> Scenario {
    let mut scenario = Scenario::quiet(seed, 2, Duration::from_secs(12));
    scenario.ops.push(ScriptedOp {
        at: Duration::from_secs(1),
        op: ChaosOp::KillSupervisor { cell: 0 },
    });
    scenario.ops.push(ScriptedOp {
        at: Duration::from_millis(1_200),
        op: ChaosOp::PartitionCell {
            cell: 0,
            duration: Duration::from_secs(2),
        },
    });
    scenario.sorted()
}

/// Two sibling cells under peer supervision, telemetry plane off.
fn peered() -> RunOptions {
    RunOptions {
        supervision: Some(SupervisionOptions {
            peer: Some(PeerConfig::default()),
            ..SupervisionOptions::default()
        }),
        ..RunOptions::default()
    }
}

fn telemetry_on() -> RunOptions {
    RunOptions {
        telemetry: Some(Default::default()),
        ..peered()
    }
}

#[test]
fn stitched_journey_survives_supervisor_death_and_partition() {
    let report = run_with_options(&revival_under_partition(81), telemetry_on());
    report.assert_clean();
    assert!(
        report.converged() && report.all_delivered(),
        "the telemetry plane must not change the outcome"
    );
    let tel = report.telemetry.as_ref().expect("telemetry plane was on");

    // The episode: cell 2 adopted member 1 and revived its supervisor.
    let (target, trace) = *tel
        .episodes
        .first()
        .expect("the watchers opened a supervision episode");
    assert_eq!(target, 1, "the episode targeted the killed cell");
    assert!(
        tel.journey_complete(trace, &JOURNEY),
        "every leg present in order; stitched:\n{}",
        tel.ward
            .stitched(trace)
            .map(|j| j.to_string())
            .unwrap_or_else(|| "<no journey>".into())
    );

    // The stitched view itself: cross-cell, time-ordered, untruncated.
    let journey = tel.ward.stitched(trace).expect("journey stitched");
    assert!(!journey.truncated);
    assert!(
        journey
            .legs
            .windows(2)
            .all(|w| w[0].at_micros <= w[1].at_micros),
        "hops are in virtual-time order: {journey}"
    );
    let cells_seen: std::collections::HashSet<u64> =
        journey.legs.iter().map(|leg| leg.cell).collect();
    assert!(
        cells_seen.len() >= 2,
        "the journey crosses cells (adopter + revived): {journey}"
    );
    assert!(
        journey
            .legs
            .iter()
            .any(|leg| leg.label == "remote-restart" && leg.cell == 1),
        "the restart hop was recorded by the revived cell: {journey}"
    );

    // The ward fold held its invariants through crash and partition.
    assert_eq!(tel.backwards, 0, "ward counters never move backwards");
    assert_eq!(tel.duplicates, 0, "the journaled channel never replays");
    assert!(
        tel.exports_applied > 0 && tel.exports_applied == tel.exports_sent,
        "every export folded exactly once ({} sent, {} applied)",
        tel.exports_sent,
        tel.exports_applied
    );
}

#[test]
fn aggregation_lag_is_bounded_by_the_partition() {
    let report = run_with_options(&revival_under_partition(81), telemetry_on());
    let tel = report.telemetry.as_ref().expect("telemetry plane was on");
    // Off-partition exports land within one plane step (the telemetry
    // channels deliberately step on a coarse 100ms cadence); only the
    // partitioned cell's queued backlog stretches the tail, and never
    // past the partition itself.
    assert!(
        tel.lag_p50_micros <= 131_072,
        "p50 lag is one plane step, got {}µs",
        tel.lag_p50_micros
    );
    // Quantiles report log2 bucket ceilings: a just-over-2s lag (an
    // export queued at partition start) lands in the (2^21, 2^22]
    // bucket, so the bound is that bucket's upper edge.
    assert!(
        tel.lag_p95_micros <= 4_194_304,
        "p95 lag is bounded by the 2s partition, got {}µs",
        tel.lag_p95_micros
    );
    // Both cells were fresh again by run end: the backlog drained.
    let freshness = tel.ward.freshness(report.virtual_micros);
    assert_eq!(freshness.len(), 2, "both cells exported");
    for f in &freshness {
        assert!(
            f.lag_micros <= 1_000_000,
            "cell {} went stale: {}µs behind at run end",
            f.cell,
            f.lag_micros
        );
    }
}

#[test]
fn ward_rollup_and_slo_series_are_present() {
    let report = run_with_options(&revival_under_partition(81), telemetry_on());
    let tel = report.telemetry.as_ref().expect("telemetry plane was on");
    let samples = tel.ward.registry().gather();
    let has = |name: &str, cell: &str| {
        samples
            .iter()
            .any(|s| s.name == name && s.labels.iter().any(|(k, v)| k == "cell" && v == cell))
    };
    // Per-cell series and the ward rollup, for counters and gauges.
    for cell in ["1", "2", "ward"] {
        assert!(
            has("smc_cell_published_total", cell),
            "published counter folded for cell={cell}"
        );
        assert!(
            has("smc_cell_supervisor_up", cell),
            "supervisor gauge folded for cell={cell}"
        );
    }
    // Both SLOs reported burn over their windows.
    for slo in ["delivery-latency", "supervision-ttr"] {
        assert!(
            samples.iter().any(|s| {
                s.name == "smc_slo_burn_rate_milli"
                    && s.labels.iter().any(|(k, v)| k == "slo" && v == slo)
            }),
            "burn-rate series present for slo={slo}"
        );
    }
    // The rolled-up delivery count matches what the oracle saw.
    let ward_delivered: u64 = samples
        .iter()
        .filter(|s| {
            s.name == "smc_cell_delivered_total"
                && s.labels.iter().any(|(k, v)| k == "cell" && v == "ward")
        })
        .map(|s| s.value)
        .sum();
    assert_eq!(
        ward_delivered,
        report.total_delivered(),
        "the ward view agrees with ground truth"
    );
}

#[test]
fn telemetry_runs_are_deterministic() {
    let a = run_with_options(&revival_under_partition(82), telemetry_on());
    let b = run_with_options(&revival_under_partition(82), telemetry_on());
    assert_eq!(
        a.trace_text(),
        b.trace_text(),
        "same seed, same exports, same alerts — byte for byte"
    );
    let (wa, wb) = (
        a.telemetry.as_ref().expect("plane on").ward.registry(),
        b.telemetry.as_ref().expect("plane on").ward.registry(),
    );
    assert_eq!(
        wa.render_text(),
        wb.render_text(),
        "the folded ward view is deterministic too"
    );
}

#[test]
fn plane_off_stays_byte_identical_to_the_seed_world() {
    // The opt-in guarantee: leaving `telemetry` at its default runs the
    // exact same world as before the telemetry plane existed.
    let scenario = revival_under_partition(83);
    let with_default = run_with_options(&scenario, peered());
    let with_explicit_none = run_with_options(
        &scenario,
        RunOptions {
            telemetry: None,
            ..peered()
        },
    );
    assert!(with_default.telemetry.is_none());
    assert_eq!(with_default.trace_text(), with_explicit_none.trace_text());
}
