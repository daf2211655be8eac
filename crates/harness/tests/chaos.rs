//! End-to-end chaos-harness tests: the acceptance criteria of the
//! deterministic virtual-time harness.

use std::time::{Duration, Instant};

use smc_harness::{
    run, run_with_options, ChaosOp, RunOptions, Scenario, ScriptedOp, SupervisionOptions,
    ViolationKind,
};
use smc_telemetry::Hop;
use smc_transport::ReliableConfig;

fn secs(s: u64) -> Duration {
    Duration::from_secs(s)
}

fn millis(ms: u64) -> Duration {
    Duration::from_millis(ms)
}

/// Same seed, same script → byte-identical traces; different seed →
/// different trace.
#[test]
fn same_seed_gives_byte_identical_traces() {
    let scenario = Scenario::random(0xC0FFEE, 4, secs(8), 10);
    let a = run(&scenario);
    let b = run(&scenario);
    a.assert_clean();
    b.assert_clean();
    assert!(a.total_delivered() > 0, "scenario produced no traffic");
    assert_eq!(
        a.trace_text().into_bytes(),
        b.trace_text().into_bytes(),
        "same seed must replay byte-identically"
    );

    let other = Scenario::random(0xC0FFEE + 1, 4, secs(8), 10);
    let c = run(&other);
    assert_ne!(
        a.trace_text(),
        c.trace_text(),
        "different seed should diverge"
    );
}

/// 30 virtual seconds of chaos complete in under a wall-clock second.
#[test]
fn thirty_virtual_seconds_run_in_under_a_second() {
    let scenario = Scenario::random(2024, 5, secs(30), 12);
    let started = Instant::now();
    let report = run(&scenario);
    let wall = started.elapsed();
    report.assert_clean();
    assert!(report.virtual_micros >= 30_000_000);
    assert!(
        wall < Duration::from_secs(1),
        "30 virtual seconds took {wall:?} of wall time"
    );
}

/// Family 1: loss bursts. Reliable delivery rides out heavy loss — every
/// published message arrives, exactly once, in order.
#[test]
fn loss_burst_family_delivers_everything() {
    let mut scenario = Scenario::quiet(31, 3, secs(10));
    for (i, at) in [800u64, 2600, 4400, 6200].iter().enumerate() {
        scenario.ops.push(ScriptedOp {
            at: millis(*at),
            op: ChaosOp::LossBurst {
                node: i % 3,
                loss: 0.7,
                duration: millis(700),
            },
        });
    }
    let report = run(&scenario.sorted());
    report.assert_clean();
    assert!(report.total_published() > 50);
    assert!(
        report.all_delivered(),
        "loss bursts must not lose acknowledged traffic: {}/{} delivered",
        report.total_delivered(),
        report.total_published()
    );
}

/// Family 2: partition / heal. Safety holds through partitions that
/// outlive the lease, and the partitioned member is re-admitted.
#[test]
fn partition_heal_family_stays_safe() {
    let mut scenario = Scenario::quiet(32, 3, secs(12));
    // Long partition: node 0 is purged and must rejoin after the heal.
    scenario.ops.push(ScriptedOp {
        at: millis(2000),
        op: ChaosOp::Partition {
            node: 0,
            duration: millis(3500),
        },
    });
    // Short partition: node 1 stays a member throughout.
    scenario.ops.push(ScriptedOp {
        at: millis(7000),
        op: ChaosOp::Partition {
            node: 1,
            duration: millis(400),
        },
    });
    let report = run(&scenario.sorted());
    report.assert_clean();
    let long_gone = report.device_ids[0];
    assert!(
        report.was_purged(long_gone),
        "a 3.5s partition must purge (lease 1s + grace 1s)"
    );
    assert!(
        report.times_joined(long_gone) >= 2,
        "the purged node must be re-admitted after the heal"
    );
    let briefly_gone = report.device_ids[1];
    assert!(
        !report.was_purged(briefly_gone),
        "a 400ms partition must be masked"
    );
}

/// Family 3: crash / restart. A crashed node loses its channel state,
/// restarts with the same identity and a fresh epoch, and rejoins
/// without breaking exactly-once or FIFO at the sink.
#[test]
fn crash_restart_family_stays_safe() {
    let mut scenario = Scenario::quiet(33, 3, secs(12));
    scenario.ops.push(ScriptedOp {
        at: millis(3000),
        op: ChaosOp::Crash {
            node: 0,
            down_for: millis(2500),
        },
    });
    scenario.ops.push(ScriptedOp {
        at: millis(8000),
        op: ChaosOp::Crash {
            node: 2,
            down_for: millis(500),
        },
    });
    let report = run(&scenario.sorted());
    report.assert_clean();
    let crashed = report.device_ids[0];
    assert!(
        report.times_joined(crashed) >= 2,
        "the crashed node must rejoin after restarting"
    );
    // The restarted node kept publishing under the same id.
    assert!(report.oracle.delivered(crashed) > 0);
}

/// Family 4: duplicate storms. The network delivers copies; the channel
/// dedups them; the oracle sees exactly-once.
#[test]
fn duplicate_storm_family_delivers_exactly_once() {
    let mut scenario = Scenario::quiet(34, 3, secs(10));
    for at in [1000u64, 3000, 5000, 7000] {
        scenario.ops.push(ScriptedOp {
            at: millis(at),
            op: ChaosOp::DuplicateStorm {
                node: (at / 3000) as usize % 3,
                duplicate: 0.8,
                duration: millis(900),
            },
        });
    }
    let report = run(&scenario.sorted());
    report.assert_clean();
    assert!(report.all_delivered());
}

/// A channel with dedup disabled breaks exactly-once / FIFO under a
/// duplicate storm — and the oracle must catch it and report the seed
/// and a trace.
#[test]
fn broken_channel_config_fails_the_oracle() {
    let mut scenario = Scenario::quiet(35, 2, secs(8));
    for at in [500u64, 1500, 2500, 3500, 4500, 5500] {
        scenario.ops.push(ScriptedOp {
            at: millis(at),
            op: ChaosOp::DuplicateStorm {
                node: (at as usize / 1500) % 2,
                duplicate: 0.9,
                duration: millis(900),
            },
        });
    }
    let broken = ReliableConfig {
        dedup: false,
        ..ReliableConfig::default()
    };
    let report = run_with_options(
        &scenario.sorted(),
        RunOptions {
            reliable: broken,
            ..RunOptions::default()
        },
    );
    let violation = report
        .oracle
        .violation()
        .expect("dedup=false under a duplicate storm must violate delivery semantics");
    assert!(matches!(
        violation.kind,
        ViolationKind::DuplicateDelivery | ViolationKind::FifoViolation
    ));
    assert_eq!(violation.seed, 35);
    assert!(
        !violation.trace.is_empty(),
        "violation must carry the event trace"
    );
    let rendered = violation.to_string();
    assert!(
        rendered.contains("seed 35"),
        "report must name the seed: {rendered}"
    );
    assert!(
        rendered.contains("deliver"),
        "report must show the trace: {rendered}"
    );
}

/// A clean run traces complete journeys: every delivered message can be
/// replayed hop by hop from publish to delivery, and the run's registry
/// renders the standard exposition series.
#[test]
fn clean_run_traces_complete_journeys() {
    let scenario = Scenario::quiet(40, 2, secs(6));
    let report = run(&scenario);
    report.assert_clean();
    assert!(report.total_delivered() > 0);
    let dev = report.device_ids[0];
    let journey = report
        .journey(dev, 1)
        .expect("tracing is on by default")
        .clone();
    assert!(
        !journey.is_empty(),
        "device 0's first message must have hops"
    );
    let names: Vec<&str> = journey.hops.iter().map(|r| r.hop.name()).collect();
    assert_eq!(names.first(), Some(&"published"));
    assert!(names.contains(&"tx-sent"), "hops: {names:?}");
    assert!(names.contains(&"rx-acked"), "hops: {names:?}");
    // The ack is held for a data frame to carry, so `rx-acked` may
    // legitimately follow the delivery it acknowledges.
    let delivered = names.iter().position(|&n| n == "delivered");
    let delivered = delivered.unwrap_or_else(|| panic!("hops: {names:?}"));
    assert!(
        matches!(names[delivered + 1..], [] | ["rx-acked"]),
        "hops: {names:?}"
    );
    // Timestamps never go backwards along a journey.
    let times: Vec<u64> = journey.hops.iter().map(|r| r.at_micros).collect();
    assert!(times.windows(2).all(|w| w[0] <= w[1]), "times: {times:?}");
    // The registry renders parseable exposition text with run counters.
    let text = report.registry.render_text();
    assert!(text.contains("# TYPE smc_harness_published_total counter"));
    assert!(text.contains("smc_trace_hops_appended_total"));
    let parsed = smc_telemetry::parse_text(&text).expect("render_text must parse back");
    let published = parsed
        .iter()
        .find(|s| s.name == "smc_harness_published_total")
        .expect("published counter rendered");
    assert_eq!(published.value, report.total_published() as f64);
}

/// The acceptance criterion for tracing: an injected delivery violation
/// (dedup disabled under a duplicate storm) is reported with the
/// offending event's complete hop journey attached — in a one-cell world
/// and in a two-cell one alike.
#[test]
fn violation_report_carries_offending_journey() {
    let mut scenario = Scenario::quiet(41, 2, secs(8));
    for at in [500u64, 1500, 2500, 3500, 4500, 5500] {
        scenario.ops.push(ScriptedOp {
            at: millis(at),
            op: ChaosOp::DuplicateStorm {
                node: (at as usize / 1500) % 2,
                duplicate: 0.9,
                duration: millis(900),
            },
        });
    }
    let scenario = scenario.sorted();
    let peered = SupervisionOptions { peer: true };
    for supervision in [None, Some(peered)] {
        let cells = if supervision.is_some() { 2 } else { 1 };
        let report = run_with_options(
            &scenario,
            RunOptions {
                reliable: ReliableConfig {
                    dedup: false,
                    ..ReliableConfig::default()
                },
                supervision,
                ..RunOptions::default()
            },
        );
        assert_eq!(report.cells.len(), cells);
        let violation = report
            .oracle
            .violation()
            .expect("dedup=false under a duplicate storm must violate delivery semantics");
        let (sender, seq) = violation
            .offender
            .expect("delivery violations name the offending message");
        let journey = violation
            .journey
            .as_ref()
            .expect("the harness attaches the offender's journey");
        assert!(
            !journey.is_empty(),
            "offender {sender} #{seq} must have recorded hops ({cells} cells)"
        );
        let names: Vec<&str> = journey.hops.iter().map(|r| r.hop.name()).collect();
        assert_eq!(
            names.first(),
            Some(&"published"),
            "journey starts at the publish: {names:?}"
        );
        assert!(
            names.iter().filter(|&&n| n == "delivered").count() >= 2,
            "a duplicate delivery shows up as two delivered hops: {names:?}"
        );
        let rendered = violation.to_string();
        assert!(
            rendered.contains("offending event's journey"),
            "report must print the journey: {rendered}"
        );
        assert!(rendered.contains("delivered"), "{rendered}");
    }
}

/// Turning tracing off must not change the run itself: the oracle trace
/// is byte-identical with and without hop recording.
#[test]
fn tracing_does_not_perturb_the_run() {
    let scenario = Scenario::random(42, 3, secs(6), 8);
    let traced = run_with_options(&scenario, RunOptions::default());
    let untraced = run_with_options(
        &scenario,
        RunOptions {
            trace: false,
            ..RunOptions::default()
        },
    );
    assert!(traced.trace_sink.is_some());
    assert!(untraced.trace_sink.is_none());
    assert_eq!(
        traced.trace_text().into_bytes(),
        untraced.trace_text().into_bytes(),
        "hop recording must be invisible to the virtual-time schedule"
    );
}

/// Retransmission rounds show up as hops on the journey of a message
/// published into a loss burst.
#[test]
fn loss_burst_journeys_show_retransmit_hops() {
    let mut scenario = Scenario::quiet(43, 1, secs(6));
    scenario.ops.push(ScriptedOp {
        at: millis(500),
        op: ChaosOp::LossBurst {
            node: 0,
            loss: 0.85,
            duration: millis(2500),
        },
    });
    let report = run(&scenario.sorted());
    report.assert_clean();
    let dev = report.device_ids[0];
    let retransmitted = (1..=report.oracle.published(dev)).any(|seq| {
        report
            .journey(dev, seq)
            .is_some_and(|j| j.hops.iter().any(|r| r.hop == Hop::TxRetransmit))
    });
    assert!(
        retransmitted,
        "an 85% loss burst must force at least one traced retransmission round"
    );
}

/// Domain moves (walking out of beacon range) and link-profile changes
/// keep the safety properties intact.
#[test]
fn domain_move_and_profile_change_stay_safe() {
    let mut scenario = Scenario::quiet(36, 3, secs(10));
    scenario.ops.push(ScriptedOp {
        at: millis(1500),
        op: ChaosOp::DomainMove {
            node: 0,
            domain: 2,
            duration: millis(3000),
        },
    });
    scenario.ops.push(ScriptedOp {
        at: millis(2000),
        op: ChaosOp::LinkProfile {
            node: 1,
            profile: smc_harness::LinkProfileKind::Bluetooth,
        },
    });
    let report = run(&scenario.sorted());
    report.assert_clean();
    assert!(report.total_delivered() > 0);
}

/// Family 5: evictions. Discovery purges a node that is still connected
/// and still publishing until its missed heartbeats tell it: the bus
/// must refuse everything it sends between the purge and its rejoin,
/// and serve it again once it is re-admitted.
#[test]
fn eviction_family_refuses_a_purged_member() {
    let mut scenario = Scenario::quiet(37, 3, secs(10));
    for (node, at) in [(0usize, 1500u64), (1, 4000), (0, 6500)] {
        scenario.ops.push(ScriptedOp {
            at: millis(at),
            op: ChaosOp::Evict { node },
        });
    }
    let report = run(&scenario.sorted());
    report.assert_clean();
    for node in [0, 1] {
        let evicted = report.device_ids[node];
        assert!(report.was_purged(evicted), "node {node} was evicted");
        assert!(
            report.times_joined(evicted) >= 2,
            "node {node} rejoined after its eviction"
        );
        assert!(
            report.oracle.delivered(evicted) < report.oracle.published(evicted),
            "the bus refused node {node} while it was purged"
        );
    }
    let untouched = report.device_ids[2];
    assert_eq!(
        report.oracle.delivered(untouched),
        report.oracle.published(untouched)
    );
}
