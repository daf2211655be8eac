//! Core-crash chaos runs: the write-ahead log must carry exactly-once
//! and FIFO across a whole-core restart — and the oracle must be able to
//! prove it's the log doing the work, by catching the violation when the
//! log is replaced with one that retains nothing.

use std::sync::Arc;
use std::time::Duration;

use smc_harness::{run, run_with_options, ChaosOp, RunOptions, Scenario, ScriptedOp};
use smc_transport::ReliableConfig;
use smc_wal::NoopBackend;

/// `window: 1` keeps exactly one message in flight per stream. That
/// makes the crash band sharp (the in-flight frame is the only candidate
/// for delivered-but-unacked) and — crucially — lets an amnesiac
/// receiver's mid-stream adoption accept a device's rejoin request,
/// whose stream is only ever a couple of sequence numbers long. With the
/// default window of 64 an amnesiac core simply wedges every low-seq
/// stream, which is a quieter disaster than the duplicate this test
/// exists to surface.
fn teeth_reliable() -> ReliableConfig {
    ReliableConfig {
        window: 1,
        ..ReliableConfig::default()
    }
}

/// The teeth channel settings over the real (in-memory) write-ahead log.
fn on_the_wal() -> RunOptions {
    RunOptions {
        reliable: teeth_reliable(),
        ..RunOptions::default()
    }
}

/// The same settings over a "log" that retains nothing.
fn on_a_noop_backend() -> RunOptions {
    RunOptions {
        backend: Arc::new(NoopBackend),
        ..on_the_wal()
    }
}

/// The teeth scenario: two devices publish every 100ms for 45 virtual
/// seconds. A 55% loss burst on both links (34s–35.2s) keeps eating acks
/// until each device is likely holding an in-flight frame the sink has
/// *delivered* but not successfully acknowledged — then the core crashes
/// at 35s holding those cursors and recovers five seconds later, while
/// the devices are still retransmitting. Only the restored cursors stand
/// between the retransmissions and a duplicate delivery.
fn core_crash_scenario(seed: u64) -> Scenario {
    let mut s = Scenario::quiet(seed, 2, Duration::from_secs(45));
    for node in 0..2 {
        s.ops.push(ScriptedOp {
            at: Duration::from_millis(34_000),
            op: ChaosOp::LossBurst {
                node,
                loss: 0.55,
                duration: Duration::from_millis(1_200),
            },
        });
    }
    s.ops.push(ScriptedOp {
        at: Duration::from_millis(35_000),
        op: ChaosOp::CoreCrash {
            down_for: Duration::from_secs(5),
        },
    });
    s.sorted()
}

/// Seed pinned by `scan_for_teeth_seed` below: with a `NoopBackend` this
/// schedule redelivers a pre-crash message after the devices rejoin
/// (the oracle flags it), while the real WAL run is clean.
const TEETH_SEED: u64 = 3;

#[test]
fn core_crash_recovers_exactly_once_from_the_wal() {
    let scenario = core_crash_scenario(TEETH_SEED);
    let report = run_with_options(&scenario, on_the_wal());
    report.assert_clean();
    assert_eq!(report.core_recoveries(), 1, "the core restarted once");
    assert!(report.retransmits > 0, "the outage forced retransmissions");
    assert!(report.total_delivered() > 0);
}

#[test]
fn core_crash_runs_are_deterministic() {
    let a = run_with_options(&core_crash_scenario(TEETH_SEED), on_the_wal());
    let b = run_with_options(&core_crash_scenario(TEETH_SEED), on_the_wal());
    assert_eq!(
        a.trace_text(),
        b.trace_text(),
        "same seed, same trace, byte for byte"
    );
}

#[test]
fn noop_backend_loses_the_guarantee() {
    // Identical scenario, but the "log" retains nothing: recovery comes
    // back with no cursors and no members, and a retransmitted in-flight
    // frame the old incarnation already delivered is delivered again —
    // the violation the WAL exists to prevent.
    let scenario = core_crash_scenario(TEETH_SEED);
    let report = run_with_options(&scenario, on_a_noop_backend());
    let violation = report
        .oracle
        .violation()
        .expect("amnesiac recovery must break the oracle");
    assert_eq!(violation.seed, TEETH_SEED);
}

#[test]
fn random_core_crash_family_stays_safe() {
    // Fixed-seed sweep over randomized schedules; the op family includes
    // CoreCrash, so several of these exercise recovery mid-chaos.
    let mut crashes = 0u64;
    for seed in 3000..3010u64 {
        let scenario = Scenario::random(seed, 3, Duration::from_secs(8), 8);
        let report = run(&scenario);
        report.assert_clean();
        crashes += report.core_recoveries();
    }
    assert!(
        crashes > 0,
        "the sweep exercised at least one core recovery"
    );
}

/// One-off helper used to pin `TEETH_SEED`: scans seeds for one where the
/// NoopBackend run violates the oracle *and* the WAL run stays clean.
/// Kept (ignored) so the seed can be re-pinned if timings change.
#[test]
#[ignore = "seed-pinning helper, not a regression test"]
fn scan_for_teeth_seed() {
    for seed in 1..=40u64 {
        let scenario = core_crash_scenario(seed);
        let noop = run_with_options(&scenario, on_a_noop_backend());
        let wal = run_with_options(&scenario, on_the_wal());
        let wal_clean = wal.oracle.violation().is_none();
        println!(
            "seed {seed}: noop violation={} wal clean={}",
            noop.oracle.violation().is_some(),
            wal_clean
        );
        if noop.oracle.violation().is_some() && wal_clean {
            println!("  -> candidate TEETH_SEED = {seed}");
        }
    }
}
