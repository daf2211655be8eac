//! Property tests: the delivery oracle must stay clean over *randomized*
//! scenario scripts, and a failing script must shrink to a minimal one.
//!
//! Failures print the seed (via the oracle report) and the shrunken
//! script, so any counterexample can be replayed bit-for-bit with
//! `Scenario::random(seed, ...)` or pasted back as a literal script.

use std::time::Duration;

use proptest::{proptest, ProptestConfig};
use smc_harness::{
    run, run_with_options, shrink_scenario, ChaosOp, RunOptions, Scenario, ScriptedOp,
};
use smc_transport::ReliableConfig;

fn secs(s: u64) -> Duration {
    Duration::from_secs(s)
}

fn millis(ms: u64) -> Duration {
    Duration::from_millis(ms)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Any seeded random fault schedule keeps the §II-C guarantees. On a
    /// violation the script is shrunk to a (locally) minimal failing one
    /// before panicking, so the report is immediately actionable.
    #[test]
    fn oracle_stays_clean_on_random_scripts(
        seed in 0u64..1_000_000,
        nodes in 1usize..5,
        ops in 0usize..8,
    ) {
        let scenario = Scenario::random(seed, nodes, secs(4), ops);
        let report = run(&scenario);
        if report.oracle.violation().is_some() {
            let minimal =
                shrink_scenario(scenario, |s| run(s).oracle.violation().is_some());
            let shrunk = run(&minimal);
            let violation =
                shrunk.oracle.violation().expect("shrunk scenario must still fail");
            panic!("oracle violation; minimal failing script: {minimal:#?}\n{violation}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Replaying a random script with the same seed yields a byte-identical
    /// delivery trace — the property that makes shrinking trustworthy.
    #[test]
    fn random_scripts_replay_identically(seed in 0u64..1_000_000) {
        let scenario = Scenario::random(seed, 3, secs(3), 5);
        let a = run(&scenario);
        let b = run(&scenario);
        assert_eq!(
            a.trace_text(),
            b.trace_text(),
            "seed {seed} did not replay identically"
        );
    }
}

/// The shrinker strips a deliberately-broken run (dedup disabled, so
/// duplicate storms break exactly-once) down to the ops that matter:
/// faults irrelevant to the violation are dropped and the run shortened,
/// while the minimal script still fails and still names the seed.
#[test]
fn shrinker_minimizes_a_failing_script() {
    let mut scenario = Scenario::quiet(77, 2, secs(8));
    for at in [500u64, 1500, 2500, 3500] {
        scenario.ops.push(ScriptedOp {
            at: millis(at),
            op: ChaosOp::DuplicateStorm {
                node: (at as usize / 1500) % 2,
                duplicate: 0.9,
                duration: millis(900),
            },
        });
    }
    // Chaff the shrinker must discard: faults that cannot cause duplicate
    // deliveries on their own.
    scenario.ops.push(ScriptedOp {
        at: millis(6000),
        op: ChaosOp::LossBurst {
            node: 0,
            loss: 0.5,
            duration: millis(300),
        },
    });
    scenario.ops.push(ScriptedOp {
        at: millis(6500),
        op: ChaosOp::Partition {
            node: 1,
            duration: millis(200),
        },
    });
    let scenario = scenario.sorted();

    let broken = || RunOptions {
        reliable: ReliableConfig {
            dedup: false,
            ..ReliableConfig::default()
        },
        ..RunOptions::default()
    };
    let fails = |s: &Scenario| run_with_options(s, broken()).oracle.violation().is_some();
    assert!(
        fails(&scenario),
        "the unshrunk scenario must fail to begin with"
    );

    let minimal = shrink_scenario(scenario.clone(), fails);
    assert!(fails(&minimal), "shrinking must preserve the failure");
    assert!(
        minimal.ops.len() < scenario.ops.len(),
        "shrinking made no progress: {} ops -> {} ops",
        scenario.ops.len(),
        minimal.ops.len()
    );
    assert!(
        minimal
            .ops
            .iter()
            .all(|o| matches!(o.op, ChaosOp::DuplicateStorm { .. })),
        "only duplicate storms can break exactly-once here, got {:?}",
        minimal.ops
    );
    assert!(
        minimal.duration < scenario.duration,
        "the run should have been shortened"
    );

    let report = run_with_options(&minimal, broken());
    let violation = report
        .oracle
        .violation()
        .expect("minimal scenario still violates");
    assert_eq!(
        violation.seed, 77,
        "the report must carry the scenario seed"
    );
}
