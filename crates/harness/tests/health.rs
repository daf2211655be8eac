//! Teeth for the self-observation stack: an injected retransmit storm
//! must flip the health detector — and the built-in obligation must
//! quench the noisy publisher — within bounded virtual time, while an
//! identical storm-free run stays green end to end.

use std::path::PathBuf;
use std::time::Duration;

use smc_harness::{run_with_options, ChaosOp, HealthOptions, RunOptions, Scenario, ScriptedOp};
use smc_health::HealthState;

const SEED: u64 = 0xBEEF;
/// The storm begins here...
const STORM_AT: Duration = Duration::from_secs(2);
/// ...and detection must land within this much virtual time after onset.
const DETECT_BOUND_MICROS: u64 = 2_000_000;

fn base_scenario(seed: u64) -> Scenario {
    let mut s = Scenario::quiet(seed, 2, Duration::from_secs(8));
    s.publish_interval = Duration::from_millis(50);
    s
}

fn storm_scenario(seed: u64) -> Scenario {
    let mut s = base_scenario(seed);
    s.ops.push(ScriptedOp {
        at: STORM_AT,
        op: ChaosOp::LossBurst {
            node: 0,
            loss: 0.97,
            duration: Duration::from_millis(2500),
        },
    });
    s
}

fn with_health(dump_path: Option<PathBuf>) -> RunOptions {
    RunOptions {
        health: Some(HealthOptions { dump_path }),
        ..RunOptions::default()
    }
}

#[test]
fn retransmit_storm_flips_the_detector_and_quenches_the_publisher() {
    let report = run_with_options(&storm_scenario(SEED), with_health(None));
    let health = report.cells[0].health.as_ref().expect("health was enabled");

    let degraded = health
        .first_transition("channel:device0", HealthState::Degraded)
        .unwrap_or_else(|| {
            panic!(
                "storm on device0 must degrade channel:device0; transitions: {:?}",
                health.transitions
            )
        });
    let onset = STORM_AT.as_micros() as u64;
    assert!(
        degraded.at_micros >= onset,
        "detector fired before the storm even began (at {} µs)",
        degraded.at_micros
    );
    assert!(
        degraded.at_micros <= onset + DETECT_BOUND_MICROS,
        "detection took {} µs after onset, bound is {} µs",
        degraded.at_micros - onset,
        DETECT_BOUND_MICROS
    );

    // The autonomic loop closed: the obligation quenched the device...
    let device0 = report.device_ids[0];
    let quench = health
        .quenches
        .iter()
        .find(|&&(_, id, enable)| id == device0 && enable)
        .expect("degraded publisher must be quenched");
    assert!(quench.0 >= degraded.at_micros);
    // ...and woke it once the channel recovered after the storm healed.
    assert!(
        health
            .quenches
            .iter()
            .any(|&(at, id, enable)| id == device0 && !enable && at > quench.0),
        "recovered publisher must be woken; quenches: {:?}",
        health.quenches
    );
    // Quenching is damping, not denial of service: the device still got
    // traffic through over the run.
    assert!(report.oracle.delivered(device0) > 0);
}

#[test]
fn identical_clean_run_stays_green() {
    let report = run_with_options(&base_scenario(SEED), with_health(None));
    let health = report.cells[0].health.as_ref().expect("health was enabled");
    assert!(
        health.stayed_green(),
        "clean run must produce zero transitions; got {:?}",
        health.transitions
    );
    assert!(health.quenches.is_empty());
    report.assert_clean();
}

#[test]
fn health_runs_are_deterministic_per_seed() {
    let a = run_with_options(&storm_scenario(7), with_health(None));
    let b = run_with_options(&storm_scenario(7), with_health(None));
    assert_eq!(a.trace_text(), b.trace_text());
    let (ha, hb) = (
        a.cells[0].health.as_ref().unwrap(),
        b.cells[0].health.as_ref().unwrap(),
    );
    assert_eq!(ha.transitions, hb.transitions);
    assert_eq!(ha.quenches, hb.quenches);
}

#[test]
fn flight_recorder_dumps_on_core_crash() {
    let mut scenario = base_scenario(SEED);
    scenario.ops.push(ScriptedOp {
        at: STORM_AT,
        op: ChaosOp::CoreCrash {
            down_for: Duration::from_secs(1),
        },
    });
    let dump = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("flight_recorder_crash.txt");
    let _ = std::fs::remove_file(&dump);
    let report = run_with_options(&scenario, with_health(Some(dump.clone())));
    let health = report.cells[0].health.as_ref().expect("health was enabled");
    assert_eq!(health.dumped_to.as_deref(), Some(dump.as_path()));
    let text = std::fs::read_to_string(&dump).expect("dump file written");
    assert!(text.contains("core crashed"), "dump must carry the notes");
    assert!(
        text.contains("--- health timeline ---"),
        "dump must carry the timeline"
    );
}
