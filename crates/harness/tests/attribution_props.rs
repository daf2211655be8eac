//! Property tests for the latency-attribution model: queue-wait plus
//! service time must account for *every* microsecond of a journey, on
//! any randomized chaos schedule. If a hop classifies into neither kind
//! (or into both) the books stop balancing, and this test names the
//! seed that caught it.

use std::time::Duration;

use proptest::{proptest, ProptestConfig};
use smc_harness::{run_with_options, RunOptions, Scenario};
use smc_telemetry::StageKind;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Across randomized fault schedules, every complete journey's
    /// wait + service attribution sums exactly to its end-to-end total,
    /// and each leg lands in exactly one stage kind.
    #[test]
    fn wait_plus_service_sums_to_journey_total(
        seed in 0u64..1_000_000,
        nodes in 1usize..4,
        ops in 0usize..6,
    ) {
        let scenario = Scenario::random(seed, nodes, Duration::from_secs(3), ops);
        let report = run_with_options(
            &scenario,
            RunOptions {
                trace: true,
                ..RunOptions::default()
            },
        );
        let mut journeys = 0u64;
        for &dev in &report.device_ids {
            for seq in 1..=report.oracle.published(dev) {
                let Some(journey) = report.journey(dev, seq) else { continue };
                if journey.is_empty() || journey.truncated {
                    continue;
                }
                journeys += 1;
                let legs = journey.attribution();
                let wait: u64 = legs
                    .iter()
                    .filter(|l| l.kind == StageKind::Wait)
                    .map(|l| l.delta_micros)
                    .sum();
                let service: u64 = legs
                    .iter()
                    .filter(|l| l.kind == StageKind::Service)
                    .map(|l| l.delta_micros)
                    .sum();
                assert_eq!(
                    wait + service,
                    journey.total_micros(),
                    "seed {seed}: journey {} leaks time — wait {wait} + service {service} \
                     != total {} over legs {legs:#?}",
                    journey.trace,
                    journey.total_micros()
                );
                assert_eq!(wait, journey.wait_micros(), "seed {seed}: wait accessor drifted");
                assert_eq!(
                    service,
                    journey.service_micros(),
                    "seed {seed}: service accessor drifted"
                );
            }
        }
        // Quiet schedules still publish on the device cadence, so the
        // property never passes vacuously.
        assert!(journeys > 0, "seed {seed}: no complete journeys to check");
    }
}
