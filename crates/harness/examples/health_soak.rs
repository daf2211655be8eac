//! Health soak: measure the self-observation stack across a block of
//! seeds. Every seed runs twice — once with an injected retransmit storm
//! (the detector must fire, bounded latency) and once clean (it must
//! not) — and a final core-crash run leaves a flight-recorder dump for
//! the CI artifact.
//!
//! ```bash
//! cargo run --release -p smc-harness --example health_soak -- [seeds] [secs]
//! ```
//!
//! Writes `results/BENCH_health.json` (relative to the workspace root
//! when run from there) with per-detector detection-latency p50/p95 and
//! the false-positive count, and `results/flight_recorder.txt`. Exits
//! non-zero on any missed detection or clean-run false positive, so the
//! soak doubles as a CI gate.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

use smc_harness::{run_with_options, ChaosOp, HealthOptions, RunOptions, Scenario, ScriptedOp};
use smc_health::HealthState;

const STORM_AT_MICROS: u64 = 2_000_000;

fn base(seed: u64, secs: u64) -> Scenario {
    let mut s = Scenario::quiet(seed, 2, Duration::from_secs(secs));
    s.publish_interval = Duration::from_millis(50);
    s
}

fn with_health(dump_path: Option<PathBuf>) -> RunOptions {
    RunOptions {
        health: Some(HealthOptions {
            dump_path,
            ..HealthOptions::default()
        }),
        ..RunOptions::default()
    }
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() - 1) as f64 * q) as usize]
}

struct SeedResult {
    seed: u64,
    detect_micros: Option<u64>,
    quenched: bool,
    clean_transitions: usize,
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut next = |default: u64| -> u64 {
        args.next()
            .and_then(|raw| raw.parse().ok())
            .unwrap_or(default)
    };
    let seeds = next(16);
    let secs = next(8);

    // Per-detector detection latencies (µs after storm onset), pooled
    // across seeds: the storm stresses device0's channel, so several
    // detectors may legitimately fire (retransmit-storm on the channel,
    // queue-growth on its backlog).
    let mut latencies: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    let mut results: Vec<SeedResult> = Vec::new();
    let mut missed = 0usize;
    let mut false_positives = 0usize;

    for seed in 11_000..11_000 + seeds {
        let mut storm = base(seed, secs);
        storm.ops.push(ScriptedOp {
            at: Duration::from_micros(STORM_AT_MICROS),
            op: ChaosOp::LossBurst {
                node: 0,
                loss: 0.97,
                duration: Duration::from_millis(2500),
            },
        });
        let report = run_with_options(&storm, with_health(None));
        let health = report.cells[0].health.as_ref().expect("health enabled");
        for t in &health.transitions {
            if t.to == HealthState::Degraded && t.at_micros >= STORM_AT_MICROS {
                latencies
                    .entry(t.detector)
                    .or_default()
                    .push(t.at_micros - STORM_AT_MICROS);
            }
        }
        let detect_micros = health
            .first_transition("channel:device0", HealthState::Degraded)
            .map(|t| t.at_micros - STORM_AT_MICROS);
        let quenched = health
            .quenches
            .iter()
            .any(|&(_, id, enable)| id == report.device_ids[0] && enable);
        if detect_micros.is_none() {
            missed += 1;
        }

        let clean_report = run_with_options(&base(seed, secs), with_health(None));
        let clean = clean_report.cells[0]
            .health
            .as_ref()
            .expect("health enabled");
        false_positives += clean.transitions.len();

        eprintln!(
            "seed {seed}: detect={:?}µs quenched={quenched} clean_transitions={}",
            detect_micros,
            clean.transitions.len()
        );
        results.push(SeedResult {
            seed,
            detect_micros,
            quenched,
            clean_transitions: clean.transitions.len(),
        });
    }

    // One crash run leaves the post-mortem artifact behind.
    let results_dir = std::path::Path::new("results");
    let out_dir = if results_dir.is_dir() {
        results_dir.to_path_buf()
    } else {
        PathBuf::from(".")
    };
    let dump = out_dir.join("flight_recorder.txt");
    let mut crash = base(11_000, secs);
    crash.ops.push(ScriptedOp {
        at: Duration::from_micros(STORM_AT_MICROS),
        op: ChaosOp::CoreCrash {
            down_for: Duration::from_secs(1),
        },
    });
    let crash_report = run_with_options(&crash, with_health(Some(dump.clone())));
    let dumped = crash_report.cells[0]
        .health
        .as_ref()
        .and_then(|h| h.dumped_to.as_ref())
        .is_some();
    eprintln!(
        "flight recorder dump: {} (written: {dumped})",
        dump.display()
    );

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"health_soak\",");
    let _ = writeln!(
        json,
        "  \"config\": {{\"seeds\": {seeds}, \"virtual_secs\": {secs}, \"storm_at_micros\": {STORM_AT_MICROS}}},"
    );
    let _ = writeln!(json, "  \"missed_detections\": {missed},");
    let _ = writeln!(json, "  \"false_positives\": {false_positives},");
    json.push_str("  \"detectors\": {\n");
    let n_det = latencies.len();
    for (i, (detector, lat)) in latencies.iter_mut().enumerate() {
        lat.sort_unstable();
        let comma = if i + 1 < n_det { "," } else { "" };
        let _ = writeln!(
            json,
            "    \"{detector}\": {{\"fired\": {}, \"detect_p50_micros\": {}, \"detect_p95_micros\": {}}}{comma}",
            lat.len(),
            percentile(lat, 0.50),
            percentile(lat, 0.95),
        );
    }
    json.push_str("  },\n");
    json.push_str("  \"runs\": [\n");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        let detect = r
            .detect_micros
            .map(|v| v.to_string())
            .unwrap_or_else(|| "null".to_owned());
        let _ = writeln!(
            json,
            "    {{\"seed\": {}, \"detect_micros\": {detect}, \"quenched\": {}, \"clean_transitions\": {}}}{comma}",
            r.seed, r.quenched, r.clean_transitions,
        );
    }
    json.push_str("  ]\n}\n");

    let target = out_dir.join("BENCH_health.json");
    std::fs::write(&target, &json).expect("write BENCH_health.json");
    eprintln!(
        "wrote {} ({} seeds, {missed} missed, {false_positives} false positives)",
        target.display(),
        results.len()
    );
    if missed > 0 || false_positives > 0 {
        std::process::exit(1);
    }
}
