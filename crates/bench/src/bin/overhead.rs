//! Observability overhead: the wall-clock cost of hop tracing, plus
//! per-hop latency percentiles — measured on the deterministic chaos harness under the paper
//! prototype's USB/IP link profile.
//!
//! ```text
//! cargo run --release -p smc-bench --bin overhead -- [--smoke]
//! ```
//!
//! Two arms run the *same* scenarios, interleaved repetition by
//! repetition: untraced and traced, taking turns to go first.
//! Virtual-time determinism means both arms do identical protocol work,
//! so the wall-clock ratio isolates what recording costs; each arm
//! keeps its least-disturbed (minimum) repetition, and the gate is the
//! ratio of those minima. Each repetition's own traced / untraced ratio
//! is reported beside it (`rep_ratios`) to show the spread. The traced
//! arm's own reports are then mined for every message's journey, each
//! leg's delta (virtual µs since the previous hop) reported as
//! p50/p95/p99 under the hop it arrives at, and its registry for the
//! trace sink's `smc_trace_*` series.
//!
//! Writes `results/BENCH_overhead.json`; exits 1 when traced / untraced
//! exceeds 1.15.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use smc_bench::{quantiles, write_report, HarnessArgs};
use smc_harness::{
    run_with_options, ChaosOp, LinkProfileKind, RunOptions, RunReport, Scenario, ScriptedOp,
};

/// The arms: name, trace.
const ARMS: [(&str, bool); 2] = [("untraced", false), ("traced", true)];

/// The largest traced / untraced wall-clock ratio allowed.
const GATE: f64 = 1.15;

const NODES: usize = 3;

/// A USB/IP-profiled quiet scenario: every node's link is switched to the
/// paper testbed profile at t=0, then devices publish on schedule.
fn scenario(seed: u64, secs: u64) -> Scenario {
    let mut s = Scenario::quiet(seed, NODES, Duration::from_secs(secs));
    for node in 0..NODES {
        s.ops.push(ScriptedOp {
            at: Duration::ZERO,
            op: ChaosOp::LinkProfile {
                node,
                profile: LinkProfileKind::UsbIp,
            },
        });
    }
    s.sorted()
}

/// One arm over every scenario: wall-clock micros, and the reports,
/// dropped by the caller outside the timed span.
fn arm(scenarios: &[Scenario], trace: bool) -> (u64, Vec<RunReport>) {
    let started = Instant::now();
    let reports: Vec<RunReport> = scenarios
        .iter()
        .map(|s| {
            let options = RunOptions {
                trace,
                ..RunOptions::default()
            };
            run_with_options(s, options)
        })
        .collect();
    let wall = started.elapsed().as_micros() as u64;
    reports.iter().for_each(RunReport::assert_clean);
    (wall, reports)
}

fn main() {
    let smoke = HarnessArgs::from_env(&[], &["smoke"]).has("smoke");
    let (seeds, secs, reps) = if smoke { (2, 4, 3) } else { (6, 8, 5) };
    let scenarios: Vec<Scenario> = (0..seeds).map(|i| scenario(0x0B5E + i, secs)).collect();

    // Warm-up every arm once so none pays first-touch costs.
    for (_, trace) in ARMS {
        arm(&scenarios[..1], trace);
    }
    let mut walls = [u64::MAX; 2];
    let mut rep_ratios = Vec::with_capacity(reps);
    let mut traced = Vec::new();
    for rep in 0..reps {
        // The arms take turns going first, so neither always runs on
        // the caches and clocks the other leaves behind.
        let mut rep_walls = [0u64; 2];
        for i in [rep % 2, 1 - rep % 2] {
            let (wall, reports) = arm(&scenarios, ARMS[i].1);
            rep_walls[i] = wall;
            walls[i] = walls[i].min(wall);
            if rep == 0 && ARMS[i].1 {
                traced = reports;
            }
        }
        rep_ratios.push(format!(
            "{:.4}",
            rep_walls[1] as f64 / rep_walls[0].max(1) as f64
        ));
    }
    let ratio = walls[1] as f64 / walls[0].max(1) as f64;

    let mut legs: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut journeys = 0u64;
    for report in &traced {
        for &dev in &report.device_ids {
            for seq in 1..=report.oracle.published(dev) {
                let Some(journey) = report.journey(dev, seq).filter(|j| !j.is_empty()) else {
                    continue;
                };
                journeys += 1;
                for (hop, _at, delta) in journey.legs().iter().skip(1) {
                    legs.entry(hop.name()).or_default().push(*delta as f64);
                }
            }
        }
    }
    let trace_series: Vec<String> = traced[0]
        .registry
        .gather()
        .into_iter()
        .filter(|s| s.name.starts_with("smc_trace_"))
        .map(|s| format!("{{\"name\": \"{}\", \"value\": {}}}", s.name, s.value))
        .collect();
    let hops: Vec<String> = legs
        .iter()
        .map(|(hop, deltas)| {
            let [p50, p95, p99] = quantiles(deltas, [0.5, 0.95, 0.99]);
            format!(
                "{{\"hop\": \"{hop}\", \"count\": {}, \"p50_micros\": {p50:.0}, \
                 \"p95_micros\": {p95:.0}, \"p99_micros\": {p99:.0}}}",
                deltas.len()
            )
        })
        .collect();
    let walls: Vec<String> = ARMS
        .iter()
        .zip(walls)
        .map(|((name, _), wall)| format!("\"{name}\": {wall}"))
        .collect();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let list = |items: Vec<String>| items.join(",\n    ");
    let json = format!(
        "{{\n  \"bench\": \"overhead\",\n  \"config\": {{\"seeds\": {seeds}, \"nodes\": {NODES}, \
         \"virtual_secs\": {secs}, \"reps\": {reps}, \"link\": \"usb-ip\", \"smoke\": {smoke}, \
         \"nproc\": {nproc}}},\n  \"wall_micros\": {{{}}},\n  \"gate\": {{\"ratio\": \
         \"traced/untraced\", \"value\": {ratio:.4}, \"max\": {GATE}}},\n  \
         \"rep_ratios\": [{}],\n  \
         \"journeys\": {journeys},\n  \"hops\": [\n    {}\n  ],\n  \"trace_series\": [\n    {}\n  ]\n}}\n",
        walls.join(", "),
        rep_ratios.join(", "),
        list(hops),
        list(trace_series)
    );
    print!("{json}");
    write_report("BENCH_overhead.json", &json);

    if ratio > GATE {
        eprintln!("FAIL: traced / untraced {ratio:.4} exceeds {GATE}");
        std::process::exit(1);
    }
}
