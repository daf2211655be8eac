//! Observability overhead: the wall-clock cost of hop tracing, and of the
//! occupancy probes on top of it, plus per-hop latency percentiles —
//! measured on the deterministic chaos harness under the paper
//! prototype's USB/IP link profile.
//!
//! ```text
//! cargo run --release -p smc-bench --bin overhead -- [--smoke]
//! ```
//!
//! Three arms run the *same* scenarios, interleaved repetition by
//! repetition: untraced, traced, and traced with probes (control-mutex
//! hold times, proxy queue depths, WAL append wait/service splits).
//! Virtual-time determinism means every arm does identical protocol
//! work, so the wall-clock ratios isolate what recording costs; each
//! arm keeps its least-disturbed (minimum) repetition. The traced arm's
//! own reports are then mined for every message's journey, each leg's
//! delta (virtual µs since the previous hop) reported as p50/p95/p99
//! under the hop it arrives at, and the probed arm's registry for the
//! series the probes feed.
//!
//! Writes `results/BENCH_overhead.json`; exits 1 when traced / untraced
//! exceeds 1.15 or probed / traced exceeds 1.10.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use smc_bench::{quantiles, write_report, HarnessArgs};
use smc_harness::{
    run_with_options, ChaosOp, LinkProfileKind, RunOptions, RunReport, Scenario, ScriptedOp,
};

/// The arms: name, trace, probes.
const ARMS: [(&str, bool, bool); 3] = [
    ("untraced", false, false),
    ("traced", true, false),
    ("probed", true, true),
];

/// The gates: arm, the arm it is compared with, the largest wall-clock
/// ratio allowed.
const GATES: [(usize, usize, f64); 2] = [(1, 0, 1.15), (2, 1, 1.10)];

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
fn arm(scenarios: &[Scenario], (_, trace, probes): (&str, bool, bool)) -> (u64, Vec<RunReport>) {
    let started = Instant::now();
    let reports: Vec<RunReport> = scenarios
        .iter()
        .map(|s| {
            let options = RunOptions {
                trace,
                probes,
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
    for a in ARMS {
        arm(&scenarios[..1], a);
    }
    let mut walls = [u64::MAX; 3];
    let mut first_rep = Vec::new();
    for rep in 0..reps {
        for (i, a) in ARMS.into_iter().enumerate() {
            let (wall, reports) = arm(&scenarios, a);
            walls[i] = walls[i].min(wall);
            if rep == 0 {
                first_rep.push(reports);
            }
        }
    }
    let ratios = GATES.map(|(a, base, _)| walls[a] as f64 / walls[base].max(1) as f64);

    let mut legs: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut journeys = 0u64;
    for report in &first_rep[1] {
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
    let probe_series: Vec<String> = first_rep[2][0]
        .registry
        .gather()
        .into_iter()
        .filter(|s| s.name.starts_with("smc_probe_") || s.name.starts_with("smc_trace_tail_"))
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
    let gates: Vec<String> = GATES
        .iter()
        .zip(ratios)
        .map(|(&(a, base, max), ratio)| {
            let (a, base) = (ARMS[a].0, ARMS[base].0);
            format!("{{\"ratio\": \"{a}/{base}\", \"value\": {ratio:.4}, \"max\": {max}}}")
        })
        .collect();
    let walls: Vec<String> = ARMS
        .iter()
        .zip(walls)
        .map(|((name, ..), wall)| format!("\"{name}\": {wall}"))
        .collect();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let list = |items: Vec<String>| items.join(",\n    ");
    let json = format!(
        "{{\n  \"bench\": \"overhead\",\n  \"config\": {{\"seeds\": {seeds}, \"nodes\": {NODES}, \
         \"virtual_secs\": {secs}, \"reps\": {reps}, \"link\": \"usb-ip\", \"smoke\": {smoke}, \
         \"nproc\": {nproc}}},\n  \"wall_micros\": {{{}}},\n  \"gates\": [\n    {}\n  ],\n  \
         \"journeys\": {journeys},\n  \"hops\": [\n    {}\n  ],\n  \"probe_series\": [\n    {}\n  ]\n}}\n",
        walls.join(", "),
        list(gates),
        list(hops),
        list(probe_series)
    );
    print!("{json}");
    write_report("BENCH_overhead.json", &json);

    let failed = GATES
        .iter()
        .zip(ratios)
        .any(|(&(.., max), ratio)| ratio > max);
    if failed {
        eprintln!("FAIL: a wall-clock ratio exceeds its gate");
        std::process::exit(1);
    }
}
