//! Chaos soak: sweep randomized fault schedules (core crashes included)
//! across a block of seeds and emit a JSON report of delivery volume,
//! retransmission cost, recovery time and the oracle verdict per seed.
//!
//! ```bash
//! cargo run --release -p smc-harness --example chaos_soak -- [seeds] [nodes] [secs] [ops]
//! ```
//!
//! Writes `results/BENCH_chaos.json` (relative to the workspace root
//! when run from there). Exits non-zero if any seed's oracle flags a
//! violation, so the soak doubles as a CI gate.

use std::fmt::Write as _;
use std::time::Duration;

use smc_harness::{run, Scenario};

struct SeedResult {
    seed: u64,
    published: u64,
    delivered: u64,
    retransmits: u64,
    core_recoveries: u64,
    recovery_micros_total: u64,
    verdict: &'static str,
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut next = |default: u64| -> u64 {
        args.next()
            .and_then(|raw| raw.parse().ok())
            .unwrap_or(default)
    };
    let seeds = next(24);
    let nodes = next(3) as usize;
    let secs = next(10);
    let ops = next(10) as usize;

    let mut results: Vec<SeedResult> = Vec::new();
    let mut last_report = None;
    for seed in 9000..9000 + seeds {
        let scenario = Scenario::random(seed, nodes, Duration::from_secs(secs), ops);
        let report = run(&scenario);
        let verdict = if report.oracle.violation().is_none() {
            "clean"
        } else {
            "VIOLATION"
        };
        eprintln!(
            "seed {seed}: {verdict} published={} delivered={} retransmits={} recoveries={}",
            report.total_published(),
            report.total_delivered(),
            report.retransmits,
            report.core_recoveries(),
        );
        results.push(SeedResult {
            seed,
            published: report.total_published(),
            delivered: report.total_delivered(),
            retransmits: report.retransmits,
            core_recoveries: report.core_recoveries(),
            recovery_micros_total: report.recovery_micros_total,
            verdict,
        });
        last_report = Some(report);
    }

    // Final metrics dump in exposition format — what a scrape of the last
    // seed's run would have returned.
    if let Some(report) = &last_report {
        eprintln!("# --- final run metrics (exposition format) ---");
        eprint!("{}", report.registry.render_text());
        eprintln!("# --- end metrics ---");
    }

    let violations = results.iter().filter(|r| r.verdict != "clean").count();
    let recoveries: u64 = results.iter().map(|r| r.core_recoveries).sum();
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"chaos_soak\",");
    let _ = writeln!(
        json,
        "  \"config\": {{\"seeds\": {seeds}, \"nodes\": {nodes}, \"virtual_secs\": {secs}, \"ops\": {ops}}},"
    );
    let _ = writeln!(json, "  \"violations\": {violations},");
    let _ = writeln!(json, "  \"core_recoveries\": {recoveries},");
    json.push_str("  \"runs\": [\n");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"seed\": {}, \"published\": {}, \"delivered\": {}, \"retransmits\": {}, \
             \"core_recoveries\": {}, \"recovery_micros_total\": {}, \"verdict\": \"{}\"}}{comma}",
            r.seed,
            r.published,
            r.delivered,
            r.retransmits,
            r.core_recoveries,
            r.recovery_micros_total,
            r.verdict,
        );
    }
    json.push_str("  ]\n}\n");

    let path = std::path::Path::new("results");
    let target = if path.is_dir() {
        path.join("BENCH_chaos.json")
    } else {
        std::path::PathBuf::from("BENCH_chaos.json")
    };
    std::fs::write(&target, &json).expect("write BENCH_chaos.json");
    eprintln!(
        "wrote {} ({} runs, {violations} violations)",
        target.display(),
        results.len()
    );
    if violations > 0 {
        std::process::exit(1);
    }
}
