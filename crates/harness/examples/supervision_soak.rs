//! Supervision soak: sweep seeded kill-and-corrupt schedules and prove
//! the detect → repair loop closes every time — each seed's failure
//! episodes must all re-converge, with zero delivery-guarantee
//! violations, and the per-seed time-to-repair goes on record.
//!
//! ```bash
//! cargo run --release -p smc-harness --example supervision_soak -- [seeds] [secs] [ops]
//! ```
//!
//! Writes `results/BENCH_supervision.json` (relative to the workspace
//! root when run from there). Exits non-zero on any oracle violation or
//! unconverged episode, so the soak doubles as a CI gate.

use std::fmt::Write as _;
use std::time::Duration;

use smc_harness::{
    run_with_options, ChaosOp, HealthOptions, RunOptions, Scenario, ScriptedOp, SupervisionOptions,
};

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() - 1) as f64 * q) as usize]
}

struct SeedResult {
    seed: u64,
    restarts: u64,
    escalations: u64,
    reconcile_repairs: u64,
    policy_restarts: u64,
    core_reboots: u64,
    missed_ack_interrupts: u64,
    ttr_micros: Vec<u64>,
    converged: bool,
    violation: bool,
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut next = |default: u64| -> u64 {
        args.next()
            .and_then(|raw| raw.parse().ok())
            .unwrap_or(default)
    };
    let seeds = next(24);
    let secs = next(20);
    let ops = next(5) as usize;

    let mut results: Vec<SeedResult> = Vec::new();
    let mut all_ttr: Vec<u64> = Vec::new();
    let mut violations = 0usize;
    let mut unconverged = 0usize;

    for seed in 9_000..9_000 + seeds {
        let scenario = Scenario::random_supervision(seed, 3, Duration::from_secs(secs), ops);
        let report = run_with_options(
            &scenario,
            RunOptions {
                supervision: Some(SupervisionOptions::default()),
                ..RunOptions::default()
            },
        );
        let sup = &report.cells[0];
        let violation = report.oracle.violation().is_some();
        let converged = sup.converged();
        if violation {
            violations += 1;
        }
        if !converged {
            unconverged += 1;
        }
        all_ttr.extend(&sup.report.ttr_micros);
        eprintln!(
            "seed {seed}: restarts={} escalations={} reconcile_repairs={} mean_ttr={}µs converged={converged} violation={violation}",
            sup.report.restarts,
            sup.report.escalations,
            sup.report.reconcile_repairs,
            sup.report.mean_ttr_micros(),
        );
        results.push(SeedResult {
            seed,
            restarts: sup.report.restarts,
            escalations: sup.report.escalations,
            reconcile_repairs: sup.report.reconcile_repairs,
            policy_restarts: sup.policy_restarts,
            core_reboots: report.core_recoveries(),
            missed_ack_interrupts: sup.missed_ack_interrupts,
            ttr_micros: sup.report.ttr_micros.clone(),
            converged,
            violation,
        });
    }

    all_ttr.sort_unstable();
    let mean_ttr = if all_ttr.is_empty() {
        0
    } else {
        all_ttr.iter().sum::<u64>() / all_ttr.len() as u64
    };
    let totals = |f: fn(&SeedResult) -> u64| results.iter().map(f).sum::<u64>();

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"supervision_soak\",");
    let _ = writeln!(
        json,
        "  \"config\": {{\"seeds\": {seeds}, \"virtual_secs\": {secs}, \"ops_per_seed\": {ops}, \"nodes\": 3}},"
    );
    let _ = writeln!(json, "  \"violations\": {violations},");
    let _ = writeln!(json, "  \"unconverged\": {unconverged},");
    let _ = writeln!(
        json,
        "  \"totals\": {{\"restarts\": {}, \"escalations\": {}, \"reconcile_repairs\": {}, \"policy_restarts\": {}, \"core_reboots\": {}, \"missed_ack_interrupts\": {}}},",
        totals(|r| r.restarts),
        totals(|r| r.escalations),
        totals(|r| r.reconcile_repairs),
        totals(|r| r.policy_restarts),
        totals(|r| r.core_reboots),
        totals(|r| r.missed_ack_interrupts),
    );
    let _ = writeln!(
        json,
        "  \"ttr\": {{\"episodes\": {}, \"mean_micros\": {mean_ttr}, \"p50_micros\": {}, \"p95_micros\": {}}},",
        all_ttr.len(),
        percentile(&all_ttr, 0.50),
        percentile(&all_ttr, 0.95),
    );
    json.push_str("  \"runs\": [\n");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        let ttrs = r
            .ttr_micros
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(
            json,
            "    {{\"seed\": {}, \"restarts\": {}, \"escalations\": {}, \"reconcile_repairs\": {}, \"policy_restarts\": {}, \"core_reboots\": {}, \"missed_ack_interrupts\": {}, \"ttr_micros\": [{ttrs}], \"converged\": {}, \"violation\": {}}}{comma}",
            r.seed,
            r.restarts,
            r.escalations,
            r.reconcile_repairs,
            r.policy_restarts,
            r.core_reboots,
            r.missed_ack_interrupts,
            r.converged,
            r.violation,
        );
    }
    json.push_str("  ]\n}\n");

    let results_dir = std::path::Path::new("results");
    let out_dir = if results_dir.is_dir() {
        results_dir
    } else {
        std::path::Path::new(".")
    };

    // One supervised kill-and-corrupt run with a core crash on top
    // leaves the post-mortem artifact behind: the flight recorder dumps
    // whenever a run sees a core crash, so CI ships a black box
    // alongside the numbers.
    let dump = out_dir.join("flight_recorder.txt");
    let mut crash = Scenario::random_supervision(9_999, 3, Duration::from_secs(secs), ops);
    crash.ops.push(ScriptedOp {
        at: Duration::from_secs(2),
        op: ChaosOp::CoreCrash {
            down_for: Duration::from_secs(1),
        },
    });
    let crash_report = run_with_options(
        &crash.sorted(),
        RunOptions {
            health: Some(HealthOptions {
                dump_path: Some(dump.clone()),
            }),
            supervision: Some(SupervisionOptions::default()),
            ..RunOptions::default()
        },
    );
    let dumped = crash_report.cells[0]
        .health
        .as_ref()
        .and_then(|h| h.dumped_to.as_ref())
        .is_some();
    eprintln!(
        "flight recorder dump: {} (written: {dumped})",
        dump.display()
    );

    let target = out_dir.join("BENCH_supervision.json");
    std::fs::write(&target, &json).expect("write BENCH_supervision.json");
    eprintln!(
        "wrote {} ({} seeds, {} episodes, mean TTR {mean_ttr}µs, {violations} violations, {unconverged} unconverged)",
        target.display(),
        results.len(),
        all_ttr.len(),
    );
    // The missed-ack interrupt hook exists to keep detection ahead of
    // the sampling cadence: a soak whose mean time-to-repair drifts to
    // a virtual second or more means the hook stopped waking the
    // monitor and repairs fell back to polling.
    let ttr_ok = all_ttr.is_empty() || mean_ttr < 1_000_000;
    if !ttr_ok {
        eprintln!("FAIL: mean TTR {mean_ttr}µs breached the 1s budget");
    }
    if violations > 0 || unconverged > 0 || !ttr_ok {
        std::process::exit(1);
    }
}
