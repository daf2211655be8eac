//! Peer-supervision soak: sweep seeded schedules that kill components,
//! kill the supervisors themselves, partition cells, and corrupt state
//! — in the two-cell world where a sibling holds a lease over each
//! supervisor — and prove every run ends with both cells healthy,
//! nothing still adopted, and zero delivery-guarantee violations.
//!
//! ```bash
//! cargo run --release -p smc-harness --example peer_supervision_soak -- [seeds] [secs] [ops]
//! ```
//!
//! Writes `results/BENCH_peer_supervision.json` (relative to the
//! workspace root when run from there). Exits non-zero on any oracle
//! violation or unconverged cell, so the soak doubles as a CI gate. A
//! final single-cell run with a wedged component leaves the escalation
//! flight-recorder dump behind as the post-mortem artifact.

use std::fmt::Write as _;
use std::time::Duration;

use smc_harness::{
    run_with_options, ChaosOp, CoreComponent, HealthOptions, RunOptions, Scenario, ScriptedOp,
    SupervisionOptions,
};

/// Two sibling cells, each supervised and each watching the other.
fn peered() -> RunOptions {
    RunOptions {
        supervision: Some(SupervisionOptions {
            peer: Some(Default::default()),
            ..SupervisionOptions::default()
        }),
        ..RunOptions::default()
    }
}

struct SeedResult {
    seed: u64,
    adoptions: u64,
    releases: u64,
    claims_lost: u64,
    stepdowns: u64,
    supervisor_revivals: u64,
    remote_commands: u64,
    remote_repairs: u64,
    core_reboots: u64,
    reconciles: u64,
    checkpoints_deferred: u64,
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
    let secs = next(24);
    let ops = next(3) as usize;

    let mut results: Vec<SeedResult> = Vec::new();
    let mut violations = 0usize;
    let mut unconverged = 0usize;

    for seed in 9_500..9_500 + seeds {
        let scenario = Scenario::random_peer(seed, 3, Duration::from_secs(secs), ops);
        let report = run_with_options(&scenario, peered());
        let violation = report.oracle.violation().is_some();
        let converged = report.converged();
        if violation {
            violations += 1;
        }
        if !converged {
            unconverged += 1;
        }
        let sum = |f: fn(&smc_harness::CellReport) -> u64| report.cells.iter().map(f).sum::<u64>();
        let result = SeedResult {
            seed,
            adoptions: sum(|c| c.peer.adoptions),
            releases: sum(|c| c.peer.releases),
            claims_lost: sum(|c| c.peer.claims_lost),
            stepdowns: sum(|c| c.peer.stepdowns),
            supervisor_revivals: sum(|c| c.supervisor_revivals),
            remote_commands: sum(|c| c.remote_commands.len() as u64),
            remote_repairs: sum(|c| c.remote_repairs.len() as u64),
            core_reboots: sum(|c| c.core_recoveries),
            reconciles: sum(|c| c.reconciles),
            checkpoints_deferred: sum(|c| c.checkpoints_deferred),
            converged,
            violation,
        };
        eprintln!(
            "seed {seed}: adoptions={} releases={} revivals={} remote_repairs={} reboots={} converged={converged} violation={violation}",
            result.adoptions,
            result.releases,
            result.supervisor_revivals,
            result.remote_repairs,
            result.core_reboots,
        );
        results.push(result);
    }

    let totals = |f: fn(&SeedResult) -> u64| results.iter().map(f).sum::<u64>();
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"peer_supervision_soak\",");
    let _ = writeln!(
        json,
        "  \"config\": {{\"seeds\": {seeds}, \"virtual_secs\": {secs}, \"ops_per_seed\": {ops}, \"nodes_per_cell\": 3, \"cells\": 2}},"
    );
    let _ = writeln!(json, "  \"violations\": {violations},");
    let _ = writeln!(json, "  \"unconverged\": {unconverged},");
    let _ = writeln!(
        json,
        "  \"totals\": {{\"adoptions\": {}, \"releases\": {}, \"claims_lost\": {}, \"stepdowns\": {}, \"supervisor_revivals\": {}, \"remote_commands\": {}, \"remote_repairs\": {}, \"core_reboots\": {}, \"reconciles\": {}, \"checkpoints_deferred\": {}}},",
        totals(|r| r.adoptions),
        totals(|r| r.releases),
        totals(|r| r.claims_lost),
        totals(|r| r.stepdowns),
        totals(|r| r.supervisor_revivals),
        totals(|r| r.remote_commands),
        totals(|r| r.remote_repairs),
        totals(|r| r.core_reboots),
        totals(|r| r.reconciles),
        totals(|r| r.checkpoints_deferred),
    );
    json.push_str("  \"runs\": [\n");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"seed\": {}, \"adoptions\": {}, \"releases\": {}, \"claims_lost\": {}, \"stepdowns\": {}, \"supervisor_revivals\": {}, \"remote_commands\": {}, \"remote_repairs\": {}, \"core_reboots\": {}, \"reconciles\": {}, \"checkpoints_deferred\": {}, \"converged\": {}, \"violation\": {}}}{comma}",
            r.seed,
            r.adoptions,
            r.releases,
            r.claims_lost,
            r.stepdowns,
            r.supervisor_revivals,
            r.remote_commands,
            r.remote_repairs,
            r.core_reboots,
            r.reconciles,
            r.checkpoints_deferred,
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

    // A wedged sink exhausts its restart budget and the supervisor
    // escalates — and an escalation dumps the flight recorder, so CI
    // ships the black box of a worst-case repair next to the numbers.
    let dump = out_dir.join("flight_recorder_escalation.txt");
    let mut wedge = Scenario::quiet(9_499, 2, Duration::from_secs(14));
    wedge.ops.push(ScriptedOp {
        at: Duration::from_secs(4),
        op: ChaosOp::KillComponent {
            component: CoreComponent::Sink,
            wedged: true,
        },
    });
    let wedge_report = run_with_options(
        &wedge.sorted(),
        RunOptions {
            health: Some(HealthOptions {
                dump_path: Some(dump.clone()),
                ..HealthOptions::default()
            }),
            supervision: Some(SupervisionOptions::default()),
            ..RunOptions::default()
        },
    );
    let dumped = wedge_report.cells[0]
        .health
        .as_ref()
        .and_then(|h| h.dumped_to.as_ref())
        .is_some();
    eprintln!(
        "escalation flight recorder dump: {} (written: {dumped})",
        dump.display()
    );

    let target = out_dir.join("BENCH_peer_supervision.json");
    std::fs::write(&target, &json).expect("write BENCH_peer_supervision.json");
    eprintln!(
        "wrote {} ({} seeds, {} adoptions, {} revivals, {violations} violations, {unconverged} unconverged)",
        target.display(),
        results.len(),
        totals(|r| r.adoptions),
        totals(|r| r.supervisor_revivals),
    );
    if violations > 0 || unconverged > 0 || !dumped {
        std::process::exit(1);
    }
}
