//! Replay a seeded chaos scenario from the command line and print the
//! delivery trace — the manual way to reproduce a failure a test or
//! property run reported by seed, and the tool behind the replay
//! evidence in `results/world_merge_replay_pr18.txt` (EXPERIMENTS.md).
//!
//! ```bash
//! cargo run -p smc-harness --example chaos_demo -- <seed> [nodes] [secs] [ops] [generator] [options]
//! ```
//!
//! `generator` picks the fault family (`random`, `supervision`, `peer`);
//! `options` is `none` or a comma-separated set of the planes to run —
//! `health`, `probes`, `supervision`, `peer` (two sibling cells; implies
//! `supervision`), `telemetry` — plus `crash`, which scripts a one-second
//! `CoreCrash` at mid-run on top of whatever the generator drew.

use std::time::Duration;

use smc_harness::{
    run_with_options, ChaosOp, HealthOptions, RunOptions, Scenario, ScriptedOp, SupervisionOptions,
};

fn usage() -> ! {
    eprintln!(
        "usage: chaos_demo <seed> [nodes] [secs] [ops] [generator] [options]\n\
         replays a seeded scenario and prints the trace\n\
         generator: random (default) | supervision | peer\n\
         options:   none (default) or a comma-separated subset of\n\
         \x20          health,probes,supervision,peer,telemetry,crash"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let num = |i: usize, name: &str, default: Option<u64>| -> u64 {
        match args.get(i) {
            Some(raw) => raw.parse().unwrap_or_else(|_| {
                eprintln!("error: {name} must be an integer, got {raw:?}");
                std::process::exit(2);
            }),
            None => default.unwrap_or_else(|| usage()),
        }
    };
    let seed = num(0, "seed", None);
    let nodes = num(1, "nodes", Some(3)) as usize;
    let secs = num(2, "secs", Some(8));
    let ops = num(3, "ops", Some(6)) as usize;
    let generator = args.get(4).map_or("random", String::as_str);
    let option_set = args.get(5).map_or("none", String::as_str);

    let duration = Duration::from_secs(secs);
    let mut scenario = match generator {
        "random" => Scenario::random(seed, nodes, duration, ops),
        "supervision" => Scenario::random_supervision(seed, nodes, duration, ops),
        "peer" => Scenario::random_peer(seed, nodes, duration, ops),
        _ => usage(),
    };
    let mut options = RunOptions::default();
    for token in option_set.split(',') {
        match token {
            "none" => {}
            "health" => options.health = Some(HealthOptions::default()),
            "probes" => options.probes = true,
            "supervision" => {
                options
                    .supervision
                    .get_or_insert_with(SupervisionOptions::default);
            }
            "peer" => {
                options
                    .supervision
                    .get_or_insert_with(SupervisionOptions::default)
                    .peer = Some(Default::default());
            }
            "telemetry" => options.telemetry = Some(Default::default()),
            "crash" => {
                scenario.ops.push(ScriptedOp {
                    at: duration / 2,
                    op: ChaosOp::CoreCrash {
                        down_for: Duration::from_secs(1),
                    },
                });
                scenario = scenario.sorted();
            }
            _ => usage(),
        }
    }

    println!(
        "# scenario (seed {seed}, {generator}, {option_set}): {} nodes, {secs}s, {} ops",
        scenario.nodes,
        scenario.ops.len()
    );
    for op in &scenario.ops {
        println!("#   t+{:>6}ms {:?}", op.at.as_millis(), op.op);
    }
    let report = run_with_options(&scenario, options);
    for id in &report.device_ids {
        println!(
            "# device {id}: published {} delivered {}",
            report.oracle.published(*id),
            report.oracle.delivered(*id)
        );
    }
    print!("{}", report.trace_text());
    match report.oracle.violation() {
        None => println!("# oracle: clean"),
        Some(v) => {
            println!("# oracle: VIOLATION\n{v}");
            std::process::exit(1);
        }
    }
}
