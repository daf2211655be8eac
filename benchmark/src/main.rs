//! `smc-ledger` — the repo's benchmark. A real, threaded `SmcCell` on one
//! pinned core, four workloads, end-to-end metrics from the best-quartile
//! window, and in a separate traced run the cost of the calls into each
//! layer. See `README.md` beside this crate for the method and the why.
//!
//! ```text
//! smc-ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! smc-ledger --smoke
//! smc-ledger --selftest [--runs 5] [--seconds 30]
//! smc-ledger --compare A.jsonl B.jsonl
//! ```

mod alloc;
mod bus;
mod cell;
mod check;
mod compare;
mod gen;
mod json;
mod layers;
mod metrics;
mod run;
mod span;
mod stats;
mod sys;
mod world;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};

use run::{Env, RunArgs, SETUPS, WARMUP_WINDOWS};

/// Where run outputs go (`spans.jsonl`, self-test sets, the WAL's
/// temporary directories): `out/` beside this crate's manifest, inside
/// the checkout and ignored by git.
pub fn out_dir() -> std::io::Result<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// A directory removed when dropped — on success, failure and unwind.
#[derive(Debug)]
pub struct TempDir(pub PathBuf);

impl TempDir {
    /// Creates a fresh directory under the benchmark's `out/`.
    pub fn fresh(label: &str) -> std::io::Result<TempDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = out_dir()?.join(format!(
            "{label}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path)?;
        Ok(TempDir(path))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The checked-out commit, read from `.git` directly (no process is
/// spawned); `unknown` in a checkout that is not a repository.
fn git_revision() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: PathBuf| std::fs::read_to_string(p).ok();
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    read(git.join(reference))
        .map(|s| s.trim().to_owned())
        .or_else(|| {
            read(git.join("packed-refs"))?
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_owned()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The value after `--name`, if the flag is present.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    let at = args.iter().position(|a| a == name)?;
    args.get(at + 1).map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(text) => text
            .parse()
            .map_err(|_| format!("{name}: bad value '{text}'")),
    }
}

fn usage() -> String {
    let names: Vec<&str> = metrics::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: smc-ledger --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n\
         \x20      smc-ledger --smoke | --selftest [--runs 5] [--seconds 30] | --compare A.jsonl B.jsonl",
        names.join("|")
    )
}

/// Pins the process and describes where it runs. Must come before
/// anything spawns a thread: threads inherit the mask.
fn pinned_env() -> Env {
    let pinning = sys::pin_to_one_cpu();
    if pinning.cpu.is_none() {
        eprintln!("warning: sched_setaffinity failed; running unpinned");
    }
    Env {
        cores: pinning.cores,
        pinned_cpu: pinning.cpu,
        git: git_revision(),
    }
}

fn real_main(args: &[String]) -> Result<bool, String> {
    let has = |name: &str| args.iter().any(|a| a == name);
    if let Some(at) = args.iter().position(|a| a == "--compare") {
        let (Some(a), Some(b)) = (args.get(at + 1), args.get(at + 2)) else {
            return Err(usage());
        };
        let (table, _) =
            compare::compare(&compare::load(Path::new(a))?, &compare::load(Path::new(b))?);
        print!("{table}");
        return Ok(true);
    }
    if has("--selftest") {
        // Not pinned here: each run is its own process and pins itself.
        return compare::selftest(parsed(args, "--runs", 5)?, parsed(args, "--seconds", 30)?);
    }
    if has("--smoke") {
        let env = pinned_env();
        let seed = parsed(args, "--seed", 1)?;
        let mut correct = true;
        for workload in &metrics::WORKLOADS {
            let outcome = run::run(&run::smoke_args(workload, seed), &env)?;
            println!("{}", outcome.record.encode());
            correct &= outcome.tally.correct();
        }
        return Ok(correct);
    }
    let name = flag(args, "--workload").ok_or_else(usage)?;
    let workload =
        metrics::workload(name).ok_or_else(|| format!("unknown workload '{name}'\n{}", usage()))?;
    let seconds: f64 = parsed(args, "--seconds", 30.0)?;
    let run_args = RunArgs {
        workload,
        seed: parsed(args, "--seed", 1)?,
        windows: (seconds.round() as usize).max(2),
        trace: parsed::<u8>(args, "--trace", 0)? != 0,
        setups: SETUPS,
        warmup_windows: WARMUP_WINDOWS,
    };
    let outcome = run::run(&run_args, &pinned_env())?;
    for note in &outcome.tally.notes {
        eprintln!("failed: {note}");
    }
    println!("{}", outcome.record.encode());
    println!("{}", outcome.contract_line());
    Ok(outcome.tally.correct())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
