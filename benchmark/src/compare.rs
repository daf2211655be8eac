//! `--compare A.jsonl B.jsonl` and `--selftest`: two sets of runs, judged
//! per workload × end-to-end metric against the benchmark's own bounds.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

use crate::json::Json;
use crate::metrics::{END_TO_END, WORKLOADS};
use crate::stats::{quartiles, Better};

/// The values of each `(workload, metric)` over a set of untraced runs.
type Runs = BTreeMap<(String, String), Vec<f64>>;

/// Reads the result lines (`{"ledger": …}`) of a set's untraced runs.
pub fn load(path: &Path) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut runs = Runs::new();
    for line in text.lines().filter(|l| l.starts_with("{\"ledger\"")) {
        let record = Json::parse(line).map_err(|e| format!("{}: {e}", path.display()))?;
        if record.get("trace") != Some(&Json::Bool(false)) {
            continue;
        }
        let workload = record
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("result line without a workload")?;
        let metrics = record.get("metrics").map_or(&[][..], Json::fields);
        for (name, metric) in metrics {
            let value = metric
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{workload}/{name}: no value"))?;
            runs.entry((workload.to_owned(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(runs)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    WithinBound,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The run-to-run spread is wider than the bound and the two sides
    /// overlap: the runs cannot tell.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::WithinBound => "within-bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges side B against side A; also returns by what share of A's median
/// B's median is worse (negative: better). With `gate_spread` off only the
/// medians count — the driver's rule for `setup_s`.
pub fn judge(
    a: &[f64],
    b: &[f64],
    better: Better,
    bound: f64,
    gate_spread: bool,
) -> (Verdict, f64) {
    let (qa, qb) = (quartiles(a), quartiles(b));
    let worse_by = match better {
        Better::Lower => (qb[1] - qa[1]) / qa[1],
        Better::Higher => (qa[1] - qb[1]) / qa[1],
    };
    let spread = ((qa[2] - qa[0]) / qa[1]).max((qb[2] - qb[0]) / qb[1]);
    let range = |v: &[f64]| {
        v.iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)))
    };
    let ((a_lo, a_hi), (b_lo, b_hi)) = (range(a), range(b));
    let overlap = a_lo <= b_hi && b_lo <= a_hi;
    let verdict = if gate_spread && spread > bound && overlap {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::WithinBound
    };
    (verdict, worse_by)
}

/// The comparison table, and whether every pair was within its bound in
/// both directions (what an A/A test must show).
pub fn compare(a: &Runs, b: &Runs) -> (String, bool) {
    let mut table = String::new();
    let mut agree = true;
    writeln!(
        table,
        "{:<13} {:<22} {:>4} {:>38} {:>38} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "runs",
        "A median [q1 .. q3]",
        "B median [q1 .. q3]",
        "B worse",
        "bound"
    )
    .expect("write to String");
    for workload in &WORKLOADS {
        for metric in &END_TO_END {
            let key = (workload.name.to_owned(), metric.name.to_owned());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                writeln!(table, "{:<13} {:<22} missing on one side", key.0, key.1)
                    .expect("write to String");
                agree = false;
                continue;
            };
            // As in the driver's acceptance rule, the spread of `setup_s`
            // is not held to its bound: a build is half a second of large
            // allocations, and whole runs of them shift together.
            let gate_spread = metric.name != "setup_s";
            let (verdict, worse_by) = judge(va, vb, metric.better, metric.bound, gate_spread);
            let (reverse, _) = judge(vb, va, metric.better, metric.bound, gate_spread);
            agree &= verdict == Verdict::WithinBound && reverse == Verdict::WithinBound;
            let side = |v: &[f64]| {
                let q = quartiles(v);
                format!("{:.6} [{:.6} .. {:.6}]", q[1], q[0], q[2])
            };
            writeln!(
                table,
                "{:<13} {:<22} {:>4} {:>38} {:>38} {:>+7.2}% {:>5.0}%  {}",
                key.0,
                key.1,
                format!("{}/{}", va.len(), vb.len()),
                side(va),
                side(vb),
                worse_by * 100.0,
                metric.bound * 100.0,
                verdict.name()
            )
            .expect("write to String");
        }
    }
    (table, agree)
}

/// Runs two interleaved sets of `runs` runs per workload of this very
/// binary (each run its own process, so each is pinned and starts cold),
/// writes them to `out/selftest-{A,B}.jsonl` and compares them.
pub fn selftest(runs: usize, seconds: usize) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = crate::out_dir().map_err(|e| e.to_string())?;
    let paths = [out.join("selftest-A.jsonl"), out.join("selftest-B.jsonl")];
    let mut sets = [String::new(), String::new()];
    for run in 0..runs {
        // Alternate which side goes first, so drift in the host falls on
        // both alike.
        let order = if run % 2 == 0 { [0, 1] } else { [1, 0] };
        for side in order {
            for workload in &WORKLOADS {
                let seed = 2 * run + side + 1;
                eprintln!(
                    "selftest: run {run} side {} {} seed {seed}",
                    ["A", "B"][side],
                    workload.name
                );
                let output = Command::new(&exe)
                    .args(["--workload", workload.name, "--trace", "0"])
                    .args(["--seed", &seed.to_string()])
                    .args(["--seconds", &seconds.to_string()])
                    .output()
                    .map_err(|e| e.to_string())?;
                if !output.status.success() {
                    return Err(format!(
                        "{} seed {seed} failed: {}",
                        workload.name,
                        String::from_utf8_lossy(&output.stderr)
                    ));
                }
                let stdout = String::from_utf8_lossy(&output.stdout);
                let line = stdout
                    .lines()
                    .find(|l| l.starts_with("{\"ledger\""))
                    .ok_or("run printed no result line")?;
                sets[side].push_str(line);
                sets[side].push('\n');
            }
        }
    }
    for (path, set) in paths.iter().zip(&sets) {
        std::fs::write(path, set).map_err(|e| e.to_string())?;
    }
    let (table, agree) = compare(&load(&paths[0])?, &load(&paths[1])?);
    print!("{table}");
    println!(
        "selftest: {} ({runs} runs per workload per set, {seconds} s each)",
        if agree {
            "PASS — every pair within its bound"
        } else {
            "FAIL"
        }
    );
    Ok(agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_the_spread_and_the_overlap() {
        let tight = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [100.2, 100.9, 99.1, 100.4, 99.6];
        let slow = [120.0, 121.0, 119.0, 120.5, 119.5];
        let noisy_a = [80.0, 100.0, 120.0, 90.0, 110.0];
        let noisy_b = [85.0, 105.0, 125.0, 95.0, 115.0];

        let (v, by) = judge(&tight, &same, Better::Lower, 0.10, true);
        assert_eq!(v, Verdict::WithinBound);
        assert!(by.abs() < 0.01);
        let (v, by) = judge(&tight, &slow, Better::Lower, 0.10, true);
        assert_eq!(v, Verdict::Worse);
        assert!((by - 0.20).abs() < 0.01);
        // The same numbers as a rate: higher is better, so B is a gain.
        assert_eq!(
            judge(&tight, &slow, Better::Higher, 0.10, true).0,
            Verdict::WithinBound
        );
        assert_eq!(
            judge(&slow, &tight, Better::Higher, 0.10, true).0,
            Verdict::Worse
        );
        // Spread wider than the bound and the sides overlap: cannot tell.
        assert_eq!(
            judge(&noisy_a, &noisy_b, Better::Lower, 0.10, true).0,
            Verdict::Unresolved
        );
        // The same pair judged by its medians alone, as `setup_s` is.
        assert_eq!(
            judge(&noisy_a, &noisy_b, Better::Lower, 0.10, false).0,
            Verdict::WithinBound
        );
        // Wide spread but every B run is worse than every A run: resolved.
        let far = noisy_a.map(|x| x * 2.0);
        assert_eq!(
            judge(&noisy_a, &far, Better::Lower, 0.10, true).0,
            Verdict::Worse
        );
    }

    #[test]
    fn compare_reads_result_lines_and_flags_a_regression() {
        let line = |workload: &str, scale: f64| {
            let metrics = END_TO_END.iter().fold(Json::obj(), |o, m| {
                o.with(
                    m.name,
                    Json::obj().with("value", 10.0 * scale).with("unit", m.unit),
                )
            });
            Json::obj()
                .with("ledger", "smc-ledger")
                .with("workload", workload)
                .with("trace", false)
                .with("metrics", metrics)
                .encode()
        };
        let dir = crate::TempDir::fresh("compare-test").unwrap();
        let write = |name: &str, scale: f64| {
            let mut text = String::from("noise the loader must skip\n");
            for w in &WORKLOADS {
                for wobble in [1.0, 1.001, 0.999] {
                    text += &line(w.name, scale * wobble);
                    text.push('\n');
                }
            }
            let path = dir.0.join(name);
            std::fs::write(&path, text).unwrap();
            path
        };
        let a = load(&write("a.jsonl", 1.0)).unwrap();
        let same = load(&write("same.jsonl", 1.0005)).unwrap();
        let slow = load(&write("slow.jsonl", 1.5)).unwrap();
        assert_eq!(a.len(), WORKLOADS.len() * END_TO_END.len());

        let (table, agree) = compare(&a, &same);
        assert!(agree, "{table}");
        assert_eq!(table.matches("within-bound").count(), 24);
        let (table, agree) = compare(&a, &slow);
        assert!(!agree);
        // Every lower-is-better metric got worse; the rate "improved".
        assert_eq!(table.matches(" worse").count() - 1, 20, "{table}");
    }
}
