//! One run of one workload: build the world, warm up, measure the windows
//! (building it again between them, for `setup_s`), check, and turn the
//! result into metrics. A traced run does that twice — tracing off, then on —
//! with the per-layer spans in between.

use std::sync::Arc;
use std::time::{Duration, Instant};

use smc_telemetry::{CriticalPath, TraceSink, Tracer};
use smc_types::system_clock;

use crate::bus::{BusWorld, CHURN_EVERY};
use crate::cell::{CellWorld, Link};
use crate::check::Tally;
use crate::gen::{bus_inputs, cell_inputs, Inputs};
use crate::json::Json;
use crate::layers;
use crate::metrics::{Kind, Workload, END_TO_END, HOP_STAGES, PER_LAYER};
use crate::span::SpanLog;
use crate::stats::median;
use crate::sys;
use crate::world::{measure, Measured, World};

/// World builds per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Untimed windows before measuring: one of each kind.
pub const WARMUP_WINDOWS: usize = 2;
/// Events in a cell workload's pool.
const CELL_POOL: usize = 256;
/// Spans kept per traced run (the rest are counted as dropped).
const SPAN_CAPACITY: usize = 300_000;
/// Hop records the cell's own tracer keeps (a ring).
const HOP_CAPACITY: usize = 1 << 18;

/// Where and how the process runs; goes into every result line.
#[derive(Debug, Clone)]
pub struct Env {
    pub cores: usize,
    pub pinned_cpu: Option<usize>,
    pub git: String,
}

#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    /// Measured windows (1 s each).
    pub windows: usize,
    pub trace: bool,
    pub setups: usize,
    pub warmup_windows: usize,
}

/// `(name, value, unit)` in table order.
type Metrics = Vec<(&'static str, f64, &'static str)>;

/// A finished run: the contract's four fields plus the full record.
#[derive(Debug)]
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Metrics,
    /// The rich result line (environment, diagnostics, notes).
    pub record: Json,
}

impl Outcome {
    /// The last line of standard output, exactly as the contract has it.
    pub fn contract_line(&self) -> String {
        Json::obj()
            .with("correct", self.tally.correct())
            .with("attempted", self.tally.attempted)
            .with("failed", self.tally.failed)
            .with("metrics", metrics_json(&self.metrics))
            .encode()
    }
}

enum AnyWorld {
    Cell(CellWorld),
    Bus(Box<BusWorld>),
}

/// Running totals read before and after the measured windows.
#[derive(Debug, Default, Clone, Copy)]
struct Totals {
    events: u64,
    deliveries: u64,
    datagrams: u64,
    wire_bytes: u64,
    wal_appends: u64,
    wal_fsyncs: u64,
    wal_bytes: u64,
}

impl AnyWorld {
    fn build(
        args: &RunArgs,
        inputs: &Inputs,
        tracer: Tracer,
        log: &mut SpanLog,
    ) -> Result<AnyWorld, String> {
        match args.workload.kind {
            Kind::Cell(spec) => {
                CellWorld::build(spec, inputs, args.seed, tracer, log).map(AnyWorld::Cell)
            }
            Kind::Bus => BusWorld::build(inputs, tracer).map(|w| AnyWorld::Bus(Box::new(w))),
        }
    }

    fn world(&mut self) -> &mut dyn World {
        match self {
            AnyWorld::Cell(w) => w,
            AnyWorld::Bus(w) => w.as_mut(),
        }
    }

    fn totals(&self) -> Totals {
        use std::sync::atomic::Ordering::Relaxed;
        match self {
            AnyWorld::Cell(w) => Totals {
                events: w.published(),
                deliveries: w.published(),
                datagrams: w.wire.datagrams.load(Relaxed),
                wire_bytes: w.wire.bytes.load(Relaxed),
                wal_appends: w.wal.appends.load(Relaxed),
                wal_fsyncs: w.wal.fsyncs.load(Relaxed),
                wal_bytes: w.wal.bytes.load(Relaxed),
            },
            AnyWorld::Bus(w) => Totals {
                events: w.published(),
                deliveries: w.deliveries,
                ..Totals::default()
            },
        }
    }

    fn retransmits(&self) -> u64 {
        match self {
            AnyWorld::Cell(w) => w.retransmits(),
            AnyWorld::Bus(_) => 0,
        }
    }

    fn finish(self) -> Tally {
        match self {
            AnyWorld::Cell(w) => w.finish(),
            AnyWorld::Bus(w) => w.finish(),
        }
    }
}

fn absorb(into: &mut Tally, from: Tally) {
    into.attempted += from.attempted;
    into.failed += from.failed;
    into.notes.extend(from.notes);
}

/// Per-event counts over the measured windows of one world.
#[derive(Debug, Default)]
struct PerEvent {
    deliveries: f64,
    datagrams: f64,
    wire_bytes: f64,
    wal_appends: f64,
    wal_fsyncs: f64,
    wal_bytes: f64,
}

/// One world warmed up, measured and torn down, and the times of the
/// `setups` builds.
struct Driven {
    measured: Measured,
    setup_s: Vec<f64>,
    per_event: PerEvent,
    retransmits: u64,
    /// `true` if the process could run on more than one CPU when the
    /// first window started.
    unpinned: bool,
}

fn drive(
    args: &RunArgs,
    inputs: &Inputs,
    tracer: &Tracer,
    log: &mut SpanLog,
    windows: usize,
    tally: &mut Tally,
) -> Result<Driven, String> {
    let start = Instant::now();
    let mut world = AnyWorld::build(args, inputs, tracer.clone(), log)?;
    let mut setup_s = vec![start.elapsed().as_secs_f64()];
    let unpinned = sys::affinity().len() != 1;
    if unpinned {
        eprintln!("warning: not confined to one CPU; timings will not repeat");
    }
    // Warm-up spans are not worth log space.
    measure(
        world.world(),
        0..args.warmup_windows,
        &mut SpanLog::disabled(),
        &mut Measured::default(),
    );
    let before = world.totals();
    let mut measured = Measured::default();
    let chunks = args.setups.max(1);
    for chunk in 0..chunks {
        if chunk > 0 {
            // The remaining set-ups are spread over the run: a fresh world
            // is built, proven and torn down between windows, so one
            // interference episode cannot cover every sample.
            let start = Instant::now();
            let probe = AnyWorld::build(args, inputs, tracer.clone(), log)?;
            setup_s.push(start.elapsed().as_secs_f64());
            absorb(tally, probe.finish());
        }
        measure(
            world.world(),
            windows * chunk / chunks..windows * (chunk + 1) / chunks,
            log,
            &mut measured,
        );
    }
    let after = world.totals();
    let events = (after.events - before.events).max(1) as f64;
    let per = |a: u64, b: u64| (a - b) as f64 / events;
    let driven = Driven {
        measured,
        setup_s,
        per_event: PerEvent {
            deliveries: per(after.deliveries, before.deliveries),
            datagrams: per(after.datagrams, before.datagrams),
            wire_bytes: per(after.wire_bytes, before.wire_bytes),
            wal_appends: per(after.wal_appends, before.wal_appends),
            wal_fsyncs: per(after.wal_fsyncs, before.wal_fsyncs),
            wal_bytes: per(after.wal_bytes, before.wal_bytes),
        },
        retransmits: world.retransmits(),
        unpinned,
    };
    absorb(tally, world.finish());
    if !driven.measured.complete() {
        tally.fail(1, || "a window kind produced no events".into());
    }
    if driven.retransmits > 0 {
        let n = driven.retransmits;
        tally.fail(n, || format!("{n} retransmissions on a lossless link"));
    }
    Ok(driven)
}

fn inputs_for(workload: &Workload, seed: u64) -> Inputs {
    match workload.kind {
        Kind::Cell(_) => cell_inputs(seed, workload.payload, CELL_POOL),
        Kind::Bus => bus_inputs(seed),
    }
}

/// Runs the workload as `args` says.
pub fn run(args: &RunArgs, env: &Env) -> Result<Outcome, String> {
    let inputs = inputs_for(args.workload, args.seed);
    let mut tally = Tally::default();
    let (metrics, record) = if args.trace {
        traced(args, env, &inputs, &mut tally)?
    } else {
        untraced(args, env, &inputs, &mut tally)?
    };
    Ok(Outcome {
        tally,
        metrics,
        record,
    })
}

/// The diagnostics printed with every run, never gated.
fn diagnostics(m: &mut Measured) -> [(&'static str, f64); 3] {
    [
        ("run.response_p99_us", m.response_p99_us()),
        ("run.events_per_s_mean", m.events_per_s_mean()),
        ("run.disturbed_windows", m.disturbed_windows() as f64),
    ]
}

fn record(args: &RunArgs, env: &Env, d: &Driven, tally: &Tally) -> Json {
    Json::obj()
        .with("ledger", "smc-ledger")
        .with("workload", args.workload.name)
        .with("seed", args.seed)
        .with("trace", args.trace)
        .with("windows", args.windows)
        .with("w", args.workload.w())
        .with("cores", env.cores)
        .with("pinned_cpu", env.pinned_cpu)
        .with("unpinned", d.unpinned)
        .with("rustc", env!("LEDGER_RUSTC"))
        .with("git", env.git.as_str())
        .with("response_samples", d.measured.responses.len())
        .with("attempted", tally.attempted)
        .with("failed", tally.failed)
        .with("correct", tally.correct())
        .with("claim", Json::Null)
        .with(
            "notes",
            Json::Arr(tally.notes.iter().map(|n| n.as_str().into()).collect()),
        )
}

fn metrics_json(metrics: &Metrics) -> Json {
    metrics
        .iter()
        .fold(Json::obj(), |obj, (name, value, unit)| {
            obj.with(name, Json::obj().with("value", *value).with("unit", *unit))
        })
}

fn untraced(
    args: &RunArgs,
    env: &Env,
    inputs: &Inputs,
    tally: &mut Tally,
) -> Result<(Metrics, Json), String> {
    let mut log = SpanLog::disabled();
    let mut d = drive(
        args,
        inputs,
        &Tracer::disabled(),
        &mut log,
        args.windows,
        tally,
    )?;
    let mut metrics = Vec::new();
    let mut record = record(args, env, &d, tally);
    if d.measured.complete() {
        let m = &d.measured;
        let values = [
            median(&d.setup_s),
            m.events_per_s(),
            m.response_p50_us(),
            m.cpu_us_per_event(),
            m.allocs_per_event(),
            m.alloc_bytes_per_event(),
        ];
        metrics.extend(
            END_TO_END
                .iter()
                .zip(values)
                .map(|(e, v)| (e.name, v, e.unit)),
        );
        let floats = |v: &[f64]| Json::Arr(v.iter().map(|&x| x.into()).collect());
        record = record
            .with("rate_windows", floats(&d.measured.rates))
            .with("setup_samples_s", floats(&d.setup_s))
            .with(
                "diagnostics",
                diagnostics(&mut d.measured)
                    .iter()
                    .fold(Json::obj(), |o, (k, v)| o.with(k, *v)),
            );
    }
    let record = record.with("metrics", metrics_json(&metrics));
    Ok((metrics, record))
}

/// What one event's journey through a cell costs if every call took its
/// isolated median — the part of `cpu_us_per_event` the layer spans
/// explain. The rest (thread hand-offs, locks, wake-ups, dispatch) is
/// `core.cell.residual_us`. The model, call by call:
///
/// publisher: encode `Publish`, reliable send → cell: reliable receive,
/// decode, `policy.check`, reliable send of the small `PublishAck`,
/// `bus.publish` (match + one `Deliver` encode + fan-out), `on_event`,
/// proxy enqueue + reliable send → subscriber: reliable receive, decode,
/// small `DeliverAck` back. The reliable pair was timed over the mem
/// link, so each datagram on a UDP workload adds the difference; each WAL
/// append adds what an append to the in-memory backend costs.
fn explained_us(workload: &Workload, log: &SpanLog, per_event: &PerEvent) -> f64 {
    let p = |span| log.p50_us(span);
    match workload.kind {
        Kind::Bus => {
            p("core.bus.publish")
                + (p("core.bus.subscribe") + p("core.bus.unsubscribe")) / CHURN_EVERY as f64
        }
        Kind::Cell(spec) => {
            let message = p("transport.reliable.send")
                + p("transport.reliable.recv")
                + p("transport.reliable.ack");
            let small = p("transport.reliable.send.small")
                + p("transport.reliable.recv.small")
                + p("transport.reliable.ack.small");
            let link = match spec.link {
                Link::Udp => p("transport.udp.send_recv"),
                Link::Mem => p("transport.mem.send_recv"),
            };
            p("types.codec.encode")
                + message
                + p("types.codec.decode")
                + p("policy.check")
                + small
                + p("core.bus.publish")
                + p("policy.on_event")
                // The proxy's share: its span re-encodes the frame that
                // `bus.publish` above already paid for.
                + (p("core.proxy.deliver") - p("types.codec.encode")).max(0.0)
                + p("transport.reliable.recv")
                + p("transport.reliable.ack")
                + p("types.codec.decode")
                + small
                + per_event.datagrams * (link - p("transport.mem.send_recv"))
                + per_event.wal_appends * p("wal.append.mem")
        }
    }
}

fn traced(
    args: &RunArgs,
    env: &Env,
    inputs: &Inputs,
    tally: &mut Tally,
) -> Result<(Metrics, Json), String> {
    // A quarter of the time untraced (the base for the overhead ratio and
    // the residual), a fifth on the layer spans, the rest traced.
    let one_world = RunArgs { setups: 1, ..*args };
    let base_windows = (args.windows / 4).max(2);
    let traced_windows = (args.windows / 3).max(2);
    let layer_budget = Duration::from_secs_f64(args.windows as f64 / 5.0);

    let mut off = SpanLog::disabled();
    let mut base = drive(
        &one_world,
        inputs,
        &Tracer::disabled(),
        &mut off,
        base_windows,
        tally,
    )?;

    let mut log = SpanLog::with_capacity(SPAN_CAPACITY);
    let counts = layers::measure(inputs, args.workload.datagram_max(), layer_budget, &mut log)?;

    let hops = Arc::new(TraceSink::with_capacity(HOP_CAPACITY));
    let tracer = Tracer::new(Arc::clone(&hops), system_clock());
    let on = drive(&one_world, inputs, &tracer, &mut log, traced_windows, tally)?;
    let mut critical = CriticalPath::new();
    critical.fold_window(&hops.records());
    let stages = critical.table();

    let out = crate::out_dir().map_err(|e| e.to_string())?;
    let spans_path = out.join("spans.jsonl");
    log.write_jsonl(&spans_path).map_err(|e| e.to_string())?;

    let mut metrics = Vec::new();
    if base.measured.complete() && on.measured.complete() {
        let diag = diagnostics(&mut base.measured);
        let explained = explained_us(args.workload, &log, &on.per_event);
        let p = |span| log.p50_us(span);
        // Everything that is not simply a span's median.
        let mut derived: Vec<(String, f64)> = [
            ("types.codec.bytes_per_event", counts.codec_bytes_per_event),
            (
                "match.matched_per_event",
                match args.workload.kind {
                    Kind::Bus => on.per_event.deliveries,
                    Kind::Cell(_) => counts.matched_per_event,
                },
            ),
            (
                "core.bus.fanout_self_us",
                p("core.bus.publish") - p("match.fastforward.match"),
            ),
            (
                "core.cell.residual_us",
                base.measured.cpu_us_per_event() - explained,
            ),
            (
                "transport.reliable.send_us",
                p("transport.reliable.send") + p("transport.reliable.ack"),
            ),
            ("transport.datagrams_per_event", on.per_event.datagrams),
            ("transport.wire_bytes_per_event", on.per_event.wire_bytes),
            (
                "transport.retransmits",
                (base.retransmits + on.retransmits) as f64,
            ),
            ("wal.appends_per_event", on.per_event.wal_appends),
            ("wal.fsyncs_per_event", on.per_event.wal_fsyncs),
            ("wal.bytes_per_event", on.per_event.wal_bytes),
            (
                "wal.file_cost_us_per_event",
                on.per_event.wal_appends * p("wal.append.file"),
            ),
            (
                "telemetry.trace_overhead_ratio",
                base.measured.events_per_s() / on.measured.events_per_s(),
            ),
        ]
        .into_iter()
        .chain(diag)
        .map(|(name, value)| (name.to_owned(), value))
        .collect();
        derived.extend(HOP_STAGES.iter().map(|(stage, kind)| {
            let row = stages
                .iter()
                .find(|row| row.stage == *stage && row.kind.name() == *kind);
            (
                format!("hop.{stage}.{kind}_us"),
                row.map_or(0.0, |row| row.p50_micros as f64),
            )
        }));
        for m in PER_LAYER {
            let value = match m.span {
                Some(span) => p(span),
                None => {
                    derived
                        .iter()
                        .find(|(name, _)| name == m.name)
                        .unwrap_or_else(|| panic!("per-layer metric {} has no source", m.name))
                        .1
                }
            };
            metrics.push((m.name, value, m.unit));
        }
    }
    let record = record(args, env, &on, tally)
        .with("metrics", metrics_json(&metrics))
        // What the driver itself adds to a response sample (event clone,
        // checks): the response span minus the client calls inside it.
        .with("response_harness_self_us", log.p50_self_us("e2e.response"))
        .with("spans", log.len())
        .with("spans_dropped", log.dropped())
        .with("spans_file", spans_path.to_string_lossy().as_ref())
        // Where `wal.append_us.file` wrote and fsync'd.
        .with("wal_fs", sys::filesystem_type(&out))
        .with("hop_journeys", critical.journeys())
        .with("base_windows", base_windows)
        .with("traced_windows", traced_windows);
    Ok((metrics, record))
}

/// The arguments `--smoke` uses: 2 s, one set-up, no warm-up.
pub fn smoke_args(workload: &'static Workload, seed: u64) -> RunArgs {
    RunArgs {
        workload,
        seed,
        windows: 2,
        trace: false,
        setups: 1,
        warmup_windows: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::WORKLOADS;

    /// The two tests below each drive real worlds for seconds; side by side
    /// on two cores they would slow each other past the smoke time limit.
    static ONE_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// `--smoke`: every workload for 2 s on the same code path as a full
    /// run, passing the correctness check, all four inside 20 s.
    #[test]
    fn smoke_runs_every_workload_correctly_in_under_20_s() {
        let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
        let started = Instant::now();
        let env = Env {
            cores: sys::affinity().len(),
            pinned_cpu: None,
            git: "test".into(),
        };
        for workload in &WORKLOADS {
            let outcome = run(&smoke_args(workload, 1), &env).expect(workload.name);
            assert!(
                outcome.tally.correct(),
                "{}: {:?}",
                workload.name,
                outcome.tally
            );
            assert_eq!(outcome.metrics.len(), END_TO_END.len(), "{}", workload.name);
            for (name, value, _) in &outcome.metrics {
                assert!(
                    value.is_finite() && *value > 0.0,
                    "{} {name} = {value}",
                    workload.name
                );
            }
            let line = Json::parse(&outcome.contract_line()).unwrap();
            let keys: Vec<&str> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(outcome.record.get("claim"), Some(&Json::Null));
        }
        assert!(
            started.elapsed() < Duration::from_secs(20),
            "{:?}",
            started.elapsed()
        );
    }

    /// A traced run fills in every per-layer metric and writes the spans.
    #[test]
    fn traced_run_prints_every_per_layer_metric() {
        let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
        let env = Env {
            cores: sys::affinity().len(),
            pinned_cpu: None,
            git: "test".into(),
        };
        let args = RunArgs {
            trace: true,
            ..smoke_args(crate::metrics::workload("ward_bus").unwrap(), 2)
        };
        let outcome = run(&args, &env).unwrap();
        assert!(outcome.tally.correct(), "{:?}", outcome.tally);
        let names: Vec<&str> = outcome.metrics.iter().map(|m| m.0).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, expected);
        assert!(outcome.metrics.iter().all(|m| m.1.is_finite()));
        let value = |name| outcome.metrics.iter().find(|m| m.0 == name).unwrap().1;
        assert!(value("core.bus.publish_us") > 0.0);
        assert!(value("match.matched_per_event") > 1.0);
        assert!(value("telemetry.trace_overhead_ratio") > 0.0);
        assert_eq!(value("transport.retransmits"), 0.0);
        let spans = outcome.record.get("spans").unwrap().as_f64().unwrap();
        assert!(spans > 100.0);
    }
}
