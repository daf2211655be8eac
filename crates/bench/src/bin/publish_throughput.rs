//! Publish-path throughput bench: the lock-free snapshot bus against a
//! reconstruction of the pre-snapshot locked hot path, measured in the
//! same process and the same run.
//!
//! ```text
//! cargo run --release -p smc-bench --bin publish_throughput -- \
//!     [--events 20000] [--smoke] [--gate]
//! ```
//!
//! The sweep crosses publisher count × fan-out. For every cell the
//! arms do the same semantic work — match the event, skip the
//! publisher, hand each interested subscriber a deliverable packet —
//! but the baseline arm pays the old costs (three lock acquisitions per
//! publish, one event clone plus one full packet encode per subscriber)
//! while the snapshot arm publishes through the bus's batched hot path
//! ([`EventBus::publish_batch`]): one route-snapshot load, one matcher
//! scratch pass, one encode arena and one metrics flush per burst of
//! [`PUBLISH_BATCH`] events. The singular (per-event) snapshot path is
//! measured too and reported as `singular_speedup`, so the amortisation
//! win stays visible.
//!
//! Writes `results/BENCH_perf.json`. With `--gate`, the committed
//! `results/BENCH_perf.json` is read *first* and the run fails if the
//! fresh overall speedup drops below [`GATE_FRACTION`] of the committed
//! one — the CI regression gate.
//!
//! Fan-out 1 is tracked separately as `fanout1_ratio`. The singular
//! snapshot path historically ran 0.70–0.94× the locked path there (one
//! subscriber never amortises the shared encode); batching is exactly
//! the fix for that unamortised per-publish cost, so the gated floor
//! ([`FANOUT1_FLOOR`]) now demands the batched arm *wins* at fan-out 1
//! rather than merely not collapsing.
//!
//! A second, sharded sweep (`shards` × the same work) pushes the same
//! load through [`ShardedBus`] workers and records events/second plus
//! each cell's scaling against its own one-shard row — the multi-core
//! story. Raw throughput is machine-bound, so only the *scaling* ratio
//! is diffed by the sentinel, and only when the committed baseline
//! carries the dimension.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use parking_lot::Mutex;

use smc_bench::HarnessArgs;
use smc_core::{DeliveryFrame, EventBus, EventSink, ShardConfig, ShardedBus};
use smc_match::{EngineKind, Matcher};
use smc_telemetry::{CriticalPath, Hop, StageRow, TraceSink, Tracer};
use smc_types::codec::to_bytes;
use smc_types::{
    system_clock, Event, Filter, Packet, Result, ServiceId, Subscription, SubscriptionId, TraceId,
};

/// The regression gate: a fresh run must reach at least this fraction of
/// the committed overall speedup.
const GATE_FRACTION: f64 = 0.85;

/// The gate fraction when the fresh run and the committed baseline ran
/// at different `events_per_publisher` scales (a smoke run gated
/// against a full-run baseline): per-cell throughput is much noisier at
/// smoke scale, so the overall ratio gets more headroom. The sentinel
/// applies the same like-for-like rule per cell.
const SCALE_MISMATCH_GATE_FRACTION: f64 = 0.70;

/// Hard floor for the tracked fan-out-1 ratio. The singular snapshot
/// path lost here (0.70–0.94×, the unamortised shared encode); the
/// batched hot path amortises that fixed cost across the burst, so the
/// floor demands an outright win.
const FANOUT1_FLOOR: f64 = 1.0;

/// Events per coalesced publish on the batched snapshot arm — the
/// burst size one snapshot load, scratch pass, encode arena and
/// metrics flush are amortised over.
const PUBLISH_BATCH: usize = 64;

/// Repetitions per arm per sweep cell; each cell reports the best run.
/// Throughput noise on a shared host is one-sided — scheduler stalls
/// only ever slow a run down — so max-of-N is the low-variance
/// estimator, and it is what keeps the fan-out-1 floor from flapping
/// on single-core CI runners.
const MEASURE_REPS: usize = 2;

/// Counts deliveries and delivered bytes; the snapshot arm's sink takes
/// a reference-counted handle on the shared encoded frame, exactly as a
/// proxy enqueue does.
#[derive(Default)]
struct CountingSink {
    delivered: AtomicU64,
    bytes: AtomicU64,
}

impl EventSink for CountingSink {
    fn deliver(&self, event: &Event) -> Result<()> {
        self.delivered.fetch_add(1, Ordering::Relaxed);
        self.bytes
            .fetch_add(event.payload().len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn deliver_frame(&self, frame: &DeliveryFrame<'_>) -> Result<()> {
        let encoded = frame.encoded();
        self.delivered.fetch_add(1, Ordering::Relaxed);
        self.bytes
            .fetch_add(encoded.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn prefers_encoded(&self) -> bool {
        // Pay the wire encode exactly as a proxy enqueue does, so the
        // batched arm exercises the shared encode arena.
        true
    }
}

/// The pre-snapshot hot path, reconstructed for the baseline arm: the
/// matcher, the sink map and the tracer each behind their own mutex, a
/// fresh allocation for the match result, and one event clone plus one
/// packet encode per subscriber.
struct LockedBus {
    engine: Mutex<Box<dyn Matcher>>,
    sinks: Mutex<HashMap<ServiceId, Arc<CountingSink>>>,
    tracer: Mutex<Tracer>,
}

impl LockedBus {
    fn new(kind: EngineKind) -> Self {
        LockedBus {
            engine: Mutex::new(kind.build()),
            sinks: Mutex::new(HashMap::new()),
            tracer: Mutex::new(Tracer::disabled()),
        }
    }

    fn subscribe(&self, id: u64, subscriber: ServiceId, filter: Filter, sink: Arc<CountingSink>) {
        self.engine
            .lock()
            .subscribe(Subscription::new(SubscriptionId(id), subscriber, filter))
            .expect("baseline subscribe");
        self.sinks.lock().insert(subscriber, sink);
    }

    fn publish(&self, event: &Event) -> usize {
        let trace = TraceId::for_event(event.publisher(), event.seq());
        self.tracer.lock().record(trace, Hop::Published);
        let targets = self.engine.lock().matching_subscribers(event);
        let sinks = self.sinks.lock();
        let mut delivered = 0;
        for subscriber in targets {
            if subscriber == event.publisher() {
                continue;
            }
            if let Some(sink) = sinks.get(&subscriber) {
                let packet = Packet::Deliver {
                    event: event.clone(),
                    trace,
                };
                let bytes = to_bytes(&packet);
                sink.delivered.fetch_add(1, Ordering::Relaxed);
                sink.bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
                delivered += 1;
            }
        }
        delivered
    }
}

/// Records a [`Hop::Delivered`] per frame so the attribution pass can
/// split publish → match → deliver in wall-clock time; pays the shared
/// encode exactly as a proxy enqueue does.
struct AttributingSink {
    tracer: Tracer,
}

impl EventSink for AttributingSink {
    fn deliver(&self, event: &Event) -> Result<()> {
        self.tracer.record(
            TraceId::for_event(event.publisher(), event.seq()),
            Hop::Delivered,
        );
        Ok(())
    }

    fn deliver_frame(&self, frame: &DeliveryFrame<'_>) -> Result<()> {
        let _ = frame.encoded();
        self.tracer.record(frame.trace(), Hop::Delivered);
        Ok(())
    }
}

const EVENT_TYPE: &str = "bench.reading";

fn bench_event(publisher: u64) -> Event {
    Event::builder(EVENT_TYPE)
        .publisher(ServiceId::from_raw(0x9000 + publisher))
        .seq(1)
        .attr("bpm", 120i64)
        .payload(vec![0xEE; 64])
        .build()
}

/// Total deliveries recorded across `sinks`.
fn total_delivered(sinks: &[Arc<CountingSink>]) -> u64 {
    sinks
        .iter()
        .map(|s| s.delivered.load(Ordering::Relaxed))
        .sum()
}

/// Extracts `"speedup_total"` and `"events_per_publisher"` from a
/// committed results file, if present (hand-rolled: the repo carries no
/// JSON parser dependency). The scale disambiguates smoke-vs-full gate
/// comparisons.
fn read_committed_speedup(path: &str) -> Option<(f64, u64)> {
    let text = std::fs::read_to_string(path).ok()?;
    let field = |key: &str| -> Option<f64> {
        let k = format!("\"{key}\":");
        let at = text.find(&k)? + k.len();
        let rest = text[at..].trim_start();
        let end = rest
            .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
            .unwrap_or(rest.len());
        rest[..end].parse().ok()
    };
    let speedup = field("speedup_total")?;
    let scale = field("events_per_publisher").unwrap_or(0.0) as u64;
    Some((speedup, scale))
}

fn main() {
    let args = HarnessArgs::from_env();
    let smoke = args.has("smoke");
    let gate = args.has("gate");
    let events_each: usize = args.get("events", if smoke { 4_000 } else { 20_000 });
    let publisher_sweep: &[usize] = if smoke { &[1, 4] } else { &[1, 2, 4] };
    // The smoke sweep keeps the full fan-out axis: fan-out 1 so the
    // tracked single-subscriber ratio is exercised on every CI run, and
    // the rest so the gated geomean stays comparable to the committed
    // full-run baseline (smoke only trims events and publisher counts).
    let fanout_sweep: &[usize] = &[1, 8, 32];

    let committed_speedup = if gate {
        read_committed_speedup("results/BENCH_perf.json")
    } else {
        None
    };

    eprintln!("# publish throughput sweep ({events_each} events/publisher, smoke: {smoke})");
    eprintln!(
        "{:>10} {:>7} {:>16} {:>16} {:>16} {:>9}",
        "publishers", "fanout", "locked_ev/s", "singular_ev/s", "batched_ev/s", "speedup"
    );

    // The attribution pass runs far fewer events than the timed arms:
    // it only needs stable stage *shares*, not throughput.
    let attr_events: usize = args.get("attr-events", if smoke { 200 } else { 1_000 });

    struct Row {
        publishers: usize,
        fanout: usize,
        locked: f64,
        singular: f64,
        batched: f64,
        /// Batched snapshot arm vs the locked baseline — the gated one.
        speedup: f64,
        /// Per-event snapshot arm vs the locked baseline — advisory.
        singular_speedup: f64,
    }

    let mut rows: Vec<Row> = Vec::new();
    let mut stage_tables: Vec<Vec<StageRow>> = Vec::new();
    let best_of = |measure: &dyn Fn() -> f64| {
        (0..MEASURE_REPS)
            .map(|_| measure())
            .fold(f64::MIN, f64::max)
    };
    for &publishers in publisher_sweep {
        for &fanout in fanout_sweep {
            let locked = best_of(&|| measure_locked(publishers, fanout, events_each));
            let singular = best_of(&|| measure_snapshot(publishers, fanout, events_each));
            let batched = best_of(&|| measure_batched(publishers, fanout, events_each));
            let speedup = batched / locked.max(1.0);
            let singular_speedup = singular / locked.max(1.0);
            let stages = attribute_snapshot(publishers, fanout, attr_events);
            let deliver_share = stages
                .iter()
                .find(|s| s.stage == "deliver")
                .map(|s| s.share_milli)
                .unwrap_or(0);
            eprintln!(
                "{publishers:>10} {fanout:>7} {locked:>16.0} {singular:>16.0} {batched:>16.0} \
                 {speedup:>8.2}x deliver={}m",
                deliver_share
            );
            rows.push(Row {
                publishers,
                fanout,
                locked,
                singular,
                batched,
                speedup,
                singular_speedup,
            });
            stage_tables.push(stages);
        }
    }

    // The sharded sweep: the same coalesced hot path, spread across
    // worker threads by publisher id. Raw events/second is recorded per
    // cell along with its scaling against the one-shard row — on a
    // single-core host the scaling hovers near 1.0 and that is the
    // honest answer, so `cores` is recorded beside it.
    let shard_sweep: &[usize] = &[1, 2, 4];
    let shard_publishers = 4usize;
    let shard_fanout = 8usize;
    let shard_events = if smoke { events_each / 2 } else { events_each };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "# sharded sweep ({shard_publishers} publishers, fan-out {shard_fanout}, {cores} core(s))"
    );
    let mut shard_rows: Vec<(usize, f64, f64)> = Vec::new();
    for &shards in shard_sweep {
        let throughput =
            best_of(&|| measure_sharded(shards, shard_publishers, shard_fanout, shard_events));
        let scale = shard_rows
            .first()
            .map_or(1.0, |(_, one, _)| throughput / one.max(1.0));
        eprintln!("  shards={shards}: {throughput:>12.0} ev/s  scale_vs_one_shard={scale:.2}x");
        shard_rows.push((shards, throughput, scale));
    }

    // Overall figure: geometric mean of the per-cell speedups where the
    // snapshot path is meant to win (fan-out > 1), so no single cell
    // dominates. Fan-out-1 cells carry a known, accepted gap and get
    // their own tracked ratio instead of dragging the gated number.
    let gated: Vec<f64> = rows
        .iter()
        .filter(|r| r.fanout > 1)
        .map(|r| r.speedup)
        .collect();
    assert!(!gated.is_empty(), "sweep must cover fan-out > 1");
    let speedup_total = (gated.iter().map(|s| s.ln()).sum::<f64>() / gated.len() as f64).exp();
    let fanout1: Vec<f64> = rows
        .iter()
        .filter(|r| r.fanout == 1)
        .map(|r| r.speedup)
        .collect();
    assert!(
        !fanout1.is_empty(),
        "sweep must exercise the fan-out-1 snapshot path"
    );
    let fanout1_ratio = (fanout1.iter().map(|s| s.ln()).sum::<f64>() / fanout1.len() as f64).exp();
    let shared = payload_sharing_proof();
    let arena_shared = arena_sharing_proof();
    eprintln!("overall speedup (geomean, fan-out > 1): {speedup_total:.2}x");
    eprintln!("fan-out-1 ratio (batched arm, floor {FANOUT1_FLOOR}x): {fanout1_ratio:.2}x");
    eprintln!("payload buffer shared across fan-out: {shared}");
    eprintln!("encode arena shared across a batch: {arena_shared}");

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"publish_throughput\",");
    let _ = writeln!(
        json,
        "  \"config\": {{\"events_per_publisher\": {events_each}, \"engine\": \"fastforward\", \
         \"payload_bytes\": 64, \"publish_batch\": {PUBLISH_BATCH}, \"cores\": {cores}, \
         \"smoke\": {smoke}}},"
    );
    json.push_str("  \"results\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let stages: Vec<String> = stage_tables[i]
            .iter()
            .map(|s| {
                format!(
                    "{{\"stage\": \"{}\", \"kind\": \"{}\", \"count\": {}, \
                     \"total_micros\": {}, \"share_milli\": {}, \"p50_micros\": {}, \
                     \"p95_micros\": {}, \"p99_micros\": {}}}",
                    s.stage,
                    s.kind.name(),
                    s.count,
                    s.total_micros,
                    s.share_milli,
                    s.p50_micros,
                    s.p95_micros,
                    s.p99_micros
                )
            })
            .collect();
        let _ = writeln!(
            json,
            "    {{\"publishers\": {}, \"fanout\": {}, \
             \"locked_events_per_sec\": {:.0}, \
             \"snapshot_events_per_sec\": {:.0}, \
             \"batched_events_per_sec\": {:.0}, \"speedup\": {:.3}, \
             \"singular_speedup\": {:.3}, \
             \"stages\": [{}]}}{comma}",
            row.publishers,
            row.fanout,
            row.locked,
            row.singular,
            row.batched,
            row.speedup,
            row.singular_speedup,
            stages.join(", ")
        );
    }
    json.push_str("  ],\n");
    json.push_str("  \"multicore\": [\n");
    for (i, (shards, throughput, scale)) in shard_rows.iter().enumerate() {
        let comma = if i + 1 < shard_rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"shards\": {shards}, \"publishers\": {shard_publishers}, \
             \"fanout\": {shard_fanout}, \"events_per_sec\": {throughput:.0}, \
             \"scale_vs_one_shard\": {scale:.3}}}{comma}"
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(json, "  \"speedup_total\": {speedup_total:.3},");
    let _ = writeln!(json, "  \"gate_fraction\": {GATE_FRACTION},");
    let _ = writeln!(json, "  \"fanout1_ratio\": {fanout1_ratio:.3},");
    let _ = writeln!(json, "  \"fanout1_floor\": {FANOUT1_FLOOR},");
    let _ = writeln!(json, "  \"payload_buffer_shared_across_fanout\": {shared},");
    let _ = writeln!(
        json,
        "  \"encode_arena_shared_across_batch\": {arena_shared}"
    );
    json.push_str("}\n");

    let path = std::path::Path::new("results");
    let target = if path.is_dir() {
        path.join("BENCH_perf.json")
    } else {
        std::path::PathBuf::from("BENCH_perf.json")
    };
    std::fs::write(&target, &json).expect("write BENCH_perf.json");
    eprintln!("wrote {}", target.display());

    if !shared {
        eprintln!("FAIL: fan-out did not share one payload buffer");
        std::process::exit(1);
    }
    if !arena_shared {
        eprintln!("FAIL: a coalesced batch did not share one encode arena");
        std::process::exit(1);
    }
    if fanout1_ratio < FANOUT1_FLOOR {
        eprintln!(
            "FAIL: fan-out-1 ratio {fanout1_ratio:.2}x fell below the {FANOUT1_FLOOR}x floor \
             (the batched hot path must amortise the per-publish cost a single subscriber \
             cannot; losing here is a real regression)"
        );
        std::process::exit(1);
    }
    if let Some((committed, committed_scale)) = committed_speedup {
        let like_for_like = committed_scale == events_each as u64;
        let fraction = if like_for_like {
            GATE_FRACTION
        } else {
            eprintln!(
                "gate: committed baseline ran {committed_scale} events/publisher, this run \
                 {events_each} — scale mismatch, gating at the relaxed \
                 {SCALE_MISMATCH_GATE_FRACTION} fraction"
            );
            SCALE_MISMATCH_GATE_FRACTION
        };
        let floor = committed * fraction;
        if speedup_total < floor {
            eprintln!(
                "FAIL: speedup {speedup_total:.2}x below {fraction} × committed \
                 {committed:.2}x = {floor:.2}x"
            );
            std::process::exit(1);
        }
        eprintln!("gate ok: {speedup_total:.2}x ≥ {fraction} × {committed:.2}x");
    }
}

/// One sweep cell on the baseline arm; returns events/second.
fn measure_locked(publishers: usize, fanout: usize, events_each: usize) -> f64 {
    let bus = Arc::new(LockedBus::new(EngineKind::FastForward));
    let sinks: Vec<Arc<CountingSink>> = (0..fanout)
        .map(|i| {
            let sink = Arc::new(CountingSink::default());
            bus.subscribe(
                i as u64,
                ServiceId::from_raw(0x100 + i as u64),
                Filter::for_type(EVENT_TYPE),
                Arc::clone(&sink),
            );
            sink
        })
        .collect();
    let barrier = Arc::new(Barrier::new(publishers + 1));
    // The scope closure returns the Instant taken at barrier release;
    // `scope` itself returns only after every publisher joined, so the
    // elapsed time spans exactly the publishing work.
    let started = {
        let bus = &bus;
        let barrier = &barrier;
        std::thread::scope(|scope| {
            for p in 0..publishers {
                scope.spawn(move || {
                    let event = bench_event(p as u64);
                    barrier.wait();
                    for _ in 0..events_each {
                        bus.publish(&event);
                    }
                });
            }
            barrier.wait();
            Instant::now()
        })
    };
    let secs = started.elapsed().as_secs_f64();
    let expected = (publishers * events_each * fanout) as u64;
    assert_eq!(
        total_delivered(&sinks),
        expected,
        "baseline arm dropped deliveries"
    );
    (publishers * events_each) as f64 / secs
}

/// One sweep cell on the snapshot arm; returns events/second.
fn measure_snapshot(publishers: usize, fanout: usize, events_each: usize) -> f64 {
    let bus = Arc::new(EventBus::new(EngineKind::FastForward));
    let sinks: Vec<Arc<CountingSink>> = (0..fanout)
        .map(|i| {
            let sink = Arc::new(CountingSink::default());
            bus.subscribe(
                ServiceId::from_raw(0x100 + i as u64),
                Filter::for_type(EVENT_TYPE),
                Arc::clone(&sink) as Arc<dyn EventSink>,
            )
            .expect("subscribe");
            sink
        })
        .collect();
    let barrier = Arc::new(Barrier::new(publishers + 1));
    let started = {
        let bus = &bus;
        let barrier = &barrier;
        std::thread::scope(|scope| {
            for p in 0..publishers {
                scope.spawn(move || {
                    let event = bench_event(p as u64);
                    barrier.wait();
                    for _ in 0..events_each {
                        bus.publish(event.clone()).expect("publish");
                    }
                });
            }
            barrier.wait();
            Instant::now()
        })
    };
    let secs = started.elapsed().as_secs_f64();
    let expected = (publishers * events_each * fanout) as u64;
    assert_eq!(
        total_delivered(&sinks),
        expected,
        "snapshot arm dropped deliveries"
    );
    (publishers * events_each) as f64 / secs
}

/// One sweep cell on the batched snapshot arm: the same publishers and
/// subscriptions, but each thread publishes bursts of [`PUBLISH_BATCH`]
/// events through [`EventBus::publish_batch`]; returns events/second.
fn measure_batched(publishers: usize, fanout: usize, events_each: usize) -> f64 {
    let bus = Arc::new(EventBus::new(EngineKind::FastForward));
    let sinks: Vec<Arc<CountingSink>> = (0..fanout)
        .map(|i| {
            let sink = Arc::new(CountingSink::default());
            bus.subscribe(
                ServiceId::from_raw(0x100 + i as u64),
                Filter::for_type(EVENT_TYPE),
                Arc::clone(&sink) as Arc<dyn EventSink>,
            )
            .expect("subscribe");
            sink
        })
        .collect();
    let barrier = Arc::new(Barrier::new(publishers + 1));
    let started = {
        let bus = &bus;
        let barrier = &barrier;
        std::thread::scope(|scope| {
            for p in 0..publishers {
                scope.spawn(move || {
                    let event = bench_event(p as u64);
                    let burst: Vec<Event> = (0..PUBLISH_BATCH).map(|_| event.clone()).collect();
                    barrier.wait();
                    let mut left = events_each;
                    while left > 0 {
                        let n = left.min(PUBLISH_BATCH);
                        bus.publish_batch(&burst[..n]).expect("publish batch");
                        left -= n;
                    }
                });
            }
            barrier.wait();
            Instant::now()
        })
    };
    let secs = started.elapsed().as_secs_f64();
    let expected = (publishers * events_each * fanout) as u64;
    assert_eq!(
        total_delivered(&sinks),
        expected,
        "batched arm dropped deliveries"
    );
    (publishers * events_each) as f64 / secs
}

/// One sharded sweep cell: `publishers` threads pushing through their
/// pinned [`smc_core::ShardPublisher`] handles into a `shards`-worker
/// [`ShardedBus`]; returns events/second including the final flush.
fn measure_sharded(shards: usize, publishers: usize, fanout: usize, events_each: usize) -> f64 {
    let bus = Arc::new(EventBus::new(EngineKind::FastForward));
    let sinks: Vec<Arc<CountingSink>> = (0..fanout)
        .map(|i| {
            let sink = Arc::new(CountingSink::default());
            bus.subscribe(
                ServiceId::from_raw(0x100 + i as u64),
                Filter::for_type(EVENT_TYPE),
                Arc::clone(&sink) as Arc<dyn EventSink>,
            )
            .expect("subscribe");
            sink
        })
        .collect();
    let sharded = ShardedBus::with_config(
        Arc::clone(&bus),
        ShardConfig {
            shards,
            ring_capacity: 2048,
            max_batch: PUBLISH_BATCH,
        },
    );
    let barrier = Arc::new(Barrier::new(publishers + 1));
    let started = {
        let barrier = &barrier;
        std::thread::scope(|scope| {
            for p in 0..publishers {
                // Publisher ids 0..publishers spread round-robin over
                // the shards (shard = id % shards).
                let mut handle = sharded.publisher(ServiceId::from_raw(0x9000 + p as u64));
                scope.spawn(move || {
                    let event = bench_event(p as u64);
                    barrier.wait();
                    for _ in 0..events_each {
                        handle.publish(event.clone()).expect("sharded publish");
                    }
                });
            }
            barrier.wait();
            Instant::now()
        })
    };
    sharded.flush();
    let secs = started.elapsed().as_secs_f64();
    let expected = (publishers * events_each * fanout) as u64;
    assert_eq!(
        total_delivered(&sinks),
        expected,
        "sharded arm dropped deliveries"
    );
    (publishers * events_each) as f64 / secs
}

/// One sweep cell's wall-clock stage attribution on the snapshot arm:
/// a separate, traced pass over `events_each` events per publisher
/// (distinct seqs, so every publish is its own journey), folded through
/// [`CriticalPath`]. Published→Matched lands in "match" (snapshot load
/// plus match), Matched→Delivered in "deliver" (the shared encode plus
/// per-subscriber delivery) — at fan-out 1 the unamortised encode shows
/// up here, which is exactly the 0.70–0.94× gap's home.
fn attribute_snapshot(publishers: usize, fanout: usize, events_each: usize) -> Vec<StageRow> {
    let capacity = publishers * events_each * (fanout + 2) + 64;
    let ring = Arc::new(TraceSink::with_capacity(capacity));
    let tracer = Tracer::new(Arc::clone(&ring), system_clock());
    let bus = Arc::new(EventBus::new(EngineKind::FastForward));
    bus.set_tracer(tracer.clone());
    for i in 0..fanout {
        bus.subscribe(
            ServiceId::from_raw(0x100 + i as u64),
            Filter::for_type(EVENT_TYPE),
            Arc::new(AttributingSink {
                tracer: tracer.clone(),
            }) as Arc<dyn EventSink>,
        )
        .expect("subscribe");
    }
    let barrier = Arc::new(Barrier::new(publishers + 1));
    {
        let bus = &bus;
        let barrier = &barrier;
        std::thread::scope(|scope| {
            for p in 0..publishers {
                scope.spawn(move || {
                    barrier.wait();
                    for seq in 1..=events_each {
                        let event = Event::builder(EVENT_TYPE)
                            .publisher(ServiceId::from_raw(0x9000 + p as u64))
                            .seq(seq as u64)
                            .attr("bpm", 120i64)
                            .payload(vec![0xEE; 64])
                            .build();
                        bus.publish(event).expect("publish");
                    }
                });
            }
            barrier.wait();
        });
    }
    let mut cp = CriticalPath::new();
    cp.fold_window(&ring.records());
    cp.table()
}

/// Retains every delivered event (as a proxy queue would) and proves the
/// payload buffer is the publisher's own, shared across the whole
/// fan-out — the zero-copy claim.
fn payload_sharing_proof() -> bool {
    #[derive(Default)]
    struct RetainingSink {
        events: Mutex<Vec<Event>>,
    }
    impl EventSink for RetainingSink {
        fn deliver(&self, event: &Event) -> Result<()> {
            self.events.lock().push(event.clone());
            Ok(())
        }
    }
    let bus = EventBus::new(EngineKind::FastForward);
    let sinks: Vec<Arc<RetainingSink>> = (0..32)
        .map(|i| {
            let sink = Arc::new(RetainingSink::default());
            bus.subscribe(
                ServiceId::from_raw(0x100 + i as u64),
                Filter::for_type(EVENT_TYPE),
                Arc::clone(&sink) as Arc<dyn EventSink>,
            )
            .expect("subscribe");
            sink
        })
        .collect();
    let event = bench_event(0);
    let original = event.payload_shared().clone();
    bus.publish(event).expect("publish");
    sinks.iter().all(|s| {
        let events = s.events.lock();
        events.len() == 1 && events[0].payload_shared().ptr_eq(&original)
    })
}

/// Proves one coalesced publish encodes the whole burst into a single
/// arena: every frame's wire bytes, across every subscriber, are slices
/// of the same backing allocation ([`SharedBytes::same_buffer`]).
///
/// [`SharedBytes::same_buffer`]: smc_types::SharedBytes::same_buffer
fn arena_sharing_proof() -> bool {
    use smc_types::SharedBytes;

    #[derive(Default)]
    struct EncodedSink {
        frames: Mutex<Vec<SharedBytes>>,
    }
    impl EventSink for EncodedSink {
        fn deliver(&self, _event: &Event) -> Result<()> {
            Ok(())
        }
        fn deliver_frame(&self, frame: &DeliveryFrame<'_>) -> Result<()> {
            self.frames.lock().push(frame.encoded());
            Ok(())
        }
        fn prefers_encoded(&self) -> bool {
            true
        }
    }
    let bus = EventBus::new(EngineKind::FastForward);
    let sinks: Vec<Arc<EncodedSink>> = (0..4)
        .map(|i| {
            let sink = Arc::new(EncodedSink::default());
            bus.subscribe(
                ServiceId::from_raw(0x100 + i as u64),
                Filter::for_type(EVENT_TYPE),
                Arc::clone(&sink) as Arc<dyn EventSink>,
            )
            .expect("subscribe");
            sink
        })
        .collect();
    let burst: Vec<Event> = (0..8).map(|p| bench_event(p as u64)).collect();
    bus.publish_batch(&burst).expect("publish batch");
    let first = sinks[0].frames.lock().first().cloned();
    let Some(first) = first else { return false };
    sinks.iter().all(|s| {
        let frames = s.frames.lock();
        frames.len() == 8 && frames.iter().all(|f| SharedBytes::same_buffer(f, &first))
    })
}
