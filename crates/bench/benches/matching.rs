//! Criterion microbenches: matching-engine cost per event, across
//! engines, subscription counts and payload sizes — the per-component
//! view behind Fig 4's end-to-end curves.

use std::cell::RefCell;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use smc_match::{EngineKind, MatchScratch, Matcher, RouteSnapshot};
use smc_types::{Event, Filter, Op, ServiceId, Subscription, SubscriptionId};

fn build_engine(kind: EngineKind, subs: usize) -> Box<dyn Matcher> {
    let mut engine = kind.build();
    for i in 0..subs {
        // A spread of realistic management filters.
        let filter = match i % 4 {
            0 => Filter::for_type("smc.sensor.reading").with(("bpm", Op::Gt, (50 + i) as i64)),
            1 => Filter::for_type("smc.alarm").with(("severity", Op::Ge, (i % 5) as i64)),
            2 => Filter::for_type("smc.sensor.reading").with((
                "sensor",
                Op::Eq,
                format!("sensor-{}", i % 8),
            )),
            _ => Filter::any().with(("member.device_type", Op::Prefix, "sensor.")),
        };
        engine
            .subscribe(Subscription::new(
                SubscriptionId(i as u64),
                ServiceId::from_raw(i as u64),
                filter,
            ))
            .expect("subscribe");
    }
    engine
}

fn event(payload: usize) -> Event {
    Event::builder("smc.sensor.reading")
        .attr("sensor", "sensor-3")
        .attr("bpm", 120i64)
        .publisher(ServiceId::from_raw(999))
        .seq(1)
        .payload(vec![0u8; payload])
        .build()
}

fn bench_engines_by_subs(c: &mut Criterion) {
    let mut group = c.benchmark_group("match_by_subscriptions");
    for &subs in &[4usize, 16, 64, 256] {
        for kind in EngineKind::ALL {
            let mut engine = build_engine(kind, subs);
            let ev = event(0);
            group.bench_with_input(BenchmarkId::new(kind.as_str(), subs), &subs, |b, _| {
                b.iter(|| engine.matching_subscribers(std::hint::black_box(&ev)))
            });
        }
    }
    group.finish();
}

fn bench_engines_by_payload(c: &mut Criterion) {
    let mut group = c.benchmark_group("match_by_payload");
    for &payload in &[0usize, 500, 2000, 5000] {
        for kind in [EngineKind::Siena, EngineKind::FastForward] {
            let mut engine = build_engine(kind, 16);
            let ev = event(payload);
            group.bench_with_input(
                BenchmarkId::new(kind.as_str(), payload),
                &payload,
                |b, _| b.iter(|| engine.matching_subscribers(std::hint::black_box(&ev))),
            );
        }
    }
    group.finish();
}

fn bench_subscribe_unsubscribe(c: &mut Criterion) {
    let mut group = c.benchmark_group("subscription_churn");
    for kind in EngineKind::ALL {
        group.bench_function(kind.as_str(), |b| {
            let mut engine = build_engine(kind, 64);
            let mut next = 1_000u64;
            b.iter(|| {
                let id = SubscriptionId(next);
                next += 1;
                engine
                    .subscribe(Subscription::new(
                        id,
                        ServiceId::from_raw(1),
                        Filter::for_type("smc.alarm").with(("severity", Op::Ge, 3i64)),
                    ))
                    .expect("subscribe");
                engine.unsubscribe(id).expect("unsubscribe");
            });
        });
    }
    group.finish();
}

const WARDS: usize = 16;
const KINDS: [&str; 7] = ["hr", "spo2", "bp.sys", "bp.dia", "temp", "resp", "ecg"];

/// Subscription `i` of a set of `of`.
type Shape = fn(usize, usize) -> Filter;

/// `bpm >= t` / `bpm <= t` with `t` from an even grid over 40..200, so a
/// set of `of` holds `of` distinct thresholds.
fn range_filter(i: usize, of: usize) -> Filter {
    let op = if i.is_multiple_of(2) { Op::Ge } else { Op::Le };
    let threshold = 40.0 + i as f64 * 160.0 / of as f64;
    Filter::for_type("smc.sensor.reading").with(("bpm", op, threshold))
}

/// The ledger's `ward_bus` shape: subscription `i` watches ward `i % 16`;
/// the first 16 nothing else, the rest one kind of reading over a
/// threshold.
fn ward_filter(i: usize, of: usize) -> Filter {
    let ward = Filter::for_type("smc.sensor.reading").with(("ward", Op::Eq, (i % WARDS) as i64));
    if i < WARDS {
        return ward;
    }
    let range = range_filter(i, of).constraints()[0].clone();
    ward.with(("kind", Op::Eq, KINDS[(i / WARDS) % KINDS.len()]))
        .with(range)
}

fn ward_event(i: usize) -> Event {
    Event::builder("smc.sensor.reading")
        .attr("ward", (i % WARDS) as i64)
        .attr("kind", KINDS[i * 5 % KINDS.len()])
        .attr("bpm", 40 + (i * 37 % 160) as i64)
        .publisher(ServiceId::from_raw(999))
        .seq(i as u64)
        .build()
}

/// An engine at a fixed size with its latest snapshot held, as the bus's
/// route table holds it: every control operation is followed by
/// `snapshot()`, so the next one finds every piece shared.
struct Churn {
    engine: Box<dyn Matcher>,
    held: Arc<dyn RouteSnapshot>,
    shape: Shape,
    ids: Vec<SubscriptionId>,
    next_id: u64,
    /// The slot the next operation removes or re-installs.
    slot: usize,
    slot_is_empty: bool,
}

impl Churn {
    fn new(shape: Shape, subs: usize) -> Self {
        let engine = EngineKind::FastForward.build();
        let mut churn = Churn {
            held: engine.snapshot(),
            engine,
            shape,
            ids: vec![SubscriptionId(0); subs],
            next_id: 0,
            slot: 0,
            slot_is_empty: true,
        };
        for _ in 0..subs {
            churn.subscribe();
        }
        churn
    }

    fn subscribe(&mut self) {
        let id = SubscriptionId(self.next_id);
        self.next_id += 1;
        let subscriber = ServiceId::from_raw(self.slot as u64 % 64);
        let filter = (self.shape)(self.slot, self.ids.len());
        self.engine
            .subscribe(Subscription::new(id, subscriber, filter))
            .expect("subscribe");
        self.held = self.engine.snapshot();
        self.ids[self.slot] = id;
        self.slot = (self.slot + 1) % self.ids.len();
        self.slot_is_empty = self.next_id < self.ids.len() as u64;
    }

    fn unsubscribe(&mut self) {
        self.engine
            .unsubscribe(self.ids[self.slot])
            .expect("unsubscribe");
        self.held = self.engine.snapshot();
        self.slot_is_empty = true;
    }
}

/// The layer figure at ward scale: a match against a snapshot, and each
/// control operation with the `snapshot()` the bus takes after it, for a
/// set that is clustered (ward-shaped) and one that is counted
/// (range-only).
fn bench_at_ward_scale(c: &mut Criterion) {
    let shapes: [(&str, Shape); 2] = [("ward_shaped", ward_filter), ("range_only", range_filter)];
    for (name, shape) in shapes {
        let mut group = c.benchmark_group(name);
        for &subs in &[256usize, 2_000, 16_000] {
            let churn = RefCell::new(Churn::new(shape, subs));
            let snapshot = Arc::clone(&churn.borrow().held);
            let events: Vec<Event> = (0..64).map(ward_event).collect();
            let (mut scratch, mut out, mut i) = (MatchScratch::new(), Vec::new(), 0usize);
            group.bench_with_input(BenchmarkId::new("match_snapshot", subs), &subs, |b, _| {
                b.iter(|| {
                    i += 1;
                    snapshot.matching_subscribers_into(&events[i % 64], &mut scratch, &mut out);
                    out.len()
                })
            });
            group.bench_with_input(
                BenchmarkId::new("subscribe+snapshot", subs),
                &subs,
                |b, _| {
                    b.iter_batched(
                        || {
                            if !churn.borrow().slot_is_empty {
                                churn.borrow_mut().unsubscribe();
                            }
                        },
                        |()| churn.borrow_mut().subscribe(),
                        BatchSize::PerIteration,
                    )
                },
            );
            group.bench_with_input(
                BenchmarkId::new("unsubscribe+snapshot", subs),
                &subs,
                |b, _| {
                    b.iter_batched(
                        || {
                            if churn.borrow().slot_is_empty {
                                churn.borrow_mut().subscribe();
                            }
                        },
                        |()| churn.borrow_mut().unsubscribe(),
                        BatchSize::PerIteration,
                    )
                },
            );
        }
        group.finish();
    }
}

criterion_group!(
    benches,
    bench_engines_by_subs,
    bench_engines_by_payload,
    bench_subscribe_unsubscribe,
    bench_at_ward_scale
);
criterion_main!(benches);
