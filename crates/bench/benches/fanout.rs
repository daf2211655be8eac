//! Criterion microbench for the publish hot path: one `publish` against
//! a pre-built subscription set, swept over fan-out width.
//!
//! Isolates the single-publish latency of the snapshot path — one atomic
//! route load, allocation-free matching, one shared encode. End-to-end
//! throughput is the ledger's job (`benchmark/`, workload `ward_bus`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use smc_core::{DeliveryFrame, EventBus, EventSink};
use smc_match::EngineKind;
use smc_types::{Event, Filter, Result, ServiceId};

#[derive(Default)]
struct CountingSink {
    delivered: AtomicU64,
}

impl EventSink for CountingSink {
    fn deliver(&self, _event: &Event) -> Result<()> {
        self.delivered.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn deliver_frame(&self, frame: &DeliveryFrame<'_>) -> Result<()> {
        // Touch the shared encoded buffer like a proxy enqueue would.
        let _ = frame.encoded();
        self.delivered.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

fn bench_event() -> Event {
    Event::builder("bench.reading")
        .publisher(ServiceId::from_raw(0x9000))
        .seq(1)
        .attr("bpm", 120i64)
        .payload(vec![0xEE; 64])
        .build()
}

fn publish_fanout(c: &mut Criterion) {
    let mut group = c.benchmark_group("publish_fanout");
    for fanout in [1usize, 8, 32, 128] {
        let bus = EventBus::new(EngineKind::FastForward);
        for i in 0..fanout {
            bus.subscribe(
                ServiceId::from_raw(0x100 + i as u64),
                Filter::for_type("bench.reading"),
                Arc::new(CountingSink::default()) as Arc<dyn EventSink>,
            )
            .expect("subscribe");
        }
        let event = bench_event();
        group.throughput(Throughput::Elements(fanout as u64));
        group.bench_with_input(BenchmarkId::from_parameter(fanout), &fanout, |b, _| {
            b.iter(|| bus.publish(event.clone()).expect("publish"));
        });
    }
    group.finish();
}

fn publish_unmatched(c: &mut Criterion) {
    // The cheapest possible publish: nothing matches. Measures the fixed
    // per-publish overhead of the snapshot load + match + metrics.
    let bus = EventBus::new(EngineKind::FastForward);
    for i in 0..32usize {
        bus.subscribe(
            ServiceId::from_raw(0x100 + i as u64),
            Filter::for_type("bench.other"),
            Arc::new(CountingSink::default()) as Arc<dyn EventSink>,
        )
        .expect("subscribe");
    }
    let event = bench_event();
    c.bench_function("publish_unmatched_32subs", |b| {
        b.iter(|| bus.publish(event.clone()).expect("publish"));
    });
}

criterion_group!(benches, publish_fanout, publish_unmatched);
criterion_main!(benches);
