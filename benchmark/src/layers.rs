//! The per-layer half of the ledger: spans recorded from outside, around
//! the public functions of each layer, on the workload's own events and
//! subscription set. Every workload runs every measurement, so a layer
//! that is *not* on a workload's path still has a number to compare its
//! end-to-end cost against.
//!
//! Each span carries two clock reads (~50 ns) of its own; that matters
//! only for the sub-microsecond calls (`policy.check`, `frame.encode`).

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use smc_core::{DeliveryFrame, EventBus, EventSink, PassthroughCodec, Proxy};
use smc_match::{EngineKind, MatchScratch};
use smc_policy::{ehealth_baseline, ActionClass, PolicyService};
use smc_transport::frame::encode_data_frame;
use smc_transport::{
    Frame, LinkConfig, ReliableChannel, SimNetwork, Transport, UdpTransport, FRAME_HEADER_LEN,
};
use smc_types::codec::{from_bytes, to_bytes};
use smc_types::{
    Event, ManualClock, Packet, ServiceId, ServiceInfo, SharedClock, Subscription, SubscriptionId,
    TraceId, WalRecord,
};
use smc_wal::{FileBackend, MemBackend, Wal, WalBackend, WalConfig, CHAN_BUS};

use crate::bus::{FrameSink, Seen};
use crate::cell::reliable_config;
use crate::gen::{bus_subscriber, Inputs, BUS_PUBLISHER, BUS_SUBSCRIBERS, EVENT_TYPE};
use crate::span::SpanLog;
use crate::TempDir;

/// Each measurement runs at least this often (an fsync is slow) …
const MIN_CALLS: u64 = 20;
/// … and at most this often (so the span log holds every layer).
const MAX_CALLS: u64 = 4000;
/// How many timed loops [`measure`] runs; each gets an equal time slice.
const SLICES: u32 = 12;

/// Counts taken alongside the spans.
#[derive(Debug, Default)]
pub struct LayerCounts {
    /// Encoded size of one `Packet::Publish`, bytes.
    pub codec_bytes_per_event: f64,
    /// Mean distinct subscribers the fast-forward engine selected.
    pub matched_per_event: f64,
}

/// Calls `step(i)` until `slice` is spent, within the call-count limits.
fn repeat(slice: Duration, mut step: impl FnMut(u64) -> Result<(), String>) -> Result<(), String> {
    let end = Instant::now() + slice;
    let mut i = 0;
    while i < MIN_CALLS || (i < MAX_CALLS && Instant::now() < end) {
        step(i)?;
        i += 1;
    }
    Ok(())
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Times every layer on `inputs`, spending about `budget` in total.
/// `datagram_max` is the workload's link MTU (fragments are cut to it).
pub fn measure(
    inputs: &Inputs,
    datagram_max: usize,
    budget: Duration,
    log: &mut SpanLog,
) -> Result<LayerCounts, String> {
    let slice = budget / SLICES;
    let events: Vec<Event> = inputs
        .events
        .iter()
        .zip(1..)
        .map(|(e, seq)| {
            let mut e = e.clone();
            e.stamp(BUS_PUBLISHER, seq, 0);
            e
        })
        .collect();
    let pick = |i: u64| i as usize % events.len();
    // A cell workload's one subscriber has no id until it joins.
    let subs: Vec<(ServiceId, _)> = inputs
        .subs
        .iter()
        .map(|(s, f)| (if s.is_nil() { bus_subscriber(0) } else { *s }, f.clone()))
        .collect();
    let mut counts = LayerCounts::default();

    // --- types: the codec -------------------------------------------------
    let packets: Vec<Packet> = events.iter().cloned().map(Packet::publish).collect();
    let encoded: Vec<Vec<u8>> = packets.iter().map(to_bytes).collect();
    counts.codec_bytes_per_event =
        encoded.iter().map(Vec::len).sum::<usize>() as f64 / encoded.len() as f64;
    repeat(slice, |i| {
        let k = pick(i);
        black_box(log.time("types.codec.encode", i, || to_bytes(&packets[k])));
        log.time("types.codec.decode", i, || {
            from_bytes::<Packet>(&encoded[k])
        })
        .map(|_| ())
        .map_err(err)
    })?;

    // --- match: both engines the paper compares, and the control path ----
    let mut scratch = MatchScratch::new();
    let mut out = Vec::new();
    let mut fastforward = None;
    for (kind, span) in [
        (EngineKind::FastForward, "match.fastforward.match"),
        (EngineKind::Siena, "match.siena.match"),
    ] {
        let mut engine = kind.build();
        for (id, (subscriber, filter)) in (1..).zip(&subs) {
            engine
                .subscribe(Subscription::new(
                    SubscriptionId(id),
                    *subscriber,
                    filter.clone(),
                ))
                .map_err(err)?;
        }
        let snapshot = engine.snapshot();
        let (mut matched, mut calls) = (0, 0);
        repeat(slice, |i| {
            log.time(span, i, || {
                snapshot.matching_subscribers_into(&events[pick(i)], &mut scratch, &mut out);
            });
            matched += out.len();
            calls += 1;
            Ok(())
        })?;
        if kind == EngineKind::FastForward {
            counts.matched_per_event = matched as f64 / calls as f64;
            fastforward = Some(engine);
        }
    }
    let mut engine = fastforward.expect("the loop above built it");
    repeat(slice, |i| {
        let id = SubscriptionId(1 + i % subs.len() as u64);
        let sub = log
            .time("match.unsubscribe", i, || engine.unsubscribe(id))
            .map_err(err)?;
        log.time("match.subscribe", i, || engine.subscribe(sub))
            .map_err(err)
    })?;

    // --- core: the bus with frame-taking sinks, and a proxy --------------
    let bus = EventBus::new(EngineKind::FastForward);
    let seen = Arc::new(Seen::default());
    let sinks: Vec<Arc<dyn EventSink>> = (0..BUS_SUBSCRIBERS)
        .map(|i| FrameSink::shared(i, &seen))
        .collect();
    let sink_of = |s: ServiceId| Arc::clone(&sinks[(s.raw() - bus_subscriber(0).raw()) as usize]);
    let mut ids = Vec::with_capacity(subs.len());
    for (subscriber, filter) in &subs {
        ids.push(
            bus.subscribe(*subscriber, filter.clone(), sink_of(*subscriber))
                .map_err(err)?,
        );
    }
    repeat(slice, |i| {
        let event = events[pick(i)].clone();
        log.time("core.bus.publish", i, || bus.publish(event))
            .map(|_| ())
            .map_err(err)
    })?;
    repeat(slice, |i| {
        let k = i as usize % subs.len();
        let (subscriber, filter) = subs[k].clone();
        log.time("core.bus.unsubscribe", i, || bus.unsubscribe(ids[k]))
            .map_err(err)?;
        ids[k] = log
            .time("core.bus.subscribe", i, || {
                bus.subscribe(subscriber, filter, sink_of(subscriber))
            })
            .map_err(err)?;
        Ok(())
    })?;

    // --- transport: a step-driven reliable pair on a virtual-time link ---
    // The manual clock never advances, so nothing is ever due for
    // retransmission; the ideal link hands datagrams over synchronously.
    let clock: SharedClock = Arc::new(ManualClock::new());
    let net = SimNetwork::with_clock(LinkConfig::ideal(), 1, Arc::clone(&clock));
    let channel = || {
        ReliableChannel::with_clock(
            Arc::new(net.endpoint()),
            reliable_config(),
            Arc::clone(&clock),
        )
    };
    let (a, b) = (channel(), channel());
    let drain = |a: &ReliableChannel, b: &ReliableChannel| {
        b.step();
        while b.try_recv().is_some() {}
        a.step();
    };
    let proxy = Proxy::new(
        ServiceInfo::new(b.local_id(), "monitor.station"),
        Box::new(PassthroughCodec),
        Arc::clone(&a),
    );
    repeat(slice, |i| {
        let frame = DeliveryFrame::new(&events[pick(i)], TraceId::NONE);
        log.time("core.proxy.deliver", i, || proxy.deliver_frame(&frame))
            .map_err(err)?;
        drain(&a, &b);
        Ok(())
    })?;
    // Event-sized messages are the named metrics; ack-sized ones (a
    // `PublishAck`) feed only the residual model, under `.small` names.
    let shared: Vec<Arc<[u8]>> = encoded.iter().map(|e| Arc::from(e.as_slice())).collect();
    let small: Arc<[u8]> = Arc::from(to_bytes(&Packet::PublishAck(events[0].id())));
    let mut reliable = |names: [&'static str; 3], payload_of: &dyn Fn(u64) -> Arc<[u8]>| {
        repeat(slice / 2, |i| {
            let payload = payload_of(i);
            log.time(names[0], i, || a.send(b.local_id(), payload))
                .map_err(err)?;
            log.time(names[1], i, || {
                b.step();
                b.try_recv()
            })
            .ok_or("reliable pair: nothing arrived")?;
            log.time(names[2], i, || a.step());
            Ok(())
        })
    };
    reliable(
        [
            "transport.reliable.send",
            "transport.reliable.recv",
            "transport.reliable.ack",
        ],
        &|i| Arc::clone(&shared[pick(i)]),
    )?;
    reliable(
        [
            "transport.reliable.send.small",
            "transport.reliable.recv.small",
            "transport.reliable.ack.small",
        ],
        &|_| Arc::clone(&small),
    )?;
    net.shutdown();

    // One datagram as the workload's link carries it: a data frame cut to
    // the MTU.
    let fragment = |k: usize| {
        let body = &encoded[k];
        &body[..body.len().min(datagram_max - FRAME_HEADER_LEN)]
    };
    let frames: Vec<Vec<u8>> = (0..encoded.len())
        .map(|k| encode_data_frame(1, k as u64 + 1, 0, 1, fragment(k)))
        .collect();
    repeat(slice, |i| {
        let k = pick(i);
        black_box(log.time("transport.frame.encode", i, || {
            encode_data_frame(1, i, 0, 1, fragment(k))
        }));
        log.time("transport.frame.decode", i, || {
            from_bytes::<Frame>(&frames[k])
        })
        .map(|_| ())
        .map_err(err)
    })?;
    let udp = (
        UdpTransport::bind().map_err(err)?,
        UdpTransport::bind().map_err(err)?,
    );
    let mem_net = SimNetwork::with_seed(LinkConfig::ideal(), 1);
    let mem = (mem_net.endpoint(), mem_net.endpoint());
    let links: [(&str, &dyn Transport, &dyn Transport); 2] = [
        ("transport.udp.send_recv", &udp.0, &udp.1),
        ("transport.mem.send_recv", &mem.0, &mem.1),
    ];
    for (span, from, to) in links {
        repeat(slice / 2, |i| {
            log.time(span, i, || {
                from.send(to.local_id(), &frames[pick(i)])?;
                to.recv(Some(Duration::from_secs(1)))
            })
            .map(|_| ())
            .map_err(err)
        })?;
    }
    mem_net.shutdown();

    // --- wal: one retained-delivery record per event, fsync'd or not -----
    let dir = TempDir::fresh("wal-layer").map_err(err)?;
    let backends: [(&str, Arc<dyn WalBackend>); 2] = [
        (
            "wal.append.file",
            Arc::new(FileBackend::open(&dir.0).map_err(err)?),
        ),
        ("wal.append.mem", Arc::new(MemBackend::new())),
    ];
    for (span, backend) in backends {
        let (wal, _) = Wal::open(backend, WalConfig::default()).map_err(err)?;
        repeat(slice / 2, |i| {
            let record = WalRecord::RxDeliver {
                chan: CHAN_BUS,
                peer: BUS_PUBLISHER,
                epoch: 1,
                seq: i + 1,
                payload: encoded[pick(i)].clone(),
            };
            log.time(span, i, || wal.append(&record)).map_err(err)
        })?;
    }

    // --- policy: what the cell asks per publish --------------------------
    let policy = PolicyService::new();
    for p in ehealth_baseline() {
        policy.add(p).map_err(err)?;
    }
    repeat(slice, |i| {
        black_box(log.time("policy.check", i, || {
            policy.check("sensor", ActionClass::Publish, EVENT_TYPE)
        }));
        black_box(log.time("policy.on_event", i, || policy.on_event(&events[pick(i)])));
        Ok(())
    })?;
    Ok(counts)
}
