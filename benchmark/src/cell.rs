//! The cell worlds: a real, threaded `SmcCell` with one publisher and one
//! subscriber `RemoteClient`, driven from one thread the way Fig 4 drove
//! the prototype — over UDP loopback, over the in-memory link, or durable
//! (journalled channels and the WAL).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use smc_core::{RemoteClient, SmcCell, SmcConfig};
use smc_discovery::{AgentConfig, DiscoveryConfig};
use smc_match::EngineKind;
use smc_policy::ehealth_baseline;
use smc_telemetry::{Hop, Tracer};
use smc_transport::{
    Datagram, LinkConfig, ReliableChannel, ReliableConfig, SimNetwork, Transport, UdpTransport,
};
use smc_types::{Event, Result as SmcResult, ServiceId, ServiceInfo, TraceId};
use smc_wal::{MemBackend, WalBackend};

use crate::check::{Stream, Tally};
use crate::gen::Inputs;
use crate::span::SpanLog;
use crate::world::World;

/// How long any single blocking step may take before the run is declared
/// stalled (and fails) instead of hanging.
const STEP_TIMEOUT: Duration = Duration::from_secs(10);

/// Reliability tuning for every endpoint: a lossless run must never
/// retransmit, so the RTO sits far above any queueing delay a pipelined
/// burst can see.
pub fn reliable_config() -> ReliableConfig {
    ReliableConfig {
        initial_rto: Duration::from_secs(3),
        max_rto: Duration::from_secs(6),
        poll_interval: Duration::from_millis(5),
        window: 64,
        ..ReliableConfig::default()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Link {
    /// Real UDP sockets on loopback (`UdpTransport::bind`).
    Udp,
    /// The in-memory link at MTU 1400 (`LinkConfig::ideal()`).
    Mem,
}

/// What distinguishes one cell workload from another.
#[derive(Debug, Clone, Copy)]
pub struct CellSpec {
    pub link: Link,
    /// `SmcCell::start_durable`, the WAL on a `MemBackend`: every WAL code
    /// path and journalled channel, no device. (A file WAL's time here is
    /// ≈85 % `fsync` on a shared virtual disk, which moves between 750 and
    /// 1250 ev/s for minutes at a time; its cost is reported per layer
    /// instead.) The log is checkpointed between windows, as an owner
    /// would, so it does not grow without limit.
    pub durable: bool,
    /// Events outstanding in a throughput window.
    pub w: usize,
}

/// Datagrams and bytes handed to the bus-path transports.
#[derive(Debug, Default)]
pub struct WireCounts {
    pub datagrams: AtomicU64,
    pub bytes: AtomicU64,
}

/// A [`Transport`] that counts what is sent through it.
#[derive(Debug)]
struct Counted {
    inner: Arc<dyn Transport>,
    counts: Arc<WireCounts>,
}

impl Transport for Counted {
    fn local_id(&self) -> ServiceId {
        self.inner.local_id()
    }
    fn send(&self, to: ServiceId, payload: &[u8]) -> SmcResult<()> {
        // Relaxed: statistics only.
        self.counts.datagrams.fetch_add(1, Ordering::Relaxed);
        self.counts
            .bytes
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        self.inner.send(to, payload)
    }
    fn broadcast(&self, payload: &[u8]) -> SmcResult<()> {
        self.inner.broadcast(payload)
    }
    fn recv(&self, timeout: Option<Duration>) -> SmcResult<Datagram> {
        self.inner.recv(timeout)
    }
    fn max_datagram(&self) -> usize {
        self.inner.max_datagram()
    }
    fn close(&self) {
        self.inner.close();
    }
}

/// Appends, bytes and fsyncs the cell asked of its WAL backend.
#[derive(Debug, Default)]
pub struct WalCounts {
    pub appends: AtomicU64,
    pub bytes: AtomicU64,
    pub fsyncs: AtomicU64,
}

/// A [`WalBackend`] that counts what is written through it. (The cell
/// keeps its `Wal` — and so `WalMetrics` — private; the backend trait is
/// the public seam.)
#[derive(Debug)]
struct CountedBackend {
    inner: MemBackend,
    counts: Arc<WalCounts>,
}

impl WalBackend for CountedBackend {
    fn segments(&self) -> SmcResult<Vec<u64>> {
        self.inner.segments()
    }
    fn read_segment(&self, id: u64) -> SmcResult<Vec<u8>> {
        self.inner.read_segment(id)
    }
    fn create_segment(&self, id: u64) -> SmcResult<()> {
        self.inner.create_segment(id)
    }
    fn append(&self, id: u64, data: &[u8]) -> SmcResult<()> {
        self.counts.appends.fetch_add(1, Ordering::Relaxed);
        self.counts
            .bytes
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.inner.append(id, data)
    }
    fn sync(&self, id: u64) -> SmcResult<()> {
        self.counts.fsyncs.fetch_add(1, Ordering::Relaxed);
        self.inner.sync(id)
    }
    fn remove_segment(&self, id: u64) -> SmcResult<()> {
        self.inner.remove_segment(id)
    }
    fn read_snapshot(&self) -> SmcResult<Option<Vec<u8>>> {
        self.inner.read_snapshot()
    }
    fn write_snapshot(&self, data: &[u8]) -> SmcResult<()> {
        self.inner.write_snapshot(data)
    }
}

pub struct CellWorld {
    spec: CellSpec,
    cell: Arc<SmcCell>,
    publisher: Arc<RemoteClient>,
    subscriber: Arc<RemoteClient>,
    channels: [Arc<ReliableChannel>; 2],
    net: Option<SimNetwork>,
    pub wire: Arc<WireCounts>,
    pub wal: Arc<WalCounts>,
    tracer: Tracer,
    pool: Vec<Event>,
    published: u64,
    stream: Stream,
    pub tally: Tally,
    stalled: bool,
}

impl CellWorld {
    /// Builds the world: cell start, both joins, the subscription — and
    /// proves it by delivering one event. `log` gets a `discovery.join`
    /// span per `RemoteClient::connect`.
    pub fn build(
        spec: CellSpec,
        inputs: &Inputs,
        seed: u64,
        tracer: Tracer,
        log: &mut SpanLog,
    ) -> Result<CellWorld, String> {
        let wire = Arc::new(WireCounts::default());
        let counted = |t: Arc<dyn Transport>| -> Arc<dyn Transport> {
            Arc::new(Counted {
                inner: t,
                counts: Arc::clone(&wire),
            })
        };
        // Four endpoints: bus, discovery, publisher, subscriber. Only the
        // three on the event path are counted; beacons are not events.
        let (endpoints, discovery, net): ([Arc<dyn Transport>; 3], Arc<dyn Transport>, _) =
            match spec.link {
                Link::Udp => {
                    let bind = || {
                        UdpTransport::bind()
                            .map(Arc::new)
                            .map_err(|e| e.to_string())
                    };
                    let (bus, disco, publ, subs) = (bind()?, bind()?, bind()?, bind()?);
                    // Loopback has no broadcast: beacons go to registered peers.
                    disco.add_broadcast_peer(publ.local_id());
                    disco.add_broadcast_peer(subs.local_id());
                    ([bus, publ, subs], disco, None)
                }
                Link::Mem => {
                    let net = SimNetwork::with_seed(LinkConfig::ideal(), seed);
                    let ep = || -> Arc<dyn Transport> { Arc::new(net.endpoint()) };
                    ([ep(), ep(), ep()], ep(), Some(net))
                }
            };
        let [bus_t, pub_t, sub_t] = endpoints.map(counted);

        let config = SmcConfig {
            engine: EngineKind::FastForward,
            discovery: DiscoveryConfig {
                beacon_interval: Duration::from_millis(25),
                // No lease traffic inside a run.
                lease: Duration::from_secs(600),
                grace: Duration::from_secs(600),
                ..DiscoveryConfig::default()
            },
            reliable: reliable_config(),
            tracer: tracer.clone(),
            ..SmcConfig::default()
        };
        let wal = Arc::new(WalCounts::default());
        let cell = if spec.durable {
            let backend = CountedBackend {
                inner: MemBackend::new(),
                counts: Arc::clone(&wal),
            };
            SmcCell::start_durable(bus_t, discovery, config, Arc::new(backend))
                .map_err(|e| e.to_string())?
        } else {
            SmcCell::start(bus_t, discovery, config)
        };
        for policy in ehealth_baseline() {
            cell.policy().add(policy).map_err(|e| e.to_string())?;
        }

        let mut connect = |transport, device_type: &str, role: &str| {
            let channel = ReliableChannel::new(transport, reliable_config());
            let info = ServiceInfo::new(ServiceId::NIL, device_type).with_role(role);
            let client = log
                .time("discovery.join", 0, || {
                    RemoteClient::connect(
                        info,
                        Arc::clone(&channel),
                        AgentConfig::default(),
                        STEP_TIMEOUT,
                    )
                })
                .map_err(|e| format!("{device_type} join: {e}"))?;
            Ok::<_, String>((client, channel))
        };
        let (publisher, pub_chan) = connect(pub_t, "sensor.vitals", "sensor")?;
        let (subscriber, sub_chan) = connect(sub_t, "monitor.station", "manager")?;
        let (_, filter) = &inputs.subs[0];
        subscriber
            .subscribe(filter.clone(), STEP_TIMEOUT)
            .map_err(|e| format!("subscribe: {e}"))?;

        let mut world = CellWorld {
            spec,
            cell,
            stream: Stream::new(publisher.local_id()),
            publisher,
            subscriber,
            channels: [pub_chan, sub_chan],
            net,
            wire,
            wal,
            tracer,
            pool: inputs.events.clone(),
            published: 0,
            tally: Tally::default(),
            stalled: false,
        };
        world.publish_next(log);
        world.receive_one(log);
        if world.stalled || world.tally.failed > 0 {
            let notes = world.tally.notes.join("; ");
            world.shutdown();
            return Err(format!("first event was not delivered: {notes}"));
        }
        Ok(world)
    }

    /// Publishes the next pool event; the client call itself is a span, so
    /// what an enclosing span has left over is the driver's own share.
    fn publish_next(&mut self, log: &mut SpanLog) {
        let event = self.pool[self.published as usize % self.pool.len()].clone();
        self.published += 1;
        self.tally.attempted += 1;
        let sent = log.time("client.publish", self.published, || {
            self.publisher.publish_nowait(event)
        });
        if let Err(e) = sent {
            self.tally.fail(1, || format!("publish: {e}"));
        }
    }

    fn receive_one(&mut self, log: &mut SpanLog) {
        let next = self.stream.last_seq() + 1;
        let received = log.time("client.next_event", next, || {
            self.subscriber.next_event(STEP_TIMEOUT)
        });
        match received {
            Ok(event) => {
                // The journey's last hop, recorded where it ends (free
                // when the tracer is disabled).
                self.tracer.record(
                    TraceId::for_event(event.publisher(), event.seq()),
                    Hop::Delivered,
                );
                self.stream.accept(&event, &mut self.tally);
            }
            Err(e) => {
                self.stalled = true;
                self.tally.fail(1, || format!("next_event: {e}"));
            }
        }
    }

    /// Events published so far.
    pub fn published(&self) -> u64 {
        self.published
    }

    fn outstanding(&self) -> u64 {
        self.published - self.stream.last_seq()
    }

    /// Retransmissions seen at the two member channels: their own, plus
    /// duplicates they suppressed (how a cell-side retransmit shows here).
    pub fn retransmits(&self) -> u64 {
        self.channels
            .iter()
            .map(|c| {
                let s = c.stats();
                s.retransmits + s.duplicates_suppressed
            })
            .sum()
    }

    /// Drains, runs the end-of-run check and stops every thread.
    pub fn finish(mut self) -> Tally {
        self.settle();
        self.stream.finish(self.published, &mut self.tally);
        self.shutdown();
        std::mem::take(&mut self.tally)
    }

    fn shutdown(&self) {
        self.publisher.shutdown();
        self.subscriber.shutdown();
        self.cell.shutdown();
        if let Some(net) = &self.net {
            net.shutdown();
        }
    }
}

impl World for CellWorld {
    fn throughput(&mut self, until: Instant) -> u64 {
        // Spans are for the one-at-a-time windows only: per-event spans in
        // a closed loop would fill the log within a second.
        let quiet = &mut SpanLog::disabled();
        let mut delivered = 0;
        while !self.stalled {
            while self.outstanding() < self.spec.w as u64 {
                self.publish_next(quiet);
            }
            self.receive_one(quiet);
            delivered += u64::from(!self.stalled);
            if Instant::now() >= until {
                break;
            }
        }
        delivered
    }

    fn respond(&mut self, until: Instant, samples: &mut Vec<f64>, log: &mut SpanLog) {
        while !self.stalled {
            let start = Instant::now();
            if start >= until {
                break;
            }
            let whole = log.open("e2e.response", self.published + 1);
            self.publish_next(log);
            self.receive_one(log);
            log.close(whole);
            samples.push(start.elapsed().as_secs_f64() * 1e6);
        }
    }

    fn settle(&mut self) {
        let quiet = &mut SpanLog::disabled();
        while self.outstanding() > 0 && !self.stalled {
            self.receive_one(quiet);
        }
        // Between windows is where an owner would truncate the log; left
        // to grow, the in-memory WAL slows the cell by a third in 30 s.
        if self.spec.durable {
            if let Err(e) = self.cell.checkpoint() {
                self.tally.fail(1, || format!("checkpoint: {e}"));
            }
        }
    }

    fn stalled(&self) -> bool {
        self.stalled
    }
}
