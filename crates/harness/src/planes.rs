//! The optional planes a cell can carry — health, supervision (with its
//! peer plane) and telemetry — plus the telemetry observer they export
//! to. Each is state the world's tick loop steps when it is present and
//! skips when it is not.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use smc_health::{
    ComponentDown, DeliveryLatency, Detector, FlightRecorder, HealthConfig, HealthMonitor,
    HealthState, HealthTransition, MembershipFlap, PeerConfig, PeerSupervisor, QueueGrowth,
    RetransmitStorm, ServiceRegistry, ServiceSpec, SloBurn, Supervisor, WalStall,
};
use smc_policy::{
    health_quench_policies, peer_repair_policies, supervision_policies,
    telemetry_quench_exemptions, Policy, PolicyService,
};
use smc_telemetry::{
    Counter, DeltaExporter, Gauge, Registry, Sample, SloConfig, SloTracker, WardRegistry,
};
use smc_transport::{Incoming, ReliableChannel};
use smc_types::{codec, episode_trace, Event, HopExport, ServiceId, TelemetryMsg, TraceId};
use smc_wal::{CHAN_SUPERVISION, CHAN_TELEMETRY};

use crate::cell::ComponentFlags;
use crate::world::{
    CellReport, Env, HealthOptions, HealthOutcome, SupervisionOptions, TelemetryPlaneOptions,
    TelemetryPlaneReport, TICK_MICROS,
};

/// A policy service loaded with one of the built-in policy sets.
fn policy_service(policies: impl IntoIterator<Item = Policy>) -> PolicyService {
    let service = PolicyService::new();
    for p in policies {
        service.add(p).expect("built-in policies are valid");
    }
    service
}

// ----------------------------------------------------------------------
// Health.
// ----------------------------------------------------------------------

/// The in-run self-observation stack: monitor, built-in obligations, and
/// the flight recorder, all stepped on the virtual timeline.
pub(crate) struct HealthRuntime {
    pub(crate) monitor: HealthMonitor,
    pub(crate) policy: PolicyService,
    pub(crate) recorder: FlightRecorder,
    pub(crate) transitions: Vec<HealthTransition>,
    pub(crate) quenches: Vec<(u64, ServiceId, bool)>,
    pub(crate) quench: bool,
    dump_path: Option<PathBuf>,
    pub(crate) hop_cursor: u64,
}

impl HealthRuntime {
    pub(crate) fn new(opts: HealthOptions) -> HealthRuntime {
        // The same detector suite `default_detectors` ships, except the
        // WAL-stall traffic reference is the harness's own publish
        // counter (the harness routes events itself, so the cell's
        // `smc_events_published_total` never moves here).
        let detectors: Vec<Box<dyn Detector>> = vec![
            Box::new(RetransmitStorm::default()),
            Box::new(QueueGrowth::default()),
            Box::new(WalStall::new(
                "smc_wal_records_appended_total",
                "smc_harness_published_total",
            )),
            Box::new(DeliveryLatency::default()),
            Box::new(MembershipFlap::default()),
        ];
        let policies = health_quench_policies()
            .into_iter()
            .chain(telemetry_quench_exemptions(
                opts.quench_exempt.iter().copied(),
            ));
        HealthRuntime {
            monitor: HealthMonitor::with_detectors(opts.config, detectors),
            policy: policy_service(policies),
            recorder: FlightRecorder::default(),
            transitions: Vec::new(),
            quenches: Vec::new(),
            quench: opts.quench,
            dump_path: opts.dump_path,
            hop_cursor: 0,
        }
    }

    /// The flight recorder's reason to exist: when the run ended badly
    /// (`dump_reason`), dump the black box for post-mortem before
    /// reporting.
    pub(crate) fn into_outcome(mut self, dump_reason: Option<&str>, at: u64) -> HealthOutcome {
        let mut dumped_to = None;
        if let (Some(path), Some(reason)) = (self.dump_path.take(), dump_reason) {
            self.recorder.note(at, reason);
            if self.recorder.dump_to(&path).is_ok() {
                dumped_to = Some(path);
            }
        }
        HealthOutcome {
            report: self.monitor.report(),
            transitions: self.transitions,
            quenches: self.quenches,
            recorder: self.recorder,
            dumped_to,
        }
    }
}

// ----------------------------------------------------------------------
// Supervision.
// ----------------------------------------------------------------------

/// An up/down gauge of the kind the component-down detector watches.
fn up_sample(name: &str, is_up: bool) -> Sample {
    let labels = [("component", name)];
    Sample::gauge("smc_component_up", "", &labels, u64::from(is_up))
}

/// The liveness gauges of a core's restartable components.
pub(crate) fn component_samples(flags: &ComponentFlags, core_up: bool) -> Vec<Sample> {
    vec![
        up_sample("discovery", core_up && !flags.discovery.down),
        up_sample("sink", core_up && !flags.sink.down),
    ]
}

/// The read-only snapshot of a cell an adopting sibling's monitor
/// samples. Captured for every cell at the top of the supervision phase
/// so the order cells are processed in cannot change what either
/// observes.
#[derive(Clone, Copy)]
pub(crate) struct CellView {
    pub(crate) flags: ComponentFlags,
    pub(crate) sup_alive: bool,
    pub(crate) core_crashed: bool,
}

impl CellView {
    /// The gauges an adopter's component-down detector watches: the
    /// ward's components *and* its supervisor. (In-process stand-ins for
    /// the liveness signals the ward's cell runtime exports; the
    /// protocol itself — lease, claim, repair — still crosses the wire.)
    pub(crate) fn samples(&self) -> Vec<Sample> {
        let mut samples = component_samples(&self.flags, !self.core_crashed);
        samples.push(up_sample("supervisor", self.sup_alive));
        samples
    }
}

/// A supervisor planning over a core's components — and, for an adopter
/// watching a ward, over the one component a local loop can never watch:
/// the ward's supervisor itself.
fn component_supervisor(opts: &SupervisionOptions, watch_supervisor: bool) -> Supervisor {
    let mut registry = ServiceRegistry::new();
    registry.register(ServiceSpec::new("core"));
    let mut children = vec!["discovery", "sink"];
    if watch_supervisor {
        children.push("supervisor");
    }
    for child in children {
        registry.register(
            ServiceSpec::new(child)
                .depends_on("core")
                .escalates_to("core"),
        );
    }
    Supervisor::new(registry, opts.config)
}

fn component_monitor(opts: &SupervisionOptions) -> HealthMonitor {
    HealthMonitor::with_detectors(opts.health, vec![Box::new(ComponentDown::default())])
}

/// The in-process supervisor: component-down detection, the planner and
/// the built-in supervision obligation. This is what
/// `ChaosOp::KillSupervisor` stops and a sibling's repair replaces.
pub(crate) struct SupervisionRuntime {
    pub(crate) monitor: HealthMonitor,
    pub(crate) supervisor: Supervisor,
    pub(crate) policy: PolicyService,
    pub(crate) reconcile_micros: u64,
    pub(crate) next_reconcile: u64,
    /// Pulsed by the reliable channels whenever a message enters a
    /// retransmission round (a missed ack — the earliest wire-visible
    /// sign of a dead receiver). The monitor samples immediately instead
    /// of waiting out its cadence.
    pub(crate) interrupt_line: Arc<AtomicU64>,
    /// Interrupt pulses already consumed by a sample.
    pub(crate) seen_interrupts: u64,
    /// `false` after a `KillSupervisor`: the loop stops ticking —
    /// detection, repair and reconcile all halt — while the data plane
    /// runs on. Only a sibling cell's remote repair ever revives it.
    pub(crate) alive: bool,
}

impl SupervisionRuntime {
    fn new(opts: &SupervisionOptions) -> SupervisionRuntime {
        SupervisionRuntime {
            monitor: component_monitor(opts),
            supervisor: component_supervisor(opts, false),
            policy: policy_service(supervision_policies()),
            reconcile_micros: opts.reconcile_micros.max(1),
            next_reconcile: 0,
            interrupt_line: Arc::new(AtomicU64::new(0)),
            seen_interrupts: 0,
            alive: true,
        }
    }
}

/// A cell's supervision plane: the (killable) supervisor, the peer plane
/// when the cell has a sibling, and the bookkeeping that outlives any
/// one supervisor incarnation.
pub(crate) struct SupervisionPlane {
    pub(crate) opts: SupervisionOptions,
    member_id: u64,
    pub(crate) rt: SupervisionRuntime,
    pub(crate) peer: Option<PeerPlane>,
    /// When the last anti-entropy pass (local or wire-ordered) ran: what
    /// the reconcile-before-checkpoint gate reads.
    pub(crate) last_reconcile_at: u64,
    /// The cell's report as far as this plane writes it: the counters
    /// and logs that accumulate over the run, whichever supervisor
    /// incarnation was alive at the time.
    pub(crate) book: CellReport,
    /// Interrupt pulses of supervisor incarnations that were replaced.
    missed_acks_gone: u64,
}

impl SupervisionPlane {
    /// Builds cell `member_id`'s plane, opening its endpoint on the
    /// supervision network when `opts.peer` asks for a sibling.
    pub(crate) fn new(env: &Env, opts: SupervisionOptions, member_id: u64) -> SupervisionPlane {
        SupervisionPlane {
            rt: SupervisionRuntime::new(&opts),
            peer: opts
                .peer
                .clone()
                .map(|config| PeerPlane::new(env, config, member_id)),
            opts,
            member_id,
            last_reconcile_at: 0,
            book: CellReport::default(),
            missed_acks_gone: 0,
        }
    }

    /// Routes `channel`'s missed-ack pulses to the supervisor's
    /// interrupt line, so detection reacts at wire speed instead of the
    /// sampling cadence.
    pub(crate) fn watch(&self, channel: &ReliableChannel) {
        channel.set_missed_ack_interrupt(Arc::clone(&self.rt.interrupt_line));
    }

    /// A fresh supervisor in place of a killed one: fresh monitor (no
    /// stale hysteresis), fresh watcher (its first tick heartbeats,
    /// which is what makes the adopter release). The caller re-points
    /// the device channels at the new interrupt line.
    pub(crate) fn revive(&mut self) {
        self.missed_acks_gone += self.rt.interrupt_line.load(Ordering::Relaxed);
        self.rt = SupervisionRuntime::new(&self.opts);
        if let Some(peer) = self.peer.as_mut() {
            peer.watcher = PeerPlane::watcher(self.member_id, &peer.config);
        }
        self.book.supervisor_revivals += 1;
    }

    pub(crate) fn missed_acks(&self) -> u64 {
        self.missed_acks_gone + self.rt.interrupt_line.load(Ordering::Relaxed)
    }

    /// The supervision half of the cell's report: the book, plus what
    /// the final supervisor incarnation and the watcher ended with.
    pub(crate) fn into_report(self) -> CellReport {
        let (peer, adopted_at_end) = match &self.peer {
            Some(peer) => (peer.watcher.report().clone(), peer.watcher.adopted()),
            None => Default::default(),
        };
        CellReport {
            supervisor_alive: self.rt.alive,
            peer,
            report: self.rt.supervisor.report(),
            missed_ack_interrupts: self.missed_acks(),
            adopted_at_end,
            ..self.book
        }
    }
}

/// The adopter's side of a remote-supervision session: a component-down
/// monitor and a supervisor planning over the ward's components (its
/// supervisor included), with repairs shipped as wire commands instead
/// of executed in-process.
pub(crate) struct RemoteSupervision {
    pub(crate) monitor: HealthMonitor,
    pub(crate) supervisor: Supervisor,
    pub(crate) next_reconcile: u64,
}

/// A cell's half of peer supervision: its endpoint on the journalled
/// supervision channel (`smc.supervision` events on `CHAN_SUPERVISION`,
/// so the lease/claim/adopt protocol rides the same exactly-once, FIFO
/// machinery as the data plane, and survives the cell's core losing
/// *its* log), the watcher over the sibling, and the actuator that
/// executes the sibling's wire commands.
///
/// Two halves, deliberately separable: the watcher and the remote
/// session belong to the supervisor and die with it; the channel and
/// the actuator belong to the cell runtime and survive, the way an init
/// system outlives a crashed node agent. That is what makes remote
/// revival possible at all: the sibling's `Repair { component:
/// "supervisor" }` lands on a live actuator.
pub(crate) struct PeerPlane {
    config: PeerConfig,
    pub(crate) channel: Arc<ReliableChannel>,
    pub(crate) id: ServiceId,
    /// The sibling's index in the world's cell list and its endpoint on
    /// the supervision channel (set once both cells exist).
    pub(crate) sibling: usize,
    pub(crate) sibling_sup: ServiceId,
    pub(crate) watcher: PeerSupervisor,
    /// The remote session while this cell has adopted its sibling.
    pub(crate) remote: Option<RemoteSupervision>,
    /// Executes wire `Repair` commands through `peer_repair_policies`.
    pub(crate) actuator: PolicyService,
}

impl PeerPlane {
    fn new(env: &Env, config: PeerConfig, member_id: u64) -> PeerPlane {
        let channel = env.plane_channel(CHAN_SUPERVISION);
        PeerPlane {
            id: channel.local_id(),
            channel,
            sibling: 0,
            sibling_sup: ServiceId::NIL,
            watcher: PeerPlane::watcher(member_id, &config),
            config,
            remote: None,
            actuator: policy_service(peer_repair_policies()),
        }
    }

    /// A fresh watcher for member `member_id` of the two-member ward.
    fn watcher(member_id: u64, config: &PeerConfig) -> PeerSupervisor {
        PeerSupervisor::new(member_id, [1u64, 2], config.clone())
    }

    pub(crate) fn send(&self, to: ServiceId, event: &Event) {
        let _ = self.channel.send(to, codec::to_shared(event));
    }

    /// Opens the remote session over a freshly adopted ward.
    pub(crate) fn start_remote(&mut self, opts: &SupervisionOptions, first_reconcile: u64) {
        self.remote = Some(RemoteSupervision {
            monitor: component_monitor(opts),
            supervisor: component_supervisor(opts, true),
            next_reconcile: first_reconcile,
        });
    }
}

// ----------------------------------------------------------------------
// Telemetry.
// ----------------------------------------------------------------------

/// One watched supervision episode, traced from lease lapse to remote
/// restart under a single synthetic [`TraceId`].
struct EpisodeState {
    target: u64,
    trace: TraceId,
    started_at: u64,
    adopt_recorded: bool,
    wire_repair_recorded: bool,
}

/// A cell's half of the telemetry plane: cell-runtime state (like the
/// supervision channel, it survives the core crashing) that accumulates
/// metrics, hops and SLO observations between exports.
pub(crate) struct CellTelemetry {
    pub(crate) channel: Arc<ReliableChannel>,
    registry: Registry,
    /// Cached handles into `registry` for the hot publish/deliver
    /// paths, so counting an event is one atomic add, not a lookup.
    published: Counter,
    delivered: Counter,
    members_gauge: Gauge,
    sup_up_gauge: Gauge,
    exporter: DeltaExporter,
    pending_hops: Vec<HopExport>,
    export_seq: u64,
    next_export: u64,
    interval: u64,
    /// Publish stamp per `(device, seq)`, consumed at delivery to feed
    /// the delivery-latency SLO.
    publish_at: HashMap<(ServiceId, u64), u64>,
    slo_delivery: SloTracker,
    slo_ttr: SloTracker,
    episode_ordinal: u64,
    episode: Option<EpisodeState>,
    pub(crate) episodes: Vec<(u64, TraceId)>,
    pub(crate) exports_sent: u64,
    /// The SLO reports last shipped: burn rates change rarely, so an
    /// unchanged set is not re-sent (the observer's gauges keep their
    /// last reading — re-setting them would be a no-op anyway).
    last_slo: Vec<TelemetryMsg>,
}

impl CellTelemetry {
    pub(crate) fn new(env: &Env, opts: &TelemetryPlaneOptions) -> CellTelemetry {
        let registry = Registry::new();
        CellTelemetry {
            channel: env.plane_channel(CHAN_TELEMETRY),
            published: registry.counter("smc_cell_published_total", "Events devices published."),
            delivered: registry.counter("smc_cell_delivered_total", "Events the sink delivered."),
            members_gauge: registry
                .gauge("smc_cell_members", "Members in the sink's delivery view."),
            sup_up_gauge: registry.gauge(
                "smc_cell_supervisor_up",
                "Whether the supervisor plane is alive.",
            ),
            registry,
            exporter: DeltaExporter::new(),
            pending_hops: Vec::new(),
            export_seq: 0,
            next_export: 0,
            interval: opts.export_interval_micros.max(TICK_MICROS),
            publish_at: HashMap::new(),
            slo_delivery: SloTracker::new(SloConfig::new(
                "delivery-latency",
                opts.delivery_objective_micros,
            )),
            slo_ttr: SloTracker::new(SloConfig::new("supervision-ttr", opts.ttr_objective_micros)),
            episode_ordinal: 0,
            episode: None,
            episodes: Vec::new(),
            exports_sent: 0,
            last_slo: Vec::new(),
        }
    }

    pub(crate) fn record_hop(&mut self, trace: TraceId, label: &str, now: u64) {
        self.pending_hops.push(HopExport {
            trace: trace.raw(),
            label: label.to_string(),
            at_micros: now,
        });
    }

    pub(crate) fn on_publish(&mut self, device: ServiceId, seq: u64, now: u64) {
        self.published.inc();
        self.publish_at.insert((device, seq), now);
    }

    pub(crate) fn on_delivery(&mut self, device: ServiceId, seq: u64, now: u64) {
        self.delivered.inc();
        if let Some(stamp) = self.publish_at.remove(&(device, seq)) {
            self.slo_delivery.record(now, now - stamp);
        }
    }

    /// A claim on `target` opens a supervision episode: mint the
    /// synthetic trace and record its first two hops (the lapse the
    /// claim answers, then the claim).
    pub(crate) fn open_episode(&mut self, target: u64, now: u64) {
        if self.episode.as_ref().is_some_and(|e| e.target == target) {
            return;
        }
        self.episode_ordinal += 1;
        let trace = episode_trace(target, self.episode_ordinal);
        self.record_hop(trace, "lease-lapse", now);
        self.record_hop(trace, "claim", now);
        self.episodes.push((target, trace));
        self.episode = Some(EpisodeState {
            target,
            trace,
            started_at: now,
            adopt_recorded: false,
            wire_repair_recorded: false,
        });
    }

    fn episode_on(&mut self, target: u64) -> Option<&mut EpisodeState> {
        self.episode.as_mut().filter(|ep| ep.target == target)
    }

    /// The open episode's ward was adopted.
    pub(crate) fn episode_adopted(&mut self, target: u64, now: u64) {
        if let Some(ep) = self.episode_on(target).filter(|ep| !ep.adopt_recorded) {
            ep.adopt_recorded = true;
            let trace = ep.trace;
            self.record_hop(trace, "adopt", now);
        }
    }

    /// A supervisor revival is about to cross the wire: returns the
    /// episode trace the command should carry (recording the hop the
    /// first time).
    pub(crate) fn episode_wire_repair(&mut self, target: u64, now: u64) -> Option<TraceId> {
        let ep = self.episode_on(target)?;
        let (trace, first) = (ep.trace, !ep.wire_repair_recorded);
        ep.wire_repair_recorded = true;
        if first {
            self.record_hop(trace, "wire-repair", now);
        }
        Some(trace)
    }

    /// Release closes the episode: its duration is exactly the
    /// supervision time-to-repair the SLO watches.
    pub(crate) fn close_episode(&mut self, target: u64, now: u64) {
        if let Some(ep) = self.episode.take_if(|e| e.target == target) {
            self.slo_ttr.record(now, now - ep.started_at);
        }
    }

    /// Whether an export is due. The last export fires a full interval
    /// before the run ends (`total`), so its messages can land inside
    /// the drain window instead of dying in flight.
    pub(crate) fn export_due(&self, now: u64, total: u64) -> bool {
        now >= self.next_export && now + self.interval <= total
    }

    /// Ships one export to `observer`: the metric delta, any pending
    /// hops, and the SLO reports if they moved.
    pub(crate) fn export(
        &mut self,
        now: u64,
        cell: u64,
        observer: ServiceId,
        members: usize,
        supervisor_up: bool,
    ) {
        self.next_export = now + self.interval;
        self.members_gauge.set(members as u64);
        self.sup_up_gauge.set(u64::from(supervisor_up));
        self.export_seq += 1;
        let export_seq = self.export_seq;
        // An empty delta still ships: freshness and lag need the
        // heartbeat even when nothing moved.
        let mut msgs = vec![TelemetryMsg::MetricDelta {
            cell,
            export_seq,
            series: self.exporter.export(&self.registry.gather()),
        }];
        if !self.pending_hops.is_empty() {
            msgs.push(TelemetryMsg::TraceExport {
                cell,
                export_seq,
                hops: std::mem::take(&mut self.pending_hops),
                truncated: Vec::new(),
            });
        }
        let slo_reports: Vec<TelemetryMsg> = self
            .slo_delivery
            .reports(now, cell)
            .into_iter()
            .chain(self.slo_ttr.reports(now, cell))
            .collect();
        if slo_reports != self.last_slo {
            msgs.extend(slo_reports.iter().cloned());
            self.last_slo = slo_reports;
        }
        for msg in &msgs {
            let _ = self
                .channel
                .send(observer, codec::to_shared(&msg.to_event(now)));
        }
        self.exports_sent += msgs.len() as u64;
    }
}

/// The observer: the endpoint telemetry exports converge on, folding
/// them into the ward view and watching SLO burn.
pub(crate) struct Observer {
    pub(crate) channel: Arc<ReliableChannel>,
    pub(crate) id: ServiceId,
    ward: Arc<WardRegistry>,
    monitor: HealthMonitor,
    /// Last seen value per monotone ward series, for the
    /// backwards-counter invariant check.
    prev_counters: HashMap<String, u64>,
    backwards: u64,
    slo_alerts: u64,
}

impl Observer {
    pub(crate) fn new(env: &Env) -> Observer {
        let channel = env.plane_channel(CHAN_TELEMETRY);
        Observer {
            id: channel.local_id(),
            channel,
            ward: Arc::new(WardRegistry::new()),
            // Burn rates move on the scale of the SLO windows (5s/30s);
            // sampling them faster than once a second buys nothing.
            monitor: HealthMonitor::with_detectors(
                HealthConfig {
                    interval_micros: 1_000_000,
                    ..SupervisionOptions::default().health
                },
                vec![Box::new(SloBurn::default())],
            ),
            prev_counters: HashMap::new(),
            backwards: 0,
            slo_alerts: 0,
        }
    }

    /// Folds whatever exports have arrived, then — on the monitor's
    /// cadence — checks the ward view's invariant and watches SLO burn.
    pub(crate) fn fold(&mut self, env: &mut Env) {
        let now = env.now;
        while let Ok(incoming) = self.channel.recv(Some(Duration::ZERO)) {
            if let Incoming::Reliable { payload, .. } = incoming {
                if let Ok(event) = Event::from_message(payload) {
                    if let Some(msg) = TelemetryMsg::from_event(&event) {
                        self.ward.apply(&msg, event.timestamp_micros(), now);
                    }
                }
            }
        }
        if !self.monitor.due(now) {
            return;
        }
        let samples = self.ward.registry().gather();
        // The invariant the delta encoding exists to hold: ward-rolled
        // counters never move backwards, crashes and journal replays
        // included. Checked on the monitor cadence, over the same gather
        // the detectors read.
        for sample in samples.iter().filter(|s| s.monotonic) {
            let mut key = String::with_capacity(sample.name.len() + 16);
            key.push_str(&sample.name);
            for (k, v) in &sample.labels {
                key.push('\u{1}');
                key.push_str(k);
                key.push('\u{2}');
                key.push_str(v);
            }
            let prev = self.prev_counters.insert(key, sample.value).unwrap_or(0);
            if sample.value < prev {
                self.backwards += 1;
                env.fault(format!(
                    "telemetry: ward counter {} went backwards ({prev} -> {})",
                    sample.name, sample.value
                ));
            }
        }
        for t in self.monitor.observe(now, &samples, &[]) {
            if t.to != HealthState::Healthy {
                self.slo_alerts += 1;
                env.fault(format!(
                    "telemetry: slo burn alert {} {}->{}",
                    t.component,
                    t.from.as_str(),
                    t.to.as_str()
                ));
            }
        }
    }

    /// The plane's report, given what the cells' halves recorded.
    pub(crate) fn into_report(
        self,
        mut episodes: Vec<(u64, TraceId)>,
        exports_sent: u64,
    ) -> TelemetryPlaneReport {
        episodes.sort_by_key(|&(target, trace)| (target, trace.raw()));
        let registry = self.ward.registry();
        let lag = registry.histogram(
            "smc_ward_aggregation_lag_micros",
            "Virtual-time lag between a cell stamping an export and the observer folding it.",
        );
        let exports_applied = registry
            .counter(
                "smc_ward_exports_applied_total",
                "Telemetry exports folded into the ward view.",
            )
            .get();
        TelemetryPlaneReport {
            episodes,
            exports_applied,
            duplicates: self.ward.duplicates(),
            backwards: self.backwards,
            lag_p50_micros: lag.quantile(0.5),
            lag_p95_micros: lag.quantile(0.95),
            slo_alerts: self.slo_alerts,
            exports_sent,
            ward: self.ward,
        }
    }
}
