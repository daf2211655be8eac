//! The optional planes a cell can carry — health, supervision (with its
//! peer plane) and telemetry — plus the telemetry observer they export
//! to. Each is state the world's tick loop steps when it is present and
//! skips when it is not. None of them decides anything for the cell: a
//! health transition and a sibling's repair command are published into
//! the cell, whose own obligations act on them.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use smc_health::{
    FlightRecorder, HealthConfig, HealthMonitor, HealthState, HealthTransition, Hysteresis,
    PeerSupervisor, SloBurn, SupervisionReport,
};
use smc_telemetry::{
    series_key, Counter, DeltaExporter, Gauge, Registry, SloConfig, SloTracker, WardRegistry,
};
use smc_transport::{Incoming, ReliableChannel};
use smc_types::{
    codec, episode_trace, Event, HopExport, ServiceId, SupervisionMsg, TelemetryMsg, TraceId,
};
use smc_wal::{CHAN_SUPERVISION, CHAN_TELEMETRY};

use crate::world::{CellReport, Env, HealthOutcome, TelemetryPlaneReport};

/// Virtual interval between anti-entropy passes an adopter orders.
pub(crate) const RECONCILE_MICROS: u64 = 500_000;
/// How long an adopter waits for its ward's loop to come back before it
/// orders the revival again (a supervisor's retry clock).
const REVIVE_RETRY_MICROS: u64 = 1_000_000;
/// Virtual interval between a cell's telemetry exports.
const EXPORT_INTERVAL_MICROS: u64 = 400_000;
/// Delivery-latency SLO objective.
const DELIVERY_OBJECTIVE_MICROS: u64 = 400_000;
/// Supervision time-to-repair SLO objective.
const TTR_OBJECTIVE_MICROS: u64 = 3_000_000;

// ----------------------------------------------------------------------
// Health.
// ----------------------------------------------------------------------

/// The in-run self-observation stack: a monitor over the cell's devices
/// and the flight recorder, stepped on the virtual timeline. Its
/// transitions are published into the cell, whose quench obligations
/// act on them.
pub(crate) struct HealthRuntime {
    pub(crate) monitor: HealthMonitor,
    pub(crate) recorder: FlightRecorder,
    pub(crate) transitions: Vec<HealthTransition>,
    pub(crate) quenches: Vec<(u64, ServiceId, bool)>,
    dump_path: Option<PathBuf>,
    pub(crate) hop_cursor: u64,
}

impl HealthRuntime {
    pub(crate) fn new(dump_path: Option<PathBuf>) -> HealthRuntime {
        HealthRuntime {
            monitor: HealthMonitor::new(HealthConfig::default()),
            recorder: FlightRecorder::default(),
            transitions: Vec::new(),
            quenches: Vec::new(),
            dump_path,
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

/// The read-only snapshot of a cell an adopting sibling watches.
/// Captured for every cell at the top of the supervision phase so the
/// order cells are processed in cannot change what either observes. (An
/// in-process stand-in for the liveness signal the ward's cell exports;
/// the protocol itself — lease, claim, repair — still crosses the wire.)
#[derive(Clone, Copy)]
pub(crate) struct CellView {
    /// Whether the cell's own loop runs.
    pub(crate) sup_alive: bool,
    pub(crate) core_crashed: bool,
}

/// What a cell's supervision plane keeps: whether the cell's own loop
/// runs, the peer plane when the cell has a sibling, and the book that
/// outlives any one core incarnation.
pub(crate) struct SupervisionPlane {
    member_id: u64,
    /// `false` after a `KillSupervisor` stopped the cell's loop, until a
    /// sibling's repair revives it.
    pub(crate) alive: bool,
    pub(crate) peer: Option<PeerPlane>,
    /// The anti-entropy passes run by the last checkpoint tick, the
    /// cell's own and wire-ordered ones: the reconcile-before-checkpoint
    /// gate wants one more by the next.
    pub(crate) reconciles_seen: u64,
    /// The cell's report as far as this plane writes it: the counters
    /// and logs that accumulate over the run, across core incarnations.
    pub(crate) book: CellReport,
    /// Episodes a core incarnation ended with open, and when each
    /// failed: the next boot closes them.
    cut: Vec<(String, u64)>,
}

impl SupervisionPlane {
    /// Builds cell `member_id`'s plane, opening its endpoint on the
    /// supervision network when `peer` asks for a sibling.
    pub(crate) fn new(env: &Env, peer: bool, member_id: u64) -> SupervisionPlane {
        SupervisionPlane {
            alive: true,
            peer: peer.then(|| PeerPlane::new(env, member_id)),
            member_id,
            reconciles_seen: 0,
            book: CellReport::default(),
            cut: Vec::new(),
        }
    }

    /// A revived loop: a fresh watcher, whose first tick heartbeats —
    /// which is what makes the adopter release.
    pub(crate) fn revive(&mut self) {
        self.alive = true;
        if let Some(peer) = self.peer.as_mut() {
            peer.watcher = PeerPlane::watcher(self.member_id);
        }
        self.book.supervisor_revivals += 1;
    }

    /// Books what one core incarnation's loop reported as it ends; the
    /// episodes it left open are closed by the next boot.
    pub(crate) fn fold(&mut self, report: SupervisionReport) {
        let book = &mut self.book;
        for (at, line) in &report.log {
            if let Some(fix) = line.strip_prefix("reconcile: ") {
                book.reconcile_fixes.push((*at, fix.to_owned()));
            }
        }
        book.local_repairs.extend(report.repairs);
        book.remote_repairs.extend(report.remote_repairs);
        let into = &mut book.report;
        into.restarts += report.restarts;
        into.escalations += report.escalations;
        into.reconcile_repairs += report.reconcile_repairs;
        into.ttr_micros.extend(report.ttr_micros);
        into.log.extend(report.log);
        book.reconciles += report.reconciles;
        self.cut = report.unresolved;
    }

    /// A new core incarnation booted at `now`: the episodes the last one
    /// left open are over — the reboot repaired them.
    pub(crate) fn booted(&mut self, now: u64) {
        for (component, failed_at) in std::mem::take(&mut self.cut) {
            let ttr = now - failed_at;
            self.book.report.ttr_micros.push(ttr);
            let line = format!("{component} repaired by a reboot after {ttr} µs");
            self.book.report.log.push((now, line));
        }
    }

    /// The supervision half of the cell's report: the book, plus what
    /// the watcher ended with.
    pub(crate) fn into_report(mut self) -> CellReport {
        let (peer, adopted_at_end) = match &self.peer {
            Some(peer) => (peer.watcher.report().clone(), peer.watcher.adopted()),
            None => Default::default(),
        };
        self.book.report.unresolved = self.cut;
        CellReport {
            supervisor_alive: self.alive,
            peer,
            adopted_at_end,
            ..self.book
        }
    }
}

/// The adopter's side of a remote-supervision session. It decides no
/// repair of the ward's components — the ward's own loop does that — it
/// only revives that loop while it is stopped, and orders the
/// anti-entropy passes a stopped loop would have run.
pub(crate) struct RemoteSupervision {
    pub(crate) next_revival: u64,
    pub(crate) next_reconcile: u64,
}

/// A cell's half of peer supervision: its endpoint on the journalled
/// supervision channel (`smc.supervision` events on `CHAN_SUPERVISION`,
/// so the lease/claim/adopt protocol rides the same exactly-once, FIFO
/// machinery as the data plane, and survives the cell's core losing
/// *its* log), the watcher over the sibling, and the remote session.
///
/// The watcher and the remote session belong to the cell's loop and die
/// with it; the channel survives, the way an init system outlives a
/// crashed node agent. That is what makes remote revival possible at
/// all: the sibling's `Repair { component: "supervisor" }` is published
/// into the cell, whose peer-repair obligation restarts the loop.
pub(crate) struct PeerPlane {
    pub(crate) channel: Arc<ReliableChannel>,
    /// The sibling's index in the world's cell list and its endpoint on
    /// the supervision channel (set once both cells exist).
    pub(crate) sibling: usize,
    pub(crate) sibling_sup: ServiceId,
    pub(crate) watcher: PeerSupervisor,
    /// The remote session while this cell has adopted its sibling.
    pub(crate) remote: Option<RemoteSupervision>,
}

impl PeerPlane {
    fn new(env: &Env, member_id: u64) -> PeerPlane {
        PeerPlane {
            channel: env.plane_channel(CHAN_SUPERVISION),
            sibling: 0,
            sibling_sup: ServiceId::NIL,
            watcher: PeerPlane::watcher(member_id),
            remote: None,
        }
    }

    /// A fresh watcher for member `member_id` of the two-member ward.
    fn watcher(member_id: u64) -> PeerSupervisor {
        PeerSupervisor::new(member_id, [1u64, 2])
    }

    pub(crate) fn send(&self, to: ServiceId, event: &Event) {
        let _ = self.channel.send(to, codec::to_shared(event));
    }

    /// Opens the remote session over a freshly adopted ward.
    pub(crate) fn start_remote(&mut self, now: u64) {
        self.remote = Some(RemoteSupervision {
            next_revival: now,
            next_reconcile: now + RECONCILE_MICROS,
        });
    }

    /// The revival order for `ward`'s loop, if one is due at `now`.
    pub(crate) fn revival_due(&mut self, now: u64, ward: u64) -> Option<SupervisionMsg> {
        let remote = self.remote.as_mut().filter(|r| now >= r.next_revival)?;
        remote.next_revival = now + REVIVE_RETRY_MICROS;
        Some(SupervisionMsg::Repair {
            target: ward,
            component: "supervisor".into(),
            attempt: 1,
        })
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
    pub(crate) fn new(env: &Env) -> CellTelemetry {
        let registry = Registry::new();
        CellTelemetry {
            channel: env.plane_channel(CHAN_TELEMETRY),
            published: registry.counter("smc_cell_published_total", "Events devices published."),
            delivered: registry
                .counter("smc_cell_delivered_total", "Events the observer received."),
            members_gauge: registry.gauge("smc_cell_members", "Members in the cell's members map."),
            sup_up_gauge: registry.gauge(
                "smc_cell_supervisor_up",
                "Whether the supervisor plane is alive.",
            ),
            registry,
            exporter: DeltaExporter::new(),
            pending_hops: Vec::new(),
            export_seq: 0,
            next_export: 0,
            publish_at: HashMap::new(),
            slo_delivery: SloTracker::new(SloConfig::new(
                "delivery-latency",
                DELIVERY_OBJECTIVE_MICROS,
            )),
            slo_ttr: SloTracker::new(SloConfig::new("supervision-ttr", TTR_OBJECTIVE_MICROS)),
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
        now >= self.next_export && now + EXPORT_INTERVAL_MICROS <= total
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
        self.next_export = now + EXPORT_INTERVAL_MICROS;
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
                    hysteresis: Hysteresis {
                        degrade_after: 1,
                        fail_after: 2,
                        recover_after: 1,
                    },
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
            let key = series_key(&sample.name, &sample.labels);
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
