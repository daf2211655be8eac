//! The chaos world: a list of cells, their device nodes and their
//! optional planes, stepped through one virtual timeline.
//!
//! [`run_with_options`] builds a simulated radio environment
//! ([`SimNetwork`]) around a [`ManualClock`] and a `World` on top of it:
//! the shared context every cell needs (network, clock, tracer, oracle,
//! channel and discovery configuration, the current virtual instant)
//! plus a `Vec` of [`Cell`]s. Each cell is a step-driven durable
//! [`smc_core::SmcCell`] — bus, discovery, proxies and write-ahead log —
//! with `scenario.nodes` device agents publishing to it and one observer
//! member subscribed to them. The world then single-threadedly steps
//! virtual time in fixed ticks: scripted faults fire at their scripted
//! instants, devices publish while they hold membership, and every
//! observable fact lands in one [`DeliveryOracle`] in a deterministic
//! order. Seconds of simulated chaos run in milliseconds of wall time,
//! and the same seed always produces the same trace, byte for byte.
//!
//! **Durable cores.** A cell's channels journal cursors and outbound
//! queues into its write-ahead log and a snapshot is cut every
//! `CHECKPOINT_MICROS` of virtual time. A [`ChaosOp::CoreCrash`] tears
//! the whole core down and rebuilds it from that log, so the oracle
//! checks exactly-once and FIFO *across* the restart boundary.
//! [`RunOptions::backend`] swaps the log of the cell under test, which is
//! how tests prove the teeth: the same scenario on a `NoopBackend` loses
//! the cursors and the oracle flags the redelivery.
//!
//! **Planes.** Everything beyond that is a per-cell plane that is either
//! configured or absent — the run loop has one body and skips what is
//! not there:
//!
//! * **health** ([`RunOptions::health`]) — a monitor over the devices'
//!   channels and a flight recorder; its transitions are published into
//!   the cell, whose quench obligations (installed with the plane)
//!   silence a degraded publisher over the cell's `Quench` path;
//! * **supervision** ([`RunOptions::supervision`]) — the cell's own
//!   detect → repair loop left running (it restarts dead components from
//!   the log, escalates wedged ones and runs anti-entropy), its reports
//!   booked across incarnations, and the reboot the cell asks its owner
//!   for when it escalates;
//! * **peer supervision** ([`SupervisionOptions::peer`]) — the world has
//!   two sibling cells exactly when this is set. Each heartbeats a lease
//!   over a journalled supervision channel; a lapsed lease is claimed,
//!   the silent cell adopted, and its stopped loop revived by a wire
//!   command the ward's cell carries out through its own obligations;
//! * **telemetry** ([`RunOptions::telemetry`]) — every cell exports delta
//!   metrics, trace hops and SLO reports as journalled `smc.telemetry`
//!   events to an observer that folds them into a ward view.
//!
//! Device-indexed and component faults hit cell 0, the cell under test;
//! [`ChaosOp::KillSupervisor`] and [`ChaosOp::PartitionCell`] name their
//! cell. Rules that hold wherever the plane they concern exists: a cell
//! with a supervision plane refuses to checkpoint unless an anti-entropy
//! pass ran within the last checkpoint interval (compaction must never
//! freeze a diverged view into durable truth — `checkpoint deferred` in
//! the trace).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use smc_discovery::DiscoveryConfig;
use smc_health::{
    FlightRecorder, HealthReport, HealthState, HealthTransition, PeerReport, SupervisionReport,
};
use smc_telemetry::{Journey, Registry, TraceSink, Tracer, WardRegistry, DEFAULT_SINK_CAPACITY};
use smc_transport::{LinkConfig, ReliableChannel, ReliableConfig, SimNetwork};
use smc_types::{ManualClock, ServiceId, SharedClock, TraceId};
use smc_wal::{MemBackend, Wal, WalBackend, WalChannelJournal, WalConfig};

use crate::cell::Cell;
use crate::oracle::{DeliveryOracle, TraceEvent};
use crate::planes::{CellView, Observer};
use crate::scenario::{ChaosOp, CoreComponent, CorruptTarget, LinkProfileKind, Scenario};

/// Virtual-time step granularity.
pub(crate) const TICK_MICROS: u64 = 2_000;
/// Quiescent tail after the scripted run: publishing stops, faults keep
/// resolving, retransmissions flush.
const DRAIN_MICROS: u64 = 3_000_000;
/// Virtual interval between core snapshots (log compaction points).
pub(crate) const CHECKPOINT_MICROS: u64 = 2_000_000;
/// The telemetry plane's step cadence: far coarser than the 2ms world
/// tick (telemetry tolerates latency; the data plane does not), fine
/// enough that the export cadence never waits long on it. This is what
/// keeps observing the world an order of magnitude cheaper than
/// running it.
const TEL_STEP_MICROS: u64 = 50 * TICK_MICROS;

/// Discovery timings the harness runs by default: second-scale leases
/// that a 30-virtual-second scenario exercises many times over.
pub fn default_discovery() -> DiscoveryConfig {
    DiscoveryConfig {
        beacon_interval: Duration::from_millis(200),
        lease: Duration::from_secs(1),
        grace: Duration::from_secs(1),
        ..DiscoveryConfig::default()
    }
}

/// Everything configurable about a chaos run.
#[derive(Debug)]
pub struct RunOptions {
    /// Reliable-channel parameters for every channel in the world
    /// (weaken them — `dedup: false` — to prove the oracle has teeth).
    pub reliable: ReliableConfig,
    /// Discovery timings and admission control, for every cell.
    pub discovery: DiscoveryConfig,
    /// The WAL backend of the cell under test ([`MemBackend`] by default;
    /// `NoopBackend` demonstrates what durability buys). A sibling cell
    /// always journals into a private in-memory log.
    pub backend: Arc<dyn WalBackend>,
    /// Whether every channel, publish and delivery records hops into a
    /// trace sink of [`DEFAULT_SINK_CAPACITY`] records. On by default;
    /// the bench's untraced arm turns it off.
    pub trace: bool,
    /// Autonomic self-observation: `Some` runs a health monitor (plus
    /// flight recorder and the built-in quench obligations, which
    /// silence a degraded publisher until it recovers) per cell inside
    /// the virtual timeline. `None` (the default) leaves the run
    /// untouched.
    pub health: Option<HealthOptions>,
    /// Self-repair: `Some` leaves each cell's own detect → repair loop
    /// running — a failed component is restarted from the write-ahead
    /// log, a wedged one escalates to a reboot the world performs, and a
    /// periodic anti-entropy pass reconciles live views against durable
    /// truth. `None` (the default) stops the loop, which leaves
    /// [`ChaosOp::KillComponent`] faults permanently down — the teeth
    /// baseline.
    pub supervision: Option<SupervisionOptions>,
    /// The ward-scale telemetry plane: when set, every cell exports
    /// delta-encoded metrics, trace hops and SLO reports as journalled
    /// `smc.telemetry` events to an observer that folds them into a
    /// [`WardRegistry`]. Off (the default) adds no events to the run.
    pub telemetry: bool,
}

/// How the in-run supervisor behaves.
#[derive(Debug, Clone, Default)]
pub struct SupervisionOptions {
    /// Peer supervision: `true` adds a sibling cell running the same
    /// stack, and the two watch each other's supervisor over the wire.
    /// `false` (the default) is the one-cell world, where a killed
    /// supervisor stays dead.
    pub peer: bool,
}

/// How the in-run health monitor behaves.
#[derive(Debug, Clone, Default)]
pub struct HealthOptions {
    /// When set, the flight recorder of the cell under test dumps here
    /// if the run ends with an oracle violation or saw a core crash or
    /// a supervision escalation.
    pub dump_path: Option<PathBuf>,
}

impl RunOptions {
    /// Whether the run has a peer plane — and so two sibling cells.
    pub(crate) fn peered(&self) -> bool {
        self.supervision.as_ref().is_some_and(|s| s.peer)
    }
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            reliable: ReliableConfig::default(),
            discovery: default_discovery(),
            backend: Arc::new(MemBackend::new()),
            trace: true,
            health: None,
            supervision: None,
            telemetry: false,
        }
    }
}

/// The outcome of one chaos run.
#[derive(Debug)]
pub struct RunReport {
    /// The oracle holding the full trace and any violation.
    pub oracle: DeliveryOracle,
    /// The device endpoints, in node-index order: cell 0's nodes, then
    /// its sibling's.
    pub device_ids: Vec<ServiceId>,
    /// Per-cell outcomes, in member-id order (one entry, or two under
    /// peer supervision).
    pub cells: Vec<CellReport>,
    /// Ticks executed.
    pub ticks: u64,
    /// Virtual micros covered (scripted duration plus drain).
    pub virtual_micros: u64,
    /// Wall-clock micros spent replaying the log across all recoveries.
    /// Reporting only — never part of the deterministic trace.
    pub recovery_micros_total: u64,
    /// Reliable-channel retransmissions summed over every data-plane
    /// channel of every cell and every incarnation (crashed devices,
    /// killed components and rebooted cores included).
    pub retransmits: u64,
    /// The hop-record sink every component traced into, when
    /// [`RunOptions::trace`] was on.
    pub trace_sink: Option<Arc<TraceSink>>,
    /// The run's metrics registry: run-wide harness counters, the trace
    /// sink, and the WAL, discovery and sink-channel
    /// collectors of the cell under test, sampled when rendered.
    pub registry: Registry,
    /// The telemetry plane's outcome, when it ran.
    pub telemetry: Option<TelemetryPlaneReport>,
}

/// What one cell ended the run with. The supervision fields read zero /
/// empty / `false` when the cell ran without that plane.
#[derive(Debug, Default)]
pub struct CellReport {
    /// The cell's member id on the supervision plane (1-based; also the
    /// cell id its discovery service beacons).
    pub member_id: u64,
    /// Core restarts recovered from the write-ahead log: scripted
    /// `CoreRestart`s and escalated or wire-ordered reboots.
    pub core_recoveries: u64,
    /// What the health monitor saw, when [`RunOptions::health`] was on.
    pub health: Option<HealthOutcome>,
    /// Whether the cell's own loop ran at run end (`false` after an
    /// unrevived [`ChaosOp::KillSupervisor`], or with no supervision
    /// plane at all).
    pub supervisor_alive: bool,
    /// Times a sibling's remote `Repair` revived this cell's loop.
    pub supervisor_revivals: u64,
    /// The peer watcher's counters and decision log (final incarnation).
    pub peer: PeerReport,
    /// The cell's loop's episode accounting, summed over its core
    /// incarnations: restarts, escalations, per-episode time-to-repair
    /// (an episode a reboot ended is timed to the reboot), the repair
    /// log; `unresolved` is the last incarnation's.
    pub report: SupervisionReport,
    /// Repairs the cell's own loop carried out, or that a wedged
    /// component refused: `(at_micros, what)`.
    pub local_repairs: Vec<(u64, String)>,
    /// Repair commands this cell shipped to its adopted ward.
    pub remote_commands: Vec<(u64, String)>,
    /// Wire-commanded repairs executed *on* this cell.
    pub remote_repairs: Vec<(u64, String)>,
    /// Anti-entropy passes run on this cell (local or wire-ordered).
    pub reconciles: u64,
    /// Divergences those passes repaired: `(at_micros, what)`.
    pub reconcile_fixes: Vec<(u64, String)>,
    /// Checkpoints refused because no reconcile had run recently enough
    /// (the reconcile-before-checkpoint invariant holding).
    pub checkpoints_deferred: u64,
    /// Failures of the cell's components it published as `smc.health`
    /// events, each of which fired its built-in restart obligation.
    pub policy_restarts: u64,
    /// Sibling member ids this cell still held adopted at run end.
    pub adopted_at_end: Vec<u64>,
}

impl CellReport {
    /// `true` when the cell ended healthy: supervisor alive, no
    /// unresolved failure episode, no ward still adopted (its sibling
    /// recovered and was released).
    pub fn converged(&self) -> bool {
        self.supervisor_alive && self.report.converged() && self.adopted_at_end.is_empty()
    }
}

/// Everything the in-run health monitor produced.
#[derive(Debug)]
pub struct HealthOutcome {
    /// Every state transition, in virtual-time order.
    pub transitions: Vec<HealthTransition>,
    /// Every quench/wake the built-in obligations applied:
    /// `(at_micros, member, quenched)`.
    pub quenches: Vec<(u64, ServiceId, bool)>,
    /// Final per-component health.
    pub report: HealthReport,
    /// The black box: registry snapshots, hops and notes from the run.
    pub recorder: FlightRecorder,
    /// Where the recorder dumped, if it did.
    pub dumped_to: Option<PathBuf>,
}

impl HealthOutcome {
    /// The first transition of `component` into `to`, if any.
    pub fn first_transition(&self, component: &str, to: HealthState) -> Option<&HealthTransition> {
        self.transitions
            .iter()
            .find(|t| t.component == component && t.to == to)
    }

    /// `true` when the run produced no transitions at all — every
    /// component stayed `Healthy` throughout (the clean-run criterion).
    pub fn stayed_green(&self) -> bool {
        self.transitions.is_empty() && self.report.all_healthy()
    }
}

/// What the telemetry plane ended the run with (present only when
/// [`RunOptions::telemetry`] was set).
#[derive(Debug)]
pub struct TelemetryPlaneReport {
    /// The observer's ward view: folded per-cell + rolled-up series,
    /// stitched journeys, per-cell freshness.
    pub ward: Arc<WardRegistry>,
    /// Every supervision episode the watchers traced:
    /// `(target member, episode trace)`.
    pub episodes: Vec<(u64, TraceId)>,
    /// Exports the observer folded (duplicates excluded).
    pub exports_applied: u64,
    /// Journal-replay duplicates the observer dropped.
    pub duplicates: u64,
    /// Times any ward-rolled counter moved backwards (the invariant the
    /// delta encoding exists to hold; must be 0).
    pub backwards: u64,
    /// Aggregation lag quantiles: virtual time between a cell stamping
    /// an export and the observer folding it.
    pub lag_p50_micros: u64,
    /// The p95 of the same lag distribution.
    pub lag_p95_micros: u64,
    /// `slo-burn` detector transitions out of healthy on the observer.
    pub slo_alerts: u64,
    /// Telemetry events cells sent (exports across all three kinds).
    pub exports_sent: u64,
}

impl TelemetryPlaneReport {
    /// `true` when the stitched journey for `trace` carries every one
    /// of `labels` in virtual-time order and was never truncated.
    pub fn journey_complete(&self, trace: TraceId, labels: &[&str]) -> bool {
        let Some(journey) = self.ward.stitched(trace) else {
            return false;
        };
        if journey.truncated {
            return false;
        }
        let mut legs = journey.legs.iter();
        labels.iter().all(|want| legs.any(|leg| leg.label == *want))
    }
}

impl RunReport {
    /// The byte-comparable rendering of the whole trace.
    pub fn trace_text(&self) -> String {
        self.oracle.trace_text()
    }

    /// The hop-by-hop journey of one published message, if tracing was
    /// on (`None` otherwise; an *empty* journey means the ring has
    /// overwritten its records).
    pub fn journey(&self, sender: ServiceId, seq: u64) -> Option<Journey> {
        self.trace_sink
            .as_ref()
            .map(|s| s.journey(TraceId::for_event(sender, seq)))
    }

    /// Panics with seed + trace if a delivery guarantee broke.
    pub fn assert_clean(&self) {
        self.oracle.assert_clean();
    }

    /// `true` when every published message of every device was
    /// delivered — only meaningful for scenarios without purges.
    pub fn all_delivered(&self) -> bool {
        self.device_ids
            .iter()
            .all(|&id| self.oracle.delivered(id) == self.oracle.published(id))
    }

    /// Total messages published across devices.
    pub fn total_published(&self) -> u64 {
        self.device_ids
            .iter()
            .map(|&id| self.oracle.published(id))
            .sum()
    }

    /// Total messages delivered across every cell's observer.
    pub fn total_delivered(&self) -> u64 {
        self.device_ids
            .iter()
            .map(|&id| self.oracle.delivered(id))
            .sum()
    }

    /// Core restarts recovered from the write-ahead log, over all cells.
    pub fn core_recoveries(&self) -> u64 {
        self.cells.iter().map(|c| c.core_recoveries).sum()
    }

    /// `true` when every cell ended healthy (see
    /// [`CellReport::converged`]).
    pub fn converged(&self) -> bool {
        self.cells.iter().all(CellReport::converged)
    }

    /// The cell report for member id `id` (1-based). Panics if absent.
    pub fn cell(&self, id: u64) -> &CellReport {
        self.cells
            .iter()
            .find(|c| c.member_id == id)
            .expect("cell report present")
    }

    /// `true` if the trace contains a purge of `member`.
    pub fn was_purged(&self, member: ServiceId) -> bool {
        self.oracle
            .trace()
            .iter()
            .any(|e| matches!(e, TraceEvent::Purged { member: m, .. } if *m == member))
    }

    /// How many times `member` was admitted.
    pub fn times_joined(&self, member: ServiceId) -> usize {
        self.oracle
            .trace()
            .iter()
            .filter(|e| matches!(e, TraceEvent::Joined { member: m, .. } if *m == member))
            .count()
    }
}

/// A fault-timeline entry, expanded from the scenario's scripted ops.
#[derive(Debug, Clone)]
pub(crate) enum Act {
    Loss(f64),
    Dup(f64),
    Heal,
    Profile(LinkProfileKind),
    PartitionOn,
    PartitionOff,
    Domain(u32),
    Evict,
    Crash,
    Restart,
    CoreCrash,
    CoreRestart,
    Kill(CoreComponent, bool),
    Corrupt(CorruptTarget),
    /// The in-process supervisor of cell `n` dies (no scripted revival).
    KillSupervisor(usize),
    /// Cell `n`'s inter-cell links sever (`true`) or heal (`false`).
    CellPartition(usize, bool),
}

/// Expands scripted ops into an absolute-time fault timeline, sorted by
/// `(instant, node)`: each op is the act that starts it plus, for the
/// ones that revert, the act that ends it. Core and cell acts use a
/// `usize::MAX` node sentinel so they sort after device acts at the same
/// instant (deterministically).
fn expand_timeline(scenario: &Scenario) -> Vec<(u64, usize, Act)> {
    const CORE: usize = usize::MAX;
    let mut timeline: Vec<(u64, usize, Act)> = Vec::new();
    for s in &scenario.ops {
        let (node, start, end) = match s.op {
            ChaosOp::LossBurst {
                node,
                loss,
                duration,
            } => (node, Act::Loss(loss), Some((duration, Act::Heal))),
            ChaosOp::DuplicateStorm {
                node,
                duplicate,
                duration,
            } => (node, Act::Dup(duplicate), Some((duration, Act::Heal))),
            ChaosOp::Partition { node, duration } => {
                (node, Act::PartitionOn, Some((duration, Act::PartitionOff)))
            }
            ChaosOp::Crash { node, down_for } => (node, Act::Crash, Some((down_for, Act::Restart))),
            ChaosOp::DomainMove {
                node,
                domain,
                duration,
            } => (node, Act::Domain(domain), Some((duration, Act::Domain(0)))),
            ChaosOp::Evict { node } => (node, Act::Evict, None),
            ChaosOp::LinkProfile { node, profile } => (node, Act::Profile(profile), None),
            ChaosOp::CoreCrash { down_for } => {
                (CORE, Act::CoreCrash, Some((down_for, Act::CoreRestart)))
            }
            // No scripted recovery for the next three: a supervisor
            // restarts killed components, a reconcile pass heals
            // corruptions, and only a sibling cell's remote repair
            // revives a killed supervisor.
            ChaosOp::KillComponent { component, wedged } => {
                (CORE, Act::Kill(component, wedged), None)
            }
            ChaosOp::CorruptState { target } => (CORE, Act::Corrupt(target), None),
            ChaosOp::KillSupervisor { cell } => (CORE, Act::KillSupervisor(cell), None),
            ChaosOp::PartitionCell { cell, duration } => (
                CORE,
                Act::CellPartition(cell, true),
                Some((duration, Act::CellPartition(cell, false))),
            ),
        };
        let at = s.at.as_micros() as u64;
        timeline.push((at, node, start));
        if let Some((after, end)) = end {
            timeline.push((at + after.as_micros() as u64, node, end));
        }
    }
    timeline.sort_by_key(|&(at, node, _)| (at, node));
    timeline
}

/// What every cell and plane shares: the simulated network, the clock,
/// the tracer, the oracle, the channel and discovery configuration and
/// the current virtual instant.
pub(crate) struct Env {
    pub(crate) net: SimNetwork,
    pub(crate) clock: SharedClock,
    pub(crate) tracer: Tracer,
    pub(crate) trace_sink: Option<Arc<TraceSink>>,
    pub(crate) oracle: DeliveryOracle,
    pub(crate) reliable: ReliableConfig,
    pub(crate) discovery: DiscoveryConfig,
    /// The current virtual instant (micros since the run began).
    pub(crate) now: u64,
    /// Retransmissions of channel incarnations that no longer exist.
    pub(crate) retransmits_gone: u64,
    pub(crate) recovery_micros_total: u64,
}

impl Env {
    /// Records a fault line at the current instant.
    pub(crate) fn fault(&mut self, what: impl Into<String>) {
        self.oracle.record_fault(self.now, what);
    }

    /// Books the retransmissions of a channel that is about to die.
    pub(crate) fn retire(&mut self, channel: &ReliableChannel) {
        self.retransmits_gone += channel.stats().retransmits;
    }

    /// A device's (volatile) channel, on a fresh endpoint or — after a
    /// crash — on the endpoint `id` it had before.
    pub(crate) fn device_channel(&self, id: Option<ServiceId>) -> Arc<ReliableChannel> {
        let transport = match id {
            Some(id) => self.net.endpoint_with_id(id),
            None => self.net.endpoint(),
        };
        let channel = ReliableChannel::with_clock(
            Arc::new(transport),
            self.reliable.clone(),
            Arc::clone(&self.clock),
        );
        channel.set_tracer(self.tracer.clone());
        channel
    }

    /// A plane's own endpoint: a channel journalled into a private
    /// in-memory log, so the plane survives whatever it reports on — a
    /// partitioned cell's backlog lands after the heal rather than never.
    pub(crate) fn plane_channel(&self, chan: u8) -> Arc<ReliableChannel> {
        let (wal, _) = Wal::open(Arc::new(MemBackend::new()), WalConfig::default())
            .expect("in-memory wal opens");
        let channel = ReliableChannel::with_clock_journaled(
            Arc::new(self.net.endpoint()),
            self.reliable.clone(),
            Arc::clone(&self.clock),
            Arc::new(WalChannelJournal::new(Arc::new(wal), chan)),
            Vec::new(),
        );
        channel.set_tracer(self.tracer.clone());
        channel
    }
}

/// The whole simulation: the shared context, the cells, the telemetry
/// observer (when that plane runs) and the position in the fault
/// timeline.
struct World {
    env: Env,
    /// The clock behind `env.clock`, as the one thing that advances it.
    manual: Arc<ManualClock>,
    cells: Vec<Cell>,
    observer: Option<Observer>,
    timeline: Vec<(u64, usize, Act)>,
    next_act: usize,
    publish_interval: u64,
    /// Scripted end: publishing stops here.
    end: u64,
    /// `end` plus the drain tail: the run stops here.
    total: u64,
}

impl World {
    fn new(scenario: &Scenario, options: &RunOptions) -> World {
        let manual = Arc::new(ManualClock::new());
        let clock: SharedClock = manual.clone();
        let net = SimNetwork::with_clock(LinkConfig::ideal(), scenario.seed, Arc::clone(&clock));
        let (tracer, trace_sink) = if options.trace {
            let sink = Arc::new(TraceSink::with_capacity(DEFAULT_SINK_CAPACITY));
            let tracer = Tracer::new(Arc::clone(&sink), Arc::clone(&clock));
            (tracer, Some(sink))
        } else {
            (Tracer::disabled(), None)
        };
        let env = Env {
            net,
            clock,
            tracer,
            trace_sink,
            oracle: DeliveryOracle::new(scenario.seed),
            reliable: options.reliable.clone(),
            discovery: options.discovery.clone(),
            now: 0,
            retransmits_gone: 0,
            recovery_micros_total: 0,
        };

        // One cell, or — under peer supervision — two symmetric siblings,
        // member ids 1 and 2 (the two members `PeerSupervisor` knows).
        let mut cells: Vec<Cell> = (0..if options.peered() { 2 } else { 1 })
            .map(|idx| Cell::new(&env, idx, scenario.nodes, options))
            .collect();
        // Introduce the siblings to each other.
        if let [a, b] = &mut cells[..] {
            if let (Some((a_id, _)), Some((b_id, _))) = (a.supervision_link(), b.supervision_link())
            {
                a.meet_sibling(1, b_id);
                b.meet_sibling(0, a_id);
            }
        }
        let observer = options.telemetry.then(|| Observer::new(&env));

        let end = scenario.duration.as_micros() as u64;
        World {
            env,
            manual,
            cells,
            observer,
            timeline: expand_timeline(scenario),
            next_act: 0,
            publish_interval: scenario.publish_interval.as_micros().max(1) as u64,
            end,
            total: end + DRAIN_MICROS,
        }
    }

    /// One scripted fault. Device-indexed and component faults hit
    /// cell 0, the cell under test; supervisor kills and cell partitions
    /// name their cell. A node or cell the world does not have is
    /// ignored.
    fn apply_fault(&mut self, node: usize, act: Act) {
        let env = &mut self.env;
        match act {
            Act::KillSupervisor(c) => {
                if let Some(cell) = self.cells.get_mut(c) {
                    cell.kill_supervisor(env);
                }
            }
            Act::CellPartition(c, on) => {
                let Some(cell) = self.cells.get(c) else {
                    return;
                };
                // Supervision traffic severs both ways, and the
                // telemetry plane shares the cell's fate: a partitioned
                // cell's exports queue in its journal and drain to the
                // observer after the heal. With neither plane there is
                // nothing to cut and only the trace line remains.
                if let Some((own, sibling)) = cell.supervision_link() {
                    env.net.set_partitioned(own, sibling, on);
                }
                if let (Some(tel), Some(obs)) = (&cell.telemetry, &self.observer) {
                    env.net.set_partitioned(tel.channel.local_id(), obs.id, on);
                }
                let what = if on {
                    "partitioned from siblings"
                } else {
                    "partition healed"
                };
                env.fault(format!("cell{c} {what}"));
            }
            Act::CoreCrash => self.cells[0].crash_core(env),
            Act::CoreRestart => self.cells[0].restart_core(env),
            Act::Kill(component, wedged) => self.cells[0].kill_component(env, component, wedged),
            Act::Corrupt(target) => self.cells[0].corrupt(env, target),
            device_act => self.cells[0].apply_device_fault(env, node, &device_act),
        }
    }

    /// One tick of virtual time.
    fn tick(&mut self) {
        let now = self.env.now;
        // 1. Scripted faults due now.
        while let Some((_, node, act)) = self
            .timeline
            .get(self.next_act)
            .filter(|(at, ..)| *at <= now)
            .cloned()
        {
            self.next_act += 1;
            self.apply_fault(node, act);
        }
        let env = &mut self.env;
        // 2. Deliver every datagram whose deadline has passed.
        env.net.pump_due();
        // 3. Channels: process frames, ack, retransmit. Telemetry is a
        // background plane: its channels step on a coarser (still
        // deterministic) cadence, an order of magnitude below the export
        // interval, so observing the world stays cheap relative to
        // running it.
        let telemetry_due = now.is_multiple_of(TEL_STEP_MICROS);
        for cell in &self.cells {
            cell.step_channels(telemetry_due);
        }
        if let Some(obs) = self.observer.as_ref().filter(|_| telemetry_due) {
            obs.channel.step();
        }
        // 4. Protocol logic on top of the channels.
        for cell in &self.cells {
            cell.step_protocol();
        }
        // 5. What each bus accepted — joins, purges, device events — into
        // the oracle, in the bus's order.
        for cell in &mut self.cells {
            cell.drain_recorder(env);
        }
        // 5h. Self-observation, before anything this tick repairs.
        for cell in &mut self.cells {
            cell.observe_health(env);
        }
        // 5s. The supervision planes. Ward views snapshot first so the
        // order cells are processed in cannot change what either sees.
        let views: Vec<CellView> = self.cells.iter().map(Cell::view).collect();
        for cell in &mut self.cells {
            cell.supervise(env, &views);
        }
        // 5b. Periodic snapshots, after anti-entropy and repair so a
        // corrupted view can never be frozen into the durable truth
        // repair depends on.
        if now > 0 && now.is_multiple_of(CHECKPOINT_MICROS) {
            for cell in &mut self.cells {
                cell.checkpoint(env);
            }
        }
        // 6. Member devices publish on schedule (until the scripted
        // end), each to its own cell's bus.
        if now < self.end {
            for cell in &mut self.cells {
                cell.publish(env, self.publish_interval);
            }
        }
        // 7. Observers take their deliveries.
        for cell in &mut self.cells {
            cell.accept_deliveries(env);
        }
        // 8. The telemetry plane: cells export on cadence, then the
        // observer folds whatever has arrived and watches SLO burn.
        // Cell-runtime plane, like the supervision channel — it keeps
        // exporting with the supervisor dead, which is exactly what
        // lets the ward view narrate the outage. Runs on the coarse
        // telemetry cadence: exports only move when the channels step.
        if let Some(obs) = self.observer.as_mut().filter(|_| telemetry_due) {
            for cell in &mut self.cells {
                cell.export_telemetry(env, obs.id, self.total);
            }
            obs.fold(env);
        }
    }

    /// Steps the timeline to its end and assembles the report.
    fn run(mut self) -> RunReport {
        let mut ticks = 0u64;
        loop {
            self.tick();
            ticks += 1;
            if self.env.now >= self.total {
                break;
            }
            self.env.now += TICK_MICROS;
            self.manual.advance_micros(TICK_MICROS);
        }

        let World {
            mut env,
            mut cells,
            observer,
            total,
            ..
        } = self;
        let oracle = &mut env.oracle;
        let retransmits =
            env.retransmits_gone + cells.iter().map(Cell::live_retransmits).sum::<u64>();
        // Attach the offending event's journey to the violation, if any:
        // the sink can replay exactly where the message's guarantees
        // broke down.
        if let (Some(sink), Some(v)) = (&env.trace_sink, oracle.violation_mut()) {
            if let Some((sender, seq)) = v.offender {
                v.journey = Some(sink.journey(TraceId::for_event(sender, seq)));
            }
        }
        // Assemble the run's registry. The final core incarnation of the
        // cell under test is read once, here: collectors do not keep what
        // they watch alive and the report outlives the cells. Run-wide
        // aggregates (which span cells and crashed incarnations) go in
        // below as plain instruments with their final values.
        let live = Registry::default();
        if let Some(core) = &cells[0].core {
            core.register_metrics(&live);
        }
        if let Some(sink) = &env.trace_sink {
            sink.register_with(&live);
        }
        let finals = live.gather();
        let registry = Registry::default();
        registry.register_collector(move |out| out.extend(finals.iter().cloned()));

        let telemetry = observer.map(|obs| {
            let mut episodes = Vec::new();
            let mut exports_sent = 0;
            for tel in cells.iter_mut().filter_map(|c| c.telemetry.as_mut()) {
                episodes.append(&mut tel.episodes);
                exports_sent += tel.exports_sent;
            }
            obs.into_report(episodes, exports_sent)
        });
        let violated = oracle.violation().is_some();
        let report = RunReport {
            device_ids: cells
                .iter()
                .flat_map(|c| c.device_ids.iter().copied())
                .collect(),
            cells: cells
                .into_iter()
                .map(|cell| cell.into_report(violated, total))
                .collect(),
            ticks,
            virtual_micros: total,
            recovery_micros_total: env.recovery_micros_total,
            retransmits,
            trace_sink: env.trace_sink,
            registry,
            telemetry,
            oracle: env.oracle,
        };

        let counters = [
            (
                "smc_harness_published_total",
                "Messages devices handed to their channels over the run.",
                report.total_published(),
            ),
            (
                "smc_harness_delivered_total",
                "Messages the observers received over the run.",
                report.total_delivered(),
            ),
            (
                "smc_harness_retransmits_total",
                "Retransmissions across every channel and incarnation.",
                report.retransmits,
            ),
            (
                "smc_harness_core_recoveries_total",
                "Core restarts recovered from the write-ahead log.",
                report.core_recoveries(),
            ),
        ];
        for (name, help, value) in counters {
            report.registry.counter(name, help).add(value);
        }
        report
    }
}

/// Runs `scenario` with the default options: one cell, default
/// reliability and discovery settings, an in-memory WAL, no planes.
pub fn run(scenario: &Scenario) -> RunReport {
    run_with_options(scenario, RunOptions::default())
}

/// Runs `scenario` under full [`RunOptions`] control.
pub fn run_with_options(scenario: &Scenario, options: RunOptions) -> RunReport {
    World::new(scenario, &options).run()
}
