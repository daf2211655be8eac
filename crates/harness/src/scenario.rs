//! Scenario scripts: seeded, reproducible fault schedules.
//!
//! A [`Scenario`] is a complete description of one chaos run — node
//! count, duration, publish cadence and a list of [`ScriptedOp`]s fired
//! at scripted virtual times. Everything is plain data: printing a
//! scenario and feeding it back reproduces the run bit for bit, which is
//! what makes oracle violations actionable.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Canned link profiles a scripted op can switch a node to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkProfileKind {
    /// Zero-latency, lossless.
    Ideal,
    /// The paper prototype's USB/IP access network.
    UsbIp,
    /// Bluetooth personal-area link.
    Bluetooth,
    /// 802.15.4 body-sensor link.
    Zigbee,
}

impl LinkProfileKind {
    /// The transport-level configuration for this profile.
    pub fn config(self) -> smc_transport::LinkConfig {
        match self {
            LinkProfileKind::Ideal => smc_transport::LinkConfig::ideal(),
            LinkProfileKind::UsbIp => smc_transport::LinkConfig::usb_ip_link(),
            LinkProfileKind::Bluetooth => smc_transport::LinkConfig::bluetooth_link(),
            LinkProfileKind::Zigbee => smc_transport::LinkConfig::zigbee_link(),
        }
    }
}

/// The cell-side components a supervisor can kill and restart
/// individually (the whole core is [`ChaosOp::CoreCrash`]'s business).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreComponent {
    /// The discovery service and its channel.
    Discovery,
    /// The bus sink endpoint — the cell's event intake.
    Sink,
}

impl CoreComponent {
    /// The name supervision knows the component by.
    pub(crate) fn name(self) -> &'static str {
        match self {
            CoreComponent::Discovery => "discovery",
            CoreComponent::Sink => "sink",
        }
    }

    /// The component supervision calls `name`, if it is one of these.
    pub(crate) fn named(name: &str) -> Option<CoreComponent> {
        [CoreComponent::Discovery, CoreComponent::Sink]
            .into_iter()
            .find(|c| c.name() == name)
    }
}

/// Which piece of live state a [`ChaosOp::CorruptState`] damages. Every
/// target diverges a *view* from durable truth without touching the
/// write-ahead log, so only an anti-entropy reconcile pass heals it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptTarget {
    /// The cell's members map silently forgets device `node`: the bus
    /// refuses its events as if it had been purged.
    MembershipView {
        /// Target device node index.
        node: usize,
    },
    /// A fabricated member id appears in the cell's members map.
    GhostMember,
    /// The discovery table silently drops device `node` — no `Purged`
    /// event, no counter; the member just vanishes.
    DiscoveryMember {
        /// Target device node index.
        node: usize,
    },
}

/// One fault injected into the simulated world.
///
/// `node` indexes the scenario's device nodes (`0..Scenario::nodes`).
/// Operations with a `duration` are reverted (link restored, partition
/// healed, node restarted) that long after they fire.
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosOp {
    /// The node's links drop datagrams with probability `loss`.
    LossBurst {
        /// Target device node index.
        node: usize,
        /// Drop probability in `[0, 1]`.
        loss: f64,
        /// Burst length; the link heals afterwards.
        duration: Duration,
    },
    /// The node is partitioned from the cell (both endpoints).
    Partition {
        /// Target device node index.
        node: usize,
        /// Partition length; heals afterwards.
        duration: Duration,
    },
    /// The node's links deliver duplicates with probability `duplicate`.
    DuplicateStorm {
        /// Target device node index.
        node: usize,
        /// Duplication probability in `[0, 1]`.
        duplicate: f64,
        /// Storm length; the link heals afterwards.
        duration: Duration,
    },
    /// The node crashes (loses all channel state) and restarts with the
    /// same identity after `down_for`.
    Crash {
        /// Target device node index.
        node: usize,
        /// Outage length before the restart.
        down_for: Duration,
    },
    /// The node moves to another broadcast domain (stops hearing the
    /// cell's beacons) and moves back after `duration`.
    DomainMove {
        /// Target device node index.
        node: usize,
        /// The domain wandered into.
        domain: u32,
        /// Time away before returning to the cell's domain.
        duration: Duration,
    },
    /// Discovery evicts the node — an operator's or a policy's purge of
    /// a member that is still connected, and still publishing until its
    /// missed heartbeats tell it. No scripted recovery: the node rejoins
    /// on its own.
    Evict {
        /// Target device node index.
        node: usize,
    },
    /// The node's links permanently switch to a different profile.
    LinkProfile {
        /// Target device node index.
        node: usize,
        /// The new profile.
        profile: LinkProfileKind,
    },
    /// The *core* crashes — discovery and the bus sink lose all
    /// in-memory state — and restarts from its write-ahead log after
    /// `down_for`. The durability layer's whole job is making this
    /// indistinguishable (oracle-wise) from a long network stall.
    CoreCrash {
        /// Outage length before the recovery.
        down_for: Duration,
    },
    /// One core component silently dies. There is **no scripted
    /// restart**: only a supervisor (see `RunOptions::supervision`)
    /// brings it back, which is exactly what the supervision teeth
    /// tests prove — without one, the component stays down forever.
    KillComponent {
        /// Which component dies.
        component: CoreComponent,
        /// A wedged component shrugs off restarts: the fault persists
        /// until the supervisor escalates to a full core reboot.
        wedged: bool,
    },
    /// Live state diverges from durable truth (see [`CorruptTarget`]).
    /// No detector fires — only a periodic anti-entropy reconcile pass
    /// notices and repairs the divergence.
    CorruptState {
        /// What gets corrupted.
        target: CorruptTarget,
    },
    /// Cell `cell`'s *in-process supervisor* dies — the monitor/supervisor
    /// loop stops ticking while the cell's data plane keeps running.
    /// There is no scripted restart: in a single-cell world the loop is
    /// gone for good (the peer-supervision teeth baseline), and in a
    /// multi-cell world only a sibling's remote repair revives it.
    KillSupervisor {
        /// Which cell's supervisor dies (`0` in a single-cell world).
        cell: usize,
    },
    /// Cell `cell` is partitioned from its sibling cells (supervision
    /// traffic severed both ways) and heals after `duration`. Exercises
    /// false-positive adoption: the partitioned cell is alive, so its
    /// resumed lease must refute any claim the silence provoked.
    PartitionCell {
        /// Which cell is cut off.
        cell: usize,
        /// Partition length; heals afterwards.
        duration: Duration,
    },
}

impl ChaosOp {
    /// The device node this op targets, or `None` for ops aimed at the
    /// core itself.
    pub fn node(&self) -> Option<usize> {
        match *self {
            ChaosOp::LossBurst { node, .. }
            | ChaosOp::Partition { node, .. }
            | ChaosOp::DuplicateStorm { node, .. }
            | ChaosOp::Crash { node, .. }
            | ChaosOp::DomainMove { node, .. }
            | ChaosOp::Evict { node }
            | ChaosOp::LinkProfile { node, .. } => Some(node),
            ChaosOp::CoreCrash { .. }
            | ChaosOp::KillComponent { .. }
            | ChaosOp::CorruptState { .. }
            | ChaosOp::KillSupervisor { .. }
            | ChaosOp::PartitionCell { .. } => None,
        }
    }
}

/// A [`ChaosOp`] scheduled at a virtual time offset from the run start.
#[derive(Debug, Clone, PartialEq)]
pub struct ScriptedOp {
    /// When the op fires, relative to the start of the run.
    pub at: Duration,
    /// What happens.
    pub op: ChaosOp,
}

/// A complete, reproducible chaos-run description.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Seed for the network's loss/jitter/duplication draws (and the one
    /// reported when the oracle flags a violation).
    pub seed: u64,
    /// Number of device nodes (publishers) besides the cell.
    pub nodes: usize,
    /// Virtual length of the run.
    pub duration: Duration,
    /// How often each member device publishes an event.
    pub publish_interval: Duration,
    /// The fault schedule.
    pub ops: Vec<ScriptedOp>,
}

impl Scenario {
    /// A quiet scenario: no faults, `nodes` devices publishing for
    /// `duration`.
    pub fn quiet(seed: u64, nodes: usize, duration: Duration) -> Self {
        Scenario {
            seed,
            nodes,
            duration,
            publish_interval: Duration::from_millis(100),
            ops: Vec::new(),
        }
    }

    /// Generates a randomized fault schedule from `seed`: `ops` faults
    /// drawn uniformly over the op families, spread over the first 80%
    /// of the run (so late faults still resolve inside it).
    pub fn random(seed: u64, nodes: usize, duration: Duration, ops: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut scenario = Scenario::quiet(seed, nodes.max(1), duration);
        let window = (duration.as_micros() as u64).saturating_mul(4) / 5;
        for _ in 0..ops {
            let at = Duration::from_micros(rng.gen_range(0..window.max(1)));
            let node = rng.gen_range(0..scenario.nodes);
            let hold = Duration::from_millis(rng.gen_range(50..800));
            let op = match rng.gen_range(0..7u32) {
                0 => ChaosOp::LossBurst {
                    node,
                    loss: rng.gen_range(0.2..0.9),
                    duration: hold,
                },
                1 => ChaosOp::Partition {
                    node,
                    duration: hold,
                },
                2 => ChaosOp::DuplicateStorm {
                    node,
                    duplicate: rng.gen_range(0.2..0.9),
                    duration: hold,
                },
                3 => ChaosOp::Crash {
                    node,
                    down_for: hold,
                },
                4 => ChaosOp::DomainMove {
                    node,
                    domain: rng.gen_range(1..4u32),
                    duration: hold,
                },
                5 => ChaosOp::CoreCrash { down_for: hold },
                _ => ChaosOp::LinkProfile {
                    node,
                    profile: match rng.gen_range(0..4u32) {
                        0 => LinkProfileKind::Ideal,
                        1 => LinkProfileKind::UsbIp,
                        2 => LinkProfileKind::Bluetooth,
                        _ => LinkProfileKind::Zigbee,
                    },
                },
            };
            scenario.ops.push(ScriptedOp { at, op });
        }
        scenario.ops.sort_by_key(|s| s.at);
        scenario
    }

    /// Generates a randomized *supervision* fault schedule from `seed`:
    /// component kills (occasionally wedged) and state corruptions, one
    /// per evenly-sized slot over the first 80% of the run so the
    /// supervisor has room to finish each repair (worst-case — a wedged
    /// kill escalating to a core reboot — takes a few virtual seconds)
    /// before the next fault lands. Deterministic per seed, and on a
    /// separate rng stream from [`Scenario::random`] so existing traces
    /// stay byte-identical.
    pub fn random_supervision(seed: u64, nodes: usize, duration: Duration, ops: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut scenario = Scenario::quiet(seed, nodes.max(1), duration);
        let window = (duration.as_micros() as u64).saturating_mul(4) / 5;
        let slot = (window / ops.max(1) as u64).max(1);
        for i in 0..ops {
            let at = Duration::from_micros(i as u64 * slot + rng.gen_range(0..slot / 4 + 1));
            let node = rng.gen_range(0..scenario.nodes);
            let op = match rng.gen_range(0..8u32) {
                0 | 1 => ChaosOp::KillComponent {
                    component: CoreComponent::Discovery,
                    wedged: false,
                },
                2 | 3 => ChaosOp::KillComponent {
                    component: CoreComponent::Sink,
                    wedged: false,
                },
                4 => ChaosOp::KillComponent {
                    component: if rng.gen_range(0..2u32) == 0 {
                        CoreComponent::Discovery
                    } else {
                        CoreComponent::Sink
                    },
                    wedged: true,
                },
                5 => ChaosOp::CorruptState {
                    target: CorruptTarget::MembershipView { node },
                },
                6 => ChaosOp::CorruptState {
                    target: CorruptTarget::GhostMember,
                },
                _ => ChaosOp::CorruptState {
                    target: CorruptTarget::DiscoveryMember { node },
                },
            };
            scenario.ops.push(ScriptedOp { at, op });
        }
        scenario
    }

    /// Generates a randomized *peer-supervision* fault schedule from
    /// `seed`: the supervision families plus supervisor kills, cell
    /// partitions, and the compound fault the tentpole exists for — a
    /// component kill followed 600 ms later by the killing of the very
    /// supervisor repairing it, leaving a sibling cell to adopt and
    /// finish the repair. One fault (or compound pair) per evenly-sized
    /// slot over the first 80% of the run so the worst chain (wedged
    /// kill → orphaned mid-escalation → remote adoption → core reboot)
    /// resolves before the next fault lands. Deterministic per seed, on
    /// its own rng stream.
    pub fn random_peer(seed: u64, nodes: usize, duration: Duration, ops: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
        let mut scenario = Scenario::quiet(seed, nodes.max(1), duration);
        let window = (duration.as_micros() as u64).saturating_mul(4) / 5;
        let slot = (window / ops.max(1) as u64).max(1);
        for i in 0..ops {
            let at = Duration::from_micros(i as u64 * slot + rng.gen_range(0..slot / 8 + 1));
            let node = rng.gen_range(0..scenario.nodes);
            let component = if rng.gen_range(0..2u32) == 0 {
                CoreComponent::Discovery
            } else {
                CoreComponent::Sink
            };
            match rng.gen_range(0..8u32) {
                0 | 1 => scenario.ops.push(ScriptedOp {
                    at,
                    op: ChaosOp::KillComponent {
                        component,
                        wedged: false,
                    },
                }),
                2 => scenario.ops.push(ScriptedOp {
                    at,
                    op: ChaosOp::KillComponent {
                        component,
                        wedged: true,
                    },
                }),
                3 | 4 => {
                    // The compound: kill a component, then kill the
                    // supervisor mid-repair. Only a sibling finishes it.
                    scenario.ops.push(ScriptedOp {
                        at,
                        op: ChaosOp::KillComponent {
                            component,
                            wedged: rng.gen_range(0..2u32) == 0,
                        },
                    });
                    scenario.ops.push(ScriptedOp {
                        at: at + Duration::from_millis(600),
                        op: ChaosOp::KillSupervisor { cell: 0 },
                    });
                }
                5 => scenario.ops.push(ScriptedOp {
                    at,
                    op: ChaosOp::KillSupervisor {
                        cell: rng.gen_range(0..2usize),
                    },
                }),
                6 => scenario.ops.push(ScriptedOp {
                    at,
                    op: ChaosOp::PartitionCell {
                        cell: rng.gen_range(0..2usize),
                        duration: Duration::from_millis(rng.gen_range(400..900)),
                    },
                }),
                _ => scenario.ops.push(ScriptedOp {
                    at,
                    op: ChaosOp::CorruptState {
                        target: match rng.gen_range(0..3u32) {
                            0 => CorruptTarget::MembershipView { node },
                            1 => CorruptTarget::GhostMember,
                            _ => CorruptTarget::DiscoveryMember { node },
                        },
                    },
                }),
            }
        }
        scenario.sorted()
    }

    /// Scripts sorted by firing time (the runner requires this).
    pub fn sorted(mut self) -> Self {
        self.ops.sort_by_key(|s| s.at);
        self
    }
}

/// Reduces a failing scenario to a (locally) minimal one.
///
/// `fails` must return `true` when the scenario still exhibits the
/// failure. The shrinker repeatedly tries dropping each op and halving
/// the tail of the run, keeping any reduction that still fails — the
/// moral equivalent of proptest shrinking, specialised to fault scripts
/// (which our vendored proptest shim cannot shrink structurally).
pub fn shrink_scenario<F>(mut scenario: Scenario, mut fails: F) -> Scenario
where
    F: FnMut(&Scenario) -> bool,
{
    loop {
        let mut reduced = false;
        // Try dropping each op, last first (later ops are likelier to be
        // irrelevant to an early violation).
        let mut i = scenario.ops.len();
        while i > 0 {
            i -= 1;
            let mut candidate = scenario.clone();
            candidate.ops.remove(i);
            if fails(&candidate) {
                scenario = candidate;
                reduced = true;
            }
        }
        // Try shortening the run.
        if scenario.duration > Duration::from_secs(1) {
            let mut candidate = scenario.clone();
            candidate.duration = scenario.duration / 2;
            if fails(&candidate) {
                scenario = candidate;
                reduced = true;
            }
        }
        if !reduced {
            return scenario;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_is_reproducible() {
        let a = Scenario::random(42, 4, Duration::from_secs(10), 8);
        let b = Scenario::random(42, 4, Duration::from_secs(10), 8);
        assert_eq!(a, b);
        let c = Scenario::random(43, 4, Duration::from_secs(10), 8);
        assert_ne!(a, c);
    }

    #[test]
    fn random_ops_are_sorted_and_in_window() {
        let s = Scenario::random(7, 3, Duration::from_secs(10), 12);
        assert_eq!(s.ops.len(), 12);
        for pair in s.ops.windows(2) {
            assert!(pair[0].at <= pair[1].at);
        }
        for op in &s.ops {
            assert!(op.at < Duration::from_secs(8));
            if let Some(node) = op.op.node() {
                assert!(node < 3);
            }
        }
    }

    #[test]
    fn random_supervision_is_reproducible_and_spaced() {
        let a = Scenario::random_supervision(42, 3, Duration::from_secs(30), 6);
        let b = Scenario::random_supervision(42, 3, Duration::from_secs(30), 6);
        assert_eq!(a, b);
        assert_ne!(
            a,
            Scenario::random_supervision(43, 3, Duration::from_secs(30), 6)
        );
        assert_eq!(a.ops.len(), 6);
        // One op per 4-second slot: consecutive faults never land within
        // 3 seconds of each other (slot minus the max jitter).
        for pair in a.ops.windows(2) {
            assert!(pair[1].at - pair[0].at >= Duration::from_secs(3));
        }
        for op in &a.ops {
            assert!(matches!(
                op.op,
                ChaosOp::KillComponent { .. } | ChaosOp::CorruptState { .. }
            ));
        }
    }

    #[test]
    fn random_peer_is_reproducible_and_spaced() {
        let a = Scenario::random_peer(42, 3, Duration::from_secs(30), 3);
        let b = Scenario::random_peer(42, 3, Duration::from_secs(30), 3);
        assert_eq!(a, b);
        assert_ne!(a, Scenario::random_peer(43, 3, Duration::from_secs(30), 3));
        // Slot spacing: ops from different slots land ≥ 5 s apart (slot
        // minus max jitter minus the compound's 600 ms follow-up).
        let slots: Vec<_> = a
            .ops
            .iter()
            .map(|o| o.at.as_micros() as u64 / 8_000_000)
            .collect();
        for pair in slots.windows(2) {
            assert!(pair[1] >= pair[0]);
        }
        for op in &a.ops {
            assert!(matches!(
                op.op,
                ChaosOp::KillComponent { .. }
                    | ChaosOp::CorruptState { .. }
                    | ChaosOp::KillSupervisor { .. }
                    | ChaosOp::PartitionCell { .. }
            ));
        }
        // Across seeds, every family (including the compound) shows up.
        let mut saw_kill_supervisor = false;
        let mut saw_partition = false;
        for seed in 0..64 {
            let s = Scenario::random_peer(seed, 3, Duration::from_secs(30), 3);
            saw_kill_supervisor |= s
                .ops
                .iter()
                .any(|o| matches!(o.op, ChaosOp::KillSupervisor { .. }));
            saw_partition |= s
                .ops
                .iter()
                .any(|o| matches!(o.op, ChaosOp::PartitionCell { .. }));
        }
        assert!(saw_kill_supervisor && saw_partition);
    }

    #[test]
    fn shrinker_reaches_a_minimal_script() {
        // A scenario "fails" whenever it still contains a Crash op; the
        // shrinker should strip everything else.
        let s = Scenario::random(11, 4, Duration::from_secs(16), 20);
        assert!(s.ops.iter().any(|o| matches!(o.op, ChaosOp::Crash { .. })));
        let minimal = shrink_scenario(s, |c| {
            c.ops.iter().any(|o| matches!(o.op, ChaosOp::Crash { .. }))
        });
        assert_eq!(minimal.ops.len(), 1);
        assert!(matches!(minimal.ops[0].op, ChaosOp::Crash { .. }));
        assert!(minimal.duration <= Duration::from_secs(2));
    }
}
