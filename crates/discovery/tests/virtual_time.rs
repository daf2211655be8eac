//! ManualClock-driven discovery tests: no worker threads, no sleeps.
//!
//! The paper's lease/grace design exists to *mask transient
//! disconnections* (a nurse walking through a dead spot should not churn
//! the membership) while still *purging permanent ones*. Wall-clock
//! tests of that behaviour are slow and flaky; these drive the whole
//! stack — simulated network, reliable channels, discovery service,
//! member agent — off a [`ManualClock`], stepping seconds of virtual
//! time in microseconds.

use std::sync::Arc;
use std::time::Duration;

use smc_discovery::{AgentConfig, DiscoveryConfig, DiscoveryService, MemberAgent, MembershipEvent};
use smc_transport::{LinkConfig, ReliableChannel, ReliableConfig, SimNetwork};
use smc_types::{CellId, ManualClock, PurgeReason, ServiceId, ServiceInfo, SharedClock};

struct World {
    clock: Arc<ManualClock>,
    net: SimNetwork,
    disco_channel: Arc<ReliableChannel>,
    service: Arc<DiscoveryService>,
    dev_channel: Arc<ReliableChannel>,
    agent: Arc<MemberAgent>,
    events: Vec<MembershipEvent>,
}

const TICK_MS: u64 = 5;

impl World {
    /// A world whose agent keeps heartbeating through outages (never
    /// declares the cell lost): what we observe is purely the cell's
    /// lease accounting.
    fn new(seed: u64) -> World {
        World::with_agent_tolerance(seed, 100)
    }

    /// A world whose agent declares the cell lost after `max_missed`
    /// unanswered heartbeats and then rejoins on the next beacon.
    fn with_agent_tolerance(seed: u64, max_missed: u32) -> World {
        let clock = Arc::new(ManualClock::new());
        let shared: SharedClock = clock.clone();
        let net = SimNetwork::with_clock(LinkConfig::ideal(), seed, Arc::clone(&shared));
        let disco_channel = ReliableChannel::with_clock(
            Arc::new(net.endpoint()),
            ReliableConfig::default(),
            Arc::clone(&shared),
        );
        let config = DiscoveryConfig {
            beacon_interval: Duration::from_millis(100),
            lease: Duration::from_millis(500),
            grace: Duration::from_millis(500),
            ..DiscoveryConfig::default()
        };
        let service = DiscoveryService::with_clock(
            CellId(9),
            Arc::clone(&disco_channel),
            config,
            Arc::clone(&shared),
        );
        let dev_channel = ReliableChannel::with_clock(
            Arc::new(net.endpoint()),
            ReliableConfig::default(),
            Arc::clone(&shared),
        );
        let agent_config = AgentConfig {
            max_missed_heartbeats: max_missed,
            ..AgentConfig::default()
        };
        let agent = MemberAgent::with_clock(
            ServiceInfo::new(ServiceId::NIL, "test.device"),
            Arc::clone(&dev_channel),
            agent_config,
            Arc::clone(&shared),
            Box::new(|_, _| {}),
        );
        World {
            clock,
            net,
            disco_channel,
            service,
            dev_channel,
            agent,
            events: Vec::new(),
        }
    }

    /// One deterministic simulation step, advancing `TICK_MS` of virtual
    /// time.
    fn tick(&mut self) {
        self.net.pump_due();
        self.disco_channel.step();
        self.dev_channel.step();
        self.service.step();
        self.agent.step();
        while let Ok(ev) = self.service.events().try_recv() {
            self.events.push(ev);
        }
        self.clock.advance_millis(TICK_MS);
    }

    fn run_virtual(&mut self, span: Duration) {
        let ticks = span.as_millis() as u64 / TICK_MS;
        for _ in 0..ticks {
            self.tick();
        }
    }

    fn partition(&self, on: bool) {
        let dev = self.dev_channel.local_id();
        let disco = self.disco_channel.local_id();
        self.net.set_partitioned(dev, disco, on);
    }

    fn joins(&self, member: ServiceId) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, MembershipEvent::Joined(i) if i.id == member))
            .count()
    }

    fn purges(&self, member: ServiceId) -> Vec<PurgeReason> {
        self.events
            .iter()
            .filter_map(|e| match e {
                MembershipEvent::Purged(id, reason) if *id == member => Some(*reason),
                _ => None,
            })
            .collect()
    }
}

/// A disconnection healed inside the lease+grace window is masked: the
/// member is suspected at worst, recovers on its next heartbeat, and is
/// neither purged nor re-admitted.
#[test]
fn transient_disconnection_is_masked() {
    let mut w = World::new(71);
    w.run_virtual(Duration::from_secs(1));
    let dev = w.dev_channel.local_id();
    assert!(
        w.agent.is_member(),
        "agent should join within a virtual second"
    );
    assert_eq!(w.joins(dev), 1);

    // Silence the device for 700ms of virtual time: beyond the 500ms
    // lease (suspected) but inside lease + grace (not purged).
    w.partition(true);
    w.run_virtual(Duration::from_millis(700));
    assert!(
        w.events
            .iter()
            .any(|e| matches!(e, MembershipEvent::Suspected(id) if *id == dev)),
        "silence past the lease must suspect the member"
    );
    assert!(
        w.purges(dev).is_empty(),
        "must not purge inside the grace window"
    );

    // Heal: the next heartbeat recovers the member in place.
    w.partition(false);
    w.run_virtual(Duration::from_secs(1));
    assert!(
        w.events
            .iter()
            .any(|e| matches!(e, MembershipEvent::Recovered(id) if *id == dev)),
        "the member must recover on its next heartbeat"
    );
    assert!(
        w.purges(dev).is_empty(),
        "a masked disconnection must never purge"
    );
    assert_eq!(w.joins(dev), 1, "a masked disconnection must not re-admit");
    assert!(w.service.is_member(dev));
    assert!(w.agent.is_member());
}

/// A permanent disconnection is purged once silence exceeds
/// lease + grace, and the table forgets the member.
#[test]
fn permanent_disconnection_is_purged() {
    let mut w = World::new(72);
    w.run_virtual(Duration::from_secs(1));
    let dev = w.dev_channel.local_id();
    assert!(w.agent.is_member());

    w.partition(true);
    // lease (500ms) + grace (500ms) + slack.
    w.run_virtual(Duration::from_millis(1600));
    assert_eq!(
        w.purges(dev),
        vec![PurgeReason::LeaseExpired],
        "permanent silence must purge exactly once, with the lease-expiry reason"
    );
    assert!(!w.service.is_member(dev));
}

/// After a purge, the same device is re-admitted through the normal
/// join path once the partition heals — a fresh `Joined` event, not a
/// silent resurrection.
#[test]
fn purged_member_rejoins_after_heal() {
    let mut w = World::with_agent_tolerance(73, 3);
    w.run_virtual(Duration::from_secs(1));
    let dev = w.dev_channel.local_id();

    w.partition(true);
    w.run_virtual(Duration::from_millis(1600));
    assert_eq!(w.purges(dev).len(), 1);

    w.partition(false);
    w.run_virtual(Duration::from_secs(2));
    assert_eq!(w.joins(dev), 2, "the healed device must be re-admitted");
    assert!(w.service.is_member(dev));
}

/// The whole masking sequence is deterministic: two worlds with the same
/// seed observe the same membership event sequence.
#[test]
fn membership_sequence_is_deterministic() {
    let run = |seed| {
        let mut w = World::with_agent_tolerance(seed, 3);
        w.run_virtual(Duration::from_secs(1));
        w.partition(true);
        w.run_virtual(Duration::from_millis(1600));
        w.partition(false);
        w.run_virtual(Duration::from_secs(2));
        w.events
            .iter()
            .map(|e| format!("{e:?}"))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(99), run(99));
}

/// Bus traffic reaches the sink the agent was built with during the
/// `step` that took it in, in arrival order: each packet is seen before
/// `agent.step()` returns.
#[test]
fn bus_packets_reach_the_sink_in_the_step_that_takes_them_in() {
    use smc_types::codec::to_shared;
    use smc_types::Packet;
    use std::sync::Mutex;

    let clock = Arc::new(ManualClock::new());
    let shared: SharedClock = clock.clone();
    let net = SimNetwork::with_clock(LinkConfig::ideal(), 3, Arc::clone(&shared));
    let channel = || {
        ReliableChannel::with_clock(
            Arc::new(net.endpoint()),
            ReliableConfig::default(),
            Arc::clone(&shared),
        )
    };
    let (bus, device) = (channel(), channel());
    let seen = Arc::new(Mutex::new(Vec::new()));
    let sink_seen = Arc::clone(&seen);
    let bus_id = bus.local_id();
    let agent = MemberAgent::with_clock(
        ServiceInfo::new(ServiceId::NIL, "test.device"),
        Arc::clone(&device),
        AgentConfig::default(),
        shared,
        Box::new(move |from, packet| {
            assert_eq!(from, bus_id);
            let Packet::Raw(bytes) = packet else {
                panic!("unexpected {packet:?}");
            };
            sink_seen.lock().unwrap().push(bytes[0]);
        }),
    );

    for n in 1..=5u8 {
        bus.send(agent.local_id(), to_shared(&Packet::Raw(vec![n])))
            .unwrap();
        device.step();
        assert_eq!(
            seen.lock().unwrap().len(),
            usize::from(n) - 1,
            "not before the step"
        );
        assert_eq!(agent.step(), 1);
        let expected: Vec<u8> = (1..=n).collect();
        assert_eq!(*seen.lock().unwrap(), expected, "seen within the step");
        bus.step();
    }
}

/// The heartbeat schedule keeps the clock's micros: a third of the lease,
/// rounded up, so a 1 s lease heartbeats 333 334 µs after the join and
/// not a microsecond before; and a lease from a hostile cell, however
/// long, neither panics nor wraps into an early heartbeat.
#[test]
fn heartbeats_fall_due_a_third_of_the_lease_after_the_join_rounded_up() {
    use smc_types::codec::to_shared;
    use smc_types::Packet;

    let heartbeats_after_join = |lease_millis: u64, waits: &[u64]| -> Vec<usize> {
        let clock = Arc::new(ManualClock::new());
        let shared: SharedClock = clock.clone();
        let net = SimNetwork::with_clock(LinkConfig::ideal(), 5, Arc::clone(&shared));
        let channel = || {
            ReliableChannel::with_clock(
                Arc::new(net.endpoint()),
                ReliableConfig::default(),
                Arc::clone(&shared),
            )
        };
        // The cell is played by hand on `cell`'s channel.
        let (cell, device) = (channel(), channel());
        let agent = MemberAgent::with_clock(
            ServiceInfo::new(ServiceId::NIL, "test.device"),
            Arc::clone(&device),
            AgentConfig::default(),
            shared,
            Box::new(|_, _| {}),
        );
        let to_agent = |packet: Packet| {
            cell.send(agent.local_id(), to_shared(&packet)).unwrap();
            device.step();
            agent.step();
            cell.step();
        };
        let beacon = Packet::Beacon {
            cell: CellId(1),
            discovery: cell.local_id(),
            seq: 1,
        };
        to_agent(beacon);
        let asked = std::iter::from_fn(|| cell.try_recv())
            .filter_map(|incoming| Packet::from_message(incoming.into_payload()).ok())
            .any(|packet| matches!(packet, Packet::JoinRequest { .. }));
        assert!(asked, "the beacon draws a join request");
        to_agent(Packet::JoinResponse {
            accepted: true,
            reason: String::new(),
            cell: CellId(1),
            lease_millis,
            bus: cell.local_id(),
        });
        assert!(agent.is_member());
        waits
            .iter()
            .map(|&wait| {
                clock.advance_micros(wait);
                agent.step()
            })
            .collect()
    };
    assert_eq!(heartbeats_after_join(1_000, &[333_333, 1]), [0, 1]);
    assert_eq!(heartbeats_after_join(30, &[9_999, 1]), [0, 1]);
    assert_eq!(heartbeats_after_join(u64::MAX, &[0, 1 << 40]), [0, 0]);
}
