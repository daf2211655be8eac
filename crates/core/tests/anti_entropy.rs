//! Anti-entropy by digest: whatever a full reconcile pass would repair
//! makes one of the cell's digest pairs differ, so a pass that finds them
//! all equal may skip the log.
//!
//! A step-driven durable cell on a virtual-time network, with its loop
//! stopped so that only the property decides when a pass runs. Random
//! sequences of joins, leaves, evictions, subscribes, unsubscribes and
//! the corruption hooks run in batches; after each batch, when
//! [`SmcCell::views_agree`] says the views agree, every check the full
//! pass makes must come out clean, and otherwise a pass runs and heals.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use smc_core::{SmcCell, SmcConfig};
use smc_discovery::{AgentConfig, DiscoveryConfig, MemberAgent};
use smc_transport::{LinkConfig, ReliableChannel, ReliableConfig, SimNetwork};
use smc_types::codec::to_shared;
use smc_types::{Filter, ManualClock, Packet, ServiceId, ServiceInfo, SharedClock};
use smc_wal::MemBackend;

const DEVICES: usize = 3;
const STEP_MS: u64 = 10;

#[derive(Debug, Clone)]
enum Op {
    /// Virtual time passes: joins, rejoins and lease work happen.
    Run(u64),
    Leave(usize),
    Evict(usize),
    Subscribe(usize, u8),
    Unsubscribe(usize),
    ForgetInMembersMap(usize),
    PlantGhost(u64),
    ForgetInDiscovery(usize),
    DropRoute(usize),
    UntrackRoute(usize),
}

fn arb_op() -> impl Strategy<Value = Op> {
    let device = 0..DEVICES;
    prop_oneof![
        (50u64..600).prop_map(Op::Run),
        device.clone().prop_map(Op::Leave),
        device.clone().prop_map(Op::Evict),
        (device.clone(), any::<u8>()).prop_map(|(d, k)| Op::Subscribe(d, k)),
        device.clone().prop_map(Op::Unsubscribe),
        device.clone().prop_map(Op::ForgetInMembersMap),
        (1u64..4).prop_map(|g| Op::PlantGhost(0x6057_0000 + g)),
        device.clone().prop_map(Op::ForgetInDiscovery),
        device.clone().prop_map(Op::DropRoute),
        device.prop_map(Op::UntrackRoute),
    ]
}

struct Ward {
    clock: Arc<ManualClock>,
    net: SimNetwork,
    cell: Arc<SmcCell>,
    devices: Vec<(Arc<ReliableChannel>, Arc<MemberAgent>)>,
    requests: u64,
}

impl Ward {
    fn new(seed: u64) -> Ward {
        let clock = Arc::new(ManualClock::new());
        let shared: SharedClock = clock.clone();
        let net = SimNetwork::with_clock(LinkConfig::ideal(), seed, Arc::clone(&shared));
        let reliable = ReliableConfig {
            initial_rto: Duration::from_millis(60),
            poll_interval: Duration::from_millis(STEP_MS),
            ..ReliableConfig::default()
        };
        let config = SmcConfig {
            discovery: DiscoveryConfig {
                beacon_interval: Duration::from_millis(100),
                // Heartbeats every 300 ms; a forgotten member misses one
                // acknowledgement and rejoins. Nobody's grace runs out.
                lease: Duration::from_millis(900),
                grace: Duration::from_secs(60),
                ..DiscoveryConfig::default()
            },
            reliable: reliable.clone(),
            clock: Arc::clone(&shared),
            ..SmcConfig::default()
        };
        let (bus, discovery) = (Arc::new(net.endpoint()), Arc::new(net.endpoint()));
        let backend = Arc::new(MemBackend::new());
        let cell = SmcCell::with_clock(bus, discovery, config, backend).expect("durable start");
        cell.set_supervising(false);
        let devices = (0..DEVICES)
            .map(|_| {
                let channel = ReliableChannel::with_clock(
                    Arc::new(net.endpoint()),
                    reliable.clone(),
                    Arc::clone(&shared),
                );
                let agent = MemberAgent::with_clock(
                    ServiceInfo::new(ServiceId::NIL, "sensor.vitals"),
                    Arc::clone(&channel),
                    AgentConfig {
                        max_missed_heartbeats: 1,
                        ..AgentConfig::default()
                    },
                    Arc::clone(&shared),
                );
                (channel, agent)
            })
            .collect();
        let ward = Ward {
            clock,
            net,
            cell,
            devices,
            requests: 0,
        };
        ward.run(300);
        ward
    }

    fn run(&self, ms: u64) {
        for _ in 0..ms / STEP_MS {
            self.net.pump_due();
            self.cell.step();
            for (channel, agent) in &self.devices {
                channel.step();
                agent.step();
            }
            self.clock.advance_millis(STEP_MS);
        }
    }

    fn id(&self, device: usize) -> ServiceId {
        self.devices[device].1.local_id()
    }

    /// A subscription the cell tracks for `device`'s proxy, if any.
    fn tracked(&self, device: usize) -> Option<smc_types::SubscriptionId> {
        let proxy = self.cell.proxy(self.id(device))?;
        proxy.tracked_subscriptions().into_iter().next()
    }

    fn apply(&mut self, op: &Op) {
        let bus = self.cell.bus_endpoint();
        match *op {
            Op::Run(ms) => self.run(ms),
            Op::Leave(d) => {
                let _ = self.devices[d].1.leave("test");
            }
            Op::Evict(d) => {
                let _ = self.cell.discovery().evict(self.id(d));
            }
            Op::Subscribe(d, k) => {
                self.requests += 1;
                let filter = Filter::for_type(format!("smc.vitals.{}", k % 4));
                let request = Packet::Subscribe {
                    request_id: self.requests,
                    filter,
                };
                let _ = self.devices[d].0.send(bus, to_shared(&request));
            }
            Op::Unsubscribe(d) => {
                if let Some(id) = self.tracked(d) {
                    let request = Packet::Unsubscribe(id);
                    let _ = self.devices[d].0.send(bus, to_shared(&request));
                }
            }
            Op::ForgetInMembersMap(d) => {
                self.cell.corrupt_members(self.id(d), false);
            }
            Op::PlantGhost(raw) => {
                self.cell.corrupt_members(ServiceId::from_raw(raw), true);
            }
            Op::ForgetInDiscovery(d) => {
                self.cell.discovery().forget_member(self.id(d));
            }
            Op::DropRoute(d) => {
                if let Some(id) = self.tracked(d) {
                    let _ = self.cell.bus().unsubscribe(id);
                }
            }
            Op::UntrackRoute(d) => {
                if let Some(proxy) = self.cell.proxy(self.id(d)) {
                    if let Some(id) = proxy.tracked_subscriptions().into_iter().next() {
                        proxy.untrack_subscription(id);
                    }
                }
            }
        }
        // Let the messages an op sent reach the cell.
        self.run(2 * STEP_MS);
    }

    /// What a full reconcile pass would repair, checked the way the pass
    /// checks it (`SmcCell::reconcile`'s five repairs), or `None`.
    fn divergence(&self) -> Option<String> {
        let cell = &self.cell;
        let truth: BTreeSet<ServiceId> = cell
            .wal()
            .expect("durable")
            .recover_state()
            .expect("fold")
            .members
            .iter()
            .map(|m| m.id)
            .collect();
        let members: BTreeSet<ServiceId> = cell.members().iter().map(|m| m.id).collect();
        if let Some(id) = truth.iter().find(|id| !cell.discovery().is_member(**id)) {
            return Some(format!("{id} missing from discovery"));
        }
        if members != truth {
            return Some(format!("members {members:?} against truth {truth:?}"));
        }
        let routes = cell.bus().subscriptions();
        let proxied = (0..DEVICES)
            .map(|d| self.id(d))
            .chain(members.iter().copied())
            .filter_map(|id| Some((id, cell.proxy(id)?)));
        for (member, proxy) in proxied {
            let tracked = proxy.tracked_subscriptions();
            if let Some(id) = tracked
                .iter()
                .find(|id| !routes.iter().any(|r| r.0 == **id))
            {
                return Some(format!("{member}'s subscription {} has no route", id.0));
            }
            let untracked = routes
                .iter()
                .find(|(id, subscriber, _)| *subscriber == member && !tracked.contains(id));
            if let Some((id, ..)) = untracked {
                return Some(format!("{member}'s route {} is untracked", id.0));
            }
        }
        None
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn whatever_a_full_pass_would_repair_makes_the_digests_differ(
        seed in any::<u64>(),
        batches in proptest::collection::vec(proptest::collection::vec(arb_op(), 1..4), 1..8),
    ) {
        let mut ward = Ward::new(seed);
        for batch in &batches {
            for op in batch {
                ward.apply(op);
            }
            if ward.cell.views_agree(&ward.cell.discovery().members()) {
                // The check folds the log, which resets the log's digest:
                // it runs only where a pass would have skipped the fold.
                prop_assert_eq!(ward.divergence(), None, "after {:?}", batch);
            } else {
                ward.cell.reconcile().expect("pass");
            }
        }
    }
}
