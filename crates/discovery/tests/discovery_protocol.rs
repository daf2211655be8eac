//! End-to-end discovery protocol tests over the simulated network.

use std::sync::Arc;
use std::time::Duration;

use smc_discovery::{
    AgentConfig, AgentEvent, DeviceTypeAllowList, DiscoveryConfig, DiscoveryService, MemberAgent,
    MembershipEvent, SharedSecret,
};
use smc_transport::{LinkConfig, ReliableChannel, ReliableConfig, SimNetwork};
use smc_types::{CellId, PurgeReason, ServiceId, ServiceInfo};

const TICK: Duration = Duration::from_secs(5);

fn channel(net: &SimNetwork) -> Arc<ReliableChannel> {
    ReliableChannel::new(
        Arc::new(net.endpoint()),
        ReliableConfig {
            initial_rto: Duration::from_millis(30),
            poll_interval: Duration::from_millis(10),
            ..ReliableConfig::default()
        },
    )
}

fn info(device_type: &str) -> ServiceInfo {
    ServiceInfo::new(ServiceId::NIL, device_type)
        .with_name("test device")
        .with_role("sensor")
}

#[test]
fn device_discovers_and_joins() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let service = DiscoveryService::start(CellId(1), channel(&net), DiscoveryConfig::fast());
    let agent = MemberAgent::start(
        info("sensor.hr"),
        channel(&net),
        AgentConfig::default(),
        Box::new(|_, _| {}),
    );

    let cell = agent.wait_joined(TICK).unwrap();
    assert_eq!(cell, CellId(1));
    assert!(service.is_member(agent.local_id()));
    assert_eq!(service.members().len(), 1);
    assert_eq!(service.members()[0].device_type, "sensor.hr");

    // Both sides observed the join.
    match service.events().recv_timeout(TICK).unwrap() {
        MembershipEvent::Joined(joined) => assert_eq!(joined.id, agent.local_id()),
        other => panic!("unexpected {other:?}"),
    }
    match agent.events().recv_timeout(TICK).unwrap() {
        AgentEvent::Joined { cell, .. } => assert_eq!(cell, CellId(1)),
        other => panic!("unexpected {other:?}"),
    }

    agent.shutdown();
    service.shutdown();
}

#[test]
fn rejected_device_stays_out() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let config = DiscoveryConfig::fast()
        .with_authenticator(Arc::new(DeviceTypeAllowList::new(["sensor.spo2"])));
    let service = DiscoveryService::start(CellId(1), channel(&net), config);
    let agent = MemberAgent::start(
        info("laptop"),
        channel(&net),
        AgentConfig::default(),
        Box::new(|_, _| {}),
    );

    match agent.events().recv_timeout(TICK).unwrap() {
        AgentEvent::Rejected { reason, .. } => assert!(reason.contains("laptop")),
        other => panic!("unexpected {other:?}"),
    }
    assert!(!agent.is_member());
    assert!(service.members().is_empty());
    agent.shutdown();
    service.shutdown();
}

#[test]
fn shared_secret_controls_admission() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let config =
        DiscoveryConfig::fast().with_authenticator(Arc::new(SharedSecret::new(b"tok".to_vec())));
    let service = DiscoveryService::start(CellId(1), channel(&net), config);

    let wrong = MemberAgent::start(
        info("sensor.hr"),
        channel(&net),
        AgentConfig {
            auth_token: b"bad".to_vec(),
            ..AgentConfig::default()
        },
        Box::new(|_, _| {}),
    );
    assert!(matches!(
        wrong.events().recv_timeout(TICK).unwrap(),
        AgentEvent::Rejected { .. }
    ));

    let right = MemberAgent::start(
        info("sensor.hr"),
        channel(&net),
        AgentConfig {
            auth_token: b"tok".to_vec(),
            ..AgentConfig::default()
        },
        Box::new(|_, _| {}),
    );
    right.wait_joined(TICK).unwrap();
    wrong.shutdown();
    right.shutdown();
    service.shutdown();
}

#[test]
fn graceful_leave_purges_immediately() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let service = DiscoveryService::start(CellId(1), channel(&net), DiscoveryConfig::fast());
    let agent = MemberAgent::start(
        info("sensor.hr"),
        channel(&net),
        AgentConfig::default(),
        Box::new(|_, _| {}),
    );
    agent.wait_joined(TICK).unwrap();
    let _ = service.events().recv_timeout(TICK).unwrap(); // Joined

    agent.leave("battery swap").unwrap();
    match service.events().recv_timeout(TICK).unwrap() {
        MembershipEvent::Purged(id, reason) => {
            assert_eq!(id, agent.local_id());
            assert_eq!(reason, PurgeReason::Left);
        }
        other => panic!("unexpected {other:?}"),
    }
    assert!(!service.is_member(agent.local_id()));
    assert!(matches!(
        agent.events().recv_timeout(TICK).unwrap(),
        AgentEvent::Joined { .. }
    ));
    assert!(matches!(
        agent.events().recv_timeout(TICK).unwrap(),
        AgentEvent::Left { .. }
    ));
    agent.shutdown();
    service.shutdown();
}

#[test]
fn transient_disconnect_is_masked() {
    // Device drops out briefly (shorter than lease+grace) and returns: the
    // service must never emit Purged, only Suspected then Recovered.
    let net = SimNetwork::new(LinkConfig::ideal());
    let service = DiscoveryService::start(CellId(1), channel(&net), DiscoveryConfig::fast());
    let agent = MemberAgent::start(
        info("sensor.hr"),
        channel(&net),
        AgentConfig {
            max_missed_heartbeats: 100,
            ..AgentConfig::default()
        },
        Box::new(|_, _| {}),
    );
    agent.wait_joined(TICK).unwrap();
    let _ = service.events().recv_timeout(TICK).unwrap(); // Joined

    // Out of range…
    net.set_partitioned(agent.local_id(), service.local_id(), true);
    match service.events().recv_timeout(TICK).unwrap() {
        MembershipEvent::Suspected(id) => assert_eq!(id, agent.local_id()),
        other => panic!("unexpected {other:?}"),
    }
    // …and back, before the grace period ends.
    net.set_partitioned(agent.local_id(), service.local_id(), false);
    match service.events().recv_timeout(TICK).unwrap() {
        MembershipEvent::Recovered(id) => assert_eq!(id, agent.local_id()),
        other => panic!("unexpected {other:?}"),
    }
    assert!(service.is_member(agent.local_id()));
    agent.shutdown();
    service.shutdown();
}

#[test]
fn prolonged_silence_purges_and_rejoin_works() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let service = DiscoveryService::start(CellId(1), channel(&net), DiscoveryConfig::fast());
    let agent = MemberAgent::start(
        info("sensor.hr"),
        channel(&net),
        AgentConfig::default(),
        Box::new(|_, _| {}),
    );
    agent.wait_joined(TICK).unwrap();
    let _ = service.events().recv_timeout(TICK).unwrap(); // Joined

    net.set_partitioned(agent.local_id(), service.local_id(), true);
    let mut saw_suspected = false;
    loop {
        match service.events().recv_timeout(TICK).unwrap() {
            MembershipEvent::Suspected(_) => saw_suspected = true,
            MembershipEvent::Purged(id, PurgeReason::LeaseExpired) => {
                assert_eq!(id, agent.local_id());
                break;
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    assert!(saw_suspected);
    assert!(!service.is_member(agent.local_id()));

    // The agent notices the dead cell and rejoins once back in range.
    net.set_partitioned(agent.local_id(), service.local_id(), false);
    loop {
        match service.events().recv_timeout(TICK).unwrap() {
            MembershipEvent::Joined(joined) => {
                assert_eq!(joined.id, agent.local_id());
                break;
            }
            MembershipEvent::Recovered(_) | MembershipEvent::Suspected(_) => {}
            other => panic!("unexpected {other:?}"),
        }
    }
    agent.shutdown();
    service.shutdown();
}

#[test]
fn evict_removes_member() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let service = DiscoveryService::start(CellId(1), channel(&net), DiscoveryConfig::fast());
    let agent = MemberAgent::start(
        info("sensor.hr"),
        channel(&net),
        AgentConfig::default(),
        Box::new(|_, _| {}),
    );
    agent.wait_joined(TICK).unwrap();
    let _ = service.events().recv_timeout(TICK).unwrap();

    service.evict(agent.local_id()).unwrap();
    assert!(matches!(
        service.events().recv_timeout(TICK).unwrap(),
        MembershipEvent::Purged(_, PurgeReason::Evicted)
    ));
    assert!(service.evict(agent.local_id()).is_err());
    agent.shutdown();
    service.shutdown();
}

#[test]
fn cell_filter_restricts_agent() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let service1 = DiscoveryService::start(CellId(1), channel(&net), DiscoveryConfig::fast());
    let agent = MemberAgent::start(
        info("sensor.hr"),
        channel(&net),
        AgentConfig {
            cell_filter: Some(CellId(2)),
            ..AgentConfig::default()
        },
        Box::new(|_, _| {}),
    );
    // Cell 1 beacons but the agent wants cell 2 only.
    assert!(agent.wait_joined(Duration::from_millis(300)).is_err());
    let service2 = DiscoveryService::start(CellId(2), channel(&net), DiscoveryConfig::fast());
    assert_eq!(agent.wait_joined(TICK).unwrap(), CellId(2));
    agent.shutdown();
    service1.shutdown();
    service2.shutdown();
}

#[test]
fn multiple_devices_join_one_cell() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let service = DiscoveryService::start(CellId(1), channel(&net), DiscoveryConfig::fast());
    let agents: Vec<_> = (0..5)
        .map(|i| {
            MemberAgent::start(
                info(&format!("sensor.kind{i}")),
                channel(&net),
                AgentConfig::default(),
                Box::new(|_, _| {}),
            )
        })
        .collect();
    for a in &agents {
        a.wait_joined(TICK).unwrap();
    }
    assert_eq!(service.members().len(), 5);
    for a in &agents {
        a.shutdown();
    }
    service.shutdown();
}

#[test]
fn discovery_works_over_lossy_link() {
    let net = SimNetwork::with_seed(LinkConfig::ideal().with_loss(0.25), 17);
    let service = DiscoveryService::start(CellId(1), channel(&net), DiscoveryConfig::fast());
    let agent = MemberAgent::start(
        info("sensor.hr"),
        channel(&net),
        AgentConfig::default(),
        Box::new(|_, _| {}),
    );
    // Joins despite 25% packet loss (joins are reliable; beacons repeat).
    agent.wait_joined(TICK).unwrap();
    agent.shutdown();
    service.shutdown();
}

/// The service's endpoint, noting — at the instant an accepting
/// `JoinResponse` goes onto the wire — whether the membership table
/// already lists the device it is addressed to, and whether the owner's
/// membership handler has already seen it join.
#[derive(Debug)]
struct AdmissionProbe {
    inner: smc_transport::MemTransport,
    service: std::sync::OnceLock<Arc<DiscoveryService>>,
    hooked: std::sync::Mutex<Vec<ServiceId>>,
    listed_and_hooked_when_told: std::sync::Mutex<Vec<(bool, bool)>>,
}

impl smc_transport::Transport for AdmissionProbe {
    fn local_id(&self) -> ServiceId {
        self.inner.local_id()
    }
    fn send(&self, to: ServiceId, payload: &[u8]) -> smc_types::Result<()> {
        use smc_types::codec::from_bytes;
        if let Ok(smc_transport::Frame::Data { payload: body, .. }) = from_bytes(payload) {
            if let Ok(smc_types::Packet::JoinResponse { accepted: true, .. }) = from_bytes(&body) {
                let service = self.service.get().expect("probe armed before any join");
                let hooked = self.hooked.lock().unwrap().contains(&to);
                self.listed_and_hooked_when_told
                    .lock()
                    .unwrap()
                    .push((service.is_member(to), hooked));
            }
        }
        self.inner.send(to, payload)
    }
    fn broadcast(&self, payload: &[u8]) -> smc_types::Result<()> {
        self.inner.broadcast(payload)
    }
    fn recv(&self, timeout: Option<Duration>) -> smc_types::Result<smc_transport::Datagram> {
        self.inner.recv(timeout)
    }
    fn max_datagram(&self) -> usize {
        self.inner.max_datagram()
    }
    fn close(&self) {
        self.inner.close()
    }
}

/// A device that hears it was admitted may use its membership at once
/// (`wait_joined` returns on the transition, not a poll later), so before
/// the answer leaves the table must list it and the owner's membership
/// handler must have seen it join — the bus asks the owner.
#[test]
fn member_is_admitted_before_it_is_told() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let probe = Arc::new(AdmissionProbe {
        inner: net.endpoint(),
        service: std::sync::OnceLock::new(),
        hooked: std::sync::Mutex::new(Vec::new()),
        listed_and_hooked_when_told: std::sync::Mutex::new(Vec::new()),
    });
    let service_channel = ReliableChannel::new(
        Arc::clone(&probe) as Arc<dyn smc_transport::Transport>,
        ReliableConfig::default(),
    );
    let service = DiscoveryService::start(CellId(1), service_channel, DiscoveryConfig::fast());
    probe.service.set(Arc::clone(&service)).unwrap();
    let hook_probe = Arc::clone(&probe);
    service.set_membership_handler(Box::new(move |change| {
        if let MembershipEvent::Joined(info) = change {
            hook_probe.hooked.lock().unwrap().push(info.id);
        }
    }));

    let agent = MemberAgent::start(
        info("sensor.hr"),
        channel(&net),
        AgentConfig::default(),
        Box::new(|_, _| {}),
    );
    agent.wait_joined(TICK).unwrap();
    assert_eq!(
        *probe.listed_and_hooked_when_told.lock().unwrap(),
        vec![(true, true)]
    );
    assert_eq!(*probe.hooked.lock().unwrap(), vec![agent.local_id()]);

    agent.shutdown();
    service.shutdown();
}

/// A device without an agent: it joins, is answered, and is never heard
/// from again (give the service a long lease).
fn join_by_hand(net: &SimNetwork, service: &DiscoveryService) -> Arc<ReliableChannel> {
    use smc_types::codec::{from_bytes, to_shared};
    use smc_types::Packet;

    let device = channel(net);
    let join = Packet::JoinRequest {
        info: info("sensor.hr"),
        auth_token: Vec::new(),
    };
    device.send(service.local_id(), to_shared(&join)).unwrap();
    loop {
        let incoming = device.recv(Some(TICK)).expect("an answer");
        if let Ok(Packet::JoinResponse { accepted, .. }) = from_bytes(incoming.payload()) {
            assert!(accepted);
            return device;
        }
    }
}

fn change_of(change: &MembershipEvent) -> String {
    match change {
        MembershipEvent::Joined(info) => format!("joined {}", info.id),
        MembershipEvent::Purged(id, reason) => format!("purged {id} {reason:?}"),
        other => format!("{other:?}"),
    }
}

/// A service nobody claimed queues its membership changes on `events()`.
/// A handler installed later is handed those first, in the order the
/// table changed and before the setter returns, then every later change;
/// the queue gets nothing more.
#[test]
fn a_late_membership_handler_sees_earlier_changes_first_and_in_order() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let config = DiscoveryConfig {
        lease: Duration::from_secs(60),
        grace: Duration::from_secs(60),
        ..DiscoveryConfig::fast()
    };
    let service = DiscoveryService::start(CellId(1), channel(&net), config);
    let (a, b) = (join_by_hand(&net, &service), join_by_hand(&net, &service));
    let (a, b) = (a.local_id(), b.local_id());
    service.evict(a).unwrap();

    let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
    let handled = Arc::clone(&seen);
    service.set_membership_handler(Box::new(move |change| {
        handled.lock().unwrap().push(change_of(&change));
    }));
    assert_eq!(
        *seen.lock().unwrap(),
        [
            format!("joined {a}"),
            format!("joined {b}"),
            format!("purged {a} Evicted"),
        ]
    );

    // Live: `b`'s purge is queued ahead of `c`'s join, and `c` is not
    // answered before both are handled.
    service.evict(b).unwrap();
    let c = join_by_hand(&net, &service).local_id();
    assert_eq!(
        seen.lock().unwrap()[3..],
        [format!("purged {b} Evicted"), format!("joined {c}")]
    );
    assert!(
        service.events().try_recv().is_err(),
        "a claimed service queues nothing"
    );
    service.shutdown();
}

/// A packet sink runs on the channel's receive thread, under the agent's
/// sink lock, and may still stop the agent it belongs to: `shutdown`
/// neither joins the thread it was called on nor takes that lock again,
/// and the sink — with the agent handle it holds — is dropped once it
/// returns.
#[test]
fn a_packet_sink_may_shut_its_agent_down() {
    use smc_types::codec::to_shared;
    use smc_types::Packet;

    let net = SimNetwork::new(LinkConfig::ideal());
    let service = DiscoveryService::start(CellId(1), channel(&net), DiscoveryConfig::fast());
    // The sink gets its agent once the agent exists.
    let slot = Arc::new(std::sync::OnceLock::<Arc<MemberAgent>>::new());
    let (stopped_tx, stopped) = std::sync::mpsc::channel();
    let own = Arc::clone(&slot);
    let agent = MemberAgent::start(
        info("sensor.hr"),
        channel(&net),
        AgentConfig::default(),
        Box::new(move |_, _| {
            let own = own
                .get()
                .expect("the agent is handed over before bus traffic");
            own.shutdown();
            let _ = stopped_tx.send(own.is_member());
        }),
    );
    agent.wait_joined(TICK).unwrap();
    let (id, released) = (agent.local_id(), Arc::downgrade(&agent));
    slot.set(agent).expect("set once");
    drop(slot);

    // Bus traffic, which discovery leaves to the sink.
    let bus = channel(&net);
    bus.send(id, to_shared(&Packet::Quench { enable: true }))
        .unwrap();
    assert_eq!(
        stopped.recv_timeout(TICK),
        Ok(false),
        "shutdown returned inside the sink"
    );
    let deadline = std::time::Instant::now() + TICK;
    while released.upgrade().is_some() {
        assert!(
            std::time::Instant::now() < deadline,
            "the sink (and the agent it held) outlived the shutdown"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    bus.close();
    service.shutdown();
}
