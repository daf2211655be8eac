//! Thread census of one durable event: how many times each thread of a
//! threaded durable cell and its two clients is switched out per event,
//! voluntarily (it blocked: a wait, a park) and involuntarily (it was
//! preempted — on one core, usually by a thread it had just woken).
//!
//! The world is the ledger's `ward_durable` shape: `SmcCell::start_durable`
//! with its log on a `MemBackend`, the in-memory link, one publisher and one
//! subscriber `RemoteClient`, driven from this thread with W events
//! outstanding. The counts are the kernel's, read from
//! `/proc/self/task/*/status` before and after a fixed number of events;
//! nothing in the program counts anything for this test.
//!
//! On one core (`taskset -c 0`) a switch costs a few microseconds, of the
//! same order as a durable event's own work, so this is where a hand-off
//! creeping back shows. Run it alone and in release to read the table:
//!
//! ```text
//! taskset -c 0 cargo test --release -p smc-bench --test census -- --nocapture
//! ```

use std::collections::BTreeMap;
use std::fs;
use std::sync::Arc;
use std::time::Duration;

use smc_core::{RemoteClient, SmcCell, SmcConfig};
use smc_discovery::{AgentConfig, DiscoveryConfig};
use smc_match::EngineKind;
use smc_policy::ehealth_baseline;
use smc_transport::{LinkConfig, ReliableChannel, ReliableConfig, SimNetwork, Transport};
use smc_types::{Event, Filter, Op, ServiceId, ServiceInfo};
use smc_wal::MemBackend;

const TIMEOUT: Duration = Duration::from_secs(10);
const EVENT_TYPE: &str = "smc.sensor.reading";

/// Switches per event at W = 16 above which hand-offs have crept back.
/// A receive thread that wakes the next one per datagram reads ≈ 1 here
/// (0.95–1.02 pinned to one core, 0.4–2.2 on two); one that wakes it
/// once per drain reads ≈ 0.3.
const MAX_SWITCHES_PER_EVENT_W16: f64 = 0.6;

/// One thread's switch counts.
#[derive(Debug, Clone, Copy, Default)]
struct Switches {
    voluntary: u64,
    involuntary: u64,
}

/// Every thread of this process: `(tid, name) -> counts`.
fn census() -> BTreeMap<(u64, String), Switches> {
    let mut threads = BTreeMap::new();
    for task in fs::read_dir("/proc/self/task").expect("a /proc filesystem") {
        let task = task.expect("a task entry").path();
        let Some(tid) = task
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(|n| n.parse().ok())
        else {
            continue;
        };
        // A thread that exited between the listing and the read is gone.
        let (Ok(status), Ok(name)) = (
            fs::read_to_string(task.join("status")),
            fs::read_to_string(task.join("comm")),
        ) else {
            continue;
        };
        let field = |key: &str| {
            status
                .lines()
                .find_map(|line| line.strip_prefix(key))
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(0)
        };
        threads.insert(
            (tid, name.trim().to_string()),
            Switches {
                voluntary: field("voluntary_ctxt_switches:"),
                involuntary: field("nonvoluntary_ctxt_switches:"),
            },
        );
    }
    threads
}

/// The ledger's reliability tuning: nothing retransmits in a lossless run.
fn reliable() -> ReliableConfig {
    ReliableConfig {
        initial_rto: Duration::from_secs(3),
        max_rto: Duration::from_secs(6),
        poll_interval: Duration::from_millis(5),
        window: 64,
        ..ReliableConfig::default()
    }
}

struct World {
    net: SimNetwork,
    cell: Arc<SmcCell>,
    publisher: Arc<RemoteClient>,
    subscriber: Arc<RemoteClient>,
    event: Event,
    published: u64,
    received: u64,
}

impl World {
    fn build() -> World {
        let net = SimNetwork::with_seed(LinkConfig::ideal(), 49);
        let ep = || -> Arc<dyn Transport> { Arc::new(net.endpoint()) };
        let (bus, discovery, publ, subs) = (ep(), ep(), ep(), ep());
        let config = SmcConfig {
            engine: EngineKind::FastForward,
            discovery: DiscoveryConfig {
                beacon_interval: Duration::from_millis(25),
                lease: Duration::from_secs(600),
                grace: Duration::from_secs(600),
                ..DiscoveryConfig::default()
            },
            reliable: reliable(),
            ..SmcConfig::default()
        };
        let cell = SmcCell::start_durable(bus, discovery, config, Arc::new(MemBackend::new()))
            .expect("the cell starts");
        for policy in ehealth_baseline() {
            cell.policy().add(policy).expect("a baseline policy");
        }
        let connect = |transport, device_type: &str, role: &str| {
            let info = ServiceInfo::new(ServiceId::NIL, device_type).with_role(role);
            let channel = ReliableChannel::new(transport, reliable());
            RemoteClient::connect(info, channel, AgentConfig::default(), TIMEOUT)
                .expect("the client joins")
        };
        let publisher = connect(publ, "sensor.vitals", "sensor");
        let subscriber = connect(subs, "monitor.station", "manager");
        subscriber
            .subscribe(
                Filter::for_type(EVENT_TYPE).with(("bpm", Op::Ge, 30i64)),
                TIMEOUT,
            )
            .expect("the subscription");
        let event = Event::builder(EVENT_TYPE)
            .attr("bpm", 72i64)
            .attr("patient", 4_049i64)
            .payload(vec![0x5A; 256])
            .build();
        World {
            net,
            cell,
            publisher,
            subscriber,
            event,
            published: 0,
            received: 0,
        }
    }

    /// Delivers `events` more with `w` outstanding, closed loop, and
    /// checks each arrives in order.
    fn run(&mut self, w: u64, events: u64) {
        let until = self.received + events;
        while self.received < until {
            while self.published - self.received < w && self.published < until {
                self.publisher
                    .publish_nowait(self.event.clone())
                    .expect("publish");
                self.published += 1;
            }
            let event = self.subscriber.next_event(TIMEOUT).expect("a delivery");
            self.received += 1;
            assert_eq!(event.seq(), self.received, "delivered out of order");
        }
    }

    fn shutdown(&self) {
        self.publisher.shutdown();
        self.subscriber.shutdown();
        self.cell.shutdown();
        self.net.shutdown();
    }
}

/// Switches per event over `events` events at `w` outstanding, per
/// thread name, printed as a table; returns the total.
fn measure(world: &mut World, w: u64, events: u64) -> f64 {
    world.run(w, events / 4); // warm
    let before = census();
    world.run(w, events);
    let after = census();

    let per = |n: u64| n as f64 / events as f64;
    println!("W = {w}, {events} events: context switches per event");
    println!(
        "{:<24} {:>10} {:>12}",
        "thread [tid]", "voluntary", "involuntary"
    );
    let mut total = Switches::default();
    for ((tid, name), now) in &after {
        let then = before
            .get(&(*tid, name.clone()))
            .copied()
            .unwrap_or_default();
        let row = Switches {
            voluntary: now.voluntary - then.voluntary,
            involuntary: now.involuntary - then.involuntary,
        };
        if row.voluntary + row.involuntary == 0 {
            continue;
        }
        // Names are cut to 15 bytes: the three receive threads share one.
        println!(
            "{:<24} {:>10.3} {:>12.3}",
            format!("{name} [{tid}]"),
            per(row.voluntary),
            per(row.involuntary)
        );
        total.voluntary += row.voluntary;
        total.involuntary += row.involuntary;
    }
    let sum = per(total.voluntary + total.involuntary);
    println!(
        "{:<24} {:>10.3} {:>12.3}   = {sum:.3}\n",
        "total",
        per(total.voluntary),
        per(total.involuntary)
    );
    sum
}

/// One test, so no other test's threads run while the counts are read.
#[test]
fn a_durable_event_costs_few_context_switches() {
    let mut world = World::build();
    let one = measure(&mut world, 1, 2_000);
    // The best of three: another process's thread taking the core
    // preempts the cell's threads, and only ever adds switches.
    let sixteen = (0..3)
        .map(|_| measure(&mut world, 16, 20_000))
        .fold(f64::INFINITY, f64::min);
    world.shutdown();
    // One at a time, every event wakes each thread on its path: the
    // drain has no backlog to take, and the count is only reported.
    assert!(one > 0.0, "no switch was counted at W = 1");
    assert!(
        sixteen <= MAX_SWITCHES_PER_EVENT_W16,
        "{sixteen:.3} context switches per event at W = 16 (bound {MAX_SWITCHES_PER_EVENT_W16})"
    );
}
