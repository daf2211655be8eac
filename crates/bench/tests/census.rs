//! Thread census of one event: how many times each thread of a threaded
//! cell and its two clients is switched out per event, voluntarily (it
//! blocked: a wait, a park) and involuntarily (it was preempted — on one
//! core, usually by a thread it had just woken).
//!
//! The worlds are two of the ledger's shapes, over the in-memory link with
//! one publisher and one subscriber `RemoteClient`, driven from this
//! thread with W events outstanding: `ward_durable` (`SmcCell::start_durable`
//! with its log on a `MemBackend`, 256-byte events) and `ecg_bulk`
//! (`SmcCell::start`, 4 096-byte events, four fragments each at the link's
//! MTU of 1 400). The counts are the kernel's, read from
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
use std::sync::{Arc, Mutex};
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

/// Held by each test while its world runs: no other test's threads run
/// while the counts are read.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

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

/// What distinguishes the two worlds.
#[derive(Debug, Clone, Copy)]
struct Shape {
    /// `SmcCell::start_durable` on a `MemBackend` rather than `SmcCell::start`.
    durable: bool,
    /// Bytes of payload per event.
    payload: usize,
}

const WARD_DURABLE: Shape = Shape {
    durable: true,
    payload: 256,
};

const ECG_BULK: Shape = Shape {
    durable: false,
    payload: 4_096,
};

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
    fn build(shape: Shape) -> World {
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
        let cell = if shape.durable {
            SmcCell::start_durable(bus, discovery, config, Arc::new(MemBackend::new()))
                .expect("the cell starts")
        } else {
            SmcCell::start(bus, discovery, config)
        };
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
            .payload(vec![0x5A; shape.payload])
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
/// thread, printed as a table; returns the total. A row is keyed by the
/// thread's name, and by name and tid only where two threads share one.
fn measure(world: &mut World, w: u64, events: u64) -> f64 {
    world.run(w, events / 4); // warm
    let before = census();
    world.run(w, events);
    let after = census();

    let mut named: BTreeMap<&str, usize> = BTreeMap::new();
    for (_, name) in after.keys() {
        *named.entry(name).or_default() += 1;
    }
    let mut rows = BTreeMap::new();
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
        let key = match named[name.as_str()] {
            1 => name.clone(),
            _ => format!("{name} [{tid}]"),
        };
        rows.insert(key, row);
    }

    let per = |n: u64| n as f64 / events as f64;
    println!("W = {w}, {events} events: context switches per event");
    println!("{:<24} {:>10} {:>12}", "thread", "voluntary", "involuntary");
    let mut total = Switches::default();
    for (key, row) in &rows {
        println!(
            "{key:<24} {:>10.3} {:>12.3}",
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

#[test]
fn a_durable_event_costs_few_context_switches() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    println!("ward_durable");
    let mut world = World::build(WARD_DURABLE);
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

/// The same census for four-fragment events. Only the relative property
/// the drain guarantees is asserted: a window of events costs fewer
/// switches per event than one event at a time.
#[test]
fn a_bulk_event_costs_fewer_context_switches_in_a_window() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    println!("ecg_bulk");
    let mut world = World::build(ECG_BULK);
    let one = measure(&mut world, 1, 2_000);
    let sixteen = measure(&mut world, 16, 20_000);
    world.shutdown();
    assert!(
        sixteen < one,
        "{sixteen:.3} context switches per event at W = 16, {one:.3} at W = 1"
    );
}
