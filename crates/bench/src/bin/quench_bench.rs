//! Extension experiment Ext-2 (paper §VI): power savings from
//! Elvin-style quenching.
//!
//! A sensor publishes at a fixed rate for a window with no subscriber,
//! then with one, then without again — once with quenching honoured and
//! once ignoring it. Reports how many radio transmissions the quenched
//! run avoided (each transmission is battery drain on a body-worn
//! device).
//!
//! ```text
//! cargo run --release -p smc-bench --bin quench_bench -- [--rate-hz 100] [--window-ms 500]
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use smc_bench::{bench_reliable, HarnessArgs, HARNESS_TIMEOUT};
use smc_core::{RemoteClient, SmcCell, SmcConfig};
use smc_discovery::{AgentConfig, DiscoveryConfig};
use smc_transport::{LinkConfig, ReliableChannel, SimNetwork};
use smc_types::{Event, Filter, Op, ServiceId, ServiceInfo};

struct Run {
    transmitted: u64,
    suppressed: u64,
}

fn run(honour_quench: bool, rate_hz: u64, window: Duration) -> Run {
    let net = SimNetwork::with_seed(LinkConfig::ideal(), 3);
    let smc_config = SmcConfig {
        discovery: DiscoveryConfig {
            beacon_interval: Duration::from_millis(25),
            lease: Duration::from_secs(600),
            grace: Duration::from_secs(600),
            ..DiscoveryConfig::default()
        },
        reliable: bench_reliable(),
        ..SmcConfig::default()
    };
    let cell = SmcCell::start(
        Arc::new(net.endpoint()),
        Arc::new(net.endpoint()),
        smc_config,
    );
    let connect = |device_type: &str| {
        RemoteClient::connect(
            ServiceInfo::new(ServiceId::NIL, device_type).with_role("bench"),
            ReliableChannel::new(Arc::new(net.endpoint()), bench_reliable()),
            AgentConfig::default(),
            HARNESS_TIMEOUT,
        )
        .expect("connect")
    };
    let sensor = connect("bench.sensor");
    sensor
        .advertise(
            Filter::for_type("bench.reading").with(("sensor", Op::Eq, "hr")),
            HARNESS_TIMEOUT,
        )
        .expect("advertise");

    let period = Duration::from_micros(1_000_000 / rate_hz);
    let mut transmitted = 0u64;
    let mut suppressed = 0u64;
    let mut tick = |until: Instant| {
        while Instant::now() < until {
            if honour_quench && sensor.is_quenched() {
                suppressed += 1;
            } else {
                sensor
                    .publish_nowait(
                        Event::builder("bench.reading")
                            .attr("sensor", "hr")
                            .attr("bpm", 70i64)
                            .build(),
                    )
                    .expect("publish");
                transmitted += 1;
            }
            std::thread::sleep(period);
        }
    };

    // Phase 1: nobody listening.
    tick(Instant::now() + window);
    // Phase 2: a monitor subscribes.
    let monitor = connect("bench.monitor");
    let sub = monitor
        .subscribe(Filter::for_type("bench.reading"), HARNESS_TIMEOUT)
        .expect("subscribe");
    tick(Instant::now() + window);
    // Phase 3: the monitor unsubscribes again.
    monitor
        .unsubscribe(sub, HARNESS_TIMEOUT)
        .expect("unsubscribe");
    std::thread::sleep(Duration::from_millis(50)); // quench signal propagates
    tick(Instant::now() + window);

    monitor.shutdown();
    sensor.shutdown();
    cell.shutdown();
    net.shutdown();
    Run {
        transmitted,
        suppressed,
    }
}

fn main() {
    let args = HarnessArgs::from_env(&["rate-hz", "window-ms"], &[]);
    let rate_hz: u64 = args.get("rate-hz", 100);
    let window = Duration::from_millis(args.get("window-ms", 500));

    println!("# Ext-2: quenching power savings ({rate_hz} Hz sampling, {window:?} phases)");
    let naive = run(false, rate_hz, window);
    let quenched = run(true, rate_hz, window);
    println!("{:>10} {:>14} {:>14}", "mode", "transmitted", "suppressed");
    println!(
        "{:>10} {:>14} {:>14}",
        "ignore", naive.transmitted, naive.suppressed
    );
    println!(
        "{:>10} {:>14} {:>14}",
        "honour", quenched.transmitted, quenched.suppressed
    );
    let total = quenched.transmitted + quenched.suppressed;
    println!(
        "# quenching avoided {:.0}% of radio transmissions",
        100.0 * quenched.suppressed as f64 / total.max(1) as f64
    );
}
