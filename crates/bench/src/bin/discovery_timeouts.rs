//! Extension experiment Ext-3 (paper §VI): "maximum timeouts for the
//! discovery service to allow silence from a device until a Purge Member
//! event is launched".
//!
//! Sweeps the silence duration of a device against a fixed lease+grace
//! configuration and reports whether the disconnection was masked (device
//! still a member on return) or the member was purged, plus how long the
//! purge took to be announced.
//!
//! ```text
//! cargo run --release -p smc-bench --bin discovery_timeouts -- [--lease-ms 150] [--grace-ms 250]
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use smc_bench::{bench_reliable, HarnessArgs};
use smc_discovery::{AgentConfig, DiscoveryConfig, DiscoveryService, MemberAgent, MembershipEvent};
use smc_transport::{LinkConfig, ReliableChannel, SimNetwork};
use smc_types::{CellId, ServiceId, ServiceInfo};

fn main() {
    let args = HarnessArgs::from_env(&["lease-ms", "grace-ms"], &[]);
    let lease = Duration::from_millis(args.get("lease-ms", 150));
    let grace = Duration::from_millis(args.get("grace-ms", 250));

    println!("# Ext-3: silence duration vs membership outcome (lease={lease:?}, grace={grace:?})");
    println!(
        "{:>12} {:>10} {:>16}",
        "silence_ms", "outcome", "purge_after_ms"
    );

    let budget = lease + grace;
    let silences: Vec<Duration> = [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0]
        .iter()
        .map(|f| budget.mul_f64(*f))
        .collect();

    for silence in silences {
        let net = SimNetwork::with_seed(LinkConfig::ideal(), 5);
        let config = DiscoveryConfig {
            beacon_interval: Duration::from_millis(25),
            lease,
            grace,
            ..DiscoveryConfig::default()
        };
        let service = DiscoveryService::start(
            CellId(1),
            ReliableChannel::new(Arc::new(net.endpoint()), bench_reliable()),
            config,
        );
        let agent = MemberAgent::start(
            ServiceInfo::new(ServiceId::NIL, "bench.device"),
            ReliableChannel::new(Arc::new(net.endpoint()), bench_reliable()),
            AgentConfig {
                max_missed_heartbeats: u32::MAX,
                ..AgentConfig::default()
            },
            Box::new(|_, _| {}),
        );
        agent.wait_joined(Duration::from_secs(10)).expect("join");
        // Drain the Joined event.
        let _ = service.events().recv_timeout(Duration::from_secs(5));

        // Radio silence.
        net.set_partitioned(agent.local_id(), service.local_id(), true);
        let t0 = Instant::now();
        std::thread::sleep(silence);
        net.set_partitioned(agent.local_id(), service.local_id(), false);

        // Observe the outcome for a short settling window.
        let mut purged_after: Option<Duration> = None;
        let settle = Instant::now() + lease + grace + Duration::from_millis(200);
        while Instant::now() < settle {
            match service.events().recv_timeout(Duration::from_millis(25)) {
                Ok(MembershipEvent::Purged(_, _)) => {
                    purged_after = Some(t0.elapsed());
                    break;
                }
                Ok(_) => {}
                Err(_) => {}
            }
        }
        match purged_after {
            Some(at) => println!(
                "{:>12.0} {:>10} {:>16.0}",
                silence.as_secs_f64() * 1e3,
                "purged",
                at.as_secs_f64() * 1e3
            ),
            None => {
                println!(
                    "{:>12.0} {:>10} {:>16}",
                    silence.as_secs_f64() * 1e3,
                    "masked",
                    "-"
                )
            }
        }

        agent.shutdown();
        service.shutdown();
        net.shutdown();
    }
    println!("# expectation: silences comfortably below lease+grace are masked; beyond it, purged");
}
