//! Benchmark harness reproducing the paper's evaluation (§V).
//!
//! The testbed mirrors the paper's: the event bus runs on a simulated
//! PDA linked to the measurement endpoints over the 1.5 ms / 575 KB/s
//! IP-over-USB profile ([`LinkConfig::usb_ip_link`]). The PDA is the
//! testbed's, not the bus's: the production cell runs unmodified behind
//! a [`BusHost`], which charges the PDA's copying cost
//! ([`CpuProfile::ipaq_hx4700`]) at the bus endpoint's receive boundary,
//! [`crossings`] times per published event. Each figure harness builds
//! the same bus twice — once per matching engine. The engines' code paths
//! differ for real, but on the paper profile the gap between them is
//! mostly the declared crossings (four for Siena, one for the C bus).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod host;

pub use host::{crossings, BusHost, CpuProfile};

use std::str::FromStr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use smc_core::{RemoteClient, SmcCell, SmcConfig};
use smc_discovery::{AgentConfig, DiscoveryConfig};
use smc_match::EngineKind;
use smc_transport::{LinkConfig, ReliableChannel, ReliableConfig, SimNetwork};
use smc_types::{Error, Event, EventId, Filter, Result, ServiceId, ServiceInfo};

/// How long harnesses wait on any single blocking step.
pub const HARNESS_TIMEOUT: Duration = Duration::from_secs(30);

/// Reliability tuning used by every harness endpoint.
pub fn bench_reliable() -> ReliableConfig {
    ReliableConfig {
        // Generous RTO: the measured link is lossless, and a pipelined
        // burst can legitimately take seconds to drain — premature
        // retransmission would pollute the throughput measurement.
        initial_rto: Duration::from_secs(3),
        max_rto: Duration::from_secs(6),
        poll_interval: Duration::from_millis(5),
        window: 64,
        ..ReliableConfig::default()
    }
}

/// A reproduction of the paper's two-machine testbed.
#[derive(Debug)]
pub struct Testbed {
    /// The simulated radio/serial environment.
    pub net: SimNetwork,
    /// The cell under test (bus on the "PDA").
    pub cell: Arc<SmcCell>,
    /// The publishing endpoint (on the "laptop").
    pub publisher: Arc<RemoteClient>,
    /// The subscribing endpoints (on the "laptop"), each subscribed to
    /// every benchmark event.
    pub subscribers: Vec<Arc<RemoteClient>>,
    /// The bus endpoint's transport, charging the CPU model.
    host: Arc<BusHost>,
}

/// Knobs of a testbed run.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    /// The matching engine for the bus.
    pub engine: EngineKind,
    /// The link profile between endpoints and the bus.
    pub link: LinkConfig,
    /// The CPU cost model of the bus host, charged by its [`BusHost`].
    pub cpu: CpuProfile,
    /// Random seed for the simulated network.
    pub seed: u64,
}

impl TestbedConfig {
    /// The paper's testbed with the given engine.
    pub fn paper(engine: EngineKind) -> Self {
        TestbedConfig {
            engine,
            link: LinkConfig::usb_ip_link(),
            cpu: CpuProfile::ipaq_hx4700(),
            seed: 42,
        }
    }

    /// An idealised testbed (no link delays, native CPU) for sanity runs.
    pub fn ideal(engine: EngineKind) -> Self {
        TestbedConfig {
            engine,
            link: LinkConfig::ideal(),
            cpu: CpuProfile::native(),
            seed: 42,
        }
    }
}

impl Testbed {
    /// Brings up the cell, the publisher and `subscribers` subscribers,
    /// subscribes each to the benchmark event type, and installs the link
    /// profile on the measured paths (joins happen over an ideal link so
    /// setup is fast). The bus endpoint is a [`BusHost`] charging
    /// `config.cpu` [`crossings`]`(config.engine)` times per publish.
    ///
    /// # Errors
    ///
    /// Propagates join/subscribe failures.
    pub fn start(config: &TestbedConfig, subscribers: usize) -> Result<Testbed> {
        let net = SimNetwork::with_seed(LinkConfig::ideal(), config.seed);
        let host = Arc::new(BusHost::new(
            Arc::new(net.endpoint()),
            config.cpu.clone(),
            crossings(config.engine),
        ));
        let smc_config = SmcConfig {
            engine: config.engine,
            discovery: DiscoveryConfig {
                beacon_interval: Duration::from_millis(25),
                lease: Duration::from_secs(600),
                grace: Duration::from_secs(600),
                ..DiscoveryConfig::default()
            },
            reliable: bench_reliable(),
            ..SmcConfig::default()
        };
        let cell = SmcCell::start(host.clone(), Arc::new(net.endpoint()), smc_config);
        let connect = |device_type: &str| {
            RemoteClient::connect(
                ServiceInfo::new(ServiceId::NIL, device_type).with_role("bench"),
                ReliableChannel::new(Arc::new(net.endpoint()), bench_reliable()),
                AgentConfig::default(),
                HARNESS_TIMEOUT,
            )
        };
        let publisher = connect("bench.publisher")?;
        let subscribers = (0..subscribers)
            .map(|_| {
                let subscriber = connect("bench.subscriber")?;
                subscriber.subscribe(Filter::for_type("bench.event"), HARNESS_TIMEOUT)?;
                Ok(subscriber)
            })
            .collect::<Result<Vec<_>>>()?;

        // Install the measured link on publisher→bus and bus→subscriber,
        // and make it the network default so `max_datagram` (which the
        // reliability layer sizes fragments from) reflects the profile's
        // MTU — crucial for small-MTU radios like ZigBee.
        let bus = cell.bus_endpoint();
        for member in subscribers.iter().chain([&publisher]) {
            net.set_link_between(member.local_id(), bus, config.link.clone());
        }
        net.set_default_link(config.link.clone());

        Ok(Testbed {
            net,
            cell,
            publisher,
            subscribers,
            host,
        })
    }

    /// Builds one benchmark event with `payload` bytes of body.
    pub fn event(payload: usize) -> Event {
        Event::builder("bench.event")
            .payload(vec![0xA5u8; payload])
            .build()
    }

    /// Measures end-to-end response time (publish → delivery at the last
    /// subscriber) for `samples` events of `payload` bytes each,
    /// one-at-a-time (no pipelining), returning the per-event times.
    ///
    /// # Errors
    ///
    /// Propagates publish/receive failures; [`Error::Invalid`] when a
    /// subscriber receives any event but the one just published, or when
    /// the bus host could not charge a publish ([`BusHost::check`]).
    pub fn measure_response(&self, payload: usize, samples: usize) -> Result<Vec<Duration>> {
        (0..samples)
            .map(|_| {
                let start = Instant::now();
                self.receive(self.publisher.publish_nowait(Self::event(payload))?)?;
                Ok(start.elapsed())
            })
            .collect()
    }

    /// Measures sustained payload throughput: the publisher pipelines
    /// `events` events of `payload` bytes; the clock stops when the last
    /// one reaches every subscriber. Returns payload kilobytes per second.
    ///
    /// # Errors
    ///
    /// As [`Testbed::measure_response`].
    pub fn measure_throughput(&self, payload: usize, events: usize) -> Result<f64> {
        let start = Instant::now();
        let ids = (0..events)
            .map(|_| self.publisher.publish_nowait(Self::event(payload)))
            .collect::<Result<Vec<_>>>()?;
        for id in ids {
            self.receive(id)?;
        }
        Ok((payload * events) as f64 / 1024.0 / start.elapsed().as_secs_f64())
    }

    /// Takes the next event from every subscriber and checks it is
    /// `expected`: a lost, repeated or reordered delivery fails here, and
    /// so does a publish the bus host could not charge.
    fn receive(&self, expected: EventId) -> Result<()> {
        for (i, subscriber) in self.subscribers.iter().enumerate() {
            let got = subscriber.next_event(HARNESS_TIMEOUT)?.id();
            if got != expected {
                return Err(Error::Invalid(format!(
                    "subscriber {i} received {got}, expected {expected}"
                )));
            }
        }
        self.host.check()
    }
}

/// Dropping a testbed tears it down.
impl Drop for Testbed {
    fn drop(&mut self) {
        self.publisher.shutdown();
        for subscriber in &self.subscribers {
            subscriber.shutdown();
        }
        self.cell.shutdown();
        self.net.shutdown();
    }
}

/// The quantiles `qs` (each in `[0, 1]`) of `samples`, interpolated
/// linearly between the closest ranks.
///
/// # Panics
///
/// Panics on an empty sample set.
pub fn quantiles<const N: usize>(samples: &[f64], qs: [f64; N]) -> [f64; N] {
    assert!(!samples.is_empty(), "no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    qs.map(|q| {
        let rank = q * (sorted.len() - 1) as f64;
        let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
        sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
    })
}

/// The least-squares slope of `y` on `x` over `points`.
///
/// # Panics
///
/// Panics unless two points differ in `x`.
pub fn slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let mean_x = points.iter().map(|p| p.0).sum::<f64>() / n;
    let mean_y = points.iter().map(|p| p.1).sum::<f64>() / n;
    let (sxy, sxx) = points.iter().fold((0.0, 0.0), |(sxy, sxx), (x, y)| {
        (
            sxy + (x - mean_x) * (y - mean_y),
            sxx + (x - mean_x).powi(2),
        )
    });
    assert!(sxx > 0.0, "a slope needs two distinct x");
    sxy / sxx
}

/// Writes a bench report to `results/<name>` under the working
/// directory and names the file on stderr.
///
/// # Panics
///
/// Panics when the file cannot be written.
pub fn write_report(name: &str, text: &str) {
    let path = std::path::Path::new("results").join(name);
    std::fs::create_dir_all("results")
        .and_then(|()| std::fs::write(&path, text))
        .expect("write the bench report");
    eprintln!("wrote {}", path.display());
}

/// A bench bin's command line: `--name value` options and bare
/// `--name` switches, each declared by the bin.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    values: Vec<(String, String)>,
    switches: Vec<String>,
}

impl HarnessArgs {
    /// Parses `args` against the declared `options` (each takes a value)
    /// and `switches`.
    ///
    /// # Errors
    ///
    /// An undeclared flag, a word that is not a flag, or an option
    /// without its value; the message names it.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        options: &[&str],
        switches: &[&str],
    ) -> std::result::Result<Self, String> {
        let mut parsed = HarnessArgs {
            values: Vec::new(),
            switches: Vec::new(),
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let name = arg.strip_prefix("--").unwrap_or_default();
            if options.contains(&name) {
                let value = args.next().ok_or_else(|| format!("{arg} needs a value"))?;
                parsed.values.push((name.to_string(), value));
            } else if switches.contains(&name) {
                parsed.switches.push(name.to_string());
            } else {
                return Err(format!("unknown argument {arg}"));
            }
        }
        Ok(parsed)
    }

    /// [`HarnessArgs::parse`] over the process arguments; on bad input
    /// prints the error and exits 2.
    pub fn from_env(options: &[&str], switches: &[&str]) -> Self {
        Self::parse(std::env::args().skip(1), options, switches).unwrap_or_else(|e| usage(&e))
    }

    /// The last value of `--name`, parsed, or `default` when absent.
    ///
    /// # Errors
    ///
    /// A value that does not parse as `T`; the message names the flag.
    pub fn try_get<T: FromStr>(&self, name: &str, default: T) -> std::result::Result<T, String> {
        match self.values.iter().rev().find(|(n, _)| n == name) {
            Some((_, value)) => value
                .parse()
                .map_err(|_| format!("--{name}: cannot parse {value:?}")),
            None => Ok(default),
        }
    }

    /// [`HarnessArgs::try_get`]; on a value that does not parse prints
    /// the error and exits 2.
    pub fn get<T: FromStr>(&self, name: &str, default: T) -> T {
        self.try_get(name, default).unwrap_or_else(|e| usage(&e))
    }

    /// Whether the switch `--name` is present.
    pub fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

fn usage(error: &str) -> ! {
    eprintln!("error: {error}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> impl Iterator<Item = String> + '_ {
        line.split_whitespace().map(String::from)
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let q = quantiles(&[30.0, 10.0, 20.0, 40.0], [0.0, 0.5, 0.75, 1.0]);
        assert_eq!(q, [10.0, 25.0, 32.5, 40.0]);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn quantiles_of_nothing_panic() {
        let _ = quantiles(&[], [0.5]);
    }

    #[test]
    fn slope_is_exact_on_linear_data() {
        let line: Vec<(f64, f64)> = (0..=10)
            .map(|i| (i as f64 * 500.0, 3.5 * i as f64 * 500.0 + 2.0))
            .collect();
        assert_eq!(slope(&line), 3.5);
    }

    #[test]
    fn args_parse_declared_flags() {
        let a = HarnessArgs::parse(args("--smoke --secs 3"), &["secs"], &["smoke"]).unwrap();
        assert!(a.has("smoke"));
        assert_eq!(a.get("secs", 10u64), 3);
        let a = HarnessArgs::parse(args(""), &["secs"], &["smoke"]).unwrap();
        assert!(!a.has("smoke"));
        assert_eq!(a.get("secs", 10u64), 10);
    }

    #[test]
    fn args_reject_bad_input_naming_the_flag() {
        let parse = |line| HarnessArgs::parse(args(line), &["samples"], &["smoke"]);
        assert_eq!(
            parse("--sample 5").unwrap_err(),
            "unknown argument --sample"
        );
        assert_eq!(parse("smoke").unwrap_err(), "unknown argument smoke");
        assert_eq!(parse("--samples").unwrap_err(), "--samples needs a value");
        let five = parse("--samples five").unwrap();
        assert_eq!(
            five.try_get("samples", 30usize).unwrap_err(),
            "--samples: cannot parse \"five\""
        );
    }

    #[test]
    fn testbed_delivers_each_event_once_in_order_to_every_subscriber() {
        let bed = Testbed::start(&TestbedConfig::ideal(EngineKind::FastForward), 3).unwrap();
        let ids: Vec<EventId> = (0..20)
            .map(|_| bed.publisher.publish_nowait(Testbed::event(64)).unwrap())
            .collect();
        for subscriber in &bed.subscribers {
            let got: Vec<EventId> = (0..ids.len())
                .map(|_| subscriber.next_event(HARNESS_TIMEOUT).unwrap().id())
                .collect();
            assert_eq!(got, ids);
        }
        std::thread::sleep(Duration::from_millis(100));
        assert!(bed.subscribers.iter().all(|s| s.try_next_event().is_none()));
    }

    #[test]
    fn testbed_round_trips_ideal() {
        let bed = Testbed::start(&TestbedConfig::ideal(EngineKind::FastForward), 1).unwrap();
        let times = bed.measure_response(100, 3).unwrap();
        assert_eq!(times.len(), 3);
        let kbps = bed.measure_throughput(500, 20).unwrap();
        assert!(kbps > 0.0);
    }

    #[test]
    fn testbed_round_trips_paper_profile() {
        let mut cfg = TestbedConfig::paper(EngineKind::Siena);
        // Soften the CPU model so the test stays quick.
        cfg.cpu = CpuProfile {
            copy_rounds: 10,
            dispatch_spin: 100,
        };
        let bed = Testbed::start(&cfg, 1).unwrap();
        let times = bed.measure_response(1000, 2).unwrap();
        // Two link hops of ≥0.6 ms each plus transmission.
        assert!(
            times.iter().all(|t| *t >= Duration::from_millis(1)),
            "{times:?}"
        );
    }
}
