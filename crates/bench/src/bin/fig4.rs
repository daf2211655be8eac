//! Figure 4 of the paper and the extensions its §VI proposes, in one run:
//!
//! - link calibration: one-way latency and a raw bulk transfer over the
//!   modelled 1.5 ms / 575 KB/s IP-over-USB link;
//! - 4(a): response time against payload (0–5000 B), Siena-based against
//!   C-based bus, on the paper's testbed (that link, the iPAQ CPU model);
//! - 4(b): throughput against payload (250–3000 B) on the same testbed;
//! - the 4(a) rows again on an ideal link with a native CPU, where only
//!   engine code separates the two buses;
//! - Ext-1: response time to the last of 1–16 recipients;
//! - Ext-4: response time over each of the four radio profiles.
//!
//! ```text
//! cargo run --release -p smc-bench --bin fig4 -- [--smoke]
//! ```
//!
//! Every point brings up one testbed per engine and alternates them
//! sample by sample; a row is each engine's median and quartiles, and
//! each 4(a) section ends with a least-squares slope per engine.
//! `--smoke` shrinks every axis. Writes `results/fig4.txt`; exits 1 when
//! an event misses a subscriber, the calibration transfer loses a byte,
//! or one of the paper's shape claims fails.

use std::fmt::{Display, Write as _};
use std::sync::Arc;
use std::time::{Duration, Instant};

use smc_bench::{
    bench_reliable, quantiles, slope, write_report, HarnessArgs, Testbed, TestbedConfig,
    HARNESS_TIMEOUT,
};
use smc_match::EngineKind;
use smc_transport::{Incoming, LinkConfig, ReliableChannel, SimNetwork};
use smc_types::Result;

/// The figure's two buses, in column order.
const ENGINES: [EngineKind; 2] = [EngineKind::Siena, EngineKind::FastForward];

/// The payload Ext-1 and Ext-4 publish.
const EXT_PAYLOAD: usize = 500;

/// Each engine's 25th, 50th and 75th percentile at one point.
type Row = [[f64; 3]; 2];

/// One point of a section: its label, testbed, subscriber count and
/// payload.
type Point = (String, TestbedConfig, usize, usize);

/// The run's text, and the claims that failed.
#[derive(Default)]
struct Report {
    text: String,
    failures: Vec<String>,
}

impl Report {
    fn line(&mut self, line: impl Display) {
        println!("{line}");
        let _ = writeln!(self.text, "{line}");
    }

    fn check(&mut self, claim: &str, holds: bool) {
        let verdict = if holds { "ok" } else { "FAILED" };
        self.line(format_args!("# check {verdict}: {claim}"));
        if !holds {
            self.failures.push(claim.to_string());
        }
    }
}

fn ms(elapsed: Duration) -> f64 {
    elapsed.as_secs_f64() * 1e3
}

/// §V's link figures: the one-way latency of unreliable probes, and the
/// rate of a reliable bulk transfer in 1 KB messages.
fn calibrate(report: &mut Report, probes: usize, bulk_kb: usize) {
    report.line(
        "## link calibration, usb-ip: paper 1.5 ms one-way on average (0.6 .. 2.3), ~575 KB/s raw",
    );
    let net = SimNetwork::with_seed(LinkConfig::usb_ip_link(), 7);
    let channel = || ReliableChannel::new(Arc::new(net.endpoint()), bench_reliable());
    let (a, b) = (channel(), channel());
    let latency = (0..probes)
        .map(|_| {
            let start = Instant::now();
            a.send_unreliable(b.local_id(), &[0u8; 8])?;
            b.recv(Some(HARNESS_TIMEOUT))?;
            Ok(ms(start.elapsed()))
        })
        .collect::<Result<Vec<f64>>>();
    if let Ok(l) = &latency {
        let [min, q1, median, q3, max] = quantiles(l, [0.0, 0.25, 0.5, 0.75, 1.0]);
        let mean = l.iter().sum::<f64>() / l.len() as f64;
        report.line(format_args!(
            "latency_ms mean {mean:.3} median {median:.3} [{q1:.3} {q3:.3}] min {min:.3} max {max:.3}"
        ));
    }
    report.check("every latency probe arrives", latency.is_ok());

    let total = bulk_kb * 1024;
    let start = Instant::now();
    let sent = (0..bulk_kb).try_for_each(|_| a.send(b.local_id(), vec![0xAB; 1024]));
    let mut received = 0;
    while sent.is_ok() && received < total {
        match b.recv(Some(HARNESS_TIMEOUT)) {
            Ok(Incoming::Reliable { payload, .. }) => received += payload.len(),
            Ok(_) => {}
            Err(_) => break,
        }
    }
    let kbps = received as f64 / 1024.0 / start.elapsed().as_secs_f64();
    report.line(format_args!(
        "raw_transfer_kbps {kbps:.1} ({received} of {total} B)"
    ));
    report.check("the bulk transfer delivers every byte", received == total);
    a.close();
    b.close();
    net.shutdown();
}

/// Brings up one testbed per engine and takes `samples` of `measure`
/// from each, alternating engine by engine.
fn point(
    config: &TestbedConfig,
    subscribers: usize,
    samples: usize,
    measure: &dyn Fn(&Testbed) -> Result<f64>,
) -> Result<Row> {
    let mut beds = Vec::new();
    for engine in ENGINES {
        let config = TestbedConfig {
            engine,
            ..config.clone()
        };
        beds.push(Testbed::start(&config, subscribers)?);
    }
    // Warm-up: caches and each channel's session.
    for bed in &beds {
        measure(bed)?;
    }
    let mut taken = [Vec::new(), Vec::new()];
    for _ in 0..samples {
        for (bed, engine) in beds.iter().zip(&mut taken) {
            engine.push(measure(bed)?);
        }
    }
    Ok(taken.map(|t| quantiles(&t, [0.25, 0.5, 0.75])))
}

/// Measures and prints a section's points on both engines: `None` when a
/// delivery failed, which is recorded.
fn section(
    report: &mut Report,
    title: &str,
    axis: &str,
    samples: usize,
    points: Vec<Point>,
    measure: &dyn Fn(&Testbed, usize) -> Result<f64>,
) -> Option<Vec<Row>> {
    report.line(format_args!("## {title}"));
    report.line(format_args!(
        "{axis:>11} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "siena_p50", "siena_p25", "siena_p75", "c_p50", "c_p25", "c_p75"
    ));
    let mut rows = Vec::new();
    for (label, config, subscribers, payload) in points {
        match point(&config, subscribers, samples, &|bed| measure(bed, payload)) {
            Ok(row @ [s, c]) => {
                report.line(format_args!(
                    "{label:>11} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3}",
                    s[1], s[0], s[2], c[1], c[0], c[2]
                ));
                rows.push(row);
            }
            Err(e) => {
                report.line(format_args!("{label:>11} failed: {e}"));
                report.check("every event reaches every subscriber", false);
                return None;
            }
        }
    }
    report.check("every event reaches every subscriber", true);
    Some(rows)
}

/// The paper's "packet copying" as one number per engine.
fn fit(report: &mut Report, payloads: &[usize], rows: &[Row]) {
    let [s, c] = [0, 1].map(|e| {
        let points: Vec<(f64, f64)> = payloads
            .iter()
            .zip(rows)
            .map(|(&p, row)| (p as f64 / 1024.0, row[e][1]))
            .collect();
        slope(&points)
    });
    report.line(format_args!("# slope ms/KB: siena {s:.4}, c {c:.4}"));
}

fn main() {
    let smoke = HarnessArgs::from_env(&[], &["smoke"]).has("smoke");
    // Samples per point, 4(b) bursts per point and events per burst,
    // latency probes, KB of bulk transfer.
    let (samples, bursts, burst, probes, bulk_kb) = if smoke {
        (5, 2, 20, 50, 64)
    } else {
        (30, 5, 100, 200, 512)
    };
    // `--smoke` keeps the two ends of each axis.
    let axis = |all: Vec<usize>| {
        if smoke {
            vec![all[0], all[all.len() - 1]]
        } else {
            all
        }
    };
    let response = axis((0..=5000).step_by(500).collect());
    let throughput = axis((250..=3000).step_by(250).collect());
    let recipients = axis(vec![1, 2, 4, 8, 16]);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut report = Report::default();
    report.line(format_args!(
        "# fig4 (smoke: {smoke}), nproc {nproc}: median and quartiles per engine of {samples} \
         samples per point ({bursts} bursts of {burst} events in 4(b)), engines alternating; \
         KB = 1024 B"
    ));
    calibrate(&mut report, probes, bulk_kb);

    let paper = TestbedConfig::paper(EngineKind::Siena);
    let native = |link| TestbedConfig {
        link,
        ..TestbedConfig::ideal(EngineKind::Siena)
    };
    let by_payload = |config: &TestbedConfig, payloads: &[usize]| -> Vec<Point> {
        let point = |&p: &usize| (p.to_string(), config.clone(), 1, p);
        payloads.iter().map(point).collect()
    };
    let respond = |bed: &Testbed, payload| Ok(ms(bed.measure_response(payload, 1)?[0]));

    let title = "4(a) response time, ms: usb-ip link, ipaq-hx4700 cpu";
    let points = by_payload(&paper, &response);
    if let Some(rows) = section(&mut report, title, "payload_B", samples, points, &respond) {
        fit(&mut report, &response, &rows);
        let (first, last) = (rows[0], rows[rows.len() - 1]);
        let rise = (0..2).all(|e| last[e][1] > first[e][1]);
        report.check("both engines rise with payload", rise);
        let below = last[1][1] < last[0][1];
        report.check("the C bus is below Siena at the largest payload", below);
    }

    let title = "4(b) throughput, KB/s: usb-ip link, ipaq-hx4700 cpu";
    let points = by_payload(&paper, &throughput);
    let kbps = |bed: &Testbed, payload| bed.measure_throughput(payload, burst);
    if let Some(rows) = section(&mut report, title, "payload_B", bursts, points, &kbps) {
        let beats = rows.iter().all(|r| r[1][1] > r[0][1]);
        report.check("the C bus sustains more than Siena at every payload", beats);
        let below = rows.iter().all(|r| r[0][1] < 575.0 && r[1][1] < 575.0);
        report.check("both stay below the 575 KB/s link at every payload", below);
    }

    let title = "4(a) on an ideal link with a native cpu (engine code only), ms";
    let points = by_payload(&native(LinkConfig::ideal()), &response);
    if let Some(rows) = section(&mut report, title, "payload_B", samples, points, &respond) {
        fit(&mut report, &response, &rows);
    }

    let title = "Ext-1 response time to the last recipient, ms: usb-ip link, native cpu, 500 B";
    let usb = native(LinkConfig::usb_ip_link());
    let points = recipients
        .iter()
        .map(|&n| (n.to_string(), usb.clone(), n, EXT_PAYLOAD))
        .collect();
    section(&mut report, title, "subscribers", samples, points, &respond);

    let title = "Ext-4 response time over each radio, ms: native cpu, 500 B";
    let radios = [
        ("ideal", LinkConfig::ideal()),
        ("usb-ip", LinkConfig::usb_ip_link()),
        ("bluetooth", LinkConfig::bluetooth_link()),
        ("zigbee", LinkConfig::zigbee_link()),
    ];
    let points = radios
        .into_iter()
        .map(|(name, link)| (name.to_string(), native(link), 1, EXT_PAYLOAD))
        .collect();
    if let Some(rows) = section(&mut report, title, "link", samples, points, &respond) {
        let ordered = (1..rows.len()).all(|i| (0..2).all(|e| rows[i - 1][e][1] < rows[i][e][1]));
        report.check("radios order ideal < usb-ip < bluetooth < zigbee", ordered);
    }

    let failed = report.failures.len();
    report.line(format_args!("# {failed} checks failed"));
    write_report("fig4.txt", &report.text);
    if failed > 0 {
        eprintln!("FAIL: {}", report.failures.join("; "));
        std::process::exit(1);
    }
}
