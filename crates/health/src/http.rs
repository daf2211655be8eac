//! A tiny dependency-free blocking HTTP status server — the operator
//! surface. One route table serves these endpoints and renders the `/`
//! index that lists them:
//!
//! * `GET /metrics` — the registry's Prometheus text exposition,
//! * `GET /health` — per-component health state as JSON,
//! * `GET /journey?sender=<raw-id>&seq=<n>` (or `?trace=<16-hex>`) —
//!   one event's hop-by-hop journey. On a telemetry observer the
//!   cross-cell stitched journey is preferred; otherwise the local
//!   trace sink replays it. Histogram exemplars matching the trace are
//!   appended either way,
//! * `GET /cells` — per-cell export freshness (last export sequence,
//!   virtual timestamp, lag) as JSON, when ward aggregation is enabled,
//! * `GET /supervision` — the supervisor's report plus the
//!   peer-supervision lease table as JSON,
//! * `GET /tails` (`?format=text` for the flame view) — the critical-path
//!   attribution table plus the tail-exemplar reservoir, folded from the
//!   trace sink's current window,
//! * `GET /slo` (`?json` for machine form, `?at=<µs>` to pin the
//!   evaluation instant) — per-SLO windowed burn rates.
//!
//! Every refusal is a `400` or `404` with a `{"error": "..."}` JSON body.
//! One request per connection, `Connection: close` — deliberately
//! minimal, since the workspace is offline and vendors no HTTP stack.

use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use smc_telemetry::{json_string, CriticalPath, Registry, SloTracker, TraceSink, WardRegistry};
use smc_types::{ServiceId, SharedClock, TraceId};

use crate::monitor::HealthReport;
use crate::peer::{peer_lease_json, PeerLease};
use crate::supervise::SupervisionReport;

/// What `/supervision` serves: the supervisor's latest report plus the
/// peer-supervision lease table, refreshed by whoever drives them.
#[derive(Debug, Clone, Default)]
pub struct SupervisionStatus {
    /// The in-process supervisor's report.
    pub report: SupervisionReport,
    /// The peer-supervision lease table.
    pub peers: Vec<PeerLease>,
}

/// What the server reads on each request. The health report is shared
/// state refreshed by whoever drives the
/// [`HealthMonitor`](crate::HealthMonitor); the registry and sink sample
/// themselves.
#[derive(Debug, Clone, Default)]
pub struct StatusSources {
    /// Metrics registry behind `/metrics`.
    pub registry: Registry,
    /// Trace sink behind `/journey` and `/tails` (404s when absent).
    pub sink: Option<Arc<TraceSink>>,
    /// Latest health report behind `/health`.
    pub health: Arc<parking_lot::Mutex<HealthReport>>,
    /// Supervision state behind `/supervision` (404s when absent).
    pub supervision: Option<Arc<parking_lot::Mutex<SupervisionStatus>>>,
    /// Ward-scale telemetry aggregation behind `/cells` and stitched
    /// `/journey` responses (404s when absent).
    pub ward: Option<Arc<WardRegistry>>,
    /// Clock `/cells` computes lag against; falls back to the newest
    /// export timestamp the ward has seen when absent.
    pub clock: Option<SharedClock>,
    /// SLO trackers behind `/slo` (404s when absent).
    pub slo: Option<Arc<parking_lot::Mutex<Vec<SloTracker>>>>,
}

/// The running server: a background accept loop that can be stopped.
#[derive(Debug)]
pub struct StatusServer {
    addr: SocketAddr,
    running: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl StatusServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts serving
    /// `sources` on a background thread.
    pub fn start(addr: &str, sources: StatusSources) -> std::io::Result<StatusServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let running = Arc::new(AtomicBool::new(true));
        let flag = Arc::clone(&running);
        let handle = std::thread::Builder::new()
            .name("smc-status".into())
            .spawn(move || {
                while flag.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let _ = serve_one(stream, &sources);
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(10));
                        }
                        Err(_) => break,
                    }
                }
            })?;
        Ok(StatusServer {
            addr,
            running,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.running.store(false, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for StatusServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn serve_one(mut stream: TcpStream, sources: &StatusSources) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > 16 * 1024 {
            break;
        }
    }
    let request = String::from_utf8_lossy(&buf);
    let target = request
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .unwrap_or("/");
    let (status, content_type, body) = route(target, sources);
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())
}

/// A refused request: its status line and the message its
/// `{"error": ...}` body carries.
type Refusal = (&'static str, String);
/// A handler's answer: a `200 OK`'s content type and body, or a refusal.
type Reply = Result<(&'static str, String), Refusal>;
/// One endpoint: answers a parsed query from the sources.
type Handler = fn(&Query, &StatusSources) -> Reply;

const BAD_REQUEST: &str = "400 Bad Request";
const NOT_FOUND: &str = "404 Not Found";
const JSON: &str = "application/json";
const TEXT: &str = "text/plain";

/// The status server's one route table, in the order `/` lists it.
const ROUTES: &[(&str, Handler)] = &[
    ("/metrics", |_, s| {
        Ok(("text/plain; version=0.0.4", s.registry.render_text()))
    }),
    ("/health", |_, s| Ok((JSON, s.health.lock().to_json()))),
    ("/journey", journey),
    ("/cells", cells),
    ("/supervision", supervision),
    ("/tails", tails),
    ("/slo", slo),
];

fn route(target: &str, sources: &StatusSources) -> (&'static str, &'static str, String) {
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    let reply = match ROUTES.iter().find(|(p, _)| *p == path) {
        Some((_, handler)) => handler(&Query::parse(query), sources),
        None if path == "/" => Ok((TEXT, index())),
        None => Err((NOT_FOUND, format!("no endpoint {path}"))),
    };
    match reply {
        Ok((content_type, body)) => ("200 OK", content_type, body),
        Err((status, error)) => {
            let body = format!("{{\"error\":{}}}\n", json_string(&error));
            (status, JSON, body)
        }
    }
}

/// The `/` page: every path in `ROUTES`.
fn index() -> String {
    let paths: Vec<&str> = ROUTES.iter().map(|(p, _)| *p).collect();
    format!("smc status server: {}\n", paths.join(" "))
}

/// A request's query string, split once into `key=value` pairs (a bare
/// `key` has an empty value). When a key repeats, the first one counts.
struct Query<'a>(Vec<(&'a str, &'a str)>);

impl<'a> Query<'a> {
    fn parse(raw: &'a str) -> Query<'a> {
        let pair = |p: &'a str| p.split_once('=').unwrap_or((p, ""));
        Query(raw.split('&').filter(|p| !p.is_empty()).map(pair).collect())
    }

    fn get(&self, key: &str) -> Option<&'a str> {
        self.0.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }

    /// `key` as a decimal `u64`; `None` when absent.
    fn u64(&self, key: &str) -> Result<Option<u64>, Refusal> {
        self.number(key, 10, "a non-negative integer")
    }

    /// `key` as a hexadecimal trace id; `None` when absent.
    fn hex(&self, key: &str) -> Result<Option<u64>, Refusal> {
        self.number(key, 16, "a hex trace id")
    }

    /// `key` as a `u64` that must be present.
    fn required(&self, key: &str) -> Result<u64, Refusal> {
        let missing = || (BAD_REQUEST, format!("missing query parameter '{key}'"));
        self.u64(key)?.ok_or_else(missing)
    }

    fn number(&self, key: &str, radix: u32, what: &str) -> Result<Option<u64>, Refusal> {
        let bad = |raw: &str| format!("query parameter '{key}' must be {what}, got '{raw}'");
        let parse = |raw| u64::from_str_radix(raw, radix).map_err(|_| (BAD_REQUEST, bad(raw)));
        self.get(key).map(parse).transpose()
    }
}

/// The 404 of an endpoint whose source is not configured.
fn off(what: &str) -> Refusal {
    (NOT_FOUND, format!("{what} is not enabled"))
}

/// The source behind an endpoint, or the 404 saying `what` is off.
fn enabled<'s, T>(source: &'s Option<T>, what: &str) -> Result<&'s T, Refusal> {
    source.as_ref().ok_or_else(|| off(what))
}

/// `[a, b, …]` from already-rendered JSON values.
fn json_list(items: impl Iterator<Item = String>) -> String {
    format!("[{}]", items.collect::<Vec<_>>().join(", "))
}

/// `/journey`: stitched cross-cell journey when a ward view has one,
/// the local trace sink's replay otherwise, with matching histogram
/// exemplars appended. `trace=<16-hex>` names a trace directly;
/// otherwise `sender=<u64>&seq=<u64>` derives one.
fn journey(query: &Query, sources: &StatusSources) -> Reply {
    if sources.sink.is_none() && sources.ward.is_none() {
        return Err(off("tracing"));
    }
    let (trace, described) = match (query.hex("trace")?, query.get("trace")) {
        (Some(raw), Some(given)) => (TraceId::from_raw(raw), format!("trace={given}")),
        _ => {
            let (sender, seq) = (query.required("sender")?, query.required("seq")?);
            let trace = TraceId::for_event(ServiceId::from_raw(sender), seq);
            (trace, format!("sender={sender} seq={seq}"))
        }
    };
    let stitched = sources.ward.as_ref().and_then(|w| w.stitched(trace));
    let replayed = || {
        let journey = sources.sink.as_ref()?.journey(trace);
        (!journey.is_empty()).then(|| journey.to_string())
    };
    let Some(mut body) = stitched.map(|s| s.to_string()).or_else(replayed) else {
        let why = "(never traced, or the ring overwrote them)";
        return Err((NOT_FOUND, format!("no hops recorded for {described} {why}")));
    };
    let exemplars = sources.registry.exemplars();
    for e in exemplars.iter().filter(|e| e.trace == trace) {
        let (metric, le, value) = (&e.metric, &e.le, &e.value);
        let _ = writeln!(body, "  exemplar {metric}{{le=\"{le}\"}} = {value}");
    }
    Ok((TEXT, body))
}

fn cells(_: &Query, sources: &StatusSources) -> Reply {
    let ward = enabled(&sources.ward, "telemetry aggregation")?;
    let now = match &sources.clock {
        Some(clock) => clock.now_micros(),
        None => ward.latest_export_micros(),
    };
    let cells = json_list(ward.freshness(now).into_iter().map(|f| {
        format!(
            "{{\"cell\": {}, \"last_export_seq\": {}, \"last_delta_at_micros\": {}, \"lag_micros\": {}}}",
            f.cell, f.last_export_seq, f.last_delta_at_micros, f.lag_micros
        )
    }));
    let body = format!("{{\"at_micros\": {now}, \"cells\": {cells}}}\n");
    Ok((JSON, body))
}

fn supervision(_: &Query, sources: &StatusSources) -> Reply {
    let status = enabled(&sources.supervision, "supervision")?.lock().clone();
    let (report, peers) = (status.report.to_json(), peer_lease_json(&status.peers));
    let body = format!("{{\"report\": {report}, \"peers\": {peers}}}\n");
    Ok((JSON, body))
}

/// `/tails`: the critical-path attribution table and tail-exemplar
/// reservoir, folded from the trace sink's current window. JSON by
/// default, `?format=text` for the flame view.
fn tails(query: &Query, sources: &StatusSources) -> Reply {
    let mut cp = CriticalPath::new();
    cp.fold_window(&enabled(&sources.sink, "tail profiling")?.records());
    match query.get("format") {
        None | Some("json") => Ok((JSON, cp.render_json())),
        Some("text") => Ok((TEXT, cp.render_text())),
        Some(other) => {
            let must = "query parameter 'format' must be 'json' or 'text'";
            Err((BAD_REQUEST, format!("{must}, got '{other}'")))
        }
    }
}

/// `/slo`: per-SLO windowed burn rates, text by default, `?json` for
/// the machine form. Burn is evaluated at `?at=<µs>` when given, else
/// at the configured clock's now, else at 0.
fn slo(query: &Query, sources: &StatusSources) -> Reply {
    let trackers = enabled(&sources.slo, "slo tracking")?.lock();
    let clock = || sources.clock.as_ref().map(|c| c.now_micros());
    let now = query.u64("at")?.or_else(clock).unwrap_or(0);
    if query.get("json").is_some() {
        let slos = json_list(trackers.iter().map(|t| {
            let windows = json_list(t.burn(now).into_iter().map(|b| {
                let (w, burn, left) = (b.window_micros, b.burn_milli, b.budget_left_milli);
                format!("{{\"window_micros\": {w}, \"burn_milli\": {burn}, \"budget_left_milli\": {left}}}")
            }));
            let name = json_string(t.name());
            format!("{{\"slo\": {name}, \"windows\": {windows}}}")
        }));
        return Ok((
            JSON,
            format!("{{\"at_micros\": {now}, \"slos\": {slos}}}\n"),
        ));
    }
    let mut body = format!("slo burn at t={now}us\n");
    for t in trackers.iter() {
        for b in t.burn(now) {
            let (name, w, burn, left) =
                (t.name(), b.window_micros, b.burn_milli, b.budget_left_milli);
            let _ = writeln!(
                body,
                "  {name:<24} window={w:>10}us  burn={burn:>6}m  budget_left={left:>4}m"
            );
        }
    }
    Ok((TEXT, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::{ComponentStatus, HealthReport};
    use crate::HealthState;
    use proptest::prelude::*;
    use smc_telemetry::Hop;

    fn get(addr: SocketAddr, target: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(format!("GET {target} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .expect("write");
        let mut out = String::new();
        stream.read_to_string(&mut out).expect("read");
        out
    }

    #[test]
    fn serves_metrics_health_and_journey() {
        let registry = Registry::new();
        registry
            .counter("smc_http_test_total", "Test counter.")
            .add(3);
        let sink = Arc::new(TraceSink::with_capacity(64));
        let trace = TraceId::for_event(ServiceId::from_raw(9), 4);
        sink.record(trace, Hop::Published, 100);
        sink.record(trace, Hop::Delivered, 400);
        let sources = StatusSources {
            registry,
            sink: Some(Arc::clone(&sink)),
            health: Arc::new(parking_lot::Mutex::new(HealthReport {
                at_micros: 7,
                components: vec![ComponentStatus {
                    component: "wal".into(),
                    detector: "wal-stall",
                    state: HealthState::Degraded,
                    detail: "stalled".into(),
                    since_micros: 7,
                }],
            })),
            supervision: None,
            ward: None,
            clock: None,
            slo: None,
        };
        let server = StatusServer::start("127.0.0.1:0", sources).expect("start");
        let addr = server.local_addr();

        let metrics = get(addr, "/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200 OK"));
        assert!(metrics.contains("smc_http_test_total 3"));

        let health = get(addr, "/health");
        assert!(health.contains("application/json"));
        assert!(health.contains("\"overall\":\"degraded\""));

        let journey = get(addr, "/journey?sender=9&seq=4");
        assert!(journey.starts_with("HTTP/1.1 200 OK"));
        assert!(journey.contains("published"));
        assert!(journey.contains("delivered"));

        let bad = get(addr, "/journey?sender=oops");
        assert!(bad.starts_with("HTTP/1.1 400"));

        let missing = get(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.1 404"));

        server.stop();
    }

    #[test]
    fn journey_errors_are_json_with_precise_status() {
        let sink = Arc::new(TraceSink::with_capacity(64));
        let trace = TraceId::for_event(ServiceId::from_raw(9), 4);
        sink.record(trace, Hop::Published, 100);
        let sources = StatusSources {
            registry: Registry::new(),
            sink: Some(sink),
            health: Arc::default(),
            supervision: None,
            ward: None,
            clock: None,
            slo: None,
        };
        let server = StatusServer::start("127.0.0.1:0", sources).expect("start");
        let addr = server.local_addr();

        // Missing parameters: 400, JSON, naming the missing parameter.
        let r = get(addr, "/journey");
        assert!(r.starts_with("HTTP/1.1 400"), "got: {r}");
        assert!(r.contains("application/json"));
        assert!(r.contains("{\"error\":\"missing query parameter 'sender'\"}"));
        let r = get(addr, "/journey?sender=9");
        assert!(r.starts_with("HTTP/1.1 400"));
        assert!(r.contains("missing query parameter 'seq'"));

        // Non-numeric parameters: 400, JSON, echoing the bad value.
        let r = get(addr, "/journey?sender=abc&seq=4");
        assert!(r.starts_with("HTTP/1.1 400"));
        assert!(r.contains("'sender' must be a non-negative integer, got 'abc'"));
        let r = get(addr, "/journey?sender=9&seq=-1");
        assert!(r.starts_with("HTTP/1.1 400"));
        assert!(r.contains("'seq' must be a non-negative integer, got '-1'"));

        // Well-formed but untraced event: 404, JSON.
        let r = get(addr, "/journey?sender=9&seq=999");
        assert!(r.starts_with("HTTP/1.1 404"), "got: {r}");
        assert!(r.contains("application/json"));
        assert!(r.contains("no hops recorded for sender=9 seq=999"));

        // The traced event still renders.
        let r = get(addr, "/journey?sender=9&seq=4");
        assert!(r.starts_with("HTTP/1.1 200"));
        assert!(r.contains("published"));
        server.stop();
    }

    #[test]
    fn journey_without_sink_is_a_json_404() {
        let server = StatusServer::start("127.0.0.1:0", StatusSources::default()).expect("start");
        let r = get(server.local_addr(), "/journey?sender=1&seq=1");
        assert!(r.starts_with("HTTP/1.1 404"));
        assert!(r.contains("application/json"));
        assert!(r.contains("{\"error\":\"tracing is not enabled\"}"));
        server.stop();
    }

    #[test]
    fn supervision_serves_report_and_lease_table() {
        use crate::peer::PeerSupervisor;
        use crate::supervise::{ServiceRegistry, ServiceSpec, SuperviseConfig, Supervisor};
        use crate::HealthTransition;

        // A supervisor with one closed episode and a watcher with one
        // tracked sibling: both must surface in the JSON.
        let mut registry = ServiceRegistry::new();
        registry.register(ServiceSpec::new("core"));
        registry.register(
            ServiceSpec::new("sink")
                .depends_on("core")
                .escalates_to("core"),
        );
        let mut supervisor = Supervisor::new(registry, SuperviseConfig::default());
        supervisor.on_transition(&HealthTransition {
            at_micros: 0,
            component: "sink".into(),
            detector: "component-down",
            from: HealthState::Degraded,
            to: HealthState::Failed,
            detail: "up=0".into(),
        });
        supervisor.on_transition(&HealthTransition {
            at_micros: 1_500,
            component: "sink".into(),
            detector: "component-down",
            from: HealthState::Failed,
            to: HealthState::Healthy,
            detail: "up=1".into(),
        });
        let mut watcher = PeerSupervisor::new(1, [2u64]);
        watcher.tick(0);

        let status = SupervisionStatus {
            report: supervisor.report().clone(),
            peers: watcher.lease_table(),
        };
        let sources = StatusSources {
            registry: Registry::new(),
            sink: None,
            health: Arc::default(),
            supervision: Some(Arc::new(parking_lot::Mutex::new(status))),
            ward: None,
            clock: None,
            slo: None,
        };
        let server = StatusServer::start("127.0.0.1:0", sources).expect("start");
        let r = get(server.local_addr(), "/supervision");
        assert!(r.starts_with("HTTP/1.1 200 OK"), "got: {r}");
        assert!(r.contains("application/json"));
        assert!(r.contains("\"restarts\": 1"));
        assert!(r.contains("\"ttr_micros\": [1500]"));
        assert!(r.contains("\"peers\": [{\"peer\": 2, \"state\": \"watching\""));
        server.stop();
    }

    #[test]
    fn metrics_content_type_is_the_prometheus_text_version() {
        let server = StatusServer::start("127.0.0.1:0", StatusSources::default()).expect("start");
        let r = get(server.local_addr(), "/metrics");
        assert!(
            r.contains("Content-Type: text/plain; version=0.0.4"),
            "got: {r}"
        );
        server.stop();
    }

    #[test]
    fn cells_serves_per_cell_freshness_as_json() {
        use smc_telemetry::WardRegistry;
        use smc_types::TelemetryMsg;

        let ward = Arc::new(WardRegistry::new());
        ward.apply(
            &TelemetryMsg::MetricDelta {
                cell: 1,
                export_seq: 3,
                series: vec![],
            },
            1_000,
            1_050,
        );
        ward.apply(
            &TelemetryMsg::MetricDelta {
                cell: 2,
                export_seq: 5,
                series: vec![],
            },
            2_000,
            2_010,
        );
        let sources = StatusSources {
            ward: Some(ward),
            ..Default::default()
        };
        let server = StatusServer::start("127.0.0.1:0", sources).expect("start");
        let r = get(server.local_addr(), "/cells");
        assert!(r.starts_with("HTTP/1.1 200 OK"), "got: {r}");
        assert!(r.contains("application/json"));
        // No clock configured: "now" is the newest export seen (2000).
        assert!(r.contains("\"at_micros\": 2000"), "got: {r}");
        assert!(r.contains(
            "{\"cell\": 1, \"last_export_seq\": 3, \
             \"last_delta_at_micros\": 1000, \"lag_micros\": 1000}"
        ));
        assert!(r.contains(
            "{\"cell\": 2, \"last_export_seq\": 5, \
             \"last_delta_at_micros\": 2000, \"lag_micros\": 0}"
        ));
        server.stop();
    }

    #[test]
    fn cells_without_ward_aggregation_is_a_json_404() {
        let server = StatusServer::start("127.0.0.1:0", StatusSources::default()).expect("start");
        let r = get(server.local_addr(), "/cells");
        assert!(r.starts_with("HTTP/1.1 404"), "got: {r}");
        assert!(r.contains("application/json"));
        assert!(r.contains("{\"error\":\"telemetry aggregation is not enabled\"}"));
        server.stop();
    }

    #[test]
    fn journey_prefers_the_stitched_ward_view_and_appends_exemplars() {
        use smc_telemetry::WardRegistry;
        use smc_types::{HopExport, TelemetryMsg};

        let trace = TraceId::for_event(ServiceId::from_raw(9), 4);
        let ward = Arc::new(WardRegistry::new());
        ward.apply(
            &TelemetryMsg::TraceExport {
                cell: 1,
                export_seq: 1,
                hops: vec![
                    HopExport {
                        trace: trace.raw(),
                        label: "claim".into(),
                        at_micros: 100,
                    },
                    HopExport {
                        trace: trace.raw(),
                        label: "adopt".into(),
                        at_micros: 300,
                    },
                ],
                truncated: vec![],
            },
            400,
            400,
        );
        let registry = Registry::new();
        registry
            .histogram("smc_repair_micros", "Repair latency.")
            .observe_traced(900, trace);
        let sources = StatusSources {
            registry,
            ward: Some(ward),
            ..Default::default()
        };
        let server = StatusServer::start("127.0.0.1:0", sources).expect("start");
        let addr = server.local_addr();

        // The same journey resolves via sender/seq or the trace's hex.
        for target in [
            "/journey?sender=9&seq=4".to_owned(),
            format!("/journey?trace={trace}"),
        ] {
            let r = get(addr, &target);
            assert!(r.starts_with("HTTP/1.1 200 OK"), "{target} got: {r}");
            assert!(r.contains("cell 1  claim"), "got: {r}");
            assert!(r.contains("cell 1  adopt"));
            assert!(
                r.contains("exemplar smc_repair_micros{le=\"1024\"} = 900"),
                "got: {r}"
            );
        }

        let bad = get(addr, "/journey?trace=zzzz");
        assert!(bad.starts_with("HTTP/1.1 400"), "got: {bad}");
        assert!(bad.contains("'trace' must be a hex trace id"));

        let missing = get(addr, "/journey?trace=1234");
        assert!(missing.starts_with("HTTP/1.1 404"), "got: {missing}");
        assert!(missing.contains("no hops recorded for trace=1234"));
        server.stop();
    }

    #[test]
    fn tails_folds_the_sink_window_and_serves_both_formats() {
        let sink = Arc::new(TraceSink::with_capacity(64));
        let trace = TraceId::for_event(ServiceId::from_raw(3), 7);
        sink.record(trace, Hop::Published, 100);
        sink.record(trace, Hop::OutQueued, 120);
        sink.record(trace, Hop::TxSent, 320);
        sink.record(trace, Hop::Delivered, 350);
        let sources = StatusSources {
            sink: Some(sink),
            ..Default::default()
        };
        let server = StatusServer::start("127.0.0.1:0", sources).expect("start");
        let addr = server.local_addr();

        // Default is JSON with the attribution table and reservoir.
        let r = get(addr, "/tails");
        assert!(r.starts_with("HTTP/1.1 200 OK"), "got: {r}");
        assert!(r.contains("application/json"));
        assert!(r.contains("\"stage\":\"outbound-queue\""), "got: {r}");
        assert!(r.contains("\"kind\":\"wait\""));
        assert!(r.contains("\"tail\":"));

        // The flame view names stages with wait/service bars.
        let r = get(addr, "/tails?format=text");
        assert!(r.starts_with("HTTP/1.1 200 OK"), "got: {r}");
        assert!(r.contains("text/plain"));
        assert!(r.contains("outbound-queue"), "got: {r}");

        // A bogus format is a JSON 400 echoing the bad value.
        let r = get(addr, "/tails?format=xml");
        assert!(r.starts_with("HTTP/1.1 400"), "got: {r}");
        assert!(r.contains("'format' must be 'json' or 'text', got 'xml'"));
        server.stop();
    }

    #[test]
    fn tails_without_tracing_is_a_json_404() {
        let server = StatusServer::start("127.0.0.1:0", StatusSources::default()).expect("start");
        let r = get(server.local_addr(), "/tails");
        assert!(r.starts_with("HTTP/1.1 404"), "got: {r}");
        assert!(r.contains("application/json"));
        assert!(r.contains("{\"error\":\"tail profiling is not enabled\"}"));
        server.stop();
    }

    #[test]
    fn slo_serves_burn_rates_in_text_and_json() {
        use smc_telemetry::{SloConfig, SloTracker};

        let mut tracker = SloTracker::new(SloConfig {
            name: "delivery-latency".into(),
            objective_micros: 1_000,
            budget_milli: 100,
            windows_micros: vec![10_000],
        });
        // All ten observations in-window violate: burn 10000m.
        for i in 0..10u64 {
            tracker.record(90_000 + i * 1_000, 5_000);
        }
        let sources = StatusSources {
            slo: Some(Arc::new(parking_lot::Mutex::new(vec![tracker]))),
            ..Default::default()
        };
        let server = StatusServer::start("127.0.0.1:0", sources).expect("start");
        let addr = server.local_addr();

        // No clock: `?at` pins the evaluation instant.
        let r = get(addr, "/slo?at=100000");
        assert!(r.starts_with("HTTP/1.1 200 OK"), "got: {r}");
        assert!(r.contains("text/plain"));
        assert!(r.contains("delivery-latency"), "got: {r}");
        assert!(r.contains("burn= 10000m"), "got: {r}");

        let r = get(addr, "/slo?json&at=100000");
        assert!(r.starts_with("HTTP/1.1 200 OK"), "got: {r}");
        assert!(r.contains("application/json"));
        assert!(r.contains("\"slo\": \"delivery-latency\""));
        assert!(
            r.contains("\"window_micros\": 10000, \"burn_milli\": 10000"),
            "got: {r}"
        );

        let r = get(addr, "/slo?at=nope");
        assert!(r.starts_with("HTTP/1.1 400"), "got: {r}");
        assert!(r.contains("'at' must be a non-negative integer, got 'nope'"));
        server.stop();
    }

    #[test]
    fn slo_without_trackers_is_a_json_404() {
        let server = StatusServer::start("127.0.0.1:0", StatusSources::default()).expect("start");
        let r = get(server.local_addr(), "/slo");
        assert!(r.starts_with("HTTP/1.1 404"), "got: {r}");
        assert!(r.contains("application/json"));
        assert!(r.contains("{\"error\":\"slo tracking is not enabled\"}"));
        server.stop();
    }

    #[test]
    fn supervision_without_supervisor_is_a_json_404() {
        // Same error-shape conventions as /journey: JSON body, precise
        // status, human-readable reason.
        let server = StatusServer::start("127.0.0.1:0", StatusSources::default()).expect("start");
        let r = get(server.local_addr(), "/supervision");
        assert!(r.starts_with("HTTP/1.1 404"), "got: {r}");
        assert!(r.contains("application/json"));
        assert!(r.contains("{\"error\":\"supervision is not enabled\"}"));
        server.stop();
    }

    #[test]
    fn index_lists_exactly_the_route_table() {
        let (status, _, body) = route("/", &StatusSources::default());
        assert_eq!(status, "200 OK");
        let listed: Vec<&str> = body
            .trim_end()
            .strip_prefix("smc status server: ")
            .expect("index header")
            .split(' ')
            .collect();
        let table: Vec<&str> = ROUTES.iter().map(|(p, _)| *p).collect();
        assert_eq!(listed, table);
    }

    /// Whether `s` is exactly one JSON string literal: quoted, every
    /// control character and lone quote escaped, every escape valid.
    fn is_json_string(s: &str) -> bool {
        let Some(inner) = s.strip_prefix('"').and_then(|s| s.strip_suffix('"')) else {
            return false;
        };
        let mut chars = inner.chars();
        while let Some(c) = chars.next() {
            match c {
                '"' => return false,
                c if (c as u32) < 0x20 => return false,
                '\\' => match chars.next() {
                    Some('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') => {}
                    Some('u') => {
                        let hex: String = chars.by_ref().take(4).collect();
                        if hex.len() != 4 || u16::from_str_radix(&hex, 16).is_err() {
                            return false;
                        }
                    }
                    _ => return false,
                },
                _ => {}
            }
        }
        true
    }

    #[test]
    fn json_string_checker_rejects_raw_quotes_and_controls() {
        assert!(is_json_string(r#""a\"b\\c\u0001""#));
        assert!(!is_json_string(r#""a"b""#));
        assert!(!is_json_string("\"a\nb\""));
        assert!(!is_json_string(r#""a\qb""#));
    }

    /// A hostile query: pairs with and without `=`, empty values,
    /// repeated keys, `%`-junk, quotes, backslashes, control characters
    /// and over-long values, under the table's own keys and others.
    fn hostile_query() -> impl Strategy<Value = String> {
        let key = prop_oneof![
            Just("sender".to_owned()),
            Just("seq".to_owned()),
            Just("trace".to_owned()),
            Just("format".to_owned()),
            Just("at".to_owned()),
            Just("json".to_owned()),
            "[a-z%]{0,6}",
        ];
        let value = prop_oneof![
            Just(String::new()),
            "[0-9]{1,25}",
            "[0-9a-fA-F]{1,20}",
            "[ -~]{0,40}",
            "%[0-9A-Fa-z]{0,2}%%",
            prop::collection::vec(any::<char>(), 0..40).prop_map(|c| c.into_iter().collect()),
            (1usize..5000).prop_map(|n| "9".repeat(n)),
            Just("text".to_owned()),
            Just("-1".to_owned()),
        ];
        let pair = prop_oneof![
            (key.clone(), value).prop_map(|(k, v)| format!("{k}={v}")),
            key,
            Just("=".to_owned()),
            Just(String::new()),
        ];
        prop::collection::vec(pair, 0..6).prop_map(|pairs| pairs.join("&"))
    }

    fn hostile_path() -> impl Strategy<Value = String> {
        prop_oneof![
            (0usize..ROUTES.len()).prop_map(|i| ROUTES[i].0.to_owned()),
            Just("/".to_owned()),
            "/[ -~]{0,30}",
            prop::collection::vec(any::<char>(), 0..20).prop_map(|c| c.into_iter().collect()),
        ]
    }

    /// Every source configured, with one traced event, so a well-formed
    /// query can reach every handler's success path.
    fn full_sources() -> StatusSources {
        use smc_telemetry::{SloConfig, SloTracker};
        let sink = Arc::new(TraceSink::with_capacity(64));
        let trace = TraceId::for_event(ServiceId::from_raw(9), 4);
        sink.record(trace, Hop::Published, 100);
        sink.record(trace, Hop::Delivered, 400);
        StatusSources {
            sink: Some(sink),
            supervision: Some(Arc::default()),
            ward: Some(Arc::new(WardRegistry::new())),
            slo: Some(Arc::new(parking_lot::Mutex::new(vec![SloTracker::new(
                SloConfig::new("delivery \"latency\"", 1_000),
            )]))),
            ..Default::default()
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        #[test]
        fn hostile_targets_get_a_status_and_json_errors(
            path in hostile_path(),
            query in hostile_query(),
            with_query in any::<bool>(),
            full in any::<bool>(),
        ) {
            let target = if with_query { format!("{path}?{query}") } else { path };
            let sources = if full { full_sources() } else { StatusSources::default() };
            let (status, content_type, body) = route(&target, &sources);
            prop_assert!(
                matches!(status, "200 OK" | "400 Bad Request" | "404 Not Found"),
                "{target:?} answered {status}"
            );
            if status != "200 OK" {
                prop_assert_eq!(content_type, "application/json");
                let error = body
                    .strip_prefix("{\"error\":")
                    .and_then(|b| b.strip_suffix("}\n"))
                    .unwrap_or("");
                prop_assert!(is_json_string(error), "{target:?} gave {body:?}");
            }
        }
    }
}
