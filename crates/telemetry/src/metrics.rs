//! The metrics registry: named counters, gauges and log₂-bucketed
//! histograms with Prometheus-style text exposition.
//!
//! Instruments are cheap atomic handles; the registry remembers what was
//! registered (name, help, labels) and renders everything on demand.
//! Components that count on their own hot paths (the bus, the WAL,
//! discovery, the reliable channel) declare their series once with
//! [`metric_set!`](crate::metric_set) and plug in as *collectors* —
//! closures sampled at render time.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use smc_types::TraceId;

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the value to `v` if it is currently lower (high-water mark).
    pub fn fetch_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Bucket count: `le 1, 2, 4, …, 2³¹` plus `+Inf`.
const BUCKETS: usize = 33;

/// A histogram over `u64` observations with log₂ bucket boundaries.
///
/// Bucket `i < 32` counts observations `≤ 2^i`; the last bucket is
/// `+Inf`. Boundaries are fixed, so merging and rendering need no
/// configuration and observation is one atomic increment.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

/// An OpenMetrics-style exemplar: the trace of the observation that
/// currently holds a bucket's maximum, so a p99 number links back to a
/// replayable journey.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exemplar {
    /// The traced observation's id.
    pub trace: TraceId,
    /// The observed value.
    pub value: u64,
}

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
    /// Per-bucket exemplar slots; only written by
    /// [`Histogram::observe_traced`], so the plain `observe` hot path
    /// never takes this lock.
    exemplars: Mutex<[Option<Exemplar>; BUCKETS]>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistogramInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
            exemplars: Mutex::new([None; BUCKETS]),
        }))
    }
}

fn bucket_index(v: u64) -> usize {
    if v <= 1 {
        0
    } else {
        ((64 - (v - 1).leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// The upper boundary of bucket `i`, as rendered in the `le` label.
fn bucket_bound(i: usize) -> String {
    if i == BUCKETS - 1 {
        "+Inf".to_owned()
    } else {
        (1u64 << i).to_string()
    }
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, v: u64) {
        self.0.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one observation and, when `trace` identifies it, keeps
    /// it as the bucket's exemplar if it is the largest observation the
    /// bucket has seen — rendered OpenMetrics-style by
    /// [`Registry::render_text`] and resolvable back to a journey.
    pub fn observe_traced(&self, v: u64, trace: TraceId) {
        self.observe(v);
        if trace.is_some() {
            let slot = &mut self.0.exemplars.lock()[bucket_index(v)];
            if slot.is_none_or(|e| v >= e.value) {
                *slot = Some(Exemplar { trace, value: v });
            }
        }
    }

    /// The exemplars currently held, as `(bucket index, exemplar)`.
    pub fn exemplars(&self) -> Vec<(usize, Exemplar)> {
        self.0
            .exemplars
            .lock()
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.map(|e| (i, e)))
            .collect()
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// The upper bucket boundary below which at least `q` (0..=1) of the
    /// observations fall — a bucket-resolution quantile estimate.
    /// Returns `u64::MAX` when the quantile lands in the `+Inf` bucket,
    /// `0` when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, b) in self.0.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return if i == BUCKETS - 1 {
                    u64::MAX
                } else {
                    1u64 << i
                };
            }
        }
        u64::MAX
    }

    fn cumulative(&self) -> Vec<u64> {
        let mut acc = 0u64;
        self.0
            .buckets
            .iter()
            .map(|b| {
                acc += b.load(Ordering::Relaxed);
                acc
            })
            .collect()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }

    fn of(sample: &Sample) -> Kind {
        if sample.monotonic {
            Kind::Counter
        } else {
            Kind::Gauge
        }
    }
}

#[derive(Debug, Clone)]
enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[derive(Debug)]
struct Entry {
    name: String,
    help: String,
    labels: Vec<(String, String)>,
    inst: Instrument,
}

/// A sample produced by a collector at render time.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Metric name.
    pub name: String,
    /// One-line help text.
    pub help: String,
    /// `true` for counters, `false` for gauges.
    pub monotonic: bool,
    /// Label pairs.
    pub labels: Vec<(String, String)>,
    /// The sampled value.
    pub value: u64,
}

impl Sample {
    /// A counter reading (monotonic).
    pub fn counter(name: &str, help: &str, labels: &[(&str, &str)], value: u64) -> Sample {
        Sample {
            name: name.to_owned(),
            help: help.to_owned(),
            monotonic: true,
            labels: owned_labels(labels),
            value,
        }
    }

    /// A gauge reading (may go down).
    pub fn gauge(name: &str, help: &str, labels: &[(&str, &str)], value: u64) -> Sample {
        Sample {
            monotonic: false,
            ..Sample::counter(name, help, labels, value)
        }
    }
}

/// Declares a set of `u64` series **once**: kind (`counter` / `gauge`),
/// field name, exposition name, and a doc comment that is also the
/// `# HELP` text.
///
/// The first struct is what a hot path bumps — one inline, `Relaxed`
/// [`AtomicU64`] per series. The second is its plain `Copy` reading,
/// returned by the generated `snapshot()` and turned into [`Sample`]s by
/// the generated `samples(labels, out)`. Series listed in the second
/// struct's own braces have no atomic behind them: `snapshot()` leaves
/// them zero for whoever takes the reading to fill in from where the
/// value really lives.
///
/// ```
/// smc_telemetry::metric_set! {
///     /// What the door did.
///     struct DoorCounters {
///         /// Times the door opened.
///         counter opened: "door_opened_total",
///     }
///     /// A reading of [`DoorCounters`].
///     pub struct DoorStats {
///         /// People inside right now.
///         gauge inside: "door_inside",
///     }
/// }
/// let mut out = Vec::new();
/// DoorCounters::default().snapshot().samples(&[("door", "front")], &mut out);
/// assert_eq!(out[1].name, "door_inside");
/// ```
#[macro_export]
macro_rules! metric_set {
    (
        $(#[$atomics_meta:meta])*
        $atomics_vis:vis struct $Atomics:ident {
            $( $(#[doc = $help:literal])+ $kind:ident $field:ident : $name:literal ),* $(,)?
        }
        $(#[$reading_meta:meta])*
        $reading_vis:vis struct $Reading:ident {
            $( $(#[doc = $r_help:literal])+ $r_kind:ident $r_field:ident : $r_name:literal ),* $(,)?
        }
    ) => {
        $(#[$atomics_meta])*
        #[derive(Debug, Default)]
        $atomics_vis struct $Atomics {
            $( $(#[doc = $help])+ pub $field: ::std::sync::atomic::AtomicU64, )*
        }

        impl $Atomics {
            /// A plain-value reading of every series (`Relaxed` loads).
            $atomics_vis fn snapshot(&self) -> $Reading {
                $Reading {
                    $( $field: self.$field.load(::std::sync::atomic::Ordering::Relaxed), )*
                    $( $r_field: 0, )*
                }
            }
        }

        $(#[$reading_meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $reading_vis struct $Reading {
            $( $(#[doc = $help])+ pub $field: u64, )*
            $( $(#[doc = $r_help])+ pub $r_field: u64, )*
        }

        impl $Reading {
            /// Appends one sample per series, each carrying `labels`.
            $reading_vis fn samples(&self, labels: &[(&str, &str)], out: &mut Vec<$crate::Sample>) {
                $( out.push($crate::Sample::$kind(
                    $name, concat!($($help),+).trim(), labels, self.$field,
                )); )*
                $( out.push($crate::Sample::$r_kind(
                    $r_name, concat!($($r_help),+).trim(), labels, self.$r_field,
                )); )*
            }
        }
    };
}

/// What one exposition has emitted so far. A series (`name{labels}`) is
/// exported once and a name has one type: the first claim stands and a
/// repeat is dropped — loudly in a debug build.
#[derive(Default)]
struct Claims {
    series: HashSet<String>,
    kinds: HashMap<String, Kind>,
}

impl Claims {
    fn admit(&mut self, family: &str, kind: Kind, series: String) -> bool {
        let fresh = *self.kinds.entry(family.to_owned()).or_insert(kind) == kind
            && !self.series.contains(&series);
        debug_assert!(fresh, "series {series} is exported twice or as two types");
        fresh && self.series.insert(series)
    }
}

type Collector = Box<dyn Fn(&mut Vec<Sample>) + Send + Sync>;

/// A registry of named instruments, rendered as Prometheus-style text.
#[derive(Clone, Default)]
pub struct Registry(Arc<RegistryInner>);

#[derive(Default)]
struct RegistryInner {
    entries: Mutex<Vec<Entry>>,
    collectors: Mutex<Vec<Collector>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("entries", &self.0.entries.lock().len())
            .field("collectors", &self.0.collectors.lock().len())
            .finish()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn instrument(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Instrument,
    ) -> Instrument {
        let labels = owned_labels(labels);
        let mut entries = self.0.entries.lock();
        if let Some(e) = entries
            .iter()
            .find(|e| e.name == name && e.labels == labels)
        {
            return e.inst.clone();
        }
        let inst = make();
        entries.push(Entry {
            name: name.to_owned(),
            help: help.to_owned(),
            labels,
            inst: inst.clone(),
        });
        inst
    }

    /// Registers (or retrieves) an unlabelled counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Registers (or retrieves) a labelled counter.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.instrument(name, help, labels, || {
            Instrument::Counter(Counter::default())
        }) {
            Instrument::Counter(c) => c,
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Registers (or retrieves) an unlabelled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Registers (or retrieves) a labelled gauge.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.instrument(name, help, labels, || Instrument::Gauge(Gauge::default())) {
            Instrument::Gauge(g) => g,
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Registers (or retrieves) an unlabelled histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        self.histogram_with(name, help, &[])
    }

    /// Registers (or retrieves) a labelled histogram.
    pub fn histogram_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.instrument(name, help, labels, || {
            Instrument::Histogram(Histogram::default())
        }) {
            Instrument::Histogram(h) => h,
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Installs a collector: a closure sampled at every
    /// [`Registry::render_text`], for components that keep their own
    /// counters (the bus, the WAL, discovery).
    pub fn register_collector(&self, f: impl Fn(&mut Vec<Sample>) + Send + Sync + 'static) {
        self.0.collectors.lock().push(Box::new(f));
    }

    /// Installs a collector over `component` that does not keep it
    /// alive: a registry may outlive what it watches, and emits nothing
    /// for a component that is gone.
    pub fn register_weak<T: Send + Sync + 'static>(
        &self,
        component: &Arc<T>,
        f: impl Fn(&T, &mut Vec<Sample>) + Send + Sync + 'static,
    ) {
        let component = Arc::downgrade(component);
        self.register_collector(move |out| {
            if let Some(component) = component.upgrade() {
                f(&component, out);
            }
        });
    }

    /// Every collector's samples, in registration order.
    fn collect(&self) -> Vec<Sample> {
        let mut out = Vec::new();
        for c in self.0.collectors.lock().iter() {
            c(&mut out);
        }
        out
    }

    /// Samples every instrument and collector into a flat list — the
    /// structured twin of [`Registry::render_text`], consumed by readers
    /// that analyse the registry programmatically (the health monitor)
    /// rather than scraping text. Histograms contribute their `_count`
    /// and `_sum` series; bucket detail stays in the text exposition.
    pub fn gather(&self) -> Vec<Sample> {
        let mut out = Vec::new();
        for e in self.0.entries.lock().iter() {
            let sample = |suffix: &str, monotonic: bool, value: u64| Sample {
                name: format!("{}{suffix}", e.name),
                help: e.help.clone(),
                monotonic,
                labels: e.labels.clone(),
                value,
            };
            match &e.inst {
                Instrument::Counter(c) => out.push(sample("", true, c.get())),
                Instrument::Gauge(g) => out.push(sample("", false, g.get())),
                Instrument::Histogram(h) => {
                    out.push(sample("_count", true, h.count()));
                    out.push(sample("_sum", true, h.sum()));
                }
            }
        }
        out.extend(self.collect());
        let mut claims = Claims::default();
        out.retain(|s| {
            let series = format!("{}{}", s.name, render_labels(&s.labels, None));
            claims.admit(&s.name, Kind::of(s), series)
        });
        out
    }

    /// Renders every instrument and collector sample in the Prometheus
    /// text exposition format (`# HELP`/`# TYPE`, labelled series,
    /// cumulative histogram buckets ending in `+Inf`).
    pub fn render_text(&self) -> String {
        // name → (help, kind, series lines); BTreeMap for stable output.
        let mut families: BTreeMap<String, (String, Kind, Vec<String>)> = BTreeMap::new();
        let mut claims = Claims::default();
        let mut add_series = |name: &str, help: &str, kind: Kind, series: String, value: String| {
            let line = format!("{series} {value}");
            if claims.admit(name, kind, series) {
                let fam = families
                    .entry(name.to_owned())
                    .or_insert_with(|| (help.to_owned(), kind, Vec::new()));
                fam.2.push(line);
            }
        };

        for e in self.0.entries.lock().iter() {
            let series = |suffix: &str, le: Option<&str>| {
                format!("{}{suffix}{}", e.name, render_labels(&e.labels, le))
            };
            let mut add = |kind: Kind, series: String, value: String| {
                add_series(&e.name, &e.help, kind, series, value);
            };
            match &e.inst {
                Instrument::Counter(c) => add(Kind::Counter, series("", None), c.get().to_string()),
                Instrument::Gauge(g) => add(Kind::Gauge, series("", None), g.get().to_string()),
                Instrument::Histogram(h) => {
                    let exemplars = h.0.exemplars.lock();
                    for (i, c) in h.cumulative().iter().enumerate() {
                        let exemplar = exemplars[i]
                            .map(|ex| format!(" # {{trace_id=\"{}\"}} {}", ex.trace, ex.value))
                            .unwrap_or_default();
                        add(
                            Kind::Histogram,
                            series("_bucket", Some(&bucket_bound(i))),
                            format!("{c}{exemplar}"),
                        );
                    }
                    add(Kind::Histogram, series("_sum", None), h.sum().to_string());
                    add(
                        Kind::Histogram,
                        series("_count", None),
                        h.count().to_string(),
                    );
                }
            }
        }
        for s in self.collect() {
            let series = format!("{}{}", s.name, render_labels(&s.labels, None));
            add_series(&s.name, &s.help, Kind::of(&s), series, s.value.to_string());
        }

        let mut out = String::new();
        for (name, (help, kind, series)) in families {
            out.push_str(&format!("# HELP {name} {}\n", escape_help(&help)));
            out.push_str(&format!("# TYPE {name} {}\n", kind.as_str()));
            for line in series {
                out.push_str(&line);
                out.push('\n');
            }
        }
        out
    }

    /// Every exemplar currently held by this registry's histograms —
    /// the lookup `/journey` uses to say which latency buckets cite a
    /// given trace as their worst case.
    pub fn exemplars(&self) -> Vec<ExemplarEntry> {
        let mut out = Vec::new();
        for e in self.0.entries.lock().iter() {
            if let Instrument::Histogram(h) = &e.inst {
                for (bucket, ex) in h.exemplars() {
                    out.push(ExemplarEntry {
                        metric: e.name.clone(),
                        labels: e.labels.clone(),
                        le: bucket_bound(bucket),
                        trace: ex.trace,
                        value: ex.value,
                    });
                }
            }
        }
        out
    }
}

/// One histogram exemplar, located by metric and bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExemplarEntry {
    /// Histogram name.
    pub metric: String,
    /// The histogram's label pairs.
    pub labels: Vec<(String, String)>,
    /// The bucket's `le` bound, as rendered.
    pub le: String,
    /// The exemplar observation's trace.
    pub trace: TraceId,
    /// The exemplar observation's value.
    pub value: u64,
}

fn owned_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let own = |(k, v): &(&str, &str)| ((*k).to_owned(), (*v).to_owned());
    labels.iter().map(own).collect()
}

fn render_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some(bound) = le {
        parts.push(format!("le=\"{bound}\""));
    }
    format!("{{{}}}", parts.join(","))
}

fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// One series parsed back out of exposition text.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedSample {
    /// Series name (including `_bucket`/`_sum`/`_count` suffixes).
    pub name: String,
    /// Label pairs, in written order (including `le` on buckets).
    pub labels: Vec<(String, String)>,
    /// The value.
    pub value: f64,
}

/// Parses exposition text back into samples — the inverse of
/// [`Registry::render_text`] for the subset this crate emits. Used by
/// the golden round-trip tests; returns `None` on any malformed line.
pub fn parse_text(text: &str) -> Option<Vec<ParsedSample>> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // Strip an OpenMetrics exemplar suffix (` # {...} <value>`);
        // the series value precedes it.
        let line = line.split_once(" # {").map_or(line, |(kept, _)| kept);
        let (series, value) = line.rsplit_once(' ')?;
        let value: f64 = value.parse().ok()?;
        let (name, labels) = match series.split_once('{') {
            None => (series.to_owned(), Vec::new()),
            Some((name, rest)) => {
                let body = rest.strip_suffix('}')?;
                let mut labels = Vec::new();
                if !body.is_empty() {
                    for pair in split_label_pairs(body)? {
                        let (k, v) = pair.split_once('=')?;
                        let v = v.strip_prefix('"')?.strip_suffix('"')?;
                        labels.push((k.to_owned(), unescape_label(v)?));
                    }
                }
                (name.to_owned(), labels)
            }
        };
        out.push(ParsedSample {
            name,
            labels,
            value,
        });
    }
    Some(out)
}

/// Splits `k1="v1",k2="v2"` on commas outside quotes.
fn split_label_pairs(body: &str) -> Option<Vec<&str>> {
    let mut parts = Vec::new();
    let mut start = 0;
    let mut in_quotes = false;
    let mut escaped = false;
    for (i, ch) in body.char_indices() {
        match ch {
            _ if escaped => escaped = false,
            '\\' if in_quotes => escaped = true,
            '"' => in_quotes = !in_quotes,
            ',' if !in_quotes => {
                parts.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if in_quotes {
        return None;
    }
    parts.push(&body[start..]);
    Some(parts)
}

fn unescape_label(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(ch) = chars.next() {
        if ch == '\\' {
            match chars.next()? {
                '\\' => out.push('\\'),
                '"' => out.push('"'),
                'n' => out.push('\n'),
                _ => return None,
            }
        } else {
            out.push(ch);
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_render_and_parse_back() {
        let r = Registry::new();
        let c = r.counter_with("smc_events_published_total", "Events accepted.", &[]);
        c.add(42);
        let g = r.gauge_with(
            "smc_queue_depth",
            "Proxy queue depth.",
            &[("member", "a\"b")],
        );
        g.set(7);
        let text = r.render_text();
        assert!(text.contains("# TYPE smc_events_published_total counter"));
        assert!(text.contains("# TYPE smc_queue_depth gauge"));
        let parsed = parse_text(&text).expect("parse");
        let c_back = parsed
            .iter()
            .find(|s| s.name == "smc_events_published_total")
            .unwrap();
        assert_eq!(c_back.value, 42.0);
        assert!(c_back.labels.is_empty());
        let g_back = parsed.iter().find(|s| s.name == "smc_queue_depth").unwrap();
        assert_eq!(g_back.value, 7.0);
        assert_eq!(
            g_back.labels,
            vec![("member".to_owned(), "a\"b".to_owned())]
        );
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_end_in_inf() {
        let r = Registry::new();
        let h = r.histogram("smc_hop_micros", "Per-hop latency.");
        for v in [1u64, 2, 3, 100, 1_000_000_000_000] {
            h.observe(v);
        }
        let text = r.render_text();
        let parsed = parse_text(&text).expect("parse");
        let buckets: Vec<&ParsedSample> = parsed
            .iter()
            .filter(|s| s.name == "smc_hop_micros_bucket")
            .collect();
        assert_eq!(buckets.len(), BUCKETS);
        // Cumulative: never decreasing.
        let counts: Vec<f64> = buckets.iter().map(|s| s.value).collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]));
        // Last bucket is +Inf and holds every observation.
        let last = buckets.last().unwrap();
        assert_eq!(
            last.labels.last().unwrap(),
            &("le".to_owned(), "+Inf".to_owned())
        );
        assert_eq!(last.value, 5.0);
        let count = parsed
            .iter()
            .find(|s| s.name == "smc_hop_micros_count")
            .unwrap();
        assert_eq!(count.value, 5.0);
        let sum = parsed
            .iter()
            .find(|s| s.name == "smc_hop_micros_sum")
            .unwrap();
        assert_eq!(sum.value, 1_000_000_000_106.0);
    }

    #[test]
    fn exemplars_keep_the_bucket_max_and_render_openmetrics_style() {
        use smc_types::ServiceId;
        let r = Registry::new();
        let h = r.histogram("smc_hop_micros", "Per-hop latency.");
        let fast = TraceId::for_event(ServiceId::from_raw(1), 1);
        let slow = TraceId::for_event(ServiceId::from_raw(1), 2);
        h.observe_traced(900, fast); // bucket le=1024
        h.observe_traced(1000, slow); // same bucket, larger → wins
        h.observe_traced(800, fast); // smaller → does not displace
        h.observe(1020); // untraced → never an exemplar
        let exemplars = h.exemplars();
        assert_eq!(exemplars.len(), 1);
        assert_eq!(exemplars[0].0, bucket_index(1000));
        assert_eq!(
            exemplars[0].1,
            Exemplar {
                trace: slow,
                value: 1000
            }
        );

        let text = r.render_text();
        let line = text
            .lines()
            .find(|l| l.contains("le=\"1024\""))
            .expect("bucket line");
        assert!(
            line.ends_with(&format!(" # {{trace_id=\"{slow}\"}} 1000")),
            "got: {line}"
        );
        // Untraced observations keep their lines exemplar-free.
        let inf = text
            .lines()
            .find(|l| l.contains("le=\"+Inf\""))
            .expect("+Inf line");
        assert!(!inf.contains('#'), "got: {inf}");

        // The exposition still parses, exemplars stripped.
        let parsed = parse_text(&text).expect("parse with exemplars");
        let bucket = parsed
            .iter()
            .find(|s| {
                s.name == "smc_hop_micros_bucket"
                    && s.labels.contains(&("le".to_owned(), "1024".to_owned()))
            })
            .unwrap();
        assert_eq!(bucket.value, 4.0, "all four observations are <= 1024");

        // And the registry-level lookup locates the journey.
        let entries = r.exemplars();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].metric, "smc_hop_micros");
        assert_eq!(entries[0].le, "1024");
        assert_eq!(entries[0].trace, slow);
    }

    #[test]
    fn observe_traced_with_none_trace_records_no_exemplar() {
        let h = Histogram::default();
        h.observe_traced(5, TraceId::NONE);
        assert_eq!(h.count(), 1);
        assert!(h.exemplars().is_empty());
    }

    #[test]
    fn bucket_boundaries_are_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(1 << 20), 20);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_walk_the_buckets() {
        let h = Histogram::default();
        for _ in 0..90 {
            h.observe(3); // bucket le=4
        }
        for _ in 0..10 {
            h.observe(1000); // bucket le=1024
        }
        assert_eq!(h.quantile(0.5), 4);
        assert_eq!(h.quantile(0.95), 1024);
        assert_eq!(h.quantile(1.0), 1024);
    }

    #[test]
    fn quantile_on_empty_histogram_is_zero_not_a_bound() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 0);
    }

    #[test]
    fn quantile_clamps_q_outside_unit_interval() {
        let h = Histogram::default();
        for v in [3u64, 3, 1000] {
            h.observe(v);
        }
        // Below 0 clamps to 0 → the first populated bucket.
        assert_eq!(h.quantile(-1.0), h.quantile(0.0));
        assert_eq!(h.quantile(-1.0), 4);
        // Above 1 clamps to 1 → the last populated bucket.
        assert_eq!(h.quantile(2.0), h.quantile(1.0));
        assert_eq!(h.quantile(2.0), 1024);
        // NaN never panics and returns a populated bound.
        let nan = h.quantile(f64::NAN);
        assert!(nan == 4 || nan == 1024);
    }

    #[test]
    fn gather_returns_entries_and_collector_samples() {
        let r = Registry::new();
        r.counter("g_total", "A counter.").add(3);
        r.gauge_with("g_depth", "A gauge.", &[("q", "a")]).set(9);
        let h = r.histogram("g_lat", "A histogram.");
        h.observe(5);
        h.observe(7);
        r.register_collector(|out| out.push(Sample::counter("g_ext", "External.", &[], 1)));
        let samples = r.gather();
        let find = |n: &str| samples.iter().find(|s| s.name == n).unwrap();
        assert_eq!(find("g_total").value, 3);
        assert!(find("g_total").monotonic);
        assert_eq!(find("g_depth").value, 9);
        assert!(!find("g_depth").monotonic);
        assert_eq!(find("g_lat_count").value, 2);
        assert_eq!(find("g_lat_sum").value, 12);
        assert_eq!(find("g_ext").value, 1);
    }

    #[test]
    fn same_name_and_labels_return_the_same_instrument() {
        let r = Registry::new();
        let a = r.counter("c", "help");
        let b = r.counter("c", "help");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        // Different labels are a different series.
        let c = r.counter_with("c", "help", &[("k", "v")]);
        c.inc();
        assert_eq!(c.get(), 1);
    }

    crate::metric_set! {
        /// A door's counters.
        struct DoorCounters {
            /// Times the door opened.
            counter opened: "door_opened_total",
            /// Most people ever inside
            /// at once.
            gauge inside_hwm: "door_inside_hwm",
        }
        /// A reading of [`DoorCounters`].
        struct DoorStats {
            /// People inside right now.
            gauge inside: "door_inside",
        }
    }

    #[test]
    fn a_metric_set_is_bumped_read_and_sampled_from_one_declaration() {
        let door = DoorCounters::default();
        door.opened.fetch_add(1, Ordering::Relaxed);
        door.opened.fetch_add(2, Ordering::Relaxed);
        door.inside_hwm.fetch_max(5, Ordering::Relaxed);
        door.inside_hwm.fetch_max(4, Ordering::Relaxed);
        let stats = DoorStats {
            inside: 2,
            ..door.snapshot()
        };
        let expected = DoorStats {
            opened: 3,
            inside_hwm: 5,
            inside: 2,
        };
        assert_eq!(stats, expected);
        assert_eq!(door.snapshot().inside, 0, "no atomic behind it");

        let mut out = Vec::new();
        stats.samples(&[("door", "front")], &mut out);
        let got: Vec<_> = out
            .iter()
            .map(|s| (s.name.as_str(), s.help.as_str(), s.monotonic, s.value))
            .collect();
        assert_eq!(
            got,
            [
                ("door_opened_total", "Times the door opened.", true, 3),
                (
                    "door_inside_hwm",
                    "Most people ever inside at once.",
                    false,
                    5
                ),
                ("door_inside", "People inside right now.", false, 2),
            ]
        );
        let front = vec![("door".to_owned(), "front".to_owned())];
        assert!(out.iter().all(|s| s.labels == front));
    }

    #[test]
    fn a_weak_collector_emits_nothing_once_its_component_is_gone() {
        let r = Registry::new();
        let component = Arc::new(AtomicU64::new(4));
        r.register_weak(&component, |c, out| {
            out.push(Sample::gauge("held", "", &[], c.load(Ordering::Relaxed)));
        });
        assert_eq!(
            Arc::strong_count(&component),
            1,
            "the registry pins nothing"
        );
        assert!(r.render_text().contains("held 4"));
        drop(component);
        assert_eq!(r.render_text(), "");
        assert!(r.gather().is_empty());
    }

    /// The first claim on a name fixes its type; a second source claiming
    /// it as another is dropped — with a panic naming it in a debug build.
    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "series clash"))]
    fn a_counter_gauge_clash_keeps_one_type() {
        let r = Registry::new();
        r.register_collector(|out| {
            out.push(Sample::counter("clash", "As a counter.", &[], 1));
            out.push(Sample::gauge("clash", "As a gauge.", &[("k", "v")], 2));
        });
        let text = r.render_text();
        assert_eq!(
            text,
            "# HELP clash As a counter.\n# TYPE clash counter\nclash 1\n"
        );
        assert_eq!(r.gather().len(), 1);
    }

    #[test]
    fn collectors_are_sampled_at_render_time() {
        let r = Registry::new();
        let source = Arc::new(AtomicU64::new(5));
        let s2 = Arc::clone(&source);
        r.register_collector(move |out| {
            out.push(Sample::counter(
                "external_total",
                "From a component's own atomics.",
                &[],
                s2.load(Ordering::Relaxed),
            ));
        });
        assert!(r.render_text().contains("external_total 5"));
        source.store(9, Ordering::Relaxed);
        assert!(r.render_text().contains("external_total 9"));
    }
}
