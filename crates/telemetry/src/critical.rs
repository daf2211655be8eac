//! Critical-path attribution: fold trace windows into a per-stage
//! wait/service table plus a tail-exemplar reservoir.
//!
//! Journeys (PR 3) answer "where did *this* event spend its time"; the
//! [`CriticalPath`] analyzer answers the aggregate question: across a
//! window of traffic, which pipeline stage dominates the tail, and is
//! it queue wait or service work? It folds [`Journey`]s (or raw
//! [`HopRecord`] windows) into a bounded per-stage accumulator, keeps
//! full journeys whose end-to-end latency clears a rolling quantile
//! threshold (the **tail-exemplar reservoir** — the concrete evidence
//! behind every percentile), and
//! renders both as a flame-style text report and JSON.
//!
//! Everything is bounded: per-stage latency samples use deterministic
//! reservoir sampling, the exemplar store evicts its smallest member,
//! and dropped exemplars are counted so silent loss is visible: both
//! renderings carry the reservoir's occupancy, admissions, drops and
//! threshold, which the status server serves at `/tails`.

use std::collections::BTreeMap;

use crate::trace::{HopRecord, Journey, StageKind};

/// Per-stage latency samples kept (deterministic reservoir).
const STAGE_SAMPLE_CAP: usize = 4096;
/// Rolling window of journey totals the tail threshold is computed over.
const TAIL_WINDOW: usize = 512;
/// Journeys observed before the reservoir starts admitting exemplars.
const TAIL_MIN_WINDOW: usize = 32;
/// Default number of full journeys retained as tail exemplars.
pub const DEFAULT_TAIL_EXEMPLARS: usize = 16;
/// Default rolling quantile (×1000) above which a journey is a tail
/// exemplar.
pub const DEFAULT_TAIL_QUANTILE_MILLI: u64 = 950;

/// Fixed PRNG seed so identical windows fold to identical tables.
const STAGE_RESERVOIR_SEED: u64 = 0xC71C_A17A_7A11_F0CD;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn percentile(sorted: &[u64], milli: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as u64 * milli) / 1000;
    sorted[idx as usize]
}

/// Accumulator for one pipeline stage.
#[derive(Debug)]
struct StageAcc {
    kind: StageKind,
    count: u64,
    total_micros: u64,
    samples: Vec<u64>,
    rng: u64,
}

impl StageAcc {
    fn new(kind: StageKind) -> StageAcc {
        StageAcc {
            kind,
            count: 0,
            total_micros: 0,
            samples: Vec::new(),
            rng: STAGE_RESERVOIR_SEED,
        }
    }

    fn record(&mut self, delta: u64) {
        self.count += 1;
        self.total_micros = self.total_micros.saturating_add(delta);
        if self.samples.len() < STAGE_SAMPLE_CAP {
            self.samples.push(delta);
        } else {
            let j = splitmix64(&mut self.rng) % self.count;
            if (j as usize) < STAGE_SAMPLE_CAP {
                self.samples[j as usize] = delta;
            }
        }
    }
}

/// One row of the attribution table: a stage's share of the window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageRow {
    /// Stage name (from [`Hop::stage`](crate::Hop::stage) or a stitched
    /// hop label).
    pub stage: String,
    /// Queue wait or service work.
    pub kind: StageKind,
    /// Legs folded into this stage.
    pub count: u64,
    /// Sum of leg deltas (µs).
    pub total_micros: u64,
    /// Share of the window's total attributed time, ×1000.
    pub share_milli: u64,
    /// Median leg delta (µs, reservoir-estimated).
    pub p50_micros: u64,
    /// 95th-percentile leg delta (µs).
    pub p95_micros: u64,
    /// 99th-percentile leg delta (µs).
    pub p99_micros: u64,
}

/// One retained tail journey: the full hop list behind a tail latency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TailExemplar {
    /// The complete journey.
    pub journey: Journey,
    /// Its end-to-end latency (µs).
    pub total_micros: u64,
}

/// Retains full journeys whose latency clears a rolling quantile of
/// recent journey totals. Bounded: when full, the smallest exemplar is
/// evicted (or the offer is refused), and every loss is counted.
#[derive(Debug)]
pub struct TailReservoir {
    capacity: usize,
    quantile_milli: u64,
    /// Rolling window of recent journey totals (threshold input).
    recent: std::collections::VecDeque<u64>,
    exemplars: Vec<TailExemplar>,
    admitted: u64,
    dropped: u64,
}

impl Default for TailReservoir {
    fn default() -> Self {
        TailReservoir::new(DEFAULT_TAIL_EXEMPLARS, DEFAULT_TAIL_QUANTILE_MILLI)
    }
}

impl TailReservoir {
    /// A reservoir holding `capacity` exemplars above the rolling
    /// `quantile_milli` (×1000) threshold.
    pub fn new(capacity: usize, quantile_milli: u64) -> TailReservoir {
        TailReservoir {
            capacity: capacity.max(1),
            quantile_milli: quantile_milli.min(1000),
            recent: std::collections::VecDeque::new(),
            exemplars: Vec::new(),
            admitted: 0,
            dropped: 0,
        }
    }

    /// The current admission threshold (µs), 0 while the rolling window
    /// is still warming up.
    pub fn threshold_micros(&self) -> u64 {
        if self.recent.len() < TAIL_MIN_WINDOW {
            return 0;
        }
        let mut sorted: Vec<u64> = self.recent.iter().copied().collect();
        sorted.sort_unstable();
        percentile(&sorted, self.quantile_milli)
    }

    /// Offers one journey. Admitted when the window is warm and its
    /// total clears the threshold; a full reservoir evicts its smallest
    /// exemplar (counted in [`TailReservoir::dropped`]).
    pub fn offer(&mut self, journey: &Journey) {
        let total = journey.total_micros();
        let warm = self.recent.len() >= TAIL_MIN_WINDOW;
        let threshold = self.threshold_micros();
        self.recent.push_back(total);
        if self.recent.len() > TAIL_WINDOW {
            self.recent.pop_front();
        }
        if !warm || total < threshold {
            return;
        }
        let exemplar = TailExemplar {
            journey: journey.clone(),
            total_micros: total,
        };
        if self.exemplars.len() < self.capacity {
            self.exemplars.push(exemplar);
            self.admitted += 1;
            return;
        }
        // Full: keep the reservoir describing the largest tails seen.
        let (min_idx, min_total) = self
            .exemplars
            .iter()
            .enumerate()
            .map(|(i, e)| (i, e.total_micros))
            .min_by_key(|&(_, t)| t)
            .expect("capacity >= 1");
        if total > min_total {
            self.exemplars[min_idx] = exemplar;
            self.admitted += 1;
        }
        self.dropped += 1;
    }

    /// Retained exemplars, largest total first.
    pub fn exemplars(&self) -> Vec<TailExemplar> {
        let mut out = self.exemplars.clone();
        out.sort_by_key(|e| std::cmp::Reverse(e.total_micros));
        out
    }

    /// Exemplars currently retained.
    pub fn occupancy(&self) -> usize {
        self.exemplars.len()
    }

    /// Maximum exemplars retained at once.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Exemplars ever admitted (including later-evicted ones).
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Tail journeys lost because the reservoir was full (evictions and
    /// refused offers).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Folds journeys into a per-stage wait/service attribution table plus
/// a [`TailReservoir`] of exemplar journeys.
#[derive(Debug)]
pub struct CriticalPath {
    stages: BTreeMap<String, StageAcc>,
    reservoir: TailReservoir,
    journeys: u64,
    truncated: u64,
}

impl Default for CriticalPath {
    fn default() -> Self {
        CriticalPath::new()
    }
}

impl CriticalPath {
    /// An empty analyzer with the default tail reservoir.
    pub fn new() -> CriticalPath {
        CriticalPath::with_reservoir(TailReservoir::default())
    }

    /// An empty analyzer using `reservoir` for tail exemplars.
    pub fn with_reservoir(reservoir: TailReservoir) -> CriticalPath {
        CriticalPath {
            stages: BTreeMap::new(),
            reservoir,
            journeys: 0,
            truncated: 0,
        }
    }

    /// Folds one journey into the table and offers it to the reservoir.
    /// Empty journeys (no hops captured) are ignored.
    pub fn fold(&mut self, journey: &Journey) {
        if journey.is_empty() {
            return;
        }
        self.journeys += 1;
        if journey.truncated {
            self.truncated += 1;
        }
        for leg in journey.attribution() {
            self.stages
                .entry(leg.stage.to_owned())
                .or_insert_with(|| StageAcc::new(leg.kind))
                .record(leg.delta_micros);
        }
        self.reservoir.offer(journey);
    }

    /// Folds a raw hop-record window (e.g. [`TraceSink::records`]):
    /// groups records by trace and folds each group as a journey.
    ///
    /// [`TraceSink::records`]: crate::TraceSink::records
    pub fn fold_window(&mut self, records: &[HopRecord]) {
        let mut by_trace: BTreeMap<u64, Vec<HopRecord>> = BTreeMap::new();
        for r in records {
            by_trace.entry(r.trace.raw()).or_default().push(*r);
        }
        for (_, mut hops) in by_trace {
            hops.sort_by_key(|r| r.order);
            let trace = hops[0].trace;
            self.fold(&Journey {
                trace,
                hops,
                truncated: false,
            });
        }
    }

    /// Journeys folded so far.
    pub fn journeys(&self) -> u64 {
        self.journeys
    }

    /// Folded journeys that were marked truncated.
    pub fn truncated(&self) -> u64 {
        self.truncated
    }

    /// The tail-exemplar reservoir.
    pub fn reservoir(&self) -> &TailReservoir {
        &self.reservoir
    }

    /// The attribution table, largest total share first.
    pub fn table(&self) -> Vec<StageRow> {
        let window_total: u64 = self.stages.values().map(|a| a.total_micros).sum();
        let mut rows: Vec<StageRow> = self
            .stages
            .iter()
            .map(|(stage, acc)| {
                let mut sorted = acc.samples.clone();
                sorted.sort_unstable();
                StageRow {
                    stage: stage.clone(),
                    kind: acc.kind,
                    count: acc.count,
                    total_micros: acc.total_micros,
                    share_milli: (acc.total_micros * 1000)
                        .checked_div(window_total)
                        .unwrap_or(0),
                    p50_micros: percentile(&sorted, 500),
                    p95_micros: percentile(&sorted, 950),
                    p99_micros: percentile(&sorted, 990),
                }
            })
            .collect();
        rows.sort_by(|a, b| {
            b.total_micros
                .cmp(&a.total_micros)
                .then(a.stage.cmp(&b.stage))
        });
        rows
    }

    /// Flame-style text report: one bar per stage scaled by its share
    /// of attributed time, wait stages marked distinctly.
    pub fn render_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let rows = self.table();
        let _ = writeln!(
            out,
            "critical path — {} journeys ({} truncated), {} stages",
            self.journeys,
            self.truncated,
            rows.len()
        );
        if rows.is_empty() {
            let _ = writeln!(out, "  (no journeys folded)");
            return out;
        }
        let _ = writeln!(
            out,
            "  {:<16} {:<8} {:>8} {:>12} {:>7}  {:<40} {:>8} {:>8} {:>8}",
            "stage", "kind", "count", "total µs", "share", "", "p50", "p95", "p99"
        );
        for row in &rows {
            let bar_len = (row.share_milli as usize * 40) / 1000;
            let bar: String = std::iter::repeat_n(
                if row.kind == StageKind::Wait {
                    '='
                } else {
                    '#'
                },
                bar_len.max(usize::from(row.share_milli > 0)),
            )
            .collect();
            let _ = writeln!(
                out,
                "  {:<16} {:<8} {:>8} {:>12} {:>6}‰  {:<40} {:>8} {:>8} {:>8}",
                row.stage,
                row.kind.name(),
                row.count,
                row.total_micros,
                row.share_milli,
                bar,
                row.p50_micros,
                row.p95_micros,
                row.p99_micros
            );
        }
        let r = &self.reservoir;
        let _ = writeln!(
            out,
            "  tail: {}/{} exemplars, threshold {} µs, {} admitted, {} dropped",
            r.occupancy(),
            r.capacity(),
            r.threshold_micros(),
            r.admitted(),
            r.dropped()
        );
        for ex in r.exemplars() {
            let _ = writeln!(
                out,
                "  exemplar {} ({} µs):",
                ex.journey.trace, ex.total_micros
            );
            for leg in ex.journey.attribution() {
                let _ = writeln!(
                    out,
                    "    {:>10} µs  {:<16} {:<8} (+{} µs)",
                    leg.at_micros,
                    leg.stage,
                    leg.kind.name(),
                    leg.delta_micros
                );
            }
        }
        out
    }

    /// The table and reservoir as a JSON object.
    pub fn render_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"journeys\":{},\"truncated\":{},\"stages\":[",
            self.journeys, self.truncated
        );
        for (i, row) in self.table().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"stage\":{},\"kind\":\"{}\",\"count\":{},\"total_micros\":{},\"share_milli\":{},\"p50_micros\":{},\"p95_micros\":{},\"p99_micros\":{}}}",
                json_string(&row.stage),
                row.kind.name(),
                row.count,
                row.total_micros,
                row.share_milli,
                row.p50_micros,
                row.p95_micros,
                row.p99_micros
            );
        }
        let r = &self.reservoir;
        let _ = write!(
            out,
            "],\"tail\":{{\"threshold_micros\":{},\"occupancy\":{},\"capacity\":{},\"admitted\":{},\"dropped\":{},\"exemplars\":[",
            r.threshold_micros(),
            r.occupancy(),
            r.capacity(),
            r.admitted(),
            r.dropped()
        );
        for (i, ex) in r.exemplars().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let j = &ex.journey;
            let _ = write!(
                out,
                "{{\"trace\":\"{}\",\"total_micros\":{},\"wait_micros\":{},\"service_micros\":{},\"truncated\":{},\"legs\":[",
                j.trace,
                ex.total_micros,
                j.wait_micros(),
                j.service_micros(),
                j.truncated
            );
            for (k, leg) in j.attribution().iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"hop\":\"{}\",\"stage\":{},\"kind\":\"{}\",\"at_micros\":{},\"delta_micros\":{}}}",
                    leg.hop,
                    json_string(leg.stage),
                    leg.kind.name(),
                    leg.at_micros,
                    leg.delta_micros
                );
            }
            out.push_str("]}");
        }
        out.push_str("]}}");
        out
    }
}

/// Escapes `s` as a JSON string literal, quotes included. The
/// attribution report and every `smc-health` JSON body use it.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Hop, TraceSink};
    use smc_types::TraceId;

    fn tid(n: u64) -> TraceId {
        TraceId::from_raw(n)
    }

    fn journey(trace: u64, hops: &[(Hop, u64)]) -> Journey {
        let sink = TraceSink::with_capacity(hops.len().max(1) * 2);
        for &(hop, at) in hops {
            sink.record(tid(trace), hop, at);
        }
        sink.journey(tid(trace))
    }

    #[test]
    fn single_hop_journey_folds_to_one_zero_delta_stage() {
        let mut cp = CriticalPath::new();
        cp.fold(&journey(1, &[(Hop::Published, 100)]));
        assert_eq!(cp.journeys(), 1);
        let table = cp.table();
        assert_eq!(table.len(), 1);
        assert_eq!(table[0].stage, "publish");
        assert_eq!(table[0].count, 1);
        assert_eq!(table[0].total_micros, 0);
        assert_eq!(table[0].share_milli, 0, "a zero-time window has no shares");
    }

    #[test]
    fn retransmit_loop_accumulates_wait_legs() {
        let mut cp = CriticalPath::new();
        cp.fold(&journey(
            2,
            &[
                (Hop::Published, 0),
                (Hop::OutQueued, 10),
                (Hop::TxSent, 20),
                (Hop::TxRetransmit, 120),
                (Hop::TxRetransmit, 220),
                (Hop::TxRetransmit, 320),
                (Hop::Delivered, 330),
            ],
        ));
        let table = cp.table();
        let retrans = table.iter().find(|r| r.stage == "retransmit-wait").unwrap();
        assert_eq!(retrans.count, 3, "one leg per retransmission round");
        assert_eq!(retrans.total_micros, 300);
        assert_eq!(retrans.kind, StageKind::Wait);
        assert_eq!(
            retrans.share_milli, 909,
            "300 of 330 µs total — the loop dominates"
        );
        let wait: u64 = table
            .iter()
            .filter(|r| r.kind == StageKind::Wait)
            .map(|r| r.total_micros)
            .sum();
        let service: u64 = table
            .iter()
            .filter(|r| r.kind == StageKind::Service)
            .map(|r| r.total_micros)
            .sum();
        assert_eq!(wait + service, 330);
    }

    #[test]
    fn json_string_escapes_control_characters() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{01}"), "\"\\u0001\"");
    }

    #[test]
    fn fold_window_groups_interleaved_records_by_trace() {
        let sink = TraceSink::with_capacity(32);
        sink.record(tid(1), Hop::Published, 0);
        sink.record(tid(2), Hop::Published, 5);
        sink.record(tid(1), Hop::Delivered, 100);
        sink.record(tid(2), Hop::Delivered, 45);
        let mut cp = CriticalPath::new();
        cp.fold_window(&sink.records());
        assert_eq!(cp.journeys(), 2);
        let deliver = cp
            .table()
            .into_iter()
            .find(|r| r.stage == "deliver")
            .unwrap();
        assert_eq!(deliver.count, 2);
        assert_eq!(deliver.total_micros, 140);
    }

    #[test]
    fn reservoir_admits_only_above_rolling_threshold_and_counts_drops() {
        let mut r = TailReservoir::new(2, 900);
        // Warm-up: TAIL_MIN_WINDOW fast journeys admit nothing.
        for i in 0..TAIL_MIN_WINDOW as u64 {
            r.offer(&journey(i, &[(Hop::Published, 0), (Hop::Delivered, 10)]));
        }
        assert_eq!(r.occupancy(), 0, "warm-up admits nothing");
        assert!(r.threshold_micros() > 0);
        // A fast journey stays out; slow ones get in.
        r.offer(&journey(100, &[(Hop::Published, 0), (Hop::Delivered, 1)]));
        assert_eq!(r.occupancy(), 0);
        r.offer(&journey(101, &[(Hop::Published, 0), (Hop::Delivered, 500)]));
        r.offer(&journey(102, &[(Hop::Published, 0), (Hop::Delivered, 900)]));
        assert_eq!(r.occupancy(), 2);
        assert_eq!(r.dropped(), 0);
        // Full: a bigger tail evicts the smallest, a smaller one is
        // refused; both count as drops.
        r.offer(&journey(103, &[(Hop::Published, 0), (Hop::Delivered, 700)]));
        assert_eq!(r.occupancy(), 2);
        assert_eq!(r.dropped(), 1, "500 µs exemplar evicted by 700 µs");
        let totals: Vec<u64> = r.exemplars().iter().map(|e| e.total_micros).collect();
        assert_eq!(totals, vec![900, 700]);
        r.offer(&journey(104, &[(Hop::Published, 0), (Hop::Delivered, 600)]));
        assert_eq!(r.dropped(), 2, "a smaller tail is refused");
        assert_eq!(r.admitted(), 3);
    }

    #[test]
    fn renders_report_text_and_json() {
        let mut cp = CriticalPath::with_reservoir(TailReservoir::new(4, 500));
        for i in 0..40u64 {
            cp.fold(&journey(
                i,
                &[
                    (Hop::Published, 0),
                    (Hop::Matched, 2),
                    (Hop::OutQueued, 4),
                    (Hop::TxSent, 4 + i), // growing queue wait
                    (Hop::Delivered, 6 + i),
                ],
            ));
        }
        let text = cp.render_text();
        assert!(text.contains("critical path — 40 journeys"));
        assert!(text.contains("outbound-queue"), "{text}");
        assert!(text.contains("exemplar"), "{text}");
        let json = cp.render_json();
        assert!(json.contains("\"stages\":["));
        assert!(json.contains("\"stage\":\"outbound-queue\",\"kind\":\"wait\""));
        assert!(json.contains("\"tail\":{"));
        assert!(json.contains("\"legs\":["));
        // Shares over all stages cover (almost) the whole window.
        let shares: u64 = cp.table().iter().map(|r| r.share_milli).sum();
        assert!(
            (990..=1000).contains(&shares),
            "shares sum to ~1000‰: {shares}"
        );
    }
}
