//! The names, units, directions and bounds of everything the ledger
//! reports, and the four workloads. `BENCHMARK.json` states the same; a
//! test holds the two together.

use crate::cell::{CellSpec, Link};
use crate::stats::Better;

#[derive(Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The six end-to-end metrics, the same on every workload. A bound is per
/// metric, not per workload, so each has to cover the noisiest workload:
/// ten 30 s runs of one build spread (quartile to quartile) 5-8 % on the
/// three timings and up to 23 % on `ward_bus` set-up, because this host
/// drifts between runs (tens of minutes, every workload together), which
/// no in-run statistic removes. A bound has to be about three times the
/// spread to be a usable gate, hence the contract's maximum, 25 %, on the
/// four timings. The counts repeat to 0.3 % (allocations) and about 1 %
/// (bytes): 2 % and 5 %.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "events_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "response_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_event",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "allocs_per_event",
        unit: "count",
        better: Better::Lower,
        bound: 0.02,
    },
    EndToEnd {
        name: "alloc_bytes_per_event",
        unit: "B",
        better: Better::Lower,
        bound: 0.05,
    },
];

#[derive(Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// Read only by the test that holds `BENCHMARK.json` to this table.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
    /// For a timed call: the span whose median duration is the value.
    pub span: Option<&'static str>,
}

const fn timed(name: &'static str, span: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "us",
        better: Better::Lower,
        span: Some(span),
    }
}

const fn derived(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        span: None,
    }
}

/// The hop stages (from `Hop::stage()`) the cell's own tracer attributes
/// time to, as `hop.<stage>.<kind>_us`.
pub const HOP_STAGES: [(&str, &str); 7] = [
    ("match", "service"),
    ("fan-out", "service"),
    ("enqueue", "service"),
    ("outbound-queue", "wait"),
    ("ack", "service"),
    ("wal-append", "service"),
    ("deliver", "service"),
];

/// Every per-layer metric a traced run prints, in ledger order.
pub const PER_LAYER: &[PerLayer] = &[
    timed("types.codec.encode_us", "types.codec.encode"),
    timed("types.codec.decode_us", "types.codec.decode"),
    derived("types.codec.bytes_per_event", "B", Better::Lower),
    timed("match.fastforward.match_us", "match.fastforward.match"),
    timed("match.siena.match_us", "match.siena.match"),
    derived("match.matched_per_event", "count", Better::Higher),
    timed("match.subscribe_us", "match.subscribe"),
    timed("match.unsubscribe_us", "match.unsubscribe"),
    timed("core.bus.publish_us", "core.bus.publish"),
    derived("core.bus.fanout_self_us", "us", Better::Lower),
    timed("core.bus.subscribe_us", "core.bus.subscribe"),
    timed("core.bus.unsubscribe_us", "core.bus.unsubscribe"),
    timed("core.proxy.deliver_us", "core.proxy.deliver"),
    derived("core.cell.residual_us", "us", Better::Lower),
    derived("transport.reliable.send_us", "us", Better::Lower),
    timed("transport.reliable.recv_us", "transport.reliable.recv"),
    timed("transport.frame.encode_us", "transport.frame.encode"),
    timed("transport.frame.decode_us", "transport.frame.decode"),
    timed("transport.udp.send_recv_us", "transport.udp.send_recv"),
    timed("transport.mem.send_recv_us", "transport.mem.send_recv"),
    derived("transport.datagrams_per_event", "count", Better::Lower),
    derived("transport.wire_bytes_per_event", "B", Better::Lower),
    derived("transport.retransmits", "count", Better::Lower),
    timed("wal.append_us.file", "wal.append.file"),
    timed("wal.append_us.mem", "wal.append.mem"),
    derived("wal.appends_per_event", "count", Better::Lower),
    derived("wal.fsyncs_per_event", "count", Better::Lower),
    derived("wal.bytes_per_event", "B", Better::Lower),
    derived("wal.file_cost_us_per_event", "us", Better::Lower),
    timed("policy.check_us", "policy.check"),
    timed("policy.on_event_us", "policy.on_event"),
    timed("discovery.join_us", "discovery.join"),
    derived("hop.match.service_us", "us", Better::Lower),
    derived("hop.fan-out.service_us", "us", Better::Lower),
    derived("hop.enqueue.service_us", "us", Better::Lower),
    derived("hop.outbound-queue.wait_us", "us", Better::Lower),
    derived("hop.ack.service_us", "us", Better::Lower),
    derived("hop.wal-append.service_us", "us", Better::Lower),
    derived("hop.deliver.service_us", "us", Better::Lower),
    derived("telemetry.trace_overhead_ratio", "ratio", Better::Lower),
    derived("run.response_p99_us", "us", Better::Lower),
    derived("run.events_per_s_mean", "1/s", Better::Higher),
    derived("run.disturbed_windows", "count", Better::Lower),
];

#[derive(Debug, Clone, Copy)]
pub enum Kind {
    Cell(CellSpec),
    Bus,
}

#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Payload bytes per event.
    pub payload: usize,
    /// One line for `BENCHMARK.json` (a test holds the two together); the
    /// full rationale is in the README.
    #[cfg_attr(not(test), allow(dead_code))]
    pub why: &'static str,
}

impl Workload {
    /// Events outstanding in a throughput window (the closed loop's W).
    pub fn w(&self) -> usize {
        match self.kind {
            Kind::Cell(spec) => spec.w,
            Kind::Bus => 1,
        }
    }

    /// The largest datagram the workload's link carries.
    pub fn datagram_max(&self) -> usize {
        match self.kind {
            Kind::Cell(CellSpec {
                link: Link::Udp, ..
            }) => 60_000,
            _ => 1400,
        }
    }
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "vitals_udp",
        kind: Kind::Cell(CellSpec {
            link: Link::Udp,
            durable: false,
            w: 16,
        }),
        payload: 64,
        why: "64 B over UDP loopback, 1->1, W=64: per-event fixed cost (syscalls, acks, dispatch, hand-offs) is all the work; copying, matching and the WAL are nearly none",
    },
    Workload {
        name: "ecg_bulk",
        kind: Kind::Cell(CellSpec {
            link: Link::Mem,
            durable: false,
            w: 16,
        }),
        payload: 4096,
        why: "4096 B over the mem link at MTU 1400, 1->1, W=16: per-byte work (codec, 3-4 fragments, reassembly, payload copies) dominates; per-event cost is amortised",
    },
    Workload {
        name: "ward_durable",
        kind: Kind::Cell(CellSpec {
            link: Link::Mem,
            durable: true,
            w: 16,
        }),
        payload: 256,
        why: "256 B through start_durable (journalled channels, WAL on MemBackend), 1->1, W=16: every WAL code path, ~8 appends per event, no device; a WAL change shows here and nowhere else",
    },
    Workload {
        name: "ward_bus",
        kind: Kind::Bus,
        payload: 48,
        why: "in-process EventBus, 2000 subscriptions over 64 frame-taking sinks, ~8 matches per 128 B event, 1 in 8 unmatched, subscribe+unsubscribe every 512 publishes: match, fan-out, copy-on-write control path",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn better_name(b: Better) -> &'static str {
        match b {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// `BENCHMARK.json` is what the driver reads; these tables are what
    /// the program prints and `--compare` judges by. They must agree.
    #[test]
    fn benchmark_json_agrees_with_the_tables() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let list = |key: &str| match doc.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let text = |j: &Json, key: &str| j.get(key).and_then(Json::as_str).unwrap().to_owned();

        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(text(j, "name"), w.name);
            assert_eq!(text(j, "why"), w.why);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(text(j, "name"), m.name);
            assert_eq!(text(j, "unit"), m.unit);
            assert_eq!(text(j, "better"), better_name(m.better));
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(m.bound));
            assert!(m.bound <= 0.25);
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(PER_LAYER) {
            assert_eq!(text(j, "name"), m.name);
            assert_eq!(text(j, "unit"), m.unit);
            assert_eq!(text(j, "better"), better_name(m.better));
        }
        assert_eq!(doc.get("run_seconds").and_then(Json::as_f64), Some(30.0));
        assert_eq!(list("paths"), vec![Json::from("benchmark")]);
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| name_ok(n)), "{names:?}");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(END_TO_END.iter().all(|m| unit_ok(m.unit)));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.unit)));
        for (stage, kind) in HOP_STAGES {
            let name = format!("hop.{stage}.{kind}_us");
            assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        }
    }
}
