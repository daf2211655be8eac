//! Spans recorded from outside, around the calls into each layer's public
//! functions: name, start, end, the span that caused it, and the event it
//! belongs to. Kept in memory, written to `spans.jsonl` when the run ends.
//!
//! A log with capacity 0 (every untraced run) records nothing, so the
//! measured loops keep one code path.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::json::Json;
use crate::stats::median;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
    event: u64,
}

/// Handle returned by [`SpanLog::open`]; `None` inside when the log was
/// full and the span is not being recorded.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<u32>);

#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last: a new span's parent is the top.
    stack: Vec<u32>,
    capacity: usize,
    dropped: u64,
}

impl SpanLog {
    pub fn with_capacity(capacity: usize) -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            stack: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    /// A log that records nothing.
    pub fn disabled() -> Self {
        SpanLog::with_capacity(0)
    }

    /// Spans not recorded because the log was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span for `event`, child of whichever span is open.
    pub fn open(&mut self, name: &'static str, event: u64) -> SpanId {
        if self.spans.len() >= self.capacity {
            self.dropped += u64::from(self.capacity > 0);
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            event,
        });
        self.stack.push(id);
        SpanId(Some(id))
    }

    /// Closes `id` (and, defensively, anything opened inside it that was
    /// left open).
    pub fn close(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let end_ns = self.now_ns();
        while let Some(top) = self.stack.pop() {
            self.spans[top as usize].end_ns = end_ns;
            if top == id {
                break;
            }
        }
    }

    /// Records `f` as one span.
    pub fn time<R>(&mut self, name: &'static str, event: u64, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, event);
        let out = f();
        self.close(id);
        out
    }

    /// Per-span `(duration, self time)` in µs for every span called `name`.
    /// Self time is the duration minus the part covered by child spans.
    pub fn times_us(&self, name: &str) -> Vec<(f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, &children)| {
                let total = s.end_ns - s.start_ns;
                (
                    total as f64 / 1e3,
                    total.saturating_sub(children) as f64 / 1e3,
                )
            })
            .collect()
    }

    /// Median duration of the spans called `name`, µs; 0 if there are none
    /// (the layer is not on this workload's path).
    pub fn p50_us(&self, name: &str) -> f64 {
        median_or_zero(self.times_us(name).iter().map(|t| t.0))
    }

    /// Median self time of the spans called `name`, µs; 0 if there are none.
    pub fn p50_self_us(&self, name: &str) -> f64 {
        median_or_zero(self.times_us(name).iter().map(|t| t.1))
    }

    /// One JSON object per line: name, start and end (ns since the log
    /// was created), parent (line index, or null) and event id.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let line = Json::obj()
                .with("name", s.name)
                .with("start_ns", s.start_ns)
                .with("end_ns", s.end_ns)
                .with("parent", s.parent.map(u64::from))
                .with("event", s.event);
            writeln!(out, "{}", line.encode())?;
        }
        out.flush()
    }
}

fn median_or_zero(values: impl Iterator<Item = f64>) -> f64 {
    let values: Vec<f64> = values.collect();
    if values.is_empty() {
        0.0
    } else {
        median(&values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_with(spans: &[(&'static str, u64, u64, Option<u32>)]) -> SpanLog {
        let mut log = SpanLog::with_capacity(spans.len());
        for &(name, start_ns, end_ns, parent) in spans {
            log.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                event: 1,
            });
        }
        log
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // response 0..100 µs: publish 10..30, wait 30..90 (with a
        // grandchild 40..50 that must not be subtracted twice).
        let log = log_with(&[
            ("response", 0, 100_000, None),
            ("publish", 10_000, 30_000, Some(0)),
            ("wait", 30_000, 90_000, Some(0)),
            ("inner", 40_000, 50_000, Some(2)),
        ]);
        assert_eq!(log.times_us("response"), vec![(100.0, 20.0)]);
        assert_eq!(log.times_us("wait"), vec![(60.0, 50.0)]);
        assert_eq!(log.times_us("inner"), vec![(10.0, 10.0)]);
        assert_eq!(log.p50_us("publish"), 20.0);
        assert_eq!(log.p50_self_us("wait"), 50.0);
        assert_eq!(log.p50_us("absent"), 0.0);
    }

    #[test]
    fn open_and_close_nest_and_a_full_log_drops() {
        let mut log = SpanLog::with_capacity(3);
        let outer = log.open("outer", 7);
        let inner = log.open("inner", 7);
        log.close(inner);
        log.time("sibling", 7, || ());
        let lost = log.open("lost", 7);
        log.close(lost);
        log.close(outer);
        assert_eq!(log.len(), 3);
        assert_eq!(log.dropped(), 1);
        assert_eq!(log.spans[1].parent, Some(0));
        assert_eq!(log.spans[2].parent, Some(0));
        assert_eq!(log.spans[0].parent, None);
        assert!(log.spans[0].end_ns >= log.spans[2].end_ns);

        let mut off = SpanLog::disabled();
        off.time("x", 1, || ());
        assert_eq!((off.len(), off.dropped()), (0, 0));
    }

    #[test]
    fn jsonl_has_one_parseable_line_per_span() {
        let log = log_with(&[("a", 5, 9, None), ("b", 6, 7, Some(0))]);
        let path = crate::out_dir().unwrap().join("spans-test.jsonl");
        log.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[1].get("name").unwrap().as_str(), Some("b"));
        assert_eq!(lines[1].get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(lines[0].get("parent"), Some(&Json::Null));
        assert_eq!(lines[0].get("end_ns").unwrap().as_f64(), Some(9.0));
    }
}
