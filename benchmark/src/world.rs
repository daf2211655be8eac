//! The measured loop, shared by the cell worlds and the bus world: a run
//! is alternating 1 s windows — *throughput* (closed loop, W events
//! outstanding; delivered events, process CPU and allocator counters) and
//! *response* (one event at a time, every event timed).

use std::time::{Duration, Instant};

use crate::alloc::GLOBAL;
use crate::span::SpanLog;
use crate::stats::{best_quartile, disturbed, median, percentile, Better};
use crate::sys::process_cpu_micros;

pub const WINDOW: Duration = Duration::from_secs(1);

/// A built system that can be driven for a window at a time.
pub trait World {
    /// Closed loop until `until`; returns events delivered and verified.
    fn throughput(&mut self, until: Instant) -> u64;
    /// One event at a time until `until`: publish call → event in the
    /// subscriber's hand, in µs, pushed onto `samples`.
    fn respond(&mut self, until: Instant, samples: &mut Vec<f64>, log: &mut SpanLog);
    /// Waits out everything in flight, so the next window starts empty.
    fn settle(&mut self);
    /// `true` once an operation timed out; the run stops measuring.
    fn stalled(&self) -> bool;
}

/// Per-window values and whole-run totals of one measured run.
#[derive(Debug, Default)]
pub struct Measured {
    /// Events/s of each throughput window.
    pub rates: Vec<f64>,
    /// Process CPU µs per delivered event, each throughput window.
    pub cpu: Vec<f64>,
    /// Median response µs of each response window.
    pub p50s: Vec<f64>,
    /// Every response sample, µs.
    pub responses: Vec<f64>,
    /// Totals over the throughput windows.
    pub events: u64,
    pub wall_s: f64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

/// Runs the windows numbered `windows` (even: throughput, odd: response)
/// and adds what they measured to `m`.
pub fn measure(
    world: &mut dyn World,
    windows: std::ops::Range<usize>,
    log: &mut SpanLog,
    m: &mut Measured,
) {
    for w in windows {
        world.settle();
        if world.stalled() {
            break;
        }
        let start = Instant::now();
        if w % 2 == 0 {
            let (allocs, bytes) = GLOBAL.snapshot();
            let cpu = process_cpu_micros();
            let events = world.throughput(start + WINDOW);
            let wall = start.elapsed().as_secs_f64();
            let cpu = process_cpu_micros() - cpu;
            let (allocs2, bytes2) = GLOBAL.snapshot();
            if events > 0 {
                m.rates.push(events as f64 / wall);
                m.cpu.push(cpu as f64 / events as f64);
            }
            m.events += events;
            m.wall_s += wall;
            m.allocs += allocs2 - allocs;
            m.alloc_bytes += bytes2 - bytes;
        } else {
            let mut samples = Vec::new();
            world.respond(start + WINDOW, &mut samples, log);
            if !samples.is_empty() {
                m.p50s.push(median(&samples));
                m.responses.append(&mut samples);
            }
        }
    }
}

impl Measured {
    /// `true` if every kind of window produced at least one value.
    pub fn complete(&self) -> bool {
        !self.rates.is_empty() && !self.p50s.is_empty() && self.events > 0
    }

    /// Upper-quartile throughput window.
    pub fn events_per_s(&self) -> f64 {
        best_quartile(&self.rates, Better::Higher)
    }

    /// Lower quartile of the per-window median response times.
    pub fn response_p50_us(&self) -> f64 {
        best_quartile(&self.p50s, Better::Lower)
    }

    /// Lower quartile of the per-window CPU cost.
    pub fn cpu_us_per_event(&self) -> f64 {
        best_quartile(&self.cpu, Better::Lower)
    }

    pub fn allocs_per_event(&self) -> f64 {
        self.allocs as f64 / self.events as f64
    }

    pub fn alloc_bytes_per_event(&self) -> f64 {
        self.alloc_bytes as f64 / self.events as f64
    }

    /// Whole-run mean rate: a change that adds periodic stalls cannot
    /// hide here the way it can in the discarded windows.
    pub fn events_per_s_mean(&self) -> f64 {
        self.events as f64 / self.wall_s
    }

    pub fn response_p99_us(&mut self) -> f64 {
        percentile(&mut self.responses, 99.0)
    }

    pub fn disturbed_windows(&self) -> usize {
        disturbed(&self.rates, self.events_per_s())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fake world that "delivers" on a fixed schedule without sleeping.
    struct Fake {
        settles: usize,
    }

    impl World for Fake {
        fn throughput(&mut self, _until: Instant) -> u64 {
            std::hint::black_box(vec![0u8; 1000]);
            500
        }
        fn respond(&mut self, _until: Instant, samples: &mut Vec<f64>, log: &mut SpanLog) {
            log.time("e2e.response", 1, || ());
            samples.extend([10.0, 20.0, 30.0]);
        }
        fn settle(&mut self) {
            self.settles += 1;
        }
        fn stalled(&self) -> bool {
            false
        }
    }

    #[test]
    fn windows_alternate_and_totals_add_up() {
        let mut world = Fake { settles: 0 };
        let mut log = SpanLog::with_capacity(8);
        let mut m = Measured::default();
        measure(&mut world, 0..2, &mut log, &mut m);
        measure(&mut world, 2..5, &mut log, &mut m);
        assert_eq!(world.settles, 5);
        assert_eq!((m.rates.len(), m.cpu.len(), m.p50s.len()), (3, 3, 2));
        assert_eq!(m.events, 1500);
        assert_eq!(m.responses.len(), 6);
        assert_eq!(log.len(), 2);
        assert!(m.complete());
        assert_eq!(m.response_p50_us(), 20.0);
        assert_eq!(m.response_p99_us(), 30.0);
        assert!(m.allocs >= 3 && m.alloc_bytes >= 3000);
        assert!(m.allocs_per_event() >= 3.0 / 1500.0);
        assert!(m.events_per_s() > 0.0 && m.events_per_s_mean() > 0.0);
    }
}
