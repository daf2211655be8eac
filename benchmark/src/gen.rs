//! Seeded inputs. `--seed` drives attribute values, thresholds, payload
//! bytes and the subscription set; the program under test sees only what
//! is generated here.
//!
//! Two things are deliberately *not* left to chance, because the
//! allocation metrics are held to 2 % across seeds: every event of a
//! workload encodes to the same number of bytes, and on `ward_bus` the
//! share of events matching nobody and the mean match probability of the
//! subscription set are fixed by construction (the seed permutes who gets
//! which threshold, not how many thresholds there are of each size).

use smc_types::{Event, Filter, Op, ServiceId};

/// The one event type every workload publishes (the ward's vital-sign
/// reading; `ehealth_baseline()` permits role `sensor` to publish it).
pub const EVENT_TYPE: &str = "smc.sensor.reading";

/// splitmix64: tiny, seedable, and good enough to scatter inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next().to_le_bytes());
        }
        out.truncate(len);
        out
    }
}

/// The payload checksum carried in each event's `sum` attribute and
/// recomputed by the subscriber (8 bytes at a time: on `ecg_bulk` it runs
/// over 4 KB per event inside the measured loop).
pub fn checksum(payload: &[u8]) -> i64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64 ^ payload.len() as u64;
    let mut chunks = payload.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("chunks_exact(8)"));
        h = (h ^ word).wrapping_mul(0x0000_0100_0000_01B3);
    }
    for &b in chunks.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h as i64
}

/// What a workload publishes and who listens.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The event pool, unstamped; publishing cycles through it.
    pub events: Vec<Event>,
    /// The subscription set, `(subscriber, filter)`.
    pub subs: Vec<(ServiceId, Filter)>,
}

/// Inputs for a cell workload: one subscriber whose filter (a seeded
/// threshold below every reading) matches every event, so delivered must
/// equal published.
pub fn cell_inputs(seed: u64, payload: usize, pool: usize) -> Inputs {
    let mut rng = Rng::new(seed);
    let threshold = 30 + rng.below(20) as i64;
    let events = (0..pool)
        .map(|_| {
            let body = rng.bytes(payload);
            Event::builder(EVENT_TYPE)
                .attr("bpm", 60 + rng.below(120) as i64)
                .attr("patient", rng.below(1 << 40) as i64)
                .attr("sum", checksum(&body))
                .payload(body)
                .build()
        })
        .collect();
    let filter = Filter::for_type(EVENT_TYPE).with(("bpm", Op::Ge, threshold));
    Inputs {
        events,
        // The subscriber's real id is only known once it has joined.
        subs: vec![(ServiceId::NIL, filter)],
    }
}

pub const BUS_SUBSCRIBERS: usize = 64;
pub const BUS_SUBSCRIPTIONS: usize = 2000;
const WARDS: usize = 16;
const KINDS: [&str; 7] = ["hrat", "spo2", "bprs", "temp", "resp", "ecgw", "gluc"];
const BUS_POOL: usize = 1024;
const BUS_PAYLOAD: usize = 48;

/// The subscriber behind sink `index` on `ward_bus`.
pub fn bus_subscriber(index: usize) -> ServiceId {
    ServiceId::from_raw(0x100 + index as u64)
}

/// The `ward_bus` publisher (not a subscriber, so nothing loops back).
pub const BUS_PUBLISHER: ServiceId = ServiceId::from_raw(0x9000);

/// Inputs for `ward_bus`: 2 000 subscriptions over 64 subscribers and a
/// pool of ≈128 B readings, shaped like a ward — each subscription watches
/// one ward, and all but the per-ward catch-alls one kind of reading above
/// or below a threshold.
///
/// * Subscription `i` watches ward `i % 16`. The first 16 are catch-alls
///   (ward only), so a reading from a watched ward always reaches someone;
///   the rest add `kind = KINDS[(i / 16) % 7]` and `bpm ≥ t` or `bpm ≤ t`.
/// * Thresholds are an even grid over the bpm range, dealt out by the
///   seed, so the set's mean match probability is the same for every seed.
/// * One event in eight (by position) comes from ward 16, which nobody
///   watches: the unmatched path is exercised at a fixed rate.
/// * With ≈9 matching subscriptions per watched reading spread over 64
///   subscribers, ≈8 distinct subscribers get each event on average.
pub fn bus_inputs(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed);
    let mut grid: Vec<i64> = (0..BUS_SUBSCRIPTIONS)
        .map(|i| 40 + (i * 160 / BUS_SUBSCRIPTIONS) as i64)
        .collect();
    rng.shuffle(&mut grid);
    let subs = (0..BUS_SUBSCRIPTIONS)
        .map(|i| {
            let subscriber = bus_subscriber(rng.below(BUS_SUBSCRIBERS as u64) as usize);
            let mut filter =
                Filter::for_type(EVENT_TYPE).with(("ward", Op::Eq, (i % WARDS) as i64));
            if i >= WARDS {
                let op = if rng.below(2) == 0 { Op::Ge } else { Op::Le };
                filter = filter
                    .with(("kind", Op::Eq, KINDS[(i / WARDS) % KINDS.len()]))
                    .with(("bpm", op, grid[i]));
            }
            (subscriber, filter)
        })
        .collect();
    let unwatched = rng.below(8) as usize;
    let events = (0..BUS_POOL)
        .map(|i| {
            let ward = if i % 8 == unwatched {
                WARDS
            } else {
                rng.below(WARDS as u64) as usize
            };
            let body = rng.bytes(BUS_PAYLOAD);
            Event::builder(EVENT_TYPE)
                .attr("ward", ward as i64)
                .attr("kind", KINDS[rng.below(KINDS.len() as u64) as usize])
                .attr("bpm", 40 + rng.below(160) as i64)
                .attr("sum", checksum(&body))
                .payload(body)
                .build()
        })
        .collect();
    Inputs { events, subs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smc_types::codec::to_bytes;
    use smc_types::Packet;

    #[test]
    fn same_seed_same_inputs_and_other_seed_other_inputs() {
        let a = cell_inputs(7, 64, 8);
        let b = cell_inputs(7, 64, 8);
        let c = cell_inputs(8, 64, 8);
        assert_eq!(a.events, b.events);
        assert_eq!(a.subs, b.subs);
        assert_ne!(a.events, c.events);
        assert_eq!(bus_inputs(3).subs, bus_inputs(3).subs);
        assert_ne!(bus_inputs(3).subs, bus_inputs(4).subs);
    }

    #[test]
    fn every_event_of_a_workload_encodes_to_the_same_length() {
        for inputs in [
            cell_inputs(1, 4096, 16),
            cell_inputs(2, 4096, 16),
            bus_inputs(5),
        ] {
            let lens: Vec<usize> = inputs
                .events
                .iter()
                .map(|e| to_bytes(&Packet::publish(e.clone())).len())
                .collect();
            assert!(lens.iter().all(|&l| l == lens[0]), "{lens:?}");
        }
    }

    #[test]
    fn cell_filter_matches_every_event_and_checksums_hold() {
        let inputs = cell_inputs(11, 256, 64);
        let (_, filter) = &inputs.subs[0];
        for e in &inputs.events {
            assert!(filter.matches(e));
            assert_eq!(e.attr("sum").unwrap().as_int(), Some(checksum(e.payload())));
        }
        assert_ne!(checksum(b"abcdefgh1"), checksum(b"abcdefgh2"));
    }

    #[test]
    fn ward_bus_shape_is_what_the_readme_says_for_any_seed() {
        for seed in [1, 2, 99] {
            let inputs = bus_inputs(seed);
            assert_eq!(inputs.subs.len(), BUS_SUBSCRIPTIONS);
            let mut none = 0;
            let mut total = 0;
            for e in &inputs.events {
                let mut who: Vec<ServiceId> = inputs
                    .subs
                    .iter()
                    .filter(|(_, f)| f.matches(e))
                    .map(|(s, _)| *s)
                    .collect();
                who.sort();
                who.dedup();
                none += usize::from(who.is_empty());
                total += who.len();
            }
            assert_eq!(none, inputs.events.len() / 8, "seed {seed}");
            let mean = total as f64 / inputs.events.len() as f64;
            assert!(
                (6.5..9.5).contains(&mean),
                "seed {seed}: mean fan-out {mean}"
            );
        }
    }
}
