//! The correctness check built into every run: the paper's §II-C contract
//! (exactly once while a member, per-sender FIFO) plus payload integrity,
//! counted as `failed` against `attempted`.

use smc_types::{Event, Filter, ServiceId};

use crate::gen::checksum;

/// Operations attempted and failed; `correct` only if nothing failed.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the operator.
    pub notes: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, count: u64, what: impl FnOnce() -> String) {
        self.failed += count;
        if self.notes.len() < 8 {
            self.notes.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}

/// One publisher → subscriber stream: every delivery must carry the
/// expected publisher, the next sequence number and an intact payload.
#[derive(Debug)]
pub struct Stream {
    publisher: ServiceId,
    last_seq: u64,
}

impl Stream {
    pub fn new(publisher: ServiceId) -> Self {
        Stream {
            publisher,
            last_seq: 0,
        }
    }

    /// The highest sequence number delivered so far.
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// Checks one delivered event. A gap counts one failure per missed
    /// event; a duplicate or reorder, a foreign publisher or a corrupt
    /// payload counts one.
    pub fn accept(&mut self, event: &Event, tally: &mut Tally) {
        if event.publisher() != self.publisher {
            tally.fail(1, || {
                format!("event from {} on the stream", event.publisher())
            });
            return;
        }
        let seq = event.seq();
        if seq <= self.last_seq {
            tally.fail(1, || {
                format!("duplicate or reorder: seq {seq} after {}", self.last_seq)
            });
            return;
        }
        if seq > self.last_seq + 1 {
            let missed = seq - self.last_seq - 1;
            tally.fail(missed, || format!("missed {missed} before seq {seq}"));
        }
        self.last_seq = seq;
        if event.attr("sum").and_then(|v| v.as_int()) != Some(checksum(event.payload())) {
            tally.fail(1, || format!("payload checksum mismatch at seq {seq}"));
        }
    }

    /// After the drain: everything published must have arrived.
    pub fn finish(&self, published: u64, tally: &mut Tally) {
        if self.last_seq < published {
            let lost = published - self.last_seq;
            tally.fail(lost, || format!("{lost} published events never arrived"));
        }
    }
}

/// The subscribers a brute-force scan says must receive `event`, as a bit
/// per subscriber index — written here, against `Filter::matches`, so the
/// oracle shares no code with any matching engine.
pub fn expected_mask<'a>(
    event: &Event,
    subs: impl Iterator<Item = (ServiceId, &'a Filter)>,
    index_of: impl Fn(ServiceId) -> usize,
) -> u64 {
    subs.filter(|(subscriber, filter)| *subscriber != event.publisher() && filter.matches(event))
        .fold(0, |mask, (subscriber, _)| mask | 1 << index_of(subscriber))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{cell_inputs, EVENT_TYPE};
    use smc_types::Op;

    fn stamped(seq: u64) -> Event {
        let mut e = cell_inputs(1, 32, 1).events.remove(0);
        e.stamp(ServiceId::from_raw(9), seq, 0);
        e
    }

    #[test]
    fn in_order_stream_is_correct() {
        let mut tally = Tally::default();
        let mut s = Stream::new(ServiceId::from_raw(9));
        for seq in 1..=5 {
            tally.attempted += 1;
            s.accept(&stamped(seq), &mut tally);
        }
        s.finish(5, &mut tally);
        assert!(tally.correct(), "{tally:?}");
    }

    #[test]
    fn misses_duplicates_reorders_corruption_and_losses_all_fail() {
        let publisher = ServiceId::from_raw(9);
        let run = |seqs: &[u64], published: u64| {
            let mut tally = Tally {
                attempted: published,
                ..Tally::default()
            };
            let mut s = Stream::new(publisher);
            for &seq in seqs {
                s.accept(&stamped(seq), &mut tally);
            }
            s.finish(published, &mut tally);
            tally.failed
        };
        assert_eq!(run(&[1, 2, 3], 3), 0);
        assert_eq!(run(&[1, 4], 4), 2, "two missed");
        assert_eq!(run(&[1, 2, 2, 3], 3), 1, "duplicate");
        assert_eq!(run(&[1, 3, 2], 3), 2, "gap then late arrival");
        assert_eq!(run(&[1, 2], 5), 3, "tail never arrived");

        let mut tally = Tally::default();
        let mut s = Stream::new(publisher);
        let mut corrupt = Event::builder(EVENT_TYPE)
            .attr("sum", 1i64)
            .payload(vec![1, 2, 3])
            .build();
        corrupt.stamp(publisher, 1, 0);
        s.accept(&corrupt, &mut tally);
        let mut foreign = stamped(2);
        foreign.stamp(ServiceId::from_raw(10), 2, 0);
        s.accept(&foreign, &mut tally);
        assert_eq!(tally.failed, 2);
        assert!(
            !Tally::default().correct(),
            "nothing attempted is not correct"
        );
    }

    #[test]
    fn expected_mask_is_a_plain_scan() {
        let a = ServiceId::from_raw(0x100);
        let b = ServiceId::from_raw(0x101);
        let subs = [
            (a, Filter::for_type("t").with(("x", Op::Ge, 5i64))),
            (b, Filter::for_type("t").with(("x", Op::Lt, 5i64))),
            (b, Filter::for_type("u")),
        ];
        let idx = |s: ServiceId| (s.raw() - 0x100) as usize;
        let ev = |x: i64| Event::builder("t").attr("x", x).build();
        let scan = |e: &Event| expected_mask(e, subs.iter().map(|(s, f)| (*s, f)), idx);
        assert_eq!(scan(&ev(7)), 0b01);
        assert_eq!(scan(&ev(2)), 0b10);
        assert_eq!(scan(&Event::new("v")), 0);
    }
}
