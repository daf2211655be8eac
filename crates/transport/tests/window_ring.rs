//! The send window under acknowledgements in any order: selective ones
//! shuffled, repeated and batched; cumulative ones that straddle messages
//! already completed out of order; and a message that runs out of
//! retries mid-stream, with messages in flight behind it and more queued
//! behind those. Whatever the order, every message completes exactly once
//! and its receipt resolves once, `pending` and the counters agree, the
//! window refills in sequence order, and `outbound_pending` lists what is
//! owed oldest first.
//!
//! Step-driven on a manual clock: time moves only while the expiring
//! message is being starved, so every other retransmission is the test's
//! own doing and every case replays from its seed.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bytes::BytesMut;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use smc_transport::frame::{encode_ack_frame, put_ack_batch_frame, put_data_frame};
use smc_transport::{
    ChannelJournal, CumulativeAck, Datagram, Frame, Receipt, ReliableChannel, ReliableConfig,
    Transport, FRAME_HEADER_LEN,
};
use smc_types::codec::from_bytes;
use smc_types::{Error, ManualClock, Result, ServiceId, SharedBytes};

const PEER: ServiceId = ServiceId::from_raw(0xBEEF);
/// The peer's own session, for the data frames a cumulative ack rides on.
const PEER_EPOCH: u64 = 1;
/// Fragments of at most 40 B: a message of up to 120 B is one to three.
const MAX_FRAGMENT: usize = 40;
const WINDOW: usize = 8;
const MESSAGES: u64 = 200;
const RTO: Duration = Duration::from_millis(100);
const MAX_RETRIES: u32 = 2;

/// A transport to nowhere: it notes every data frame the channel sends
/// and receives what the test puts in.
#[derive(Debug, Default)]
struct Wire {
    /// `(epoch, seq, frag_index, frag_count)` per data frame sent.
    sent: Mutex<Vec<(u64, u64, u16, u16)>>,
    inbox: Mutex<VecDeque<Datagram>>,
}

impl Transport for Wire {
    fn local_id(&self) -> ServiceId {
        ServiceId::from_raw(0xA)
    }
    fn send(&self, _to: ServiceId, frame: &[u8]) -> Result<()> {
        let frame = from_bytes::<Frame>(frame).expect("channels send well-formed frames");
        if let Frame::Data {
            epoch,
            seq,
            frag_index,
            frag_count,
            ..
        } = frame
        {
            let sent = (epoch, seq, frag_index, frag_count);
            self.sent.lock().unwrap().push(sent);
        }
        Ok(())
    }
    fn broadcast(&self, _payload: &[u8]) -> Result<()> {
        Ok(())
    }
    fn recv(&self, _timeout: Option<Duration>) -> Result<Datagram> {
        self.inbox.lock().unwrap().pop_front().ok_or(Error::Timeout)
    }
    fn max_datagram(&self) -> usize {
        FRAME_HEADER_LEN + MAX_FRAGMENT
    }
    fn close(&self) {}
}

/// A journal that keeps nothing but the order outbound messages were
/// retired in: acknowledged or abandoned, each is retired exactly once.
#[derive(Debug, Default)]
struct Retired(Mutex<Vec<u64>>);

impl ChannelJournal for Retired {
    fn on_deliver(&self, _peer: ServiceId, _epoch: u64, _seq: u64) -> Result<()> {
        Ok(())
    }
    fn on_enqueue(&self, _peer: ServiceId, _seq: u64, _payload: &SharedBytes) -> Result<()> {
        Ok(())
    }
    fn on_acked(&self, _peer: ServiceId, seqs: &[u64]) -> Result<()> {
        self.0.lock().unwrap().extend_from_slice(seqs);
        Ok(())
    }
    fn on_forget(&self, _peer: ServiceId) -> Result<()> {
        Ok(())
    }
}

/// What the test knows of the channel's outbound side.
struct Case {
    rng: StdRng,
    clock: Arc<ManualClock>,
    wire: Arc<Wire>,
    journal: Arc<Retired>,
    channel: Arc<ReliableChannel>,
    receipts: Vec<Receipt>,
    /// The channel's session, echoed by every acknowledgement.
    epoch: u64,
    /// Fragment count of every message seen on the wire, and the step it
    /// was first seen after.
    seen: BTreeMap<u64, (u16, u32)>,
    /// Fragments acknowledged so far, per message.
    acked: BTreeMap<u64, BTreeSet<u16>>,
    /// Messages the test has acknowledged in full, or that expired.
    done: BTreeSet<u64>,
    /// Each receipt's outcome, once it resolved.
    outcomes: Vec<Option<Result<()>>>,
    /// The message starved of acknowledgements until it expires.
    victim: Option<u64>,
    peer_seq: u64,
    steps: u32,
}

impl Case {
    fn new(seed: u64) -> Case {
        let clock = Arc::new(ManualClock::new());
        let wire = Arc::new(Wire::default());
        let journal = Arc::new(Retired::default());
        let config = ReliableConfig {
            initial_rto: RTO,
            max_rto: 8 * RTO,
            max_retries: Some(MAX_RETRIES),
            window: WINDOW,
            poll_interval: RTO / 4,
            ..ReliableConfig::default()
        };
        let channel = ReliableChannel::with_clock_journaled(
            Arc::clone(&wire) as Arc<dyn Transport>,
            config,
            clock.clone(),
            Arc::clone(&journal) as Arc<dyn ChannelJournal>,
            Vec::new(),
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let receipts = (0..MESSAGES)
            .map(|_| {
                let payload = vec![0x5A; rng.gen_range(1..=3 * MAX_FRAGMENT)];
                channel.send_with_receipt(PEER, payload).expect("send")
            })
            .collect();
        Case {
            rng,
            clock,
            wire,
            journal,
            channel,
            receipts,
            epoch: 0,
            seen: BTreeMap::new(),
            acked: BTreeMap::new(),
            done: BTreeSet::new(),
            outcomes: vec![None; MESSAGES as usize],
            victim: None,
            peer_seq: 0,
            steps: 0,
        }
    }

    fn step(&mut self) {
        self.channel.step();
        self.steps += 1;
        while self.channel.try_recv().is_some() {}
    }

    /// Messages on the wire and not yet retired, oldest first.
    fn in_flight(&self) -> Vec<u64> {
        self.seen
            .keys()
            .copied()
            .filter(|seq| !self.done.contains(seq))
            .collect()
    }

    /// Files what the channel sent since the last look: a message seen
    /// for the first time is the one after the last one seen.
    fn watch_the_wire(&mut self) {
        for (epoch, seq, _, frag_count) in std::mem::take(&mut *self.wire.sent.lock().unwrap()) {
            self.epoch = epoch;
            if let Some(&(count, _)) = self.seen.get(&seq) {
                assert_eq!(count, frag_count, "message {seq} keeps its fragment count");
                continue;
            }
            let last = self.seen.keys().next_back().copied().unwrap_or(0);
            assert_eq!(seq, last + 1, "the window refills in sequence order");
            self.seen.insert(seq, (frag_count, self.steps));
        }
    }

    /// Resolves the receipts that resolved, checking each against what
    /// the test did: acknowledged in full, or the victim expired.
    fn collect_receipts(&mut self) {
        for (i, receipt) in self.receipts.iter().enumerate() {
            let seq = i as u64 + 1;
            let Some(outcome) = receipt.poll() else {
                continue;
            };
            assert!(
                self.outcomes[i].is_none(),
                "message {seq}'s receipt resolved twice"
            );
            let expected = if Some(seq) == self.victim {
                Err(Error::Timeout)
            } else {
                Ok(())
            };
            assert!(self.done.contains(&seq), "message {seq} resolved early");
            assert_eq!(outcome, expected, "message {seq}'s receipt");
            self.outcomes[i] = Some(outcome);
        }
    }

    /// What every step must leave true.
    fn check(&mut self) {
        self.watch_the_wire();
        self.collect_receipts();
        let in_flight = self.in_flight();
        let unsent = MESSAGES - self.seen.len() as u64;
        assert!(in_flight.len() <= WINDOW, "{in_flight:?} in flight");
        if unsent > 0 {
            assert_eq!(in_flight.len(), WINDOW, "a queued message waits for a slot");
        }
        let owed = MESSAGES as usize - self.done.len();
        let stats = self.channel.stats();
        assert_eq!(stats.msgs_sent, MESSAGES);
        assert_eq!(self.channel.pending(PEER), owed);
        assert_eq!(
            self.channel.pending(PEER) as u64,
            stats.msgs_sent - stats.msgs_acked - stats.msgs_expired,
            "pending and the counters agree"
        );
        let pending: Vec<u64> = self
            .channel
            .outbound_pending()
            .into_iter()
            .flat_map(|(peer, msgs)| {
                assert_eq!(peer, PEER);
                msgs.into_iter().map(|(seq, _)| seq)
            })
            .collect();
        assert!(
            pending.windows(2).all(|w| w[0] < w[1]),
            "outbound_pending is oldest first: {pending:?}"
        );
        let owed_seqs: Vec<u64> = (1..=MESSAGES).filter(|s| !self.done.contains(s)).collect();
        assert_eq!(pending, owed_seqs);
        let mut retired = self.journal.0.lock().unwrap().clone();
        assert_eq!(retired.len(), self.done.len(), "retired: {retired:?}");
        retired.sort_unstable();
        retired.dedup();
        assert_eq!(retired.len(), self.done.len(), "a message retired twice");
        assert!(retired.iter().eq(self.done.iter()));
    }

    /// Acknowledges `frags` selectively, in the order given: one batch,
    /// or one frame each.
    fn ack_selectively(&mut self, frags: &[(u64, u16)]) {
        let datagrams: Vec<Vec<u8>> = if self.rng.gen_bool(0.5) {
            let mut frame = BytesMut::new();
            put_ack_batch_frame(&mut frame, self.epoch, frags);
            vec![frame.freeze()]
        } else {
            frags
                .iter()
                .map(|&(seq, i)| encode_ack_frame(self.epoch, seq, i).to_vec())
                .collect()
        };
        let mut inbox = self.wire.inbox.lock().unwrap();
        inbox.extend(datagrams.into_iter().map(|d| Datagram::unicast(PEER, d)));
        drop(inbox);
        for &(seq, i) in frags {
            let acked = self.acked.entry(seq).or_default();
            acked.insert(i);
            let whole = self
                .seen
                .get(&seq)
                .is_some_and(|&(n, _)| acked.len() == n as usize);
            if whole {
                self.done.insert(seq);
            }
        }
    }

    /// Acknowledges every message up to `up_to` at once, on a data frame
    /// of the peer's own.
    fn ack_cumulatively(&mut self, up_to: u64) {
        self.peer_seq += 1;
        let mut frame = BytesMut::new();
        let ack = CumulativeAck {
            epoch: self.epoch,
            up_to,
        };
        put_data_frame(
            &mut frame,
            Some(ack),
            PEER_EPOCH,
            self.peer_seq,
            0,
            1,
            b"ride",
        );
        let datagram = Datagram::unicast(PEER, frame.freeze());
        self.wire.inbox.lock().unwrap().push_back(datagram);
        self.done
            .extend(self.seen.range(..=up_to).map(|(&seq, _)| seq));
    }

    /// Some fragments of the messages in flight, `must` among them, in
    /// any order, a few more than once, and a few of messages already
    /// retired.
    fn shuffled_acks(&mut self, in_flight: &[u64], must: &[u64]) -> Vec<(u64, u16)> {
        let mut frags = Vec::new();
        for &seq in in_flight {
            if Some(seq) == self.victim {
                continue;
            }
            let every = must.contains(&seq);
            for i in 0..self.seen[&seq].0 {
                if every || self.rng.gen_bool(0.4) {
                    frags.push((seq, i));
                    if self.rng.gen_bool(0.1) {
                        frags.push((seq, i));
                    }
                }
            }
        }
        let retired: Vec<u64> = self.done.iter().copied().collect();
        for _ in 0..self.rng.gen_range(0..3usize) {
            if let Some(&seq) = retired.get(self.rng.gen_range(0..retired.len().max(1))) {
                frags.push((seq, 0));
            }
        }
        for i in (1..frags.len()).rev() {
            frags.swap(i, self.rng.gen_range(0..=i));
        }
        frags
    }

    /// Acknowledges at random until everything is retired; a quarter of
    /// the way in, the oldest message in flight is starved until it
    /// expires while the rest of the window keeps moving.
    fn run(mut self) {
        self.check();
        while self.done.len() < MESSAGES as usize {
            let in_flight = self.in_flight();
            if self.victim.is_none() && self.seen.len() as u64 >= MESSAGES / 4 {
                self.victim = in_flight.first().copied();
                self.starve_the_victim();
                continue;
            }
            if self.rng.gen_bool(0.3) {
                let up_to = in_flight[self.rng.gen_range(0..in_flight.len())];
                self.ack_cumulatively(up_to);
            } else {
                let frags = self.shuffled_acks(&in_flight, &[]);
                self.ack_selectively(&frags);
            }
            self.step();
            self.check();
        }
        assert!(
            self.outcomes.iter().all(Option::is_some),
            "every receipt resolved"
        );
        let stats = self.channel.stats();
        assert_eq!((stats.msgs_acked, stats.msgs_expired), (MESSAGES - 1, 1));
        // Resolved once: nothing more arrives on any receipt.
        assert!(self.receipts.iter().all(|r| r.poll().is_none()));
    }

    /// Moves the clock half an RTO a step, acknowledging every message
    /// but the victim before it falls due, and the ones just sent at
    /// random — until the victim's retries run out.
    fn starve_the_victim(&mut self) {
        let victim = self.victim.expect("a victim");
        while !self.done.contains(&victim) {
            let in_flight = self.in_flight();
            let old: Vec<u64> = in_flight
                .iter()
                .copied()
                .filter(|seq| self.seen[seq].1 < self.steps)
                .collect();
            let frags = self.shuffled_acks(&in_flight, &old);
            self.ack_selectively(&frags);
            self.step();
            self.check();
            self.clock.advance_micros(RTO.as_micros() as u64 / 2);
            self.step();
            if self.channel.stats().msgs_expired == 1 {
                self.done.insert(victim);
                assert!(
                    !self.in_flight().is_empty() && self.seen.len() < MESSAGES as usize,
                    "messages in flight behind the victim, and more queued"
                );
            }
            self.check();
        }
    }
}

#[test]
fn acknowledgements_in_any_order_retire_each_message_once() {
    for seed in 0..24 {
        Case::new(seed).run();
    }
}
