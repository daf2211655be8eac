//! The acknowledgement rule: an ack for in-order data is held per peer
//! and leaves inside the next data frame to that peer, on the next tick
//! (the next `step()` of a step-driven channel), or at once when half a
//! window is owed. These tests pin what the rule must never cost —
//! exactly-once, FIFO, every receipt resolving, journal-before-ack — and
//! what it must buy: fewer datagrams, no spurious retransmission.

use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use smc_transport::{
    ChannelJournal, Datagram, Frame, Incoming, LinkConfig, MemTransport, Receipt, ReliableChannel,
    ReliableConfig, SimNetwork, Transport,
};
use smc_types::codec::from_bytes;
use smc_types::{Error, ManualClock, Result, ServiceId, SharedBytes, SharedClock};

/// A simulated endpoint that remembers every frame sent through it.
#[derive(Debug)]
struct Tap {
    inner: MemTransport,
    sent: Mutex<Vec<Frame>>,
}

impl Tap {
    fn on(net: &SimNetwork) -> Arc<Tap> {
        Arc::new(Tap {
            inner: net.endpoint(),
            sent: Mutex::new(Vec::new()),
        })
    }

    /// Everything sent since the last call.
    fn take(&self) -> Vec<Frame> {
        std::mem::take(&mut *self.sent.lock())
    }
}

impl Transport for Tap {
    fn local_id(&self) -> ServiceId {
        self.inner.local_id()
    }
    fn send(&self, to: ServiceId, payload: &[u8]) -> Result<()> {
        let frame = from_bytes::<Frame>(payload).expect("channels send well-formed frames");
        self.sent.lock().push(frame);
        self.inner.send(to, payload)
    }
    fn broadcast(&self, payload: &[u8]) -> Result<()> {
        self.inner.broadcast(payload)
    }
    fn recv(&self, timeout: Option<Duration>) -> Result<Datagram> {
        self.inner.recv(timeout)
    }
    fn max_datagram(&self) -> usize {
        self.inner.max_datagram()
    }
    fn close(&self) {
        self.inner.close()
    }
}

/// Whether `frame` acknowledges message `seq` in any of the three forms.
fn acknowledges(frame: &Frame, seq: u64) -> bool {
    match frame {
        Frame::Ack { seq: s, .. } => *s == seq,
        Frame::AckBatch { acks, .. } => acks.iter().any(|&(s, _)| s == seq),
        Frame::Data { ack, .. } => ack.is_some_and(|a| a.up_to >= seq),
        Frame::Unreliable { .. } => false,
    }
}

fn virtual_world(link: LinkConfig, seed: u64) -> (Arc<ManualClock>, SharedClock, SimNetwork) {
    let clock = Arc::new(ManualClock::new());
    let shared: SharedClock = clock.clone();
    let net = SimNetwork::with_clock(link, seed, Arc::clone(&shared));
    (clock, shared, net)
}

/// The `i`-th message of a stream: its index, padded so that every
/// seventh message needs several fragments.
fn message(i: u32, max_datagram: usize) -> Vec<u8> {
    let mut payload = i.to_le_bytes().to_vec();
    if i % 7 == 3 {
        payload.resize(max_datagram * 2 + 17, i as u8);
    }
    payload
}

/// (a) Two-way traffic over a link that loses, duplicates and reorders:
/// each direction's held acks ride on the other's data, and none of it
/// may show — exactly once, per-sender FIFO, every receipt resolved.
#[test]
fn two_way_traffic_survives_loss_duplication_and_reordering() {
    const EACH_WAY: u32 = 150;
    for seed in [3, 17, 4242] {
        let link = LinkConfig {
            latency: Duration::from_millis(1),
            // Wider than the spacing of sends: later frames overtake.
            jitter: Duration::from_millis(6),
            loss: 0.12,
            duplicate: 0.12,
            ..LinkConfig::ideal()
        };
        let (clock, shared, net) = virtual_world(link, seed);
        let (ta, tb) = (Tap::on(&net), Tap::on(&net));
        let channel = |tap: &Arc<Tap>| {
            ReliableChannel::with_clock(
                Arc::clone(tap) as Arc<dyn Transport>,
                ReliableConfig::default(),
                Arc::clone(&shared),
            )
        };
        let (a, b) = (channel(&ta), channel(&tb));
        let max_datagram = a.transport().max_datagram();

        let mut receipts: Vec<Receipt> = Vec::new();
        let mut got: [Vec<Vec<u8>>; 2] = [Vec::new(), Vec::new()];
        let mut sent = 0;
        for _ in 0..20_000 {
            // A and B talk at different rates, so acks sometimes find a
            // ride and sometimes wait for the step.
            if sent < EACH_WAY {
                receipts.push(
                    a.send_with_receipt(b.local_id(), message(sent, max_datagram))
                        .unwrap(),
                );
                receipts.push(
                    b.send_with_receipt(a.local_id(), message(sent, max_datagram))
                        .unwrap(),
                );
                sent += 1;
            }
            clock.advance_millis(1);
            net.pump_due();
            for (end, inbox) in [&a, &b].into_iter().zip(&mut got) {
                end.step();
                while let Some(incoming) = end.try_recv() {
                    assert!(matches!(incoming, Incoming::Reliable { .. }));
                    inbox.push(incoming.payload().to_vec());
                }
            }
            if sent == EACH_WAY
                && a.pending(b.local_id()) + b.pending(a.local_id()) == 0
                && got.iter().all(|g| g.len() >= EACH_WAY as usize)
            {
                break;
            }
        }

        let expected: Vec<Vec<u8>> = (0..EACH_WAY).map(|i| message(i, max_datagram)).collect();
        for (inbox, who) in got.iter().zip(["A", "B"]) {
            assert_eq!(
                inbox.len(),
                expected.len(),
                "seed {seed}: {who} exactly once"
            );
            assert!(inbox == &expected, "seed {seed}: {who} in send order");
        }
        for receipt in &receipts {
            assert!(
                matches!(receipt.poll(), Some(Ok(()))),
                "seed {seed}: every receipt resolves"
            );
        }
        // The scenario did exercise what it claims to.
        let (sa, sb) = (a.stats(), b.stats());
        assert!(sa.retransmits + sb.retransmits > 0, "seed {seed}: loss bit");
        assert!(
            sa.duplicates_suppressed + sb.duplicates_suppressed > 0,
            "seed {seed}: duplicates arrived"
        );
        let piggybacked = |tap: &Tap| {
            tap.take()
                .iter()
                .filter(|f| matches!(f, Frame::Data { ack: Some(_), .. }))
                .count()
        };
        assert!(
            piggybacked(&ta) > 0 && piggybacked(&tb) > 0,
            "seed {seed}: acks rode on data"
        );
    }
}

/// (a, continued) The one new way to lose an ack: it was riding on a data
/// frame the network dropped. Both directions recover by retransmission —
/// the data because its sender saw no ack, the ack because its receiver
/// answers the peer's retransmission (a duplicate) at once.
#[test]
fn lost_ack_bearing_frame_is_recovered_by_retransmission() {
    let (clock, shared, net) = virtual_world(LinkConfig::ideal(), 9);
    let ta = Tap::on(&net);
    let a = ReliableChannel::with_clock(
        Arc::clone(&ta) as Arc<dyn Transport>,
        ReliableConfig::default(),
        Arc::clone(&shared),
    );
    let b = ReliableChannel::with_clock(
        Arc::new(net.endpoint()),
        ReliableConfig::default(),
        Arc::clone(&shared),
    );

    // B's message arrives; A holds the ack through its turn.
    let from_b = b
        .send_with_receipt(a.local_id(), b"question".to_vec())
        .unwrap();
    a.step();
    assert_eq!(a.try_recv().unwrap().payload(), b"question");
    assert!(ta.take().is_empty(), "the ack is held, not sent");

    // A's reply carries it — into a partition.
    net.set_partitioned(a.local_id(), b.local_id(), true);
    let from_a = a
        .send_with_receipt(b.local_id(), b"answer".to_vec())
        .unwrap();
    net.set_partitioned(a.local_id(), b.local_id(), false);
    let lost = ta.take();
    assert!(
        matches!(lost[..], [Frame::Data { ack: Some(ack), .. }] if ack.up_to == 1),
        "the lost frame bore the ack: {lost:?}"
    );
    a.step();
    b.step();
    assert!(
        ta.take().is_empty(),
        "nothing held: the ack left with the reply"
    );
    assert!(from_a.poll().is_none() && from_b.poll().is_none());

    // Both retransmission timers fire; two rounds settle everything.
    clock.advance_millis(100);
    for _ in 0..2 {
        a.step();
        b.step();
    }
    assert!(
        matches!(from_a.poll(), Some(Ok(()))),
        "the reply got through"
    );
    assert!(
        matches!(from_b.poll(), Some(Ok(()))),
        "the lost ack was re-sent"
    );
    assert_eq!(b.try_recv().unwrap().payload(), b"answer");
    assert!(
        a.try_recv().is_none() && b.try_recv().is_none(),
        "exactly once"
    );
    assert_eq!((a.stats().retransmits, b.stats().retransmits), (1, 1));
    assert_eq!(a.stats().duplicates_suppressed, 1, "B's retransmission");
    assert!(
        ta.take()
            .iter()
            .any(|f| matches!(f, Frame::Ack { seq: 1, .. })),
        "a duplicate is re-acknowledged at once, standalone"
    );
}

/// (b) Threaded, default configuration, nothing travelling the other way:
/// held acks leave by the half-window bound and the tick, always before
/// the sender's timer — no retransmission, so no duplicate either.
#[test]
fn one_way_stream_never_waits_for_the_retransmission_timer() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let channel = || ReliableChannel::new(Arc::new(net.endpoint()), ReliableConfig::default());
    let (a, b) = (channel(), channel());
    let receipts: Vec<Receipt> = (0..2_000u32)
        .map(|i| {
            a.send_with_receipt(b.local_id(), i.to_le_bytes().to_vec())
                .unwrap()
        })
        .collect();
    for i in 0..2_000u32 {
        let incoming = b.recv(Some(Duration::from_secs(10))).unwrap();
        assert_eq!(incoming.payload(), i.to_le_bytes());
    }
    for receipt in receipts {
        receipt.wait(Duration::from_secs(10)).unwrap();
    }
    let (sa, sb) = (a.stats(), b.stats());
    assert_eq!((sa.msgs_acked, sb.msgs_delivered), (2_000, 2_000));
    assert_eq!(sa.retransmits, 0, "the hold always beats the RTO");
    assert_eq!(sb.duplicates_suppressed, 0);
}

/// (b, continued) With a window of one the half-window bound is one
/// message: every delivery is acknowledged at once, and a one-way stream
/// runs at link speed instead of one message per tick.
#[test]
fn window_of_one_is_not_paced_by_the_tick() {
    const MESSAGES: u32 = 300;
    let config = ReliableConfig {
        window: 1,
        ..ReliableConfig::default()
    };
    let net = SimNetwork::new(LinkConfig::ideal());
    let a = ReliableChannel::new(Arc::new(net.endpoint()), config.clone());
    let b = ReliableChannel::new(Arc::new(net.endpoint()), config.clone());
    let start = Instant::now();
    let receipts: Vec<Receipt> = (0..MESSAGES)
        .map(|i| {
            a.send_with_receipt(b.local_id(), i.to_le_bytes().to_vec())
                .unwrap()
        })
        .collect();
    for receipt in receipts {
        receipt.wait(Duration::from_secs(10)).unwrap();
    }
    // One message per tick would be 300 × 20 ms = 6 s; the link is
    // instant, so even a badly scheduled run is far inside a quarter of
    // that.
    let paced_by_tick = config.poll_interval * MESSAGES;
    assert!(
        start.elapsed() < paced_by_tick / 4,
        "{MESSAGES} messages took {:?}",
        start.elapsed()
    );
    assert_eq!(a.stats().retransmits, 0);
}

/// (b, the recorded limit) The half-window bound is the receiver's *own*
/// `window` standing in for the sender's. A window-1 sender facing a
/// default receiver (bound 32) is owed one acknowledgement at a time and
/// never reaches the bound, so each one leaves on the receiver's tick:
/// everything is delivered and acknowledged, nothing is retransmitted,
/// and the stream runs at one message per tick. Both ends alike is the
/// documented assumption (`ReliableConfig::window`, PROTOCOL.md Layer 1);
/// this pins what happens when it does not hold.
#[test]
fn smaller_sender_window_is_paced_by_the_receivers_tick() {
    const MESSAGES: u32 = 20;
    let net = SimNetwork::new(LinkConfig::ideal());
    // An RTO far above the tick: an acknowledgement seen here came from
    // the tick, not from a retransmission answered as a duplicate.
    let narrow = ReliableConfig {
        window: 1,
        initial_rto: Duration::from_secs(1),
        ..ReliableConfig::default()
    };
    let a = ReliableChannel::new(Arc::new(net.endpoint()), narrow);
    let b = ReliableChannel::new(Arc::new(net.endpoint()), ReliableConfig::default());
    let start = Instant::now();
    let receipts: Vec<Receipt> = (0..MESSAGES)
        .map(|i| {
            a.send_with_receipt(b.local_id(), i.to_le_bytes().to_vec())
                .unwrap()
        })
        .collect();
    for i in 0..MESSAGES {
        let incoming = b.recv(Some(Duration::from_secs(10))).unwrap();
        assert_eq!(incoming.payload(), i.to_le_bytes());
    }
    for receipt in receipts {
        receipt.wait(Duration::from_secs(10)).unwrap();
    }
    let (sa, sb) = (a.stats(), b.stats());
    assert_eq!((sa.msgs_acked, sb.msgs_delivered), (20, 20));
    assert_eq!((sa.retransmits, sb.duplicates_suppressed), (0, 0));
    // Ticks are at least `poll_interval` apart and each releases one
    // message; half of that is already far from link speed.
    let tick = ReliableConfig::default().poll_interval;
    assert!(
        start.elapsed() >= tick * (MESSAGES / 2),
        "{MESSAGES} messages took only {:?}",
        start.elapsed()
    );
}

/// (b, the limit from above) Tick-paced is not stalled. Since the cell
/// stopped answering `Publish` and `Deliver` at the application level a
/// stream is one-way as a rule, so a sender with a smaller window than its
/// receiver is the shape this limit is met in: window 4 facing the default
/// 64 (bound 32) never reaches the bound, each round of four is released
/// by the receiver's tick — at most two poll intervals away — and nothing
/// waits for a retransmission timer.
#[test]
fn a_smaller_sender_window_is_tick_paced_not_stalled() {
    const MESSAGES: u32 = 200;
    const WINDOW: u32 = 4;
    let net = SimNetwork::new(LinkConfig::ideal());
    // An RTO far above the tick, so that a round released by the timer
    // instead (50 of them, a second each) cannot pass for tick pacing.
    let narrow = ReliableConfig {
        window: WINDOW as usize,
        initial_rto: Duration::from_secs(1),
        ..ReliableConfig::default()
    };
    let a = ReliableChannel::new(Arc::new(net.endpoint()), narrow);
    let b = ReliableChannel::new(Arc::new(net.endpoint()), ReliableConfig::default());
    let start = Instant::now();
    let receipts: Vec<Receipt> = (0..MESSAGES)
        .map(|i| {
            a.send_with_receipt(b.local_id(), i.to_le_bytes().to_vec())
                .unwrap()
        })
        .collect();
    for i in 0..MESSAGES {
        let incoming = b.recv(Some(Duration::from_secs(10))).unwrap();
        assert_eq!(incoming.payload(), i.to_le_bytes());
    }
    for receipt in receipts {
        receipt.wait(Duration::from_secs(10)).unwrap();
    }
    let elapsed = start.elapsed();
    let (sa, sb) = (a.stats(), b.stats());
    assert_eq!((sa.msgs_acked, sb.msgs_delivered), (200, 200));
    assert_eq!((sa.retransmits, sb.duplicates_suppressed), (0, 0));
    // The slack is for a loaded host; the timer's pace would be 50 s.
    let tick = ReliableConfig::default().poll_interval;
    let limit = tick * 2 * (MESSAGES / WINDOW) + Duration::from_secs(3);
    assert!(elapsed < limit, "{MESSAGES} messages took {elapsed:?}");
}

/// A journal whose `on_deliver` can be switched to fail.
#[derive(Debug, Default)]
struct FlakyJournal {
    failing: Mutex<bool>,
}

impl ChannelJournal for FlakyJournal {
    fn on_deliver(&self, _: ServiceId, _: u64, _: u64) -> Result<()> {
        if *self.failing.lock() {
            return Err(Error::Io("injected journal failure".into()));
        }
        Ok(())
    }
    fn on_enqueue(&self, _: ServiceId, _: u64, _: &SharedBytes) -> Result<()> {
        Ok(())
    }
    fn on_acked(&self, _: ServiceId, _: &[u64]) -> Result<()> {
        Ok(())
    }
    fn on_forget(&self, _: ServiceId) -> Result<()> {
        Ok(())
    }
}

/// (c) Journal-before-ack holds for every form an ack can take: while
/// `on_deliver` fails, message 2 is acknowledged neither standalone nor
/// by the cumulative field of the receiver's own data frames — which keep
/// flowing and keep acknowledging message 1.
#[test]
fn undelivered_message_is_acknowledged_in_no_form() {
    let (clock, shared, net) = virtual_world(LinkConfig::ideal(), 13);
    let device = ReliableChannel::with_clock(
        Arc::new(net.endpoint()),
        ReliableConfig::default(),
        Arc::clone(&shared),
    );
    let tap = Tap::on(&net);
    let journal = Arc::new(FlakyJournal::default());
    let core = ReliableChannel::with_clock_journaled(
        Arc::clone(&tap) as Arc<dyn Transport>,
        ReliableConfig::default(),
        Arc::clone(&shared),
        Arc::clone(&journal) as Arc<dyn ChannelJournal>,
        Vec::new(),
    );

    device.send(core.local_id(), vec![1]).unwrap();
    core.step();
    *journal.failing.lock() = true;
    let second = device.send_with_receipt(core.local_id(), vec![2]).unwrap();

    // The core keeps talking to the device the whole time, through
    // several of the device's retransmission rounds.
    let mut seen = Vec::new();
    for round in 0..12u8 {
        core.send(device.local_id(), vec![0xC0, round]).unwrap();
        clock.advance_millis(40);
        core.step();
        device.step();
        seen.extend(tap.take());
    }
    assert!(device.stats().retransmits >= 2, "the device kept asking");
    assert!(
        seen.iter()
            .any(|f| matches!(f, Frame::Data { ack: Some(ack), .. } if ack.up_to == 1)),
        "message 1 was acknowledged on the core's own data: {seen:?}"
    );
    assert!(
        !seen.iter().any(|f| acknowledges(f, 2)),
        "message 2 is not journalled, so nothing may acknowledge it: {seen:?}"
    );
    assert!(second.poll().is_none());
    assert_eq!(core.stats().msgs_delivered, 1);

    // The journal heals; the next retransmission is delivered and acked.
    *journal.failing.lock() = false;
    for _ in 0..50 {
        clock.advance_millis(40);
        core.step();
        device.step();
        if second.poll().is_some() {
            break;
        }
    }
    assert_eq!(
        core.stats().msgs_delivered,
        2,
        "delivered once the retry succeeds"
    );
    assert!(tap.take().iter().any(|f| acknowledges(f, 2)));
    assert_eq!(device.pending(core.local_id()), 0);
}

/// A step-driven channel that waits for its first datagram
/// (`step_waiting`) never waits past its poll interval, however long it
/// is asked to, so the ack its step holds leaves with the next step in
/// time to beat the sender's first timeout: a loop of waiting steps
/// receives every message once and the sender retransmits nothing.
#[test]
fn a_waiting_step_is_held_to_the_poll_interval() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let config = ReliableConfig {
        initial_rto: Duration::from_millis(200),
        poll_interval: Duration::from_millis(100),
        ..ReliableConfig::default()
    };
    let clock = smc_types::system_clock();
    let rx = ReliableChannel::with_clock(Arc::new(net.endpoint()), config.clone(), clock);
    let tx = ReliableChannel::new(Arc::new(net.endpoint()), config);

    let asked = Instant::now();
    assert_eq!(rx.step_waiting(Duration::from_secs(5)), 0);
    let waited = asked.elapsed();
    assert!(
        waited < Duration::from_secs(1),
        "an idle step waited {waited:?}"
    );

    let receipts: Vec<Receipt> = (0..20u8)
        .map(|i| tx.send_with_receipt(rx.local_id(), vec![i]).unwrap())
        .collect();
    let mut got = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(5);
    while got.len() < 20 || receipts.iter().any(|r| r.poll().is_none()) {
        assert!(Instant::now() < deadline, "received {got:?}");
        rx.step_waiting(Duration::from_secs(5));
        while let Some(Incoming::Reliable { payload, .. }) = rx.try_recv() {
            got.push(payload[0]);
        }
    }
    assert_eq!(got, (0..20u8).collect::<Vec<_>>());
    assert_eq!(tx.stats().retransmits, 0, "a held ack lost the race");
}
