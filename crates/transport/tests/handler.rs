//! The handler contract: a channel whose owner installed a [`Handler`]
//! hands each message to it on the thread that received the message —
//! exactly once, per-sender FIFO, with none of the channel's locks held —
//! and neither the order of installation and traffic nor a handler that
//! closes its own channel can lose, repeat, deadlock or leak anything.
//!
//! Interleavings are forced with queues, not sleeps: a test that waits,
//! waits on the thing it checks.

use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use proptest::prelude::*;

use smc_transport::{
    ChannelJournal, Incoming, LinkConfig, ReliableChannel, ReliableConfig, SimNetwork,
    FRAME_HEADER_LEN,
};
use smc_types::{ManualClock, Result, ServiceId, SharedBytes, SharedClock};

const TICK: Duration = Duration::from_secs(10);

/// Quick to retransmit and never slow to: with a third of the datagrams
/// lost each way, a message can need a dozen rounds.
fn fast_config() -> ReliableConfig {
    ReliableConfig {
        initial_rto: Duration::from_millis(20),
        max_rto: Duration::from_millis(80),
        poll_interval: Duration::from_millis(5),
        ..ReliableConfig::default()
    }
}

/// Installs a handler on `channel` that forwards every reliable message
/// as `(from, seq, payload)`.
fn forward_reliable(channel: &ReliableChannel) -> mpsc::Receiver<(ServiceId, u64, Vec<u8>)> {
    let (tx, rx) = mpsc::channel();
    channel.set_handler(Box::new(move |incoming| {
        if let Incoming::Reliable { from, seq, payload } = incoming {
            let _ = tx.send((from, seq, payload));
        }
    }));
    rx
}

/// A journal that retains rx payloads and records nothing else: what the
/// cell's bus channel runs with, minus the log.
#[derive(Debug, Default)]
struct Retaining {
    consumed: Mutex<Vec<(ServiceId, u64)>>,
}

impl ChannelJournal for Retaining {
    fn on_deliver(&self, _: ServiceId, _: u64, _: u64, _: &[u8]) -> Result<()> {
        Ok(())
    }
    fn retains_rx(&self) -> bool {
        true
    }
    fn on_consumed(&self, peer: ServiceId, seq: u64) -> Result<()> {
        self.consumed.lock().push((peer, seq));
        Ok(())
    }
    fn on_enqueue(&self, _: ServiceId, _: u64, _: &SharedBytes) -> Result<()> {
        Ok(())
    }
    fn on_acked(&self, _: ServiceId, _: u64) -> Result<()> {
        Ok(())
    }
    fn on_forget(&self, _: ServiceId) -> Result<()> {
        Ok(())
    }
}

proptest! {
    /// The oracle of `reliable_exactly_once_fifo`, through a handler and
    /// with two senders: whatever the link loses, repeats or reorders,
    /// the handler sees each sender's messages once each, in the order
    /// sent, and nothing else.
    #[test]
    fn a_handler_sees_exactly_once_per_sender_fifo(
        counts in (1usize..40, 1usize..40),
        seed in any::<u64>(),
        loss in 0.0f64..0.3,
        duplicate in 0.0f64..0.3,
        jitter_us in 0u64..3_000,
    ) {
        let mut link = LinkConfig::ideal().with_loss(loss).with_duplicates(duplicate);
        link.jitter = Duration::from_micros(jitter_us);
        let net = SimNetwork::with_seed(link, seed);
        let channel = || ReliableChannel::new(Arc::new(net.endpoint()), fast_config());
        let (a, b, receiver) = (channel(), channel(), channel());
        let delivered = forward_reliable(&receiver);

        let payload = |sender: u8, i: usize| {
            let mut p = vec![sender; 1 + i % 7];
            p.extend_from_slice(&(i as u32).to_le_bytes());
            p
        };
        for i in 0..counts.0.max(counts.1) {
            if i < counts.0 {
                a.send(receiver.local_id(), payload(1, i)).unwrap();
            }
            if i < counts.1 {
                b.send(receiver.local_id(), payload(2, i)).unwrap();
            }
        }
        let mut next: HashMap<ServiceId, (u8, usize)> =
            HashMap::from([(a.local_id(), (1, 0)), (b.local_id(), (2, 0))]);
        for _ in 0..counts.0 + counts.1 {
            let (from, seq, got) = delivered.recv_timeout(TICK).expect("delivered in time");
            let (sender, i) = next.get_mut(&from).expect("a known sender");
            prop_assert_eq!(seq, *i as u64 + 1, "sequence numbers ascend by one");
            prop_assert_eq!(got, payload(*sender, *i));
            *i += 1;
        }
        // Let the senders' retransmissions and the link's duplicates
        // arrive: every message acknowledged, then nothing more handed up.
        let deadline = Instant::now() + TICK;
        while a.pending(receiver.local_id()) + b.pending(receiver.local_id()) > 0 {
            prop_assert!(Instant::now() < deadline, "acknowledged in time");
            std::thread::sleep(Duration::from_millis(1));
        }
        prop_assert!(delivered.try_recv().is_err(), "a message was handed up twice");
        for ch in [&a, &b, &receiver] {
            ch.close();
        }
        net.shutdown();
    }
}

/// Payload bytes one datagram carries at [`small_mtu`].
const FRAGMENT: usize = 24;

fn small_mtu(mut link: LinkConfig) -> LinkConfig {
    link.mtu = FRAME_HEADER_LEN + FRAGMENT;
    link
}

/// Message `i` of `sender`, cut into exactly `frags` fragments, every
/// byte telling where it belongs.
fn fragmented(sender: u8, i: usize, frags: usize) -> Vec<u8> {
    let len = (frags - 1) * FRAGMENT + 1 + i * 7 % FRAGMENT;
    (0..len)
        .map(|j| (sender as usize * 31 + i * 7 + j) as u8)
        .collect()
}

/// Two senders stream messages of the given fragment counts to one
/// receiver over `link`; its handler must see each sender's messages once
/// each, in the order sent, byte for byte, and nothing else.
fn two_senders_of_fragmented_messages(link: LinkConfig, seed: u64, frags: [&[usize]; 2]) {
    let net = SimNetwork::with_seed(small_mtu(link), seed);
    let channel = || ReliableChannel::new(Arc::new(net.endpoint()), fast_config());
    let (senders, receiver) = ([channel(), channel()], channel());
    let delivered = forward_reliable(&receiver);
    for i in 0..frags[0].len().max(frags[1].len()) {
        for (s, sender) in senders.iter().enumerate() {
            if let Some(&n) = frags[s].get(i) {
                sender
                    .send(receiver.local_id(), fragmented(s as u8, i, n))
                    .unwrap();
            }
        }
    }
    // Per sender: its index, and the next message expected from it.
    let mut next: HashMap<ServiceId, (usize, usize)> = HashMap::from([
        (senders[0].local_id(), (0, 0)),
        (senders[1].local_id(), (1, 0)),
    ]);
    for _ in 0..frags[0].len() + frags[1].len() {
        let (from, seq, got) = delivered.recv_timeout(TICK).expect("delivered in time");
        let (s, i) = next.get_mut(&from).expect("a known sender");
        assert_eq!(seq, *i as u64 + 1, "sequence numbers ascend by one");
        assert_eq!(got, fragmented(*s as u8, *i, frags[*s][*i]));
        *i += 1;
    }
    let deadline = Instant::now() + TICK;
    while senders.iter().any(|s| s.pending(receiver.local_id()) > 0) {
        assert!(Instant::now() < deadline, "acknowledged in time");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(
        delivered.try_recv().is_err(),
        "a message was handed up twice"
    );
    for ch in senders.iter().chain([&receiver]) {
        ch.close();
    }
    net.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// The property above for messages of one to five fragments: lost,
    /// repeated and reordered fragments still make each message once, in
    /// order, byte for byte.
    #[test]
    fn fragmented_messages_reach_the_handler_exactly_once_per_sender_fifo(
        frags in (
            prop::collection::vec(1usize..=5, 1..25),
            prop::collection::vec(1usize..=5, 1..25),
        ),
        seed in any::<u64>(),
        loss in 0.0f64..0.3,
        duplicate in 0.0f64..0.3,
        jitter_us in 0u64..3_000,
    ) {
        let mut link = LinkConfig::ideal().with_loss(loss).with_duplicates(duplicate);
        link.jitter = Duration::from_micros(jitter_us);
        two_senders_of_fragmented_messages(link, seed, [&frags.0, &frags.1]);
    }
}

/// The same on an instant link, where every message's fragments reach
/// the receiver in one hand-over.
#[test]
fn fragmented_messages_over_an_instant_link_arrive_whole_and_in_order() {
    let frags: Vec<usize> = (0..200).map(|i| 1 + i % 5).collect();
    let reversed: Vec<usize> = frags.iter().rev().copied().collect();
    two_senders_of_fragmented_messages(LinkConfig::ideal(), 1, [&frags, &reversed]);
}

/// Traffic first, handler second: what the inbox held goes through the
/// handler before anything that arrives later — strictly ascending, none
/// twice — and the same with the handler there from the start.
#[test]
fn messages_that_beat_the_handler_go_through_it_first() {
    const MESSAGES: u64 = 1_000;
    for install_first in [true, false] {
        let net = SimNetwork::new(LinkConfig::ideal());
        let a = ReliableChannel::new(Arc::new(net.endpoint()), fast_config());
        let b = ReliableChannel::new(Arc::new(net.endpoint()), fast_config());
        let mut delivered = install_first.then(|| forward_reliable(&b));

        let to = b.local_id();
        let sender = std::thread::spawn({
            let a = Arc::clone(&a);
            move || {
                for i in 0..MESSAGES {
                    a.send(to, i.to_le_bytes().to_vec()).unwrap();
                }
            }
        });
        let delivered = delivered.take().unwrap_or_else(|| {
            // Mid-stream: some messages are in the inbox, more are coming.
            let deadline = Instant::now() + TICK;
            while b.stats().msgs_delivered < MESSAGES / 10 {
                assert!(Instant::now() < deadline, "traffic started");
                std::thread::yield_now();
            }
            forward_reliable(&b)
        });
        for expected in 1..=MESSAGES {
            let (_, seq, payload) = delivered.recv_timeout(TICK).expect("delivered in time");
            assert_eq!(seq, expected, "install_first = {install_first}");
            assert_eq!(payload, (expected - 1).to_le_bytes());
        }
        sender.join().unwrap();
        assert!(delivered.try_recv().is_err(), "nothing twice");
        assert!(
            b.try_recv().is_none() && b.recv(Some(Duration::ZERO)).is_err(),
            "a claimed channel's inbox stays empty"
        );
        a.close();
        b.close();
        net.shutdown();
    }
}

/// The handler runs with `peers_in` (and every other channel lock)
/// released: it can send both ways, read the cursors and the unconsumed
/// list and mark its message consumed, all on its own channel.
#[test]
fn a_handler_may_use_its_own_channel() {
    const MESSAGES: u64 = 200;
    let net = SimNetwork::new(LinkConfig::ideal());
    let a = ReliableChannel::new(Arc::new(net.endpoint()), fast_config());
    let journal = Arc::new(Retaining::default());
    let b = ReliableChannel::new_journaled(
        Arc::new(net.endpoint()),
        fast_config(),
        Arc::clone(&journal) as Arc<dyn ChannelJournal>,
        Vec::new(),
        Vec::new(),
    );
    let own = Arc::clone(&b);
    b.set_handler(Box::new(move |incoming| {
        let Incoming::Reliable { from, seq, payload } = incoming else {
            return;
        };
        let cursor = own
            .rx_cursors()
            .into_iter()
            .find(|&(peer, ..)| peer == from);
        assert!(cursor.is_some_and(|(_, _, expected)| expected > seq));
        assert!(own
            .unconsumed_rx()
            .iter()
            .any(|&(peer, _, s, _)| peer == from && s == seq));
        // Consumed first: the test reads the journal once it has both
        // answers.
        own.consumed(from, seq);
        own.send(from, payload).unwrap();
        own.send_unreliable(from, b"seen").unwrap();
    }));

    for i in 0..MESSAGES {
        a.send(b.local_id(), i.to_le_bytes().to_vec()).unwrap();
    }
    let (mut echoed, mut seen) = (0, 0);
    while echoed < MESSAGES || seen < MESSAGES {
        match a.recv(Some(TICK)).expect("the handler answered") {
            Incoming::Reliable { payload, .. } => {
                assert_eq!(payload, echoed.to_le_bytes());
                echoed += 1;
            }
            Incoming::Unreliable { .. } => seen += 1,
        }
    }
    assert!(b.unconsumed_rx().is_empty());
    assert_eq!(journal.consumed.lock().len() as u64, MESSAGES);
    a.close();
    b.close();
    net.shutdown();
}

/// A step-driven channel has no thread to deliver on: `step()` does it,
/// before it returns.
#[test]
fn a_step_driven_channel_delivers_inside_step() {
    let clock: SharedClock = Arc::new(ManualClock::new());
    let net = SimNetwork::with_clock(LinkConfig::ideal(), 1, Arc::clone(&clock));
    let channel = || {
        ReliableChannel::with_clock(
            Arc::new(net.endpoint()),
            ReliableConfig::default(),
            Arc::clone(&clock),
        )
    };
    let (a, b) = (channel(), channel());
    let delivered = forward_reliable(&b);
    for i in 0..3u8 {
        a.send(b.local_id(), vec![i]).unwrap();
    }
    assert!(delivered.try_recv().is_err(), "nothing before the step");
    b.step();
    let got: Vec<_> = delivered.try_iter().map(|(_, seq, p)| (seq, p)).collect();
    assert_eq!(got, [(1, vec![0]), (2, vec![1]), (3, vec![2])]);
}

/// A journalled channel lists a message as unconsumed from before its
/// handler is called until the handler (or whoever it handed it to) says
/// so: a checkpoint taken while the handler runs carries the message.
#[test]
fn a_message_stays_unconsumed_while_its_handler_runs() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let a = ReliableChannel::new(Arc::new(net.endpoint()), fast_config());
    let b = ReliableChannel::new_journaled(
        Arc::new(net.endpoint()),
        fast_config(),
        Arc::new(Retaining::default()),
        Vec::new(),
        Vec::new(),
    );
    let (entered_tx, entered) = mpsc::channel();
    let (resume, resumed) = mpsc::channel::<()>();
    b.set_handler(Box::new(move |incoming| {
        entered_tx.send(incoming).unwrap();
        resumed.recv().unwrap();
    }));
    a.send(b.local_id(), b"vitals".to_vec()).unwrap();

    let Incoming::Reliable { from, seq, .. } = entered.recv_timeout(TICK).unwrap() else {
        panic!("a reliable message was sent");
    };
    let held = b.unconsumed_rx();
    assert_eq!(held.len(), 1, "listed while the handler has not returned");
    assert_eq!(
        (held[0].0, held[0].2, &held[0].3[..]),
        (from, seq, &b"vitals"[..])
    );
    assert_eq!(b.rx_cursors(), [(from, held[0].1, seq + 1)]);

    resume.send(()).unwrap();
    b.consumed(from, seq);
    assert!(b.unconsumed_rx().is_empty());
    a.close();
    b.close();
    net.shutdown();
}

/// `close()` from another thread drops the handler and what it owns —
/// which is what breaks a channel → handler → owner → channel cycle.
#[test]
fn close_drops_the_handler() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let b = ReliableChannel::new(Arc::new(net.endpoint()), fast_config());
    let owned = Arc::new(());
    let token = Arc::clone(&owned);
    let cycle = Arc::clone(&b);
    b.set_handler(Box::new(move |_| {
        let _ = (&token, &cycle);
    }));
    assert_eq!(Arc::strong_count(&owned), 2);
    assert_eq!(Arc::strong_count(&b), 2);
    b.close();
    assert_eq!(Arc::strong_count(&owned), 1);
    assert_eq!(Arc::strong_count(&b), 1);
    assert!(matches!(b.recv(Some(TICK)), Err(smc_types::Error::Closed)));
    net.shutdown();
}

/// A handler that closes its own channel — directly, or by dropping the
/// last handle of an owner whose `Drop` does — returns (no self-join, no
/// lock taken twice), gets nothing more, and is dropped with everything
/// it holds once it has returned, the receive thread ending behind it.
#[test]
fn a_handler_may_close_its_own_channel() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let a = ReliableChannel::new(Arc::new(net.endpoint()), fast_config());
    let b = ReliableChannel::new(Arc::new(net.endpoint()), fast_config());
    let to = b.local_id();
    let released = Arc::downgrade(&b);
    let (calls_tx, calls) = mpsc::channel();
    // The handler ends up with the only handle there is.
    let own = Arc::clone(&b);
    b.set_handler(Box::new(move |_| {
        own.close();
        calls_tx.send(()).unwrap();
    }));
    drop(b);
    for i in 0..10u8 {
        a.send(to, vec![i]).unwrap();
    }
    calls
        .recv_timeout(TICK)
        .expect("the handler returned from close()");
    let deadline = Instant::now() + TICK;
    while released.upgrade().is_some() {
        assert!(Instant::now() < deadline, "the closed channel was leaked");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(calls.try_recv().is_err(), "called again after it closed");
    a.close();
    net.shutdown();
}
