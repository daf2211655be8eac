//! Tests for the zero-copy send path (shared `Arc<[u8]>` payloads),
//! coalesced [`Frame::AckBatch`] handling, and the golden wire transcript.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use smc_transport::{
    ChannelJournal, Datagram, Frame, Incoming, LinkConfig, MemTransport, ReliableChannel,
    ReliableConfig, SimNetwork, Transport,
};
use smc_types::codec::from_bytes;
use smc_types::{Result, ServiceId, SharedBytes, TraceId};

const TICK: Duration = Duration::from_secs(5);

fn fast_config() -> ReliableConfig {
    ReliableConfig {
        initial_rto: Duration::from_millis(30),
        poll_interval: Duration::from_millis(10),
        ..ReliableConfig::default()
    }
}

fn collect_reliable(ch: &ReliableChannel, n: usize) -> Vec<Vec<u8>> {
    let mut got = Vec::new();
    while got.len() < n {
        match ch.recv(Some(TICK)).expect("recv within deadline") {
            Incoming::Reliable { payload, .. } => got.push(payload),
            Incoming::Unreliable { .. } => {}
        }
    }
    got
}

/// One shared buffer sent to several peers: every receiver gets the
/// bytes, exactly once, while the sender held a single allocation.
#[test]
fn one_shared_buffer_reaches_many_peers() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let a = ReliableChannel::new(Arc::new(net.endpoint()), fast_config());
    let receivers: Vec<_> = (0..4)
        .map(|_| ReliableChannel::new(Arc::new(net.endpoint()), fast_config()))
        .collect();
    let shared: Arc<[u8]> = Arc::from(vec![0xCD; 300]);
    for r in &receivers {
        a.send_traced(r.local_id(), Arc::clone(&shared), TraceId::NONE)
            .unwrap();
    }
    for r in &receivers {
        let got = collect_reliable(r, 1);
        assert_eq!(got[0], shared.as_ref());
    }
}

/// A journalling (ack-on-delivery) receiver coalesces its acks into
/// batch frames; the sender must still see every message acknowledged —
/// including multi-fragment ones — and exactly-once FIFO must hold.
#[test]
fn coalesced_acks_complete_journaled_deliveries() {
    #[derive(Debug, Default)]
    struct NullJournal;
    impl ChannelJournal for NullJournal {
        fn on_deliver(&self, _: ServiceId, _: u64, _: u64, _: &[u8]) -> Result<()> {
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

    let net = SimNetwork::new(LinkConfig::ideal());
    let a = ReliableChannel::new(Arc::new(net.endpoint()), fast_config());
    let b = ReliableChannel::new_journaled(
        Arc::new(net.endpoint()),
        fast_config(),
        Arc::new(NullJournal),
        Vec::new(),
        Vec::new(),
    );
    // Payloads big enough to fragment, sent as one burst so the
    // receiver's in-order drain acks a run of messages at once.
    let big = a.transport().max_datagram() * 3;
    let receipts: Vec<_> = (0..10u8)
        .map(|i| a.send_with_receipt(b.local_id(), vec![i; big]).unwrap())
        .collect();
    let got = collect_reliable(&b, 10);
    for (i, payload) in got.iter().enumerate() {
        assert_eq!(payload.len(), big);
        assert!(payload.iter().all(|&x| x == i as u8));
    }
    for r in receipts {
        r.wait(TICK).unwrap();
    }
    assert_eq!(a.stats().msgs_acked, 10);
}

// ---- AckBatch chunking boundaries -------------------------------------
//
// `flush_acks` coalesces a drained run of acknowledgements into
// `AckBatch` frames of at most `(max_datagram - 11) / 10` entries (the
// wire header is 11 bytes, each entry 10). A journalled receiver acks a
// whole message's fragments in exactly one flush, so an F-fragment
// message pins the boundary cases deterministically: 0 acks must send
// nothing, 1 must stay a plain `Ack`, chunk-size must fill one batch,
// and chunk-size + 1 must split into two.

/// The ack-sender's advertised datagram cap in these tests.
const SNOOP_MAX_DATAGRAM: usize = 60;
/// Entries per `AckBatch` at that cap, mirroring `flush_acks`'s math.
const ACK_CHUNK: usize = (SNOOP_MAX_DATAGRAM - 11) / 10;

/// Wraps a simulated endpoint, recording every sent datagram and
/// advertising a small `max_datagram` so ack batches chunk early. The
/// cap is enforced, not just advertised: an oversized frame fails the
/// test instead of silently relying on the real transport's headroom.
#[derive(Debug)]
struct SnoopTransport {
    inner: MemTransport,
    sent: Mutex<Vec<Vec<u8>>>,
}

impl Transport for SnoopTransport {
    fn local_id(&self) -> ServiceId {
        self.inner.local_id()
    }
    fn send(&self, to: ServiceId, payload: &[u8]) -> Result<()> {
        assert!(
            payload.len() <= SNOOP_MAX_DATAGRAM,
            "frame of {} bytes exceeds the advertised {SNOOP_MAX_DATAGRAM}-byte cap",
            payload.len()
        );
        self.sent.lock().unwrap().push(payload.to_vec());
        self.inner.send(to, payload)
    }
    fn broadcast(&self, payload: &[u8]) -> Result<()> {
        self.inner.broadcast(payload)
    }
    fn recv(&self, timeout: Option<Duration>) -> Result<Datagram> {
        self.inner.recv(timeout)
    }
    fn max_datagram(&self) -> usize {
        SNOOP_MAX_DATAGRAM
    }
    fn close(&self) {
        self.inner.close()
    }
}

#[derive(Debug, Default)]
struct NullJournal;
impl ChannelJournal for NullJournal {
    fn on_deliver(&self, _: ServiceId, _: u64, _: u64, _: &[u8]) -> Result<()> {
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

/// A sender plus a journalled (ack-on-delivery) receiver whose outgoing
/// datagrams are recorded. The long RTO keeps retransmissions (and their
/// re-acks) out of the recorded stream.
fn snooped_pair() -> (
    Arc<ReliableChannel>,
    Arc<ReliableChannel>,
    Arc<SnoopTransport>,
) {
    let net = SimNetwork::new(LinkConfig::ideal());
    let patient = ReliableConfig {
        initial_rto: Duration::from_secs(5),
        ..ReliableConfig::default()
    };
    let a = ReliableChannel::new(Arc::new(net.endpoint()), patient.clone());
    let snoop = Arc::new(SnoopTransport {
        inner: net.endpoint(),
        sent: Mutex::new(Vec::new()),
    });
    let b = ReliableChannel::new_journaled(
        Arc::clone(&snoop) as Arc<dyn Transport>,
        patient,
        Arc::new(NullJournal),
        Vec::new(),
        Vec::new(),
    );
    (a, b, snoop)
}

/// Every ack-bearing frame the snooped receiver sent, in order.
fn recorded_ack_frames(snoop: &SnoopTransport) -> Vec<Frame> {
    snoop
        .sent
        .lock()
        .unwrap()
        .iter()
        .map(|d| from_bytes::<Frame>(d).expect("receiver sends well-formed frames"))
        .filter(|f| matches!(f, Frame::Ack { .. } | Frame::AckBatch { .. }))
        .collect()
}

/// Sends one reliable message that fragments exactly `frags` times and
/// waits until the receiver has delivered and acknowledged it.
fn deliver_one(a: &ReliableChannel, b: &ReliableChannel, frags: usize) {
    let max_fragment = a.transport().max_datagram() - smc_transport::FRAME_HEADER_LEN;
    let len = max_fragment * (frags - 1) + 1;
    let receipt = a.send_with_receipt(b.local_id(), vec![0x5A; len]).unwrap();
    let got = collect_reliable(b, 1);
    assert_eq!(got[0].len(), len);
    receipt.wait(TICK).unwrap();
}

#[test]
fn zero_acks_send_no_frames() {
    // Unreliable traffic is delivered without any reliability state, so
    // the receiver's ack path runs dry: not even an empty batch goes out.
    let (a, b, snoop) = snooped_pair();
    a.send_unreliable(b.local_id(), b"beacon").unwrap();
    match b.recv(Some(TICK)).unwrap() {
        Incoming::Unreliable { payload, .. } => assert_eq!(payload, b"beacon"),
        other => panic!("expected unreliable delivery, got {other:?}"),
    }
    assert!(
        recorded_ack_frames(&snoop).is_empty(),
        "no acknowledgements for unreliable traffic"
    );
}

#[test]
fn one_ack_stays_a_plain_ack_frame() {
    let (a, b, snoop) = snooped_pair();
    deliver_one(&a, &b, 1);
    let frames = recorded_ack_frames(&snoop);
    assert_eq!(frames.len(), 1, "one fragment, one frame: {frames:?}");
    assert!(
        matches!(
            frames[0],
            Frame::Ack {
                seq: 1,
                frag_index: 0,
                ..
            }
        ),
        "a single ack never pays the batch header: {frames:?}"
    );
}

#[test]
fn chunk_size_acks_fill_exactly_one_batch() {
    let (a, b, snoop) = snooped_pair();
    deliver_one(&a, &b, ACK_CHUNK);
    let frames = recorded_ack_frames(&snoop);
    assert_eq!(frames.len(), 1, "chunk-size acks fit one frame: {frames:?}");
    let Frame::AckBatch { ref acks, .. } = frames[0] else {
        panic!("coalesced run travels as a batch: {frames:?}");
    };
    let expected: Vec<(u64, u16)> = (0..ACK_CHUNK as u16).map(|i| (1, i)).collect();
    assert_eq!(acks, &expected, "every fragment acked, in order");
}

#[test]
fn chunk_size_plus_one_acks_split_into_two_batches() {
    let (a, b, snoop) = snooped_pair();
    deliver_one(&a, &b, ACK_CHUNK + 1);
    let frames = recorded_ack_frames(&snoop);
    assert_eq!(
        frames.len(),
        2,
        "one over the cap forces a split: {frames:?}"
    );
    let mut flattened: Vec<(u64, u16)> = Vec::new();
    for (i, frame) in frames.iter().enumerate() {
        let Frame::AckBatch { ref acks, .. } = *frame else {
            panic!("both halves travel as batches: {frames:?}");
        };
        assert!(!acks.is_empty(), "no empty batch is ever sent");
        let expected_len = if i == 0 { ACK_CHUNK } else { 1 };
        assert_eq!(acks.len(), expected_len, "full chunk first, remainder last");
        flattened.extend(acks);
    }
    let expected: Vec<(u64, u16)> = (0..=ACK_CHUNK as u16).map(|i| (1, i)).collect();
    assert_eq!(flattened, expected, "the split loses and reorders nothing");
}

// ---- Wire identity ------------------------------------------------------
//
// The receive/ack path may be rearranged freely as long as the *wire* does
// not notice: the same script must put the same datagrams, in the same
// order, with the same bytes, on the link. The golden transcript is
// regenerated only by a deliberate wire change (docs/PROTOCOL.md explains
// the last one group by group). One line per datagram: sender, then the
// frame in hex with every session epoch zeroed — bytes 1..9 of a reliable
// frame, and the echoed epoch of the acknowledgement an ack-bearing data
// frame (tag 0xD2) carries at bytes 21..29 — because epochs are drawn
// from a process-wide counter.

const WIRE_GOLDEN: &str = include_str!("golden/wire_script.txt");

/// Moves everything `snoop` sent since the last call onto `transcript`.
fn transcribe(who: char, snoop: &SnoopTransport, transcript: &mut Vec<String>) {
    for mut datagram in snoop.sent.lock().unwrap().drain(..) {
        datagram[1..9].fill(0);
        if datagram[0] == 0xD2 {
            datagram[21..29].fill(0);
        }
        let hex: String = datagram.iter().map(|b| format!("{b:02x}")).collect();
        transcript.push(format!("{who} {hex}"));
    }
}

#[test]
fn scripted_exchange_is_byte_identical_on_the_wire() {
    use smc_types::ManualClock;

    // Step-driven channels on a virtual-time ideal link: one thread, so
    // only the endpoint being driven sends, and transcribing after every
    // action yields the total order of the conversation.
    let clock = Arc::new(ManualClock::new());
    let net = SimNetwork::with_clock(LinkConfig::ideal(), 7, clock.clone());
    let snoop = || {
        Arc::new(SnoopTransport {
            inner: net.endpoint(),
            sent: Mutex::new(Vec::new()),
        })
    };
    let (ta, tb) = (snoop(), snoop());
    // A acknowledges fragments as it accepts them; B is journalled, so it
    // acknowledges whole messages on delivery. Both hold what they owe for
    // the next data frame to the peer, or for their next step.
    let a = ReliableChannel::with_clock(
        Arc::clone(&ta) as Arc<dyn Transport>,
        ReliableConfig::default(),
        clock.clone(),
    );
    let b = ReliableChannel::with_clock_journaled(
        Arc::clone(&tb) as Arc<dyn Transport>,
        ReliableConfig::default(),
        clock.clone(),
        Arc::new(NullJournal),
        Vec::new(),
        Vec::new(),
    );
    let mut wire = Vec::new();
    let mut receipts = Vec::new();
    type End<'a> = (char, &'a SnoopTransport, &'a ReliableChannel);
    let (end_a, end_b): (End, End) = (('A', &ta, &a), ('B', &tb, &b));
    // What the sender just put on the wire, then the receiver's turn
    // (acks held since its last turn out, data in), then the sender's
    // (acks in, window moves).
    let settle = |wire: &mut Vec<String>, sender: End, receiver: End| {
        transcribe(sender.0, sender.1, wire);
        receiver.2.step();
        transcribe(receiver.0, receiver.1, wire);
        sender.2.step();
        transcribe(sender.0, sender.1, wire);
    };

    let max_fragment = SNOOP_MAX_DATAGRAM - smc_transport::FRAME_HEADER_LEN;
    let four_fragments: Vec<u8> = (0..max_fragment * 3 + 1).map(|i| i as u8).collect();
    let burst = || [vec![0x33; 5], vec![0x44; max_fragment + 5], Vec::new()];

    // One fragment, four fragments and a burst of three, in both directions.
    for (from, to) in [(end_a, end_b), (end_b, end_a)] {
        let peer = to.2.local_id();
        receipts.push(from.2.send_with_receipt(peer, vec![0x11; 10]).unwrap());
        settle(&mut wire, from, to);
        receipts.push(
            from.2
                .send_with_receipt(peer, four_fragments.clone())
                .unwrap(),
        );
        settle(&mut wire, from, to);
        receipts.extend(burst().map(|p| from.2.send_with_receipt(peer, p).unwrap()));
        settle(&mut wire, from, to);
    }

    // A quiet turn each: what A still holds for B's burst leaves as one
    // `AckBatch` (it would otherwise ride on — and be lost with — the
    // message the partition below swallows).
    settle(&mut wire, end_b, end_a);

    // A journalled drain: the first of three messages is lost, the other
    // two wait (unacknowledged) in B's reorder buffer, and the
    // retransmission round releases all three at once, then re-acks at
    // once the two duplicates it had already buffered. The three
    // deliveries' own acks are held, and leave as one `AckBatch` on B's
    // next turn.
    net.set_partitioned(a.local_id(), b.local_id(), true);
    receipts.push(
        a.send_with_receipt(b.local_id(), b"lost-first".to_vec())
            .unwrap(),
    );
    net.set_partitioned(a.local_id(), b.local_id(), false);
    receipts.push(
        a.send_with_receipt(b.local_id(), b"second".to_vec())
            .unwrap(),
    );
    receipts.push(
        a.send_with_receipt(b.local_id(), b"third".to_vec())
            .unwrap(),
    );
    settle(&mut wire, end_a, end_b);
    clock.advance_millis(100);
    a.step();
    settle(&mut wire, end_a, end_b);
    settle(&mut wire, end_a, end_b);

    for receipt in receipts {
        assert!(matches!(receipt.poll(), Some(Ok(()))), "every send acked");
    }
    let delivered = |ch: &ReliableChannel| -> Vec<Vec<u8>> {
        std::iter::from_fn(|| ch.try_recv())
            .map(|m| m.payload().to_vec())
            .collect()
    };
    let mut expected = vec![vec![0x11; 10], four_fragments.clone()];
    expected.extend(burst());
    assert_eq!(delivered(&a), expected);
    expected.extend([&b"lost-first"[..], b"second", b"third"].map(<[u8]>::to_vec));
    assert_eq!(delivered(&b), expected);
    assert_eq!(b.stats().msgs_delivered, 8);
    assert_eq!((a.stats().retransmits, b.stats().retransmits), (3, 0));
    assert_eq!(b.stats().duplicates_suppressed, 2);

    let golden: Vec<&str> = WIRE_GOLDEN.lines().collect();
    assert_eq!(wire.len(), golden.len(), "datagram count changed");
    for (i, (got, want)) in wire.iter().zip(&golden).enumerate() {
        assert_eq!(got, want, "datagram {i} differs from the golden capture");
    }
}

/// Records every datagram it is asked to send, at the mem link's MTU, and
/// carries nothing.
#[derive(Debug, Default)]
struct Recorder {
    sent: Mutex<Vec<Vec<u8>>>,
}

impl Transport for Recorder {
    fn local_id(&self) -> ServiceId {
        ServiceId::from_raw(0xA)
    }
    fn send(&self, _to: ServiceId, payload: &[u8]) -> Result<()> {
        self.sent.lock().unwrap().push(payload.to_vec());
        Ok(())
    }
    fn broadcast(&self, _payload: &[u8]) -> Result<()> {
        Ok(())
    }
    fn recv(&self, _timeout: Option<Duration>) -> Result<Datagram> {
        Err(smc_types::Error::Timeout)
    }
    fn max_datagram(&self) -> usize {
        1400
    }
    fn close(&self) {}
}

/// An event packet a channel holds as the event — its body under a tag —
/// goes out as exactly the datagrams its encoded bytes would: each
/// fragment framed from the view is the fragment of `to_bytes(&packet)`
/// framed by `put_data_frame`.
#[test]
fn an_event_packet_is_framed_as_its_bytes_would_be() {
    use smc_transport::frame::{fragment_range, put_data_frame};
    use smc_types::codec::{to_bytes, BytesMut};
    use smc_types::{Event, ManualClock, Packet};

    let recorder = Arc::new(Recorder::default());
    let channel = ReliableChannel::with_clock(
        Arc::clone(&recorder) as Arc<dyn Transport>,
        ReliableConfig::default(),
        Arc::new(ManualClock::new()),
    );
    let event = Event::builder("smc.sensor.ecg")
        .attr("lead", 2i64)
        .attr("patient", "p-17")
        .publisher(ServiceId::from_raw(0x77))
        .seq(9)
        .timestamp_micros(123_456)
        .payload((0..4096u32).map(|i| (i * 7) as u8).collect::<Vec<u8>>())
        .build();
    let trace = TraceId::for_event(event.publisher(), event.seq());
    let packets = [
        Packet::Publish {
            event: event.clone(),
            trace,
            ack: false,
        },
        Packet::publish_acked(event.clone()),
        Packet::Deliver { event, trace },
    ];
    let peer = ServiceId::from_raw(0xBEEF);
    let max_fragment = 1400 - smc_transport::FRAME_HEADER_LEN;
    for (k, packet) in packets.into_iter().enumerate() {
        let bytes = to_bytes(&packet);
        channel.send(peer, packet.into_shared()).unwrap();
        let sent = std::mem::take(&mut *recorder.sent.lock().unwrap());
        let frag_count = bytes.len().div_ceil(max_fragment);
        assert!(frag_count >= 3, "a 4 KB event spans several fragments");
        assert_eq!(sent.len(), frag_count);
        let epoch = u64::from_le_bytes(sent[0][1..9].try_into().unwrap());
        for (i, datagram) in sent.iter().enumerate() {
            let mut expected = BytesMut::new();
            let fragment = fragment_range(bytes.len(), max_fragment, i as u16);
            put_data_frame(
                &mut expected,
                None,
                epoch,
                k as u64 + 1,
                i as u16,
                frag_count as u16,
                &bytes[fragment],
            );
            assert_eq!(datagram, &expected[..], "packet {k}, fragment {i}");
        }
    }
}
