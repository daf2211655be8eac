//! Property-based tests for the transport layer's codecs and invariants.

use proptest::prelude::*;
use smc_transport::frame::{decode_datagram, ACK_ENTRY_LEN};
use smc_transport::{fragment, CumulativeAck, Frame, FRAME_HEADER_LEN};
use smc_types::codec::{from_bytes, to_bytes, to_shared};
use smc_types::CodecError;

/// Any well-formed frame, every tag and both data layouts.
fn any_frame() -> impl Strategy<Value = Frame> {
    let payload = || proptest::collection::vec(any::<u8>(), 0..512);
    let ack = proptest::option::of(
        (any::<u64>(), any::<u64>()).prop_map(|(epoch, up_to)| CumulativeAck { epoch, up_to }),
    );
    prop_oneof![
        (
            any::<u64>(),
            any::<u64>(),
            0u16..64,
            0u16..64,
            ack,
            payload()
        )
            .prop_map(
                |(epoch, seq, frag_index, extra, ack, payload)| Frame::Data {
                    epoch,
                    seq,
                    frag_index,
                    frag_count: frag_index + extra + 1,
                    ack,
                    payload,
                }
            ),
        (any::<u64>(), any::<u64>(), any::<u16>()).prop_map(|(epoch, seq, frag_index)| {
            Frame::Ack {
                epoch,
                seq,
                frag_index,
            }
        }),
        (
            any::<u64>(),
            proptest::collection::vec((any::<u64>(), any::<u16>()), 0..64)
        )
            .prop_map(|(epoch, acks)| Frame::AckBatch { epoch, acks }),
        payload().prop_map(|payload| Frame::Unreliable { payload }),
    ]
}

/// The frame a channel finds in a received datagram
/// ([`decode_datagram`]), its payload or a batch's entries read from the
/// bytes left beside it.
fn from_datagram(datagram: &[u8]) -> Result<Frame, CodecError> {
    let (mut frame, bytes) = decode_datagram(datagram)?;
    match &mut frame {
        Frame::Data { payload, .. } | Frame::Unreliable { payload } => *payload = bytes.to_vec(),
        Frame::AckBatch { acks, .. } => {
            *acks = bytes
                .chunks_exact(ACK_ENTRY_LEN)
                .map(|entry| {
                    let (seq, frag_index) = entry.split_at(8);
                    (
                        u64::from_le_bytes(seq.try_into().unwrap()),
                        u16::from_le_bytes(frag_index.try_into().unwrap()),
                    )
                })
                .collect();
        }
        Frame::Ack { .. } => {}
    }
    Ok(frame)
}

/// Decodes hostile bytes: whatever comes back, nothing it holds may have
/// reserved more than the datagram itself could fill — and decoding the
/// datagram as the channel does, owned, comes back with the same frame or
/// the same error.
fn decode_within_budget(bytes: &[u8]) {
    let decoded = from_bytes::<Frame>(bytes);
    assert_eq!(from_datagram(bytes), decoded);
    match decoded {
        Ok(Frame::Data { payload, .. } | Frame::Unreliable { payload }) => {
            assert!(payload.capacity() <= bytes.len());
        }
        Ok(Frame::AckBatch { acks, .. }) => {
            assert!(acks.capacity() * ACK_ENTRY_LEN <= bytes.len());
        }
        Ok(Frame::Ack { .. }) | Err(_) => {}
    }
}

proptest! {
    /// Frame encode/decode is the identity — into an owned or a shared
    /// buffer, out of a borrowed or an owned one.
    #[test]
    fn frame_round_trip(frame in any_frame()) {
        let bytes = to_bytes(&frame);
        prop_assert_eq!(to_shared(&frame).to_vec(), bytes.clone());
        prop_assert_eq!(from_bytes::<Frame>(&bytes).unwrap(), frame.clone());
        prop_assert_eq!(from_datagram(&bytes).unwrap(), frame);
    }

    /// Raw noise behind every frame tag (and behind no tag at all): an
    /// error or a frame, never a panic, never an outsized reservation.
    #[test]
    fn frame_decode_never_panics(
        tag in prop_oneof![
            Just(None),
            Just(Some(0xD1u8)),
            Just(Some(0xD2u8)),
            Just(Some(0xA1u8)),
            Just(Some(0xA2u8)),
            Just(Some(0x01u8)),
        ],
        mut bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        if let (Some(tag), Some(first)) = (tag, bytes.first_mut()) {
            *first = tag;
        }
        decode_within_budget(&bytes);
    }

    /// A valid frame of any tag, damaged the ways a link or an attacker
    /// damages one: bytes overwritten (length and count fields included),
    /// the tail cut off, junk appended.
    #[test]
    fn mutated_valid_frames_decode_or_fail_cleanly(
        frame in any_frame(),
        overwrites in proptest::collection::vec((any::<proptest::sample::Index>(), any::<u8>()), 0..6),
        keep in any::<proptest::sample::Index>(),
        truncate in any::<bool>(),
        junk in proptest::collection::vec(any::<u8>(), 0..16),
    ) {
        let mut bytes = to_bytes(&frame);
        for (at, value) in overwrites {
            let at = at.index(bytes.len());
            bytes[at] = value;
        }
        if truncate {
            bytes.truncate(keep.index(bytes.len() + 1));
        }
        bytes.extend(junk);
        decode_within_budget(&bytes);
    }

    /// The count field of an `AckBatch` is a claim, not a fact: any count
    /// the bytes behind it cannot back is an error.
    #[test]
    fn ack_batch_count_must_be_backed_by_bytes(
        epoch in any::<u64>(),
        entries in proptest::collection::vec((any::<u64>(), any::<u16>()), 0..8),
        claimed in any::<u16>(),
    ) {
        let mut bytes = to_bytes(&Frame::AckBatch { epoch, acks: entries.clone() });
        bytes[9..11].copy_from_slice(&claimed.to_le_bytes());
        let decoded = from_bytes::<Frame>(&bytes);
        if claimed as usize == entries.len() {
            prop_assert_eq!(decoded.unwrap(), Frame::AckBatch { epoch, acks: entries });
        } else {
            prop_assert!(decoded.is_err());
        }
    }

    /// The frame header budget is honest: an encoded empty-payload data
    /// frame never exceeds it.
    #[test]
    fn header_budget(epoch in any::<u64>(), seq in any::<u64>()) {
        for ack in [None, Some(CumulativeAck { epoch: seq, up_to: epoch })] {
            let f = Frame::Data { epoch, seq, frag_index: 0, frag_count: 1, ack, payload: vec![] };
            prop_assert!(to_bytes(&f).len() <= FRAME_HEADER_LEN);
        }
    }

    /// Fragmentation partitions the payload exactly: concatenation
    /// restores it, every fragment respects the bound, and only the last
    /// may be short.
    #[test]
    fn fragmentation_partitions(
        payload in proptest::collection::vec(any::<u8>(), 0..4096),
        max_fragment in 1usize..512,
    ) {
        let frags = fragment(&payload, max_fragment);
        prop_assert!(!frags.is_empty());
        let rejoined: Vec<u8> = frags.concat();
        prop_assert_eq!(&rejoined, &payload);
        for (i, f) in frags.iter().enumerate() {
            prop_assert!(f.len() <= max_fragment);
            if i + 1 < frags.len() {
                prop_assert_eq!(f.len(), max_fragment, "only the last fragment may be short");
            }
        }
        if payload.is_empty() {
            prop_assert_eq!(frags.len(), 1);
            prop_assert!(frags[0].is_empty());
        } else {
            prop_assert_eq!(frags.len(), payload.len().div_ceil(max_fragment));
        }
    }

    /// Reliable delivery is exactly-once and FIFO for any payload set and
    /// loss seed (bounded sizes keep the test quick).
    #[test]
    fn reliable_exactly_once_fifo(
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..200), 1..12),
        seed in any::<u64>(),
        loss in 0.0f64..0.3,
    ) {
        use smc_transport::{Incoming, LinkConfig, ReliableChannel, ReliableConfig, SimNetwork};
        use std::sync::Arc;
        use std::time::Duration;

        let net = SimNetwork::with_seed(LinkConfig::ideal().with_loss(loss), seed);
        let config = ReliableConfig {
            initial_rto: Duration::from_millis(20),
            poll_interval: Duration::from_millis(5),
            ..ReliableConfig::default()
        };
        let a = ReliableChannel::new(Arc::new(net.endpoint()), config.clone());
        let b = ReliableChannel::new(Arc::new(net.endpoint()), config);
        for p in &payloads {
            a.send(b.local_id(), p.clone()).unwrap();
        }
        for expected in &payloads {
            match b.recv(Some(Duration::from_secs(10))).unwrap() {
                Incoming::Reliable { payload, .. } => prop_assert_eq!(&payload, expected),
                other => prop_assert!(false, "unexpected {:?}", other),
            }
        }
        prop_assert!(b.try_recv().is_none(), "duplicate deliveries");
        a.close();
        b.close();
        net.shutdown();
    }
}

proptest! {
    /// The mem link copies each datagram into a buffer its receiver gave
    /// back whenever one has room: over a lossy, duplicating, jittered
    /// link, with datagrams of any size up to the MTU, every one received
    /// is byte for byte one that was sent — no tail of what a reused
    /// buffer held before survives — and a receiver that never sends
    /// holds at most the bound of spares.
    #[test]
    fn reused_link_buffers_carry_exactly_what_was_sent(
        sizes in proptest::collection::vec(0usize..=1400, 1..200),
        seed in any::<u64>(),
        loss in 0.0f64..0.3,
        duplicate in 0.0f64..0.3,
        jitter_micros in 0u64..5_000,
    ) {
        use smc_transport::{LinkConfig, SimNetwork, Transport, SPARE_BUFFERS};
        use smc_types::ManualClock;
        use std::collections::HashSet;
        use std::sync::Arc;
        use std::time::Duration;

        let clock = Arc::new(ManualClock::new());
        let link = LinkConfig {
            jitter: Duration::from_micros(jitter_micros),
            ..LinkConfig::ideal()
                .with_loss(loss)
                .with_duplicates(duplicate)
                .with_latency(Duration::from_millis(1))
        };
        let net = SimNetwork::with_clock(link, seed, clock.clone());
        let (a, b) = (net.endpoint(), net.endpoint());
        let mut sent = HashSet::new();
        let mut received = 0;
        for (k, &size) in sizes.iter().enumerate() {
            let payload: Vec<u8> = (0..size).map(|i| (k * 31 + i) as u8).collect();
            a.send(b.local_id(), &payload).unwrap();
            sent.insert(payload);
            // Every few sends, let the link catch up and drain the receiver.
            if k % 3 == 2 || k + 1 == sizes.len() {
                clock.advance_millis(7);
                net.pump_due();
                while let Ok(datagram) = b.recv(Some(Duration::ZERO)) {
                    prop_assert!(
                        sent.contains(&datagram.payload[..]),
                        "received {} bytes that were never sent",
                        datagram.payload.len()
                    );
                    received += 1;
                    drop(datagram);
                }
                prop_assert!(b.spare_buffers() <= SPARE_BUFFERS);
            }
        }
        prop_assert_eq!(received, net.stats().delivered);
        prop_assert_eq!(a.spare_buffers(), 0, "the sender received nothing");
    }
}

/// Message `k` of the reuse property: its size drawn from `sizes`, its
/// bytes from `k` — so that no two messages read alike.
fn reuse_message(k: u64, size: usize) -> Vec<u8> {
    let mut bytes: Vec<u8> = (0..size).map(|i| (k as usize * 31 + i * 7) as u8).collect();
    let tag = k.to_le_bytes();
    let n = tag.len().min(size);
    bytes[..n].copy_from_slice(&tag[..n]);
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A received buffer goes back to its link only once nobody reads it:
    /// over a lossy, duplicating, jittered link, with messages of one to
    /// three fragments and now and then one over the spare-list cap, the
    /// receiver keeps a random subset of messages while 2 000 more
    /// arrive and drops the rest at once — some on a second thread — and
    /// every message it kept still reads, byte for byte, as it was sent.
    /// The receiving endpoint's spare list never holds more than
    /// `SPARE_BUFFERS` buffers or `SPARE_BYTES` bytes, nor any buffer
    /// over `MAX_SPARE_LEN` bytes.
    #[test]
    fn a_reused_buffer_never_touches_a_live_one(
        seed in any::<u64>(),
        loss in 0.0f64..0.2,
        duplicate in 0.0f64..0.2,
        jitter_micros in 0u64..3_000,
        keep in 0.05f64..0.5,
        elsewhere in 0.0f64..1.0,
    ) {
        use rand::{Rng, SeedableRng};
        use smc_transport::{Incoming, LinkConfig, ReliableChannel, ReliableConfig, SimNetwork, SPARE_BUFFERS};
        use smc_types::{ManualClock, MessageBuf, MAX_SPARE_LEN, SPARE_BYTES};
        use std::sync::Arc;
        use std::time::Duration;

        const MESSAGES: u64 = 2_100;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let sizes: Vec<usize> = (0..MESSAGES)
            .map(|_| if rng.gen_bool(0.005) { rng.gen_range(MAX_SPARE_LEN..MAX_SPARE_LEN + 2_000) } else { rng.gen_range(0..=3_500) })
            .collect();
        let clock = Arc::new(ManualClock::new());
        let link = LinkConfig {
            jitter: Duration::from_micros(jitter_micros),
            ..LinkConfig::ideal()
                .with_loss(loss)
                .with_duplicates(duplicate)
                .with_latency(Duration::from_millis(1))
        };
        let net = SimNetwork::with_clock(link, seed, clock.clone());
        let config = ReliableConfig {
            initial_rto: Duration::from_millis(20),
            max_rto: Duration::from_millis(40),
            poll_interval: Duration::from_millis(5),
            ..ReliableConfig::default()
        };
        let receiver = Arc::new(net.endpoint());
        let a = ReliableChannel::with_clock(Arc::new(net.endpoint()), config.clone(), clock.clone());
        let b = ReliableChannel::with_clock(receiver.clone(), config, clock.clone());
        let (to_dropper, dropped) = std::sync::mpsc::channel::<MessageBuf>();
        let dropper = std::thread::spawn(move || dropped.into_iter().for_each(drop));

        let mut kept: Vec<(u64, MessageBuf)> = Vec::new();
        let (mut sent, mut received) = (0u64, 0u64);
        for _round in 0..20_000 {
            if received == MESSAGES {
                break;
            }
            while sent < MESSAGES && sent < received + 32 {
                a.send(b.local_id(), reuse_message(sent, sizes[sent as usize])).unwrap();
                sent += 1;
            }
            clock.advance_millis(1);
            net.pump_due();
            b.step();
            net.pump_due();
            a.step();
            while let Some(incoming) = b.try_recv() {
                let Incoming::Reliable { seq, payload, .. } = incoming else {
                    continue;
                };
                let k = seq - 1;
                prop_assert_eq!(k, received, "in order, exactly once");
                received += 1;
                if rng.gen_bool(keep) {
                    kept.push((k, payload));
                } else if rng.gen_bool(elsewhere) {
                    to_dropper.send(payload).unwrap();
                } else {
                    drop(payload);
                }
            }
            let rooms = receiver.spare_rooms();
            prop_assert!(rooms.len() <= SPARE_BUFFERS, "{} spares", rooms.len());
            prop_assert!(rooms.iter().all(|&room| room <= MAX_SPARE_LEN), "a spare of {:?}", rooms.iter().max());
            prop_assert!(rooms.iter().sum::<usize>() <= SPARE_BYTES, "{} B of spares", rooms.iter().sum::<usize>());
        }
        prop_assert_eq!(received, MESSAGES, "every message arrived");
        drop(to_dropper);
        dropper.join().unwrap();
        for (k, payload) in &kept {
            prop_assert!(*payload == reuse_message(*k, sizes[*k as usize]), "kept message {} changed", k);
        }
        a.close();
        b.close();
        net.shutdown();
    }
}
