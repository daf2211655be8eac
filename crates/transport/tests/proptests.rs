//! Property-based tests for the transport layer's codecs and invariants.

use proptest::prelude::*;
use smc_transport::frame::ACK_ENTRY_LEN;
use smc_transport::{fragment, CumulativeAck, Frame, FRAME_HEADER_LEN};
use smc_types::codec::{from_bytes, to_bytes, to_shared};

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

/// Decodes hostile bytes: whatever comes back, nothing it holds may have
/// reserved more than the datagram itself could fill — and decoding the
/// datagram as the channel does, owned, comes back with the same frame or
/// the same error.
fn decode_within_budget(bytes: &[u8]) {
    let decoded = from_bytes::<Frame>(bytes);
    assert_eq!(Frame::from_datagram(bytes.to_vec()), decoded);
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
        prop_assert_eq!(Frame::from_datagram(bytes).unwrap(), frame);
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
