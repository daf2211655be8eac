//! Wire frames used by the reliability layer.
//!
//! A [`Frame`] is what actually crosses a [`crate::Transport`]: a `Data`
//! fragment (which may carry a cumulative acknowledgement for the reverse
//! direction), a standalone `Ack` / `AckBatch`, or an `Unreliable`
//! passthrough (used for discovery beacons and other traffic that neither
//! needs nor wants retransmission).

use bytes::{BufMut, BytesMut};

use smc_types::codec::{Decode, Encode, Reader, WriteExt};
use smc_types::error::CodecError;

/// Fixed per-fragment header budget: tag + epoch + seq + 2×u16 + u32 len,
/// plus the [`CumulativeAck`] a fragment may carry. Fragments are cut to
/// fit with the ack present, so any (re)transmission can take one.
pub const FRAME_HEADER_LEN: usize = 1 + 8 + 8 + 2 + 2 + 4 + CUMULATIVE_ACK_LEN;

/// Encoded length of a [`CumulativeAck`]: epoch + sequence number.
const CUMULATIVE_ACK_LEN: usize = 8 + 8;

/// The acknowledgement a [`Frame::Data`] carries for the reverse
/// direction: every message of the receiving endpoint's session `epoch`
/// numbered `up_to` or below arrived whole and was delivered in order —
/// all of their fragments are acknowledged at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CumulativeAck {
    /// Echo of the acknowledged sender's epoch.
    pub epoch: u64,
    /// Highest in-order delivered sequence number.
    pub up_to: u64,
}

/// A reliability-layer frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// One fragment of a reliable message.
    Data {
        /// Sender session epoch (strictly increasing across restarts).
        epoch: u64,
        /// Message sequence number within the epoch, starting at 1.
        seq: u64,
        /// Fragment index within the message, `0..frag_count`.
        frag_index: u16,
        /// Total fragments in the message (≥ 1).
        frag_count: u16,
        /// Piggy-backed acknowledgement of the receiver's own traffic.
        ack: Option<CumulativeAck>,
        /// The fragment bytes.
        payload: Vec<u8>,
    },
    /// Acknowledges one fragment of a reliable message.
    Ack {
        /// Echo of the sender's epoch.
        epoch: u64,
        /// Echo of the message sequence.
        seq: u64,
        /// Echo of the fragment index.
        frag_index: u16,
    },
    /// Acknowledges several fragments in one frame — the coalesced form
    /// a receiver emits when it flushes two or more held
    /// acknowledgements that found no data frame to ride on.
    /// Semantically identical to the same sequence of [`Frame::Ack`]s.
    AckBatch {
        /// Echo of the sender's epoch (one batch never mixes epochs).
        epoch: u64,
        /// `(seq, frag_index)` pairs being acknowledged.
        acks: Vec<(u64, u16)>,
    },
    /// Fire-and-forget payload with no reliability state.
    Unreliable {
        /// The raw bytes.
        payload: Vec<u8>,
    },
}

const F_DATA: u8 = 0xD1;
/// A data fragment with a [`CumulativeAck`] between `frag_count` and the
/// payload; otherwise laid out as [`F_DATA`].
const F_DATA_ACK: u8 = 0xD2;
const F_ACK: u8 = 0xA1;
const F_ACK_BATCH: u8 = 0xA2;
const F_UNRELIABLE: u8 = 0x01;

impl Encode for Frame {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            Frame::Data {
                epoch,
                seq,
                frag_index,
                frag_count,
                ack,
                payload,
            } => put_data_frame(buf, *ack, *epoch, *seq, *frag_index, *frag_count, payload),
            Frame::Ack {
                epoch,
                seq,
                frag_index,
            } => buf.put_slice(&encode_ack_frame(*epoch, *seq, *frag_index)),
            Frame::AckBatch { epoch, acks } => put_ack_batch_frame(buf, *epoch, acks),
            Frame::Unreliable { payload } => put_unreliable_frame(buf, payload),
        }
    }
}

/// Writes a [`Frame::Unreliable`] around a borrowed payload.
pub fn put_unreliable_frame(buf: &mut BytesMut, payload: &[u8]) {
    buf.put_u8(F_UNRELIABLE);
    buf.put_bytes_field(payload);
}

/// Parses one frame, leaving a payload-bearing frame's `payload` and an
/// [`Frame::AckBatch`]'s `acks` empty and returning the payload's or the
/// entries' bytes, still in the input, beside it (see [`ack_entries`]).
fn decode_borrowed<'a>(r: &mut Reader<'a>) -> Result<(Frame, &'a [u8]), CodecError> {
    match r.u8()? {
        tag @ (F_DATA | F_DATA_ACK) => {
            let epoch = r.u64()?;
            let seq = r.u64()?;
            let frag_index = r.u16()?;
            let frag_count = r.u16()?;
            let ack = if tag == F_DATA_ACK {
                Some(CumulativeAck {
                    epoch: r.u64()?,
                    up_to: r.u64()?,
                })
            } else {
                None
            };
            let payload = r.bytes_ref()?;
            if frag_count == 0 || frag_index >= frag_count {
                return Err(CodecError::BadTag {
                    what: "fragment index",
                    tag: 0,
                });
            }
            let frame = Frame::Data {
                epoch,
                seq,
                frag_index,
                frag_count,
                ack,
                payload: Vec::new(),
            };
            Ok((frame, payload))
        }
        F_ACK => Ok((
            Frame::Ack {
                epoch: r.u64()?,
                seq: r.u64()?,
                frag_index: r.u16()?,
            },
            &[],
        )),
        F_ACK_BATCH => {
            let epoch = r.u64()?;
            let count = r.collection_len()?;
            // The count is the sender's claim; reserve only what the
            // datagram can actually hold.
            let entries = r.take(count * ACK_ENTRY_LEN)?;
            let frame = Frame::AckBatch {
                epoch,
                acks: Vec::new(),
            };
            Ok((frame, entries))
        }
        F_UNRELIABLE => Ok((
            Frame::Unreliable {
                payload: Vec::new(),
            },
            r.bytes_ref()?,
        )),
        t => Err(CodecError::BadTag {
            what: "frame",
            tag: t,
        }),
    }
}

/// The `(seq, frag_index)` entries of an [`Frame::AckBatch`], read where
/// they lie: the bytes [`decode_datagram`] returns beside the batch.
pub(crate) fn ack_entries(entries: &[u8]) -> impl Iterator<Item = (u64, u16)> + '_ {
    entries.chunks_exact(ACK_ENTRY_LEN).map(|entry| {
        let (seq, frag_index) = entry.split_at(8);
        (
            u64::from_le_bytes(seq.try_into().expect("eight bytes")),
            u16::from_le_bytes(frag_index.try_into().expect("two bytes")),
        )
    })
}

/// Parses the one frame `datagram` holds, exactly as `from_bytes::<Frame>`
/// would — the same error for the same bytes — but borrowing: a
/// payload-bearing frame's payload and a batch's entries come back as
/// bytes of `datagram` beside a frame that holds neither, so decoding
/// asks nothing of the heap. What a channel reads a received datagram
/// with.
///
/// # Errors
///
/// Returns a [`CodecError`] if the datagram is truncated, malformed, or
/// has trailing bytes.
pub fn decode_datagram(datagram: &[u8]) -> Result<(Frame, &[u8]), CodecError> {
    let mut r = Reader::new(datagram);
    let decoded = decode_borrowed(&mut r)?;
    if !r.is_empty() {
        return Err(CodecError::TrailingBytes(r.remaining()));
    }
    Ok(decoded)
}

impl Frame {
    fn payload_mut(&mut self) -> Option<&mut Vec<u8>> {
        match self {
            Frame::Data { payload, .. } | Frame::Unreliable { payload } => Some(payload),
            Frame::Ack { .. } | Frame::AckBatch { .. } => None,
        }
    }

    /// Reads a batch's `entries`, which [`decode_borrowed`] left beside
    /// it, into its list — of exactly their number.
    fn read_entries(&mut self, entries: &[u8]) {
        if let Frame::AckBatch { acks, .. } = self {
            *acks = ack_entries(entries).collect();
        }
    }
}

impl Decode for Frame {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let (mut frame, bytes) = decode_borrowed(r)?;
        match frame.payload_mut() {
            Some(slot) => *slot = bytes.to_vec(),
            None => frame.read_entries(bytes),
        }
        Ok(frame)
    }
}

/// Splits `payload` into fragments of at most `max_fragment` bytes.
///
/// Always yields at least one fragment (an empty payload travels as one
/// empty fragment).
///
/// # Panics
///
/// Panics if `max_fragment` is zero or the payload needs more than
/// `u16::MAX` fragments.
pub fn fragment(payload: &[u8], max_fragment: usize) -> Vec<Vec<u8>> {
    assert!(max_fragment > 0, "max_fragment must be positive");
    if payload.is_empty() {
        return vec![Vec::new()];
    }
    let count = payload.len().div_ceil(max_fragment);
    assert!(
        count <= u16::MAX as usize,
        "payload needs too many fragments"
    );
    payload.chunks(max_fragment).map(<[u8]>::to_vec).collect()
}

/// How many fragments [`fragment`] cuts a payload of `len` bytes into.
///
/// # Panics
///
/// Same contract as [`fragment`].
pub fn fragment_count(len: usize, max_fragment: usize) -> u16 {
    assert!(max_fragment > 0, "max_fragment must be positive");
    u16::try_from(len.div_ceil(max_fragment).max(1)).expect("payload needs too many fragments")
}

/// The `start..end` bytes of the payload that fragment `index` of
/// [`fragment`]'s cut holds, without copying anything. The reliability
/// layer keeps one shared payload buffer and slices it per fragment at
/// transmit time.
pub fn fragment_range(len: usize, max_fragment: usize, index: u16) -> std::ops::Range<usize> {
    let start = index as usize * max_fragment;
    start..(start + max_fragment).min(len)
}

/// Writes a [`Frame::Data`] straight from a borrowed fragment slice,
/// without first materialising the fragment as an owned `Vec<u8>`.
pub fn put_data_frame(
    buf: &mut BytesMut,
    ack: Option<CumulativeAck>,
    epoch: u64,
    seq: u64,
    frag_index: u16,
    frag_count: u16,
    payload: &[u8],
) {
    put_data_header(buf, ack, epoch, seq, frag_index, frag_count, payload.len());
    buf.put_slice(payload);
}

/// Writes a [`Frame::Data`] up to its fragment's bytes, which the caller
/// appends next — exactly `payload_len` of them (a channel writes them
/// from the message it holds, `SharedBytes::put_range`). The one place
/// that knows the data-frame layout ([`Frame`]'s `Encode` goes through
/// here).
///
/// # Panics
///
/// Panics if `payload_len` exceeds the byte-field limit
/// ([`MAX_BYTES_LEN`](smc_types::codec::MAX_BYTES_LEN)).
pub fn put_data_header(
    buf: &mut BytesMut,
    ack: Option<CumulativeAck>,
    epoch: u64,
    seq: u64,
    frag_index: u16,
    frag_count: u16,
    payload_len: usize,
) {
    buf.put_u8(if ack.is_some() { F_DATA_ACK } else { F_DATA });
    buf.put_u64_le(epoch);
    buf.put_u64_le(seq);
    buf.put_u16_le(frag_index);
    buf.put_u16_le(frag_count);
    if let Some(ack) = ack {
        buf.put_u64_le(ack.epoch);
        buf.put_u64_le(ack.up_to);
    }
    buf.put_bytes_len(payload_len);
}

/// [`put_data_frame`] for an ack-less fragment, into a buffer of its own
/// of exactly the frame's size.
pub fn encode_data_frame(
    epoch: u64,
    seq: u64,
    frag_index: u16,
    frag_count: u16,
    payload: &[u8],
) -> Vec<u8> {
    let header = FRAME_HEADER_LEN - CUMULATIVE_ACK_LEN;
    let mut buf = BytesMut::with_capacity(header + payload.len());
    put_data_frame(&mut buf, None, epoch, seq, frag_index, frag_count, payload);
    buf.freeze()
}

/// Encoded length of a [`Frame::Ack`]: tag + epoch + seq + fragment index.
pub const ACK_FRAME_LEN: usize = 1 + 8 + 8 + 2;

/// Writes a [`Frame::AckBatch`] straight from a borrowed run of
/// `(seq, frag_index)` pairs — a channel writes it into its thread's
/// encode scratch. The one place that knows the batch layout
/// ([`Frame`]'s `Encode` goes through here).
///
/// # Panics
///
/// Panics if `acks` holds more entries than the `u16` count can say.
pub fn put_ack_batch_frame(buf: &mut BytesMut, epoch: u64, acks: &[(u64, u16)]) {
    buf.put_u8(F_ACK_BATCH);
    buf.put_u64_le(epoch);
    buf.put_u16_le(u16::try_from(acks.len()).expect("ack batch fits a u16 count"));
    for &(seq, frag_index) in acks {
        buf.put_u64_le(seq);
        buf.put_u16_le(frag_index);
    }
}

/// Encoded length of a [`Frame::AckBatch`] before its entries: tag +
/// epoch + count.
pub const ACK_BATCH_HEADER_LEN: usize = 1 + 8 + 2;

/// Encoded length of one [`Frame::AckBatch`] entry: seq + fragment index.
pub const ACK_ENTRY_LEN: usize = 8 + 2;

/// Encodes a [`Frame::Ack`] without touching the heap — the one place
/// that knows its layout ([`Frame`]'s `Encode` goes through here).
pub fn encode_ack_frame(epoch: u64, seq: u64, frag_index: u16) -> [u8; ACK_FRAME_LEN] {
    let mut buf = [0u8; ACK_FRAME_LEN];
    buf[0] = F_ACK;
    buf[1..9].copy_from_slice(&epoch.to_le_bytes());
    buf[9..17].copy_from_slice(&seq.to_le_bytes());
    buf[17..].copy_from_slice(&frag_index.to_le_bytes());
    buf
}

#[cfg(test)]
mod tests {
    use super::*;
    use smc_types::codec::{from_bytes, to_bytes};

    /// A [`Frame::AckBatch`] in a buffer of its own.
    fn encode_ack_batch_frame(epoch: u64, acks: &[(u64, u16)]) -> Vec<u8> {
        let mut buf = BytesMut::new();
        put_ack_batch_frame(&mut buf, epoch, acks);
        buf.freeze()
    }

    #[test]
    fn frames_round_trip() {
        for f in [
            Frame::Data {
                epoch: 1,
                seq: 2,
                frag_index: 0,
                frag_count: 3,
                ack: None,
                payload: vec![9; 10],
            },
            Frame::Data {
                epoch: 1,
                seq: 2,
                frag_index: 2,
                frag_count: 3,
                ack: Some(CumulativeAck {
                    epoch: 8,
                    up_to: 41,
                }),
                payload: vec![9; 10],
            },
            Frame::Ack {
                epoch: 1,
                seq: 2,
                frag_index: 1,
            },
            Frame::AckBatch {
                epoch: 7,
                acks: vec![(3, 0), (4, 0), (4, 1)],
            },
            Frame::AckBatch {
                epoch: 7,
                acks: vec![],
            },
            Frame::Unreliable {
                payload: vec![1, 2, 3],
            },
        ] {
            let bytes = to_bytes(&f);
            assert_eq!(from_bytes::<Frame>(&bytes).unwrap(), f);
        }
    }

    /// [`put_data_frame`] into a fresh buffer.
    fn data_frame(
        ack: Option<CumulativeAck>,
        epoch: u64,
        seq: u64,
        frag_index: u16,
        frag_count: u16,
        payload: &[u8],
    ) -> Vec<u8> {
        let mut buf = BytesMut::new();
        put_data_frame(&mut buf, ack, epoch, seq, frag_index, frag_count, payload);
        buf.freeze()
    }

    #[test]
    fn put_data_frame_matches_frame_encoding() {
        let acks = [
            None,
            Some(CumulativeAck {
                epoch: 3,
                up_to: 77,
            }),
        ];
        for (payload, ack) in [vec![], vec![0xAB; 37]].into_iter().zip(acks) {
            let direct = data_frame(ack, 9, 12, 1, 4, &payload);
            let via_frame = to_bytes(&Frame::Data {
                epoch: 9,
                seq: 12,
                frag_index: 1,
                frag_count: 4,
                ack,
                payload: payload.clone(),
            });
            assert_eq!(direct, via_frame);
            if ack.is_none() {
                let owned = encode_data_frame(9, 12, 1, 4, &payload);
                assert_eq!(direct, owned);
                // The exact capacity was reserved.
                assert_eq!(owned.capacity(), owned.len());
            }
        }
    }

    /// The ack-less layout is the one every earlier capture holds, and
    /// the ack rides between `frag_count` and the payload length.
    #[test]
    fn data_frame_layouts_are_pinned() {
        let plain = encode_data_frame(2, 3, 0, 1, b"xy");
        let mut expected = vec![0xD1];
        expected.extend(2u64.to_le_bytes());
        expected.extend(3u64.to_le_bytes());
        expected.extend([0, 0, 1, 0]);
        let header_len = expected.len();
        expected.extend([2, 0, 0, 0, b'x', b'y']);
        assert_eq!(plain, expected);

        let ack = CumulativeAck { epoch: 5, up_to: 6 };
        let acking = data_frame(Some(ack), 2, 3, 0, 1, b"xy");
        assert_eq!(acking[0], 0xD2);
        assert_eq!(acking[1..header_len], plain[1..header_len]);
        let mut field = 5u64.to_le_bytes().to_vec();
        field.extend(6u64.to_le_bytes());
        assert_eq!(
            acking[header_len..header_len + CUMULATIVE_ACK_LEN],
            field[..]
        );
        assert_eq!(
            acking[header_len + CUMULATIVE_ACK_LEN..],
            plain[header_len..]
        );
    }

    #[test]
    fn encode_ack_batch_frame_matches_frame_encoding() {
        for acks in [
            vec![],
            vec![(3, 0)],
            vec![(3, 0), (4, 0), (u64::MAX, u16::MAX)],
        ] {
            let via_frame = to_bytes(&Frame::AckBatch {
                epoch: 7,
                acks: acks.clone(),
            });
            assert_eq!(encode_ack_batch_frame(7, &acks), via_frame);
            assert_eq!(
                via_frame.len(),
                ACK_BATCH_HEADER_LEN + acks.len() * ACK_ENTRY_LEN
            );
        }
    }

    /// An 11-byte datagram may not make the decoder reserve 4 096 entries.
    #[test]
    fn ack_batch_count_beyond_the_datagram_is_rejected() {
        let mut bytes = encode_ack_batch_frame(7, &[(1, 0), (2, 0)]);
        bytes[9..11].copy_from_slice(&4096u16.to_le_bytes());
        assert!(matches!(
            from_bytes::<Frame>(&bytes),
            Err(CodecError::UnexpectedEnd {
                needed: 40_960,
                remaining: 20
            })
        ));
        assert!(from_bytes::<Frame>(&bytes[..ACK_BATCH_HEADER_LEN]).is_err());
    }

    #[test]
    fn encode_ack_frame_matches_frame_encoding() {
        for (epoch, seq, frag_index) in [(0, 0, 0), (9, 12, 3), (u64::MAX, u64::MAX - 1, u16::MAX)]
        {
            let via_frame = to_bytes(&Frame::Ack {
                epoch,
                seq,
                frag_index,
            });
            assert_eq!(encode_ack_frame(epoch, seq, frag_index)[..], via_frame[..]);
        }
    }

    #[test]
    fn fragment_range_mirrors_fragment() {
        for (len, max) in [(0usize, 10usize), (3, 10), (25, 10), (30, 10), (1, 1)] {
            let payload: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let frags = fragment(&payload, max);
            assert_eq!(frags.len(), fragment_count(len, max) as usize);
            for (frag, i) in frags.iter().zip(0..) {
                assert_eq!(&payload[fragment_range(len, max, i)], &frag[..]);
            }
        }
    }

    /// The frame [`decode_datagram`] finds in `datagram`, with the
    /// payload or a batch's entries read from the bytes it returns.
    fn read_out(datagram: &[u8]) -> Result<Frame, CodecError> {
        let (mut frame, bytes) = decode_datagram(datagram)?;
        match frame.payload_mut() {
            Some(slot) => *slot = bytes.to_vec(),
            None => frame.read_entries(bytes),
        }
        Ok(frame)
    }

    /// The channel's decode agrees with the owned one on every frame
    /// kind, on every truncation of each, and on trailing bytes — and a
    /// data payload is the datagram's own tail.
    #[test]
    fn decode_datagram_matches_from_bytes() {
        let frames = [
            data_frame(None, 1, 2, 0, 3, &[9; 10]),
            data_frame(Some(CumulativeAck { epoch: 8, up_to: 4 }), 1, 2, 2, 3, &[]),
            data_frame(None, 1, 2, 5, 3, b"bad index"),
            encode_ack_frame(1, 2, 1).to_vec(),
            encode_ack_batch_frame(7, &[(3, 0), (4, 1)]),
            to_bytes(&Frame::Unreliable {
                payload: vec![1, 2, 3],
            }),
            vec![0x77],
        ];
        for bytes in frames {
            for cut in 0..=bytes.len() {
                assert_eq!(read_out(&bytes[..cut]), from_bytes::<Frame>(&bytes[..cut]));
            }
            let mut long = bytes.clone();
            long.push(0);
            assert_eq!(read_out(&long), from_bytes::<Frame>(&long));
        }
        let datagram = data_frame(None, 1, 2, 0, 1, &[7; 100]);
        let (frame, payload) = decode_datagram(&datagram).unwrap();
        assert!(matches!(frame, Frame::Data { .. }));
        assert_eq!(payload, &[7; 100]);
        assert_eq!(
            payload.as_ptr(),
            datagram[datagram.len() - 100..].as_ptr(),
            "the datagram's own bytes"
        );
    }

    #[test]
    fn header_budget_is_honest() {
        let f = Frame::Data {
            epoch: 0,
            seq: 0,
            frag_index: 0,
            frag_count: 1,
            ack: Some(CumulativeAck { epoch: 0, up_to: 0 }),
            payload: vec![],
        };
        assert_eq!(to_bytes(&f).len(), FRAME_HEADER_LEN);
    }

    #[test]
    fn bad_fragment_indices_rejected() {
        let f = Frame::Data {
            epoch: 0,
            seq: 0,
            frag_index: 5,
            frag_count: 3,
            ack: None,
            payload: vec![],
        };
        let bytes = to_bytes(&f);
        assert!(from_bytes::<Frame>(&bytes).is_err());
    }

    #[test]
    fn unknown_frame_tag_rejected() {
        assert!(from_bytes::<Frame>(&[0x77]).is_err());
    }

    #[test]
    fn fragmentation() {
        assert_eq!(fragment(&[], 10), vec![Vec::<u8>::new()]);
        assert_eq!(fragment(&[1, 2, 3], 10), vec![vec![1, 2, 3]]);
        let frags = fragment(&[0u8; 25], 10);
        assert_eq!(frags.len(), 3);
        assert_eq!(frags[0].len(), 10);
        assert_eq!(frags[2].len(), 5);
        let rejoined: Vec<u8> = frags.concat();
        assert_eq!(rejoined, vec![0u8; 25]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_fragment_size_panics() {
        let _ = fragment(&[1], 0);
    }
}
