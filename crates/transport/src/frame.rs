//! Wire frames used by the reliability layer.
//!
//! A [`Frame`] is what actually crosses a [`crate::Transport`]: either a
//! `Data` fragment with acknowledgement bookkeeping, an `Ack`, or an
//! `Unreliable` passthrough (used for discovery beacons and other traffic
//! that neither needs nor wants retransmission).

use bytes::{BufMut, BytesMut};

use smc_types::codec::{Decode, Encode, Reader, WriteExt};
use smc_types::error::CodecError;

/// Fixed per-fragment header budget: tag + epoch + seq + 2×u16 + u32 len.
pub const FRAME_HEADER_LEN: usize = 1 + 8 + 8 + 2 + 2 + 4;

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
    /// a receiver emits when a batch of deliveries (or a multi-fragment
    /// message) becomes ack-able at once. Semantically identical to the
    /// same sequence of [`Frame::Ack`]s.
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
                payload,
            } => {
                buf.put_u8(F_DATA);
                buf.put_u64_le(*epoch);
                buf.put_u64_le(*seq);
                buf.put_u16_le(*frag_index);
                buf.put_u16_le(*frag_count);
                buf.put_bytes_field(payload);
            }
            Frame::Ack {
                epoch,
                seq,
                frag_index,
            } => buf.put_slice(&encode_ack_frame(*epoch, *seq, *frag_index)),
            Frame::AckBatch { epoch, acks } => {
                buf.put_u8(F_ACK_BATCH);
                buf.put_u64_le(*epoch);
                buf.put_u16_le(acks.len() as u16);
                for &(seq, frag_index) in acks {
                    buf.put_u64_le(seq);
                    buf.put_u16_le(frag_index);
                }
            }
            Frame::Unreliable { payload } => {
                buf.put_u8(F_UNRELIABLE);
                buf.put_bytes_field(payload);
            }
        }
    }
}

impl Decode for Frame {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            F_DATA => {
                let epoch = r.u64()?;
                let seq = r.u64()?;
                let frag_index = r.u16()?;
                let frag_count = r.u16()?;
                let payload = r.bytes()?;
                if frag_count == 0 || frag_index >= frag_count {
                    return Err(CodecError::BadTag {
                        what: "fragment index",
                        tag: 0,
                    });
                }
                Ok(Frame::Data {
                    epoch,
                    seq,
                    frag_index,
                    frag_count,
                    payload,
                })
            }
            F_ACK => Ok(Frame::Ack {
                epoch: r.u64()?,
                seq: r.u64()?,
                frag_index: r.u16()?,
            }),
            F_ACK_BATCH => {
                let epoch = r.u64()?;
                let count = r.collection_len()?;
                let mut acks = Vec::with_capacity(count);
                for _ in 0..count {
                    acks.push((r.u64()?, r.u16()?));
                }
                Ok(Frame::AckBatch { epoch, acks })
            }
            F_UNRELIABLE => Ok(Frame::Unreliable {
                payload: r.bytes()?,
            }),
            t => Err(CodecError::BadTag {
                what: "frame",
                tag: t,
            }),
        }
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

/// Computes the `start..end` byte ranges [`fragment`] would copy, without
/// copying anything. The reliability layer keeps one shared payload buffer
/// and slices it per fragment at transmit time.
///
/// # Panics
///
/// Same contract as [`fragment`].
pub fn fragment_ranges(len: usize, max_fragment: usize) -> Vec<(usize, usize)> {
    assert!(max_fragment > 0, "max_fragment must be positive");
    if len == 0 {
        return vec![(0, 0)];
    }
    let count = len.div_ceil(max_fragment);
    assert!(
        count <= u16::MAX as usize,
        "payload needs too many fragments"
    );
    (0..count)
        .map(|i| (i * max_fragment, ((i + 1) * max_fragment).min(len)))
        .collect()
}

/// Encodes a [`Frame::Data`] straight from a borrowed fragment slice,
/// byte-identical to `to_bytes(&Frame::Data { .. })` but without first
/// materialising the fragment as an owned `Vec<u8>`.
pub fn encode_data_frame(
    epoch: u64,
    seq: u64,
    frag_index: u16,
    frag_count: u16,
    payload: &[u8],
) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(FRAME_HEADER_LEN + payload.len());
    buf.put_u8(F_DATA);
    buf.put_u64_le(epoch);
    buf.put_u64_le(seq);
    buf.put_u16_le(frag_index);
    buf.put_u16_le(frag_count);
    buf.put_bytes_field(payload);
    buf.freeze()
}

/// Encoded length of a [`Frame::Ack`]: tag + epoch + seq + fragment index.
pub const ACK_FRAME_LEN: usize = 1 + 8 + 8 + 2;

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

    #[test]
    fn frames_round_trip() {
        for f in [
            Frame::Data {
                epoch: 1,
                seq: 2,
                frag_index: 0,
                frag_count: 3,
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

    #[test]
    fn encode_data_frame_matches_frame_encoding() {
        for payload in [vec![], vec![0xAB; 37]] {
            let direct = encode_data_frame(9, 12, 1, 4, &payload);
            let via_frame = to_bytes(&Frame::Data {
                epoch: 9,
                seq: 12,
                frag_index: 1,
                frag_count: 4,
                payload: payload.clone(),
            });
            assert_eq!(direct, via_frame);
        }
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
    fn fragment_ranges_mirror_fragment() {
        for (len, max) in [(0usize, 10usize), (3, 10), (25, 10), (30, 10), (1, 1)] {
            let payload: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let frags = fragment(&payload, max);
            let ranges = fragment_ranges(len, max);
            assert_eq!(frags.len(), ranges.len());
            for (frag, &(s, e)) in frags.iter().zip(&ranges) {
                assert_eq!(&payload[s..e], &frag[..]);
            }
        }
    }

    #[test]
    fn header_budget_is_honest() {
        let f = Frame::Data {
            epoch: 0,
            seq: 0,
            frag_index: 0,
            frag_count: 1,
            payload: vec![],
        };
        assert!(to_bytes(&f).len() <= FRAME_HEADER_LEN);
    }

    #[test]
    fn bad_fragment_indices_rejected() {
        let f = Frame::Data {
            epoch: 0,
            seq: 0,
            frag_index: 5,
            frag_count: 3,
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
