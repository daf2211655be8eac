//! Write-ahead-log records and the recovery snapshot for the durable SMC
//! core.
//!
//! The core's delivery guarantees (exactly-once, per-sender FIFO,
//! queue-until-acked) are only as strong as the state backing them: the
//! receive cursors that suppress duplicates, the outbound proxy queues
//! holding unacknowledged events, the subscription table, and the
//! membership table. This module defines the byte-array form that state
//! takes on disk — one [`WalRecord`] per state transition, plus a
//! [`CoreSnapshot`] that compacts the log.
//!
//! Records use the same hand-rolled tag + little-endian codec as
//! [`Packet`](crate::Packet); the storage framing (lengths, checksums,
//! segments) lives in the `smc-wal` crate, which treats these encodings
//! as opaque payloads.

use bytes::{BufMut, BytesMut};

use crate::codec::{Decode, Encode, Reader, WriteExt};
use crate::error::CodecError;
use crate::filter::Subscription;
use crate::id::{ServiceId, SubscriptionId};
use crate::member::ServiceInfo;
use crate::shared::SharedBytes;

/// Upper bound on entries in one snapshot collection (cursors, outbound
/// messages, members, subscriptions) — far above anything a body-area
/// cell produces, low enough that a corrupt length prefix cannot force a
/// huge allocation.
pub const MAX_SNAPSHOT_ENTRIES: usize = 1 << 20;

const W_RX_CURSOR: u8 = 1;
const W_OUT_ENQUEUE: u8 = 2;
const W_OUT_ACK: u8 = 3;
const W_OUT_FORGET: u8 = 4;
const W_MEMBER_JOINED: u8 = 5;
const W_MEMBER_PURGED: u8 = 6;
const W_SUBSCRIBED: u8 = 7;
const W_UNSUBSCRIBED: u8 = 8;
const W_RX_DELIVER: u8 = 9;
const W_RX_CONSUMED: u8 = 10;
const W_OUT_REQUEUE: u8 = 11;

/// One durable state transition of the SMC core.
///
/// Channel-level records carry a `chan` discriminator because the core
/// runs more than one `ReliableChannel` (the bus/device channel and
/// the discovery channel); each is journalled independently.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A receiver committed to delivering `peer`'s messages from
    /// `expected` onward: everything below `expected` has been handed to
    /// the application and acknowledged, so after a crash it must never
    /// be delivered again (exactly-once) and nothing at or above it may
    /// be skipped (FIFO).
    RxCursor {
        /// Which channel of the core this cursor belongs to.
        chan: u8,
        /// The sending peer.
        peer: ServiceId,
        /// The sender's session epoch the cursor is valid for.
        epoch: u64,
        /// The next sequence number the receiver will deliver.
        expected: u64,
    },
    /// A receiver is delivering message `seq` from `peer` and retains
    /// its payload until the application confirms it was routed
    /// ([`WalRecord::RxConsumed`]). Written *instead of* [`WalRecord::RxCursor`]
    /// on channels whose inbound messages have durable downstream
    /// effects (the bus channel): it advances the cursor exactly like an
    /// `RxCursor { expected: seq + 1 }` *and* keeps the payload, so a
    /// crash between the acknowledgement and the event's routing cannot
    /// lose the message.
    RxDeliver {
        /// Which channel of the core delivered the message.
        chan: u8,
        /// The sending peer.
        peer: ServiceId,
        /// The sender's session epoch.
        epoch: u64,
        /// The delivered sequence number (the cursor advances to
        /// `seq + 1`).
        seq: u64,
        /// The full reassembled message payload.
        payload: Vec<u8>,
    },
    /// The application finished routing inbound message `seq` from
    /// `peer` (every downstream effect is journalled); the retained
    /// [`WalRecord::RxDeliver`] payload is no longer needed.
    RxConsumed {
        /// Which channel of the core the message arrived on.
        chan: u8,
        /// The sending peer.
        peer: ServiceId,
        /// The consumed sequence number.
        seq: u64,
    },
    /// A message was queued for transmission to `peer` and must survive
    /// a crash until acknowledged (the paper's "queued and resent by the
    /// proxy" guarantee).
    OutEnqueue {
        /// Which channel of the core queued the message.
        chan: u8,
        /// The destination peer.
        peer: ServiceId,
        /// The sequence number assigned (or predicted) for the message.
        seq: u64,
        /// The full message payload, reassembled (not per-fragment).
        payload: Vec<u8>,
    },
    /// The peer acknowledged (or the channel abandoned) outbound
    /// message `seq`; it no longer needs to be retained.
    OutAck {
        /// Which channel of the core the ack arrived on.
        chan: u8,
        /// The destination peer.
        peer: ServiceId,
        /// The acknowledged sequence number.
        seq: u64,
    },
    /// Recovery re-enqueued the outbound message journalled under
    /// `prior_seq` and the reborn channel assigned it `seq`. Written by
    /// the recovery resend path *instead of* a fresh
    /// [`WalRecord::OutEnqueue`]: replay renumbers the already-retained
    /// entry rather than duplicating its payload, so a second crash
    /// cannot queue the same message twice.
    OutRequeue {
        /// Which channel of the core re-enqueued the message.
        chan: u8,
        /// The destination peer.
        peer: ServiceId,
        /// The sequence number the retained entry was journalled under.
        prior_seq: u64,
        /// The sequence number the reborn channel assigned.
        seq: u64,
    },
    /// All outbound state for `peer` was dropped (member purge /
    /// proxy destruction) — queued data is deliberately discarded.
    OutForget {
        /// Which channel of the core forgot the peer.
        chan: u8,
        /// The forgotten peer.
        peer: ServiceId,
    },
    /// The discovery service admitted a member.
    MemberJoined {
        /// The admitted member's full service description.
        info: ServiceInfo,
    },
    /// The discovery service purged a member.
    MemberPurged {
        /// The purged member.
        member: ServiceId,
    },
    /// A subscription was installed on the bus.
    Subscribed {
        /// The full subscription (id, subscriber, filter).
        subscription: Subscription,
    },
    /// A subscription was removed from the bus.
    Unsubscribed {
        /// The removed subscription's id.
        id: SubscriptionId,
    },
}

impl WalRecord {
    /// Writes a [`WalRecord::RxDeliver`] whose payload the caller only
    /// borrows — a channel journals the message it is about to hand up
    /// without copying it into a record first. The one place that knows
    /// the layout (`Encode` goes through here).
    pub fn put_rx_deliver(
        buf: &mut BytesMut,
        chan: u8,
        peer: ServiceId,
        epoch: u64,
        seq: u64,
        payload: &[u8],
    ) {
        buf.put_u8(W_RX_DELIVER);
        buf.put_u8(chan);
        peer.encode(buf);
        buf.put_u64_le(epoch);
        buf.put_u64_le(seq);
        buf.put_bytes_field(payload);
    }

    /// Writes a [`WalRecord::OutEnqueue`] of a message on its way to a
    /// channel, its bytes written from however the message holds them
    /// ([`SharedBytes::put_range`]) — a channel journals what it queues
    /// without writing the message out first.
    pub fn put_out_enqueue(
        buf: &mut BytesMut,
        chan: u8,
        peer: ServiceId,
        seq: u64,
        payload: &SharedBytes,
    ) {
        put_out_enqueue_head(buf, chan, peer, seq);
        buf.put_bytes_len(payload.len());
        payload.put_range(0..payload.len(), buf);
    }
}

/// An `OutEnqueue` record up to its payload field.
fn put_out_enqueue_head(buf: &mut BytesMut, chan: u8, peer: ServiceId, seq: u64) {
    buf.put_u8(W_OUT_ENQUEUE);
    buf.put_u8(chan);
    peer.encode(buf);
    buf.put_u64_le(seq);
}

impl Encode for WalRecord {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            WalRecord::RxCursor {
                chan,
                peer,
                epoch,
                expected,
            } => {
                buf.put_u8(W_RX_CURSOR);
                buf.put_u8(*chan);
                peer.encode(buf);
                buf.put_u64_le(*epoch);
                buf.put_u64_le(*expected);
            }
            WalRecord::RxDeliver {
                chan,
                peer,
                epoch,
                seq,
                payload,
            } => WalRecord::put_rx_deliver(buf, *chan, *peer, *epoch, *seq, payload),
            WalRecord::RxConsumed { chan, peer, seq } => {
                buf.put_u8(W_RX_CONSUMED);
                buf.put_u8(*chan);
                peer.encode(buf);
                buf.put_u64_le(*seq);
            }
            WalRecord::OutEnqueue {
                chan,
                peer,
                seq,
                payload,
            } => {
                put_out_enqueue_head(buf, *chan, *peer, *seq);
                buf.put_bytes_field(payload);
            }
            WalRecord::OutRequeue {
                chan,
                peer,
                prior_seq,
                seq,
            } => {
                buf.put_u8(W_OUT_REQUEUE);
                buf.put_u8(*chan);
                peer.encode(buf);
                buf.put_u64_le(*prior_seq);
                buf.put_u64_le(*seq);
            }
            WalRecord::OutAck { chan, peer, seq } => {
                buf.put_u8(W_OUT_ACK);
                buf.put_u8(*chan);
                peer.encode(buf);
                buf.put_u64_le(*seq);
            }
            WalRecord::OutForget { chan, peer } => {
                buf.put_u8(W_OUT_FORGET);
                buf.put_u8(*chan);
                peer.encode(buf);
            }
            WalRecord::MemberJoined { info } => {
                buf.put_u8(W_MEMBER_JOINED);
                info.encode(buf);
            }
            WalRecord::MemberPurged { member } => {
                buf.put_u8(W_MEMBER_PURGED);
                member.encode(buf);
            }
            WalRecord::Subscribed { subscription } => {
                buf.put_u8(W_SUBSCRIBED);
                subscription.encode(buf);
            }
            WalRecord::Unsubscribed { id } => {
                buf.put_u8(W_UNSUBSCRIBED);
                id.encode(buf);
            }
        }
    }
}

impl Decode for WalRecord {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            W_RX_CURSOR => Ok(WalRecord::RxCursor {
                chan: r.u8()?,
                peer: ServiceId::decode(r)?,
                epoch: r.u64()?,
                expected: r.u64()?,
            }),
            W_RX_DELIVER => Ok(WalRecord::RxDeliver {
                chan: r.u8()?,
                peer: ServiceId::decode(r)?,
                epoch: r.u64()?,
                seq: r.u64()?,
                payload: r.bytes()?,
            }),
            W_RX_CONSUMED => Ok(WalRecord::RxConsumed {
                chan: r.u8()?,
                peer: ServiceId::decode(r)?,
                seq: r.u64()?,
            }),
            W_OUT_ENQUEUE => Ok(WalRecord::OutEnqueue {
                chan: r.u8()?,
                peer: ServiceId::decode(r)?,
                seq: r.u64()?,
                payload: r.bytes()?,
            }),
            W_OUT_REQUEUE => Ok(WalRecord::OutRequeue {
                chan: r.u8()?,
                peer: ServiceId::decode(r)?,
                prior_seq: r.u64()?,
                seq: r.u64()?,
            }),
            W_OUT_ACK => Ok(WalRecord::OutAck {
                chan: r.u8()?,
                peer: ServiceId::decode(r)?,
                seq: r.u64()?,
            }),
            W_OUT_FORGET => Ok(WalRecord::OutForget {
                chan: r.u8()?,
                peer: ServiceId::decode(r)?,
            }),
            W_MEMBER_JOINED => Ok(WalRecord::MemberJoined {
                info: ServiceInfo::decode(r)?,
            }),
            W_MEMBER_PURGED => Ok(WalRecord::MemberPurged {
                member: ServiceId::decode(r)?,
            }),
            W_SUBSCRIBED => Ok(WalRecord::Subscribed {
                subscription: Subscription::decode(r)?,
            }),
            W_UNSUBSCRIBED => Ok(WalRecord::Unsubscribed {
                id: SubscriptionId::decode(r)?,
            }),
            t => Err(CodecError::BadTag {
                what: "wal record",
                tag: t,
            }),
        }
    }
}

/// One receive cursor in a [`CoreSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CursorEntry {
    /// Which channel of the core the cursor belongs to.
    pub chan: u8,
    /// The sending peer.
    pub peer: ServiceId,
    /// The sender's session epoch the cursor is valid for.
    pub epoch: u64,
    /// The next sequence number the receiver will deliver.
    pub expected: u64,
}

/// Retained outbound messages for one peer as `(seq, payload)` pairs in
/// original send order — the shape [`CoreSnapshot::outbound_for`] returns.
pub type RetainedOutbound = Vec<(u64, Vec<u8>)>;

/// One unacknowledged outbound message in a [`CoreSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutboundEntry {
    /// Which channel of the core queued the message.
    pub chan: u8,
    /// The destination peer.
    pub peer: ServiceId,
    /// The sequence number the message held at snapshot time; retains
    /// the original send order, not the post-recovery wire sequence.
    pub seq: u64,
    /// The full message payload.
    pub payload: Vec<u8>,
}

/// One inbound message a [`CoreSnapshot`] retains because it was
/// acknowledged to its sender but not yet routed by the application
/// (see [`WalRecord::RxDeliver`] / [`WalRecord::RxConsumed`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingRx {
    /// Which channel of the core the message arrived on.
    pub chan: u8,
    /// The sending peer.
    pub peer: ServiceId,
    /// The sender's session epoch.
    pub epoch: u64,
    /// The delivered sequence number.
    pub seq: u64,
    /// The full reassembled message payload.
    pub payload: Vec<u8>,
}

impl Encode for PendingRx {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(self.chan);
        self.peer.encode(buf);
        buf.put_u64_le(self.epoch);
        buf.put_u64_le(self.seq);
        buf.put_bytes_field(&self.payload);
    }
}

impl Decode for PendingRx {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(PendingRx {
            chan: r.u8()?,
            peer: ServiceId::decode(r)?,
            epoch: r.u64()?,
            seq: r.u64()?,
            payload: r.bytes()?,
        })
    }
}

impl Encode for CursorEntry {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(self.chan);
        self.peer.encode(buf);
        buf.put_u64_le(self.epoch);
        buf.put_u64_le(self.expected);
    }
}

impl Decode for CursorEntry {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(CursorEntry {
            chan: r.u8()?,
            peer: ServiceId::decode(r)?,
            epoch: r.u64()?,
            expected: r.u64()?,
        })
    }
}

impl Encode for OutboundEntry {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(self.chan);
        self.peer.encode(buf);
        buf.put_u64_le(self.seq);
        buf.put_bytes_field(&self.payload);
    }
}

impl Decode for OutboundEntry {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(OutboundEntry {
            chan: r.u8()?,
            peer: ServiceId::decode(r)?,
            seq: r.u64()?,
            payload: r.bytes()?,
        })
    }
}

/// The complete durable state of the SMC core at one instant.
///
/// Recovery decodes the latest snapshot and then [`apply`]s every
/// [`WalRecord`] logged after it, in order; the result is the state the
/// rebuilt core resumes from.
///
/// [`apply`]: CoreSnapshot::apply
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CoreSnapshot {
    /// Receive cursors, one per (channel, peer) with an active session.
    pub cursors: Vec<CursorEntry>,
    /// Queued-or-inflight outbound messages, oldest first per peer.
    pub outbound: Vec<OutboundEntry>,
    /// Inbound messages acknowledged to their senders but not yet routed
    /// by the application, in delivery (log) order.
    pub pending_rx: Vec<PendingRx>,
    /// The admitted membership at snapshot time.
    pub members: Vec<ServiceInfo>,
    /// The installed subscriptions at snapshot time.
    pub subscriptions: Vec<Subscription>,
    /// The next subscription id the bus would allocate.
    pub next_subscription: u64,
}

impl CoreSnapshot {
    fn upsert_cursor(&mut self, chan: u8, peer: ServiceId, epoch: u64, expected: u64) {
        match self
            .cursors
            .iter_mut()
            .find(|c| c.chan == chan && c.peer == peer)
        {
            Some(c) => {
                c.epoch = epoch;
                c.expected = expected;
            }
            None => self.cursors.push(CursorEntry {
                chan,
                peer,
                epoch,
                expected,
            }),
        }
    }

    /// Folds one logged record into the snapshot state.
    ///
    /// Every fold is **idempotent**: a snapshot cut mid-log means the
    /// records preceding it replay *on top of* state that already
    /// contains their effects, so re-applying a record must never
    /// duplicate an entry (enqueues, delivers) or regress a removal.
    pub fn apply(&mut self, record: &WalRecord) {
        match record {
            WalRecord::RxCursor {
                chan,
                peer,
                epoch,
                expected,
            } => {
                self.upsert_cursor(*chan, *peer, *epoch, *expected);
            }
            WalRecord::RxDeliver {
                chan,
                peer,
                epoch,
                seq,
                payload,
            } => {
                self.upsert_cursor(*chan, *peer, *epoch, *seq + 1);
                let duplicate = self.pending_rx.iter().any(|p| {
                    p.chan == *chan && p.peer == *peer && p.epoch == *epoch && p.seq == *seq
                });
                if !duplicate {
                    self.pending_rx.push(PendingRx {
                        chan: *chan,
                        peer: *peer,
                        epoch: *epoch,
                        seq: *seq,
                        payload: payload.clone(),
                    });
                }
            }
            WalRecord::RxConsumed { chan, peer, seq } => {
                if let Some(i) = self
                    .pending_rx
                    .iter()
                    .position(|p| p.chan == *chan && p.peer == *peer && p.seq == *seq)
                {
                    self.pending_rx.remove(i);
                }
            }
            WalRecord::OutEnqueue {
                chan,
                peer,
                seq,
                payload,
            } => {
                let duplicate = self
                    .outbound
                    .iter()
                    .any(|o| o.chan == *chan && o.peer == *peer && o.seq == *seq);
                if !duplicate {
                    self.outbound.push(OutboundEntry {
                        chan: *chan,
                        peer: *peer,
                        seq: *seq,
                        payload: payload.clone(),
                    });
                }
            }
            WalRecord::OutRequeue {
                chan,
                peer,
                prior_seq,
                seq,
            } => {
                // Renumber the retained entry; a miss means a later
                // checkpoint already captured the renumbered queue.
                if let Some(o) = self
                    .outbound
                    .iter_mut()
                    .find(|o| o.chan == *chan && o.peer == *peer && o.seq == *prior_seq)
                {
                    o.seq = *seq;
                }
            }
            WalRecord::OutAck { chan, peer, seq } => {
                self.outbound
                    .retain(|o| !(o.chan == *chan && o.peer == *peer && o.seq == *seq));
            }
            WalRecord::OutForget { chan, peer } => {
                self.outbound
                    .retain(|o| !(o.chan == *chan && o.peer == *peer));
            }
            WalRecord::MemberJoined { info } => {
                match self.members.iter_mut().find(|m| m.id == info.id) {
                    Some(m) => *m = info.clone(),
                    None => self.members.push(info.clone()),
                }
            }
            // A purge destroys the member's proxy and with it the routes it
            // owned; a re-admission subscribes afresh.
            WalRecord::MemberPurged { member } => {
                self.members.retain(|m| m.id != *member);
                self.subscriptions.retain(|s| s.subscriber != *member);
            }
            WalRecord::Subscribed { subscription } => {
                self.next_subscription = self.next_subscription.max(subscription.id.0 + 1);
                match self
                    .subscriptions
                    .iter_mut()
                    .find(|s| s.id == subscription.id)
                {
                    Some(s) => *s = subscription.clone(),
                    None => self.subscriptions.push(subscription.clone()),
                }
            }
            WalRecord::Unsubscribed { id } => {
                self.subscriptions.retain(|s| s.id != *id);
            }
        }
    }

    /// Queued-or-inflight outbound messages for one channel, grouped per
    /// peer (peers sorted by id, messages in original send order), each
    /// paired with the sequence number it is retained under — the
    /// `prior_seq` a recovery resend must cite in [`WalRecord::OutRequeue`].
    pub fn outbound_for(&self, chan: u8) -> Vec<(ServiceId, RetainedOutbound)> {
        let mut grouped: Vec<(ServiceId, RetainedOutbound)> = Vec::new();
        let mut entries: Vec<&OutboundEntry> =
            self.outbound.iter().filter(|o| o.chan == chan).collect();
        entries.sort_by_key(|o| (o.peer, o.seq));
        for entry in entries {
            let item = (entry.seq, entry.payload.clone());
            match grouped.last_mut() {
                Some((peer, msgs)) if *peer == entry.peer => msgs.push(item),
                _ => grouped.push((entry.peer, vec![item])),
            }
        }
        grouped
    }

    /// Acknowledged-but-unrouted inbound messages for one channel as
    /// `(peer, epoch, seq, payload)`, in delivery (log) order.
    pub fn pending_rx_for(&self, chan: u8) -> Vec<(ServiceId, u64, u64, Vec<u8>)> {
        self.pending_rx
            .iter()
            .filter(|p| p.chan == chan)
            .map(|p| (p.peer, p.epoch, p.seq, p.payload.clone()))
            .collect()
    }

    /// Receive cursors for one channel as `(peer, epoch, expected)`,
    /// sorted by peer id.
    pub fn cursors_for(&self, chan: u8) -> Vec<(ServiceId, u64, u64)> {
        let mut out: Vec<(ServiceId, u64, u64)> = self
            .cursors
            .iter()
            .filter(|c| c.chan == chan)
            .map(|c| (c.peer, c.epoch, c.expected))
            .collect();
        out.sort_by_key(|&(peer, _, _)| peer);
        out
    }
}

fn put_seq<T: Encode>(buf: &mut BytesMut, items: &[T]) {
    buf.put_u32_le(items.len() as u32);
    for item in items {
        item.encode(buf);
    }
}

fn get_seq<T: Decode>(r: &mut Reader<'_>) -> Result<Vec<T>, CodecError> {
    let len = r.u32()? as usize;
    if len > MAX_SNAPSHOT_ENTRIES {
        return Err(CodecError::LengthOverflow {
            declared: len,
            limit: MAX_SNAPSHOT_ENTRIES,
        });
    }
    // The count is the writer's claim; reserve only what the bytes that
    // are left can hold (every entry is at least eight bytes).
    let mut out = Vec::with_capacity(len.min(r.remaining() / 8));
    for _ in 0..len {
        out.push(T::decode(r)?);
    }
    Ok(out)
}

impl Encode for CoreSnapshot {
    fn encode(&self, buf: &mut BytesMut) {
        put_seq(buf, &self.cursors);
        put_seq(buf, &self.outbound);
        put_seq(buf, &self.pending_rx);
        put_seq(buf, &self.members);
        put_seq(buf, &self.subscriptions);
        buf.put_u64_le(self.next_subscription);
    }
}

impl Decode for CoreSnapshot {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(CoreSnapshot {
            cursors: get_seq(r)?,
            outbound: get_seq(r)?,
            pending_rx: get_seq(r)?,
            members: get_seq(r)?,
            subscriptions: get_seq(r)?,
            next_subscription: r.u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{from_bytes, to_bytes};
    use crate::filter::{Filter, Op};

    fn sid(n: u64) -> ServiceId {
        ServiceId::from_raw(n)
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::RxCursor {
                chan: 0,
                peer: sid(7),
                epoch: 123,
                expected: 42,
            },
            WalRecord::RxDeliver {
                chan: 0,
                peer: sid(7),
                epoch: 123,
                seq: 42,
                payload: vec![9, 9, 9],
            },
            WalRecord::RxConsumed {
                chan: 0,
                peer: sid(7),
                seq: 42,
            },
            WalRecord::OutEnqueue {
                chan: 1,
                peer: sid(8),
                seq: 3,
                payload: vec![1, 2, 3],
            },
            WalRecord::OutRequeue {
                chan: 1,
                peer: sid(8),
                prior_seq: 3,
                seq: 1,
            },
            WalRecord::OutAck {
                chan: 1,
                peer: sid(8),
                seq: 3,
            },
            WalRecord::OutForget {
                chan: 0,
                peer: sid(9),
            },
            WalRecord::MemberJoined {
                info: ServiceInfo::new(sid(7), "sensor.heart-rate").with_role("publisher"),
            },
            WalRecord::MemberPurged { member: sid(7) },
            WalRecord::Subscribed {
                subscription: Subscription::new(
                    SubscriptionId(5),
                    sid(7),
                    Filter::for_type("smc.sensor.reading").with(("bpm", Op::Gt, 100i64)),
                ),
            },
            WalRecord::Unsubscribed {
                id: SubscriptionId(5),
            },
        ]
    }

    #[test]
    fn records_round_trip() {
        for record in sample_records() {
            let bytes = to_bytes(&record);
            let back: WalRecord = from_bytes(&bytes).expect("decode");
            assert_eq!(back, record);
        }
    }

    #[test]
    fn truncated_records_error_not_panic() {
        for record in sample_records() {
            let bytes = to_bytes(&record);
            for cut in 0..bytes.len() {
                assert!(
                    from_bytes::<WalRecord>(&bytes[..cut]).is_err(),
                    "cut at {cut}"
                );
            }
        }
    }

    #[test]
    fn bad_record_tag_rejected() {
        assert!(matches!(
            from_bytes::<WalRecord>(&[200]),
            Err(CodecError::BadTag {
                what: "wal record",
                tag: 200
            })
        ));
    }

    #[test]
    fn snapshot_round_trips() {
        let mut snap = CoreSnapshot::default();
        for record in sample_records() {
            snap.apply(&record);
        }
        snap.next_subscription = 77;
        let bytes = to_bytes(&snap);
        let back: CoreSnapshot = from_bytes(&bytes).expect("decode");
        assert_eq!(back, snap);
    }

    #[test]
    fn apply_folds_state_transitions() {
        let mut snap = CoreSnapshot::default();
        snap.apply(&WalRecord::RxCursor {
            chan: 0,
            peer: sid(1),
            epoch: 10,
            expected: 5,
        });
        snap.apply(&WalRecord::RxCursor {
            chan: 0,
            peer: sid(1),
            epoch: 10,
            expected: 6,
        });
        assert_eq!(snap.cursors_for(0), vec![(sid(1), 10, 6)]);

        snap.apply(&WalRecord::OutEnqueue {
            chan: 0,
            peer: sid(2),
            seq: 1,
            payload: vec![1],
        });
        snap.apply(&WalRecord::OutEnqueue {
            chan: 0,
            peer: sid(2),
            seq: 2,
            payload: vec![2],
        });
        snap.apply(&WalRecord::OutAck {
            chan: 0,
            peer: sid(2),
            seq: 1,
        });
        assert_eq!(snap.outbound_for(0), vec![(sid(2), vec![(2, vec![2])])]);
        snap.apply(&WalRecord::OutForget {
            chan: 0,
            peer: sid(2),
        });
        assert!(snap.outbound_for(0).is_empty());

        let info = ServiceInfo::new(sid(3), "sensor.spo2");
        snap.apply(&WalRecord::MemberJoined { info: info.clone() });
        snap.apply(&WalRecord::MemberJoined { info: info.clone() });
        assert_eq!(snap.members, vec![info]);
        snap.apply(&WalRecord::MemberPurged { member: sid(3) });
        assert!(snap.members.is_empty());

        let sub = Subscription::new(SubscriptionId(9), sid(3), Filter::any());
        snap.apply(&WalRecord::Subscribed {
            subscription: sub.clone(),
        });
        assert_eq!(snap.next_subscription, 10);
        assert_eq!(snap.subscriptions, vec![sub]);
        snap.apply(&WalRecord::Unsubscribed {
            id: SubscriptionId(9),
        });
        assert!(snap.subscriptions.is_empty());
    }

    /// A member purged and re-admitted owns only the routes it made
    /// after re-admission: recovery must not restore its old ones next
    /// to them and deliver every event to it twice.
    #[test]
    fn a_purge_drops_the_members_subscriptions() {
        let mut snap = CoreSnapshot::default();
        let (member, other) = (sid(3), sid(4));
        for (id, subscriber) in [(1, member), (2, other)] {
            let subscription = Subscription::new(SubscriptionId(id), subscriber, Filter::any());
            snap.apply(&WalRecord::Subscribed { subscription });
        }
        snap.apply(&WalRecord::MemberPurged { member });
        let left: Vec<ServiceId> = snap.subscriptions.iter().map(|s| s.subscriber).collect();
        assert_eq!(left, vec![other]);
        assert_eq!(snap.next_subscription, 3, "ids are never reused");
    }

    #[test]
    fn outbound_for_orders_by_peer_then_seq() {
        let mut snap = CoreSnapshot::default();
        snap.apply(&WalRecord::OutEnqueue {
            chan: 0,
            peer: sid(9),
            seq: 2,
            payload: vec![9, 2],
        });
        snap.apply(&WalRecord::OutEnqueue {
            chan: 0,
            peer: sid(4),
            seq: 7,
            payload: vec![4, 7],
        });
        snap.apply(&WalRecord::OutEnqueue {
            chan: 0,
            peer: sid(9),
            seq: 1,
            payload: vec![9, 1],
        });
        snap.apply(&WalRecord::OutEnqueue {
            chan: 1,
            peer: sid(9),
            seq: 1,
            payload: vec![1],
        });
        assert_eq!(
            snap.outbound_for(0),
            vec![
                (sid(4), vec![(7, vec![4, 7])]),
                (sid(9), vec![(1, vec![9, 1]), (2, vec![9, 2])])
            ]
        );
    }

    #[test]
    fn apply_out_enqueue_is_idempotent() {
        // A snapshot cut between write and segment removal leaves the
        // original enqueue records in the log; replaying them on top of
        // the snapshot must not queue a second copy.
        let enqueue = WalRecord::OutEnqueue {
            chan: 0,
            peer: sid(2),
            seq: 5,
            payload: vec![0xAB],
        };
        let mut snap = CoreSnapshot::default();
        snap.apply(&enqueue);
        snap.apply(&enqueue);
        assert_eq!(snap.outbound_for(0), vec![(sid(2), vec![(5, vec![0xAB])])]);
    }

    #[test]
    fn apply_out_requeue_renumbers_without_duplicating() {
        let mut snap = CoreSnapshot::default();
        // Pre-crash queue journalled under seqs 5 and 6 (1-4 were acked).
        for seq in [5u64, 6] {
            snap.apply(&WalRecord::OutEnqueue {
                chan: 0,
                peer: sid(2),
                seq,
                payload: vec![seq as u8],
            });
        }
        // Recovery resent them; the reborn channel numbered them 1 and 2.
        snap.apply(&WalRecord::OutRequeue {
            chan: 0,
            peer: sid(2),
            prior_seq: 5,
            seq: 1,
        });
        snap.apply(&WalRecord::OutRequeue {
            chan: 0,
            peer: sid(2),
            prior_seq: 6,
            seq: 2,
        });
        assert_eq!(
            snap.outbound_for(0),
            vec![(sid(2), vec![(1, vec![5]), (2, vec![6])])],
            "entries renumbered in place, order preserved, no duplicates"
        );
        // The live acks cite the new numbers and must trim correctly.
        snap.apply(&WalRecord::OutAck {
            chan: 0,
            peer: sid(2),
            seq: 1,
        });
        assert_eq!(snap.outbound_for(0), vec![(sid(2), vec![(2, vec![6])])]);
        // A requeue replayed on top of a post-recovery checkpoint (entry
        // already renumbered and re-captured) is a no-op.
        snap.apply(&WalRecord::OutRequeue {
            chan: 0,
            peer: sid(2),
            prior_seq: 6,
            seq: 2,
        });
        assert_eq!(snap.outbound_for(0), vec![(sid(2), vec![(2, vec![6])])]);
    }

    #[test]
    fn apply_rx_deliver_and_consume_track_pending() {
        let mut snap = CoreSnapshot::default();
        let deliver = WalRecord::RxDeliver {
            chan: 0,
            peer: sid(3),
            epoch: 9,
            seq: 4,
            payload: vec![0xCD],
        };
        snap.apply(&deliver);
        assert_eq!(
            snap.cursors_for(0),
            vec![(sid(3), 9, 5)],
            "a deliver advances the cursor past the delivered seq"
        );
        assert_eq!(snap.pending_rx_for(0), vec![(sid(3), 9, 4, vec![0xCD])]);
        // Replaying it (snapshot raced the log tail) adds nothing.
        snap.apply(&deliver);
        assert_eq!(snap.pending_rx_for(0).len(), 1);
        snap.apply(&WalRecord::RxConsumed {
            chan: 0,
            peer: sid(3),
            seq: 4,
        });
        assert!(snap.pending_rx_for(0).is_empty());
        assert_eq!(
            snap.cursors_for(0),
            vec![(sid(3), 9, 5)],
            "consuming trims the payload, not the cursor"
        );
        // Consuming again (replay) is a no-op.
        snap.apply(&WalRecord::RxConsumed {
            chan: 0,
            peer: sid(3),
            seq: 4,
        });
        assert!(snap.pending_rx_for(0).is_empty());
    }

    #[test]
    fn oversize_snapshot_collection_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(u32::MAX);
        assert!(matches!(
            from_bytes::<CoreSnapshot>(&buf),
            Err(CodecError::LengthOverflow { .. })
        ));
    }
}
