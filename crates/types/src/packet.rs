//! Application-level packets exchanged between SMC components.
//!
//! These are the messages that travel *inside* the transport layer's
//! reliable frames: publish/ack, subscribe/ack, discovery beacons and the
//! join handshake, heartbeats, quench control and raw device data.

use bytes::{BufMut, BytesMut};

use crate::buffer::MessageBuf;
use crate::codec::{from_bytes, to_shared, Decode, Encode, Reader, WriteExt};
use crate::error::CodecError;
use crate::event::{AttributeSet, Event};
use crate::filter::Filter;
use crate::id::{CellId, EventId, ServiceId, SubscriptionId};
use crate::member::ServiceInfo;
use crate::shared::SharedBytes;
use crate::trace::TraceId;

/// An application-level packet.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Packet {
    /// Publisher (via its proxy) hands an event to the bus.
    Publish {
        /// The published event.
        event: Event,
        /// Causal trace id minted at publish time; [`TraceId::NONE`] on
        /// frames from pre-trace peers (the field is a trailing optional
        /// on the wire).
        trace: TraceId,
        /// Whether the publisher waits for a [`Packet::PublishAck`]. The
        /// request is the packet's tag, not a field of its body: a marked
        /// publish is the unmarked one's bytes under a second tag.
        ack: bool,
    },
    /// Bus confirms it accepted a published event — sent only in answer
    /// to a publish marked `ack` (decoded, never required).
    PublishAck(EventId),
    /// Bus pushes a matching event to a subscriber.
    Deliver {
        /// The delivered event.
        event: Event,
        /// Causal trace id carried from the publish;
        /// [`TraceId::NONE`] on frames from pre-trace peers.
        trace: TraceId,
    },
    /// A subscriber's confirmation of a delivered event, as older peers
    /// sent one per `Deliver`. No longer sent — the transport's own
    /// acknowledgement is what releases the bus's outbound queue — and
    /// ignored by the cell; the tag stays decodable.
    DeliverAck(EventId),
    /// Register a subscription; `request_id` correlates the ack.
    Subscribe {
        /// Caller-chosen correlation id.
        request_id: u64,
        /// The content filter to register.
        filter: Filter,
    },
    /// Bus acknowledges a subscription and reports its id.
    SubscribeAck {
        /// Echo of the request's correlation id.
        request_id: u64,
        /// The bus-assigned subscription id.
        subscription: SubscriptionId,
    },
    /// Remove a subscription.
    Unsubscribe(SubscriptionId),
    /// Bus acknowledges removal of a subscription.
    UnsubscribeAck(SubscriptionId),
    /// Discovery service presence beacon (broadcast).
    Beacon {
        /// The announcing cell.
        cell: CellId,
        /// Unicast id of the discovery service.
        discovery: ServiceId,
        /// Monotonic beacon sequence number.
        seq: u64,
    },
    /// A device asks to join the cell.
    JoinRequest {
        /// Who is joining.
        info: ServiceInfo,
        /// Application-specific authentication token.
        auth_token: Vec<u8>,
    },
    /// Discovery's verdict on a join request.
    JoinResponse {
        /// Whether the device was admitted.
        accepted: bool,
        /// Reason, when rejected.
        reason: String,
        /// The cell joined.
        cell: CellId,
        /// Membership lease duration in milliseconds; the member must
        /// heartbeat before it elapses.
        lease_millis: u64,
        /// The endpoint of the cell's event bus, which the member talks
        /// to for publish/subscribe.
        bus: ServiceId,
    },
    /// Member liveness heartbeat (lease renewal).
    Heartbeat {
        /// The renewing member.
        member: ServiceId,
        /// Monotonic heartbeat sequence.
        seq: u64,
    },
    /// Discovery confirms a heartbeat.
    HeartbeatAck {
        /// Echo of the heartbeat sequence.
        seq: u64,
    },
    /// A member announces it is leaving the cell.
    Leave {
        /// The departing member.
        member: ServiceId,
        /// Free-form reason.
        reason: String,
    },
    /// Bus tells a publisher proxy to stop (or resume) producing events
    /// because no (or some) subscriptions match — Elvin-style quenching.
    Quench {
        /// `true` = stop publishing, `false` = resume.
        enable: bool,
    },
    /// A management command directed at a member (e.g. change a threshold).
    Command {
        /// The target member.
        target: ServiceId,
        /// Command name.
        name: String,
        /// Command arguments.
        args: AttributeSet,
    },
    /// Target confirms execution of a command.
    CommandAck {
        /// The member that executed the command.
        target: ServiceId,
        /// Echo of the command name.
        name: String,
    },
    /// Opaque device-protocol bytes relayed between a device and its proxy.
    Raw(Vec<u8>),
    /// A publisher registers what it intends to publish, enabling
    /// Elvin-style quenching when nothing subscribed overlaps.
    Advertise {
        /// Caller-chosen correlation id.
        request_id: u64,
        /// Description of the events the publisher produces.
        filter: Filter,
    },
    /// Bus confirms an advertisement and reports the current interest.
    AdvertiseAck {
        /// Echo of the request's correlation id.
        request_id: u64,
        /// `true` if at least one subscription overlaps the advertisement.
        interested: bool,
    },
    /// Policy service pushes a policy bundle to a member. The payload is
    /// an encoded policy set; the policy crate owns the payload format.
    PolicyDeploy {
        /// Encoded policy set.
        payload: Vec<u8>,
    },
    /// The cell reports a protocol-level failure to a member.
    Error {
        /// What the error concerns (e.g. an event id or request id).
        about: String,
        /// Human-readable message.
        message: String,
    },
}

const P_PUBLISH: u8 = 1;
const P_PUBLISH_ACK: u8 = 2;
const P_DELIVER: u8 = 3;
const P_DELIVER_ACK: u8 = 4;
const P_SUBSCRIBE: u8 = 5;
const P_SUBSCRIBE_ACK: u8 = 6;
const P_UNSUBSCRIBE: u8 = 7;
const P_UNSUBSCRIBE_ACK: u8 = 8;
const P_BEACON: u8 = 9;
const P_JOIN_REQUEST: u8 = 10;
const P_JOIN_RESPONSE: u8 = 11;
const P_HEARTBEAT: u8 = 12;
const P_HEARTBEAT_ACK: u8 = 13;
const P_LEAVE: u8 = 14;
const P_QUENCH: u8 = 15;
const P_COMMAND: u8 = 16;
const P_COMMAND_ACK: u8 = 17;
const P_RAW: u8 = 18;
const P_ADVERTISE: u8 = 19;
const P_ADVERTISE_ACK: u8 = 20;
const P_POLICY_DEPLOY: u8 = 21;
const P_ERROR: u8 = 22;
/// `P_PUBLISH` from a publisher that waits for the `PublishAck`.
const P_PUBLISH_ACKED: u8 = 23;

impl Packet {
    /// An untraced `Publish` packet that asks for no `PublishAck` (the
    /// trace id, if wanted, can always be derived later via
    /// [`TraceId::for_event`]).
    pub fn publish(event: Event) -> Packet {
        Packet::Publish {
            event,
            trace: TraceId::NONE,
            ack: false,
        }
    }

    /// [`Packet::publish`] from a publisher that waits for the bus's
    /// `PublishAck`.
    pub fn publish_acked(event: Event) -> Packet {
        Packet::Publish {
            event,
            trace: TraceId::NONE,
            ack: true,
        }
    }

    /// An untraced `Deliver` packet.
    pub fn deliver(event: Event) -> Packet {
        Packet::Deliver {
            event,
            trace: TraceId::NONE,
        }
    }

    /// Decodes a received message, keeping it: the event of a `Publish`
    /// or a `Deliver` stays in `message` and reads its type name, names
    /// and payload out of it (see [`Event`]), so the decode asks the heap
    /// for the event's table and shared body and copies nothing. Every
    /// other packet is decoded as [`from_bytes`] would and the message
    /// dropped. A received buffer goes back to its link when it is
    /// dropped: the event's, with the last clone of the event.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] if the input is truncated, malformed, or
    /// has trailing bytes — the same verdict as [`from_bytes`] on the
    /// same bytes.
    pub fn from_message(message: impl Into<MessageBuf>) -> Result<Packet, CodecError> {
        let message = message.into();
        let Some(&tag @ (P_PUBLISH | P_PUBLISH_ACKED | P_DELIVER)) = message.first() else {
            return from_bytes(&message);
        };
        let (event, trace) = Event::adopt(message, 1, decode_trailing_trace)?;
        Ok(if tag == P_DELIVER {
            Packet::Deliver { event, trace }
        } else {
            Packet::Publish {
                event,
                trace,
                ack: tag == P_PUBLISH_ACKED,
            }
        })
    }

    /// The packet as a channel sends it: a `Publish` or a `Deliver` is
    /// its event's body under a tag ([`encode_deliver`]), asking the heap
    /// for nothing; any other packet is encoded once ([`to_shared`]).
    pub fn into_shared(self) -> SharedBytes {
        match self {
            Packet::Publish { event, trace, ack } => {
                let tag = if ack { P_PUBLISH_ACKED } else { P_PUBLISH };
                SharedBytes::event_packet(tag, event, trace)
            }
            Packet::Deliver { event, trace } => SharedBytes::event_packet(P_DELIVER, event, trace),
            other => to_shared(&other),
        }
    }

    /// Short packet-kind name for logs and metrics.
    pub fn kind(&self) -> &'static str {
        match self {
            Packet::Publish { .. } => "publish",
            Packet::PublishAck(_) => "publish-ack",
            Packet::Deliver { .. } => "deliver",
            Packet::DeliverAck(_) => "deliver-ack",
            Packet::Subscribe { .. } => "subscribe",
            Packet::SubscribeAck { .. } => "subscribe-ack",
            Packet::Unsubscribe(_) => "unsubscribe",
            Packet::UnsubscribeAck(_) => "unsubscribe-ack",
            Packet::Beacon { .. } => "beacon",
            Packet::JoinRequest { .. } => "join-request",
            Packet::JoinResponse { .. } => "join-response",
            Packet::Heartbeat { .. } => "heartbeat",
            Packet::HeartbeatAck { .. } => "heartbeat-ack",
            Packet::Leave { .. } => "leave",
            Packet::Quench { .. } => "quench",
            Packet::Command { .. } => "command",
            Packet::CommandAck { .. } => "command-ack",
            Packet::Raw(_) => "raw",
            Packet::Advertise { .. } => "advertise",
            Packet::AdvertiseAck { .. } => "advertise-ack",
            Packet::PolicyDeploy { .. } => "policy-deploy",
            Packet::Error { .. } => "error",
        }
    }
}

impl Encode for Packet {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            Packet::Publish { event, trace, ack } => {
                let tag = if *ack { P_PUBLISH_ACKED } else { P_PUBLISH };
                put_event_packet(buf, tag, event, *trace);
            }
            Packet::PublishAck(id) => {
                buf.put_u8(P_PUBLISH_ACK);
                id.encode(buf);
            }
            Packet::Deliver { event, trace } => put_event_packet(buf, P_DELIVER, event, *trace),
            Packet::DeliverAck(id) => {
                buf.put_u8(P_DELIVER_ACK);
                id.encode(buf);
            }
            Packet::Subscribe { request_id, filter } => {
                buf.put_u8(P_SUBSCRIBE);
                buf.put_u64_le(*request_id);
                filter.encode(buf);
            }
            Packet::SubscribeAck {
                request_id,
                subscription,
            } => {
                buf.put_u8(P_SUBSCRIBE_ACK);
                buf.put_u64_le(*request_id);
                subscription.encode(buf);
            }
            Packet::Unsubscribe(id) => {
                buf.put_u8(P_UNSUBSCRIBE);
                id.encode(buf);
            }
            Packet::UnsubscribeAck(id) => {
                buf.put_u8(P_UNSUBSCRIBE_ACK);
                id.encode(buf);
            }
            Packet::Beacon {
                cell,
                discovery,
                seq,
            } => {
                buf.put_u8(P_BEACON);
                cell.encode(buf);
                discovery.encode(buf);
                buf.put_u64_le(*seq);
            }
            Packet::JoinRequest { info, auth_token } => {
                buf.put_u8(P_JOIN_REQUEST);
                info.encode(buf);
                buf.put_bytes_field(auth_token);
            }
            Packet::JoinResponse {
                accepted,
                reason,
                cell,
                lease_millis,
                bus,
            } => {
                buf.put_u8(P_JOIN_RESPONSE);
                buf.put_bool(*accepted);
                buf.put_str(reason);
                cell.encode(buf);
                buf.put_u64_le(*lease_millis);
                bus.encode(buf);
            }
            Packet::Heartbeat { member, seq } => {
                buf.put_u8(P_HEARTBEAT);
                member.encode(buf);
                buf.put_u64_le(*seq);
            }
            Packet::HeartbeatAck { seq } => {
                buf.put_u8(P_HEARTBEAT_ACK);
                buf.put_u64_le(*seq);
            }
            Packet::Leave { member, reason } => {
                buf.put_u8(P_LEAVE);
                member.encode(buf);
                buf.put_str(reason);
            }
            Packet::Quench { enable } => {
                buf.put_u8(P_QUENCH);
                buf.put_bool(*enable);
            }
            Packet::Command { target, name, args } => {
                buf.put_u8(P_COMMAND);
                target.encode(buf);
                buf.put_str(name);
                args.encode(buf);
            }
            Packet::CommandAck { target, name } => {
                buf.put_u8(P_COMMAND_ACK);
                target.encode(buf);
                buf.put_str(name);
            }
            Packet::Raw(bytes) => {
                buf.put_u8(P_RAW);
                buf.put_bytes_field(bytes);
            }
            Packet::Advertise { request_id, filter } => {
                buf.put_u8(P_ADVERTISE);
                buf.put_u64_le(*request_id);
                filter.encode(buf);
            }
            Packet::AdvertiseAck {
                request_id,
                interested,
            } => {
                buf.put_u8(P_ADVERTISE_ACK);
                buf.put_u64_le(*request_id);
                buf.put_bool(*interested);
            }
            Packet::PolicyDeploy { payload } => {
                buf.put_u8(P_POLICY_DEPLOY);
                buf.put_bytes_field(payload);
            }
            Packet::Error { about, message } => {
                buf.put_u8(P_ERROR);
                buf.put_str(about);
                buf.put_str(message);
            }
        }
    }
}

impl Decode for Packet {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let tag = r.u8()?;
        Ok(match tag {
            P_PUBLISH | P_PUBLISH_ACKED => Packet::Publish {
                event: Event::decode(r)?,
                trace: decode_trailing_trace(r)?,
                ack: tag == P_PUBLISH_ACKED,
            },
            P_PUBLISH_ACK => Packet::PublishAck(EventId::decode(r)?),
            P_DELIVER => Packet::Deliver {
                event: Event::decode(r)?,
                trace: decode_trailing_trace(r)?,
            },
            P_DELIVER_ACK => Packet::DeliverAck(EventId::decode(r)?),
            P_SUBSCRIBE => Packet::Subscribe {
                request_id: r.u64()?,
                filter: Filter::decode(r)?,
            },
            P_SUBSCRIBE_ACK => Packet::SubscribeAck {
                request_id: r.u64()?,
                subscription: SubscriptionId::decode(r)?,
            },
            P_UNSUBSCRIBE => Packet::Unsubscribe(SubscriptionId::decode(r)?),
            P_UNSUBSCRIBE_ACK => Packet::UnsubscribeAck(SubscriptionId::decode(r)?),
            P_BEACON => Packet::Beacon {
                cell: CellId::decode(r)?,
                discovery: ServiceId::decode(r)?,
                seq: r.u64()?,
            },
            P_JOIN_REQUEST => Packet::JoinRequest {
                info: ServiceInfo::decode(r)?,
                auth_token: r.bytes()?,
            },
            P_JOIN_RESPONSE => Packet::JoinResponse {
                accepted: r.bool()?,
                reason: r.str()?,
                cell: CellId::decode(r)?,
                lease_millis: r.u64()?,
                bus: ServiceId::decode(r)?,
            },
            P_HEARTBEAT => Packet::Heartbeat {
                member: ServiceId::decode(r)?,
                seq: r.u64()?,
            },
            P_HEARTBEAT_ACK => Packet::HeartbeatAck { seq: r.u64()? },
            P_LEAVE => Packet::Leave {
                member: ServiceId::decode(r)?,
                reason: r.str()?,
            },
            P_QUENCH => Packet::Quench { enable: r.bool()? },
            P_COMMAND => Packet::Command {
                target: ServiceId::decode(r)?,
                name: r.str()?,
                args: AttributeSet::decode(r)?,
            },
            P_COMMAND_ACK => Packet::CommandAck {
                target: ServiceId::decode(r)?,
                name: r.str()?,
            },
            P_RAW => Packet::Raw(r.bytes()?),
            P_ADVERTISE => Packet::Advertise {
                request_id: r.u64()?,
                filter: Filter::decode(r)?,
            },
            P_ADVERTISE_ACK => Packet::AdvertiseAck {
                request_id: r.u64()?,
                interested: r.bool()?,
            },
            P_POLICY_DEPLOY => Packet::PolicyDeploy {
                payload: r.bytes()?,
            },
            P_ERROR => Packet::Error {
                about: r.str()?,
                message: r.str()?,
            },
            t => {
                return Err(CodecError::BadTag {
                    what: "packet",
                    tag: t,
                })
            }
        })
    }
}

/// The layout both `Publish` tags and `Deliver` share: tag, event,
/// optional trace.
fn put_event_packet(buf: &mut BytesMut, tag: u8, event: &Event, trace: TraceId) {
    buf.put_u8(tag);
    event.encode(buf);
    // Trailing optional: omitted entirely when untraced, so the NONE
    // encoding is byte-identical to pre-trace frames.
    if trace.is_some() {
        buf.put_u64_le(trace.raw());
    }
}

/// The [`Packet::Deliver`] of a borrowed event, as a channel sends it —
/// the bytes of `to_shared(&Packet::Deliver { event, trace })`, held as
/// the event: nothing is written and the heap is not asked.
///
/// This is the fan-out hot path: every remote subscriber's channel gets
/// the event's own body by reference count, and frames each fragment
/// straight from it. For an event that arrived in a `Publish`, the
/// message it arrived in is what the outbound queues keep.
pub fn encode_deliver(event: &Event, trace: TraceId) -> SharedBytes {
    SharedBytes::event_packet(P_DELIVER, event.clone(), trace)
}

/// Reads the trailing optional trace id: old (pre-trace) frames end at the
/// event, new frames append exactly 8 more bytes.
fn decode_trailing_trace(r: &mut Reader<'_>) -> Result<TraceId, CodecError> {
    if r.remaining() >= 8 {
        Ok(TraceId::from_raw(r.u64()?))
    } else {
        Ok(TraceId::NONE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{from_bytes, to_bytes};
    use crate::filter::Op;

    fn round_trip(p: Packet) {
        let bytes = to_bytes(&p);
        let back: Packet = from_bytes(&bytes).expect("decode");
        assert_eq!(back, p);
    }

    fn sample_event() -> Event {
        Event::builder("t")
            .attr("a", 1i64)
            .publisher(ServiceId::from_raw(9))
            .seq(4)
            .build()
    }

    /// `encode_deliver` must stay byte-identical to the packet encoder —
    /// remote subscribers decode it as an ordinary `Packet::Deliver`.
    #[test]
    fn encode_deliver_matches_packet_encoding() {
        let event = Event::builder("t.hot")
            .attr("a", 1i64)
            .publisher(ServiceId::from_raw(9))
            .seq(4)
            .payload(vec![7u8; 32])
            .build();
        for trace in [TraceId::NONE, TraceId::for_event(ServiceId::from_raw(9), 4)] {
            let direct = encode_deliver(&event, trace);
            let via_packet = to_bytes(&Packet::Deliver {
                event: event.clone(),
                trace,
            });
            assert_eq!(direct.len(), via_packet.len());
            assert_eq!(direct.to_vec(), via_packet);
        }
    }

    #[test]
    fn all_variants_round_trip() {
        round_trip(Packet::publish(sample_event()));
        round_trip(Packet::Publish {
            event: sample_event(),
            trace: TraceId::for_event(ServiceId::from_raw(9), 4),
            ack: false,
        });
        round_trip(Packet::publish_acked(sample_event()));
        round_trip(Packet::Publish {
            event: sample_event(),
            trace: TraceId::for_event(ServiceId::from_raw(9), 4),
            ack: true,
        });
        round_trip(Packet::PublishAck(EventId::new(ServiceId::from_raw(9), 4)));
        round_trip(Packet::deliver(sample_event()));
        round_trip(Packet::Deliver {
            event: sample_event(),
            trace: TraceId::from_raw(0xDEAD_BEEF),
        });
        round_trip(Packet::DeliverAck(EventId::new(ServiceId::from_raw(9), 4)));
        round_trip(Packet::Subscribe {
            request_id: 11,
            filter: Filter::for_type("t").with(("a", Op::Ge, 1i64)),
        });
        round_trip(Packet::SubscribeAck {
            request_id: 11,
            subscription: SubscriptionId(3),
        });
        round_trip(Packet::Unsubscribe(SubscriptionId(3)));
        round_trip(Packet::UnsubscribeAck(SubscriptionId(3)));
        round_trip(Packet::Beacon {
            cell: CellId(1),
            discovery: ServiceId::from_raw(2),
            seq: 77,
        });
        round_trip(Packet::JoinRequest {
            info: ServiceInfo::new(ServiceId::from_raw(5), "sensor.hr").with_role("sensor"),
            auth_token: vec![1, 2, 3],
        });
        round_trip(Packet::JoinResponse {
            accepted: false,
            reason: "bad token".into(),
            cell: CellId(1),
            lease_millis: 30_000,
            bus: ServiceId::from_raw(0xB05),
        });
        round_trip(Packet::Heartbeat {
            member: ServiceId::from_raw(5),
            seq: 8,
        });
        round_trip(Packet::HeartbeatAck { seq: 8 });
        round_trip(Packet::Leave {
            member: ServiceId::from_raw(5),
            reason: "off".into(),
        });
        round_trip(Packet::Quench { enable: true });
        let mut args = AttributeSet::new();
        args.insert("threshold", 120i64);
        round_trip(Packet::Command {
            target: ServiceId::from_raw(5),
            name: "set-threshold".into(),
            args,
        });
        round_trip(Packet::CommandAck {
            target: ServiceId::from_raw(5),
            name: "set-threshold".into(),
        });
        round_trip(Packet::Raw(vec![0u8; 64]));
        round_trip(Packet::Advertise {
            request_id: 4,
            filter: Filter::for_type("smc.sensor.reading"),
        });
        round_trip(Packet::AdvertiseAck {
            request_id: 4,
            interested: true,
        });
        round_trip(Packet::PolicyDeploy {
            payload: vec![1, 2, 3],
        });
        round_trip(Packet::Error {
            about: "evt-9".into(),
            message: "denied".into(),
        });
    }

    #[test]
    fn kind_names_are_distinct() {
        let kinds = [
            Packet::publish(sample_event()).kind(),
            Packet::Quench { enable: true }.kind(),
            Packet::Raw(vec![]).kind(),
        ];
        assert_eq!(
            kinds.len(),
            kinds.iter().collect::<std::collections::HashSet<_>>().len()
        );
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(matches!(
            from_bytes::<Packet>(&[0xEE]),
            Err(CodecError::BadTag { what: "packet", .. })
        ));
    }

    /// Satellite: `TraceId` rides the packet header and old (trace-less)
    /// frames still decode — the untraced encoding is byte-identical to
    /// the pre-trace wire format.
    #[test]
    fn trace_id_round_trips_and_old_frames_decode() {
        let trace = TraceId::for_event(ServiceId::from_raw(9), 4);
        let traced = to_bytes(&Packet::Publish {
            event: sample_event(),
            trace,
            ack: false,
        });
        let untraced = to_bytes(&Packet::publish(sample_event()));
        assert_eq!(traced.len(), untraced.len() + 8, "trace is a trailing u64");

        // New frame: the trace survives the round trip.
        match from_bytes::<Packet>(&traced).expect("decode traced") {
            Packet::Publish {
                event, trace: t, ..
            } => {
                assert_eq!(event, sample_event());
                assert_eq!(t, trace);
            }
            other => panic!("unexpected packet {other:?}"),
        }

        // Old frame (exactly the untraced bytes): decodes with NONE.
        match from_bytes::<Packet>(&untraced).expect("decode untraced") {
            Packet::Publish { trace: t, .. } => assert_eq!(t, TraceId::NONE),
            other => panic!("unexpected packet {other:?}"),
        }

        // Deliver behaves identically.
        let d = to_bytes(&Packet::Deliver {
            event: sample_event(),
            trace,
        });
        match from_bytes::<Packet>(&d).expect("decode deliver") {
            Packet::Deliver { trace: t, .. } => assert_eq!(t, trace),
            other => panic!("unexpected packet {other:?}"),
        }
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let p = Packet::JoinRequest {
            info: ServiceInfo::new(ServiceId::from_raw(5), "sensor.hr"),
            auth_token: vec![7; 9],
        };
        let bytes = to_bytes(&p);
        for cut in 0..bytes.len() {
            assert!(from_bytes::<Packet>(&bytes[..cut]).is_err());
        }
    }
}
