//! Property-based tests for the wire codec and the filter algebra.

use proptest::prelude::*;
use smc_types::codec::{from_bytes, to_bytes, to_shared, BytesMut};
use smc_types::member::wellknown;
use smc_types::{
    encode_deliver, parse_filter, AttributeSet, AttributeValue, CellId, Constraint, CoreSnapshot,
    Event, Filter, Op, Packet, ServiceId, ServiceInfo, SubscriptionId, TelemetryMsg, TraceId,
    WalRecord,
};

// For the properties that measure what a decode reserves.
#[path = "support/counting_alloc.rs"]
mod counting_alloc;

#[global_allocator]
static GLOBAL: counting_alloc::Counting = counting_alloc::Counting;

fn arb_value() -> impl Strategy<Value = AttributeValue> {
    prop_oneof![
        any::<bool>().prop_map(AttributeValue::Bool),
        any::<i64>().prop_map(AttributeValue::Int),
        // Finite doubles only: NaN breaks PartialEq-based round-trip checks
        // (bitwise round-tripping of NaN is covered by a unit test).
        (-1.0e12f64..1.0e12).prop_map(AttributeValue::Double),
        "[a-zA-Z0-9 _.-]{0,24}".prop_map(AttributeValue::Str),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(AttributeValue::Bytes),
    ]
}

fn arb_name() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_.]{0,12}"
}

fn arb_event() -> impl Strategy<Value = Event> {
    (
        arb_name(),
        proptest::collection::vec((arb_name(), arb_value()), 0..6),
        any::<u64>(),
        any::<u64>(),
        proptest::collection::vec(any::<u8>(), 0..128),
    )
        .prop_map(|(ty, attrs, raw_pub, seq, payload)| {
            let mut b = Event::builder(ty)
                .publisher(ServiceId::from_raw(raw_pub))
                .seq(seq)
                .payload(payload);
            for (n, v) in attrs {
                b = b.attr(n, v);
            }
            b.build()
        })
}

/// One packet of each tag that carries a count or a length — attribute
/// tables, constraint lists, roles, tokens, strings, opaque bytes — with
/// every count and length in it above zero.
fn counted_packets() -> Vec<Packet> {
    let id = ServiceId::from_raw(7);
    let event = Event::builder("smc.vitals")
        .attr("bpm", 70i64)
        .attr("site", "ward")
        .publisher(id)
        .seq(1)
        .payload(vec![1, 2, 3])
        .build();
    let filter = Filter::for_type("smc.vitals")
        .with(("bpm", Op::Gt, 100i64))
        .with(("site", Op::Eq, "ward"));
    let args: AttributeSet = [("limit", 120i64), ("floor", 40)]
        .into_iter()
        .map(|(name, value)| (name.to_string(), AttributeValue::Int(value)))
        .collect();
    vec![
        Packet::publish(event.clone()),
        Packet::publish_acked(event.clone()),
        Packet::deliver(event),
        Packet::Subscribe {
            request_id: 1,
            filter: filter.clone(),
        },
        Packet::Advertise {
            request_id: 2,
            filter,
        },
        Packet::JoinRequest {
            info: ServiceInfo::new(id, "sensor.ecg")
                .with_role("publisher")
                .with_role("ward"),
            auth_token: vec![5; 4],
        },
        Packet::JoinResponse {
            accepted: false,
            reason: "full".into(),
            cell: CellId(1),
            lease_millis: 900,
            bus: id,
        },
        Packet::Leave {
            member: id,
            reason: "bye".into(),
        },
        Packet::Command {
            target: id,
            name: "threshold".into(),
            args,
        },
        Packet::CommandAck {
            target: id,
            name: "threshold".into(),
        },
        Packet::Raw(vec![9; 6]),
        Packet::PolicyDeploy {
            payload: vec![4; 8],
        },
        Packet::Error {
            about: "publish".into(),
            message: "denied".into(),
        },
    ]
}

/// Whether two decodes of the same bytes agree: the same error, or values
/// that encode alike (damaged bytes may hold a NaN, which `==` refuses).
fn same_verdict<T: smc_types::codec::Encode>(
    a: &Result<T, smc_types::CodecError>,
    b: &Result<T, smc_types::CodecError>,
) -> bool {
    match (a, b) {
        (Ok(a), Ok(b)) => to_bytes(a) == to_bytes(b),
        (Err(a), Err(b)) => a == b,
        _ => false,
    }
}

/// The attribute count written at `count_at` of an encoded event body.
fn expected_count(body: &[u8], count_at: usize) -> usize {
    u16::from_le_bytes([body[count_at], body[count_at + 1]]) as usize
}

/// `e`'s encoding with its attributes written in reverse name order: a
/// body that adopting it writes out again, sorted.
fn reversed_body(e: &Event) -> Vec<u8> {
    let count_at = 2 + e.event_type().len() + 22;
    let mut body = to_bytes(e)[..count_at + 2].to_vec();
    let attributes: Vec<_> = e.attributes().iter().collect();
    for (name, value) in attributes.into_iter().rev() {
        body.extend_from_slice(&(name.len() as u16).to_le_bytes());
        body.extend_from_slice(name.as_bytes());
        body.extend_from_slice(&to_bytes(value));
    }
    body.extend_from_slice(&(e.payload().len() as u32).to_le_bytes());
    body.extend_from_slice(e.payload());
    body
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Eq),
        Just(Op::Ne),
        Just(Op::Lt),
        Just(Op::Le),
        Just(Op::Gt),
        Just(Op::Ge),
        Just(Op::Prefix),
        Just(Op::Suffix),
        Just(Op::Contains),
        Just(Op::Exists),
    ]
}

fn arb_filter() -> impl Strategy<Value = Filter> {
    (
        proptest::option::of(arb_name()),
        proptest::collection::vec((arb_name(), arb_op(), arb_value()), 0..5),
    )
        .prop_map(|(ty, cs)| {
            let mut f = match ty {
                Some(t) => Filter::for_type(t),
                None => Filter::any(),
            };
            for (n, op, v) in cs {
                f.push(Constraint::new(n, op, v));
            }
            f
        })
}

/// Filters over every value the text syntax writes: strings of any
/// characters, any double and each non-finite one, bytes.
fn arb_text_filter() -> impl Strategy<Value = Filter> {
    let text = proptest::collection::vec(any::<char>(), 0..12).prop_map(String::from_iter);
    let non_finite = prop_oneof![Just(f64::INFINITY), Just(f64::NEG_INFINITY), Just(f64::NAN)];
    let value = prop_oneof![
        arb_value(),
        text.prop_map(AttributeValue::Str),
        any::<f64>().prop_map(AttributeValue::Double),
        non_finite.prop_map(AttributeValue::Double),
    ];
    (
        proptest::option::of(arb_name()),
        proptest::collection::vec((arb_name(), arb_op(), value), 0..5),
    )
        .prop_map(|(ty, cs)| {
            let mut f = ty.map_or_else(Filter::any, Filter::for_type);
            for (n, op, v) in cs {
                f.push(Constraint::new(n, op, v));
            }
            f
        })
}

/// Filters over a tiny attribute alphabet so that covering pairs and
/// matching events actually occur.
fn arb_small_filter() -> impl Strategy<Value = Filter> {
    let name = prop_oneof![Just("a".to_string()), Just("b".to_string())];
    let op = prop_oneof![
        Just(Op::Eq),
        Just(Op::Ne),
        Just(Op::Lt),
        Just(Op::Le),
        Just(Op::Gt),
        Just(Op::Ge),
        Just(Op::Exists)
    ];
    let value = (-4i64..4).prop_map(AttributeValue::Int);
    (
        proptest::option::of(prop_oneof![Just("t".to_string()), Just("u".to_string())]),
        proptest::collection::vec((name, op, value), 0..4),
    )
        .prop_map(|(ty, cs)| {
            let mut f = match ty {
                Some(t) => Filter::for_type(t),
                None => Filter::any(),
            };
            for (n, op, v) in cs {
                f.push(Constraint::new(n, op, v));
            }
            f
        })
}

fn arb_small_event() -> impl Strategy<Value = Event> {
    (
        prop_oneof![Just("t"), Just("u")],
        proptest::option::of(-4i64..4),
        proptest::option::of(-4i64..4),
    )
        .prop_map(|(ty, a, b)| {
            let mut e = Event::builder(ty);
            if let Some(a) = a {
                e = e.attr("a", a);
            }
            if let Some(b) = b {
                e = e.attr("b", b);
            }
            e.build()
        })
}

proptest! {
    #[test]
    fn value_codec_round_trip(v in arb_value()) {
        let bytes = to_bytes(&v);
        let back: AttributeValue = from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, v);
    }

    #[test]
    fn event_codec_round_trip(e in arb_event()) {
        let bytes = to_bytes(&e);
        let back: Event = from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, e);
    }

    #[test]
    fn filter_codec_round_trip(f in arb_filter()) {
        let bytes = to_bytes(&f);
        let back: Filter = from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, f);
    }

    #[test]
    fn packet_codec_round_trip(e in arb_event(), f in arb_filter(), raw in any::<u64>()) {
        let packets = vec![
            Packet::publish(e.clone()),
            Packet::deliver(e.clone()),
            Packet::Publish {
                event: e.clone(),
                trace: smc_types::TraceId::from_raw(raw | 1),
                ack: false,
            },
            // The marked publish, untraced and traced.
            Packet::publish_acked(e.clone()),
            Packet::Publish {
                event: e.clone(),
                trace: smc_types::TraceId::from_raw(raw | 1),
                ack: true,
            },
            // Both ack tags stay decodable though neither is required.
            Packet::PublishAck(e.id()),
            Packet::DeliverAck(e.id()),
            Packet::Subscribe { request_id: raw, filter: f },
            Packet::SubscribeAck { request_id: raw, subscription: SubscriptionId(raw) },
            Packet::Beacon { cell: CellId(raw), discovery: ServiceId::from_raw(raw), seq: 1 },
            Packet::JoinRequest {
                info: ServiceInfo::new(ServiceId::from_raw(raw), "sensor.x").with_role("r"),
                auth_token: e.payload().to_vec(),
            },
        ];
        for p in packets {
            let bytes = to_bytes(&p);
            let back: Packet = from_bytes(&bytes).unwrap();
            prop_assert_eq!(back, p);
        }
        // The mark is the tag alone: the same bytes after it.
        let plain = to_bytes(&Packet::publish(e.clone()));
        let marked = to_bytes(&Packet::publish_acked(e));
        prop_assert_ne!(plain[0], marked[0]);
        prop_assert_eq!(&plain[1..], &marked[1..]);
    }

    /// The shared encoding is the owned encoding, byte for byte — and so
    /// is a packet handed over whole, whichever form it takes.
    #[test]
    fn to_shared_is_to_bytes(e in arb_event(), f in arb_filter(), raw in any::<u64>()) {
        let peer = ServiceId::from_raw(raw);
        let packets = [
            Packet::publish(e.clone()),
            Packet::Deliver { event: e.clone(), trace: smc_types::TraceId::from_raw(raw | 1) },
            Packet::PublishAck(e.id()),
            Packet::Subscribe { request_id: raw, filter: f.clone() },
            Packet::Raw(e.payload().to_vec()),
        ];
        for p in &packets {
            prop_assert_eq!(to_shared(p).to_vec(), to_bytes(p));
            prop_assert_eq!(p.clone().into_shared(), to_shared(p));
        }
        let records = [
            WalRecord::RxDeliver { chan: 0, peer, epoch: raw, seq: 3, payload: e.payload().to_vec() },
            WalRecord::OutEnqueue { chan: 1, peer, seq: raw, payload: to_bytes(&packets[0]) },
            WalRecord::OutAck { chan: 0, peer, seq: raw },
            WalRecord::Subscribed {
                subscription: smc_types::Subscription::new(SubscriptionId(raw), peer, f),
            },
        ];
        for r in &records {
            prop_assert_eq!(to_shared(r).to_vec(), to_bytes(r));
        }
    }

    /// A `Publish` or a `Deliver` a channel holds as its event — built,
    /// adopted, or adopted from a body that had to be sorted — is the
    /// packet's bytes: as long, the same bytes over any split into
    /// ranges, and journalled as the same `OutEnqueue` record.
    #[test]
    fn an_event_packet_held_as_its_event_is_its_bytes(
        e in arb_event(),
        raw in any::<u64>(),
        cuts in proptest::collection::vec(any::<proptest::sample::Index>(), 0..6),
    ) {
        let adopt = |message: Vec<u8>| match Packet::from_message(message).unwrap() {
            Packet::Publish { event, .. } | Packet::Deliver { event, .. } => event,
            other => unreachable!("an event packet, not {other:?}"),
        };
        let mut unsorted = vec![1u8];
        unsorted.extend(reversed_body(&e));
        let events = [e.clone(), adopt(to_bytes(&Packet::publish(e.clone()))), adopt(unsorted)];
        let peer = ServiceId::from_raw(raw);
        for event in events {
            prop_assert_eq!(&event, &e);
            for trace in [TraceId::NONE, TraceId::from_raw(raw | 1)] {
                for packet in [
                    Packet::Publish { event: event.clone(), trace, ack: false },
                    Packet::Publish { event: event.clone(), trace, ack: true },
                    Packet::Deliver { event: event.clone(), trace },
                ] {
                    let bytes = to_bytes(&packet);
                    let deliver = matches!(packet, Packet::Deliver { .. });
                    let view = packet.into_shared();
                    prop_assert_eq!(view.len(), bytes.len());
                    prop_assert_eq!(view.to_vec(), bytes.clone());
                    if deliver {
                        prop_assert_eq!(&encode_deliver(&event, trace), &view);
                    }
                    let mut at: Vec<usize> = cuts.iter().map(|c| c.index(bytes.len() + 1)).collect();
                    at.extend([0, bytes.len()]);
                    at.sort_unstable();
                    let mut joined = Vec::new();
                    for range in at.windows(2) {
                        view.put_range(range[0]..range[1], &mut joined);
                    }
                    prop_assert_eq!(&joined, &bytes);

                    let mut from_view = BytesMut::new();
                    WalRecord::put_out_enqueue(&mut from_view, 1, peer, raw, &view);
                    let record = WalRecord::OutEnqueue { chan: 1, peer, seq: raw, payload: bytes };
                    prop_assert_eq!(&from_view[..], &to_bytes(&record)[..]);
                    prop_assert_eq!(from_bytes::<WalRecord>(&from_view).unwrap(), record);
                }
            }
        }
    }

    /// An event is a value however many clones share its content: what is
    /// done to a copy — `with_attr`, a stamp, or a cloned builder carried
    /// on — never shows in the original, and `==` still compares content.
    #[test]
    fn event_clones_are_values(
        e in arb_event(),
        name in arb_name(),
        value in arb_value(),
        seq in 1u64..u64::MAX,
    ) {
        let before = to_bytes(&e);
        let mut copy = e.clone();
        prop_assert_eq!(&copy, &e);

        copy.stamp(ServiceId::from_raw(seq), seq, seq);
        prop_assert_eq!(&to_bytes(&e), &before, "a stamp is the copy's own");
        prop_assert_eq!(copy.attributes(), e.attributes());
        prop_assert!(std::ptr::eq(copy.payload(), e.payload()));

        let had = e.attr(&name).cloned();
        let shared = copy.clone();
        let copy = copy.with_attr(&name, value.clone());
        prop_assert_eq!(&to_bytes(&e), &before, "a new attribute is the copy's own");
        prop_assert_eq!(e.attr(&name), had.as_ref());
        prop_assert_eq!(shared.attr(&name), had.as_ref());
        prop_assert_eq!(copy.attr(&name), Some(&value));
        prop_assert_eq!(copy.attributes() == e.attributes(), had.as_ref() == Some(&value));
        prop_assert_eq!(copy.id(), shared.id(), "the stamp is carried over");
        prop_assert_eq!(copy.payload(), e.payload());

        // The same change made independently gives an equal event, and it
        // is what a round trip over the wire gives back.
        let mut again = e.clone();
        again.stamp(ServiceId::from_raw(seq), seq, seq);
        let again = again.with_attr(&name, value.clone());
        prop_assert_eq!(&again, &copy);
        prop_assert_eq!(&from_bytes::<Event>(&to_bytes(&copy)).unwrap(), &copy);
        // No generated value is this long.
        let other = copy.with_attr(&name, vec![0xFFu8; 65]);
        prop_assert_ne!(&again, &other);

        // A builder is a value too.
        let base = Event::builder(e.event_type()).attr("k", 1i64);
        let with = base.clone().attr(name.clone(), value).build();
        let without = base.build();
        prop_assert_eq!(without.attributes().len(), 1);
        prop_assert_eq!(with.attributes().len(), if name == "k" { 1 } else { 2 });
    }

    /// An event that stays in the message it arrived in is the event that
    /// was sent: equal to it, matched by the same filters, and sent on as
    /// the same bytes under every tag an event travels under.
    #[test]
    fn an_adopted_event_is_the_event_that_was_sent(
        e in arb_event(),
        f in arb_filter(),
        raw in any::<u64>(),
    ) {
        let trace = TraceId::from_raw(raw | 1);
        for sent in [
            Packet::publish(e.clone()),
            Packet::publish_acked(e.clone()),
            Packet::Publish { event: e.clone(), trace, ack: false },
            Packet::Deliver { event: e.clone(), trace },
        ] {
            let message = to_bytes(&sent);
            let adopted = Packet::from_message(message.clone()).unwrap();
            prop_assert_eq!(&adopted, &sent);
            prop_assert_eq!(&adopted, &from_bytes::<Packet>(&message).unwrap());
            prop_assert_eq!(&to_bytes(&adopted), &message);
            let (Packet::Publish { event, .. } | Packet::Deliver { event, .. }) = adopted else {
                unreachable!("an event packet")
            };
            prop_assert_eq!(&event, &e);
            prop_assert_eq!(f.matches(&event), f.matches(&e));
            prop_assert_eq!(event.content_len(), e.content_len());
            for packet in [
                Packet::publish(event.clone()),
                Packet::publish_acked(event.clone()),
                Packet::deliver(event.clone()),
                Packet::Deliver { event: event.clone(), trace },
            ] {
                let built = match &packet {
                    Packet::Publish { ack: false, .. } => Packet::publish(e.clone()),
                    Packet::Publish { .. } => Packet::publish_acked(e.clone()),
                    Packet::Deliver { trace, .. } => Packet::Deliver { event: e.clone(), trace: *trace },
                    _ => unreachable!("an event packet"),
                };
                prop_assert_eq!(to_bytes(&packet), to_bytes(&built));
            }
            for trace in [TraceId::NONE, trace] {
                prop_assert_eq!(
                    encode_deliver(&event, trace).to_vec(),
                    to_bytes(&Packet::Deliver { event: e.clone(), trace })
                );
            }
        }
        // The bare event, as the harness's planes send it.
        prop_assert_eq!(&Event::from_message(to_bytes(&e)).unwrap(), &e);
    }

    /// A message's body is its sender's claim. Cut anywhere, with a name
    /// that is not UTF-8, names out of order or repeated, a count the
    /// bytes cannot back, or bytes left over, adopting it gives an error
    /// or the event a builder would have made of the same content —
    /// whichever the borrowed decode gives — and asks the heap for no
    /// more than the message could fill: 40 B of table per 4 B attribute,
    /// the values once, a non-canonical body written out once more.
    #[test]
    fn a_hostile_body_is_refused_or_normalised(
        e in arb_event(),
        attrs in proptest::collection::vec((arb_name(), arb_value()), 0..6),
        damage in 0usize..6,
        at in any::<proptest::sample::Index>(),
        claimed in any::<u16>(),
        extra in 1usize..8,
    ) {
        // The event's content with `attrs` appended in the order drawn:
        // unsorted, and with repeats when a name comes up twice.
        let mut expected = e.clone();
        let mut body = Vec::new();
        body.extend_from_slice(&(e.event_type().len() as u16).to_le_bytes());
        body.extend_from_slice(e.event_type().as_bytes());
        body.extend_from_slice(&to_bytes(&e)[body.len()..][..22]);
        let count_at = body.len();
        body.extend_from_slice(&((e.attributes().len() + attrs.len()) as u16).to_le_bytes());
        let mut name_at = None;
        for (n, v) in e.attributes().iter().map(|(n, v)| (n, v.clone())).chain(
            attrs.iter().map(|(n, v)| (n.as_str(), v.clone())),
        ) {
            name_at = Some(body.len() + 2);
            body.extend_from_slice(&(n.len() as u16).to_le_bytes());
            body.extend_from_slice(n.as_bytes());
            body.extend_from_slice(&to_bytes(&v));
            expected = expected.with_attr(n, v);
        }
        body.extend_from_slice(&(e.payload().len() as u32).to_le_bytes());
        body.extend_from_slice(e.payload());

        let mut intact = true;
        match damage {
            0 => {}
            1 => { body.truncate(at.index(body.len())); intact = false; }
            2 => if let Some(i) = name_at { body[i] = 0xFF; intact = false; },
            3 => {
                intact = claimed as usize == expected_count(&body, count_at);
                body[count_at..count_at + 2].copy_from_slice(&claimed.to_le_bytes());
            }
            4 => { body.extend(std::iter::repeat_n(0xA5, extra)); intact = false; }
            _ => { let i = at.index(body.len()); body[i] ^= 0x55; intact = false; }
        }

        let mut message = vec![1u8];
        message.extend_from_slice(&body);
        let borrowed = from_bytes::<Event>(&body);
        let (requests, adopted) = counting_alloc::during(|| Event::from_message(body.clone()));
        // 11 × for a table of the smallest attributes, 1 × for the clone
        // above, up to 3 × for a body written out again with its table.
        prop_assert!(
            requests.bytes as usize <= 16 * body.len() + 256,
            "{} B requested for {} B of input", requests.bytes, body.len()
        );
        prop_assert!(same_verdict(&adopted, &borrowed), "{adopted:?} vs {borrowed:?}");
        let packet = Packet::from_message(message.clone());
        prop_assert!(same_verdict(&packet, &from_bytes::<Packet>(&message)));
        if intact {
            prop_assert_eq!(adopted.as_ref().ok(), Some(&expected));
            prop_assert_eq!(to_bytes(adopted.as_ref().unwrap()), to_bytes(&expected));
            prop_assert_eq!(packet.ok(), Some(Packet::publish(expected)));
        } else if damage == 1 || damage == 2 || damage == 4 {
            prop_assert!(adopted.is_err());
        }
    }

    /// The attribute count of an event is the sender's claim. Whatever it
    /// says, and wherever the bytes stop, decoding reserves no more than
    /// the bytes that are there could fill: 40 B of table per 4 B
    /// attribute, the values and the event's own bytes once each.
    #[test]
    fn hostile_collection_len_cannot_make_event_decode_reserve(
        e in arb_event(),
        claimed in proptest::option::of(any::<u16>()),
        keep in any::<proptest::sample::Index>(),
        truncate in any::<bool>(),
    ) {
        let mut bytes = to_bytes(&e);
        let whole = bytes.len();
        let count_at = 2 + e.event_type().len() + 6 + 8 + 8;
        let claimed = claimed.unwrap_or(e.attributes().len() as u16);
        bytes[count_at..count_at + 2].copy_from_slice(&claimed.to_le_bytes());
        if truncate {
            bytes.truncate(keep.index(whole + 1));
        }
        let (requests, decoded) = counting_alloc::during(|| from_bytes::<Event>(&bytes));
        if claimed as usize == e.attributes().len() {
            prop_assert_eq!(decoded.ok(), (bytes.len() == whole).then_some(e));
        }
        prop_assert!(
            requests.bytes as usize <= 12 * bytes.len() + 128,
            "{} B requested for {} B of input", requests.bytes, bytes.len()
        );
    }

    #[test]
    fn decoding_random_bytes_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Must not panic; error is fine — and the same error whether the
        // bytes are borrowed or handed over.
        let packet = from_bytes::<Packet>(&bytes);
        let event = from_bytes::<Event>(&bytes);
        let _ = from_bytes::<Filter>(&bytes);
        let _ = from_bytes::<WalRecord>(&bytes);
        let _ = from_bytes::<CoreSnapshot>(&bytes);
        prop_assert!(same_verdict(&Packet::from_message(bytes.clone()), &packet));
        prop_assert!(same_verdict(&Event::from_message(bytes), &event));
    }

    /// A telemetry event with any payload parses or is dropped, and what
    /// the parse reserves is bounded by the payload, not by the counts it
    /// claims (a label is the widest entry: 48 B in memory for its 4 B
    /// minimum on the wire).
    #[test]
    fn telemetry_payloads_never_panic_or_overreserve(
        kind in prop_oneof![Just("metric-delta"), Just("trace-export"), Just("slo-report")],
        claimed in any::<u32>(),
        rest in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let mut payload = claimed.to_le_bytes().to_vec();
        payload.extend_from_slice(&rest);
        let len = payload.len();
        let event = Event::builder(wellknown::TELEMETRY)
            .attr(wellknown::TEL_KIND, kind)
            .payload(payload)
            .build();
        let (requests, _) = counting_alloc::during(|| TelemetryMsg::from_event(&event));
        prop_assert!(
            requests.bytes as usize <= 16 * len + 128,
            "{} B requested for a {} B payload", requests.bytes, len
        );
    }

    /// The log's decoders reserve in proportion to the bytes they are
    /// given, whatever entry count a record or a snapshot claims (a
    /// member is the widest entry: 80 B in memory, and each role 24 B for
    /// its 2 B minimum on the wire).
    #[test]
    fn hostile_counts_cannot_make_log_decode_reserve(
        claimed in any::<u32>(),
        skip in 0usize..5,
        rest in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        // A snapshot whose first `skip` sequences are empty, then one
        // that claims `claimed` entries.
        let mut bytes = vec![0; 4 * skip];
        bytes.extend_from_slice(&claimed.to_le_bytes());
        bytes.extend_from_slice(&rest);
        let (requests, _) = counting_alloc::during(|| from_bytes::<CoreSnapshot>(&bytes));
        prop_assert!(
            requests.bytes as usize <= 24 * bytes.len() + 128,
            "{} B requested for a {} B snapshot", requests.bytes, bytes.len()
        );
        let joined = WalRecord::MemberJoined { info: ServiceInfo::new(ServiceId::from_raw(7), "s") };
        let mut bytes = to_bytes(&joined);
        let roles_at = bytes.len() - 2;
        bytes[roles_at..].copy_from_slice(&(claimed as u16).to_le_bytes());
        bytes.extend_from_slice(&rest);
        let (requests, _) = counting_alloc::during(|| from_bytes::<WalRecord>(&bytes));
        prop_assert!(
            requests.bytes as usize <= 24 * bytes.len() + 128,
            "{} B requested for a {} B record", requests.bytes, bytes.len()
        );
    }

    /// A packet's decoders reserve in proportion to the bytes they are
    /// given, whatever a count or a length in it claims. Every offset of
    /// every tag's encoding is tried as a two- and a four-byte claim, so
    /// each count and length field is hit; the decode, from bytes or
    /// adopting the message as the cell does, fails or asks the heap for
    /// at most a constant times the bytes (an attribute or a constraint
    /// is the widest entry for its minimum on the wire).
    #[test]
    fn hostile_counts_cannot_make_packet_decode_reserve(
        claimed in any::<u32>(),
        rest in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        for packet in counted_packets() {
            let honest = to_bytes(&packet);
            for at in 1..honest.len() {
                for width in [2, 4] {
                    let mut bytes = honest.clone();
                    let end = (at + width).min(bytes.len());
                    bytes[at..end].copy_from_slice(&claimed.to_le_bytes()[..end - at]);
                    bytes.extend_from_slice(&rest);
                    let (requests, _) = counting_alloc::during(|| from_bytes::<Packet>(&bytes));
                    let message = bytes.clone();
                    let (adopted, _) = counting_alloc::during(|| Packet::from_message(message));
                    for requests in [requests, adopted] {
                        prop_assert!(
                            requests.bytes as usize <= 24 * bytes.len() + 128,
                            "{} B requested for {} B of a {} ({} at {})",
                            requests.bytes, bytes.len(), packet.kind(), claimed, at
                        );
                    }
                }
            }
        }
    }

    /// `Display` writes the filter syntax: `parse_filter` reads it back
    /// to the same filter (an `exists` constraint's ignored value as 0,
    /// a NaN as a NaN).
    #[test]
    fn filter_display_reads_back(f in arb_text_filter()) {
        let text = f.to_string();
        let back = parse_filter(&text).unwrap_or_else(|e| panic!("{text:?}: {e}"));
        let mut expected = f.event_type().map_or_else(Filter::any, Filter::for_type);
        for c in f.constraints() {
            let value = if c.op == Op::Exists { AttributeValue::Int(0) } else { c.value.clone() };
            expected.push(Constraint::new(c.name.clone(), c.op, value));
        }
        prop_assert_eq!(format!("{back:?}"), format!("{expected:?}"), "{}", text);
    }

    /// Soundness of the covering relation: if `wide` covers `narrow`, then
    /// every event matched by `narrow` is matched by `wide`.
    #[test]
    fn covering_is_sound(wide in arb_small_filter(), narrow in arb_small_filter(), e in arb_small_event()) {
        if wide.covers(&narrow) && narrow.matches(&e) {
            prop_assert!(wide.matches(&e), "wide={wide} narrow={narrow} event={e}");
        }
    }

    /// Covering is reflexive.
    #[test]
    fn covering_is_reflexive(f in arb_small_filter()) {
        prop_assert!(f.covers(&f), "filter should cover itself: {f}");
    }

    /// Constraint implication is sound: if `a implies b`, every value that
    /// satisfies `a` satisfies `b`.
    #[test]
    fn implication_is_sound(
        op_a in prop_oneof![Just(Op::Eq), Just(Op::Ne), Just(Op::Lt), Just(Op::Le), Just(Op::Gt), Just(Op::Ge), Just(Op::Exists)],
        op_b in prop_oneof![Just(Op::Eq), Just(Op::Ne), Just(Op::Lt), Just(Op::Le), Just(Op::Gt), Just(Op::Ge), Just(Op::Exists)],
        va in -5i64..5,
        vb in -5i64..5,
        x in -8i64..8,
    ) {
        let a = Constraint::new("k", op_a, va);
        let b = Constraint::new("k", op_b, vb);
        if a.implies(&b) {
            let val = AttributeValue::Int(x);
            if a.matches_value(&val) {
                prop_assert!(b.matches_value(&val), "a={a} b={b} x={x}");
            }
        }
    }
}
