//! The bus host's charging rule, at its boundary: which datagrams reaching
//! the bus pay for the CPU model, how many times, and on which bytes.

use std::sync::Arc;

use smc_bench::{crossings, BusHost, CpuProfile, Testbed, TestbedConfig, HARNESS_TIMEOUT};
use smc_match::EngineKind;
use smc_transport::{fragment, CumulativeAck, Frame, LinkConfig, SimNetwork, Transport};
use smc_types::codec::to_bytes;
use smc_types::{Error, Event, EventId, Filter, Packet, SubscriptionId};

/// A model cheap enough for tests that still does work.
fn light() -> CpuProfile {
    CpuProfile {
        copy_rounds: 3,
        dispatch_spin: 10,
    }
}

fn host(cpu: CpuProfile, engine: EngineKind) -> BusHost {
    let net = SimNetwork::new(LinkConfig::ideal());
    BusHost::new(Arc::new(net.endpoint()), cpu, crossings(engine))
}

fn reading(payload: usize) -> Event {
    Event::builder("bench.event")
        .attr("sensor", "hr")
        .payload(vec![0x5A; payload])
        .build()
}

/// The one datagram a reliable message of `message` bytes travels in.
fn data(message: Vec<u8>, ack: Option<CumulativeAck>) -> Vec<u8> {
    to_bytes(&Frame::Data {
        epoch: 1,
        seq: 1,
        frag_index: 0,
        frag_count: 1,
        ack,
        payload: message,
    })
}

/// Four crossings on the Siena path, one on the C bus's.
#[test]
fn a_publish_in_one_fragment_is_charged_its_payload_crossings_times() {
    let event = reading(300);
    let ack = Some(CumulativeAck { epoch: 9, up_to: 4 });
    for publish in [
        data(to_bytes(&Packet::publish(event.clone())), None),
        data(to_bytes(&Packet::publish_acked(event.clone())), ack),
    ] {
        // The bytes charged are the event's payload, not the datagram's.
        assert!(publish.len() > 300 + 20);
        let [siena, c, native] = [
            host(light(), EngineKind::Siena),
            host(light(), EngineKind::FastForward),
            host(CpuProfile::native(), EngineKind::Siena),
        ];
        assert_eq!(siena.charge(&publish).unwrap(), 4 * 300);
        assert_eq!(c.charge(&publish).unwrap(), 300);
        assert_eq!(native.charge(&publish).unwrap(), 0);
    }
}

#[test]
fn acks_and_every_other_packet_pay_nothing() {
    let event = reading(300);
    let publish = to_bytes(&Packet::publish(event.clone()));
    let not_publishes = [
        to_bytes(&Frame::Ack {
            epoch: 1,
            seq: 1,
            frag_index: 0,
        }),
        to_bytes(&Frame::AckBatch {
            epoch: 1,
            acks: vec![(1, 0), (2, 0)],
        }),
        // The publish's own bytes, sent without the reliability layer.
        to_bytes(&Frame::Unreliable {
            payload: publish.clone(),
        }),
        data(
            to_bytes(&Packet::Subscribe {
                request_id: 7,
                filter: Filter::for_type("bench.event"),
            }),
            None,
        ),
        data(to_bytes(&Packet::deliver(event.clone())), None),
        data(to_bytes(&Packet::PublishAck(EventId::default())), None),
        data(to_bytes(&Packet::Unsubscribe(SubscriptionId(3))), None),
        // A datagram that is no frame at all.
        vec![0xFF, 1, 2, 3],
    ];
    let siena = host(light(), EngineKind::Siena);
    for datagram in &not_publishes {
        assert_eq!(siena.charge(datagram).unwrap(), 0, "{datagram:?}");
    }
    assert!(siena.check().is_ok());
}

#[test]
fn a_publish_in_several_fragments_is_refused_under_a_cost_model() {
    let message = to_bytes(&Packet::publish(reading(3000)));
    let fragments = fragment(&message, 1000);
    let count = fragments.len() as u16;
    assert!(count > 1);
    let frames: Vec<Vec<u8>> = fragments
        .into_iter()
        .enumerate()
        .map(|(i, payload)| {
            to_bytes(&Frame::Data {
                epoch: 1,
                seq: 1,
                frag_index: i as u16,
                frag_count: count,
                ack: None,
                payload,
            })
        })
        .collect();
    let siena = host(light(), EngineKind::Siena);
    assert!(matches!(siena.charge(&frames[0]), Err(Error::Invalid(_))));
    // The refusal is the first fragment's; the rest are not publishes.
    for later in &frames[1..] {
        assert_eq!(siena.charge(later).unwrap(), 0);
    }
    // The native profile charges nothing, so it has nothing to refuse.
    let native = host(CpuProfile::native(), EngineKind::Siena);
    assert_eq!(native.charge(&frames[0]).unwrap(), 0);

    // A fragmented message that is not a publish passes.
    let raw = to_bytes(&Packet::Raw(vec![0; 3000]));
    let first = fragment(&raw, 1000).remove(0);
    let frame = to_bytes(&Frame::Data {
        epoch: 1,
        seq: 2,
        frag_index: 0,
        frag_count: 4,
        ack: None,
        payload: first,
    });
    assert_eq!(siena.charge(&frame).unwrap(), 0);
}

#[test]
fn the_host_hands_the_bus_every_datagram_unchanged() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let host = BusHost::new(
        Arc::new(net.endpoint()),
        light(),
        crossings(EngineKind::Siena),
    );
    let sender = net.endpoint();
    let publish = data(to_bytes(&Packet::publish(reading(64))), None);
    sender.send(host.local_id(), &publish).unwrap();
    let got = host.recv(Some(HARNESS_TIMEOUT)).unwrap();
    assert_eq!(got.from, sender.local_id());
    assert_eq!(got.payload, publish);
    assert!(host.check().is_ok());
}

#[test]
fn a_testbed_fails_loudly_on_a_publish_it_cannot_charge() {
    let mut config = TestbedConfig::paper(EngineKind::FastForward);
    config.cpu = light();
    let bed = Testbed::start(&config, 1).unwrap();
    // One fragment on the usb-ip link's 8 KB MTU: charged and measured.
    bed.measure_response(1000, 1).unwrap();
    // Past the MTU the publish is fragmented and cannot be charged.
    let err = bed.measure_response(3 * 8192, 1).unwrap_err();
    assert!(
        matches!(&err, Error::Invalid(why) if why.contains("fragments")),
        "{err}"
    );
}
