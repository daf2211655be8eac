//! Pins what the codec and an [`Event`] may ask of the heap: sharing an
//! event is free, sending anything is one request, and decoding asks for
//! what the decoded value keeps and nothing else.
//!
//! Alone in its binary because it installs a counting `#[global_allocator]`.

use smc_types::codec::{from_bytes, to_bytes, to_shared};
use smc_types::{Event, EventId, Packet, ServiceId};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::during;

#[global_allocator]
static GLOBAL: counting_alloc::Counting = counting_alloc::Counting;

/// The ledger's cell event: a type, three integer attributes, 64 B.
fn reading() -> Event {
    Event::builder("smc.sensor.reading")
        .attr("bpm", 72i64)
        .attr("patient", 0x1234_5678i64)
        .attr("sum", -1i64)
        .payload(vec![0xAB; 64])
        .build()
}

#[test]
fn sharing_and_stamping_an_event_is_free() {
    let event = reading();
    let (requests, stamped) = during(|| {
        let mut copy = event.clone();
        copy.stamp(ServiceId::from_raw(7), 1, 99);
        copy
    });
    assert_eq!(requests.count, 0, "clone + stamp");
    assert_eq!(stamped.attributes(), event.attributes());
    assert_eq!(event.seq(), 0, "the original is not the one stamped");
}

#[test]
fn encoding_for_a_channel_is_one_request() {
    let publish = Packet::publish(reading());
    let ack = Packet::PublishAck(EventId::new(ServiceId::from_raw(7), 1));
    // Once: the thread's scratch grows to working size.
    let expected = to_bytes(&publish);
    for packet in [&publish, &ack] {
        let (requests, shared) = during(|| to_shared(packet));
        assert_eq!(requests.count, 1, "to_shared({})", packet.kind());
        // Exact size: the bytes, the two reference counts, padding.
        assert!(requests.bytes as usize <= shared.len() + 24);
        let (requests, _) = during(|| to_bytes(packet));
        assert_eq!(requests.count, 1, "to_bytes({})", packet.kind());
    }
    assert_eq!(&to_shared(&publish)[..], &expected[..]);
}

#[test]
fn decoding_a_publish_asks_for_what_the_event_keeps() {
    let bytes = to_bytes(&Packet::publish(reading()));
    let (requests, packet) = during(|| from_bytes::<Packet>(&bytes));
    assert_eq!(packet.unwrap(), Packet::publish(reading()));
    // Type name, attribute table, three names, payload, the shared body.
    assert!(requests.count <= 8, "{} requests", requests.count);
}
