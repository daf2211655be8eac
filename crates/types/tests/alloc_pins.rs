//! Pins what the codec and an [`Event`] may ask of the heap: sharing an
//! event is free, sending an event — one that arrived in a message
//! included — is free too (its packet is its body under a tag), sending
//! anything else is one request, and decoding asks for what the decoded
//! value keeps and nothing else.
//!
//! Alone in its binary because it installs a counting `#[global_allocator]`.

use smc_types::codec::{from_bytes, to_bytes, to_shared};
use smc_types::{
    encode_deliver, AttributeValue, CodecError, Event, EventId, Packet, ServiceId, TraceId,
};

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
    assert_eq!(to_shared(&publish).to_vec(), expected);
}

#[test]
fn decoding_a_publish_asks_for_what_the_event_keeps() {
    let bytes = to_bytes(&Packet::publish(reading()));
    // Handed the message, the event stays in it: the attribute table and
    // the shared body.
    let message = bytes.clone();
    let (requests, packet) = during(|| Packet::from_message(message));
    assert_eq!(packet.unwrap(), Packet::publish(reading()));
    assert!(requests.count <= 2, "{} requests, owned", requests.count);
    // Lent a slice, the event's own bytes are copied out first.
    let (requests, packet) = during(|| from_bytes::<Packet>(&bytes));
    assert_eq!(packet.unwrap(), Packet::publish(reading()));
    assert!(requests.count <= 3, "{} requests, borrowed", requests.count);
    // Nothing but the table scales with the event: 40 B a row.
    assert!(
        requests.bytes as usize <= bytes.len() + 3 * 40 + 128,
        "{} B requested for a {} B message",
        requests.bytes,
        bytes.len()
    );
}

#[test]
fn a_string_that_is_not_utf8_is_refused_before_it_is_copied() {
    // A string value: tag 3, length 64, no byte of it UTF-8.
    let mut bytes = vec![3u8, 64, 0];
    bytes.extend([0xFF; 64]);
    let (requests, value) = during(|| from_bytes::<AttributeValue>(&bytes));
    assert_eq!(value, Err(CodecError::BadUtf8));
    assert_eq!(requests.count, 0);
}

#[test]
fn re_encoding_an_adopted_event_as_a_deliver_asks_the_heap_for_nothing() {
    let trace = TraceId::for_event(ServiceId::from_raw(7), 1);
    let message = to_bytes(&Packet::Publish {
        event: reading(),
        trace,
        ack: false,
    });
    let Ok(Packet::Publish { mut event, .. }) = Packet::from_message(message) else {
        panic!("a publish");
    };
    event.stamp(ServiceId::from_raw(7), 1, 99);
    let mut expected = reading();
    expected.stamp(ServiceId::from_raw(7), 1, 99);
    let expected = to_bytes(&Packet::Deliver {
        event: expected,
        trace,
    });
    let (requests, deliver) = during(|| encode_deliver(&event, trace));
    assert_eq!(requests.count, 0, "encode_deliver");
    assert_eq!(deliver.to_vec(), expected);
    // And a publisher's own packet, built or adopted: its body by
    // reference count.
    let (requests, publish) = during(|| Packet::publish(event.clone()).into_shared());
    assert_eq!(requests.count, 0, "Packet::into_shared");
    assert_eq!(publish.to_vec(), to_bytes(&Packet::publish(event)));
}
