//! An event's attribute table keeps up to four rows inside the event and
//! moves to a `Vec` of its own past four. On either side of that line,
//! whether the names came sorted, unsorted or repeated, an event built,
//! adopted from its message or decoded from a borrowed slice reads as an
//! [`AttributeSet`] of the same content does — the last of several
//! values for one name standing — and encodes as the builder's event.

use proptest::prelude::*;
use smc_types::codec::{from_bytes, to_bytes};
use smc_types::{AttributeSet, AttributeValue, Event, Packet};

fn arb_value() -> impl Strategy<Value = AttributeValue> {
    prop_oneof![
        any::<bool>().prop_map(AttributeValue::Bool),
        any::<i64>().prop_map(AttributeValue::Int),
        (-1.0e9f64..1.0e9).prop_map(AttributeValue::Double),
        "[a-z]{0,8}".prop_map(AttributeValue::Str),
        proptest::collection::vec(any::<u8>(), 0..8).prop_map(AttributeValue::Bytes),
    ]
}

/// Mostly distinct names, or few enough that they repeat.
fn arb_name() -> impl Strategy<Value = String> {
    prop_oneof!["[a-z]{1,3}", "[a-d]"]
}

/// How the rows are laid out on the wire.
#[derive(Debug, Clone, Copy)]
enum Order {
    Sorted,
    AsDrawn,
    Reversed,
}

fn arb_order() -> impl Strategy<Value = Order> {
    prop_oneof![
        Just(Order::Sorted),
        Just(Order::AsDrawn),
        Just(Order::Reversed)
    ]
}

/// Up to twelve rows: up to nine drawn, then up to three that repeat a
/// name already drawn with another value, laid out in `order`.
fn arb_rows() -> impl Strategy<Value = Vec<(String, AttributeValue)>> {
    (
        proptest::collection::vec((arb_name(), arb_value()), 0..=9),
        proptest::collection::vec((any::<proptest::sample::Index>(), arb_value()), 0..=3),
        arb_order(),
    )
        .prop_map(|(mut rows, repeats, order)| {
            for (at, value) in repeats {
                if !rows.is_empty() {
                    let name = rows[at.index(rows.len())].0.clone();
                    rows.push((name, value));
                }
            }
            match order {
                Order::Sorted => rows.sort_by(|a, b| a.0.cmp(&b.0)),
                Order::AsDrawn => {}
                Order::Reversed => rows.reverse(),
            }
            rows
        })
}

/// The encoding of an event of type `t.x` with `rows` written as given
/// and a 3-byte payload: what a sender that does not sort would send.
fn wire_body(rows: &[(String, AttributeValue)]) -> Vec<u8> {
    let mut body = Vec::new();
    body.extend_from_slice(&3u16.to_le_bytes());
    body.extend_from_slice(b"t.x");
    body.extend_from_slice(&[0; 22]);
    body.extend_from_slice(&(rows.len() as u16).to_le_bytes());
    for (name, value) in rows {
        body.extend_from_slice(&(name.len() as u16).to_le_bytes());
        body.extend_from_slice(name.as_bytes());
        body.extend_from_slice(&to_bytes(value));
    }
    body.extend_from_slice(&3u32.to_le_bytes());
    body.extend_from_slice(&[7, 8, 9]);
    body
}

/// Whether `event`'s attributes read as `set` does.
fn reads_as(event: &Event, set: &AttributeSet, probes: &[&str]) -> bool {
    let attributes = event.attributes();
    attributes.len() == set.len()
        && attributes.is_empty() == set.is_empty()
        && attributes.iter().eq(set.iter())
        && probes.iter().all(|name| {
            attributes.get(name) == set.get(name)
                && attributes.contains(name) == set.contains(name)
                && event.attr(name) == set.get(name)
        })
}

proptest! {
    #[test]
    fn an_event_reads_as_an_attribute_set_of_its_content(
        rows in arb_rows(),
        name in arb_name(),
        value in arb_value(),
    ) {
        let mut set = AttributeSet::new();
        for (n, v) in &rows {
            set.insert(n.as_str(), v.clone());
        }
        prop_assert_eq!(&rows.iter().cloned().collect::<AttributeSet>(), &set);
        let mut builder = Event::builder("t.x").payload(vec![7, 8, 9]);
        for (n, v) in &rows {
            builder = builder.attr(n.as_str(), v.clone());
        }
        let built = builder.build();
        let body = wire_body(&rows);
        let mut message = vec![1u8];
        message.extend_from_slice(&body);
        let Ok(Packet::Publish { event: adopted, .. }) = Packet::from_message(message) else {
            panic!("a publish");
        };
        let events = [
            built.clone(),
            adopted,
            Event::from_message(body.clone()).unwrap(),
            from_bytes::<Event>(&body).unwrap(),
        ];

        let mut probes: Vec<&str> = rows.iter().map(|(n, _)| n.as_str()).collect();
        probes.extend(["", "zzzz", name.as_str()]);
        let mut widened = set.clone();
        widened.insert(name.as_str(), value.clone());
        let widened_built = built.with_attr(&name, value.clone());
        let canonical = to_bytes(&built);
        for event in &events {
            prop_assert!(reads_as(event, &set, &probes), "{event:?} vs {set:?}");
            prop_assert_eq!(event, &built);
            prop_assert_eq!(event.attributes(), built.attributes());
            prop_assert_eq!(&to_bytes(event), &canonical);
            let with = event.with_attr(&name, value.clone());
            prop_assert!(reads_as(&with, &widened, &probes), "{with:?} vs {widened:?}");
            prop_assert_eq!(&with, &widened_built);
            prop_assert_eq!(to_bytes(&with), to_bytes(&widened_built));
            // The copy is new; the event it was made from is untouched.
            prop_assert!(reads_as(event, &set, &probes));
        }
    }
}
