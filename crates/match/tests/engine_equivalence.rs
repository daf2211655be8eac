//! The engines must agree *exactly* on match semantics.
//!
//! The naive engine (`support/naive.rs`, test code) is the oracle: it calls
//! `Filter::matches` directly. The Siena and fast-forwarding engines are
//! checked against it over randomly generated subscription sets, event
//! streams and unsubscription interleavings — among them tables that span
//! several of the forwarding table's 64-slot chunks.

use std::sync::Arc;

use proptest::prelude::*;
use smc_match::{EngineKind, MatchScratch, Matcher, RouteSnapshot};
use smc_types::codec::to_bytes;
use smc_types::{
    AttributeValue, Constraint, Event, Filter, Op, Packet, ServiceId, Subscription, SubscriptionId,
};

#[path = "support/naive.rs"]
mod naive;

use naive::NaiveEngine;

/// The naive linear scan first — the oracle the others are held to, and
/// deliberately not an `EngineKind` a cell can be configured with — then
/// every engine a cell can run.
fn oracle_and_engines() -> Vec<Box<dyn Matcher>> {
    let oracle: Box<dyn Matcher> = Box::new(NaiveEngine::new());
    std::iter::once(oracle)
        .chain(EngineKind::ALL.iter().map(|k| k.build()))
        .collect()
}

/// Above this, neighbouring ints fold onto one double.
const TWO_53: i64 = 1 << 53;

/// Small value alphabet so constraints and attributes collide often, plus
/// the values an equality index can get wrong: NaN (equals nothing), the
/// two zeros (equal), ints that compare equal once they are doubles, and
/// byte strings.
fn arb_value() -> impl Strategy<Value = AttributeValue> {
    prop_oneof![
        3 => (-4i64..4).prop_map(AttributeValue::Int),
        3 => (-4i64..4).prop_map(|i| AttributeValue::Double(i as f64 / 2.0)),
        3 => prop_oneof![Just("hr"), Just("hrx"), Just("bp"), Just("")]
            .prop_map(|s| AttributeValue::Str(s.to_string())),
        2 => any::<bool>().prop_map(AttributeValue::Bool),
        1 => prop_oneof![Just(f64::NAN), Just(-0.0f64), Just(TWO_53 as f64)]
            .prop_map(AttributeValue::Double),
        1 => prop_oneof![
            Just(TWO_53 - 1),
            Just(TWO_53),
            Just(TWO_53 + 1),
            Just(-TWO_53),
            Just(-TWO_53 - 1)
        ]
        .prop_map(AttributeValue::Int),
        1 => prop_oneof![Just(&b"hr"[..]), Just(&b""[..]), Just(&[0u8, 255][..])]
            .prop_map(|b| AttributeValue::Bytes(b.to_vec())),
    ]
}

fn arb_name() -> impl Strategy<Value = String> {
    prop_oneof![Just("a"), Just("b"), Just("c")].prop_map(str::to_string)
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
        proptest::option::of(prop_oneof![Just("t"), Just("u"), Just("v")]),
        proptest::collection::vec((arb_name(), arb_op(), arb_value()), 0..4),
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

fn arb_event() -> impl Strategy<Value = Event> {
    (
        prop_oneof![Just("t"), Just("u"), Just("v"), Just("w")],
        proptest::collection::vec((arb_name(), arb_value()), 0..4),
    )
        .prop_map(|(ty, attrs)| {
            let mut b = Event::builder(ty).publisher(ServiceId::from_raw(1)).seq(1);
            for (n, v) in attrs {
                b = b.attr(n, v);
            }
            b.build()
        })
}

fn arb_ward() -> impl Strategy<Value = AttributeValue> {
    prop_oneof![
        (0i64..3).prop_map(AttributeValue::Int),
        (0i64..3).prop_map(|i| AttributeValue::Double(i as f64)),
    ]
}

fn arb_kind() -> impl Strategy<Value = AttributeValue> {
    prop_oneof![Just("hr"), Just("bp")].prop_map(AttributeValue::from)
}

fn arb_threshold() -> impl Strategy<Value = (Op, i64)> {
    (
        prop_oneof![Just(Op::Ge), Just(Op::Le), Just(Op::Gt)],
        -4i64..4,
    )
}

/// `None` (any type) or one of the types the shaped events carry.
fn arb_filter_type() -> impl Strategy<Value = Option<&'static str>> {
    prop_oneof![3 => Just(Some("t")), 1 => Just(Some("u")), 1 => Just(None)]
}

/// A ward-like filter — `a == ward && b == kind` and a range on `c` —
/// typed or not, so one bucket holds members of several types and none.
fn arb_ward_filter() -> impl Strategy<Value = Filter> {
    (arb_filter_type(), arb_ward(), arb_kind(), arb_threshold()).prop_map(|(ty, w, k, (op, t))| {
        let f = ty.map_or_else(Filter::any, Filter::for_type);
        f.with(("a", Op::Eq, w))
            .with(("b", Op::Eq, k))
            .with(("c", op, t))
    })
}

/// The two equalities of [`arb_ward_filter`] and 4–6 more constraints over
/// `a` and `c` — a bucket member whose row is long and whose constraints
/// alternate between attributes — some of them with a NaN threshold.
fn arb_long_filter() -> impl Strategy<Value = Filter> {
    let threshold = prop_oneof![
        4 => (-4i64..4).prop_map(AttributeValue::Int),
        1 => (-8i64..8).prop_map(|i| AttributeValue::Double(i as f64 / 2.0)),
        1 => Just(AttributeValue::Double(f64::NAN)),
    ];
    let residual = (
        prop_oneof![Just("a"), Just("c")],
        prop_oneof![
            Just(Op::Ge),
            Just(Op::Le),
            Just(Op::Gt),
            Just(Op::Ne),
            Just(Op::Exists)
        ],
        threshold,
    );
    (
        arb_filter_type(),
        arb_ward(),
        arb_kind(),
        proptest::collection::vec(residual, 4..7),
    )
        .prop_map(|(ty, w, k, residuals)| {
            let mut f = ty
                .map_or_else(Filter::any, Filter::for_type)
                .with(("a", Op::Eq, w))
                .with(("b", Op::Eq, k));
            for (name, op, t) in residuals {
                f.push(Constraint::new(name, op, t));
            }
            f
        })
}

/// Filters of a few shapes over small alphabets, so that a cluster holds
/// many members and many filters are identical: ward-like (two equalities
/// and a range; typed, of another type, or untyped), long ward-like (six
/// to eight constraints), one equality, two equalities on one name (one
/// value twice, one value as `5` and as `5.0`, two different values),
/// `== NaN`, a clustered range on a NaN threshold, range-only (the
/// counting path), and anything [`arb_filter`] draws.
fn arb_shaped_filter() -> impl Strategy<Value = Filter> {
    let twice = |v: AttributeValue, w: AttributeValue| {
        Filter::any().with(("a", Op::Eq, v)).with(("a", Op::Eq, w))
    };
    prop_oneof![
        6 => arb_ward_filter(),
        2 => arb_long_filter(),
        2 => arb_ward().prop_map(|w| Filter::for_type("t").with(("a", Op::Eq, w))),
        1 => arb_ward().prop_map(move |w| twice(w.clone(), w)),
        1 => Just(twice(5i64.into(), 5.0f64.into())),
        1 => Just(twice(1i64.into(), 2i64.into())),
        1 => Just(Filter::any().with(("b", Op::Eq, f64::NAN))),
        1 => (arb_ward(), arb_threshold()).prop_map(|(w, (op, _))| {
            Filter::for_type("t")
                .with(("a", Op::Eq, w))
                .with(("c", op, f64::NAN))
        }),
        2 => arb_threshold().prop_map(|(op, t)| Filter::any().with(("c", op, t))),
        1 => arb_filter(),
    ]
}

/// Events over the shaped filters' names: mostly values of the type the
/// filters expect, sometimes a name missing or carrying another type, and
/// sometimes an event type no filter names.
fn arb_shaped_event() -> impl Strategy<Value = Event> {
    let a = prop_oneof![4 => arb_ward(), 1 => Just(5.0f64.into()), 1 => arb_value()];
    let b = prop_oneof![4 => arb_kind(), 1 => arb_value()];
    let c = prop_oneof![4 => (-4i64..4).prop_map(AttributeValue::Int), 1 => arb_value()];
    (
        prop_oneof![3 => Just("t"), 1 => Just("u"), 1 => Just("z")],
        proptest::option::of(a),
        proptest::option::of(b),
        proptest::option::of(c),
    )
        .prop_map(|(ty, a, b, c)| {
            let mut builder = Event::builder(ty).publisher(ServiceId::from_raw(1)).seq(1);
            for (name, value) in [("a", a), ("b", b), ("c", c)] {
                if let Some(value) = value {
                    builder = builder.attr(name, value);
                }
            }
            builder.build()
        })
}

fn subscribe_all(engines: &mut [Box<dyn Matcher>], id: u64, filter: &Filter) {
    let sub = Subscription::new(
        SubscriptionId(id),
        ServiceId::from_raw(100 + id % 3),
        filter.clone(),
    );
    for e in engines {
        e.subscribe(sub.clone()).unwrap();
    }
}

/// `event` as a cell or a subscriber holds it: sent as a `Publish` and
/// left in the message it arrived in, names and payload read out of the
/// received bytes.
fn adopted(event: &Event) -> Event {
    match Packet::from_message(to_bytes(&Packet::publish(event.clone()))) {
        Ok(Packet::Publish { event, .. }) => event,
        other => panic!("{event} came back as {other:?}"),
    }
}

/// Every engine answers `event` like the oracle (`engines[0]`) — and
/// every engine, the oracle included, answers the adopted form of it
/// like the built one.
fn assert_agree(engines: &mut [Box<dyn Matcher>], event: &Event) {
    let oracle = engines[0].matching_subscriptions(event);
    let oracle_svc = engines[0].matching_subscribers(event);
    let received = adopted(event);
    for e in engines {
        for form in [event, &received] {
            assert_eq!(
                e.matching_subscriptions(form),
                oracle,
                "engine {} disagrees with oracle on {form}",
                e.name()
            );
            assert_eq!(e.matching_subscribers(form), oracle_svc);
        }
    }
}

/// A snapshot, the subscription count and the oracle's answer for each
/// event at the moment it was taken.
type Frozen = (Arc<dyn RouteSnapshot>, usize, Vec<Vec<ServiceId>>);

/// Freezes `engine`, checks the snapshot against the oracle now, and
/// returns it with the oracle's answers for checking again later.
fn freeze(engine: &dyn Matcher, oracle: &mut dyn Matcher, events: &[Event]) -> Frozen {
    let answers = events
        .iter()
        .map(|ev| oracle.matching_subscribers(ev))
        .collect();
    let frozen = (engine.snapshot(), oracle.len(), answers);
    assert_frozen(&frozen, events);
    frozen
}

fn assert_frozen((snap, len, answers): &Frozen, events: &[Event]) {
    let mut scratch = MatchScratch::new();
    let mut out = Vec::new();
    assert_eq!(snap.len(), *len);
    for (ev, want) in events.iter().zip(answers) {
        for form in [ev, &adopted(ev)] {
            snap.matching_subscribers_into(form, &mut scratch, &mut out);
            assert_eq!(&out, want, "snapshot of {len} subscriptions on {form}");
        }
    }
}

/// Slots per chunk of the forwarding table's vectors; the multi-chunk
/// property spans at least three.
const CHUNK: usize = 64;

/// `filter` narrowed by a constraint on `d` that no other filter carries:
/// a threshold of its own. Every such filter is distinct, and so is every
/// such constraint, so `n` of them fill `n` filter and constraint slots.
fn own(filter: &Filter, op: Op, threshold: usize) -> Filter {
    filter.clone().with(("d", op, threshold as i64 - 160))
}

fn arb_own_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Ne),
        Just(Op::Ge),
        Just(Op::Le),
        Just(Op::Gt),
        Just(Op::Lt)
    ]
}

/// A shaped event, mostly with a `d` somewhere among the thresholds [`own`]
/// hands out.
fn arb_own_event() -> impl Strategy<Value = Event> {
    let d = prop_oneof![
        6 => (-170i64..400).prop_map(AttributeValue::Int),
        1 => arb_value(),
    ];
    (arb_shaped_event(), proptest::option::of(d)).prop_map(|(event, d)| match d {
        Some(d) => event.with_attr("d", d),
        None => event,
    })
}

/// Every engine after the oracle, frozen and checked against it.
fn freeze_each(engines: &mut [Box<dyn Matcher>], events: &[Event], kept: &mut Vec<Frozen>) {
    let (oracle, rest) = engines.split_first_mut().expect("an oracle");
    for engine in rest {
        kept.push(freeze(&**engine, &mut **oracle, events));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Subscribing, unsubscribing and re-subscribing the same few filter
    /// shapes — until every cluster has emptied and refilled and every
    /// slot has been reused — never makes an engine leave the oracle.
    #[test]
    fn engines_agree_through_cluster_churn(
        filters in proptest::collection::vec(arb_shaped_filter(), 1..200),
        ops in proptest::collection::vec((any::<prop::sample::Index>(), any::<bool>()), 0..48),
        events in proptest::collection::vec(arb_shaped_event(), 1..6),
    ) {
        let mut engines = oracle_and_engines();
        let mut live: Vec<u64> = (0..filters.len() as u64).collect();
        let mut next_id = live.len() as u64;
        for (&id, f) in live.iter().zip(&filters) {
            subscribe_all(&mut engines, id, f);
        }
        for ev in &events {
            assert_agree(&mut engines, ev);
        }
        // Churn: one more subscription to a filter already there, or one
        // fewer of whatever is live.
        for (step, (idx, add)) in ops.into_iter().enumerate() {
            if add || live.is_empty() {
                subscribe_all(&mut engines, next_id, &filters[idx.index(filters.len())]);
                live.push(next_id);
                next_id += 1;
            } else {
                let id = live.swap_remove(idx.index(live.len()));
                for e in &mut engines {
                    prop_assert_eq!(e.unsubscribe(SubscriptionId(id)).unwrap().id, SubscriptionId(id));
                }
            }
            assert_agree(&mut engines, &events[step % events.len()]);
        }
        // Drain: every cluster, posting list and slot is given back.
        for id in live.drain(..) {
            for e in &mut engines {
                e.unsubscribe(SubscriptionId(id)).unwrap();
            }
        }
        for ev in &events {
            for e in &mut engines {
                prop_assert!(e.is_empty());
                prop_assert!(e.matching_subscriptions(ev).is_empty(), "{} after drain", e.name());
            }
        }
        // Refill, in the other order, into the reused slots.
        for f in filters.iter().rev() {
            subscribe_all(&mut engines, next_id, f);
            next_id += 1;
        }
        for ev in &events {
            assert_agree(&mut engines, ev);
        }
    }

    /// All engines return identical subscription sets for every event.
    #[test]
    fn engines_agree(
        filters in proptest::collection::vec(arb_filter(), 0..12),
        events in proptest::collection::vec(arb_event(), 1..12),
    ) {
        let mut engines = oracle_and_engines();
        for (i, f) in filters.iter().enumerate() {
            let sub = Subscription::new(
                SubscriptionId(i as u64),
                ServiceId::from_raw(100 + (i % 3) as u64),
                f.clone(),
            );
            for e in &mut engines {
                e.subscribe(sub.clone()).unwrap();
            }
        }
        for ev in &events {
            let oracle = engines[0].matching_subscriptions(ev);
            for e in &mut engines[1..] {
                let got = e.matching_subscriptions(ev);
                prop_assert_eq!(
                    &got, &oracle,
                    "engine {} disagrees with oracle on {}", e.name(), ev
                );
            }
            let oracle_svc = engines[0].matching_subscribers(ev);
            for e in &mut engines[1..] {
                prop_assert_eq!(&e.matching_subscribers(ev), &oracle_svc);
            }
        }
    }

    /// Every engine's frozen snapshot answers exactly like the live
    /// engine, and stays pinned to the subscription set it was taken
    /// from even after the engine mutates: every snapshot taken along the
    /// way is checked again, after all later mutations, against the
    /// oracle's answer recorded when it was taken — a snapshot is a value
    /// even where it shares memory with its successors.
    #[test]
    fn snapshots_agree_with_engines(
        filters in proptest::collection::vec(arb_filter(), 1..10),
        events in proptest::collection::vec(arb_event(), 1..8),
        shaped in proptest::collection::vec(arb_shaped_filter(), 0..24),
        shaped_events in proptest::collection::vec(arb_shaped_event(), 0..6),
    ) {
        let filters = [filters, shaped].concat();
        let events = [events, shaped_events].concat();
        let mut scratch = MatchScratch::new();
        let mut out = Vec::new();
        for which in 0..oracle_and_engines().len() {
            let fresh = || oracle_and_engines().swap_remove(which);
            let mut engine = fresh();
            let mut oracle: Box<dyn Matcher> = Box::new(NaiveEngine::new());
            let mut kept: Vec<Frozen> = Vec::new();
            for (i, f) in filters.iter().enumerate() {
                let sub = Subscription::new(
                    SubscriptionId(i as u64),
                    ServiceId::from_raw(100 + (i % 3) as u64),
                    f.clone(),
                );
                engine.subscribe(sub.clone()).unwrap();
                oracle.subscribe(sub).unwrap();
                kept.push(freeze(&*engine, &mut *oracle, &events));
            }
            let snap = engine.snapshot();
            prop_assert_eq!(snap.len(), engine.len());
            for ev in &events {
                let live = engine.matching_subscribers(ev);
                snap.matching_subscribers_into(ev, &mut scratch, &mut out);
                prop_assert_eq!(&out, &live,
                    "{} snapshot disagrees with engine on {}", engine.name(), ev);
            }
            // Mutating the engine must not leak into the taken snapshot.
            engine.unsubscribe(SubscriptionId(0)).unwrap();
            oracle.unsubscribe(SubscriptionId(0)).unwrap();
            for ev in &events {
                snap.matching_subscribers_into(ev, &mut scratch, &mut out);
                let mut stale = fresh();
                for (i, f) in filters.iter().enumerate() {
                    stale.subscribe(Subscription::new(
                        SubscriptionId(i as u64),
                        ServiceId::from_raw(100 + (i % 3) as u64),
                        f.clone(),
                    )).unwrap();
                }
                prop_assert_eq!(&out, &stale.matching_subscribers(ev),
                    "{} snapshot changed after engine mutation", engine.name());
            }
            kept.push(freeze(&*engine, &mut *oracle, &events));
            for i in 1..filters.len() as u64 {
                engine.unsubscribe(SubscriptionId(i)).unwrap();
                oracle.unsubscribe(SubscriptionId(i)).unwrap();
                kept.push(freeze(&*engine, &mut *oracle, &events));
            }
            for frozen in &kept {
                assert_frozen(frozen, &events);
            }
        }
    }

    /// One scratch handed, event by event, between two fast-forward
    /// engines that number their constraints differently (the same
    /// filters subscribed in opposite orders) and between a snapshot and
    /// its successor answers every event like the oracle: the predicate
    /// memo is indexed by constraint id, and only the match generation
    /// tells one match's verdicts from another's.
    #[test]
    fn one_scratch_alternates_between_engines_and_snapshots(
        filters in proptest::collection::vec(arb_shaped_filter(), 1..60),
        extra in arb_shaped_filter(),
        events in proptest::collection::vec(arb_shaped_event(), 1..8),
    ) {
        let sub = |i: usize, f: &Filter| {
            Subscription::new(SubscriptionId(i as u64), ServiceId::from_raw(100 + (i % 3) as u64), f.clone())
        };
        let mut oracle = NaiveEngine::new();
        let mut forward = EngineKind::FastForward.build();
        let mut backward = EngineKind::FastForward.build();
        for (i, f) in filters.iter().enumerate() {
            oracle.subscribe(sub(i, f)).unwrap();
            forward.subscribe(sub(i, f)).unwrap();
        }
        for (i, f) in filters.iter().enumerate().rev() {
            backward.subscribe(sub(i, f)).unwrap();
        }
        let answers = |oracle: &mut NaiveEngine| -> Vec<Vec<ServiceId>> {
            events.iter().map(|ev| oracle.matching_subscribers(ev)).collect()
        };
        let before = answers(&mut oracle);
        let (first, other) = (forward.snapshot(), backward.snapshot());
        // The successor: one filter more, one fewer.
        forward.subscribe(sub(filters.len(), &extra)).unwrap();
        oracle.subscribe(sub(filters.len(), &extra)).unwrap();
        forward.unsubscribe(SubscriptionId(0)).unwrap();
        oracle.unsubscribe(SubscriptionId(0)).unwrap();
        let after = answers(&mut oracle);
        let successor = forward.snapshot();

        let turns = [(&first, &before), (&other, &before), (&successor, &after)];
        let mut scratch = MatchScratch::new();
        let mut out = Vec::new();
        for round in 0..turns.len() {
            for (i, ev) in events.iter().enumerate() {
                for (snap, want) in turns.iter().cycle().skip(round + i).take(turns.len()) {
                    snap.matching_subscribers_into(ev, &mut scratch, &mut out);
                    prop_assert_eq!(&out, &want[i], "round {} on {}", round, ev);
                }
            }
        }
    }

    /// Engines agree after an arbitrary unsubscription interleaving.
    #[test]
    fn engines_agree_after_unsubscribes(
        filters in proptest::collection::vec(arb_filter(), 1..10),
        removals in proptest::collection::vec(any::<prop::sample::Index>(), 0..6),
        events in proptest::collection::vec(arb_event(), 1..8),
    ) {
        let mut engines = oracle_and_engines();
        for (i, f) in filters.iter().enumerate() {
            let sub = Subscription::new(
                SubscriptionId(i as u64),
                ServiceId::from_raw(100 + i as u64),
                f.clone(),
            );
            for e in &mut engines {
                e.subscribe(sub.clone()).unwrap();
            }
        }
        let mut live: Vec<u64> = (0..filters.len() as u64).collect();
        for idx in removals {
            if live.is_empty() { break; }
            let id = live.remove(idx.index(live.len()));
            for e in &mut engines {
                let removed = e.unsubscribe(SubscriptionId(id)).unwrap();
                prop_assert_eq!(removed.id, SubscriptionId(id));
            }
        }
        for e in &engines {
            prop_assert_eq!(e.len(), live.len());
        }
        for ev in &events {
            let oracle = engines[0].matching_subscriptions(ev);
            for e in &mut engines[1..] {
                prop_assert_eq!(e.matching_subscriptions(ev), oracle.clone(),
                    "engine {} after removals", e.name());
            }
        }
    }

    /// Re-subscribing the same filters after a full clear behaves like a
    /// fresh engine (slot reuse is invisible).
    #[test]
    fn clear_and_reload_is_fresh(
        filters in proptest::collection::vec(arb_filter(), 1..8),
        ev in arb_event(),
    ) {
        for mut engine in oracle_and_engines() {
            for (i, f) in filters.iter().enumerate() {
                engine.subscribe(Subscription::new(
                    SubscriptionId(i as u64), ServiceId::from_raw(1), f.clone())).unwrap();
            }
            let first = engine.matching_subscriptions(&ev);
            for i in 0..filters.len() as u64 {
                engine.unsubscribe(SubscriptionId(i)).unwrap();
            }
            prop_assert!(engine.is_empty());
            prop_assert!(engine.matching_subscriptions(&ev).is_empty());
            for (i, f) in filters.iter().enumerate() {
                engine.subscribe(Subscription::new(
                    SubscriptionId(i as u64), ServiceId::from_raw(1), f.clone())).unwrap();
            }
            prop_assert_eq!(engine.matching_subscriptions(&ev), first);
        }
    }

    /// `overlaps` is sound w.r.t. actual matching: if an event matches two
    /// filters, they overlap.
    #[test]
    fn overlap_soundness(f1 in arb_filter(), f2 in arb_filter(), ev in arb_event()) {
        if f1.matches(&ev) && f2.matches(&ev) {
            prop_assert!(smc_match::overlaps(&f1, &f2), "f1={f1} f2={f2} ev={ev}");
        }
    }

    /// Filters kept by `minimal_cover` preserve the union of matches.
    #[test]
    fn minimal_cover_preserves_matching(
        filters in proptest::collection::vec(arb_filter(), 0..8),
        ev in arb_event(),
    ) {
        let keep = smc_match::minimal_cover(&filters);
        let full: bool = filters.iter().any(|f| f.matches(&ev));
        let reduced: bool = keep.iter().any(|&i| filters[i].matches(&ev));
        prop_assert_eq!(full, reduced);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// Tables past one chunk: a few hundred distinct filters over as many
    /// distinct constraints fill at least three 64-slot chunks of each.
    /// Every engine agrees with the oracle after the table is built, after
    /// the subscriptions around the first two chunk boundaries are dropped,
    /// after new ones reuse those slots — on both sides of each boundary —
    /// and through random churn; and every snapshot taken along the way
    /// still answers, at the end, as the oracle did when it was taken.
    #[test]
    fn engines_agree_across_chunks(
        filters in proptest::collection::vec((arb_shaped_filter(), arb_own_op()), 3 * CHUNK..5 * CHUNK),
        refill in proptest::collection::vec((arb_shaped_filter(), arb_own_op()), CHUNK / 2..CHUNK),
        ops in proptest::collection::vec((any::<prop::sample::Index>(), any::<bool>()), 0..24),
        events in proptest::collection::vec(arb_own_event(), 1..6),
    ) {
        let mut engines = oracle_and_engines();
        let mut kept: Vec<Frozen> = Vec::new();
        let filters: Vec<Filter> = filters
            .iter()
            .enumerate()
            .map(|(i, (f, op))| own(f, *op, i))
            .collect();
        for (id, f) in filters.iter().enumerate() {
            subscribe_all(&mut engines, id as u64, f);
            if (id + 1) % CHUNK == 0 {
                freeze_each(&mut engines, &events, &mut kept);
            }
        }
        for ev in &events {
            assert_agree(&mut engines, ev);
        }
        freeze_each(&mut engines, &events, &mut kept);

        // Free the slots either side of the first two chunk boundaries.
        let freed: Vec<u64> = (CHUNK - 8..CHUNK + 8)
            .chain(2 * CHUNK - 8..2 * CHUNK + 8)
            .map(|i| i as u64)
            .collect();
        for &id in &freed {
            for e in &mut engines {
                prop_assert_eq!(e.unsubscribe(SubscriptionId(id)).unwrap().id, SubscriptionId(id));
            }
        }
        for ev in &events {
            assert_agree(&mut engines, ev);
        }
        freeze_each(&mut engines, &events, &mut kept);

        // New filters take the freed slots, then new ones past the end.
        let mut live: Vec<u64> = (0..filters.len() as u64).filter(|id| !freed.contains(id)).collect();
        let mut next_id = filters.len() as u64;
        for (j, (f, op)) in refill.iter().enumerate() {
            let f = own(f, *op, filters.len() + j);
            subscribe_all(&mut engines, next_id, &f);
            live.push(next_id);
            next_id += 1;
            if j % 8 == 7 {
                freeze_each(&mut engines, &events, &mut kept);
            }
        }
        for ev in &events {
            assert_agree(&mut engines, ev);
        }

        // Churn: one more subscription to a filter already there, or one
        // fewer of whatever is live.
        for (step, (idx, add)) in ops.into_iter().enumerate() {
            if add {
                subscribe_all(&mut engines, next_id, &filters[idx.index(filters.len())]);
                live.push(next_id);
                next_id += 1;
            } else {
                let id = live.swap_remove(idx.index(live.len()));
                for e in &mut engines {
                    e.unsubscribe(SubscriptionId(id)).unwrap();
                }
            }
            assert_agree(&mut engines, &events[step % events.len()]);
            if step % 4 == 3 {
                freeze_each(&mut engines, &events, &mut kept);
            }
        }
        for frozen in &kept {
            assert_frozen(frozen, &events);
        }
    }
}
