//! A step of a step-driven channel is a turn of the receive loop a
//! threaded channel's receive thread runs: the same drain under one cork,
//! and the same scan — retransmissions and held acknowledgements — only
//! once a `poll_interval` of the channel's clock has passed since the
//! last. These tests pin the three rules on a `ManualClock`, where the
//! clock moves only when the test says so.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use smc_transport::{Incoming, LinkConfig, ReliableChannel, ReliableConfig, SimNetwork, Transport};
use smc_types::{ManualClock, SharedClock};

/// Two step-driven channels on an ideal virtual-time link, and the clock
/// that times them.
fn pair() -> (
    Arc<ManualClock>,
    SimNetwork,
    Arc<ReliableChannel>,
    Arc<ReliableChannel>,
) {
    let clock = Arc::new(ManualClock::new());
    let shared: SharedClock = clock.clone();
    let net = SimNetwork::with_clock(LinkConfig::ideal(), 50, Arc::clone(&shared));
    let channel = || {
        ReliableChannel::with_clock(
            Arc::new(net.endpoint()),
            ReliableConfig::default(),
            Arc::clone(&shared),
        )
    };
    let (a, b) = (channel(), channel());
    (clock, net, a, b)
}

fn poll_micros() -> u64 {
    ReliableConfig::default().poll_interval.as_micros() as u64
}

/// Steps with no time passing send no standalone acknowledgement; the
/// step after a `poll_interval` sends what was held.
#[test]
fn a_held_ack_leaves_on_the_scan_not_on_the_next_step() {
    let (clock, _net, a, b) = pair();
    let receipt = a.send_with_receipt(b.local_id(), vec![1]).unwrap();
    assert_eq!(b.step(), 1, "the data frame arrives");
    assert!(b.try_recv().is_some(), "and is delivered");
    assert_eq!(b.step(), 0);
    assert_eq!(a.step(), 0, "two steps in one instant sent no ack");
    assert_eq!(receipt.poll(), None);

    clock.advance_micros(poll_micros() - 1);
    b.step();
    assert_eq!(a.step(), 0, "nor did a step inside the interval");

    clock.advance_micros(1);
    assert_eq!(b.step(), 0);
    assert_eq!(a.step(), 1, "the scan sent the held ack");
    assert_eq!(receipt.poll(), Some(Ok(())));
}

/// B's handler forwards every message to C over the mem link. While it
/// runs — inside B's step, which takes the whole run A queued at B in one
/// drain — nothing it forwarded has reached C; once the step returns, C
/// holds all of it, in order.
#[test]
fn a_handlers_sends_leave_when_the_steps_drain_ends() {
    const N: u8 = 8;
    let (_clock, net, a, b) = pair();
    let c = Arc::new(net.endpoint());
    let (c_id, seen_mid_drain) = (c.local_id(), Arc::new(Mutex::new(Vec::new())));
    {
        let (b_weak, c, seen) = (
            Arc::downgrade(&b),
            Arc::clone(&c),
            Arc::clone(&seen_mid_drain),
        );
        b.set_handler(Box::new(move |incoming| {
            let Incoming::Reliable { payload, .. } = incoming else {
                return;
            };
            if let Some(b) = b_weak.upgrade() {
                b.send(c_id, payload.into_vec()).unwrap();
            }
            while let Ok(datagram) = c.recv(Some(Duration::ZERO)) {
                seen.lock().unwrap().push(datagram.payload.into_vec());
            }
        }));
    }
    for n in 1..=N {
        a.send(b.local_id(), vec![n]).unwrap();
    }
    assert_eq!(b.step(), N as usize, "one step takes the run");
    assert_eq!(
        *seen_mid_drain.lock().unwrap(),
        Vec::<Vec<u8>>::new(),
        "a forward left inside the drain"
    );
    let forwarded: Vec<u8> = std::iter::from_fn(|| c.recv(Some(Duration::ZERO)).ok())
        .map(|datagram| *datagram.payload.last().expect("a data frame"))
        .collect();
    assert_eq!(forwarded, (1..=N).collect::<Vec<_>>());
}

/// A message whose retransmission timeout has passed is resent on the
/// scan, not on a step inside the interval.
#[test]
fn a_due_retransmission_waits_for_the_scan() {
    let (clock, net, a, b) = pair();
    let rto = ReliableConfig::default().initial_rto.as_micros() as u64;
    net.set_partitioned(a.local_id(), b.local_id(), true);
    a.send(b.local_id(), vec![1]).unwrap();
    // A scan before the timeout: nothing is due, and the next scan is a
    // poll interval after this one.
    let scanned_at = rto - poll_micros() / 2;
    clock.set_micros(scanned_at);
    a.step();
    assert_eq!(a.stats().retransmits, 0);

    clock.set_micros(rto);
    a.step();
    assert_eq!(
        a.stats().retransmits,
        0,
        "resent on a step inside the interval"
    );

    clock.set_micros(scanned_at + poll_micros());
    a.step();
    assert_eq!(a.stats().retransmits, 1, "the scan resends it");
}
