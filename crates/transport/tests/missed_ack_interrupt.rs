//! The missed-ack interrupt line: the first retransmission round against
//! a silent peer must pulse the installed interrupt so a failure
//! detector can wake immediately, instead of discovering the outage on
//! its next sampling window. Driven under a [`ManualClock`] —
//! deterministic, no sleeps.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use smc_transport::{LinkConfig, ReliableChannel, ReliableConfig, SimNetwork};
use smc_types::{ManualClock, SharedClock};

#[test]
fn missed_ack_pulses_the_interrupt_line() {
    let clock = Arc::new(ManualClock::new());
    let shared: SharedClock = clock.clone();
    let net = SimNetwork::with_clock(LinkConfig::ideal(), 7, Arc::clone(&shared));

    let config = ReliableConfig::default();
    let tx = ReliableChannel::with_clock(
        Arc::new(net.endpoint()),
        config.clone(),
        Arc::clone(&shared),
    );
    let rx = ReliableChannel::with_clock(Arc::new(net.endpoint()), config, Arc::clone(&shared));

    let line = Arc::new(AtomicU64::new(0));
    tx.set_missed_ack_interrupt(Arc::clone(&line));

    // A healthy exchange never trips the interrupt: acks arrive before
    // any retransmission deadline.
    let receipt = tx.send_with_receipt(rx.local_id(), vec![1]).expect("send");
    net.pump_due();
    rx.step();
    // The ack was held through the owner's turn; the next step sends it.
    rx.step();
    tx.step();
    receipt
        .wait(std::time::Duration::ZERO)
        .expect("acked on the healthy link");
    assert_eq!(
        line.load(Ordering::Relaxed),
        0,
        "no interrupt while healthy"
    );
    assert_eq!(tx.stats().missed_ack_interrupts, 0);

    // Kill the link: the peer goes silent mid-message. The moment the
    // first ack deadline lapses, the retransmission round must pulse the
    // interrupt line — that is the wake-up a supervising monitor keys on.
    net.set_link(
        tx.local_id(),
        rx.local_id(),
        LinkConfig::ideal().with_loss(1.0),
    );
    tx.send(rx.local_id(), vec![2]).expect("send into the void");
    tx.step();
    assert_eq!(
        line.load(Ordering::Relaxed),
        0,
        "no interrupt before the ack deadline"
    );

    let mut rounds = 0u64;
    for _ in 0..50 {
        clock.advance_millis(20);
        net.pump_due();
        tx.step();
        rounds = line.load(Ordering::Relaxed);
        if rounds > 0 {
            break;
        }
    }
    assert!(rounds >= 1, "a silent peer must pulse the interrupt line");
    assert_eq!(
        tx.stats().missed_ack_interrupts,
        rounds,
        "the stats counter mirrors the line"
    );

    // Keep the peer silent: every further retransmission round keeps
    // pulsing, so a monitor that missed one wake still catches up.
    for _ in 0..50 {
        clock.advance_millis(20);
        net.pump_due();
        tx.step();
    }
    assert!(
        line.load(Ordering::Relaxed) > rounds,
        "continued silence keeps interrupting"
    );
}
