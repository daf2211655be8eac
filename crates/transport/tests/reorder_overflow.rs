//! Regression test: reorder-buffer overflow must not wedge the stream.
//!
//! When a gap at the head of the stream (a lost message) lets the sender's
//! window race ahead, the receiver can only buffer `reorder_buffer`
//! out-of-order messages. Anything beyond that must be dropped *without*
//! acknowledgement — an acked-but-dropped message would never be
//! retransmitted and the FIFO stream would stall forever once the gap
//! closes. This drives the whole exchange under a [`ManualClock`]:
//! deterministic, no sleeps.

use std::sync::Arc;
use std::time::Duration;

use smc_transport::{Incoming, LinkConfig, ReliableChannel, ReliableConfig, SimNetwork};
use smc_types::{ManualClock, SharedClock};

#[test]
fn reorder_overflow_drops_backlog_then_recovers_in_order() {
    let clock = Arc::new(ManualClock::new());
    let shared: SharedClock = clock.clone();
    let net = SimNetwork::with_clock(LinkConfig::ideal(), 5, Arc::clone(&shared));

    let config = ReliableConfig {
        reorder_buffer: 4,
        ..ReliableConfig::default()
    };
    let tx = ReliableChannel::with_clock(
        Arc::new(net.endpoint()),
        config.clone(),
        Arc::clone(&shared),
    );
    let rx = ReliableChannel::with_clock(Arc::new(net.endpoint()), config, Arc::clone(&shared));

    let step_all = || {
        net.pump_due();
        // Two passes so acks produced by the receiver's pass reach the
        // sender within the same virtual instant (ideal links deliver
        // synchronously into the peer's queue).
        rx.step();
        tx.step();
        rx.step();
        tx.step();
    };

    // Message 1 vanishes on the wire: the head of the stream is a gap.
    net.set_link(
        tx.local_id(),
        rx.local_id(),
        LinkConfig::ideal().with_loss(1.0),
    );
    let first = tx
        .send_with_receipt(rx.local_id(), vec![1])
        .expect("send 1");
    step_all();

    // Heal the link and pour 19 more messages through the open window.
    // The receiver buffers (and acks) seqs 2..=6, then must drop the rest
    // unacked: its reorder buffer is only 4 deep.
    net.set_link(tx.local_id(), rx.local_id(), LinkConfig::ideal());
    for n in 2u8..=20 {
        tx.send(rx.local_id(), vec![n]).expect("send");
    }
    step_all();
    assert!(
        rx.try_recv().is_none(),
        "nothing may be delivered while the head of the stream is missing"
    );
    let backlog = tx.pending(rx.local_id());
    assert!(
        backlog > 1,
        "the dropped backlog must still count as pending (got {backlog})"
    );

    // Let the retransmission timer fire: message 1 and every dropped
    // message come back, and the stream drains strictly in order.
    let mut delivered = Vec::new();
    for _ in 0..200 {
        clock.advance_millis(20);
        step_all();
        while let Ok(Incoming::Reliable { payload, .. }) = rx.recv(Some(Duration::ZERO)) {
            delivered.push(payload[0]);
        }
        if delivered.len() == 20 {
            break;
        }
    }
    // The acks of the last deliveries were held through that turn; one
    // more round, a poll interval later, sends them.
    clock.advance_millis(20);
    step_all();
    assert_eq!(
        delivered,
        (1u8..=20).collect::<Vec<_>>(),
        "every message must arrive exactly once, in send order"
    );
    first
        .wait(Duration::ZERO)
        .expect("message 1 fully acknowledged");
    assert_eq!(tx.pending(rx.local_id()), 0);

    let stats = tx.stats();
    assert_eq!(stats.msgs_acked, 20);
    assert!(
        stats.retransmits >= 14,
        "the lost head plus the dropped backlog must be retransmitted \
         (got {} retransmits)",
        stats.retransmits
    );
}
