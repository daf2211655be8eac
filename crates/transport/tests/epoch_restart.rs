//! Session epochs across restarts, and the channel journal hooks that
//! make a restart *recoverable*.
//!
//! Covers the core-restart path end to end at the transport layer:
//!
//! * a peer that restarts with a higher epoch while its old session
//!   still has unacked traffic in flight — the stale epoch must be
//!   rejected and the new FIFO stream must start clean at seq 1;
//! * a journalled receiver restarting **with** restored cursors
//!   suppresses redelivery of everything it delivered before the crash
//!   (exactly-once across restart);
//! * the same restart **without** cursors redelivers — the failure mode
//!   the WAL exists to prevent, and the one the chaos oracle flags;
//! * a journal write failure defers both delivery and acknowledgement
//!   until the journal succeeds, so an acked message is always durably
//!   recorded.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use smc_transport::{
    ChannelJournal, Incoming, LinkConfig, ReliableChannel, ReliableConfig, SimNetwork,
};
use smc_types::{Error, ManualClock, Result, ServiceId, SharedBytes, SharedClock};

/// A journal that records cursor advances and can be told to fail.
#[derive(Debug, Default)]
struct RecordingJournal {
    cursors: Mutex<Vec<(ServiceId, u64, u64)>>,
    failing: Mutex<bool>,
}

impl RecordingJournal {
    fn set_failing(&self, failing: bool) {
        *self.failing.lock() = failing;
    }

    fn cursors(&self) -> Vec<(ServiceId, u64, u64)> {
        self.cursors.lock().clone()
    }
}

impl ChannelJournal for RecordingJournal {
    fn on_deliver(&self, peer: ServiceId, epoch: u64, seq: u64) -> Result<()> {
        if *self.failing.lock() {
            return Err(Error::Io("injected journal failure".into()));
        }
        // Record the cursor position the delivery advances to, as the
        // WAL's cursor-only journal would.
        self.cursors.lock().push((peer, epoch, seq + 1));
        Ok(())
    }

    fn on_enqueue(&self, _peer: ServiceId, _seq: u64, _payload: &SharedBytes) -> Result<()> {
        Ok(())
    }

    fn on_acked(&self, _peer: ServiceId, _seqs: &[u64]) -> Result<()> {
        Ok(())
    }

    fn on_forget(&self, _peer: ServiceId) -> Result<()> {
        Ok(())
    }
}

fn drain(chan: &ReliableChannel) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    while let Ok(Incoming::Reliable { payload, .. }) = chan.recv(Some(Duration::ZERO)) {
        out.push(payload.into_vec());
    }
    out
}

/// Satellite regression: a sender restarts with a higher epoch while its
/// old session still has unacked messages in flight. The receiver must
/// reject the stale-epoch stragglers outright (no ack, no delivery) and
/// deliver the reborn session's stream cleanly from seq 1.
#[test]
fn restart_with_higher_epoch_rejects_stale_traffic_and_starts_clean() {
    let clock = Arc::new(ManualClock::new());
    let shared: SharedClock = clock.clone();
    let net = SimNetwork::with_clock(LinkConfig::ideal(), 11, Arc::clone(&shared));

    let config = ReliableConfig::default();
    let old = ReliableChannel::with_clock(
        Arc::new(net.endpoint()),
        config.clone(),
        Arc::clone(&shared),
    );
    let rx = ReliableChannel::with_clock(
        Arc::new(net.endpoint()),
        config.clone(),
        Arc::clone(&shared),
    );
    let sender_id = old.local_id();

    // Two messages of the old session arrive and are delivered normally.
    old.send(rx.local_id(), vec![0xA1]).unwrap();
    old.send(rx.local_id(), vec![0xA2]).unwrap();
    net.pump_due();
    rx.step();
    assert_eq!(drain(&rx), vec![vec![0xA1], vec![0xA2]]);
    // The acks were held through our turn; the scan a poll interval
    // later sends them.
    clock.advance_millis(20);
    rx.step();
    net.pump_due();
    old.step();
    assert_eq!(old.pending(rx.local_id()), 0);

    // Three more are sent into a slow pipe and are still in flight —
    // unacked — when the sender dies.
    net.set_link(
        sender_id,
        rx.local_id(),
        LinkConfig::ideal().with_latency(Duration::from_millis(50)),
    );
    for n in [0xA3u8, 0xA4, 0xA5] {
        old.send(rx.local_id(), vec![n]).unwrap();
    }
    assert_eq!(old.pending(rx.local_id()), 3);
    old.close();

    // The reborn sender reuses the identity but gets a strictly higher
    // epoch, and its first message overtakes the old session's
    // stragglers (ideal-latency link vs. the 50 ms pipe).
    let reborn = ReliableChannel::with_clock(
        Arc::new(net.endpoint_with_id(sender_id)),
        config,
        Arc::clone(&shared),
    );
    net.set_link(sender_id, rx.local_id(), LinkConfig::ideal());
    reborn.send(rx.local_id(), vec![0xB1]).unwrap();
    net.pump_due();
    rx.step();
    assert_eq!(
        drain(&rx),
        vec![vec![0xB1]],
        "the new session starts clean at seq 1"
    );

    // Now the stale-epoch stragglers land — and must be ignored.
    clock.advance_millis(60);
    net.pump_due();
    rx.step();
    assert_eq!(
        drain(&rx),
        Vec::<Vec<u8>>::new(),
        "stale-epoch traffic must not be delivered"
    );

    // The new session's FIFO keeps flowing undisturbed.
    reborn.send(rx.local_id(), vec![0xB2]).unwrap();
    net.pump_due();
    rx.step();
    clock.advance_millis(20);
    rx.step();
    reborn.step();
    assert_eq!(drain(&rx), vec![vec![0xB2]]);
    assert_eq!(
        reborn.pending(rx.local_id()),
        0,
        "the new session's sends are acked"
    );
    assert_eq!(rx.stats().msgs_delivered, 4);
}

/// The same restart seen from the other side: the receiver still holds
/// acknowledgements for the dead session when it next sends data to that
/// identity, so the frame's ack field echoes a dead epoch. The reborn
/// sender must take the data and ignore the ack — its own message 1 is
/// not what "up to 3" was said about.
#[test]
fn piggybacked_ack_for_a_dead_epoch_is_ignored() {
    let clock = Arc::new(ManualClock::new());
    let shared: SharedClock = clock.clone();
    let net = SimNetwork::with_clock(LinkConfig::ideal(), 12, Arc::clone(&shared));
    let channel = |endpoint| {
        ReliableChannel::with_clock(
            Arc::new(endpoint),
            ReliableConfig::default(),
            Arc::clone(&shared),
        )
    };
    let old = channel(net.endpoint());
    let rx = channel(net.endpoint());
    let sender_id = old.local_id();

    // Three messages of the old session are delivered; their acks are
    // held through the receiver's turn, and the sender dies first.
    for n in [0xA1u8, 0xA2, 0xA3] {
        old.send(rx.local_id(), vec![n]).unwrap();
    }
    rx.step();
    assert_eq!(drain(&rx).len(), 3);
    old.close();

    // The reborn sender's first message is lost, so the receiver has not
    // heard of the new session when it sends data of its own.
    let reborn = channel(net.endpoint_with_id(sender_id));
    net.set_link(sender_id, rx.local_id(), LinkConfig::ideal().with_loss(1.0));
    reborn.send(rx.local_id(), vec![0xB1]).unwrap();
    net.set_link(sender_id, rx.local_id(), LinkConfig::ideal());
    rx.send(sender_id, vec![0xC1]).unwrap();
    reborn.step();
    assert_eq!(drain(&reborn), vec![vec![0xC1]], "the data is delivered");
    assert_eq!(
        reborn.pending(rx.local_id()),
        1,
        "an ack echoing the dead epoch must not retire the new session's message"
    );

    // The retransmission introduces the new session; now the ack counts.
    clock.advance_millis(100);
    reborn.step();
    rx.step();
    assert_eq!(drain(&rx), vec![vec![0xB1]]);
    rx.step();
    reborn.step();
    assert_eq!(reborn.pending(rx.local_id()), 0);
}

/// Builds the redelivery scenario shared by the next two tests: a device
/// sends 10 messages a journalled core delivers, then two more whose
/// acknowledgements never escape the core before it "crashes". Returns
/// everything the restarted core needs.
#[allow(clippy::type_complexity)]
fn crashed_core_scenario(
    seed: u64,
) -> (
    Arc<ManualClock>,
    SimNetwork,
    Arc<ReliableChannel>,
    Arc<RecordingJournal>,
    ServiceId,
    ServiceId,
) {
    let clock = Arc::new(ManualClock::new());
    let shared: SharedClock = clock.clone();
    let net = SimNetwork::with_clock(LinkConfig::ideal(), seed, Arc::clone(&shared));

    // A small window keeps the mid-stream-adoption threshold (seq >
    // window) reachable with few messages.
    let config = ReliableConfig {
        window: 8,
        ..ReliableConfig::default()
    };
    let device = ReliableChannel::with_clock(
        Arc::new(net.endpoint()),
        config.clone(),
        Arc::clone(&shared),
    );
    let journal = Arc::new(RecordingJournal::default());
    let core = ReliableChannel::with_clock_journaled(
        Arc::new(net.endpoint()),
        config,
        Arc::clone(&shared),
        Arc::clone(&journal) as Arc<dyn ChannelJournal>,
        Vec::new(),
    );
    let core_id = core.local_id();
    let device_id = device.local_id();

    let step_all = |_label: &str| {
        net.pump_due();
        core.step();
        device.step();
        clock.advance_millis(20);
        core.step();
        device.step();
    };

    // Seqs 1..=10 delivered and acked normally.
    for n in 1u8..=10 {
        device.send(core_id, vec![n]).unwrap();
        step_all("normal");
    }
    assert_eq!(drain(&core).len(), 10);
    assert_eq!(device.pending(core_id), 0);

    // Seqs 11 and 12: delivered by the core, but the acks are lost — the
    // device still holds them unacked when the core dies.
    net.set_link(core_id, device_id, LinkConfig::ideal().with_loss(1.0));
    for n in [11u8, 12] {
        device.send(core_id, vec![n]).unwrap();
        step_all("ack-lost");
    }
    assert_eq!(
        drain(&core).len(),
        2,
        "the core delivered 11 and 12 before crashing"
    );
    assert_eq!(device.pending(core_id), 2, "the device never saw the acks");

    // Crash: the core process is gone; the network heals.
    core.close();
    net.set_link(core_id, device_id, LinkConfig::ideal());

    (clock, net, device, journal, core_id, device_id)
}

/// Restarting the core **with** its journalled cursors re-adopts the
/// device's session mid-stream: the retransmissions of the two messages
/// the dead core already delivered are suppressed and re-acked, never
/// redelivered — exactly-once holds across the crash.
#[test]
fn restored_cursors_suppress_redelivery_after_restart() {
    let (clock, net, device, journal, core_id, _) = crashed_core_scenario(21);

    let restored = {
        // The journal's last word on the device's stream.
        let cursors = journal.cursors();
        let &(peer, epoch, expected) = cursors.last().expect("cursor journalled");
        assert_eq!(
            expected, 13,
            "all 12 deliveries were journalled before any ack"
        );
        vec![(peer, epoch, expected)]
    };
    let core2 = ReliableChannel::with_clock_journaled(
        Arc::new(net.endpoint_with_id(core_id)),
        ReliableConfig {
            window: 8,
            ..ReliableConfig::default()
        },
        clock.clone() as SharedClock,
        Arc::new(RecordingJournal::default()) as Arc<dyn ChannelJournal>,
        restored,
    );

    // Let the device's retransmission timers fire until it drains.
    for _ in 0..300 {
        clock.advance_millis(20);
        net.pump_due();
        core2.step();
        device.step();
        core2.step();
        device.step();
        if device.pending(core_id) == 0 {
            break;
        }
    }
    assert_eq!(
        device.pending(core_id),
        0,
        "retransmits must be re-acked from the cursor"
    );
    assert_eq!(
        drain(&core2),
        Vec::<Vec<u8>>::new(),
        "messages delivered before the crash must not be redelivered"
    );

    // And the stream continues FIFO from where it left off.
    device.send(core_id, vec![13]).unwrap();
    net.pump_due();
    core2.step();
    assert_eq!(drain(&core2), vec![vec![13]]);
}

/// The same restart **without** restored cursors: the receiver has no
/// memory of what was delivered, adopts the session at the first
/// sequence number it sees, and redelivers — the violation a no-op WAL
/// backend produces and the delivery oracle exists to catch.
#[test]
fn lost_cursors_redeliver_after_restart() {
    let (clock, net, device, _journal, core_id, _) = crashed_core_scenario(22);

    let core2 = ReliableChannel::with_clock_journaled(
        Arc::new(net.endpoint_with_id(core_id)),
        ReliableConfig {
            window: 8,
            ..ReliableConfig::default()
        },
        clock.clone() as SharedClock,
        Arc::new(RecordingJournal::default()) as Arc<dyn ChannelJournal>,
        Vec::new(), // nothing recovered
    );

    let mut redelivered = Vec::new();
    for _ in 0..300 {
        clock.advance_millis(20);
        net.pump_due();
        core2.step();
        device.step();
        core2.step();
        device.step();
        redelivered.extend(drain(&core2));
        if device.pending(core_id) == 0 {
            break;
        }
    }
    // Seqs 11 and 12 are beyond the window (8), so the receiver knows the
    // sender was mid-stream and adopts at the observed point instead of
    // waiting forever for 1..=10 — and redelivers what the dead core
    // already handed to the application.
    assert_eq!(
        redelivered,
        vec![vec![11], vec![12]],
        "without cursors the delivered-but-unacked tail comes back as duplicates"
    );
}

/// A journal that cannot persist the cursor vetoes both delivery and
/// acknowledgement; once it heals, the sender's retransmission delivers
/// the message exactly once.
#[test]
fn journal_failure_defers_delivery_and_ack_until_success() {
    let clock = Arc::new(ManualClock::new());
    let shared: SharedClock = clock.clone();
    let net = SimNetwork::with_clock(LinkConfig::ideal(), 31, Arc::clone(&shared));

    let config = ReliableConfig::default();
    let device = ReliableChannel::with_clock(
        Arc::new(net.endpoint()),
        config.clone(),
        Arc::clone(&shared),
    );
    let journal = Arc::new(RecordingJournal::default());
    let core = ReliableChannel::with_clock_journaled(
        Arc::new(net.endpoint()),
        config,
        Arc::clone(&shared),
        Arc::clone(&journal) as Arc<dyn ChannelJournal>,
        Vec::new(),
    );

    journal.set_failing(true);
    device.send(core.local_id(), vec![0x5A]).unwrap();
    for _ in 0..10 {
        clock.advance_millis(20);
        net.pump_due();
        core.step();
        device.step();
    }
    assert_eq!(
        drain(&core),
        Vec::<Vec<u8>>::new(),
        "no delivery while the journal fails"
    );
    assert_eq!(
        device.pending(core.local_id()),
        1,
        "no ack while the journal fails"
    );

    journal.set_failing(false);
    for _ in 0..300 {
        clock.advance_millis(20);
        net.pump_due();
        core.step();
        device.step();
        core.step();
        device.step();
        if device.pending(core.local_id()) == 0 {
            break;
        }
    }
    assert_eq!(
        drain(&core),
        vec![vec![0x5A]],
        "delivered exactly once after the journal heals"
    );
    assert_eq!(device.pending(core.local_id()), 0);
    assert_eq!(journal.cursors().len(), 1, "one successful cursor advance");
}
