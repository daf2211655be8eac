//! The journal hears of an acknowledged message before its sender does:
//! `ChannelJournal::on_acked` gets every message one acknowledgement
//! frame retires, in one call, and no receipt of those messages resolves
//! before that call returns.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use smc_transport::{
    ChannelJournal, LinkConfig, Receipt, ReliableChannel, ReliableConfig, SimNetwork,
};
use smc_types::{ManualClock, Result, ServiceId, SharedBytes, SharedClock};

/// A journal that remembers which sequence number each payload was
/// queued under and which numbers were retired — the latter only after a
/// pause, so a receipt that resolved ahead of the journal call would be
/// seen by its sender before the number is.
#[derive(Debug, Default)]
struct SlowAcks {
    enqueued: Mutex<HashMap<Vec<u8>, u64>>,
    acked: Mutex<BTreeSet<u64>>,
}

impl ChannelJournal for SlowAcks {
    fn on_deliver(&self, _: ServiceId, _: u64, _: u64) -> Result<()> {
        Ok(())
    }
    fn on_enqueue(&self, _: ServiceId, seq: u64, payload: &SharedBytes) -> Result<()> {
        self.enqueued.lock().insert(payload.to_vec(), seq);
        Ok(())
    }
    fn on_acked(&self, _: ServiceId, seqs: &[u64]) -> Result<()> {
        std::thread::sleep(Duration::from_micros(300));
        self.acked.lock().extend(seqs);
        Ok(())
    }
    fn on_forget(&self, _: ServiceId) -> Result<()> {
        Ok(())
    }
}

#[test]
fn a_blocking_send_returns_only_after_its_ack_reached_the_journal() {
    const SENDERS: u8 = 4;
    const EACH: u8 = 25;
    let net = SimNetwork::new(LinkConfig::ideal());
    let journal = Arc::new(SlowAcks::default());
    let sender = ReliableChannel::new_journaled(
        Arc::new(net.endpoint()),
        ReliableConfig::default(),
        Arc::clone(&journal) as Arc<dyn ChannelJournal>,
        Vec::new(),
    );
    let receiver = ReliableChannel::new(Arc::new(net.endpoint()), ReliableConfig::default());
    let to = receiver.local_id();
    std::thread::scope(|s| {
        for thread in 0..SENDERS {
            let (sender, journal) = (&sender, &journal);
            s.spawn(move || {
                for i in 0..EACH {
                    let payload = vec![thread, i];
                    sender
                        .send_blocking(to, payload.clone(), Duration::from_secs(10))
                        .expect("acknowledged");
                    let seq = journal.enqueued.lock()[&payload];
                    assert!(
                        journal.acked.lock().contains(&seq),
                        "message {seq} resolved before the journal retired it"
                    );
                }
            });
        }
    });
    let total = u64::from(SENDERS) * u64::from(EACH);
    assert_eq!(sender.stats().msgs_acked, total);
    assert_eq!(journal.acked.lock().len() as u64, total);
}

/// A journal that holds the receipts of what it retires and checks, at
/// each call, that none of them has resolved yet.
#[derive(Debug, Default)]
struct ReceiptWatch {
    receipts: Mutex<HashMap<u64, Receipt>>,
    calls: Mutex<Vec<Vec<u64>>>,
}

impl ChannelJournal for ReceiptWatch {
    fn on_deliver(&self, _: ServiceId, _: u64, _: u64) -> Result<()> {
        Ok(())
    }
    fn on_enqueue(&self, _: ServiceId, _: u64, _: &SharedBytes) -> Result<()> {
        Ok(())
    }
    fn on_acked(&self, _: ServiceId, seqs: &[u64]) -> Result<()> {
        let receipts = self.receipts.lock();
        for seq in seqs {
            assert_eq!(receipts[seq].poll(), None, "message {seq} resolved early");
        }
        self.calls.lock().push(seqs.to_vec());
        Ok(())
    }
    fn on_forget(&self, _: ServiceId) -> Result<()> {
        Ok(())
    }
}

/// One acknowledgement frame for five messages is one journal call,
/// numbered in order; the receipts resolve after it.
#[test]
fn one_ack_frame_is_one_journal_call() {
    let clock = Arc::new(ManualClock::new());
    let shared: SharedClock = clock.clone();
    let net = SimNetwork::with_clock(LinkConfig::ideal(), 5, Arc::clone(&shared));
    let journal = Arc::new(ReceiptWatch::default());
    let sender = ReliableChannel::with_clock_journaled(
        Arc::new(net.endpoint()),
        ReliableConfig::default(),
        Arc::clone(&shared),
        Arc::clone(&journal) as Arc<dyn ChannelJournal>,
        Vec::new(),
    );
    let receiver = ReliableChannel::with_clock(
        Arc::new(net.endpoint()),
        ReliableConfig::default(),
        Arc::clone(&shared),
    );
    for i in 1..=5u64 {
        let receipt = sender
            .send_with_receipt(receiver.local_id(), vec![i as u8])
            .unwrap();
        journal.receipts.lock().insert(i, receipt);
    }
    // Receive (the acks are held), flush the held acks at the scan a
    // poll interval later, take them.
    receiver.step();
    clock.advance_millis(20);
    receiver.step();
    sender.step();
    assert_eq!(*journal.calls.lock(), vec![vec![1, 2, 3, 4, 5]]);
    for (seq, receipt) in journal.receipts.lock().iter() {
        assert_eq!(receipt.poll(), Some(Ok(())), "message {seq}");
    }
}
