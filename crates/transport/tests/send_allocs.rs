//! Pins what a reliable send may ask of the heap once a channel is warm:
//! nothing per message. The payload is enqueued by reference count, the
//! fragment ranges are computed, the acknowledged set is a word in the
//! message, the data frame is written into the thread's scratch, no
//! receipt queue exists unless asked for, and the send window is a ring
//! whose buffer, once it has held a window's worth, is reused.
//!
//! Alone in its binary because it installs a counting `#[global_allocator]`.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use smc_transport::frame::encode_ack_frame;
use smc_transport::{Datagram, ReliableChannel, ReliableConfig, Transport};
use smc_types::{Error, ManualClock, Result, ServiceId, SharedBytes};

#[path = "../../types/tests/support/counting_alloc.rs"]
mod counting_alloc;

#[global_allocator]
static GLOBAL: counting_alloc::Counting = counting_alloc::Counting;

const PEER: ServiceId = ServiceId::from_raw(0xBEEF);

/// A transport that carries nothing: it notes the `(epoch, seq)` of each
/// data frame it is asked to send, and receives what the test puts in.
#[derive(Debug, Default)]
struct NoLink {
    sent: Mutex<VecDeque<(u64, u64)>>,
    inbox: Mutex<VecDeque<Datagram>>,
}

impl Transport for NoLink {
    fn local_id(&self) -> ServiceId {
        ServiceId::from_raw(0xA)
    }
    fn send(&self, _to: ServiceId, frame: &[u8]) -> Result<()> {
        let word = |at: usize| u64::from_le_bytes(frame[at..at + 8].try_into().expect("8 bytes"));
        self.sent.lock().unwrap().push_back((word(1), word(9)));
        Ok(())
    }
    fn broadcast(&self, _payload: &[u8]) -> Result<()> {
        Ok(())
    }
    fn recv(&self, _timeout: Option<Duration>) -> Result<Datagram> {
        self.inbox.lock().unwrap().pop_front().ok_or(Error::Timeout)
    }
    fn max_datagram(&self) -> usize {
        1400
    }
    fn close(&self) {}
}

#[test]
fn steady_state_send_asks_the_heap_for_next_to_nothing() {
    const BURST: usize = 25;
    const BURSTS: usize = 40;
    let link = Arc::new(NoLink::default());
    let channel = ReliableChannel::with_clock(
        Arc::clone(&link) as Arc<dyn Transport>,
        ReliableConfig::default(),
        Arc::new(ManualClock::new()),
    );
    let payload = SharedBytes::from(vec![0x5A; 120]);

    // Bursts of some of a window, each acknowledged before the next: the
    // window fills and drains the way a pipelined publisher's does.
    let burst = |sends: usize| {
        let (requests, ()) = counting_alloc::during(|| {
            for _ in 0..sends {
                channel.send(PEER, payload.clone()).expect("send");
            }
        });
        let acks: Vec<Datagram> = link
            .sent
            .lock()
            .unwrap()
            .drain(..)
            .map(|(epoch, seq)| Datagram::unicast(PEER, encode_ack_frame(epoch, seq, 0).to_vec()))
            .collect();
        assert_eq!(acks.len(), sends, "one single-fragment frame per send");
        link.inbox.lock().unwrap().extend(acks);
        channel.step();
        assert_eq!(channel.pending(PEER), 0);
        requests.count
    };

    // Warm-up: the peer's entry, the queues, the scratch, the window's
    // ring.
    burst(BURST);
    let requests: u64 = (0..BURSTS).map(|_| burst(BURST)).sum();
    assert_eq!(
        requests,
        0,
        "heap requests over {} warm sends",
        BURSTS * BURST
    );
    assert_eq!(channel.stats().msgs_acked as usize, (1 + BURSTS) * BURST);
}
