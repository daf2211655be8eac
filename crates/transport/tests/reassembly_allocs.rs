//! Pins what reassembling a multi-fragment message may ask of the heap:
//! the whole message once, at its exact size, and nothing for the
//! bookkeeping — neither in proportion to the fragment count a datagram
//! claims (which nothing has validated when the first fragment arrives)
//! nor per message once the stream is warm (a message's list of received
//! fragments is the emptied list of the one before).
//!
//! Alone in its binary because it installs a counting `#[global_allocator]`.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bytes::BytesMut;
use smc_transport::frame::put_data_frame;
use smc_transport::{Datagram, Incoming, ReliableChannel, ReliableConfig, Transport};
use smc_types::{Error, ManualClock, Result, ServiceId, SharedClock};

#[path = "../../types/tests/support/counting_alloc.rs"]
mod counting_alloc;

#[global_allocator]
static GLOBAL: counting_alloc::Counting = counting_alloc::Counting;

const PEER: ServiceId = ServiceId::from_raw(0xBEEF);
const EPOCH: u64 = 1;

/// A transport that drops what it is asked to send and receives what the
/// test puts in.
#[derive(Debug, Default)]
struct Inbox {
    inbox: Mutex<VecDeque<Datagram>>,
}

impl Transport for Inbox {
    fn local_id(&self) -> ServiceId {
        ServiceId::from_raw(0xA)
    }
    fn send(&self, _to: ServiceId, _frame: &[u8]) -> Result<()> {
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

fn data(seq: u64, frag_index: u16, frag_count: u16, payload: &[u8]) -> Datagram {
    let mut frame = BytesMut::new();
    put_data_frame(
        &mut frame, None, EPOCH, seq, frag_index, frag_count, payload,
    );
    Datagram::unicast(PEER, frame.freeze())
}

fn step_driven() -> (Arc<Inbox>, Arc<ReliableChannel>, Arc<ManualClock>) {
    let link = Arc::new(Inbox::default());
    let clock = Arc::new(ManualClock::new());
    let channel = ReliableChannel::with_clock(
        Arc::clone(&link) as Arc<dyn Transport>,
        ReliableConfig::default(),
        Arc::clone(&clock) as SharedClock,
    );
    (link, channel, clock)
}

/// One datagram claiming the most fragments a frame can: the receiver's
/// cost is its first contact with the peer plus the datagram it already
/// holds — 1.5 MB of fragment slots while the list was sized from the
/// claim.
#[test]
fn a_datagram_claiming_65_535_fragments_costs_what_it_carries() {
    const FIRST_CONTACT: u64 = 4096;
    let (link, channel, _) = step_driven();
    let datagram = data(1, 0, u16::MAX, &[0x5A; 100]);
    let carried = datagram.payload.len() as u64;
    link.inbox.lock().unwrap().push_back(datagram);
    let (requests, processed) = counting_alloc::during(|| channel.step());
    assert_eq!(processed, 1);
    assert!(
        requests.bytes <= FIRST_CONTACT + carried,
        "{} bytes requested for a {carried}-byte datagram",
        requests.bytes
    );
    assert!(
        channel.try_recv().is_none(),
        "one fragment is not a message"
    );
}

/// A warm stream of 4-fragment messages, one message per step: what each
/// step asks for is the message itself — no bookkeeping, and nothing for
/// the acknowledgement batch it flushes for the message before, which is
/// written in the thread's encode scratch.
#[test]
fn a_warm_multi_fragment_stream_makes_no_bookkeeping_requests() {
    const MESSAGES: u64 = 200;
    let (link, channel, clock) = step_driven();
    let fragment = |seq: u64, i: u16| vec![seq as u8 ^ i as u8; 1000];
    let mut per_message = Vec::new();
    for seq in 1..=MESSAGES {
        link.inbox
            .lock()
            .unwrap()
            .extend((0..4).map(|i| data(seq, i, 4, &fragment(seq, i))));
        // A poll interval on: the step's scan flushes the acks held
        // since the last one.
        clock.advance_millis(20);
        let (requests, processed) = counting_alloc::during(|| channel.step());
        assert_eq!(processed, 4);
        let Some(Incoming::Reliable { payload, .. }) = channel.try_recv() else {
            panic!("message {seq} reassembled");
        };
        let sent: Vec<u8> = (0..4).flat_map(|i| fragment(seq, i)).collect();
        assert_eq!(payload, sent);
        per_message.push(requests.count);
    }
    // Warm-up: the peer's entries, the first list, the held acks' buffer.
    assert!(
        per_message[10..].iter().all(|&n| n == 1),
        "requests per message: {per_message:?}"
    );
}
