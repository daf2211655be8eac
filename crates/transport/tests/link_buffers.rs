//! Pins what a multi-fragment message costs the heap on the mem link: the
//! reassembled message, and nothing per fragment. Two threaded
//! `ReliableChannel`s on a `SimNetwork` at MTU 1 400, the sender on a
//! thread of its own and the receiver on the test's, 16 messages
//! outstanding (the ledger's window), each 4 096 B — four fragments.
//!
//! | per message                                              | requests | bytes   |
//! |----------------------------------------------------------|----------|---------|
//! | sender: the message is a shared buffer, sent by reference | 0        | 0       |
//! | link: four datagrams, each in a buffer the receiver gave back | 0    | 0       |
//! | receiver: the reassembled message                        | 1        | 4 096   |
//! | receiver: fragments handed back to the link once copied  | 0        | 0       |
//! | acknowledgements: held, batched, their buffers handed back | 0      | 0       |
//!
//! Measured: 1.00 requests and 4 076 B (a message reassembled before the
//! count began is delivered inside it). With a fresh buffer per datagram
//! (the link's `to_vec`, freed once reassembly had copied it) a message
//! cost 5.04 requests and 8 354 B.
//!
//! Alone in its binary because it installs a counting `#[global_allocator]`;
//! the count is process-wide because the channels work on their own
//! threads.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use smc_transport::{Incoming, LinkConfig, ReliableChannel, ReliableConfig, SimNetwork};
use smc_types::SharedBytes;

#[path = "../../types/tests/support/counting_alloc.rs"]
mod counting_alloc;

#[global_allocator]
static GLOBAL: counting_alloc::Counting = counting_alloc::Counting;

const SIZE: usize = 4096;
const WARM_UP: u64 = 500;
const MESSAGES: u64 = 2_000;
/// Messages outstanding, as on the ledger's `ecg_bulk`.
const WINDOW: u64 = 16;

/// A lossless run never retransmits: the RTO sits far above any queueing
/// delay.
fn config() -> ReliableConfig {
    ReliableConfig {
        initial_rto: Duration::from_secs(3),
        max_rto: Duration::from_secs(6),
        poll_interval: Duration::from_millis(5),
        ..ReliableConfig::default()
    }
}

#[test]
fn a_warm_4_kb_message_asks_the_heap_once() {
    let net = SimNetwork::with_seed(LinkConfig::ideal(), 1);
    let a = ReliableChannel::new(Arc::new(net.endpoint()), config());
    let b = ReliableChannel::new(Arc::new(net.endpoint()), config());
    let pool: Vec<SharedBytes> = (0..4u8).map(|i| SharedBytes::from(vec![i; SIZE])).collect();
    let delivered = Arc::new(AtomicU64::new(0));

    let sender = {
        let (a, pool, delivered) = (Arc::clone(&a), pool.clone(), Arc::clone(&delivered));
        let to = b.local_id();
        std::thread::spawn(move || {
            for sent in 0..WARM_UP + MESSAGES {
                while sent - delivered.load(Ordering::Acquire) >= WINDOW {
                    std::thread::park_timeout(Duration::from_millis(1));
                }
                a.send(to, pool[sent as usize % pool.len()].clone())
                    .expect("send");
            }
        })
    };
    let receive = |n: u64| {
        let Ok(Incoming::Reliable { payload, .. }) = b.recv(Some(Duration::from_secs(10))) else {
            panic!("message {n} not delivered");
        };
        assert!(
            payload.len() == SIZE && payload.iter().all(|&byte| byte == (n % 4) as u8),
            "message {n} arrived changed"
        );
        delivered.fetch_add(1, Ordering::Release);
        sender.thread().unpark();
    };
    for n in 0..WARM_UP {
        receive(n);
    }
    let before = counting_alloc::in_process_requests();
    for n in WARM_UP..WARM_UP + MESSAGES {
        receive(n);
    }
    let after = counting_alloc::in_process_requests();
    sender.join().expect("sender");
    assert_eq!(a.stats().retransmits, 0, "a lossless run retransmitted");

    let requests = (after.count - before.count) as f64 / MESSAGES as f64;
    let bytes = (after.bytes - before.bytes) as f64 / MESSAGES as f64;
    eprintln!("per {SIZE} B message: {requests:.3} requests, {bytes:.0} B");
    assert!(requests <= 1.1, "{requests} heap requests per message");
    assert!(
        bytes <= 1.05 * SIZE as f64,
        "{bytes} bytes requested per {SIZE}-byte message"
    );
    a.close();
    b.close();
    net.shutdown();
}
