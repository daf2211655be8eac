//! Pins what a received message costs the heap on the mem link once its
//! receiver has dropped it: nothing, on whichever thread it is dropped.
//! Two threaded `ReliableChannel`s on a `SimNetwork` at MTU 1 400, the
//! sender on a thread of its own and the receiver on the test's, 16
//! messages outstanding (the ledger's window). Two cases:
//!
//! * 4 096 B — four fragments — dropped by the thread that received it;
//! * a single-datagram `PublishAck`, handed to a thread of its own that
//!   decodes it (`Packet::from_message`) and drops it there.
//!
//! | per message                                              | requests | bytes   |
//! |----------------------------------------------------------|----------|---------|
//! | sender: the message is a shared buffer, sent by reference | 0        | 0       |
//! | link: each datagram in a buffer the receiver gave back   | 0        | 0       |
//! | receiver: the reassembled message, in a buffer of the link's | 0    | 0       |
//! | receiver: fragments handed back to the link once copied  | 0        | 0       |
//! | the message, handed back when it drops — on any thread   | 0        | 0       |
//! | acknowledgements: held, batched, their buffers handed back | 0      | 0       |
//!
//! Measured: 0.002–0.017 requests and at most 57 B per 4 KB message,
//! 0.013 requests per `PublishAck` dropped on another thread. While the
//! reassembled message was a fresh buffer of the heap's a 4 KB message
//! cost 1.00 requests and 4 076 B; with a fresh buffer per datagram (the
//! link's `to_vec`, freed once reassembly had copied it), 5.04 requests
//! and 8 354 B. A decode that frees the message instead of handing it
//! back costs the single-datagram case a request per message.
//!
//! Alone in its binary because it installs a counting `#[global_allocator]`;
//! the count is process-wide because the channels work on their own
//! threads — and one test, so the two cases do not count each other.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::Thread;
use std::time::Duration;

use smc_transport::{Incoming, LinkConfig, ReliableChannel, ReliableConfig, SimNetwork};
use smc_types::codec::to_shared;
use smc_types::{EventId, Packet, ServiceId, SharedBytes};

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

/// Tells the sender that one more message has been dropped, opening the
/// window by one.
#[derive(Clone)]
struct Done {
    dropped: Arc<AtomicU64>,
    sender: Thread,
}

impl Done {
    fn done(&self) {
        self.dropped.fetch_add(1, Ordering::Release);
        self.sender.unpark();
    }
}

/// Sends `WARM_UP + MESSAGES` messages, `pool`'s in turn, from a thread
/// of its own, at most `WINDOW` of them not yet dropped; `consume(n,
/// message, done)` gets message `n` on the test's thread, and `done` is
/// called once it is dropped. `start` runs, with a `Done`, before the
/// first message is sent. Returns the heap requests and bytes per
/// message after the warm-up, process-wide, and what `start` returned.
fn per_message<T>(
    pool: Vec<SharedBytes>,
    start: impl FnOnce(Done) -> T,
    mut consume: impl FnMut(u64, Incoming, &Done),
) -> (f64, f64, T) {
    let net = SimNetwork::with_seed(LinkConfig::ideal(), 1);
    let a = ReliableChannel::new(Arc::new(net.endpoint()), config());
    let b = ReliableChannel::new(Arc::new(net.endpoint()), config());
    let dropped = Arc::new(AtomicU64::new(0));
    let go = Arc::new(AtomicBool::new(false));

    let sender = {
        let (a, dropped, go) = (Arc::clone(&a), Arc::clone(&dropped), Arc::clone(&go));
        let to = b.local_id();
        std::thread::spawn(move || {
            while !go.load(Ordering::Acquire) {
                std::thread::park();
            }
            for sent in 0..WARM_UP + MESSAGES {
                while sent - dropped.load(Ordering::Acquire) >= WINDOW {
                    std::thread::park_timeout(Duration::from_millis(1));
                }
                a.send(to, pool[sent as usize % pool.len()].clone())
                    .expect("send");
            }
        })
    };
    let done = Done {
        dropped,
        sender: sender.thread().clone(),
    };
    let started = start(done.clone());
    go.store(true, Ordering::Release);
    sender.thread().unpark();

    let mut receive = |n: u64| {
        let Ok(incoming) = b.recv(Some(Duration::from_secs(10))) else {
            panic!("message {n} not delivered");
        };
        consume(n, incoming, &done);
    };
    for n in 0..WARM_UP {
        receive(n);
    }
    let before = counting_alloc::in_process_requests();
    for n in WARM_UP..WARM_UP + MESSAGES {
        receive(n);
    }
    sender.join().expect("sender");
    while done.dropped.load(Ordering::Acquire) < WARM_UP + MESSAGES {
        std::thread::park_timeout(Duration::from_millis(1));
    }
    let after = counting_alloc::in_process_requests();
    assert_eq!(a.stats().retransmits, 0, "a lossless run retransmitted");
    a.close();
    b.close();
    net.shutdown();

    let requests = (after.count - before.count) as f64 / MESSAGES as f64;
    let bytes = (after.bytes - before.bytes) as f64 / MESSAGES as f64;
    (requests, bytes, started)
}

/// 4 KB messages, each dropped by the thread that received it.
fn bulk_dropped_at_once() -> (f64, f64) {
    let pool: Vec<SharedBytes> = (0..4u8).map(|i| SharedBytes::from(vec![i; SIZE])).collect();
    let (requests, bytes, ()) = per_message(
        pool,
        |_| (),
        |n, incoming, done| {
            let Incoming::Reliable { payload, .. } = incoming else {
                panic!("message {n} arrived unreliable");
            };
            assert!(
                payload.len() == SIZE && payload.iter().all(|&byte| byte == (n % 4) as u8),
                "message {n} arrived changed"
            );
            drop(payload);
            done.done();
        },
    );
    eprintln!("per {SIZE} B message: {requests:.3} requests, {bytes:.0} B");
    (requests, bytes)
}

/// Single-datagram `PublishAck`s, each decoded and dropped on a thread
/// other than the one that received it.
fn small_dropped_elsewhere() -> f64 {
    const PUBLISHER: ServiceId = ServiceId::from_raw(0xA);
    let pool = (0..4).map(|seq| to_shared(&Packet::PublishAck(EventId::new(PUBLISHER, seq))));
    // Never more than `WINDOW` messages wait here: the queue never grows.
    let queue = Arc::new(Mutex::new(VecDeque::with_capacity(2 * WINDOW as usize)));
    let finished = Arc::new(AtomicBool::new(false));
    let (requests, bytes, dropper) = per_message(
        pool.collect(),
        |done| {
            let (queue, finished) = (Arc::clone(&queue), Arc::clone(&finished));
            std::thread::spawn(move || loop {
                let next = queue.lock().unwrap().pop_front();
                let Some((n, incoming)) = next else {
                    if finished.load(Ordering::Acquire) {
                        return;
                    }
                    std::thread::park_timeout(Duration::from_millis(1));
                    continue;
                };
                let Incoming::Reliable { payload, .. } = incoming else {
                    panic!("message {n} arrived unreliable");
                };
                match Packet::from_message(payload) {
                    Ok(Packet::PublishAck(id)) => assert_eq!(id.seq, n % 4, "message {n}"),
                    other => panic!("message {n} decoded as {other:?}"),
                }
                done.done();
            })
        },
        |n, incoming, _| {
            queue.lock().unwrap().push_back((n, incoming));
        },
    );
    finished.store(true, Ordering::Release);
    dropper.join().expect("dropper");
    eprintln!("per message dropped on another thread: {requests:.3} requests, {bytes:.0} B");
    requests
}

#[test]
fn a_dropped_message_gives_its_buffer_back_to_the_link() {
    let (requests, bytes) = bulk_dropped_at_once();
    assert!(
        requests <= 0.1,
        "{requests} heap requests per {SIZE} B message"
    );
    assert!(
        bytes <= 0.1 * SIZE as f64,
        "{bytes} bytes requested per {SIZE}-byte message"
    );
    let requests = small_dropped_elsewhere();
    assert!(
        requests <= 0.1,
        "{requests} heap requests per message dropped on another thread"
    );
}
