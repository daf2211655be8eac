//! End-to-end tests of the reliability layer's exactly-once + FIFO
//! guarantees under network faults.

use std::sync::Arc;
use std::time::Duration;

use smc_transport::{
    Incoming, LinkConfig, ReliableChannel, ReliableConfig, SimNetwork, UdpTransport,
};
use smc_types::Error;

const TICK: Duration = Duration::from_secs(5);

fn fast_config() -> ReliableConfig {
    ReliableConfig {
        initial_rto: Duration::from_millis(30),
        poll_interval: Duration::from_millis(10),
        ..ReliableConfig::default()
    }
}

fn collect_reliable(ch: &ReliableChannel, n: usize) -> Vec<Vec<u8>> {
    let mut got = Vec::new();
    while got.len() < n {
        match ch.recv(Some(TICK)).expect("recv within deadline") {
            Incoming::Reliable { payload, .. } => got.push(payload.into_vec()),
            Incoming::Unreliable { .. } => {}
        }
    }
    got
}

#[test]
fn exactly_once_in_order_on_clean_link() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let a = ReliableChannel::new(Arc::new(net.endpoint()), fast_config());
    let b = ReliableChannel::new(Arc::new(net.endpoint()), fast_config());
    for i in 0..50u32 {
        a.send(b.local_id(), i.to_le_bytes().to_vec()).unwrap();
    }
    let got = collect_reliable(&b, 50);
    for (i, payload) in got.iter().enumerate() {
        assert_eq!(payload, &(i as u32).to_le_bytes().to_vec());
    }
    // Nothing extra arrives.
    assert!(matches!(
        b.recv(Some(Duration::from_millis(50))),
        Err(Error::Timeout)
    ));
}

#[test]
fn survives_heavy_loss() {
    let net = SimNetwork::with_seed(LinkConfig::ideal().with_loss(0.4), 7);
    let a = ReliableChannel::new(Arc::new(net.endpoint()), fast_config());
    let b = ReliableChannel::new(Arc::new(net.endpoint()), fast_config());
    for i in 0..40u32 {
        a.send(b.local_id(), i.to_le_bytes().to_vec()).unwrap();
    }
    let got = collect_reliable(&b, 40);
    for (i, payload) in got.iter().enumerate() {
        assert_eq!(payload, &(i as u32).to_le_bytes().to_vec(), "message {i}");
    }
    assert!(
        a.stats().retransmits > 0,
        "loss should force retransmission"
    );
}

#[test]
fn suppresses_network_duplicates() {
    let net = SimNetwork::with_seed(LinkConfig::ideal().with_duplicates(0.8), 3);
    let a = ReliableChannel::new(Arc::new(net.endpoint()), fast_config());
    let b = ReliableChannel::new(Arc::new(net.endpoint()), fast_config());
    for i in 0..30u32 {
        a.send(b.local_id(), i.to_le_bytes().to_vec()).unwrap();
    }
    let got = collect_reliable(&b, 30);
    for (i, payload) in got.iter().enumerate() {
        assert_eq!(payload, &(i as u32).to_le_bytes().to_vec());
    }
    assert!(matches!(
        b.recv(Some(Duration::from_millis(80))),
        Err(Error::Timeout)
    ));
    assert!(b.stats().duplicates_suppressed > 0);
}

#[test]
fn fragments_large_messages() {
    let mut link = LinkConfig::ideal();
    link.mtu = 200; // force fragmentation of anything sizeable
    let net = SimNetwork::new(link);
    let a = ReliableChannel::new(Arc::new(net.endpoint()), fast_config());
    let b = ReliableChannel::new(Arc::new(net.endpoint()), fast_config());
    let big: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();
    let receipt = a.send_with_receipt(b.local_id(), big.clone()).unwrap();
    let got = collect_reliable(&b, 1);
    assert_eq!(got[0], big);
    receipt.wait(TICK).unwrap();
}

/// Past 64 fragments the acknowledged set spills out of its inline word:
/// a lossy link still gets the message across, and each round resends
/// only what is still unacknowledged on either side of that boundary.
#[test]
fn a_message_past_64_fragments_survives_loss() {
    let mut link = LinkConfig::ideal().with_loss(0.2);
    link.mtu = 100;
    let net = SimNetwork::with_seed(link, 5);
    let a = ReliableChannel::new(Arc::new(net.endpoint()), fast_config());
    let b = ReliableChannel::new(Arc::new(net.endpoint()), fast_config());
    let max_fragment = 100 - smc_transport::FRAME_HEADER_LEN;
    let fragments = 204;
    let big: Vec<u8> = (0..max_fragment * fragments)
        .map(|i| (i % 251) as u8)
        .collect();
    let receipt = a.send_with_receipt(b.local_id(), big.clone()).unwrap();
    assert_eq!(collect_reliable(&b, 1)[0], big);
    receipt.wait(TICK).unwrap();
    let resent = a.stats().retransmits as usize;
    // Resending everything every round would be ≈ 5 × `fragments`.
    assert!(
        resent > 0 && resent < 2 * fragments,
        "{resent} fragments resent"
    );
}

#[test]
fn fragmentation_survives_loss() {
    let mut link = LinkConfig::ideal().with_loss(0.3);
    link.mtu = 150;
    let net = SimNetwork::with_seed(link, 11);
    let a = ReliableChannel::new(Arc::new(net.endpoint()), fast_config());
    let b = ReliableChannel::new(Arc::new(net.endpoint()), fast_config());
    let msgs: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i; 1000]).collect();
    for m in &msgs {
        a.send(b.local_id(), m.clone()).unwrap();
    }
    let got = collect_reliable(&b, 10);
    assert_eq!(got, msgs);
}

#[test]
fn receipt_resolves_on_ack_and_timeout() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let a = ReliableChannel::new(
        Arc::new(net.endpoint()),
        ReliableConfig {
            max_retries: Some(3),
            ..fast_config()
        },
    );
    let b = ReliableChannel::new(Arc::new(net.endpoint()), fast_config());
    // Successful send resolves Ok.
    a.send_blocking(b.local_id(), b"ok".to_vec(), TICK).unwrap();
    // Send into the void: max_retries exhausts, receipt resolves Err.
    net.set_partitioned(a.local_id(), b.local_id(), true);
    let receipt = a.send_with_receipt(b.local_id(), b"lost".to_vec()).unwrap();
    assert!(matches!(receipt.wait(TICK), Err(Error::Timeout)));
    assert_eq!(a.stats().msgs_expired, 1);
}

#[test]
fn forget_peer_drops_pending() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let a = ReliableChannel::new(Arc::new(net.endpoint()), fast_config());
    let b = ReliableChannel::new(Arc::new(net.endpoint()), fast_config());
    net.set_partitioned(a.local_id(), b.local_id(), true);
    let receipt = a
        .send_with_receipt(b.local_id(), b"queued".to_vec())
        .unwrap();
    assert_eq!(a.pending(b.local_id()), 1);
    a.forget_peer(b.local_id());
    assert_eq!(a.pending(b.local_id()), 0);
    assert!(matches!(receipt.wait(TICK), Err(Error::Closed)));
}

#[test]
fn delivery_resumes_after_transient_partition() {
    // The discovery grace period scenario: a nurse leaves the room and
    // comes back; everything queued meanwhile must arrive, in order.
    let net = SimNetwork::new(LinkConfig::ideal());
    let a = ReliableChannel::new(Arc::new(net.endpoint()), fast_config());
    let b = ReliableChannel::new(Arc::new(net.endpoint()), fast_config());
    a.send(b.local_id(), b"before".to_vec()).unwrap();
    let _ = collect_reliable(&b, 1);
    net.set_partitioned(a.local_id(), b.local_id(), true);
    for i in 0..5u8 {
        a.send(b.local_id(), vec![i]).unwrap();
    }
    std::thread::sleep(Duration::from_millis(100));
    assert!(matches!(
        b.recv(Some(Duration::from_millis(30))),
        Err(Error::Timeout)
    ));
    net.set_partitioned(a.local_id(), b.local_id(), false);
    let got = collect_reliable(&b, 5);
    assert_eq!(got, vec![vec![0], vec![1], vec![2], vec![3], vec![4]]);
}

#[test]
fn bidirectional_streams_are_independent() {
    let net = SimNetwork::with_seed(LinkConfig::ideal().with_loss(0.2), 5);
    let a = ReliableChannel::new(Arc::new(net.endpoint()), fast_config());
    let b = ReliableChannel::new(Arc::new(net.endpoint()), fast_config());
    for i in 0..20u32 {
        a.send(b.local_id(), format!("a{i}").into_bytes()).unwrap();
        b.send(a.local_id(), format!("b{i}").into_bytes()).unwrap();
    }
    let got_b = collect_reliable(&b, 20);
    let got_a = collect_reliable(&a, 20);
    for i in 0..20usize {
        assert_eq!(got_b[i], format!("a{i}").into_bytes());
        assert_eq!(got_a[i], format!("b{i}").into_bytes());
    }
}

#[test]
fn many_peers_fifo_per_sender() {
    let net = SimNetwork::with_seed(LinkConfig::ideal().with_loss(0.15), 9);
    let hub = ReliableChannel::new(Arc::new(net.endpoint()), fast_config());
    let senders: Vec<_> = (0..4)
        .map(|_| ReliableChannel::new(Arc::new(net.endpoint()), fast_config()))
        .collect();
    let mut handles = Vec::new();
    for (si, s) in senders.iter().enumerate() {
        let s = Arc::clone(s);
        let hub_id = hub.local_id();
        handles.push(std::thread::spawn(move || {
            for i in 0..25u32 {
                s.send(hub_id, format!("{si}:{i}").into_bytes()).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let mut next: std::collections::HashMap<String, u32> = std::collections::HashMap::new();
    let mut total = 0;
    while total < 100 {
        if let Incoming::Reliable { payload, .. } = hub.recv(Some(TICK)).unwrap() {
            let text = String::from_utf8(payload.into_vec()).unwrap();
            let (sender, idx) = text.split_once(':').unwrap();
            let idx: u32 = idx.parse().unwrap();
            let expected = next.entry(sender.to_string()).or_insert(0);
            assert_eq!(idx, *expected, "per-sender FIFO violated for {sender}");
            *expected += 1;
            total += 1;
        }
    }
}

#[test]
fn unreliable_and_broadcast_pass_through() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let a = ReliableChannel::new(Arc::new(net.endpoint()), fast_config());
    let b = ReliableChannel::new(Arc::new(net.endpoint()), fast_config());
    let c = ReliableChannel::new(Arc::new(net.endpoint()), fast_config());
    a.send_unreliable(b.local_id(), b"direct").unwrap();
    match b.recv(Some(TICK)).unwrap() {
        Incoming::Unreliable {
            payload,
            broadcast,
            from,
        } => {
            assert_eq!(payload, b"direct");
            assert!(!broadcast);
            assert_eq!(from, a.local_id());
        }
        other => panic!("unexpected {other:?}"),
    }
    a.broadcast_unreliable(b"beacon").unwrap();
    for ch in [&b, &c] {
        match ch.recv(Some(TICK)).unwrap() {
            Incoming::Unreliable {
                payload, broadcast, ..
            } => {
                assert_eq!(payload, b"beacon");
                assert!(broadcast);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}

#[test]
fn epoch_change_resets_receiver_state() {
    // Simulate a peer restart: a new channel on the same endpoint id.
    let net = SimNetwork::new(LinkConfig::ideal());
    let b = ReliableChannel::new(Arc::new(net.endpoint()), fast_config());
    let a_id = smc_types::ServiceId::from_raw(0xA11CE);

    let a1 = ReliableChannel::new(Arc::new(net.endpoint_with_id(a_id)), fast_config());
    a1.send(b.local_id(), b"first".to_vec()).unwrap();
    assert_eq!(collect_reliable(&b, 1)[0], b"first");
    a1.close();

    let a2 = ReliableChannel::new(Arc::new(net.endpoint_with_id(a_id)), fast_config());
    a2.send(b.local_id(), b"second".to_vec()).unwrap();
    assert_eq!(collect_reliable(&b, 1)[0], b"second");
}

#[test]
fn works_over_real_udp() {
    let a = ReliableChannel::new(Arc::new(UdpTransport::bind().unwrap()), fast_config());
    let b = ReliableChannel::new(Arc::new(UdpTransport::bind().unwrap()), fast_config());
    for i in 0..10u32 {
        a.send(b.local_id(), i.to_le_bytes().to_vec()).unwrap();
    }
    let got = collect_reliable(&b, 10);
    for (i, payload) in got.iter().enumerate() {
        assert_eq!(payload, &(i as u32).to_le_bytes().to_vec());
    }
    a.close();
    b.close();
}

#[test]
fn stats_are_coherent() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let a = ReliableChannel::new(Arc::new(net.endpoint()), fast_config());
    let b = ReliableChannel::new(Arc::new(net.endpoint()), fast_config());
    for i in 0..5u8 {
        a.send_blocking(b.local_id(), vec![i], TICK).unwrap();
    }
    let _ = collect_reliable(&b, 5);
    let sa = a.stats();
    assert_eq!(sa.msgs_sent, 5);
    assert_eq!(sa.msgs_acked, 5);
    let sb = b.stats();
    assert_eq!(sb.msgs_delivered, 5);
}

#[test]
fn close_unblocks_receivers() {
    let net = SimNetwork::new(LinkConfig::ideal());
    let a = ReliableChannel::new(Arc::new(net.endpoint()), fast_config());
    let a2 = Arc::clone(&a);
    let waiter = std::thread::spawn(move || a2.recv(Some(Duration::from_secs(10))));
    std::thread::sleep(Duration::from_millis(50));
    a.close();
    let result = waiter.join().unwrap();
    assert!(matches!(result, Err(Error::Closed)), "{result:?}");
    assert!(matches!(a.send(a.local_id(), vec![]), Err(Error::Closed)));
}
