//! What a fold of the log reads while the log changes under it: a
//! compaction never hides a record from a concurrent fold, and the
//! membership digest the log keeps at each append agrees with what the
//! log folds to.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use smc_types::{CoreSnapshot, ServiceId, ServiceInfo, WalRecord};
use smc_wal::{digest, MemBackend, NoopBackend, Wal, WalBackend, WalConfig};

fn member(n: u64) -> ServiceInfo {
    ServiceInfo::new(ServiceId::from_raw(n), "s")
}

fn joined(n: u64) -> WalRecord {
    WalRecord::MemberJoined { info: member(n) }
}

fn open(backend: Arc<dyn WalBackend>) -> Wal {
    let config = WalConfig {
        sync_each_append: false,
        ..WalConfig::default()
    };
    Wal::open(backend, config).expect("open").0
}

fn digest_of(ids: &[u64]) -> Option<u64> {
    Some(digest(ids.iter().copied()))
}

/// The fold's own digest, for comparing with the one kept at appends.
fn folded(wal: &Wal) -> Option<u64> {
    let snap = wal.recover_state().expect("fold");
    Some(digest(snap.members.iter().map(|m| m.id.raw())))
}

/// One thread joins a member and checkpoints, over and over; another
/// folds the log meanwhile. A fold that read an old snapshot and then
/// the segment list a newer checkpoint had already compacted would miss
/// members, and anti-entropy would tear them down as ghosts.
#[test]
fn a_fold_sees_every_member_joined_before_it_began() {
    const JOINS: u64 = 3_000;
    let wal = Arc::new(open(Arc::new(MemBackend::new())));
    let joins = Arc::new(AtomicU64::new(0));
    let writer = {
        let (wal, joins) = (Arc::clone(&wal), Arc::clone(&joins));
        std::thread::spawn(move || {
            let mut state = CoreSnapshot::default();
            for n in 1..=JOINS {
                wal.append(&joined(n)).expect("append");
                state.members.push(member(n));
                joins.store(n, Ordering::SeqCst);
                wal.snapshot_with(|| Ok(state.clone())).expect("checkpoint");
            }
        })
    };
    let (mut folds, mut short, mut failed) = (0u64, 0u64, 0u64);
    while !writer.is_finished() {
        let before = joins.load(Ordering::SeqCst);
        match wal.recover_state() {
            Ok(state) => short += u64::from((state.members.len() as u64) < before),
            // A segment listed and then compacted away before it was read.
            Err(_) => failed += 1,
        }
        folds += 1;
    }
    writer.join().expect("writer");
    assert!(folds > 0);
    assert_eq!(
        (short, failed),
        (0, 0),
        "of {folds} folds, {short} missed members and {failed} failed"
    );
}

#[test]
fn the_digest_follows_joins_and_purges_and_survives_a_reopen() {
    let backend = Arc::new(MemBackend::new());
    let wal = open(backend.clone());
    assert_eq!(wal.membership_digest(), digest_of(&[]));
    for n in [1, 2, 3] {
        wal.append(&joined(n)).unwrap();
    }
    wal.append(&WalRecord::MemberPurged {
        member: ServiceId::from_raw(2),
    })
    .unwrap();
    // Records that are not membership leave it alone.
    wal.append(&WalRecord::OutAck {
        chan: 0,
        peer: ServiceId::from_raw(1),
        seq: 1,
    })
    .unwrap();
    assert_eq!(wal.membership_digest(), digest_of(&[1, 3]));
    assert_eq!(folded(&wal), digest_of(&[1, 3]));
    drop(wal);
    assert_eq!(open(backend).membership_digest(), digest_of(&[1, 3]));
}

#[test]
fn a_checkpoint_sets_the_digest_to_what_it_captured() {
    let wal = open(Arc::new(MemBackend::new()));
    wal.append(&joined(1)).unwrap();
    let captured = CoreSnapshot {
        members: vec![member(4), member(5)],
        ..CoreSnapshot::default()
    };
    wal.snapshot_with(|| Ok(captured)).unwrap();
    assert_eq!(wal.membership_digest(), digest_of(&[4, 5]));
    assert_eq!(folded(&wal), digest_of(&[4, 5]));
}

/// A second join of a member does not change the folded set; the digest
/// reads it as a change until a fold resets it.
#[test]
fn a_repeated_join_moves_the_digest_off_the_fold_until_the_next_fold() {
    let wal = open(Arc::new(MemBackend::new()));
    wal.append(&joined(1)).unwrap();
    wal.append(&joined(1)).unwrap();
    assert_ne!(wal.membership_digest(), digest_of(&[1]));
    assert_eq!(folded(&wal), digest_of(&[1]));
    assert_eq!(wal.membership_digest(), digest_of(&[1]));
}

#[test]
fn a_log_that_cannot_vouch_has_no_digest() {
    let backend = Arc::new(MemBackend::new());
    let wal = Wal::open(backend.clone(), WalConfig::default()).unwrap().0;
    backend.fail_fsync_after(0);
    assert!(wal.append(&joined(1)).is_err());
    assert_eq!(
        wal.membership_digest(),
        None,
        "it may or may not have landed"
    );
    backend.heal_fsync();
    assert_eq!(
        folded(&wal),
        wal.membership_digest(),
        "a fold vouches again"
    );

    let noop = open(Arc::new(NoopBackend));
    noop.append(&joined(1)).unwrap();
    assert_eq!(noop.membership_digest(), None);
}
