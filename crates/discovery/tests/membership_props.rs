//! Property-based tests of the membership table's lease state machine.

use proptest::prelude::*;
use smc_discovery::{MemberState, MembershipEvent, MembershipTable};
use smc_types::{ServiceId, ServiceInfo};
use std::time::Duration;

const LEASE: Duration = Duration::from_millis(100);
const GRACE: Duration = Duration::from_millis(150);

#[derive(Debug, Clone)]
enum Step {
    /// Advance time by millis and tick.
    Tick(u16),
    /// Heartbeat from member `idx % members`.
    Heartbeat(u8),
    /// Admit a new member.
    Admit,
    /// Remove member `idx % members` (graceful leave).
    Remove(u8),
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (1u16..200).prop_map(Step::Tick),
        any::<u8>().prop_map(Step::Heartbeat),
        Just(Step::Admit),
        any::<u8>().prop_map(Step::Remove),
    ]
}

proptest! {
    /// Invariants across arbitrary interleavings:
    /// * a member never transitions straight from fresh-heartbeat to
    ///   purged without a `Suspected` first;
    /// * purged members are really gone;
    /// * events never reference unknown members.
    #[test]
    fn lease_state_machine_invariants(steps in proptest::collection::vec(arb_step(), 1..80)) {
        let mut table = MembershipTable::new();
        let mut now = 1_000_000u64;
        let mut next_id = 1u64;
        let mut known: Vec<ServiceId> = Vec::new();
        let mut suspected: std::collections::HashSet<ServiceId> = Default::default();

        for step in steps {
            match step {
                Step::Admit => {
                    let id = ServiceId::from_raw(next_id);
                    next_id += 1;
                    table.admit(ServiceInfo::new(id, "sensor.x"), now);
                    known.push(id);
                    suspected.remove(&id);
                }
                Step::Heartbeat(i) => {
                    if known.is_empty() { continue; }
                    let id = known[i as usize % known.len()];
                    if table.contains(id) {
                        table.heartbeat(id, now);
                        suspected.remove(&id);
                    } else {
                        prop_assert_eq!(table.heartbeat(id, now), None);
                    }
                }
                Step::Remove(i) => {
                    if known.is_empty() { continue; }
                    let id = known[i as usize % known.len()];
                    let was_member = table.contains(id);
                    let removed = table.remove(id);
                    prop_assert_eq!(removed.is_some(), was_member);
                    suspected.remove(&id);
                }
                Step::Tick(ms) => {
                    now += ms as u64 * 1000;
                    let events = table.tick(now, LEASE, GRACE);
                    // A very long silence yields Suspected + Purged in one
                    // batch; collect the batch's purges first.
                    let purged_now: std::collections::HashSet<ServiceId> = events
                        .iter()
                        .filter_map(|e| match e {
                            MembershipEvent::Purged(id, _) => Some(*id),
                            _ => None,
                        })
                        .collect();
                    for event in events {
                        match event {
                            MembershipEvent::Suspected(id) => {
                                prop_assert!(known.contains(&id));
                                if !purged_now.contains(&id) {
                                    prop_assert!(table.contains(id), "suspected ⇒ still member");
                                    prop_assert_eq!(
                                        table.get(id).unwrap().state,
                                        MemberState::Suspected
                                    );
                                }
                                suspected.insert(id);
                            }
                            MembershipEvent::Purged(id, _) => {
                                prop_assert!(
                                    suspected.remove(&id),
                                    "purge without prior suspicion for {id}"
                                );
                                prop_assert!(!table.contains(id), "purged ⇒ gone");
                            }
                            MembershipEvent::Joined(_) | MembershipEvent::Recovered(_) => {
                                prop_assert!(false, "tick never joins/recovers");
                            }
                        }
                    }
                }
            }
            // Global invariant: every Active member heartbeat within
            // lease+grace of `now` (otherwise tick would have acted).
            for rec in table.iter() {
                let silent = now.saturating_sub(rec.last_seen);
                prop_assert!(
                    silent <= (LEASE + GRACE).as_micros() as u64,
                    "member silent {silent} µs still in table"
                );
            }
        }
    }
}
