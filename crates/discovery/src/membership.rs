//! The membership table: who is in the cell, and how alive they are.

use std::collections::HashMap;
use std::time::Duration;

use smc_types::{PurgeReason, ServiceId, ServiceInfo};

/// Liveness state of a member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberState {
    /// Heartbeating inside its lease.
    Active,
    /// Lease expired; inside the grace period that masks transient
    /// disconnections (the nurse who stepped out for a moment).
    Suspected,
}

/// A member's record.
#[derive(Debug, Clone)]
pub struct MemberRecord {
    /// The member's static description.
    pub info: ServiceInfo,
    /// When the last heartbeat (or the join) was seen, in the service
    /// clock's micros.
    pub last_seen: u64,
    /// Current liveness assessment.
    pub state: MemberState,
}

/// Membership changes reported by the discovery service.
///
/// The cell wiring turns `Joined`/`Purged` into the bus's well-known
/// `New Member` / `Purge Member` events. `Suspected` is informational —
/// by design it does **not** trigger proxy destruction, masking transient
/// disconnections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MembershipEvent {
    /// A service was admitted to the cell.
    Joined(ServiceInfo),
    /// A member's lease expired; it may yet return.
    Suspected(ServiceId),
    /// A suspected member heartbeat again within the grace period.
    Recovered(ServiceId),
    /// A member left for good.
    Purged(ServiceId, PurgeReason),
}

/// The table of current members with lease accounting. Times are a
/// clock's micros ([`smc_types::Clock::now_micros`]).
///
/// ```
/// use std::time::Duration;
/// use smc_discovery::{MembershipEvent, MembershipTable};
/// use smc_types::{ServiceId, ServiceInfo};
///
/// let mut table = MembershipTable::new();
/// let t0 = 1_000_000;
/// table.admit(ServiceInfo::new(ServiceId::from_raw(1), "sensor.hr"), t0);
/// // Silence beyond the lease: suspected, but not yet purged.
/// let lease = Duration::from_millis(100);
/// let grace = Duration::from_millis(200);
/// let events = table.tick(t0 + 150_000, lease, grace);
/// assert!(matches!(events[0], MembershipEvent::Suspected(_)));
/// assert!(table.contains(ServiceId::from_raw(1)), "masked, not purged");
/// ```
#[derive(Debug, Default)]
pub struct MembershipTable {
    members: HashMap<ServiceId, MemberRecord>,
}

impl MembershipTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        MembershipTable::default()
    }

    /// Admits (or re-admits) a member at `now`, returning `true` if it
    /// was new.
    pub fn admit(&mut self, info: ServiceInfo, now: u64) -> bool {
        let id = info.id;
        let record = MemberRecord {
            info,
            last_seen: now,
            state: MemberState::Active,
        };
        self.members.insert(id, record).is_none()
    }

    /// Records a heartbeat seen at `now`. Returns the member's previous
    /// state, or `None` if it is not a member.
    pub fn heartbeat(&mut self, id: ServiceId, now: u64) -> Option<MemberState> {
        let rec = self.members.get_mut(&id)?;
        let prev = rec.state;
        rec.last_seen = now;
        rec.state = MemberState::Active;
        Some(prev)
    }

    /// Removes a member.
    pub fn remove(&mut self, id: ServiceId) -> Option<MemberRecord> {
        self.members.remove(&id)
    }

    /// Looks up a member.
    pub fn get(&self, id: ServiceId) -> Option<&MemberRecord> {
        self.members.get(&id)
    }

    /// Returns `true` if `id` is a (possibly suspected) member.
    pub fn contains(&self, id: ServiceId) -> bool {
        self.members.contains_key(&id)
    }

    /// Number of members (including suspected ones).
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Returns `true` if the cell has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Iterates over all member records.
    pub fn iter(&self) -> impl Iterator<Item = &MemberRecord> {
        self.members.values()
    }

    /// Snapshot of all member infos.
    pub fn snapshot(&self) -> Vec<ServiceInfo> {
        self.members.values().map(|r| r.info.clone()).collect()
    }

    /// Advances lease accounting to `now`: members silent beyond `lease`
    /// become suspected; members suspected longer than `grace` are purged.
    ///
    /// Returns the resulting transitions in a deterministic (id) order.
    pub fn tick(&mut self, now: u64, lease: Duration, grace: Duration) -> Vec<MembershipEvent> {
        let lease = lease.as_micros() as u64;
        let grace = grace.as_micros() as u64;
        let mut events = Vec::new();
        let mut purge: Vec<ServiceId> = Vec::new();
        let mut ids: Vec<ServiceId> = self.members.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let rec = self.members.get_mut(&id).expect("id from keys");
            let silent = now.saturating_sub(rec.last_seen);
            match rec.state {
                MemberState::Active if silent > lease => {
                    rec.state = MemberState::Suspected;
                    events.push(MembershipEvent::Suspected(id));
                    // A very long silence can skip straight to purge.
                    if silent > lease + grace {
                        purge.push(id);
                    }
                }
                MemberState::Suspected if silent > lease + grace => purge.push(id),
                _ => {}
            }
        }
        for id in purge {
            self.members.remove(&id);
            events.push(MembershipEvent::Purged(id, PurgeReason::LeaseExpired));
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LEASE: Duration = Duration::from_millis(100);
    const GRACE: Duration = Duration::from_millis(200);
    /// The lease and the grace period in the table's micros.
    const LEASE_US: u64 = 100_000;
    const GRACE_US: u64 = 200_000;
    /// An arbitrary admission time, well clear of zero.
    const T0: u64 = 5_000_000;

    fn info(raw: u64) -> ServiceInfo {
        ServiceInfo::new(ServiceId::from_raw(raw), "sensor.test")
    }

    #[test]
    fn admit_and_lookup() {
        let mut t = MembershipTable::new();
        assert!(t.admit(info(1), T0));
        assert!(!t.admit(info(1), T0), "re-admission is not new");
        assert!(t.contains(ServiceId::from_raw(1)));
        assert_eq!(t.len(), 1);
        let rec = t.get(ServiceId::from_raw(1)).unwrap();
        assert_eq!(rec.state, MemberState::Active);
        assert_eq!(rec.last_seen, T0);
        assert_eq!(t.snapshot().len(), 1);
    }

    #[test]
    fn heartbeat_refreshes() {
        let mut t = MembershipTable::new();
        t.admit(info(1), T0);
        assert_eq!(
            t.heartbeat(ServiceId::from_raw(1), T0 + LEASE_US),
            Some(MemberState::Active)
        );
        assert_eq!(
            t.get(ServiceId::from_raw(1)).unwrap().last_seen,
            T0 + LEASE_US
        );
        assert_eq!(t.heartbeat(ServiceId::from_raw(9), T0), None);
        // Fresh heartbeat means no suspicion at t0 + lease + ε.
        let events = t.tick(T0 + LEASE_US + 50_000, LEASE, GRACE);
        assert!(events.is_empty(), "{events:?}");
    }

    /// The boundaries are exact to the microsecond: silence equal to the
    /// lease is within it, and silence equal to lease + grace is within
    /// grace.
    #[test]
    fn silence_suspects_then_purges() {
        let mut t = MembershipTable::new();
        t.admit(info(1), T0);
        assert!(t.tick(T0 + LEASE_US, LEASE, GRACE).is_empty());
        assert_eq!(
            t.get(ServiceId::from_raw(1)).unwrap().state,
            MemberState::Active,
            "silence equal to the lease stays active"
        );
        let events = t.tick(T0 + LEASE_US + 1, LEASE, GRACE);
        assert_eq!(
            events,
            vec![MembershipEvent::Suspected(ServiceId::from_raw(1))]
        );
        assert_eq!(
            t.get(ServiceId::from_raw(1)).unwrap().state,
            MemberState::Suspected
        );
        // Still inside grace: nothing more.
        assert!(t.tick(T0 + LEASE_US + GRACE_US, LEASE, GRACE).is_empty());
        assert!(t.contains(ServiceId::from_raw(1)));
        // Past grace: purged.
        let events = t.tick(T0 + LEASE_US + GRACE_US + 1, LEASE, GRACE);
        assert_eq!(
            events,
            vec![MembershipEvent::Purged(
                ServiceId::from_raw(1),
                PurgeReason::LeaseExpired
            )]
        );
        assert!(t.is_empty());
    }

    #[test]
    fn recovery_during_grace_masks_disconnect() {
        let mut t = MembershipTable::new();
        t.admit(info(1), T0);
        t.tick(T0 + LEASE_US + 1, LEASE, GRACE);
        // Heartbeat arrives within grace: back to Active, no purge ever.
        let recovered_at = T0 + LEASE_US + 50_000;
        let prev = t.heartbeat(ServiceId::from_raw(1), recovered_at);
        assert_eq!(prev, Some(MemberState::Suspected));
        // Within the refreshed lease nothing happens — the disconnection
        // was fully masked, even though t0 + lease + grace has passed.
        let check_at = recovered_at + LEASE_US;
        let events = t.tick(check_at, LEASE, GRACE);
        assert!(events.is_empty(), "{events:?}");
        assert_eq!(
            t.get(ServiceId::from_raw(1)).unwrap().state,
            MemberState::Active
        );
    }

    #[test]
    fn very_long_silence_suspects_and_purges_in_one_tick() {
        let mut t = MembershipTable::new();
        t.admit(info(1), T0);
        let events = t.tick(T0 + LEASE_US + GRACE_US + 1_000_000, LEASE, GRACE);
        assert_eq!(
            events,
            vec![
                MembershipEvent::Suspected(ServiceId::from_raw(1)),
                MembershipEvent::Purged(ServiceId::from_raw(1), PurgeReason::LeaseExpired)
            ]
        );
    }

    #[test]
    fn tick_orders_events_by_id() {
        let mut t = MembershipTable::new();
        for raw in [5u64, 1, 3] {
            t.admit(info(raw), T0);
        }
        let events = t.tick(T0 + LEASE_US + 1, LEASE, GRACE);
        let ids: Vec<u64> = events
            .iter()
            .map(|e| match e {
                MembershipEvent::Suspected(id) => id.raw(),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(ids, vec![1, 3, 5]);
    }

    #[test]
    fn remove_returns_record() {
        let mut t = MembershipTable::new();
        t.admit(info(1), T0);
        let rec = t.remove(ServiceId::from_raw(1)).unwrap();
        assert_eq!(rec.info.device_type, "sensor.test");
        assert!(t.remove(ServiceId::from_raw(1)).is_none());
    }
}
