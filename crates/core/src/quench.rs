//! Elvin-style quenching: silencing publishers nobody listens to.
//!
//! The paper's future work notes "it is possible that we would see
//! power-saving benefits from quenching techniques such as those
//! demonstrated in the Elvin publish/subscribe system". A battery-powered
//! chest strap has no business radioing readings that no subscription can
//! match.
//!
//! Publishers *advertise* a filter describing what they produce; the
//! [`QuenchManager`] intersects advertisements with the live subscription
//! set ([`smc_match::overlaps`]) and reports which publishers flipped
//! between *interesting* and *quenched* whenever either side changes.

use std::collections::HashMap;

use parking_lot::Mutex;

use smc_types::{Filter, ServiceId};

/// A quench state transition for one publisher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuenchChange {
    /// The advertising publisher.
    pub publisher: ServiceId,
    /// `true` = stop publishing (nobody is interested any more),
    /// `false` = resume (someone subscribed).
    pub quench: bool,
}

#[derive(Debug)]
struct Advert {
    filter: Filter,
    /// `true` while at least one subscription overlaps.
    interesting: bool,
}

/// Tracks advertisements and computes quench transitions.
///
/// ```
/// use smc_core::QuenchManager;
/// use smc_types::{Filter, ServiceId};
///
/// let quench = QuenchManager::new();
/// let strap = ServiceId::from_raw(0xA);
/// // Nobody subscribed: the strap may sleep.
/// assert!(!quench.advertise(strap, Filter::for_type("smc.sensor.reading"), &[]));
/// // A monitor subscribes: one transition back to publishing.
/// let changes = quench.on_subscriptions_changed(&[Filter::any()]);
/// assert_eq!(changes.len(), 1);
/// assert!(!changes[0].quench);
/// ```
#[derive(Debug, Default)]
pub struct QuenchManager {
    adverts: Mutex<HashMap<ServiceId, Advert>>,
}

impl QuenchManager {
    /// Creates an empty manager.
    pub fn new() -> Self {
        QuenchManager::default()
    }

    /// Registers (or replaces) a publisher's advertisement and returns
    /// whether anything currently subscribed overlaps it.
    pub fn advertise(
        &self,
        publisher: ServiceId,
        filter: Filter,
        subscriptions: &[Filter],
    ) -> bool {
        let interesting = smc_match::any_interest(&filter, subscriptions);
        self.adverts.lock().insert(
            publisher,
            Advert {
                filter,
                interesting,
            },
        );
        interesting
    }

    /// Removes a publisher's advertisement (purge path).
    pub fn remove(&self, publisher: ServiceId) {
        self.adverts.lock().remove(&publisher);
    }

    /// Number of registered advertisements.
    pub fn len(&self) -> usize {
        self.adverts.lock().len()
    }

    /// Returns `true` if no advertisement is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Recomputes interest after the subscription set changed; returns
    /// the publishers whose quench state flipped, in id order.
    pub fn on_subscriptions_changed(&self, subscriptions: &[Filter]) -> Vec<QuenchChange> {
        let mut adverts = self.adverts.lock();
        let mut changes: Vec<QuenchChange> = Vec::new();
        for (&publisher, advert) in adverts.iter_mut() {
            let interesting = smc_match::any_interest(&advert.filter, subscriptions);
            if interesting != advert.interesting {
                advert.interesting = interesting;
                changes.push(QuenchChange {
                    publisher,
                    quench: !interesting,
                });
            }
        }
        changes.sort_by_key(|c| c.publisher);
        changes
    }

    /// Whether a publisher is currently quenched (`None` if it never
    /// advertised).
    pub fn is_quenched(&self, publisher: ServiceId) -> Option<bool> {
        self.adverts.lock().get(&publisher).map(|a| !a.interesting)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smc_types::Op;

    fn advert() -> Filter {
        Filter::for_type("smc.sensor.reading").with(("sensor", Op::Eq, "hr"))
    }

    #[test]
    fn advertise_reports_initial_interest() {
        let q = QuenchManager::new();
        let p = ServiceId::from_raw(1);
        assert!(!q.advertise(p, advert(), &[]));
        assert_eq!(q.is_quenched(p), Some(true));
        // A subscription to another type is no interest either.
        assert!(!q.advertise(p, advert(), &[Filter::for_type("smc.alarm")]));
        assert_eq!(q.is_quenched(p), Some(true));
        assert!(q.advertise(p, advert(), &[Filter::any()]));
        assert_eq!(q.is_quenched(p), Some(false));
        assert_eq!(q.len(), 1, "re-advertising replaces");
    }

    #[test]
    fn subscription_changes_flip_state() {
        let q = QuenchManager::new();
        let p = ServiceId::from_raw(1);
        q.advertise(p, advert(), &[]);
        // Someone subscribes to heart-rate readings: resume.
        let subs = vec![Filter::for_type("smc.sensor.reading")];
        assert_eq!(
            q.on_subscriptions_changed(&subs),
            vec![QuenchChange {
                publisher: p,
                quench: false
            }]
        );
        // No change on a second identical recompute.
        assert!(q.on_subscriptions_changed(&subs).is_empty());
        // Subscriber goes away: quench again.
        assert_eq!(
            q.on_subscriptions_changed(&[]),
            vec![QuenchChange {
                publisher: p,
                quench: true
            }]
        );
    }

    #[test]
    fn disjoint_subscriptions_do_not_wake_publisher() {
        let q = QuenchManager::new();
        let p = ServiceId::from_raw(1);
        q.advertise(p, advert(), &[]);
        let alarm_only = vec![Filter::for_type("smc.alarm")];
        assert!(q.on_subscriptions_changed(&alarm_only).is_empty());
        assert_eq!(q.is_quenched(p), Some(true));
        // A filter on the right type but a contradictory constraint also
        // keeps it quenched.
        let wrong_sensor =
            vec![Filter::for_type("smc.sensor.reading").with(("sensor", Op::Eq, "spo2"))];
        assert!(q.on_subscriptions_changed(&wrong_sensor).is_empty());
    }

    #[test]
    fn changes_ordered_and_scoped() {
        let q = QuenchManager::new();
        let p1 = ServiceId::from_raw(2);
        let p2 = ServiceId::from_raw(1);
        q.advertise(p1, Filter::for_type("a"), &[]);
        q.advertise(p2, Filter::for_type("b"), &[]);
        let changes = q.on_subscriptions_changed(&[Filter::any()]);
        assert_eq!(changes.len(), 2);
        assert_eq!(changes[0].publisher, p2, "sorted by id");
        // Only p1 flips back when interest narrows to "b".
        let changes = q.on_subscriptions_changed(&[Filter::for_type("b")]);
        assert_eq!(
            changes,
            vec![QuenchChange {
                publisher: p1,
                quench: true
            }]
        );
    }

    #[test]
    fn remove_forgets_publisher() {
        let q = QuenchManager::new();
        let p = ServiceId::from_raw(1);
        q.advertise(p, advert(), &[]);
        q.remove(p);
        assert!(q.is_empty());
        assert_eq!(q.is_quenched(p), None);
        assert!(q.on_subscriptions_changed(&[Filter::any()]).is_empty());
    }
}
