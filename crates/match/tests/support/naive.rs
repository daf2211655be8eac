//! Linear-scan engine: the correctness oracle the engines a cell can run
//! are held to. Not part of the library: a test includes it with
//! `#[path = "support/naive.rs"] mod naive;`.

use std::sync::Arc;

use smc_match::{MatchScratch, Matcher, RouteSnapshot};
use smc_types::{Error, Event, Result, ServiceId, Subscription, SubscriptionId};

/// The simplest possible engine: every match evaluates every filter, by
/// calling `Filter::matches` directly.
#[derive(Debug, Default)]
pub struct NaiveEngine {
    subs: Vec<Subscription>,
}

impl NaiveEngine {
    /// Creates an empty engine.
    pub fn new() -> Self {
        NaiveEngine::default()
    }
}

impl Matcher for NaiveEngine {
    fn name(&self) -> &'static str {
        "naive"
    }

    fn subscribe(&mut self, sub: Subscription) -> Result<()> {
        if self.subs.iter().any(|s| s.id == sub.id) {
            return Err(Error::AlreadyExists(sub.id.to_string()));
        }
        self.subs.push(sub);
        Ok(())
    }

    fn unsubscribe(&mut self, id: SubscriptionId) -> Result<Subscription> {
        match self.subs.iter().position(|s| s.id == id) {
            Some(i) => Ok(self.subs.remove(i)),
            None => Err(Error::NotFound(id.to_string())),
        }
    }

    fn matching_subscriptions(&mut self, event: &Event) -> Vec<SubscriptionId> {
        let mut out: Vec<SubscriptionId> = self
            .subs
            .iter()
            .filter(|s| s.filter.matches(event))
            .map(|s| s.id)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    fn matching_subscribers(&mut self, event: &Event) -> Vec<ServiceId> {
        let mut out: Vec<ServiceId> = self
            .subs
            .iter()
            .filter(|s| s.filter.matches(event))
            .map(|s| s.subscriber)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    fn snapshot(&self) -> Arc<dyn RouteSnapshot> {
        Arc::new(NaiveSnapshot {
            subs: self.subs.clone(),
        })
    }

    fn len(&self) -> usize {
        self.subs.len()
    }
}

/// A frozen copy of the subscription list (see [`Matcher::snapshot`]).
#[derive(Debug)]
struct NaiveSnapshot {
    subs: Vec<Subscription>,
}

impl RouteSnapshot for NaiveSnapshot {
    fn matching_subscribers_into(
        &self,
        event: &Event,
        _scratch: &mut MatchScratch,
        out: &mut Vec<ServiceId>,
    ) {
        out.clear();
        out.extend(
            self.subs
                .iter()
                .filter(|s| s.filter.matches(event))
                .map(|s| s.subscriber),
        );
        out.sort_unstable();
        out.dedup();
    }

    fn len(&self) -> usize {
        self.subs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smc_types::{Filter, Op};

    fn sub(id: u64, svc: u64, filter: Filter) -> Subscription {
        Subscription::new(SubscriptionId(id), ServiceId::from_raw(svc), filter)
    }

    #[test]
    fn subscribe_match_unsubscribe() {
        let mut m = NaiveEngine::new();
        m.subscribe(sub(1, 10, Filter::for_type("a"))).unwrap();
        m.subscribe(sub(2, 11, Filter::for_type("b"))).unwrap();
        assert_eq!(m.len(), 2);
        let e = Event::new("a");
        assert_eq!(m.matching_subscriptions(&e), vec![SubscriptionId(1)]);
        assert_eq!(m.matching_subscribers(&e), vec![ServiceId::from_raw(10)]);
        let removed = m.unsubscribe(SubscriptionId(1)).unwrap();
        assert_eq!(removed.subscriber, ServiceId::from_raw(10));
        assert!(m.matching_subscriptions(&e).is_empty());
    }

    #[test]
    fn duplicate_id_rejected() {
        let mut m = NaiveEngine::new();
        m.subscribe(sub(1, 10, Filter::any())).unwrap();
        assert!(matches!(
            m.subscribe(sub(1, 11, Filter::any())),
            Err(Error::AlreadyExists(_))
        ));
    }

    #[test]
    fn unknown_unsubscribe_errors() {
        let mut m = NaiveEngine::new();
        assert!(matches!(
            m.unsubscribe(SubscriptionId(9)),
            Err(Error::NotFound(_))
        ));
    }

    #[test]
    fn subscriber_dedup() {
        let mut m = NaiveEngine::new();
        m.subscribe(sub(1, 10, Filter::any())).unwrap();
        m.subscribe(sub(2, 10, Filter::for_type("a"))).unwrap();
        let e = Event::new("a");
        assert_eq!(m.matching_subscriptions(&e).len(), 2);
        assert_eq!(m.matching_subscribers(&e), vec![ServiceId::from_raw(10)]);
    }

    #[test]
    fn content_filtering() {
        let mut m = NaiveEngine::new();
        m.subscribe(sub(1, 10, Filter::any().with(("bpm", Op::Gt, 120i64))))
            .unwrap();
        let calm = Event::builder("r").attr("bpm", 60i64).build();
        let racing = Event::builder("r").attr("bpm", 150i64).build();
        assert!(m.matching_subscriptions(&calm).is_empty());
        assert_eq!(m.matching_subscriptions(&racing).len(), 1);
    }
}
