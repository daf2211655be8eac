//! The matcher abstraction the event bus plugs engines into.
//!
//! The paper wraps its publish/subscribe mechanism behind an "EventBus"
//! interface precisely so that Siena could later be swapped for the
//! dedicated C-based matcher. [`Matcher`] is that seam: the bus owns a
//! `Box<dyn Matcher>` and never knows which engine is behind it.

use std::fmt;
use std::sync::Arc;

use smc_types::{Error, Event, Result, ServiceId, Subscription, SubscriptionId};

/// Reusable per-caller scratch space for [`RouteSnapshot`] matching.
///
/// Snapshot matching is read-only over the snapshot but still needs
/// working memory (the counting algorithm's per-filter counters, the
/// predicate memo, the fired-filter list). Callers own that memory and
/// pass it in, so a steady-state publish loop performs no allocation: the
/// buffers are grown once and reused for every subsequent match.
///
/// A scratch may be reused freely across different snapshots and engine
/// kinds — the generation counter makes stale state self-invalidating.
#[derive(Debug, Default)]
pub struct MatchScratch {
    /// Counting slots, `(generation, satisfied-count)` per filter slot.
    pub(crate) counters: Vec<(u64, u32)>,
    /// The predicate memo, `(generation, verdict)` per constraint slot:
    /// a constraint is evaluated the first time a match needs it, and its
    /// verdict is read from here after that.
    pub(crate) verdicts: Vec<(u64, bool)>,
    /// Current match generation (epoch trick: bumping it invalidates all
    /// counters and verdicts without clearing them).
    pub(crate) generation: u64,
    /// Filter ids fired by the current match.
    pub(crate) fired: Vec<usize>,
}

impl MatchScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        MatchScratch::default()
    }
}

/// An immutable, point-in-time view of an engine's subscription set that
/// matches events with `&self`.
///
/// This is the read side of the bus's copy-on-write route table: control
/// operations (subscribe/unsubscribe/purge) build a fresh snapshot via
/// [`Matcher::snapshot`] and publish it atomically; concurrent publishes
/// match against whichever snapshot they loaded, with no locks and no
/// allocation beyond the caller's reusable [`MatchScratch`].
pub trait RouteSnapshot: Send + Sync + fmt::Debug {
    /// Clears `out` and fills it with the distinct subscribers interested
    /// in `event`, sorted and de-duplicated — the same answer the owning
    /// engine's [`Matcher::matching_subscribers`] would give at the moment
    /// the snapshot was taken.
    fn matching_subscribers_into(
        &self,
        event: &Event,
        scratch: &mut MatchScratch,
        out: &mut Vec<ServiceId>,
    );

    /// Number of subscriptions frozen into this snapshot.
    fn len(&self) -> usize;

    /// Returns `true` if the snapshot contains no subscriptions.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A content-based matching engine.
///
/// Implementations index [`Subscription`]s and, given an event, return the
/// identifiers of every subscription whose filter matches. All engines must
/// agree exactly on match semantics (the property tests in this crate check
/// them against each other); they differ only in data structures and the
/// amount of representation translation they perform.
pub trait Matcher: Send + fmt::Debug {
    /// A short, stable engine name for logs and benchmark labels.
    fn name(&self) -> &'static str;

    /// Registers a subscription.
    ///
    /// # Errors
    ///
    /// Returns [`Error::AlreadyExists`] if the subscription id is already
    /// registered.
    fn subscribe(&mut self, sub: Subscription) -> Result<()>;

    /// Removes a subscription, returning its record.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotFound`] if the id is unknown.
    fn unsubscribe(&mut self, id: SubscriptionId) -> Result<Subscription>;

    /// Returns the ids of all subscriptions matching `event`, sorted and
    /// de-duplicated.
    fn matching_subscriptions(&mut self, event: &Event) -> Vec<SubscriptionId>;

    /// Returns the distinct subscribers interested in `event`, sorted.
    fn matching_subscribers(&mut self, event: &Event) -> Vec<ServiceId>;

    /// Freezes the current subscription set into an immutable snapshot
    /// that can match events concurrently with `&self` (see
    /// [`RouteSnapshot`]). The snapshot is a value: later mutations of
    /// the engine do not affect it.
    fn snapshot(&self) -> Arc<dyn RouteSnapshot>;

    /// Number of registered subscriptions.
    fn len(&self) -> usize;

    /// Returns `true` if no subscription is registered.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Which engine implementation to construct.
///
/// `Siena` and `FastForward` correspond to the paper's two event buses.
/// The linear scan the equivalence tests hold both to is test code, not
/// an engine a cell can be configured to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum EngineKind {
    /// General-purpose engine with Siena-style representation translation.
    Siena,
    /// Counting-algorithm forwarding table (the "C-based" bus's engine).
    FastForward,
}

impl EngineKind {
    /// All engine kinds.
    pub const ALL: [EngineKind; 2] = [EngineKind::Siena, EngineKind::FastForward];

    /// Constructs a boxed engine of this kind.
    pub fn build(self) -> Box<dyn Matcher> {
        match self {
            EngineKind::Siena => Box::new(crate::siena::SienaEngine::new()),
            EngineKind::FastForward => Box::new(crate::fastforward::FastForwardEngine::new()),
        }
    }

    /// Parses an engine name as used on bench command lines.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Invalid`] for unknown names.
    pub fn parse(name: &str) -> Result<Self> {
        match name {
            "siena" => Ok(EngineKind::Siena),
            "fastforward" | "ff" | "c" => Ok(EngineKind::FastForward),
            other => Err(Error::Invalid(format!("unknown engine '{other}'"))),
        }
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl EngineKind {
    /// The canonical engine name.
    pub fn as_str(self) -> &'static str {
        match self {
            EngineKind::Siena => "siena",
            EngineKind::FastForward => "fastforward",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_engine_names() {
        assert!(
            EngineKind::parse("naive").is_err(),
            "the oracle is not an engine kind"
        );
        assert_eq!(EngineKind::parse("siena").unwrap(), EngineKind::Siena);
        assert_eq!(EngineKind::parse("ff").unwrap(), EngineKind::FastForward);
        assert_eq!(EngineKind::parse("c").unwrap(), EngineKind::FastForward);
        assert!(EngineKind::parse("elvin").is_err());
    }

    #[test]
    fn build_constructs_each_engine() {
        for kind in EngineKind::ALL {
            let engine = kind.build();
            assert_eq!(engine.len(), 0);
            assert!(engine.is_empty());
            assert_eq!(engine.name(), kind.as_str());
        }
    }

    #[test]
    fn display_matches_as_str() {
        for kind in EngineKind::ALL {
            assert_eq!(kind.to_string(), kind.as_str());
        }
    }
}
