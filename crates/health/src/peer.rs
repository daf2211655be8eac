//! Peer supervision: cells that watch, adopt, and heal sibling cells.
//!
//! The in-process supervisor ([`crate::supervise`]) closes the
//! detect → repair loop *inside* a cell — which leaves one single point
//! of failure: the supervisor's own host. This module closes that hole
//! over the wire. Every cell's supervisor heartbeats a **lease**
//! ([`SupervisionMsg::Lease`]) to its siblings; every cell runs a
//! [`PeerSupervisor`] that tracks sibling leases. When a lease lapses
//! (ttl + grace with no heartbeat), the watcher opens a **claim**
//! window; rival claimants collected during the window arbitrate by
//! **lowest member id** — a deterministic tie-break needing no extra
//! round-trips. The winner **adopts** the silent cell (and tells its
//! rivals so, who defer), drives repair remotely, and **releases** the
//! moment the target's lease resumes — the unambiguous signal that the
//! target's own supervisor is back on its feet.
//!
//! The state machine is passive and deterministic: it owns no clock, no
//! sockets, and no threads. Callers feed it time ([`PeerSupervisor::tick`])
//! and received messages ([`PeerSupervisor::on_msg`]); it returns
//! [`PeerAction`]s — messages to send and remote-supervision sessions to
//! start or stop. That keeps it unit-testable tick by tick and lets the
//! virtual-time chaos harness drive whole multi-cell outages
//! reproducibly.
//!
//! Safety around false positives (a partition, not a death): adoption is
//! harmless by construction. The adopter's remote repairs are driven by
//! the target's *observed* component health, so a healthy-but-partitioned
//! cell accumulates no repairs; and the first lease that crosses the
//! healed partition triggers an immediate release. Double adoption after
//! a partition heals resolves the same way claims do — the lower member
//! id keeps the role, the higher steps down on sight of the rival's
//! [`SupervisionMsg::Adopt`].

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use smc_types::SupervisionMsg;

/// Heartbeat cadence (virtual µs); also the ttl advertised in each
/// lease.
const LEASE_MICROS: u64 = 500_000;
/// Slack beyond the advertised ttl before a lease counts as lapsed —
/// absorbs network jitter and retransmission delay.
const GRACE_MICROS: u64 = 300_000;
/// How long a claim stays open collecting rival claims before the
/// lowest-member-id tie-break resolves it.
const CLAIM_MICROS: u64 = 250_000;

/// What the caller must do on behalf of the state machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PeerAction {
    /// Send this protocol message to every sibling cell.
    Send(SupervisionMsg),
    /// Begin supervising `target` remotely: sample its health, plan
    /// repairs, ship them as [`SupervisionMsg::Repair`] commands, and
    /// order anti-entropy passes before the target compacts state.
    StartRemote {
        /// Member id of the adopted cell.
        target: u64,
    },
    /// Stop the remote-supervision session for `target` (released, or
    /// this watcher stepped down to a lower-id rival).
    StopRemote {
        /// Member id of the formerly adopted cell.
        target: u64,
    },
}

/// Where one watched sibling stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WatchState {
    /// Lease current (or not yet armed); nothing to do.
    Watching,
    /// Lease lapsed; a claim window is open, rivals accumulating.
    Claiming {
        /// When the window opened; it resolves at `since + CLAIM_MICROS`.
        since: u64,
    },
    /// A lower-id rival won the claim; we stand by unless *they* lapse.
    Deferred {
        /// The winning watcher's member id.
        adopter: u64,
    },
    /// We won the claim and are supervising the sibling remotely.
    Adopted {
        /// When adoption began.
        since: u64,
    },
}

impl WatchState {
    fn name(&self) -> &'static str {
        match self {
            WatchState::Watching => "watching",
            WatchState::Claiming { .. } => "claiming",
            WatchState::Deferred { .. } => "deferred",
            WatchState::Adopted { .. } => "adopted",
        }
    }
}

/// Everything tracked about one sibling.
#[derive(Debug, Clone)]
struct PeerTrack {
    state: WatchState,
    /// When the last lease was seen (`None` until the first tick arms
    /// the watch — a cell silent from the very start still lapses).
    last_lease: Option<u64>,
    /// The ttl the sibling last advertised.
    ttl_micros: u64,
    /// Claimants seen during the open claim window (including self when
    /// we bid). The minimum wins.
    rivals: BTreeSet<u64>,
}

/// One row of the peer-lease table, as served by `/supervision`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerLease {
    /// The watched sibling's member id.
    pub peer: u64,
    /// Watch state: `watching`, `claiming`, `deferred` or `adopted`.
    pub state: &'static str,
    /// The rival that outbid us, when deferred.
    pub adopter: Option<u64>,
    /// When the sibling's lease was last refreshed (virtual µs).
    pub last_lease_micros: Option<u64>,
    /// The ttl the sibling last advertised (µs).
    pub ttl_micros: u64,
}

/// Render a lease table as a JSON array (no trailing newline).
pub fn peer_lease_json(leases: &[PeerLease]) -> String {
    let mut out = String::from("[");
    for (i, lease) in leases.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{{\"peer\": {}, \"state\": \"{}\", \"adopter\": {}, \"last_lease_micros\": {}, \"ttl_micros\": {}}}",
            lease.peer,
            lease.state,
            lease
                .adopter
                .map_or_else(|| "null".to_string(), |a| a.to_string()),
            lease
                .last_lease_micros
                .map_or_else(|| "null".to_string(), |a| a.to_string()),
            lease.ttl_micros,
        );
    }
    out.push(']');
    out
}

/// Counters and the decision log of one cell's peer supervisor.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PeerReport {
    /// Heartbeat leases sent.
    pub leases_sent: u64,
    /// Sibling leases observed to lapse.
    pub lapses: u64,
    /// Claims this watcher bid.
    pub claims_sent: u64,
    /// Claims won (adoptions started).
    pub adoptions: u64,
    /// Claim windows resolved in a rival's favour.
    pub claims_lost: u64,
    /// Adoptions ended because the target's lease resumed.
    pub releases: u64,
    /// Adoptions ceded to a lower-id rival discovered post-hoc.
    pub stepdowns: u64,
    /// The decision log: `(at_micros, what)`.
    pub log: Vec<(u64, String)>,
}

/// The per-cell watcher state machine. See the module docs for the
/// protocol; see [`PeerSupervisor::tick`] / [`PeerSupervisor::on_msg`]
/// for the driving contract.
#[derive(Debug)]
pub struct PeerSupervisor {
    self_id: u64,
    tracks: BTreeMap<u64, PeerTrack>,
    next_lease_at: u64,
    report: PeerReport,
}

impl PeerSupervisor {
    /// A watcher for the cell with member id `self_id`, tracking the
    /// given sibling member ids.
    pub fn new(self_id: u64, siblings: impl IntoIterator<Item = u64>) -> Self {
        let tracks = siblings
            .into_iter()
            .filter(|&peer| peer != self_id)
            .map(|peer| {
                (
                    peer,
                    PeerTrack {
                        state: WatchState::Watching,
                        last_lease: None,
                        ttl_micros: LEASE_MICROS,
                        rivals: BTreeSet::new(),
                    },
                )
            })
            .collect();
        PeerSupervisor {
            self_id,
            tracks,
            next_lease_at: 0,
            report: PeerReport::default(),
        }
    }

    /// This watcher's member id.
    pub fn self_id(&self) -> u64 {
        self.self_id
    }

    /// Advance the protocol to `now`: heartbeat our own lease on
    /// cadence, lapse overdue sibling leases into claims, and resolve
    /// claim windows whose arbitration period ended.
    pub fn tick(&mut self, now: u64) -> Vec<PeerAction> {
        let mut actions = Vec::new();
        if now >= self.next_lease_at {
            self.next_lease_at = now + LEASE_MICROS;
            self.report.leases_sent += 1;
            actions.push(PeerAction::Send(SupervisionMsg::Lease {
                holder: self.self_id,
                ttl_micros: LEASE_MICROS,
            }));
        }

        let mut lapsed_now: Vec<u64> = Vec::new();
        let self_id = self.self_id;
        for (&peer, track) in self.tracks.iter_mut() {
            match track.state {
                WatchState::Watching => {
                    // Arm the watch on first sight so a sibling that was
                    // silent from boot still lapses one full window in.
                    let armed_at = *track.last_lease.get_or_insert(now);
                    if now > armed_at + track.ttl_micros + GRACE_MICROS {
                        track.state = WatchState::Claiming { since: now };
                        track.rivals.clear();
                        track.rivals.insert(self_id);
                        self.report.lapses += 1;
                        self.report.claims_sent += 1;
                        self.report
                            .log
                            .push((now, format!("lease of peer {peer} lapsed; claiming")));
                        actions.push(PeerAction::Send(SupervisionMsg::Claim {
                            target: peer,
                            claimant: self_id,
                        }));
                        lapsed_now.push(peer);
                    }
                }
                WatchState::Claiming { since } if now >= since + CLAIM_MICROS => {
                    // The window closed: lowest member id among the bids
                    // wins. No further messages are needed to agree —
                    // every claimant saw (at least) its own bid and
                    // resolves the same minimum, and stragglers are
                    // corrected by the winner's Adopt.
                    let winner = track.rivals.iter().next().copied().unwrap_or(self_id);
                    let we_bid = track.rivals.contains(&self_id);
                    if winner == self_id {
                        track.state = WatchState::Adopted { since: now };
                        self.report.adoptions += 1;
                        self.report
                            .log
                            .push((now, format!("won claim on peer {peer}; adopting")));
                        actions.push(PeerAction::Send(SupervisionMsg::Adopt {
                            target: peer,
                            adopter: self_id,
                        }));
                        actions.push(PeerAction::StartRemote { target: peer });
                    } else {
                        track.state = WatchState::Deferred { adopter: winner };
                        if we_bid {
                            self.report.claims_lost += 1;
                        }
                        self.report.log.push((
                            now,
                            format!("claim on peer {peer} resolved to {winner}; deferring"),
                        ));
                    }
                    track.rivals.clear();
                }
                _ => {}
            }
        }

        // An adopter that lapses forfeits its wards: re-arm every track
        // deferred to a peer that just lapsed, so the surviving watchers
        // claim the orphaned targets after one more lease window.
        for dead in lapsed_now {
            for (&peer, track) in self.tracks.iter_mut() {
                if track.state == (WatchState::Deferred { adopter: dead }) {
                    track.state = WatchState::Watching;
                    track.last_lease = Some(now);
                    self.report.log.push((
                        now,
                        format!("adopter {dead} of peer {peer} lapsed; re-watching {peer}"),
                    ));
                }
            }
        }
        actions
    }

    /// Feed one received protocol message. `now` is the receive time.
    pub fn on_msg(&mut self, now: u64, msg: &SupervisionMsg) -> Vec<PeerAction> {
        match msg {
            SupervisionMsg::Lease { holder, ttl_micros } => {
                self.on_lease(now, *holder, *ttl_micros)
            }
            SupervisionMsg::Claim { target, claimant } => self.on_claim(now, *target, *claimant),
            SupervisionMsg::Adopt { target, adopter } => self.on_adopt(now, *target, *adopter),
            SupervisionMsg::Release { target, .. } => self.on_release(now, *target),
            // Repair/Reconcile are actuator-plane commands executed by
            // the receiving cell, not watcher-plane protocol.
            _ => Vec::new(),
        }
    }

    fn on_lease(&mut self, now: u64, holder: u64, ttl_micros: u64) -> Vec<PeerAction> {
        if holder == self.self_id {
            return Vec::new();
        }
        let Some(track) = self.tracks.get_mut(&holder) else {
            return Vec::new();
        };
        track.last_lease = Some(now);
        track.ttl_micros = ttl_micros;
        match track.state {
            WatchState::Watching => Vec::new(),
            WatchState::Claiming { .. } | WatchState::Deferred { .. } => {
                // The patient sat up mid-funeral: withdraw.
                track.state = WatchState::Watching;
                track.rivals.clear();
                self.report.log.push((
                    now,
                    format!("lease of peer {holder} resumed; standing down"),
                ));
                Vec::new()
            }
            WatchState::Adopted { .. } => {
                // The target's own supervisor is back — release the role
                // and tear down the remote session.
                track.state = WatchState::Watching;
                track.rivals.clear();
                self.report.releases += 1;
                self.report
                    .log
                    .push((now, format!("lease of peer {holder} resumed; releasing")));
                vec![
                    PeerAction::Send(SupervisionMsg::Release {
                        target: holder,
                        adopter: self.self_id,
                    }),
                    PeerAction::StopRemote { target: holder },
                ]
            }
        }
    }

    fn on_claim(&mut self, now: u64, target: u64, claimant: u64) -> Vec<PeerAction> {
        if target == self.self_id {
            // Someone is bidding for *us* — we're alive; our next
            // heartbeat refutes the claim, nothing else to do.
            self.report
                .log
                .push((now, format!("peer {claimant} claimed us; alive, ignoring")));
            return Vec::new();
        }
        let Some(track) = self.tracks.get_mut(&target) else {
            return Vec::new();
        };
        match track.state {
            WatchState::Watching => {
                // A sibling saw the lapse before we did. Join the
                // arbitration as a non-bidding observer so we agree on
                // the winner when the window closes.
                track.state = WatchState::Claiming { since: now };
                track.rivals.clear();
                track.rivals.insert(claimant);
            }
            WatchState::Claiming { .. } => {
                track.rivals.insert(claimant);
            }
            // Already resolved here; a late claimant corrects itself on
            // sight of the winner's Adopt.
            WatchState::Deferred { .. } | WatchState::Adopted { .. } => {}
        }
        Vec::new()
    }

    fn on_adopt(&mut self, now: u64, target: u64, adopter: u64) -> Vec<PeerAction> {
        if target == self.self_id || adopter == self.self_id {
            return Vec::new();
        }
        let Some(track) = self.tracks.get_mut(&target) else {
            return Vec::new();
        };
        match track.state {
            WatchState::Adopted { .. } => {
                if adopter < self.self_id {
                    // Double adoption (e.g. claims raced across a healed
                    // partition): the tie-break is global, so the higher
                    // id steps down unconditionally.
                    track.state = WatchState::Deferred { adopter };
                    track.rivals.clear();
                    self.report.stepdowns += 1;
                    self.report.log.push((
                        now,
                        format!("peer {adopter} outranks us on {target}; stepping down"),
                    ));
                    vec![PeerAction::StopRemote { target }]
                } else {
                    // We outrank them; they step down on sight of our
                    // Adopt. Keep the role.
                    Vec::new()
                }
            }
            _ => {
                track.state = WatchState::Deferred { adopter };
                track.rivals.clear();
                Vec::new()
            }
        }
    }

    fn on_release(&mut self, now: u64, target: u64) -> Vec<PeerAction> {
        if let Some(track) = self.tracks.get_mut(&target) {
            if matches!(track.state, WatchState::Deferred { .. }) {
                // The adopter stood down; re-arm our own watch.
                track.state = WatchState::Watching;
                track.last_lease = Some(now);
                self.report.log.push((
                    now,
                    format!("adopter of peer {target} released; re-watching"),
                ));
            }
        }
        Vec::new()
    }

    /// `true` while this watcher holds the adopted role for `peer`.
    pub fn is_adopter_of(&self, peer: u64) -> bool {
        self.tracks
            .get(&peer)
            .is_some_and(|t| matches!(t.state, WatchState::Adopted { .. }))
    }

    /// Member ids currently adopted by this watcher, ascending.
    pub fn adopted(&self) -> Vec<u64> {
        self.tracks
            .iter()
            .filter(|(_, t)| matches!(t.state, WatchState::Adopted { .. }))
            .map(|(&peer, _)| peer)
            .collect()
    }

    /// The current lease table, one row per watched sibling, ascending
    /// by member id.
    pub fn lease_table(&self) -> Vec<PeerLease> {
        self.tracks
            .iter()
            .map(|(&peer, track)| PeerLease {
                peer,
                state: track.state.name(),
                adopter: match track.state {
                    WatchState::Deferred { adopter } => Some(adopter),
                    _ => None,
                },
                last_lease_micros: track.last_lease,
                ttl_micros: track.ttl_micros,
            })
            .collect()
    }

    /// Counters and the decision log so far.
    pub fn report(&self) -> &PeerReport {
        &self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LEASE: u64 = 500_000;
    const GRACE: u64 = 300_000;
    const CLAIM: u64 = 250_000;

    fn watcher(self_id: u64, siblings: &[u64]) -> PeerSupervisor {
        PeerSupervisor::new(self_id, siblings.iter().copied())
    }

    fn sends(actions: &[PeerAction]) -> Vec<&SupervisionMsg> {
        actions
            .iter()
            .filter_map(|a| match a {
                PeerAction::Send(msg) => Some(msg),
                _ => None,
            })
            .collect()
    }

    /// Feed `w` a healthy lease from `holder` at `now`.
    fn lease(w: &mut PeerSupervisor, now: u64, holder: u64) {
        let acts = w.on_msg(
            now,
            &SupervisionMsg::Lease {
                holder,
                ttl_micros: LEASE,
            },
        );
        assert!(acts.is_empty(), "a healthy lease demands nothing: {acts:?}");
    }

    #[test]
    fn first_tick_heartbeats_and_arms_the_watch() {
        let mut w = watcher(2, &[1]);
        let acts = w.tick(0);
        assert_eq!(
            sends(&acts),
            vec![&SupervisionMsg::Lease {
                holder: 2,
                ttl_micros: LEASE
            }]
        );
        assert_eq!(w.lease_table()[0].state, "watching");
        // Silence for less than ttl + grace: still watching.
        let acts = w.tick(LEASE + GRACE);
        assert!(sends(&acts).iter().all(|m| m.kind() == "lease"));
        assert_eq!(w.lease_table()[0].state, "watching");
    }

    #[test]
    fn lapse_claim_adopt_and_release_cycle() {
        let mut w = watcher(2, &[1]);
        w.tick(0);
        lease(&mut w, 100, 1);

        // Silence past ttl + grace → claim.
        let lapse_at = 100 + LEASE + GRACE + 1;
        let acts = w.tick(lapse_at);
        assert!(sends(&acts).contains(&&SupervisionMsg::Claim {
            target: 1,
            claimant: 2
        }));
        assert_eq!(w.lease_table()[0].state, "claiming");

        // Unopposed window closes → adopt + start remote session.
        let resolve_at = lapse_at + CLAIM;
        let acts = w.tick(resolve_at);
        assert!(sends(&acts).contains(&&SupervisionMsg::Adopt {
            target: 1,
            adopter: 2
        }));
        assert!(acts.contains(&PeerAction::StartRemote { target: 1 }));
        assert!(w.is_adopter_of(1));
        assert_eq!(w.adopted(), vec![1]);

        // The target's lease resumes → release + stop remote session.
        let acts = w.on_msg(
            resolve_at + 50_000,
            &SupervisionMsg::Lease {
                holder: 1,
                ttl_micros: LEASE,
            },
        );
        assert!(sends(&acts).contains(&&SupervisionMsg::Release {
            target: 1,
            adopter: 2
        }));
        assert!(acts.contains(&PeerAction::StopRemote { target: 1 }));
        assert!(!w.is_adopter_of(1));
        let report = w.report();
        assert_eq!(report.lapses, 1);
        assert_eq!(report.adoptions, 1);
        assert_eq!(report.releases, 1);
    }

    #[test]
    fn lowest_member_id_wins_a_contested_claim() {
        // Three watchers of the same dead peer 9: ids 2, 3, 5. All bid
        // during the window; every one must independently resolve the
        // same winner (2) from the same bid set.
        let mut w2 = watcher(2, &[3, 5, 9]);
        let mut w3 = watcher(3, &[2, 5, 9]);
        let mut w5 = watcher(5, &[2, 3, 9]);
        for w in [&mut w2, &mut w3, &mut w5] {
            w.tick(0);
            lease(w, 100, 9);
        }
        let lapse_at = 100 + LEASE + GRACE + 1;
        // The live watchers keep heartbeating each other; only 9 lapses.
        for w in [&mut w2, &mut w3, &mut w5] {
            for holder in [2u64, 3, 5] {
                if holder != w.self_id() {
                    lease(w, lapse_at - 10, holder);
                }
            }
        }
        for w in [&mut w2, &mut w3, &mut w5] {
            let acts = w.tick(lapse_at);
            assert_eq!(
                sends(&acts).iter().filter(|m| m.kind() == "claim").count(),
                1
            );
        }
        // Everyone hears everyone's claim inside the window.
        for w in [&mut w2, &mut w3, &mut w5] {
            for claimant in [2u64, 3, 5] {
                if claimant == w.self_id() {
                    continue;
                }
                w.on_msg(
                    lapse_at + 10_000,
                    &SupervisionMsg::Claim {
                        target: 9,
                        claimant,
                    },
                );
            }
        }
        let resolve_at = lapse_at + CLAIM;
        let a2 = w2.tick(resolve_at);
        let a3 = w3.tick(resolve_at);
        let a5 = w5.tick(resolve_at);
        assert!(
            a2.contains(&PeerAction::StartRemote { target: 9 }),
            "lowest id adopts: {a2:?}"
        );
        assert!(!a3
            .iter()
            .any(|a| matches!(a, PeerAction::StartRemote { .. })));
        assert!(!a5
            .iter()
            .any(|a| matches!(a, PeerAction::StartRemote { .. })));
        assert!(w2.is_adopter_of(9));
        assert!(!w3.is_adopter_of(9));
        assert!(!w5.is_adopter_of(9));
        assert_eq!(w3.report().claims_lost, 1);
        assert_eq!(w5.report().claims_lost, 1);
        assert_eq!(
            w3.lease_table()
                .iter()
                .find(|l| l.peer == 9)
                .unwrap()
                .adopter,
            Some(2)
        );
    }

    #[test]
    fn a_resumed_lease_refutes_an_open_claim() {
        let mut w = watcher(2, &[1]);
        w.tick(0);
        lease(&mut w, 100, 1);
        let lapse_at = 100 + LEASE + GRACE + 1;
        w.tick(lapse_at);
        assert_eq!(w.lease_table()[0].state, "claiming");
        // The lease beats the window close: no adoption ever happens.
        lease(&mut w, lapse_at + 100_000, 1);
        assert_eq!(w.lease_table()[0].state, "watching");
        let acts = w.tick(lapse_at + CLAIM);
        assert!(
            !acts
                .iter()
                .any(|a| matches!(a, PeerAction::StartRemote { .. })),
            "withdrawn claim must not adopt: {acts:?}"
        );
        assert_eq!(w.report().adoptions, 0);
    }

    #[test]
    fn higher_id_adopter_steps_down_to_a_lower_rival() {
        // Watcher 5 adopted peer 9 during a partition; then 2's Adopt
        // arrives across the healed link. 5 must cede — the tie-break is
        // global, not first-come.
        let mut w5 = watcher(5, &[2, 9]);
        w5.tick(0);
        lease(&mut w5, 100, 9);
        let lapse_at = 100 + LEASE + GRACE + 1;
        w5.tick(lapse_at);
        let acts = w5.tick(lapse_at + CLAIM);
        assert!(acts.contains(&PeerAction::StartRemote { target: 9 }));

        let acts = w5.on_msg(
            lapse_at + CLAIM + 50_000,
            &SupervisionMsg::Adopt {
                target: 9,
                adopter: 2,
            },
        );
        assert_eq!(acts, vec![PeerAction::StopRemote { target: 9 }]);
        assert!(!w5.is_adopter_of(9));
        assert_eq!(w5.report().stepdowns, 1);

        // The mirror case: a *higher*-id rival's Adopt is ignored.
        let mut w2 = watcher(2, &[5, 9]);
        w2.tick(0);
        lease(&mut w2, 100, 9);
        w2.tick(lapse_at);
        w2.tick(lapse_at + CLAIM);
        assert!(w2.is_adopter_of(9));
        let acts = w2.on_msg(
            lapse_at + CLAIM + 50_000,
            &SupervisionMsg::Adopt {
                target: 9,
                adopter: 5,
            },
        );
        assert!(acts.is_empty());
        assert!(w2.is_adopter_of(9), "the lower id keeps the role");
    }

    #[test]
    fn a_lapsed_adopter_orphans_its_wards_back_to_the_watchers() {
        // 3 deferred peer 9 to adopter 2; then 2 itself goes silent.
        // 3 must claim 2 *and* re-arm its watch on 9.
        let mut w3 = watcher(3, &[2, 9]);
        w3.tick(0);
        lease(&mut w3, 100, 2);
        lease(&mut w3, 100, 9);
        let lapse_at = 100 + LEASE + GRACE + 1;
        w3.tick(lapse_at);
        w3.on_msg(
            lapse_at + 1000,
            &SupervisionMsg::Claim {
                target: 9,
                claimant: 2,
            },
        );
        // 2 keeps heartbeating while the window runs, then wins 9.
        lease(&mut w3, lapse_at + 2000, 2);
        w3.tick(lapse_at + CLAIM);
        w3.on_msg(
            lapse_at + CLAIM + 1000,
            &SupervisionMsg::Adopt {
                target: 9,
                adopter: 2,
            },
        );
        let table = w3.lease_table();
        assert_eq!(
            table.iter().find(|l| l.peer == 9).unwrap().state,
            "deferred"
        );

        // Now 2 goes silent past its own window: its lapse re-arms 9.
        let two_lapse = lapse_at + 2000 + LEASE + GRACE + 1;
        let acts = w3.tick(two_lapse);
        assert!(sends(&acts).contains(&&SupervisionMsg::Claim {
            target: 2,
            claimant: 3
        }));
        let table = w3.lease_table();
        assert_eq!(
            table.iter().find(|l| l.peer == 9).unwrap().state,
            "watching",
            "the orphaned ward is watched again"
        );
        // ...and one more silent window later, 3 claims 9 too.
        let nine_lapse = two_lapse + LEASE + GRACE + 1;
        let acts = w3.tick(nine_lapse);
        assert!(sends(&acts).contains(&&SupervisionMsg::Claim {
            target: 9,
            claimant: 3
        }));
    }

    #[test]
    fn lease_table_renders_as_json() {
        let mut w = watcher(2, &[1, 7]);
        w.tick(0);
        lease(&mut w, 100, 1);
        let json = peer_lease_json(&w.lease_table());
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"peer\": 1"));
        assert!(json.contains("\"state\": \"watching\""));
        assert!(json.contains("\"last_lease_micros\": 100"));
        assert!(json.contains("\"adopter\": null"));
        assert_eq!(peer_lease_json(&[]), "[]");
    }

    #[test]
    fn heartbeats_recur_on_cadence() {
        let mut w = watcher(1, &[2]);
        let mut beats = 0;
        for t in (0..=2_000_000).step_by(100_000) {
            beats += sends(&w.tick(t))
                .iter()
                .filter(|m| m.kind() == "lease")
                .count();
        }
        // 2 s at a 500 ms cadence: t=0, 500k, 1M, 1.5M, 2M.
        assert_eq!(beats, 5);
        assert_eq!(w.report().leases_sent, 5);
    }
}
