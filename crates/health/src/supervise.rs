//! The supervisor: the *repair* half of the autonomic loop.
//!
//! PR 4 built detection — detectors vote, state machines walk
//! `Healthy → Degraded → Failed`, transitions become `smc.health`
//! events. Nothing acted beyond quenching. This module closes the
//! detect → repair loop with a [`Supervisor`] over the cell's
//! components and the one their repairs escalate to, which turns
//! `Failed` transitions into [`RepairAction`]s:
//!
//! * **restart** the failed component from its durable state (the
//!   embedder re-runs the relevant slice of the `start_durable`
//!   machinery and re-attaches sinks through the RouteTable control
//!   path);
//! * **escalate** up the graph when restarts don't clear the detector —
//!   a wedged sink endpoint eventually takes the whole core down and
//!   back up, exactly like a crash-recovery cycle.
//!
//! The supervisor is deliberately **passive and deterministic**: it
//! never spawns threads or touches components itself. Its embedder — the
//! cell's own loop (`smc_core::SmcCell`) — feeds it transitions and
//! periodic ticks and executes the actions it returns, booking what came of each in
//! the report ([`SupervisionReport::repairs`]).
//! That keeps every repair decision on the virtual clock and replayable
//! per seed.
//!
//! Repair is judged by the *detector*, not by the restart having run:
//! an episode stays open until the component's health walks back to
//! `Healthy`. Time-to-repair is the virtual time from the `Failed`
//! transition to that recovery.

use std::collections::BTreeMap;

use smc_telemetry::json_string;

use crate::monitor::HealthTransition;
use crate::state::HealthState;

/// Supervisor tuning.
#[derive(Debug, Clone, Copy)]
pub struct SuperviseConfig {
    /// Restart attempts per component before escalating up the graph.
    pub max_restarts: u32,
    /// How long (virtual µs) a repair action gets to clear the detector
    /// before the supervisor tries again or escalates.
    pub retry_after_micros: u64,
}

impl Default for SuperviseConfig {
    fn default() -> Self {
        SuperviseConfig {
            max_restarts: 2,
            retry_after_micros: 1_000_000,
        }
    }
}

/// One repair the embedder must execute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RepairAction {
    /// Restart `component` from its durable state.
    Restart {
        /// The component to restart.
        component: String,
        /// Which attempt this is within the current episode (1-based).
        attempt: u32,
    },
    /// Restarting `failed` did not clear its detector; restart `target`
    /// (its escalation target) instead.
    Escalate {
        /// The component whose repairs were exhausted.
        failed: String,
        /// The ancestor whose restart subsumes it.
        target: String,
    },
}

impl std::fmt::Display for RepairAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RepairAction::Restart { component, attempt } => {
                write!(f, "restart {component} (attempt {attempt})")
            }
            RepairAction::Escalate { failed, target } => {
                write!(f, "escalate {failed} -> {target}")
            }
        }
    }
}

/// One open failure episode: a component that went `Failed` and has not
/// yet walked back to `Healthy`.
#[derive(Debug, Clone)]
struct Episode {
    /// When the `Failed` transition landed.
    failed_at: u64,
    /// The component currently being repaired — starts as the failed
    /// component, moves up the graph on escalation.
    current: String,
    /// Restart attempts against `current`.
    attempts: u32,
    /// When the last repair action was issued.
    last_action_at: Option<u64>,
}

/// Summary of everything the supervisor saw and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SupervisionReport {
    /// Restart actions issued.
    pub restarts: u64,
    /// Escalations issued.
    pub escalations: u64,
    /// Divergences repaired by anti-entropy reconcile passes (recorded
    /// via [`Supervisor::record_reconcile`]).
    pub reconcile_repairs: u64,
    /// Anti-entropy passes recorded, whether or not they repaired
    /// anything.
    pub reconciles: u64,
    /// Completed episodes' time-to-repair, virtual µs, in completion
    /// order (`Failed` transition → `Healthy` recovery).
    pub ttr_micros: Vec<u64>,
    /// Components with an episode still open, and when each failed.
    pub unresolved: Vec<(String, u64)>,
    /// The full repair log: `(at_micros, what)`.
    pub log: Vec<(u64, String)>,
    /// What the embedder made of each repair this supervisor planned:
    /// `(at_micros, "sink: done")`. The supervisor plans; only the
    /// embedder knows whether the restart took.
    pub repairs: Vec<(u64, String)>,
    /// What it made of each repair a sibling ordered over the wire.
    pub remote_repairs: Vec<(u64, String)>,
    /// The supervised components' health as the embedder last sampled
    /// it, in its sampling order.
    pub components: Vec<(String, HealthState)>,
}

impl SupervisionReport {
    /// Mean time-to-repair over completed episodes (0 when none).
    pub fn mean_ttr_micros(&self) -> u64 {
        if self.ttr_micros.is_empty() {
            0
        } else {
            self.ttr_micros.iter().sum::<u64>() / self.ttr_micros.len() as u64
        }
    }

    /// `true` when every failure episode was repaired.
    pub fn converged(&self) -> bool {
        self.unresolved.is_empty()
    }

    /// Render the report as a JSON object (no trailing newline), the
    /// shape `/supervision` serves. The decision log is summarised as a
    /// length — the flight recorder owns full post-mortems.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let list = |items: &[u64]| {
            items
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        };
        let unresolved = self
            .unresolved
            .iter()
            .map(|(c, _)| json_string(c))
            .collect::<Vec<_>>()
            .join(", ");
        let components = self
            .components
            .iter()
            .map(|(c, state)| format!("{}: \"{state}\"", json_string(c)))
            .collect::<Vec<_>>()
            .join(", ");
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"restarts\": {}, \"escalations\": {}, \"reconcile_repairs\": {}, \
             \"reconciles\": {}, \"mean_ttr_micros\": {}, \"ttr_micros\": [{}], \
             \"unresolved\": [{}], \"converged\": {}, \"log_len\": {}, \"repairs\": {}, \
             \"components\": {{{components}}}",
            self.restarts,
            self.escalations,
            self.reconcile_repairs,
            self.reconciles,
            self.mean_ttr_micros(),
            list(&self.ttr_micros),
            unresolved,
            self.converged(),
            self.log.len(),
            self.repairs.len(),
        );
        out.push('}');
        out
    }
}

/// The supervisor: consumes health transitions and reports, produces
/// [`RepairAction`]s, and accounts for every episode.
///
/// Drive it with [`Supervisor::on_transition`] for each transition the
/// monitor emits **and** [`Supervisor::tick`] once per sampling window.
/// The tick is load-bearing: the monitor only reports *changes*, so a
/// component that stays `Failed` after a botched restart is silent —
/// only the tick's retry timeout notices and escalates.
#[derive(Debug)]
pub struct Supervisor {
    /// Where every repair escalates; it restarts itself.
    top: String,
    /// The components whose repairs escalate to `top`.
    children: Vec<String>,
    config: SuperviseConfig,
    episodes: BTreeMap<String, Episode>,
    report: SupervisionReport,
}

impl Supervisor {
    /// A supervisor over `children`, whose exhausted repairs escalate
    /// to `top`.
    pub fn new(top: &str, children: &[&str], config: SuperviseConfig) -> Supervisor {
        Supervisor {
            top: top.to_owned(),
            children: children.iter().map(|c| c.to_string()).collect(),
            config,
            episodes: BTreeMap::new(),
            report: SupervisionReport::default(),
        }
    }

    /// Feeds one monitor transition. A `Failed` transition on a
    /// supervised component opens an episode and returns its first
    /// repair action; a recovery to `Healthy` closes the episode and
    /// books its time-to-repair.
    pub fn on_transition(&mut self, t: &HealthTransition) -> Vec<RepairAction> {
        if t.component != self.top && !self.children.contains(&t.component) {
            return Vec::new();
        }
        match t.to {
            HealthState::Failed => {
                if self.episodes.contains_key(&t.component) {
                    return Vec::new();
                }
                self.log(
                    t.at_micros,
                    format!("{} failed [{}]: {}", t.component, t.detector, t.detail),
                );
                self.episodes.insert(
                    t.component.clone(),
                    Episode {
                        failed_at: t.at_micros,
                        current: t.component.clone(),
                        attempts: 0,
                        last_action_at: None,
                    },
                );
                self.plan(&t.component, t.at_micros).into_iter().collect()
            }
            HealthState::Healthy => {
                if let Some(ep) = self.episodes.remove(&t.component) {
                    let ttr = t.at_micros.saturating_sub(ep.failed_at);
                    self.report.ttr_micros.push(ttr);
                    self.log(
                        t.at_micros,
                        format!("{} repaired after {ttr} µs", t.component),
                    );
                }
                Vec::new()
            }
            HealthState::Degraded => Vec::new(),
        }
    }

    /// One supervision tick: retries or escalates open episodes whose
    /// last action has had `retry_after_micros` to work and whose
    /// component is still not `healthy`. Call once per sampling window,
    /// after feeding transitions.
    pub fn tick(&mut self, now_micros: u64, healthy: impl Fn(&str) -> bool) -> Vec<RepairAction> {
        let open: Vec<String> = self.episodes.keys().cloned().collect();
        let mut actions = Vec::new();
        for component in open {
            if healthy(&component) {
                // Defensive close: the recovery transition is the normal
                // close path, but a purged component can vanish from the
                // transition stream.
                if let Some(ep) = self.episodes.remove(&component) {
                    let ttr = now_micros.saturating_sub(ep.failed_at);
                    self.report.ttr_micros.push(ttr);
                    self.log(now_micros, format!("{component} repaired after {ttr} µs"));
                }
                continue;
            }
            let due = self
                .episodes
                .get(&component)
                .and_then(|ep| ep.last_action_at)
                .is_none_or(|last| now_micros >= last + self.config.retry_after_micros);
            if due {
                actions.extend(self.plan(&component, now_micros));
            }
        }
        actions
    }

    /// Books the outcome of an anti-entropy reconcile pass into the
    /// report (the supervisor does not run reconciliation itself — the
    /// embedder owns the durable truth).
    pub fn record_reconcile(&mut self, now_micros: u64, divergences: &[String]) {
        self.report.reconciles += 1;
        self.report.reconcile_repairs += divergences.len() as u64;
        for d in divergences {
            self.log(now_micros, format!("reconcile: {d}"));
        }
    }

    /// The running report. `unresolved` reflects episodes open right
    /// now.
    pub fn report(&self) -> SupervisionReport {
        let mut report = self.report.clone();
        let open = self.episodes.iter();
        report.unresolved = open.map(|(c, ep)| (c.clone(), ep.failed_at)).collect();
        report
    }

    /// Decides the next action for `component`'s episode: restart until
    /// `max_restarts`, then escalate one step up the graph (the episode
    /// then repairs the ancestor); at the top of the graph, keep
    /// restarting — there is nothing bigger to take down.
    fn plan(&mut self, component: &str, now_micros: u64) -> Option<RepairAction> {
        let ep = self.episodes.get_mut(component)?;
        ep.last_action_at = Some(now_micros);
        if ep.attempts < self.config.max_restarts {
            ep.attempts += 1;
            let action = RepairAction::Restart {
                component: ep.current.clone(),
                attempt: ep.attempts,
            };
            self.report.restarts += 1;
            self.log(now_micros, action.to_string());
            return Some(action);
        }
        if ep.current != self.top {
            let target = self.top.clone();
            ep.current = target.clone();
            ep.attempts = 1;
            let action = RepairAction::Escalate {
                failed: component.to_owned(),
                target,
            };
            self.report.escalations += 1;
            self.report.restarts += 1;
            self.log(now_micros, action.to_string());
            return Some(action);
        }
        // Top of the graph: nothing to escalate to, keep trying.
        ep.attempts = 1;
        let action = RepairAction::Restart {
            component: ep.current.clone(),
            attempt: ep.attempts,
        };
        self.report.restarts += 1;
        self.log(now_micros, action.to_string());
        Some(action)
    }

    fn log(&mut self, at_micros: u64, what: String) {
        self.report.log.push((at_micros, what));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn failed(component: &str, at: u64) -> HealthTransition {
        HealthTransition {
            at_micros: at,
            component: component.into(),
            detector: "component-down",
            from: HealthState::Degraded,
            to: HealthState::Failed,
            detail: "up=0".into(),
        }
    }

    fn recovered(component: &str, at: u64) -> HealthTransition {
        HealthTransition {
            at_micros: at,
            component: component.into(),
            detector: "component-down",
            from: HealthState::Degraded,
            to: HealthState::Healthy,
            detail: "up=1".into(),
        }
    }

    fn supervisor(config: SuperviseConfig) -> Supervisor {
        Supervisor::new("core", &["discovery", "sink"], config)
    }

    /// Every component but `sink`, which is still down.
    fn sink_down(component: &str) -> bool {
        component != "sink"
    }

    #[test]
    fn failed_transition_opens_episode_and_restarts() {
        let mut s = supervisor(SuperviseConfig::default());
        let actions = s.on_transition(&failed("discovery", 1_000));
        assert_eq!(
            actions,
            vec![RepairAction::Restart {
                component: "discovery".into(),
                attempt: 1
            }]
        );
        // Duplicate Failed transitions don't double-open.
        assert!(s.on_transition(&failed("discovery", 2_000)).is_empty());
        assert_eq!(s.report().unresolved, vec![("discovery".to_owned(), 1_000)]);

        let none = s.on_transition(&recovered("discovery", 5_000));
        assert!(none.is_empty());
        let report = s.report();
        assert!(report.converged());
        assert_eq!(report.ttr_micros, vec![4_000]);
        assert_eq!(report.mean_ttr_micros(), 4_000);
        assert_eq!(report.restarts, 1);
    }

    #[test]
    fn unsupervised_components_are_ignored() {
        let mut s = supervisor(SuperviseConfig::default());
        assert!(s.on_transition(&failed("channel:device3", 0)).is_empty());
        assert!(s.report().converged());
    }

    #[test]
    fn tick_retries_then_escalates_a_wedged_component() {
        let mut s = supervisor(SuperviseConfig {
            max_restarts: 2,
            retry_after_micros: 1_000,
        });
        assert_eq!(s.on_transition(&failed("sink", 0)).len(), 1);
        // Inside the retry window: nothing.
        assert!(s.tick(500, sink_down).is_empty());
        // Second restart attempt.
        assert_eq!(
            s.tick(1_000, sink_down),
            vec![RepairAction::Restart {
                component: "sink".into(),
                attempt: 2
            }]
        );
        // Attempts exhausted → escalate to core.
        assert_eq!(
            s.tick(2_000, sink_down),
            vec![RepairAction::Escalate {
                failed: "sink".into(),
                target: "core".into()
            }]
        );
        // Core is top of the graph: further ticks keep restarting core.
        assert_eq!(
            s.tick(3_000, sink_down),
            vec![RepairAction::Restart {
                component: "core".into(),
                attempt: 2
            }]
        );
        let report = s.report();
        assert_eq!(report.escalations, 1);
        assert!(!report.converged());

        // The detector finally clears; the tick closes the episode.
        assert!(s.tick(4_000, |_| true).is_empty());
        let report = s.report();
        assert!(report.converged());
        assert_eq!(report.ttr_micros, vec![4_000]);
    }

    #[test]
    fn retry_fires_at_exactly_the_deadline_tick() {
        // The retry window is inclusive: `now == last_action +
        // retry_after` is due, one tick earlier is not. The boundary
        // matters because the harness drives ticks on exact virtual
        // cadences — an exclusive compare would silently push every
        // retry one whole sampling window late.
        let mut s = supervisor(SuperviseConfig {
            max_restarts: 3,
            retry_after_micros: 1_000,
        });
        assert_eq!(s.on_transition(&failed("sink", 0)).len(), 1);
        assert!(
            s.tick(999, sink_down).is_empty(),
            "one µs before the deadline must not retry"
        );
        assert_eq!(
            s.tick(1_000, sink_down),
            vec![RepairAction::Restart {
                component: "sink".into(),
                attempt: 2
            }],
            "exactly at the deadline the retry fires"
        );
        // The clock rebased on the retry: the next boundary is equally
        // exact relative to the *retry*, not the original failure.
        assert!(s.tick(1_999, sink_down).is_empty());
        assert_eq!(
            s.tick(2_000, sink_down),
            vec![RepairAction::Restart {
                component: "sink".into(),
                attempt: 3
            }]
        );
    }

    #[test]
    fn restart_budget_exhausts_only_after_the_retry_clock_fires() {
        // With a budget of one restart, the second action is an
        // escalation — but only once the retry window has elapsed. The
        // budget check must never pre-empt the clock: a wedged component
        // gets its full `retry_after` to come back before the supervisor
        // walks up the graph.
        let mut s = supervisor(SuperviseConfig {
            max_restarts: 1,
            retry_after_micros: 1_000,
        });
        assert_eq!(
            s.on_transition(&failed("sink", 0)),
            vec![RepairAction::Restart {
                component: "sink".into(),
                attempt: 1
            }]
        );
        // Budget already spent, but inside the window: still silent.
        assert!(s.tick(500, sink_down).is_empty());
        assert!(s.tick(999, sink_down).is_empty());
        assert_eq!(s.report().escalations, 0, "no escalation before the clock");
        // The retry clock fires with no budget left → escalate.
        assert_eq!(
            s.tick(1_000, sink_down),
            vec![RepairAction::Escalate {
                failed: "sink".into(),
                target: "core".into()
            }]
        );
        assert_eq!(s.report().escalations, 1);
    }

    #[test]
    fn report_renders_as_json() {
        let mut s = supervisor(SuperviseConfig {
            max_restarts: 1,
            retry_after_micros: 1_000,
        });
        s.on_transition(&failed("sink", 0));
        s.on_transition(&recovered("sink", 2_500));
        let json = s.report().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"restarts\": 1"));
        assert!(json.contains("\"ttr_micros\": [2500]"));
        assert!(json.contains("\"converged\": true"));
        assert!(json.contains("\"unresolved\": []"));
    }

    #[test]
    fn unresolved_names_are_escaped_in_json() {
        let report = SupervisionReport {
            unresolved: vec![("ward \"b\" \\ 3".into(), 0)],
            ..SupervisionReport::default()
        };
        let json = report.to_json();
        assert!(
            json.contains(r#""unresolved": ["ward \"b\" \\ 3"]"#),
            "a quote or backslash in a name must be escaped: {json}"
        );
    }

    #[test]
    fn reconcile_outcomes_land_in_the_report() {
        let mut s = supervisor(SuperviseConfig::default());
        s.record_reconcile(7_000, &["removed ghost member 9".into()]);
        let report = s.report();
        assert_eq!(report.reconcile_repairs, 1);
        assert!(report
            .log
            .iter()
            .any(|(at, line)| *at == 7_000 && line.contains("ghost")));
    }
}
