//! The cell's own detect → repair loop.
//!
//! On every turn it is due — each tick of the cell's, which a threaded
//! cell's timer and a step-driven cell's [`SmcCell::step`] both run — the
//! loop samples whether discovery and the sink run, walks each through the
//! `component-down` hysteresis, and publishes every transition as an
//! `smc.health` event with [`SmcCell::publish_local`]. The cell's own
//! obligations then decide: the built-in `restart-failed` policy fires
//! [`ActionSpec::Restart`](smc_policy::ActionSpec), which
//! `execute_action` hands to the cell's [`Supervisor`] for intensity,
//! backoff and escalation, and the supervisor's plan is carried out here
//! — a restart reopens the dead component's endpoint
//! ([`Transport::reopen`](smc_transport::Transport::reopen)) and rebuilds
//! it from the log. A component whose endpoint will not reopen (its old
//! address is still held) is wedged; its restarts fail until the
//! supervisor escalates to `core`, the one repair a process cannot do to
//! itself: the cell publishes it as an `smc.health` event for its owner
//! to act on (reboot it from the log).
//!
//! A wire `Repair` command published into the cell (`smc.supervision`)
//! fires the same action through the built-in peer-repair policy and is
//! carried out directly: the sibling that sent it has already decided.
//! It is also what revives a loop that was stopped.
//!
//! Every 500 ms the loop also runs anti-entropy ([`SmcCell::reconcile`]).
//! A pass whose views all agree with the log by digest reads no log, so
//! a quiet cell's passes cost it next to nothing; only a divergence folds
//! the log. The timer outlives both endpoints, so a cell whose discovery
//! and sink are both down restarts both.
//!
//! A turn with no transition, no open episode and no pass due takes no
//! heap memory.

use std::iter::zip;
use std::sync::Arc;

use smc_health::HealthState::{Degraded, Failed, Healthy};
use smc_health::{
    health_event, ComponentHealth, HealthState, HealthTransition, Hysteresis, RepairAction,
    SuperviseConfig, SupervisionReport, Supervisor,
};
use smc_transport::Transport;
use smc_types::member::wellknown;
use smc_types::Event;

use super::SmcCell;

/// The detector the loop's transitions name.
const DETECTOR: &str = "component-down";
/// What the loop watches, in sampling order.
const COMPONENTS: [&str; 2] = ["discovery", "sink"];
/// The escalation target: the whole cell.
const CORE: &str = "core";
/// Sampling cadence. Two bad samples fail a component, one good one
/// recovers it.
const SAMPLE_MICROS: u64 = 250_000;
const HYSTERESIS: Hysteresis = Hysteresis {
    degrade_after: 1,
    fail_after: 2,
    recover_after: 1,
};
/// Anti-entropy cadence.
const RECONCILE_MICROS: u64 = 500_000;

/// A transition of `component` under the loop's detector name.
fn transition(
    at_micros: u64,
    component: &str,
    (from, to): (HealthState, HealthState),
    detail: String,
) -> HealthTransition {
    HealthTransition {
        at_micros,
        component: component.to_owned(),
        detector: DETECTOR,
        from,
        to,
        detail,
    }
}

/// The loop's state, behind the cell's `supervision` lock.
pub(super) struct Loop {
    /// Off after [`SmcCell::set_supervising`]`(false)` or
    /// [`SmcCell::shutdown`], and in a cell with no log to restart from.
    running: bool,
    health: [ComponentHealth; 2],
    /// When the loop next has work: the next sample or pass, or at once
    /// after a repair.
    due: u64,
    next_sample: u64,
    next_reconcile: u64,
    supervisor: Supervisor,
    /// Repairs carried out, the loop's own and a sibling's.
    repairs: [Vec<(u64, String)>; 2],
}

impl Loop {
    pub(super) fn new(running: bool) -> Loop {
        Loop {
            running,
            health: Default::default(),
            due: 0,
            next_sample: 0,
            next_reconcile: 0,
            supervisor: Supervisor::new(CORE, &COMPONENTS, SuperviseConfig::default()),
            repairs: Default::default(),
        }
    }
}

impl SmcCell {
    /// One turn of the loop at the clock's now: sample if due, publish
    /// transitions, retry or escalate open episodes, and run anti-entropy
    /// if due.
    pub(super) fn manage(&self) {
        let now = self.config.clock.now_micros();
        let Some(mut lp) = self.supervision.try_lock() else {
            return;
        };
        if now < lp.due || !lp.running {
            return;
        }
        let mut transitions = Vec::new();
        if now >= lp.next_sample {
            lp.next_sample = now + SAMPLE_MICROS;
            let up = [
                !self.discovery_channel().is_closed(),
                !self.bus_channel().is_closed(),
            ];
            for (i, component) in COMPONENTS.into_iter().enumerate() {
                if let Some((from, to)) = lp.health[i].observe(up[i], &HYSTERESIS) {
                    let detail = format!("up={}", u8::from(up[i]));
                    transitions.push(transition(now, component, (from, to), detail));
                }
            }
        }
        // A recovery closes its episode here; a failure goes through the
        // cell's obligations, which open it.
        for t in transitions.iter().filter(|t| t.to == Healthy) {
            lp.supervisor.on_transition(t);
        }
        let mut actions = Vec::new();
        if lp.health.iter().any(|h| h.state() != Healthy) {
            let states = lp.health.each_ref().map(ComponentHealth::state);
            let healthy = |c: &str| zip(COMPONENTS, states).any(|(k, s)| k == c && s == Healthy);
            actions = lp.supervisor.tick(now, healthy);
        }
        let reconcile = now >= lp.next_reconcile;
        if reconcile {
            lp.next_reconcile = now + RECONCILE_MICROS;
        }
        lp.due = lp.next_sample.min(lp.next_reconcile);
        drop(lp);
        if reconcile {
            let fixes = self.reconcile().map(|r| r.divergences).unwrap_or_default();
            self.supervision
                .lock()
                .supervisor
                .record_reconcile(now, &fixes);
        }
        for t in &transitions {
            let _ = self.publish_local(health_event(t, None));
        }
        self.carry_out(actions);
    }

    /// Executes a fired [`ActionSpec::Restart`](smc_policy::ActionSpec)
    /// of `component`. On an `smc.health` trigger it is the loop's own
    /// failure: the supervisor opens the episode and plans the repair
    /// (nothing while the loop is stopped; `core` is the owner's to
    /// restart). Any other trigger is a command a sibling already
    /// decided, carried out as it stands.
    pub(super) fn on_restart(&self, component: &str, trigger: &Event) {
        if trigger.event_type() != wellknown::HEALTH {
            self.repair(component, true);
            return;
        }
        let mut lp = self.supervision.lock();
        if !lp.running || component == CORE {
            return;
        }
        let now = self.config.clock.now_micros();
        let detail = trigger.attr(wellknown::HEALTH_DETAIL);
        let detail = detail.and_then(|v| v.as_str()).unwrap_or_default();
        let failed = transition(now, component, (Degraded, Failed), detail.into());
        let actions = lp.supervisor.on_transition(&failed);
        drop(lp);
        self.carry_out(actions);
    }

    /// Carries out the supervisor's plan: a restart, or an escalation's
    /// restart of the component it names.
    fn carry_out(&self, actions: Vec<RepairAction>) {
        for action in actions {
            let (RepairAction::Restart { component, .. }
            | RepairAction::Escalate {
                target: component, ..
            }) = action;
            self.repair(&component, false);
        }
    }

    /// Carries out one repair of `component` and books what came of it
    /// (`remote`: a sibling ordered it). A repair is checked on the next
    /// turn, not the next sampling window.
    fn repair(&self, component: &str, remote: bool) {
        let now = self.config.clock.now_micros();
        let outcome = match component {
            "discovery" | "sink" => {
                let channel = if component == "sink" {
                    self.bus_channel()
                } else {
                    self.discovery_channel()
                };
                if !channel.is_closed() {
                    // Already back: the detector lags the repair.
                    return;
                }
                match self.restart(component, channel.transport()) {
                    Ok(()) => "done".to_owned(),
                    Err(why) => format!("failed ({why})"),
                }
            }
            CORE => {
                let why = if remote {
                    "ordered by a sibling"
                } else {
                    "escalated"
                };
                let escalation = transition(now, CORE, (Healthy, Failed), why.into());
                let _ = self.publish_local(health_event(&escalation, None));
                "handed to the owner".to_owned()
            }
            "supervisor" => {
                let mut lp = self.supervision.lock();
                if lp.running {
                    return;
                }
                lp.running = true;
                "revived".to_owned()
            }
            _ => return,
        };
        let mut lp = self.supervision.lock();
        lp.repairs[usize::from(remote)].push((now, format!("{component}: {outcome}")));
        lp.next_sample = now;
        lp.due = now;
    }

    /// Restarts `component` on a reopening of `transport`, its old
    /// endpoint. An endpoint that will not reopen makes the component
    /// wedged.
    fn restart(
        &self,
        component: &str,
        transport: &Arc<dyn Transport>,
    ) -> std::result::Result<(), String> {
        let Some(cell) = self.me.upgrade() else {
            return Err("cell is going away".into());
        };
        let transport = transport.reopen().map_err(|e| format!("wedged: {e}"))?;
        let restarted = if component == "sink" {
            cell.restart_bus(transport)
        } else {
            cell.restart_discovery(transport)
        };
        restarted.map_err(|e| e.to_string())
    }

    /// Starts or stops the cell's detect → repair loop, for the
    /// supervision tests: a stopped loop samples, repairs and reconciles
    /// nothing until this call or a sibling's `supervisor` repair starts
    /// it again.
    #[doc(hidden)]
    pub fn set_supervising(&self, on: bool) {
        let mut lp = self.supervision.lock();
        lp.running = on && self.wal.is_some();
        lp.due = 0;
    }

    /// The loop's report: the supervisor's episodes and log, the repairs
    /// carried out, and each component's health as last sampled.
    pub fn supervision(&self) -> SupervisionReport {
        let lp = self.supervision.lock();
        let mut report = lp.supervisor.report();
        [report.repairs, report.remote_repairs] = lp.repairs.clone();
        report.components = COMPONENTS
            .iter()
            .zip(&lp.health)
            .map(|(c, h)| (c.to_string(), h.state()))
            .collect();
        report
    }
}
