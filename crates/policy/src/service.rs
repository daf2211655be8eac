//! The policy service: storage, runtime control, authorisation checks,
//! obligation evaluation and deployment by device type.
//!
//! "When a device is discovered and granted membership of an SMC, the
//! appropriate policies, based on device type, are deployed to it. …
//! Policies can be added, removed, enabled and disabled to change the
//! behaviour of cell components without reprogramming them."

use std::collections::BTreeMap;

use parking_lot::RwLock;

use smc_types::{Error, Event, Result};

use crate::model::{
    glob_matches, ActionClass, ActionSpec, AuthorisationPolicy, ObligationPolicy, Policy,
    PolicySet, ValueTemplate,
};

/// The outcome of an authorisation check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Explicitly permitted.
    Permit,
    /// Explicitly denied (deny overrides permit).
    Deny,
    /// No applicable policy; the caller applies its configured default.
    NotApplicable,
}

/// A fired obligation action, tagged with the policy that fired it and the
/// triggering event.
#[derive(Debug, Clone, PartialEq)]
pub struct FiredAction {
    /// The obligation policy that fired.
    pub policy_id: String,
    /// The action to execute.
    pub action: ActionSpec,
    /// The event that triggered it.
    pub trigger: Event,
}

#[derive(Debug)]
struct Stored {
    policy: Policy,
    enabled: bool,
}

#[derive(Debug, Default)]
struct State {
    /// Ordered by id: obligations are evaluated, and fire, in this order.
    policies: BTreeMap<String, Stored>,
    /// Device-type pattern → policy ids deployed on join.
    deployments: Vec<(String, Vec<String>)>,
    audit: Vec<String>,
}

/// The policy store and evaluation engine of one cell.
///
/// The service itself is passive: [`PolicyService::on_event`] *returns*
/// the actions to run, and the cell wiring (in `smc-core`) executes them
/// against the bus. Enable/disable actions are applied internally as a
/// side effect, since they concern the store itself.
///
/// # Example
///
/// ```
/// use smc_policy::{ActionSpec, Expr, ObligationPolicy, Policy, PolicyService};
/// use smc_types::{Event, Filter};
///
/// let service = PolicyService::new();
/// service.add(Policy::Obligation(
///     ObligationPolicy::new("alarm", Filter::for_type("smc.sensor.reading"))
///         .when(Expr::parse("bpm > 120")?)
///         .then(ActionSpec::Log("tachycardia".into())),
/// ))?;
/// let event = Event::builder("smc.sensor.reading").attr("bpm", 150i64).build();
/// let fired = service.on_event(&event);
/// assert_eq!(fired.len(), 1);
/// assert_eq!(fired[0].policy_id, "alarm");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Default)]
pub struct PolicyService {
    state: RwLock<State>,
}

impl PolicyService {
    /// Creates an empty policy service.
    pub fn new() -> Self {
        PolicyService::default()
    }

    /// Adds a policy (enabled).
    ///
    /// # Errors
    ///
    /// [`Error::AlreadyExists`] if a policy with the same id is stored.
    pub fn add(&self, policy: Policy) -> Result<()> {
        let mut st = self.state.write();
        let id = policy.id().to_owned();
        if st.policies.contains_key(&id) {
            return Err(Error::AlreadyExists(id));
        }
        st.policies.insert(
            id,
            Stored {
                policy,
                enabled: true,
            },
        );
        Ok(())
    }

    /// Removes a policy by id, returning it.
    ///
    /// # Errors
    ///
    /// [`Error::NotFound`] if no policy has that id.
    pub fn remove(&self, id: &str) -> Result<Policy> {
        let mut st = self.state.write();
        st.policies
            .remove(id)
            .map(|s| s.policy)
            .ok_or_else(|| Error::NotFound(id.to_owned()))
    }

    /// Enables a policy.
    ///
    /// # Errors
    ///
    /// [`Error::NotFound`] if no policy has that id.
    pub fn enable(&self, id: &str) -> Result<()> {
        self.set_enabled(id, true)
    }

    /// Disables a policy (it stays stored but never applies or fires).
    ///
    /// # Errors
    ///
    /// [`Error::NotFound`] if no policy has that id.
    pub fn disable(&self, id: &str) -> Result<()> {
        self.set_enabled(id, false)
    }

    fn set_enabled(&self, id: &str, enabled: bool) -> Result<()> {
        let mut st = self.state.write();
        match st.policies.get_mut(id) {
            Some(s) => {
                s.enabled = enabled;
                Ok(())
            }
            None => Err(Error::NotFound(id.to_owned())),
        }
    }

    /// Returns `true` if the policy exists and is enabled.
    pub fn is_enabled(&self, id: &str) -> bool {
        self.state
            .read()
            .policies
            .get(id)
            .is_some_and(|s| s.enabled)
    }

    /// Number of stored policies.
    pub fn len(&self) -> usize {
        self.state.read().policies.len()
    }

    /// Returns `true` if no policy is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ids of all stored policies, sorted.
    pub fn policy_ids(&self) -> Vec<String> {
        self.state.read().policies.keys().cloned().collect()
    }

    /// Checks whether `role` may perform `action` on `resource`.
    ///
    /// Deny overrides permit; with no applicable enabled policy the result
    /// is [`Decision::NotApplicable`].
    pub fn check(&self, role: &str, action: ActionClass, resource: &str) -> Decision {
        let st = self.state.read();
        let mut permitted = false;
        for stored in st.policies.values() {
            if !stored.enabled {
                continue;
            }
            if let Policy::Authorisation(p) = &stored.policy {
                if p.applies_to(role, action, resource) {
                    if !p.permit {
                        return Decision::Deny;
                    }
                    permitted = true;
                }
            }
        }
        if permitted {
            Decision::Permit
        } else {
            Decision::NotApplicable
        }
    }

    /// Evaluates all enabled obligation policies against `event` and
    /// returns the fired actions in (policy id, action order).
    ///
    /// `EnablePolicy` / `DisablePolicy` actions are applied to the store
    /// immediately (and still returned, for audit). Enable/disable take
    /// effect for *subsequent* events, not for other policies evaluating
    /// the same event — evaluation is a snapshot.
    pub fn on_event(&self, event: &Event) -> Vec<FiredAction> {
        let fired: Vec<FiredAction> = {
            let st = self.state.read();
            st.policies
                .values()
                .filter_map(|stored| {
                    if !stored.enabled {
                        return None;
                    }
                    match &stored.policy {
                        Policy::Obligation(p) if p.triggers_on(event) => {
                            Some(p.actions.iter().map(|a| FiredAction {
                                policy_id: p.id.clone(),
                                action: a.clone(),
                                trigger: event.clone(),
                            }))
                        }
                        _ => None,
                    }
                })
                .flatten()
                .collect()
        };
        // Apply store-directed actions.
        for f in &fired {
            match &f.action {
                ActionSpec::EnablePolicy(id) => {
                    let _ = self.enable(id);
                    self.log(format!("policy {} enabled {}", f.policy_id, id));
                }
                ActionSpec::DisablePolicy(id) => {
                    let _ = self.disable(id);
                    self.log(format!("policy {} disabled {}", f.policy_id, id));
                }
                ActionSpec::Log(msg) => {
                    self.log(format!("policy {}: {}", f.policy_id, msg));
                }
                _ => {}
            }
        }
        fired
    }

    /// Registers a deployment set: when a device whose type matches
    /// `device_type_pattern` joins, the listed policies are deployed to
    /// it.
    pub fn register_deployment(
        &self,
        device_type_pattern: impl Into<String>,
        policy_ids: Vec<String>,
    ) {
        self.state
            .write()
            .deployments
            .push((device_type_pattern.into(), policy_ids));
    }

    /// The policy bundle to deploy to a joining device of `device_type`.
    ///
    /// Unknown policy ids in a deployment set are skipped silently (the
    /// policy may have been removed since registration).
    pub fn deployment_for(&self, device_type: &str) -> PolicySet {
        let st = self.state.read();
        let mut policies = Vec::new();
        for (pattern, ids) in &st.deployments {
            if glob_matches(pattern, device_type) {
                for id in ids {
                    if let Some(stored) = st.policies.get(id) {
                        policies.push(stored.policy.clone());
                    }
                }
            }
        }
        PolicySet { policies }
    }

    /// Appends a line to the audit log.
    pub fn log(&self, line: String) {
        self.state.write().audit.push(line);
    }

    /// A copy of the audit log.
    pub fn audit_log(&self) -> Vec<String> {
        self.state.read().audit.clone()
    }

    /// Convenience: store every policy from a received [`PolicySet`],
    /// skipping ids that already exist.
    ///
    /// Returns how many were added.
    pub fn import(&self, set: PolicySet) -> usize {
        let mut added = 0;
        for p in set.policies {
            if self.add(p).is_ok() {
                added += 1;
            }
        }
        added
    }
}

/// Commonly useful baseline policies for an e-health cell.
pub fn ehealth_baseline() -> Vec<Policy> {
    vec![
        Policy::Authorisation(AuthorisationPolicy::permit(
            "sensors-publish-readings",
            "sensor",
            ActionClass::Publish,
            "smc.sensor.*",
        )),
        Policy::Authorisation(AuthorisationPolicy::permit(
            "managers-subscribe-all",
            "manager",
            ActionClass::Subscribe,
            "*",
        )),
        Policy::Authorisation(AuthorisationPolicy::permit(
            "actuators-subscribe-commands",
            "actuator",
            ActionClass::Subscribe,
            "smc.command",
        )),
        Policy::Authorisation(AuthorisationPolicy::deny(
            "nobody-commands-defib",
            "*",
            ActionClass::Command,
            "defibrillate",
        )),
    ]
}

/// The built-in autonomic health obligations: when the health monitor
/// reports a member's channel `Degraded`, quench that publisher
/// (Elvin-style — it stops publishing until woken); when the component
/// recovers to `Healthy`, wake it again. The `smc.health` event carries
/// the target's raw service id in `health.member`; transitions without
/// one (aggregate components like `wal`) simply don't trigger, because
/// the filter requires the attribute.
pub fn health_quench_policies() -> Vec<Policy> {
    use smc_types::member::wellknown;
    use smc_types::{Constraint, Filter, Op};
    vec![
        Policy::Obligation(
            ObligationPolicy::new(
                "builtin.health.quench-degraded",
                Filter::for_type(wellknown::HEALTH)
                    .with((wellknown::HEALTH_TO, Op::Eq, "degraded"))
                    .with(Constraint::new(wellknown::HEALTH_MEMBER, Op::Exists, 0i64)),
            )
            .then(ActionSpec::Quench {
                publisher: ValueTemplate::FromEvent(wellknown::HEALTH_MEMBER.into()),
                enable: true,
            }),
        ),
        Policy::Obligation(
            ObligationPolicy::new(
                "builtin.health.wake-recovered",
                Filter::for_type(wellknown::HEALTH)
                    .with((wellknown::HEALTH_TO, Op::Eq, "healthy"))
                    .with(Constraint::new(wellknown::HEALTH_MEMBER, Op::Exists, 0i64)),
            )
            .then(ActionSpec::Quench {
                publisher: ValueTemplate::FromEvent(wellknown::HEALTH_MEMBER.into()),
                enable: false,
            }),
        ),
    ]
}

/// The built-in supervision obligation: when a component's health
/// transitions to `Failed`, ask the supervisor to restart it. This is
/// the policy-layer entry into the detect → repair loop — the
/// supervisor decides whether the restart is a component restart or an
/// escalation up the dependency graph.
pub fn supervision_policies() -> Vec<Policy> {
    use smc_types::member::wellknown;
    use smc_types::{Filter, Op};
    vec![Policy::Obligation(
        ObligationPolicy::new(
            "builtin.health.restart-failed",
            Filter::for_type(wellknown::HEALTH).with((wellknown::HEALTH_TO, Op::Eq, "failed")),
        )
        .then(ActionSpec::Restart {
            component: ValueTemplate::FromEvent(wellknown::HEALTH_COMPONENT.into()),
        }),
    )]
}

/// The built-in peer-repair obligation: a `smc.supervision` *repair*
/// command arriving from an adopter cell fires [`ActionSpec::Restart`]
/// aimed at the named component. This is the actuator-plane half of
/// peer supervision — a cell whose own supervisor is dead still
/// executes the remote watcher's restart/escalation decisions through
/// the same `ActionSpec` path local failures take, so remote repair is
/// policy-governed rather than a privileged side door.
pub fn peer_repair_policies() -> Vec<Policy> {
    use smc_types::member::wellknown;
    use smc_types::{Filter, Op};
    vec![Policy::Obligation(
        ObligationPolicy::new(
            "builtin.supervision.remote-restart",
            Filter::for_type(wellknown::SUPERVISION).with((wellknown::SUP_KIND, Op::Eq, "repair")),
        )
        .then(ActionSpec::Restart {
            component: ValueTemplate::FromEvent(wellknown::SUP_COMPONENT.into()),
        }),
    )]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::model::ObligationPolicy;
    use smc_types::{Filter, Op};

    fn hr_event(bpm: i64) -> Event {
        Event::builder("smc.sensor.reading")
            .attr("sensor", "hr")
            .attr("bpm", bpm)
            .build()
    }

    fn tachycardia_policy() -> Policy {
        Policy::Obligation(
            ObligationPolicy::new(
                "tachy",
                Filter::for_type("smc.sensor.reading").with(("sensor", Op::Eq, "hr")),
            )
            .when(Expr::parse("bpm > 120").unwrap())
            .then(ActionSpec::PublishEvent {
                event_type: "smc.alarm".into(),
                attrs: vec![],
            }),
        )
    }

    #[test]
    fn add_remove_enable_disable() {
        let s = PolicyService::new();
        s.add(tachycardia_policy()).unwrap();
        assert!(matches!(
            s.add(tachycardia_policy()),
            Err(Error::AlreadyExists(_))
        ));
        assert_eq!(s.len(), 1);
        assert!(s.is_enabled("tachy"));
        s.disable("tachy").unwrap();
        assert!(!s.is_enabled("tachy"));
        s.enable("tachy").unwrap();
        assert!(s.is_enabled("tachy"));
        assert!(s.enable("nope").is_err());
        let removed = s.remove("tachy").unwrap();
        assert_eq!(removed.id(), "tachy");
        assert!(s.remove("tachy").is_err());
        assert!(s.is_empty());
    }

    #[test]
    fn obligation_fires_only_when_enabled() {
        let s = PolicyService::new();
        s.add(tachycardia_policy()).unwrap();
        assert_eq!(s.on_event(&hr_event(150)).len(), 1);
        assert!(s.on_event(&hr_event(60)).is_empty());
        s.disable("tachy").unwrap();
        assert!(s.on_event(&hr_event(150)).is_empty());
    }

    #[test]
    fn health_quench_policies_fire_on_degraded_and_healthy() {
        use smc_types::member::wellknown;
        let s = PolicyService::new();
        for p in health_quench_policies() {
            s.add(p).unwrap();
        }
        let health = |to: &str, member: Option<i64>| {
            let mut b = Event::builder(wellknown::HEALTH)
                .attr(wellknown::HEALTH_COMPONENT, "channel:device0")
                .attr(wellknown::HEALTH_TO, to);
            if let Some(m) = member {
                b = b.attr(wellknown::HEALTH_MEMBER, m);
            }
            b.build()
        };
        let fired = s.on_event(&health("degraded", Some(42)));
        assert_eq!(fired.len(), 1);
        match &fired[0].action {
            ActionSpec::Quench { publisher, enable } => {
                assert!(*enable);
                assert_eq!(
                    publisher
                        .resolve(&fired[0].trigger)
                        .and_then(|v| v.as_int()),
                    Some(42)
                );
            }
            other => panic!("expected quench, got {other:?}"),
        }
        let fired = s.on_event(&health("healthy", Some(42)));
        assert_eq!(fired.len(), 1);
        assert!(matches!(
            &fired[0].action,
            ActionSpec::Quench { enable: false, .. }
        ));
        // Aggregate components carry no member id → nothing fires.
        assert!(s.on_event(&health("degraded", None)).is_empty());
        // Degraded → Failed transitions don't re-quench.
        assert!(s.on_event(&health("failed", Some(42))).is_empty());
    }

    #[test]
    fn supervision_policies_fire_restart_on_failed() {
        use smc_types::member::wellknown;
        let s = PolicyService::new();
        for p in supervision_policies() {
            s.add(p).unwrap();
        }
        let health = |to: &str| {
            Event::builder(wellknown::HEALTH)
                .attr(wellknown::HEALTH_COMPONENT, "discovery")
                .attr(wellknown::HEALTH_TO, to)
                .build()
        };
        let fired = s.on_event(&health("failed"));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].policy_id, "builtin.health.restart-failed");
        match &fired[0].action {
            ActionSpec::Restart { component } => {
                assert_eq!(
                    component
                        .resolve(&fired[0].trigger)
                        .and_then(|v| v.as_str().map(str::to_owned)),
                    Some("discovery".to_owned())
                );
            }
            other => panic!("expected restart, got {other:?}"),
        }
        // Degraded is the quench layer's business, not the supervisor's.
        assert!(s.on_event(&health("degraded")).is_empty());
        assert!(s.on_event(&health("healthy")).is_empty());
    }

    #[test]
    fn peer_repair_policies_fire_restart_on_remote_repair_commands() {
        use smc_types::SupervisionMsg;
        let s = PolicyService::new();
        for p in peer_repair_policies() {
            s.add(p).unwrap();
        }
        // A remote repair command restarts the named component…
        let repair = SupervisionMsg::Repair {
            target: 1,
            component: "sink".into(),
            attempt: 2,
        }
        .to_event(100);
        let fired = s.on_event(&repair);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].policy_id, "builtin.supervision.remote-restart");
        match &fired[0].action {
            ActionSpec::Restart { component } => {
                assert_eq!(
                    component
                        .resolve(&fired[0].trigger)
                        .and_then(|v| v.as_str().map(str::to_owned)),
                    Some("sink".to_owned())
                );
            }
            other => panic!("expected restart, got {other:?}"),
        }
        // …while watcher-plane protocol traffic is not an actuator's
        // business: leases, claims, adoptions never fire a restart.
        for msg in [
            SupervisionMsg::Lease {
                holder: 2,
                ttl_micros: 500_000,
            },
            SupervisionMsg::Claim {
                target: 1,
                claimant: 2,
            },
            SupervisionMsg::Adopt {
                target: 1,
                adopter: 2,
            },
            SupervisionMsg::Reconcile {
                target: 1,
                requester: 2,
            },
        ] {
            assert!(
                s.on_event(&msg.to_event(100)).is_empty(),
                "{} must not fire the repair obligation",
                msg.kind()
            );
        }
    }

    #[test]
    fn authorisation_deny_overrides() {
        let s = PolicyService::new();
        s.add(Policy::Authorisation(AuthorisationPolicy::permit(
            "p",
            "sensor",
            ActionClass::Publish,
            "*",
        )))
        .unwrap();
        assert_eq!(
            s.check("sensor", ActionClass::Publish, "smc.x"),
            Decision::Permit
        );
        assert_eq!(
            s.check("nurse", ActionClass::Publish, "smc.x"),
            Decision::NotApplicable
        );
        s.add(Policy::Authorisation(AuthorisationPolicy::deny(
            "d",
            "*",
            ActionClass::Publish,
            "smc.x",
        )))
        .unwrap();
        assert_eq!(
            s.check("sensor", ActionClass::Publish, "smc.x"),
            Decision::Deny
        );
        assert_eq!(
            s.check("sensor", ActionClass::Publish, "smc.y"),
            Decision::Permit
        );
        // Disabling the deny restores the permit.
        s.disable("d").unwrap();
        assert_eq!(
            s.check("sensor", ActionClass::Publish, "smc.x"),
            Decision::Permit
        );
    }

    #[test]
    fn self_modification_via_actions() {
        let s = PolicyService::new();
        s.add(tachycardia_policy()).unwrap();
        s.add(Policy::Obligation(
            ObligationPolicy::new("kill-switch", Filter::for_type("smc.command.quiet"))
                .then(ActionSpec::DisablePolicy("tachy".into()))
                .then(ActionSpec::Log("quiet mode".into())),
        ))
        .unwrap();
        assert_eq!(s.on_event(&hr_event(150)).len(), 1);
        let fired = s.on_event(&Event::new("smc.command.quiet"));
        assert_eq!(fired.len(), 2);
        assert!(!s.is_enabled("tachy"));
        assert!(s.on_event(&hr_event(150)).is_empty());
        let audit = s.audit_log();
        assert!(audit.iter().any(|l| l.contains("disabled tachy")));
        assert!(audit.iter().any(|l| l.contains("quiet mode")));
    }

    #[test]
    fn deployment_by_device_type() {
        let s = PolicyService::new();
        s.add(tachycardia_policy()).unwrap();
        for p in ehealth_baseline() {
            s.add(p).unwrap();
        }
        s.register_deployment(
            "sensor.*",
            vec![
                "sensors-publish-readings".into(),
                "tachy".into(),
                "ghost".into(),
            ],
        );
        s.register_deployment("actuator.*", vec!["actuators-subscribe-commands".into()]);

        let for_hr = s.deployment_for("sensor.heart-rate");
        assert_eq!(for_hr.policies.len(), 2, "ghost id skipped");
        let for_pump = s.deployment_for("actuator.insulin-pump");
        assert_eq!(for_pump.policies.len(), 1);
        assert!(s.deployment_for("laptop").policies.is_empty());
    }

    #[test]
    fn import_skips_duplicates() {
        let s = PolicyService::new();
        let set = PolicySet {
            policies: vec![tachycardia_policy(), tachycardia_policy()],
        };
        assert_eq!(s.import(set), 1);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn fired_actions_keep_order_and_trigger() {
        let s = PolicyService::new();
        s.add(Policy::Obligation(
            ObligationPolicy::new("multi", Filter::for_type("e"))
                .then(ActionSpec::Log("first".into()))
                .then(ActionSpec::Log("second".into())),
        ))
        .unwrap();
        let trigger = Event::builder("e").attr("k", 1i64).build();
        let fired = s.on_event(&trigger);
        assert_eq!(fired.len(), 2);
        assert!(matches!(&fired[0].action, ActionSpec::Log(m) if m == "first"));
        assert!(matches!(&fired[1].action, ActionSpec::Log(m) if m == "second"));
        assert_eq!(fired[0].trigger, trigger);
    }

    #[test]
    fn policy_ids_sorted() {
        let s = PolicyService::new();
        for p in ehealth_baseline() {
            s.add(p).unwrap();
        }
        let ids = s.policy_ids();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted);
        assert_eq!(ids.len(), 4);
    }
}
