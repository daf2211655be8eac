//! Policy model: authorisation and obligation (event-condition-action)
//! policies, in the spirit of Ponder as used by the AMUSE project.

use bytes::{BufMut, BytesMut};
use std::fmt;

use smc_types::codec::{Decode, Encode, Reader, WriteExt};
use smc_types::error::CodecError;
use smc_types::{AttributeValue, Event, Filter, ServiceId};

use crate::expr::{Expr, ParseError};

/// What an authorisation policy governs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActionClass {
    /// Publishing events (resource = event type).
    Publish,
    /// Subscribing to events (resource = event type).
    Subscribe,
    /// Sending management commands (resource = command name).
    Command,
}

impl fmt::Display for ActionClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ActionClass::Publish => "publish",
            ActionClass::Subscribe => "subscribe",
            ActionClass::Command => "command",
        };
        f.write_str(s)
    }
}

impl ActionClass {
    fn tag(self) -> u8 {
        match self {
            ActionClass::Publish => 0,
            ActionClass::Subscribe => 1,
            ActionClass::Command => 2,
        }
    }

    fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(ActionClass::Publish),
            1 => Some(ActionClass::Subscribe),
            2 => Some(ActionClass::Command),
            _ => None,
        }
    }
}

/// Matches a name against a glob pattern supporting one trailing `*`.
///
/// `"smc.*"` matches `"smc.alarm"`; `"*"` matches everything.
pub fn glob_matches(pattern: &str, name: &str) -> bool {
    match pattern.strip_suffix('*') {
        Some(prefix) => name.starts_with(prefix),
        None => pattern == name,
    }
}

/// An authorisation policy: whether components holding `role` may perform
/// `action` on resources matching `resource`.
///
/// Deny policies override permits of equal scope; see
/// [`crate::PolicyService::check`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuthorisationPolicy {
    /// Unique policy name.
    pub id: String,
    /// `true` = permit, `false` = deny.
    pub permit: bool,
    /// Subject role the policy applies to (`"*"` = every role).
    pub role: String,
    /// The governed action class.
    pub action: ActionClass,
    /// Resource pattern (event type or command name; trailing `*` glob).
    pub resource: String,
}

impl AuthorisationPolicy {
    /// Creates a permit policy.
    pub fn permit(
        id: impl Into<String>,
        role: impl Into<String>,
        action: ActionClass,
        resource: impl Into<String>,
    ) -> Self {
        AuthorisationPolicy {
            id: id.into(),
            permit: true,
            role: role.into(),
            action,
            resource: resource.into(),
        }
    }

    /// Creates a deny policy.
    pub fn deny(
        id: impl Into<String>,
        role: impl Into<String>,
        action: ActionClass,
        resource: impl Into<String>,
    ) -> Self {
        AuthorisationPolicy {
            permit: false,
            ..AuthorisationPolicy::permit(id, role, action, resource)
        }
    }

    /// Returns `true` if this policy speaks to the given request.
    pub fn applies_to(&self, role: &str, action: ActionClass, resource: &str) -> bool {
        self.action == action
            && (self.role == "*" || self.role == role)
            && glob_matches(&self.resource, resource)
    }
}

/// A value in an obligation action: literal, or copied from the
/// triggering event.
#[derive(Debug, Clone, PartialEq)]
pub enum ValueTemplate {
    /// Use this value as-is.
    Literal(AttributeValue),
    /// Copy the named attribute from the triggering event (absent
    /// attributes are skipped).
    FromEvent(String),
}

impl ValueTemplate {
    /// Resolves the template against the triggering event.
    pub fn resolve(&self, event: &Event) -> Option<AttributeValue> {
        match self {
            ValueTemplate::Literal(v) => Some(v.clone()),
            ValueTemplate::FromEvent(name) => event.attr(name).cloned(),
        }
    }
}

/// One action in an obligation policy's `do` part.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ActionSpec {
    /// Publish a new event on the bus.
    PublishEvent {
        /// Type of the event to publish.
        event_type: String,
        /// Attribute templates.
        attrs: Vec<(String, ValueTemplate)>,
    },
    /// Send a management command to a member (e.g. change a threshold).
    SendCommand {
        /// Target member (`None` = every member whose device type matches
        /// `target_device_type`).
        target: Option<ServiceId>,
        /// Device type pattern selecting targets when `target` is `None`.
        target_device_type: String,
        /// Command name.
        name: String,
        /// Command arguments.
        args: Vec<(String, ValueTemplate)>,
    },
    /// Enable another policy by id.
    EnablePolicy(String),
    /// Disable another policy by id.
    DisablePolicy(String),
    /// Record a log line (visible via the policy service's audit log).
    Log(String),
    /// Quench (or wake) a publisher — the Elvin-style flow-control
    /// signal `core/quench.rs` manages. The built-in health obligations
    /// use this to silence a publisher whose channel has degraded.
    Quench {
        /// Where to find the publisher's raw service id (int attribute,
        /// typically `health.member` on an `smc.health` event).
        publisher: ValueTemplate,
        /// `true` = stop publishing, `false` = resume.
        enable: bool,
    },
    /// Ask the supervisor to restart a cell component — the repair half
    /// of the detect → repair loop. The built-in supervision obligation
    /// fires this when a component's health transitions to `failed`.
    Restart {
        /// Where to find the component name (string attribute, typically
        /// `health.component` on an `smc.health` event).
        component: ValueTemplate,
    },
}

/// An obligation (event-condition-action) policy.
///
/// When an event matching `event` arrives and `condition` holds, the
/// policy's `actions` fire.
#[derive(Debug, Clone, PartialEq)]
pub struct ObligationPolicy {
    /// Unique policy name.
    pub id: String,
    /// The triggering event filter (the **E** in ECA).
    pub event: Filter,
    /// The guard (the **C**); `None` = always.
    pub condition: Option<Expr>,
    /// What to do (the **A**).
    pub actions: Vec<ActionSpec>,
}

impl ObligationPolicy {
    /// Creates an obligation policy.
    pub fn new(id: impl Into<String>, event: Filter) -> Self {
        ObligationPolicy {
            id: id.into(),
            event,
            condition: None,
            actions: Vec::new(),
        }
    }

    /// Sets the condition (builder style).
    pub fn when(mut self, condition: Expr) -> Self {
        self.condition = Some(condition);
        self
    }

    /// Adds an action (builder style).
    pub fn then(mut self, action: ActionSpec) -> Self {
        self.actions.push(action);
        self
    }

    /// Returns `true` if the policy fires for `event`.
    pub fn triggers_on(&self, event: &Event) -> bool {
        self.event.matches(event) && self.condition.as_ref().is_none_or(|c| c.eval(event))
    }
}

/// Either kind of policy, as stored and deployed.
#[derive(Debug, Clone, PartialEq)]
pub enum Policy {
    /// An authorisation policy.
    Authorisation(AuthorisationPolicy),
    /// An obligation policy.
    Obligation(ObligationPolicy),
}

impl Policy {
    /// The policy's unique id.
    pub fn id(&self) -> &str {
        match self {
            Policy::Authorisation(p) => &p.id,
            Policy::Obligation(p) => &p.id,
        }
    }
}

// --- wire encoding (for PolicyDeploy packets) -------------------------------

impl Encode for ValueTemplate {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            ValueTemplate::Literal(v) => {
                buf.put_u8(0);
                v.encode(buf);
            }
            ValueTemplate::FromEvent(n) => {
                buf.put_u8(1);
                buf.put_str(n);
            }
        }
    }
}

impl Decode for ValueTemplate {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(ValueTemplate::Literal(AttributeValue::decode(r)?)),
            1 => Ok(ValueTemplate::FromEvent(r.str()?)),
            t => Err(CodecError::BadTag {
                what: "value template",
                tag: t,
            }),
        }
    }
}

fn encode_templates(pairs: &[(String, ValueTemplate)], buf: &mut BytesMut) {
    buf.put_u16_le(pairs.len() as u16);
    for (name, tpl) in pairs {
        buf.put_str(name);
        tpl.encode(buf);
    }
}

fn decode_templates(r: &mut Reader<'_>) -> Result<Vec<(String, ValueTemplate)>, CodecError> {
    let n = r.collection_len()?;
    let mut out = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        let name = r.str()?;
        let tpl = ValueTemplate::decode(r)?;
        out.push((name, tpl));
    }
    Ok(out)
}

impl Encode for ActionSpec {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            ActionSpec::PublishEvent { event_type, attrs } => {
                buf.put_u8(0);
                buf.put_str(event_type);
                encode_templates(attrs, buf);
            }
            ActionSpec::SendCommand {
                target,
                target_device_type,
                name,
                args,
            } => {
                buf.put_u8(1);
                match target {
                    Some(id) => {
                        buf.put_bool(true);
                        id.encode(buf);
                    }
                    None => buf.put_bool(false),
                }
                buf.put_str(target_device_type);
                buf.put_str(name);
                encode_templates(args, buf);
            }
            ActionSpec::EnablePolicy(id) => {
                buf.put_u8(2);
                buf.put_str(id);
            }
            ActionSpec::DisablePolicy(id) => {
                buf.put_u8(3);
                buf.put_str(id);
            }
            ActionSpec::Log(msg) => {
                buf.put_u8(4);
                buf.put_str(msg);
            }
            ActionSpec::Quench { publisher, enable } => {
                buf.put_u8(5);
                publisher.encode(buf);
                buf.put_bool(*enable);
            }
            ActionSpec::Restart { component } => {
                buf.put_u8(6);
                component.encode(buf);
            }
        }
    }
}

impl Decode for ActionSpec {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(ActionSpec::PublishEvent {
                event_type: r.str()?,
                attrs: decode_templates(r)?,
            }),
            1 => {
                let target = if r.bool()? {
                    Some(ServiceId::decode(r)?)
                } else {
                    None
                };
                Ok(ActionSpec::SendCommand {
                    target,
                    target_device_type: r.str()?,
                    name: r.str()?,
                    args: decode_templates(r)?,
                })
            }
            2 => Ok(ActionSpec::EnablePolicy(r.str()?)),
            3 => Ok(ActionSpec::DisablePolicy(r.str()?)),
            4 => Ok(ActionSpec::Log(r.str()?)),
            5 => Ok(ActionSpec::Quench {
                publisher: ValueTemplate::decode(r)?,
                enable: r.bool()?,
            }),
            6 => Ok(ActionSpec::Restart {
                component: ValueTemplate::decode(r)?,
            }),
            t => Err(CodecError::BadTag {
                what: "action spec",
                tag: t,
            }),
        }
    }
}

impl Encode for Policy {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            Policy::Authorisation(p) => {
                buf.put_u8(0);
                buf.put_str(&p.id);
                buf.put_bool(p.permit);
                buf.put_str(&p.role);
                buf.put_u8(p.action.tag());
                buf.put_str(&p.resource);
            }
            Policy::Obligation(p) => {
                buf.put_u8(1);
                buf.put_str(&p.id);
                p.event.encode(buf);
                match &p.condition {
                    Some(c) => {
                        buf.put_bool(true);
                        // Conditions travel in textual form and are
                        // reparsed — keeps the wire format stable.
                        buf.put_str(&c.to_string());
                    }
                    None => buf.put_bool(false),
                }
                buf.put_u16_le(p.actions.len() as u16);
                for a in &p.actions {
                    a.encode(buf);
                }
            }
        }
    }
}

impl Decode for Policy {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => {
                let id = r.str()?;
                let permit = r.bool()?;
                let role = r.str()?;
                let tag = r.u8()?;
                let action = ActionClass::from_tag(tag).ok_or(CodecError::BadTag {
                    what: "action class",
                    tag,
                })?;
                let resource = r.str()?;
                Ok(Policy::Authorisation(AuthorisationPolicy {
                    id,
                    permit,
                    role,
                    action,
                    resource,
                }))
            }
            1 => {
                let id = r.str()?;
                let event = Filter::decode(r)?;
                let condition = if r.bool()? {
                    let text = r.str()?;
                    let bad = |e: ParseError| CodecError::BadText {
                        what: "condition",
                        reason: e.to_string(),
                    };
                    Some(Expr::parse(&text).map_err(bad)?)
                } else {
                    None
                };
                let n = r.collection_len()?;
                let mut actions = Vec::with_capacity(n.min(64));
                for _ in 0..n {
                    actions.push(ActionSpec::decode(r)?);
                }
                Ok(Policy::Obligation(ObligationPolicy {
                    id,
                    event,
                    condition,
                    actions,
                }))
            }
            t => Err(CodecError::BadTag {
                what: "policy",
                tag: t,
            }),
        }
    }
}

/// A deployable bundle of policies (the payload of a `PolicyDeploy`
/// packet).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PolicySet {
    /// The policies in the bundle.
    pub policies: Vec<Policy>,
}

impl Encode for PolicySet {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u16_le(self.policies.len() as u16);
        for p in &self.policies {
            p.encode(buf);
        }
    }
}

impl Decode for PolicySet {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.collection_len()?;
        let mut policies = Vec::with_capacity(n.min(64));
        for _ in 0..n {
            policies.push(Policy::decode(r)?);
        }
        Ok(PolicySet { policies })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::{parse_policies, write_policies};
    use smc_types::codec::{from_bytes, to_bytes};
    use smc_types::Op;

    #[test]
    fn glob_matching() {
        assert!(glob_matches("*", "anything"));
        assert!(glob_matches("smc.*", "smc.alarm"));
        assert!(!glob_matches("smc.*", "other.alarm"));
        assert!(glob_matches("exact", "exact"));
        assert!(!glob_matches("exact", "exactly"));
    }

    #[test]
    fn authorisation_applicability() {
        let p = AuthorisationPolicy::permit("p1", "sensor", ActionClass::Publish, "smc.sensor.*");
        assert!(p.applies_to("sensor", ActionClass::Publish, "smc.sensor.reading"));
        assert!(!p.applies_to("nurse", ActionClass::Publish, "smc.sensor.reading"));
        assert!(!p.applies_to("sensor", ActionClass::Subscribe, "smc.sensor.reading"));
        assert!(!p.applies_to("sensor", ActionClass::Publish, "smc.alarm"));
        let any = AuthorisationPolicy::deny("p2", "*", ActionClass::Command, "*");
        assert!(any.applies_to("whoever", ActionClass::Command, "set-threshold"));
    }

    #[test]
    fn obligation_triggering() {
        let p = ObligationPolicy::new(
            "tachycardia",
            Filter::for_type("smc.sensor.reading").with(("sensor", Op::Eq, "hr")),
        )
        .when(Expr::parse("bpm > 120").unwrap())
        .then(ActionSpec::Log("tachycardia detected".into()));

        let quiet = Event::builder("smc.sensor.reading")
            .attr("sensor", "hr")
            .attr("bpm", 60i64)
            .build();
        let racing = Event::builder("smc.sensor.reading")
            .attr("sensor", "hr")
            .attr("bpm", 140i64)
            .build();
        let other = Event::builder("smc.sensor.reading")
            .attr("sensor", "bp")
            .attr("bpm", 140i64)
            .build();
        assert!(!p.triggers_on(&quiet));
        assert!(p.triggers_on(&racing));
        assert!(!p.triggers_on(&other));
    }

    #[test]
    fn no_condition_means_always() {
        let p = ObligationPolicy::new("any", Filter::for_type("x"));
        assert!(p.triggers_on(&Event::new("x")));
        assert!(!p.triggers_on(&Event::new("y")));
    }

    #[test]
    fn value_templates_resolve() {
        let e = Event::builder("r").attr("bpm", 99i64).build();
        assert_eq!(
            ValueTemplate::Literal(AttributeValue::Int(5)).resolve(&e),
            Some(AttributeValue::Int(5))
        );
        assert_eq!(
            ValueTemplate::FromEvent("bpm".into()).resolve(&e),
            Some(AttributeValue::Int(99))
        );
        assert_eq!(ValueTemplate::FromEvent("missing".into()).resolve(&e), None);
    }

    #[test]
    fn policies_round_trip_on_the_wire() {
        let auth = Policy::Authorisation(AuthorisationPolicy::deny(
            "no-laptops",
            "laptop",
            ActionClass::Publish,
            "*",
        ));
        let obligation = Policy::Obligation(
            ObligationPolicy::new(
                "alarm-on-hypoxia",
                Filter::for_type("smc.sensor.reading").with(("sensor", Op::Eq, "spo2")),
            )
            .when(Expr::parse("spo2 < 90 && exists(patient)").unwrap())
            .then(ActionSpec::PublishEvent {
                event_type: "smc.alarm".into(),
                attrs: vec![
                    ("kind".into(), ValueTemplate::Literal("hypoxia".into())),
                    ("spo2".into(), ValueTemplate::FromEvent("spo2".into())),
                ],
            })
            .then(ActionSpec::SendCommand {
                target: None,
                target_device_type: "actuator.o2*".into(),
                name: "increase-flow".into(),
                args: vec![(
                    "step".into(),
                    ValueTemplate::Literal(AttributeValue::Int(1)),
                )],
            })
            .then(ActionSpec::EnablePolicy("escalation".into()))
            .then(ActionSpec::DisablePolicy("routine".into()))
            .then(ActionSpec::Log("hypoxia handled".into()))
            .then(ActionSpec::Quench {
                publisher: ValueTemplate::FromEvent("health.member".into()),
                enable: true,
            })
            .then(ActionSpec::Restart {
                component: ValueTemplate::FromEvent("health.component".into()),
            }),
        );
        let set = PolicySet {
            policies: vec![auth, obligation],
        };
        let bytes = to_bytes(&set);
        let back: PolicySet = from_bytes(&bytes).unwrap();
        assert_eq!(back, set);
    }

    #[test]
    fn policy_id_accessor() {
        let p = Policy::Authorisation(AuthorisationPolicy::permit(
            "a",
            "*",
            ActionClass::Publish,
            "*",
        ));
        assert_eq!(p.id(), "a");
        let o = Policy::Obligation(ObligationPolicy::new("b", Filter::any()));
        assert_eq!(o.id(), "b");
    }

    #[test]
    fn truncated_policy_bytes_rejected() {
        let set = PolicySet {
            policies: vec![Policy::Authorisation(AuthorisationPolicy::permit(
                "a",
                "*",
                ActionClass::Publish,
                "*",
            ))],
        };
        let bytes = to_bytes(&set);
        for cut in 0..bytes.len() {
            assert!(from_bytes::<PolicySet>(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn exponent_double_conditions_cross_the_wire() {
        let set = PolicySet {
            policies: vec![Policy::Obligation(
                ObligationPolicy::new("big", Filter::any())
                    .when(Expr::parse("x > 100000000000000000000.0").unwrap())
                    .then(ActionSpec::Log("big".into())),
            )],
        };
        let back: PolicySet = from_bytes(&to_bytes(&set)).unwrap();
        assert_eq!(back, set);
    }

    /// A flat chain of a hundred clauses reads from text, is sent as its
    /// fully parenthesised `Display` form, and reads back on the member.
    #[test]
    fn long_flat_conditions_cross_the_wire() {
        let chain = (0..100).map(|i| format!("c{i} > {i}")).collect::<Vec<_>>();
        let set = PolicySet {
            policies: vec![Policy::Obligation(
                ObligationPolicy::new("long", Filter::any())
                    .when(Expr::parse(&chain.join(" && ")).unwrap())
                    .then(ActionSpec::Log("long".into())),
            )],
        };
        let back: PolicySet = from_bytes(&to_bytes(&set)).unwrap();
        assert_eq!(back, set);
        assert_eq!(
            parse_policies(&write_policies(&set.policies)).unwrap(),
            set.policies
        );
    }

    /// A condition nested ten thousand deep, or a flat chain of twenty
    /// thousand links, arrives as wire bytes and is refused, on a 2 MiB
    /// thread, without overflowing its stack.
    #[test]
    fn deeply_nested_wire_condition_is_refused() {
        use smc_types::codec::WriteExt;
        let chain = vec!["a"; 20_000].join("&&");
        for deep in ["(".repeat(10_000), "!".repeat(10_000) + "a", chain] {
            let mut buf = BytesMut::new();
            buf.put_u16_le(1);
            buf.put_u8(1);
            buf.put_str("p");
            Filter::any().encode(&mut buf);
            buf.put_bool(true);
            buf.put_str(&deep);
            buf.put_u16_le(0);
            let decoded = std::thread::Builder::new()
                .stack_size(2 << 20)
                .spawn(move || from_bytes::<PolicySet>(&buf).is_err())
                .unwrap()
                .join()
                .unwrap();
            assert!(decoded);
        }
    }

    #[test]
    fn unparsable_condition_is_reported_as_such() {
        use smc_types::codec::WriteExt;
        let mut buf = BytesMut::new();
        buf.put_u16_le(1);
        buf.put_u8(1);
        buf.put_str("p");
        Filter::any().encode(&mut buf);
        buf.put_bool(true);
        buf.put_str("(a @= 1)");
        buf.put_u16_le(0);
        match from_bytes::<PolicySet>(&buf) {
            Err(CodecError::BadText { what, reason }) => {
                assert_eq!(what, "condition");
                assert!(!reason.is_empty());
            }
            other => panic!("expected a condition that does not parse, got {other:?}"),
        }
    }
}
