//! A textual policy language — "Ponder-lite".
//!
//! The AMUSE project specified its adaptation strategies in the Ponder
//! policy language; this module provides a faithful miniature so cells
//! can load their management behaviour from configuration instead of
//! code, exactly the "without reprogramming them" property §II-A claims.
//!
//! ```text
//! # Authorisation: who may do what.
//! auth permit sensors-publish { role sensor can publish on "smc.sensor.*" }
//! auth deny   no-defib        { role *      can command on "defibrillate" }
//!
//! # Obligation: event-condition-action.
//! oblig tachycardia {
//!     on   smc.sensor.reading : sensor == "heart-rate"
//!     when bpm > 120
//!     do   publish smc.alarm kind = "tachycardia", bpm = @bpm
//!     do   command "actuator.*" adjust rate = @bpm
//!     do   enable escalation
//!     do   disable routine
//!     do   log "tachycardia handled"
//! }
//! ```
//!
//! * `on` takes the [filter syntax](smc_types::parse_filter);
//! * `when` takes the [condition language](crate::Expr) (optional);
//! * `do publish TYPE k = v, …` publishes an event; `@name` copies an
//!   attribute from the triggering event;
//! * `do command "TYPE-GLOB" NAME k = v, …` sends a management command
//!   to matching members; `do command ID NAME …`, with a member's raw id
//!   in the glob's place, sends it to that member only;
//! * `do enable ID` / `do disable ID` / `do log "…"` manage the store.
//!
//! The document is read with the shared lexer of [`smc_types::text`]:
//! ids, roles, types and names are words, strings are double-quoted
//! with the escapes `\\ \" \n \r \t`, and `#` outside a string starts
//! a comment. A clause ends with its line; an `auth` policy is one line,
//! and an `oblig` block closes with a line holding only `}`.
//! [`write_policies`] writes values with the same writer the lexer reads.

use std::fmt;

use smc_types::text::{filter, lex, Cursor, ParseError, Quoted, Tok};
use smc_types::{AttributeValue, Error, Filter, Result, ServiceId};

use crate::expr::condition;
use crate::model::{
    ActionClass, ActionSpec, AuthorisationPolicy, ObligationPolicy, Policy, ValueTemplate,
};

/// Parses a policy document into policies, in order of appearance.
///
/// # Errors
///
/// Returns [`Error::Invalid`] with a line number for the first syntax
/// problem.
///
/// # Example
///
/// ```
/// use smc_policy::parse_policies;
///
/// let policies = parse_policies(r#"
///     auth permit pub { role sensor can publish on "smc.sensor.*" }
///     oblig alarm {
///         on   smc.sensor.reading
///         when bpm > 120
///         do   publish smc.alarm bpm = @bpm
///     }
/// "#)?;
/// assert_eq!(policies.len(), 2);
/// # Ok::<(), smc_types::Error>(())
/// ```
pub fn parse_policies(input: &str) -> Result<Vec<Policy>> {
    let tokens = lex(input).map_err(|e| err(1 + input[..e.position].matches('\n').count(), e))?;
    // One cursor per line, numbered from 1.
    let mut lines = tokens
        .chunk_by(|a, b| !input[a.at..b.at].contains('\n'))
        .scan((1, 0), |(line, from), tokens| {
            let at = tokens[0].at;
            *line += input[*from..at].matches('\n').count();
            *from = at;
            let end = input[at..].find('\n').map_or(input.len(), |n| at + n);
            Some((*line, Cursor::new(tokens, end)))
        });
    let mut policies = Vec::new();
    while let Some((n, mut c)) = lines.next() {
        match c.one_of(&["auth", "oblig"]) {
            Some("auth") => policies.push(auth(&mut c).map_err(|e| err(n, e))?),
            Some(_) => {
                let id = c.word("a policy id").map_err(|e| err(n, e))?;
                if !c.eat("{") || c.finish().is_err() {
                    return Err(err(n, "expected 'oblig ID {'"));
                }
                let mut body = Vec::new();
                loop {
                    let Some(line) = lines.next() else {
                        return Err(err(n, "unterminated oblig block (missing '}')"));
                    };
                    let mut close = line.1.clone();
                    if close.eat("}") && close.finish().is_ok() {
                        break;
                    }
                    body.push(line);
                }
                policies.push(oblig(n, id, body)?);
            }
            None => return Err(err(n, "expected 'auth' or 'oblig'")),
        }
    }
    Ok(policies)
}

fn err(line: usize, message: impl fmt::Display) -> Error {
    Error::Invalid(format!("line {line}: {message}"))
}

/// `(permit|deny) ID { role ROLE can ACTION on "RESOURCE" }`, after `auth`.
fn auth(c: &mut Cursor<'_>) -> std::result::Result<Policy, ParseError> {
    let Some(permit) = c.one_of(&["permit", "deny"]) else {
        return c.fail("expected permit|deny");
    };
    let id = c.word("a policy id")?.to_owned();
    c.expect("{")?;
    c.expect("role")?;
    let role = if c.eat("*") { "*" } else { c.word("a role")? };
    c.expect("can")?;
    let action = match c.one_of(&["publish", "subscribe", "command"]) {
        Some("publish") => ActionClass::Publish,
        Some("subscribe") => ActionClass::Subscribe,
        Some(_) => ActionClass::Command,
        None => return c.fail("expected publish|subscribe|command"),
    };
    c.expect("on")?;
    let resource = c.string("a quoted resource")?;
    c.expect("}")?;
    c.finish()?;
    Ok(Policy::Authorisation(AuthorisationPolicy {
        id,
        permit: permit == "permit",
        role: role.to_owned(),
        action,
        resource,
    }))
}

/// The clauses of `oblig ID { … }`, one line each.
fn oblig(header_line: usize, id: &str, body: Vec<(usize, Cursor<'_>)>) -> Result<Policy> {
    let mut on: Option<Filter> = None;
    let mut policy = ObligationPolicy::new(id, Filter::any());
    for (n, mut c) in body {
        let at = |e: ParseError| err(n, e);
        match c.one_of(&["on", "when", "do"]) {
            Some("on") if on.is_some() => return Err(err(n, "duplicate 'on' clause")),
            Some("on") => on = Some(filter(&mut c).map_err(at)?),
            Some("when") if policy.condition.is_some() => {
                return Err(err(n, "duplicate 'when' clause"))
            }
            Some("when") => policy.condition = Some(condition(&mut c).map_err(at)?),
            Some(_) => policy.actions.push(action(&mut c).map_err(at)?),
            None => return Err(err(n, "expected 'on', 'when' or 'do'")),
        }
    }
    policy.event = on.ok_or_else(|| err(header_line, "oblig block needs an 'on' clause"))?;
    if policy.actions.is_empty() {
        return Err(err(
            header_line,
            "oblig block needs at least one 'do' clause",
        ));
    }
    Ok(Policy::Obligation(policy))
}

/// One `do` clause's action.
fn action(c: &mut Cursor<'_>) -> std::result::Result<ActionSpec, ParseError> {
    let verbs = [
        "publish", "command", "enable", "disable", "log", "quench", "wake", "restart",
    ];
    let Some(verb) = c.one_of(&verbs) else {
        return c.fail("unknown action");
    };
    let action = match verb {
        "publish" => ActionSpec::PublishEvent {
            event_type: c.word("an event type")?.to_owned(),
            attrs: assignments(c)?,
        },
        // command "TYPE-GLOB" NAME k = v, ... | command ID NAME k = v, ...
        "command" => {
            let (target, target_device_type) = match c.peek() {
                Some(Tok::Value(AttributeValue::Int(id))) if *id >= 0 => {
                    let target = ServiceId::from_raw(*id as u64);
                    c.take();
                    (Some(target), String::new())
                }
                _ => (None, c.string("a quoted device-type glob or a member id")?),
            };
            ActionSpec::SendCommand {
                target,
                target_device_type,
                name: c.word("a command name")?.to_owned(),
                args: assignments(c)?,
            }
        }
        "enable" => ActionSpec::EnablePolicy(c.word("a policy id")?.to_owned()),
        "disable" => ActionSpec::DisablePolicy(c.word("a policy id")?.to_owned()),
        "log" => ActionSpec::Log(c.string("a quoted message")?),
        // quench @attr | quench 123 — silence the addressed publisher;
        // wake undoes it.
        "quench" | "wake" => ActionSpec::Quench {
            publisher: template(c)?,
            enable: verb == "quench",
        },
        // restart @attr | restart "name" — ask the supervisor to restart
        // the addressed cell component.
        _ => ActionSpec::Restart {
            component: template(c)?,
        },
    };
    c.finish()?;
    Ok(action)
}

/// `k = v, k2 = @attr, …` to the end of the line; nothing is none.
fn assignments(
    c: &mut Cursor<'_>,
) -> std::result::Result<Vec<(String, ValueTemplate)>, ParseError> {
    let mut out = Vec::new();
    if c.peek().is_none() {
        return Ok(out);
    }
    loop {
        let name = c.word("an attribute name")?.to_owned();
        if !c.eat("=") {
            return c.fail(format!(
                "cannot parse value: expected 'name = value' after '{name}'"
            ));
        }
        out.push((name, template(c)?));
        if !c.eat(",") {
            return Ok(out);
        }
    }
}

/// `@attr` or a literal value.
fn template(c: &mut Cursor<'_>) -> std::result::Result<ValueTemplate, ParseError> {
    if c.eat("@") {
        return Ok(ValueTemplate::FromEvent(
            c.word("an attribute name")?.to_owned(),
        ));
    }
    Ok(ValueTemplate::Literal(c.value()?))
}

/// Renders policies back into the textual language.
///
/// `parse_policies(&write_policies(&ps))` reconstructs the same policies
/// (enforced by a property test), so a cell's live policy set can be
/// exported, audited, edited and reloaded.
pub fn write_policies(policies: &[Policy]) -> String {
    policies.iter().map(Policy::to_string).collect()
}

/// The policy in the textual language, ending with a newline. A command
/// with a direct `target` writes the member's id where the glob goes
/// (the glob is not consulted then, and is not written).
impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Policy::Authorisation(p) => writeln!(
                f,
                "auth {} {} {{ role {} can {} on {} }}",
                if p.permit { "permit" } else { "deny" },
                p.id,
                p.role,
                p.action,
                Quoted(&p.resource)
            ),
            Policy::Obligation(p) => {
                writeln!(f, "oblig {} {{\n    on {}", p.id, p.event)?;
                if let Some(cond) = &p.condition {
                    writeln!(f, "    when {cond}")?;
                }
                for action in &p.actions {
                    writeln!(f, "    do {action}")?;
                }
                writeln!(f, "}}")
            }
        }
    }
}

impl fmt::Display for ActionSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ActionSpec::PublishEvent { event_type, attrs } => {
                write!(f, "publish {event_type}")?;
                write_assignments(f, attrs)
            }
            ActionSpec::SendCommand {
                target,
                target_device_type,
                name,
                args,
            } => {
                match target {
                    Some(id) => write!(f, "command {} {name}", id.raw())?,
                    None => write!(f, "command {} {name}", Quoted(target_device_type))?,
                }
                write_assignments(f, args)
            }
            ActionSpec::EnablePolicy(id) => write!(f, "enable {id}"),
            ActionSpec::DisablePolicy(id) => write!(f, "disable {id}"),
            ActionSpec::Log(msg) => write!(f, "log {}", Quoted(msg)),
            ActionSpec::Quench { publisher, enable } => {
                let verb = if *enable { "quench" } else { "wake" };
                write!(f, "{verb} {publisher}")
            }
            ActionSpec::Restart { component } => write!(f, "restart {component}"),
        }
    }
}

impl fmt::Display for ValueTemplate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueTemplate::Literal(v) => write!(f, "{v}"),
            ValueTemplate::FromEvent(name) => write!(f, "@{name}"),
        }
    }
}

/// ` k = v, k2 = @attr`: nothing for no pairs.
fn write_assignments(f: &mut fmt::Formatter<'_>, pairs: &[(String, ValueTemplate)]) -> fmt::Result {
    for (i, (name, value)) in pairs.iter().enumerate() {
        write!(f, "{}{name} = {value}", if i == 0 { " " } else { ", " })?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Expr;
    use smc_types::{AttributeValue, Event, Filter, Op};

    const DOC: &str = r#"
        # ward policies
        auth permit sensors-publish { role sensor can publish on "smc.sensor.*" }
        auth deny   no-defib        { role *      can command on "defibrillate" }

        oblig tachycardia {
            on   smc.sensor.reading : sensor == "heart-rate"   # trigger
            when bpm > 120
            do   publish smc.alarm kind = "tachycardia", bpm = @bpm
            do   command "actuator.*" adjust rate = @bpm, step = 1
            do   enable escalation
            do   disable routine
            do   log "tachycardia handled"
        }

        oblig unconditional {
            on   smc.member.new
            do   log "someone joined"
        }
    "#;

    #[test]
    fn full_document_parses() {
        let policies = parse_policies(DOC).unwrap();
        assert_eq!(policies.len(), 4);
        assert_eq!(policies[0].id(), "sensors-publish");
        assert_eq!(policies[1].id(), "no-defib");
        assert_eq!(policies[2].id(), "tachycardia");
        assert_eq!(policies[3].id(), "unconditional");
    }

    #[test]
    fn auth_semantics() {
        let policies = parse_policies(DOC).unwrap();
        let Policy::Authorisation(p) = &policies[0] else {
            panic!("auth expected")
        };
        assert!(p.permit);
        assert_eq!(p.role, "sensor");
        assert_eq!(p.action, ActionClass::Publish);
        assert!(p.applies_to("sensor", ActionClass::Publish, "smc.sensor.reading"));
        let Policy::Authorisation(d) = &policies[1] else {
            panic!("auth expected")
        };
        assert!(!d.permit);
        assert!(d.applies_to("anyone", ActionClass::Command, "defibrillate"));
    }

    #[test]
    fn oblig_semantics() {
        let policies = parse_policies(DOC).unwrap();
        let Policy::Obligation(p) = &policies[2] else {
            panic!("oblig expected")
        };
        assert_eq!(p.actions.len(), 5);
        let racing = Event::builder("smc.sensor.reading")
            .attr("sensor", "heart-rate")
            .attr("bpm", 150i64)
            .build();
        assert!(p.triggers_on(&racing));
        let calm = Event::builder("smc.sensor.reading")
            .attr("sensor", "heart-rate")
            .attr("bpm", 60i64)
            .build();
        assert!(!p.triggers_on(&calm));

        match &p.actions[0] {
            ActionSpec::PublishEvent { event_type, attrs } => {
                assert_eq!(event_type, "smc.alarm");
                assert_eq!(attrs.len(), 2);
                assert_eq!(
                    attrs[0].1,
                    ValueTemplate::Literal(AttributeValue::Str("tachycardia".into()))
                );
                assert_eq!(attrs[1].1, ValueTemplate::FromEvent("bpm".into()));
            }
            other => panic!("unexpected {other:?}"),
        }
        match &p.actions[1] {
            ActionSpec::SendCommand {
                target_device_type,
                name,
                args,
                ..
            } => {
                assert_eq!(target_device_type, "actuator.*");
                assert_eq!(name, "adjust");
                assert_eq!(args.len(), 2);
                assert_eq!(args[1].1, ValueTemplate::Literal(AttributeValue::Int(1)));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(p.actions[2], ActionSpec::EnablePolicy("escalation".into()));
        assert_eq!(p.actions[3], ActionSpec::DisablePolicy("routine".into()));
        assert_eq!(p.actions[4], ActionSpec::Log("tachycardia handled".into()));
    }

    #[test]
    fn unconditional_oblig_has_no_condition() {
        let policies = parse_policies(DOC).unwrap();
        let Policy::Obligation(p) = &policies[3] else {
            panic!()
        };
        assert!(p.condition.is_none());
        assert_eq!(p.event, Filter::for_type("smc.member.new"));
    }

    #[test]
    fn hash_inside_strings_is_not_a_comment() {
        let policies = parse_policies(
            r#"oblig x {
                on *
                do log "issue #42"
            }"#,
        )
        .unwrap();
        let Policy::Obligation(p) = &policies[0] else {
            panic!()
        };
        assert_eq!(p.actions[0], ActionSpec::Log("issue #42".into()));
    }

    #[test]
    fn hash_inside_a_quoted_filter_value_is_not_a_comment() {
        let policies = parse_policies(
            r##"oblig x {
                on   smc.alarm : room == "ward#3" && kind == "a && b"   # the ward
                do   log "paged"
            }"##,
        )
        .unwrap();
        let Policy::Obligation(p) = &policies[0] else {
            panic!()
        };
        let expected = Filter::for_type("smc.alarm")
            .with(("room", Op::Eq, "ward#3"))
            .with(("kind", Op::Eq, "a && b"));
        assert_eq!(p.event, expected);
    }

    #[test]
    fn value_kinds_in_assignments() {
        let policies = parse_policies(
            r#"oblig x {
                on *
                do publish t a = 1, b = 2.5, c = true, d = "s, with comma", e = @src
            }"#,
        )
        .unwrap();
        let Policy::Obligation(p) = &policies[0] else {
            panic!()
        };
        let ActionSpec::PublishEvent { attrs, .. } = &p.actions[0] else {
            panic!()
        };
        assert_eq!(attrs.len(), 5);
        assert_eq!(attrs[3].1, ValueTemplate::Literal("s, with comma".into()));
        assert_eq!(attrs[4].1, ValueTemplate::FromEvent("src".into()));
    }

    #[test]
    fn errors_carry_line_numbers() {
        for (src, needle) in [
            ("bogus top level", "line 1"),
            ("auth permit x role y", "line 1"),
            (
                "auth maybe x { role y can publish on \"z\" }",
                "permit|deny",
            ),
            ("oblig x {\n on *\n", "unterminated"),
            ("oblig x {\n do log \"y\"\n}", "'on' clause"),
            ("oblig x {\n on *\n}", "'do' clause"),
            ("oblig x {\n on *\n do fly away\n}", "unknown action"),
            ("oblig x {\n on *\n when ???\n do log \"y\"\n}", "line 3"),
            ("oblig x {\n on bad type!\n do log \"y\"\n}", "line 2"),
            (
                "oblig x {\n on *\n do publish t a == 1\n}",
                "cannot parse value",
            ),
            (
                "oblig x {\n on *\n do publish t justaword\n}",
                "name = value",
            ),
        ] {
            let e = parse_policies(src).expect_err(src);
            let msg = e.to_string();
            assert!(
                msg.contains(needle),
                "'{src}' gave '{msg}', wanted '{needle}'"
            );
        }
    }

    #[test]
    fn loaded_policies_drive_the_service() {
        let service = crate::PolicyService::new();
        for p in parse_policies(DOC).unwrap() {
            service.add(p).unwrap();
        }
        assert_eq!(service.len(), 4);
        assert_eq!(
            service.check("sensor", ActionClass::Publish, "smc.sensor.reading"),
            crate::Decision::Permit
        );
        assert_eq!(
            service.check("nurse", ActionClass::Command, "defibrillate"),
            crate::Decision::Deny
        );
        let racing = Event::builder("smc.sensor.reading")
            .attr("sensor", "heart-rate")
            .attr("bpm", 150i64)
            .build();
        let fired = service.on_event(&racing);
        assert_eq!(fired.len(), 5);
        assert_eq!(fired[0].policy_id, "tachycardia");
    }

    #[test]
    fn filter_with_constraints_in_on_clause() {
        let policies = parse_policies(
            r#"oblig x {
                on smc.sensor.reading : sensor == "spo2" && spo2 < 90
                do log "hypoxia"
            }"#,
        )
        .unwrap();
        let Policy::Obligation(p) = &policies[0] else {
            panic!()
        };
        assert_eq!(p.event.constraints().len(), 2);
        assert_eq!(p.event.constraints()[1].op, Op::Lt);
    }

    /// Write `policies`, parse the text, and require the same policies.
    fn round_trip(policies: Vec<Policy>) {
        let text = write_policies(&policies);
        let back = parse_policies(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(format!("{back:?}"), format!("{policies:?}"), "{text}");
    }

    #[test]
    fn exponent_and_infinite_doubles_round_trip() {
        let mut policy = ObligationPolicy::new("big", Filter::any().with(("x", Op::Gt, 1e20)));
        policy.condition = Some(Expr::parse("x > 100000000000000000000.0 && y < inf").unwrap());
        policy.actions = vec![ActionSpec::PublishEvent {
            event_type: "t".into(),
            attrs: vec![
                ("a".into(), ValueTemplate::Literal(f64::INFINITY.into())),
                ("b".into(), ValueTemplate::Literal(f64::NEG_INFINITY.into())),
                ("c".into(), ValueTemplate::Literal(f64::NAN.into())),
                ("d".into(), ValueTemplate::Literal(1.5e-7.into())),
            ],
        }];
        round_trip(vec![Policy::Obligation(policy)]);
    }

    #[test]
    fn escaped_strings_round_trip() {
        let policies = parse_policies(
            r#"oblig x {
                on   * : s == "a\"b"
                do   log "say \"hi\""
            }"#,
        )
        .unwrap();
        let Policy::Obligation(p) = &policies[0] else {
            panic!()
        };
        assert_eq!(p.actions[0], ActionSpec::Log("say \"hi\"".into()));
        assert_eq!(
            p.event.constraints()[0].value,
            AttributeValue::Str("a\"b".into())
        );
        let strings = ["a\"b", "a\\b", "a\rb", "\u{1b}x", "say \"hi\""];
        round_trip(
            strings
                .iter()
                .map(|s| {
                    let mut p = ObligationPolicy::new("p", Filter::any().with(("k", Op::Eq, *s)));
                    p.condition = Some(Expr::Literal(AttributeValue::Str((*s).into())));
                    p.actions = vec![
                        ActionSpec::Log((*s).into()),
                        ActionSpec::Restart {
                            component: ValueTemplate::Literal((*s).into()),
                        },
                    ];
                    Policy::Obligation(p)
                })
                .collect(),
        );
    }

    #[test]
    fn auth_resources_keep_inner_whitespace() {
        let policies = parse_policies(r#"auth permit p { role r can publish on "a  b" }"#).unwrap();
        let Policy::Authorisation(p) = &policies[0] else {
            panic!()
        };
        assert_eq!(p.resource, "a  b");
        round_trip(policies);
    }
}
