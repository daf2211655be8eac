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
//!   to matching members;
//! * `do enable ID` / `do disable ID` / `do log "…"` manage the store.
//!
//! `#` starts a comment outside a double-quoted string
//! ([`smc_types::strip_comment`], the filter syntax's own rule); blank
//! lines are ignored.

use smc_types::{parse_filter, strip_comment, AttributeValue, Error, Result};

use crate::expr::Expr;
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
    let mut policies = Vec::new();
    let mut lines = input.lines().enumerate().peekable();
    while let Some((lineno, raw)) = lines.next() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        let mut words = line.split_whitespace();
        match words.next() {
            Some("auth") => {
                policies.push(parse_auth(lineno + 1, line)?);
            }
            Some("oblig") => {
                // Header: `oblig ID {` — body runs until the closing `}`.
                let id = words
                    .next()
                    .ok_or_else(|| err(lineno + 1, "expected a policy id after 'oblig'"))?;
                let brace = words.next();
                if brace != Some("{") || words.next().is_some() {
                    return Err(err(lineno + 1, "expected 'oblig ID {'"));
                }
                let mut body = Vec::new();
                let mut closed = false;
                for (n, raw) in lines.by_ref() {
                    let line = strip_comment(raw).trim();
                    if line == "}" {
                        closed = true;
                        break;
                    }
                    if !line.is_empty() {
                        body.push((n + 1, line.to_owned()));
                    }
                }
                if !closed {
                    return Err(err(lineno + 1, "unterminated oblig block (missing '}')"));
                }
                policies.push(parse_oblig(lineno + 1, id, &body)?);
            }
            Some(other) => {
                return Err(err(
                    lineno + 1,
                    &format!("expected 'auth' or 'oblig', got '{other}'"),
                ))
            }
            None => {}
        }
    }
    Ok(policies)
}

fn err(line: usize, message: &str) -> Error {
    Error::Invalid(format!("line {line}: {message}"))
}

/// `auth (permit|deny) ID { role ROLE can ACTION on "RESOURCE" }`
fn parse_auth(lineno: usize, line: &str) -> Result<Policy> {
    let (head, brace_body) = line
        .split_once('{')
        .ok_or_else(|| err(lineno, "expected '{' in auth policy"))?;
    let body = brace_body
        .strip_suffix('}')
        .map(str::trim)
        .ok_or_else(|| err(lineno, "auth policy must close with '}' on the same line"))?;

    let mut head_words = head.split_whitespace();
    let _auth = head_words.next();
    let permit = match head_words.next() {
        Some("permit") => true,
        Some("deny") => false,
        other => return Err(err(lineno, &format!("expected permit|deny, got {other:?}"))),
    };
    let id = head_words
        .next()
        .ok_or_else(|| err(lineno, "expected a policy id"))?;
    if head_words.next().is_some() {
        return Err(err(lineno, "unexpected tokens before '{'"));
    }

    let mut w = body.split_whitespace();
    if w.next() != Some("role") {
        return Err(err(lineno, "expected 'role' in auth body"));
    }
    let role = w
        .next()
        .ok_or_else(|| err(lineno, "expected a role name"))?;
    if w.next() != Some("can") {
        return Err(err(lineno, "expected 'can'"));
    }
    let action = match w.next() {
        Some("publish") => ActionClass::Publish,
        Some("subscribe") => ActionClass::Subscribe,
        Some("command") => ActionClass::Command,
        other => {
            return Err(err(
                lineno,
                &format!("expected publish|subscribe|command, got {other:?}"),
            ))
        }
    };
    if w.next() != Some("on") {
        return Err(err(lineno, "expected 'on'"));
    }
    let rest: String = w.collect::<Vec<_>>().join(" ");
    let resource = unquote(&rest).ok_or_else(|| err(lineno, "expected a quoted resource"))?;

    let policy = AuthorisationPolicy {
        id: id.into(),
        permit,
        role: role.into(),
        action,
        resource,
    };
    Ok(Policy::Authorisation(policy))
}

fn unquote(s: &str) -> Option<String> {
    let s = s.trim();
    s.strip_prefix('"')?.strip_suffix('"').map(str::to_owned)
}

fn parse_oblig(header_line: usize, id: &str, body: &[(usize, String)]) -> Result<Policy> {
    let mut filter = None;
    let mut condition = None;
    let mut actions = Vec::new();
    for (lineno, line) in body {
        let (keyword, rest) = line
            .split_once(char::is_whitespace)
            .ok_or_else(|| err(*lineno, "expected 'on', 'when' or 'do' with arguments"))?;
        let rest = rest.trim();
        match keyword {
            "on" => {
                if filter.is_some() {
                    return Err(err(*lineno, "duplicate 'on' clause"));
                }
                filter = Some(parse_filter(rest).map_err(|e| err(*lineno, &e.to_string()))?);
            }
            "when" => {
                if condition.is_some() {
                    return Err(err(*lineno, "duplicate 'when' clause"));
                }
                condition = Some(Expr::parse(rest).map_err(|e| err(*lineno, &e.to_string()))?);
            }
            "do" => actions.push(parse_action(*lineno, rest)?),
            other => return Err(err(*lineno, &format!("unknown clause '{other}'"))),
        }
    }
    let filter = filter.ok_or_else(|| err(header_line, "oblig block needs an 'on' clause"))?;
    if actions.is_empty() {
        return Err(err(
            header_line,
            "oblig block needs at least one 'do' clause",
        ));
    }
    let mut policy = ObligationPolicy::new(id, filter);
    policy.condition = condition;
    policy.actions = actions;
    Ok(Policy::Obligation(policy))
}

fn parse_action(lineno: usize, text: &str) -> Result<ActionSpec> {
    let (verb, rest) = match text.split_once(char::is_whitespace) {
        Some((v, r)) => (v, r.trim()),
        None => (text, ""),
    };
    match verb {
        "publish" => {
            let (event_type, args_text) = match rest.split_once(char::is_whitespace) {
                Some((t, a)) => (t, a.trim()),
                None => (rest, ""),
            };
            if event_type.is_empty() {
                return Err(err(lineno, "publish needs an event type"));
            }
            Ok(ActionSpec::PublishEvent {
                event_type: event_type.to_owned(),
                attrs: parse_assignments(lineno, args_text)?,
            })
        }
        "command" => {
            // command "TYPE-GLOB" NAME k = v, ...
            let rest = rest.trim();
            let (target_glob, after) = if let Some(inner) = rest.strip_prefix('"') {
                let end = inner
                    .find('"')
                    .ok_or_else(|| err(lineno, "unterminated target glob"))?;
                (inner[..end].to_owned(), inner[end + 1..].trim())
            } else {
                return Err(err(lineno, "command needs a quoted device-type glob"));
            };
            let (name, args_text) = match after.split_once(char::is_whitespace) {
                Some((n, a)) => (n, a.trim()),
                None => (after, ""),
            };
            if name.is_empty() {
                return Err(err(lineno, "command needs a name"));
            }
            Ok(ActionSpec::SendCommand {
                target: None,
                target_device_type: target_glob,
                name: name.to_owned(),
                args: parse_assignments(lineno, args_text)?,
            })
        }
        "enable" => Ok(ActionSpec::EnablePolicy(expect_ident(lineno, rest)?)),
        "disable" => Ok(ActionSpec::DisablePolicy(expect_ident(lineno, rest)?)),
        "log" => {
            let message = unquote(rest).ok_or_else(|| err(lineno, "log needs a quoted message"))?;
            Ok(ActionSpec::Log(message))
        }
        // quench @attr | quench 123 — silence the addressed publisher;
        // wake undoes it.
        "quench" | "wake" => Ok(ActionSpec::Quench {
            publisher: parse_template(lineno, rest)?,
            enable: verb == "quench",
        }),
        // restart @attr | restart "name" — ask the supervisor to restart
        // the addressed cell component.
        "restart" => Ok(ActionSpec::Restart {
            component: parse_template(lineno, rest)?,
        }),
        other => Err(err(lineno, &format!("unknown action '{other}'"))),
    }
}

fn expect_ident(lineno: usize, s: &str) -> Result<String> {
    let s = s.trim();
    if s.is_empty() || s.contains(char::is_whitespace) {
        return Err(err(lineno, "expected a single policy id"));
    }
    Ok(s.to_owned())
}

/// `k = v, k2 = @attr, …` — empty input yields no assignments.
fn parse_assignments(lineno: usize, text: &str) -> Result<Vec<(String, ValueTemplate)>> {
    let text = text.trim();
    if text.is_empty() {
        return Ok(Vec::new());
    }
    let mut out = Vec::new();
    for part in split_top_level_commas(text) {
        let (name, value_text) = part
            .split_once('=')
            .ok_or_else(|| err(lineno, &format!("expected 'name = value' in '{part}'")))?;
        let name = name.trim();
        if name.is_empty() {
            return Err(err(lineno, "empty assignment name"));
        }
        let value_text = value_text.trim();
        let template = if let Some(attr) = value_text.strip_prefix('@') {
            ValueTemplate::FromEvent(attr.to_owned())
        } else {
            ValueTemplate::Literal(parse_literal(lineno, value_text)?)
        };
        out.push((name.to_owned(), template));
    }
    Ok(out)
}

/// `@attr` or a literal — one standalone value template.
fn parse_template(lineno: usize, text: &str) -> Result<ValueTemplate> {
    let text = text.trim();
    if text.is_empty() {
        return Err(err(lineno, "expected a value or @attribute"));
    }
    if let Some(attr) = text.strip_prefix('@') {
        return Ok(ValueTemplate::FromEvent(attr.to_owned()));
    }
    Ok(ValueTemplate::Literal(parse_literal(lineno, text)?))
}

fn split_top_level_commas(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut start = 0;
    let mut in_string = false;
    for (i, c) in s.char_indices() {
        match c {
            '"' => in_string = !in_string,
            ',' if !in_string => {
                out.push(s[start..i].trim());
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(s[start..].trim());
    out
}

fn parse_literal(lineno: usize, text: &str) -> Result<AttributeValue> {
    if let Some(s) = unquote(text) {
        return Ok(AttributeValue::Str(s));
    }
    match text {
        "true" => return Ok(AttributeValue::Bool(true)),
        "false" => return Ok(AttributeValue::Bool(false)),
        _ => {}
    }
    if text.contains('.') {
        if let Ok(d) = text.parse::<f64>() {
            return Ok(AttributeValue::Double(d));
        }
    } else if let Ok(i) = text.parse::<i64>() {
        return Ok(AttributeValue::Int(i));
    }
    Err(err(lineno, &format!("cannot parse value '{text}'")))
}

/// Renders policies back into the textual language.
///
/// `parse_policies(&write_policies(&ps))` reconstructs the same policies
/// (enforced by a property test), so a cell's live policy set can be
/// exported, audited, edited and reloaded.
pub fn write_policies(policies: &[Policy]) -> String {
    let mut out = String::new();
    for policy in policies {
        match policy {
            Policy::Authorisation(p) => {
                out.push_str(&format!(
                    "auth {} {} {{ role {} can {} on \"{}\" }}\n",
                    if p.permit { "permit" } else { "deny" },
                    p.id,
                    p.role,
                    p.action,
                    p.resource
                ));
            }
            Policy::Obligation(p) => {
                out.push_str(&format!("oblig {} {{\n", p.id));
                out.push_str(&format!("    on {}\n", write_filter(&p.event)));
                if let Some(cond) = &p.condition {
                    out.push_str(&format!("    when {cond}\n"));
                }
                for action in &p.actions {
                    out.push_str(&format!("    do {}\n", write_action(action)));
                }
                out.push_str("}\n");
            }
        }
    }
    out
}

fn write_filter(filter: &smc_types::Filter) -> String {
    let mut out = filter.event_type().unwrap_or("*").to_owned();
    if !filter.constraints().is_empty() {
        out.push_str(" : ");
        let parts: Vec<String> = filter.constraints().iter().map(write_constraint).collect();
        out.push_str(&parts.join(" && "));
    }
    out
}

fn write_constraint(c: &smc_types::Constraint) -> String {
    use smc_types::Op;
    match c.op {
        Op::Exists => format!("exists({})", c.name),
        Op::Eq => format!("{} == {}", c.name, write_value(&c.value)),
        Op::Ne => format!("{} != {}", c.name, write_value(&c.value)),
        Op::Lt => format!("{} < {}", c.name, write_value(&c.value)),
        Op::Le => format!("{} <= {}", c.name, write_value(&c.value)),
        Op::Gt => format!("{} > {}", c.name, write_value(&c.value)),
        Op::Ge => format!("{} >= {}", c.name, write_value(&c.value)),
        Op::Prefix => format!("{} prefix {}", c.name, write_value(&c.value)),
        Op::Suffix => format!("{} suffix {}", c.name, write_value(&c.value)),
        Op::Contains => format!("{} contains {}", c.name, write_value(&c.value)),
    }
}

fn write_value(v: &AttributeValue) -> String {
    match v {
        AttributeValue::Bool(b) => b.to_string(),
        AttributeValue::Int(i) => i.to_string(),
        // `{:?}` keeps the decimal point so the value reparses as a double.
        AttributeValue::Double(d) => format!("{d:?}"),
        AttributeValue::Str(s) => format!("{s:?}"),
        AttributeValue::Bytes(_) => "\"<bytes>\"".to_owned(),
    }
}

fn write_template(t: &ValueTemplate) -> String {
    match t {
        ValueTemplate::Literal(v) => write_value(v),
        ValueTemplate::FromEvent(name) => format!("@{name}"),
    }
}

fn write_assignments(pairs: &[(String, ValueTemplate)]) -> String {
    pairs
        .iter()
        .map(|(n, t)| format!("{n} = {}", write_template(t)))
        .collect::<Vec<_>>()
        .join(", ")
}

fn write_action(action: &ActionSpec) -> String {
    match action {
        ActionSpec::PublishEvent { event_type, attrs } => {
            if attrs.is_empty() {
                format!("publish {event_type}")
            } else {
                format!("publish {event_type} {}", write_assignments(attrs))
            }
        }
        ActionSpec::SendCommand {
            target_device_type,
            name,
            args,
            ..
        } => {
            if args.is_empty() {
                format!("command \"{target_device_type}\" {name}")
            } else {
                format!(
                    "command \"{target_device_type}\" {name} {}",
                    write_assignments(args)
                )
            }
        }
        ActionSpec::EnablePolicy(id) => format!("enable {id}"),
        ActionSpec::DisablePolicy(id) => format!("disable {id}"),
        ActionSpec::Log(msg) => format!("log {msg:?}"),
        ActionSpec::Quench { publisher, enable } => {
            let verb = if *enable { "quench" } else { "wake" };
            format!("{verb} {}", write_template(publisher))
        }
        ActionSpec::Restart { component } => {
            format!("restart {}", write_template(component))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smc_types::{Event, Filter, Op};

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
}
