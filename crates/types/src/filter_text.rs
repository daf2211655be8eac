//! Textual syntax for content filters.
//!
//! Lets tools, config files and examples write filters the way the
//! paper's prose does, instead of building them in code:
//!
//! ```text
//! smc.sensor.reading : sensor == "heart-rate" && bpm > 120
//! smc.alarm :                         # type restriction only
//! * : spo2 < 90 && exists(patient)    # any type
//! ```
//!
//! Grammar: `TYPE ':' constraint (&& constraint)*` where `TYPE` is an
//! event type name or `*`, and each constraint is
//! `name OP value | exists(name)` with `OP` one of
//! `== != < <= > >= prefix suffix contains`. Values are integers,
//! decimals, `true`/`false`, or double-quoted strings (no escapes). A
//! `#`, a `&&` or an operator inside a string is part of the string:
//! the parser scans for them only outside quotes ([`strip_comment`]).

use crate::error::{Error, Result};
use crate::filter::{Constraint, Filter, Op};
use crate::value::AttributeValue;

/// Parses the textual filter syntax.
///
/// # Errors
///
/// Returns [`Error::Invalid`] describing the first syntax problem.
///
/// # Example
///
/// ```
/// use smc_types::{parse_filter, Event};
///
/// let filter = parse_filter(r#"smc.sensor.reading : sensor == "hr" && bpm > 120"#)?;
/// let racing = Event::builder("smc.sensor.reading")
///     .attr("sensor", "hr")
///     .attr("bpm", 150i64)
///     .build();
/// assert!(filter.matches(&racing));
/// # Ok::<(), smc_types::Error>(())
/// ```
pub fn parse_filter(input: &str) -> Result<Filter> {
    let input = strip_comment(input).trim();
    let (type_part, constraints_part) = match input.split_once(':') {
        Some((t, c)) => (t.trim(), c.trim()),
        None => (input, ""),
    };
    let mut filter = match type_part {
        "" | "*" => Filter::any(),
        t if t.chars().all(is_type_char) => Filter::for_type(t),
        t => return Err(Error::Invalid(format!("bad event type '{t}'"))),
    };
    if constraints_part.is_empty() {
        return Ok(filter);
    }
    let mut rest = constraints_part;
    while let Some(i) = find_unquoted(rest, "&&") {
        filter.push(parse_constraint(rest[..i].trim())?);
        rest = &rest[i + 2..];
    }
    filter.push(parse_constraint(rest.trim())?);
    Ok(filter)
}

/// `s` up to its first `#` outside a double-quoted string: the comment
/// rule of the filter syntax and of the policy language built on it.
pub fn strip_comment(s: &str) -> &str {
    find_unquoted(s, "#").map_or(s, |i| &s[..i])
}

/// The byte offset of the first `pattern` in `s` that starts outside a
/// double-quoted string. Strings have no escapes, so every `"` opens or
/// closes one.
fn find_unquoted(s: &str, pattern: &str) -> Option<usize> {
    let mut quoted = false;
    for (i, c) in s.char_indices() {
        if c == '"' {
            quoted = !quoted;
        } else if !quoted && s[i..].starts_with(pattern) {
            return Some(i);
        }
    }
    None
}

fn is_type_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-')
}

fn parse_constraint(clause: &str) -> Result<Constraint> {
    if clause.is_empty() {
        return Err(Error::Invalid("empty constraint".into()));
    }
    // exists(name)
    if let Some(rest) = clause.strip_prefix("exists(") {
        let name = rest
            .strip_suffix(')')
            .ok_or_else(|| Error::Invalid(format!("missing ')' in '{clause}'")))?
            .trim();
        if name.is_empty() || !name.chars().all(is_type_char) {
            return Err(Error::Invalid(format!("bad attribute name '{name}'")));
        }
        return Ok(Constraint::new(name, Op::Exists, 0i64));
    }
    // name OP value — try the longest operators first.
    const OPS: [(&str, Op); 9] = [
        ("==", Op::Eq),
        ("!=", Op::Ne),
        ("<=", Op::Le),
        (">=", Op::Ge),
        ("<", Op::Lt),
        (">", Op::Gt),
        (" prefix ", Op::Prefix),
        (" suffix ", Op::Suffix),
        (" contains ", Op::Contains),
    ];
    for (token, op) in OPS {
        if let Some(at) = find_unquoted(clause, token) {
            let name = clause[..at].trim();
            let value_text = clause[at + token.len()..].trim();
            if name.is_empty() || !name.chars().all(is_type_char) {
                return Err(Error::Invalid(format!("bad attribute name in '{clause}'")));
            }
            let value = parse_value(value_text)?;
            return Ok(Constraint::new(name, op, value));
        }
    }
    Err(Error::Invalid(format!("no operator found in '{clause}'")))
}

fn parse_value(text: &str) -> Result<AttributeValue> {
    if text.is_empty() {
        return Err(Error::Invalid("missing value".into()));
    }
    if let Some(inner) = text.strip_prefix('"') {
        let inner = inner
            .strip_suffix('"')
            .ok_or_else(|| Error::Invalid(format!("unterminated string {text}")))?;
        return Ok(AttributeValue::Str(inner.to_owned()));
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
    Err(Error::Invalid(format!("cannot parse value '{text}'")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    #[test]
    fn type_only_forms() {
        assert_eq!(
            parse_filter("smc.alarm").unwrap(),
            Filter::for_type("smc.alarm")
        );
        assert_eq!(
            parse_filter("smc.alarm :").unwrap(),
            Filter::for_type("smc.alarm")
        );
        assert_eq!(parse_filter("*").unwrap(), Filter::any());
        assert_eq!(parse_filter("").unwrap(), Filter::any());
        assert_eq!(parse_filter("  * :  ").unwrap(), Filter::any());
    }

    #[test]
    fn full_filter_matches_as_expected() {
        let f = parse_filter(r#"smc.sensor.reading : sensor == "hr" && bpm > 120"#).unwrap();
        let yes = Event::builder("smc.sensor.reading")
            .attr("sensor", "hr")
            .attr("bpm", 130i64)
            .build();
        let no = Event::builder("smc.sensor.reading")
            .attr("sensor", "hr")
            .attr("bpm", 100i64)
            .build();
        assert!(f.matches(&yes));
        assert!(!f.matches(&no));
    }

    #[test]
    fn every_operator_parses() {
        for (src, op) in [
            ("a == 1", Op::Eq),
            ("a != 1", Op::Ne),
            ("a < 1", Op::Lt),
            ("a <= 1", Op::Le),
            ("a > 1", Op::Gt),
            ("a >= 1", Op::Ge),
            (r#"a prefix "x""#, Op::Prefix),
            (r#"a suffix "x""#, Op::Suffix),
            (r#"a contains "x""#, Op::Contains),
        ] {
            let f = parse_filter(&format!("* : {src}")).unwrap();
            assert_eq!(f.constraints()[0].op, op, "{src}");
        }
        let f = parse_filter("* : exists(bpm)").unwrap();
        assert_eq!(f.constraints()[0].op, Op::Exists);
    }

    #[test]
    fn value_kinds() {
        let f = parse_filter(r#"* : a == 5 && b == 2.5 && c == true && d == "s""#).unwrap();
        let vals: Vec<&AttributeValue> = f.constraints().iter().map(|c| &c.value).collect();
        assert!(vals.contains(&&AttributeValue::Int(5)));
        assert!(vals.contains(&&AttributeValue::Double(2.5)));
        assert!(vals.contains(&&AttributeValue::Bool(true)));
        assert!(vals.contains(&&AttributeValue::Str("s".into())));
        // Negative numbers.
        let f = parse_filter("* : delta > -4").unwrap();
        assert_eq!(f.constraints()[0].value, AttributeValue::Int(-4));
    }

    #[test]
    fn comments_are_stripped() {
        let f = parse_filter("smc.alarm : severity >= 2   # page the nurse").unwrap();
        assert_eq!(f.constraints().len(), 1);
        assert_eq!(parse_filter("# whole line comment").unwrap(), Filter::any());
    }

    #[test]
    fn quoted_values_keep_what_the_syntax_scans_for() {
        for (src, op, value) in [
            (r##"x : tag == "a#b""##, Op::Eq, "a#b"),
            (r#"x : tag == "a && b""#, Op::Eq, "a && b"),
            (r#"x : tag prefix "a<b""#, Op::Prefix, "a<b"),
            (r#"x : tag contains "==""#, Op::Contains, "=="),
            (r##"x : tag == "a:b" # "quoted" comment"##, Op::Eq, "a:b"),
        ] {
            let f = parse_filter(src).unwrap_or_else(|e| panic!("{src}: {e}"));
            assert_eq!(f.event_type(), Some("x"), "{src}");
            let [c] = f.constraints() else {
                panic!("{src}: {f:?}")
            };
            assert_eq!((&*c.name, c.op), ("tag", op), "{src}");
            assert_eq!(c.value, AttributeValue::Str(value.into()), "{src}");
        }
        let f = parse_filter(r##"x : a == "p && q" && b contains "#" # note"##).unwrap();
        assert_eq!(f.constraints().len(), 2);
        assert_eq!(f.constraints()[1].value, AttributeValue::Str("#".into()));
    }

    #[test]
    fn errors_are_descriptive() {
        for bad in [
            "bad type! : a == 1",
            "* : a ~ 1",
            "* : == 1",
            "* : a == ",
            "* : a == \"unterminated",
            "* : a == not_a_value",
            "* : exists(",
            "* : exists(bad name)",
            "* : && a == 1",
        ] {
            let err = parse_filter(bad);
            assert!(
                matches!(err, Err(Error::Invalid(_))),
                "'{bad}' gave {err:?}"
            );
        }
    }

    #[test]
    fn round_trips_through_display_semantics() {
        // The Display form differs syntactically but selects identically.
        let f = parse_filter(r#"smc.alarm : kind == "fever" && severity >= 2"#).unwrap();
        let e = Event::builder("smc.alarm")
            .attr("kind", "fever")
            .attr("severity", 3i64)
            .build();
        assert!(f.matches(&e));
        assert!(f.to_string().contains("smc.alarm"));
    }
}
