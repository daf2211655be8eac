//! The obligation-policy condition language.
//!
//! A tiny, total expression language over event attributes, in the spirit
//! of Ponder's `when` clauses:
//!
//! ```text
//! bpm > 120 && spo2 < 90
//! sensor == "heart-rate" && !(bpm >= 50 && bpm <= 150)
//! severity >= 2 || kind == "defib"
//! ```
//!
//! Attribute references evaluate against the triggering event. A missing
//! attribute or a type-mismatched comparison makes the enclosing
//! comparison *false* (never an error at runtime): policies must be safe
//! to evaluate against any event.
//!
//! Conditions are read with the shared lexer of [`smc_types::text`], so
//! literals are written and read exactly as in filters, and written back
//! by `Display` in a form [`Expr::parse`] reads to an equal tree.
//! Nesting is bounded at 256 levels, both in the text read and in the
//! fully parenthesised text `Display` writes for it: a flat `&&` or `||`
//! chain reads up to 256 comparisons, and what reads always reads back.

use std::fmt;

use smc_types::text::{lex, Cursor};
use smc_types::{AttributeValue, Event};

pub use smc_types::text::ParseError;

/// A parsed condition expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal value.
    Literal(AttributeValue),
    /// Reference to an attribute of the triggering event.
    Attr(String),
    /// Logical conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Logical disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Logical negation.
    Not(Box<Expr>),
    /// Comparison of two sub-expressions.
    Cmp(Box<Expr>, CmpOp, Box<Expr>),
    /// `exists(name)` — attribute presence test.
    Exists(String),
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

impl Expr {
    /// Parses a condition from its textual form.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] describing the first syntax problem.
    ///
    /// # Example
    ///
    /// ```
    /// use smc_policy::Expr;
    /// use smc_types::Event;
    ///
    /// let cond = Expr::parse("bpm > 120 && spo2 < 90")?;
    /// let event = Event::builder("r").attr("bpm", 150i64).attr("spo2", 85i64).build();
    /// assert!(cond.eval(&event));
    /// # Ok::<(), smc_policy::ParseError>(())
    /// ```
    pub fn parse(input: &str) -> Result<Expr, ParseError> {
        let tokens = lex(input)?;
        condition(&mut Cursor::new(&tokens, input.len()))
    }

    /// Evaluates the condition against `event`.
    ///
    /// Comparisons over missing attributes or incompatible types are
    /// `false`; boolean attributes may be used directly as truth values.
    pub fn eval(&self, event: &Event) -> bool {
        match self.eval_value(event) {
            Some(AttributeValue::Bool(b)) => b,
            _ => false,
        }
    }

    fn eval_value(&self, event: &Event) -> Option<AttributeValue> {
        match self {
            Expr::Literal(v) => Some(v.clone()),
            Expr::Attr(name) => event.attr(name).cloned(),
            Expr::Exists(name) => Some(AttributeValue::Bool(event.attr(name).is_some())),
            Expr::Not(e) => Some(AttributeValue::Bool(!e.eval(event))),
            Expr::And(a, b) => Some(AttributeValue::Bool(a.eval(event) && b.eval(event))),
            Expr::Or(a, b) => Some(AttributeValue::Bool(a.eval(event) || b.eval(event))),
            Expr::Cmp(a, op, b) => {
                let (va, vb) = (a.eval_value(event)?, b.eval_value(event)?);
                let result = match op {
                    CmpOp::Eq => va.eq_filter(&vb),
                    CmpOp::Ne => matches!(
                        va.partial_cmp_filter(&vb),
                        Some(o) if o != std::cmp::Ordering::Equal
                    ),
                    CmpOp::Lt => va.partial_cmp_filter(&vb) == Some(std::cmp::Ordering::Less),
                    CmpOp::Le => matches!(
                        va.partial_cmp_filter(&vb),
                        Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
                    ),
                    CmpOp::Gt => va.partial_cmp_filter(&vb) == Some(std::cmp::Ordering::Greater),
                    CmpOp::Ge => matches!(
                        va.partial_cmp_filter(&vb),
                        Some(std::cmp::Ordering::Greater | std::cmp::Ordering::Equal)
                    ),
                };
                Some(AttributeValue::Bool(result))
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Attr(n) => f.write_str(n),
            Expr::Exists(n) => write!(f, "exists({n})"),
            // Self-parenthesised so the printed form stays valid in any
            // position, including as a comparison operand.
            Expr::Not(e) => write!(f, "(!({e}))"),
            Expr::And(a, b) => write!(f, "({a} && {b})"),
            Expr::Or(a, b) => write!(f, "({a} || {b})"),
            Expr::Cmp(a, op, b) => write!(f, "({a} {op} {b})"),
        }
    }
}

/// The deepest nesting a condition may have, counted twice: in its text
/// as read, and in the text `Display` writes for the tree it builds,
/// where each binary node opens one `(` and each `!` three, `(!(…))`.
/// Conditions arrive as wire bytes in a `PolicySet`, so the first bounds
/// the parser's stack; the second bounds the tree that `eval`, `Display`
/// and `Drop` walk, and makes every condition that parses print to one
/// that parses again.
const MAX_DEPTH: usize = 256;

impl CmpOp {
    const ALL: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];
}

/// A condition read so far and the nesting of its printed form.
type Parsed = (Expr, usize);

/// Reads a condition from every token left in `c`.
pub(crate) fn condition(c: &mut Cursor<'_>) -> Result<Expr, ParseError> {
    let (expr, _) = or(c, 0)?;
    c.finish()?;
    Ok(expr)
}

fn or(c: &mut Cursor<'_>, depth: usize) -> Result<Parsed, ParseError> {
    let mut left = and(c, depth)?;
    while c.eat("||") {
        let right = and(c, depth)?;
        left = binary(c, left, right, Expr::Or)?;
    }
    Ok(left)
}

fn and(c: &mut Cursor<'_>, depth: usize) -> Result<Parsed, ParseError> {
    let mut left = not(c, depth)?;
    while c.eat("&&") {
        let right = not(c, depth)?;
        left = binary(c, left, right, Expr::And)?;
    }
    Ok(left)
}

/// `!`* then a term, compared with another term or not.
fn not(c: &mut Cursor<'_>, depth: usize) -> Result<Parsed, ParseError> {
    if c.eat("!") {
        let (inner, printed) = not(c, level(c, depth + 1)?)?;
        return Ok((Expr::Not(Box::new(inner)), level(c, printed + 3)?));
    }
    let left = term(c, depth)?;
    match CmpOp::ALL.into_iter().find(|op| c.eat(&op.to_string())) {
        Some(op) => {
            let right = term(c, depth)?;
            binary(c, left, right, |a, b| Expr::Cmp(a, op, b))
        }
        None => Ok(left),
    }
}

fn term(c: &mut Cursor<'_>, depth: usize) -> Result<Parsed, ParseError> {
    if c.eat("(") {
        let inner = or(c, level(c, depth + 1)?)?;
        c.expect(")")?;
        return Ok(inner);
    }
    if c.eat("exists") {
        c.expect("(")?;
        let name = c.word("an attribute name")?;
        c.expect(")")?;
        return Ok((Expr::Exists(name.to_owned()), 0));
    }
    if let Ok(value) = c.value() {
        return Ok((Expr::Literal(value), 0));
    }
    let name = c.word("a value, an attribute or '('")?;
    Ok((Expr::Attr(name.to_owned()), 0))
}

/// A binary node, printed `(a op b)`: one level over its deeper operand.
fn binary(
    c: &Cursor<'_>,
    (a, a_printed): Parsed,
    (b, b_printed): Parsed,
    node: impl FnOnce(Box<Expr>, Box<Expr>) -> Expr,
) -> Result<Parsed, ParseError> {
    let printed = level(c, a_printed.max(b_printed) + 1)?;
    Ok((node(Box::new(a), Box::new(b)), printed))
}

fn level(c: &Cursor<'_>, depth: usize) -> Result<usize, ParseError> {
    if depth > MAX_DEPTH {
        return c.fail(format!("nested deeper than {MAX_DEPTH}"));
    }
    Ok(depth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smc_types::Event;

    fn ev() -> Event {
        Event::builder("r")
            .attr("bpm", 150i64)
            .attr("spo2", 85i64)
            .attr("sensor", "heart-rate")
            .attr("ok", true)
            .attr("temp", 36.6f64)
            .build()
    }

    fn eval(s: &str) -> bool {
        Expr::parse(s).unwrap().eval(&ev())
    }

    #[test]
    fn comparisons() {
        assert!(eval("bpm > 120"));
        assert!(!eval("bpm > 150"));
        assert!(eval("bpm >= 150"));
        assert!(eval("bpm < 200"));
        assert!(eval("bpm <= 150"));
        assert!(eval("bpm == 150"));
        assert!(eval("bpm != 149"));
        assert!(eval("temp > 36"));
        assert!(eval("temp == 36.6"));
    }

    #[test]
    fn boolean_algebra() {
        assert!(eval("bpm > 120 && spo2 < 90"));
        assert!(!eval("bpm > 120 && spo2 > 90"));
        assert!(eval("bpm > 200 || spo2 < 90"));
        assert!(eval("!(bpm < 100)"));
        assert!(eval("!false"));
        assert!(eval("true && !false"));
    }

    #[test]
    fn precedence_and_parens() {
        // && binds tighter than ||.
        assert!(eval("false && false || true"));
        assert!(!eval("false && (false || true)"));
    }

    #[test]
    fn strings_and_bools() {
        assert!(eval("sensor == \"heart-rate\""));
        assert!(eval("sensor != \"spo2\""));
        assert!(eval("ok"));
        assert!(eval("ok == true"));
    }

    #[test]
    fn exists_test() {
        assert!(eval("exists(bpm)"));
        assert!(!eval("exists(missing)"));
        assert!(eval("!exists(missing)"));
    }

    #[test]
    fn missing_attribute_is_false_not_error() {
        assert!(!eval("missing > 5"));
        assert!(!eval("missing == 5"));
        // And its negation via comparison stays false, while logical
        // negation of the whole comparison is true.
        assert!(!eval("missing != 5"));
        assert!(eval("!(missing > 5)"));
    }

    #[test]
    fn type_mismatch_is_false() {
        assert!(!eval("sensor > 5"));
        assert!(!eval("bpm == \"heart-rate\""));
    }

    #[test]
    fn non_boolean_top_level_is_false() {
        assert!(!eval("bpm"));
        assert!(!eval("\"text\""));
        assert!(!eval("42"));
    }

    #[test]
    fn negative_numbers() {
        let e = Event::builder("r").attr("delta", -5i64).build();
        assert!(Expr::parse("delta < 0").unwrap().eval(&e));
        assert!(Expr::parse("delta == -5").unwrap().eval(&e));
        assert!(Expr::parse("delta > -10").unwrap().eval(&e));
    }

    #[test]
    fn parse_errors_are_reported() {
        for bad in [
            "bpm >",
            "&& x",
            "bpm > 5 &&",
            "(bpm > 5",
            "bpm = 5",
            "a & b",
            "a | b",
            "\"unterminated",
            "exists bpm",
            "exists(5)",
            "5..5 > 1",
            "a @ b",
        ] {
            assert!(Expr::parse(bad).is_err(), "'{bad}' should not parse");
        }
    }

    #[test]
    fn trailing_tokens_rejected() {
        assert!(Expr::parse("bpm > 5 spo2").is_err());
    }

    #[test]
    fn display_round_trips_semantics() {
        for src in [
            "bpm > 120 && spo2 < 90",
            "!(a == 1) || b <= 2.5",
            "exists(x) && sensor == \"hr\"",
            "!a && !b || c != -3",
        ] {
            let parsed = Expr::parse(src).unwrap();
            let reparsed = Expr::parse(&parsed.to_string()).unwrap();
            // Structural equality after a print/parse round.
            assert_eq!(parsed, reparsed, "{src}");
        }
    }

    #[test]
    fn dotted_attribute_names() {
        let event = Event::builder("r")
            .attr("member.device_type", "sensor.hr")
            .build();
        assert!(Expr::parse("member.device_type == \"sensor.hr\"")
            .unwrap()
            .eval(&event));
    }

    #[test]
    fn non_ascii_strings_read_as_written() {
        let cond = Expr::parse(r#"unit == "°C""#).unwrap();
        let expected = Expr::Cmp(
            Box::new(Expr::Attr("unit".into())),
            CmpOp::Eq,
            Box::new(Expr::Literal(AttributeValue::Str("°C".into()))),
        );
        assert_eq!(cond, expected);
        assert!(cond.eval(&Event::builder("r").attr("unit", "°C").build()));
    }

    #[test]
    fn exponent_and_non_finite_doubles_read_back() {
        for d in [1e20, 1.5e-7, f64::INFINITY, f64::NEG_INFINITY] {
            let cond = Expr::Cmp(
                Box::new(Expr::Attr("x".into())),
                CmpOp::Gt,
                Box::new(Expr::Literal(AttributeValue::Double(d))),
            );
            assert_eq!(Expr::parse(&cond.to_string()).unwrap(), cond, "{cond}");
        }
        assert!(eval("bpm < 1e20 && bpm > -inf"));
    }

    #[test]
    fn escaped_strings_read_back() {
        for s in ["a\"b", "a\\b", "a\rb", "\u{1b}x", "a\tb\nc"] {
            let cond = Expr::Literal(AttributeValue::Str(s.into()));
            assert_eq!(Expr::parse(&cond.to_string()).unwrap(), cond, "{s:?}");
        }
    }

    /// `(` and `!` nest at most `MAX_DEPTH` deep: ten thousand of either,
    /// or a flat chain of twenty thousand links, is an error, not a stack
    /// overflow, on a 2 MiB thread.
    #[test]
    fn deep_nesting_is_an_error() {
        let deep = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                [
                    "(".repeat(10_000) + "a" + &")".repeat(10_000),
                    "!".repeat(10_000) + "a",
                    vec!["a"; 20_000].join("&&"),
                ]
                .map(|src| Expr::parse(&src))
            })
            .unwrap()
            .join()
            .unwrap();
        for result in deep {
            let err = result.unwrap_err();
            assert!(err.message.contains("nested deeper"), "{err}");
        }
        let limit = "(".repeat(MAX_DEPTH) + "a" + &")".repeat(MAX_DEPTH);
        assert!(Expr::parse(&limit).is_ok());
        let over = "(".repeat(MAX_DEPTH + 1) + "a" + &")".repeat(MAX_DEPTH + 1);
        assert!(Expr::parse(&over).is_err());
    }

    /// Every condition that parses prints to text that parses to the same
    /// tree: a flat chain or a run of `!` is refused where its printed
    /// form, which opens a `(` per link and three per `!`, would nest
    /// deeper than `MAX_DEPTH`.
    #[test]
    fn what_parses_prints_back() {
        let chain = |n: usize| vec!["c > 1"; n].join(" && ");
        assert!(Expr::parse(&chain(100)).is_ok());
        assert!(Expr::parse(&chain(MAX_DEPTH)).is_ok());
        assert!(Expr::parse(&chain(MAX_DEPTH + 1)).is_err());
        assert!(Expr::parse(&("!".repeat(MAX_DEPTH / 3) + "a")).is_ok());
        assert!(Expr::parse(&("!".repeat(MAX_DEPTH / 3 + 1) + "a")).is_err());
        let printed_back = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let mut sources = vec![chain(100), chain(MAX_DEPTH)];
                sources.push(vec!["a"; MAX_DEPTH + 1].join(" || "));
                sources.push("!".repeat(MAX_DEPTH / 3) + "a");
                sources.push("!(".repeat(60) + "a > 1" + &")".repeat(60));
                for src in sources {
                    let cond = Expr::parse(&src).unwrap();
                    assert_eq!(Expr::parse(&cond.to_string()), Ok(cond.clone()));
                    cond.eval(&ev());
                }
            })
            .unwrap()
            .join();
        assert!(printed_back.is_ok());
    }
}
