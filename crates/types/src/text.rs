//! The one text syntax: a lexer that filters, policy conditions and
//! policy documents (`smc-policy`) all read through, and the one writer
//! of a value's text form.
//!
//! Filters are written the way the paper's prose does:
//!
//! ```text
//! smc.sensor.reading : sensor == "heart-rate" && bpm > 120
//! smc.alarm :                         # type restriction only
//! * : spo2 < 90 && exists(patient)    # any type
//! ```
//!
//! # Tokens
//!
//! Whitespace separates tokens, and `#` starts a comment that runs to
//! the end of its line. [`lex`] reads:
//!
//! * a **word**: an ASCII letter or `_`, then letters, digits, `_`, `.`
//!   and `-` (`smc.sensor.reading`, `heart-rate`, `exists`). In a value's
//!   place the words `true`, `false`, `inf` and `NaN` are values;
//! * a **number**: `-? digits (. digits)? ([eE] [+-]? digits)?`, an `Int`
//!   unless it has a fraction or an exponent, then a `Double`. `-inf` is
//!   a double too, and `0x` and an even count of hex digits are bytes;
//! * a **string**: `"`, UTF-8 on one line, `"`. Its escapes are `\\`,
//!   `\"`, `\n`, `\r` and `\t`; any other `\x` is an error at its
//!   position. Every other character stands for itself;
//! * a **symbol**: `== != <= >= && || < > ! ( ) { } , = : @ *`.
//!
//! # Values
//!
//! [`AttributeValue`]'s `Display` is the writer, and [`lex`] reads what
//! it writes back to an equal value. A double is written with `{:?}`:
//! the shortest digits that read back, a point on whole numbers, an
//! exponent when large or small, and `inf`, `-inf` or `NaN` when not
//! finite (every NaN reads back as the one quiet NaN). A string escapes
//! backslash, quote, newline, return and tab ([`Quoted`]); bytes are
//! `0x` and lowercase hex.
//!
//! # Filters
//!
//! `[TYPE] [: constraint (&& constraint)*]`, where `TYPE` is a word or
//! `*` and a constraint is `name OP value` (`OP` one of `== != < <= > >=
//! prefix suffix contains`) or `exists(name)`. [`Filter`]'s `Display`
//! writes this form.

use std::fmt::{self, Write};

use crate::error::{Error, Result};
use crate::filter::{Constraint, Filter, Op};
use crate::value::AttributeValue;

/// Every symbol, two-character ones first so `<=` is not read as `<`.
const SYMBOLS: [&str; 18] = [
    "==", "!=", "<=", ">=", "&&", "||", "<", ">", "!", "(", ")", "{", "}", ",", "=", ":", "@", "*",
];

/// What a token is.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// A name or a keyword.
    Word(String),
    /// A number, `-inf`, bytes or a string.
    Value(AttributeValue),
    /// An operator or a punctuation mark.
    Sym(&'static str),
}

/// A token and the byte offset it starts at.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// What the token is.
    pub tok: Tok,
    /// Where it starts in the text.
    pub at: usize,
}

/// A syntax error at a byte offset of the text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input.
    pub position: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<ParseError> for Error {
    fn from(e: ParseError) -> Self {
        Error::Invalid(e.to_string())
    }
}

type Parsed<T> = std::result::Result<T, ParseError>;

fn fail<T>(position: usize, message: impl Into<String>) -> Parsed<T> {
    Err(ParseError {
        message: message.into(),
        position,
    })
}

fn is_word_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')
}

/// Splits `text` into tokens.
///
/// # Errors
///
/// A character no token starts with, a bad escape, a string its line
/// does not close, a number that does not fit, or an odd count of hex
/// digits: a [`ParseError`] at its byte offset.
pub fn lex(text: &str) -> Parsed<Vec<Token>> {
    let mut tokens = Vec::new();
    let mut at = 0;
    while let Some(c) = text[at..].chars().next() {
        let rest = &text[at..];
        let (tok, len) = if c.is_whitespace() {
            at += c.len_utf8();
            continue;
        } else if c == '#' {
            at += rest.find('\n').unwrap_or(rest.len());
            continue;
        } else if c == '"' {
            string(rest, at)?
        } else if c.is_ascii_digit() || c == '-' {
            number(rest, at)?
        } else if c.is_ascii_alphabetic() || c == '_' {
            let len = rest.find(|c| !is_word_char(c)).unwrap_or(rest.len());
            (Tok::Word(rest[..len].to_owned()), len)
        } else if let Some(sym) = SYMBOLS.into_iter().find(|s| rest.starts_with(s)) {
            (Tok::Sym(sym), sym.len())
        } else {
            return fail(at, format!("unexpected character {c:?}"));
        };
        tokens.push(Token { tok, at });
        at += len;
    }
    Ok(tokens)
}

/// The string token `s` starts with, and its length.
fn string(s: &str, at: usize) -> Parsed<(Tok, usize)> {
    let mut out = String::new();
    let mut chars = s.char_indices().skip(1);
    while let Some((i, c)) = chars.next() {
        out.push(match c {
            '"' => return Ok((Tok::Value(AttributeValue::Str(out)), i + 1)),
            '\n' => break,
            '\\' => match chars.next().map(|(_, e)| e) {
                Some('\\') => '\\',
                Some('"') => '"',
                Some('n') => '\n',
                Some('r') => '\r',
                Some('t') => '\t',
                _ => return fail(at + i, "bad escape: only \\\\ \\\" \\n \\r \\t"),
            },
            c => c,
        });
    }
    fail(at, "unterminated string")
}

/// The number token `s` starts with, and its length.
fn number(s: &str, at: usize) -> Parsed<(Tok, usize)> {
    let digits = |from: usize| from + s[from..].bytes().take_while(u8::is_ascii_digit).count();
    if s.starts_with("-inf") && !s[4..].starts_with(is_word_char) {
        return Ok((Tok::Value(AttributeValue::Double(f64::NEG_INFINITY)), 4));
    }
    if let Some(hex) = s.strip_prefix("0x") {
        let len = hex
            .find(|c: char| !c.is_ascii_hexdigit())
            .unwrap_or(hex.len());
        if len % 2 == 1 {
            return fail(at, "odd count of hex digits");
        }
        let bytes = (0..len).step_by(2);
        let bytes = bytes.map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap_or_default());
        return Ok((Tok::Value(AttributeValue::Bytes(bytes.collect())), 2 + len));
    }
    let whole = digits(usize::from(s.starts_with('-')));
    let mut end = whole;
    if s[end..].starts_with('.') && digits(end + 1) > end + 1 {
        end = digits(end + 1);
    }
    if s[end..].starts_with(['e', 'E']) {
        let sign = end + 1 + usize::from(s[end + 1..].starts_with(['+', '-']));
        if digits(sign) > sign {
            end = digits(sign);
        }
    }
    let text = &s[..end];
    let value = if end == whole {
        text.parse().map(AttributeValue::Int).ok()
    } else {
        text.parse().map(AttributeValue::Double).ok()
    };
    match value {
        Some(v) => Ok((Tok::Value(v), end)),
        None => fail(at, format!("bad number '{text}'")),
    }
}

/// Writes a string as a string token: quoted, with backslash, quote,
/// newline, return and tab escaped and every other character as itself.
#[derive(Debug, Clone, Copy)]
pub struct Quoted<'a>(pub &'a str);

impl fmt::Display for Quoted<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('"')?;
        for c in self.0.chars() {
            match c {
                '\\' => f.write_str("\\\\")?,
                '"' => f.write_str("\\\"")?,
                '\n' => f.write_str("\\n")?,
                '\r' => f.write_str("\\r")?,
                '\t' => f.write_str("\\t")?,
                c => f.write_char(c)?,
            }
        }
        f.write_char('"')
    }
}

/// The value's text form, which [`lex`] reads back (module docs).
impl fmt::Display for AttributeValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttributeValue::Bool(b) => write!(f, "{b}"),
            AttributeValue::Int(i) => write!(f, "{i}"),
            AttributeValue::Double(d) => write!(f, "{d:?}"),
            AttributeValue::Str(s) => write!(f, "{}", Quoted(s)),
            AttributeValue::Bytes(b) => {
                f.write_str("0x")?;
                b.iter().try_for_each(|b| write!(f, "{b:02x}"))
            }
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Op::Eq => "==",
            Op::Ne => "!=",
            Op::Lt => "<",
            Op::Le => "<=",
            Op::Gt => ">",
            Op::Ge => ">=",
            Op::Prefix => "prefix",
            Op::Suffix => "suffix",
            Op::Contains => "contains",
            Op::Exists => "exists",
        })
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.op {
            Op::Exists => write!(f, "exists({})", self.name),
            op => write!(f, "{} {op} {}", self.name, self.value),
        }
    }
}

impl fmt::Display for Filter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.event_type().unwrap_or("*"))?;
        for (i, c) in self.constraints().iter().enumerate() {
            write!(f, "{}{c}", if i == 0 { " : " } else { " && " })?;
        }
        Ok(())
    }
}

/// A parser's place in a token list.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    tokens: &'a [Token],
    end: usize,
}

impl<'a> Cursor<'a> {
    /// Reads `tokens`; `end` is the byte offset an error past the last
    /// one names.
    pub fn new(tokens: &'a [Token], end: usize) -> Self {
        Cursor { tokens, end }
    }

    /// The next token, left in place.
    pub fn peek(&self) -> Option<&'a Tok> {
        self.tokens.first().map(|t| &t.tok)
    }

    /// Consumes the next token.
    pub fn take(&mut self) -> Option<&'a Tok> {
        let (first, rest) = self.tokens.split_first()?;
        self.tokens = rest;
        Some(&first.tok)
    }

    /// Consumes the next token if it is the symbol or word `text`.
    pub fn eat(&mut self, text: &str) -> bool {
        let hit = match self.peek() {
            Some(Tok::Sym(s)) => *s == text,
            Some(Tok::Word(w)) => w == text,
            _ => false,
        };
        if hit {
            self.take();
        }
        hit
    }

    /// Consumes the next token if it is one of `options`, and says which.
    pub fn one_of<'k>(&mut self, options: &[&'k str]) -> Option<&'k str> {
        options.iter().copied().find(|o| self.eat(o))
    }

    /// Consumes the symbol or word `text`, or fails.
    pub fn expect(&mut self, text: &str) -> Parsed<()> {
        if self.eat(text) {
            return Ok(());
        }
        self.fail(format!("expected '{text}'"))
    }

    /// Consumes a word, or fails saying `what` was expected.
    pub fn word(&mut self, what: &str) -> Parsed<&'a str> {
        match self.peek() {
            Some(Tok::Word(w)) => {
                self.take();
                Ok(w)
            }
            _ => self.fail(format!("expected {what}")),
        }
    }

    /// Consumes a string, or fails saying `what` was expected.
    pub fn string(&mut self, what: &str) -> Parsed<String> {
        match self.peek() {
            Some(Tok::Value(AttributeValue::Str(s))) => {
                self.take();
                Ok(s.clone())
            }
            _ => self.fail(format!("expected {what}")),
        }
    }

    /// Consumes a value: a number, a string, or one of the words
    /// `true`, `false`, `inf` and `NaN`.
    pub fn value(&mut self) -> Parsed<AttributeValue> {
        let value = match self.peek() {
            Some(Tok::Value(v)) => Some(v.clone()),
            Some(Tok::Word(w)) => word_value(w),
            _ => None,
        };
        match value {
            Some(v) => {
                self.take();
                Ok(v)
            }
            None => self.fail("cannot parse value"),
        }
    }

    /// Fails unless every token has been read.
    pub fn finish(&self) -> Parsed<()> {
        match self.peek() {
            None => Ok(()),
            Some(tok) => self.fail(format!("unexpected {tok:?}")),
        }
    }

    /// A [`ParseError`] at the next token, or at the end.
    pub fn fail<T>(&self, message: impl Into<String>) -> Parsed<T> {
        fail(self.tokens.first().map_or(self.end, |t| t.at), message)
    }
}

/// The value a word stands for in a value's place, if any.
fn word_value(word: &str) -> Option<AttributeValue> {
    match word {
        "true" => Some(AttributeValue::Bool(true)),
        "false" => Some(AttributeValue::Bool(false)),
        "inf" => Some(AttributeValue::Double(f64::INFINITY)),
        "NaN" => Some(AttributeValue::Double(f64::NAN)),
        _ => None,
    }
}

/// Parses the textual filter syntax.
///
/// # Errors
///
/// Returns [`Error::Invalid`] naming the first syntax problem and its
/// byte offset.
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
/// assert_eq!(filter.to_string(), r#"smc.sensor.reading : bpm > 120 && sensor == "hr""#);
/// # Ok::<(), smc_types::Error>(())
/// ```
pub fn parse_filter(input: &str) -> Result<Filter> {
    let tokens = lex(input)?;
    Ok(filter(&mut Cursor::new(&tokens, input.len()))?)
}

/// Reads the filter syntax from every token left in `c`.
///
/// # Errors
///
/// The first syntax problem, at its byte offset.
pub fn filter(c: &mut Cursor<'_>) -> Parsed<Filter> {
    let mut filter = match c.peek() {
        Some(Tok::Word(t)) => {
            c.take();
            Filter::for_type(t.clone())
        }
        _ => {
            c.eat("*");
            Filter::any()
        }
    };
    if c.eat(":") && c.peek().is_some() {
        filter.push(constraint(c)?);
        while c.eat("&&") {
            filter.push(constraint(c)?);
        }
    }
    c.finish()?;
    Ok(filter)
}

fn constraint(c: &mut Cursor<'_>) -> Parsed<Constraint> {
    let name = c.word("an attribute name")?;
    if name == "exists" && c.eat("(") {
        let name = c.word("an attribute name")?;
        c.expect(")")?;
        return Ok(Constraint::new(name, Op::Exists, 0i64));
    }
    let op = Op::ALL[..9].iter().find(|op| c.eat(&op.to_string()));
    let Some(&op) = op else {
        return c.fail(format!("expected an operator after '{name}'"));
    };
    Ok(Constraint::new(name, op, c.value()?))
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

    #[test]
    fn filter_display_is_the_filter_syntax() {
        let f = Filter::for_type("a")
            .with(("k", Op::Gt, 3i64))
            .with(("z", Op::Exists, 0i64));
        assert_eq!(f.to_string(), "a : k > 3 && exists(z)");
        assert_eq!(parse_filter(&f.to_string()).unwrap(), f);
        assert_eq!(
            parse_filter(&Filter::any().to_string()).unwrap(),
            Filter::any()
        );
    }

    #[test]
    fn strings_have_one_escape_rule() {
        for s in [
            "a\"b",
            "a\\b",
            "a\rb",
            "\u{1b}x",
            "°C",
            "tab\tnew\nline",
            "#&&:",
        ] {
            let f = Filter::any().with(("s", Op::Eq, s));
            assert_eq!(parse_filter(&f.to_string()).unwrap(), f, "{s:?}");
        }
        assert_eq!(
            lex(r#""a\"b\\c\n""#).unwrap()[0].tok,
            Tok::Value(AttributeValue::Str("a\"b\\c\n".into()))
        );
        let bad = lex(r#"x == "ok \q""#).unwrap_err();
        assert_eq!(bad.position, 9, "{bad}");
        assert!(lex("\"one\nline\"").is_err());
    }

    #[test]
    fn exponent_and_non_finite_doubles_read_back() {
        for d in [
            1e20,
            1.5e-7,
            -2.5e300,
            5e-324,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
        ] {
            let f = Filter::any().with(("x", Op::Gt, d));
            let back = parse_filter(&f.to_string()).unwrap();
            assert_eq!(
                back.constraints()[0].value,
                AttributeValue::Double(d),
                "{f}"
            );
            assert_eq!(format!("{back:?}"), format!("{f:?}"));
        }
        let nan = parse_filter(&format!("* : x == {}", AttributeValue::Double(f64::NAN))).unwrap();
        assert!(nan.constraints()[0].value.as_double().unwrap().is_nan());
        assert_eq!(
            parse_filter("* : x == 1e3").unwrap().constraints()[0].value,
            AttributeValue::Double(1000.0)
        );
    }

    #[test]
    fn bytes_and_words_that_are_values_read_back() {
        let f = Filter::for_type("inf")
            .with(("true", Op::Eq, vec![0xab_u8, 0x01]))
            .with(("b", Op::Eq, Vec::<u8>::new()))
            .with(("c", Op::Ne, true));
        assert_eq!(
            f.to_string(),
            "inf : b == 0x && c != true && true == 0xab01"
        );
        assert_eq!(parse_filter(&f.to_string()).unwrap(), f);
        assert!(parse_filter("* : b == 0xabc").is_err());
    }
}
