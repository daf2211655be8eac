//! Hostile input to the text syntax: any string into the filter,
//! condition and policy parsers, and any bytes into a `PolicySet`
//! decode. Each returns `Ok` or `Err` and never panics, and a text
//! error names where it is: a byte offset inside the input, or a line
//! of it.

use proptest::prelude::*;
use smc_policy::{parse_policies, Expr, Policy, PolicySet};
use smc_types::codec::{from_bytes, to_bytes};
use smc_types::{parse_filter, Error};

#[path = "support/wide.rs"]
mod wide;

/// Text made of the syntax's own pieces and arbitrary characters, so a
/// parser gets past the lexer often enough to be tested too.
fn syntaxish() -> impl Strategy<Value = String> {
    let piece = prop_oneof![
        any::<char>().prop_map(String::from),
        prop_oneof![
            Just("("),
            Just(")"),
            Just("!"),
            Just("&&"),
            Just("||"),
            Just(" == "),
            Just(" : "),
            Just("\""),
            Just("\\"),
            Just("\n"),
            Just("#"),
            Just("-"),
            Just("1e"),
            Just("0x"),
            Just(" a "),
            Just("exists("),
            Just("oblig p {\n"),
            Just("on * \n"),
            Just("do log \"x\"\n"),
            Just("}\n"),
            Just("auth permit p { role r can publish on \"x\" }\n"),
        ]
        .prop_map(String::from),
    ];
    proptest::collection::vec(piece, 0..24).prop_map(String::from_iter)
}

/// The byte offset an `Error::Invalid` from `parse_filter` names.
fn filter_error_offset(e: &Error) -> Option<usize> {
    let Error::Invalid(m) = e else { return None };
    let rest = m.split_once("at byte ")?.1;
    rest.split(':').next()?.parse().ok()
}

/// The line an `Error::Invalid` from `parse_policies` names.
fn policy_error_line(e: &Error) -> Option<usize> {
    let Error::Invalid(m) = e else { return None };
    m.strip_prefix("line ")?.split(':').next()?.parse().ok()
}

fn check_text(input: &str) {
    if let Err(e) = parse_filter(input) {
        let at = filter_error_offset(&e).unwrap_or_else(|| panic!("{e} names no byte"));
        assert!(at <= input.len(), "{input:?}: {e}");
    }
    if let Err(e) = Expr::parse(input) {
        assert!(e.position <= input.len(), "{input:?}: {e}");
    }
    if let Err(e) = parse_policies(input) {
        let line = policy_error_line(&e).unwrap_or_else(|| panic!("{e} names no line"));
        assert!(
            (1..=input.split('\n').count()).contains(&line),
            "{input:?}: {e}"
        );
    }
}

proptest! {
    #[test]
    fn any_string_parses_or_names_its_error(input in wide::text()) {
        check_text(&input);
    }

    #[test]
    fn syntax_pieces_parse_or_name_their_error(input in syntaxish()) {
        check_text(&input);
    }

    #[test]
    fn any_bytes_decode_or_fail(bytes in proptest::collection::vec(any::<u8>(), 0..96)) {
        let _ = from_bytes::<PolicySet>(&bytes);
    }

    /// A policy set's own bytes with some of them replaced: past the
    /// tags, into the filter and the condition text.
    #[test]
    fn damaged_policy_bytes_decode_or_fail(
        cond in wide::expr(),
        damage in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..4),
    ) {
        let mut policies = parse_policies("oblig p {\n on t : a > 1\n do log \"x\"\n}")
            .expect("fixture parses");
        if let Policy::Obligation(p) = &mut policies[0] {
            p.condition = Some(cond);
        }
        let mut bytes = to_bytes(&PolicySet { policies });
        for (at, byte) in damage {
            let at = at % bytes.len();
            bytes[at] = byte;
        }
        let _ = from_bytes::<PolicySet>(&bytes);
    }
}
