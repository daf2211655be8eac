//! Property-based tests for the condition-expression language.

use proptest::prelude::*;
use smc_policy::{ActionSpec, Expr, ObligationPolicy, Policy, PolicySet};
use smc_types::codec::{from_bytes, to_bytes};
use smc_types::{Event, Filter};

#[path = "support/wide.rs"]
mod wide;

/// Random expression trees whose literals span every value (wide.rs).
fn arb_expr() -> impl Strategy<Value = Expr> {
    wide::expr()
}

fn arb_event() -> impl Strategy<Value = Event> {
    (
        proptest::option::of(-9i64..9),
        proptest::option::of(-4i64..4),
        proptest::option::of(any::<bool>()),
    )
        .prop_map(|(a, b, c)| {
            let mut e = Event::builder("t");
            if let Some(a) = a {
                e = e.attr("a", a);
            }
            if let Some(b) = b {
                e = e.attr("b", b as f64 / 2.0);
            }
            if let Some(c) = c {
                e = e.attr("c", c);
            }
            e.build()
        })
}

proptest! {
    /// Parsing never panics, on any input string.
    #[test]
    fn parse_never_panics(input in ".{0,64}") {
        let _ = Expr::parse(&input);
    }

    /// Parsing ASCII-ish garbage never panics either.
    #[test]
    fn parse_ascii_never_panics(input in "[ -~]{0,80}") {
        let _ = Expr::parse(&input);
    }

    /// Display→parse is semantics-preserving: the reparsed expression is
    /// structurally identical (a NaN literal reads back as a NaN).
    #[test]
    fn display_parse_round_trip(expr in arb_expr()) {
        let printed = expr.to_string();
        let reparsed = Expr::parse(&printed)
            .unwrap_or_else(|e| panic!("'{printed}' failed to reparse: {e}"));
        prop_assert!(wide::same(&reparsed, &expr), "{printed}: {reparsed:?} != {expr:?}");
    }

    /// A condition crosses the wire in its printed form: a `PolicySet`
    /// holding it decodes to the same policy.
    #[test]
    fn policy_set_wire_round_trip(expr in arb_expr()) {
        let set = PolicySet {
            policies: vec![Policy::Obligation(
                ObligationPolicy::new("p", Filter::any())
                    .when(expr)
                    .then(ActionSpec::Log("fired".into())),
            )],
        };
        let back: PolicySet = from_bytes(&to_bytes(&set))
            .unwrap_or_else(|e| panic!("{set:?} failed to decode: {e}"));
        prop_assert!(wide::same(&back, &set), "{back:?} != {set:?}");
    }

    /// Evaluation is total and deterministic for any expression and event.
    #[test]
    fn eval_is_total_and_deterministic(expr in arb_expr(), event in arb_event()) {
        let once = expr.eval(&event);
        let twice = expr.eval(&event);
        prop_assert_eq!(once, twice);
    }

    /// Boolean laws hold under evaluation: double negation and De Morgan.
    #[test]
    fn boolean_laws(a in arb_expr(), b in arb_expr(), event in arb_event()) {
        let not_not = Expr::Not(Box::new(Expr::Not(Box::new(a.clone()))));
        prop_assert_eq!(not_not.eval(&event), a.eval(&event));

        let lhs = Expr::Not(Box::new(Expr::And(Box::new(a.clone()), Box::new(b.clone()))));
        let rhs = Expr::Or(
            Box::new(Expr::Not(Box::new(a.clone()))),
            Box::new(Expr::Not(Box::new(b.clone()))),
        );
        prop_assert_eq!(lhs.eval(&event), rhs.eval(&event), "de morgan");
    }
}
