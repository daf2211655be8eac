//! Property test: the policy language's writer and parser are inverses
//! over the representable policy space: every value, strings of any
//! characters and any double included.

use proptest::prelude::*;
use smc_policy::{
    parse_policies, write_policies, ActionClass, ActionSpec, AuthorisationPolicy, Expr,
    ObligationPolicy, Policy, ValueTemplate,
};
use smc_types::{Constraint, Filter, Op};

#[path = "support/wide.rs"]
mod wide;

fn arb_ident() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9-]{0,10}"
}

fn arb_resource() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("*".to_string()),
        "[a-z][a-z.]{0,8}".prop_map(|s| s + "*"),
        "[a-z][a-z.]{0,12}",
        wide::text(),
    ]
}

fn arb_auth() -> impl Strategy<Value = Policy> {
    (
        arb_ident(),
        any::<bool>(),
        prop_oneof![Just("*".to_string()), arb_ident()],
        prop_oneof![
            Just(ActionClass::Publish),
            Just(ActionClass::Subscribe),
            Just(ActionClass::Command)
        ],
        arb_resource(),
    )
        .prop_map(|(id, permit, role, action, resource)| {
            Policy::Authorisation(AuthorisationPolicy {
                id,
                permit,
                role,
                action,
                resource,
            })
        })
}

/// Every value: the text syntax writes each so that it reads back.
fn arb_value() -> impl Strategy<Value = smc_types::AttributeValue> {
    wide::value()
}

fn arb_template() -> impl Strategy<Value = ValueTemplate> {
    prop_oneof![
        arb_value().prop_map(ValueTemplate::Literal),
        arb_ident().prop_map(ValueTemplate::FromEvent),
    ]
}

fn arb_assignments() -> impl Strategy<Value = Vec<(String, ValueTemplate)>> {
    proptest::collection::vec((arb_ident(), arb_template()), 0..4)
}

fn arb_action() -> impl Strategy<Value = ActionSpec> {
    prop_oneof![
        ("[a-z][a-z.]{0,10}", arb_assignments()).prop_map(|(t, attrs)| ActionSpec::PublishEvent {
            event_type: t,
            attrs
        }),
        (wide::command_target(), arb_ident(), arb_assignments()).prop_map(
            |((target, glob), name, args)| ActionSpec::SendCommand {
                target,
                target_device_type: glob,
                name,
                args,
            }
        ),
        arb_ident().prop_map(ActionSpec::EnablePolicy),
        arb_ident().prop_map(ActionSpec::DisablePolicy),
        wide::text().prop_map(ActionSpec::Log),
        (arb_template(), any::<bool>())
            .prop_map(|(publisher, enable)| ActionSpec::Quench { publisher, enable }),
        arb_template().prop_map(|component| ActionSpec::Restart { component }),
    ]
}

fn arb_filter() -> impl Strategy<Value = Filter> {
    (
        proptest::option::of("[a-z][a-z.]{0,10}"),
        proptest::collection::vec(
            (
                arb_ident(),
                prop_oneof![
                    Just(Op::Eq),
                    Just(Op::Ne),
                    Just(Op::Lt),
                    Just(Op::Le),
                    Just(Op::Gt),
                    Just(Op::Ge),
                    Just(Op::Prefix),
                    Just(Op::Suffix),
                    Just(Op::Contains),
                    Just(Op::Exists)
                ],
                arb_value(),
            ),
            0..3,
        ),
    )
        .prop_map(|(ty, cs)| {
            let mut f = match ty {
                Some(t) => Filter::for_type(t),
                None => Filter::any(),
            };
            for (n, op, v) in cs {
                // Exists ignores its value; normalise so equality holds
                // after the (value-less) textual round trip.
                if op == Op::Exists {
                    f.push(Constraint::new(n, op, 0i64));
                } else {
                    f.push(Constraint::new(n, op, v));
                }
            }
            f
        })
}

fn arb_condition() -> impl Strategy<Value = Option<Expr>> {
    proptest::option::of(wide::expr())
}

fn arb_oblig() -> impl Strategy<Value = Policy> {
    (
        arb_ident(),
        arb_filter(),
        arb_condition(),
        proptest::collection::vec(arb_action(), 1..4),
    )
        .prop_map(|(id, event, condition, actions)| {
            Policy::Obligation(ObligationPolicy {
                id,
                event,
                condition,
                actions,
            })
        })
}

proptest! {
    #[test]
    fn write_then_parse_is_identity(
        policies in proptest::collection::vec(prop_oneof![arb_auth(), arb_oblig()], 0..6)
    ) {
        let text = write_policies(&policies);
        let reparsed = parse_policies(&text)
            .unwrap_or_else(|e| panic!("generated document failed to parse: {e}\n---\n{text}"));
        prop_assert!(wide::same(&reparsed, &policies), "document:\n{}", text);
    }
}
