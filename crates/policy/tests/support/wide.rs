//! Strategies over the whole text syntax, shared by the policy suites:
//! strings of any characters, any double (non-finite ones included),
//! every value variant, and condition trees over them.
//!
//! Not a test itself: a suite includes it by `#[path]`.

#![allow(dead_code)]

use proptest::prelude::*;
use smc_policy::{CmpOp, Expr};
use smc_types::{AttributeValue, ServiceId};

/// A string of any characters: quotes, backslashes, control characters
/// and non-ASCII included.
pub fn text() -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<char>(), 0..12).prop_map(String::from_iter)
}

/// Any double, and each non-finite one.
pub fn double() -> impl Strategy<Value = f64> {
    prop_oneof![
        8 => any::<f64>(),
        1 => prop_oneof![
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(f64::NAN),
            Just(-0.0),
            Just(1e20),
        ],
    ]
}

/// Every variant of a value, over its whole range.
pub fn value() -> impl Strategy<Value = AttributeValue> {
    prop_oneof![
        any::<bool>().prop_map(AttributeValue::Bool),
        any::<i64>().prop_map(AttributeValue::Int),
        double().prop_map(AttributeValue::Double),
        text().prop_map(AttributeValue::Str),
        proptest::collection::vec(any::<u8>(), 0..6).prop_map(AttributeValue::Bytes),
    ]
}

/// Where a command goes: one member by id (any 48-bit raw id, and no
/// glob), or the members whose type matches a glob of any characters.
pub fn command_target() -> impl Strategy<Value = (Option<ServiceId>, String)> {
    prop_oneof![
        (0u64..1 << 48).prop_map(|raw| (Some(ServiceId::from_raw(raw)), String::new())),
        text().prop_map(|glob| (None, glob)),
    ]
}

/// Random expression trees over a tiny attribute alphabet.
pub fn expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-9i64..9).prop_map(|i| Expr::Literal(AttributeValue::Int(i))),
        value().prop_map(Expr::Literal),
        prop_oneof![Just("a"), Just("b"), Just("c")].prop_map(|n| Expr::Attr(n.to_string())),
        prop_oneof![Just("a"), Just("b"), Just("zz")].prop_map(|n| Expr::Exists(n.to_string())),
    ];
    leaf.prop_recursive(4, 32, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Or(Box::new(a), Box::new(b))),
            inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
            (
                inner.clone(),
                prop_oneof![
                    Just(CmpOp::Eq),
                    Just(CmpOp::Ne),
                    Just(CmpOp::Lt),
                    Just(CmpOp::Le),
                    Just(CmpOp::Gt),
                    Just(CmpOp::Ge)
                ],
                inner
            )
                .prop_map(|(a, op, b)| Expr::Cmp(Box::new(a), op, Box::new(b))),
        ]
    })
}

/// Equality that holds a NaN equal to a NaN: the two print alike.
pub fn same<T: std::fmt::Debug>(a: &T, b: &T) -> bool {
    format!("{a:?}") == format!("{b:?}")
}
