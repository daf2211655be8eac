//! Content-based filters and subscriptions.
//!
//! A [`Filter`] is a conjunction of [`Constraint`]s over event attributes,
//! optionally restricted to one event type — the same model as Siena's
//! filters, which the original prototype used. Filters support a *covering*
//! check used by engines to collapse redundant subscriptions.

use std::cmp::Ordering;
use std::fmt;

use crate::event::Event;
use crate::id::{ServiceId, SubscriptionId};
use crate::value::AttributeValue;

/// Comparison operator in a [`Constraint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Op {
    /// Attribute equals the value.
    Eq = 0,
    /// Attribute differs from the value (but must be present & comparable).
    Ne = 1,
    /// Attribute is strictly less than the value.
    Lt = 2,
    /// Attribute is less than or equal to the value.
    Le = 3,
    /// Attribute is strictly greater than the value.
    Gt = 4,
    /// Attribute is greater than or equal to the value.
    Ge = 5,
    /// String attribute starts with the (string) value.
    Prefix = 6,
    /// String attribute ends with the (string) value.
    Suffix = 7,
    /// String attribute contains the (string) value as a substring.
    Contains = 8,
    /// Attribute exists; the value is ignored.
    Exists = 9,
}

impl Op {
    /// All operators, in tag order.
    pub const ALL: [Op; 10] = [
        Op::Eq,
        Op::Ne,
        Op::Lt,
        Op::Le,
        Op::Gt,
        Op::Ge,
        Op::Prefix,
        Op::Suffix,
        Op::Contains,
        Op::Exists,
    ];

    /// Decodes an operator from its wire tag.
    pub fn from_tag(tag: u8) -> Option<Op> {
        Op::ALL.get(tag as usize).copied()
    }

    /// The wire tag for this operator.
    pub fn tag(self) -> u8 {
        self as u8
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Op::Eq => "=",
            Op::Ne => "!=",
            Op::Lt => "<",
            Op::Le => "<=",
            Op::Gt => ">",
            Op::Ge => ">=",
            Op::Prefix => "prefix",
            Op::Suffix => "suffix",
            Op::Contains => "contains",
            Op::Exists => "exists",
        };
        f.write_str(s)
    }
}

/// A single predicate over one named attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// Attribute name the predicate applies to.
    pub name: String,
    /// Comparison operator.
    pub op: Op,
    /// Comparison value (ignored for [`Op::Exists`]).
    pub value: AttributeValue,
}

impl Constraint {
    /// Creates a constraint.
    pub fn new(name: impl Into<String>, op: Op, value: impl Into<AttributeValue>) -> Self {
        Constraint {
            name: name.into(),
            op,
            value: value.into(),
        }
    }

    /// Evaluates the constraint against a concrete attribute value.
    pub fn matches_value(&self, actual: &AttributeValue) -> bool {
        match self.op {
            Op::Exists => true,
            Op::Eq => actual.eq_filter(&self.value),
            Op::Ne => {
                matches!(actual.partial_cmp_filter(&self.value), Some(o) if o != Ordering::Equal)
            }
            Op::Lt => matches!(actual.partial_cmp_filter(&self.value), Some(Ordering::Less)),
            Op::Le => matches!(
                actual.partial_cmp_filter(&self.value),
                Some(Ordering::Less | Ordering::Equal)
            ),
            Op::Gt => matches!(
                actual.partial_cmp_filter(&self.value),
                Some(Ordering::Greater)
            ),
            Op::Ge => matches!(
                actual.partial_cmp_filter(&self.value),
                Some(Ordering::Greater | Ordering::Equal)
            ),
            Op::Prefix => match (actual.as_str(), self.value.as_str()) {
                (Some(a), Some(p)) => a.starts_with(p),
                _ => false,
            },
            Op::Suffix => match (actual.as_str(), self.value.as_str()) {
                (Some(a), Some(s)) => a.ends_with(s),
                _ => false,
            },
            Op::Contains => match (actual.as_str(), self.value.as_str()) {
                (Some(a), Some(s)) => a.contains(s),
                _ => false,
            },
        }
    }

    /// Evaluates the constraint against an event (absent attribute never
    /// matches).
    pub fn matches_event(&self, event: &Event) -> bool {
        match event.attr(&self.name) {
            Some(v) => self.matches_value(v),
            None => false,
        }
    }

    /// Returns `true` if satisfying `self` *implies* satisfying `other`
    /// (both constraints must concern the same attribute).
    ///
    /// The check is sound but deliberately incomplete: it answers `true`
    /// only when implication is certain. Engines use it to detect covering
    /// subscriptions; a `false` answer merely costs a little duplicate work.
    pub fn implies(&self, other: &Constraint) -> bool {
        if self.name != other.name {
            return false;
        }
        // Anything implies an existence test on the same attribute.
        if other.op == Op::Exists {
            return true;
        }
        if self.op == Op::Exists {
            return false;
        }
        let cmp = self.value.partial_cmp_filter(&other.value);
        match (self.op, other.op) {
            (a, b) if a == b && cmp == Some(Ordering::Equal) => true,
            (Op::Eq, _) => {
                // x == v implies x OP w iff v OP w holds.
                Constraint::new(other.name.clone(), other.op, other.value.clone())
                    .matches_value(&self.value)
            }
            (Op::Lt, Op::Lt) | (Op::Lt, Op::Le) | (Op::Le, Op::Le) => {
                matches!(cmp, Some(Ordering::Less | Ordering::Equal))
            }
            (Op::Le, Op::Lt) => matches!(cmp, Some(Ordering::Less)),
            (Op::Gt, Op::Gt) | (Op::Gt, Op::Ge) | (Op::Ge, Op::Ge) => {
                matches!(cmp, Some(Ordering::Greater | Ordering::Equal))
            }
            (Op::Ge, Op::Gt) => matches!(cmp, Some(Ordering::Greater)),
            (Op::Lt, Op::Ne) => matches!(cmp, Some(Ordering::Less | Ordering::Equal)),
            (Op::Gt, Op::Ne) => matches!(cmp, Some(Ordering::Greater | Ordering::Equal)),
            (Op::Ne, Op::Ne) => cmp == Some(Ordering::Equal),
            (Op::Prefix, Op::Prefix) => match (self.value.as_str(), other.value.as_str()) {
                (Some(a), Some(b)) => a.starts_with(b),
                _ => false,
            },
            (Op::Suffix, Op::Suffix) => match (self.value.as_str(), other.value.as_str()) {
                (Some(a), Some(b)) => a.ends_with(b),
                _ => false,
            },
            (Op::Prefix, Op::Contains)
            | (Op::Suffix, Op::Contains)
            | (Op::Contains, Op::Contains) => match (self.value.as_str(), other.value.as_str()) {
                (Some(a), Some(b)) => a.contains(b),
                _ => false,
            },
            _ => false,
        }
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.op == Op::Exists {
            write!(f, "{} exists", self.name)
        } else {
            write!(f, "{} {} {}", self.name, self.op, self.value)
        }
    }
}

/// A content-based filter: an optional event-type restriction plus a
/// conjunction of constraints.
///
/// ```
/// use smc_types::{Event, Filter, Op};
///
/// let filter = Filter::for_type("smc.sensor.reading")
///     .with(("bpm", Op::Gt, 120i64));
/// let calm = Event::builder("smc.sensor.reading").attr("bpm", 70i64).build();
/// let racing = Event::builder("smc.sensor.reading").attr("bpm", 150i64).build();
/// assert!(!filter.matches(&calm));
/// assert!(filter.matches(&racing));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Filter {
    event_type: Option<String>,
    constraints: Vec<Constraint>,
}

impl Filter {
    /// A filter matching every event.
    pub fn any() -> Self {
        Filter::default()
    }

    /// A filter matching all events of one type.
    pub fn for_type(event_type: impl Into<String>) -> Self {
        Filter {
            event_type: Some(event_type.into()),
            constraints: Vec::new(),
        }
    }

    /// Adds a constraint (builder style).
    pub fn with(mut self, constraint: impl Into<Constraint>) -> Self {
        self.push(constraint.into());
        self
    }

    /// Adds a constraint in place, keeping constraints sorted by name for a
    /// canonical form.
    pub fn push(&mut self, constraint: Constraint) {
        let at = self
            .constraints
            .partition_point(|c| c.name.as_str() <= constraint.name.as_str());
        self.constraints.insert(at, constraint);
    }

    /// The event-type restriction, if any.
    pub fn event_type(&self) -> Option<&str> {
        self.event_type.as_deref()
    }

    /// The constraints, sorted by attribute name.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Number of constraints.
    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    /// Returns `true` if the filter has no type restriction and no
    /// constraints (i.e. matches everything).
    pub fn is_empty(&self) -> bool {
        self.event_type.is_none() && self.constraints.is_empty()
    }

    /// Evaluates the filter against an event.
    pub fn matches(&self, event: &Event) -> bool {
        if let Some(t) = &self.event_type {
            if t != event.event_type() {
                return false;
            }
        }
        self.constraints.iter().all(|c| c.matches_event(event))
    }

    /// Returns `true` if `self` *covers* `other`: every event matched by
    /// `other` is certainly matched by `self`.
    ///
    /// Sound but incomplete (a `false` result does not prove non-covering).
    pub fn covers(&self, other: &Filter) -> bool {
        match (&self.event_type, &other.event_type) {
            (Some(a), Some(b)) if a != b => return false,
            (Some(_), None) => return false,
            _ => {}
        }
        // Every constraint of self must be implied by some constraint of
        // other (other is the stronger conjunction).
        self.constraints
            .iter()
            .all(|sc| other.constraints.iter().any(|oc| oc.implies(sc)))
    }
}

impl fmt::Display for Filter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.event_type {
            Some(t) => write!(f, "[{t}]")?,
            None => write!(f, "[*]")?,
        }
        for (i, c) in self.constraints.iter().enumerate() {
            if i == 0 {
                write!(f, " ")?;
            } else {
                write!(f, " && ")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

impl<N, V> From<(N, Op, V)> for Constraint
where
    N: Into<String>,
    V: Into<AttributeValue>,
{
    fn from((name, op, value): (N, Op, V)) -> Self {
        Constraint::new(name, op, value)
    }
}

/// A subscription: a filter owned by a subscriber, registered with the bus.
#[derive(Debug, Clone, PartialEq)]
pub struct Subscription {
    /// Bus-assigned identifier.
    pub id: SubscriptionId,
    /// The subscribing service.
    pub subscriber: ServiceId,
    /// The content filter.
    pub filter: Filter,
}

impl Subscription {
    /// Creates a subscription record.
    pub fn new(id: SubscriptionId, subscriber: ServiceId, filter: Filter) -> Self {
        Subscription {
            id,
            subscriber,
            filter,
        }
    }
}

impl fmt::Display for Subscription {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} by {}: {}", self.id, self.subscriber, self.filter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(bpm: i64) -> Event {
        Event::builder("r")
            .attr("bpm", bpm)
            .attr("sensor", "hr")
            .build()
    }

    #[test]
    fn op_tag_round_trip() {
        for op in Op::ALL {
            assert_eq!(Op::from_tag(op.tag()), Some(op));
        }
        assert_eq!(Op::from_tag(200), None);
    }

    #[test]
    fn relational_constraints() {
        let e = ev(100);
        assert!(Constraint::new("bpm", Op::Eq, 100i64).matches_event(&e));
        assert!(Constraint::new("bpm", Op::Ne, 99i64).matches_event(&e));
        assert!(!Constraint::new("bpm", Op::Ne, 100i64).matches_event(&e));
        assert!(Constraint::new("bpm", Op::Lt, 101i64).matches_event(&e));
        assert!(Constraint::new("bpm", Op::Le, 100i64).matches_event(&e));
        assert!(Constraint::new("bpm", Op::Gt, 99i64).matches_event(&e));
        assert!(Constraint::new("bpm", Op::Ge, 100i64).matches_event(&e));
        assert!(!Constraint::new("bpm", Op::Gt, 100i64).matches_event(&e));
    }

    #[test]
    fn string_constraints() {
        let e = Event::builder("r").attr("name", "heart-rate").build();
        assert!(Constraint::new("name", Op::Prefix, "heart").matches_event(&e));
        assert!(Constraint::new("name", Op::Suffix, "rate").matches_event(&e));
        assert!(Constraint::new("name", Op::Contains, "t-r").matches_event(&e));
        assert!(!Constraint::new("name", Op::Prefix, "rate").matches_event(&e));
        // String ops on non-strings never match.
        let n = ev(5);
        assert!(!Constraint::new("bpm", Op::Prefix, "5").matches_event(&n));
    }

    #[test]
    fn exists_constraint() {
        let e = ev(10);
        assert!(Constraint::new("bpm", Op::Exists, 0i64).matches_event(&e));
        assert!(!Constraint::new("nope", Op::Exists, 0i64).matches_event(&e));
    }

    #[test]
    fn absent_attribute_never_matches() {
        let e = ev(10);
        assert!(!Constraint::new("missing", Op::Eq, 10i64).matches_event(&e));
        assert!(!Constraint::new("missing", Op::Ne, 10i64).matches_event(&e));
    }

    #[test]
    fn mismatched_types_never_match() {
        let e = Event::builder("r").attr("x", "str").build();
        assert!(!Constraint::new("x", Op::Lt, 5i64).matches_event(&e));
        assert!(!Constraint::new("x", Op::Eq, 5i64).matches_event(&e));
    }

    #[test]
    fn cross_numeric_matching() {
        let e = Event::builder("r").attr("t", 36.6f64).build();
        assert!(Constraint::new("t", Op::Gt, 36i64).matches_event(&e));
    }

    #[test]
    fn filter_type_restriction() {
        let f = Filter::for_type("a");
        assert!(f.matches(&Event::new("a")));
        assert!(!f.matches(&Event::new("b")));
        assert!(Filter::any().matches(&Event::new("b")));
    }

    #[test]
    fn filter_conjunction() {
        let f = Filter::any()
            .with(("bpm", Op::Gt, 50i64))
            .with(("bpm", Op::Lt, 150i64));
        assert!(f.matches(&ev(100)));
        assert!(!f.matches(&ev(10)));
        assert!(!f.matches(&ev(200)));
    }

    #[test]
    fn filter_constraints_sorted_by_name() {
        let f = Filter::any()
            .with(("z", Op::Exists, 0i64))
            .with(("a", Op::Exists, 0i64));
        let names: Vec<&str> = f.constraints().iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["a", "z"]);
    }

    #[test]
    fn implies_relational() {
        let c = |op, v: i64| Constraint::new("x", op, v);
        assert!(c(Op::Gt, 10).implies(&c(Op::Gt, 5)));
        assert!(c(Op::Gt, 10).implies(&c(Op::Ge, 10)));
        assert!(!c(Op::Gt, 5).implies(&c(Op::Gt, 10)));
        assert!(c(Op::Lt, 5).implies(&c(Op::Lt, 10)));
        assert!(c(Op::Le, 5).implies(&c(Op::Lt, 6)));
        assert!(!c(Op::Le, 5).implies(&c(Op::Lt, 5)));
        assert!(c(Op::Eq, 7).implies(&c(Op::Gt, 5)));
        assert!(c(Op::Eq, 7).implies(&c(Op::Ne, 8)));
        assert!(!c(Op::Eq, 7).implies(&c(Op::Ne, 7)));
        assert!(c(Op::Gt, 7).implies(&c(Op::Ne, 7)));
        assert!(c(Op::Gt, 8).implies(&c(Op::Ne, 7)));
        assert!(!c(Op::Gt, 6).implies(&c(Op::Ne, 7)));
    }

    #[test]
    fn implies_exists_and_strings() {
        let gt = Constraint::new("x", Op::Gt, 1i64);
        let exists = Constraint::new("x", Op::Exists, 0i64);
        assert!(gt.implies(&exists));
        assert!(!exists.implies(&gt));
        let p_long = Constraint::new("s", Op::Prefix, "heart-");
        let p_short = Constraint::new("s", Op::Prefix, "heart");
        assert!(p_long.implies(&p_short));
        assert!(!p_short.implies(&p_long));
        let cont = Constraint::new("s", Op::Contains, "ear");
        assert!(p_long.implies(&cont));
    }

    #[test]
    fn implies_requires_same_attribute() {
        let a = Constraint::new("x", Op::Gt, 10i64);
        let b = Constraint::new("y", Op::Gt, 5i64);
        assert!(!a.implies(&b));
    }

    #[test]
    fn covering_basic() {
        let wide = Filter::for_type("r").with(("bpm", Op::Gt, 50i64));
        let narrow = Filter::for_type("r").with(("bpm", Op::Gt, 100i64));
        assert!(wide.covers(&narrow));
        assert!(!narrow.covers(&wide));
        assert!(Filter::any().covers(&narrow));
        assert!(!narrow.covers(&Filter::any()));
        // Different event types never cover.
        let other = Filter::for_type("q").with(("bpm", Op::Gt, 100i64));
        assert!(!wide.covers(&other));
    }

    #[test]
    fn covering_conjunction() {
        let wide = Filter::any().with(("a", Op::Gt, 0i64));
        let narrow = Filter::any()
            .with(("a", Op::Gt, 5i64))
            .with(("b", Op::Eq, 1i64));
        assert!(wide.covers(&narrow));
        assert!(!narrow.covers(&wide));
    }

    #[test]
    fn display_forms() {
        let f = Filter::for_type("r").with(("bpm", Op::Gt, 10i64));
        assert_eq!(f.to_string(), "[r] bpm > 10");
        assert_eq!(Filter::any().to_string(), "[*]");
        let s = Subscription::new(SubscriptionId(3), ServiceId::from_raw(1), Filter::any());
        assert!(s.to_string().contains("sub-3"));
    }

    #[test]
    fn filter_is_empty() {
        assert!(Filter::any().is_empty());
        assert!(!Filter::for_type("t").is_empty());
        assert!(!Filter::any().with(("a", Op::Exists, 0i64)).is_empty());
    }
}
