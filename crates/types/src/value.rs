//! Attribute values carried by events and compared by filters.

use std::cmp::Ordering;

/// A single attribute value in an event or a filter constraint.
///
/// The set of variants mirrors what Siena's notification model offered the
/// original prototype (booleans, integers, doubles, strings and opaque byte
/// sequences), which is sufficient for the body-area-network sensor events
/// the paper targets.
///
/// ```
/// use smc_types::AttributeValue;
///
/// let v = AttributeValue::from(72i64);
/// assert_eq!(v.as_int(), Some(72));
/// assert!(v.is_numeric());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum AttributeValue {
    /// A boolean flag.
    Bool(bool),
    /// A signed 64-bit integer.
    Int(i64),
    /// A 64-bit IEEE-754 floating point number.
    Double(f64),
    /// A UTF-8 string.
    Str(String),
    /// An opaque byte sequence.
    Bytes(Vec<u8>),
}

impl AttributeValue {
    /// Returns the integer, if this is an [`AttributeValue::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match *self {
            AttributeValue::Int(i) => Some(i),
            _ => None,
        }
    }

    /// Returns the double, if this is an [`AttributeValue::Double`].
    pub fn as_double(&self) -> Option<f64> {
        match *self {
            AttributeValue::Double(d) => Some(d),
            _ => None,
        }
    }

    /// Returns the value as `f64` if it is numeric (`Int` or `Double`).
    pub fn as_numeric(&self) -> Option<f64> {
        match *self {
            AttributeValue::Int(i) => Some(i as f64),
            AttributeValue::Double(d) => Some(d),
            _ => None,
        }
    }

    /// Returns the string slice, if this is an [`AttributeValue::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            AttributeValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the byte slice, if this is an [`AttributeValue::Bytes`].
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            AttributeValue::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// Returns `true` for `Int` and `Double` values.
    pub fn is_numeric(&self) -> bool {
        matches!(self, AttributeValue::Int(_) | AttributeValue::Double(_))
    }

    /// Compares two values for filtering purposes.
    ///
    /// Numeric values compare across `Int`/`Double`; all other comparisons
    /// require identical variants. `None` means the two values are not
    /// comparable (a filter constraint over incomparable values simply does
    /// not match, it never errors).
    pub fn partial_cmp_filter(&self, other: &AttributeValue) -> Option<Ordering> {
        use AttributeValue::*;
        match (self, other) {
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            (Str(a), Str(b)) => Some(a.cmp(b)),
            (Bytes(a), Bytes(b)) => Some(a.cmp(b)),
            (a, b) if a.is_numeric() && b.is_numeric() => {
                // Unwrap is fine: is_numeric guarantees as_numeric is Some.
                a.as_numeric()
                    .unwrap()
                    .partial_cmp(&b.as_numeric().unwrap())
            }
            _ => None,
        }
    }

    /// Equality for filtering purposes: numeric values compare across
    /// variants (`Int(5)` equals `Double(5.0)`).
    pub fn eq_filter(&self, other: &AttributeValue) -> bool {
        self.partial_cmp_filter(other) == Some(Ordering::Equal)
    }
}

impl From<bool> for AttributeValue {
    fn from(b: bool) -> Self {
        AttributeValue::Bool(b)
    }
}

impl From<i64> for AttributeValue {
    fn from(i: i64) -> Self {
        AttributeValue::Int(i)
    }
}

impl From<i32> for AttributeValue {
    fn from(i: i32) -> Self {
        AttributeValue::Int(i64::from(i))
    }
}

impl From<u32> for AttributeValue {
    fn from(i: u32) -> Self {
        AttributeValue::Int(i64::from(i))
    }
}

impl From<f64> for AttributeValue {
    fn from(d: f64) -> Self {
        AttributeValue::Double(d)
    }
}

impl From<&str> for AttributeValue {
    fn from(s: &str) -> Self {
        AttributeValue::Str(s.to_owned())
    }
}

impl From<String> for AttributeValue {
    fn from(s: String) -> Self {
        AttributeValue::Str(s)
    }
}

impl From<Vec<u8>> for AttributeValue {
    fn from(b: Vec<u8>) -> Self {
        AttributeValue::Bytes(b)
    }
}

impl From<&[u8]> for AttributeValue {
    fn from(b: &[u8]) -> Self {
        AttributeValue::Bytes(b.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_match_variants() {
        assert_eq!(AttributeValue::Int(7).as_int(), Some(7));
        assert_eq!(AttributeValue::Double(1.5).as_double(), Some(1.5));
        assert_eq!(AttributeValue::from("hi").as_str(), Some("hi"));
        assert_eq!(AttributeValue::from(vec![1u8]).as_bytes(), Some(&[1u8][..]));
        assert_eq!(AttributeValue::Bool(true).as_int(), None);
        assert_eq!(AttributeValue::Int(1).as_str(), None);
    }

    #[test]
    fn numeric_cross_variant_comparison() {
        let i = AttributeValue::Int(5);
        let d = AttributeValue::Double(5.0);
        assert!(i.eq_filter(&d));
        assert_eq!(
            i.partial_cmp_filter(&AttributeValue::Double(5.5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            AttributeValue::Double(9.0).partial_cmp_filter(&AttributeValue::Int(3)),
            Some(Ordering::Greater)
        );
    }

    #[test]
    fn incomparable_types_return_none() {
        let s = AttributeValue::from("x");
        let i = AttributeValue::Int(1);
        assert_eq!(s.partial_cmp_filter(&i), None);
        assert!(!s.eq_filter(&i));
        assert_eq!(
            AttributeValue::Bool(true).partial_cmp_filter(&AttributeValue::Int(1)),
            None
        );
    }

    #[test]
    fn nan_compares_as_none() {
        let nan = AttributeValue::Double(f64::NAN);
        assert_eq!(nan.partial_cmp_filter(&AttributeValue::Double(1.0)), None);
        assert!(!nan.eq_filter(&nan));
    }

    #[test]
    fn string_ordering() {
        let a = AttributeValue::from("abc");
        let b = AttributeValue::from("abd");
        assert_eq!(a.partial_cmp_filter(&b), Some(Ordering::Less));
    }

    #[test]
    fn bytes_ordering() {
        let a = AttributeValue::from(vec![1u8, 2]);
        let b = AttributeValue::from(vec![1u8, 3]);
        assert_eq!(a.partial_cmp_filter(&b), Some(Ordering::Less));
    }

    #[test]
    fn display_forms() {
        assert_eq!(AttributeValue::Int(42).to_string(), "42");
        assert_eq!(AttributeValue::from("a").to_string(), "\"a\"");
        assert_eq!(
            AttributeValue::from(vec![0xabu8, 0x01]).to_string(),
            "0xab01"
        );
    }

    #[test]
    fn from_impls() {
        assert_eq!(AttributeValue::from(3i32), AttributeValue::Int(3));
        assert_eq!(AttributeValue::from(3u32), AttributeValue::Int(3));
        assert_eq!(
            AttributeValue::from(String::from("x")),
            AttributeValue::Str("x".into())
        );
        assert_eq!(
            AttributeValue::from(&b"ab"[..]),
            AttributeValue::Bytes(vec![97, 98])
        );
    }
}
