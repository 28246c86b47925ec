//! Attribute values attached to AST nodes.
//!
//! Each AST node carries a (possibly empty) set of attribute/value pairs, e.g. a binary
//! expression node carries `op: "="` and a numeric literal node carries `value: 9` (paper
//! Figure 3).  Values are restricted to the primitive shapes the rest of the pipeline
//! understands; widget rules only ever distinguish strings from numbers from "anything else".

use crate::istr::IStr;
use std::fmt;

/// A primitive value stored in a node attribute.
///
/// The ordering/equality semantics are *syntactic*: `Int(1)` and `Float(1.0)` are different
/// values because the query text differs, which matters for a purely syntactic system.
///
/// String payloads are interned ([`IStr`]): a trace that repeats the same literal in a
/// million queries stores its bytes once, `clone()` is a 16-byte copy, and equality of two
/// interned handles is a pointer compare — while hashing still reads the string *content*,
/// so structural hashes are identical to the owned-`String` representation this replaced.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// A string value (identifiers, string literals, operators…), interned process-wide.
    Str(IStr),
    /// An integer value.
    Int(i64),
    /// A floating point value.
    Float(f64),
    /// A boolean flag (e.g. `distinct: true`).
    Bool(bool),
}

impl AttrValue {
    /// Returns the value as a string slice if it is a [`AttrValue::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            AttrValue::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Returns the value as an `i64` if it is an [`AttrValue::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            AttrValue::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the value as an `f64` if it is numeric (int or float).
    pub fn as_num(&self) -> Option<f64> {
        match self {
            AttrValue::Int(i) => Some(*i as f64),
            AttrValue::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Returns the value as a bool if it is a [`AttrValue::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            AttrValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// A stable textual rendering used for hashing and display.
    pub fn render(&self) -> String {
        match self {
            AttrValue::Str(s) => s.as_str().to_string(),
            AttrValue::Int(i) => i.to_string(),
            AttrValue::Float(f) => {
                // Keep a trailing `.0` so the rendering round-trips as a float literal.
                if f.fract() == 0.0 && f.is_finite() {
                    format!("{f:.1}")
                } else {
                    f.to_string()
                }
            }
            AttrValue::Bool(b) => b.to_string(),
        }
    }
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

impl From<&str> for AttrValue {
    fn from(s: &str) -> Self {
        AttrValue::Str(IStr::intern(s))
    }
}

impl From<String> for AttrValue {
    fn from(s: String) -> Self {
        AttrValue::Str(IStr::intern_owned(s))
    }
}

impl From<IStr> for AttrValue {
    fn from(s: IStr) -> Self {
        AttrValue::Str(s)
    }
}

impl From<i64> for AttrValue {
    fn from(i: i64) -> Self {
        AttrValue::Int(i)
    }
}

impl From<f64> for AttrValue {
    fn from(f: f64) -> Self {
        AttrValue::Float(f)
    }
}

impl From<bool> for AttrValue {
    fn from(b: bool) -> Self {
        AttrValue::Bool(b)
    }
}

impl std::hash::Hash for AttrValue {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            AttrValue::Str(s) => {
                state.write_u8(0);
                s.hash(state);
            }
            AttrValue::Int(i) => {
                state.write_u8(1);
                i.hash(state);
            }
            AttrValue::Float(f) => {
                state.write_u8(2);
                f.to_bits().hash(state);
            }
            AttrValue::Bool(b) => {
                state.write_u8(3);
                b.hash(state);
            }
        }
    }
}

impl Eq for AttrValue {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_return_expected_variants() {
        assert_eq!(AttrValue::from("abc").as_str(), Some("abc"));
        assert_eq!(AttrValue::from(7i64).as_int(), Some(7));
        assert_eq!(AttrValue::from(7i64).as_num(), Some(7.0));
        assert_eq!(AttrValue::from(2.5).as_num(), Some(2.5));
        assert_eq!(AttrValue::from(true).as_bool(), Some(true));
        assert_eq!(AttrValue::from("abc").as_int(), None);
        assert_eq!(AttrValue::from(1i64).as_str(), None);
    }

    #[test]
    fn render_round_trips_floats_distinctly_from_ints() {
        assert_eq!(AttrValue::Int(3).render(), "3");
        assert_eq!(AttrValue::Float(3.0).render(), "3.0");
        assert_eq!(AttrValue::Float(3.25).render(), "3.25");
    }

    #[test]
    fn int_and_float_with_same_value_are_not_equal() {
        assert_ne!(AttrValue::Int(1), AttrValue::Float(1.0));
    }

    #[test]
    fn hash_is_consistent_with_equality() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |v: &AttrValue| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&AttrValue::from("x")), h(&AttrValue::from("x")));
        assert_ne!(h(&AttrValue::Int(1)), h(&AttrValue::Float(1.0)));
    }
}
