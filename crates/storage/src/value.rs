//! Atomic values and their types.
//!
//! MonetDB calls the cell values of a BAT *atoms*. We support the four atom
//! types the paper's experiments need: 64-bit integers (the tapestry tables
//! are `R[int,int]`), 64-bit floats (the scientific-database motivation of
//! §4 talks of "multi-million rows of floating point numbers"), strings
//! (variable-sized atoms kept in a heap), and OIDs (the surrogate keys that
//! make Ψ-cracking loss-less).

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// A surrogate object identifier. MonetDB heads are OIDs; SQL tables are
/// decomposed into `bat[oid, type]` columns sharing the same dense OID range.
pub type Oid = u64;

/// The type of an atom stored in a BAT tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AtomType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float, ordered by `f64::total_cmp` (NaN sorts last).
    Float,
    /// Variable-sized string, stored in a [`crate::heap::StrHeap`].
    Str,
    /// Surrogate object identifier.
    Oid,
}

impl fmt::Display for AtomType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AtomType::Int => write!(f, "int"),
            AtomType::Float => write!(f, "float"),
            AtomType::Str => write!(f, "str"),
            AtomType::Oid => write!(f, "oid"),
        }
    }
}

/// A single atomic value.
///
/// `Atom` implements a **total order** (`Ord`): floats are ordered with
/// [`f64::total_cmp`], so atoms can be used as boundary keys in the cracker
/// index without any partial-ordering escape hatches. Comparing atoms of
/// different types orders them by type tag first; well-typed code never
/// relies on that, but it keeps the order total and the invariants simple.
#[derive(Debug, Clone)]
pub enum Atom {
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit IEEE float.
    Float(f64),
    /// Owned string value.
    Str(String),
    /// Surrogate object identifier.
    Oid(Oid),
}

impl Atom {
    /// The [`AtomType`] of this value.
    pub fn atom_type(&self) -> AtomType {
        match self {
            Atom::Int(_) => AtomType::Int,
            Atom::Float(_) => AtomType::Float,
            Atom::Str(_) => AtomType::Str,
            Atom::Oid(_) => AtomType::Oid,
        }
    }

    /// Interpret as `i64`, if the atom is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Atom::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Interpret as `f64`, if the atom is a float.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Atom::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// Interpret as `&str`, if the atom is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Atom::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Interpret as [`Oid`], if the atom is an OID.
    pub fn as_oid(&self) -> Option<Oid> {
        match self {
            Atom::Oid(o) => Some(*o),
            _ => None,
        }
    }

    fn type_rank(&self) -> u8 {
        match self {
            Atom::Int(_) => 0,
            Atom::Float(_) => 1,
            Atom::Str(_) => 2,
            Atom::Oid(_) => 3,
        }
    }
}

impl PartialEq for Atom {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Atom {}

impl PartialOrd for Atom {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Atom {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Atom::Int(a), Atom::Int(b)) => a.cmp(b),
            (Atom::Float(a), Atom::Float(b)) => a.total_cmp(b),
            (Atom::Str(a), Atom::Str(b)) => a.cmp(b),
            (Atom::Oid(a), Atom::Oid(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl std::hash::Hash for Atom {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.type_rank().hash(state);
        match self {
            Atom::Int(v) => v.hash(state),
            // Hash the bit pattern; consistent with total_cmp-based Eq.
            Atom::Float(v) => v.to_bits().hash(state),
            Atom::Str(s) => s.hash(state),
            Atom::Oid(o) => o.hash(state),
        }
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Atom::Int(v) => write!(f, "{v}"),
            Atom::Float(v) => write!(f, "{v}"),
            Atom::Str(s) => write!(f, "{s:?}"),
            Atom::Oid(o) => write!(f, "@{o}"),
        }
    }
}

impl From<i64> for Atom {
    fn from(v: i64) -> Self {
        Atom::Int(v)
    }
}

impl From<f64> for Atom {
    fn from(v: f64) -> Self {
        Atom::Float(v)
    }
}

impl From<&str> for Atom {
    fn from(v: &str) -> Self {
        Atom::Str(v.to_owned())
    }
}

impl From<String> for Atom {
    fn from(v: String) -> Self {
        Atom::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn hash_of(a: &Atom) -> u64 {
        let mut h = DefaultHasher::new();
        a.hash(&mut h);
        h.finish()
    }

    #[test]
    fn int_ordering_is_numeric() {
        assert!(Atom::Int(-5) < Atom::Int(0));
        assert!(Atom::Int(10) < Atom::Int(11));
        assert_eq!(Atom::Int(7), Atom::Int(7));
    }

    #[test]
    fn float_ordering_is_total_and_handles_nan() {
        assert!(Atom::Float(1.0) < Atom::Float(2.0));
        // total_cmp: NaN sorts after +inf, so comparisons never panic.
        assert!(Atom::Float(f64::INFINITY) < Atom::Float(f64::NAN));
        assert_eq!(Atom::Float(f64::NAN), Atom::Float(f64::NAN));
        // -0.0 < +0.0 under total order.
        assert!(Atom::Float(-0.0) < Atom::Float(0.0));
    }

    #[test]
    fn string_ordering_is_lexicographic() {
        assert!(Atom::from("abc") < Atom::from("abd"));
        assert!(Atom::from("ab") < Atom::from("abc"));
    }

    #[test]
    fn cross_type_ordering_is_by_type_rank() {
        assert!(Atom::Int(i64::MAX) < Atom::Float(f64::NEG_INFINITY));
        assert!(Atom::Float(f64::INFINITY) < Atom::Str(String::new()));
        assert!(Atom::Str("zzz".into()) < Atom::Oid(0));
    }

    #[test]
    fn hash_agrees_with_eq_for_floats() {
        let a = Atom::Float(3.25);
        let b = Atom::Float(3.25);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn atom_type_reporting() {
        assert_eq!(Atom::Int(1).atom_type(), AtomType::Int);
        assert_eq!(Atom::Float(1.0).atom_type(), AtomType::Float);
        assert_eq!(Atom::from("x").atom_type(), AtomType::Str);
        assert_eq!(Atom::Oid(1).atom_type(), AtomType::Oid);
    }

    #[test]
    fn accessors_return_expected_variants() {
        assert_eq!(Atom::Int(4).as_int(), Some(4));
        assert_eq!(Atom::Int(4).as_float(), None);
        assert_eq!(Atom::Float(2.5).as_float(), Some(2.5));
        assert_eq!(Atom::from("hi").as_str(), Some("hi"));
        assert_eq!(Atom::Oid(9).as_oid(), Some(9));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Atom::Int(-3).to_string(), "-3");
        assert_eq!(Atom::Oid(8).to_string(), "@8");
        assert_eq!(Atom::from("a").to_string(), "\"a\"");
    }
}
