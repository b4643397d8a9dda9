//! Atomic values.
//!
//! MonetDB calls the cell values of a BAT *atoms*. A SQL table maps onto
//! `bat[oid, type]` columns sharing one dense OID space (§3.4.2); a dense
//! head is virtual, so such a BAT is just its tail array, and every base
//! column here is a dense `i64` array. Atoms survive only in the
//! row-at-a-time operator trees, where a row carries integer values and
//! the surrogate OIDs that tie it back to its base tuples.

use std::fmt;

/// A surrogate object identifier. MonetDB heads are OIDs; SQL tables are
/// decomposed into `bat[oid, type]` columns sharing the same dense OID range.
pub type Oid = u64;

/// A single atomic value of an operator row.
///
/// The order is total: integers sort before OIDs, and each kind sorts by
/// value. Well-typed code never compares the two kinds; the derived order
/// just keeps grouping and join keys simple.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Atom {
    /// 64-bit signed integer.
    Int(i64),
    /// Surrogate object identifier.
    Oid(Oid),
}

impl Atom {
    /// Interpret as `i64`, if the atom is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Atom::Int(v) => Some(*v),
            Atom::Oid(_) => None,
        }
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Atom::Int(v) => write!(f, "{v}"),
            Atom::Oid(o) => write!(f, "@{o}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_ordering_is_numeric() {
        assert!(Atom::Int(-5) < Atom::Int(0));
        assert!(Atom::Int(10) < Atom::Int(11));
        assert_eq!(Atom::Int(7), Atom::Int(7));
    }

    #[test]
    fn cross_type_ordering_is_by_type_rank() {
        assert!(Atom::Int(i64::MAX) < Atom::Oid(0));
        assert!(Atom::Oid(1) < Atom::Oid(2));
        assert_ne!(Atom::Int(3), Atom::Oid(3));
    }

    #[test]
    fn accessors_return_expected_variants() {
        assert_eq!(Atom::Int(4).as_int(), Some(4));
        assert_eq!(Atom::Oid(9).as_int(), None);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Atom::Int(-3).to_string(), "-3");
        assert_eq!(Atom::Oid(8).to_string(), "@8");
    }
}
