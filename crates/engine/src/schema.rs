//! Relational schemas. Every column is a dense `i64` array, so a schema is
//! the ordered list of its column names.

/// An ordered list of column names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    names: Vec<String>,
}

impl Schema {
    /// Build from column names.
    ///
    /// # Panics
    /// Panics on duplicate column names — schemas are validated at
    /// construction so later lookups can be infallible by index.
    pub fn new(names: &[&str]) -> Self {
        for (i, n) in names.iter().enumerate() {
            assert!(!names[..i].contains(n), "duplicate column name {n:?}");
        }
        Schema {
            names: names.iter().map(|n| n.to_string()).collect(),
        }
    }

    /// Number of columns (the benchmark's arity `α`).
    pub fn arity(&self) -> usize {
        self.names.len()
    }

    /// Column position by name.
    pub fn position(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|c| c == name)
    }

    /// Column names, in order.
    pub fn names(&self) -> Vec<&str> {
        self.names.iter().map(String::as_str).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn position_lookup() {
        let s = Schema::new(&["k", "a", "b"]);
        assert_eq!(s.arity(), 3);
        assert_eq!(s.position("a"), Some(1));
        assert_eq!(s.position("z"), None);
        assert_eq!(s.names(), vec!["k", "a", "b"]);
    }

    #[test]
    #[should_panic(expected = "duplicate column name")]
    fn duplicate_names_rejected() {
        Schema::new(&["a", "a"]);
    }
}
