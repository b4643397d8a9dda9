//! Engine error type.

use std::fmt;
use storage::StorageError;

/// Result alias for engine operations.
pub type EngineResult<T> = Result<T, EngineError>;

/// Errors raised by the relational engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// Unknown table name.
    UnknownTable(String),
    /// A table with this name already exists.
    DuplicateTable(String),
    /// Unknown column name within a table.
    UnknownColumn {
        /// Table searched.
        table: String,
        /// Missing column.
        column: String,
    },
    /// Column vectors of a table differ in length.
    RaggedColumns(String),
    /// Underlying storage failure.
    Storage(StorageError),
    /// The optimizer ran out of resources for this plan (models the
    /// "running out of optimizer resource space" failure of Figure 9).
    OptimizerExhausted {
        /// Number of joins requested.
        joins: usize,
        /// Budget that was exceeded.
        budget: usize,
    },
    /// The query observed its governor's cancel token and stopped at a
    /// safe boundary. No partial results were published; crack state is
    /// valid (each piece either untouched or fully cracked).
    Cancelled,
    /// The query overran its governor deadline and stopped at a safe
    /// boundary, with the same state guarantees as [`EngineError::Cancelled`].
    DeadlineExceeded {
        /// The deadline budget the query was given.
        budget: std::time::Duration,
    },
    /// The admission gate refused the query to protect the system: every
    /// session slot stayed busy for the whole bounded wait (or the wait
    /// queue itself was full). Shed load or retry later.
    Overloaded {
        /// Concurrent-session capacity of the gate.
        capacity: usize,
        /// How long the query waited before giving up.
        waited: std::time::Duration,
    },
    /// The engine found its own state contradicting itself — a bug in
    /// this program, not in the request. Nothing partial was returned;
    /// the message says which condition broke.
    Invariant(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownTable(t) => write!(f, "unknown table {t:?}"),
            EngineError::DuplicateTable(t) => write!(f, "table {t:?} already exists"),
            EngineError::UnknownColumn { table, column } => {
                write!(f, "unknown column {column:?} in table {table:?}")
            }
            EngineError::RaggedColumns(t) => {
                write!(f, "columns of table {t:?} differ in length")
            }
            EngineError::Storage(e) => write!(f, "storage error: {e}"),
            EngineError::OptimizerExhausted { joins, budget } => write!(
                f,
                "optimizer resource space exhausted: {joins}-way join exceeds budget {budget}"
            ),
            EngineError::Cancelled => write!(f, "query cancelled"),
            EngineError::DeadlineExceeded { budget } => {
                write!(f, "query deadline exceeded (budget {budget:?})")
            }
            EngineError::Overloaded { capacity, waited } => write!(
                f,
                "admission gate overloaded: all {capacity} sessions busy for {waited:?}"
            ),
            EngineError::Invariant(what) => write!(f, "internal invariant broken: {what}"),
        }
    }
}

impl EngineError {
    /// True when the fault is environmental and retrying the same request
    /// may succeed. Delegates to [`StorageError::is_transient`] for
    /// storage-layer failures; engine-level scheduling refusals
    /// (cancel/deadline/overload) are *not* transient — they carry
    /// intent, and the taxonomy keeps them typed apart.
    pub fn is_transient(&self) -> bool {
        matches!(self, EngineError::Storage(e) if e.is_transient())
    }

    /// True when durable state itself is damaged and needs repair, never
    /// a retry. Only storage can report corruption.
    pub fn is_corruption(&self) -> bool {
        matches!(self, EngineError::Storage(e) if e.is_corruption())
    }

    /// True when the request was refused (or abandoned) to protect the
    /// system under load: the admission gate shed it or its deadline
    /// elapsed.
    pub fn is_overload(&self) -> bool {
        matches!(
            self,
            EngineError::Overloaded { .. } | EngineError::DeadlineExceeded { .. }
        )
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for EngineError {
    fn from(e: StorageError) -> Self {
        EngineError::Storage(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            EngineError::UnknownTable("r".into()).to_string(),
            "unknown table \"r\""
        );
        assert_eq!(
            EngineError::OptimizerExhausted {
                joins: 64,
                budget: 12
            }
            .to_string(),
            "optimizer resource space exhausted: 64-way join exceeds budget 12"
        );
    }

    #[test]
    fn storage_errors_convert() {
        let e: EngineError = StorageError::PersistFormat("x".into()).into();
        assert!(matches!(e, EngineError::Storage(_)));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn every_variant_has_a_pinned_classification() {
        use std::time::Duration;
        // One row per variant: (error, transient, corruption, overload).
        // Storage wrapping must preserve the storage-layer classification.
        let table: Vec<(EngineError, bool, bool, bool)> = vec![
            (EngineError::UnknownTable("t".into()), false, false, false),
            (EngineError::DuplicateTable("t".into()), false, false, false),
            (
                EngineError::UnknownColumn {
                    table: "t".into(),
                    column: "c".into(),
                },
                false,
                false,
                false,
            ),
            (EngineError::RaggedColumns("t".into()), false, false, false),
            (
                EngineError::Storage(StorageError::PersistIo("io".into())),
                true,
                false,
                false,
            ),
            (
                EngineError::Storage(StorageError::PersistFormat("bad".into())),
                false,
                true,
                false,
            ),
            (
                EngineError::Storage(StorageError::WalPoisoned("f".into())),
                false,
                false,
                false,
            ),
            (
                EngineError::OptimizerExhausted {
                    joins: 9,
                    budget: 3,
                },
                false,
                false,
                false,
            ),
            (EngineError::Cancelled, false, false, false),
            (
                EngineError::DeadlineExceeded {
                    budget: Duration::from_millis(5),
                },
                false,
                false,
                true,
            ),
            (
                EngineError::Overloaded {
                    capacity: 4,
                    waited: Duration::from_millis(5),
                },
                false,
                false,
                true,
            ),
        ];
        for (e, transient, corruption, overload) in table {
            assert_eq!(e.is_transient(), transient, "{e}: transient");
            assert_eq!(e.is_corruption(), corruption, "{e}: corruption");
            assert_eq!(e.is_overload(), overload, "{e}: overload");
        }
    }
}
