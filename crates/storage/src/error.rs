//! Error types for the storage layer.

use crate::value::AtomType;
use std::fmt;

/// Result alias used throughout the storage crate.
pub type StorageResult<T> = Result<T, StorageError>;

/// Errors raised by the BAT store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// An operation expected a tail of one type but found another.
    TypeMismatch {
        /// Type the caller expected.
        expected: AtomType,
        /// Type actually stored in the BAT tail.
        found: AtomType,
    },
    /// A positional access was out of the BAT's bounds.
    OutOfBounds {
        /// Requested position.
        index: usize,
        /// Number of live BUNs in the BAT.
        len: usize,
    },
    /// A named BAT (a fragment's attribute) does not exist.
    UnknownBat(String),
    /// Two BATs that must be aligned (same length / same head) are not.
    Misaligned {
        /// Length of the left operand.
        left: usize,
        /// Length of the right operand.
        right: usize,
    },
    /// Persistence (I/O or serialization) failure.
    Persist(String),
    /// Persistence failed at the I/O layer (open/read/write/fsync/rename):
    /// the environment is at fault and a retry may succeed.
    PersistIo(String),
    /// The device is out of space (ENOSPC). Unlike a generic I/O error a
    /// retry cannot help until an operator frees space, so this is typed
    /// apart from [`StorageError::PersistIo`] and never retried.
    DiskFull(String),
    /// The redo log is poisoned: a group-commit fsync failed, so the
    /// durability of everything since the last successful sync is unknown
    /// (the kernel may have dropped the dirty pages — the classic
    /// fsyncgate trap). Every later append is refused with this error
    /// until the log rotates to a fresh epoch file.
    WalPoisoned(String),
    /// A persisted artifact is malformed (bad JSON, wrong version, a bad
    /// checksum): retrying cannot help, the file itself is bad.
    PersistFormat(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected}, found {found}")
            }
            StorageError::OutOfBounds { index, len } => {
                write!(f, "position {index} out of bounds for BAT of length {len}")
            }
            StorageError::UnknownBat(name) => write!(f, "unknown BAT {name:?}"),
            StorageError::Misaligned { left, right } => {
                write!(
                    f,
                    "misaligned BATs: left has {left} BUNs, right has {right}"
                )
            }
            StorageError::Persist(msg) => write!(f, "persistence error: {msg}"),
            StorageError::PersistIo(msg) => write!(f, "persistence I/O error: {msg}"),
            StorageError::DiskFull(msg) => write!(f, "device out of space: {msg}"),
            StorageError::WalPoisoned(msg) => {
                write!(f, "redo log poisoned until rotation: {msg}")
            }
            StorageError::PersistFormat(msg) => write!(f, "persisted data malformed: {msg}"),
        }
    }
}

impl StorageError {
    /// True when the fault is environmental and a bounded retry of the
    /// *same* operation may succeed (the class
    /// [`crate::fault::RetryPolicy`] retries). Exactly the I/O-layer
    /// failures: a flaky device, a transient EIO, an interrupted write.
    pub fn is_transient(&self) -> bool {
        matches!(self, StorageError::PersistIo(_))
    }

    /// True when durable state itself is damaged (malformed artifact):
    /// retrying cannot help and recovery/repair is required.
    pub fn is_corruption(&self) -> bool {
        matches!(self, StorageError::PersistFormat(_))
    }
}

impl std::error::Error for StorageError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_human_readable() {
        let e = StorageError::TypeMismatch {
            expected: AtomType::Int,
            found: AtomType::Str,
        };
        assert_eq!(e.to_string(), "type mismatch: expected int, found str");
        assert_eq!(
            StorageError::UnknownBat("r_a".into()).to_string(),
            "unknown BAT \"r_a\""
        );
        assert_eq!(
            StorageError::OutOfBounds { index: 9, len: 3 }.to_string(),
            "position 9 out of bounds for BAT of length 3"
        );
        assert_eq!(
            StorageError::PersistIo("disk gone".into()).to_string(),
            "persistence I/O error: disk gone"
        );
        assert_eq!(
            StorageError::PersistFormat("bad json".into()).to_string(),
            "persisted data malformed: bad json"
        );
    }

    #[test]
    fn every_variant_has_a_pinned_classification() {
        // One row per variant: (error, transient, corruption).
        // Adding a variant without deciding its class should fail here.
        let table: Vec<(StorageError, bool, bool)> = vec![
            (
                StorageError::TypeMismatch {
                    expected: AtomType::Int,
                    found: AtomType::Str,
                },
                false,
                false,
            ),
            (StorageError::OutOfBounds { index: 1, len: 0 }, false, false),
            (StorageError::UnknownBat("b".into()), false, false),
            (StorageError::Misaligned { left: 1, right: 2 }, false, false),
            (StorageError::Persist("p".into()), false, false),
            (StorageError::PersistIo("io".into()), true, false),
            (StorageError::DiskFull("full".into()), false, false),
            (StorageError::WalPoisoned("f".into()), false, false),
            (StorageError::PersistFormat("bad".into()), false, true),
        ];
        for (e, transient, corruption) in table {
            assert_eq!(e.is_transient(), transient, "{e}: transient");
            assert_eq!(e.is_corruption(), corruption, "{e}: corruption");
        }
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            StorageError::UnknownBat("x".into()),
            StorageError::UnknownBat("x".into())
        );
        assert_ne!(
            StorageError::UnknownBat("x".into()),
            StorageError::UnknownBat("y".into())
        );
    }
}
