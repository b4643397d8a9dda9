#![warn(missing_docs)]
//! # storage — a Binary Association Table (BAT) column store
//!
//! This crate is the storage substrate for the `dbcracker` workspace, a Rust
//! reproduction of *Cracking the Database Store* (Kersten & Manegold, CIDR
//! 2005). The paper's prototype lives inside MonetDB, whose kernel stores
//! every column as a **Binary Association Table**: a contiguous array of
//! fixed-length `(head, tail)` records, where the head is a surrogate object
//! identifier (OID) and the tail holds the attribute value. Variable-length
//! values live in a separate *heap* and the tail stores offsets into it.
//!
//! We re-implement that design in safe Rust:
//!
//! * [`bat::Bat`] — a single binary association table with a (usually dense)
//!   OID head and a typed tail column;
//! * [`heap::StrHeap`] — the variable-sized atom heap backing string tails;
//! * [`ops`] — the baseline (non-cracking) kernel algebra over BATs:
//!   range select, tail equi-join, grouped aggregates, `reverse`, `mirror`
//!   and `fetch`;
//! * [`stats`] — per-BAT statistics ((min,max) bounds, cardinality,
//!   sortedness), the raw material of the cracker index;
//! * [`checkpoint`] / [`wal`] — the durability layer: atomic incremental
//!   checkpoints (manifest + per-key payload files) and an append-only redo
//!   log for the pending-update overlay, so crack state recovers *warm*
//!   after a crash (protocol in `PERSISTENCE.md` at the repository root);
//!   [`codec`] is the checksummed binary format both write;
//! * [`mem`] — column-length arrays (cracked copies, dense OIDs, decoded
//!   columns) allocated with huge-page advice, so a cracked copy's first
//!   write is not dominated by page faults.
//!
//! The crate is deliberately free of any cracking logic: `cracker-core`
//! builds on top of it, exactly as MonetDB's cracker module sits on top of
//! the BAT layer as "a user defined extension module" (§3.4.2).

pub mod bat;
pub mod checkpoint;
pub mod codec;
pub mod error;
pub mod fault;
pub mod heap;
pub mod mem;
pub mod ops;
pub mod stats;
pub mod value;
pub mod wal;

pub use bat::{Bat, HeadColumn, TailData};
pub use checkpoint::{CheckpointStore, CheckpointWriter, Manifest, ManifestEntry};
pub use error::{StorageError, StorageResult};
pub use fault::{FaultInjector, FaultKind, RetryPolicy};
pub use value::{Atom, AtomType, Oid};
pub use wal::{RedoLog, WalRecord};
