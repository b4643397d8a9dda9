#![warn(missing_docs)]
//! # storage — base columns and their durability
//!
//! This crate is the storage substrate for the `dbcracker` workspace, a Rust
//! reproduction of *Cracking the Database Store* (Kersten & Manegold, CIDR
//! 2005). The paper's prototype lives inside MonetDB, whose kernel stores
//! every column as a **Binary Association Table**: `(head, tail)` records
//! where the head is a surrogate object identifier (OID) and the tail holds
//! the attribute value. SQL tables map onto `bat[oid, type]` columns that
//! share one dense OID space (§3.4.2); a dense head is virtual, so such a
//! BAT is just its tail array. Every base column in this workspace is that
//! shape — a dense `i64` array, held by `engine::Table` — so this crate
//! keeps no BAT type of its own:
//!
//! * [`value`] — the [`Atom`]s (integers and OIDs) of the row-at-a-time
//!   operator trees, and the [`Oid`] surrogate type;
//! * [`checkpoint`] / [`wal`] — the durability layer: atomic incremental
//!   checkpoints (manifest + per-key payload files) and an append-only redo
//!   log for the pending-update overlay, so crack state recovers *warm*
//!   after a crash (protocol in `PERSISTENCE.md` at the repository root);
//!   [`codec`] is the checksummed binary format both write, and [`fault`]
//!   the injectable I/O those writes go through;
//! * [`mem`] — column-length arrays (cracked copies, dense OIDs, decoded
//!   columns) allocated with huge-page advice, so a cracked copy's first
//!   write is not dominated by page faults.
//!
//! The crate is deliberately free of any cracking logic: `cracker-core`
//! builds on top of it, exactly as MonetDB's cracker module sits on top of
//! the BAT layer as "a user defined extension module" (§3.4.2).

pub mod checkpoint;
pub mod codec;
pub mod error;
pub mod fault;
pub mod mem;
pub mod value;
pub mod wal;

pub use checkpoint::{CheckpointStore, CheckpointWriter, Manifest, ManifestEntry};
pub use error::{StorageError, StorageResult};
pub use fault::{FaultInjector, FaultKind, RetryPolicy};
pub use value::{Atom, Oid};
pub use wal::{RedoLog, WalRecord};
