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
//! * [`view::BatView`] — a zero-copy slice of a BAT, the mechanism the paper
//!   uses to make cracked pieces cheap ("BAT views provide a cheap
//!   representation of the newly created table", §5.2);
//! * [`accel`] — lazily built, automatically maintained search accelerators
//!   (hash table, sorted permutation), mirroring the accelerator slots in the
//!   BAT descriptor of the paper's Figure 7;
//! * [`stats`] — per-BAT statistics ((min,max) bounds, cardinality,
//!   sortedness), the raw material of the cracker index;
//! * [`catalog::StoreCatalog`] — an in-memory catalog of named BATs. The
//!   paper argues a *main-memory* catalog structure is required because
//!   routing piece administration through a persistent system catalog is
//!   what makes SQL-level cracking prohibitively expensive (§5.1, §7);
//! * [`persist`] — snapshot save/load of a catalog, so experiments can be
//!   checkpointed;
//! * [`checkpoint`] / [`wal`] — the durability layer: atomic incremental
//!   checkpoints (manifest + per-key payload files) and an append-only redo
//!   log for the pending-update overlay, so crack state recovers *warm*
//!   after a crash (protocol in `PERSISTENCE.md` at the repository root);
//!   [`codec`] is the checksummed binary format both write;
//! * [`page`] / [`pool`] / [`paged`] — the disk-block layer: fixed-size
//!   pages on a simulated disk, a CLOCK buffer pool with IO counters, and
//!   a paged integer column — the substrate that makes §3.4.2's
//!   "disk-blocks, being the slowest granularity in the system" a physical
//!   boundary rather than a configuration knob.
//!
//! The crate is deliberately free of any cracking logic: `cracker-core`
//! builds on top of it, exactly as MonetDB's cracker module sits on top of
//! the BAT layer as "a user defined extension module" (§3.4.2).

pub mod accel;
pub mod bat;
pub mod catalog;
pub mod checkpoint;
pub mod codec;
pub mod error;
pub mod fault;
pub mod heap;
pub mod ops;
pub mod page;
pub mod paged;
pub mod persist;
pub mod pool;
pub mod stats;
pub mod value;
pub mod view;
pub mod wal;

pub use bat::{Bat, HeadColumn, TailData};
pub use catalog::StoreCatalog;
pub use checkpoint::{CheckpointStore, CheckpointWriter, Manifest, ManifestEntry};
pub use error::{StorageError, StorageResult};
pub use fault::{FaultInjector, FaultKind, RetryPolicy};
pub use page::{IoStats, MemDisk, PageBuf, PageId, PageStore, DEFAULT_PAGE_SIZE};
pub use paged::PagedColumn;
pub use pool::{BufferPool, PoolStats};
pub use value::{Atom, AtomType, Oid};
pub use view::BatView;
pub use wal::{RedoLog, WalRecord};
