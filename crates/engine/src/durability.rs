//! Durability wiring for [`AdaptiveDb`](crate::AdaptiveDb): what a
//! checkpoint of the whole database contains and the live handle pairing a
//! [`CheckpointStore`] with the current epoch's [`RedoLog`].
//!
//! The protocol (documented in `PERSISTENCE.md` at the repository root) is
//! checkpoint + redo log:
//!
//! * [`AdaptiveDb::checkpoint`](crate::AdaptiveDb::checkpoint) writes the
//!   base tables, each cracked column's piece map (one snapshot per
//!   column), and the pending-update overlay into an atomic
//!   [`storage::checkpoint`] epoch. Each payload is a checksummed
//!   [`storage::codec`] frame encoded straight from the live arrays, and
//!   only when its content fingerprint changed: an unchanged payload is
//!   carried forward without being read, copied or rewritten;
//! * between checkpoints, staged inserts/deletes are appended to the
//!   epoch's redo log *before* being applied (write-ahead), fsync'd on the
//!   configured group-commit interval;
//! * [`AdaptiveDb::recover`](crate::AdaptiveDb::recover) reloads the last
//!   committed epoch, restores every piece map with full validation
//!   ([`cracker_core::snapshot`]), and replays the log — so the recovered
//!   database answers *warm*, at the cracked cost the workload had already
//!   paid for, never cold and never silently wrong.

use crate::error::{EngineError, EngineResult};
use storage::codec::{self, Reader};
use storage::fault::RetryPolicy;
use storage::wal::RedoLog;
use storage::{CheckpointStore, Manifest, StorageError, StorageResult};

/// Version tag of the [`DbMeta`] payload. Versions 1 (two cracked copies
/// per column) and 2 (JSON payloads) are refused as a typed
/// [`StorageError::PersistFormat`]: a version-2 directory's payloads are
/// not frames, and a frame that names another version fails here.
pub const DB_META_VERSION: u32 = 3;

/// Manifest key under which the database-level metadata payload lives.
pub const META_KEY: &str = "__meta__";

/// One registered table in a checkpoint: its name and column names, in
/// schema order. Column payloads live under [`table_key`] entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableMeta {
    /// Table name.
    pub name: String,
    /// Column names in schema order.
    pub columns: Vec<String>,
}

/// The database-level metadata payload of a checkpoint: everything
/// [`AdaptiveDb::recover`](crate::AdaptiveDb::recover) needs to know which
/// other payloads to read and how to rebuild the in-memory shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DbMeta {
    /// Payload format version.
    pub version: u32,
    /// Requested shard count of the concurrency mode; `0` = single lock.
    pub concurrency_shards: u64,
    /// Registered tables, sorted by name.
    pub tables: Vec<TableMeta>,
    /// `(table, column)` keys of the cracked columns, sorted. Snapshots
    /// live under [`column_key`] entries.
    pub columns: Vec<(String, String)>,
}

impl DbMeta {
    /// Append this payload's body: the version first, so a reader can
    /// refuse another version before it parses anything else.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        codec::put_u64(buf, u64::from(self.version));
        codec::put_u64(buf, self.concurrency_shards);
        codec::put_u64(buf, self.tables.len() as u64);
        for t in &self.tables {
            codec::put_str(buf, &t.name);
            codec::put_u64(buf, t.columns.len() as u64);
            for c in &t.columns {
                codec::put_str(buf, c);
            }
        }
        codec::put_u64(buf, self.columns.len() as u64);
        for (t, c) in &self.columns {
            codec::put_str(buf, t);
            codec::put_str(buf, c);
        }
    }

    /// Decode a payload body written by [`encode`](Self::encode) under
    /// [`DB_META_VERSION`]; any other version is refused.
    pub fn decode(body: &[u8]) -> StorageResult<Self> {
        let mut r = Reader::new(body);
        let version = r.u64()?;
        if version != u64::from(DB_META_VERSION) {
            return Err(StorageError::PersistFormat(format!(
                "unsupported db meta version {version}"
            )));
        }
        let concurrency_shards = r.u64()?;
        let n = r.count()?;
        let mut tables = Vec::with_capacity(n);
        for _ in 0..n {
            let name = r.str()?;
            let n = r.count()?;
            let mut columns = Vec::with_capacity(n);
            for _ in 0..n {
                columns.push(r.str()?);
            }
            tables.push(TableMeta { name, columns });
        }
        let n = r.count()?;
        let mut columns = Vec::with_capacity(n);
        for _ in 0..n {
            columns.push((r.str()?, r.str()?));
        }
        r.finish()?;
        Ok(DbMeta {
            version: DB_META_VERSION,
            concurrency_shards,
            tables,
            columns,
        })
    }
}

/// Manifest key of a base-table column payload (one integer array).
pub fn table_key(table: &str, column: &str) -> String {
    format!("table/{table}/{column}")
}

/// Manifest key of a cracked column's
/// [`cracker_core::ConcurrentSnapshot`].
pub fn column_key(table: &str, column: &str) -> String {
    format!("column/{table}/{column}")
}

/// The live durability handle an [`AdaptiveDb`](crate::AdaptiveDb)
/// carries once attached: the checkpoint store plus the redo log of the
/// current epoch.
#[derive(Debug)]
pub struct Durability {
    /// The checkpoint directory.
    pub(crate) store: CheckpointStore,
    /// Open append handle on the current epoch's redo log.
    pub(crate) log: RedoLog,
    /// Retry policy for transient I/O faults, re-applied to the fresh
    /// log handle after every rotation (the store keeps its own copy).
    pub(crate) retry: RetryPolicy,
    /// Epoch of the last committed checkpoint.
    pub(crate) epoch: u64,
}

impl Durability {
    /// Pair `store` with the redo log the committed `manifest` names,
    /// applying `group_commit` and the store's retry policy to the fresh
    /// log handle.
    pub(crate) fn from_manifest(
        store: CheckpointStore,
        manifest: &Manifest,
        group_commit: usize,
        retry: RetryPolicy,
    ) -> EngineResult<Self> {
        let mut log = RedoLog::open_append(store.log_path(manifest))
            .map_err(EngineError::from)?
            .with_group_commit(group_commit);
        log.set_retry_policy(retry);
        Ok(Durability {
            store,
            log,
            retry,
            epoch: manifest.epoch,
        })
    }

    /// Rotate the live log handle onto `manifest`'s log path, keeping its
    /// injector, retry policy, and group-commit setting (and clearing any
    /// poison — the commit that produced `manifest` folded the overlay
    /// into durable payloads).
    ///
    /// If the new epoch's log cannot be opened, the handle is *poisoned*
    /// instead: the manifest already committed, so appending to the stale
    /// path would silently lose records at recovery. Updates then fail
    /// typed until a later checkpoint rotates successfully.
    pub(crate) fn rotate_to(&mut self, manifest: &Manifest) -> EngineResult<()> {
        match self.log.rotate(self.store.log_path(manifest)) {
            Ok(()) => {
                self.epoch = manifest.epoch;
                Ok(())
            }
            Err(e) => {
                self.log.poison(&format!(
                    "log rotation to epoch {} failed: {e}",
                    manifest.epoch
                ));
                self.epoch = manifest.epoch;
                Err(EngineError::from(e))
            }
        }
    }
}

/// Error for durability entry points called before
/// [`AdaptiveDb::attach_durability`](crate::AdaptiveDb::attach_durability).
pub(crate) fn not_attached() -> EngineError {
    EngineError::Storage(StorageError::Persist(
        "no durability attached — call attach_durability first".to_string(),
    ))
}

/// Error for base-table mutations that durability cannot reproduce:
/// recovery replays only the update overlay, so compacting or dropping a
/// base table under an attached redo log would leave a directory that
/// recovers to different data (or not at all).
pub(crate) fn not_replayable(op: &str) -> EngineError {
    EngineError::Storage(StorageError::Persist(format!(
        "{op} is refused while durability is attached — the redo log cannot replay it"
    )))
}
