//! Append-only redo log for the pending-update overlay — the volatile
//! half of the durability story ([`crate::checkpoint`] is the durable
//! half; `PERSISTENCE.md` at the repository root documents the protocol).
//!
//! Staged inserts/deletes are the only crack state that mutates between
//! checkpoints on the query path, so they are the only state worth
//! logging. Every [`append`](RedoLog::append) or
//! [`append_batch`](RedoLog::append_batch) call writes **one** checksummed
//! [`crate::codec`] frame. Its body is a list of runs: consecutive records
//! with the same kind and `(table, column)` name that pair once, followed
//! by the run's OIDs and, for inserts, its values as width-packed integer
//! arrays. Frames are fsync'd on a **group-commit interval** (every append
//! by default; every N-th for throughput at the cost of the tail).
//! Recovery replays the log on top of the last checkpoint.
//!
//! The log is never truncated in place: a checkpoint *rotates* to a fresh
//! epoch-named file (`wal.<epoch>.log`) and the manifest rename atomically
//! switches which log recovery reads — see [`crate::checkpoint`].
//!
//! **Torn tails.** A crash mid-append leaves a partial final frame. Replay
//! reads frames front to back and judges the first one that does not
//! verify by its shape:
//!
//! * its header, or the body its valid header announces, runs past the
//!   end of the file — or everything left is zero bytes, an extent whose
//!   length landed before its data: a **torn append**, whose records were
//!   never acknowledged. Dropped, and truncated off by repair;
//! * a **complete final frame whose checksum does not match**: tolerated
//!   too (sector writes are not ordered, so the trailer can land while
//!   part of the body does not), but it is also the shape genuine
//!   corruption of the last durable record would take — repairing one is
//!   announced on stderr and surfaced to callers via
//!   [`RedoLog::replay_and_repair_reporting`], never discarded silently;
//! * a bad frame **with bytes after it**: real corruption, a loud
//!   [`StorageError::PersistFormat`]. A header carries its own check, so
//!   a corrupted length in the middle of the log lands here, not in the
//!   first case.
//!
//! **Faults and poison.** Every file operation flows through the
//! [`crate::fault`] facade, so tests can arm deterministic EIO /
//! ENOSPC / short-write / failed-fsync at the log's named boundaries.
//! A failed *write* is retried under the log's [`RetryPolicy`] after
//! rolling the file back to the last acknowledged length (so a torn
//! half-frame never ends up with a fresh frame concatenated onto it).
//! A failed group-commit **fsync** is never retried: the kernel may
//! have dropped the dirty pages, so the log **poisons** itself — the
//! un-acknowledged tail is rolled back best-effort, and every later
//! append fails with [`StorageError::WalPoisoned`] until the log
//! [`rotate`](RedoLog::rotate)s to a fresh epoch file (which a
//! checkpoint commit does). Anything else would let appends *after* a
//! failed fsync claim durability the device never promised.

use crate::codec::{self, FrameKind, Next, Reader};
use crate::error::{StorageError, StorageResult};
use crate::fault::{self, FaultInjector, RetryPolicy};
use std::fs::File;
use std::path::{Path, PathBuf};

/// One redo record: a staged update against a named cracked column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A staged insert of `(oid, value)` into `table.column`.
    Insert {
        /// Table the cracked column belongs to.
        table: String,
        /// Column name.
        column: String,
        /// OID of the inserted tuple.
        oid: u32,
        /// Inserted value.
        value: i64,
    },
    /// A staged delete of `oid` from `table.column`.
    Delete {
        /// Table the cracked column belongs to.
        table: String,
        /// Column name.
        column: String,
        /// OID of the deleted tuple.
        oid: u32,
    },
}

/// Run tag of staged inserts in a redo frame.
const INSERT: u8 = 1;
/// Run tag of staged deletes in a redo frame.
const DELETE: u8 = 2;

impl WalRecord {
    /// The run this record belongs to: its tag and target column.
    fn run_key(&self) -> (u8, &str, &str) {
        match self {
            WalRecord::Insert { table, column, .. } => (INSERT, table, column),
            WalRecord::Delete { table, column, .. } => (DELETE, table, column),
        }
    }

    fn oid(&self) -> u32 {
        match self {
            WalRecord::Insert { oid, .. } | WalRecord::Delete { oid, .. } => *oid,
        }
    }

    fn value(&self) -> i64 {
        match self {
            WalRecord::Insert { value, .. } => *value,
            WalRecord::Delete { .. } => 0,
        }
    }
}

/// Append the body of one redo frame holding `recs`, in order.
fn encode_group(buf: &mut Vec<u8>, recs: &[WalRecord]) {
    let same_run = |a: &WalRecord, b: &WalRecord| a.run_key() == b.run_key();
    codec::put_u64(buf, recs.chunk_by(same_run).count() as u64);
    for run in recs.chunk_by(same_run) {
        let (tag, table, column) = run[0].run_key();
        codec::put_u8(buf, tag);
        codec::put_str(buf, table);
        codec::put_str(buf, column);
        codec::put_int_iter(buf, run.iter().map(|r| i64::from(r.oid())));
        if tag == INSERT {
            codec::put_int_iter(buf, run.iter().map(WalRecord::value));
        }
    }
}

/// Append the records of one verified redo frame body to `out`.
fn decode_group(body: &[u8], out: &mut Vec<WalRecord>) -> StorageResult<()> {
    let mut r = Reader::new(body);
    for _ in 0..r.count()? {
        let tag = r.u8()?;
        let (table, column) = (r.str()?, r.str()?);
        let oids: Vec<u32> = r.ints()?;
        match tag {
            INSERT => {
                let values: Vec<i64> = r.ints()?;
                if values.len() != oids.len() {
                    return Err(StorageError::PersistFormat(format!(
                        "insert run of {} oids carries {} values",
                        oids.len(),
                        values.len()
                    )));
                }
                out.extend(
                    oids.into_iter()
                        .zip(values)
                        .map(|(oid, value)| WalRecord::Insert {
                            table: table.clone(),
                            column: column.clone(),
                            oid,
                            value,
                        }),
                );
            }
            DELETE => out.extend(oids.into_iter().map(|oid| WalRecord::Delete {
                table: table.clone(),
                column: column.clone(),
                oid,
            })),
            t => {
                return Err(StorageError::PersistFormat(format!("unknown run tag {t}")));
            }
        }
    }
    r.finish()
}

/// A non-durable log tail discarded by replay, described so callers (and
/// operators) can tell *what kind* of tail it was.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornTail {
    /// Bytes past the durable prefix (what repair truncates).
    pub bytes: usize,
    /// `false`: the final frame runs past the end of the file (or the
    /// rest is zero bytes) — unambiguously a torn append, the expected
    /// crash artifact. `true`: the final frame is complete but fails its
    /// checksum — still tolerated (an unluckily-ordered torn append looks
    /// like this), but also the shape genuine corruption of the last
    /// durable record (bit rot) would take, so it is worth an operator's
    /// attention.
    pub complete: bool,
    /// What was wrong with the discarded frame.
    pub detail: String,
}

/// An open, append-only redo log.
#[derive(Debug)]
pub struct RedoLog {
    path: PathBuf,
    file: File,
    /// Fsync once per this many appends (1 = every append durable).
    group_commit: usize,
    /// Appends since the last fsync.
    unsynced: usize,
    /// Total records appended through this handle.
    appended: u64,
    /// Crash-injection countdown over appends (test hook).
    crash_after: Option<u32>,
    /// Bytes acknowledged to callers (append returned `Ok`): the rollback
    /// point when a write or group-commit fsync fails mid-record.
    acked_len: u64,
    /// Set when a group-commit fsync failed: the reason, kept until
    /// [`rotate`](Self::rotate).
    poisoned: Option<String>,
    /// Deterministic I/O fault injection at the log's named boundaries.
    injector: FaultInjector,
    /// Retry policy for transient write faults (never fsync).
    retry: RetryPolicy,
}

impl RedoLog {
    /// Open `path` for appending, creating it if absent — the normal way
    /// to continue the log the current manifest names.
    pub fn open_append(path: impl Into<PathBuf>) -> StorageResult<Self> {
        let path = path.into();
        let mut injector = FaultInjector::new();
        let file = injector.open_append(fault::WAL_OPEN, &path)?;
        let acked_len = file
            .metadata()
            .map_err(|e| StorageError::PersistIo(e.to_string()))?
            .len();
        Ok(RedoLog {
            path,
            file,
            group_commit: 1,
            unsynced: 0,
            appended: 0,
            crash_after: None,
            acked_len,
            poisoned: None,
            injector,
            retry: RetryPolicy::default(),
        })
    }

    /// Set the group-commit interval: `sync` runs after every `every`-th
    /// append instead of every append. `every = 1` (the default) makes
    /// each append durable before returning; larger intervals trade the
    /// unsynced tail for throughput.
    pub fn with_group_commit(mut self, every: usize) -> Self {
        self.group_commit = every.max(1);
        self
    }

    /// The file this log appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Total records appended through this handle.
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Arm the crash-injection countdown: the `n`-th next append dies
    /// mid-write, leaving a torn final frame exactly as a crashing process
    /// would. Test hook.
    pub fn set_crash_after(&mut self, n: u32) {
        self.crash_after = Some(n);
    }

    /// The fault injector every file operation of this log flows
    /// through — arm error points here (see [`crate::fault`]).
    pub fn injector_mut(&mut self) -> &mut FaultInjector {
        &mut self.injector
    }

    /// Total faults injected into this log so far.
    pub fn faults_injected(&self) -> u64 {
        self.injector.injected()
    }

    /// Replace the retry policy for transient append-write faults.
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// The poison reason, when a failed group-commit fsync has poisoned
    /// the log (cleared only by [`rotate`](Self::rotate)).
    pub fn poisoned(&self) -> Option<&str> {
        self.poisoned.as_deref()
    }

    /// Append one record, fsyncing per the group-commit interval: a
    /// batch of one (see [`append_batch`](Self::append_batch)).
    pub fn append(&mut self, rec: &WalRecord) -> StorageResult<()> {
        self.append_batch(std::slice::from_ref(rec))
    }

    /// Append a batch of records as one atomic group: the batch becomes
    /// a single frame that lands in **one** retried write, so a failed
    /// append acknowledges *none* of it, and replay sees the whole frame
    /// or none of it — the write-ahead contract holds for the group
    /// exactly as for a single record. The group-commit fsync counter
    /// advances by the batch size (a batch of N counts as N appends
    /// toward the interval). Staging N rows therefore costs one write
    /// syscall plus at most one fsync instead of N of each.
    ///
    /// A transient write fault is retried under the log's
    /// [`RetryPolicy`], rolling the file back to the last acknowledged
    /// length first so a retried frame never concatenates onto its own
    /// torn half. A failed group-commit fsync is **not** retried: the
    /// frame is rolled back best-effort and the log is poisoned until
    /// rotation (see the module doc).
    pub fn append_batch(&mut self, recs: &[WalRecord]) -> StorageResult<()> {
        if recs.is_empty() {
            return Ok(());
        }
        if let Some(reason) = &self.poisoned {
            return Err(StorageError::WalPoisoned(reason.clone()));
        }
        let mut frame = Vec::new();
        let start = codec::begin_frame(&mut frame);
        encode_group(&mut frame, recs);
        codec::end_frame(&mut frame, start, FrameKind::Redo);
        if let Some(n) = self.crash_after.as_mut() {
            if *n == 0 {
                // Die mid-write: half the frame reaches the file, no
                // fsync of the rest.
                let half = &frame[..frame.len() / 2];
                let _ = self
                    .injector
                    .write_all(fault::WAL_APPEND_WRITE, &mut self.file, half);
                let _ = self.injector.sync_file(fault::WAL_APPEND_FSYNC, &self.file);
                return Err(StorageError::Persist(
                    "injected crash during log append".to_string(),
                ));
            }
            *n -= 1;
        }
        // Each write attempt first rolls the file back to the acked
        // prefix — a short write on attempt N must not leak a torn
        // half-frame under attempt N+1's bytes.
        let RedoLog {
            file,
            injector,
            retry,
            acked_len,
            ..
        } = self;
        retry.run(fault::WAL_APPEND_WRITE, || {
            injector.set_len(fault::WAL_APPEND_WRITE, file, *acked_len)?;
            injector.write_all(fault::WAL_APPEND_WRITE, file, &frame)
        })?;
        self.unsynced += recs.len();
        if self.unsynced >= self.group_commit {
            if let Err(e) = self.injector.sync_file(fault::WAL_APPEND_FSYNC, &self.file) {
                // fsyncgate: durability of everything since the last
                // successful sync is unknown. Roll back the frame we have
                // not acknowledged, refuse the append, and poison the log
                // so no later append can claim durability.
                // lint: allow(durability-io) — the rollback itself must not be injectable
                let _ = self.file.set_len(self.acked_len);
                self.poisoned = Some(e.to_string());
                return Err(e);
            }
            self.unsynced = 0;
        }
        self.acked_len += frame.len() as u64;
        self.appended += recs.len() as u64;
        Ok(())
    }

    /// Force everything appended so far to durable storage. Failure
    /// poisons the log (no rollback: the unsynced records were already
    /// acknowledged under the group-commit contract, so their loss is a
    /// crash-shaped event for recovery, not something to silently undo).
    pub fn sync(&mut self) -> StorageResult<()> {
        if let Some(reason) = &self.poisoned {
            return Err(StorageError::WalPoisoned(reason.clone()));
        }
        if let Err(e) = self.injector.sync_file(fault::WAL_APPEND_FSYNC, &self.file) {
            self.poisoned = Some(e.to_string());
            return Err(e);
        }
        self.unsynced = 0;
        Ok(())
    }

    /// Poison the log explicitly: every later append fails typed
    /// ([`StorageError::WalPoisoned`]) until [`rotate`](Self::rotate)
    /// succeeds. For callers that discover the open handle no longer
    /// matches the authoritative manifest (e.g. a checkpoint committed
    /// but the new epoch's log failed to open) — appending to a stale
    /// path would silently lose the records at recovery.
    pub fn poison(&mut self, reason: &str) {
        self.poisoned = Some(reason.to_owned());
    }

    /// Rotate to a fresh epoch file at `new_path`: open it for append,
    /// reset the acknowledged length, and clear any poison. This is the
    /// only way a poisoned log becomes usable again — the checkpoint
    /// commit that rotates the log has folded the overlay into durable
    /// payloads, so the poisoned epoch's unknown tail no longer matters.
    pub fn rotate(&mut self, new_path: impl Into<PathBuf>) -> StorageResult<()> {
        let path = new_path.into();
        let file = self.injector.open_append(fault::WAL_OPEN, &path)?;
        let acked_len = file
            .metadata()
            .map_err(|e| StorageError::PersistIo(e.to_string()))?
            .len();
        self.path = path;
        self.file = file;
        self.unsynced = 0;
        self.appended = 0;
        self.crash_after = None;
        self.acked_len = acked_len;
        self.poisoned = None;
        Ok(())
    }

    /// Read back every durable record of the log at `path`, in append
    /// order. A missing file is an empty log (the checkpoint that names a
    /// log creates it, but a crash can land between manifest read and log
    /// creation on foreign tools — absence is never corruption). A torn
    /// final frame is skipped; malformed content anywhere else is a loud
    /// [`StorageError::PersistFormat`] (see the module doc).
    pub fn replay(path: impl AsRef<Path>) -> StorageResult<Vec<WalRecord>> {
        let Some(bytes) = fault::read_bytes_opt(path.as_ref())? else {
            return Ok(Vec::new());
        };
        Ok(scan(&bytes)?.0)
    }

    /// Like [`replay`](Self::replay), but additionally truncate a torn
    /// tail off the file, so a recovered process can safely continue
    /// appending to the same log — without the repair, fresh appends
    /// would concatenate onto the partial frame and be refused as
    /// corruption *after* the tear. Repairing a complete final frame
    /// with a bad checksum (possible last-record corruption, see
    /// [`TornTail`]) is announced on stderr; use
    /// [`replay_and_repair_reporting`](Self::replay_and_repair_reporting)
    /// to receive the tail description instead.
    pub fn replay_and_repair(path: impl AsRef<Path>) -> StorageResult<Vec<WalRecord>> {
        Ok(Self::replay_and_repair_reporting(path)?.0)
    }

    /// [`replay_and_repair`](Self::replay_and_repair), returning a
    /// description of the discarded tail (if any) alongside the records.
    pub fn replay_and_repair_reporting(
        path: impl AsRef<Path>,
    ) -> StorageResult<(Vec<WalRecord>, Option<TornTail>)> {
        let path = path.as_ref();
        let Some(bytes) = fault::read_bytes_opt(path)? else {
            return Ok((Vec::new(), None));
        };
        let (out, durable_len, tail) = scan(&bytes)?;
        if durable_len < bytes.len() {
            if let Some(t) = tail.as_ref().filter(|t| t.complete) {
                eprintln!(
                    "wal: discarding a complete final frame that fails its \
                     checksum ({} bytes) in {path:?}: {} — treated as a torn \
                     append, but if this frame was durable it is lost data",
                    t.bytes, t.detail
                );
            }
            fault::truncate_file(path, durable_len as u64)?;
        }
        Ok((out, tail))
    }
}

/// Parse the durable prefix of a log: the records, the byte length of
/// the prefix they occupy (everything past it is a discarded tail), and a
/// description of that tail when one exists. The rules are the module
/// doc's "Torn tails". Each record owns its table and column names, so
/// the records take up to the names' length times the frame bytes; the
/// frames themselves are decoded within their own size.
fn scan(bytes: &[u8]) -> StorageResult<(Vec<WalRecord>, usize, Option<TornTail>)> {
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < bytes.len() {
        let rest = &bytes[pos..];
        let torn = |complete: bool, detail: &str| {
            Some(TornTail {
                bytes: rest.len(),
                complete,
                detail: detail.to_string(),
            })
        };
        let corrupt =
            |why: &str| StorageError::PersistFormat(format!("redo log frame at byte {pos}: {why}"));
        match codec::next_frame(rest, FrameKind::Redo) {
            Next::Frame { body, end } => {
                decode_group(body, &mut out).map_err(|e| corrupt(&e.to_string()))?;
                pos += end;
            }
            Next::Truncated => return Ok((out, pos, torn(false, "frame runs past the end"))),
            Next::Corrupt { .. } if rest.iter().all(|&b| b == 0) => {
                return Ok((out, pos, torn(false, "zero-filled tail")));
            }
            Next::Corrupt { why, end } if end == Some(rest.len()) => {
                return Ok((out, pos, torn(true, &format!("final frame: {why}"))));
            }
            Next::Corrupt { why, .. } => return Err(corrupt(&why)),
        }
    }
    Ok((out, pos, None))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultKind;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("dbcracker-wal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn rec_i(oid: u32, value: i64) -> WalRecord {
        WalRecord::Insert {
            table: "t".into(),
            column: "v".into(),
            oid,
            value,
        }
    }

    fn rec_d(oid: u32) -> WalRecord {
        WalRecord::Delete {
            table: "t".into(),
            column: "v".into(),
            oid,
        }
    }

    #[test]
    fn append_and_replay_roundtrip() {
        let path = tmp("roundtrip");
        let mut log = RedoLog::open_append(&path).unwrap();
        log.append(&rec_i(7, 42)).unwrap();
        log.append(&rec_d(3)).unwrap();
        log.append(&rec_i(8, -5)).unwrap();
        assert_eq!(log.appended(), 3);
        drop(log);
        let got = RedoLog::replay(&path).unwrap();
        assert_eq!(got, vec![rec_i(7, 42), rec_d(3), rec_i(8, -5)]);
        // Re-open appends, not truncates.
        let mut log = RedoLog::open_append(&path).unwrap();
        log.append(&rec_d(9)).unwrap();
        drop(log);
        assert_eq!(RedoLog::replay(&path).unwrap().len(), 4);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn missing_log_replays_empty() {
        assert!(RedoLog::replay("/nonexistent/dir/wal.1.log")
            .unwrap()
            .is_empty());
    }

    #[test]
    fn group_commit_interval_still_replays_everything_after_sync() {
        let path = tmp("group");
        let mut log = RedoLog::open_append(&path).unwrap().with_group_commit(8);
        for i in 0..20 {
            log.append(&rec_i(i, i as i64)).unwrap();
        }
        log.sync().unwrap();
        drop(log);
        assert_eq!(RedoLog::replay(&path).unwrap().len(), 20);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn torn_final_line_is_skipped_not_fatal() {
        let path = tmp("torn");
        let mut log = RedoLog::open_append(&path).unwrap();
        log.append(&rec_i(1, 10)).unwrap();
        log.append(&rec_i(2, 20)).unwrap();
        log.set_crash_after(0);
        assert!(log.append(&rec_i(3, 30)).is_err());
        drop(log);
        // The two durable records replay; the torn third is ignored.
        let got = RedoLog::replay(&path).unwrap();
        assert_eq!(got, vec![rec_i(1, 10), rec_i(2, 20)]);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn repair_truncates_torn_tail_so_appends_continue_safely() {
        let path = tmp("repair");
        let mut log = RedoLog::open_append(&path).unwrap();
        log.append(&rec_i(1, 10)).unwrap();
        log.set_crash_after(0);
        assert!(log.append(&rec_i(2, 20)).is_err());
        drop(log);
        // Recovery repairs the tear, then appending resumes cleanly.
        let got = RedoLog::replay_and_repair(&path).unwrap();
        assert_eq!(got, vec![rec_i(1, 10)]);
        let mut log = RedoLog::open_append(&path).unwrap();
        log.append(&rec_i(3, 30)).unwrap();
        drop(log);
        assert_eq!(
            RedoLog::replay(&path).unwrap(),
            vec![rec_i(1, 10), rec_i(3, 30)],
            "post-repair append must not merge into the torn frame"
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn crash_countdown_fires_on_the_nth_append() {
        let path = tmp("countdown");
        let mut log = RedoLog::open_append(&path).unwrap();
        log.set_crash_after(2);
        assert!(log.append(&rec_i(1, 1)).is_ok());
        assert!(log.append(&rec_i(2, 2)).is_ok());
        assert!(log.append(&rec_i(3, 3)).is_err());
        drop(log);
        assert_eq!(RedoLog::replay(&path).unwrap().len(), 2);
        std::fs::remove_file(path).ok();
    }

    /// The bytes of a log holding one frame per batch in `batches`.
    fn log_bytes(name: &str, batches: &[Vec<WalRecord>]) -> Vec<u8> {
        let path = tmp(name);
        let mut log = RedoLog::open_append(&path).unwrap();
        for b in batches {
            log.append_batch(b).unwrap();
        }
        drop(log);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(path).ok();
        bytes
    }

    #[test]
    fn torn_tail_shapes_are_distinguished_and_reported() {
        // A crash-torn tail: the final frame runs past the end of the file.
        let path = tmp("tail-torn");
        let mut log = RedoLog::open_append(&path).unwrap();
        log.append(&rec_i(1, 10)).unwrap();
        log.set_crash_after(0);
        assert!(log.append(&rec_i(2, 20)).is_err());
        drop(log);
        let (got, tail) = RedoLog::replay_and_repair_reporting(&path).unwrap();
        assert_eq!(got, vec![rec_i(1, 10)]);
        let tail = tail.expect("torn tail must be reported");
        assert!(!tail.complete);
        assert!(tail.bytes > 0);
        std::fs::remove_file(&path).ok();

        // A complete final frame that fails its checksum is tolerated
        // too, but reported as the possibly-corrupt shape, with the
        // dropped byte count and what was wrong.
        let path = tmp("tail-corrupt");
        let mut log = RedoLog::open_append(&path).unwrap();
        log.append(&rec_i(1, 10)).unwrap();
        log.append(&rec_i(2, 20)).unwrap();
        drop(log);
        let mut bytes = std::fs::read(&path).unwrap();
        let durable = log_bytes("tail-corrupt-prefix", &[vec![rec_i(1, 10)]]).len();
        let body_byte = durable + codec::HEADER_LEN + 2;
        bytes[body_byte] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let (got, tail) = RedoLog::replay_and_repair_reporting(&path).unwrap();
        assert_eq!(got, vec![rec_i(1, 10)]);
        let tail = tail.expect("a checksum-failing final frame must be reported");
        assert!(tail.complete);
        assert_eq!(tail.bytes, bytes.len() - durable);
        assert!(tail.detail.contains("checksum"), "{}", tail.detail);
        // Repair truncated exactly to the durable prefix.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), durable as u64);
        std::fs::remove_file(&path).ok();

        // A fully durable log reports no tail.
        let path = tmp("tail-clean");
        let mut log = RedoLog::open_append(&path).unwrap();
        log.append(&rec_i(1, 10)).unwrap();
        drop(log);
        let (_, tail) = RedoLog::replay_and_repair_reporting(&path).unwrap();
        assert!(tail.is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corruption_before_the_end_is_loud() {
        let path = tmp("corrupt");
        let mut log = RedoLog::open_append(&path).unwrap();
        log.append(&rec_i(1, 10)).unwrap();
        drop(log);
        // Splice garbage *between* two valid frames.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"garbage, not a frame");
        std::fs::write(&path, &bytes).unwrap();
        let mut log = RedoLog::open_append(&path).unwrap();
        log.append(&rec_i(2, 20)).unwrap();
        drop(log);
        assert!(matches!(
            RedoLog::replay(&path).unwrap_err(),
            StorageError::PersistFormat(_)
        ));
        // A flipped bit in a frame that has another after it fails its
        // checksum, and that is corruption, not a torn tail.
        let mut bytes = log_bytes("corrupt-flip", &[vec![rec_i(1, 10)], vec![rec_i(2, 20)]]);
        bytes[codec::HEADER_LEN + 1] ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        let err = RedoLog::replay(&path).unwrap_err();
        assert!(
            matches!(&err, StorageError::PersistFormat(m) if m.contains("checksum")),
            "{err}"
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn failed_group_commit_fsync_poisons_until_rotation() {
        // The satellite regression: append → injected fsync failure →
        // every later append must fail typed until `rotate`, and the
        // un-acknowledged record must not survive in the file.
        let path = tmp("poison");
        let mut log = RedoLog::open_append(&path).unwrap();
        log.append(&rec_i(1, 10)).unwrap();
        log.injector_mut()
            .arm(fault::WAL_APPEND_FSYNC, 0, FaultKind::FsyncFail, 1);
        let err = log.append(&rec_i(2, 20)).unwrap_err();
        assert!(err.is_transient(), "the fsync fault itself is I/O-shaped");
        assert!(log.poisoned().is_some(), "log must be poisoned");
        // Later appends are refused with the typed poison error even
        // though nothing is armed any more.
        let err = log.append(&rec_i(3, 30)).unwrap_err();
        assert!(
            matches!(err, StorageError::WalPoisoned(_)),
            "got {err} instead of WalPoisoned"
        );
        assert!(matches!(
            log.sync().unwrap_err(),
            StorageError::WalPoisoned(_)
        ));
        // Only the acknowledged record is in the file.
        assert_eq!(RedoLog::replay(&path).unwrap(), vec![rec_i(1, 10)]);
        // Rotation to a fresh epoch file clears the poison.
        let path2 = tmp("poison-rotated");
        log.rotate(&path2).unwrap();
        assert!(log.poisoned().is_none());
        log.append(&rec_i(4, 40)).unwrap();
        drop(log);
        assert_eq!(RedoLog::replay(&path2).unwrap(), vec![rec_i(4, 40)]);
        assert_eq!(
            RedoLog::replay(&path).unwrap(),
            vec![rec_i(1, 10)],
            "the poisoned epoch keeps only its acknowledged prefix"
        );
        std::fs::remove_file(path).ok();
        std::fs::remove_file(path2).ok();
    }

    #[test]
    fn transient_write_fault_is_retried_to_success() {
        let path = tmp("retry");
        let mut log = RedoLog::open_append(&path).unwrap();
        log.set_retry_policy(RetryPolicy::new(3, std::time::Duration::ZERO));
        log.append(&rec_i(1, 10)).unwrap();
        // Two consecutive short writes, then the device recovers: the
        // append must succeed and the torn halves must not leak into the
        // record stream.
        log.injector_mut()
            .arm(fault::WAL_APPEND_WRITE, 0, FaultKind::ShortWrite, 2);
        log.append(&rec_i(2, 20)).unwrap();
        assert_eq!(log.faults_injected(), 2);
        drop(log);
        assert_eq!(
            RedoLog::replay(&path).unwrap(),
            vec![rec_i(1, 10), rec_i(2, 20)],
            "retried append must leave a clean record stream"
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn exhausted_retries_surface_the_typed_error_and_keep_the_log_clean() {
        let path = tmp("exhaust");
        let mut log = RedoLog::open_append(&path).unwrap();
        log.set_retry_policy(RetryPolicy::new(1, std::time::Duration::ZERO));
        log.append(&rec_i(1, 10)).unwrap();
        log.injector_mut()
            .arm(fault::WAL_APPEND_WRITE, 0, FaultKind::ShortWrite, 5);
        let err = log.append(&rec_i(2, 20)).unwrap_err();
        assert!(err.is_transient());
        assert!(log.poisoned().is_none(), "write faults do not poison");
        log.injector_mut().disarm_all();
        // The failed record's torn half was rolled back on the retry
        // path, so the next append continues a clean stream.
        log.append(&rec_i(3, 30)).unwrap();
        drop(log);
        let got = RedoLog::replay_and_repair(&path).unwrap();
        assert_eq!(got, vec![rec_i(1, 10), rec_i(3, 30)]);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn hard_enospc_propagates_without_retry() {
        let path = tmp("enospc");
        let mut log = RedoLog::open_append(&path).unwrap();
        log.set_retry_policy(RetryPolicy::new(5, std::time::Duration::ZERO));
        log.injector_mut()
            .arm(fault::WAL_APPEND_WRITE, 0, FaultKind::Enospc, 1);
        let err = log.append(&rec_i(1, 1)).unwrap_err();
        assert!(matches!(err, StorageError::DiskFull(_)));
        assert_eq!(log.faults_injected(), 1, "hard faults are not retried");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn zero_filled_tail_is_a_torn_append() {
        // A crash can persist a file's new length before its data: the
        // tail then reads as zeros, and no record in it was acknowledged.
        let path = tmp("zeros");
        let mut bytes = log_bytes("zeros-prefix", &[vec![rec_i(1, 10)]]);
        let durable = bytes.len();
        bytes.resize(durable + 100, 0);
        std::fs::write(&path, &bytes).unwrap();
        let (got, tail) = RedoLog::replay_and_repair_reporting(&path).unwrap();
        assert_eq!(got, vec![rec_i(1, 10)]);
        assert!(!tail.expect("zeros are a torn tail").complete);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), durable as u64);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn a_mixed_batch_is_one_frame_and_replays_in_order() {
        let other = |oid| WalRecord::Insert {
            table: "u".into(),
            column: "w".into(),
            oid,
            value: -7,
        };
        let batch = vec![rec_i(1, 10), rec_i(2, 20), rec_d(1), other(5), rec_i(3, 30)];
        let bytes = log_bytes("mixed", std::slice::from_ref(&batch));
        let Next::Frame { end, .. } = codec::next_frame(&bytes, FrameKind::Redo) else {
            panic!("one valid frame");
        };
        assert_eq!(end, bytes.len(), "the whole batch is one frame");
        assert_eq!(scan(&bytes).unwrap().0, batch);
    }

    #[test]
    fn a_staged_batch_of_32_rows_takes_247_bytes() {
        // Dense OIDs pack into one byte each, values under 2^32 into four;
        // the rest is the frame (26), the run count (8), the tag (1), the
        // two names (9 + 9) and the two array heads (17 + 17).
        let batch: Vec<WalRecord> = (0..32)
            .map(|i| rec_i(1_000_000 + i, i64::from(i) * 31_337))
            .collect();
        let bytes = log_bytes("compact", &[batch]);
        assert_eq!(bytes.len(), 26 + 8 + 1 + 18 + 17 + 32 + 17 + 4 * 32);
    }

    #[test]
    fn scan_is_total_over_truncations_and_bit_flips() {
        let batches = vec![
            vec![rec_i(1, 10), rec_i(2, 20)],
            vec![rec_d(1)],
            vec![rec_i(3, -30)],
        ];
        let bytes = log_bytes("total", &batches);
        let all: Vec<WalRecord> = batches.concat();
        // Frame ends, so each truncation's durable prefix is known.
        let mut ends = vec![0];
        let mut pos = 0;
        while let Next::Frame { end, .. } = codec::next_frame(&bytes[pos..], FrameKind::Redo) {
            pos += end;
            ends.push(pos);
        }
        assert_eq!(pos, bytes.len());
        for cut in 0..=bytes.len() {
            let (recs, durable, tail) = scan(&bytes[..cut]).unwrap();
            let frames = ends.iter().rposition(|&e| e <= cut).unwrap();
            assert_eq!(durable, ends[frames], "cut {cut}");
            let kept: usize = batches[..frames].iter().map(Vec::len).sum();
            assert_eq!(recs, all[..kept], "cut {cut}");
            assert_eq!(tail.is_some(), durable < cut, "cut {cut}");
        }
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            // A flip in the last frame leaves it complete but failing a
            // check: the ambiguous tail. Unless it hits the length field,
            // which then no longer ends at the end of the file.
            let last = ends[ends.len() - 2];
            let byte = bit / 8;
            let tolerated = byte >= last && !(last + 6..last + 14).contains(&byte);
            match scan(&flipped) {
                Ok((recs, _, tail)) => {
                    assert!(tolerated, "bit {bit} accepted");
                    assert!(tail.expect("the flipped frame is the tail").complete);
                    assert_eq!(recs, all[..all.len() - 1], "bit {bit}");
                }
                Err(e) => assert!(
                    !tolerated && matches!(e, StorageError::PersistFormat(_)),
                    "bit {bit}: {e}"
                ),
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn scan_of_arbitrary_bytes_is_a_typed_error_or_a_torn_tail(
            junk in proptest::collection::vec(0u8..=255, 0..128),
            keep in 0usize..2,
        ) {
            // Arbitrary bytes, alone or after a valid frame.
            let mut bytes = if keep == 1 {
                log_bytes("junk-prefix", &[vec![rec_i(1, 10)]])
            } else {
                Vec::new()
            };
            bytes.extend_from_slice(&junk);
            match scan(&bytes) {
                Ok((recs, _, tail)) => {
                    proptest::prop_assert!(recs.len() <= keep);
                    proptest::prop_assert!(tail.is_some() || junk.is_empty());
                }
                Err(e) => proptest::prop_assert!(matches!(e, StorageError::PersistFormat(_))),
            }
        }
    }
}
