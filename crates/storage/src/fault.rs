//! Deterministic I/O fault injection and retry for the durability layer
//! (`ROBUSTNESS.md` at the repository root documents the fault model).
//!
//! Every file operation [`crate::checkpoint`] and [`crate::wal`] perform
//! flows through this module — either through a [`FaultInjector`] method
//! naming the **fault point** being crossed, or through one of the plain
//! helpers below for the read/recovery side. Centralizing the I/O buys
//! two things at once:
//!
//! * **Error-point arming.** PR 8's crash countdown proved recovery by
//!   killing the process at every write boundary. The injector extends
//!   that idiom to *non-fatal* faults: at any named point a test can arm
//!   an EIO, an ENOSPC, a short write (a prefix lands, then the write
//!   fails) or a failed fsync — deterministically, with a countdown and
//!   a fire budget, so a "transient" fault that fails twice and then
//!   succeeds is one `arm` call. An `analysis` lint rule keeps the
//!   facade mandatory: direct `std::fs` use in the durability modules is
//!   a lint error (see `crates/analysis/src/lint.rs`, rule
//!   `durability-io`).
//!
//! * **One retry policy.** [`RetryPolicy`] retries *transient* failures
//!   ([`StorageError::is_transient`]) with bounded exponential backoff
//!   and seeded jitter, and propagates hard ones (ENOSPC, corruption,
//!   poison) untouched. Callers retry whole idempotent sequences — e.g.
//!   a checkpoint payload recreates its temp file from scratch on every
//!   attempt — never a bare fsync, whose failure semantics (dirty pages
//!   possibly dropped) make blind retry a lie; see
//!   [`crate::wal::RedoLog`]'s poison-until-rotation rule.
//!
//! Injected faults are indistinguishable from real ones to the caller:
//! they surface as the same [`StorageError`] variants real I/O maps to
//! (EIO/short write → [`StorageError::PersistIo`], ENOSPC →
//! [`StorageError::DiskFull`]), so every retry/poison/propagation path
//! tested under injection is the path a real fault takes.

use crate::error::{StorageError, StorageResult};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;
use std::time::Duration;

/// Checkpoint payload: temp-file creation.
pub const CKPT_PAYLOAD_CREATE: &str = "ckpt.payload.create";
/// Checkpoint payload: writing the serialized bytes.
pub const CKPT_PAYLOAD_WRITE: &str = "ckpt.payload.write";
/// Checkpoint payload: fsync of the temp file.
pub const CKPT_PAYLOAD_FSYNC: &str = "ckpt.payload.fsync";
/// Checkpoint payload: rename of temp file into place.
pub const CKPT_PAYLOAD_RENAME: &str = "ckpt.payload.rename";
/// Checkpoint commit: creation of the new epoch's empty redo log.
pub const CKPT_LOG_CREATE: &str = "ckpt.log.create";
/// Checkpoint commit: fsync of the new epoch's redo log.
pub const CKPT_LOG_FSYNC: &str = "ckpt.log.fsync";
/// Checkpoint commit: manifest temp-file creation.
pub const CKPT_MANIFEST_CREATE: &str = "ckpt.manifest.create";
/// Checkpoint commit: writing the manifest bytes.
pub const CKPT_MANIFEST_WRITE: &str = "ckpt.manifest.write";
/// Checkpoint commit: fsync of the manifest temp file.
pub const CKPT_MANIFEST_FSYNC: &str = "ckpt.manifest.fsync";
/// Checkpoint commit: the manifest rename — the commit point itself.
pub const CKPT_MANIFEST_RENAME: &str = "ckpt.manifest.rename";
/// Checkpoint commit: directory fsync after the manifest rename.
pub const CKPT_DIR_FSYNC: &str = "ckpt.dir.fsync";
/// Redo log: opening the log file for append.
pub const WAL_OPEN: &str = "wal.open";
/// Redo log: writing one appended record.
pub const WAL_APPEND_WRITE: &str = "wal.append.write";
/// Redo log: the group-commit fsync (failure poisons the log).
pub const WAL_APPEND_FSYNC: &str = "wal.append.fsync";

/// Every armable fault point, for exhaustive chaos sweeps
/// (`tests/chaos_oracle.rs` iterates this list).
pub const ALL_POINTS: &[&str] = &[
    CKPT_PAYLOAD_CREATE,
    CKPT_PAYLOAD_WRITE,
    CKPT_PAYLOAD_FSYNC,
    CKPT_PAYLOAD_RENAME,
    CKPT_LOG_CREATE,
    CKPT_LOG_FSYNC,
    CKPT_MANIFEST_CREATE,
    CKPT_MANIFEST_WRITE,
    CKPT_MANIFEST_FSYNC,
    CKPT_MANIFEST_RENAME,
    CKPT_DIR_FSYNC,
    WAL_OPEN,
    WAL_APPEND_WRITE,
    WAL_APPEND_FSYNC,
];

/// The kind of fault an armed point injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A generic I/O error: the operation fails without side effects.
    /// Surfaces as [`StorageError::PersistIo`] — transient, retried.
    Eio,
    /// Out of space: a write lands a prefix (the device filled mid-write)
    /// and fails. Surfaces as [`StorageError::DiskFull`] — hard, never
    /// retried.
    Enospc,
    /// A short write: a prefix of the bytes lands, then the write fails —
    /// the torn-artifact shape. Surfaces as [`StorageError::PersistIo`] —
    /// transient; retrying an idempotent sequence recreates the file.
    ShortWrite,
    /// A failed fsync: the data may or may not be durable (the kernel may
    /// have dropped the dirty pages). Surfaces as
    /// [`StorageError::PersistIo`]; the WAL reacts by poisoning itself
    /// until rotation rather than retrying (fsyncgate).
    FsyncFail,
}

/// One armed fault: fires `fires` consecutive times at `point` after
/// `after` unharmed crossings.
#[derive(Debug, Clone)]
struct Armed {
    point: String,
    after: u32,
    kind: FaultKind,
    fires: u32,
}

/// A deterministic fault injector: a set of armed `(point, countdown,
/// kind, fire budget)` entries consulted at every named boundary. With
/// nothing armed every operation is a plain passthrough to `std::fs`.
#[derive(Debug, Default)]
pub struct FaultInjector {
    armed: Vec<Armed>,
    injected: u64,
}

impl FaultInjector {
    /// An inert injector (nothing armed).
    pub fn new() -> Self {
        Self::default()
    }

    /// Arm `kind` at `point`: the first `after` crossings of the point
    /// pass unharmed, then the next `fires` crossings fail. `fires > 1`
    /// models a fault that outlasts one retry; an exhausted entry is
    /// dropped, so the `fires + 1`-th crossing succeeds — the transient
    /// shape a [`RetryPolicy`] recovers from.
    pub fn arm(&mut self, point: &str, after: u32, kind: FaultKind, fires: u32) {
        self.armed.push(Armed {
            point: point.to_string(),
            after,
            kind,
            fires: fires.max(1),
        });
    }

    /// Disarm everything.
    pub fn disarm_all(&mut self) {
        self.armed.clear();
    }

    /// Total faults injected through this injector.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// True when at least one entry is still armed.
    pub fn is_armed(&self) -> bool {
        !self.armed.is_empty()
    }

    /// Consult the armed entries for a crossing of `point`.
    fn fault_at(&mut self, point: &str) -> Option<FaultKind> {
        for a in self.armed.iter_mut() {
            if a.point != point {
                continue;
            }
            if a.after > 0 {
                a.after -= 1;
                continue;
            }
            a.fires -= 1;
            let kind = a.kind;
            if a.fires == 0 {
                self.armed.retain(|e| !(e.fires == 0 && e.after == 0));
            }
            self.injected += 1;
            return Some(kind);
        }
        None
    }

    /// Create (truncating) `path`, crossing `point`.
    pub fn create(&mut self, point: &str, path: &Path) -> StorageResult<File> {
        match self.fault_at(point) {
            Some(FaultKind::Enospc) => Err(enospc(point)),
            Some(_) => Err(eio(point)),
            None => File::create(path).map_err(|e| map_io(point, &e)),
        }
    }

    /// Open `path` in create-append mode, crossing `point`.
    pub fn open_append(&mut self, point: &str, path: &Path) -> StorageResult<File> {
        match self.fault_at(point) {
            Some(FaultKind::Enospc) => Err(enospc(point)),
            Some(_) => Err(eio(point)),
            None => OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| map_io(point, &e)),
        }
    }

    /// Write all of `bytes` to `file`, crossing `point`. A short-write or
    /// ENOSPC fault lands the first half of the bytes before failing —
    /// the torn artifact a real mid-write fault leaves.
    pub fn write_all(&mut self, point: &str, file: &mut File, bytes: &[u8]) -> StorageResult<()> {
        match self.fault_at(point) {
            Some(FaultKind::Eio) => Err(eio(point)),
            Some(FaultKind::FsyncFail) => Err(eio(point)),
            Some(FaultKind::ShortWrite) => {
                let _ = file.write_all(&bytes[..bytes.len() / 2]);
                Err(StorageError::PersistIo(format!(
                    "injected short write at {point}"
                )))
            }
            Some(FaultKind::Enospc) => {
                let _ = file.write_all(&bytes[..bytes.len() / 2]);
                Err(enospc(point))
            }
            None => file.write_all(bytes).map_err(|e| map_io(point, &e)),
        }
    }

    /// Fsync `file`, crossing `point`. On an injected fault the fsync is
    /// *skipped* — the data's durability is genuinely unknown, exactly
    /// the state a real failed fsync leaves.
    pub fn sync_file(&mut self, point: &str, file: &File) -> StorageResult<()> {
        match self.fault_at(point) {
            Some(FaultKind::Enospc) => Err(enospc(point)),
            Some(_) => Err(StorageError::PersistIo(format!(
                "injected failed fsync at {point}"
            ))),
            None => file.sync_all().map_err(|e| map_io(point, &e)),
        }
    }

    /// Rename `from` to `to`, crossing `point`.
    pub fn rename(&mut self, point: &str, from: &Path, to: &Path) -> StorageResult<()> {
        match self.fault_at(point) {
            Some(FaultKind::Enospc) => Err(enospc(point)),
            Some(_) => Err(eio(point)),
            None => std::fs::rename(from, to).map_err(|e| map_io(point, &e)),
        }
    }

    /// Fsync directory `dir` so a just-renamed entry is durable (no-op
    /// off Unix), crossing `point`.
    pub fn sync_dir(&mut self, point: &str, dir: &Path) -> StorageResult<()> {
        match self.fault_at(point) {
            Some(FaultKind::Enospc) => Err(enospc(point)),
            Some(_) => Err(StorageError::PersistIo(format!(
                "injected failed fsync at {point}"
            ))),
            None => {
                #[cfg(unix)]
                {
                    let d = File::open(dir).map_err(|e| map_io(point, &e))?;
                    d.sync_all().map_err(|e| map_io(point, &e))?;
                }
                #[cfg(not(unix))]
                let _ = dir;
                Ok(())
            }
        }
    }

    /// Truncate `file` to `len` bytes, crossing `point`.
    pub fn set_len(&mut self, point: &str, file: &File, len: u64) -> StorageResult<()> {
        match self.fault_at(point) {
            Some(FaultKind::Enospc) => Err(enospc(point)),
            Some(_) => Err(eio(point)),
            None => file.set_len(len).map_err(|e| map_io(point, &e)),
        }
    }
}

fn eio(point: &str) -> StorageError {
    StorageError::PersistIo(format!("injected EIO at {point}"))
}

fn enospc(point: &str) -> StorageError {
    StorageError::DiskFull(format!("injected ENOSPC at {point}"))
}

/// Map a real `std::io::Error` at `point` to the taxonomy: ENOSPC is
/// typed [`StorageError::DiskFull`] (hard, never retried), everything
/// else [`StorageError::PersistIo`] (transient, retried).
pub fn map_io(point: &str, e: &std::io::Error) -> StorageError {
    if e.raw_os_error() == Some(libc_enospc()) {
        StorageError::DiskFull(format!("{point}: {e}"))
    } else {
        StorageError::PersistIo(format!("{point}: {e}"))
    }
}

/// ENOSPC without a libc dependency (28 on Linux and every BSD/macOS).
const fn libc_enospc() -> i32 {
    28
}

// ---------------------------------------------------------------------
// Plain helpers: the read/recovery side of the durability layer. Not
// fault points (the chaos suite probes the *write* boundaries), but
// still the single place durability file I/O lives, so the lint facade
// stays airtight.
// ---------------------------------------------------------------------

/// Read `path` to bytes, mapping absence to `None`.
pub fn read_bytes_opt(path: &Path) -> StorageResult<Option<Vec<u8>>> {
    match std::fs::read(path) {
        Ok(bytes) => Ok(Some(bytes)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(StorageError::PersistIo(e.to_string())),
    }
}

/// Read `path` to a string; absence is an error, described via `what`.
pub fn read_to_string(what: &str, path: &Path) -> StorageResult<String> {
    std::fs::read_to_string(path).map_err(|e| StorageError::PersistIo(format!("{what}: {e}")))
}

/// Create `dir` and any missing parents.
pub fn create_dir_all(dir: &Path) -> StorageResult<()> {
    std::fs::create_dir_all(dir).map_err(|e| map_io("create_dir", &e))
}

/// Remove `path`, ignoring failure (GC is best-effort: an orphan costs
/// disk, not correctness).
pub fn remove_file_quiet(path: &Path) {
    let _ = std::fs::remove_file(path);
}

/// The file names in `dir` with their paths (unreadable dir → empty).
pub fn dir_entries(dir: &Path) -> Vec<(String, std::path::PathBuf)> {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    rd.flatten()
        .map(|e| (e.file_name().to_string_lossy().into_owned(), e.path()))
        .collect()
}

/// Open `path` write-only and truncate it to `len` — the torn-tail
/// repair primitive ([`crate::wal::RedoLog::replay_and_repair`]).
pub fn truncate_file(path: &Path, len: u64) -> StorageResult<()> {
    let io = |e: std::io::Error| StorageError::PersistIo(e.to_string());
    let file = OpenOptions::new().write(true).open(path).map_err(io)?;
    file.set_len(len).map_err(io)?;
    file.sync_all().map_err(io)?;
    Ok(())
}

/// The sibling temp path atomic writes stage through: `<file>.tmp` in
/// the same directory (same filesystem, so the rename is atomic).
pub fn sibling_tmp_path(path: &Path) -> std::path::PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

// ---------------------------------------------------------------------
// Retry policy
// ---------------------------------------------------------------------

/// Bounded retry with exponential backoff and seeded jitter for
/// *transient* storage faults. Hard faults (ENOSPC, corruption, poison)
/// propagate on first occurrence; transient ones are retried up to
/// `max_retries` times, sleeping `base · 2^attempt + jitter` between
/// attempts, where the jitter is a deterministic hash of `(seed, op,
/// attempt)` — two runs with the same seed back off identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    max_retries: u32,
    base_backoff: Duration,
    seed: u64,
}

impl RetryPolicy {
    /// No retries: every failure propagates immediately.
    pub const fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            base_backoff: Duration::from_millis(0),
            seed: 0,
        }
    }

    /// Retry up to `max_retries` times with `base_backoff` doubling per
    /// attempt (seed 0; see [`with_seed`](Self::with_seed)).
    pub const fn new(max_retries: u32, base_backoff: Duration) -> Self {
        RetryPolicy {
            max_retries,
            base_backoff,
            seed: 0,
        }
    }

    /// Derive the jitter stream from `seed`.
    pub const fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Maximum retry count.
    pub fn max_retries(&self) -> u32 {
        self.max_retries
    }

    /// The backoff before retry number `attempt` (1-based) of `op`:
    /// exponential in the attempt, plus up to one `base_backoff` of
    /// seeded jitter so retry storms decorrelate.
    pub fn backoff(&self, op: &str, attempt: u32) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << attempt.min(16).saturating_sub(1));
        let base_ns = self.base_backoff.as_nanos() as u64;
        if base_ns == 0 {
            return exp;
        }
        // FNV-1a over (seed, op, attempt): deterministic jitter.
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ self.seed;
        for b in op.as_bytes().iter().chain(&attempt.to_le_bytes()) {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        exp + Duration::from_nanos(h % base_ns)
    }

    /// Run `f`, retrying transient failures per the policy. `f` must be
    /// idempotent-as-a-sequence: each attempt restarts the operation from
    /// scratch (the durability callers recreate temp files / roll back
    /// torn tails before rewriting). Non-transient errors propagate
    /// untouched on first occurrence.
    pub fn run<T>(&self, op: &str, mut f: impl FnMut() -> StorageResult<T>) -> StorageResult<T> {
        let mut attempt = 0u32;
        loop {
            match f() {
                Ok(v) => return Ok(v),
                Err(e) if e.is_transient() && attempt < self.max_retries => {
                    attempt += 1;
                    let pause = self.backoff(op, attempt);
                    if !pause.is_zero() {
                        std::thread::sleep(pause);
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl Default for RetryPolicy {
    /// Three retries over a sub-millisecond base: enough to absorb a
    /// blip, cheap enough for tests.
    fn default() -> Self {
        RetryPolicy::new(3, Duration::from_micros(200))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("dbcracker-fault-{name}-{}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn unarmed_injector_is_a_passthrough() {
        let mut inj = FaultInjector::new();
        let path = tmp("pass");
        let mut f = inj.create("ckpt.payload.create", &path).unwrap();
        inj.write_all("ckpt.payload.write", &mut f, b"hello")
            .unwrap();
        inj.sync_file("ckpt.payload.fsync", &f).unwrap();
        drop(f);
        assert_eq!(std::fs::read(&path).unwrap(), b"hello");
        assert_eq!(inj.injected(), 0);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn countdown_and_fire_budget_are_honored() {
        let mut inj = FaultInjector::new();
        // Skip 2 crossings, then fail twice, then pass again.
        inj.arm(WAL_APPEND_WRITE, 2, FaultKind::Eio, 2);
        let path = tmp("budget");
        let mut f = inj.create("x", &path).unwrap();
        assert!(inj.write_all(WAL_APPEND_WRITE, &mut f, b"a").is_ok());
        assert!(inj.write_all(WAL_APPEND_WRITE, &mut f, b"b").is_ok());
        let e1 = inj.write_all(WAL_APPEND_WRITE, &mut f, b"c").unwrap_err();
        assert!(e1.is_transient(), "EIO must classify transient: {e1}");
        assert!(inj.write_all(WAL_APPEND_WRITE, &mut f, b"d").is_err());
        assert!(inj.write_all(WAL_APPEND_WRITE, &mut f, b"e").is_ok());
        assert_eq!(inj.injected(), 2);
        assert!(!inj.is_armed(), "exhausted entries are dropped");
        drop(f);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn short_write_lands_a_torn_prefix() {
        let mut inj = FaultInjector::new();
        inj.arm(CKPT_PAYLOAD_WRITE, 0, FaultKind::ShortWrite, 1);
        let path = tmp("short");
        let mut f = inj.create("x", &path).unwrap();
        let err = inj
            .write_all(CKPT_PAYLOAD_WRITE, &mut f, b"0123456789")
            .unwrap_err();
        assert!(err.is_transient());
        drop(f);
        assert_eq!(std::fs::read(&path).unwrap(), b"01234", "half landed");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn enospc_is_hard_not_transient() {
        let mut inj = FaultInjector::new();
        inj.arm(CKPT_PAYLOAD_WRITE, 0, FaultKind::Enospc, 1);
        let path = tmp("enospc");
        let mut f = inj.create("x", &path).unwrap();
        let err = inj
            .write_all(CKPT_PAYLOAD_WRITE, &mut f, b"xx")
            .unwrap_err();
        assert!(matches!(err, StorageError::DiskFull(_)));
        assert!(!err.is_transient());
        drop(f);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn retry_policy_recovers_transient_and_propagates_hard() {
        let policy = RetryPolicy::new(3, Duration::ZERO).with_seed(7);
        // Fails twice transiently, then succeeds.
        let mut left = 2;
        let got = policy.run("op", || {
            if left > 0 {
                left -= 1;
                Err(StorageError::PersistIo("blip".into()))
            } else {
                Ok(42)
            }
        });
        assert_eq!(got.unwrap(), 42);
        // A hard error propagates on the first attempt.
        let mut calls = 0;
        let got: StorageResult<()> = policy.run("op", || {
            calls += 1;
            Err(StorageError::DiskFull("full".into()))
        });
        assert!(matches!(got.unwrap_err(), StorageError::DiskFull(_)));
        assert_eq!(calls, 1, "hard faults are never retried");
        // A persistent transient fault exhausts the budget.
        let mut calls = 0;
        let got: StorageResult<()> = policy.run("op", || {
            calls += 1;
            Err(StorageError::PersistIo("still down".into()))
        });
        assert!(got.is_err());
        assert_eq!(calls, 4, "initial attempt + 3 retries");
    }

    #[test]
    fn backoff_is_exponential_and_seed_deterministic() {
        let p = RetryPolicy::new(5, Duration::from_micros(100)).with_seed(9);
        let b1 = p.backoff("op", 1);
        let b2 = p.backoff("op", 2);
        let b3 = p.backoff("op", 3);
        assert!(
            b2 > b1 && b3 > b2,
            "backoff must grow: {b1:?} {b2:?} {b3:?}"
        );
        let q = RetryPolicy::new(5, Duration::from_micros(100)).with_seed(9);
        assert_eq!(b2, q.backoff("op", 2), "same seed, same jitter");
        let r = RetryPolicy::new(5, Duration::from_micros(100)).with_seed(10);
        assert_ne!(b2, r.backoff("op", 2), "different seed, different jitter");
    }

    #[test]
    fn every_point_constant_is_listed_once() {
        let mut seen = std::collections::HashSet::new();
        for p in ALL_POINTS {
            assert!(seen.insert(*p), "{p} listed twice");
        }
        assert_eq!(seen.len(), 14);
    }
}
