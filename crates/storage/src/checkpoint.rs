//! Atomic incremental checkpoints — the durable half of the crash-safety
//! story (`PERSISTENCE.md` at the repository root documents the format;
//! [`crate::wal`] is the other half).
//!
//! A [`CheckpointStore`] owns a directory. Each checkpoint writes one
//! payload file per logical key plus a `MANIFEST.json` naming them; the
//! manifest is the *only* commit point. A payload file is one checksummed
//! [`crate::codec`] frame whose body the caller encodes; the manifest is
//! the store's own small JSON commit record. Every file lands via the same
//! protocol: write a sibling temp file, fsync, rename into place,
//! fsync the directory — so at any crash instant the directory contains
//! either the previous complete checkpoint or the new one, never a torn
//! mixture. Payloads are written under epoch-stamped names and the old
//! manifest keeps referencing the old epoch's files until the new
//! manifest's rename lands, which is what makes the rename atomic *and*
//! incremental at once.
//!
//! **Dirty tracking:** callers pass an opaque fingerprint with each
//! payload, and an encoder that writes its body. When the previous
//! manifest recorded the same fingerprint for the same key, the old
//! payload file is carried forward by reference and the encoder never
//! runs — a warm column whose crack state didn't change between
//! checkpoints costs one string compare, not an `O(n)` copy or rewrite.
//!
//! **Log rotation:** committing a checkpoint creates a fresh, empty
//! redo-log file for the new epoch and records its name in the manifest.
//! Recovery replays only the log the manifest names, so a crash *before*
//! the manifest rename leaves the old manifest + old log pair intact
//! (updates since the attempted checkpoint replay from the old log), and
//! a crash *after* it leaves the new pair (the old log's records are
//! already folded into the new payloads). Orphaned files from either
//! outcome are garbage-collected on the next successful commit.
//!
//! **Crash injection:** [`CheckpointStore::set_crash_after`] arms a
//! countdown over the writer's durable operations (payload writes,
//! renames, log creation, the manifest write and rename). When it fires,
//! the writer aborts exactly as a dying process would — leaving a torn
//! temp file behind — so tests can probe every write boundary
//! (`tests/recovery_oracle.rs` does, exhaustively).
//!
//! **Fault injection and retry:** every file operation flows through the
//! [`crate::fault`] facade, so tests can also arm *non-fatal* faults
//! (EIO / ENOSPC / short-write / failed-fsync) at the store's named
//! boundaries. Transient faults are retried under the store's
//! [`RetryPolicy`]; each retry restarts the enclosing durable sequence
//! from scratch (the temp file is recreated, rewritten and re-fsynced),
//! which is why even a failed fsync is safe to retry *here* — unlike in
//! the WAL, no byte of a checkpoint file is ever trusted durable until
//! the whole sequence, including a fresh fsync of fresh bytes, has
//! succeeded. Hard faults (ENOSPC, corruption) propagate typed on first
//! occurrence and the previous epoch stays authoritative.

use crate::codec::{self, Frame, FrameKind};
use crate::error::{StorageError, StorageResult};
use crate::fault::{self, sibling_tmp_path, FaultInjector, RetryPolicy};
use serde::{Deserialize, Serialize};
use std::fs;
use std::path::{Path, PathBuf};

/// Name of the manifest file inside a checkpoint directory.
pub const MANIFEST_NAME: &str = "MANIFEST.json";

/// Manifest format version.
const MANIFEST_VERSION: u32 = 1;

/// FNV-1a over a string — stable, dependency-free file-name salt.
fn fnv(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Key sanitized for use in a file name (alphanumerics kept, everything
/// else `_`, truncated) plus an FNV salt so distinct keys never collide.
fn payload_file_name(key: &str, epoch: u64) -> String {
    let mut clean: String = key
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    clean.truncate(48);
    format!("{clean}-{:016x}.{epoch}.bin", fnv(key))
}

/// True when `name` matches one of the store's own file-name patterns:
/// `MANIFEST.json`, a payload `<key>-<16 hex>.<epoch>.bin`, a redo log
/// `wal.<epoch>.log`, or any of their `.tmp` staging siblings. GC only
/// ever touches these — a foreign file a caller colocates in the
/// checkpoint directory (e.g. a `persist` catalog snapshot, also
/// `.json`) is never the store's to delete.
fn is_store_artifact(name: &str) -> bool {
    let base = name.strip_suffix(".tmp").unwrap_or(name);
    if base == MANIFEST_NAME {
        return true;
    }
    let all_digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
    if let Some(epoch) = base
        .strip_prefix("wal.")
        .and_then(|rest| rest.strip_suffix(".log"))
    {
        return all_digits(epoch);
    }
    if let Some(rest) = base.strip_suffix(".bin") {
        // `<sanitized key>-<16 hex FNV>.<epoch>` (see `payload_file_name`).
        let Some((head, epoch)) = rest.rsplit_once('.') else {
            return false;
        };
        let Some((key, hash)) = head.rsplit_once('-') else {
            return false;
        };
        return all_digits(epoch)
            && hash.len() == 16
            && hash.bytes().all(|b| b.is_ascii_hexdigit())
            && key.len() <= 48
            && key.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_');
    }
    false
}

/// One payload recorded in a [`Manifest`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ManifestEntry {
    /// Logical key (e.g. `column/scenario/v`).
    pub key: String,
    /// Payload file name inside the checkpoint directory.
    pub file: String,
    /// Caller-supplied dirty-tracking fingerprint.
    pub fingerprint: String,
}

/// The commit record of one checkpoint epoch.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Manifest {
    /// Manifest format version.
    pub version: u32,
    /// Checkpoint epoch (monotonically increasing).
    pub epoch: u64,
    /// All payloads of this epoch, in `put` order.
    pub entries: Vec<ManifestEntry>,
    /// Redo-log file (inside the directory) for updates after this epoch.
    pub log: String,
}

impl Manifest {
    /// The entry for `key`, if present.
    pub fn entry(&self, key: &str) -> Option<&ManifestEntry> {
        self.entries.iter().find(|e| e.key == key)
    }
}

/// A directory of atomic incremental checkpoints. The directory is owned
/// by the store: files not referenced by the current manifest are
/// reclaimed on commit.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    /// Crash-injection countdown over durable writer operations.
    crash_after: Option<u32>,
    /// Deterministic I/O fault injection at the store's named boundaries.
    injector: FaultInjector,
    /// Retry policy for transient faults (each retry restarts the
    /// enclosing durable sequence from scratch).
    retry: RetryPolicy,
    /// Encode buffer, kept across payloads and epochs so a dirty
    /// checkpoint does not fault in a fresh multi-megabyte buffer.
    scratch: Vec<u8>,
}

impl CheckpointStore {
    /// Open (creating if necessary) a checkpoint directory.
    pub fn open(dir: impl Into<PathBuf>) -> StorageResult<Self> {
        let dir = dir.into();
        fault::create_dir_all(&dir)?;
        Ok(CheckpointStore {
            dir,
            crash_after: None,
            injector: FaultInjector::new(),
            retry: RetryPolicy::default(),
            scratch: Vec::new(),
        })
    }

    /// The directory this store owns.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The fault injector every file operation of this store flows
    /// through — arm error points here (see [`crate::fault`]).
    pub fn injector_mut(&mut self) -> &mut FaultInjector {
        &mut self.injector
    }

    /// Total faults injected into this store so far.
    pub fn faults_injected(&self) -> u64 {
        self.injector.injected()
    }

    /// Replace the retry policy for transient faults.
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// Arm the crash-injection countdown: the writer's `n`-th next durable
    /// operation fails exactly as a dying process would (leaving torn temp
    /// artifacts). `n = 0` fails the first operation. Test hook.
    pub fn set_crash_after(&mut self, n: u32) {
        self.crash_after = Some(n);
    }

    /// Disarm crash injection.
    pub fn clear_crash_after(&mut self) {
        self.crash_after = None;
    }

    /// True when the armed crash countdown should fire now (consuming one
    /// operation otherwise).
    fn crash_now(&mut self) -> bool {
        match self.crash_after.as_mut() {
            None => false,
            Some(0) => true,
            Some(n) => {
                *n -= 1;
                false
            }
        }
    }

    /// The current manifest, or `None` when no checkpoint has committed
    /// yet. A present-but-unreadable manifest is a loud error, never
    /// silently treated as empty.
    pub fn manifest(&self) -> StorageResult<Option<Manifest>> {
        let path = self.dir.join(MANIFEST_NAME);
        let Some(bytes) = fault::read_bytes_opt(&path)? else {
            return Ok(None);
        };
        let doc = String::from_utf8(bytes)
            .map_err(|_| StorageError::PersistFormat("manifest is not UTF-8".to_string()))?;
        let manifest: Manifest =
            serde_json::from_str(&doc).map_err(|e| StorageError::PersistFormat(e.to_string()))?;
        if manifest.version != MANIFEST_VERSION {
            return Err(StorageError::PersistFormat(format!(
                "unsupported manifest version {}",
                manifest.version
            )));
        }
        Ok(Some(manifest))
    }

    /// Read the payload a manifest entry points at, verified: the file
    /// must be exactly one [`codec`] frame whose checksum matches. A
    /// missing file is [`StorageError::PersistIo`]; any other defect is
    /// [`StorageError::PersistFormat`].
    pub fn read_payload(&self, entry: &ManifestEntry) -> StorageResult<Frame> {
        let what = format!("payload {:?}", entry.key);
        let bytes = fault::read_bytes_opt(&self.dir.join(&entry.file))?
            .ok_or_else(|| StorageError::PersistIo(format!("{what}: {} missing", entry.file)))?;
        Frame::open(bytes, FrameKind::Payload).map_err(|e| match e {
            StorageError::PersistFormat(m) => StorageError::PersistFormat(format!("{what}: {m}")),
            other => other,
        })
    }

    /// Absolute path of the redo log a manifest names.
    pub fn log_path(&self, manifest: &Manifest) -> PathBuf {
        self.dir.join(&manifest.log)
    }

    /// Start a new checkpoint epoch. Nothing becomes durable until
    /// [`CheckpointWriter::commit`].
    pub fn begin(&mut self) -> StorageResult<CheckpointWriter<'_>> {
        let prev = self.manifest()?;
        let epoch = prev.as_ref().map_or(1, |m| m.epoch + 1);
        Ok(CheckpointWriter {
            store: self,
            prev,
            epoch,
            entries: Vec::new(),
            reused: 0,
        })
    }
}

/// An in-progress checkpoint. Dropping it without [`commit`] aborts the
/// epoch: the previous manifest stays authoritative and any payload files
/// already written are reclaimed by the next successful commit.
///
/// [`commit`]: CheckpointWriter::commit
#[derive(Debug)]
pub struct CheckpointWriter<'a> {
    store: &'a mut CheckpointStore,
    prev: Option<Manifest>,
    epoch: u64,
    entries: Vec<ManifestEntry>,
    reused: usize,
}

impl CheckpointWriter<'_> {
    /// The epoch this writer will commit.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of payloads carried forward unchanged so far.
    pub fn reused(&self) -> usize {
        self.reused
    }

    /// Stage a payload under `key`. The fingerprint is compared first:
    /// when the previous epoch recorded the same one, its file is carried
    /// forward, `encode` never runs, and this returns `false`. Otherwise
    /// `encode` appends the payload's body to the buffer it is handed,
    /// the store frames and writes it, and this returns `true`.
    pub fn put(
        &mut self,
        key: &str,
        fingerprint: &str,
        encode: impl FnOnce(&mut Vec<u8>),
    ) -> StorageResult<bool> {
        if self.carry(key, fingerprint) {
            return Ok(false);
        }
        let file = payload_file_name(key, self.epoch);
        let mut buf = std::mem::take(&mut self.store.scratch);
        buf.clear();
        let start = codec::begin_frame(&mut buf);
        encode(&mut buf);
        codec::end_frame(&mut buf, start, FrameKind::Payload);
        let written = self.write_with_injection(&file, &buf);
        self.store.scratch = buf;
        written?;
        self.entries.push(ManifestEntry {
            key: key.to_string(),
            file,
            fingerprint: fingerprint.to_string(),
        });
        Ok(true)
    }

    /// Carry the previous epoch's payload under `key` forward unchanged
    /// when it was recorded with `fingerprint` and its file is present;
    /// returns whether it was. Nothing is written.
    pub fn carry(&mut self, key: &str, fingerprint: &str) -> bool {
        let Some(prev) = (self.prev.as_ref())
            .and_then(|m| m.entry(key))
            .filter(|e| e.fingerprint == fingerprint && self.store.dir.join(&e.file).exists())
        else {
            return false;
        };
        self.entries.push(prev.clone());
        self.reused += 1;
        true
    }

    /// Atomically publish this epoch: create its empty redo log, then
    /// rename the new manifest into place (the commit point), then
    /// garbage-collect files no longer referenced. Consumes the writer.
    ///
    /// Transient faults in any durable sequence are retried under the
    /// store's [`RetryPolicy`] (the sequence restarts from scratch, see
    /// the module doc). A failure *after* the manifest rename (the
    /// directory fsync) is reported — the caller must treat the commit
    /// outcome as ambiguous and re-read the manifest to learn which
    /// epoch is authoritative.
    pub fn commit(self) -> StorageResult<Manifest> {
        let retry = self.store.retry;
        let log = format!("wal.{}.log", self.epoch);
        // The new epoch's (empty) log must be durable before any manifest
        // names it.
        if self.store.crash_now() {
            return Err(StorageError::Persist(
                "injected crash before log creation".to_string(),
            ));
        }
        let log_target = self.store.dir.join(&log);
        let injector = &mut self.store.injector;
        retry.run(fault::CKPT_LOG_CREATE, || {
            let log_file = injector.create(fault::CKPT_LOG_CREATE, &log_target)?;
            injector.sync_file(fault::CKPT_LOG_FSYNC, &log_file)
        })?;
        let manifest = Manifest {
            version: MANIFEST_VERSION,
            epoch: self.epoch,
            entries: self.entries,
            log,
        };
        let doc =
            serde_json::to_string(&manifest).map_err(|e| StorageError::Persist(e.to_string()))?;
        let manifest_path = self.store.dir.join(MANIFEST_NAME);
        let tmp = sibling_tmp_path(&manifest_path);
        if self.store.crash_now() {
            // Die mid-write: a torn manifest temp file, target untouched.
            // lint: allow(durability-io) — crash simulation must bypass the injector
            let _ = fs::write(&tmp, &doc.as_bytes()[..doc.len() / 2]);
            return Err(StorageError::Persist(
                "injected crash during manifest write".to_string(),
            ));
        }
        let injector = &mut self.store.injector;
        retry.run(fault::CKPT_MANIFEST_WRITE, || {
            let mut file = injector.create(fault::CKPT_MANIFEST_CREATE, &tmp)?;
            injector.write_all(fault::CKPT_MANIFEST_WRITE, &mut file, doc.as_bytes())?;
            injector.sync_file(fault::CKPT_MANIFEST_FSYNC, &file)
        })?;
        if self.store.crash_now() {
            return Err(StorageError::Persist(
                "injected crash before manifest rename".to_string(),
            ));
        }
        let injector = &mut self.store.injector;
        retry.run(fault::CKPT_MANIFEST_RENAME, || {
            injector.rename(fault::CKPT_MANIFEST_RENAME, &tmp, &manifest_path)
        })?;
        let dir = self.store.dir.clone();
        let injector = &mut self.store.injector;
        retry.run(fault::CKPT_DIR_FSYNC, || {
            injector.sync_dir(fault::CKPT_DIR_FSYNC, &dir)
        })?;
        // Commit point passed: reclaim the store's *own* files the new
        // manifest no longer references — only names matching the store's
        // patterns (`is_store_artifact`); a foreign file colocated in the
        // directory is never deleted. Best-effort — an orphan costs disk,
        // not correctness, and the next commit retries.
        let mut keep: Vec<&str> = vec![MANIFEST_NAME, &manifest.log];
        keep.extend(manifest.entries.iter().map(|e| e.file.as_str()));
        for (name, path) in fault::dir_entries(&self.store.dir) {
            if is_store_artifact(&name) && !keep.iter().any(|k| *k == name) {
                fault::remove_file_quiet(&path);
            }
        }
        Ok(manifest)
    }

    /// Write one payload file through the temp-fsync-rename protocol,
    /// with the crash countdown applied at both durable boundaries and
    /// the fault injector at every operation. Transient faults restart
    /// the whole sequence (fresh temp file) under the retry policy.
    fn write_with_injection(&mut self, file: &str, bytes: &[u8]) -> StorageResult<()> {
        let target = self.store.dir.join(file);
        let tmp = sibling_tmp_path(&target);
        if self.store.crash_now() {
            // Die mid-write, leaving a torn temp file.
            // lint: allow(durability-io) — crash simulation must bypass the injector
            let _ = fs::write(&tmp, &bytes[..bytes.len() / 2]);
            return Err(StorageError::Persist(
                "injected crash during payload write".to_string(),
            ));
        }
        let crash_before_rename = self.store.crash_now();
        let retry = self.store.retry;
        let injector = &mut self.store.injector;
        retry.run(fault::CKPT_PAYLOAD_WRITE, || {
            let mut f = injector.create(fault::CKPT_PAYLOAD_CREATE, &tmp)?;
            injector.write_all(fault::CKPT_PAYLOAD_WRITE, &mut f, bytes)?;
            injector.sync_file(fault::CKPT_PAYLOAD_FSYNC, &f)
        })?;
        if crash_before_rename {
            return Err(StorageError::Persist(
                "injected crash before payload rename".to_string(),
            ));
        }
        let injector = &mut self.store.injector;
        retry.run(fault::CKPT_PAYLOAD_RENAME, || {
            injector.rename(fault::CKPT_PAYLOAD_RENAME, &tmp, &target)
        })?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(vals: &[i64]) -> impl FnOnce(&mut Vec<u8>) + '_ {
        move |buf| codec::put_ints(buf, vals)
    }

    fn read_ints(store: &CheckpointStore, entry: &ManifestEntry) -> Vec<i64> {
        let frame = store.read_payload(entry).unwrap();
        codec::Reader::new(frame.body()).ints().unwrap()
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("dbcracker-ckpt-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&p);
        p
    }

    #[test]
    fn checkpoint_roundtrip_and_manifest() {
        let dir = tmp_dir("roundtrip");
        let mut store = CheckpointStore::open(&dir).unwrap();
        assert!(store.manifest().unwrap().is_none());
        let mut w = store.begin().unwrap();
        assert_eq!(w.epoch(), 1);
        assert!(w.put("col/a", "f1", ints(&[1, 2, 3])).unwrap());
        assert!(w.put("col/b", "f9", ints(&[9])).unwrap());
        let m = w.commit().unwrap();
        assert_eq!(m.epoch, 1);
        assert_eq!(m.log, "wal.1.log");
        assert!(store.log_path(&m).exists());
        let m2 = store.manifest().unwrap().unwrap();
        assert_eq!(m, m2);
        let a = read_ints(&store, m2.entry("col/a").unwrap());
        assert_eq!(a, vec![1, 2, 3]);
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn unchanged_fingerprint_reuses_payload_file() {
        let dir = tmp_dir("reuse");
        let mut store = CheckpointStore::open(&dir).unwrap();
        let mut w = store.begin().unwrap();
        w.put("col/a", "f1", ints(&[1, 2])).unwrap();
        w.put("col/b", "f1", ints(&[5])).unwrap();
        let m1 = w.commit().unwrap();
        let file_a = m1.entry("col/a").unwrap().file.clone();

        let mut w = store.begin().unwrap();
        assert!(
            !w.put("col/a", "f1", ints(&[1, 2])).unwrap(),
            "clean: reused"
        );
        assert!(
            w.put("col/b", "f2", ints(&[6])).unwrap(),
            "dirty: rewritten"
        );
        assert_eq!(w.reused(), 1);
        let m2 = w.commit().unwrap();
        assert_eq!(m2.epoch, 2);
        assert_eq!(m2.entry("col/a").unwrap().file, file_a, "same file carried");
        assert_ne!(
            m2.entry("col/b").unwrap().file,
            m1.entry("col/b").unwrap().file
        );
        // Old epoch's b-payload and log were garbage-collected.
        assert!(!dir.join(&m1.entry("col/b").unwrap().file).exists());
        assert!(!dir.join(&m1.log).exists());
        let b = read_ints(&store, m2.entry("col/b").unwrap());
        assert_eq!(b, vec![6]);
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn a_clean_epoch_runs_no_encoder() {
        let dir = tmp_dir("encoder-calls");
        let mut store = CheckpointStore::open(&dir).unwrap();
        let calls = std::cell::Cell::new(0);
        let counted = |v: i64| {
            let calls = &calls;
            move |buf: &mut Vec<u8>| {
                calls.set(calls.get() + 1);
                codec::put_ints(buf, &[v]);
            }
        };
        let mut w = store.begin().unwrap();
        w.put("col/a", "f1", counted(1)).unwrap();
        w.put("col/b", "f1", counted(2)).unwrap();
        w.commit().unwrap();
        assert_eq!(calls.get(), 2, "a first epoch encodes every payload");
        calls.set(0);
        let mut w = store.begin().unwrap();
        w.put("col/a", "f1", counted(1)).unwrap();
        w.put("col/b", "f1", counted(2)).unwrap();
        let m = w.commit().unwrap();
        assert_eq!(calls.get(), 0, "a clean epoch encodes nothing");
        assert_eq!(read_ints(&store, m.entry("col/b").unwrap()), vec![2]);
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn dropped_keys_vanish_from_the_next_manifest() {
        let dir = tmp_dir("dropped");
        let mut store = CheckpointStore::open(&dir).unwrap();
        let mut w = store.begin().unwrap();
        w.put("col/a", "f1", ints(&[1])).unwrap();
        w.put("col/b", "f1", ints(&[2])).unwrap();
        w.commit().unwrap();
        let mut w = store.begin().unwrap();
        w.put("col/a", "f1", ints(&[1])).unwrap();
        let m = w.commit().unwrap();
        assert!(m.entry("col/b").is_none());
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn gc_reclaims_only_the_stores_own_files() {
        let dir = tmp_dir("gc-foreign");
        let mut store = CheckpointStore::open(&dir).unwrap();
        let mut w = store.begin().unwrap();
        w.put("col/a", "f1", ints(&[1])).unwrap();
        let m1 = w.commit().unwrap();
        // Foreign files a caller colocates in the directory — including
        // .json/.log/.tmp names that the old suffix-based GC destroyed.
        let foreign = ["catalog.json", "notes.log", "scratch.tmp", "wal.x.log"];
        for f in &foreign {
            fs::write(dir.join(f), b"not ours").unwrap();
        }
        // Dirty payload forces a rewrite, making epoch 1's file stale.
        let mut w = store.begin().unwrap();
        w.put("col/a", "f2", ints(&[2])).unwrap();
        let m2 = w.commit().unwrap();
        for f in &foreign {
            assert!(dir.join(f).exists(), "GC must not delete foreign {f}");
        }
        // The store's own stale artifacts are still reclaimed.
        assert!(!dir.join(&m1.entry("col/a").unwrap().file).exists());
        assert!(!dir.join(&m1.log).exists());
        assert!(dir.join(&m2.entry("col/a").unwrap().file).exists());
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn store_artifact_pattern_matches_exactly_the_stores_names() {
        assert!(is_store_artifact(MANIFEST_NAME));
        assert!(is_store_artifact("MANIFEST.json.tmp"));
        assert!(is_store_artifact("wal.12.log"));
        assert!(is_store_artifact("wal.12.log.tmp"));
        assert!(is_store_artifact(&payload_file_name("cracker/t/v", 3)));
        assert!(is_store_artifact(&format!(
            "{}.tmp",
            payload_file_name("cracker/t/v", 3)
        )));
        for foreign in [
            "catalog.json",
            "notes.log",
            "scratch.tmp",
            "wal.x.log",
            "wal..log",
            "data-abc.3.json",             // hash not 16 hex chars
            "key-0123456789abcdef.x.json", // epoch not numeric
            "README.md",
        ] {
            assert!(!is_store_artifact(foreign), "{foreign} must be foreign");
        }
    }

    #[test]
    fn crash_at_every_boundary_preserves_the_previous_checkpoint() {
        // Arm the countdown at every successive durable operation of a
        // two-payload checkpoint; whichever boundary dies, the previous
        // manifest and its payloads must stay fully loadable.
        let dir = tmp_dir("crash");
        let mut store = CheckpointStore::open(&dir).unwrap();
        let mut w = store.begin().unwrap();
        w.put("col/a", "v1", ints(&[1])).unwrap();
        let m1 = w.commit().unwrap();
        for k in 0..32 {
            store.set_crash_after(k);
            let attempt = (|| -> StorageResult<Manifest> {
                let mut w = store.begin()?;
                w.put("col/a", "v2", ints(&[2]))?;
                w.put("col/c", "v1", ints(&[3]))?;
                w.commit()
            })();
            store.clear_crash_after();
            match attempt {
                Err(_) => {
                    // Crashed: epoch 1 must still be the durable state.
                    let m = store.manifest().unwrap().unwrap();
                    assert_eq!(m, m1, "crash at op {k} corrupted the manifest");
                    let a = read_ints(&store, m.entry("col/a").unwrap());
                    assert_eq!(a, vec![1], "crash at op {k} corrupted a payload");
                    assert!(store.log_path(&m).exists(), "crash at op {k} lost the log");
                }
                Ok(m) => {
                    // The countdown outlived the commit: fully durable.
                    let a = read_ints(&store, m.entry("col/a").unwrap());
                    assert_eq!(a, vec![2]);
                    assert!(k >= 7, "a full 2-payload commit takes at least 8 ops");
                    break;
                }
            }
        }
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn torn_manifest_is_a_loud_error() {
        let dir = tmp_dir("torn");
        let store = CheckpointStore::open(&dir).unwrap();
        fs::write(dir.join(MANIFEST_NAME), b"{\"version\":1,\"epo").unwrap();
        assert!(matches!(
            store.manifest().unwrap_err(),
            StorageError::PersistFormat(_)
        ));
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn manifest_decode_is_total() {
        // Every truncation of a valid manifest, every single-bit flip of
        // it, and arbitrary bytes: a typed error or a manifest, never a
        // panic. (JSON carries no checksum, so a flip inside a string can
        // still parse; the payloads it names are checksummed.)
        let dir = tmp_dir("manifest-total");
        let mut store = CheckpointStore::open(&dir).unwrap();
        let mut w = store.begin().unwrap();
        w.put("col/a", "f1", ints(&[1])).unwrap();
        w.commit().unwrap();
        let good = fs::read(dir.join(MANIFEST_NAME)).unwrap();
        let mut inputs: Vec<Vec<u8>> = (0..good.len()).map(|cut| good[..cut].to_vec()).collect();
        for bit in 0..good.len() * 8 {
            let mut flipped = good.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            inputs.push(flipped);
        }
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for len in 0..64 {
            inputs.push(
                (0..len)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        x as u8
                    })
                    .collect(),
            );
        }
        for bytes in inputs {
            fs::write(dir.join(MANIFEST_NAME), &bytes).unwrap();
            let got = store.manifest();
            assert!(
                matches!(got, Ok(_) | Err(StorageError::PersistFormat(_))),
                "{got:?} from {bytes:?}"
            );
        }
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn a_flipped_payload_bit_is_refused_by_the_checksum() {
        let dir = tmp_dir("flip");
        let mut store = CheckpointStore::open(&dir).unwrap();
        let mut w = store.begin().unwrap();
        w.put("col/a", "f1", ints(&[10, 20, 30])).unwrap();
        let m = w.commit().unwrap();
        let path = dir.join(&m.entry("col/a").unwrap().file);
        let mut bytes = fs::read(&path).unwrap();
        // The last offset of the array, the value 30, becomes 31.
        let last = bytes.len() - codec::TRAILER_LEN - 1;
        bytes[last] ^= 1;
        fs::write(&path, &bytes).unwrap();
        let err = store.read_payload(m.entry("col/a").unwrap()).unwrap_err();
        assert!(
            matches!(&err, StorageError::PersistFormat(msg) if msg.contains("checksum")),
            "{err}"
        );
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn missing_payload_is_an_io_error() {
        let dir = tmp_dir("missing");
        let store = CheckpointStore::open(&dir).unwrap();
        let entry = ManifestEntry {
            key: "col/a".into(),
            file: "nope.bin".into(),
            fingerprint: "f".into(),
        };
        assert!(matches!(
            store.read_payload(&entry).unwrap_err(),
            StorageError::PersistIo(_)
        ));
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn transient_payload_fault_is_retried_and_the_checkpoint_commits() {
        use crate::fault::FaultKind;
        let dir = tmp_dir("retry-payload");
        let mut store = CheckpointStore::open(&dir).unwrap();
        store.set_retry_policy(RetryPolicy::new(3, std::time::Duration::from_micros(1)));
        store
            .injector_mut()
            .arm(fault::CKPT_PAYLOAD_WRITE, 0, FaultKind::Eio, 1);
        let mut w = store.begin().unwrap();
        w.put("col/a", "f1", ints(&[7, 8])).unwrap();
        let m = w.commit().unwrap();
        assert_eq!(store.faults_injected(), 1, "the armed fault fired");
        let a = read_ints(&store, m.entry("col/a").unwrap());
        assert_eq!(a, vec![7, 8], "retried write landed the full payload");
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn short_write_fault_retries_to_a_complete_payload() {
        use crate::fault::FaultKind;
        let dir = tmp_dir("retry-short");
        let mut store = CheckpointStore::open(&dir).unwrap();
        store.set_retry_policy(RetryPolicy::new(2, std::time::Duration::from_micros(1)));
        store
            .injector_mut()
            .arm(fault::CKPT_PAYLOAD_WRITE, 0, FaultKind::ShortWrite, 1);
        let mut w = store.begin().unwrap();
        w.put("col/a", "f1", ints(&[1, 2, 3, 4, 5])).unwrap();
        let m = w.commit().unwrap();
        // The retry recreated the temp file from scratch, so the torn
        // half-write cannot have leaked into the durable payload.
        let a = read_ints(&store, m.entry("col/a").unwrap());
        assert_eq!(a, vec![1, 2, 3, 4, 5]);
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn exhausted_retries_surface_transient_error_and_keep_the_old_manifest() {
        use crate::fault::FaultKind;
        let dir = tmp_dir("retry-exhaust");
        let mut store = CheckpointStore::open(&dir).unwrap();
        let mut w = store.begin().unwrap();
        w.put("col/a", "f1", ints(&[1])).unwrap();
        let m1 = w.commit().unwrap();
        // Epoch 2: the manifest fsync fails more times than the policy
        // tolerates, so the commit must fail transiently — and epoch 1
        // must remain the authoritative durable state.
        store.set_retry_policy(RetryPolicy::new(1, std::time::Duration::from_micros(1)));
        store
            .injector_mut()
            .arm(fault::CKPT_MANIFEST_FSYNC, 0, FaultKind::FsyncFail, 10);
        let mut w = store.begin().unwrap();
        w.put("col/a", "f2", ints(&[2])).unwrap();
        let err = w.commit().unwrap_err();
        assert!(err.is_transient(), "{err}");
        store.injector_mut().disarm_all();
        let m = store.manifest().unwrap().unwrap();
        assert_eq!(m, m1, "failed commit must not move the manifest");
        let a = read_ints(&store, m.entry("col/a").unwrap());
        assert_eq!(a, vec![1]);
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn enospc_is_typed_disk_full_and_never_retried() {
        use crate::fault::FaultKind;
        let dir = tmp_dir("enospc");
        let mut store = CheckpointStore::open(&dir).unwrap();
        store.set_retry_policy(RetryPolicy::new(5, std::time::Duration::from_micros(1)));
        store
            .injector_mut()
            .arm(fault::CKPT_PAYLOAD_WRITE, 0, FaultKind::Enospc, 1);
        let mut w = store.begin().unwrap();
        let err = w.put("col/a", "f1", ints(&[1])).unwrap_err();
        assert!(matches!(err, StorageError::DiskFull(_)), "{err}");
        drop(w);
        assert_eq!(
            store.faults_injected(),
            1,
            "a hard fault must not be retried into further injections"
        );
        fs::remove_dir_all(dir).ok();
    }
}
