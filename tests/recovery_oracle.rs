//! Crash-injection recovery suite: kill the durability layer at every
//! write boundary, recover, and hold the recovered database to the full
//! differential oracle — answers must be identical to a never-crashed
//! replay, piece maps must validate, and the recovered store must answer
//! *warm* (at cracked cost, not full-scan cost). See `PERSISTENCE.md`.

use dbcracker::engine::durability::{column_key, META_KEY};
use dbcracker::engine::scenario::{SCENARIO_COLUMN, SCENARIO_TABLE};
use dbcracker::engine::{AdaptiveDb, DbScenarioRunner, OutputMode, RangeQuery, Table};
use dbcracker::prelude::*;
use dbcracker::storage::CheckpointStore;
use std::path::{Path, PathBuf};

const TABLE: &str = "t";
const COLUMN: &str = "v";

/// Fresh scratch directory for one test case (removed up front so reruns
/// of a dirty tree start clean).
fn scratch(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("dbcracker-recovery-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// A deterministic pseudo-random stream (splitmix64) for window
/// placement — no RNG crate needed.
struct Mix(u64);
impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn window(&mut self, domain: i64, width: i64) -> Window {
        let lo = (self.next() % (domain - width).max(1) as u64) as i64;
        Window::new(lo, lo + width)
    }
}

fn base_column(n: usize) -> Vec<i64> {
    (0..n as i64).map(|i| (i * 37) % n as i64).collect()
}

fn db_with_table(base: &[i64], mode: ConcurrencyMode) -> AdaptiveDb {
    let mut db = AdaptiveDb::new().with_concurrency(mode);
    db.register(Table::from_int_columns(TABLE, vec![(COLUMN, base.to_vec())]).unwrap())
        .unwrap();
    db
}

/// The recovered db must give oracle-identical answers for every probe
/// window, and its piece map must pass full validation.
fn assert_matches_oracle(db: &mut AdaptiveDb, oracle: &SortedOracle, windows: &[Window]) {
    for &w in windows {
        let (mut got, _) = db
            .select(
                &RangeQuery::new(TABLE, COLUMN, w.to_pred()),
                OutputMode::Stream,
            )
            .unwrap();
        got.sort_unstable();
        assert_eq!(
            got,
            oracle.select_oids(w),
            "recovered db diverged on [{}, {})",
            w.lo,
            w.hi
        );
    }
    db.shared_cracker(TABLE, COLUMN)
        .unwrap()
        .validate()
        .expect("recovered piece map must validate");
}

#[test]
fn checkpoint_recover_roundtrip_matches_oracle_in_both_modes() {
    let n = 8_000;
    let base = base_column(n);
    for (mode, tag) in [
        (ConcurrencyMode::SingleLock, "single"),
        (ConcurrencyMode::Sharded { shards: 4 }, "sharded"),
    ] {
        let dir = scratch(&format!("roundtrip-{tag}"));
        let mut oracle = SortedOracle::new(&base);
        let mut db = db_with_table(&base, mode);
        let mut mix = Mix(7);
        // Crack before attaching, so the checkpoint carries a non-trivial
        // piece map.
        for _ in 0..12 {
            let w = mix.window(n as i64, 400);
            db.select(
                &RangeQuery::new(TABLE, COLUMN, w.to_pred()),
                OutputMode::Count,
            )
            .unwrap();
        }
        db.attach_durability(&dir, 1).unwrap();
        // Updates after the initial checkpoint live only in the redo log.
        for i in 0..60u32 {
            let oid = n as u32 + i;
            let value = (mix.next() % n as u64) as i64;
            db.stage_insert(TABLE, COLUMN, oid, value).unwrap();
            oracle.insert(oid, value);
            if i % 3 == 0 {
                let victim = (mix.next() % n as u64) as u32;
                let found = db.stage_delete(TABLE, COLUMN, victim).unwrap();
                assert_eq!(found, oracle.delete(victim));
            }
        }
        // A checkpoint absorbs the overlay; more updates go to the new log.
        let epoch = db.checkpoint().unwrap();
        assert!(epoch >= 2);
        for i in 60..90u32 {
            let oid = n as u32 + i;
            db.stage_insert(TABLE, COLUMN, oid, 5).unwrap();
            oracle.insert(oid, 5);
        }
        drop(db);
        let mut rec = AdaptiveDb::recover(&dir, CrackerConfig::default(), 1).unwrap();
        assert_eq!(rec.concurrency(), mode, "mode survives recovery");
        let probes: Vec<Window> = (0..20).map(|_| mix.window(n as i64, 700)).collect();
        assert_matches_oracle(&mut rec, &oracle, &probes);
        // The recovered db keeps logging: another round trip still agrees.
        rec.stage_insert(TABLE, COLUMN, n as u32 + 500, -3).unwrap();
        oracle.insert(n as u32 + 500, -3);
        drop(rec);
        let mut rec2 = AdaptiveDb::recover(&dir, CrackerConfig::default(), 1).unwrap();
        assert_matches_oracle(&mut rec2, &oracle, &probes);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn checkpoint_sees_overlay_swap_that_preserves_length() {
    // Regression for a fingerprint collision: deleting a staged insert
    // cancels it, so cancel + one fresh staged insert leaves the overlay
    // *length* (and every monotone layout counter) unchanged between
    // checkpoints. A length-based fingerprint let the second checkpoint
    // carry the stale overlay payload forward while rotating the redo log
    // away — recovery then resurrected the cancelled insert and lost the
    // fresh one, silently. The content-hashing fingerprint must rewrite.
    let n = 2_000;
    let base = base_column(n);
    let dir = scratch("overlay-swap");
    let mut oracle = SortedOracle::new(&base);
    let mut db = db_with_table(&base, ConcurrencyMode::SingleLock);
    // Touch the column up front so the initial checkpoint already holds
    // its payload.
    db.shared_cracker(TABLE, COLUMN).unwrap();
    db.attach_durability(&dir, 1).unwrap();

    // Stage insert X; checkpoint so X lands in the overlay payload.
    let x = n as u32 + 1;
    db.stage_insert(TABLE, COLUMN, x, 111).unwrap();
    oracle.insert(x, 111);
    db.checkpoint().unwrap();

    // Cancel X, stage fresh Z: overlay length is back to 1 and no layout
    // counter moved. Checkpoint again — the WAL records for both updates
    // rotate away, so the payload *must* be rewritten.
    let z = n as u32 + 2;
    assert!(db.stage_delete(TABLE, COLUMN, x).unwrap());
    assert!(oracle.delete(x));
    db.stage_insert(TABLE, COLUMN, z, 222).unwrap();
    oracle.insert(z, 222);
    db.checkpoint().unwrap();
    drop(db);

    let mut rec = AdaptiveDb::recover(&dir, CrackerConfig::default(), 1).unwrap();
    let mut mix = Mix(41);
    let mut probes: Vec<Window> = (0..8).map(|_| mix.window(n as i64, 400)).collect();
    // Windows that pin X absent and Z present explicitly.
    probes.push(Window::new(110, 112));
    probes.push(Window::new(221, 223));
    assert_matches_oracle(&mut rec, &oracle, &probes);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rejected_update_leaves_no_poison_record_in_the_log() {
    // Regression: an update against an unknown table/column was appended
    // to the redo log *before* the target resolved, so one rejected
    // update durably logged a record that every future recovery replayed
    // — and failed on — permanently. Validation now precedes the append.
    let n = 1_000;
    let base = base_column(n);
    let dir = scratch("poison");
    let mut oracle = SortedOracle::new(&base);
    let mut db = db_with_table(&base, ConcurrencyMode::SingleLock);
    db.attach_durability(&dir, 1).unwrap();
    db.stage_insert(TABLE, COLUMN, n as u32, 7).unwrap();
    oracle.insert(n as u32, 7);
    // Rejected updates: unknown table, unknown column. Each must error
    // without logging anything.
    assert!(db.stage_insert("no_such_table", COLUMN, 1, 1).is_err());
    assert!(db.stage_insert(TABLE, "no_such_column", 1, 1).is_err());
    assert!(db.stage_delete("no_such_table", COLUMN, 1).is_err());
    // Valid updates keep flowing after the rejections.
    db.stage_insert(TABLE, COLUMN, n as u32 + 1, 9).unwrap();
    oracle.insert(n as u32 + 1, 9);
    drop(db);
    // Recovery replays the log — a poison record would fail it here.
    let mut rec = AdaptiveDb::recover(&dir, CrackerConfig::default(), 1).unwrap();
    let mut mix = Mix(43);
    let probes: Vec<Window> = (0..8).map(|_| mix.window(n as i64, 300)).collect();
    assert_matches_oracle(&mut rec, &oracle, &probes);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crash_at_every_checkpoint_boundary_recovers_to_last_durable_state() {
    // Arm the crash countdown at every durable-write boundary of a
    // checkpoint in turn. Whether the checkpoint died or committed, the
    // recovered database must be oracle-identical: every staged update
    // was redo-logged (group commit = 1) before it applied, so no crash
    // point may lose state or leave it silently wrong.
    let n = 4_000;
    let base = base_column(n);
    let mut committed = 0;
    let mut died = 0;
    for case in 0..20u32 {
        // Every countdown under each latching mode.
        let (k, mode) = match case {
            0..=9 => (case, ConcurrencyMode::SingleLock),
            _ => (case - 10, ConcurrencyMode::Sharded { shards: 4 }),
        };
        let dir = scratch(&format!("ckpt-crash-{case}"));
        let mut oracle = SortedOracle::new(&base);
        let mut db = db_with_table(&base, mode);
        let mut mix = Mix(1000 + k as u64);
        db.attach_durability(&dir, 1).unwrap();
        for _ in 0..6 {
            let w = mix.window(n as i64, 300);
            db.select(
                &RangeQuery::new(TABLE, COLUMN, w.to_pred()),
                OutputMode::Count,
            )
            .unwrap();
        }
        for i in 0..20u32 {
            let oid = n as u32 + i;
            db.stage_insert(TABLE, COLUMN, oid, i as i64).unwrap();
            oracle.insert(oid, i as i64);
        }
        assert!(db.arm_checkpoint_crash(k));
        match db.checkpoint() {
            Ok(_) => committed += 1,
            Err(_) => died += 1,
        }
        drop(db);
        let mut rec = AdaptiveDb::recover(&dir, CrackerConfig::default(), 1).unwrap();
        let probes: Vec<Window> = (0..12).map(|_| mix.window(n as i64, 500)).collect();
        assert_matches_oracle(&mut rec, &oracle, &probes);
        std::fs::remove_dir_all(&dir).ok();
    }
    assert!(died > 0, "the low countdowns must kill the checkpoint");
    assert!(committed > 0, "the high countdowns must let it commit");
}

#[test]
fn crash_mid_log_append_loses_only_the_torn_record() {
    let n = 2_000;
    let base = base_column(n);
    let dir = scratch("log-crash");
    let mut oracle = SortedOracle::new(&base);
    let mut db = db_with_table(&base, ConcurrencyMode::SingleLock);
    db.attach_durability(&dir, 1).unwrap();
    for i in 0..10u32 {
        let oid = n as u32 + i;
        db.stage_insert(TABLE, COLUMN, oid, 100 + i as i64).unwrap();
        oracle.insert(oid, 100 + i as i64);
    }
    // The next append dies mid-write: the record is torn, nothing applies
    // — in memory or in the oracle.
    assert!(db.arm_log_crash(0));
    assert!(db.stage_insert(TABLE, COLUMN, 9_999, 42).is_err());
    drop(db);
    let mut rec = AdaptiveDb::recover(&dir, CrackerConfig::default(), 1).unwrap();
    let mut mix = Mix(99);
    let probes: Vec<Window> = (0..10).map(|_| mix.window(n as i64, 300)).collect();
    assert_matches_oracle(&mut rec, &oracle, &probes);
    // The torn tail was repaired: post-recovery updates append cleanly
    // and survive another crash/recover cycle.
    rec.stage_insert(TABLE, COLUMN, 9_999, 42).unwrap();
    oracle.insert(9_999, 42);
    drop(rec);
    let mut rec2 = AdaptiveDb::recover(&dir, CrackerConfig::default(), 1).unwrap();
    assert_matches_oracle(&mut rec2, &oracle, &probes);
    std::fs::remove_dir_all(&dir).ok();
}

/// Manifest keys of the cracked-column payloads in `dir`'s committed
/// checkpoint (everything but the meta payload and the base tables).
fn cracked_payload_keys(dir: &Path) -> Vec<String> {
    let manifest = CheckpointStore::open(dir)
        .unwrap()
        .manifest()
        .unwrap()
        .expect("a committed checkpoint");
    manifest
        .entries
        .into_iter()
        .map(|e| e.key)
        .filter(|k| k != META_KEY && !k.starts_with("table/"))
        .collect()
}

#[test]
fn recovery_is_warm_not_cold() {
    // The whole point of checkpointing the piece map: a recovered store
    // repeats a pre-crash query at cracked cost, not full-scan cost. Costs
    // are pinned via touched-tuple counters, not wall clock.
    let n = 50_000;
    let base = base_column(n);
    let hot = Window::new(20_000, 20_600);
    let hot_query = RangeQuery::new(TABLE, COLUMN, hot.to_pred());
    for (mode, tag) in [
        (ConcurrencyMode::SingleLock, "single"),
        (ConcurrencyMode::Sharded { shards: 4 }, "sharded"),
    ] {
        let dir = scratch(&format!("warm-{tag}"));
        let mut db = db_with_table(&base, mode);
        let mut mix = Mix(5);
        for _ in 0..30 {
            let w = mix.window(n as i64, 800);
            db.select(
                &RangeQuery::new(TABLE, COLUMN, w.to_pred()),
                OutputMode::Count,
            )
            .unwrap();
        }
        db.select(&hot_query, OutputMode::Count).unwrap();
        let pieces_before = db.shared_cracker(TABLE, COLUMN).unwrap().piece_count();
        db.attach_durability(&dir, 1).unwrap();
        // Staged after the checkpoint, so recovery replays them from the
        // redo log — into the restored column, not into a second cold one.
        db.stage_insert(TABLE, COLUMN, n as u32, -1).unwrap();
        assert!(db.stage_delete(TABLE, COLUMN, 3).unwrap());
        let cracked_before = db.cracked_columns();
        drop(db);

        let mut rec = AdaptiveDb::recover(&dir, CrackerConfig::default(), 1).unwrap();
        assert_eq!(rec.cracked_columns(), cracked_before, "{tag}");
        assert_eq!(
            rec.shared_cracker(TABLE, COLUMN).unwrap().piece_count(),
            pieces_before,
            "{tag}: every crack boundary must survive recovery"
        );
        // One cracked copy per column, so one snapshot per column.
        rec.checkpoint().unwrap();
        assert_eq!(
            cracked_payload_keys(&dir),
            vec![column_key(TABLE, COLUMN)],
            "{tag}"
        );
        // Warm: repeating the hot query on the recovered db.
        let before = rec.total_crack_stats().tuples_touched;
        rec.select(&hot_query, OutputMode::Count).unwrap();
        let warm_cost = rec.total_crack_stats().tuples_touched - before;

        // Cold: the same query on a fresh, never-cracked db.
        let mut cold = db_with_table(&base, mode);
        cold.select(&hot_query, OutputMode::Count).unwrap();
        let cold_cost = cold.total_crack_stats().tuples_touched;

        assert!(
            warm_cost * 10 < cold_cost,
            "{tag}: recovered query touched {warm_cost} tuples; cold scan touched {cold_cost} — recovery came back cold"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn scenario_replay_survives_a_mid_stream_restart() {
    // Replay a seeded update-heavy scenario through the durable runner,
    // checkpoint + restart halfway, and differentially check every
    // post-restart select against the oracle.
    for (mode, tag) in [
        (ConcurrencyMode::SingleLock, "single"),
        (ConcurrencyMode::Sharded { shards: 4 }, "sharded"),
    ] {
        let dir = scratch(&format!("scenario-{tag}"));
        let mut scenario = UpdateHeavy::new(Mqs::paper_default(6_000, 40, 0.05), 2.0, 3, 23);
        let mut oracle = SortedOracle::new(scenario.base());
        let mut runner =
            DbScenarioRunner::with_durability(&scenario, mode, &dir, 1).expect("attach");
        let ops: Vec<Op> = (&mut scenario).collect();
        let halfway = ops.len() / 2;
        let mut selects_checked = 0;
        for (i, op) in ops.into_iter().enumerate() {
            if i == halfway {
                runner.checkpoint().expect("mid-stream checkpoint");
                runner.restart().expect("recover from checkpoint");
            }
            match op {
                Op::Select(w) => {
                    let mut got = runner.run_select(w);
                    got.sort_unstable();
                    assert_eq!(
                        got,
                        oracle.select_oids(w),
                        "{tag}: post-restart select [{}, {}) diverged",
                        w.lo,
                        w.hi
                    );
                    selects_checked += 1;
                }
                Op::Insert { oid, value } => {
                    runner.run_insert(oid, value);
                    oracle.insert(oid, value);
                }
                Op::Delete { oid } => {
                    assert_eq!(runner.run_delete(oid), oracle.delete(oid), "{tag}: delete");
                }
            }
        }
        assert!(selects_checked >= 20, "scenario must actually select");
        // One more unannounced restart at stream end still agrees.
        runner.restart().expect("second recovery");
        let w = Window::new(1_000, 1_500);
        let mut got = runner.run_select(w);
        got.sort_unstable();
        assert_eq!(got, oracle.select_oids(w));
        let mut db = runner.into_db();
        assert_eq!(db.catalog().table(SCENARIO_TABLE).unwrap().len(), 6_000);
        assert!(db
            .shared_cracker(SCENARIO_TABLE, SCENARIO_COLUMN)
            .unwrap()
            .validate()
            .is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Little-endian `u64`.
fn le(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// A string: byte length, then bytes.
fn text(out: &mut Vec<u8>, s: &str) {
    le(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// An integer array of one-byte offsets: `len, min, width = 1, offsets`.
fn bytes_from(out: &mut Vec<u8>, min: i64, offsets: &[u8]) {
    le(out, offsets.len() as u64);
    le(out, min as u64);
    out.push(1);
    out.extend_from_slice(offsets);
}

/// A frame: magic, version 1, `kind`, body length, header check, body,
/// body checksum.
fn frame(kind: u8, body: &[u8]) -> Vec<u8> {
    use dbcracker::storage::codec::checksum;
    let mut out = b"DBCK".to_vec();
    out.push(1);
    out.push(kind);
    le(&mut out, body.len() as u64);
    let check = checksum(&out) as u32;
    out.extend_from_slice(&check.to_le_bytes());
    out.extend_from_slice(body);
    le(&mut out, checksum(body));
    out
}

#[test]
fn a_hand_assembled_directory_recovers_to_the_expected_state() {
    // The on-disk format pinned byte by byte, independently of the
    // encoder: table t(v) = [5, 1, 4, 2, 3], its cracked copy split at
    // `v < 3` into [1, 2 | 5, 4, 3], a staged insert (oid 5, 0) and a
    // staged delete of oid 2 in the snapshot, and one logged insert
    // (oid 6, 10) in the redo log.
    let dir = scratch("hand-assembled");
    std::fs::create_dir_all(&dir).unwrap();
    let mut meta = Vec::new();
    le(&mut meta, 3); // meta version
    le(&mut meta, 0); // single-lock
    le(&mut meta, 1); // one table …
    text(&mut meta, "t");
    le(&mut meta, 1); // … with one column
    text(&mut meta, "v");
    le(&mut meta, 1); // one cracked column
    text(&mut meta, "t");
    text(&mut meta, "v");
    let mut base = Vec::new();
    bytes_from(&mut base, 1, &[4, 0, 3, 1, 2]);
    let mut column = vec![0]; // single-lock tag
    bytes_from(&mut column, 0, &[]); // no splits
    le(&mut column, 1); // one shard
    bytes_from(&mut column, 1, &[0, 1, 4, 3, 2]); // values 1 2 5 4 3
    bytes_from(&mut column, 0, &[1, 3, 0, 2, 4]); // their OIDs
    bytes_from(&mut column, 3, &[0]); // boundary value 3 …
    bytes_from(&mut column, 0, &[0]); // … exclusive (`v < 3`) …
    bytes_from(&mut column, 2, &[0]); // … at position 2
    bytes_from(&mut column, 5, &[0]); // staged insert OID 5 …
    bytes_from(&mut column, 0, &[0]); // … value 0
    bytes_from(&mut column, 2, &[0]); // staged delete of OID 2
    let mut redo = Vec::new();
    le(&mut redo, 1); // one run:
    redo.push(1); // inserts
    text(&mut redo, "t");
    text(&mut redo, "v");
    bytes_from(&mut redo, 6, &[0]); // OID 6
    bytes_from(&mut redo, 10, &[0]); // value 10
    for (file, bytes) in [
        ("meta.bin", frame(1, &meta)),
        ("table.bin", frame(1, &base)),
        ("column.bin", frame(1, &column)),
        ("wal.1.log", frame(2, &redo)),
    ] {
        std::fs::write(dir.join(file), bytes).unwrap();
    }
    let manifest = r#"{"version":1,"epoch":1,"entries":[
        {"key":"__meta__","file":"meta.bin","fingerprint":"m"},
        {"key":"table/t/v","file":"table.bin","fingerprint":"n5"},
        {"key":"column/t/v","file":"column.bin","fingerprint":"c"}],
        "log":"wal.1.log"}"#;
    std::fs::write(dir.join("MANIFEST.json"), manifest).unwrap();

    let mut rec = AdaptiveDb::recover(&dir, CrackerConfig::default(), 1).unwrap();
    assert_eq!(
        rec.catalog().table(TABLE).unwrap().ints(COLUMN).unwrap(),
        [5, 1, 4, 2, 3]
    );
    assert_eq!(rec.cracked_columns(), 1);
    let col = rec.shared_cracker(TABLE, COLUMN).unwrap();
    assert_eq!(col.piece_count(), 2, "the boundary at `v < 3` survived");
    col.validate().unwrap();
    let mut oids = |lo: i64, hi: i64| {
        let (mut got, _) = rec
            .select(
                &RangeQuery::new(TABLE, COLUMN, Window::new(lo, hi).to_pred()),
                OutputMode::Stream,
            )
            .unwrap();
        got.sort_unstable();
        got
    };
    assert_eq!(oids(-100, 100), [0, 1, 3, 4, 5, 6], "oid 2 stays deleted");
    assert_eq!(oids(-100, 3), [1, 3, 5], "staged insert 5 has value 0");
    assert_eq!(oids(10, 11), [6], "the logged insert replayed");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_flipped_bit_in_a_column_payload_is_refused_at_recovery() {
    let n = 2_000;
    let base = base_column(n);
    let dir = scratch("flipped");
    let mut db = db_with_table(&base, ConcurrencyMode::SingleLock);
    db.select(
        &RangeQuery::new(TABLE, COLUMN, Window::new(100, 900).to_pred()),
        OutputMode::Count,
    )
    .unwrap();
    db.attach_durability(&dir, 1).unwrap();
    drop(db);
    let manifest = CheckpointStore::open(&dir)
        .unwrap()
        .manifest()
        .unwrap()
        .unwrap();
    let path = dir.join(&manifest.entry(&column_key(TABLE, COLUMN)).unwrap().file);
    let mut bytes = std::fs::read(&path).unwrap();
    let middle = bytes.len() / 2; // inside the values or the OIDs
    bytes[middle] ^= 1;
    std::fs::write(&path, &bytes).unwrap();
    match AdaptiveDb::recover(&dir, CrackerConfig::default(), 1) {
        Err(dbcracker::engine::EngineError::Storage(
            dbcracker::storage::StorageError::PersistFormat(m),
        )) => {
            assert!(m.contains("checksum"), "{m}");
        }
        Err(e) => panic!("expected PersistFormat, got {e}"),
        Ok(_) => panic!("a flipped payload bit must not recover"),
    }
    std::fs::remove_dir_all(&dir).ok();
}
