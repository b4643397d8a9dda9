//! Crash-injection recovery suite: kill the durability layer at every
//! write boundary, recover, and hold the recovered database to the full
//! differential oracle — answers must be identical to a never-crashed
//! replay, piece maps must validate, and the recovered store must answer
//! *warm* (at cracked cost, not full-scan cost). See `PERSISTENCE.md`.

use dbcracker::cracker_core::{ConcurrentColumn, CrackerColumn};
use dbcracker::engine::durability::{column_key, delta_key, META_KEY};
use dbcracker::engine::scenario::{SCENARIO_COLUMN, SCENARIO_TABLE};
use dbcracker::engine::{AdaptiveDb, DbScenarioRunner, OutputMode, RangeQuery, Table};
use dbcracker::prelude::*;
use dbcracker::storage::CheckpointStore;
use std::path::{Path, PathBuf};

const TABLE: &str = "t";
const COLUMN: &str = "v";
const MODES: [(ConcurrencyMode, &str); 2] = [
    (ConcurrencyMode { shards: 1 }, "single"),
    (ConcurrencyMode { shards: 4 }, "sharded"),
];

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
    db_configured(base, mode, CrackerConfig::default())
}

fn db_configured(base: &[i64], mode: ConcurrencyMode, config: CrackerConfig) -> AdaptiveDb {
    let mut db = AdaptiveDb::with_config(config).with_concurrency(mode);
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
        (ConcurrencyMode::default(), "single"),
        (ConcurrencyMode { shards: 4 }, "sharded"),
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

/// Copy every file of `dir` into a fresh `image`: what a crash of the
/// live process leaves on disk once every append was acknowledged.
fn crash_image(dir: &Path, image: &Path) {
    std::fs::create_dir_all(image).unwrap();
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), image.join(entry.file_name())).unwrap();
    }
}

#[test]
fn an_overlay_past_the_old_merge_floor_survives_checkpoint_and_crash() {
    // A column merges once `len / STAGE_SHARE` rows are staged, so a
    // checkpoint taken mid-burst carries an overlay that grows with the
    // column: here 1 600 staged inserts and 40 deletes go into the
    // checkpoint and 800 more inserts into the redo log alone, against one
    // shard's trigger of 3 125 (four shards take the floor, 1 024 each).
    let n = 200_000;
    let base = base_column(n);
    for (mode, tag) in MODES {
        let dir = scratch(&format!("big-overlay-{tag}"));
        let image = scratch(&format!("big-overlay-{tag}-image"));
        let mut oracle = SortedOracle::new(&base);
        let mut db = db_with_table(&base, mode);
        let mut mix = Mix(23);
        for _ in 0..8 {
            let w = mix.window(n as i64, 10_000);
            let q = RangeQuery::new(TABLE, COLUMN, w.to_pred());
            db.select(&q, OutputMode::Count).unwrap();
        }
        db.attach_durability(&dir, 1).unwrap();
        let mut next = n as u32;
        let mut stage = |db: &mut AdaptiveDb, oracle: &mut SortedOracle, batches: u32| {
            for _ in 0..batches {
                let rows: Vec<(u32, i64)> = (next..next + 100)
                    .map(|oid| (oid, (mix.next() % n as u64) as i64))
                    .collect();
                db.stage_insert_batch(TABLE, COLUMN, &rows).unwrap();
                for &(oid, v) in &rows {
                    oracle.insert(oid, v);
                }
                next += 100;
            }
        };
        stage(&mut db, &mut oracle, 16);
        for victim in (0..40u32).map(|i| i * 4_999) {
            assert_eq!(
                db.stage_delete(TABLE, COLUMN, victim).unwrap(),
                oracle.delete(victim)
            );
        }
        // Cancel some staged inserts too.
        for oid in (n as u32..n as u32 + 40).step_by(4) {
            assert!(db.stage_delete(TABLE, COLUMN, oid).unwrap());
            assert!(oracle.delete(oid));
        }
        db.checkpoint().unwrap();
        stage(&mut db, &mut oracle, 8);
        let staged: usize = (db.shared_cracker(TABLE, COLUMN).unwrap())
            .read_shards(|c| c.pending_len())
            .into_iter()
            .sum();
        assert_eq!(staged, 2_400 - 10 + 40, "{tag}: nothing merged");
        crash_image(&dir, &image);
        drop(db);

        let mut rec = AdaptiveDb::recover(&image, CrackerConfig::default(), 1).unwrap();
        let col = rec.shared_cracker(TABLE, COLUMN).unwrap();
        let recovered: usize = col.read_shards(|c| c.pending_len()).into_iter().sum();
        assert_eq!(recovered, staged, "{tag}: the overlay comes back staged");
        let probes: Vec<Window> = (0..12).map(|_| mix.window(n as i64, 10_000)).collect();
        assert_matches_oracle(&mut rec, &oracle, &probes);
        assert_eq!(rec.total_crack_stats().merges, 0, "{tag}");
        rec.shared_cracker(TABLE, COLUMN).unwrap().merge_pending();
        assert_matches_oracle(&mut rec, &oracle, &probes);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&image).ok();
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
    let mut db = db_with_table(&base, ConcurrencyMode::default());
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
    let mut db = db_with_table(&base, ConcurrencyMode::default());
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
            0..=9 => (case, ConcurrencyMode::default()),
            _ => (case - 10, ConcurrencyMode { shards: 4 }),
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
    let mut db = db_with_table(&base, ConcurrencyMode::default());
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
        (ConcurrencyMode::default(), "single"),
        (ConcurrencyMode { shards: 4 }, "sharded"),
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
        // One cracked copy per column, so one origin and one delta per
        // column.
        rec.checkpoint().unwrap();
        assert_eq!(
            cracked_payload_keys(&dir),
            vec![column_key(TABLE, COLUMN), delta_key(TABLE, COLUMN)],
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

/// The payload file `dir`'s committed manifest holds under `key`.
fn payload_file(dir: &Path, key: &str) -> String {
    let manifest = CheckpointStore::open(dir).unwrap().manifest().unwrap();
    manifest
        .unwrap()
        .entry(key)
        .expect("a payload")
        .file
        .clone()
}

/// Per shard: the boundaries `(value, lte, position)` in key order and
/// each piece's sorted `(value, oid)` multiset — what two columns with the
/// same tuples and boundaries share, whatever the order inside a piece.
type ShardLayout = (Vec<(i64, bool, usize)>, Vec<Vec<(i64, u32)>>);

fn layout(col: &ConcurrentColumn<i64>) -> Vec<ShardLayout> {
    let shard = |c: &CrackerColumn<i64>| {
        let bounds = (c.index().boundaries())
            .map(|(k, &pos)| (k.value, k.lte, pos))
            .collect();
        let pieces = (c.index().pieces().iter())
            .map(|p| {
                let vals = c.values()[p.start..p.end].iter().copied();
                let mut piece: Vec<(i64, u32)> =
                    vals.zip(c.oids()[p.start..p.end].iter().copied()).collect();
                piece.sort_unstable();
                piece
            })
            .collect();
        (bounds, pieces)
    };
    col.read_shards(shard)
}

/// Stage `count` fresh inserts (OIDs from `*next`, values under 10 000)
/// and, when `deletes`, one delete of a distinct base OID under 10 000 per
/// fourth insert, on `db` and the oracle alike; then force the merge.
fn stage_and_merge(
    db: &mut AdaptiveDb,
    oracle: &mut SortedOracle,
    mix: &mut Mix,
    next: &mut u32,
    count: u32,
    deletes: bool,
) {
    for _ in 0..count {
        let value = (mix.next() % 10_000) as i64;
        db.stage_insert(TABLE, COLUMN, *next, value).unwrap();
        oracle.insert(*next, value);
        if deletes && next.is_multiple_of(4) {
            // Base OIDs, each named once: `next` never repeats.
            let victim = (*next * 7_919) % 10_000;
            assert_eq!(
                db.stage_delete(TABLE, COLUMN, victim).unwrap(),
                oracle.delete(victim)
            );
        }
        *next += 1;
    }
    db.shared_cracker(TABLE, COLUMN).unwrap().merge_pending();
}

#[test]
fn a_delta_checkpoint_recovers_the_live_piece_map_in_both_modes() {
    // Cracks, staged inserts and deletes, forced merges and a contained
    // crack panic (its shard heals cold, losing the origin's boundaries)
    // between two checkpoints: the second writes only the delta. Recovery
    // replays it onto the origin, drops the boundaries the heal lost, and
    // must land on the live column's
    // boundaries and positions and on each piece's `(value, oid)`
    // multiset (the order inside a piece may differ: no select sees it),
    // answer like the oracle, and repeat the last range index-only.
    let n = 20_000;
    let base = base_column(n);
    let config = CrackerConfig::default().with_merge_threshold(256);
    for (mode, tag) in MODES {
        let dir = scratch(&format!("delta-{tag}"));
        let mut oracle = SortedOracle::new(&base);
        let mut db = db_configured(&base, mode, config);
        let mut mix = Mix(17);
        let crack = |db: &mut AdaptiveDb, mix: &mut Mix| {
            let w = mix.window(n as i64, 600);
            let q = RangeQuery::new(TABLE, COLUMN, w.to_pred());
            db.select(&q, OutputMode::Count).unwrap();
            q
        };
        for _ in 0..10 {
            crack(&mut db, &mut mix);
        }
        db.attach_durability(&dir, 1).unwrap();
        let origin = payload_file(&dir, &column_key(TABLE, COLUMN));
        let origin_layout = layout(db.shared_cracker(TABLE, COLUMN).unwrap());
        let before = db.total_crack_stats();
        let mut next = n as u32;
        let mut last = None;
        for round in 0..5 {
            stage_and_merge(&mut db, &mut oracle, &mut mix, &mut next, 40, true);
            if round == 2 {
                // The first shard's next crack tears it and panics; the
                // select contains the panic and heals the shard cold.
                db.shared_cracker(TABLE, COLUMN)
                    .unwrap()
                    .arm_panic_on_crack(0);
                let fired = (0..64).any(|_| {
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        crack(&mut db, &mut mix)
                    }))
                    .is_err()
                });
                assert!(fired, "{tag}: no select reached the armed shard");
            }
            for _ in 0..6 {
                last = Some(crack(&mut db, &mut mix));
            }
        }
        let d = db.total_crack_stats().delta_since(&before);
        assert!(d.merges >= 5 && d.cracks > 0, "{tag}: {d:?}");
        db.checkpoint().unwrap();
        assert_eq!(
            payload_file(&dir, &column_key(TABLE, COLUMN)),
            origin,
            "{tag}: the origin is carried forward, only the delta is written"
        );
        let live = layout(db.shared_cracker(TABLE, COLUMN).unwrap());
        let lost = |(o, l): (&ShardLayout, &ShardLayout)| {
            (o.0.iter()).any(|&(v, lte, _)| !l.0.iter().any(|b| (b.0, b.1) == (v, lte)))
        };
        assert!(
            origin_layout.iter().zip(&live).any(lost),
            "{tag}: the delta must lack a boundary of the origin"
        );
        let last = last.unwrap();
        // Staged after the checkpoint: only the redo log holds these.
        for oid in next..next + 3 {
            db.stage_insert(TABLE, COLUMN, oid, 77).unwrap();
            oracle.insert(oid, 77);
        }
        drop(db);

        let mut rec = AdaptiveDb::recover(&dir, config, 1).unwrap();
        assert_eq!(
            layout(rec.shared_cracker(TABLE, COLUMN).unwrap()),
            live,
            "{tag}"
        );
        let before = rec.total_crack_stats();
        rec.select(&last, OutputMode::Count).unwrap();
        let d = rec.total_crack_stats().delta_since(&before);
        assert_eq!(
            (d.cracks, d.tuples_touched),
            (0, 0),
            "{tag}: the repeat is index-only"
        );
        let probes: Vec<Window> = (0..20).map(|_| mix.window(n as i64, 900)).collect();
        assert_matches_oracle(&mut rec, &oracle, &probes);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn crossing_the_origin_share_rewrites_the_origin_and_empties_the_journal() {
    // A journal up to an eighth of the column keeps the origin; past it
    // the next checkpoint writes a fresh origin and starts the journal
    // over.
    let n = 4_000;
    let base = base_column(n);
    let config = CrackerConfig::default().with_merge_threshold(4_096);
    for (mode, tag) in MODES {
        let dir = scratch(&format!("share-{tag}"));
        let mut oracle = SortedOracle::new(&base);
        let mut db = db_configured(&base, mode, config);
        let mut mix = Mix(23);
        for _ in 0..8 {
            let w = mix.window(n as i64, 300);
            db.select(
                &RangeQuery::new(TABLE, COLUMN, w.to_pred()),
                OutputMode::Count,
            )
            .unwrap();
        }
        db.attach_durability(&dir, 1).unwrap();
        let key = column_key(TABLE, COLUMN);
        let origin = payload_file(&dir, &key);
        let mut next = n as u32;
        let journal = |db: &mut AdaptiveDb| db.shared_cracker(TABLE, COLUMN).unwrap().journal_len();

        stage_and_merge(&mut db, &mut oracle, &mut mix, &mut next, 200, false);
        db.checkpoint().unwrap();
        assert_eq!(payload_file(&dir, &key), origin, "{tag}: 200 ≤ 4 200 / 8");
        assert_eq!(journal(&mut db), Some(200), "{tag}");

        stage_and_merge(&mut db, &mut oracle, &mut mix, &mut next, 400, false);
        assert_eq!(journal(&mut db), Some(600), "{tag}: 600 > 4 600 / 8");
        db.checkpoint().unwrap();
        assert_ne!(payload_file(&dir, &key), origin, "{tag}: a fresh origin");
        assert_eq!(journal(&mut db), Some(0), "{tag}");
        drop(db);

        let mut rec = AdaptiveDb::recover(&dir, config, 1).unwrap();
        let probes: Vec<Window> = (0..12).map(|_| mix.window(n as i64, 500)).collect();
        assert_matches_oracle(&mut rec, &oracle, &probes);

        // The first checkpoint after a recovery writes a fresh origin; the
        // next one carries it, and the store recovers again.
        let origin = payload_file(&dir, &key);
        stage_and_merge(&mut rec, &mut oracle, &mut mix, &mut next, 50, false);
        rec.checkpoint().unwrap();
        let fresh = payload_file(&dir, &key);
        assert_ne!(fresh, origin, "{tag}: an origin after the recovery");
        stage_and_merge(&mut rec, &mut oracle, &mut mix, &mut next, 50, false);
        rec.checkpoint().unwrap();
        assert_eq!(payload_file(&dir, &key), fresh, "{tag}: then deltas");
        assert_eq!(journal(&mut rec), Some(50), "{tag}");
        drop(rec);
        let mut rec = AdaptiveDb::recover(&dir, config, 1).unwrap();
        assert_matches_oracle(&mut rec, &oracle, &probes);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn a_column_first_cracked_after_attach_gets_an_origin_at_its_first_checkpoint() {
    let n = 4_000;
    let base = base_column(n);
    let config = CrackerConfig::default().with_merge_threshold(4_096);
    for (mode, tag) in MODES {
        let dir = scratch(&format!("late-{tag}"));
        let mut oracle = SortedOracle::new(&base);
        let mut db = db_configured(&base, mode, config);
        db.attach_durability(&dir, 1).unwrap();
        assert!(
            cracked_payload_keys(&dir).is_empty(),
            "{tag}: nothing cracked yet"
        );
        let mut mix = Mix(29);
        let w = mix.window(n as i64, 300);
        db.select(
            &RangeQuery::new(TABLE, COLUMN, w.to_pred()),
            OutputMode::Count,
        )
        .unwrap();
        let mut next = n as u32;
        stage_and_merge(&mut db, &mut oracle, &mut mix, &mut next, 50, false);
        db.checkpoint().unwrap();
        assert_eq!(
            cracked_payload_keys(&dir),
            vec![column_key(TABLE, COLUMN), delta_key(TABLE, COLUMN)],
            "{tag}"
        );
        let origin = payload_file(&dir, &column_key(TABLE, COLUMN));
        let journal = db.shared_cracker(TABLE, COLUMN).unwrap().journal_len();
        assert_eq!(journal, Some(0), "{tag}: the origin holds the first merge");
        stage_and_merge(&mut db, &mut oracle, &mut mix, &mut next, 50, false);
        db.checkpoint().unwrap();
        assert_eq!(
            payload_file(&dir, &column_key(TABLE, COLUMN)),
            origin,
            "{tag}"
        );
        drop(db);

        let mut rec = AdaptiveDb::recover(&dir, config, 1).unwrap();
        let probes: Vec<Window> = (0..12).map(|_| mix.window(n as i64, 500)).collect();
        assert_matches_oracle(&mut rec, &oracle, &probes);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn scenario_replay_survives_a_mid_stream_restart() {
    // Replay a seeded update-heavy scenario through the durable runner,
    // checkpoint + restart halfway, and differentially check every
    // post-restart select against the oracle.
    for (mode, tag) in [
        (ConcurrencyMode::default(), "single"),
        (ConcurrencyMode { shards: 4 }, "sharded"),
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

/// The delta payload of the hand-assembled directory below, with its
/// second boundary recorded at `last_pos`.
fn hand_delta(last_pos: u8) -> Vec<u8> {
    let mut delta = vec![0]; // single-lock tag
    bytes_from(&mut delta, 0, &[]); // no splits
    le(&mut delta, 1); // one shard
    le(&mut delta, 5); // five tuples after the journal
    bytes_from(&mut delta, 5, &[0]); // journal: one insert, OID 5 …
    bytes_from(&mut delta, 0, &[0]); // … value 0
    bytes_from(&mut delta, 2, &[0]); // one delete, OID 2
    bytes_from(&mut delta, 1, &[0]); // one merge: inserts end at 1 …
    bytes_from(&mut delta, 1, &[0]); // … deletes end at 1
    bytes_from(&mut delta, 1, &[0, 4]); // boundary values 1 and 5 …
    bytes_from(&mut delta, 0, &[1, 0]); // … `v <= 1` and `v < 5` …
    bytes_from(&mut delta, 2, &[0, last_pos - 2]); // … at positions 2, last_pos
    bytes_from(&mut delta, 0, &[]); // no staged insert OIDs …
    bytes_from(&mut delta, 0, &[]); // … nor values
    bytes_from(&mut delta, 3, &[0]); // staged delete of OID 3
    delta
}

#[test]
fn a_hand_assembled_directory_recovers_to_the_expected_state() {
    // The on-disk format pinned byte by byte, independently of the
    // encoder: table t(v) = [5, 1, 4, 2, 3]. Its origin is the cracked
    // copy split at `v < 3` into [1, 2 | 5, 4, 3], with a staged insert
    // (oid 5, 0) and a staged delete of oid 2. Its delta journals one
    // merge of that overlay, leaving {1, 2, 0 | 5, 3}; drops `v < 3` and
    // records `v <= 1` at 2 and `v < 5` at 4; and stages a delete of oid
    // 3. The redo log holds one insert (oid 6, 10).
    let dir = scratch("hand-assembled");
    std::fs::create_dir_all(&dir).unwrap();
    let mut meta = Vec::new();
    le(&mut meta, 4); // meta version
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
        ("delta.bin", frame(1, &hand_delta(4))),
        ("wal.1.log", frame(2, &redo)),
    ] {
        std::fs::write(dir.join(file), bytes).unwrap();
    }
    let manifest = r#"{"version":1,"epoch":1,"entries":[
        {"key":"__meta__","file":"meta.bin","fingerprint":"m"},
        {"key":"table/t/v","file":"table.bin","fingerprint":"n5"},
        {"key":"column/t/v","file":"column.bin","fingerprint":"c"},
        {"key":"delta/t/v","file":"delta.bin","fingerprint":"d"}],
        "log":"wal.1.log"}"#;
    std::fs::write(dir.join("MANIFEST.json"), manifest).unwrap();

    let mut rec = AdaptiveDb::recover(&dir, CrackerConfig::default(), 1).unwrap();
    assert_eq!(
        rec.catalog().table(TABLE).unwrap().ints(COLUMN).unwrap(),
        [5, 1, 4, 2, 3]
    );
    assert_eq!(rec.cracked_columns(), 1);
    let col = rec.shared_cracker(TABLE, COLUMN).unwrap();
    assert_eq!(
        layout(col),
        vec![(
            vec![(1, true, 2), (5, false, 4)],
            vec![vec![(0, 5), (1, 1)], vec![(2, 3), (3, 4)], vec![(5, 0)]]
        )],
        "the delta's boundaries over the journaled tuples"
    );
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
    assert_eq!(oids(-100, 100), [0, 1, 4, 5, 6], "oids 2 and 3 are deleted");
    assert_eq!(oids(-100, 3), [1, 5], "the journaled insert 5 has value 0");
    assert_eq!(oids(10, 11), [6], "the logged insert replayed");
    drop(rec);

    // A boundary position edited by hand, under a valid checksum: the
    // replay puts `v < 5` at 4, and recovery refuses the record of 3.
    std::fs::write(dir.join("delta.bin"), frame(1, &hand_delta(3))).unwrap();
    match AdaptiveDb::recover(&dir, CrackerConfig::default(), 1) {
        Err(dbcracker::engine::EngineError::Storage(
            dbcracker::storage::StorageError::PersistFormat(m),
        )) => assert!(m.contains("column t.v") && m.contains("records 3"), "{m}"),
        Err(e) => panic!("expected PersistFormat, got {e}"),
        Ok(_) => panic!("a misplaced boundary must not recover"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_flipped_bit_in_a_column_payload_is_refused_at_recovery() {
    let n = 2_000;
    let base = base_column(n);
    let dir = scratch("flipped");
    let mut db = db_with_table(&base, ConcurrencyMode::default());
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
